//! Integration tests for the experiment harness itself: every id
//! dispatches, and the fast experiments produce sane reports.

use quasar::experiments::{run_experiment, Scale, EXPERIMENT_IDS};

#[test]
fn unknown_ids_are_rejected() {
    assert!(run_experiment("fig99", Scale::Quick).is_none());
    assert!(run_experiment("", Scale::Quick).is_none());
}

#[test]
fn every_experiment_id_is_dispatched() {
    // Only check dispatch plumbing for the cheap ones here; the full set
    // runs under the per-experiment unit tests and CI's quick `all`.
    for id in ["fig2", "table3", "fig10"] {
        assert!(
            EXPERIMENT_IDS.contains(&"fig2"),
            "id registry must contain the canonical ids"
        );
        let report = run_experiment(id, Scale::Quick).expect(id);
        assert!(!report.is_empty(), "{id} must produce a report");
    }
}

#[test]
fn fig2_report_mentions_every_sweep() {
    let report = run_experiment("fig2", Scale::Quick).unwrap();
    for needle in [
        "heterogeneity",
        "interference@A",
        "scale-out@A",
        "dataset@A",
        "knee",
    ] {
        assert!(report.contains(needle), "fig2 report must mention {needle}");
    }
}
