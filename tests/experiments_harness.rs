//! Integration tests for the experiment harness itself: every id
//! dispatches, and the fast experiments produce sane reports.

use quasar::experiments::{run_experiment, Scale, EXPERIMENT_IDS};

#[test]
fn unknown_ids_are_rejected() {
    // `fig12` (the removed sharded-admission sweep) is no id any more.
    for id in ["fig99", "", "fig12"] {
        assert!(run_experiment(id, Scale::Quick).is_none(), "{id:?}");
    }
}

#[test]
fn every_experiment_id_is_dispatched() {
    // Only check dispatch plumbing for the cheap ones here; the full set
    // runs under the per-experiment unit tests and CI's quick `all`. Each
    // id is paired with the canonical id it reports under: `all` lists
    // the canonical ids, and the aliases `table3`/`fig10` dispatch without
    // being listed.
    for (id, canonical) in [("fig2", "fig2"), ("table3", "fig5"), ("fig10", "fig9")] {
        assert!(
            EXPERIMENT_IDS.contains(&canonical),
            "id registry must contain {canonical}"
        );
        assert_eq!(
            EXPERIMENT_IDS.contains(&id),
            id == canonical,
            "only canonical ids are listed: {id}"
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
