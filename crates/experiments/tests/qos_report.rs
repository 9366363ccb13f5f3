//! Determinism and schema smoke for the QoS violation ledger: the
//! `qos-report` breakdown must be byte-identical across worker-thread
//! counts, and every incident the ledger dumps must be a valid
//! `quasar.qos.incident.v1` JSON line.

use quasar_experiments::qos_report::{run_with, QOS_REPORT_IDS};
use quasar_experiments::Scale;

#[test]
fn breakdown_is_identical_across_threads() {
    let baseline = run_with("fig9", Scale::Quick, 1)
        .expect("fig9 covered")
        .to_string();
    let threaded = run_with("fig9", Scale::Quick, 4)
        .expect("fig9 covered")
        .to_string();
    assert_eq!(
        baseline, threaded,
        "fig9 breakdown differs between --threads 1 and --threads 4"
    );
}

#[test]
fn incidents_are_valid_schema_tagged_json_lines() {
    let report = run_with("fig9", Scale::Quick, 1).expect("fig9 covered");
    let mut seen = 0;
    for ledger in &report.ledgers {
        for incident in &ledger.incidents {
            let line = incident.to_json_line();
            quasar_obs::json::validate(&line)
                .unwrap_or_else(|at| panic!("invalid JSON at byte {at}: {line}"));
            assert!(
                line.starts_with(r#"{"schema":"quasar.qos.incident.v1""#),
                "missing schema tag: {line}"
            );
            seen += 1;
        }
        // Per-cause counts always sum to the episode total.
        let by_cause: usize = quasar_cluster::QosCause::ALL
            .iter()
            .map(|&c| ledger.count(c))
            .sum();
        assert_eq!(by_cause, ledger.episodes.len());
    }
    // The quick fig9 day is deliberately oversubscribed; a run with no
    // incident dumps at all would mean the flight recorder is dark.
    assert!(seen > 0, "expected at least one incident dump");
}

#[test]
fn analytics_figures_are_covered_and_unknown_ids_rejected() {
    assert!(QOS_REPORT_IDS.contains(&"fig7"));
    // fig7 exercises the fig67 arm (fig6 shares it; fig9/fig10 are
    // covered above). Unknown ids return None instead of panicking.
    let report = run_with("fig7", Scale::Quick, 4).expect("fig7 covered");
    assert_eq!(report.ledgers.len(), 2, "baseline and quasar ledgers");
    assert!(run_with("bench-sim", Scale::Quick, 1).is_none());
}
