//! Thread-scaling determinism smoke: every experiment's report must be
//! byte-identical no matter how many workers the parallel runner uses.
//!
//! `#[ignore]`d because it reruns the full quick suite twice (~a
//! minute); CI runs it with `-- --ignored`.

use quasar_experiments::{run_experiment_with, Scale, EXPERIMENT_IDS};

#[test]
#[ignore = "reruns the full quick suite twice; CI runs it with -- --ignored"]
fn reports_are_identical_across_thread_counts() {
    // Blank fig3's wall-clock decision-time columns, the one measured
    // (non-derived) value in any report. This is the only test in this
    // binary, so nothing reads the environment concurrently.
    std::env::set_var("QUASAR_MASK_TIMINGS", "1");
    for id in EXPERIMENT_IDS {
        let serial = run_experiment_with(id, Scale::Quick, 1).expect("known id");
        let parallel = run_experiment_with(id, Scale::Quick, 4).expect("known id");
        assert_eq!(
            serial, parallel,
            "{id}: report differs between --threads 1 and --threads 4"
        );
    }
}
