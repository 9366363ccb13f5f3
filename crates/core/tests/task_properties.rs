//! Property-based tests of the speculation policies and their driver
//! over the task-level wave executor.

use proptest::prelude::*;

use quasar_cluster::tasks::{TaskExecution, TaskSpec};
use quasar_core::straggler::{run, JobView, Policy, SCAN_S};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Quasar's rule never marks a healthy task when skew is mild and
    /// stragglers are far slower.
    #[test]
    fn underperforming_has_no_false_positives(
        seed in any::<u64>(),
        fraction in 0.02..0.15f64,
    ) {
        let spec = TaskSpec {
            tasks: 40,
            slots: 20,
            mean_task_s: 60.0,
            skew: 0.15,
            straggler_fraction: fraction,
            straggler_slowdown: 3.5,
            seed,
        };
        let mut exec = TaskExecution::new(spec);
        exec.advance(15.0);
        for idx in Policy::Quasar.marks(&JobView::of(&exec, spec.mean_task_s)) {
            prop_assert!(
                exec.tasks()[idx].straggler,
                "task {idx} flagged but healthy"
            );
        }
    }

    /// Relaunching every task Quasar marks never makes the job slower
    /// (relaunched copies run at nominal speed).
    #[test]
    fn mitigation_never_hurts(seed in any::<u64>()) {
        let spec = TaskSpec {
            tasks: 48,
            slots: 16,
            mean_task_s: 40.0,
            skew: 0.15,
            straggler_fraction: 0.1,
            straggler_slowdown: 4.0,
            seed,
        };
        let unmitigated = run(spec, None).completion_s;
        let mitigated = run(spec, Some(Policy::Quasar)).completion_s;
        prop_assert!(mitigated <= unmitigated + SCAN_S + 1e-9);
    }
}
