//! Property-based tests on the task-level wave executor.

use proptest::prelude::*;

use quasar_cluster::tasks::{TaskExecution, TaskSpec};

fn spec_strategy() -> impl Strategy<Value = TaskSpec> {
    (
        1usize..60,
        1usize..20,
        5.0..120.0f64,
        0.0..0.4f64,
        0.0..0.2f64,
        1.5..5.0f64,
        any::<u64>(),
    )
        .prop_map(
            |(tasks, slots, mean_task_s, skew, straggler_fraction, straggler_slowdown, seed)| {
                TaskSpec {
                    tasks,
                    slots,
                    mean_task_s,
                    skew,
                    straggler_fraction,
                    straggler_slowdown,
                    seed,
                }
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every execution terminates, progress is monotone in [0, 1], and
    /// completion time is at least the longest task and at most the
    /// serial sum.
    #[test]
    fn executions_terminate_with_sane_progress(spec in spec_strategy()) {
        let mut exec = TaskExecution::new(spec);
        let longest = exec
            .tasks()
            .iter()
            .map(|t| t.duration_s)
            .fold(0.0, f64::max);
        let serial: f64 = exec.tasks().iter().map(|t| t.duration_s).sum();

        let step = spec.mean_task_s / 10.0;
        let mut last_progress = 0.0;
        let mut guard = 0;
        while !exec.is_complete() {
            exec.advance(step);
            let p = exec.job_progress();
            prop_assert!((0.0..=1.0).contains(&p));
            prop_assert!(p >= last_progress - 1e-12);
            last_progress = p;
            guard += 1;
            prop_assert!(guard < 1_000_000, "must terminate");
        }
        prop_assert!((exec.job_progress() - 1.0).abs() < 1e-9);
        prop_assert!(exec.now_s() >= longest - 1e-9);
        // Discrete stepping overshoots by up to one step per wave.
        let waves = spec.tasks.div_ceil(spec.slots) as f64;
        prop_assert!(exec.now_s() <= serial + waves * step + 1e-9);
    }

    /// More slots never slow a job down.
    #[test]
    fn more_slots_never_hurt(
        tasks in 4usize..40,
        mean_task_s in 10.0..60.0f64,
        seed in any::<u64>(),
    ) {
        let make = |slots: usize| TaskSpec {
            tasks,
            slots,
            mean_task_s,
            skew: 0.2,
            straggler_fraction: 0.0,
            straggler_slowdown: 1.0,
            seed,
        };
        let few = TaskExecution::new(make(2)).completion_time();
        let many = TaskExecution::new(make(8)).completion_time();
        prop_assert!(many <= few + 1e-6, "8 slots {many:.1}s vs 2 slots {few:.1}s");
    }
}
