//! Differential property test: the event-heap simulator core and the
//! retained dense tick loop produce *identical* outcomes — same
//! completion digest, same final clock bits, same metrics grid — for
//! arbitrary workload sets, arrival times (including mid-tick ones,
//! which must be delivered at the covering tick), and tick sizes.

use proptest::prelude::*;

use quasar_cluster::{ClusterSpec, FifoGreedy, SimConfig, Simulation};
use quasar_workloads::generate::Generator;
use quasar_workloads::{PlatformCatalog, Priority};

/// Runs the same submission schedule through one of the two drivers and
/// returns every deterministic outcome: (completion digest, completed
/// count, final clock bits, metrics sample count).
fn run(dense: bool, jobs: &[(f64, f64)], tick_s: f64) -> (u64, usize, u64, usize) {
    let config = SimConfig {
        tick_s,
        noise: 0.0,
        metrics_interval_s: 60.0,
        seed: 7,
    };
    let spec = ClusterSpec::uniform(PlatformCatalog::local(), 2);
    let mut sim = Simulation::new(spec, Box::new(FifoGreedy::new(4, 4.0)), config);
    let mut generator = Generator::new(PlatformCatalog::local(), 99);
    let mut last_arrival: f64 = 0.0;
    for (i, &(at_s, duration_s)) in jobs.iter().enumerate() {
        let workload = generator.single_node_job(format!("p{i}"), duration_s, Priority::Guaranteed);
        sim.submit_at(workload, at_s);
        last_arrival = last_arrival.max(at_s);
    }
    let t_end_s = last_arrival + 8_000.0;
    if dense {
        sim.run_until_dense(t_end_s);
    } else {
        sim.run_until(t_end_s);
    }
    let world = sim.world();
    (
        world.completion_digest(),
        world.completions().len(),
        world.now().to_bits(),
        world.metrics().samples().len(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Whatever the arrival times (on- or off-grid), durations, and
    /// tick size, the event-driven core is outcome-equivalent to the
    /// dense loop — and every job completes within the horizon.
    #[test]
    fn event_core_matches_dense_core(
        jobs in proptest::collection::vec((0.0..8_000.0f64, 50.0..600.0f64), 1..10),
        tick_index in 0usize..4,
    ) {
        let tick_s = [1.0, 2.5, 5.0, 7.0][tick_index];
        let event = run(false, &jobs, tick_s);
        let dense = run(true, &jobs, tick_s);
        prop_assert_eq!(&event, &dense);
        prop_assert_eq!(event.1, jobs.len(), "all jobs complete in both drivers");
    }
}
