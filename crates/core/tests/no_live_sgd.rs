//! A Quasar run classifies every arrival, and reclassifies a workload
//! whose interference phase changed, without training SGD: both fold the
//! new row into the history's axis factors. The registry is
//! process-global, so this is the only test in its binary.

use quasar_cluster::{ClusterSpec, PhaseChange, SimConfig, Simulation};
use quasar_core::{QuasarConfig, QuasarManager};
use quasar_obs::Registry;
use quasar_workloads::generate::Generator;
use quasar_workloads::PlatformCatalog;

#[test]
fn a_run_with_a_reclassification_trains_no_sgd() {
    let epochs = Registry::global().counter("quasar.cf.sgd.epochs");
    let before = epochs.get();

    let catalog = PlatformCatalog::local();
    let manager = QuasarManager::bootstrap(&catalog, QuasarConfig::fast_test());
    let stats = manager.stats_handle();
    let mut sim = Simulation::new(
        ClusterSpec::uniform(catalog.clone(), 4),
        Box::new(manager),
        SimConfig::default(),
    );
    let fleet = Generator::new(catalog, 7).mixed_fleet(24);
    let batch_profile = fleet
        .iter()
        .find(|w| w.spec().class.is_batch())
        .map(|w| *w.model().interference())
        .expect("a batch job in the fleet");
    let services: Vec<_> = fleet
        .iter()
        .filter(|w| !w.spec().class.is_batch())
        .map(|w| w.id())
        .collect();
    for (i, w) in fleet.into_iter().enumerate() {
        sim.submit_at(w, i as f64 * 25.0);
    }
    for &id in &services {
        sim.schedule_phase_change(id, 900.0, PhaseChange::Interference(batch_profile));
    }
    sim.run_until(4_000.0);

    let stats = *stats.lock().unwrap();
    assert!(stats.classifications >= 24, "{stats:?}");
    assert!(
        stats.phase_changes_detected > 0,
        "the run reclassified no interference: {stats:?}"
    );
    assert_eq!(
        epochs.get() - before,
        0,
        "SGD epochs trained during the run"
    );
}
