//! Integration test for the §4.4 manager-failover extension.

use quasar::cluster::{ClusterSpec, Observation, SimConfig, Simulation};
use quasar::core::{HistorySet, QuasarConfig, QuasarManager};
use quasar::workloads::generate::Generator;
use quasar::workloads::{LoadPattern, PlatformCatalog, Priority, WorkloadClass};

fn shared_history() -> HistorySet {
    use std::sync::OnceLock;
    static H: OnceLock<HistorySet> = OnceLock::new();
    H.get_or_init(|| HistorySet::bootstrap(&PlatformCatalog::local(), 12, 0xE47))
        .clone()
}

#[test]
fn failover_restores_classifications_and_queues() {
    let catalog = PlatformCatalog::local();
    let manager = QuasarManager::with_history(shared_history(), QuasarConfig::default());
    let mut sim = Simulation::new(
        ClusterSpec::uniform(catalog.clone(), 2),
        Box::new(manager),
        SimConfig::default(),
    );
    let mut generator = Generator::new(catalog, 0xE49);
    let svc = generator.service(
        WorkloadClass::Memcached,
        "mc",
        16.0,
        LoadPattern::Flat { qps: 60_000.0 },
        Priority::Guaranteed,
    );
    let id = svc.id();
    sim.submit_at(svc, 0.0);
    sim.run_until(600.0);

    // The primary cannot be reached inside the simulation; in a real
    // deployment it mirrors its state to the standby continuously. Here
    // the standby is a clone of a primary that classified a service.
    let primary = QuasarManager::with_history(shared_history(), QuasarConfig::default());
    let mut scratch = Simulation::new(
        ClusterSpec::uniform(PlatformCatalog::local(), 2),
        Box::new(quasar::cluster::managers::NullManager),
        SimConfig::default(),
    );
    // Drive the primary's arrival handler directly against a scratch world.
    let mut primary = primary;
    let mut generator = Generator::new(PlatformCatalog::local(), 0xE49);
    let svc2 = generator.service(
        WorkloadClass::Memcached,
        "mc",
        16.0,
        LoadPattern::Flat { qps: 60_000.0 },
        Priority::Guaranteed,
    );
    let id2 = svc2.id();
    scratch.submit_at(svc2, 0.0);
    scratch.run_until(10.0);
    quasar::cluster::Manager::on_arrival(&mut primary, scratch.world_mut(), id2);

    let standby = primary.clone();
    let original = primary.classification(id2).expect("classified");
    let mirrored = standby.classification(id2).expect("mirrored");
    assert_eq!(original, mirrored, "classification must survive failover");
    assert_eq!(standby.stats(), primary.stats());

    // The running simulation continues meanwhile.
    sim.run_until(900.0);
    assert!(matches!(
        sim.world().observation(id),
        Some(Observation::Service(_))
    ));
}
