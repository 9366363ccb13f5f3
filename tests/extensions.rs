//! Integration tests for the §4.4 extensions: cost targets and manager
//! failover.

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

/// Runs one webserver under the given config; returns (served fraction,
/// peak cores held, total hourly price of the final placement).
fn run_service(
    config: QuasarConfig,
    load: LoadPattern,
    cost_limit: Option<f64>,
    horizon: f64,
) -> (f64, u32, f64) {
    let catalog = PlatformCatalog::local();
    let manager = QuasarManager::with_history(shared_history(), config);
    let mut sim = Simulation::new(
        ClusterSpec::uniform(catalog.clone(), 4),
        Box::new(manager),
        SimConfig::default(),
    );
    let mut generator = Generator::new(catalog.clone(), 0xE48);
    let mut service = generator.service(
        WorkloadClass::Webserver,
        "svc",
        6.0,
        load,
        Priority::Guaranteed,
    );
    if let Some(limit) = cost_limit {
        service = service.with_cost_limit(limit);
    }
    let id = service.id();
    sim.submit_at(service, 0.0);
    sim.run_until(horizon);

    let record = &sim.world().qos_records()[0];
    let price: f64 = sim
        .world()
        .placement(id)
        .map(|p| {
            p.nodes
                .iter()
                .map(|n| {
                    let platform = sim.world().platform_of(n.server);
                    platform.price_per_hour()
                        * (n.resources.cores as f64 / platform.cores as f64)
                            .max(n.resources.memory_gb / platform.memory_gb)
                })
                .sum()
        })
        .unwrap_or(0.0);
    (record.served_fraction(), record.peak_cores, price)
}

#[test]
fn cost_limits_constrain_the_allocation() {
    // A load that needs well over 0.15 $/h of servers to serve fully.
    let load = LoadPattern::Flat { qps: 500_000.0 };
    let (served_free, cores_free, _) = run_service(QuasarConfig::default(), load, None, 1_800.0);
    let (served_capped, cores_capped, price) =
        run_service(QuasarConfig::default(), load, Some(0.15), 1_800.0);
    assert!(
        cores_capped < cores_free,
        "the cap must shrink the allocation: {cores_capped} vs {cores_free}"
    );
    assert!(
        served_free > served_capped + 0.02,
        "unconstrained must serve more: {served_free:.3} vs {served_capped:.3}"
    );
    assert!(
        price <= 0.25,
        "final placement cost {price:.3} must stay near the 0.15 cap"
    );
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
