//! A latency-critical web service under a traffic spike (the Fig. 8
//! scenario): Quasar sizes the service from its QPS/latency target,
//! right-sizes as load changes, and absorbs a 4x spike by scaling up in
//! place before scaling out — while best-effort work soaks up the idle
//! capacity.
//!
//! Run with: `cargo run --release --example latency_service`

use quasar::cluster::{ClusterSpec, Observation, SimConfig, Simulation};
use quasar::core::{QuasarConfig, QuasarManager};
use quasar::workloads::generate::Generator;
use quasar::workloads::{LoadPattern, PlatformCatalog, Priority, WorkloadClass};

fn main() {
    let catalog = PlatformCatalog::local();
    println!("bootstrapping offline history...");
    let manager = QuasarManager::bootstrap(&catalog, QuasarConfig::default());
    let stats = manager.stats_handle();

    let mut sim = Simulation::new(
        ClusterSpec::uniform(catalog.clone(), 4),
        Box::new(manager),
        SimConfig::default(),
    );

    let horizon = 7_200.0;
    let load = LoadPattern::Spike {
        base_qps: 60_000.0,
        spike_qps: 240_000.0,
        start_s: horizon * 0.5,
        duration_s: horizon * 0.2,
    };
    let mut generator = Generator::new(catalog, 0x11);
    let service = generator.service(
        WorkloadClass::Webserver,
        "hotcrp",
        6.0,
        load,
        Priority::Guaranteed,
    );
    let id = service.id();
    println!("submitting {} (load spikes 4x mid-run)", service.spec());
    sim.submit_at(service, 0.0);
    for (i, filler) in generator.best_effort_fill(25).into_iter().enumerate() {
        sim.submit_at(filler, 30.0 + i as f64 * 20.0);
    }

    println!(
        "{:>6}  {:>9}  {:>9}  {:>7}  {:>9}",
        "t(min)", "offered", "achieved", "cores", "p99(us)"
    );
    let mut t = 0.0;
    while t < horizon {
        t += 300.0;
        sim.run_until(t);
        let world = sim.world();
        let (achieved, p99) = match world.observation(id) {
            Some(Observation::Service(o)) => (o.achieved_qps, o.p99_latency_us),
            _ => (0.0, f64::NAN),
        };
        let cores = world.placement(id).map(|p| p.total_cores()).unwrap_or(0);
        println!(
            "{:>6.0}  {:>9.0}  {:>9.0}  {:>7}  {:>9.0}",
            t / 60.0,
            load.qps_at(t),
            achieved,
            cores,
            p99
        );
    }

    let record = &sim.world().qos_records()[0];
    println!(
        "\nqueries meeting the 100ms p99 QoS: {:.1}%  (windows met: {}/{})",
        record.qos_fraction() * 100.0,
        record.windows_met,
        record.windows_total
    );
    let s = stats.lock().unwrap();
    println!(
        "manager activity: {} classifications, {} adaptations, {} best-effort evictions",
        s.classifications, s.adaptations, s.evictions
    );

    // The decision journal explains how the spike was absorbed. Its
    // in-memory ring keeps the last 512 events, so `for_workload` sees
    // the service's decisions among those.
    println!("\nlast decisions for the service:");
    for (t, event) in sim
        .world()
        .journal()
        .for_workload(id)
        .iter()
        .rev()
        .take(8)
        .rev()
    {
        println!("  [{:>7.0}s] {event}", t);
    }
}
