//! Quickstart: manage a small heterogeneous cluster with Quasar.
//!
//! Builds the paper's 40-server local cluster, bootstraps the offline
//! classification history, submits one Hadoop-style analytics job and one
//! memcached-style service — each with a *performance target*, never a
//! reservation — and reports how Quasar did. It panics if the job
//! misses its completion target or the service keeps fewer than 95 % of
//! its queries within their latency bound.
//!
//! Run with: `cargo run --release --example quickstart`

use quasar::cluster::{ClusterSpec, JobState, SimConfig, Simulation};
use quasar::core::{QuasarConfig, QuasarManager};
use quasar::workloads::generate::Generator;
use quasar::workloads::{
    Dataset, LoadPattern, PlatformCatalog, Priority, QosTarget, WorkloadClass,
};

fn main() {
    // The ten platforms of Table 1 (dual-core Atoms through 24-core
    // Xeons), four servers each.
    let catalog = PlatformCatalog::local();

    // Offline bootstrap: exhaustively profile a couple dozen training
    // workloads so collaborative filtering has dense rows to lean on.
    // (Expensive; real deployments do this once per hardware generation.)
    println!("bootstrapping offline classification history...");
    let manager = QuasarManager::bootstrap(&catalog, QuasarConfig::default());

    let mut sim = Simulation::new(
        ClusterSpec::uniform(catalog.clone(), 4),
        Box::new(manager),
        SimConfig::default(),
    );

    // Workloads express *what* they need, not how many servers.
    let mut generator = Generator::new(catalog, 42);
    let job = generator.analytics_job(
        WorkloadClass::Hadoop,
        "recommender",
        Dataset::new("netflix", 10.0, 1.2),
        4,
        1_800.0,
        Priority::Guaranteed,
    );
    let job_id = job.id();
    let job_target = job.spec().target;

    let service = generator.service(
        WorkloadClass::Memcached,
        "session-cache",
        32.0,
        LoadPattern::Flat { qps: 80_000.0 },
        Priority::Guaranteed,
    );
    let service_id = service.id();

    println!("submitting {} and {}", job.spec(), service.spec());
    sim.submit_at(job, 0.0);
    sim.submit_at(service, 10.0);

    // Fill the leftover capacity with best-effort batch work.
    for (i, filler) in generator.best_effort_fill(10).into_iter().enumerate() {
        sim.submit_at(filler, 20.0 + i as f64 * 5.0);
    }

    sim.run_until(3.0 * 3_600.0);

    // --- Results ---
    let world = sim.world();
    assert_eq!(
        world.state(job_id),
        JobState::Completed,
        "job should finish"
    );
    let record = world
        .completions()
        .into_iter()
        .find(|r| r.id == job_id)
        .expect("job record");
    let QosTarget::CompletionTime { seconds: target } = job_target else {
        unreachable!()
    };
    let executed = record.execution_s().unwrap();
    println!(
        "analytics job: target {:.0}s, executed in {:.0}s ({:.1}% from target, {:.0}s of profiling)",
        target,
        executed,
        (executed / target - 1.0) * 100.0,
        record.profiling_s,
    );
    assert!(executed <= target, "job should meet its target");

    let qos = world
        .qos_records()
        .into_iter()
        .find(|r| r.id == service_id)
        .expect("service record");
    println!(
        "service: served {:.1}% of offered load, {:.1}% of queries within the 200us p99 bound",
        qos.served_fraction() * 100.0,
        qos.qos_fraction() * 100.0,
    );
    assert!(
        qos.qos_fraction() >= 0.95,
        "service should keep 95% of queries within its bound"
    );
    println!(
        "cluster: {:.1}% mean CPU utilization over the run",
        world.metrics().summary().mean_cpu * 100.0
    );
}
