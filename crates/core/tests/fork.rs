//! `Simulation::fork`: a run copied by value mid-way continues, in both
//! branches, exactly as the uninterrupted run does.

use std::sync::OnceLock;

use quasar_cluster::chunk::replay_digest;
use quasar_cluster::{
    ChunkProvider, ClusterSpec, CompletionRecord, EpisodeRecord, FileChunks, HeatmapSample,
    JobState, MemoryChunks, PhaseChange, QosRecord, Retention, SimConfig, Simulation,
};
use quasar_core::{HistorySet, QuasarConfig, QuasarManager};
use quasar_workloads::generate::Generator;
use quasar_workloads::PlatformCatalog;

const JOBS: usize = 24;
const ARRIVAL_GAP_S: f64 = 25.0;
/// Before the last arrival (575 s) and before both phase changes.
const FORK_S: f64 = 410.0;
const HORIZON_S: f64 = 4_000.0;
const CHUNK_CAP: usize = 4;

fn history() -> HistorySet {
    static H: OnceLock<HistorySet> = OnceLock::new();
    H.get_or_init(|| {
        let config = QuasarConfig::fast_test();
        HistorySet::bootstrap(
            &PlatformCatalog::local(),
            config.training_workloads,
            config.seed,
        )
    })
    .clone()
}

/// A mixed fleet under Quasar with measurement noise, arriving every
/// 25 s, and two services whose phase changes fire after the fork.
fn start(retention: Retention, store: Box<dyn ChunkProvider>) -> Simulation {
    let catalog = PlatformCatalog::local();
    let manager = QuasarManager::with_history(history(), QuasarConfig::fast_test());
    let config = SimConfig::default();
    assert!(config.noise > 0.0);
    let mut sim = Simulation::new(
        ClusterSpec::uniform(catalog.clone(), 4),
        Box::new(manager),
        config,
    );
    sim.world_mut().set_retention(retention);
    sim.world_mut()
        .journal_mut()
        .attach_provider(CHUNK_CAP, store);
    let fleet = Generator::new(catalog, 7).mixed_fleet(JOBS);
    let services: Vec<_> = fleet
        .iter()
        .filter(|w| !w.spec().class.is_batch())
        .map(|w| w.id())
        .collect();
    let batch_profile = fleet
        .iter()
        .find(|w| w.spec().class.is_batch())
        .map(|w| *w.model().interference())
        .expect("a batch job in the fleet");
    assert!(services.len() >= 2, "{} services", services.len());
    for (i, w) in fleet.into_iter().enumerate() {
        sim.submit_at(w, i as f64 * ARRIVAL_GAP_S);
    }
    sim.schedule_phase_change(services[0], 900.0, PhaseChange::RateFactor(0.6));
    sim.schedule_phase_change(
        services[1],
        1_200.0,
        PhaseChange::Interference(batch_profile),
    );
    sim
}

#[derive(Debug, PartialEq)]
struct Outcome {
    completion_digest: u64,
    completions: Vec<CompletionRecord>,
    qos_records: Vec<QosRecord>,
    qos_episodes: Vec<EpisodeRecord>,
    metrics_grid: Vec<u64>,
    clock: u64,
    streamed: u64,
    stream_digest: u64,
    replay_digest: u64,
}

/// Runs to the horizon, seals the journal, and reads every outcome,
/// with the utilization samples apart (see below).
fn finish(mut sim: Simulation) -> (Outcome, Vec<HeatmapSample>) {
    sim.run_until(HORIZON_S);
    sim.world_mut().journal_mut().seal_open_chunk();
    let world = sim.world();
    let journal = world.journal();
    let outcome = Outcome {
        completion_digest: world.completion_digest(),
        completions: world.completions(),
        qos_records: world.qos_records(),
        qos_episodes: world.qos_episodes().to_vec(),
        metrics_grid: world
            .metrics()
            .samples()
            .iter()
            .map(|m| m.time_s.to_bits())
            .collect(),
        clock: world.now().to_bits(),
        streamed: journal.streamed(),
        stream_digest: journal.stream_digest(),
        replay_digest: replay_digest(journal.provider().expect("chunked")).expect("replay"),
    };
    (outcome, world.metrics().samples().to_vec())
}

/// Forked at 410 s, with arrivals still queued, open QoS episodes and
/// phase changes pending, both branches equal the uninterrupted run in
/// every outcome, each replaying its own chunk store, under both
/// retention policies.
///
/// The `quasar_obs` registry counters are not compared: they are
/// process-global, so a fork's work counts there too. The utilization
/// samples are compared between the two branches only: a sample sums
/// placements in hash-map order, and a separately built run's maps
/// iterate in another order, which can move a sum's last bit. A fork
/// copies its maps' hashers and layout, so its branches agree bitwise.
#[test]
fn forked_run_matches_uninterrupted_run() {
    for retention in [Retention::KeepAll, Retention::DropCompleted] {
        let (reference, _) = finish(start(retention, Box::new(MemoryChunks::new())));
        assert!(!reference.completions.is_empty(), "{retention:?}");
        if retention == Retention::KeepAll {
            assert!(
                reference
                    .completions
                    .iter()
                    .any(|c| c.submitted_s > FORK_S && c.finished_s.is_some()),
                "a job submitted after the fork completes"
            );
        }
        assert!(!reference.qos_records.is_empty(), "{retention:?}");
        assert_eq!(
            reference.qos_episodes.is_empty(),
            retention == Retention::DropCompleted,
            "only KeepAll keeps closed episodes"
        );
        assert_eq!(reference.replay_digest, reference.stream_digest);

        let mut primary = start(retention, Box::new(MemoryChunks::new()));
        primary.run_until(FORK_S);
        let world = primary.world();
        let submitted: usize = [
            JobState::Pending,
            JobState::Running,
            JobState::Completed,
            JobState::Killed,
        ]
        .into_iter()
        .map(|s| world.count_in_state(s))
        .sum::<usize>()
            + world.retired_count() as usize;
        assert!(submitted < JOBS, "arrivals still queued at the fork");
        let journal = world.journal();
        let stored = journal.provider().expect("chunked").count();
        assert!(
            stored > 0 && journal.streamed() > stored * CHUNK_CAP as u64,
            "sealed chunks and an open one at the fork"
        );
        let mut probe = primary.fork().expect("a memory journal and Quasar fork");
        assert!(
            probe.world_mut().finish_qos() > 0,
            "open QoS episodes at the fork"
        );

        let branch = primary.fork().expect("a memory journal and Quasar fork");
        let (forked, forked_samples) = finish(branch);
        let (continued, continued_samples) = finish(primary);
        assert_eq!(forked, reference, "fork, {retention:?}");
        assert_eq!(continued, reference, "primary, {retention:?}");
        assert!(forked_samples == continued_samples, "{retention:?}");
    }
}

/// A run whose journal writes a chunk directory refuses to fork, so two
/// branches never write one directory, and trying does not disturb it.
#[test]
fn a_file_backed_journal_refuses_to_fork() {
    let dir = |name: &str| {
        let dir = std::env::temp_dir().join(format!("quasar-fork-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    };
    let (tried, untried) = (dir("tried"), dir("untried"));
    let open = |dir: &std::path::Path| Box::new(FileChunks::open(dir).expect("chunk dir"));

    let (reference, _) = finish(start(Retention::KeepAll, open(&untried)));
    let mut sim = start(Retention::KeepAll, open(&tried));
    sim.run_until(FORK_S);
    assert!(sim.fork().is_none(), "a FileChunks journal must not fork");
    assert_eq!(finish(sim).0, reference);

    let _ = std::fs::remove_dir_all(&tried);
    let _ = std::fs::remove_dir_all(&untried);
}
