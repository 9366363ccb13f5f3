//! The only file that calls into the repository's crates: workload
//! generation, manager construction, the timed manager wrapper, the
//! stage-by-stage replay, the CF kernel calls and the registry counter
//! names. When the program's API is folded (ROADMAP item 3) this file is
//! the one to follow it; the rest of the harness sees only the types
//! defined here.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io;
use std::path::Path;
use std::rc::Rc;
use std::time::Instant;

use quasar_cf::{DenseMatrix, PqModel, Reconstructor, SgdConfig, SparseMatrix};
use quasar_cluster::chunk::{self, FileChunks, MemoryChunks};
use quasar_cluster::managers::NullManager;
use quasar_cluster::{
    ChunkProvider, ClusterSpec, FifoGreedy, JobState, JournalEvent, Manager, NodeAlloc,
    Observation, Retention, ServerId, SimConfig, Simulation, World,
};
use quasar_core::greedy::CandidateServer;
use quasar_core::{
    Classifier, GoalKind, GreedyScheduler, HistorySet, ManagerStats, Profiler, QuasarConfig,
    QuasarManager, Signature, SimilarityConfig, SimilarityIndex,
};
use quasar_interference::PressureVector;
use quasar_obs::registry::MetricValue;
use quasar_obs::Registry;
use quasar_workloads::generate::{bench_job, Generator};
use quasar_workloads::{
    Dataset, LoadPattern, PlatformCatalog, Priority, QosTarget, Workload, WorkloadClass, WorkloadId,
};

use crate::alloc::allocations;
use crate::schedule::{exponential_arrivals, recurring_order, sample_indices, SplitMix};
use crate::score::{Fate, Goal};
use crate::span::{Span, SpanLog};

/// The benchmark's workloads, in reporting order.
pub const WORKLOADS: [Kind; 4] = [
    Kind::CloudMixUnder,
    Kind::CloudMixOver,
    Kind::RecurringJobs,
    Kind::SimStream,
];

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Distinct mixed arrivals below cluster capacity.
    CloudMixUnder,
    /// The same mix above capacity: the pending queue is re-planned.
    CloudMixOver,
    /// 64 templates re-submitted, similarity index on.
    RecurringJobs,
    /// Single-node jobs through the FIFO manager: simulator only.
    SimStream,
}

impl Kind {
    /// The name used on the command line and in every report.
    pub fn name(self) -> &'static str {
        match self {
            Kind::CloudMixUnder => "cloud_mix_under",
            Kind::CloudMixOver => "cloud_mix_over",
            Kind::RecurringJobs => "recurring_jobs",
            Kind::SimStream => "sim_stream",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Kind> {
        WORKLOADS.into_iter().find(|k| k.name() == name)
    }

    /// Whether arrivals go through the full Quasar manager (profile,
    /// classify, plan, place) rather than the FIFO baseline.
    pub fn uses_quasar(self) -> bool {
        self != Kind::SimStream
    }
}

/// Templates the `recurring_jobs` workload cycles through.
pub const RECURRING_TEMPLATES: usize = 64;
/// Arrivals submitted per wave; bounds the event heap as `bench_sim.rs`
/// does.
const WAVE: usize = 10_000;
/// Journal events per sealed chunk.
const CHUNK_CAP: usize = 4096;
/// Seed of the offline history: the program's trained state, not a
/// benchmark input, so it does not follow `--seed`.
const HISTORY_SEED: u64 = 0x0FF2;
/// Calibrated duration of one `sim_stream` job on the best server.
const BENCH_JOB_S: f64 = 30.0;
/// Arrivals pushed through the stage replay.
const REPLAY_SAMPLE: usize = 100;
/// Calls timed per CF kernel.
const KERNEL_CALLS: usize = 9;

struct Sizes {
    arrivals: usize,
    mean_gap_s: f64,
    per_platform: usize,
    drain_s: f64,
}

/// Workload sizes: arrivals, mean gap, servers per platform type (the
/// EC2 catalog has 14 types, the local one 10) and drain time. A cold
/// classification costs about 12 ms of host time, so arrival counts are
/// what the time cap of a run allows (five repeats in 20 s on a 2-CPU
/// host); arrival *rates* and cluster sizes set the load. 40 servers per
/// type keeps `cloud_mix_under` clear of queueing for every seed tried;
/// at 20 per type some seeds queue half their arrivals behind the few
/// large services. `smoke` is about a sixth of the arrivals on a cluster
/// shrunk to match.
fn sizes(kind: Kind, smoke: bool) -> Sizes {
    let (arrivals, mean_gap_s, per_platform, drain_s) = match (kind, smoke) {
        (Kind::CloudMixUnder | Kind::RecurringJobs, false) => (240, 30.0, 40, 6_000.0),
        (Kind::CloudMixUnder | Kind::RecurringJobs, true) => (40, 30.0, 8, 3_000.0),
        (Kind::CloudMixOver, false) => (200, 10.0, 10, 20_000.0),
        (Kind::CloudMixOver, true) => (40, 10.0, 2, 10_000.0),
        (Kind::SimStream, false) => (100_000, 5.0, 4, 3_600.0),
        (Kind::SimStream, true) => (8_000, 5.0, 4, 3_600.0),
    };
    Sizes {
        arrivals,
        mean_gap_s,
        per_platform,
        drain_s,
    }
}

/// Where a repeat takes its arrivals from.
enum Source {
    /// Generated once at set-up and cloned per repeat.
    Fleet(Vec<Workload>),
    /// `bench_job(seed, k)` regenerated wave by wave, as `bench_sim.rs`
    /// does, so that memory stays bounded by one wave however long the
    /// stream is.
    BenchStream { catalog: PlatformCatalog, seed: u64 },
}

impl Source {
    /// Arrivals `range`, owned. Runs before a wave's clock starts:
    /// producing inputs is the generator's cost, not the program's.
    fn wave(&self, range: std::ops::Range<usize>) -> Vec<Workload> {
        match self {
            Source::Fleet(fleet) => fleet[range].to_vec(),
            Source::BenchStream { catalog, seed } => range
                .map(|k| bench_job(catalog, *seed, k as u64, BENCH_JOB_S))
                .collect(),
        }
    }
}

enum ManagerSpec {
    Quasar {
        history: Box<HistorySet>,
        config: QuasarConfig,
    },
    Fifo,
}

/// Everything a repeat needs, built once per set-up from `--seed`.
pub struct Prepared {
    /// The workload these inputs belong to.
    pub kind: Kind,
    cluster: ClusterSpec,
    sim_config: SimConfig,
    manager: ManagerSpec,
    source: Source,
    /// Scheduled submission time of each arrival, ascending; arrival `i`
    /// carries `WorkloadId(i)`.
    pub times_s: Vec<f64>,
    /// What each arrival asked for.
    pub goals: Vec<Goal>,
    /// When the run stops.
    pub horizon_s: f64,
    /// Host seconds of the offline history bootstrap (0 for `sim_stream`).
    pub bootstrap_s: f64,
    /// Host seconds generating the arrivals.
    pub fleet_s: f64,
    /// Host seconds of the whole set-up.
    pub setup_s: f64,
}

impl Prepared {
    /// Number of arrivals.
    pub fn arrivals(&self) -> usize {
        self.times_s.len()
    }

    /// Servers in the cluster.
    pub fn servers(&self) -> usize {
        self.cluster.total_servers()
    }

    /// The simulator's tick in seconds.
    pub fn tick_s(&self) -> f64 {
        self.sim_config.tick_s
    }

    /// Scheduled time of the last arrival.
    pub fn arrival_end_s(&self) -> f64 {
        self.times_s.last().copied().unwrap_or(0.0)
    }
}

fn goal_of(w: &Workload) -> Goal {
    match w.spec().target {
        QosTarget::CompletionTime { seconds } => Goal::CompletionS(seconds),
        QosTarget::Ips { ips } => Goal::Ips {
            ips,
            total_work: w.model().as_batch().map_or(0.0, |b| b.total_work()),
        },
        QosTarget::Throughput { .. } => Goal::Service,
    }
}

/// The cloud mix: 15 % distributed analytics jobs (Hadoop, Spark and
/// Storm in turn, 2-40 GB, 600-2400 s), 2 % memcached services (at most
/// 12) and single-node jobs of 300-1800 s for the rest, all guaranteed
/// priority and all drawn from one [`Generator`], so arrival `i` has
/// `WorkloadId(i)`. Class counts are exact and sizes are stratified (see
/// [`SplitMix::stratified`]); the seed decides the order of classes, who
/// gets which size, and every hidden performance model.
fn cloud_mix(seed: u64, n: usize) -> Vec<Workload> {
    #[derive(Clone, Copy, PartialEq)]
    enum Slot {
        Analytics,
        Service,
        Single,
    }
    let analytics = (0.15 * n as f64).round() as usize;
    let services = ((0.02 * n as f64).round() as usize).clamp(1, 12);
    let singles = n - analytics - services;
    let mut dice = SplitMix::new(seed, 4);
    let mut slots = vec![Slot::Analytics; analytics];
    slots.extend(vec![Slot::Service; services]);
    slots.extend(vec![Slot::Single; singles]);
    dice.shuffle(&mut slots);
    let mut sizes_gb = dice.stratified(analytics, 2.0, 40.0).into_iter();
    let mut analytics_s = dice.stratified(analytics, 600.0, 2_400.0).into_iter();
    let mut peaks_qps = dice.stratified(services, 30_000.0, 100_000.0).into_iter();
    let mut singles_s = dice.stratified(singles, 300.0, 1_800.0).into_iter();
    let classes = [
        WorkloadClass::Hadoop,
        WorkloadClass::Spark,
        WorkloadClass::Storm,
    ];
    let mut next_class = 0;

    let mut generator = Generator::new(PlatformCatalog::ec2(), seed);
    slots
        .into_iter()
        .enumerate()
        .map(|(i, slot)| match slot {
            Slot::Analytics => {
                let class = classes[next_class % classes.len()];
                next_class += 1;
                let dataset = Dataset::new(
                    format!("mix-{i}"),
                    sizes_gb.next().expect("one size per analytics job"),
                    dice.range(0.6, 1.6),
                );
                generator.analytics_job(
                    class,
                    format!("A{i}"),
                    dataset,
                    4,
                    analytics_s.next().expect("one duration per analytics job"),
                    Priority::Guaranteed,
                )
            }
            Slot::Service => {
                let peak = peaks_qps.next().expect("one peak per service");
                let load = LoadPattern::Fluctuating {
                    base_qps: peak * 0.7,
                    amplitude_qps: peak * 0.3,
                    period_s: dice.range(1_800.0, 7_200.0),
                };
                generator.service(
                    WorkloadClass::Memcached,
                    format!("S{i}"),
                    dice.range(3.0, 20.0),
                    load,
                    Priority::Guaranteed,
                )
            }
            Slot::Single => generator.single_node_job(
                format!("B{i}"),
                singles_s.next().expect("one duration per single-node job"),
                Priority::Guaranteed,
            ),
        })
        .collect()
}

/// A template re-submitted under a new id: same spec, model and load.
fn reissue(template: &Workload, id: u64) -> Workload {
    let mut spec = template.spec().clone();
    spec.id = WorkloadId(id);
    Workload::new(spec, template.model().clone(), template.load().copied())
}

/// `n` arrivals cycling through a cloud mix of [`RECURRING_TEMPLATES`]
/// workloads in a seeded order.
fn recurring(seed: u64, n: usize) -> Vec<Workload> {
    let templates = cloud_mix(seed, RECURRING_TEMPLATES);
    recurring_order(seed, n, RECURRING_TEMPLATES)
        .into_iter()
        .enumerate()
        .map(|(i, t)| reissue(&templates[t], i as u64))
        .collect()
}

/// Builds a workload's inputs from the seed and times doing so.
pub fn setup(kind: Kind, seed: u64, smoke: bool) -> Prepared {
    let t0 = Instant::now();
    let size = sizes(kind, smoke);
    let mut bootstrap_s = 0.0;
    let (catalog, manager, sim_config) = if kind.uses_quasar() {
        let config = QuasarConfig {
            threads: 1,
            similarity: if kind == Kind::RecurringJobs {
                SimilarityConfig::enabled()
            } else {
                SimilarityConfig::default()
            },
            ..QuasarConfig::default()
        };
        let catalog = PlatformCatalog::ec2();
        let t = Instant::now();
        let history = HistorySet::bootstrap(&catalog, config.training_workloads, HISTORY_SEED);
        bootstrap_s = t.elapsed().as_secs_f64();
        let sim_config = SimConfig {
            metrics_interval_s: 60.0,
            ..SimConfig::default()
        };
        (
            catalog,
            ManagerSpec::Quasar {
                history: Box::new(history),
                config,
            },
            sim_config,
        )
    } else {
        let sim_config = SimConfig {
            tick_s: 5.0,
            noise: 0.0,
            metrics_interval_s: 300.0,
            seed: 0xB54C,
        };
        (PlatformCatalog::local(), ManagerSpec::Fifo, sim_config)
    };
    let cluster = ClusterSpec::uniform(catalog.clone(), size.per_platform);

    let t = Instant::now();
    let (source, goals): (Source, Vec<Goal>) = match kind {
        Kind::CloudMixUnder | Kind::CloudMixOver | Kind::RecurringJobs => {
            let fleet = if kind == Kind::RecurringJobs {
                recurring(seed, size.arrivals)
            } else {
                cloud_mix(seed, size.arrivals)
            };
            let goals = fleet.iter().map(goal_of).collect();
            (Source::Fleet(fleet), goals)
        }
        Kind::SimStream => {
            let source = Source::BenchStream { catalog, seed };
            // Each job is generated once here for its goal and again in
            // the repeat that submits it.
            let goals = (0..size.arrivals)
                .map(|k| goal_of(&source.wave(k..k + 1)[0]))
                .collect();
            (source, goals)
        }
    };
    let times_s = exponential_arrivals(seed, size.arrivals, size.mean_gap_s);
    let fleet_s = t.elapsed().as_secs_f64();

    let tick = sim_config.tick_s;
    let last = times_s.last().copied().unwrap_or(0.0);
    let horizon_s = ((last + size.drain_s) / tick).ceil() * tick;
    Prepared {
        kind,
        cluster,
        sim_config,
        manager,
        source,
        times_s,
        goals,
        horizon_s,
        bootstrap_s,
        fleet_s,
        setup_s: t0.elapsed().as_secs_f64(),
    }
}

/// One timed `on_arrival` call.
#[derive(Debug, Clone, Copy)]
pub struct ArrivalCall {
    /// The arrival's workload id (its index in the schedule).
    pub id: u64,
    /// Host time of the call, nanoseconds.
    pub wall_ns: u64,
    /// Simulated clock at delivery.
    pub delivered_s: f64,
    /// Heap allocations during the call.
    pub allocs: u64,
}

/// Span name of a timed `Manager::on_arrival` call.
pub const ON_ARRIVAL: &str = "core.manager.on_arrival";
/// Span name of a timed `Manager::on_tick` call.
pub const ON_TICK: &str = "core.manager.on_tick";
/// Span name of a timed `Manager::on_completion` call.
pub const ON_COMPLETION: &str = "core.manager.on_completion";

#[derive(Default)]
struct Recorder {
    arrivals: Vec<ArrivalCall>,
    log: SpanLog,
    root: Option<usize>,
}

/// The load generator timing its own requests: forwards every callback
/// to the wrapped manager and timestamps `on_arrival`. With `full` it
/// records a span per call of all three callbacks.
struct TimedManager {
    inner: Box<dyn Manager>,
    rec: Rc<RefCell<Recorder>>,
    epoch: Instant,
    full: bool,
}

impl TimedManager {
    fn ns(&self, at: Instant) -> u64 {
        at.duration_since(self.epoch).as_nanos() as u64
    }

    fn span(
        &self,
        rec: &mut Recorder,
        name: &'static str,
        t0: Instant,
        t1: Instant,
        id: Option<u64>,
    ) {
        let span = Span {
            name,
            start_ns: self.ns(t0),
            end_ns: self.ns(t1),
            parent: rec.root,
            arrival: id,
        };
        rec.log.push(span);
    }
}

impl Manager for TimedManager {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn on_arrival(&mut self, world: &mut World, id: WorkloadId) {
        let delivered_s = world.now();
        let allocs0 = allocations();
        let t0 = Instant::now();
        self.inner.on_arrival(world, id);
        let t1 = Instant::now();
        let allocs = allocations() - allocs0;
        let mut rec = self.rec.borrow_mut();
        rec.arrivals.push(ArrivalCall {
            id: id.0,
            wall_ns: t1.duration_since(t0).as_nanos() as u64,
            delivered_s,
            allocs,
        });
        if self.full {
            self.span(&mut rec, ON_ARRIVAL, t0, t1, Some(id.0));
        }
    }

    fn on_tick(&mut self, world: &mut World) {
        if !self.full {
            return self.inner.on_tick(world);
        }
        let t0 = Instant::now();
        self.inner.on_tick(world);
        let t1 = Instant::now();
        self.span(&mut self.rec.borrow_mut(), ON_TICK, t0, t1, None);
    }

    fn on_completion(&mut self, world: &mut World, id: WorkloadId) {
        if !self.full {
            return self.inner.on_completion(world, id);
        }
        let t0 = Instant::now();
        self.inner.on_completion(world, id);
        let t1 = Instant::now();
        self.span(
            &mut self.rec.borrow_mut(),
            ON_COMPLETION,
            t0,
            t1,
            Some(id.0),
        );
    }

    fn needs_idle_ticks(&self) -> bool {
        self.inner.needs_idle_ticks()
    }
}

/// How a repeat is instrumented.
#[derive(Debug, Clone, Copy)]
pub struct RepeatOpts {
    /// Time `on_tick`/`on_completion` too and keep a span per call.
    pub spans: bool,
    /// Stream the journal through a chunk provider (the measured
    /// configuration); without it the repeat yields only its wall time.
    pub provider: bool,
    /// Wrap the manager in the timing wrapper (off only to show that the
    /// wrapper changes no outcome).
    pub timed: bool,
}

impl RepeatOpts {
    /// The measured configuration: `on_arrival` timed, journal streamed.
    pub const MEASURED: RepeatOpts = RepeatOpts {
        spans: false,
        provider: true,
        timed: true,
    };
}

/// What one repeat produced.
#[derive(Default)]
pub struct Repeat {
    /// Host seconds inside `submit_at` + `run_until`, all waves.
    pub wall_s: f64,
    /// One entry per `on_arrival`, in delivery order.
    pub arrival_calls: Vec<ArrivalCall>,
    /// Spans of a traced repeat: one root per wave, manager calls below.
    pub spans: SpanLog,
    /// Per-arrival outcome, indexed by arrival; empty without a provider.
    pub fates: Vec<Fate>,
    /// Arrivals `Running`, `Completed` (or retired) or `Pending`.
    pub accounted: u64,
    /// Arrivals completed by the horizon.
    pub completed: u64,
    /// Arrivals in state `Killed`.
    pub killed: u64,
    /// The world's completion digest.
    pub completion_digest: u64,
    /// The journal's live stream digest.
    pub journal_digest: u64,
    /// The digest recomputed from the stored chunks.
    pub replay_digest: u64,
    /// Host seconds of `replay_digest` over the chunks.
    pub replay_s: f64,
    /// Mean CPU utilisation over the steady window.
    pub cpu_util_mean: f64,
    /// The Quasar manager's own counters (zero under FIFO).
    pub manager: ManagerStats,
    /// Registry counter deltas over the repeat, by full metric name.
    pub counters: BTreeMap<String, u64>,
}

fn counters() -> BTreeMap<String, u64> {
    Registry::global()
        .snapshot()
        .entries
        .into_iter()
        .filter_map(|e| match e.value {
            MetricValue::Counter(v) => Some((e.name, v)),
            _ => None,
        })
        .collect()
}

/// Runs the workload once on a fresh simulation.
///
/// `scratch_dir` receives the `sim_stream` journal chunks and is removed
/// again before returning.
pub fn run_repeat(prep: &Prepared, opts: RepeatOpts, scratch_dir: &Path) -> io::Result<Repeat> {
    let rec = Rc::new(RefCell::new(Recorder::default()));
    let epoch = Instant::now();
    let mut stats_handle = None;
    let inner: Box<dyn Manager> = match &prep.manager {
        ManagerSpec::Quasar { history, config } => {
            let manager = QuasarManager::with_history(HistorySet::clone(history), *config);
            stats_handle = Some(manager.stats_handle());
            Box::new(manager)
        }
        ManagerSpec::Fifo => Box::new(FifoGreedy::new(4, 4.0)),
    };
    let manager: Box<dyn Manager> = if opts.timed {
        Box::new(TimedManager {
            inner,
            rec: Rc::clone(&rec),
            epoch,
            full: opts.spans,
        })
    } else {
        inner
    };
    let mut sim = Simulation::new(prep.cluster.clone(), manager, prep.sim_config);
    if prep.kind == Kind::SimStream {
        sim.world_mut().set_retention(Retention::DropCompleted);
    }
    if opts.provider {
        let store: Box<dyn ChunkProvider> = if prep.kind == Kind::SimStream {
            let _ = std::fs::remove_dir_all(scratch_dir);
            Box::new(FileChunks::open(scratch_dir)?)
        } else {
            Box::new(MemoryChunks::new())
        };
        sim.world_mut()
            .journal_mut()
            .attach_provider(CHUNK_CAP, store);
    }

    let before = counters();
    let tick = prep.sim_config.tick_s;
    let n = prep.arrivals();
    let mut wall_s = 0.0;
    let mut next = 0;
    while next < n {
        let end = (next + WAVE).min(n);
        let wave = prep.source.wave(next..end);
        let until = if end < n {
            (prep.times_s[end] / tick).floor() * tick
        } else {
            prep.horizon_s
        };
        let t0 = Instant::now();
        if opts.spans {
            let mut r = rec.borrow_mut();
            let start_ns = t0.duration_since(epoch).as_nanos() as u64;
            r.root = Some(r.log.push(Span {
                name: "cluster.sim.run",
                start_ns,
                end_ns: start_ns,
                parent: None,
                arrival: None,
            }));
        }
        for (w, &at_s) in wave.into_iter().zip(&prep.times_s[next..end]) {
            sim.submit_at(w, at_s);
        }
        sim.run_until(until);
        let t1 = Instant::now();
        wall_s += t1.duration_since(t0).as_secs_f64();
        if opts.spans {
            let mut r = rec.borrow_mut();
            let root = r.root.take().expect("opened above");
            r.log
                .close(root, t1.duration_since(epoch).as_nanos() as u64);
        }
        next = end;
    }

    // Close open QoS episodes so the ledger counters cover the whole
    // run, then seal the last chunk so the stored stream is complete.
    sim.world_mut().finish_qos();
    sim.world_mut().journal_mut().seal_open_chunk();
    let after = counters();

    let world = sim.world();
    let completed = world.retired_count() + world.count_in_state(JobState::Completed) as u64;
    let mut out = Repeat {
        wall_s,
        accounted: completed
            + (world.count_in_state(JobState::Running) + world.count_in_state(JobState::Pending))
                as u64,
        completed,
        killed: world.count_in_state(JobState::Killed) as u64,
        completion_digest: world.completion_digest(),
        journal_digest: world.journal().stream_digest(),
        cpu_util_mean: world
            .metrics()
            .summary_between(prep.arrival_end_s() / 2.0, 0.9 * prep.horizon_s)
            .mean_cpu,
        manager: stats_handle
            .map(|h| *h.lock().expect("stats poisoned"))
            .unwrap_or_default(),
        counters: after
            .into_iter()
            .map(|(name, v)| {
                let delta = v - before.get(&name).copied().unwrap_or(0);
                (name, delta)
            })
            .collect(),
        ..Repeat::default()
    };

    if let Some(provider) = world.journal().provider() {
        let t = Instant::now();
        out.replay_digest = chunk::replay_digest(provider)?;
        out.replay_s = t.elapsed().as_secs_f64();
        out.fates = fates(prep, world, provider)?;
    }
    drop(sim);
    if prep.kind == Kind::SimStream && opts.provider {
        std::fs::remove_dir_all(scratch_dir)?;
    }

    let mut rec = Rc::try_unwrap(rec)
        .map_err(|_| io::Error::other("recorder still shared"))?
        .into_inner();
    out.arrival_calls = std::mem::take(&mut rec.arrivals);
    out.spans = rec.log;
    Ok(out)
}

/// Per-arrival outcomes from the stored journal (first placement,
/// completion) plus, for what is still running, the world's last
/// observation and service ledgers.
fn fates(prep: &Prepared, world: &World, provider: &dyn ChunkProvider) -> io::Result<Vec<Fate>> {
    let mut fates: Vec<Fate> = prep
        .times_s
        .iter()
        .map(|&scheduled_s| Fate {
            scheduled_s,
            ..Fate::default()
        })
        .collect();
    for index in 0..provider.count() {
        let chunk = provider
            .load(index)?
            .ok_or_else(|| io::Error::other(format!("missing journal chunk {index}")))?;
        for (at_s, event) in chunk.events {
            match event {
                JournalEvent::Placed {
                    workload, delay_s, ..
                } => {
                    let fate = &mut fates[workload.0 as usize];
                    if fate.placed_s.is_none() {
                        fate.placed_s = Some(at_s);
                        fate.active_s = at_s + delay_s;
                    }
                }
                JournalEvent::Completed { workload } => {
                    fates[workload.0 as usize].finished_s = Some(at_s);
                }
                _ => {}
            }
        }
    }
    for id in world.ids_in_state(JobState::Running) {
        if let Some(Observation::Batch { rate, progress, .. }) = world.observation(id) {
            let fate = &mut fates[id.0 as usize];
            fate.rate = rate;
            fate.progress = progress;
        }
    }
    for record in world.qos_records() {
        fates[record.id.0 as usize].qos_fraction = record.qos_fraction();
    }
    Ok(fates)
}

/// Host microseconds of each stage of the admission path, one value per
/// replayed arrival, plus the spans of the replay.
#[derive(Default)]
pub struct StageTimes {
    /// `Profiler::profile`.
    pub profile_us: Vec<f64>,
    /// Simulated seconds the profiling runs would occupy the sandbox.
    pub profile_sim_wall_s: Vec<f64>,
    /// `Classifier::classify` on one thread.
    pub classify_us: Vec<f64>,
    /// The same calls with `with_threads(2)`.
    pub classify_t2_us: Vec<f64>,
    /// `SimilarityIndex::classify_or_insert` on a profile already in the
    /// index: the cost of a hit.
    pub similarity_us: Vec<f64>,
    /// `GreedyScheduler::plan` over every server of the cluster.
    pub plan_us: Vec<f64>,
    /// `World::place` of the plan.
    pub place_us: Vec<f64>,
    /// One `bench.replay.arrival` root per arrival, one child per stage.
    pub spans: SpanLog,
}

fn us(t0: Instant, t1: Instant) -> f64 {
    t1.duration_since(t0).as_nanos() as f64 / 1e3
}

/// Pushes a seeded sample of the arrivals stage by stage through a
/// scratch simulation under a manager that does nothing, timing each
/// public stage call. Empty for a workload that does not use Quasar.
pub fn stage_replay(prep: &Prepared, seed: u64) -> StageTimes {
    let mut out = StageTimes::default();
    let ManagerSpec::Quasar { history, config } = &prep.manager else {
        return out;
    };
    let axes = history.axes().clone();
    let mut sim = Simulation::new(prep.cluster.clone(), Box::new(NullManager), prep.sim_config);
    let mut profiler = Profiler::new(config.profiling_entries, config.seed ^ 0xF00D);
    let classifier = Classifier::new().with_threads(1);
    let classifier_t2 = Classifier::new().with_threads(2);
    let mut index = SimilarityIndex::new(SimilarityConfig::enabled());
    let scheduler = GreedyScheduler::new(config.max_nodes);
    let epoch = Instant::now();
    let ns = |t: Instant| t.duration_since(epoch).as_nanos() as u64;

    for i in sample_indices(seed, prep.arrivals(), REPLAY_SAMPLE) {
        let workload = prep.source.wave(i..i + 1).remove(0);
        let id = workload.id();
        let target = workload.spec().target;
        let now = sim.world().now();
        sim.submit_at(workload, now);
        sim.run_until(now);
        let world = sim.world_mut();
        let mut stages: Vec<(&'static str, Instant, Instant)> = Vec::with_capacity(6);

        let t0 = Instant::now();
        let data = profiler.profile(world, &axes, id);
        let t1 = Instant::now();
        stages.push(("core.profile", t0, t1));
        out.profile_us.push(us(t0, t1));
        out.profile_sim_wall_s.push(data.wall_seconds);

        let t0 = Instant::now();
        let class = classifier.classify(history, &data);
        let t1 = Instant::now();
        stages.push(("core.classify", t0, t1));
        out.classify_us.push(us(t0, t1));

        let t0 = Instant::now();
        std::hint::black_box(classifier_t2.classify(history, &data));
        let t1 = Instant::now();
        stages.push(("core.classify.t2", t0, t1));
        out.classify_t2_us.push(us(t0, t1));

        // With this very profile in the index, the timed call is a hit.
        let signature = Signature::of_profile(&data, index.config());
        index.insert(signature, class.clone(), None);
        let t0 = Instant::now();
        std::hint::black_box(index.classify_or_insert(&classifier, history, &data));
        let t1 = Instant::now();
        stages.push(("core.similarity", t0, t1));
        out.similarity_us.push(us(t0, t1));

        let candidates: Vec<CandidateServer> = world
            .servers()
            .iter()
            .map(|s| CandidateServer {
                server: s.id().0,
                platform_index: axes.platform_index(s.platform()),
                free_cores: s.free_cores(),
                free_memory_gb: s.free_memory_gb(),
                pressure: PressureVector::zero(),
                victim_factor: 1.0,
                hourly_price: world.platform_of(s.id()).price_per_hour(),
            })
            .collect();
        let t0 = Instant::now();
        let plan = scheduler.plan(&axes, &class, &target, &candidates);
        let t1 = Instant::now();
        stages.push(("core.greedy.plan", t0, t1));
        out.plan_us.push(us(t0, t1));

        if let Some(plan) = plan {
            let active_after = world.now() + data.wall_seconds;
            let nodes: Vec<NodeAlloc> = plan
                .nodes
                .iter()
                .map(|&(server, resources)| NodeAlloc {
                    server: ServerId(server),
                    resources,
                    active_after,
                })
                .collect();
            let params = plan.params_col.map(|c| axes.params[c]).unwrap_or_default();
            let t0 = Instant::now();
            let placed = world.place(id, nodes, params);
            let t1 = Instant::now();
            stages.push(("cluster.world.place", t0, t1));
            if placed.is_ok() {
                out.place_us.push(us(t0, t1));
                // Free the slice again: every replayed arrival meets the
                // same empty cluster.
                world.evict(id, false);
            }
        }

        let first = stages.first().expect("profile stage").1;
        let last = stages.last().expect("profile stage").2;
        let root = out.spans.push(Span {
            name: "bench.replay.arrival",
            start_ns: ns(first),
            end_ns: ns(last),
            parent: None,
            arrival: Some(id.0),
        });
        for (name, t0, t1) in stages {
            out.spans.push(Span {
                name,
                start_ns: ns(t0),
                end_ns: ns(t1),
                parent: Some(root),
                arrival: Some(id.0),
            });
        }
    }
    out
}

/// Host microseconds per call of the three CF kernels a classification
/// is made of, on the history's own scale-up matrix for completion-time
/// workloads with a two-observation target row.
#[derive(Default)]
pub struct KernelTimes {
    /// `quasar_cf::svd`.
    pub svd_us: Vec<f64>,
    /// `PqModel::train`.
    pub sgd_train_us: Vec<f64>,
    /// `Reconstructor::reconstruct_row` (cold: a fresh row cache each call).
    pub reconstruct_row_us: Vec<f64>,
}

/// Times the CF kernels; empty for a workload that does not use Quasar.
pub fn kernel_times(prep: &Prepared) -> KernelTimes {
    let mut out = KernelTimes::default();
    let ManagerSpec::Quasar { history, .. } = &prep.manager else {
        return out;
    };
    let matrix: &DenseMatrix = &history.kind(GoalKind::Time).scale_up;
    let anchor = history.axes().anchor_config;
    let other = (anchor + 1) % matrix.cols();
    let target = [
        (anchor, matrix.get(0, anchor) + 0.1),
        (other, matrix.get(0, other) - 0.1),
    ];
    let mut sparse = SparseMatrix::from_dense_rows(matrix);
    let row = sparse.push_row();
    for &(c, v) in &target {
        sparse.insert(row, c, v);
    }
    let filled = sparse.to_dense_filled();
    let config = SgdConfig::default();
    for _ in 0..KERNEL_CALLS {
        let t0 = Instant::now();
        std::hint::black_box(quasar_cf::svd(std::hint::black_box(&filled)));
        let t1 = Instant::now();
        out.svd_us.push(us(t0, t1));

        let t0 = Instant::now();
        std::hint::black_box(PqModel::train(std::hint::black_box(&sparse), &config));
        let t1 = Instant::now();
        out.sgd_train_us.push(us(t0, t1));

        let reconstructor = Reconstructor::new();
        let t0 = Instant::now();
        std::hint::black_box(
            reconstructor
                .reconstruct_row(matrix, std::hint::black_box(&target))
                .expect("history is dense and the target has observations"),
        );
        let t1 = Instant::now();
        out.reconstruct_row_us.push(us(t0, t1));
    }
    out
}

/// Runs `f` with the program's own tracing collecting, and returns its
/// result with the number of events the program recorded.
pub fn with_program_tracing<T>(f: impl FnOnce() -> T) -> (T, u64) {
    quasar_obs::trace::enable();
    let out = f();
    let events = quasar_obs::trace::drain().len() as u64 + quasar_obs::trace::dropped_events();
    (out, events)
}

/// Full registry names of the counters the per-layer metrics read.
pub mod counter {
    /// Classifications run.
    pub const CLASSIFICATIONS: &str = "quasar.core.classify.classifications";
    /// SGD epochs.
    pub const SGD_EPOCHS: &str = "quasar.cf.sgd.epochs";
    /// Jacobi sweeps.
    pub const SVD_SWEEPS: &str = "quasar.cf.svd.sweeps";
    /// Row-cache hits.
    pub const ROW_CACHE_HITS: &str = "quasar.cf.row_cache.hits";
    /// Row-cache misses.
    pub const ROW_CACHE_MISSES: &str = "quasar.cf.row_cache.misses";
    /// Similarity-index hits.
    pub const SIMILARITY_HITS: &str = "quasar.core.similarity.hits";
    /// Similarity-index misses.
    pub const SIMILARITY_MISSES: &str = "quasar.core.similarity.misses";
    /// Similarity-index warm starts.
    pub const SIMILARITY_WARM: &str = "quasar.core.similarity.warm_starts";
    /// Greedy plans computed.
    pub const GREEDY_PLANS: &str = "quasar.core.greedy.plans";
    /// `World::place` calls.
    pub const PLACEMENTS: &str = "quasar.cluster.world.placements";
    /// Physics ticks.
    pub const TICKS: &str = "quasar.cluster.world.ticks";
    /// Events the driver delivered.
    pub const EVENTS_DELIVERED: &str = "quasar.cluster.sim.events_delivered";
    /// Idle ticks fast-forwarded.
    pub const TICKS_SKIPPED: &str = "quasar.cluster.sim.ticks_skipped";
    /// Journal events.
    pub const JOURNAL_EVENTS: &str = "quasar.cluster.journal.events";
    /// Journal chunks sealed.
    pub const CHUNK_FLUSHES: &str = "quasar.cluster.journal.chunk_flushes";
    /// QoS episodes closed.
    pub const QOS_EPISODES: &str = "quasar.cluster.qos.episodes";
    /// QoS incidents dumped.
    pub const QOS_INCIDENTS: &str = "quasar.cluster.qos.incidents";
    /// Ticks some workload spent in violation.
    pub const QOS_VIOLATING_TICKS: &str = "quasar.cluster.qos.violating_ticks";
    /// Parallel-runner jobs.
    pub const PAR_JOBS: &str = "quasar.core.par.jobs";
    /// Parallel-runner items.
    pub const PAR_ITEMS: &str = "quasar.core.par.items";
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(tag: &str) -> std::path::PathBuf {
        Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("test-chunks-{}-{tag}", std::process::id()))
    }

    #[test]
    fn the_mix_is_a_pure_function_of_the_seed() {
        let a = cloud_mix(11, 80);
        assert_eq!(a, cloud_mix(11, 80));
        assert_ne!(a, cloud_mix(12, 80));
        let analytics = |mix: &[Workload]| {
            mix.iter()
                .filter(|w| w.spec().class.is_batch() && w.spec().class.is_distributed())
                .count()
        };
        assert_eq!(analytics(&a), 12, "class counts are exact");
        assert_eq!(analytics(&cloud_mix(12, 80)), 12);
        for (i, w) in a.iter().enumerate() {
            assert_eq!(w.id(), WorkloadId(i as u64));
        }
        assert!(a.iter().any(|w| w.spec().class.is_distributed()));
        assert!(a
            .iter()
            .any(|w| w.spec().class == WorkloadClass::SingleNode));
    }

    #[test]
    fn recurring_arrivals_get_unique_ids_with_identical_models() {
        let n = 3 * RECURRING_TEMPLATES;
        let jobs = recurring(5, n);
        let templates = cloud_mix(5, RECURRING_TEMPLATES);
        let order = recurring_order(5, n, RECURRING_TEMPLATES);
        for (i, job) in jobs.iter().enumerate() {
            assert_eq!(job.id(), WorkloadId(i as u64), "ids are the arrival index");
            let template = &templates[order[i]];
            assert_eq!(job.model(), template.model());
            assert_eq!(job.load(), template.load());
            assert_eq!(job.spec().target, template.spec().target);
        }
        // Every template comes back: three arrivals share each model.
        let first = &jobs[0];
        let twins = jobs.iter().filter(|j| j.model() == first.model()).count();
        assert_eq!(twins, 3);
    }

    /// The wrapper only reads the clock: outcomes with it equal outcomes
    /// with the bare manager, digest for digest.
    #[test]
    fn timed_manager_does_not_change_outcomes() {
        for kind in [Kind::CloudMixOver, Kind::SimStream] {
            let prep = setup(kind, 3, true);
            let dir = scratch(kind.name());
            let timed = run_repeat(&prep, RepeatOpts::MEASURED, &dir).unwrap();
            let traced = run_repeat(
                &prep,
                RepeatOpts {
                    spans: true,
                    ..RepeatOpts::MEASURED
                },
                &dir,
            )
            .unwrap();
            let bare = run_repeat(
                &prep,
                RepeatOpts {
                    timed: false,
                    ..RepeatOpts::MEASURED
                },
                &dir,
            )
            .unwrap();
            assert!(bare.arrival_calls.is_empty());
            assert_eq!(timed.arrival_calls.len(), prep.arrivals());
            for other in [&timed, &traced] {
                assert_eq!(other.completion_digest, bare.completion_digest);
                assert_eq!(other.journal_digest, bare.journal_digest);
                assert_eq!(other.fates, bare.fates);
                assert_eq!(other.cpu_util_mean.to_bits(), bare.cpu_util_mean.to_bits());
            }
            assert_eq!(bare.journal_digest, bare.replay_digest);
        }
    }
}
