//! The simulated world: cluster physics plus the manager-facing API.

use std::collections::{BTreeSet, HashMap};
use std::sync::OnceLock;

use quasar_obs::registry::{Counter, Registry};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use quasar_interference::{InterferenceProfile, PressureVector, SharedResource};
use quasar_workloads::{
    FrameworkParams, NodeResources, PerfModel, Platform, PlatformCatalog, QosTarget, Workload,
    WorkloadClass, WorkloadId, WorkloadSpec,
};

use crate::cluster::{ClusterState, PlaceError};
use crate::journal::{Journal, JournalEvent};
use crate::metrics::{HeatmapSample, MetricsRecorder};
use crate::observe::Observation;
use crate::placement::{NodeAlloc, Placement};
use crate::profile::{ProfileConfig, ProfileResult};
use crate::qos::{self, EpisodeRecord, Incident, QosEvidence, SloTracker};
use crate::server::{Server, ServerId};

/// How much of its neighbours' (and its own outgoing) pressure a
/// partitioned placement still sees/exerts (§4.4 extension: cache
/// partitioning and NIC rate limiting cut contention roughly in half).
const ISOLATION_PRESSURE_FACTOR: f64 = 0.5;

/// Capacity retained under partitioning (reserved ways/slices are not
/// free).
const ISOLATION_OVERHEAD_FACTOR: f64 = 0.93;

/// How far back in the journal an incident looks for its window: the
/// most recent retained events, a few minutes of decisions.
const INCIDENT_WINDOW_EVENTS: usize = 512;

/// Incident window margin around an episode, in ticks: the incident
/// carries the events shortly before the violation opened and shortly
/// after it closed.
const INCIDENT_MARGIN_TICKS: f64 = 2.0;

/// Registry handles for the simulator counters
/// (`quasar.cluster.world.*`).
struct WorldMetrics {
    ticks: Counter,
    placements: Counter,
}

fn world_metrics() -> &'static WorldMetrics {
    static METRICS: OnceLock<WorldMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let reg = Registry::global();
        WorldMetrics {
            ticks: reg.counter("quasar.cluster.world.ticks"),
            placements: reg.counter("quasar.cluster.world.placements"),
        }
    })
}

/// Lifecycle state of a workload in the simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    /// Submitted, waiting for a placement.
    Pending,
    /// Placed (possibly still in its activation delay).
    Running,
    /// Batch job finished its work.
    Completed,
    /// Killed (evicted without requeue, or stopped at scenario end).
    Killed,
}

/// Final accounting for a batch workload.
#[derive(Debug, Clone, PartialEq)]
pub struct CompletionRecord {
    /// Workload id.
    pub id: WorkloadId,
    /// Workload name.
    pub name: String,
    /// Workload class.
    pub class: WorkloadClass,
    /// The QoS target it was submitted with.
    pub target: QosTarget,
    /// Submission time.
    pub submitted_s: f64,
    /// Time the manager committed a placement (if ever).
    pub placed_s: Option<f64>,
    /// Completion time (if it finished).
    pub finished_s: Option<f64>,
    /// Seconds spent in sandboxed profiling runs (manager overhead).
    pub profiling_s: f64,
    /// Whether the job was best-effort.
    pub best_effort: bool,
    /// Largest number of cores the job held at any tick.
    pub peak_cores: u32,
    /// Reserved resources reported by the manager, if any.
    pub reserved: Option<(u32, f64)>,
    /// Total work units of the job (ground truth, for reporting achieved
    /// rates against IPS targets).
    pub total_work: f64,
}

impl CompletionRecord {
    /// Mean achieved work rate over the execution (work units/second),
    /// amortized from submission (includes scheduling wait and profiling).
    pub fn achieved_rate(&self) -> Option<f64> {
        let exec = self.execution_s()?;
        if exec > 0.0 && self.total_work.is_finite() {
            Some(self.total_work / exec)
        } else {
            None
        }
    }

    /// Mean achieved work rate while actually placed (work units/second)
    /// — the metric an IPS *floor* is checked against.
    pub fn achieved_rate_running(&self) -> Option<f64> {
        let placed = self.placed_s?;
        let finished = self.finished_s?;
        let span = finished - placed;
        if span > 0.0 && self.total_work.is_finite() {
            Some(self.total_work / span)
        } else {
            None
        }
    }

    /// End-to-end execution time including all manager overheads
    /// (submission to completion), as the paper accounts it.
    pub fn execution_s(&self) -> Option<f64> {
        self.finished_s.map(|f| f - self.submitted_s)
    }
}

/// Final accounting for a latency-critical service.
#[derive(Debug, Clone, PartialEq)]
pub struct QosRecord {
    /// Workload id.
    pub id: WorkloadId,
    /// Workload name.
    pub name: String,
    /// Workload class.
    pub class: WorkloadClass,
    /// The QoS target.
    pub target: QosTarget,
    /// Total queries offered over the run.
    pub offered_queries: f64,
    /// Total queries served.
    pub served_queries: f64,
    /// Queries served within the latency bound.
    pub queries_meeting_qos: f64,
    /// Measurement windows meeting the full QoS target.
    pub windows_met: u64,
    /// Total measurement windows while placed.
    pub windows_total: u64,
    /// Mean utilization of allocated capacity across windows.
    pub mean_utilization: f64,
    /// Largest number of cores the service held at any tick.
    pub peak_cores: u32,
    /// Reserved resources reported by the manager, if any.
    pub reserved: Option<(u32, f64)>,
}

impl QosRecord {
    /// Fraction of offered queries that met QoS.
    pub fn qos_fraction(&self) -> f64 {
        if self.offered_queries <= 0.0 {
            1.0
        } else {
            self.queries_meeting_qos / self.offered_queries
        }
    }

    /// Fraction of offered load that was served at all.
    pub fn served_fraction(&self) -> f64 {
        if self.offered_queries <= 0.0 {
            1.0
        } else {
            self.served_queries / self.offered_queries
        }
    }
}

pub(crate) struct Entry {
    pub(crate) workload: Workload,
    pub(crate) state: JobState,
    pub(crate) remaining_work: f64,
    pub(crate) submitted_s: f64,
    pub(crate) placed_s: Option<f64>,
    pub(crate) finished_s: Option<f64>,
    pub(crate) profiling_s: f64,
    pub(crate) rate_factor: f64,
    pub(crate) phase_interference: Option<InterferenceProfile>,
    pub(crate) offered_queries: f64,
    pub(crate) served_queries: f64,
    pub(crate) queries_meeting_qos: f64,
    pub(crate) windows_met: u64,
    pub(crate) windows_total: u64,
    pub(crate) util_sum: f64,
    pub(crate) peak_cores: u32,
    pub(crate) last_obs: Option<Observation>,
    pub(crate) reserved: Option<(u32, f64)>,
}

impl Entry {
    fn new(workload: Workload, now: f64) -> Entry {
        let remaining_work = workload
            .model()
            .as_batch()
            .map(|b| b.total_work())
            .unwrap_or(f64::INFINITY);
        Entry {
            workload,
            state: JobState::Pending,
            remaining_work,
            submitted_s: now,
            placed_s: None,
            finished_s: None,
            profiling_s: 0.0,
            rate_factor: 1.0,
            phase_interference: None,
            offered_queries: 0.0,
            served_queries: 0.0,
            queries_meeting_qos: 0.0,
            windows_met: 0,
            windows_total: 0,
            util_sum: 0.0,
            peak_cores: 0,
            last_obs: None,
            reserved: None,
        }
    }

    fn interference(&self) -> &InterferenceProfile {
        self.phase_interference
            .as_ref()
            .unwrap_or_else(|| self.workload.model().interference())
    }
}

/// An active contention injection on a server (microbenchmarks used for
/// in-place classification, phase detection, and straggler checks).
#[derive(Debug, Clone, Copy)]
struct Injection {
    server: ServerId,
    pressure: PressureVector,
    until_s: f64,
}

/// What the world keeps for jobs after they finish.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Retention {
    /// Keep every entry for full post-run reporting (the default — all
    /// figure experiments need [`World::completions`]).
    #[default]
    KeepAll,
    /// Drop completed batch entries once the manager has been notified,
    /// keeping only the running [`World::completion_digest`]. Bounds
    /// memory for million-job runs at the cost of per-job
    /// [`World::completions`] records.
    DropCompleted,
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv_fold(mut digest: u64, word: u64) -> u64 {
    for byte in word.to_le_bytes() {
        digest ^= byte as u64;
        digest = digest.wrapping_mul(FNV_PRIME);
    }
    digest
}

/// The simulated world: cluster state, workload ground truth, physics, and
/// the measurement-bounded API managers are allowed to call.
///
/// Managers receive `&mut World` in their callbacks. Everything they can
/// observe is noisy; everything they can do goes through capacity-checked
/// placement operations.
pub struct World {
    now: f64,
    tick_s: f64,
    cluster: ClusterState,
    entries: HashMap<WorkloadId, Entry>,
    /// Sorted indexes over `entries` by lifecycle state, maintained at
    /// every transition so the physics loop and the event driver touch
    /// O(running) jobs, not O(all jobs ever submitted). BTreeSet
    /// iteration is id-sorted — the same order the old full-scan-and-sort
    /// produced — so per-job RNG draws happen in an identical sequence.
    pending: BTreeSet<WorkloadId>,
    running: BTreeSet<WorkloadId>,
    injections: Vec<Injection>,
    rng: StdRng,
    noise: f64,
    metrics: MetricsRecorder,
    journal: Journal,
    retention: Retention,
    /// FNV-1a over every batch completion, folded in completion order:
    /// id, submitted/placed/finished bits, peak cores. The digest is the
    /// outcome identity of a run — identical streams through the tick
    /// and event cores, or through a snapshot/resume boundary, must
    /// reproduce it exactly.
    completion_digest: u64,
    /// Entries dropped under [`Retention::DropCompleted`].
    retired: u64,
    /// The QoS violation ledger: per-workload episodes with cause
    /// attribution, fed one observation per tick.
    qos: SloTracker,
    /// Incident reports dumped so far (severe closed episodes).
    incidents: Vec<Incident>,
}

impl World {
    pub(crate) fn new(
        cluster: ClusterState,
        tick_s: f64,
        noise: f64,
        metrics_interval_s: f64,
        seed: u64,
    ) -> World {
        World {
            now: 0.0,
            tick_s,
            cluster,
            entries: HashMap::new(),
            pending: BTreeSet::new(),
            running: BTreeSet::new(),
            injections: Vec::new(),
            rng: StdRng::seed_from_u64(seed),
            noise,
            metrics: MetricsRecorder::new(metrics_interval_s),
            journal: Journal::new(100_000),
            retention: Retention::KeepAll,
            completion_digest: FNV_OFFSET,
            retired: 0,
            qos: SloTracker::new(tick_s),
            incidents: Vec::new(),
        }
    }

    // ------------------------------------------------------------------
    // Read-only manager API.
    // ------------------------------------------------------------------

    /// Current simulation time in seconds.
    pub fn now(&self) -> f64 {
        self.now
    }

    /// Simulation tick length in seconds.
    pub fn tick_s(&self) -> f64 {
        self.tick_s
    }

    /// The platform catalog.
    pub fn catalog(&self) -> &PlatformCatalog {
        self.cluster.catalog()
    }

    /// All servers.
    pub fn servers(&self) -> &[Server] {
        self.cluster.servers()
    }

    /// One server.
    pub fn server(&self, id: ServerId) -> &Server {
        self.cluster.server(id)
    }

    /// The platform of a server.
    pub fn platform_of(&self, id: ServerId) -> &Platform {
        self.cluster.platform_of(id)
    }

    /// The placement of a workload, if any.
    pub fn placement(&self, id: WorkloadId) -> Option<&Placement> {
        self.cluster.placement(id)
    }

    /// Workloads holding a slice on a server.
    pub fn workloads_on(&self, server: ServerId) -> &[WorkloadId] {
        self.cluster.workloads_on(server)
    }

    /// The public spec of a workload.
    ///
    /// # Panics
    ///
    /// Panics if the workload was never submitted.
    pub fn spec(&self, id: WorkloadId) -> &WorkloadSpec {
        self.entry(id).workload.spec()
    }

    /// The lifecycle state of a workload.
    pub fn state(&self, id: WorkloadId) -> JobState {
        self.entry(id).state
    }

    /// Ids of workloads currently in the given state, sorted by id.
    ///
    /// Pending and Running come from maintained indexes (O(state size));
    /// the terminal states scan, since nothing on a hot path asks for
    /// them.
    pub fn ids_in_state(&self, state: JobState) -> Vec<WorkloadId> {
        match state {
            JobState::Pending => self.pending.iter().copied().collect(),
            JobState::Running => self.running.iter().copied().collect(),
            JobState::Completed | JobState::Killed => {
                let mut ids: Vec<_> = self
                    .entries
                    .iter()
                    .filter(|(_, e)| e.state == state)
                    .map(|(id, _)| *id)
                    .collect();
                ids.sort();
                ids
            }
        }
    }

    /// How many workloads are currently in the given state (no
    /// allocation; terminal states count retired entries too).
    pub fn count_in_state(&self, state: JobState) -> usize {
        match state {
            JobState::Pending => self.pending.len(),
            JobState::Running => self.running.len(),
            JobState::Completed | JobState::Killed => {
                self.entries.values().filter(|e| e.state == state).count()
            }
        }
    }

    /// Whether nothing can make progress without manager or event input:
    /// no job is running and none is waiting for a placement. A driver
    /// may fast-forward an idle world to the next scheduled instant —
    /// physics over an idle span is a no-op (no progress, no RNG draws,
    /// no completions).
    pub fn is_idle(&self) -> bool {
        self.running.is_empty() && self.pending.is_empty()
    }

    /// The latest monitoring observation for a workload.
    pub fn observation(&self, id: WorkloadId) -> Option<Observation> {
        self.entry(id).last_obs
    }

    /// Total cores in the cluster.
    pub fn total_cores(&self) -> u32 {
        self.cluster.total_cores()
    }

    /// Committed cores in the cluster.
    pub fn used_cores(&self) -> u32 {
        self.cluster.used_cores()
    }

    // ------------------------------------------------------------------
    // Mutating manager API.
    // ------------------------------------------------------------------

    /// Commits a placement for a pending workload. Nodes may carry an
    /// `active_after` in the future (profiling delay, migration).
    ///
    /// # Errors
    ///
    /// Fails if the workload is not pending or capacity is insufficient.
    pub fn place(
        &mut self,
        id: WorkloadId,
        nodes: Vec<NodeAlloc>,
        params: FrameworkParams,
    ) -> Result<(), PlaceError> {
        // Placement spans are tagged with the world's logical time, not
        // whatever a previous workload left on this thread.
        quasar_obs::set_sim_time(self.now);
        let _span = quasar_obs::span!("cluster.world.place", "workload={}", id.0);
        if self.entry(id).state != JobState::Pending {
            return Err(PlaceError::AlreadyPlaced(id));
        }
        world_metrics().placements.inc();
        let nodes_count = nodes.len();
        let cores: u32 = nodes.iter().map(|n| n.resources.cores).sum();
        let delay_s = nodes
            .iter()
            .map(|n| n.active_after - self.now)
            .fold(0.0, f64::max)
            .max(0.0);
        self.cluster.place(Placement::new(id, nodes, params))?;
        let now = self.now;
        self.journal.record(
            now,
            JournalEvent::Placed {
                workload: id,
                nodes: nodes_count,
                cores,
                delay_s,
            },
        );
        let entry = self.entry_mut(id);
        entry.state = JobState::Running;
        entry.placed_s.get_or_insert(now);
        self.pending.remove(&id);
        self.running.insert(id);
        Ok(())
    }

    /// Evicts a workload, freeing its resources. With `requeue` the
    /// workload returns to the pending queue keeping its progress (how
    /// best-effort jobs are treated, §5); otherwise it is killed.
    pub fn evict(&mut self, id: WorkloadId, requeue: bool) {
        self.cluster.release(id);
        self.journal.record(
            self.now,
            JournalEvent::Evicted {
                workload: id,
                requeued: requeue,
            },
        );
        let entry = self.entry_mut(id);
        if entry.state == JobState::Running {
            entry.state = if requeue {
                JobState::Pending
            } else {
                JobState::Killed
            };
            entry.last_obs = None;
            self.running.remove(&id);
            if requeue {
                self.pending.insert(id);
            }
        }
        // Eviction ends any open violation episode: the observations that
        // fed it stop, and whatever happens after re-placement is a new
        // story.
        if let Some(episode) = self.qos.terminate(id, self.now) {
            self.finish_episode(episode);
        }
    }

    /// Adds a node to a running workload's placement.
    ///
    /// # Errors
    ///
    /// See [`ClusterState::add_node`].
    pub fn add_node(&mut self, id: WorkloadId, node: NodeAlloc) -> Result<(), PlaceError> {
        self.cluster.add_node(id, node)?;
        self.journal.record(
            self.now,
            JournalEvent::NodeAdded {
                workload: id,
                server: node.server,
                resources: node.resources,
            },
        );
        Ok(())
    }

    /// Removes a workload's slice on a server.
    ///
    /// # Errors
    ///
    /// See [`ClusterState::remove_node`].
    pub fn remove_node(&mut self, id: WorkloadId, server: ServerId) -> Result<(), PlaceError> {
        self.cluster.remove_node(id, server)?;
        self.journal.record(
            self.now,
            JournalEvent::NodeRemoved {
                workload: id,
                server,
            },
        );
        Ok(())
    }

    /// Resizes a workload's slice on a server (scale-up/down in place).
    ///
    /// # Errors
    ///
    /// See [`ClusterState::resize_node`].
    pub fn resize_node(
        &mut self,
        id: WorkloadId,
        server: ServerId,
        resources: NodeResources,
    ) -> Result<(), PlaceError> {
        self.cluster.resize_node(id, server, resources)?;
        self.journal.record(
            self.now,
            JournalEvent::NodeResized {
                workload: id,
                server,
                resources,
            },
        );
        Ok(())
    }

    /// Updates the framework parameters of a placement.
    ///
    /// # Errors
    ///
    /// Fails if the workload has no placement.
    pub fn set_params(
        &mut self,
        id: WorkloadId,
        params: FrameworkParams,
    ) -> Result<(), PlaceError> {
        self.cluster.set_params(id, params)?;
        self.journal
            .record(self.now, JournalEvent::ParamsSet { workload: id });
        Ok(())
    }

    /// Enables or disables hardware partitioning for a placement (§4.4):
    /// halves interference in both directions at a small capacity
    /// overhead.
    ///
    /// # Errors
    ///
    /// Fails if the workload has no placement.
    pub fn set_isolation(&mut self, id: WorkloadId, isolated: bool) -> Result<(), PlaceError> {
        self.cluster.set_isolation(id, isolated)?;
        self.journal.record(
            self.now,
            JournalEvent::IsolationSet {
                workload: id,
                isolated,
            },
        );
        Ok(())
    }

    /// Records the resources a reservation-based manager *reserved* for a
    /// workload; only used for the used-vs-reserved metrics (Figs. 1, 11d).
    pub fn report_reservation(&mut self, id: WorkloadId, cores: u32, memory_gb: f64) {
        self.entry_mut(id).reserved = Some((cores, memory_gb));
    }

    // ------------------------------------------------------------------
    // Profiling API (the measurement boundary).
    // ------------------------------------------------------------------

    /// Runs one sandboxed profiling configuration for a workload and
    /// returns a noisy measurement in goal units plus the wall-clock
    /// seconds the run consumed (paper §3.2: a few seconds to a few
    /// minutes, charged to the workload's start-up latency).
    ///
    /// # Panics
    ///
    /// Panics if the workload was never submitted or the platform id is
    /// out of range.
    pub fn profile_config(&mut self, id: WorkloadId, config: &ProfileConfig) -> ProfileResult {
        let noise = self.sample_noise();
        let entry = self.entries.get(&id).expect("unknown workload");
        let platform = self.cluster.catalog().get(config.platform);
        let value = ground_truth_value(entry, platform, config) * noise;
        let seconds = profile_run_seconds(entry.workload.spec().class);
        let entry = self.entry_mut(id);
        entry.profiling_s += seconds;
        ProfileResult { value, seconds }
    }

    /// Ramps a contention microbenchmark against a sandboxed copy of the
    /// workload and reports the intensity at which performance drops by
    /// `qos_loss` — the paper's interference-classification measurement.
    /// Costs no extra profiling run (it reuses a scale-up copy) but a few
    /// seconds of wall-clock per resource.
    pub fn probe_sensitivity(
        &mut self,
        id: WorkloadId,
        resource: SharedResource,
        qos_loss: f64,
    ) -> ProfileResult {
        let noise = self.sample_noise();
        let entry = self.entries.get(&id).expect("unknown workload");
        let point = entry.interference().sensitivity_point(resource, qos_loss);
        let seconds = 2.0;
        let entry = self.entry_mut(id);
        entry.profiling_s += seconds;
        ProfileResult {
            value: (point * noise).clamp(0.0, PressureVector::MAX),
            seconds,
        }
    }

    /// Measures the contention a workload *causes* in one resource by
    /// running a sandboxed copy next to a reference victim and measuring
    /// the victim's slowdown (the reverse direction of the iBench
    /// methodology; paper §3.2 classifies interference "caused and
    /// tolerated"). Returns the caused pressure in `[0, 100]`, noisy.
    pub fn probe_caused(&mut self, id: WorkloadId, resource: SharedResource) -> ProfileResult {
        let noise = self.sample_noise();
        let entry = self.entries.get(&id).expect("unknown workload");
        let caused = entry.interference().caused().get(resource);
        let seconds = 2.0;
        let entry = self.entry_mut(id);
        entry.profiling_s += seconds;
        ProfileResult {
            value: (caused * noise).clamp(0.0, PressureVector::MAX),
            seconds,
        }
    }

    /// Injects a short contention probe next to a *running* workload and
    /// returns the measured performance ratio (probed / unprobed), the
    /// mechanism behind proactive phase detection (§4.1) and straggler
    /// checks (§4.3).
    ///
    /// Returns `None` if the workload is not running.
    pub fn probe_in_place(
        &mut self,
        id: WorkloadId,
        resource: SharedResource,
        intensity: f64,
    ) -> Option<f64> {
        let entry = self.entries.get(&id)?;
        if entry.state != JobState::Running {
            return None;
        }
        let placement = self.cluster.placement(id)?;
        let node = placement.nodes.first()?;
        let base_pressure = self.server_pressure(node.server, Some(id));
        let mut probed = base_pressure;
        probed.bump(resource, intensity);
        let profile = entry.interference();
        let before = profile.penalty(&base_pressure);
        let after = profile.penalty(&probed);
        let noise = self.sample_noise();
        Some((after / before.max(1e-9)) * noise)
    }

    /// Injects sustained contention on a server for `duration_s` seconds
    /// (a running iBench microbenchmark). Affects every workload there.
    pub fn inject_pressure(&mut self, server: ServerId, pressure: PressureVector, duration_s: f64) {
        self.injections.push(Injection {
            server,
            pressure,
            until_s: self.now + duration_s,
        });
    }

    // ------------------------------------------------------------------
    // Results API.
    // ------------------------------------------------------------------

    /// Completion records for all batch workloads.
    pub fn completions(&self) -> Vec<CompletionRecord> {
        let mut out: Vec<CompletionRecord> = self
            .entries
            .values()
            .filter(|e| e.workload.spec().class.is_batch())
            .map(|e| CompletionRecord {
                id: e.workload.id(),
                name: e.workload.spec().name.clone(),
                class: e.workload.spec().class,
                target: e.workload.spec().target,
                submitted_s: e.submitted_s,
                placed_s: e.placed_s,
                finished_s: e.finished_s,
                profiling_s: e.profiling_s,
                best_effort: e.workload.spec().is_best_effort(),
                peak_cores: e.peak_cores,
                reserved: e.reserved,
                total_work: e
                    .workload
                    .model()
                    .as_batch()
                    .map(|b| b.total_work())
                    .unwrap_or(0.0),
            })
            .collect();
        out.sort_by_key(|r| r.id);
        out
    }

    /// QoS records for all latency-critical services.
    pub fn qos_records(&self) -> Vec<QosRecord> {
        let mut out: Vec<QosRecord> = self
            .entries
            .values()
            .filter(|e| e.workload.spec().class.is_latency_critical())
            .map(|e| QosRecord {
                id: e.workload.id(),
                name: e.workload.spec().name.clone(),
                class: e.workload.spec().class,
                target: e.workload.spec().target,
                offered_queries: e.offered_queries,
                served_queries: e.served_queries,
                queries_meeting_qos: e.queries_meeting_qos,
                windows_met: e.windows_met,
                windows_total: e.windows_total,
                mean_utilization: if e.windows_total > 0 {
                    e.util_sum / e.windows_total as f64
                } else {
                    0.0
                },
                peak_cores: e.peak_cores,
                reserved: e.reserved,
            })
            .collect();
        out.sort_by_key(|r| r.id);
        out
    }

    /// The utilization metrics recorded over the run.
    pub fn metrics(&self) -> &MetricsRecorder {
        &self.metrics
    }

    /// The decision journal: every placement, eviction, resize,
    /// scale-out, isolation flip, and completion, timestamped.
    pub fn journal(&self) -> &Journal {
        &self.journal
    }

    /// Mutable journal access for drivers that attach a chunk provider
    /// or checkpoint/restore the stream.
    pub fn journal_mut(&mut self) -> &mut Journal {
        &mut self.journal
    }

    /// The QoS violation ledger: closed episodes with cause attribution
    /// and open episodes.
    pub fn qos(&self) -> &SloTracker {
        &self.qos
    }

    /// Incident reports dumped so far (severe closed episodes), in close
    /// order.
    pub fn incidents(&self) -> &[Incident] {
        &self.incidents
    }

    /// Takes ownership of the accumulated incident reports, leaving the
    /// buffer empty.
    pub fn take_incidents(&mut self) -> Vec<Incident> {
        std::mem::take(&mut self.incidents)
    }

    /// Closes every open violation episode at the current instant (end
    /// of run), journaling each like a live closure. Returns how many
    /// episodes were closed.
    pub fn finish_qos(&mut self) -> usize {
        let closed = self.qos.close_all(self.now);
        let n = closed.len();
        for episode in closed {
            self.finish_episode(episode);
        }
        n
    }

    /// Journals a closed episode and, when its peak depth crosses the
    /// severity threshold, dumps an incident report carrying the
    /// journal window and the placement snapshot at close time.
    fn finish_episode(&mut self, episode: EpisodeRecord) {
        self.journal.record(
            self.now,
            JournalEvent::QosEpisode {
                workload: episode.workload,
                cause: episode.cause,
                start_s: episode.start_s,
                duration_s: episode.duration_s(),
                peak_depth: episode.peak_depth,
            },
        );
        if self.qos.is_incident(&episode) {
            qos::count_incident();
            let margin = INCIDENT_MARGIN_TICKS * self.tick_s;
            let events = self
                .journal
                .tail(INCIDENT_WINDOW_EVENTS)
                .filter(|(t, _)| *t >= episode.start_s - margin && *t <= episode.end_s + margin)
                .copied()
                .collect();
            let placements = self
                .snapshot_placements()
                .iter()
                .map(|p| {
                    (
                        p.workload,
                        p.nodes
                            .iter()
                            .map(|n| (n.server.0, n.resources.cores))
                            .collect(),
                    )
                })
                .collect();
            self.incidents.push(Incident {
                episode,
                events,
                placements,
            });
        }
    }

    /// Feeds one running workload's observation of this tick into the
    /// SLO tracker, with `interference` the mean normalized pressure on
    /// its active nodes. Best-effort workloads are exempt (they have no
    /// QoS contract to violate); a job without a fresh observation
    /// contributes nothing.
    fn track_qos(&mut self, id: WorkloadId, interference: f64, utilization: f64) {
        let entry = &self.entries[&id];
        if entry.workload.spec().is_best_effort() {
            return;
        }
        let Some(obs) = entry.last_obs else {
            return;
        };
        let target = entry.workload.spec().target;
        let evidence = QosEvidence {
            interference,
            queue_wait_s: entry.placed_s.unwrap_or(self.now) - entry.submitted_s,
            rate_deviation: (entry.rate_factor - 1.0).abs(),
            utilization,
        };
        if let Some(episode) = self.qos.observe(self.now, id, &obs, &target, evidence) {
            self.finish_episode(episode);
        }
    }

    /// Sets the retention policy for finished entries. Under
    /// [`Retention::DropCompleted`] per-job [`completions`](World::completions)
    /// records are unavailable for retired jobs; the
    /// [`completion_digest`](World::completion_digest) remains the full
    /// outcome identity.
    pub fn set_retention(&mut self, retention: Retention) {
        self.retention = retention;
    }

    /// Running FNV-1a digest over every batch completion so far (id,
    /// submitted/placed/finished time bits, peak cores, folded in
    /// completion order). Invariant across drivers and across a
    /// snapshot/resume boundary.
    pub fn completion_digest(&self) -> u64 {
        self.completion_digest
    }

    /// Completed entries dropped under [`Retention::DropCompleted`].
    pub fn retired_count(&self) -> u64 {
        self.retired
    }

    fn fold_completion(&mut self, id: WorkloadId) {
        let entry = &self.entries[&id];
        let mut d = self.completion_digest;
        d = fnv_fold(d, id.0);
        d = fnv_fold(d, entry.submitted_s.to_bits());
        d = fnv_fold(d, entry.placed_s.unwrap_or(f64::NAN).to_bits());
        d = fnv_fold(d, entry.finished_s.unwrap_or(f64::NAN).to_bits());
        d = fnv_fold(d, entry.peak_cores as u64);
        self.completion_digest = d;
    }

    /// Drops a completed entry if the retention policy says so. Drivers
    /// call this after the manager's completion callback has run, so the
    /// manager still sees the entry while reacting. Returns whether the
    /// entry was dropped.
    pub(crate) fn retire_if_dropping(&mut self, id: WorkloadId) -> bool {
        if self.retention != Retention::DropCompleted {
            return false;
        }
        if self
            .entries
            .get(&id)
            .is_some_and(|e| e.state == JobState::Completed)
        {
            self.entries.remove(&id);
            self.retired += 1;
            true
        } else {
            false
        }
    }

    // ------------------------------------------------------------------
    // Snapshot support (crate-private; see the `snapshot` module).
    // ------------------------------------------------------------------

    pub(crate) fn noise(&self) -> f64 {
        self.noise
    }

    pub(crate) fn retention(&self) -> Retention {
        self.retention
    }

    pub(crate) fn injections_active(&self) -> bool {
        !self.injections.is_empty()
    }

    /// All entries sorted by id, for deterministic snapshot output.
    pub(crate) fn snapshot_entries(&self) -> Vec<(WorkloadId, &Entry)> {
        let mut out: Vec<_> = self.entries.iter().map(|(id, e)| (*id, e)).collect();
        out.sort_by_key(|(id, _)| *id);
        out
    }

    /// All placements sorted by workload id, for deterministic snapshot
    /// output.
    pub(crate) fn snapshot_placements(&self) -> Vec<&Placement> {
        let mut out: Vec<_> = self.cluster.placements().collect();
        out.sort_by_key(|p| p.workload);
        out
    }

    /// Mutable tracker access for snapshot restore (open episodes must
    /// survive a snapshot/resume boundary so the journal stream stays
    /// bit-exact).
    pub(crate) fn qos_mut(&mut self) -> &mut SloTracker {
        &mut self.qos
    }

    pub(crate) fn restore_clock(&mut self, now: f64) {
        self.now = now;
        quasar_obs::set_sim_time(now);
    }

    pub(crate) fn restore_accounting(&mut self, digest: u64, retired: u64) {
        self.completion_digest = digest;
        self.retired = retired;
    }

    pub(crate) fn restore_metrics(&mut self, next_index: u64, prior_count: u64) {
        self.metrics.resume_at(next_index, prior_count);
    }

    pub(crate) fn metrics_checkpoint(&self) -> (u64, u64) {
        (self.metrics.next_index(), self.metrics.total_count())
    }

    /// Re-inserts an entry from a snapshot, maintaining the state
    /// indexes. Bypasses [`submit`](World::submit): the entry keeps its
    /// recorded submission time and lifecycle state.
    pub(crate) fn restore_entry(&mut self, entry: Entry) {
        let id = entry.workload.id();
        assert!(
            !self.entries.contains_key(&id),
            "workload ids must be unique"
        );
        match entry.state {
            JobState::Pending => {
                self.pending.insert(id);
            }
            JobState::Running => {
                self.running.insert(id);
            }
            JobState::Completed | JobState::Killed => {}
        }
        self.entries.insert(id, entry);
    }

    /// Re-commits a placement from a snapshot without journaling (the
    /// pre-snapshot journal stream already carries its `placed` event).
    pub(crate) fn restore_placement(&mut self, placement: Placement) -> Result<(), PlaceError> {
        self.cluster.place(placement)
    }

    // ------------------------------------------------------------------
    // Simulation internals (crate-private).
    // ------------------------------------------------------------------

    fn entry(&self, id: WorkloadId) -> &Entry {
        self.entries.get(&id).expect("unknown workload")
    }

    fn entry_mut(&mut self, id: WorkloadId) -> &mut Entry {
        self.entries.get_mut(&id).expect("unknown workload")
    }

    /// The next instant a metrics sample becomes due (for drivers that
    /// fast-forward idle spans: they must still stop at every covering
    /// tick of the sampling grid so the heatmap keeps its cadence).
    pub(crate) fn next_metrics_due_s(&self) -> f64 {
        self.metrics.next_due_s()
    }

    fn sample_noise(&mut self) -> f64 {
        if self.noise <= 0.0 {
            1.0
        } else {
            self.rng.random_range(1.0 - self.noise..=1.0 + self.noise)
        }
    }

    pub(crate) fn submit(&mut self, workload: Workload) {
        let id = workload.id();
        assert!(
            !self.entries.contains_key(&id),
            "workload ids must be unique"
        );
        self.entries.insert(id, Entry::new(workload, self.now));
        self.pending.insert(id);
    }

    pub(crate) fn apply_phase_rate(&mut self, id: WorkloadId, factor: f64) {
        self.entry_mut(id).rate_factor = factor;
    }

    pub(crate) fn apply_phase_interference(
        &mut self,
        id: WorkloadId,
        profile: InterferenceProfile,
    ) {
        self.entry_mut(id).phase_interference = Some(profile);
    }

    /// Ground-truth pressure seen on a server, optionally excluding one
    /// workload's own contribution.
    pub(crate) fn server_pressure(
        &self,
        server: ServerId,
        exclude: Option<WorkloadId>,
    ) -> PressureVector {
        let total_cores = self.cluster.server(server).total_cores() as f64;
        let mut pressure = PressureVector::zero();
        for &id in self.cluster.workloads_on(server) {
            if Some(id) == exclude {
                continue;
            }
            let entry = match self.entries.get(&id) {
                Some(e) => e,
                None => continue,
            };
            let placement = self.cluster.placement(id).expect("placed workload");
            let node = placement.node_on(server).expect("slice exists");
            if !node.is_active(self.now) {
                continue;
            }
            let share = (node.resources.cores as f64 / total_cores).min(1.0);
            let outgoing = if placement.isolated {
                ISOLATION_PRESSURE_FACTOR
            } else {
                1.0
            };
            pressure += entry.interference().caused().scaled(share * outgoing);
        }
        for inj in &self.injections {
            if inj.server == server && inj.until_s > self.now {
                pressure += inj.pressure;
            }
        }
        pressure
    }

    /// Advances physics by one tick: batch progress, service windows, QoS
    /// accounting. Returns the ids of batch jobs that completed.
    ///
    /// Production drivers step via [`advance_to`](World::advance_to) with
    /// an integer tick index so repeated steps cannot accumulate float
    /// drift; this relative form remains for tests that step ad hoc.
    #[cfg_attr(not(test), allow(dead_code))]
    pub(crate) fn advance(&mut self, dt: f64) -> Vec<WorkloadId> {
        self.advance_to(self.now + dt)
    }

    /// [`advance`](World::advance) to an absolute instant. The clock is
    /// *assigned* `target_s` rather than accumulated, so drivers that step
    /// by integer tick index land on their horizon bitwise-exactly even
    /// for ticks with no finite binary representation (0.1, 0.2, ...).
    pub(crate) fn advance_to(&mut self, target_s: f64) -> Vec<WorkloadId> {
        let dt = target_s - self.now;
        self.now = target_s;
        // Publish the logical clock so spans/instants recorded anywhere
        // below (journal, manager callbacks) carry this tick's time.
        quasar_obs::set_sim_time(self.now);
        let _span = quasar_obs::span!("cluster.world.tick");
        world_metrics().ticks.inc();
        self.injections.retain(|inj| inj.until_s > self.now);

        let total_cores = self.cluster.total_cores();
        let utilization = if total_cores > 0 {
            self.cluster.used_cores() as f64 / total_cores as f64
        } else {
            0.0
        };
        // Moved out for the loop, whose body borrows the rest of the world
        // mutably and never reads the running index.
        let running = std::mem::take(&mut self.running);
        let mut completed = Vec::new();

        for &id in &running {
            let noise = self.sample_noise();
            let placement = self.cluster.placement(id);
            // A partitioned placement sees only a fraction of the ambient
            // pressure, at a small capacity overhead.
            let (incoming, iso) = if placement.is_some_and(|p| p.isolated) {
                (ISOLATION_PRESSURE_FACTOR, ISOLATION_OVERHEAD_FACTOR)
            } else {
                (1.0, 1.0)
            };
            let held_cores = placement.map_or(0, Placement::total_cores);
            let params = placement.map(|p| p.params).unwrap_or_default();
            // One ground-truth pressure per active node: scaled for the
            // physics, normalized for the QoS evidence.
            let mut allocs: Vec<(&Platform, NodeResources, PressureVector)> =
                Vec::with_capacity(placement.map_or(0, Placement::node_count));
            let mut pressure = 0.0;
            for node in placement.into_iter().flat_map(|p| p.active_nodes(self.now)) {
                let raw = self.server_pressure(node.server, Some(id));
                pressure += QosEvidence::normalize_pressure(&raw);
                allocs.push((
                    self.cluster.platform_of(node.server),
                    node.resources,
                    raw.scaled(incoming),
                ));
            }
            let interference = if allocs.is_empty() {
                0.0
            } else {
                pressure / allocs.len() as f64
            };
            let entry = self.entries.get_mut(&id).expect("running workload");
            entry.peak_cores = entry.peak_cores.max(held_cores);
            match entry.workload.model() {
                PerfModel::Batch(model) => {
                    let rate = model.cluster_rate(&allocs, &params) * entry.rate_factor * iso;
                    let done_before = entry.remaining_work <= 0.0;
                    entry.remaining_work -= rate * dt;
                    let total = model.total_work();
                    let progress = (1.0 - entry.remaining_work / total).clamp(0.0, 1.0);
                    let elapsed = entry.placed_s.map(|p| self.now - p).unwrap_or(0.0);
                    let projected = if rate > 0.0 {
                        // Elapsed so far plus remaining at current rate.
                        elapsed + entry.remaining_work.max(0.0) / rate
                    } else {
                        f64::INFINITY
                    };
                    entry.last_obs = Some(Observation::Batch {
                        rate: rate * noise,
                        progress,
                        projected_total_s: projected * noise,
                        elapsed_s: elapsed,
                    });
                    if entry.remaining_work <= 0.0 && !done_before {
                        // Interpolate the exact completion instant.
                        let overshoot = if rate > 0.0 {
                            (-entry.remaining_work / rate).min(dt)
                        } else {
                            0.0
                        };
                        entry.finished_s = Some(self.now - overshoot);
                        entry.state = JobState::Completed;
                        completed.push(id);
                    }
                }
                PerfModel::Service(model) => {
                    let offered = entry.workload.offered_qps(self.now);
                    let mut obs = model.observe(offered, &allocs);
                    if iso < 1.0 {
                        // Partitioning reserves capacity: effective
                        // utilization rises and the achievable throughput
                        // drops by the overhead.
                        obs.utilization = (obs.utilization / iso).min(1.0);
                        obs.achieved_qps = obs
                            .achieved_qps
                            .min(offered.min(model.total_capacity(&allocs) * iso));
                        obs.mean_latency_us /= iso;
                        obs.p99_latency_us /= iso;
                    }
                    obs.achieved_qps *= noise;
                    obs.p99_latency_us *= noise;
                    obs.mean_latency_us *= noise;
                    let target = entry.workload.spec().target;
                    entry.offered_queries += offered * dt;
                    entry.served_queries += obs.achieved_qps.min(offered) * dt;
                    if let QosTarget::Throughput { p99_latency_us, .. } = target {
                        if obs.p99_latency_us <= p99_latency_us {
                            entry.queries_meeting_qos += obs.achieved_qps.min(offered) * dt;
                        }
                    }
                    entry.windows_total += 1;
                    entry.util_sum += obs.utilization;
                    if obs.meets(&target) {
                        entry.windows_met += 1;
                    }
                    entry.last_obs = Some(Observation::Service(obs));
                }
            }
            // Before the completion sweep, so a job that finishes while
            // violating gets its final violating tick accounted.
            self.track_qos(id, interference, utilization);
        }
        self.running = running;

        for id in completed.iter() {
            self.running.remove(id);
            self.cluster.release(*id);
            // Completion is terminal for any open episode; close it
            // before the `completed` event so the episode's journal entry
            // precedes the completion it explains.
            if let Some(episode) = self.qos.terminate(*id, self.now) {
                self.finish_episode(episode);
            }
            self.journal
                .record(self.now, JournalEvent::Completed { workload: *id });
            self.fold_completion(*id);
        }

        if self.metrics.due(self.now) {
            let sample = self.sample_utilization();
            self.metrics.record(sample);
        }

        completed
    }

    /// Builds a utilization snapshot: *used* (not just committed) CPU per
    /// server, memory, disk pressure, plus aggregate allocated/reserved.
    fn sample_utilization(&self) -> HeatmapSample {
        let n = self.cluster.servers().len();
        let mut cpu = vec![0.0; n];
        let mut memory = vec![0.0; n];
        let mut disk = vec![0.0; n];

        for placement in self.cluster.placements() {
            let entry = match self.entries.get(&placement.workload) {
                Some(e) => e,
                None => continue,
            };
            // Services "use" cores in proportion to their utilization;
            // batch jobs use everything they hold.
            let activity = match &entry.last_obs {
                Some(Observation::Service(o)) => o.utilization.clamp(0.0, 1.0),
                _ => 1.0,
            };
            for node in placement.active_nodes(self.now) {
                let server = self.cluster.server(node.server);
                let total_cores = server.total_cores() as f64;
                cpu[node.server.0] += node.resources.cores as f64 * activity / total_cores;
                memory[node.server.0] += node.resources.memory_gb / server.total_memory_gb();
                let share = node.resources.cores as f64 / total_cores;
                disk[node.server.0] += entry.interference().caused().get(SharedResource::DiskIo)
                    / PressureVector::MAX
                    * share
                    * activity;
            }
        }
        for v in cpu
            .iter_mut()
            .chain(memory.iter_mut())
            .chain(disk.iter_mut())
        {
            *v = v.clamp(0.0, 1.0);
        }

        let total_cores = self.cluster.total_cores() as f64;
        let total_mem: f64 = self
            .cluster
            .servers()
            .iter()
            .map(|s| s.total_memory_gb())
            .sum();
        let allocated_cpu = self.cluster.used_cores() as f64 / total_cores;
        let allocated_memory = self
            .cluster
            .servers()
            .iter()
            .map(|s| s.used_memory_gb())
            .sum::<f64>()
            / total_mem;
        let (mut reserved_cores, mut reserved_mem) = (0.0, 0.0);
        for entry in self.entries.values() {
            if entry.state == JobState::Running || entry.state == JobState::Pending {
                if let Some((c, m)) = entry.reserved {
                    reserved_cores += c as f64;
                    reserved_mem += m;
                }
            }
        }

        HeatmapSample {
            time_s: self.now,
            cpu,
            memory,
            disk,
            allocated_cpu,
            reserved_cpu: (reserved_cores / total_cores).min(1.5),
            reserved_memory: (reserved_mem / total_mem).min(1.5),
            allocated_memory,
        }
    }
}

/// Ground-truth performance value in goal units for a profiling config.
fn ground_truth_value(entry: &Entry, platform: &Platform, config: &ProfileConfig) -> f64 {
    let allocs: Vec<(&Platform, NodeResources, PressureVector)> = (0..config.nodes)
        .map(|_| (platform, config.resources, config.injected_pressure))
        .collect();
    match entry.workload.model() {
        PerfModel::Batch(model) => {
            let rate = model.cluster_rate(&allocs, &config.params) * entry.rate_factor;
            match entry.workload.spec().target {
                QosTarget::Ips { .. } => rate,
                _ => {
                    if rate > 0.0 {
                        model.total_work() / rate
                    } else {
                        f64::INFINITY
                    }
                }
            }
        }
        PerfModel::Service(model) => {
            let bound = match entry.workload.spec().target {
                QosTarget::Throughput { p99_latency_us, .. } => p99_latency_us,
                _ => 1_000.0,
            };
            model.knee_qps(&allocs, bound) * entry.rate_factor
        }
    }
}

/// Wall-clock cost of one profiling run by class (paper §3.2/§3.4).
fn profile_run_seconds(class: WorkloadClass) -> f64 {
    match class {
        WorkloadClass::Memcached | WorkloadClass::Webserver => 8.0,
        WorkloadClass::Cassandra => 10.0,
        WorkloadClass::Hadoop | WorkloadClass::Spark | WorkloadClass::Storm => 30.0,
        WorkloadClass::SingleNode => 10.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::ClusterSpec;
    use quasar_workloads::generate::Generator;
    use quasar_workloads::{LoadPattern, PlatformCatalog, Priority};

    fn world() -> World {
        let spec = ClusterSpec::uniform(PlatformCatalog::local(), 2);
        World::new(ClusterState::new(spec), 5.0, 0.0, 60.0, 1)
    }

    fn batch_workload(seed: u64) -> Workload {
        let mut generator = Generator::new(PlatformCatalog::local(), seed);
        generator.analytics_job(
            WorkloadClass::Hadoop,
            "test",
            quasar_workloads::Dataset::new("d", 10.0, 1.0),
            2,
            600.0,
            Priority::Guaranteed,
        )
    }

    fn big_server(world: &World) -> ServerId {
        world
            .servers()
            .iter()
            .max_by(|a, b| a.total_cores().cmp(&b.total_cores()))
            .unwrap()
            .id()
    }

    #[test]
    fn submit_place_run_complete() {
        let mut w = world();
        let job = batch_workload(1);
        let id = job.id();
        w.submit(job);
        assert_eq!(w.state(id), JobState::Pending);

        let sid = big_server(&w);
        let platform = w.platform_of(sid);
        let res = NodeResources::all_of(platform);
        w.place(
            id,
            vec![NodeAlloc::immediate(sid, res)],
            FrameworkParams::default(),
        )
        .unwrap();
        assert_eq!(w.state(id), JobState::Running);

        // Run physics until completion (calibrated ~600s on 2 nodes, so
        // one node takes longer; bound generously).
        let mut completed = Vec::new();
        for _ in 0..4000 {
            completed = w.advance(5.0);
            if !completed.is_empty() {
                break;
            }
        }
        assert_eq!(completed, vec![id]);
        assert_eq!(w.state(id), JobState::Completed);
        let record = &w.completions()[0];
        assert!(record.finished_s.is_some());
        // Resources are freed.
        assert_eq!(w.used_cores(), 0);
    }

    /// Satellite guarantee for the structured journal: every mutating
    /// `World` action — place, resize, scale-out, reclaim, params,
    /// isolation, evict, completion — appends exactly one journal event
    /// of the matching kind, and failed mutations append none.
    #[test]
    fn every_mutating_action_journals_exactly_one_event() {
        let mut w = world();
        let job = batch_workload(11);
        let id = job.id();
        w.submit(job);
        assert!(w.journal().is_empty(), "submission alone journals nothing");

        let sid = big_server(&w);
        let other = w
            .servers()
            .iter()
            .map(Server::id)
            .find(|s| *s != sid)
            .expect("world has at least two servers");
        let small = NodeResources::new(2, 4.0);

        w.place(
            id,
            vec![NodeAlloc::immediate(sid, small)],
            FrameworkParams::default(),
        )
        .unwrap();
        w.resize_node(id, sid, NodeResources::new(4, 8.0)).unwrap();
        w.add_node(id, NodeAlloc::immediate(other, small)).unwrap();
        w.remove_node(id, other).unwrap();
        w.set_params(id, FrameworkParams::default()).unwrap();
        w.set_isolation(id, true).unwrap();
        w.evict(id, true);

        let kinds: Vec<&str> = w.journal().iter().map(|(_, e)| e.kind()).collect();
        assert_eq!(
            kinds,
            vec![
                "placed",
                "node_resized",
                "node_added",
                "node_removed",
                "params_set",
                "isolation_set",
                "evicted"
            ],
            "one event per mutating action, in order"
        );

        // Failed mutations must not journal.
        let before = w.journal().len();
        assert!(w.resize_node(id, sid, small).is_err(), "evicted → no slice");
        assert!(w.set_params(id, FrameworkParams::default()).is_err());
        assert_eq!(w.journal().len(), before);

        // Completion via physics journals exactly one `completed`.
        let platform = w.platform_of(sid);
        w.place(
            id,
            vec![NodeAlloc::immediate(sid, NodeResources::all_of(platform))],
            FrameworkParams::default(),
        )
        .unwrap();
        for _ in 0..4000 {
            if !w.advance(5.0).is_empty() {
                break;
            }
        }
        assert_eq!(w.state(id), JobState::Completed);
        let completions = w
            .journal()
            .iter()
            .filter(|(_, e)| e.kind() == "completed")
            .count();
        assert_eq!(completions, 1);
    }

    /// An incident's events are the journal's last 512 retained entries
    /// filtered to the episode ±2 ticks. The first incident has old
    /// events inside the tail (pins the margin), the second has more
    /// than 512 events inside the time window (pins the bound).
    #[test]
    fn incident_window_is_the_filtered_journal_tail() {
        let mut w = world();
        let job = batch_workload(12);
        let id = job.id();
        w.submit(job);
        // A placement that never activates projects to infinity.
        let mut node = NodeAlloc::immediate(big_server(&w), NodeResources::new(2, 4.0));
        node.active_after = 1e9;
        let params = FrameworkParams::default();

        // One severe episode: opened by the first tick, closed a tick
        // later by eviction, with `extra` journal events in between.
        // Returns the incident, the journal and the expected window.
        let stall_and_evict = |w: &mut World, extra: usize| {
            w.place(id, vec![node], params).unwrap();
            w.advance(5.0);
            for _ in 0..extra {
                w.set_params(id, params).unwrap();
            }
            w.advance(5.0);
            w.evict(id, true);
            let incident = w.incidents().last().expect("depth 10 is severe").clone();
            let all: Vec<(f64, JournalEvent)> = w.journal().iter().copied().collect();
            let (lo, hi) = (
                incident.episode.start_s - 10.0,
                incident.episode.end_s + 10.0,
            );
            let want: Vec<_> = all[all.len().saturating_sub(512)..]
                .iter()
                .filter(|(t, _)| (lo..=hi).contains(t))
                .copied()
                .collect();
            (incident, all, want)
        };

        // 300 events at t = 0, two each at t = 40 (just outside the
        // margin of an episode opening at 55) and t = 45 (just inside).
        for t in [0.0, 40.0, 45.0] {
            while w.now() < t {
                w.advance(5.0);
            }
            for _ in 0..if t == 0.0 { 150 } else { 1 } {
                w.place(id, vec![node], params).unwrap();
                w.evict(id, true);
            }
        }
        w.advance(5.0);
        let (first, all, want) = stall_and_evict(&mut w, 300);
        assert_eq!(first.events, want);
        assert_eq!((first.episode.start_s, first.events[0].0), (55.0, 45.0));
        assert!(all.len() > 512 && first.events.len() < 512);

        let (second, all, want) = stall_and_evict(&mut w, 600);
        assert_eq!(second.events, want);
        assert_eq!(second.events.len(), 512);
        let since = second.episode.start_s - 10.0;
        assert!(all.iter().filter(|(t, _)| *t >= since).count() > 512);
    }

    #[test]
    fn profiling_charges_time_and_returns_goal_units() {
        let mut w = world();
        let job = batch_workload(2);
        let id = job.id();
        w.submit(job);
        let sid = big_server(&w);
        let platform = w.platform_of(sid);
        let config = ProfileConfig::single(platform.id, NodeResources::all_of(platform));
        let r = w.profile_config(id, &config);
        assert!(r.value.is_finite() && r.value > 0.0, "completion estimate");
        assert!(r.seconds > 0.0);
        let record = &w.completions()[0];
        assert_eq!(record.profiling_s, r.seconds);
    }

    #[test]
    fn service_accumulates_qos_accounting() {
        let mut w = world();
        let mut generator = Generator::new(PlatformCatalog::local(), 3);
        let svc = generator.service(
            WorkloadClass::Memcached,
            "mc",
            8.0,
            LoadPattern::Flat { qps: 10_000.0 },
            Priority::Guaranteed,
        );
        let id = svc.id();
        w.submit(svc);
        let sid = big_server(&w);
        let platform = w.platform_of(sid);
        w.place(
            id,
            vec![NodeAlloc::immediate(sid, NodeResources::all_of(platform))],
            FrameworkParams::default(),
        )
        .unwrap();
        for _ in 0..10 {
            w.advance(5.0);
        }
        let rec = &w.qos_records()[0];
        assert!((rec.offered_queries - 10_000.0 * 50.0).abs() < 1.0);
        assert!(rec.windows_total == 10);
        assert!(rec.served_fraction() > 0.9);
    }

    #[test]
    fn eviction_requeues_with_progress() {
        let mut w = world();
        let job = batch_workload(4);
        let id = job.id();
        w.submit(job);
        let sid = big_server(&w);
        let platform = w.platform_of(sid);
        w.place(
            id,
            vec![NodeAlloc::immediate(sid, NodeResources::all_of(platform))],
            FrameworkParams::default(),
        )
        .unwrap();
        w.advance(5.0);
        w.evict(id, true);
        assert_eq!(w.state(id), JobState::Pending);
        assert_eq!(w.used_cores(), 0);
    }

    #[test]
    fn colocation_creates_pressure() {
        let mut w = world();
        let a = batch_workload(5);
        let b = batch_workload(6);
        let (ida, idb) = (a.id(), b.id());
        // ids must be unique across generators.
        assert_eq!(ida, idb);
        let b = {
            let mut generator = Generator::new(PlatformCatalog::local(), 60);
            // Advance the generator so ids differ.
            let _ = generator.analytics_job(
                WorkloadClass::Hadoop,
                "x",
                quasar_workloads::Dataset::new("d", 5.0, 1.0),
                1,
                60.0,
                Priority::Guaranteed,
            );
            generator.analytics_job(
                WorkloadClass::Hadoop,
                "y",
                quasar_workloads::Dataset::new("d", 5.0, 1.0),
                1,
                60.0,
                Priority::Guaranteed,
            )
        };
        let idb = b.id();
        w.submit(a);
        w.submit(b);
        let sid = big_server(&w);
        let half = NodeResources::new(8, 12.0);
        w.place(
            ida,
            vec![NodeAlloc::immediate(sid, half)],
            FrameworkParams::default(),
        )
        .unwrap();
        assert!(w.server_pressure(sid, Some(ida)).is_zero());
        w.place(
            idb,
            vec![NodeAlloc::immediate(sid, half)],
            FrameworkParams::default(),
        )
        .unwrap();
        let p = w.server_pressure(sid, Some(ida));
        assert!(p.total() > 0.0, "co-located workload must exert pressure");
    }

    #[test]
    fn injected_pressure_expires() {
        let mut w = world();
        let sid = big_server(&w);
        w.inject_pressure(sid, PressureVector::uniform(50.0), 7.0);
        assert!(w.server_pressure(sid, None).total() > 0.0);
        w.advance(5.0);
        assert!(w.server_pressure(sid, None).total() > 0.0);
        w.advance(5.0);
        assert!(w.server_pressure(sid, None).is_zero());
    }

    #[test]
    fn sensitivity_probe_matches_profile() {
        let mut w = world();
        let job = batch_workload(7);
        let id = job.id();
        let expected = job
            .model()
            .interference()
            .sensitivity_point(SharedResource::LlcCapacity, 0.05);
        w.submit(job);
        let r = w.probe_sensitivity(id, SharedResource::LlcCapacity, 0.05);
        assert!((r.value - expected).abs() < 1e-9, "no noise configured");
    }
}
