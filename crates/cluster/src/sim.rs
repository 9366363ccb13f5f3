//! The simulation driver: event queue plus the tick loop.
//!
//! # Time semantics
//!
//! Physics is tick-quantized: the clock only ever rests at `start + k *
//! tick_s` instants (computed by integer tick index, never accumulated).
//! Events (arrivals, phase changes) may carry arbitrary timestamps; an
//! event at time `t` is *delivered* at the first tick boundary `>= t` —
//! immediately after physics advanced to that boundary and before the
//! manager's completion/tick callbacks for it — so the tick callback at
//! a boundary always sees every event due by that boundary, including
//! events scheduled exactly at the run horizon. Delivery latency is
//! therefore bounded by one tick, never two.
//!
//! # Idle fast-forward
//!
//! When the world is idle (nothing running, nothing pending) and the
//! manager declares its idle ticks are no-ops
//! ([`Manager::needs_idle_ticks`]` == false`), the driver jumps straight
//! to the next instant anything can happen: the covering tick of the
//! next queued event, of the next metrics sample, or the horizon.
//! Quiescent spans then cost O(log n) per event instead of O(span /
//! tick) — with outcomes (completion sets, digests, metrics grids)
//! bit-identical to the dense loop, which
//! [`Simulation::run_until_dense`] retains for differential testing.

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::sync::OnceLock;

use quasar_interference::InterferenceProfile;
use quasar_obs::registry::{Counter, Gauge, Registry};
use quasar_workloads::{Workload, WorkloadId};

use crate::cluster::{ClusterSpec, ClusterState};
use crate::managers::Manager;
use crate::world::World;

/// Registry handles for the driver metrics (`quasar.cluster.sim.*`).
struct SimMetrics {
    heap_depth: Gauge,
    delivered: Counter,
    ticks_skipped: Counter,
}

fn sim_metrics() -> &'static SimMetrics {
    static METRICS: OnceLock<SimMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let reg = Registry::global();
        SimMetrics {
            heap_depth: reg.gauge("quasar.cluster.sim.heap_depth"),
            delivered: reg.counter("quasar.cluster.sim.events_delivered"),
            ticks_skipped: reg.counter("quasar.cluster.sim.ticks_skipped"),
        }
    })
}

/// Configuration of a simulation run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimConfig {
    /// Physics/monitoring tick in seconds.
    pub tick_s: f64,
    /// Multiplicative measurement noise (e.g. 0.03 = ±3%).
    pub noise: f64,
    /// Utilization sampling interval in seconds.
    pub metrics_interval_s: f64,
    /// RNG seed for the world (noise).
    pub seed: u64,
}

impl Default for SimConfig {
    fn default() -> SimConfig {
        SimConfig {
            tick_s: 5.0,
            noise: 0.03,
            metrics_interval_s: 60.0,
            seed: 0xC10D,
        }
    }
}

/// A mid-run behavioural change of a workload, used to exercise the phase
/// detection of §4.1.
#[derive(Debug, Clone)]
pub enum PhaseChange {
    /// Multiply the workload's intrinsic rate/capacity by this factor.
    RateFactor(f64),
    /// Replace the workload's interference profile.
    Interference(InterferenceProfile),
}

#[derive(Debug)]
enum EventKind {
    Arrival(Box<Workload>),
    Phase(WorkloadId, PhaseChange),
}

struct Event {
    time_s: f64,
    seq: u64,
    kind: EventKind,
}

impl PartialEq for Event {
    fn eq(&self, other: &Self) -> bool {
        self.time_s == other.time_s && self.seq == other.seq
    }
}

impl Eq for Event {}

impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Event {
    fn cmp(&self, other: &Self) -> Ordering {
        // Min-heap by time (then sequence for stability). total_cmp keeps
        // the heap invariant even if a non-finite timestamp slips through
        // a release build (NaN sorts deterministically instead of
        // panicking mid-pop or corrupting the ordering); insertion
        // rejects such timestamps in debug builds.
        other
            .time_s
            .total_cmp(&self.time_s)
            .then(other.seq.cmp(&self.seq))
    }
}

/// A simulation: a [`World`], a [`Manager`], and a queue of future events.
///
/// # Examples
///
/// ```
/// use quasar_cluster::{ClusterSpec, SimConfig, Simulation, managers::NullManager};
/// use quasar_workloads::PlatformCatalog;
///
/// let spec = ClusterSpec::uniform(PlatformCatalog::local(), 1);
/// let mut sim = Simulation::new(spec, Box::new(NullManager), SimConfig::default());
/// sim.run_until(30.0);
/// assert_eq!(sim.world().now(), 30.0);
///
/// // The invariant is bitwise even for ticks with no finite binary
/// // representation: the driver steps by integer tick index instead of
/// // accumulating `+= tick_s`.
/// let spec = ClusterSpec::uniform(PlatformCatalog::local(), 1);
/// let mut sim = Simulation::new(
///     spec,
///     Box::new(NullManager),
///     SimConfig { tick_s: 0.1, ..SimConfig::default() },
/// );
/// sim.run_until(33.0);
/// assert_eq!(sim.world().now(), 33.0);
/// ```
pub struct Simulation {
    world: World,
    manager: Box<dyn Manager>,
    events: BinaryHeap<Event>,
    next_seq: u64,
}

impl Simulation {
    /// Builds a simulation over a freshly-constructed cluster.
    pub fn new(spec: ClusterSpec, manager: Box<dyn Manager>, config: SimConfig) -> Simulation {
        assert!(config.tick_s > 0.0, "tick must be positive");
        let world = World::new(
            ClusterState::new(spec),
            config.tick_s,
            config.noise,
            config.metrics_interval_s,
            config.seed,
        );
        Simulation {
            world,
            manager,
            events: BinaryHeap::new(),
            next_seq: 0,
        }
    }

    /// Schedules a workload submission at time `at_s`.
    ///
    /// # Panics
    ///
    /// Panics if `at_s` is in the past.
    pub fn submit_at(&mut self, workload: Workload, at_s: f64) {
        assert!(at_s >= self.world.now(), "cannot submit in the past");
        self.push(at_s, EventKind::Arrival(Box::new(workload)));
    }

    /// Schedules a phase change for a workload at time `at_s`.
    pub fn schedule_phase_change(&mut self, id: WorkloadId, at_s: f64, change: PhaseChange) {
        assert!(at_s >= self.world.now(), "cannot schedule in the past");
        self.push(at_s, EventKind::Phase(id, change));
    }

    fn push(&mut self, time_s: f64, kind: EventKind) {
        debug_assert!(
            time_s.is_finite(),
            "event scheduled at non-finite time {time_s}"
        );
        self.events.push(Event {
            time_s,
            seq: self.next_seq,
            kind,
        });
        self.next_seq += 1;
        sim_metrics().heap_depth.set_max(self.events.len() as u64);
    }

    /// The simulated world (for inspection and result extraction).
    pub fn world(&self) -> &World {
        &self.world
    }

    /// Mutable world access, for test harnesses that drive the world
    /// directly.
    pub fn world_mut(&mut self) -> &mut World {
        &mut self.world
    }

    /// The manager's report name.
    pub fn manager_name(&self) -> String {
        self.manager.name().to_string()
    }

    /// Queued arrivals as `(time, seq, id)` in submission order, for
    /// snapshots. Errors if a phase change is queued: snapshots cover
    /// arrival streams only (workloads are regenerated on resume; phase
    /// payloads have no serial form).
    pub(crate) fn queued_arrivals(&self) -> Result<Vec<(f64, u64, WorkloadId)>, String> {
        let mut out = Vec::with_capacity(self.events.len());
        for e in self.events.iter() {
            match &e.kind {
                EventKind::Arrival(w) => out.push((e.time_s, e.seq, w.id())),
                EventKind::Phase(id, _) => {
                    return Err(format!(
                        "queued phase change for workload {} cannot be snapshotted",
                        id.0
                    ));
                }
            }
        }
        out.sort_by_key(|&(_, seq, _)| seq);
        Ok(out)
    }

    pub(crate) fn event_seq(&self) -> u64 {
        self.next_seq
    }

    /// Rebuilds the event queue from a snapshot (arrivals only), keeping
    /// the recorded per-event sequence numbers so heap tie-breaks replay
    /// identically.
    pub(crate) fn restore_queue(&mut self, arrivals: Vec<(f64, u64, Workload)>, next_seq: u64) {
        for (time_s, seq, workload) in arrivals {
            self.events.push(Event {
                time_s,
                seq,
                kind: EventKind::Arrival(Box::new(workload)),
            });
        }
        self.next_seq = next_seq;
        sim_metrics().heap_depth.set_max(self.events.len() as u64);
    }

    /// Runs the simulation until `t_end_s` (inclusive of the final tick),
    /// fast-forwarding idle spans when the manager allows it (see the
    /// module docs for the exact time semantics).
    ///
    /// Each iteration: advance physics one tick, deliver events due by
    /// the end of that tick (arrivals → `on_arrival`, phase changes →
    /// world mutation), notify completions, then give the manager its
    /// periodic `on_tick`. Events already due when the call starts —
    /// including events at exactly a previously-reached horizon — are
    /// delivered up front, and the final tick delivers everything due at
    /// `t_end_s` itself, so no event within the horizon is ever dropped.
    ///
    /// Tick instants are computed as `start + k * tick_s` by integer tick
    /// index `k` — not by repeated `+= tick_s` accumulation, which for
    /// non-dyadic ticks (0.1, 0.3, ...) drifts and over/undershoots the
    /// horizon. The final step clamps to `t_end_s`, so after the call
    /// `world().now() == t_end_s` holds bitwise whenever the clock moved.
    pub fn run_until(&mut self, t_end_s: f64) {
        self.drive(t_end_s, true);
    }

    /// The dense tick loop: identical semantics to
    /// [`run_until`](Simulation::run_until) but never fast-forwards idle
    /// spans, visiting every tick like the original tick-driven core.
    /// Retained as the differential-testing oracle for the event-driven
    /// loop (see DESIGN.md §7 for its retirement path); production
    /// callers should use `run_until`.
    pub fn run_until_dense(&mut self, t_end_s: f64) {
        self.drive(t_end_s, false);
    }

    fn drive(&mut self, t_end_s: f64, allow_skip: bool) {
        let tick = self.world.tick_s();
        let start = self.world.now();
        // Events already due — scheduled at exactly `start`, or at/before
        // a horizon an earlier call already reached — deliver now, at the
        // clock they were scheduled for.
        self.deliver_due(start);
        let mut k: u64 = 0;
        while self.world.now() + 1e-9 < t_end_s {
            k += 1;
            if allow_skip && self.world.is_idle() && !self.manager.needs_idle_ticks() {
                let jump = idle_jump(
                    k,
                    self.world.now(),
                    start,
                    tick,
                    t_end_s,
                    self.events.peek().map(|e| e.time_s),
                    self.world.next_metrics_due_s(),
                );
                if jump > k {
                    sim_metrics().ticks_skipped.add(jump - k);
                    k = jump;
                }
            }
            let next = (start + k as f64 * tick).min(t_end_s);
            let completed = self.world.advance_to(next);
            self.deliver_due(self.world.now());
            for id in completed {
                self.manager.on_completion(&mut self.world, id);
                self.world.retire_if_dropping(id);
            }
            self.manager.on_tick(&mut self.world);
        }
    }

    /// Delivers every queued event due at clock `now` (`time_s <= now`
    /// within tolerance), in time-then-submission order.
    fn deliver_due(&mut self, now: f64) {
        while self
            .events
            .peek()
            .map(|e| e.time_s <= now + 1e-9)
            .unwrap_or(false)
        {
            let event = self.events.pop().expect("peeked");
            sim_metrics().delivered.inc();
            match event.kind {
                EventKind::Arrival(workload) => {
                    let id = workload.id();
                    self.world.submit(*workload);
                    self.manager.on_arrival(&mut self.world, id);
                }
                EventKind::Phase(id, change) => match change {
                    PhaseChange::RateFactor(f) => self.world.apply_phase_rate(id, f),
                    PhaseChange::Interference(p) => self.world.apply_phase_interference(id, p),
                },
            }
        }
    }
}

/// The tick index an idle driver may jump to: the covering tick of the
/// earliest instant anything can happen (next queued event, next metrics
/// sample, or the horizon). Returns at least `k`, the index the dense
/// loop would visit next, and picks exactly the tick the dense loop
/// would first observe that instant at — so skipping changes nothing
/// observable.
fn idle_jump(
    k: u64,
    now: f64,
    start: f64,
    tick: f64,
    t_end_s: f64,
    next_event_s: Option<f64>,
    next_metrics_s: f64,
) -> u64 {
    let mut target = t_end_s.min(next_metrics_s);
    if let Some(te) = next_event_s {
        target = target.min(te);
    }
    if target <= now + 1e-9 {
        // Due already (or at this very instant): the next tick handles it.
        return k;
    }
    covering_tick(start, tick, target).max(k)
}

/// The first tick index `j` with `target <= start + j * tick + 1e-9` —
/// the tick at which the dense loop's delivery/metrics checks would see
/// `target` as due. Pinned by the same float expressions the loop uses,
/// so the choice is bitwise-consistent with dense stepping.
fn covering_tick(start: f64, tick: f64, target: f64) -> u64 {
    let mut j = (((target - start) / tick).ceil()).max(0.0) as u64;
    while j > 0 && target <= start + (j - 1) as f64 * tick + 1e-9 {
        j -= 1;
    }
    while target > start + j as f64 * tick + 1e-9 {
        j += 1;
    }
    j
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::managers::NullManager;
    use crate::placement::NodeAlloc;
    use crate::world::JobState;
    use quasar_workloads::generate::Generator;
    use quasar_workloads::{
        Dataset, FrameworkParams, NodeResources, PlatformCatalog, Priority, WorkloadClass,
    };

    /// A manager that places every arrival on the emptiest server at full
    /// size, for driver tests.
    struct GreedyFullServer;

    impl Manager for GreedyFullServer {
        fn name(&self) -> &str {
            "greedy-full"
        }

        fn on_arrival(&mut self, world: &mut World, id: WorkloadId) {
            let sid = world
                .servers()
                .iter()
                .filter(|s| s.used_cores() == 0)
                .max_by_key(|s| s.total_cores())
                .map(|s| s.id());
            if let Some(sid) = sid {
                let platform = world.platform_of(sid);
                let res = NodeResources::all_of(platform);
                let _ = world.place(
                    id,
                    vec![NodeAlloc::immediate(sid, res)],
                    FrameworkParams::default(),
                );
            }
        }

        fn on_tick(&mut self, _world: &mut World) {}

        fn on_completion(&mut self, _world: &mut World, _id: WorkloadId) {}

        fn needs_idle_ticks(&self) -> bool {
            false
        }
    }

    fn sim(manager: Box<dyn Manager>) -> Simulation {
        let spec = ClusterSpec::uniform(PlatformCatalog::local(), 1);
        Simulation::new(
            spec,
            manager,
            SimConfig {
                noise: 0.0,
                ..SimConfig::default()
            },
        )
    }

    #[test]
    fn run_until_advances_clock_exactly() {
        let mut s = sim(Box::new(NullManager));
        s.run_until(33.0);
        assert_eq!(s.world().now(), 33.0);
    }

    #[test]
    fn non_dyadic_tick_lands_on_horizon_bitwise() {
        // Regression: repeated `now += 0.1` accumulates rounding error
        // (330 * 0.1 != 33.0 in binary), so the old driver either
        // overshot the horizon or stopped an epsilon short. Integer tick
        // indexing must land exactly, including across successive calls
        // that resume from a non-representable instant.
        let spec = ClusterSpec::uniform(PlatformCatalog::local(), 1);
        let mut s = Simulation::new(
            spec,
            Box::new(NullManager),
            SimConfig {
                tick_s: 0.1,
                noise: 0.0,
                ..SimConfig::default()
            },
        );
        s.run_until(33.0);
        assert_eq!(s.world().now(), 33.0);
        s.run_until(47.5);
        assert_eq!(s.world().now(), 47.5);
        s.run_until(47.65);
        assert_eq!(s.world().now(), 47.65);
    }

    #[test]
    fn arrivals_are_delivered_in_order() {
        let mut s = sim(Box::new(GreedyFullServer));
        let mut generator = Generator::new(PlatformCatalog::local(), 1);
        let a = generator.analytics_job(
            WorkloadClass::Hadoop,
            "a",
            Dataset::new("d", 5.0, 1.0),
            1,
            300.0,
            Priority::Guaranteed,
        );
        let b = generator.analytics_job(
            WorkloadClass::Hadoop,
            "b",
            Dataset::new("d", 5.0, 1.0),
            1,
            300.0,
            Priority::Guaranteed,
        );
        let (ida, idb) = (a.id(), b.id());
        s.submit_at(a, 10.0);
        s.submit_at(b, 20.0);
        s.run_until(15.0);
        assert_eq!(s.world().state(ida), JobState::Running);
        assert!(
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| { s.world().state(idb) }))
                .is_err(),
            "b not yet submitted"
        );
        s.run_until(25.0);
        assert_eq!(s.world().state(idb), JobState::Running);
    }

    #[test]
    fn phase_change_slows_a_job() {
        let mut s = sim(Box::new(GreedyFullServer));
        let mut generator = Generator::new(PlatformCatalog::local(), 2);
        let job = generator.analytics_job(
            WorkloadClass::Hadoop,
            "a",
            Dataset::new("d", 5.0, 1.0),
            1,
            500.0,
            Priority::Guaranteed,
        );
        let id = job.id();
        s.submit_at(job, 0.0);
        s.schedule_phase_change(id, 50.0, PhaseChange::RateFactor(0.01));
        s.run_until(49.0);
        let before = match s.world().observation(id).unwrap() {
            crate::observe::Observation::Batch { rate, .. } => rate,
            _ => unreachable!(),
        };
        s.run_until(60.0);
        let after = match s.world().observation(id).unwrap() {
            crate::observe::Observation::Batch { rate, .. } => rate,
            _ => unreachable!(),
        };
        assert!(after < before * 0.1, "phase change must slow the job");
    }

    #[test]
    fn completions_notify_manager_and_free_resources() {
        struct CountCompletions(std::rc::Rc<std::cell::Cell<usize>>);
        impl Manager for CountCompletions {
            fn name(&self) -> &str {
                "count"
            }
            fn on_arrival(&mut self, world: &mut World, id: WorkloadId) {
                GreedyFullServer.on_arrival(world, id);
            }
            fn on_tick(&mut self, _world: &mut World) {}
            fn on_completion(&mut self, _world: &mut World, _id: WorkloadId) {
                self.0.set(self.0.get() + 1);
            }
        }
        let counter = std::rc::Rc::new(std::cell::Cell::new(0));
        let mut s = sim(Box::new(CountCompletions(counter.clone())));
        let mut generator = Generator::new(PlatformCatalog::local(), 3);
        let job = generator.analytics_job(
            WorkloadClass::Hadoop,
            "a",
            Dataset::new("d", 2.0, 1.0),
            1,
            120.0,
            Priority::Guaranteed,
        );
        s.submit_at(job, 0.0);
        s.run_until(5_000.0);
        assert_eq!(counter.get(), 1, "exactly one completion callback");
        assert_eq!(s.world().used_cores(), 0);
    }

    #[test]
    #[should_panic(expected = "cannot submit in the past")]
    fn past_submission_panics() {
        let mut s = sim(Box::new(NullManager));
        s.run_until(10.0);
        let mut generator = Generator::new(PlatformCatalog::local(), 4);
        let job = generator.single_node_job("x", 60.0, Priority::BestEffort);
        s.submit_at(job, 5.0);
    }

    /// Regression (horizon drop): an arrival scheduled at exactly the
    /// run horizon — which `submit_at`'s assert permits — used to be
    /// silently left in the queue when `run_until` exited. It must be
    /// delivered at the horizon, within the same call.
    #[test]
    fn events_at_the_horizon_are_delivered() {
        let mut s = sim(Box::new(GreedyFullServer));
        let mut generator = Generator::new(PlatformCatalog::local(), 5);
        let job = generator.single_node_job("edge", 300.0, Priority::Guaranteed);
        let id = job.id();
        s.submit_at(job, 30.0);
        s.run_until(30.0);
        assert_eq!(
            s.world().state(id),
            JobState::Running,
            "horizon arrival must fire before run_until returns"
        );
        let record = &s.world().completions()[0];
        assert_eq!(record.submitted_s, 30.0);

        // Same at a horizon that is not a tick multiple.
        let mut s = sim(Box::new(GreedyFullServer));
        let job = generator.single_node_job("edge2", 300.0, Priority::Guaranteed);
        let id = job.id();
        s.submit_at(job, 32.0);
        s.run_until(32.0);
        assert_eq!(s.world().state(id), JobState::Running);
    }

    /// Regression (delivery latency): an event at mid-tick time `t` must
    /// be delivered at the first tick boundary `>= t` and be visible to
    /// that boundary's `on_tick` — not one full tick later, as the old
    /// start-of-tick delivery condition produced.
    #[test]
    fn mid_tick_events_deliver_at_the_covering_tick() {
        /// Records the clock of the first `on_tick` that sees a pending
        /// workload, and of the `on_arrival` itself.
        #[derive(Default)]
        struct FirstSight {
            arrival_at: std::cell::Cell<f64>,
            tick_saw_pending_at: std::cell::Cell<f64>,
        }
        struct Watcher(std::rc::Rc<FirstSight>);
        impl Manager for Watcher {
            fn name(&self) -> &str {
                "watcher"
            }
            fn on_arrival(&mut self, world: &mut World, _id: WorkloadId) {
                if self.0.arrival_at.get() == 0.0 {
                    self.0.arrival_at.set(world.now());
                }
            }
            fn on_tick(&mut self, world: &mut World) {
                if self.0.tick_saw_pending_at.get() == 0.0
                    && !world.ids_in_state(JobState::Pending).is_empty()
                {
                    self.0.tick_saw_pending_at.set(world.now());
                }
            }
            fn on_completion(&mut self, _world: &mut World, _id: WorkloadId) {}
        }

        let sight = std::rc::Rc::new(FirstSight::default());
        let mut s = sim(Box::new(Watcher(sight.clone())));
        let mut generator = Generator::new(PlatformCatalog::local(), 6);
        let job = generator.single_node_job("mid", 300.0, Priority::Guaranteed);
        s.submit_at(job, 7.0); // mid-tick: ticks land at 5, 10, 15, ...
        s.run_until(30.0);
        assert_eq!(
            sight.arrival_at.get(),
            10.0,
            "delivered at the covering tick boundary"
        );
        assert_eq!(
            sight.tick_saw_pending_at.get(),
            10.0,
            "the covering tick's own on_tick must already see the event"
        );
    }

    /// The idle fast-forward must be observationally equivalent to the
    /// dense loop: same completion digest, same completion records, same
    /// metrics sample count and grid.
    #[test]
    fn idle_skip_matches_dense_loop_bitwise() {
        let run = |dense: bool| {
            let mut s = sim(Box::new(GreedyFullServer));
            let mut generator = Generator::new(PlatformCatalog::local(), 7);
            // Long idle gaps between arrivals, horizon far past the last
            // completion — exactly the spans the skip path eats.
            for (i, at) in [(0u64, 100.0), (1, 2_000.0), (2, 7_333.0)] {
                let job = generator.single_node_job(format!("j{i}"), 400.0, Priority::Guaranteed);
                s.submit_at(job, at);
            }
            if dense {
                s.run_until_dense(20_000.0);
            } else {
                s.run_until(20_000.0);
            }
            (
                s.world().completion_digest(),
                s.world().completions(),
                s.world()
                    .metrics()
                    .samples()
                    .iter()
                    .map(|m| m.time_s.to_bits())
                    .collect::<Vec<_>>(),
                s.world().now().to_bits(),
            )
        };
        let dense = run(true);
        let skipped = run(false);
        assert_eq!(dense.0, skipped.0, "completion digest");
        assert_eq!(dense.1, skipped.1, "completion records");
        assert_eq!(dense.2, skipped.2, "metrics grid");
        assert_eq!(dense.3, skipped.3, "final clock");
    }
}
