//! The QoS violation ledger: violation *episodes* with cause
//! attribution, and deterministic incident reports for the severe ones.
//!
//! [`crate::observe::Observation::violation`] says whether, and how
//! deeply, one tick missed its target; this module says *when* a
//! workload fell out of QoS, *for how long*, *how deep*, and *why*
//! (paper §3.1/§5: Quasar monitors workload performance and adjusts
//! allocations when needed — the ledger is how every adjustment
//! policy gets judged). An [`SloTracker`] consumes each tick's
//! observation plus evidence the world already has (host interference
//! pressure, admission queue wait, rate-factor drift, cluster
//! utilization), opens an episode on the first violating tick,
//! accumulates evidence while the violation lasts, and attributes a
//! [`QosCause`] when the episode closes. Every closed episode is
//! journalled ([`crate::journal::JournalEvent::QosEpisode`]), counted
//! under `quasar.cluster.qos.*`, and binned into a per-cause duration
//! histogram.
//!
//! Episodes whose peak depth crosses the severity threshold become
//! [`Incident`] reports: one `quasar.qos.incident.v1` JSON line carrying
//! the ±window of journal events around the episode (copied from the
//! tail of the world's [`crate::journal::Journal`], rendered at export),
//! the placement snapshot at close time, and the attribution evidence.
//! Everything in this module is driven by logical simulation state only,
//! so ledgers and incident dumps are byte-identical across `--threads`.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::OnceLock;

use quasar_interference::PressureVector;
use quasar_obs::registry::{Counter, Histogram, Registry};
use quasar_workloads::{QosTarget, WorkloadId};

use crate::journal::JournalEvent;
use crate::observe::Observation;

/// Episode-duration histogram bounds in seconds: one tick to a day.
const DURATION_BOUNDS_S: [f64; 10] = [
    5.0, 15.0, 60.0, 300.0, 900.0, 1800.0, 3600.0, 7200.0, 21600.0, 86400.0,
];

/// Attributed root cause of a violation episode, in attribution
/// priority order (most specific evidence first).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum QosCause {
    /// A straggler-grade slowdown (rate factor collapsed).
    Straggler,
    /// The workload's own speed assumption broke (phase change /
    /// calibration or reconstruction drift).
    CalibrationDrift,
    /// Co-runner pressure on the hosting servers.
    Interference,
    /// The job burned its budget waiting in the admission queue.
    QueueWait,
    /// The cluster itself was (nearly) full — nowhere to grow.
    CapacityShortfall,
    /// No evidence signal dominated.
    Unknown,
}

impl QosCause {
    /// Every cause, in attribution priority order.
    pub const ALL: [QosCause; 6] = [
        QosCause::Straggler,
        QosCause::CalibrationDrift,
        QosCause::Interference,
        QosCause::QueueWait,
        QosCause::CapacityShortfall,
        QosCause::Unknown,
    ];

    /// Stable machine-readable tag (used in journal serialization,
    /// metric names, CSV columns, and incident JSON).
    pub fn as_str(self) -> &'static str {
        match self {
            QosCause::Straggler => "straggler",
            QosCause::CalibrationDrift => "calibration_drift",
            QosCause::Interference => "interference",
            QosCause::QueueWait => "queue_wait",
            QosCause::CapacityShortfall => "capacity_shortfall",
            QosCause::Unknown => "unknown",
        }
    }

    /// Parses [`as_str`](QosCause::as_str) output.
    pub fn parse(s: &str) -> Option<QosCause> {
        QosCause::ALL.into_iter().find(|c| c.as_str() == s)
    }
}

impl fmt::Display for QosCause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Per-tick evidence the world hands the tracker alongside the
/// observation — all signals that already exist in the system.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct QosEvidence {
    /// Ambient pressure on the workload's hosting servers, normalized so
    /// 1.0 means one fully saturated shared resource
    /// ([`PressureVector::total`] / [`PressureVector::MAX`]).
    pub interference: f64,
    /// Seconds the job waited between submission and placement.
    pub queue_wait_s: f64,
    /// `|rate_factor - 1|`: how far the workload's live speed drifted
    /// from the calibrated model (phase changes, reconstruction error).
    pub rate_deviation: f64,
    /// Cluster core utilization in `[0, 1]` at observation time.
    pub utilization: f64,
}

impl QosEvidence {
    /// Normalizes a raw hosting-server pressure vector into the
    /// [`interference`](QosEvidence::interference) evidence scale.
    pub fn normalize_pressure(pressure: &PressureVector) -> f64 {
        pressure.total() / PressureVector::MAX
    }
}

/// One closed violation episode.
#[derive(Debug, Clone, PartialEq)]
pub struct EpisodeRecord {
    /// The violating workload.
    pub workload: WorkloadId,
    /// Attributed root cause.
    pub cause: QosCause,
    /// Sim-time of the first violating tick.
    pub start_s: f64,
    /// Sim-time the episode closed (first on-track tick or terminal).
    pub end_s: f64,
    /// Number of violating ticks covered.
    pub ticks: u64,
    /// Deepest violation seen (0.2 = 20% past the target).
    pub peak_depth: f64,
    /// Mean evidence over the violating ticks (queue wait is the value
    /// at open time).
    pub evidence: QosEvidence,
}

impl EpisodeRecord {
    /// Episode duration in seconds.
    pub fn duration_s(&self) -> f64 {
        self.end_s - self.start_s
    }
}

/// State of one open episode.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
struct OpenEpisode {
    start_s: f64,
    ticks: u64,
    peak_depth: f64,
    interference_sum: f64,
    rate_dev_sum: f64,
    util_sum: f64,
    queue_wait_s: f64,
}

/// Registry handles for the ledger (`quasar.cluster.qos.*`): episode /
/// violating-tick / incident counters, a per-cause episode counter, and
/// a per-cause duration histogram.
struct QosMetrics {
    episodes: Counter,
    violating_ticks: Counter,
    incidents: Counter,
    per_cause: [(QosCause, Counter, Histogram); 6],
}

fn qos_metrics() -> &'static QosMetrics {
    static METRICS: OnceLock<QosMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let reg = Registry::global();
        QosMetrics {
            episodes: reg.counter("quasar.cluster.qos.episodes"),
            violating_ticks: reg.counter("quasar.cluster.qos.violating_ticks"),
            incidents: reg.counter("quasar.cluster.qos.incidents"),
            per_cause: QosCause::ALL.map(|c| {
                (
                    c,
                    reg.counter(&format!("quasar.cluster.qos.cause.{c}")),
                    reg.histogram(
                        &format!("quasar.cluster.qos.duration_s.{c}"),
                        &DURATION_BOUNDS_S,
                    ),
                )
            }),
        }
    })
}

/// Mean rate deviation above this is straggler-grade.
const STRAGGLER_DEVIATION: f64 = 0.6;
/// Mean rate deviation above this attributes to calibration drift.
const DRIFT_DEVIATION: f64 = 0.15;
/// Mean normalized interference at or above this attributes to
/// interference.
const INTERFERENCE_FLOOR: f64 = 0.25;
/// Queue wait of at least this many ticks attributes to admission wait.
const QUEUE_WAIT_TICKS: f64 = 2.0;
/// Mean cluster utilization at or above this attributes to capacity.
const CAPACITY_FLOOR: f64 = 0.9;
/// Peak depth at or above this makes a closed episode an incident.
const INCIDENT_DEPTH: f64 = 0.5;

/// Tracks per-workload violation episodes across ticks. It holds only
/// the open episodes and hands each closed one back to its caller, which
/// decides what to keep.
#[derive(Debug, Clone)]
pub struct SloTracker {
    tick_s: f64,
    open: BTreeMap<WorkloadId, OpenEpisode>,
}

impl SloTracker {
    /// A tracker for a world ticking every `tick_s` seconds.
    pub fn new(tick_s: f64) -> SloTracker {
        SloTracker {
            tick_s,
            open: BTreeMap::new(),
        }
    }

    /// Feeds one tick's observation plus evidence for a workload.
    /// Returns the episode closed by this tick, if any (the caller
    /// journals it).
    pub fn observe(
        &mut self,
        now_s: f64,
        id: WorkloadId,
        obs: &Observation,
        target: &QosTarget,
        evidence: QosEvidence,
    ) -> Option<EpisodeRecord> {
        match obs.violation(target) {
            Some(depth) => {
                qos_metrics().violating_ticks.inc();
                let open = self.open.entry(id).or_insert(OpenEpisode {
                    start_s: now_s,
                    queue_wait_s: evidence.queue_wait_s,
                    ..OpenEpisode::default()
                });
                open.ticks += 1;
                if depth > open.peak_depth {
                    open.peak_depth = depth;
                }
                open.interference_sum += evidence.interference;
                open.rate_dev_sum += evidence.rate_deviation;
                open.util_sum += evidence.utilization;
                None
            }
            None => self.terminate(id, now_s),
        }
    }

    /// Closes the open episode of `id` (job completed, evicted, or back
    /// on track) at `now_s`. Returns the closed episode, if one was open.
    pub fn terminate(&mut self, id: WorkloadId, now_s: f64) -> Option<EpisodeRecord> {
        let open = self.open.remove(&id)?;
        Some(self.close(id, open, now_s))
    }

    /// Closes every open episode (end of run). Returns the closed
    /// episodes in workload-id order.
    pub fn close_all(&mut self, now_s: f64) -> Vec<EpisodeRecord> {
        let open = std::mem::take(&mut self.open);
        open.into_iter()
            .map(|(id, ep)| self.close(id, ep, now_s))
            .collect()
    }

    fn close(&self, id: WorkloadId, open: OpenEpisode, end_s: f64) -> EpisodeRecord {
        let ticks = open.ticks.max(1) as f64;
        let evidence = QosEvidence {
            interference: open.interference_sum / ticks,
            queue_wait_s: open.queue_wait_s,
            rate_deviation: open.rate_dev_sum / ticks,
            utilization: open.util_sum / ticks,
        };
        let cause = self.attribute(&evidence);
        let record = EpisodeRecord {
            workload: id,
            cause,
            start_s: open.start_s,
            end_s,
            ticks: open.ticks,
            peak_depth: open.peak_depth,
            evidence,
        };
        let metrics = qos_metrics();
        metrics.episodes.inc();
        if let Some((_, counter, histogram)) =
            metrics.per_cause.iter().find(|(c, _, _)| *c == cause)
        {
            counter.inc();
            histogram.record(record.duration_s());
        }
        record
    }

    /// Picks the cause whose evidence threshold fires first, in
    /// [`QosCause::ALL`] priority order (most specific signal wins; the
    /// exact rules are documented in DESIGN.md).
    fn attribute(&self, e: &QosEvidence) -> QosCause {
        if e.rate_deviation > STRAGGLER_DEVIATION {
            QosCause::Straggler
        } else if e.rate_deviation > DRIFT_DEVIATION {
            QosCause::CalibrationDrift
        } else if e.interference >= INTERFERENCE_FLOOR {
            QosCause::Interference
        } else if e.queue_wait_s >= QUEUE_WAIT_TICKS * self.tick_s {
            QosCause::QueueWait
        } else if e.utilization >= CAPACITY_FLOOR {
            QosCause::CapacityShortfall
        } else {
            QosCause::Unknown
        }
    }

    /// Whether a closed episode is severe enough for an incident dump.
    pub fn is_incident(&self, episode: &EpisodeRecord) -> bool {
        episode.peak_depth >= INCIDENT_DEPTH
    }
}

/// Bumps the `quasar.cluster.qos.incidents` counter; called once per
/// [`Incident`] actually dumped.
pub(crate) fn count_incident() {
    qos_metrics().incidents.inc();
}

/// Schema tag of incident report lines.
pub const INCIDENT_SCHEMA: &str = "quasar.qos.incident.v1";

/// A deterministic incident report for one severe episode: the episode,
/// the attribution evidence, the journal window around it, and the
/// placement snapshot at close time.
#[derive(Debug, Clone, PartialEq)]
pub struct Incident {
    /// The severe episode.
    pub episode: EpisodeRecord,
    /// Journal events in the ±window, as `(sim-time, event)`.
    pub events: Vec<(f64, JournalEvent)>,
    /// Placements at close time: `(workload, [(server, cores)])`, sorted
    /// by workload id.
    pub placements: Vec<(WorkloadId, Vec<(usize, u32)>)>,
}

impl Incident {
    /// Serializes the incident as one `quasar.qos.incident.v1` JSON
    /// line. Purely logical fields, formatted with the deterministic
    /// helpers in [`quasar_obs::json`].
    pub fn to_json_line(&self) -> String {
        use std::fmt::Write as _;
        let e = &self.episode;
        let num = quasar_obs::json::number;
        let mut out = format!(
            "{{\"schema\":\"{INCIDENT_SCHEMA}\",\"workload\":{},\"cause\":\"{}\",\"start_s\":{},\"end_s\":{},\"duration_s\":{},\"ticks\":{},\"peak_depth\":{}",
            e.workload.0,
            e.cause,
            num(e.start_s),
            num(e.end_s),
            num(e.duration_s()),
            e.ticks,
            num(e.peak_depth)
        );
        let _ = write!(
            out,
            ",\"evidence\":{{\"interference\":{},\"queue_wait_s\":{},\"rate_deviation\":{},\"utilization\":{}}}",
            num(e.evidence.interference),
            num(e.evidence.queue_wait_s),
            num(e.evidence.rate_deviation),
            num(e.evidence.utilization)
        );
        out.push_str(",\"events\":[");
        for (i, (t_s, event)) in self.events.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"t_s\":{},\"kind\":\"{}\",\"detail\":\"{}\"}}",
                num(*t_s),
                quasar_obs::json::escape(event.kind()),
                quasar_obs::json::escape(&event.to_string())
            );
        }
        out.push_str("],\"placements\":[");
        for (i, (id, nodes)) in self.placements.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{{\"workload\":{},\"servers\":[", id.0);
            for (j, (server, cores)) in nodes.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                let _ = write!(out, "[{server},{cores}]");
            }
            out.push_str("]}");
        }
        out.push_str("]}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn batch_obs(projected: f64) -> Observation {
        Observation::Batch {
            rate: 1.0,
            progress: 0.5,
            projected_total_s: projected,
            elapsed_s: 100.0,
        }
    }

    fn tracker() -> SloTracker {
        SloTracker::new(5.0)
    }

    #[test]
    fn episode_opens_and_closes_on_recovery() {
        let mut t = tracker();
        let id = WorkloadId(1);
        let target = QosTarget::completion(1000.0);
        let ev = QosEvidence::default();
        assert!(t.observe(0.0, id, &batch_obs(900.0), &target, ev).is_none());
        assert!(t
            .observe(5.0, id, &batch_obs(1200.0), &target, ev)
            .is_none());
        assert!(t
            .observe(10.0, id, &batch_obs(1300.0), &target, ev)
            .is_none());
        let closed = t
            .observe(15.0, id, &batch_obs(1000.0), &target, ev)
            .expect("recovery closes the episode");
        assert_eq!(closed.start_s, 5.0);
        assert_eq!(closed.end_s, 15.0);
        assert_eq!(closed.ticks, 2);
        assert!(closed.peak_depth > 0.2 && closed.peak_depth < 0.3);
        assert!(t.open.is_empty());
    }

    #[test]
    fn service_depth_tracks_latency_and_shortfall() {
        let target = QosTarget::throughput(1000.0, 500.0);
        let window = |achieved_qps, p99_latency_us| {
            Observation::Service(quasar_workloads::ServiceObservation {
                offered_qps: 1000.0,
                achieved_qps,
                mean_latency_us: 100.0,
                p99_latency_us,
                utilization: 0.5,
            })
        };
        let peak = |obs: Observation| {
            let mut t = tracker();
            let id = WorkloadId(3);
            t.observe(0.0, id, &obs, &target, QosEvidence::default());
            t.terminate(id, 5.0).map(|e| e.peak_depth)
        };
        assert!(peak(window(990.0, 400.0)).is_none());
        let slow = peak(window(990.0, 750.0)).expect("latency over");
        assert!((slow - 0.5).abs() < 1e-12);
        let short = peak(window(855.0, 400.0)).expect("served short");
        assert!((short - 0.1).abs() < 1e-12);
    }

    #[test]
    fn terminate_closes_open_episode_once() {
        let mut t = tracker();
        let id = WorkloadId(2);
        let target = QosTarget::ips(10.0);
        let obs = Observation::Batch {
            rate: 5.0,
            progress: 0.1,
            projected_total_s: 100.0,
            elapsed_s: 10.0,
        };
        t.observe(0.0, id, &obs, &target, QosEvidence::default());
        let closed = t.terminate(id, 5.0).expect("episode was open");
        assert_eq!(closed.ticks, 1);
        assert!((closed.peak_depth - 0.5).abs() < 1e-12);
        assert!(t.terminate(id, 10.0).is_none(), "idempotent");
    }

    #[test]
    fn attribution_follows_priority_order() {
        let t = tracker();
        let base = QosEvidence::default();
        assert_eq!(t.attribute(&base), QosCause::Unknown);
        let mut e = base;
        e.utilization = 0.95;
        assert_eq!(t.attribute(&e), QosCause::CapacityShortfall);
        e.queue_wait_s = 30.0;
        assert_eq!(t.attribute(&e), QosCause::QueueWait);
        e.interference = 0.4;
        assert_eq!(t.attribute(&e), QosCause::Interference);
        e.rate_deviation = 0.3;
        assert_eq!(t.attribute(&e), QosCause::CalibrationDrift);
        e.rate_deviation = 0.8;
        assert_eq!(t.attribute(&e), QosCause::Straggler);
    }

    #[test]
    fn incident_json_is_valid_and_schema_tagged() {
        let incident = Incident {
            episode: EpisodeRecord {
                workload: WorkloadId(7),
                cause: QosCause::Interference,
                start_s: 100.0,
                end_s: 160.0,
                ticks: 12,
                peak_depth: 0.75,
                evidence: QosEvidence {
                    interference: 0.4,
                    queue_wait_s: 8.0,
                    rate_deviation: 0.01,
                    utilization: 0.6,
                },
            },
            events: vec![(
                95.0,
                JournalEvent::Placed {
                    workload: WorkloadId(7),
                    nodes: 1,
                    cores: 4,
                    delay_s: 0.0,
                },
            )],
            placements: vec![(WorkloadId(7), vec![(0, 4), (1, 2)])],
        };
        let line = incident.to_json_line();
        assert!(line.starts_with("{\"schema\":\"quasar.qos.incident.v1\""));
        quasar_obs::json::validate(&line).expect("incident line must be valid JSON");
        assert!(line.contains("\"cause\":\"interference\""));
        // Events are rendered from the journal event itself at export.
        let event = incident.events[0].1;
        assert!(line.contains(&format!(
            "\"events\":[{{\"t_s\":95,\"kind\":\"{}\",\"detail\":\"{event}\"}}]",
            event.kind()
        )));
        assert!(line.contains("\"servers\":[[0,4],[1,2]]"));
    }

    #[test]
    fn cause_tags_round_trip() {
        for c in QosCause::ALL {
            assert_eq!(QosCause::parse(c.as_str()), Some(c));
        }
        assert_eq!(QosCause::parse("nope"), None);
    }
}
