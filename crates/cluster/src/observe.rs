//! Runtime observations handed to managers, and the one per-tick QoS
//! verdict on them.

use std::sync::OnceLock;

use quasar_obs::registry::{Counter, Registry};
use quasar_workloads::{QosTarget, ServiceObservation};

/// Tolerance on a QoS bound (the paper quotes ~5 % deviations): a batch
/// deadline may be overshot by this fraction and a service must serve
/// at least `1 - QOS_SLACK` of its offered load. The manager's
/// adaptation and victim checks and the QoS ledger all use it.
pub const QOS_SLACK: f64 = 0.05;

/// Depth of a violation with no finite measure (a stalled job, a NaN
/// reading, a kind mismatch): large but finite, so depth sums stay meaningful.
const MAX_DEPTH: f64 = 10.0;

/// Counter for (observation, target) kind mismatches seen by
/// [`Observation::violation`]. A mismatch means the monitoring layer and
/// the QoS target disagree about what kind of workload this is — a
/// wiring bug, not a QoS violation.
fn kind_mismatch_counter() -> &'static Counter {
    static COUNTER: OnceLock<Counter> = OnceLock::new();
    COUNTER.get_or_init(|| Registry::global().counter("quasar.cluster.observe.kind_mismatch"))
}

/// What the monitoring layer measured for a workload over the last tick —
/// the only runtime signal managers receive (paper §3.1: "Quasar monitors
/// workload performance and adjusts... when needed").
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Observation {
    /// A batch job's progress.
    Batch {
        /// Current work rate in work units/second (noisy).
        rate: f64,
        /// Fraction of the job completed, in `[0, 1]`.
        progress: f64,
        /// Projected total execution time at the current rate, in seconds.
        projected_total_s: f64,
        /// Seconds the job has been running.
        elapsed_s: f64,
    },
    /// A service's latest measurement window.
    Service(ServiceObservation),
}

impl Observation {
    /// Whether this tick violates `target`, and how deeply: `Some(depth)`
    /// with `depth > 0` the fraction past the (slacked) bound, `None` when
    /// the workload is on track.
    ///
    /// * Completion time: the projected total may overshoot the deadline
    ///   by [`QOS_SLACK`]; depth is the overshoot past that bound.
    /// * IPS: a floor, no slack; depth is the shortfall fraction.
    /// * Throughput: the window must serve `1 - QOS_SLACK` of the offered
    ///   load within the p99 bound; depth is the larger of the service
    ///   shortfall and the latency overshoot.
    ///
    /// A non-finite projection or p99, a NaN rate or throughput, and a
    /// kind mismatch all score depth 10. A mismatch is a wiring
    /// bug: it is also counted (`quasar.cluster.observe.kind_mismatch`)
    /// and trips a debug assertion.
    pub fn violation(&self, target: &QosTarget) -> Option<f64> {
        match (self, target) {
            (
                Observation::Batch {
                    projected_total_s, ..
                },
                QosTarget::CompletionTime { seconds },
            ) => {
                let bound = seconds * (1.0 + QOS_SLACK);
                if projected_total_s.is_finite() {
                    (*projected_total_s > bound).then(|| projected_total_s / bound - 1.0)
                } else {
                    // A stalled job projects to infinity.
                    Some(MAX_DEPTH)
                }
            }
            (Observation::Batch { rate, .. }, QosTarget::Ips { ips }) => {
                if rate.is_nan() {
                    return Some(MAX_DEPTH);
                }
                (*rate < *ips).then(|| 1.0 - rate / ips)
            }
            (Observation::Service(o), QosTarget::Throughput { p99_latency_us, .. }) => {
                if o.offered_qps.is_nan() || o.achieved_qps.is_nan() {
                    return Some(MAX_DEPTH);
                }
                let served_short = if o.offered_qps > 0.0 {
                    1.0 - (o.achieved_qps / o.offered_qps).min(1.0) / (1.0 - QOS_SLACK)
                } else {
                    0.0
                };
                let latency_over = if o.p99_latency_us.is_finite() {
                    o.p99_latency_us / p99_latency_us - 1.0
                } else {
                    MAX_DEPTH
                };
                let depth = served_short.max(latency_over);
                (depth > 0.0).then_some(depth.min(MAX_DEPTH))
            }
            (obs, target) => {
                kind_mismatch_counter().inc();
                debug_assert!(
                    false,
                    "observation/target kind mismatch: {obs:?} vs {target:?}"
                );
                Some(MAX_DEPTH)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn batch(rate: f64, projected_total_s: f64) -> Observation {
        Observation::Batch {
            rate,
            progress: 0.5,
            projected_total_s,
            elapsed_s: 10.0,
        }
    }

    fn service(offered_qps: f64, achieved_qps: f64, p99_latency_us: f64) -> Observation {
        Observation::Service(ServiceObservation {
            offered_qps,
            achieved_qps,
            mean_latency_us: 100.0,
            p99_latency_us,
            utilization: 0.5,
        })
    }

    /// Every (observation, target) arm just inside, at and just past its
    /// bound, plus the non-finite rows: a NaN measurement is a depth-10
    /// violation, never a pass.
    #[test]
    fn violation_table() {
        let (deadline, floor) = (QosTarget::completion(1000.0), QosTarget::ips(90.0));
        let svc = QosTarget::throughput(1000.0, 500.0);
        let starved = Observation::Service(ServiceObservation::starved(100.0));
        let (inf, nan) = (f64::INFINITY, f64::NAN);
        let rows = [
            // Completion time: the bound is 1000 s × 1.05.
            ("deadline inside", batch(1.0, 1040.0), deadline, None),
            ("deadline at bound", batch(1.0, 1050.0), deadline, None),
            ("deadline past", batch(1.0, 1071.0), deadline, Some(0.02)),
            ("deadline stalled", batch(0.0, inf), deadline, Some(10.0)),
            ("deadline NaN", batch(1.0, nan), deadline, Some(10.0)),
            // IPS: a floor with no slack.
            ("ips inside", batch(91.0, 1.0), floor, None),
            ("ips at bound", batch(90.0, 1.0), floor, None),
            ("ips past", batch(81.0, 1.0), floor, Some(0.1)),
            ("ips NaN", batch(nan, 1.0), floor, Some(10.0)),
            // Throughput: serve 95 % of the offered load within the p99 bound.
            ("served inside", service(1000.0, 990.0, 400.0), svc, None),
            ("served at bound", service(1000.0, 950.0, 400.0), svc, None),
            ("served past", service(1000.0, 855.0, 400.0), svc, Some(0.1)),
            ("p99 at bound", service(1000.0, 1000.0, 500.0), svc, None),
            ("p99 past", service(1000.0, 1000.0, 750.0), svc, Some(0.5)),
            (
                "deeper of both",
                service(1000.0, 855.0, 600.0),
                svc,
                Some(0.2),
            ),
            ("no offered load", service(0.0, 0.0, 400.0), svc, None),
            (
                "infinite p99",
                service(1000.0, 1000.0, inf),
                svc,
                Some(10.0),
            ),
            ("starved", starved, svc, Some(10.0)),
            (
                "depth capped",
                service(1000.0, 1000.0, 50_000.0),
                svc,
                Some(10.0),
            ),
            ("NaN achieved", service(1000.0, nan, 400.0), svc, Some(10.0)),
            ("NaN offered", service(nan, 1000.0, 400.0), svc, Some(10.0)),
            ("NaN p99", service(1000.0, 1000.0, nan), svc, Some(10.0)),
        ];
        for (name, obs, target, want) in rows {
            let got = obs.violation(&target);
            match (got, want) {
                (None, None) => {}
                (Some(got), Some(want)) => {
                    assert!((got - want).abs() < 1e-9, "{name}: {got} != {want}")
                }
                _ => panic!("{name}: got {got:?}, want {want:?}"),
            }
        }
    }

    #[test]
    fn batch_on_track_respects_slack() {
        let target = QosTarget::completion(1000.0);
        assert!(batch(1.0, 1040.0).violation(&target).is_none());
        let depth = batch(1.0, 1071.0).violation(&target).expect("past slack");
        assert!((depth - 0.02).abs() < 1e-9);
    }

    #[test]
    fn ips_on_track_is_a_floor() {
        let obs = batch(90.0, 100.0);
        assert!(obs.violation(&QosTarget::ips(90.0)).is_none());
        assert!(obs.violation(&QosTarget::ips(85.0)).is_none());
        assert!(obs.violation(&QosTarget::ips(92.0)).is_some());
    }

    #[test]
    #[cfg_attr(
        debug_assertions,
        should_panic(expected = "observation/target kind mismatch")
    )]
    fn mismatched_kinds_trip_the_debug_assert_and_counter() {
        let before = kind_mismatch_counter().get();
        // Debug builds panic on the assert; release builds fall through
        // to the conservative depth-10 score and bump the counter so the
        // wiring bug is still visible.
        assert_eq!(
            batch(1.0, 1.0).violation(&QosTarget::throughput(1.0, 1.0)),
            Some(10.0)
        );
        assert_eq!(kind_mismatch_counter().get(), before + 1);
    }
}
