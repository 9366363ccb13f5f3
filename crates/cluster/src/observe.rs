//! Runtime observations handed to managers.

use std::sync::OnceLock;

use quasar_obs::registry::{Counter, Registry};
use quasar_workloads::ServiceObservation;

/// Counter for (observation, target) kind mismatches seen by
/// [`Observation::on_track`]. A mismatch means the monitoring layer and
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
    /// Whether the workload currently tracks its target: a batch job is on
    /// track when its projected total time fits the `target_s` deadline
    /// (with `slack` tolerance, e.g. 0.05); a service when the window met
    /// its throughput/latency target.
    pub fn on_track(&self, target: &quasar_workloads::QosTarget, slack: f64) -> bool {
        match (self, target) {
            (
                Observation::Batch {
                    projected_total_s, ..
                },
                quasar_workloads::QosTarget::CompletionTime { seconds },
            ) => *projected_total_s <= seconds * (1.0 + slack),
            // IPS targets are floors: a job is on track only while its
            // measured rate stays at or above the floor (the slack covers
            // the deadline form, where a small overshoot is tolerable).
            (Observation::Batch { rate, .. }, quasar_workloads::QosTarget::Ips { ips }) => {
                *rate >= *ips
            }
            (Observation::Service(obs), t @ quasar_workloads::QosTarget::Throughput { .. }) => {
                obs.meets(t)
            }
            // Mismatched kinds are a monitoring-wiring bug, not a QoS
            // violation: count them so the drift is visible in telemetry,
            // trip loudly in debug builds, and conservatively score the
            // tick off-track in release.
            (obs, target) => {
                kind_mismatch_counter().inc();
                debug_assert!(
                    false,
                    "observation/target kind mismatch: {obs:?} vs {target:?}"
                );
                false
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quasar_workloads::QosTarget;

    #[test]
    fn batch_on_track_respects_slack() {
        let obs = Observation::Batch {
            rate: 1.0,
            progress: 0.5,
            projected_total_s: 1040.0,
            elapsed_s: 520.0,
        };
        let target = QosTarget::completion(1000.0);
        assert!(obs.on_track(&target, 0.05));
        assert!(!obs.on_track(&target, 0.01));
    }

    #[test]
    fn ips_on_track_is_a_floor() {
        let obs = Observation::Batch {
            rate: 90.0,
            progress: 0.1,
            projected_total_s: 100.0,
            elapsed_s: 10.0,
        };
        assert!(obs.on_track(&QosTarget::ips(90.0), 0.05));
        assert!(obs.on_track(&QosTarget::ips(85.0), 0.05));
        assert!(!obs.on_track(&QosTarget::ips(92.0), 0.05));
    }

    #[test]
    #[cfg_attr(
        debug_assertions,
        should_panic(expected = "observation/target kind mismatch")
    )]
    fn mismatched_kinds_trip_the_debug_assert_and_counter() {
        let obs = Observation::Batch {
            rate: 1.0,
            progress: 0.0,
            projected_total_s: 1.0,
            elapsed_s: 0.0,
        };
        let before = kind_mismatch_counter().get();
        // Debug builds panic on the assert above; release builds fall
        // through to the conservative off-track score and bump the
        // counter so the wiring bug is still visible.
        assert!(!obs.on_track(&QosTarget::throughput(1.0, 1.0), 0.05));
        assert_eq!(kind_mismatch_counter().get(), before + 1);
    }
}
