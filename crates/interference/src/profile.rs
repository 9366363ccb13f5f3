//! Per-workload interference profiles and the slowdown law.

use crate::pressure::PressureVector;
use crate::resource::SharedResource;

/// Minimum multiplicative penalty from contention in one resource.
///
/// Calibrated so that a workload that is maximally sensitive to two or three
/// resources can see an order-of-magnitude slowdown (Figure 2 of the paper
/// shows Hadoop slowing down by up to 10x under adversarial interference).
const MIN_RESOURCE_PENALTY: f64 = 0.30;

/// Overall floor for the combined penalty across all resources.
const MIN_TOTAL_PENALTY: f64 = 0.05;

/// The slowdown law as a free function: multiplicative penalty for a
/// workload with the given tolerated-pressure vector under `external`
/// pressure. [`InterferenceProfile::penalty`] delegates here; schedulers
/// that *estimate* tolerances (Quasar's interference classification) use
/// this same law on their estimates, mirroring how the real system assumes
/// a known QoS-degradation model past the measured sensitivity point.
pub fn penalty_for(tolerated: &PressureVector, external: &PressureVector) -> f64 {
    let mut total = 1.0;
    for r in SharedResource::ALL {
        total *= resource_penalty_for(tolerated.get(r), external.get(r));
    }
    total.max(MIN_TOTAL_PENALTY)
}

fn resource_penalty_for(tol: f64, pressure: f64) -> f64 {
    if pressure <= tol {
        return 1.0;
    }
    let span = (PressureVector::MAX - tol).max(1e-9);
    let overload = ((pressure - tol) / span).clamp(0.0, 1.0);
    1.0 - overload * (1.0 - MIN_RESOURCE_PENALTY)
}

/// How a workload interacts with contention in shared resources: the
/// pressure it *tolerates* before slowing down, and the pressure it
/// *causes* for its neighbours.
///
/// This is the ground-truth counterpart of the sensitivity information that
/// Quasar's interference classification estimates (paper §3.2, "interference
/// caused and tolerated").
///
/// # Examples
///
/// ```
/// use quasar_interference::{InterferenceProfile, PressureVector, SharedResource};
///
/// let profile = InterferenceProfile::new(
///     PressureVector::uniform(50.0),
///     PressureVector::uniform(20.0),
/// );
/// // No pressure, no slowdown:
/// assert_eq!(profile.penalty(&PressureVector::zero()), 1.0);
/// // Pressure past the tolerance point slows the workload down:
/// assert!(profile.penalty(&PressureVector::uniform(90.0)) < 1.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InterferenceProfile {
    tolerated: PressureVector,
    caused: PressureVector,
}

impl InterferenceProfile {
    /// Creates a profile from tolerated and caused pressure vectors.
    pub fn new(tolerated: PressureVector, caused: PressureVector) -> InterferenceProfile {
        InterferenceProfile { tolerated, caused }
    }

    /// A profile that neither causes nor suffers from interference.
    pub fn insensitive() -> InterferenceProfile {
        InterferenceProfile {
            tolerated: PressureVector::uniform(PressureVector::MAX),
            caused: PressureVector::zero(),
        }
    }

    /// The pressure this workload tolerates in each resource before its
    /// performance degrades past the QoS point.
    pub fn tolerated(&self) -> &PressureVector {
        &self.tolerated
    }

    /// The pressure this workload causes in each resource when running at
    /// full allocation.
    pub fn caused(&self) -> &PressureVector {
        &self.caused
    }

    /// Multiplicative performance penalty in `(0, 1]` under external
    /// pressure.
    ///
    /// Per resource, pressure at or below the tolerance threshold costs
    /// nothing; past the threshold the penalty decays linearly to a
    /// per-resource floor (0.30) at full pressure. Penalties multiply
    /// across resources (contention effects compound) and are floored
    /// overall at 0.05. Delegates to [`penalty_for`].
    pub fn penalty(&self, external: &PressureVector) -> f64 {
        penalty_for(&self.tolerated, external)
    }

    /// Penalty contribution of a single resource at the given pressure.
    pub fn resource_penalty(&self, r: SharedResource, pressure: f64) -> f64 {
        resource_penalty_for(self.tolerated.get(r), pressure)
    }

    /// The smallest pressure in resource `r` at which the penalty from that
    /// resource alone drops below `1 - qos_loss` (e.g. `qos_loss = 0.05`
    /// for the paper's 5% acceptable degradation point).
    ///
    /// This is what the profiler's microbenchmark ramp-up observes; it
    /// returns 100 when even full pressure stays within the QoS budget.
    pub fn sensitivity_point(&self, r: SharedResource, qos_loss: f64) -> f64 {
        let tol = self.tolerated.get(r);
        let span = PressureVector::MAX - tol;
        if span <= 0.0 {
            return PressureVector::MAX;
        }
        let overload = qos_loss / (1.0 - MIN_RESOURCE_PENALTY);
        (tol + overload * span).min(PressureVector::MAX)
    }

    /// Whether this workload, under `external` pressure, stays within a
    /// `qos_loss` fraction of its isolated performance.
    pub fn within_qos(&self, external: &PressureVector, qos_loss: f64) -> bool {
        self.penalty(external) >= 1.0 - qos_loss
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn profile(tol: f64) -> InterferenceProfile {
        InterferenceProfile::new(PressureVector::uniform(tol), PressureVector::zero())
    }

    #[test]
    fn penalty_is_one_below_tolerance() {
        let p = profile(60.0);
        assert_eq!(p.penalty(&PressureVector::uniform(60.0)), 1.0);
    }

    #[test]
    fn penalty_decreases_monotonically_until_floor() {
        let p = profile(20.0);
        let mut last = 1.0;
        for pressure in [30.0, 50.0, 70.0, 90.0, 100.0] {
            let pen = p.penalty(&PressureVector::uniform(pressure));
            assert!(
                pen < last || pen <= 0.05 + 1e-12,
                "penalty must strictly decrease past tolerance until the floor"
            );
            last = pen;
        }
        assert!(
            last <= 0.05 + 1e-12,
            "uniform full pressure reaches the floor"
        );
    }

    #[test]
    fn penalty_has_floor() {
        let p = profile(0.0);
        let pen = p.penalty(&PressureVector::uniform(100.0));
        assert!(pen >= MIN_TOTAL_PENALTY);
    }

    #[test]
    fn insensitive_profile_never_slows() {
        let p = InterferenceProfile::insensitive();
        assert_eq!(p.penalty(&PressureVector::uniform(100.0)), 1.0);
    }

    #[test]
    fn sensitivity_point_matches_penalty() {
        let p = profile(40.0);
        let point = p.sensitivity_point(SharedResource::LlcCapacity, 0.05);
        let pen = p.resource_penalty(SharedResource::LlcCapacity, point);
        assert!((pen - 0.95).abs() < 1e-9);
    }

    #[test]
    fn sensitivity_point_saturates_at_max() {
        let p = profile(100.0);
        assert_eq!(
            p.sensitivity_point(SharedResource::Cpu, 0.05),
            PressureVector::MAX
        );
    }

    #[test]
    fn within_qos_respects_loss_budget() {
        let p = profile(50.0);
        assert!(p.within_qos(&PressureVector::uniform(50.0), 0.05));
        assert!(!p.within_qos(&PressureVector::uniform(100.0), 0.05));
    }
}
