//! iBench-style contention microbenchmarks.

use crate::pressure::PressureVector;
use crate::resource::SharedResource;

/// A synthetic contention source that pressures exactly one shared
/// resource at a tunable intensity, mirroring the iBench microbenchmarks
/// the paper injects during interference classification (§3.2) and
/// in-place phase detection (§4.1).
///
/// # Examples
///
/// ```
/// use quasar_interference::{Microbenchmark, SharedResource};
///
/// let mut bench = Microbenchmark::new(SharedResource::MemoryBandwidth, 10.0);
/// bench.ramp(25.0);
/// assert_eq!(bench.intensity(), 35.0);
/// assert_eq!(
///     bench.caused_pressure().get(SharedResource::MemoryBandwidth),
///     35.0,
/// );
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Microbenchmark {
    resource: SharedResource,
    intensity: f64,
}

impl Microbenchmark {
    /// Creates a microbenchmark for `resource` at the given intensity
    /// (clamped to `[0, 100]`).
    pub fn new(resource: SharedResource, intensity: f64) -> Microbenchmark {
        Microbenchmark {
            resource,
            intensity: intensity.clamp(0.0, PressureVector::MAX),
        }
    }

    /// The resource this microbenchmark contends on.
    pub fn resource(&self) -> SharedResource {
        self.resource
    }

    /// Current contention intensity in `[0, 100]`.
    pub fn intensity(&self) -> f64 {
        self.intensity
    }

    /// Increases intensity by `step` (clamped to 100).
    pub fn ramp(&mut self, step: f64) {
        self.intensity = (self.intensity + step).clamp(0.0, PressureVector::MAX);
    }

    /// Whether the intensity has reached the maximum.
    pub fn saturated(&self) -> bool {
        self.intensity >= PressureVector::MAX
    }

    /// The pressure this microbenchmark exerts on its neighbours: its
    /// intensity in its target resource, zero elsewhere.
    pub fn caused_pressure(&self) -> PressureVector {
        let mut p = PressureVector::zero();
        p.set(self.resource, self.intensity);
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn caused_pressure_targets_single_resource() {
        let b = Microbenchmark::new(SharedResource::DiskIo, 42.0);
        let p = b.caused_pressure();
        assert_eq!(p.get(SharedResource::DiskIo), 42.0);
        assert_eq!(p.total(), 42.0);
    }

    #[test]
    fn ramp_saturates() {
        let mut b = Microbenchmark::new(SharedResource::Cpu, 90.0);
        b.ramp(50.0);
        assert!(b.saturated());
        assert_eq!(b.intensity(), 100.0);
    }
}
