//! Pressure vectors over the shared resources.

use std::fmt;
use std::ops::{Add, AddAssign, Mul, Sub};

use crate::resource::{SharedResource, RESOURCE_COUNT};

/// Pressure (contention intensity) in each shared resource, on a 0–100
/// scale, mirroring the tunable intensity of the iBench microbenchmarks.
///
/// Values are clamped to `[0, 100]` on every mutation, so a
/// `PressureVector` is always well-formed.
///
/// # Examples
///
/// ```
/// use quasar_interference::{PressureVector, SharedResource};
///
/// let mut p = PressureVector::zero();
/// p.set(SharedResource::MemoryBandwidth, 55.0);
/// assert_eq!(p.get(SharedResource::MemoryBandwidth), 55.0);
/// assert_eq!(p.total(), 55.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PressureVector {
    values: [f64; RESOURCE_COUNT],
}

impl PressureVector {
    /// Maximum pressure in a single resource.
    pub const MAX: f64 = 100.0;

    /// A vector with zero pressure everywhere.
    pub fn zero() -> PressureVector {
        PressureVector::default()
    }

    /// A vector with the same pressure `value` in every resource.
    ///
    /// `value` is clamped to `[0, 100]`.
    pub fn uniform(value: f64) -> PressureVector {
        PressureVector {
            values: [clamp(value); RESOURCE_COUNT],
        }
    }

    /// Builds a vector from a function of each resource.
    pub fn from_fn(mut f: impl FnMut(SharedResource) -> f64) -> PressureVector {
        let mut v = PressureVector::zero();
        for r in SharedResource::ALL {
            v.set(r, f(r));
        }
        v
    }

    /// Pressure in resource `r`.
    pub fn get(&self, r: SharedResource) -> f64 {
        self.values[r.index()]
    }

    /// Sets pressure in resource `r`, clamping to `[0, 100]`.
    pub fn set(&mut self, r: SharedResource, value: f64) {
        self.values[r.index()] = clamp(value);
    }

    /// Adds `delta` to the pressure in resource `r`, clamping to `[0, 100]`.
    pub fn bump(&mut self, r: SharedResource, delta: f64) {
        self.set(r, self.get(r) + delta);
    }

    /// Sum of pressure across all resources.
    pub fn total(&self) -> f64 {
        self.values.iter().sum()
    }

    /// Iterates over `(resource, pressure)` pairs in index order.
    pub fn iter(&self) -> impl Iterator<Item = (SharedResource, f64)> + '_ {
        SharedResource::ALL
            .into_iter()
            .map(move |r| (r, self.get(r)))
    }

    /// Element-wise maximum of two vectors.
    pub fn component_max(&self, other: &PressureVector) -> PressureVector {
        PressureVector::from_fn(|r| self.get(r).max(other.get(r)))
    }

    /// Whether every component is zero.
    pub fn is_zero(&self) -> bool {
        self.values.iter().all(|&v| v == 0.0)
    }

    /// Scales every component by `factor` (clamping each to `[0, 100]`).
    pub fn scaled(&self, factor: f64) -> PressureVector {
        PressureVector::from_fn(|r| self.get(r) * factor)
    }
}

fn clamp(value: f64) -> f64 {
    if value.is_nan() {
        0.0
    } else {
        value.clamp(0.0, PressureVector::MAX)
    }
}

impl Add for PressureVector {
    type Output = PressureVector;

    fn add(self, rhs: PressureVector) -> PressureVector {
        PressureVector::from_fn(|r| self.get(r) + rhs.get(r))
    }
}

impl AddAssign for PressureVector {
    fn add_assign(&mut self, rhs: PressureVector) {
        *self = *self + rhs;
    }
}

impl Sub for PressureVector {
    type Output = PressureVector;

    fn sub(self, rhs: PressureVector) -> PressureVector {
        PressureVector::from_fn(|r| self.get(r) - rhs.get(r))
    }
}

impl Mul<f64> for PressureVector {
    type Output = PressureVector;

    fn mul(self, rhs: f64) -> PressureVector {
        self.scaled(rhs)
    }
}

impl fmt::Display for PressureVector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, (r, v)) in self.iter().enumerate() {
            if i > 0 {
                write!(f, " ")?;
            }
            write!(f, "{}={:.0}", r, v)?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_and_total() {
        let p = PressureVector::uniform(10.0);
        assert_eq!(p.total(), 100.0);
        assert!(p.iter().all(|(_, v)| v == 10.0));
    }

    #[test]
    fn set_clamps() {
        let mut p = PressureVector::zero();
        p.set(SharedResource::Cpu, 150.0);
        assert_eq!(p.get(SharedResource::Cpu), 100.0);
        p.set(SharedResource::Cpu, -5.0);
        assert_eq!(p.get(SharedResource::Cpu), 0.0);
        p.set(SharedResource::Cpu, f64::NAN);
        assert_eq!(p.get(SharedResource::Cpu), 0.0);
    }

    #[test]
    fn addition_saturates() {
        let a = PressureVector::uniform(70.0);
        let b = PressureVector::uniform(70.0);
        assert!((a + b).iter().all(|(_, v)| v == 100.0));
    }

    #[test]
    fn subtraction_floors_at_zero() {
        let a = PressureVector::uniform(10.0);
        let b = PressureVector::uniform(30.0);
        assert!((a - b).is_zero());
    }

    #[test]
    fn component_max_takes_larger() {
        let mut a = PressureVector::zero();
        a.set(SharedResource::DiskIo, 40.0);
        let mut b = PressureVector::zero();
        b.set(SharedResource::DiskIo, 20.0);
        b.set(SharedResource::Network, 30.0);
        let m = a.component_max(&b);
        assert_eq!(m.get(SharedResource::DiskIo), 40.0);
        assert_eq!(m.get(SharedResource::Network), 30.0);
    }

    #[test]
    fn display_is_nonempty() {
        assert!(!PressureVector::zero().to_string().is_empty());
    }
}
