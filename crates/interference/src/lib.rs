//! Shared-resource interference modeling for the Quasar reproduction.
//!
//! The Quasar paper (ASPLOS'14, §3.2) classifies workloads by the
//! interference they *cause* and *tolerate* in shared resources, using the
//! iBench contention microbenchmarks to inject tunable pressure into one
//! resource at a time. This crate provides the equivalent building blocks
//! for the simulated cluster:
//!
//! * [`SharedResource`] — the ten shared resources considered for
//!   interference (Table 1 of the paper lists the interference patterns;
//!   the paper cites "tens of sources", we model ten).
//! * [`PressureVector`] — pressure (0–100) in each shared resource.
//! * [`InterferenceProfile`] — per-workload *tolerated* and *caused*
//!   pressure, plus the slowdown law that converts external pressure into a
//!   performance penalty.
//!
//! # Examples
//!
//! ```
//! use quasar_interference::{InterferenceProfile, PressureVector, SharedResource};
//!
//! // A workload that tolerates little LLC pressure.
//! let mut tolerated = PressureVector::uniform(80.0);
//! tolerated.set(SharedResource::LlcCapacity, 20.0);
//! let profile = InterferenceProfile::new(tolerated, PressureVector::uniform(10.0));
//!
//! // An iBench-style probe: 60 % pressure in the LLC, none elsewhere.
//! let mut probe = PressureVector::zero();
//! probe.set(SharedResource::LlcCapacity, 60.0);
//! let penalty = profile.penalty(&probe);
//! assert!(penalty < 1.0, "pressure above tolerance must slow the workload down");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod pressure;
mod profile;
mod resource;

pub use pressure::PressureVector;
pub use profile::{penalty_for, InterferenceProfile};
pub use resource::SharedResource;

/// Number of shared resources tracked by the interference model.
pub const RESOURCE_COUNT: usize = resource::RESOURCE_COUNT;
