//! Quasar: resource-efficient and QoS-aware cluster management.
//!
//! This crate implements the paper's contribution (Delimitrou & Kozyrakis,
//! ASPLOS 2014) on top of the [`quasar_cluster`] simulator:
//!
//! 1. **Performance-centric interface** — workloads arrive with a
//!    [`quasar_workloads::QosTarget`] (completion time, QPS + tail
//!    latency, or IPS), never a resource reservation.
//! 2. **Fast classification** ([`classify`]) — four parallel
//!    collaborative-filtering classifications (scale-up, scale-out,
//!    heterogeneity, interference) combine a couple of sandboxed profiling
//!    runs ([`profile`]) with dense offline history ([`history`]) via SVD +
//!    PQ-reconstruction ([`quasar_cf`]).
//! 3. **Greedy joint allocation and assignment** ([`greedy`]) — servers
//!    ranked by estimated quality, allocations sized scale-up-first until
//!    the performance constraint is met with the least resources.
//!
//! The [`QuasarManager`] ties everything together as a
//! [`quasar_cluster::Manager`], including runtime monitoring, phase
//! detection, allocation adjustment (§4.1) and straggler detection
//! ([`straggler`], §4.3).
//!
//! # Example
//!
//! ```no_run
//! use quasar_cluster::{ClusterSpec, SimConfig, Simulation};
//! use quasar_core::{QuasarConfig, QuasarManager};
//! use quasar_workloads::PlatformCatalog;
//!
//! let catalog = PlatformCatalog::local();
//! let manager = QuasarManager::bootstrap(&catalog, QuasarConfig::default());
//! let spec = ClusterSpec::uniform(catalog, 4);
//! let mut sim = Simulation::new(spec, Box::new(manager), SimConfig::default());
//! sim.run_until(3600.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod axes;
pub mod classify;
mod config;
pub mod estimate;
pub mod greedy;
pub mod history;
mod manager;
pub mod ordering;
pub mod par;
pub mod predict;
pub mod profile;
pub mod similarity;
pub mod straggler;

pub use axes::{Axes, GoalKind};
pub use classify::{Classification, Classifier, ExhaustiveClassifier};
pub use config::QuasarConfig;
pub use estimate::Estimator;
pub use greedy::GreedyScheduler;
pub use history::HistorySet;
pub use manager::{ManagerSnapshot, ManagerStats, QuasarManager};
pub use profile::{Profiler, ProfilingData};
pub use similarity::{Signature, SimilarityConfig, SimilarityIndex, SimilarityOutcome};
