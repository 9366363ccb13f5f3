//! Discrete-event cluster simulator for the Quasar reproduction.
//!
//! The paper evaluates on a 40-server local cluster and 200 dedicated EC2
//! servers; this crate is the simulated substitute. It models:
//!
//! * heterogeneous [`Server`]s built from a
//!   [`quasar_workloads::PlatformCatalog`],
//! * [`Placement`]s of workloads onto servers with per-node resources and
//!   activation delays (profiling and microshard-migration latency),
//! * ground-truth physics — batch progress, service latency, interference
//!   pressure between co-located workloads — driven on a fixed tick,
//! * the *measurement boundary*: managers never see ground truth, only
//!   noisy [`Observation`]s, sandboxed [`World::profile_config`] runs, and
//!   microbenchmark probes, mirroring how the real Quasar profiles real
//!   applications,
//! * [`MetricsRecorder`] — utilization heatmaps and aggregate
//!   used-vs-reserved series for the paper's figures, and
//! * the [`Manager`] trait implemented by Quasar and by every baseline,
//!   and a task-level execution view ([`tasks`]) for straggler studies.
//!
//! # Example
//!
//! ```
//! use quasar_cluster::{ClusterSpec, Simulation, SimConfig, managers::NullManager};
//! use quasar_workloads::PlatformCatalog;
//!
//! let spec = ClusterSpec::uniform(PlatformCatalog::local(), 4);
//! let mut sim = Simulation::new(spec, Box::new(NullManager), SimConfig::default());
//! sim.run_until(60.0);
//! assert_eq!(sim.world().now(), 60.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chunk;
mod cluster;
pub mod journal;
pub mod managers;
mod metrics;
mod observe;
mod placement;
mod profile;
pub mod qos;
mod server;
mod sim;
pub mod snapshot;
pub mod tasks;
mod world;

pub use chunk::{ChunkProvider, FileChunks, MemoryChunks, SealedChunk};
pub use cluster::{ClusterSpec, ClusterState, PlaceError};
pub use journal::{Journal, JournalEvent};
pub use managers::{FifoGreedy, Manager};
pub use metrics::{HeatmapSample, MetricsRecorder, UtilizationSummary};
pub use observe::Observation;
pub use placement::{NodeAlloc, Placement};
pub use profile::{ProfileConfig, ProfileResult};
pub use qos::{EpisodeRecord, Incident, QosCause, QosEvidence, SloTracker};
pub use server::{Server, ServerId};
pub use sim::{PhaseChange, SimConfig, Simulation};
pub use world::{CompletionRecord, JobState, QosRecord, Retention, World};
