//! # quasar-obs — unified telemetry for the Quasar reproduction
//!
//! Observability substrate shared by every crate in the workspace
//! (paper §3.5/§4 argue for *fast* decisions; this layer is how the
//! repo measures them instead of asserting them):
//!
//! - [`span!`] / [`span::timed`] — nestable, thread-safe spans carrying
//!   wall-time and logical sim-time; one relaxed atomic load when
//!   tracing is off.
//! - [`registry::Registry`] — process-global named counters / gauges /
//!   fixed-bucket histograms behind a single
//!   [`registry::Registry::snapshot`]; metric names follow
//!   `quasar.<crate>.<subsystem>.<name>`.
//! - [`trace`] — an event collector with deterministic exporters:
//!   Chrome `trace_event` JSON (Perfetto-loadable) and JSONL. Masked
//!   exports (keyed off `QUASAR_MASK_TIMINGS` by callers) drop every
//!   scheduling-dependent field and sort by logical keys, so trace
//!   files are byte-identical across `--threads` values and CI-diffable.
//! - [`json`] — hand-rolled escaping/formatting plus a strict validator
//!   (the offline, pure-rust equivalent of `jq -e type`).
//!
//! This crate sits at the bottom of the dependency graph (no deps) so
//! `cf`, `cluster`, `core`, and the experiment binaries can all report
//! into the same registry and trace buffer.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod json;
pub mod registry;
pub mod span;
pub mod trace;

pub use registry::{Registry, Snapshot};
pub use span::{set_sim_time, sim_time};
pub use trace::{tracing_enabled, Event};

/// Serializes tests that touch the global trace collector state.
#[cfg(test)]
pub(crate) fn test_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}
