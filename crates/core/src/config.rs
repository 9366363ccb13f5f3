//! Quasar manager configuration.

use crate::similarity::SimilarityConfig;

/// Tunables of the Quasar manager; defaults follow the paper. The
/// paper's fixed constants (adaptation miss threshold, proactive sweep
/// interval and fraction, probe QoS loss, best-effort slice, prediction
/// lead) are constants of the manager itself.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QuasarConfig {
    /// Profiling entries per classification row (the input-matrix density
    /// knob of Fig. 3; the paper settles on 2).
    pub profiling_entries: usize,
    /// Offline-characterized training workloads per goal kind (the paper
    /// exhaustively profiles 20–30 workload types offline).
    pub training_workloads: usize,
    /// QoS slack: a workload within this fraction of its target counts as
    /// on track (the paper quotes ~5% deviations).
    pub qos_slack: f64,
    /// Seconds between adaptation scans.
    pub adapt_interval_s: f64,
    /// Maximum nodes the greedy scheduler will allocate to one workload.
    pub max_nodes: usize,
    /// Enable the resource-partitioning extension (§4.4): when a
    /// latency-critical workload is off track and the manager's estimated
    /// interference penalty on its servers is severe, enable hardware
    /// partitioning instead of (before) adding resources.
    pub resource_partitioning: bool,
    /// Enable the load-prediction extension (§4.1 future work): scale
    /// user-facing services when the *forecast* load outgrows the current
    /// provisioning point, before latency degrades.
    pub predictive_scaling: bool,
    /// Seed for profiling-configuration randomization.
    pub seed: u64,
    /// Worker threads for the per-axis classification fan-out
    /// ([`crate::Classifier::with_threads`]). Classification is a pure
    /// function of its inputs, so any value produces bit-identical
    /// results; 1 (the default) keeps the serial path.
    pub threads: usize,
    /// The workload-similarity index ([`crate::similarity`]): when
    /// enabled, an arrival whose quantized profile duplicates a cached
    /// one skips reconstruction.
    /// Disabled by default — the manager then behaves bit-identically
    /// to a build without the index.
    pub similarity: SimilarityConfig,
}

impl Default for QuasarConfig {
    fn default() -> QuasarConfig {
        QuasarConfig {
            profiling_entries: 2,
            training_workloads: 24,
            qos_slack: 0.05,
            adapt_interval_s: 30.0,
            max_nodes: 32,
            resource_partitioning: false,
            predictive_scaling: false,
            seed: 0x9A5A,
            threads: 1,
            similarity: SimilarityConfig::default(),
        }
    }
}

impl QuasarConfig {
    /// A configuration with smaller training pools and coarser intervals,
    /// for fast tests.
    pub fn fast_test() -> QuasarConfig {
        QuasarConfig {
            training_workloads: 8,
            adapt_interval_s: 15.0,
            ..QuasarConfig::default()
        }
    }

    /// The default configuration with the predictive-scaling extension
    /// enabled.
    pub fn predictive() -> QuasarConfig {
        QuasarConfig {
            predictive_scaling: true,
            ..QuasarConfig::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manager::{
        MISS_THRESHOLD, PROACTIVE_FRACTION, PROACTIVE_INTERVAL_S, PROBE_QOS_LOSS,
    };

    #[test]
    fn defaults_match_paper_constants() {
        let c = QuasarConfig::default();
        assert_eq!(c.profiling_entries, 2);
        assert_eq!(MISS_THRESHOLD, 2);
        assert_eq!(PROACTIVE_INTERVAL_S, 600.0);
        assert!((PROACTIVE_FRACTION - 0.2).abs() < 1e-12);
        assert!((PROBE_QOS_LOSS - 0.05).abs() < 1e-12);
    }
}
