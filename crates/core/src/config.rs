//! Quasar manager configuration.

use crate::similarity::SimilarityConfig;

/// Tunables of the Quasar manager; defaults follow the paper. Its fixed
/// constants (adaptation interval and miss threshold, proactive sweep
/// interval and fraction, probe QoS loss, best-effort slice) live in the
/// manager, and the QoS slack is [`quasar_cluster::QOS_SLACK`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QuasarConfig {
    /// Profiling entries per classification row (the input-matrix density
    /// knob of Fig. 3; the paper settles on 2).
    pub profiling_entries: usize,
    /// Offline-characterized training workloads per goal kind (the paper
    /// exhaustively profiles 20–30 workload types offline).
    pub training_workloads: usize,
    /// Maximum nodes the greedy scheduler will allocate to one workload.
    pub max_nodes: usize,
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
            max_nodes: 32,
            seed: 0x9A5A,
            threads: 1,
            similarity: SimilarityConfig::default(),
        }
    }
}

impl QuasarConfig {
    /// A configuration with a smaller training pool, for fast tests.
    pub fn fast_test() -> QuasarConfig {
        QuasarConfig {
            training_workloads: 8,
            ..QuasarConfig::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manager::{
        ADAPT_INTERVAL_S, MISS_THRESHOLD, PROACTIVE_FRACTION, PROACTIVE_INTERVAL_S, PROBE_QOS_LOSS,
    };

    #[test]
    fn defaults_match_paper_constants() {
        let c = QuasarConfig::default();
        assert_eq!(c.profiling_entries, 2);
        assert_eq!(ADAPT_INTERVAL_S, 30.0);
        assert_eq!(quasar_cluster::QOS_SLACK, 0.05);
        assert_eq!(MISS_THRESHOLD, 2);
        assert_eq!(PROACTIVE_INTERVAL_S, 600.0);
        assert!((PROACTIVE_FRACTION - 0.2).abs() < 1e-12);
        assert!((PROBE_QOS_LOSS - 0.05).abs() < 1e-12);
    }
}
