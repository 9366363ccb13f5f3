//! Sandboxed profiling runs.

use quasar_workloads::{FrameworkParams, NodeResources, PlatformId};

/// One sandboxed profiling configuration: which platform, how much of it,
/// how many copies and which framework parameters (paper §3.2 and §4.2 —
/// profiling copies run in quiet sandboxes so they are side-effect free;
/// interference is measured by the world's probes instead).
#[derive(Debug, Clone, PartialEq)]
pub struct ProfileConfig {
    /// Platform to profile on.
    pub platform: PlatformId,
    /// Per-node resources.
    pub resources: NodeResources,
    /// Number of nodes (1 except for scale-out profiling, capped at 4 by
    /// the paper to bound online profiling cost).
    pub nodes: usize,
    /// Framework parameters in force during the run.
    pub params: FrameworkParams,
}

impl ProfileConfig {
    /// A quiet single-node profiling run.
    pub fn single(platform: PlatformId, resources: NodeResources) -> ProfileConfig {
        ProfileConfig {
            platform,
            resources,
            nodes: 1,
            params: FrameworkParams::default(),
        }
    }

    /// Sets the node count (builder style).
    pub fn with_nodes(mut self, nodes: usize) -> ProfileConfig {
        assert!(nodes >= 1, "profiling needs at least one node");
        self.nodes = nodes;
        self
    }

    /// Sets the framework parameters (builder style).
    pub fn with_params(mut self, params: FrameworkParams) -> ProfileConfig {
        self.params = params;
        self
    }
}

/// The outcome of a sandboxed profiling run.
///
/// `value` is in the units of the workload's performance goal, as in the
/// paper ("performance measurements in the format of each application's
/// performance goal"):
///
/// * batch jobs — projected completion time of the whole job in seconds
///   (extrapolated from early-task progress),
/// * services — the QPS sustainable at the target tail-latency bound,
/// * single-node jobs — instruction rate (IPS-equivalent work rate).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProfileResult {
    /// Measured performance in goal units (includes measurement noise).
    pub value: f64,
    /// Wall-clock seconds the profiling run consumed.
    pub seconds: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_chains() {
        let c = ProfileConfig::single(PlatformId(2), NodeResources::new(4, 8.0))
            .with_nodes(3)
            .with_params(FrameworkParams::hadoop_default());
        assert_eq!(c.nodes, 3);
        assert_eq!(c.platform, PlatformId(2));
        assert_eq!(c.params, FrameworkParams::hadoop_default());
    }

    #[test]
    #[should_panic(expected = "at least one node")]
    fn zero_nodes_panics() {
        ProfileConfig::single(PlatformId(0), NodeResources::new(1, 1.0)).with_nodes(0);
    }
}
