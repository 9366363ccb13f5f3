//! Workload placements.

use quasar_workloads::{FrameworkParams, NodeResources, WorkloadId};

use crate::server::ServerId;

/// Resources a workload holds on one server, with the simulation time at
/// which the node becomes active (profiling delay on initial placement,
/// microshard-migration delay when scaling out a stateful service).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodeAlloc {
    /// The server hosting this slice.
    pub server: ServerId,
    /// Resources held on that server.
    pub resources: NodeResources,
    /// Simulation time at which the node starts contributing.
    pub active_after: f64,
}

impl NodeAlloc {
    /// A node allocation active immediately.
    pub fn immediate(server: ServerId, resources: NodeResources) -> NodeAlloc {
        NodeAlloc {
            server,
            resources,
            active_after: 0.0,
        }
    }

    /// Whether the node is active at time `now`.
    pub fn is_active(&self, now: f64) -> bool {
        now >= self.active_after
    }
}

/// The full assignment of one workload: which servers, how much of each,
/// and the framework configuration (paper Table 3 knobs).
#[derive(Debug, Clone, PartialEq)]
pub struct Placement {
    /// Workload this placement belongs to.
    pub workload: WorkloadId,
    /// Per-node slices.
    pub nodes: Vec<NodeAlloc>,
    /// Framework parameters in force.
    pub params: FrameworkParams,
}

impl Placement {
    /// Creates a placement.
    ///
    /// # Panics
    ///
    /// Panics if `nodes` is empty or the same server appears twice.
    pub fn new(workload: WorkloadId, nodes: Vec<NodeAlloc>, params: FrameworkParams) -> Placement {
        assert!(!nodes.is_empty(), "placements need at least one node");
        for (i, a) in nodes.iter().enumerate() {
            for b in &nodes[i + 1..] {
                assert_ne!(a.server, b.server, "one slice per server per workload");
            }
        }
        Placement {
            workload,
            nodes,
            params,
        }
    }

    /// Number of nodes (servers) in the placement.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Nodes active at `now`.
    pub fn active_nodes(&self, now: f64) -> impl Iterator<Item = &NodeAlloc> {
        self.nodes.iter().filter(move |n| n.is_active(now))
    }

    /// Total cores across all nodes.
    pub fn total_cores(&self) -> u32 {
        self.nodes.iter().map(|n| n.resources.cores).sum()
    }

    /// Total memory across all nodes, in GB.
    pub fn total_memory_gb(&self) -> f64 {
        self.nodes.iter().map(|n| n.resources.memory_gb).sum()
    }

    /// The slice on `server`, if any.
    pub fn node_on(&self, server: ServerId) -> Option<&NodeAlloc> {
        self.nodes.iter().find(|n| n.server == server)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn alloc(sid: usize, cores: u32) -> NodeAlloc {
        NodeAlloc::immediate(ServerId(sid), NodeResources::new(cores, 4.0))
    }

    #[test]
    fn totals_sum_over_nodes() {
        let p = Placement::new(
            WorkloadId(1),
            vec![alloc(0, 4), alloc(1, 8)],
            FrameworkParams::default(),
        );
        assert_eq!(p.total_cores(), 12);
        assert_eq!(p.total_memory_gb(), 8.0);
        assert_eq!(p.node_count(), 2);
    }

    #[test]
    fn activation_delay_gates_nodes() {
        let mut late = alloc(1, 4);
        late.active_after = 100.0;
        let p = Placement::new(
            WorkloadId(1),
            vec![alloc(0, 4), late],
            FrameworkParams::default(),
        );
        assert_eq!(p.active_nodes(50.0).count(), 1);
        assert_eq!(p.active_nodes(100.0).count(), 2);
    }

    #[test]
    #[should_panic(expected = "at least one node")]
    fn empty_placement_panics() {
        Placement::new(WorkloadId(1), vec![], FrameworkParams::default());
    }

    #[test]
    #[should_panic(expected = "one slice per server")]
    fn duplicate_server_panics() {
        Placement::new(
            WorkloadId(1),
            vec![alloc(0, 2), alloc(0, 4)],
            FrameworkParams::default(),
        );
    }

    #[test]
    fn node_on_finds_server_slice() {
        let p = Placement::new(
            WorkloadId(2),
            vec![alloc(0, 4), alloc(7, 8)],
            FrameworkParams::default(),
        );
        assert_eq!(p.node_on(ServerId(7)).unwrap().resources.cores, 8);
        assert!(p.node_on(ServerId(3)).is_none());
    }
}
