//! Property-based tests on the cluster resource ledger: arbitrary
//! sequences of place/release/resize operations never corrupt the
//! accounting.

use proptest::prelude::*;

use quasar_cluster::{ClusterSpec, ClusterState, NodeAlloc, Placement, ServerId};
use quasar_workloads::{FrameworkParams, NodeResources, PlatformCatalog, WorkloadId};

#[derive(Debug, Clone)]
enum Op {
    Place {
        workload: u64,
        server: usize,
        cores: u32,
        mem: f64,
    },
    Release {
        workload: u64,
    },
    Resize {
        workload: u64,
        server: usize,
        cores: u32,
        mem: f64,
    },
    AddNode {
        workload: u64,
        server: usize,
        cores: u32,
        mem: f64,
    },
    RemoveNode {
        workload: u64,
        server: usize,
    },
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u64..6, 0usize..10, 1u32..12, 1.0..24.0f64).prop_map(|(w, s, c, m)| Op::Place {
            workload: w,
            server: s,
            cores: c,
            mem: m
        }),
        (0u64..6).prop_map(|w| Op::Release { workload: w }),
        (0u64..6, 0usize..10, 1u32..12, 1.0..24.0f64).prop_map(|(w, s, c, m)| Op::Resize {
            workload: w,
            server: s,
            cores: c,
            mem: m
        }),
        (0u64..6, 0usize..10, 1u32..8, 1.0..16.0f64).prop_map(|(w, s, c, m)| Op::AddNode {
            workload: w,
            server: s,
            cores: c,
            mem: m
        }),
        (0u64..6, 0usize..10).prop_map(|(w, s)| Op::RemoveNode {
            workload: w,
            server: s
        }),
    ]
}

/// Recomputes per-server usage from the placements and compares with the
/// ledger.
fn check_ledger(cluster: &ClusterState) {
    let n = cluster.servers().len();
    let mut cores = vec![0u32; n];
    let mut mem = vec![0.0f64; n];
    for placement in cluster.placements() {
        for node in &placement.nodes {
            cores[node.server.0] += node.resources.cores;
            mem[node.server.0] += node.resources.memory_gb;
        }
    }
    for server in cluster.servers() {
        let id = server.id().0;
        assert_eq!(server.used_cores(), cores[id], "core ledger on s{id}");
        assert!(
            (server.used_memory_gb() - mem[id]).abs() < 1e-6,
            "memory ledger on s{id}"
        );
        assert!(server.used_cores() <= server.total_cores());
        assert!(server.used_memory_gb() <= server.total_memory_gb() + 1e-6);
        // The tenant index must agree with the placements.
        let mut indexed = cluster.workloads_on(server.id()).to_vec();
        indexed.sort();
        indexed.dedup();
        let mut actual: Vec<_> = cluster
            .placements()
            .filter(|p| p.node_on(server.id()).is_some())
            .map(|p| p.workload)
            .collect();
        actual.sort();
        assert_eq!(indexed, actual, "tenant index on s{id}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The resource ledger stays consistent under any operation sequence,
    /// whether individual operations succeed or fail.
    #[test]
    fn ledger_survives_arbitrary_operations(ops in proptest::collection::vec(op(), 1..60)) {
        let catalog = PlatformCatalog::local();
        let mut cluster = ClusterState::new(ClusterSpec::uniform(catalog, 1));
        for operation in ops {
            match operation {
                Op::Place { workload, server, cores, mem } => {
                    let _ = cluster.place(Placement::new(
                        WorkloadId(workload),
                        vec![NodeAlloc::immediate(ServerId(server), NodeResources::new(cores, mem))],
                        FrameworkParams::default(),
                    ));
                }
                Op::Release { workload } => {
                    let _ = cluster.release(WorkloadId(workload));
                }
                Op::Resize { workload, server, cores, mem } => {
                    let _ = cluster.resize_node(
                        WorkloadId(workload),
                        ServerId(server),
                        NodeResources::new(cores, mem),
                    );
                }
                Op::AddNode { workload, server, cores, mem } => {
                    let _ = cluster.add_node(
                        WorkloadId(workload),
                        NodeAlloc::immediate(ServerId(server), NodeResources::new(cores, mem)),
                    );
                }
                Op::RemoveNode { workload, server } => {
                    let _ = cluster.remove_node(WorkloadId(workload), ServerId(server));
                }
            }
            check_ledger(&cluster);
        }
        // Releasing everything restores an empty cluster.
        let ids: Vec<WorkloadId> = cluster.placements().map(|p| p.workload).collect();
        for id in ids {
            cluster.release(id);
        }
        prop_assert_eq!(cluster.used_cores(), 0);
        check_ledger(&cluster);
    }
}
