//! Cluster state: servers plus the placements committed to them.

use std::collections::HashMap;
use std::error::Error;
use std::fmt;

use quasar_workloads::{NodeResources, Platform, PlatformCatalog, PlatformId, WorkloadId};

use crate::placement::{NodeAlloc, Placement};
use crate::server::{Server, ServerId};

/// Describes the hardware of a cluster to build: a platform catalog plus
/// how many servers of each platform.
///
/// # Examples
///
/// ```
/// use quasar_cluster::ClusterSpec;
/// use quasar_workloads::PlatformCatalog;
///
/// // The paper's 40-server local cluster: 4 servers per platform A–J.
/// let spec = ClusterSpec::uniform(PlatformCatalog::local(), 4);
/// assert_eq!(spec.total_servers(), 40);
/// ```
#[derive(Debug, Clone)]
pub struct ClusterSpec {
    catalog: PlatformCatalog,
    counts: Vec<(PlatformId, usize)>,
}

impl ClusterSpec {
    /// A cluster with `per_platform` servers of every platform in the
    /// catalog.
    pub fn uniform(catalog: PlatformCatalog, per_platform: usize) -> ClusterSpec {
        let counts = catalog.iter().map(|p| (p.id, per_platform)).collect();
        ClusterSpec { catalog, counts }
    }

    /// Total number of servers.
    pub fn total_servers(&self) -> usize {
        self.counts.iter().map(|(_, n)| n).sum()
    }
}

/// Why a placement could not be committed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlaceError {
    /// A node referenced a server that does not exist.
    NoSuchServer(ServerId),
    /// A server had insufficient free cores or memory.
    InsufficientCapacity(ServerId),
    /// The workload already has a placement.
    AlreadyPlaced(WorkloadId),
    /// The workload has no placement (for adjustment operations).
    NotPlaced(WorkloadId),
    /// The workload already holds a slice on this server.
    DuplicateServer(ServerId),
}

impl fmt::Display for PlaceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlaceError::NoSuchServer(s) => write!(f, "server {s} does not exist"),
            PlaceError::InsufficientCapacity(s) => {
                write!(f, "server {s} has insufficient free capacity")
            }
            PlaceError::AlreadyPlaced(w) => write!(f, "workload {w} is already placed"),
            PlaceError::NotPlaced(w) => write!(f, "workload {w} has no placement"),
            PlaceError::DuplicateServer(s) => {
                write!(f, "workload already holds a slice on server {s}")
            }
        }
    }
}

impl Error for PlaceError {}

/// Servers plus committed placements — the mutable resource ledger the
/// manager operates on through [`crate::World`].
#[derive(Debug, Clone)]
pub struct ClusterState {
    catalog: PlatformCatalog,
    servers: Vec<Server>,
    placements: HashMap<WorkloadId, Placement>,
    /// Per-server tenant index, kept in sync with `placements` so the
    /// hot `workloads_on` path is O(tenants) instead of O(placements).
    tenants: Vec<Vec<WorkloadId>>,
}

impl ClusterState {
    /// Builds the cluster described by `spec`.
    pub fn new(spec: ClusterSpec) -> ClusterState {
        let mut servers = Vec::with_capacity(spec.total_servers());
        for (pid, count) in &spec.counts {
            let platform = spec.catalog.get(*pid);
            for _ in 0..*count {
                servers.push(Server::new(ServerId(servers.len()), platform));
            }
        }
        let tenants = vec![Vec::new(); servers.len()];
        ClusterState {
            catalog: spec.catalog,
            servers,
            placements: HashMap::new(),
            tenants,
        }
    }

    fn index_add(&mut self, server: ServerId, id: WorkloadId) {
        self.tenants[server.0].push(id);
    }

    fn index_remove(&mut self, server: ServerId, id: WorkloadId) {
        self.tenants[server.0].retain(|&w| w != id);
    }

    /// The platform catalog.
    pub fn catalog(&self) -> &PlatformCatalog {
        &self.catalog
    }

    /// All servers, indexed by [`ServerId`].
    pub fn servers(&self) -> &[Server] {
        &self.servers
    }

    /// The server with the given id.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn server(&self, id: ServerId) -> &Server {
        &self.servers[id.0]
    }

    /// The platform of a server.
    pub fn platform_of(&self, id: ServerId) -> &Platform {
        self.catalog.get(self.server(id).platform())
    }

    /// The placement of a workload, if any.
    pub fn placement(&self, id: WorkloadId) -> Option<&Placement> {
        self.placements.get(&id)
    }

    /// All current placements.
    pub fn placements(&self) -> impl Iterator<Item = &Placement> {
        self.placements.values()
    }

    /// Workload ids with a slice on `server`.
    pub fn workloads_on(&self, server: ServerId) -> &[WorkloadId] {
        &self.tenants[server.0]
    }

    /// Commits a placement, reserving its resources.
    ///
    /// # Errors
    ///
    /// Returns a [`PlaceError`] and leaves the cluster unchanged if the
    /// workload is already placed, a server does not exist, or capacity is
    /// insufficient.
    pub fn place(&mut self, placement: Placement) -> Result<(), PlaceError> {
        if self.placements.contains_key(&placement.workload) {
            return Err(PlaceError::AlreadyPlaced(placement.workload));
        }
        self.check_fit(&placement.nodes)?;
        for node in &placement.nodes {
            self.servers[node.server.0].commit(node.resources);
        }
        let id = placement.workload;
        let servers: Vec<ServerId> = placement.nodes.iter().map(|n| n.server).collect();
        self.placements.insert(id, placement);
        for server in servers {
            self.index_add(server, id);
        }
        Ok(())
    }

    fn check_fit(&self, nodes: &[NodeAlloc]) -> Result<(), PlaceError> {
        // Aggregate per server first so multi-slice requests are validated
        // jointly (should not occur inside one placement, but adjustments
        // may add to an existing server).
        for node in nodes {
            let server = self
                .servers
                .get(node.server.0)
                .ok_or(PlaceError::NoSuchServer(node.server))?;
            if !server.fits(node.resources) {
                return Err(PlaceError::InsufficientCapacity(node.server));
            }
        }
        Ok(())
    }

    /// Releases a workload's placement, freeing its resources.
    pub fn release(&mut self, id: WorkloadId) -> Option<Placement> {
        let placement = self.placements.remove(&id)?;
        for node in &placement.nodes {
            self.servers[node.server.0].release(node.resources);
            self.index_remove(node.server, id);
        }
        Some(placement)
    }

    /// Adds a node to an existing placement.
    ///
    /// # Errors
    ///
    /// Fails if the workload is not placed, already has a slice on that
    /// server, or the server lacks capacity.
    pub fn add_node(&mut self, id: WorkloadId, node: NodeAlloc) -> Result<(), PlaceError> {
        let placement = self.placements.get(&id).ok_or(PlaceError::NotPlaced(id))?;
        if placement.node_on(node.server).is_some() {
            return Err(PlaceError::DuplicateServer(node.server));
        }
        let server = self
            .servers
            .get(node.server.0)
            .ok_or(PlaceError::NoSuchServer(node.server))?;
        if !server.fits(node.resources) {
            return Err(PlaceError::InsufficientCapacity(node.server));
        }
        self.servers[node.server.0].commit(node.resources);
        let server = node.server;
        self.placements
            .get_mut(&id)
            .expect("checked above")
            .nodes
            .push(node);
        self.index_add(server, id);
        Ok(())
    }

    /// Removes the slice of `id` on `server`, freeing it. Removing the
    /// last node releases the placement entirely.
    ///
    /// # Errors
    ///
    /// Fails if the workload is not placed or has no slice there.
    pub fn remove_node(&mut self, id: WorkloadId, server: ServerId) -> Result<(), PlaceError> {
        let placement = self
            .placements
            .get_mut(&id)
            .ok_or(PlaceError::NotPlaced(id))?;
        let idx = placement
            .nodes
            .iter()
            .position(|n| n.server == server)
            .ok_or(PlaceError::NoSuchServer(server))?;
        let node = placement.nodes.remove(idx);
        let empty = placement.nodes.is_empty();
        self.servers[server.0].release(node.resources);
        self.index_remove(server, id);
        if empty {
            self.placements.remove(&id);
        }
        Ok(())
    }

    /// Resizes the slice of `id` on `server` to `resources` (scale-up or
    /// scale-down in place).
    ///
    /// # Errors
    ///
    /// Fails if not placed there or if growth does not fit.
    pub fn resize_node(
        &mut self,
        id: WorkloadId,
        server: ServerId,
        resources: NodeResources,
    ) -> Result<(), PlaceError> {
        let placement = self.placements.get(&id).ok_or(PlaceError::NotPlaced(id))?;
        let old = placement
            .node_on(server)
            .ok_or(PlaceError::NoSuchServer(server))?
            .resources;
        let srv = &mut self.servers[server.0];
        srv.release(old);
        if !srv.fits(resources) {
            srv.commit(old);
            return Err(PlaceError::InsufficientCapacity(server));
        }
        srv.commit(resources);
        let placement = self.placements.get_mut(&id).expect("checked above");
        let node = placement
            .nodes
            .iter_mut()
            .find(|n| n.server == server)
            .expect("checked above");
        node.resources = resources;
        Ok(())
    }

    /// Total cores across the cluster.
    pub fn total_cores(&self) -> u32 {
        self.servers.iter().map(|s| s.total_cores()).sum()
    }

    /// Committed cores across the cluster.
    pub fn used_cores(&self) -> u32 {
        self.servers.iter().map(|s| s.used_cores()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quasar_workloads::FrameworkParams;

    fn cluster() -> ClusterState {
        ClusterState::new(ClusterSpec::uniform(PlatformCatalog::local(), 1))
    }

    fn node(sid: usize, cores: u32, mem: f64) -> NodeAlloc {
        NodeAlloc::immediate(ServerId(sid), NodeResources::new(cores, mem))
    }

    fn place_one(c: &mut ClusterState, wid: u64, sid: usize, cores: u32) {
        c.place(Placement::new(
            WorkloadId(wid),
            vec![node(sid, cores, 2.0)],
            FrameworkParams::default(),
        ))
        .unwrap();
    }

    #[test]
    fn uniform_spec_builds_40_server_local_cluster() {
        let c = cluster();
        assert_eq!(c.servers().len(), 10);
        assert_eq!(
            ClusterState::new(ClusterSpec::uniform(PlatformCatalog::local(), 4))
                .servers()
                .len(),
            40
        );
    }

    #[test]
    fn place_reserves_and_release_frees() {
        let mut c = cluster();
        place_one(&mut c, 1, 9, 8);
        assert_eq!(c.server(ServerId(9)).used_cores(), 8);
        assert_eq!(c.workloads_on(ServerId(9)), [WorkloadId(1)]);
        let p = c.release(WorkloadId(1)).unwrap();
        assert_eq!(p.total_cores(), 8);
        assert_eq!(c.server(ServerId(9)).used_cores(), 0);
    }

    #[test]
    fn double_place_is_rejected() {
        let mut c = cluster();
        place_one(&mut c, 1, 9, 2);
        let err = c
            .place(Placement::new(
                WorkloadId(1),
                vec![node(8, 2, 2.0)],
                FrameworkParams::default(),
            ))
            .unwrap_err();
        assert_eq!(err, PlaceError::AlreadyPlaced(WorkloadId(1)));
    }

    #[test]
    fn insufficient_capacity_is_rejected_atomically() {
        let mut c = cluster();
        // Server 0 is platform A with 2 cores.
        let err = c
            .place(Placement::new(
                WorkloadId(1),
                vec![node(9, 2, 2.0), node(0, 16, 2.0)],
                FrameworkParams::default(),
            ))
            .unwrap_err();
        assert_eq!(err, PlaceError::InsufficientCapacity(ServerId(0)));
        // Nothing committed on server 9 either.
        assert_eq!(c.server(ServerId(9)).used_cores(), 0);
    }

    #[test]
    fn add_and_remove_node_adjust_capacity() {
        let mut c = cluster();
        place_one(&mut c, 1, 9, 4);
        c.add_node(WorkloadId(1), node(8, 4, 2.0)).unwrap();
        assert_eq!(c.placement(WorkloadId(1)).unwrap().node_count(), 2);
        c.remove_node(WorkloadId(1), ServerId(9)).unwrap();
        assert_eq!(c.server(ServerId(9)).used_cores(), 0);
        // Removing the final node clears the placement.
        c.remove_node(WorkloadId(1), ServerId(8)).unwrap();
        assert!(c.placement(WorkloadId(1)).is_none());
    }

    #[test]
    fn resize_node_grows_and_shrinks() {
        let mut c = cluster();
        place_one(&mut c, 1, 9, 4);
        c.resize_node(WorkloadId(1), ServerId(9), NodeResources::new(12, 8.0))
            .unwrap();
        assert_eq!(c.server(ServerId(9)).used_cores(), 12);
        c.resize_node(WorkloadId(1), ServerId(9), NodeResources::new(2, 1.0))
            .unwrap();
        assert_eq!(c.server(ServerId(9)).used_cores(), 2);
    }

    #[test]
    fn resize_beyond_capacity_restores_old_allocation() {
        let mut c = cluster();
        place_one(&mut c, 1, 9, 4);
        place_one(&mut c, 2, 9, 16);
        let err = c
            .resize_node(WorkloadId(1), ServerId(9), NodeResources::new(10, 2.0))
            .unwrap_err();
        assert_eq!(err, PlaceError::InsufficientCapacity(ServerId(9)));
        assert_eq!(c.server(ServerId(9)).used_cores(), 20);
        assert_eq!(
            c.placement(WorkloadId(1)).unwrap().total_cores(),
            4,
            "failed resize must not change the placement"
        );
    }

    #[test]
    fn duplicate_server_in_add_node_is_rejected() {
        let mut c = cluster();
        place_one(&mut c, 1, 9, 4);
        let err = c.add_node(WorkloadId(1), node(9, 2, 1.0)).unwrap_err();
        assert_eq!(err, PlaceError::DuplicateServer(ServerId(9)));
    }

    #[test]
    fn error_display_is_nonempty() {
        for e in [
            PlaceError::NoSuchServer(ServerId(0)),
            PlaceError::InsufficientCapacity(ServerId(1)),
            PlaceError::AlreadyPlaced(WorkloadId(2)),
            PlaceError::NotPlaced(WorkloadId(3)),
            PlaceError::DuplicateServer(ServerId(4)),
        ] {
            assert!(!e.to_string().is_empty());
        }
    }
}
