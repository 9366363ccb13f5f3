//! The manager trait implemented by Quasar and every baseline.

use quasar_workloads::{NodeResources, WorkloadId};

use crate::placement::NodeAlloc;
use crate::world::{JobState, World};

/// A cluster manager: reacts to workload arrivals, periodic ticks, and
/// batch completions by placing, resizing, and evicting workloads through
/// the [`World`] API.
///
/// Implementations must only use the measurement-bounded `World` methods
/// (observations, profiling, probes) — never workload ground truth — to
/// preserve the paper's evaluation methodology.
pub trait Manager {
    /// A short name for reports.
    fn name(&self) -> &str;

    /// Called once when a workload is submitted. The workload is pending;
    /// the manager may profile it and place it now, or defer to a later
    /// tick (e.g. admission control).
    fn on_arrival(&mut self, world: &mut World, id: WorkloadId);

    /// Called every simulation tick after physics advanced.
    fn on_tick(&mut self, world: &mut World);

    /// Called when a batch workload completes (resources already freed).
    fn on_completion(&mut self, world: &mut World, id: WorkloadId);

    /// Whether this manager's [`on_tick`](Manager::on_tick) does
    /// observable work even when the world is idle (no running and no
    /// pending workloads) — e.g. wall-clock-style timers that fire
    /// adaptation sweeps. Defaults to `true`, which keeps every tick: a
    /// driver may only fast-forward idle spans for managers that return
    /// `false`, i.e. whose idle `on_tick` is a no-op.
    fn needs_idle_ticks(&self) -> bool {
        true
    }

    /// An independent copy of this manager for a forked run
    /// ([`Simulation::fork`](crate::Simulation::fork)): it must decide
    /// exactly as the original would from here on. Defaults to `None`,
    /// which makes the run refuse to fork.
    fn fork(&self) -> Option<Box<dyn Manager>> {
        None
    }
}

/// A stateless FIFO greedy baseline: places pending workloads in id
/// order, each onto the first server with room for a fixed
/// cores/memory slice, and stops at the first workload that does not
/// fit (strict FIFO head-of-line blocking, so placement order is
/// deterministic). It keeps no state of its own — every decision is
/// derived from the world each call. `benchmark/`'s `sim_stream`
/// workload drives it.
#[derive(Debug, Clone, Copy)]
pub struct FifoGreedy {
    slice: NodeResources,
}

impl FifoGreedy {
    /// A FIFO greedy manager that allocates every workload a single
    /// `cores` × `memory_gb` node slice.
    pub fn new(cores: u32, memory_gb: f64) -> FifoGreedy {
        FifoGreedy {
            slice: NodeResources::new(cores, memory_gb),
        }
    }

    fn try_place(&self, world: &mut World, id: WorkloadId) -> bool {
        let slice = self.slice;
        let sid = world
            .servers()
            .iter()
            .find(|s| s.free_cores() >= slice.cores && s.free_memory_gb() >= slice.memory_gb)
            .map(|s| s.id());
        match sid {
            Some(sid) => world
                .place(
                    id,
                    vec![NodeAlloc::immediate(sid, slice)],
                    quasar_workloads::FrameworkParams::default(),
                )
                .is_ok(),
            None => false,
        }
    }
}

impl Manager for FifoGreedy {
    fn name(&self) -> &str {
        "fifo-greedy"
    }

    fn on_arrival(&mut self, world: &mut World, id: WorkloadId) {
        self.try_place(world, id);
    }

    fn on_tick(&mut self, world: &mut World) {
        for id in world.ids_in_state(JobState::Pending) {
            if !self.try_place(world, id) {
                break;
            }
        }
    }

    fn on_completion(&mut self, _world: &mut World, _id: WorkloadId) {}

    // Pending work is visible in the world, so an idle world means an
    // idle manager: idle spans may be fast-forwarded.
    fn needs_idle_ticks(&self) -> bool {
        false
    }

    fn fork(&self) -> Option<Box<dyn Manager>> {
        Some(Box::new(*self))
    }
}

/// A manager that never places anything; useful for tests and for driving
/// the world manually.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullManager;

impl Manager for NullManager {
    fn name(&self) -> &str {
        "null"
    }

    fn on_arrival(&mut self, _world: &mut World, _id: WorkloadId) {}

    fn on_tick(&mut self, _world: &mut World) {}

    fn on_completion(&mut self, _world: &mut World, _id: WorkloadId) {}

    fn needs_idle_ticks(&self) -> bool {
        false
    }

    fn fork(&self) -> Option<Box<dyn Manager>> {
        Some(Box::new(*self))
    }
}
