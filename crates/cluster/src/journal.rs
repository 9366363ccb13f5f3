//! A decision journal: every mutating manager action on the [`crate::World`]
//! is recorded with its timestamp, so experiments and operators can audit
//! *why* the cluster looks the way it does — placements, evictions,
//! resizes, scale-outs, isolation flips.
//!
//! # Examples
//!
//! ```
//! use quasar_cluster::journal::{Journal, JournalEvent};
//!
//! let mut journal = Journal::new(256);
//! journal.record(12.5, JournalEvent::Evicted {
//!     workload: quasar_workloads::WorkloadId(3),
//!     requeued: true,
//! });
//! assert_eq!(journal.len(), 1);
//! assert!(journal.render().contains("evicted"));
//! ```

use std::collections::VecDeque;
use std::fmt;
use std::sync::OnceLock;

use quasar_obs::registry::{Counter, Registry};
use quasar_workloads::{NodeResources, WorkloadId};

use crate::chunk::{self, ChunkProvider, SealedChunk};
use crate::qos::QosCause;
use crate::server::ServerId;

/// Registry handles for the journal counters: one total plus one per
/// event kind (`quasar.cluster.journal.<kind>`).
struct JournalMetrics {
    total: Counter,
    per_kind: [(&'static str, Counter); 9],
    chunk_flushes: Counter,
    chunk_events: Counter,
}

fn journal_metrics() -> &'static JournalMetrics {
    static METRICS: OnceLock<JournalMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let reg = Registry::global();
        let kind = |k: &'static str| (k, reg.counter(&format!("quasar.cluster.journal.{k}")));
        JournalMetrics {
            total: reg.counter("quasar.cluster.journal.events"),
            per_kind: [
                kind("placed"),
                kind("evicted"),
                kind("node_added"),
                kind("node_removed"),
                kind("node_resized"),
                kind("params_set"),
                kind("isolation_set"),
                kind("completed"),
                kind("qos_episode"),
            ],
            chunk_flushes: reg.counter("quasar.cluster.journal.chunk_flushes"),
            chunk_events: reg.counter("quasar.cluster.journal.chunk_events"),
        }
    })
}

/// One recorded manager action.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum JournalEvent {
    /// A placement was committed.
    Placed {
        /// Workload placed.
        workload: WorkloadId,
        /// Number of nodes in the placement.
        nodes: usize,
        /// Total cores committed.
        cores: u32,
        /// Activation delay charged (profiling), in seconds.
        delay_s: f64,
    },
    /// A workload was evicted.
    Evicted {
        /// Workload evicted.
        workload: WorkloadId,
        /// Whether it was requeued (vs killed).
        requeued: bool,
    },
    /// A node was added to a placement (scale-out).
    NodeAdded {
        /// Workload grown.
        workload: WorkloadId,
        /// Hosting server.
        server: ServerId,
        /// Slice added.
        resources: NodeResources,
    },
    /// A node was removed from a placement (reclaim).
    NodeRemoved {
        /// Workload shrunk.
        workload: WorkloadId,
        /// Server released.
        server: ServerId,
    },
    /// A slice was resized in place (scale-up/down).
    NodeResized {
        /// Workload resized.
        workload: WorkloadId,
        /// Hosting server.
        server: ServerId,
        /// New slice size.
        resources: NodeResources,
    },
    /// Framework parameters were updated in place.
    ParamsSet {
        /// Workload reconfigured.
        workload: WorkloadId,
    },
    /// Hardware partitioning was toggled.
    IsolationSet {
        /// Workload affected.
        workload: WorkloadId,
        /// New isolation state.
        isolated: bool,
    },
    /// A batch workload completed.
    Completed {
        /// Workload that finished.
        workload: WorkloadId,
    },
    /// A QoS violation episode closed (see [`crate::qos`]).
    QosEpisode {
        /// The violating workload.
        workload: WorkloadId,
        /// Attributed root cause.
        cause: QosCause,
        /// Sim-time of the first violating tick.
        start_s: f64,
        /// Episode duration in seconds.
        duration_s: f64,
        /// Deepest violation seen over the episode.
        peak_depth: f64,
    },
}

impl fmt::Display for JournalEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JournalEvent::Placed {
                workload,
                nodes,
                cores,
                delay_s,
            } => write!(
                f,
                "{workload} placed on {nodes} nodes ({cores} cores, +{delay_s:.0}s delay)"
            ),
            JournalEvent::Evicted { workload, requeued } => {
                if *requeued {
                    write!(f, "{workload} evicted (requeued)")
                } else {
                    write!(f, "{workload} evicted (killed)")
                }
            }
            JournalEvent::NodeAdded {
                workload,
                server,
                resources,
            } => write!(
                f,
                "{workload} scaled out to {server} ({} cores, {:.0}GB)",
                resources.cores, resources.memory_gb
            ),
            JournalEvent::NodeRemoved { workload, server } => {
                write!(f, "{workload} released {server}")
            }
            JournalEvent::NodeResized {
                workload,
                server,
                resources,
            } => write!(
                f,
                "{workload} resized on {server} to {} cores, {:.0}GB",
                resources.cores, resources.memory_gb
            ),
            JournalEvent::ParamsSet { workload } => {
                write!(f, "{workload} framework parameters updated")
            }
            JournalEvent::IsolationSet { workload, isolated } => {
                if *isolated {
                    write!(f, "{workload} partitioning enabled")
                } else {
                    write!(f, "{workload} partitioning disabled")
                }
            }
            JournalEvent::Completed { workload } => write!(f, "{workload} completed"),
            JournalEvent::QosEpisode {
                workload,
                cause,
                start_s,
                duration_s,
                peak_depth,
            } => write!(
                f,
                "{workload} qos episode [{cause}] from {start_s:.0}s for {duration_s:.0}s (peak depth {peak_depth:.2})"
            ),
        }
    }
}

impl JournalEvent {
    /// Machine-readable kind tag, matching the per-kind registry
    /// counter and trace event suffixes.
    pub fn kind(&self) -> &'static str {
        match self {
            JournalEvent::Placed { .. } => "placed",
            JournalEvent::Evicted { .. } => "evicted",
            JournalEvent::NodeAdded { .. } => "node_added",
            JournalEvent::NodeRemoved { .. } => "node_removed",
            JournalEvent::NodeResized { .. } => "node_resized",
            JournalEvent::ParamsSet { .. } => "params_set",
            JournalEvent::IsolationSet { .. } => "isolation_set",
            JournalEvent::Completed { .. } => "completed",
            JournalEvent::QosEpisode { .. } => "qos_episode",
        }
    }

    /// Trace event name (`cluster.journal.<kind>`), static so it can be
    /// recorded without allocation.
    fn trace_name(&self) -> &'static str {
        match self {
            JournalEvent::Placed { .. } => "cluster.journal.placed",
            JournalEvent::Evicted { .. } => "cluster.journal.evicted",
            JournalEvent::NodeAdded { .. } => "cluster.journal.node_added",
            JournalEvent::NodeRemoved { .. } => "cluster.journal.node_removed",
            JournalEvent::NodeResized { .. } => "cluster.journal.node_resized",
            JournalEvent::ParamsSet { .. } => "cluster.journal.params_set",
            JournalEvent::IsolationSet { .. } => "cluster.journal.isolation_set",
            JournalEvent::Completed { .. } => "cluster.journal.completed",
            JournalEvent::QosEpisode { .. } => "cluster.journal.qos_episode",
        }
    }
}

/// A bounded ring of timestamped [`JournalEvent`]s, optionally streamed
/// through sealed chunks to a [`ChunkProvider`] for bounded-memory,
/// replayable persistence.
pub struct Journal {
    capacity: usize,
    entries: VecDeque<(f64, JournalEvent)>,
    dropped: usize,
    /// Chunk streaming state; `None` keeps the journal a pure ring.
    provider: Option<Box<dyn ChunkProvider>>,
    chunk_cap: usize,
    open_chunk: Vec<(f64, JournalEvent)>,
    next_chunk_index: u64,
    /// FNV-1a over every serialized event line streamed so far,
    /// chunk-boundary independent (see [`crate::chunk::fold_line`]).
    stream_digest: u64,
    streamed: u64,
}

impl fmt::Debug for Journal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Journal")
            .field("capacity", &self.capacity)
            .field("entries", &self.entries.len())
            .field("dropped", &self.dropped)
            .field("chunked", &self.provider.is_some())
            .field("streamed", &self.streamed)
            .finish()
    }
}

impl Journal {
    /// A journal keeping at most `capacity` recent events.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Journal {
        assert!(capacity > 0, "journal capacity must be positive");
        Journal {
            capacity,
            entries: VecDeque::with_capacity(capacity.min(1024)),
            dropped: 0,
            provider: None,
            chunk_cap: 0,
            open_chunk: Vec::new(),
            next_chunk_index: 0,
            stream_digest: chunk::digest_seed(),
            streamed: 0,
        }
    }

    /// Attaches a chunk provider: every event recorded from now on also
    /// feeds an open chunk that is sealed and stored once it holds
    /// `chunk_cap` events. The in-memory ring keeps working unchanged
    /// (recent-window rendering); the chunk stream is the durable,
    /// replayable record.
    ///
    /// # Panics
    ///
    /// Panics if `chunk_cap` is zero.
    pub fn attach_provider(&mut self, chunk_cap: usize, provider: Box<dyn ChunkProvider>) {
        assert!(chunk_cap > 0, "chunk capacity must be positive");
        self.next_chunk_index = provider.count();
        self.provider = Some(provider);
        self.chunk_cap = chunk_cap;
        self.open_chunk = Vec::with_capacity(chunk_cap);
    }

    /// Appends an event at simulation time `at_s`. Besides the in-memory
    /// ring, the event feeds the registry counters
    /// (`quasar.cluster.journal.*`), the chunk stream when a provider is
    /// attached, and — when tracing is enabled — a structured instant
    /// record in the JSONL/Chrome exporters, keyed by the event's
    /// logical time.
    pub fn record(&mut self, at_s: f64, event: JournalEvent) {
        let metrics = journal_metrics();
        metrics.total.inc();
        let kind = event.kind();
        if let Some((_, c)) = metrics.per_kind.iter().find(|(k, _)| *k == kind) {
            c.inc();
        }
        if quasar_obs::tracing_enabled() {
            quasar_obs::trace::record_instant(event.trace_name(), event.to_string(), at_s);
        }
        if self.provider.is_some() {
            self.stream_digest =
                chunk::fold_line(self.stream_digest, &chunk::serialize_event(at_s, &event));
            self.streamed += 1;
            self.open_chunk.push((at_s, event));
            if self.open_chunk.len() >= self.chunk_cap {
                self.seal_open_chunk();
            }
        }
        if self.entries.len() == self.capacity {
            self.entries.pop_front();
            self.dropped += 1;
        }
        self.entries.push_back((at_s, event));
    }

    /// Seals and stores the open chunk even if it is not full (end of
    /// run, or a snapshot boundary). No-op when empty or unchunked.
    /// Chunk boundaries do not affect the stream digest, so a run that
    /// sealed early and one that didn't still fold to the same digest.
    pub fn seal_open_chunk(&mut self) {
        let Some(provider) = self.provider.as_mut() else {
            return;
        };
        if self.open_chunk.is_empty() {
            return;
        }
        let chunk = SealedChunk {
            index: self.next_chunk_index,
            events: std::mem::take(&mut self.open_chunk),
        };
        let events = chunk.events.len() as u64;
        if let Err(e) = provider.store(&chunk) {
            // Persistence is best-effort from the physics loop's point
            // of view: a full disk must not corrupt simulation state.
            // The gap is visible (count stops advancing) and the live
            // digest still covers the lost lines.
            eprintln!("journal chunk {} store failed: {e}", chunk.index);
        }
        self.next_chunk_index += 1;
        let metrics = journal_metrics();
        metrics.chunk_flushes.inc();
        metrics.chunk_events.add(events);
    }

    /// The chunk provider, for replay after a run. `None` when the
    /// journal is a pure ring.
    pub fn provider(&self) -> Option<&dyn ChunkProvider> {
        self.provider.as_deref()
    }

    /// Running digest over every event line streamed to chunks (the
    /// journal's outcome identity under persistence). Seed value when no
    /// provider is attached.
    pub fn stream_digest(&self) -> u64 {
        self.stream_digest
    }

    /// Events streamed to the chunk layer over the journal's lifetime.
    pub fn streamed(&self) -> u64 {
        self.streamed
    }

    /// Checkpoints the streaming state for a snapshot:
    /// `(next_chunk_index, streamed, stream_digest)`. The open chunk
    /// should be sealed first so the stored stream covers everything.
    pub fn checkpoint(&self) -> (u64, u64, u64) {
        (self.next_chunk_index, self.streamed, self.stream_digest)
    }

    /// Restores the streaming state saved by
    /// [`checkpoint`](Journal::checkpoint) after re-attaching a provider.
    pub fn restore(&mut self, next_chunk_index: u64, streamed: u64, stream_digest: u64) {
        self.next_chunk_index = next_chunk_index;
        self.streamed = streamed;
        self.stream_digest = stream_digest;
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no events are retained.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Events dropped due to the capacity bound.
    pub fn dropped(&self) -> usize {
        self.dropped
    }

    /// Iterates over `(time, event)` pairs, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &(f64, JournalEvent)> {
        self.entries.iter()
    }

    /// The last `n` retained `(time, event)` pairs, oldest first (all of
    /// them when fewer are retained).
    pub(crate) fn tail(&self, n: usize) -> impl Iterator<Item = &(f64, JournalEvent)> {
        self.entries.range(self.entries.len().saturating_sub(n)..)
    }

    /// Events affecting one workload, oldest first.
    pub fn for_workload(&self, id: WorkloadId) -> Vec<&(f64, JournalEvent)> {
        self.entries
            .iter()
            .filter(|(_, e)| {
                matches!(
                    e,
                    JournalEvent::Placed { workload, .. }
                    | JournalEvent::Evicted { workload, .. }
                    | JournalEvent::NodeAdded { workload, .. }
                    | JournalEvent::NodeRemoved { workload, .. }
                    | JournalEvent::NodeResized { workload, .. }
                    | JournalEvent::ParamsSet { workload }
                    | JournalEvent::IsolationSet { workload, .. }
                    | JournalEvent::Completed { workload }
                    | JournalEvent::QosEpisode { workload, .. }
                    if *workload == id
                )
            })
            .collect()
    }

    /// Renders the journal as one line per event.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        if self.dropped > 0 {
            let _ = writeln!(out, "... {} earlier events dropped ...", self.dropped);
        }
        for (t, e) in &self.entries {
            let _ = writeln!(out, "[{t:>9.1}s] {e}");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn placed(w: u64) -> JournalEvent {
        JournalEvent::Placed {
            workload: WorkloadId(w),
            nodes: 2,
            cores: 16,
            delay_s: 30.0,
        }
    }

    #[test]
    fn records_in_order() {
        let mut j = Journal::new(8);
        j.record(1.0, placed(1));
        j.record(
            2.0,
            JournalEvent::Completed {
                workload: WorkloadId(1),
            },
        );
        let times: Vec<f64> = j.iter().map(|(t, _)| *t).collect();
        assert_eq!(times, vec![1.0, 2.0]);
    }

    #[test]
    fn capacity_bound_drops_oldest() {
        let mut j = Journal::new(2);
        j.record(1.0, placed(1));
        j.record(2.0, placed(2));
        j.record(3.0, placed(3));
        assert_eq!(j.len(), 2);
        assert_eq!(j.dropped(), 1);
        assert_eq!(j.iter().next().unwrap().0, 2.0);
        assert!(j.render().contains("1 earlier events dropped"));
    }

    #[test]
    fn chunk_streaming_seals_at_capacity_and_replays_to_same_digest() {
        let mut j = Journal::new(4);
        j.attach_provider(2, Box::new(crate::chunk::MemoryChunks::new()));
        for i in 0..5 {
            j.record(i as f64, placed(i));
        }
        assert_eq!(j.streamed(), 5);
        assert_eq!(j.provider().unwrap().count(), 2, "two full chunks sealed");
        j.seal_open_chunk();
        assert_eq!(j.provider().unwrap().count(), 3, "partial chunk sealed");
        assert_eq!(
            crate::chunk::replay_digest(j.provider().unwrap()).unwrap(),
            j.stream_digest(),
            "replaying storage folds to the live digest"
        );
        // The in-memory ring keeps its own independent bound.
        assert_eq!(j.len(), 4);
        assert_eq!(j.dropped(), 1);
    }

    #[test]
    fn per_workload_filter() {
        let mut j = Journal::new(8);
        j.record(1.0, placed(1));
        j.record(2.0, placed(2));
        j.record(
            3.0,
            JournalEvent::Evicted {
                workload: WorkloadId(1),
                requeued: false,
            },
        );
        assert_eq!(j.for_workload(WorkloadId(1)).len(), 2);
        assert_eq!(j.for_workload(WorkloadId(2)).len(), 1);
        assert_eq!(j.for_workload(WorkloadId(9)).len(), 0);
    }

    #[test]
    fn every_event_renders_nonempty() {
        let events = [
            placed(1),
            JournalEvent::Evicted {
                workload: WorkloadId(1),
                requeued: true,
            },
            JournalEvent::NodeAdded {
                workload: WorkloadId(1),
                server: ServerId(2),
                resources: NodeResources::new(4, 8.0),
            },
            JournalEvent::NodeRemoved {
                workload: WorkloadId(1),
                server: ServerId(2),
            },
            JournalEvent::NodeResized {
                workload: WorkloadId(1),
                server: ServerId(2),
                resources: NodeResources::new(8, 16.0),
            },
            JournalEvent::ParamsSet {
                workload: WorkloadId(1),
            },
            JournalEvent::IsolationSet {
                workload: WorkloadId(1),
                isolated: true,
            },
            JournalEvent::Completed {
                workload: WorkloadId(1),
            },
            JournalEvent::QosEpisode {
                workload: WorkloadId(1),
                cause: QosCause::Interference,
                start_s: 100.0,
                duration_s: 60.0,
                peak_depth: 0.4,
            },
        ];
        for e in events {
            assert!(!e.to_string().is_empty());
            assert!(!e.kind().is_empty());
            assert!(e.trace_name().ends_with(e.kind()));
        }
    }
}
