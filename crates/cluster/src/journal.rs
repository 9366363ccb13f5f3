//! A decision journal: every mutating manager action on the [`crate::World`]
//! is recorded with its timestamp, so experiments and operators can audit
//! *why* the cluster looks the way it does — placements, evictions,
//! resizes, scale-outs, completions and QoS episodes.
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

use crate::chunk::{self, ChunkProvider};
use crate::qos::QosCause;
use crate::server::ServerId;

/// Every event kind as `(kind tag, trace event name)`, indexed by
/// [`JournalEvent::slot`].
const KINDS: [(&str, &str); 7] = [
    ("placed", "cluster.journal.placed"),
    ("evicted", "cluster.journal.evicted"),
    ("node_added", "cluster.journal.node_added"),
    ("node_removed", "cluster.journal.node_removed"),
    ("node_resized", "cluster.journal.node_resized"),
    ("completed", "cluster.journal.completed"),
    ("qos_episode", "cluster.journal.qos_episode"),
];

/// Registry handles for the journal counters: one total plus one per
/// event kind (`quasar.cluster.journal.<kind>`, indexed like [`KINDS`]).
struct JournalMetrics {
    total: Counter,
    per_kind: [Counter; 7],
    chunk_flushes: Counter,
    chunk_events: Counter,
    chunk_store_failures: Counter,
}

fn journal_metrics() -> &'static JournalMetrics {
    static METRICS: OnceLock<JournalMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let reg = Registry::global();
        JournalMetrics {
            total: reg.counter("quasar.cluster.journal.events"),
            per_kind: KINDS.map(|(k, _)| reg.counter(&format!("quasar.cluster.journal.{k}"))),
            chunk_flushes: reg.counter("quasar.cluster.journal.chunk_flushes"),
            chunk_events: reg.counter("quasar.cluster.journal.chunk_events"),
            chunk_store_failures: reg.counter("quasar.cluster.journal.chunk_store_failures"),
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
    /// The event's row in [`KINDS`] and its per-kind counter.
    fn slot(&self) -> usize {
        match self {
            JournalEvent::Placed { .. } => 0,
            JournalEvent::Evicted { .. } => 1,
            JournalEvent::NodeAdded { .. } => 2,
            JournalEvent::NodeRemoved { .. } => 3,
            JournalEvent::NodeResized { .. } => 4,
            JournalEvent::Completed { .. } => 5,
            JournalEvent::QosEpisode { .. } => 6,
        }
    }

    /// Machine-readable kind tag, matching the per-kind registry
    /// counter and trace event suffixes.
    pub fn kind(&self) -> &'static str {
        KINDS[self.slot()].0
    }

    /// Trace event name (`cluster.journal.<kind>`), static so it can be
    /// recorded without allocation.
    fn trace_name(&self) -> &'static str {
        KINDS[self.slot()].1
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
    /// The open chunk's body: each event formatted once, as its stored
    /// line plus `\n`. The buffer is reused across chunks.
    open_text: String,
    open_events: usize,
    open_first_s: f64,
    open_last_s: f64,
    /// Index of the next chunk to store; advances only when a store
    /// succeeds, so it tracks the provider's count.
    next_chunk_index: u64,
    /// FNV-1a over every serialized event line streamed so far,
    /// chunk-boundary independent (see [`crate::chunk::fold_line`]).
    stream_digest: u64,
    streamed: u64,
    store_failures: u64,
}

impl fmt::Debug for Journal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Journal")
            .field("capacity", &self.capacity)
            .field("entries", &self.entries.len())
            .field("dropped", &self.dropped)
            .field("chunked", &self.provider.is_some())
            .field("streamed", &self.streamed)
            .field("store_failures", &self.store_failures)
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
            open_text: String::new(),
            open_events: 0,
            open_first_s: f64::NAN,
            open_last_s: f64::NAN,
            next_chunk_index: 0,
            stream_digest: chunk::digest_seed(),
            streamed: 0,
            store_failures: 0,
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
        self.open_text.clear();
        self.open_events = 0;
    }

    /// Appends an event at simulation time `at_s`. Besides the in-memory
    /// ring, the event feeds the registry counters
    /// (`quasar.cluster.journal.*`), the chunk stream when a provider is
    /// attached, and — when tracing is enabled — a structured instant
    /// record in the JSONL/Chrome exporters, keyed by the event's
    /// logical time.
    ///
    /// With a provider, the event is formatted once, straight into the
    /// open chunk's text, and the stream digest folds exactly the bytes
    /// appended.
    pub fn record(&mut self, at_s: f64, event: JournalEvent) {
        let metrics = journal_metrics();
        metrics.total.inc();
        metrics.per_kind[event.slot()].inc();
        if quasar_obs::tracing_enabled() {
            quasar_obs::trace::record_instant(event.trace_name(), event.to_string(), at_s);
        }
        if self.provider.is_some() {
            let start = self.open_text.len();
            chunk::write_event(&mut self.open_text, at_s, &event);
            self.open_text.push('\n');
            self.stream_digest =
                chunk::fold_bytes(self.stream_digest, &self.open_text.as_bytes()[start..]);
            self.streamed += 1;
            if self.open_events == 0 {
                self.open_first_s = at_s;
            }
            self.open_last_s = at_s;
            self.open_events += 1;
            if self.open_events >= self.chunk_cap {
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
    /// run). No-op when empty or unchunked.
    /// Chunk boundaries do not affect the stream digest, so a run that
    /// sealed early and one that didn't still fold to the same digest.
    ///
    /// A failed store costs that chunk only: the failure is counted
    /// (`quasar.cluster.journal.chunk_store_failures`,
    /// [`store_failures`](Journal::store_failures)) and the next chunk is
    /// offered at the same index, so the stored stream stays contiguous
    /// while the live digest still covers the lost lines.
    pub fn seal_open_chunk(&mut self) {
        let Some(provider) = self.provider.as_mut() else {
            return;
        };
        if self.open_events == 0 {
            return;
        }
        let index = self.next_chunk_index;
        let text = chunk::chunk_text(
            index,
            self.open_events,
            self.open_first_s,
            self.open_last_s,
            &self.open_text,
        );
        let metrics = journal_metrics();
        match provider.store(index, &text) {
            Ok(()) => self.next_chunk_index += 1,
            Err(e) => {
                // Persistence is best-effort from the physics loop's
                // point of view: a full disk must not corrupt simulation
                // state.
                eprintln!("journal chunk {index} store failed: {e}");
                self.store_failures += 1;
                metrics.chunk_store_failures.inc();
            }
        }
        metrics.chunk_flushes.inc();
        metrics.chunk_events.add(self.open_events as u64);
        self.open_text.clear();
        self.open_events = 0;
    }

    /// An independent copy: the ring, the open chunk, the stream
    /// counters and digest, and a fork of the chunk provider, so both
    /// copies go on storing the same stream separately. `None` when the
    /// provider cannot fork ([`ChunkProvider::fork`]).
    pub fn fork(&self) -> Option<Journal> {
        let provider = match &self.provider {
            Some(provider) => Some(provider.fork()?),
            None => None,
        };
        Some(Journal {
            capacity: self.capacity,
            entries: self.entries.clone(),
            dropped: self.dropped,
            provider,
            chunk_cap: self.chunk_cap,
            open_text: self.open_text.clone(),
            open_events: self.open_events,
            open_first_s: self.open_first_s,
            open_last_s: self.open_last_s,
            next_chunk_index: self.next_chunk_index,
            stream_digest: self.stream_digest,
            streamed: self.streamed,
            store_failures: self.store_failures,
        })
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

    /// Chunks whose store failed (their events are missing from the
    /// provider, so its replay digest differs from the live one).
    pub fn store_failures(&self) -> u64 {
        self.store_failures
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

    /// One event of every kind, at times `t .. t + 8`.
    fn every_kind(t: f64, w: u64) -> Vec<(f64, JournalEvent)> {
        let workload = WorkloadId(w);
        let server = ServerId(w as usize % 7);
        let resources = NodeResources::new(4, 8.5 + w as f64);
        let events = [
            placed(w),
            JournalEvent::Evicted {
                workload,
                requeued: w.is_multiple_of(2),
            },
            JournalEvent::NodeAdded {
                workload,
                server,
                resources,
            },
            JournalEvent::NodeRemoved { workload, server },
            JournalEvent::NodeResized {
                workload,
                server,
                resources,
            },
            JournalEvent::Completed { workload },
            JournalEvent::QosEpisode {
                workload,
                cause: QosCause::ALL[w as usize % QosCause::ALL.len()],
                start_s: t - 0.1,
                duration_s: 0.1 + 0.2,
                peak_depth: -0.0,
            },
        ];
        events
            .into_iter()
            .enumerate()
            .map(|(i, e)| (t + i as f64, e))
            .collect()
    }

    #[test]
    fn live_digest_equals_replay_for_every_cap_and_provider() {
        let events: Vec<(f64, JournalEvent)> = (0..1000)
            .flat_map(|w| every_kind(w as f64 * 10.0, w))
            .collect();
        for cap in [1, 3, 4096] {
            let dir = std::env::temp_dir().join(format!(
                "quasar-journal-replay-{}-{cap}",
                std::process::id()
            ));
            let _ = std::fs::remove_dir_all(&dir);
            let providers: [Box<dyn ChunkProvider>; 2] = [
                Box::new(crate::chunk::MemoryChunks::new()),
                Box::new(crate::chunk::FileChunks::open(&dir).unwrap()),
            ];
            for provider in providers {
                let mut j = Journal::new(16);
                j.attach_provider(cap, provider);
                for (t, e) in &events {
                    j.record(*t, *e);
                }
                j.seal_open_chunk();
                let stored = j.provider().unwrap();
                assert_eq!(stored.count(), events.len().div_ceil(cap) as u64);
                assert_eq!(
                    crate::chunk::replay_digest(stored).unwrap(),
                    j.stream_digest(),
                    "cap {cap}"
                );
                assert_eq!(crate::chunk::replay(stored).unwrap(), events, "cap {cap}");
                assert_eq!(j.store_failures(), 0);
            }
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    /// A provider whose second store fails, once.
    struct FailSecondStore {
        inner: crate::chunk::MemoryChunks,
        stores: u32,
    }

    impl ChunkProvider for FailSecondStore {
        fn store(&mut self, index: u64, text: &str) -> std::io::Result<()> {
            self.stores += 1;
            if self.stores == 2 {
                return Err(std::io::Error::other("disk full"));
            }
            self.inner.store(index, text)
        }

        fn load(&self, index: u64) -> std::io::Result<Option<crate::chunk::SealedChunk>> {
            self.inner.load(index)
        }

        fn count(&self) -> u64 {
            self.inner.count()
        }
    }

    #[test]
    fn one_failed_store_loses_only_that_chunk() {
        let mut j = Journal::new(4);
        j.attach_provider(
            2,
            Box::new(FailSecondStore {
                inner: crate::chunk::MemoryChunks::new(),
                stores: 0,
            }),
        );
        for i in 0..10 {
            j.record(i as f64, placed(i));
        }
        j.seal_open_chunk();
        assert_eq!(j.store_failures(), 1);
        let stored = j.provider().unwrap();
        assert_eq!(stored.count(), 4, "every chunk after the failed one stored");
        let times: Vec<f64> = crate::chunk::replay(stored)
            .unwrap()
            .iter()
            .map(|(t, _)| *t)
            .collect();
        assert_eq!(times, [0.0, 1.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0]);
        assert_ne!(
            crate::chunk::replay_digest(stored).unwrap(),
            j.stream_digest(),
            "the lost chunk shows as a digest gap"
        );
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
