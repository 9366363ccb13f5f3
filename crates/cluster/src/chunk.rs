//! Chunked journal persistence: the journal streams through fixed-size
//! sealed chunks behind a [`ChunkProvider`], so a month-long run's
//! decision history is bounded in memory and replayable from storage.
//!
//! A sealed chunk is a line-oriented text block: one index header
//! followed by one line per event. Times are serialized as the hex of
//! their IEEE-754 bits, so a chunk round-trips *bit-exactly* — replaying
//! a stored stream folds to the same digest the live run produced.
//!
//! # Examples
//!
//! ```
//! use quasar_cluster::chunk::{ChunkProvider, MemoryChunks, SealedChunk};
//! use quasar_cluster::journal::JournalEvent;
//! use quasar_workloads::WorkloadId;
//!
//! let chunk = SealedChunk {
//!     index: 0,
//!     events: vec![(1.5, JournalEvent::Completed { workload: WorkloadId(7) })],
//! };
//! let mut store = MemoryChunks::new();
//! store.store(chunk.index, &chunk.serialize()).unwrap();
//! assert_eq!(store.load(0).unwrap().unwrap(), chunk);
//! ```

use std::io;
use std::path::PathBuf;

use quasar_workloads::{NodeResources, WorkloadId};

use crate::journal::JournalEvent;
use crate::server::ServerId;

/// Schema tag carried by every sealed chunk's header line.
pub const CHUNK_SCHEMA: &str = "quasar.journal.chunk.v1";

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Folds one serialized event line (without trailing newline) into a
/// running FNV-1a digest. A `\n` byte is folded after the line so the
/// digest is a digest of the byte stream, independent of how lines are
/// grouped into chunks.
pub fn fold_line(digest: u64, line: &str) -> u64 {
    fold_bytes(fold_bytes(digest, line.as_bytes()), b"\n")
}

/// Folds raw stream bytes into a running FNV-1a digest.
pub(crate) fn fold_bytes(mut digest: u64, bytes: &[u8]) -> u64 {
    for &byte in bytes {
        digest ^= byte as u64;
        digest = digest.wrapping_mul(FNV_PRIME);
    }
    digest
}

/// The FNV-1a offset basis — the digest of an empty stream.
pub fn digest_seed() -> u64 {
    FNV_OFFSET
}

const HEX_DIGITS: &[u8; 16] = b"0123456789abcdef";

/// Appends `v`'s IEEE-754 bits as 16 lowercase hex digits (the text of
/// `{:016x}`), without allocating.
fn push_bits(out: &mut String, v: f64) {
    let bits = v.to_bits();
    let mut buf = [0u8; 16];
    for (i, digit) in buf.iter_mut().enumerate() {
        *digit = HEX_DIGITS[(bits >> (60 - 4 * i) & 0xf) as usize];
    }
    out.push_str(std::str::from_utf8(&buf).expect("hex digits are ASCII"));
}

/// Appends `v` in decimal (the same text as `{}`), without allocating.
fn push_u64(out: &mut String, mut v: u64) {
    let mut buf = [0u8; 20];
    let mut start = buf.len();
    loop {
        start -= 1;
        buf[start] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    out.push_str(std::str::from_utf8(&buf[start..]).expect("decimal digits are ASCII"));
}

fn parse_bits(s: &str) -> io::Result<f64> {
    u64::from_str_radix(s, 16)
        .map(f64::from_bits)
        .map_err(|_| bad(format!("bad f64 bits: {s:?}")))
}

fn bad(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

fn parse_num<T: std::str::FromStr>(s: &str, what: &str) -> io::Result<T> {
    s.parse()
        .map_err(|_| bad(format!("bad {what} field: {s:?}")))
}

/// Fails with `InvalidData` unless `fields` is exhausted, so a record
/// line parses only if every one of its fields was consumed.
fn no_trailing<'a>(mut fields: impl Iterator<Item = &'a str>, line: &str) -> io::Result<()> {
    match fields.next() {
        None => Ok(()),
        Some(extra) => Err(bad(format!("trailing fields from {extra:?} in {line:?}"))),
    }
}

/// Appends one `(time, event)` pair to `out` as a single line (no
/// newline), creating no intermediate `String`.
///
/// Format: `<time bits> <kind> <fields...>`, all space-separated; floats
/// travel as hex bit patterns, integers as decimal.
pub fn write_event(out: &mut String, at_s: f64, event: &JournalEvent) {
    let num = |out: &mut String, v: u64| {
        out.push(' ');
        push_u64(out, v);
    };
    let float = |out: &mut String, v: f64| {
        out.push(' ');
        push_bits(out, v);
    };
    push_bits(out, at_s);
    out.push(' ');
    out.push_str(event.kind());
    match *event {
        JournalEvent::Placed {
            workload,
            nodes,
            cores,
            delay_s,
        } => {
            num(out, workload.0);
            num(out, nodes as u64);
            num(out, cores.into());
            float(out, delay_s);
        }
        JournalEvent::Evicted { workload, requeued } => {
            num(out, workload.0);
            num(out, requeued.into());
        }
        JournalEvent::NodeAdded {
            workload,
            server,
            resources,
        }
        | JournalEvent::NodeResized {
            workload,
            server,
            resources,
        } => {
            num(out, workload.0);
            num(out, server.0 as u64);
            num(out, resources.cores.into());
            float(out, resources.memory_gb);
        }
        JournalEvent::NodeRemoved { workload, server } => {
            num(out, workload.0);
            num(out, server.0 as u64);
        }
        JournalEvent::Completed { workload } => {
            num(out, workload.0);
        }
        JournalEvent::QosEpisode {
            workload,
            cause,
            start_s,
            duration_s,
            peak_depth,
        } => {
            num(out, workload.0);
            out.push(' ');
            out.push_str(cause.as_str());
            float(out, start_s);
            float(out, duration_s);
            float(out, peak_depth);
        }
    }
}

/// Parses one line produced by [`write_event`].
///
/// # Errors
///
/// Fails with `InvalidData` on unknown kinds, malformed fields, or
/// fields left over after the kind's last one.
pub fn parse_event(line: &str) -> io::Result<(f64, JournalEvent)> {
    let mut f = line.split(' ');
    let mut next = |what: &str| f.next().ok_or_else(|| bad(format!("missing {what}")));
    let at_s = parse_bits(next("time")?)?;
    let kind = next("kind")?;
    let event = match kind {
        "placed" => JournalEvent::Placed {
            workload: WorkloadId(parse_num(next("workload")?, "workload")?),
            nodes: parse_num(next("nodes")?, "nodes")?,
            cores: parse_num(next("cores")?, "cores")?,
            delay_s: parse_bits(next("delay")?)?,
        },
        "evicted" => JournalEvent::Evicted {
            workload: WorkloadId(parse_num(next("workload")?, "workload")?),
            requeued: parse_num::<u8>(next("requeued")?, "requeued")? != 0,
        },
        "node_added" | "node_resized" => {
            let workload = WorkloadId(parse_num(next("workload")?, "workload")?);
            let server = ServerId(parse_num(next("server")?, "server")?);
            let resources = NodeResources::new(
                parse_num(next("cores")?, "cores")?,
                parse_bits(next("memory")?)?,
            );
            if kind == "node_added" {
                JournalEvent::NodeAdded {
                    workload,
                    server,
                    resources,
                }
            } else {
                JournalEvent::NodeResized {
                    workload,
                    server,
                    resources,
                }
            }
        }
        "node_removed" => JournalEvent::NodeRemoved {
            workload: WorkloadId(parse_num(next("workload")?, "workload")?),
            server: ServerId(parse_num(next("server")?, "server")?),
        },
        "completed" => JournalEvent::Completed {
            workload: WorkloadId(parse_num(next("workload")?, "workload")?),
        },
        "qos_episode" => {
            let workload = WorkloadId(parse_num(next("workload")?, "workload")?);
            let cause_tag = next("cause")?;
            let cause = crate::qos::QosCause::parse(cause_tag)
                .ok_or_else(|| bad(format!("unknown qos cause: {cause_tag:?}")))?;
            JournalEvent::QosEpisode {
                workload,
                cause,
                start_s: parse_bits(next("start")?)?,
                duration_s: parse_bits(next("duration")?)?,
                peak_depth: parse_bits(next("depth")?)?,
            }
        }
        other => return Err(bad(format!("unknown event kind: {other:?}"))),
    };
    no_trailing(f, line)?;
    Ok((at_s, event))
}

/// A fixed slice of the journal stream, sealed and ready for storage.
#[derive(Debug, Clone, PartialEq)]
pub struct SealedChunk {
    /// Position of this chunk in the stream (0-based, contiguous).
    pub index: u64,
    /// The `(time, event)` pairs, in record order. Never empty.
    pub events: Vec<(f64, JournalEvent)>,
}

impl SealedChunk {
    /// Time of the first event in the chunk.
    pub fn first_s(&self) -> f64 {
        self.events.first().map(|(t, _)| *t).unwrap_or(f64::NAN)
    }

    /// Time of the last event in the chunk.
    pub fn last_s(&self) -> f64 {
        self.events.last().map(|(t, _)| *t).unwrap_or(f64::NAN)
    }

    /// Renders the chunk as its stored text form: an index header line,
    /// then one line per event.
    pub fn serialize(&self) -> String {
        let mut body = String::new();
        for (t, e) in &self.events {
            write_event(&mut body, *t, e);
            body.push('\n');
        }
        chunk_text(
            self.index,
            self.events.len(),
            self.first_s(),
            self.last_s(),
            &body,
        )
    }

    /// Parses a chunk from its stored text form, validating the header
    /// against the body.
    ///
    /// # Errors
    ///
    /// Fails with `InvalidData` on schema mismatch, malformed lines, or
    /// a header that disagrees with the events that follow.
    pub fn parse(text: &str) -> io::Result<SealedChunk> {
        let mut lines = text.lines();
        let header = lines.next().ok_or_else(|| bad("empty chunk".into()))?;
        let mut fields = header.split(' ');
        if fields.next() != Some(CHUNK_SCHEMA) {
            return Err(bad(format!("bad chunk schema in header: {header:?}")));
        }
        let mut field = |name: &str| -> io::Result<&str> {
            let f = fields
                .next()
                .ok_or_else(|| bad(format!("missing header field {name}")))?;
            f.strip_prefix(name)
                .and_then(|f| f.strip_prefix('='))
                .ok_or_else(|| bad(format!("expected header field {name}, got {f:?}")))
        };
        let index: u64 = parse_num(field("index")?, "index")?;
        let count: usize = parse_num(field("events")?, "events")?;
        let first = parse_bits(field("first")?)?;
        let last = parse_bits(field("last")?)?;
        no_trailing(fields, header)?;
        let events: Vec<(f64, JournalEvent)> = lines.map(parse_event).collect::<io::Result<_>>()?;
        let chunk = SealedChunk { index, events };
        if chunk.events.len() != count
            || chunk.first_s().to_bits() != first.to_bits()
            || chunk.last_s().to_bits() != last.to_bits()
        {
            return Err(bad(format!(
                "chunk header disagrees with body: {header:?} vs {} events [{}, {}]",
                chunk.events.len(),
                chunk.first_s(),
                chunk.last_s(),
            )));
        }
        Ok(chunk)
    }
}

/// The stored text of a chunk: an index header line
/// (`quasar.journal.chunk.v1 index=N events=M first=<bits> last=<bits>`)
/// followed by `body`, the chunk's `events` lines, each ending in `\n`.
pub(crate) fn chunk_text(
    index: u64,
    events: usize,
    first_s: f64,
    last_s: f64,
    body: &str,
) -> String {
    // The header line is under 128 bytes.
    let mut out = String::with_capacity(128 + body.len());
    out.push_str(CHUNK_SCHEMA);
    out.push_str(" index=");
    push_u64(&mut out, index);
    out.push_str(" events=");
    push_u64(&mut out, events as u64);
    out.push_str(" first=");
    push_bits(&mut out, first_s);
    out.push_str(" last=");
    push_bits(&mut out, last_s);
    out.push('\n');
    out.push_str(body);
    out
}

/// Storage backend for sealed journal chunks.
///
/// Providers own durability and lookup; the journal owns sealing and
/// digests. Implementations must store chunks retrievably by their
/// stream index.
pub trait ChunkProvider: Send {
    /// Persists the stored text of the chunk at stream position `index`
    /// (the [`SealedChunk::serialize`] form). Chunks arrive in index
    /// order; a failed store leaves the count unchanged, so the next
    /// chunk is offered at the same index.
    ///
    /// # Errors
    ///
    /// Propagates storage failures, and rejects an `index` other than
    /// [`count`](ChunkProvider::count).
    fn store(&mut self, index: u64, text: &str) -> io::Result<()>;

    /// Loads the chunk at `index`, or `None` past the end of the stream.
    ///
    /// # Errors
    ///
    /// Propagates storage failures and corrupt-chunk parse errors.
    fn load(&self, index: u64) -> io::Result<Option<SealedChunk>>;

    /// Number of chunks stored.
    fn count(&self) -> u64;

    /// An independent copy of the store, for a forked run's journal
    /// ([`Journal::fork`](crate::Journal::fork)), or `None` when the
    /// store cannot be copied. Defaults to `None`.
    fn fork(&self) -> Option<Box<dyn ChunkProvider>> {
        None
    }
}

/// In-memory provider: keeps every chunk in its serialized text form
/// (so store→load still exercises the full parse path). For tests and
/// short runs.
#[derive(Debug, Clone, Default)]
pub struct MemoryChunks {
    chunks: Vec<String>,
}

impl MemoryChunks {
    /// An empty in-memory chunk store.
    pub fn new() -> MemoryChunks {
        MemoryChunks::default()
    }
}

impl ChunkProvider for MemoryChunks {
    fn store(&mut self, index: u64, text: &str) -> io::Result<()> {
        if index != self.chunks.len() as u64 {
            return Err(bad(format!(
                "chunk {index} stored out of order (have {})",
                self.chunks.len()
            )));
        }
        self.chunks.push(text.to_owned());
        Ok(())
    }

    fn load(&self, index: u64) -> io::Result<Option<SealedChunk>> {
        match self.chunks.get(index as usize) {
            Some(text) => SealedChunk::parse(text).map(Some),
            None => Ok(None),
        }
    }

    fn count(&self) -> u64 {
        self.chunks.len() as u64
    }

    fn fork(&self) -> Option<Box<dyn ChunkProvider>> {
        Some(Box::new(self.clone()))
    }
}

/// File-backed provider: one `chunk-NNNNNNNN.qjc` text file per chunk
/// in a directory. Memory use is one open chunk regardless of run
/// length. It does not [`fork`](ChunkProvider::fork): two branches of a
/// run must never write one chunk directory.
#[derive(Debug)]
pub struct FileChunks {
    dir: PathBuf,
    count: u64,
}

impl FileChunks {
    /// Opens (creating if needed) a chunk directory, resuming the count
    /// from the files already present.
    ///
    /// # Errors
    ///
    /// Fails if the directory cannot be created or scanned.
    pub fn open(dir: impl Into<PathBuf>) -> io::Result<FileChunks> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        let mut count = 0;
        while dir.join(chunk_file(count)).exists() {
            count += 1;
        }
        Ok(FileChunks { dir, count })
    }

    /// The directory chunks are stored in.
    pub fn dir(&self) -> &std::path::Path {
        &self.dir
    }
}

fn chunk_file(index: u64) -> String {
    format!("chunk-{index:08}.qjc")
}

impl ChunkProvider for FileChunks {
    fn store(&mut self, index: u64, text: &str) -> io::Result<()> {
        if index != self.count {
            return Err(bad(format!(
                "chunk {index} stored out of order (have {})",
                self.count
            )));
        }
        std::fs::write(self.dir.join(chunk_file(index)), text)?;
        self.count += 1;
        Ok(())
    }

    fn load(&self, index: u64) -> io::Result<Option<SealedChunk>> {
        let path = self.dir.join(chunk_file(index));
        match std::fs::read_to_string(&path) {
            Ok(text) => SealedChunk::parse(&text).map(Some),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(e),
        }
    }

    fn count(&self) -> u64 {
        self.count
    }
}

/// Replays every chunk in a provider, parsing each stored event line
/// and folding its re-serialized form into a digest exactly as the live
/// stream did. Equal digests mean the stored stream is byte-identical to
/// the one the run journaled, and that every stored line round-trips
/// through the parser.
///
/// # Errors
///
/// Propagates provider load failures.
pub fn replay_digest(provider: &dyn ChunkProvider) -> io::Result<u64> {
    let mut digest = FNV_OFFSET;
    let mut line = String::new();
    for index in 0..provider.count() {
        let chunk = provider
            .load(index)
            .and_then(|c| c.ok_or_else(|| bad(format!("missing chunk {index}"))))?;
        for (t, e) in &chunk.events {
            line.clear();
            write_event(&mut line, *t, e);
            digest = fold_line(digest, &line);
        }
    }
    Ok(digest)
}

/// Replays every chunk into one flat `(time, event)` stream.
///
/// # Errors
///
/// Propagates provider load failures.
pub fn replay(provider: &dyn ChunkProvider) -> io::Result<Vec<(f64, JournalEvent)>> {
    let mut out = Vec::new();
    for index in 0..provider.count() {
        let chunk = provider
            .load(index)
            .and_then(|c| c.ok_or_else(|| bad(format!("missing chunk {index}"))))?;
        out.extend(chunk.events);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::qos::QosCause;
    use proptest::prelude::*;
    use std::fmt::Write as _;

    /// The `format!` form of a float's bits.
    fn hex(v: f64) -> String {
        format!("{:016x}", v.to_bits())
    }

    fn line(at_s: f64, event: &JournalEvent) -> String {
        let mut out = String::new();
        write_event(&mut out, at_s, event);
        out
    }

    /// The `format!`-based serializer [`write_event`] replaced, kept as
    /// the reference its bytes must equal.
    fn reference_line(at_s: f64, event: &JournalEvent) -> String {
        let mut line = format!("{} {}", hex(at_s), event.kind());
        match event {
            JournalEvent::Placed {
                workload,
                nodes,
                cores,
                delay_s,
            } => {
                let _ = write!(
                    line,
                    " {} {} {} {}",
                    workload.0,
                    nodes,
                    cores,
                    hex(*delay_s)
                );
            }
            JournalEvent::Evicted { workload, requeued } => {
                let _ = write!(line, " {} {}", workload.0, u8::from(*requeued));
            }
            JournalEvent::NodeAdded {
                workload,
                server,
                resources,
            }
            | JournalEvent::NodeResized {
                workload,
                server,
                resources,
            } => {
                let _ = write!(
                    line,
                    " {} {} {} {}",
                    workload.0,
                    server.0,
                    resources.cores,
                    hex(resources.memory_gb)
                );
            }
            JournalEvent::NodeRemoved { workload, server } => {
                let _ = write!(line, " {} {}", workload.0, server.0);
            }
            JournalEvent::Completed { workload } => {
                let _ = write!(line, " {}", workload.0);
            }
            JournalEvent::QosEpisode {
                workload,
                cause,
                start_s,
                duration_s,
                peak_depth,
            } => {
                let _ = write!(
                    line,
                    " {} {} {} {} {}",
                    workload.0,
                    cause.as_str(),
                    hex(*start_s),
                    hex(*duration_s),
                    hex(*peak_depth)
                );
            }
        }
        line
    }

    /// Ids and counts at both ends of their range, and anything between.
    fn edge_u64() -> impl Strategy<Value = u64> {
        prop_oneof![Just(0u64), Just(u64::MAX), any::<u64>(), 0u64..1000]
    }

    /// NaNs with payloads, signed zeros, infinities, subnormals, and
    /// arbitrary bit patterns.
    fn edge_f64() -> impl Strategy<Value = f64> {
        prop_oneof![
            Just(f64::NAN),
            Just(-f64::NAN),
            (1u64..1 << 51).prop_map(|payload| f64::from_bits(0x7ff8_0000_0000_0000 | payload)),
            (1u64..1 << 51).prop_map(|payload| f64::from_bits(0xfff0_0000_0000_0000 | payload)),
            Just(0.0),
            Just(-0.0),
            Just(f64::INFINITY),
            Just(f64::NEG_INFINITY),
            (1u64..1 << 52).prop_map(f64::from_bits),
            (1u64..1 << 52).prop_map(|m| -f64::from_bits(m)),
            any::<u64>().prop_map(f64::from_bits),
            0.0..1e6f64,
        ]
    }

    fn any_event() -> impl Strategy<Value = JournalEvent> {
        let ids = (edge_u64(), edge_u64(), edge_u64(), any::<bool>());
        (0usize..7, ids, any::<u32>(), 0usize..QosCause::ALL.len()).prop_flat_map(
            |(kind, (w, s, n, flag), cores, cause)| {
                (edge_f64(), edge_f64(), edge_f64()).prop_map(move |(a, b, c)| {
                    let workload = WorkloadId(w);
                    let server = ServerId(s as usize);
                    let resources = NodeResources {
                        cores,
                        memory_gb: a,
                    };
                    match kind {
                        0 => JournalEvent::Placed {
                            workload,
                            nodes: n as usize,
                            cores,
                            delay_s: a,
                        },
                        1 => JournalEvent::Evicted {
                            workload,
                            requeued: flag,
                        },
                        2 => JournalEvent::NodeAdded {
                            workload,
                            server,
                            resources,
                        },
                        3 => JournalEvent::NodeRemoved { workload, server },
                        4 => JournalEvent::NodeResized {
                            workload,
                            server,
                            resources,
                        },
                        5 => JournalEvent::Completed { workload },
                        _ => JournalEvent::QosEpisode {
                            workload,
                            cause: QosCause::ALL[cause],
                            start_s: a,
                            duration_s: b,
                            peak_depth: c,
                        },
                    }
                })
            },
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2048))]

        #[test]
        fn write_event_bytes_equal_the_format_serializer(
            at_s in edge_f64(),
            event in any_event(),
            prefix in 0usize..3,
        ) {
            // Appends after whatever the buffer already holds.
            let mut out = "x\n".repeat(prefix);
            let start = out.len();
            write_event(&mut out, at_s, &event);
            prop_assert_eq!(&out[start..], reference_line(at_s, &event));
        }
    }

    fn sample_events() -> Vec<(f64, JournalEvent)> {
        vec![
            (
                0.1 + 0.2, // deliberately non-representable sum
                JournalEvent::Placed {
                    workload: WorkloadId(3),
                    nodes: 2,
                    cores: 16,
                    delay_s: 30.5,
                },
            ),
            (
                1.0,
                JournalEvent::Evicted {
                    workload: WorkloadId(3),
                    requeued: true,
                },
            ),
            (
                2.0,
                JournalEvent::NodeAdded {
                    workload: WorkloadId(4),
                    server: ServerId(1),
                    resources: NodeResources::new(4, 7.3),
                },
            ),
            (
                3.0,
                JournalEvent::NodeRemoved {
                    workload: WorkloadId(4),
                    server: ServerId(1),
                },
            ),
            (
                4.0,
                JournalEvent::NodeResized {
                    workload: WorkloadId(4),
                    server: ServerId(2),
                    resources: NodeResources::new(8, 16.0),
                },
            ),
            (
                6.0,
                JournalEvent::Completed {
                    workload: WorkloadId(3),
                },
            ),
            (
                7.0,
                JournalEvent::QosEpisode {
                    workload: WorkloadId(3),
                    cause: crate::qos::QosCause::QueueWait,
                    start_s: 2.5,
                    duration_s: 4.5,
                    peak_depth: 0.625,
                },
            ),
        ]
    }

    #[test]
    fn every_event_kind_round_trips_bitwise() {
        for (t, e) in sample_events() {
            let line = line(t, &e);
            let (t2, e2) = parse_event(&line).unwrap();
            assert_eq!(t.to_bits(), t2.to_bits(), "time bits for {line}");
            assert_eq!(e, e2, "event for {line}");
        }
    }

    #[test]
    fn sealed_chunk_round_trips_through_text() {
        let chunk = SealedChunk {
            index: 5,
            events: sample_events(),
        };
        let text = chunk.serialize();
        assert!(text.starts_with("quasar.journal.chunk.v1 index=5 events=7 "));
        let header = format!(
            "{CHUNK_SCHEMA} index=5 events=7 first={} last={}\n",
            hex(chunk.first_s()),
            hex(chunk.last_s())
        );
        let body: String = chunk
            .events
            .iter()
            .map(|(t, e)| reference_line(*t, e) + "\n")
            .collect();
        assert_eq!(text, header + &body, "stored text is unchanged");
        let parsed = SealedChunk::parse(&text).unwrap();
        assert_eq!(parsed, chunk);
    }

    #[test]
    fn a_trailing_field_is_rejected_on_every_line() {
        let chunk = SealedChunk {
            index: 0,
            events: sample_events(),
        };
        let text = chunk.serialize();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 1 + sample_events().len());
        for (i, line) in lines.iter().enumerate() {
            let mut padded = lines.clone();
            let extended = format!("{line} 99");
            padded[i] = &extended;
            let err = SealedChunk::parse(&(padded.join("\n") + "\n")).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
            assert!(
                err.to_string().contains("trailing fields"),
                "line {i}: {err}"
            );
        }
        assert_eq!(SealedChunk::parse(&text).unwrap(), chunk);
    }

    #[test]
    fn an_unknown_event_kind_is_rejected() {
        let mut line = String::new();
        push_bits(&mut line, 4.0);
        line.push_str(" retired_kind 7 1");
        let err = parse_event(&line).unwrap_err();
        assert!(err.to_string().contains("unknown event kind"), "{err}");
    }

    #[test]
    fn header_body_disagreement_is_rejected() {
        let chunk = SealedChunk {
            index: 0,
            events: sample_events(),
        };
        let mut text = chunk.serialize();
        // Drop the last event line; the header still claims 8 events.
        text.truncate(text.trim_end().rfind('\n').unwrap() + 1);
        assert!(SealedChunk::parse(&text).is_err());
    }

    #[test]
    fn memory_provider_round_trips_and_orders() {
        let mut store = MemoryChunks::new();
        let a = SealedChunk {
            index: 0,
            events: sample_events(),
        };
        store.store(0, &a.serialize()).unwrap();
        assert!(
            store.store(7, &a.serialize()).is_err(),
            "out-of-order store must fail"
        );
        assert_eq!(store.count(), 1);
        assert_eq!(store.load(0).unwrap().unwrap(), a);
        assert!(store.load(1).unwrap().is_none());
    }

    #[test]
    fn file_provider_persists_and_reopens() {
        let dir = std::env::temp_dir().join(format!("quasar-chunks-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut store = FileChunks::open(&dir).unwrap();
        for index in 0..3 {
            let chunk = SealedChunk {
                index,
                events: sample_events(),
            };
            store.store(index, &chunk.serialize()).unwrap();
        }
        assert_eq!(store.count(), 3);
        // Reopen resumes the count from disk.
        let reopened = FileChunks::open(&dir).unwrap();
        assert_eq!(reopened.count(), 3);
        assert_eq!(reopened.load(2).unwrap().unwrap().index, 2);
        let live: u64 = {
            let mut d = digest_seed();
            for _ in 0..3 {
                for (t, e) in sample_events() {
                    d = fold_line(d, &reference_line(t, &e));
                }
            }
            d
        };
        assert_eq!(replay_digest(&reopened).unwrap(), live);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn digest_is_chunk_boundary_independent() {
        let events = sample_events();
        let mut one = MemoryChunks::new();
        let whole = SealedChunk {
            index: 0,
            events: events.clone(),
        };
        one.store(0, &whole.serialize()).unwrap();
        let mut many = MemoryChunks::new();
        for (i, (t, e)) in events.iter().enumerate() {
            let single = SealedChunk {
                index: i as u64,
                events: vec![(*t, *e)],
            };
            many.store(single.index, &single.serialize()).unwrap();
        }
        assert_eq!(
            replay_digest(&one).unwrap(),
            replay_digest(&many).unwrap(),
            "digest covers the line stream, not the chunking"
        );
    }
}
