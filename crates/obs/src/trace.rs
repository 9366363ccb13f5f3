//! The global trace collector and the deterministic exporters.
//!
//! When tracing is enabled ([`enable`]), span guards and journal
//! instants append [`Event`]s to a process-global buffer; [`drain`]
//! stops collection and hands the events back for export. Two formats
//! are supported, both hand-rolled (the workspace builds offline, no
//! serde):
//!
//! - **Chrome `trace_event` JSON** ([`export_chrome`]) — loadable in
//!   Perfetto / `chrome://tracing`.
//! - **JSONL** ([`export_jsonl`]) — one JSON object per line: spans,
//!   instant events, then a metric line per registry entry.
//!
//! Each exporter has a *masked* mode keyed off the caller's
//! `QUASAR_MASK_TIMINGS` handling: wall-clock timestamps, durations,
//! thread ids, and nesting depths (all scheduling-dependent) are
//! dropped, and records are ordered by the scheduling-independent key
//! `(sim_time, name, args)` with synthetic timestamps. Two runs of the
//! same workload at different `--threads` values produce byte-identical
//! masked exports, which CI verifies with `cmp`.
//!
//! Collection is **per-thread**: each recording thread appends to its
//! own buffer (registered globally on first use) and [`drain`] flushes
//! them all, so the span-drop path never touches a shared mutex — only
//! thread-local state and two relaxed atomics. Drain concatenates
//! buffers in thread-registration order, which is scheduling-dependent;
//! that's fine because unmasked exports re-sort by wall time and masked
//! exports sort by the logical key above.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use crate::json;
use crate::registry::Snapshot;

/// Hard cap on buffered events; further records are counted as dropped.
pub const EVENT_CAP: usize = 1_000_000;

/// What an [`Event`] describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum EventKind {
    /// A region of work with a duration (from a span guard).
    Span,
    /// A point-in-time occurrence (e.g. a journal record).
    Instant,
}

/// One collected trace record.
#[derive(Debug, Clone)]
pub struct Event {
    /// Span or instant.
    pub kind: EventKind,
    /// Span/event name (`quasar.<crate>.<subsystem>...` taxonomy).
    pub name: &'static str,
    /// Preformatted detail string ("" when none).
    pub args: String,
    /// Logical simulation time (seconds) attributed to the record.
    pub sim_time: f64,
    /// Span nesting depth on the recording thread.
    pub depth: u32,
    /// Dense id of the recording thread.
    pub tid: u32,
    /// Wall-clock start, µs since [`enable`] was called.
    pub start_us: u64,
    /// Wall-clock duration in µs (0 for instants).
    pub dur_us: u64,
    /// Global record sequence number.
    pub seq: u64,
}

/// One thread's private event buffer. Events carry their raw start
/// [`Instant`]; wall offsets against the epoch are computed at drain, so
/// the record path needs no access to shared epoch state at all.
#[derive(Default)]
struct ThreadBuffer {
    events: Mutex<Vec<(Event, Instant)>>,
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static SEQ: AtomicU64 = AtomicU64::new(0);
/// Total buffered events across all threads, for [`EVENT_CAP`].
static COUNT: AtomicUsize = AtomicUsize::new(0);
static DROPPED: AtomicU64 = AtomicU64::new(0);
static EPOCH: Mutex<Option<Instant>> = Mutex::new(None);
/// Every thread's buffer, in first-record order. Buffers of exited
/// threads stay registered so their events survive until the next
/// [`drain`] or [`enable`], which then drops them: fan-out workers are
/// short-lived, so the list would otherwise grow with every fan-out.
static BUFFERS: Mutex<Vec<Arc<ThreadBuffer>>> = Mutex::new(Vec::new());

thread_local! {
    static LOCAL: Arc<ThreadBuffer> = {
        let buf = Arc::new(ThreadBuffer::default());
        BUFFERS
            .lock()
            .expect("trace buffers poisoned")
            .push(Arc::clone(&buf));
        buf
    };
}

/// Whether the thread that registered `buf` still holds its
/// thread-local handle; once it has exited, [`BUFFERS`] has the only one.
fn thread_alive(buf: &Arc<ThreadBuffer>) -> bool {
    Arc::strong_count(buf) > 1
}

/// Whether tracing is currently collecting. One relaxed atomic load —
/// this is the entire cost of a disabled `span!`.
#[inline]
pub fn tracing_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Starts collecting: clears every thread's buffer, restarts the
/// wall-clock epoch and sequence numbering.
pub fn enable() {
    ENABLED.store(false, Ordering::Relaxed);
    BUFFERS
        .lock()
        .expect("trace buffers poisoned")
        .retain(|buf| {
            buf.events.lock().expect("trace buffer poisoned").clear();
            thread_alive(buf)
        });
    *EPOCH.lock().expect("trace epoch poisoned") = Some(Instant::now());
    COUNT.store(0, Ordering::Relaxed);
    DROPPED.store(0, Ordering::Relaxed);
    SEQ.store(0, Ordering::Relaxed);
    ENABLED.store(true, Ordering::Relaxed);
}

/// Stops collecting (buffered events are kept until [`drain`]).
pub fn disable() {
    ENABLED.store(false, Ordering::Relaxed);
}

/// Stops collecting and returns the buffered events, flushing every
/// thread's buffer (in thread-registration order; exporters re-sort).
pub fn drain() -> Vec<Event> {
    ENABLED.store(false, Ordering::Relaxed);
    let Some(epoch) = EPOCH.lock().expect("trace epoch poisoned").take() else {
        return Vec::new();
    };
    let mut events = Vec::with_capacity(COUNT.load(Ordering::Relaxed));
    BUFFERS
        .lock()
        .expect("trace buffers poisoned")
        .retain(|buf| {
            for (mut ev, start) in buf.events.lock().expect("trace buffer poisoned").drain(..) {
                ev.start_us = start
                    .checked_duration_since(epoch)
                    .unwrap_or(Duration::ZERO)
                    .as_micros() as u64;
                events.push(ev);
            }
            thread_alive(buf)
        });
    COUNT.store(0, Ordering::Relaxed);
    events
}

/// Events discarded because the buffer hit [`EVENT_CAP`], since the
/// last [`enable`].
pub fn dropped_events() -> u64 {
    DROPPED.load(Ordering::Relaxed)
}

fn record(mut ev: Event, start: Instant) {
    if !tracing_enabled() {
        return;
    }
    if COUNT.fetch_add(1, Ordering::Relaxed) >= EVENT_CAP {
        COUNT.fetch_sub(1, Ordering::Relaxed);
        DROPPED.fetch_add(1, Ordering::Relaxed);
        return;
    }
    ev.seq = SEQ.fetch_add(1, Ordering::Relaxed);
    LOCAL.with(|buf| {
        buf.events
            .lock()
            .expect("trace buffer poisoned")
            .push((ev, start));
    });
}

/// Records a completed span (called by `SpanGuard::drop`).
pub(crate) fn record_span(
    name: &'static str,
    args: String,
    sim_time: f64,
    depth: u32,
    tid: u32,
    start: Instant,
    dur: Duration,
) {
    record(
        Event {
            kind: EventKind::Span,
            name,
            args,
            sim_time,
            depth,
            tid,
            start_us: 0,
            dur_us: dur.as_micros() as u64,
            seq: 0,
        },
        start,
    );
}

/// Records an instant event (e.g. a journal entry) at an explicit
/// logical time. No-op when tracing is disabled.
pub fn record_instant(name: &'static str, args: String, sim_time: f64) {
    if !tracing_enabled() {
        return;
    }
    record(
        Event {
            kind: EventKind::Instant,
            name,
            args,
            sim_time,
            depth: crate::span::current_depth(),
            tid: crate::span::thread_tid(),
            start_us: 0,
            dur_us: 0,
            seq: 0,
        },
        Instant::now(),
    );
}

/// Orders events for export. Masked: by the scheduling-independent key
/// `(sim_time, name, args, kind)` — ties are byte-identical records, so
/// their relative order cannot affect the output. Unmasked: by wall
/// start then sequence.
fn sorted(events: &[Event], masked: bool) -> Vec<&Event> {
    let mut evs: Vec<&Event> = events.iter().collect();
    if masked {
        evs.sort_by(|a, b| {
            a.sim_time
                .total_cmp(&b.sim_time)
                .then_with(|| a.name.cmp(b.name))
                .then_with(|| a.args.cmp(&b.args))
                .then_with(|| a.kind.cmp(&b.kind))
        });
    } else {
        evs.sort_by_key(|e| (e.start_us, e.seq));
    }
    evs
}

/// Renders events as Chrome `trace_event` JSON (one event per line for
/// diffability). Masked mode substitutes synthetic timestamps
/// (`ts` = rank in the deterministic order) and zeroes `tid`/`dur`.
pub fn export_chrome(events: &[Event], masked: bool) -> String {
    let evs = sorted(events, masked);
    let mut out = String::with_capacity(evs.len() * 96 + 32);
    out.push_str("{\"traceEvents\":[");
    for (i, e) in evs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('\n');
        let (ts, dur, tid) = if masked {
            (i as u64, 0, 0)
        } else {
            (e.start_us, e.dur_us, e.tid)
        };
        let ph = match e.kind {
            EventKind::Span => "\"ph\":\"X\"",
            EventKind::Instant => "\"ph\":\"i\",\"s\":\"t\"",
        };
        out.push_str(&format!(
            "{{\"name\":\"{}\",\"cat\":\"quasar\",{ph},\"pid\":1,\"tid\":{tid},\"ts\":{ts},\"dur\":{dur},\"args\":{{\"sim_s\":{}{}}}}}",
            json::escape(e.name),
            json::number(e.sim_time),
            if e.args.is_empty() {
                String::new()
            } else {
                format!(",\"detail\":\"{}\"", json::escape(&e.args))
            },
        ));
    }
    out.push_str("\n]}\n");
    out
}

/// Renders events (and, when given, a registry snapshot) as JSONL — one
/// JSON object per line. Masked mode drops wall-clock fields, thread
/// ids, and depths, and reduces the snapshot to its deterministic view.
pub fn export_jsonl(events: &[Event], masked: bool, snapshot: Option<&Snapshot>) -> String {
    let evs = sorted(events, masked);
    let mut out = String::with_capacity(evs.len() * 96);
    for e in evs {
        let ty = match e.kind {
            EventKind::Span => "span",
            EventKind::Instant => "event",
        };
        let detail = if e.args.is_empty() {
            String::new()
        } else {
            format!(",\"detail\":\"{}\"", json::escape(&e.args))
        };
        if masked {
            out.push_str(&format!(
                "{{\"type\":\"{ty}\",\"name\":\"{}\",\"sim_s\":{}{detail}}}\n",
                json::escape(e.name),
                json::number(e.sim_time),
            ));
        } else {
            out.push_str(&format!(
                "{{\"type\":\"{ty}\",\"name\":\"{}\",\"sim_s\":{}{detail},\"ts_us\":{},\"dur_us\":{},\"tid\":{},\"depth\":{}}}\n",
                json::escape(e.name),
                json::number(e.sim_time),
                e.start_us,
                e.dur_us,
                e.tid,
                e.depth,
            ));
        }
    }
    if let Some(snap) = snapshot {
        let view = if masked {
            snap.deterministic()
        } else {
            snap.clone()
        };
        for line in view.jsonl_lines() {
            out.push_str(&line);
            out.push('\n');
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span;

    fn sample_events() -> Vec<Event> {
        // Same logical records as two interleaved threads would produce,
        // with different wall times/tids/seqs per "run".
        let mk = |name, args: &str, sim, tid, start_us, dur_us, seq| Event {
            kind: EventKind::Span,
            name,
            args: args.to_string(),
            sim_time: sim,
            depth: 0,
            tid,
            start_us,
            dur_us,
            seq,
        };
        vec![
            mk("b.second", "", 2.0, 1, 40, 7, 2),
            mk("a.first", "items=3", 1.0, 0, 10, 5, 0),
            Event {
                kind: EventKind::Instant,
                name: "cluster.journal.placed",
                args: "workload=w0".to_string(),
                sim_time: 1.0,
                depth: 1,
                tid: 1,
                start_us: 22,
                dur_us: 0,
                seq: 1,
            },
        ]
    }

    fn shuffled_wall(events: &[Event]) -> Vec<Event> {
        // The same logical events observed with different scheduling.
        let mut evs = events.to_vec();
        evs.reverse();
        for (i, e) in evs.iter_mut().enumerate() {
            e.tid = 5 - i as u32;
            e.start_us = 1000 + 17 * i as u64;
            e.dur_us *= 3;
            e.seq = i as u64;
        }
        evs
    }

    #[test]
    fn masked_exports_are_scheduling_invariant() {
        let a = sample_events();
        let b = shuffled_wall(&a);
        assert_eq!(export_chrome(&a, true), export_chrome(&b, true));
        assert_eq!(export_jsonl(&a, true, None), export_jsonl(&b, true, None));
        // Unmasked outputs genuinely differ (wall fields present).
        assert_ne!(export_chrome(&a, false), export_chrome(&b, false));
    }

    #[test]
    fn chrome_export_is_valid_json_with_monotone_ts() {
        for masked in [false, true] {
            let doc = export_chrome(&sample_events(), masked);
            crate::json::validate(&doc).unwrap_or_else(|at| {
                panic!("invalid chrome trace (masked={masked}) at byte {at}: {doc}")
            });
            let ts: Vec<u64> = doc
                .lines()
                .filter(|l| l.contains("\"ts\":"))
                .map(|l| {
                    let after = l.split("\"ts\":").nth(1).unwrap();
                    after
                        .chars()
                        .take_while(char::is_ascii_digit)
                        .collect::<String>()
                        .parse()
                        .unwrap()
                })
                .collect();
            assert_eq!(ts.len(), 3);
            assert!(
                ts.windows(2).all(|w| w[0] <= w[1]),
                "ts not monotone: {ts:?}"
            );
        }
    }

    #[test]
    fn jsonl_lines_are_each_valid_json() {
        let reg = crate::registry::Registry::new();
        reg.counter("quasar.test.c").add(2);
        let snap = reg.snapshot();
        for masked in [false, true] {
            let doc = export_jsonl(&sample_events(), masked, Some(&snap));
            assert!(doc.lines().count() >= 4);
            for line in doc.lines() {
                crate::json::validate(line)
                    .unwrap_or_else(|at| panic!("invalid JSONL line at byte {at}: {line}"));
            }
        }
    }

    #[test]
    fn collector_roundtrip_and_instants() {
        let _guard = crate::test_lock();
        enable();
        assert!(tracing_enabled());
        {
            let _outer = span::enter("quasar.test.outer");
            let _inner = crate::span!("quasar.test.inner", "k={}", 7);
            record_instant("quasar.test.instant", String::new(), 3.5);
        }
        let events = drain();
        assert!(!tracing_enabled());
        assert_eq!(events.len(), 3);
        // Inner span drops (and records) before outer.
        let names: Vec<_> = events.iter().map(|e| e.name).collect();
        assert_eq!(
            names,
            vec![
                "quasar.test.instant",
                "quasar.test.inner",
                "quasar.test.outer"
            ]
        );
        let inner = &events[1];
        assert_eq!(inner.args, "k=7");
        assert_eq!(inner.depth, 1);
        assert_eq!(events[2].depth, 0);
        assert_eq!(events[0].sim_time, 3.5);
        assert_eq!(dropped_events(), 0);
        // Buffer is cleared after drain.
        assert!(drain().is_empty());
    }

    #[test]
    fn drain_flushes_buffers_from_every_thread() {
        let _guard = crate::test_lock();
        enable();
        std::thread::scope(|scope| {
            for i in 0..4 {
                scope.spawn(move || {
                    record_instant("quasar.test.cross_thread", format!("t={i}"), i as f64);
                });
            }
        });
        record_instant("quasar.test.local", String::new(), 9.0);
        let events = drain();
        assert_eq!(events.len(), 5, "every thread's buffer must be flushed");
        let mut sims: Vec<f64> = events.iter().map(|e| e.sim_time).collect();
        sims.sort_by(f64::total_cmp);
        assert_eq!(sims, vec![0.0, 1.0, 2.0, 3.0, 9.0]);
        assert_eq!(dropped_events(), 0);
        assert!(drain().is_empty(), "buffers are cleared after drain");
    }

    #[test]
    fn buffers_of_exited_threads_are_dropped_once_flushed() {
        let _guard = crate::test_lock();
        enable();
        record_instant("quasar.test.local", String::new(), 0.0);
        // Upper bound on what may stay registered: other tests' threads
        // can only exit, not record, while this one holds the lock.
        let registered = || BUFFERS.lock().unwrap().len();
        let live = registered();
        for i in 0..50 {
            // Joined explicitly: a scope's end alone does not wait for
            // the thread-local handle to be dropped.
            std::thread::scope(|scope| {
                let record =
                    move || record_instant("quasar.test.short_lived", String::new(), f64::from(i));
                scope.spawn(record).join().unwrap();
            });
        }
        assert!(registered() > 50, "buffers outlive their threads");
        assert_eq!(drain().len(), 51, "exited threads' events must survive");
        assert!(registered() <= live, "flushed buffers of exited threads go");
    }

    #[test]
    fn disabled_recording_is_a_no_op() {
        let _guard = crate::test_lock();
        disable();
        record_instant("quasar.test.ignored", String::new(), 0.0);
        {
            let _s = span::enter("quasar.test.ignored");
            assert!(_s.is_none());
        }
        assert!(drain().is_empty());
    }
}
