//! End-to-end telemetry coverage over a real experiment: span nesting
//! under nested `par_map`, registry-snapshot determinism across thread
//! counts, golden validity of the trace exports, and a tripwire on
//! counters that a full manager run never moves.
//!
//! The span collector and the metric registry are process-global, so
//! every test here serializes on one lock and resets both before use.

use quasar_core::par::par_map;
use quasar_experiments::{run_experiment_with, Scale};
use quasar_obs::registry::MetricValue;
use quasar_obs::trace::{self, export_chrome, export_jsonl, EventKind};
use quasar_obs::{json, Registry};
use std::sync::{Mutex, MutexGuard, OnceLock};

fn lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[test]
fn spans_nest_under_nested_par_map() {
    let _guard = lock();
    trace::enable();
    {
        let _outer = quasar_obs::span::enter("test.outer");
        // threads = 1 keeps every item on this thread, so the nesting
        // depth recorded for each span is deterministic.
        let sums = par_map(1, vec![vec![1u64, 2], vec![3, 4, 5]], |_, inner| {
            par_map(1, inner, |_, v| v * 10).into_iter().sum::<u64>()
        });
        assert_eq!(sums, vec![30, 120]);
    }
    let events = trace::drain();
    trace::disable();

    let depth_of = |name: &str| -> Vec<u32> {
        events
            .iter()
            .filter(|e| e.name == name)
            .map(|e| e.depth)
            .collect()
    };
    assert_eq!(depth_of("test.outer"), vec![0]);
    // One outer job plus one nested job per outer item, all inside the
    // guard: job spans at depth 1 (outer fan-out) and depth 2 (nested).
    let mut job_depths = depth_of("core.par.job");
    job_depths.sort_unstable();
    assert_eq!(job_depths, vec![1, 2, 2]);
}

#[test]
fn registry_snapshot_is_deterministic_across_thread_counts() {
    let _guard = lock();
    trace::disable();
    let mut views = Vec::new();
    for threads in [1usize, 4] {
        Registry::global().reset();
        run_experiment_with("fig1", Scale::Quick, threads);
        views.push(Registry::global().snapshot().deterministic().render());
    }
    assert_eq!(
        views[0], views[1],
        "deterministic snapshot differs between --threads 1 and --threads 4"
    );
    // The run must actually have exercised the instrumented paths.
    assert!(views[0].contains("quasar.core.par.jobs"));
    assert!(views[0].contains("quasar.cluster.world.ticks"));
}

/// Pulls an integer field like `"ts":123` out of a serialized event.
fn int_field(line: &str, key: &str) -> Option<i64> {
    let tag = format!("\"{key}\":");
    let at = line.find(&tag)? + tag.len();
    let rest = &line[at..];
    let end = rest
        .find(|c: char| !c.is_ascii_digit() && c != '-')
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

#[test]
fn chrome_trace_is_valid_json_with_monotone_ts_per_thread() {
    let _guard = lock();
    Registry::global().reset();
    trace::enable();
    run_experiment_with("fig1", Scale::Quick, 2);
    let events = trace::drain();
    trace::disable();
    assert!(
        events.iter().any(|e| e.kind == EventKind::Span),
        "experiment produced no spans"
    );

    for masked in [false, true] {
        let chrome = export_chrome(&events, masked);
        json::validate(&chrome).unwrap_or_else(|at| {
            panic!("chrome trace (masked={masked}) invalid JSON at byte {at}")
        });
        // `ts` must be non-decreasing within each thread lane, or the
        // viewer renders overlapping slices.
        let mut last_ts: std::collections::HashMap<i64, i64> = std::collections::HashMap::new();
        for line in chrome
            .lines()
            .filter(|l| l.starts_with('{') && l.contains("\"ts\""))
        {
            let (tid, ts) = (
                int_field(line, "tid").expect("event missing tid"),
                int_field(line, "ts").expect("event missing ts"),
            );
            if let Some(prev) = last_ts.insert(tid, ts) {
                assert!(prev <= ts, "ts went backwards on tid {tid}: {prev} -> {ts}");
            }
        }

        let snapshot = Registry::global().snapshot();
        let jsonl = export_jsonl(&events, masked, Some(&snapshot));
        for (i, line) in jsonl.lines().enumerate() {
            json::validate(line).unwrap_or_else(|at| {
                panic!("jsonl (masked={masked}) line {i} invalid JSON at byte {at}")
            });
        }
    }
}

#[test]
fn masked_chrome_export_is_identical_across_thread_counts() {
    let _guard = lock();
    let mut exports = Vec::new();
    for threads in [1usize, 4] {
        Registry::global().reset();
        trace::enable();
        run_experiment_with("fig1", Scale::Quick, threads);
        let events = trace::drain();
        trace::disable();
        exports.push((
            export_chrome(&events, true),
            export_jsonl(&events, true, Some(&Registry::global().snapshot())),
        ));
    }
    assert_eq!(
        exports[0].0, exports[1].0,
        "masked chrome trace differs across thread counts"
    );
    assert_eq!(
        exports[0].1, exports[1].1,
        "masked jsonl differs across thread counts"
    );
}

/// Dead-tier tripwire: after one quick run of the full Quasar manager,
/// the registered counters still at zero are exactly the ones listed
/// here, each for a stated reason. A cache, index or fallback tier whose
/// own counter never moves on a real run fails this the day it lands
/// (the LRU row cache sat at 0 hits for nine PRs before it was deleted).
#[test]
fn counters_left_at_zero_by_a_manager_run_are_allowlisted() {
    let _guard = lock();
    trace::disable();
    Registry::global().reset();
    run_experiment_with("fig9", Scale::Quick, 2);
    // Live (scheduling-dependent) metrics are stripped: wall-clock
    // timings say nothing about whether a tier is dead.
    let snapshot = Registry::global().snapshot().deterministic();
    let zero: Vec<&str> = snapshot
        .entries
        .iter()
        .filter(|e| e.value == MetricValue::Counter(0))
        .map(|e| e.name.as_str())
        .collect();
    let allowed = [
        // fig9 keeps its journal in memory; no chunk store is attached.
        "quasar.cluster.journal.chunk_events",
        "quasar.cluster.journal.chunk_flushes",
        // fig9's services set neither isolation nor framework parameters.
        "quasar.cluster.journal.isolation_set",
        "quasar.cluster.journal.params_set",
        // QoS causes this scenario does not produce.
        "quasar.cluster.qos.cause.calibration_drift",
        "quasar.cluster.qos.cause.straggler",
        // The Quasar manager asks for idle ticks, so none are skipped.
        "quasar.cluster.sim.ticks_skipped",
    ];
    assert_eq!(
        zero, allowed,
        "a registered counter never moved (or an allowlisted one now does)"
    );
}
