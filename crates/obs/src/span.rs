//! Lightweight nestable spans with logical sim-time attribution.
//!
//! A span measures one named region of work: wall-clock duration, the
//! thread it ran on, its nesting depth, and the **logical simulation
//! time** current on that thread when it started. Simulation time is a
//! thread-local set by the cluster simulator ([`set_sim_time`]) and
//! reset to zero at the start of every `par_map` item, so a span's
//! sim-time depends only on the logical work item it belongs to — never
//! on which worker thread happened to run it. That is what makes the
//! masked trace export byte-identical across `--threads` values.
//!
//! Spans are zero-cost when tracing is disabled: the [`span!`](crate::span!) macro
//! compiles to one relaxed atomic load and skips argument formatting
//! entirely.

use std::cell::Cell;
use std::sync::atomic::{AtomicU32, Ordering};
use std::time::Instant;

use crate::trace;

thread_local! {
    static SIM_TIME: Cell<f64> = const { Cell::new(0.0) };
    static DEPTH: Cell<u32> = const { Cell::new(0) };
    static TID: Cell<u32> = const { Cell::new(u32::MAX) };
}

static NEXT_TID: AtomicU32 = AtomicU32::new(0);

/// Sets the logical simulation time for the current thread. Called by
/// the simulator on every tick/placement, and reset per `par_map` item.
pub fn set_sim_time(t: f64) {
    SIM_TIME.with(|c| c.set(t));
}

/// The current thread's logical simulation time (seconds).
pub fn sim_time() -> f64 {
    SIM_TIME.with(|c| c.get())
}

/// A small dense id for the current thread (0 for the first thread that
/// asks, 1 for the next, ...). Stable for the thread's lifetime.
pub fn thread_tid() -> u32 {
    TID.with(|c| {
        let mut t = c.get();
        if t == u32::MAX {
            t = NEXT_TID.fetch_add(1, Ordering::Relaxed);
            c.set(t);
        }
        t
    })
}

/// Current span nesting depth on this thread (0 outside any span).
pub fn current_depth() -> u32 {
    DEPTH.with(|c| c.get())
}

/// An active span; records itself into the trace collector on drop.
/// Obtain via [`span!`](crate::span!) or [`enter`]; hold in a `let _guard = ...`
/// binding for the region's lifetime.
#[derive(Debug)]
pub struct SpanGuard {
    name: &'static str,
    args: String,
    sim_time: f64,
    depth: u32,
    start: Instant,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        DEPTH.with(|c| c.set(self.depth));
        trace::record_span(
            self.name,
            std::mem::take(&mut self.args),
            self.sim_time,
            self.depth,
            thread_tid(),
            self.start,
            self.start.elapsed(),
        );
    }
}

/// Starts a span if tracing is enabled (`None` otherwise — dropping
/// `None` costs nothing).
pub fn enter(name: &'static str) -> Option<SpanGuard> {
    enter_args(name, String::new())
}

/// Starts a span with a preformatted argument string. Prefer the
/// [`span!`](crate::span!) macro, which skips formatting when tracing is off.
pub fn enter_args(name: &'static str, args: String) -> Option<SpanGuard> {
    if !trace::tracing_enabled() {
        return None;
    }
    let depth = DEPTH.with(|c| {
        let d = c.get();
        c.set(d + 1);
        d
    });
    Some(SpanGuard {
        name,
        args,
        sim_time: sim_time(),
        depth,
        start: Instant::now(),
    })
}

/// Opens a span over the enclosing scope:
/// `let _g = span!("core.greedy.plan");` or with `format!`-style args
/// `let _g = span!("core.par.job", "items={n}");`. Expands to a single
/// atomic load when tracing is disabled — arguments are not formatted.
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::span::enter($name)
    };
    ($name:expr, $($arg:tt)*) => {
        if $crate::trace::tracing_enabled() {
            $crate::span::enter_args($name, format!($($arg)*))
        } else {
            None
        }
    };
}

/// Runs `f` inside a span named `name` and returns `(result, wall_us)`.
/// The wall-clock measurement is taken unconditionally (call sites such
/// as `classify_timed` report it either way); the span itself is only
/// recorded when tracing is enabled.
pub fn timed<T>(name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
    let _guard = enter(name);
    let t0 = Instant::now();
    let out = f();
    let us = t0.elapsed().as_secs_f64() * 1e6;
    (out, us)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sim_time_is_thread_local() {
        set_sim_time(12.5);
        assert_eq!(sim_time(), 12.5);
        std::thread::spawn(|| assert_eq!(sim_time(), 0.0))
            .join()
            .unwrap();
        assert_eq!(sim_time(), 12.5);
        set_sim_time(0.0);
    }

    #[test]
    fn spans_are_none_when_disabled() {
        let _guard = crate::test_lock();
        trace::disable();
        assert!(enter("quasar.test.off").is_none());
        assert!(span!("quasar.test.off").is_none());
        assert!(span!("quasar.test.off", "n={}", 1).is_none());
    }

    #[test]
    fn timed_returns_result_and_nonnegative_wall() {
        // Records a span whenever another test has tracing enabled.
        let _guard = crate::test_lock();
        let (v, us) = timed("quasar.test.timed", || 7 * 6);
        assert_eq!(v, 42);
        assert!(us >= 0.0);
    }

    #[test]
    fn thread_tids_are_dense_and_stable() {
        let a = thread_tid();
        assert_eq!(thread_tid(), a);
        let b = std::thread::spawn(thread_tid).join().unwrap();
        assert_ne!(a, b);
    }
}
