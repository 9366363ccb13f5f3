//! Deterministic parallel execution.
//!
//! A fan-out over [`std::thread::scope`] whose output is **bit-identical
//! to serial execution regardless of thread count**, because:
//!
//! 1. Results are assembled by *item index*, never by completion order.
//! 2. Any randomness an item needs comes from a private RNG stream
//!    seeded by [`derive_seed`]`(base_seed, item_index)` — a pure
//!    function of the item's position, not of which thread ran it.
//!
//! Each call spawns its own scoped workers and joins them before it
//! returns — the repo's fan-outs are a few items of milliseconds to
//! seconds each, so a spawn is noise — and a nested call (an item that
//! itself calls [`par_map`]) just opens an inner scope.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

use quasar_obs::registry::{Counter, Histogram, Registry};

/// Fan-out metrics. They count logical work (on the serial path too),
/// so they are deterministic across thread counts.
struct ParMetrics {
    jobs: Counter,
    items: Counter,
    job_items: Histogram,
}

fn par_metrics() -> &'static ParMetrics {
    static METRICS: OnceLock<ParMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let reg = Registry::global();
        ParMetrics {
            jobs: reg.counter("quasar.core.par.jobs"),
            items: reg.counter("quasar.core.par.items"),
            job_items: reg.histogram(
                "quasar.core.par.job_items",
                &[1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 1024.0],
            ),
        }
    })
}

/// Number of worker threads to use by default: the machine's available
/// parallelism, or 1 if that cannot be determined.
pub fn available_threads() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Derives the seed for item `index` of a run with `base_seed`.
///
/// SplitMix64 finalizer over the pair, so per-item streams are
/// decorrelated even for adjacent indices and a zero base seed. This is
/// the *only* sanctioned way to give a parallel item randomness: the
/// seed depends on `(base_seed, index)` alone, so output cannot depend
/// on scheduling.
pub fn derive_seed(base_seed: u64, index: u64) -> u64 {
    let mut z = base_seed
        .wrapping_add(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(index.wrapping_mul(0xBF58_476D_1CE4_E5B9));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Maps `f` over `items` on up to `threads` threads, returning results
/// in item order.
///
/// With `threads <= 1` (or a single item) this is a plain serial loop
/// and no thread is spawned. Otherwise `min(threads, n) - 1` scoped
/// workers and the submitter claim indices from one atomic counter; `f`
/// sees only `(index, item)` and results land in slot `index`, so the
/// output is the same for every thread count. A panic in `f` reaches the
/// caller with its original payload once every thread has stopped.
pub fn par_map<T, U, F>(threads: usize, items: Vec<T>, f: F) -> Vec<U>
where
    T: Send,
    U: Send,
    F: Fn(usize, T) -> U + Sync,
{
    let n = items.len();
    // Job accounting and the job span fire on *every* call — including
    // the serial path below — so trace output and the deterministic
    // metric view are identical for every thread count.
    let metrics = par_metrics();
    metrics.jobs.inc();
    metrics.items.add(n as u64);
    metrics.job_items.record(n as f64);
    let _job_span = quasar_obs::span!("core.par.job", "items={n}");
    // Sim time is item-local state: every item starts from the same
    // baseline on either path, and so does the submitter afterwards.
    let run = |i: usize, item: T| {
        quasar_obs::set_sim_time(0.0);
        f(i, item)
    };
    if threads <= 1 || n <= 1 {
        let out = items
            .into_iter()
            .enumerate()
            .map(|(i, x)| run(i, x))
            .collect();
        quasar_obs::set_sim_time(0.0);
        return out;
    }
    let slots: Vec<Mutex<Option<T>>> = items.into_iter().map(|x| Mutex::new(Some(x))).collect();
    let results: Vec<Mutex<Option<U>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    let work = || loop {
        let i = next.fetch_add(1, Ordering::Relaxed);
        if i >= n {
            break;
        }
        let item = slots[i].lock().expect("item slot poisoned").take();
        let out = run(i, item.expect("each index is claimed exactly once"));
        *results[i].lock().expect("result slot poisoned") = Some(out);
    };
    std::thread::scope(|scope| {
        let workers: Vec<_> = (1..threads.min(n)).map(|_| scope.spawn(work)).collect();
        // A panicking item ends only its own thread; the rest drain the
        // job, and the scope joins them all before any unwind leaves it.
        work();
        for worker in workers {
            if let Err(payload) = worker.join() {
                std::panic::resume_unwind(payload);
            }
        }
    });
    quasar_obs::set_sim_time(0.0);
    results
        .into_iter()
        .map(|slot| slot.into_inner().expect("result slot poisoned"))
        .map(|out| out.expect("every index was processed"))
        .collect()
}

/// [`par_map`] for items that need a private RNG stream: `f` receives
/// `(index, seed, item)` where `seed = `[`derive_seed`]`(base_seed, index)`.
pub fn par_map_seeded<T, U, F>(threads: usize, base_seed: u64, items: Vec<T>, f: F) -> Vec<U>
where
    T: Send,
    U: Send,
    F: Fn(usize, u64, T) -> U + Sync,
{
    par_map(threads, items, |i, item| {
        f(i, derive_seed(base_seed, i as u64), item)
    })
}

/// Runs a fixed set of heterogeneous tasks on up to `threads` workers,
/// returning their outputs in task order. Used to fan out the per-axis
/// CF classifications, which are a handful of differently-shaped jobs
/// rather than a uniform item list.
pub fn par_invoke<'a, U>(threads: usize, tasks: Vec<Box<dyn FnOnce() -> U + Send + 'a>>) -> Vec<U>
where
    U: Send + 'a,
{
    par_map(threads, tasks, |_, task| task())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serial_and_parallel_agree() {
        let items: Vec<u64> = (0..97).collect();
        let f = |i: usize, x: u64| x.wrapping_mul(derive_seed(42, i as u64));
        let serial = par_map(1, items.clone(), f);
        for threads in [2, 3, 4, 8, 64] {
            assert_eq!(
                par_map(threads, items.clone(), f),
                serial,
                "threads={threads}"
            );
        }
    }

    #[test]
    fn seeded_streams_depend_only_on_index() {
        let a = par_map_seeded(1, 7, vec![(); 16], |_, seed, ()| seed);
        let b = par_map_seeded(5, 7, vec![(); 16], |_, seed, ()| seed);
        assert_eq!(a, b);
        // All 16 streams distinct.
        let set: std::collections::BTreeSet<u64> = a.iter().copied().collect();
        assert_eq!(set.len(), 16);
    }

    #[test]
    fn derive_seed_decorrelates_adjacent_indices() {
        let s0 = derive_seed(0, 0);
        let s1 = derive_seed(0, 1);
        assert_ne!(s0, s1);
        assert!((s0 ^ s1).count_ones() > 8, "adjacent seeds too similar");
    }

    #[test]
    fn empty_and_single_item_inputs() {
        let empty: Vec<u32> = Vec::new();
        assert!(par_map(4, empty, |_, x: u32| x).is_empty());
        assert_eq!(par_map(4, vec![9], |i, x: u32| x + i as u32), vec![9]);
    }

    #[test]
    fn invoke_preserves_task_order() {
        let tasks: Vec<Box<dyn FnOnce() -> usize + Send>> = (0..20usize)
            .map(|i| {
                Box::new(move || {
                    // Stagger so completion order differs from task order.
                    std::thread::sleep(std::time::Duration::from_micros(((20 - i) * 50) as u64));
                    i
                }) as Box<dyn FnOnce() -> usize + Send>
            })
            .collect();
        assert_eq!(par_invoke(4, tasks), (0..20).collect::<Vec<_>>());
    }

    #[test]
    fn more_threads_than_items_is_fine() {
        let out = par_map(64, vec![1u32, 2, 3], |_, x| x * 2);
        assert_eq!(out, vec![2, 4, 6]);
    }

    #[test]
    fn panics_propagate_to_the_submitter() {
        let result = std::panic::catch_unwind(|| {
            par_map(4, (0..32).collect::<Vec<u32>>(), |_, x| {
                if x == 13 {
                    panic!("boom at 13");
                }
                x
            })
        });
        let payload = result.expect_err("panic must propagate");
        let msg = payload.downcast_ref::<&str>().copied().unwrap_or_default();
        assert!(msg.contains("boom at 13"), "unexpected payload: {msg}");
        // The pool must stay usable after a panicked job.
        assert_eq!(par_map(4, vec![1u32, 2], |_, x| x + 1), vec![2, 3]);
    }

    #[test]
    fn a_worker_panic_reaches_the_submitter_with_its_own_message() {
        let submitter = std::thread::current().id();
        let worker_claimed = std::sync::atomic::AtomicBool::new(false);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            par_map(4, (0..32).collect::<Vec<u32>>(), |i, x| {
                if std::thread::current().id() != submitter {
                    worker_claimed.store(true, Ordering::Relaxed);
                    panic!("boom at {i} on a worker");
                }
                // Hold the submitter in its item until a worker has one.
                while !worker_claimed.load(Ordering::Relaxed) {
                    std::thread::yield_now();
                }
                x
            })
        }));
        let payload = result.expect_err("panic must propagate");
        let msg = payload.downcast_ref::<String>().expect("formatted message");
        assert!(msg.ends_with("on a worker"), "unexpected payload: {msg}");
    }

    #[test]
    fn nested_par_map_completes() {
        let out = par_map(4, (0..8u64).collect::<Vec<_>>(), |_, x| {
            par_map(4, (0..8u64).collect::<Vec<_>>(), move |_, y| x * 10 + y)
                .into_iter()
                .sum::<u64>()
        });
        let expect: Vec<u64> = (0..8u64)
            .map(|x| (0..8).map(|y| x * 10 + y).sum())
            .collect();
        assert_eq!(out, expect);
    }
}
