//! `bench-kernels`: machine-readable before/after timings and
//! allocation counts for the flat-slice CF math kernels.
//!
//! Times each slice kernel against its frozen pre-refactor reference
//! (`quasar_cf::reference`) — the Jacobi SVD per matrix size and the
//! fused SGD train per observation density — as the **median of N
//! serial repetitions** (no fan-out involved; the container is
//! 1-core and the kernels are what's being measured). The v2 schema
//! adds three observability surfaces for the zero-alloc hot path:
//!
//! * per-kernel **allocation counts** for a fresh workspace vs. a
//!   reused [`CfScratch`] arena (scratch-path steady state must be 0);
//! * a **blocked-vs-scalar rotation** delta for the 4-lane
//!   `rotate_cols` kernel at classifier and cache-resident lengths;
//! * end-to-end **classification allocations per decision** through the
//!   real `Classifier` on distinct profiling rows.
//!
//! Allocation counts come from the counting global allocator the
//! `quasar-experiments` binary installs (see [`crate::alloc_track`]);
//! harnesses without it report `alloc_tracking: false` and zeros. The
//! `quasar-experiments bench-kernels --json` CLI writes the result as
//! `BENCH_kernels.json` so the perf trajectory is diffable from PR to
//! PR; CI runs the quick scale and `jq`-gates the output (schema shape,
//! zero steady-state scratch allocations, SVD speedup ratchet).

use std::fmt;
use std::hint::black_box;
use std::time::Instant;

use quasar_cf::kernel::{rotate_cols, rotate_cols_scalar};
use quasar_cf::reference::{svd_reference, train_reference};
use quasar_cf::{svd, svd_in, CfScratch, DenseMatrix, PqModel, SgdConfig, SparseMatrix};
use quasar_core::par::derive_seed;
use quasar_core::Classifier;

use crate::alloc_track;
use crate::report::TextTable;
use crate::validate::{AppClass, Validator};
use crate::Scale;

/// One kernel-vs-reference comparison.
#[derive(Debug, Clone)]
pub struct KernelBench {
    /// Bench id, e.g. `svd_25x81` or `sgd_25x81_d60`.
    pub name: String,
    /// Median per-call time of the slice kernel, µs.
    pub kernel_us: f64,
    /// Median per-call time of the frozen reference loops, µs.
    pub reference_us: f64,
    /// Mean heap allocations per call with a fresh workspace arena
    /// (zero when allocation tracking is inactive).
    pub fresh_allocs: f64,
    /// Mean heap allocations per call against a warmed, recycled
    /// [`CfScratch`] arena — the steady state, expected to be 0.
    pub scratch_allocs: f64,
}

impl KernelBench {
    /// `reference_us / kernel_us` (how many times faster the kernel is).
    pub fn speedup(&self) -> f64 {
        self.reference_us / self.kernel_us
    }
}

/// One blocked-vs-scalar rotation comparison at a fixed column length.
#[derive(Debug, Clone)]
pub struct RotationBench {
    /// Column length rotated.
    pub len: usize,
    /// Median per-rotation time of the 4-lane blocked kernel, µs.
    pub blocked_us: f64,
    /// Median per-rotation time of the scalar loop, µs.
    pub scalar_us: f64,
}

impl RotationBench {
    /// `scalar_us / blocked_us` (how many times faster blocking is).
    pub fn speedup(&self) -> f64 {
        self.scalar_us / self.blocked_us
    }
}

/// Allocations per end-to-end classification decision.
#[derive(Debug, Clone)]
pub struct ClassifyAllocBench {
    /// Decisions measured (each on a distinct profiling row, after
    /// arena warmup).
    pub calls: usize,
    /// Mean heap allocations per decision (zero when tracking is
    /// inactive). Not expected to reach 0: the escaping result rows and
    /// per-axis bookkeeping allocate; the scratch arenas remove the
    /// kernel working sets from this number.
    pub allocs_per_op: f64,
}

/// The full `bench-kernels` result set (`quasar.bench_kernels.v2`).
#[derive(Debug, Clone)]
pub struct KernelBenchReport {
    /// Scale the benches ran at (`quick` shrinks reps and SGD epochs).
    pub scale: Scale,
    /// Repetitions per timing (median taken).
    pub reps: usize,
    /// Whether the counting global allocator was live (false under test
    /// harnesses, where the allocation columns are all zero).
    pub alloc_tracking: bool,
    /// All comparisons, SVD sizes then SGD densities.
    pub benches: Vec<KernelBench>,
    /// Blocked-vs-scalar rotation deltas.
    pub rotations: Vec<RotationBench>,
    /// End-to-end classification allocation count.
    pub classify: ClassifyAllocBench,
}

/// Medians over `reps` timed repetitions of `iters` calls each, as
/// per-call microseconds: `(kernel, reference)`. One untimed warmup call
/// of each side precedes the reps, and the two sides are timed
/// **interleaved within each rep** — machine-speed drift (frequency
/// scaling, background work) then lands on both sides of the ratio
/// instead of skewing whichever happened to run second.
fn median_pair_us(
    reps: usize,
    iters: usize,
    mut kernel: impl FnMut(),
    mut reference: impl FnMut(),
) -> (f64, f64) {
    let time_one = |f: &mut dyn FnMut()| {
        let t0 = Instant::now();
        for _ in 0..iters {
            f();
        }
        t0.elapsed().as_secs_f64() * 1e6 / iters as f64
    };
    kernel();
    reference();
    let mut kernel_times = Vec::with_capacity(reps);
    let mut reference_times = Vec::with_capacity(reps);
    for _ in 0..reps {
        kernel_times.push(time_one(&mut kernel));
        reference_times.push(time_one(&mut reference));
    }
    let median = |times: &mut Vec<f64>| {
        times.sort_by(f64::total_cmp);
        times[times.len() / 2]
    };
    (median(&mut kernel_times), median(&mut reference_times))
}

/// Mean heap allocations per call of `f` over `calls` counted calls,
/// after one uncounted warmup call (which also warms any pooled arena
/// the closure carries). Returns 0 when allocation tracking is off.
fn allocs_per_call(tracking: bool, calls: usize, mut f: impl FnMut()) -> f64 {
    if !tracking {
        return 0.0;
    }
    f();
    let before = alloc_track::allocations();
    for _ in 0..calls {
        f();
    }
    (alloc_track::allocations() - before) as f64 / calls as f64
}

/// Deterministic cell noise in `[0, 1)`: the SplitMix64 finalizer over
/// the cell index.
///
/// The bench matrices mix this into their structured terms so they are
/// **full rank**, like the real utilization histories the classifier
/// decomposes. Degenerate (rank-deficient) inputs are the wrong thing to
/// time: their trailing singular values decay to ~1e-156, one-sided
/// Jacobi then spends its sweeps in subnormal arithmetic whose microcode
/// assists cost the same in any memory layout, and `rank_for_energy`
/// collapses the SGD rank to 1 so the factor loops have nothing to fuse.
fn cell_noise(r: usize, c: usize) -> f64 {
    let mut z = ((r as u64) << 32 | c as u64).wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    (z ^ (z >> 31)) as f64 / u64::MAX as f64
}

/// The dense matrix the SVD benches decompose: full-rank structured
/// noise (see [`cell_noise`]) at the given shape.
pub fn svd_input(rows: usize, cols: usize) -> DenseMatrix {
    DenseMatrix::from_fn(rows, cols, |r, c| cell_noise(r, c) * 4.0 - 2.0)
}

/// The history-shaped sparse matrix used by the SGD benches, filled to
/// roughly `density_pct` percent (column 0 stays fully observed so every
/// row is anchored). A weak rank-1 trend plus zero-mean noise keeps the
/// spectrum spread out, so training runs at the production rank cap
/// (`max_rank = 8`) — the regime the fused factor loops are built for.
pub fn sgd_input(density_pct: usize) -> SparseMatrix {
    let mut sparse = SparseMatrix::new(25, 81);
    for r in 0..25 {
        for col in 0..81 {
            if (r * 81 + col) * 31 % 100 < density_pct || col == 0 {
                let trend = ((r + 1) * (col + 2)) as f64 / 200.0;
                sparse.insert(r, col, trend + cell_noise(r, col) * 4.0 - 2.0);
            }
        }
    }
    sparse
}

/// Times the blocked rotation against the scalar loop at `len`. Both
/// sides rotate their own pre-filled column pair in place with an exact
/// unit rotation (`c² + s² = 1`), so values stay bounded across
/// millions of applications.
fn rotation_bench(reps: usize, len: usize, iters: usize) -> RotationBench {
    let fill =
        |salt: usize| -> Vec<f64> { (0..len).map(|i| cell_noise(i, salt) * 2.0 - 1.0).collect() };
    let (c, s) = (0.8, 0.6);
    let (mut bp, mut bq) = (fill(1), fill(2));
    let (mut sp, mut sq) = (fill(1), fill(2));
    let (blocked_us, scalar_us) = median_pair_us(
        reps,
        iters,
        || {
            rotate_cols(&mut bp, &mut bq, c, s);
            black_box(bp[0]);
        },
        || {
            rotate_cols_scalar(&mut sp, &mut sq, c, s);
            black_box(sp[0]);
        },
    );
    RotationBench {
        len,
        blocked_us,
        scalar_us,
    }
}

/// Measures heap allocations per end-to-end classification decision:
/// profiles a handful of distinct workloads through the validation
/// harness, warms the (serial-path) classifier on two of them, then
/// counts allocations across decisions on the rest, each of which runs
/// the full SVD + SGD pipeline against the warmed thread arena.
fn classify_alloc_bench(tracking: bool) -> ClassifyAllocBench {
    const SEED: u64 = 0xA110C;
    let validator = Validator::new(crate::local_history(), SEED);
    let datas: Vec<_> = (0..6)
        .map(|i| {
            let workload = validator.generate(AppClass::Hadoop, i);
            validator.profile_item(derive_seed(SEED, i as u64), workload, 2)
        })
        .collect();
    let classifier = Classifier::new().with_threads(1);
    let history = validator.history();
    for data in &datas[..2] {
        black_box(classifier.classify(history, data));
    }
    let measured = &datas[2..];
    let allocs_per_op = if tracking {
        let before = alloc_track::allocations();
        for data in measured {
            black_box(classifier.classify(history, data));
        }
        (alloc_track::allocations() - before) as f64 / measured.len() as f64
    } else {
        0.0
    };
    ClassifyAllocBench {
        calls: measured.len(),
        allocs_per_op,
    }
}

/// Runs every kernel-vs-reference comparison at `scale`.
pub fn run(scale: Scale) -> KernelBenchReport {
    let (reps, sgd_epochs) = match scale {
        Scale::Quick => (3, 20),
        Scale::Full => (15, 800),
    };
    let tracking = alloc_track::active();
    let mut benches = Vec::new();

    // SVD per size: the two 25-row shapes bracket the history matrix
    // (25×81 is the one the classifier decomposes on every arrival);
    // the square one isolates the rotation-dominated regime.
    for (rows, cols, iters) in [(25usize, 16usize, 8usize), (25, 81, 6), (64, 64, 2)] {
        let a = svd_input(rows, cols);
        let (kernel_us, reference_us) = median_pair_us(
            reps,
            iters,
            || {
                black_box(svd(black_box(&a)));
            },
            || {
                black_box(svd_reference(black_box(&a)));
            },
        );
        let fresh_allocs = allocs_per_call(tracking, 8, || {
            black_box(svd_in(black_box(&a), &mut CfScratch::new()));
        });
        let mut arena = CfScratch::new();
        let scratch_allocs = allocs_per_call(tracking, 8, || {
            let out = svd_in(black_box(&a), &mut arena);
            arena.recycle_svd(out);
        });
        benches.push(KernelBench {
            name: format!("svd_{rows}x{cols}"),
            kernel_us,
            reference_us,
            fresh_allocs,
            scratch_allocs,
        });
    }

    // SGD train per density of the history-sized matrix. Full scale uses
    // the production epoch cap; quick shrinks it so the CI smoke stays
    // fast (the per-epoch inner loop is identical either way).
    let config = SgdConfig {
        max_epochs: sgd_epochs,
        ..SgdConfig::default()
    };
    for density_pct in [30usize, 60, 95] {
        let sparse = sgd_input(density_pct);
        let (kernel_us, reference_us) = median_pair_us(
            reps,
            1,
            || {
                black_box(PqModel::train(black_box(&sparse), &config));
            },
            || {
                black_box(train_reference(black_box(&sparse), &config));
            },
        );
        // Allocation counts use the quick epoch budget regardless of
        // scale: steady-state allocations per call are epoch-invariant
        // (the SGD loop allocates nothing), and 800-epoch counted calls
        // would only slow the full run down.
        let alloc_config = SgdConfig {
            max_epochs: 20,
            ..config
        };
        let fresh_allocs = allocs_per_call(tracking, 4, || {
            black_box(PqModel::train_in(
                black_box(&sparse),
                &alloc_config,
                &mut CfScratch::new(),
            ));
        });
        let mut arena = CfScratch::new();
        let scratch_allocs = allocs_per_call(tracking, 4, || {
            let model = PqModel::train_in(black_box(&sparse), &alloc_config, &mut arena);
            arena.recycle_model(model);
        });
        benches.push(KernelBench {
            name: format!("sgd_25x81_d{density_pct}"),
            kernel_us,
            reference_us,
            fresh_allocs,
            scratch_allocs,
        });
    }

    // Rotation delta: 81 is the classifier's history column length (the
    // working set of the 25×81 decomposition after the wide-input
    // transpose); 4096 is a cache-resident length where lane throughput,
    // not loop overhead, dominates.
    let rotations = vec![
        rotation_bench(reps, 81, 2048),
        rotation_bench(reps, 4096, 128),
    ];

    let classify = classify_alloc_bench(tracking);

    KernelBenchReport {
        scale,
        reps,
        alloc_tracking: tracking,
        benches,
        rotations,
        classify,
    }
}

impl KernelBenchReport {
    /// Renders the result set as one JSON object
    /// (`quasar.bench_kernels.v2` schema).
    pub fn to_json(&self) -> String {
        let scale = match self.scale {
            Scale::Quick => "quick",
            Scale::Full => "full",
        };
        let num = |v: f64| quasar_obs::json::number((v * 1e3).round() / 1e3);
        let mut out = format!(
            "{{\"schema\":\"quasar.bench_kernels.v2\",\"scale\":\"{scale}\",\"reps\":{},\
             \"alloc_tracking\":{},\"benches\":[",
            self.reps, self.alloc_tracking
        );
        for (i, b) in self.benches.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n{{\"name\":\"{}\",\"kernel_us\":{},\"reference_us\":{},\"speedup\":{},\
                 \"fresh_allocs\":{},\"scratch_allocs\":{}}}",
                quasar_obs::json::escape(&b.name),
                num(b.kernel_us),
                num(b.reference_us),
                num(b.speedup()),
                num(b.fresh_allocs),
                num(b.scratch_allocs),
            ));
        }
        out.push_str("\n],\"rotations\":[");
        for (i, r) in self.rotations.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n{{\"len\":{},\"blocked_us\":{},\"scalar_us\":{},\"speedup\":{}}}",
                r.len,
                num(r.blocked_us),
                num(r.scalar_us),
                num(r.speedup()),
            ));
        }
        out.push_str(&format!(
            "\n],\"classify\":{{\"calls\":{},\"allocs_per_op\":{}}}}}\n",
            self.classify.calls,
            num(self.classify.allocs_per_op),
        ));
        out
    }
}

impl fmt::Display for KernelBenchReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut t = TextTable::new(format!(
            "CF kernel benches ({:?}, median of {} serial reps, alloc tracking {})",
            self.scale,
            self.reps,
            if self.alloc_tracking { "on" } else { "off" }
        ))
        .header([
            "bench",
            "kernel (us)",
            "reference (us)",
            "speedup",
            "fresh allocs",
            "scratch allocs",
        ]);
        for b in &self.benches {
            t.row([
                b.name.clone(),
                format!("{:.1}", b.kernel_us),
                format!("{:.1}", b.reference_us),
                format!("{:.2}x", b.speedup()),
                format!("{:.1}", b.fresh_allocs),
                format!("{:.1}", b.scratch_allocs),
            ]);
        }
        writeln!(f, "{}", t.render())?;
        let mut r = TextTable::new("rotate_cols: 4-lane blocked vs scalar".to_string()).header([
            "len",
            "blocked (us)",
            "scalar (us)",
            "speedup",
        ]);
        for b in &self.rotations {
            r.row([
                b.len.to_string(),
                format!("{:.3}", b.blocked_us),
                format!("{:.3}", b.scalar_us),
                format!("{:.2}x", b.speedup()),
            ]);
        }
        writeln!(f, "{}", r.render())?;
        write!(
            f,
            "classify: {:.1} allocs/decision over {} decisions",
            self.classify.allocs_per_op, self.classify.calls
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_report_is_complete_and_valid_json() {
        let report = run(Scale::Quick);
        assert_eq!(report.benches.len(), 6);
        let names: Vec<&str> = report.benches.iter().map(|b| b.name.as_str()).collect();
        assert!(names.contains(&"svd_25x81"), "history-sized SVD present");
        assert!(names.contains(&"sgd_25x81_d60"));
        for b in &report.benches {
            assert!(b.kernel_us > 0.0 && b.reference_us > 0.0, "{}", b.name);
            assert!(b.speedup().is_finite());
        }
        assert_eq!(report.rotations.len(), 2);
        for r in &report.rotations {
            assert!(r.blocked_us > 0.0 && r.scalar_us > 0.0, "len {}", r.len);
        }
        assert!(report.classify.calls > 0);
        // The test harness never installs the counting allocator, so the
        // alloc columns must be explicitly marked untracked, not claimed
        // as a measured zero.
        assert!(!report.alloc_tracking);
        for b in &report.benches {
            assert_eq!((b.fresh_allocs, b.scratch_allocs), (0.0, 0.0));
        }
        let json = report.to_json();
        quasar_obs::json::validate(&json)
            .unwrap_or_else(|at| panic!("invalid bench JSON at byte {at}: {json}"));
        assert!(json.contains("\"schema\":\"quasar.bench_kernels.v2\""));
        assert!(json.contains("\"alloc_tracking\":false"));
        let rendered = report.to_string();
        assert!(rendered.contains("svd_25x81"));
        assert!(rendered.contains("speedup"));
        assert!(rendered.contains("rotate_cols"));
        assert!(rendered.contains("allocs/decision"));
    }
}
