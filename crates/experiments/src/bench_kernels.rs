//! `bench-kernels`: machine-readable before/after timings for the
//! flat-slice CF math kernels.
//!
//! Times each slice kernel against its frozen pre-refactor reference
//! (`quasar_cf::reference`) — the Jacobi SVD per matrix size and the
//! fused SGD train per observation density of a 25×81 matrix and at
//! two of the shapes live arrivals train — as the **median of N
//! serial repetitions** (no fan-out involved; the container is
//! 1-core and the kernels are what's being measured), plus a
//! **blocked-vs-scalar rotation** delta for the 4-lane `rotate_cols`
//! kernel at classifier and cache-resident lengths. This is the one
//! thing the end-to-end `benchmark/` cannot gate: the kernels' ratio to
//! an oracle that never runs in production.
//!
//! The `quasar-experiments bench-kernels --json` CLI writes the result as
//! `BENCH_kernels.json` so the perf trajectory is diffable from PR to
//! PR; CI runs the quick scale and `jq`-gates the output (schema shape,
//! SVD speedup ratchet).

use std::fmt;
use std::hint::black_box;
use std::time::Instant;

use quasar_cf::kernel::{rotate_cols, rotate_cols_scalar};
use quasar_cf::reference::{svd_reference, train_reference};
use quasar_cf::{svd, DenseMatrix, PqModel, SgdConfig, SparseMatrix};

use crate::report::TextTable;
use crate::Scale;

/// One kernel-vs-reference comparison.
#[derive(Debug, Clone)]
pub struct KernelBench {
    /// Bench id, e.g. `svd_25x81`, `sgd_25x81_d60` or `sgd_live_25x25`.
    pub name: String,
    /// Median per-call time of the slice kernel, µs.
    pub kernel_us: f64,
    /// Median per-call time of the frozen reference loops, µs.
    pub reference_us: f64,
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

/// The full `bench-kernels` result set (`quasar.bench_kernels.v4`).
#[derive(Debug, Clone)]
pub struct KernelBenchReport {
    /// Scale the benches ran at (`quick` shrinks reps and SGD epochs).
    pub scale: Scale,
    /// Repetitions per timing (median taken).
    pub reps: usize,
    /// All comparisons: SVD sizes, SGD densities, live SGD shapes.
    pub benches: Vec<KernelBench>,
    /// Blocked-vs-scalar rotation deltas.
    pub rotations: Vec<RotationBench>,
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
/// noise (a SplitMix64 hash of each cell's coordinates) at the given
/// shape.
pub fn svd_matrix(rows: usize, cols: usize) -> DenseMatrix {
    DenseMatrix::from_fn(rows, cols, |r, c| cell_noise(r, c) * 4.0 - 2.0)
}

/// The 25×81 sparse matrix of the SGD density benches, filled to
/// roughly `density_pct` percent (column 0 stays fully observed so every
/// row is anchored). A weak rank-1 trend plus zero-mean noise keeps the
/// spectrum spread out, so training runs at the rank cap
/// (`max_rank = 8`) — the regime the fused factor loops are built for.
/// No live arrival trains this shape, density or rank (see
/// `sgd_live_input`); these rows stress the entry pass, not the
/// admission path.
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

/// What a live arrival trains on one axis: 24 fully observed history
/// rows plus the arrival's own row with its two profiling observations,
/// `cols` wide (the live axes are 10, 14, 25 and 32 columns). A rank-2
/// signal under light noise puts `rank_for_energy(0.95)` in the live
/// range of 1–4.
fn sgd_live_input(cols: usize) -> SparseMatrix {
    let mut sparse = SparseMatrix::new(25, cols);
    let cell = |r: usize, col: usize| {
        let scale = (r + 1) as f64 / 8.0;
        let bend = ((r * 7) % 5) as f64 / 5.0;
        let x = (col + 1) as f64 / cols as f64;
        3.0 + scale * x + bend * x * x + cell_noise(r, col) * 0.1
    };
    for r in 0..24 {
        for col in 0..cols {
            sparse.insert(r, col, cell(r, col));
        }
    }
    for col in [0, cols - 1] {
        sparse.insert(24, col, cell(24, col));
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

/// Runs every kernel-vs-reference comparison at `scale`.
pub fn run(scale: Scale) -> KernelBenchReport {
    let (reps, sgd_epochs) = match scale {
        Scale::Quick => (3, 20),
        Scale::Full => (15, 800),
    };
    let mut benches = Vec::new();

    // SVD per size: live arrivals decompose 25×{10, 14, 25, 32}
    // matrices, so 25×16 sits inside the live range and 25×81 (the
    // CI-ratcheted shape) is 2.5× wider than any of them; the square
    // one isolates the rotation-dominated regime.
    for (rows, cols, iters) in [(25usize, 16usize, 8usize), (25, 81, 6), (64, 64, 2)] {
        let a = svd_matrix(rows, cols);
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
        benches.push(KernelBench {
            name: format!("svd_{rows}x{cols}"),
            kernel_us,
            reference_us,
        });
    }

    // SGD train per density of a 25×81 matrix, then at the narrowest
    // and a wide live shape. Full scale uses the production epoch cap;
    // quick shrinks it so the CI smoke stays fast (the per-epoch inner
    // loop is identical either way). The untimed warmup call leaves the
    // kernel side's visit schedule memoised, as it is for every live
    // arrival after a process's first.
    let config = SgdConfig {
        max_epochs: sgd_epochs,
        ..SgdConfig::default()
    };
    let sgd_inputs = [30usize, 60, 95]
        .into_iter()
        .map(|density_pct| (format!("sgd_25x81_d{density_pct}"), sgd_input(density_pct)))
        .chain([25usize, 10].map(|cols| (format!("sgd_live_25x{cols}"), sgd_live_input(cols))));
    for (name, sparse) in sgd_inputs {
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
        benches.push(KernelBench {
            name,
            kernel_us,
            reference_us,
        });
    }

    // Rotation delta: 81 is the column length of the 25×81 bench
    // decomposition after the wide-input transpose; 4096 is a
    // cache-resident length where lane throughput, not loop overhead,
    // dominates.
    let rotations = vec![
        rotation_bench(reps, 81, 2048),
        rotation_bench(reps, 4096, 128),
    ];

    KernelBenchReport {
        scale,
        reps,
        benches,
        rotations,
    }
}

impl KernelBenchReport {
    /// Renders the result set as one JSON object
    /// (`quasar.bench_kernels.v4` schema).
    pub fn to_json(&self) -> String {
        let scale = match self.scale {
            Scale::Quick => "quick",
            Scale::Full => "full",
        };
        let num = |v: f64| quasar_obs::json::number((v * 1e3).round() / 1e3);
        let mut out = format!(
            "{{\"schema\":\"quasar.bench_kernels.v4\",\"scale\":\"{scale}\",\"reps\":{},\
             \"benches\":[",
            self.reps
        );
        for (i, b) in self.benches.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n{{\"name\":\"{}\",\"kernel_us\":{},\"reference_us\":{},\"speedup\":{}}}",
                quasar_obs::json::escape(&b.name),
                num(b.kernel_us),
                num(b.reference_us),
                num(b.speedup()),
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
        out.push_str("\n]}\n");
        out
    }
}

impl fmt::Display for KernelBenchReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut t = TextTable::new(format!(
            "CF kernel benches ({:?}, median of {} serial reps)",
            self.scale, self.reps
        ))
        .header(["bench", "kernel (us)", "reference (us)", "speedup"]);
        for b in &self.benches {
            t.row([
                b.name.clone(),
                format!("{:.1}", b.kernel_us),
                format!("{:.1}", b.reference_us),
                format!("{:.2}x", b.speedup()),
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
        write!(f, "{}", r.render())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_report_is_complete_and_valid_json() {
        let report = run(Scale::Quick);
        assert_eq!(report.benches.len(), 8);
        let names: Vec<&str> = report.benches.iter().map(|b| b.name.as_str()).collect();
        assert!(names.contains(&"svd_25x81"), "history-sized SVD present");
        assert!(names.contains(&"sgd_25x81_d60"));
        assert!(names.contains(&"sgd_live_25x25") && names.contains(&"sgd_live_25x10"));
        for b in &report.benches {
            assert!(b.kernel_us > 0.0 && b.reference_us > 0.0, "{}", b.name);
            assert!(b.speedup().is_finite());
        }
        assert_eq!(report.rotations.len(), 2);
        for r in &report.rotations {
            assert!(r.blocked_us > 0.0 && r.scalar_us > 0.0, "len {}", r.len);
        }
        let json = report.to_json();
        quasar_obs::json::validate(&json)
            .unwrap_or_else(|at| panic!("invalid bench JSON at byte {at}: {json}"));
        assert!(json.contains("\"schema\":\"quasar.bench_kernels.v4\""));
        let rendered = report.to_string();
        assert!(rendered.contains("svd_25x81"));
        assert!(rendered.contains("speedup"));
        assert!(rendered.contains("rotate_cols"));
    }

    #[test]
    fn live_inputs_have_the_live_shape_and_rank() {
        for (cols, entries) in [(10, 242), (25, 602)] {
            let sparse = sgd_live_input(cols);
            assert_eq!(sparse.len(), entries);
            let rank = PqModel::train(&sparse, &SgdConfig::default()).rank();
            assert!((1..=4).contains(&rank), "25x{cols} trained at rank {rank}");
        }
    }
}
