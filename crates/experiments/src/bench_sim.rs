//! `bench-sim`: one deterministic run of the event-driven simulator
//! core, with chunked journal persistence and mid-run resumability
//! (throughput is `benchmark/`'s `sim_stream` workload, which drives the
//! same job stream, manager and chunk store).
//!
//! Streams `N` batch jobs through a [`FifoGreedy`] manager on the
//! paper's 40-server local cluster, with the journal flushed through a
//! [`FileChunks`] store so memory stays bounded (completed entries are
//! dropped via [`Retention::DropCompleted`], the journal ring is
//! fixed-size, and sealed chunks land on disk). The workload stream is
//! *index-addressable* — job `k` is a pure function of `(seed, k)` via
//! [`bench_job`] — so a resumed run regenerates exactly the workloads
//! it needs in O(1) each instead of replaying a sequential generator.
//!
//! Everything except wall-clock time is deterministic: the outcome
//! block (completion digest, journal stream digest, metrics count,
//! final clock) is byte-identical across runs and across a
//! halt → snapshot → resume boundary. CI compares those outcome blocks
//! with wall-time fields masked.
//!
//! Time-grid discipline makes the resume equality exact: arrivals land
//! on multiples of [`ARRIVAL_INTERVAL_S`] (= the tick), submission-wave
//! boundaries and drain checkpoints sit on absolute grids shared by
//! every run, and `--halt-at-s` must be a tick multiple — so an
//! interrupted run and an uninterrupted one visit bitwise-identical
//! clock instants.

use std::fmt;
use std::io;
use std::path::Path;
use std::time::Instant;

use quasar_cluster::chunk::FileChunks;
use quasar_cluster::snapshot;
use quasar_cluster::{
    ChunkProvider, ClusterSpec, FifoGreedy, JobState, Manager, Retention, SimConfig, Simulation,
};
use quasar_workloads::generate::bench_job;
use quasar_workloads::{PlatformCatalog, Workload, WorkloadId};

use crate::report::mask_live_timings;

/// Simulation tick (seconds). Arrivals, wave boundaries, drain
/// checkpoints, and `--halt-at-s` all sit on multiples of this.
pub const TICK_S: f64 = 5.0;
/// One job arrives every this many seconds (equal to the tick, so
/// arrivals land exactly on tick boundaries).
pub const ARRIVAL_INTERVAL_S: f64 = 5.0;
/// Calibrated single-node duration of each bench job (seconds on the
/// catalog's highest-end server; several times longer on the 4-core
/// slice the FIFO manager actually grants).
pub const JOB_DURATION_S: f64 = 30.0;
/// Utilization sampling interval (seconds).
pub const METRICS_INTERVAL_S: f64 = 300.0;
/// Seed for the index-addressable workload stream.
pub const SEED: u64 = 0xB54C;
/// Jobs submitted per wave; bounds the event heap at any instant.
pub const WAVE: u64 = 10_000;
/// Journal events per sealed chunk.
pub const CHUNK_CAP: usize = 4096;
/// Servers per platform in the bench cluster (x 10 platforms = 40).
pub const PER_PLATFORM: usize = 4;
/// Absolute grid (seconds) for drain-phase idle checkpoints. Anchoring
/// these to multiples of a fixed grid — not to `now + delta` — keeps
/// the final clock identical between interrupted and uninterrupted
/// runs.
pub const DRAIN_GRID_S: f64 = 3_600.0;

/// Schema tag on the first line of a bench-sim harness snapshot (the
/// embedded simulator snapshot follows on the next line).
pub const BENCH_SNAPSHOT_SCHEMA: &str = "quasar.bench_sim.snapshot.v1";

fn config() -> SimConfig {
    SimConfig {
        tick_s: TICK_S,
        noise: 0.0,
        metrics_interval_s: METRICS_INTERVAL_S,
        seed: SEED,
    }
}

fn cluster() -> ClusterSpec {
    ClusterSpec::uniform(PlatformCatalog::local(), PER_PLATFORM)
}

fn manager() -> Box<dyn Manager> {
    Box::new(FifoGreedy::new(4, 4.0))
}

/// The `k`-th job of the bench stream — a pure function of `k`, so any
/// run (fresh or resumed) regenerates exactly the same workload.
pub fn job(k: u64) -> Workload {
    bench_job(&PlatformCatalog::local(), SEED, k, JOB_DURATION_S)
}

fn t_of(k: u64) -> f64 {
    k as f64 * ARRIVAL_INTERVAL_S
}

fn err(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

/// One completed bench run's deterministic outcome plus wall time.
#[derive(Debug, Clone)]
pub struct SimBenchRun {
    /// Jobs streamed through the run.
    pub jobs: u64,
    /// Logical events processed: arrivals + journal events + metrics
    /// samples.
    pub events: u64,
    /// Final simulated clock (seconds); a drain-grid multiple.
    pub sim_s: f64,
    /// Jobs that ran to completion (retired + still-held completed).
    pub completed: u64,
    /// FNV-1a completion digest — the run's outcome identity.
    pub digest: u64,
    /// Journal events streamed through the chunk pipeline.
    pub journal_events: u64,
    /// Journal stream digest (chunk-boundary independent).
    pub journal_digest: u64,
    /// Sealed chunks in the store at the end of the run.
    pub chunks: u64,
    /// Utilization samples recorded on the metrics grid.
    pub metrics_samples: u64,
    /// Wall-clock seconds for this process's portion of the run.
    pub wall_s: f64,
}

impl SimBenchRun {
    /// Logical events per wall-clock second.
    pub fn events_per_sec(&self) -> f64 {
        self.events as f64 / self.wall_s.max(1e-9)
    }

    /// The deterministic fields only — everything compared across a
    /// snapshot/resume boundary.
    pub fn outcome_key(&self) -> (u64, u64, u64, u64, u64, u64, u64, u64) {
        (
            self.jobs,
            self.events,
            self.sim_s.to_bits(),
            self.completed,
            self.digest,
            self.journal_events,
            self.journal_digest,
            self.metrics_samples,
        )
    }
}

impl fmt::Display for SimBenchRun {
    /// The stable outcome block `bench-sim --jobs N` prints: every
    /// deterministic field verbatim, wall-time fields masked to `-`
    /// under [`mask_live_timings`].
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "bench-sim outcome")?;
        writeln!(f, "jobs {}", self.jobs)?;
        writeln!(f, "events {}", self.events)?;
        writeln!(f, "sim_s {}", self.sim_s)?;
        writeln!(f, "completed {}", self.completed)?;
        writeln!(f, "digest {:016x}", self.digest)?;
        writeln!(f, "journal_events {}", self.journal_events)?;
        writeln!(f, "journal_digest {:016x}", self.journal_digest)?;
        // Chunk count is deliberately absent: a halted run seals its
        // open chunk at the snapshot, so a resumed run can carry one
        // more chunk boundary than an uninterrupted one while the
        // stream digest stays identical.
        writeln!(f, "metrics_samples {}", self.metrics_samples)?;
        if mask_live_timings() {
            writeln!(f, "wall_s -")?;
            writeln!(f, "events_per_sec -")
        } else {
            writeln!(f, "wall_s {:.3}", self.wall_s)?;
            writeln!(f, "events_per_sec {:.0}", self.events_per_sec())
        }
    }
}

/// What a bench invocation produced: a finished outcome, or a halt
/// with a snapshot on disk.
#[derive(Debug)]
pub enum RunOutcome {
    /// The run drained to idle; full outcome attached.
    Done(SimBenchRun),
    /// The run stopped at `--halt-at-s`; resume with the snapshot.
    Halted {
        /// Simulated clock at the halt (equals `--halt-at-s`).
        at_s: f64,
    },
}

/// Runs the wave loop: submit a wave, advance to its boundary, repeat;
/// then drain on the absolute [`DRAIN_GRID_S`] grid until idle.
/// Returns `(cursor, halted)`.
fn drive(sim: &mut Simulation, jobs: u64, mut cursor: u64, halt_at_s: Option<f64>) -> (u64, bool) {
    loop {
        if cursor < jobs {
            let end = (cursor + WAVE).min(jobs);
            for k in cursor..end {
                sim.submit_at(job(k), t_of(k));
            }
            cursor = end;
            if !run_seg(sim, t_of(end), halt_at_s) {
                return (cursor, true);
            }
        } else if sim.world().is_idle() {
            return (cursor, false);
        } else {
            let next = (sim.world().now() / DRAIN_GRID_S).floor() * DRAIN_GRID_S + DRAIN_GRID_S;
            if !run_seg(sim, next, halt_at_s) {
                return (cursor, true);
            }
        }
    }
}

/// Advances to `seg_end_s`, stopping at the halt point if it falls
/// inside the segment. Returns `false` once the halt is reached.
fn run_seg(sim: &mut Simulation, seg_end_s: f64, halt_at_s: Option<f64>) -> bool {
    let now = sim.world().now();
    match halt_at_s {
        Some(h) if h <= now => false,
        Some(h) if h < seg_end_s => {
            sim.run_until(h);
            false
        }
        _ => {
            sim.run_until(seg_end_s);
            true
        }
    }
}

fn outcome(sim: &mut Simulation, jobs: u64, wall_s: f64) -> SimBenchRun {
    sim.world_mut().journal_mut().seal_open_chunk();
    let world = sim.world();
    SimBenchRun {
        jobs,
        events: jobs + world.journal().streamed() + world.metrics().total_count(),
        sim_s: world.now(),
        completed: world.retired_count() + world.count_in_state(JobState::Completed) as u64,
        digest: world.completion_digest(),
        journal_events: world.journal().streamed(),
        journal_digest: world.journal().stream_digest(),
        chunks: world.journal().provider().map_or(0, ChunkProvider::count),
        metrics_samples: world.metrics().total_count(),
        wall_s,
    }
}

/// Runs `jobs` bench jobs from scratch, journaling chunks into
/// `chunk_dir` (which must hold no prior chunks).
///
/// With `halt` = `(halt_at_s, snapshot_path)`, the run stops at
/// `halt_at_s` (validated as a positive tick multiple), writes a
/// harness snapshot there, and returns [`RunOutcome::Halted`]; if the
/// run drains before the halt point, it completes normally and no
/// snapshot is written.
pub fn run_fresh(
    jobs: u64,
    chunk_dir: &Path,
    halt: Option<(f64, &Path)>,
) -> io::Result<RunOutcome> {
    if let Some((h, _)) = halt {
        // `h <= 0.0` (not `!(h > 0.0)`) would wave NaN through.
        let on_grid = h > 0.0 && (h / TICK_S).fract() == 0.0;
        if !on_grid {
            return Err(err(format!(
                "--halt-at-s must be a positive multiple of the {TICK_S}s tick, got {h}"
            )));
        }
    }
    let store = FileChunks::open(chunk_dir)?;
    if store.count() != 0 {
        return Err(err(format!(
            "chunk dir {} already holds {} chunks; fresh runs need an empty store",
            chunk_dir.display(),
            store.count()
        )));
    }
    let t0 = Instant::now();
    let mut sim = Simulation::new(cluster(), manager(), config());
    sim.world_mut().set_retention(Retention::DropCompleted);
    sim.world_mut()
        .journal_mut()
        .attach_provider(CHUNK_CAP, Box::new(store));

    let (cursor, halted) = drive(&mut sim, jobs, 0, halt.map(|(h, _)| h));
    if halted {
        let (at_s, path) = halt.expect("halted implies a halt spec");
        let text = format!(
            "{BENCH_SNAPSHOT_SCHEMA} jobs={jobs} next_job={cursor}\n{}",
            snapshot::snapshot(&mut sim)?
        );
        std::fs::write(path, text)?;
        return Ok(RunOutcome::Halted { at_s });
    }
    Ok(RunOutcome::Done(outcome(
        &mut sim,
        jobs,
        t0.elapsed().as_secs_f64(),
    )))
}

/// Resumes a halted bench run from its harness snapshot and the chunk
/// directory the halted run journaled into, then drains to completion.
/// The finished outcome is byte-identical to an uninterrupted run's.
pub fn run_resumed(snapshot_path: &Path, chunk_dir: &Path) -> io::Result<RunOutcome> {
    let text = std::fs::read_to_string(snapshot_path)?;
    let (header, rest) = text
        .split_once('\n')
        .ok_or_else(|| err("empty bench snapshot".into()))?;
    let mut fields = header.split(' ');
    if fields.next() != Some(BENCH_SNAPSHOT_SCHEMA) {
        return Err(err(format!("bad bench snapshot header: {header:?}")));
    }
    let mut field = |name: &str| -> io::Result<u64> {
        fields
            .next()
            .and_then(|f| f.strip_prefix(name))
            .and_then(|f| f.strip_prefix('='))
            .and_then(|f| f.parse().ok())
            .ok_or_else(|| err(format!("missing header field {name}")))
    };
    let jobs = field("jobs")?;
    let cursor = field("next_job")?;

    let t0 = Instant::now();
    let mut sim = snapshot::resume(
        cluster(),
        manager(),
        config(),
        rest,
        Some((CHUNK_CAP, Box::new(FileChunks::open(chunk_dir)?))),
        &mut |id: WorkloadId| job(id.0),
    )?;
    let (_, halted) = drive(&mut sim, jobs, cursor, None);
    debug_assert!(!halted);
    Ok(RunOutcome::Done(outcome(
        &mut sim,
        jobs,
        t0.elapsed().as_secs_f64(),
    )))
}

#[cfg(test)]
mod tests {
    use super::*;
    use quasar_cluster::chunk::replay_digest;

    fn temp(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!(
            "quasar-bench-sim-test-{}-{tag}",
            std::process::id()
        ))
    }

    fn done(outcome: RunOutcome) -> SimBenchRun {
        match outcome {
            RunOutcome::Done(run) => run,
            RunOutcome::Halted { at_s } => panic!("unexpected halt at {at_s}"),
        }
    }

    /// The CLI-level resumability guarantee: a run halted at a tick
    /// multiple and resumed from its snapshot file (plus the same chunk
    /// dir) finishes with an outcome byte-identical to an uninterrupted
    /// run's, and the chunk stream on disk replays to the live digest.
    #[test]
    fn halted_and_resumed_run_matches_uninterrupted() {
        let (dir_a, dir_b) = (temp("full"), temp("resumed"));
        let snap = temp("snap.txt");
        for d in [&dir_a, &dir_b] {
            let _ = std::fs::remove_dir_all(d);
        }

        let full = done(run_fresh(120, &dir_a, None).unwrap());
        assert_eq!(full.completed, 120, "all jobs must finish");
        assert!(
            full.sim_s <= 2.0 * DRAIN_GRID_S,
            "jobs drain promptly (got {})",
            full.sim_s
        );
        assert!(full.chunks >= 1, "journal must have sealed chunks");

        match run_fresh(120, &dir_b, Some((300.0, &snap))).unwrap() {
            RunOutcome::Halted { at_s } => assert_eq!(at_s, 300.0),
            RunOutcome::Done(_) => panic!("run must halt at 300s"),
        }
        let resumed = done(run_resumed(&snap, &dir_b).unwrap());
        assert_eq!(full.outcome_key(), resumed.outcome_key());
        // The mid-run seal may add one chunk boundary, never remove one.
        assert!(resumed.chunks >= full.chunks);

        let store = FileChunks::open(&dir_b).unwrap();
        assert_eq!(replay_digest(&store).unwrap(), resumed.journal_digest);

        for d in [&dir_a, &dir_b] {
            let _ = std::fs::remove_dir_all(d);
        }
        let _ = std::fs::remove_file(&snap);
    }

    #[test]
    fn halt_off_the_tick_grid_is_rejected() {
        let dir = temp("offgrid");
        let _ = std::fs::remove_dir_all(&dir);
        let snap = temp("offgrid-snap.txt");
        assert!(run_fresh(10, &dir, Some((7.5, &snap))).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
