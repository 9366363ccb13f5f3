//! One workload, one process: set up, repeat, check, report.

use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::{Path, PathBuf};
use std::time::Instant;

use crate::adapter::{self, counter, Kind, Prepared, Repeat, RepeatOpts, StageTimes};
use crate::metrics::{Reading, Readings, END_TO_END, PER_LAYER};
use crate::score::{admit_sim_s, normalised_performance};
use crate::stats::{has_ten_beyond, mean, median, percentile_sorted, range_over_median, sort};

/// A workload at or above this normalised performance met its target.
const QOS_MET: f64 = 0.95;
/// Set-ups per end-to-end run; `setup_s` is their median.
const SETUPS: usize = 7;

/// What the command line asked for.
#[derive(Debug, Clone)]
pub struct Options {
    /// The workload to run.
    pub kind: Kind,
    /// Seed of every generated input.
    pub seed: u64,
    /// Measure for about this long (at least two repeats)...
    pub seconds: f64,
    /// ...or run exactly this many repeats.
    pub repeats: Option<usize>,
    /// Per-layer run instead of the end-to-end one.
    pub trace: bool,
    /// Small sizes: a quick pass over every check and metric name.
    pub smoke: bool,
    /// Where traces and scratch files go.
    pub out_dir: PathBuf,
}

/// The result of one process.
pub struct Outcome {
    /// Operations attempted: arrivals submitted per repeat.
    pub attempted: u64,
    /// Arrivals not placed by the horizon, lost or killed.
    pub failed: u64,
    /// Failed output checks, empty when the run is correct.
    pub problems: Vec<String>,
    /// Every declared metric of the chosen mode.
    pub readings: Vec<Reading>,
    /// Sample counts behind the pooled percentiles, for the report.
    pub notes: Vec<String>,
}

fn scratch_dir(opts: &Options) -> PathBuf {
    opts.out_dir.join(format!(
        "chunks-{}-{}",
        opts.kind.name(),
        std::process::id()
    ))
}

/// Peak resident set of this process in MB, from `/proc/self/status`.
fn peak_rss_mb() -> io::Result<f64> {
    let status = std::fs::read_to_string("/proc/self/status")?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| io::Error::other("no VmHWM in /proc/self/status"))
}

/// Simulated statistics of one repeat; equal bit for bit across repeats.
struct SimStats {
    placed: u64,
    admit_p50_s: f64,
    admit_p95_s: f64,
    norm_perf_mean: f64,
    qos_met_frac: f64,
    cpu_util_mean: f64,
}

fn sim_stats(prep: &Prepared, repeat: &Repeat) -> SimStats {
    let mut waits: Vec<f64> = repeat
        .fates
        .iter()
        .map(|f| admit_sim_s(f, prep.horizon_s))
        .collect();
    sort(&mut waits);
    let scores: Vec<f64> = prep
        .goals
        .iter()
        .zip(&repeat.fates)
        .map(|(goal, fate)| normalised_performance(goal, fate, prep.horizon_s))
        .collect();
    SimStats {
        placed: repeat.fates.iter().filter(|f| f.placed_s.is_some()).count() as u64,
        admit_p50_s: percentile_sorted(&waits, 0.50),
        admit_p95_s: percentile_sorted(&waits, 0.95),
        norm_perf_mean: mean(&scores),
        qos_met_frac: scores.iter().filter(|&&s| s >= QOS_MET).count() as f64 / scores.len() as f64,
        cpu_util_mean: repeat.cpu_util_mean,
    }
}

/// The checks every repeat must pass on its own.
fn check_repeat(prep: &Prepared, repeat: &Repeat, label: &str, problems: &mut Vec<String>) {
    let n = prep.arrivals() as u64;
    if repeat.arrival_calls.len() as u64 != n {
        problems.push(format!(
            "{label}: {} of {n} arrivals reached the manager",
            repeat.arrival_calls.len()
        ));
    }
    if repeat.accounted != n || repeat.killed != 0 {
        problems.push(format!(
            "{label}: {} of {n} arrivals are running, completed or pending ({} killed): \
             an arrival was dropped",
            repeat.accounted, repeat.killed
        ));
    }
    if repeat.replay_digest != repeat.journal_digest {
        problems.push(format!(
            "{label}: stored journal replays to {:016x}, live digest is {:016x}",
            repeat.replay_digest, repeat.journal_digest
        ));
    }
    let count = |name: &str| repeat.counters.get(name).copied().unwrap_or(0);
    let classified = count(counter::CLASSIFICATIONS);
    if prep.kind.uses_quasar() {
        // Every arrival is classified once, unless the similarity index
        // answered for it.
        let hits = count(counter::SIMILARITY_HITS);
        if classified + hits != n {
            problems.push(format!(
                "{label}: {classified} classifications and {hits} index hits for {n} arrivals"
            ));
        }
    } else {
        if classified != 0 {
            problems.push(format!("{label}: {classified} classifications under FIFO"));
        }
        if repeat.completed != n {
            problems.push(format!(
                "{label}: {} of {n} jobs completed by the horizon",
                repeat.completed
            ));
        }
    }
}

/// Two repeats of the same inputs must agree on every simulated outcome.
fn check_same(a: &Repeat, b: &Repeat, label: &str, problems: &mut Vec<String>) {
    if a.completion_digest != b.completion_digest {
        problems.push(format!(
            "{label}: completion digest differs between repeats"
        ));
    }
    if a.journal_digest != b.journal_digest {
        problems.push(format!(
            "{label}: journal stream digest differs between repeats"
        ));
    }
    if a.fates != b.fates || a.cpu_util_mean.to_bits() != b.cpu_util_mean.to_bits() {
        problems.push(format!(
            "{label}: simulated statistics differ between repeats"
        ));
    }
}

/// Arrivals that count as failed operations: unplaced at the horizon,
/// lost, or killed.
fn failed(n: u64, sim: &SimStats, repeat: &Repeat) -> u64 {
    n - sim.placed + (n - repeat.accounted.min(n)) + repeat.killed
}

/// Host microseconds of every `on_arrival` call of `repeats`, ascending.
fn pooled_wall_us(repeats: &[Repeat]) -> Vec<f64> {
    let mut all: Vec<f64> = repeats
        .iter()
        .flat_map(|r| r.arrival_calls.iter().map(|c| c.wall_ns as f64 / 1e3))
        .collect();
    sort(&mut all);
    all
}

/// The end-to-end run: several set-ups, timed repeats, no tracing.
pub fn run_end_to_end(opts: &Options) -> io::Result<Outcome> {
    let mut setup_times = Vec::with_capacity(SETUPS);
    let mut prep = adapter::setup(opts.kind, opts.seed, opts.smoke);
    setup_times.push(prep.setup_s);
    for _ in 1..SETUPS {
        drop(prep);
        prep = adapter::setup(opts.kind, opts.seed, opts.smoke);
        setup_times.push(prep.setup_s);
    }

    let scratch = scratch_dir(opts);
    let mut repeats: Vec<Repeat> = Vec::new();
    let started = Instant::now();
    loop {
        repeats.push(adapter::run_repeat(&prep, RepeatOpts::MEASURED, &scratch)?);
        let done = match opts.repeats {
            Some(n) => repeats.len() >= n,
            None => repeats.len() >= 2 && started.elapsed().as_secs_f64() >= opts.seconds,
        };
        if done {
            break;
        }
    }
    let mut problems = Vec::new();
    for (i, r) in repeats.iter().enumerate() {
        check_repeat(&prep, r, &format!("repeat {i}"), &mut problems);
        if i > 0 {
            check_same(&repeats[0], r, &format!("repeat {i}"), &mut problems);
        }
    }
    let sim = sim_stats(&prep, &repeats[0]);
    let n = prep.arrivals() as u64;

    let walls: Vec<f64> = repeats.iter().map(|r| r.wall_s).collect();
    let wall_s = median(&walls);
    let wall_spread = range_over_median(&walls);
    let pooled = pooled_wall_us(&repeats);
    let p50_per_repeat: Vec<f64> = repeats
        .iter()
        .map(|r| pooled_wall_us(std::slice::from_ref(r)))
        .map(|calls| percentile_sorted(&calls, 0.50))
        .collect();

    let mut out = Readings::new(&END_TO_END);
    out.set_with_spread(
        "setup_s",
        median(&setup_times),
        range_over_median(&setup_times),
    );
    out.set_with_spread("wall_s", wall_s, wall_spread);
    out.set_with_spread("jobs_placed_per_s", sim.placed as f64 / wall_s, wall_spread);
    out.set_with_spread("sim_s_per_wall_s", prep.horizon_s / wall_s, wall_spread);
    out.set_with_spread(
        "admit_wall_p50_us",
        percentile_sorted(&pooled, 0.50),
        range_over_median(&p50_per_repeat),
    );
    out.set("placed_frac", sim.placed as f64 / n as f64);
    out.set("norm_perf_mean", sim.norm_perf_mean);
    out.set("qos_met_frac", sim.qos_met_frac);
    // The tail is printed, not gated: over ten seeds its spread is wider
    // than any bound the benchmark may declare (see the README).
    let tail = [0.95, 0.99]
        .into_iter()
        .filter(|&p| has_ten_beyond(pooled.len(), p))
        .map(|p| format!(", p{} {} us", p * 100.0, percentile_sorted(&pooled, p)))
        .collect::<String>();
    let mut notes = vec![format!(
        "{} repeats of {n} arrivals on {} servers to {} simulated s; \
         on_arrival pooled over {} calls: p50 {} us{tail}",
        repeats.len(),
        prep.servers(),
        prep.horizon_s,
        pooled.len(),
        percentile_sorted(&pooled, 0.50),
    )];
    notes.push(format!(
        "completion digest {:016x}, journal digest {:016x}; wall_s per repeat {walls:?}",
        repeats[0].completion_digest, repeats[0].journal_digest
    ));
    Ok(Outcome {
        attempted: n,
        failed: failed(n, &sim, &repeats[0]),
        problems,
        readings: out.finish(),
        notes,
    })
}

/// Nearest-rank percentile of an unsorted sample; 0 for an empty one (a
/// stage the workload never runs).
fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    sort(&mut v);
    percentile_sorted(&v, p)
}

fn p50(values: &[f64]) -> f64 {
    percentile(values, 0.50)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Number and total host seconds of the spans called `name`.
fn calls_and_busy_s(repeat: &Repeat, name: &str) -> (f64, f64) {
    let spans = repeat.spans.spans().iter().filter(|s| s.name == name);
    spans.fold((0.0, 0.0), |(calls, busy_s), s| {
        (calls + 1.0, busy_s + (s.end_ns - s.start_ns) as f64 / 1e9)
    })
}

fn write_trace(path: &Path, traced: &Repeat, replay: &StageTimes) -> io::Result<()> {
    let mut out = BufWriter::new(File::create(path)?);
    traced.spans.write_jsonl(&mut out)?;
    replay.spans.write_jsonl(&mut out)?;
    out.flush()
}

/// The per-layer run: an untraced baseline repeat, a traced repeat, the
/// stage replay and CF kernels, a repeat under the program's own tracing
/// and one without a journal provider.
pub fn run_traced(opts: &Options) -> io::Result<Outcome> {
    let prep = adapter::setup(opts.kind, opts.seed, opts.smoke);
    let scratch = scratch_dir(opts);
    let base = adapter::run_repeat(&prep, RepeatOpts::MEASURED, &scratch)?;
    // The high-water mark of one measured repeat, before the traced
    // extras buffer their spans and events.
    let rss_mb = peak_rss_mb()?;
    let traced = adapter::run_repeat(
        &prep,
        RepeatOpts {
            spans: true,
            ..RepeatOpts::MEASURED
        },
        &scratch,
    )?;
    let replay = adapter::stage_replay(&prep, opts.seed);
    let kernels = adapter::kernel_times(&prep);
    let (trace_on, trace_events) = adapter::with_program_tracing(|| {
        adapter::run_repeat(&prep, RepeatOpts::MEASURED, &scratch)
    });
    let trace_on = trace_on?;
    let unjournaled = adapter::run_repeat(
        &prep,
        RepeatOpts {
            provider: false,
            ..RepeatOpts::MEASURED
        },
        &scratch,
    )?;

    let mut problems = Vec::new();
    check_repeat(&prep, &base, "baseline repeat", &mut problems);
    check_repeat(&prep, &traced, "traced repeat", &mut problems);
    check_same(&base, &traced, "traced repeat", &mut problems);
    check_same(
        &base,
        &trace_on,
        "repeat under program tracing",
        &mut problems,
    );
    if unjournaled.completion_digest != base.completion_digest {
        problems.push("repeat without a journal provider: completion digest differs".into());
    }

    // The manager spans and the driver's own time partition the wall.
    let own = traced.spans.self_times_ns();
    let sim_self_s: f64 = traced
        .spans
        .spans()
        .iter()
        .zip(&own)
        .filter(|(s, _)| s.parent.is_none())
        .map(|(_, &ns)| ns as f64 / 1e9)
        .sum();
    let (_, arrival_busy_s) = calls_and_busy_s(&traced, adapter::ON_ARRIVAL);
    let (tick_calls, tick_busy_s) = calls_and_busy_s(&traced, adapter::ON_TICK);
    let (completion_calls, completion_busy_s) = calls_and_busy_s(&traced, adapter::ON_COMPLETION);
    let manager_busy_s = arrival_busy_s + tick_busy_s + completion_busy_s;
    let parts = manager_busy_s + sim_self_s;
    if (parts - traced.wall_s).abs() > 0.01 * traced.wall_s {
        problems.push(format!(
            "traced repeat: layer times sum to {parts:.4} s, wall is {:.4} s",
            traced.wall_s
        ));
    }

    let lag_max = traced
        .arrival_calls
        .iter()
        .map(|c| c.delivered_s - prep.times_s[c.id as usize])
        .fold(0.0, f64::max);
    if lag_max > prep.tick_s() + 1e-6 {
        problems.push(format!(
            "traced repeat: an arrival was delivered {lag_max} s late, more than one tick"
        ));
    }

    let count = |name: &str| traced.counters.get(name).copied().unwrap_or(0) as f64;
    let arrivals = traced.arrival_calls.len() as f64;
    let wall_us = pooled_wall_us(std::slice::from_ref(&traced));
    let admit_p50_us = percentile_sorted(&wall_us, 0.50);
    let stage_sum_us = p50(&replay.profile_us)
        + p50(&replay.classify_us)
        + p50(&replay.plan_us)
        + p50(&replay.place_us);

    let sim = sim_stats(&prep, &base);
    let mut out = Readings::new(&PER_LAYER);
    out.set("sim.admit_p50_s", sim.admit_p50_s);
    out.set("sim.admit_p95_s", sim.admit_p95_s);
    out.set("sim.cpu_util_mean", sim.cpu_util_mean);
    out.set("process.peak_rss_mb", rss_mb);
    out.set("core.manager.on_arrival.calls", arrivals);
    out.set("core.manager.on_arrival.busy_s", arrival_busy_s);
    out.set(
        "core.manager.on_arrival.wall_us_p95",
        percentile_sorted(&wall_us, 0.95),
    );
    out.set("core.manager.on_tick.calls", tick_calls);
    out.set("core.manager.on_tick.busy_s", tick_busy_s);
    out.set("core.manager.on_completion.calls", completion_calls);
    out.set("core.manager.on_completion.busy_s", completion_busy_s);
    out.set(
        "core.manager.busy_frac",
        ratio(manager_busy_s, traced.wall_s),
    );
    out.set("cluster.sim.self_s", sim_self_s);
    out.set(
        "cluster.sim.self_us_per_tick",
        ratio(sim_self_s * 1e6, count(counter::TICKS)),
    );
    out.set("cluster.sim.delivery_lag_s_max", lag_max);
    out.set(
        "core.manager.on_arrival.allocs_per_call",
        ratio(
            traced.arrival_calls.iter().map(|c| c.allocs as f64).sum(),
            arrivals,
        ),
    );
    out.set(
        "core.manager.classifications",
        traced.manager.classifications as f64,
    );
    out.set(
        "core.manager.adaptations",
        traced.manager.adaptations as f64,
    );
    out.set("core.manager.evictions", traced.manager.evictions as f64);
    out.set(
        "core.manager.degraded_placements",
        traced.manager.degraded_placements as f64,
    );
    out.set("core.profile.call_us_p50", p50(&replay.profile_us));
    out.set(
        "core.profile.sim_wall_s_mean",
        mean(&replay.profile_sim_wall_s),
    );
    out.set("core.classify.call_us_p50", p50(&replay.classify_us));
    out.set(
        "core.classify.call_us_p90",
        percentile(&replay.classify_us, 0.90),
    );
    out.set(
        "core.classify.t2_speedup",
        ratio(p50(&replay.classify_us), p50(&replay.classify_t2_us)),
    );
    out.set("core.similarity.query_us_p50", p50(&replay.similarity_us));
    out.set("core.greedy.plan.call_us_p50", p50(&replay.plan_us));
    out.set("cluster.world.place.call_us_p50", p50(&replay.place_us));
    out.set(
        "core.manager.on_arrival.unattributed_frac",
        if replay.profile_us.is_empty() {
            0.0
        } else {
            1.0 - ratio(stage_sum_us, admit_p50_us)
        },
    );
    out.set("cf.svd.call_us_p50", p50(&kernels.svd_us));
    out.set("cf.sgd_train.call_us_p50", p50(&kernels.sgd_train_us));
    out.set(
        "cf.reconstruct_row.call_us_p50",
        p50(&kernels.reconstruct_row_us),
    );
    let classified = count(counter::CLASSIFICATIONS);
    out.set("core.classify.calls", classified);
    out.set(
        "cf.sgd.epochs_per_classify",
        ratio(count(counter::SGD_EPOCHS), classified),
    );
    out.set(
        "cf.svd.sweeps_per_classify",
        ratio(count(counter::SVD_SWEEPS), classified),
    );
    out.set(
        "cf.row_cache.hit_frac",
        ratio(
            count(counter::ROW_CACHE_HITS),
            count(counter::ROW_CACHE_HITS) + count(counter::ROW_CACHE_MISSES),
        ),
    );
    let (hits, misses, warm) = (
        count(counter::SIMILARITY_HITS),
        count(counter::SIMILARITY_MISSES),
        count(counter::SIMILARITY_WARM),
    );
    out.set("core.similarity.hits", hits);
    out.set("core.similarity.misses", misses);
    out.set("core.similarity.warm_starts", warm);
    out.set(
        "core.similarity.hit_frac",
        ratio(hits, hits + misses + warm),
    );
    out.set("core.greedy.plans", count(counter::GREEDY_PLANS));
    out.set(
        "core.greedy.plans_per_placement",
        ratio(count(counter::GREEDY_PLANS), count(counter::PLACEMENTS)),
    );
    out.set("cluster.world.placements", count(counter::PLACEMENTS));
    out.set("cluster.world.ticks", count(counter::TICKS));
    out.set(
        "cluster.sim.events_delivered",
        count(counter::EVENTS_DELIVERED),
    );
    out.set("cluster.sim.ticks_skipped", count(counter::TICKS_SKIPPED));
    out.set(
        "cluster.sim.events_per_s",
        ratio(
            count(counter::EVENTS_DELIVERED) + count(counter::JOURNAL_EVENTS),
            traced.wall_s,
        ),
    );
    out.set("cluster.journal.events", count(counter::JOURNAL_EVENTS));
    out.set(
        "cluster.journal.chunk_flushes",
        count(counter::CHUNK_FLUSHES),
    );
    out.set("cluster.journal.replay_s", traced.replay_s);
    out.set(
        "cluster.journal.attach_overhead_frac",
        ratio(base.wall_s, unjournaled.wall_s) - 1.0,
    );
    out.set("cluster.qos.episodes", count(counter::QOS_EPISODES));
    out.set("cluster.qos.incidents", count(counter::QOS_INCIDENTS));
    out.set(
        "cluster.qos.violating_ticks",
        count(counter::QOS_VIOLATING_TICKS),
    );
    out.set("core.par.jobs", count(counter::PAR_JOBS));
    out.set("core.par.items", count(counter::PAR_ITEMS));
    out.set("core.history.bootstrap_s", prep.bootstrap_s);
    out.set("workloads.generate.fleet_s", prep.fleet_s);
    out.set(
        "obs.bench_span_overhead_frac",
        ratio(traced.wall_s, base.wall_s) - 1.0,
    );
    out.set(
        "obs.trace_on_overhead_frac",
        ratio(trace_on.wall_s, base.wall_s) - 1.0,
    );
    out.set("obs.trace.events", trace_events as f64);

    let trace_path = opts
        .out_dir
        .join(format!("{}.trace.jsonl", opts.kind.name()));
    write_trace(&trace_path, &traced, &replay)?;

    let n = prep.arrivals() as u64;
    let notes = vec![
        format!(
            "traced repeat wall {:.4} s = on_arrival {arrival_busy_s:.4} + on_tick {tick_busy_s:.4} \
             + on_completion {completion_busy_s:.4} + sim self {sim_self_s:.4}",
            traced.wall_s
        ),
        format!(
            "stage replay over {} arrivals, kernels over {} calls; {} spans in {}",
            replay.profile_us.len(),
            kernels.svd_us.len(),
            traced.spans.spans().len() + replay.spans.spans().len(),
            trace_path.display()
        ),
    ];
    Ok(Outcome {
        attempted: n,
        failed: failed(n, &sim, &base),
        problems,
        readings: out.finish(),
        notes,
    })
}
