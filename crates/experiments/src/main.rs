//! CLI for the Quasar reproduction experiments.
//!
//! ```text
//! quasar-experiments <id>... [--full] [--threads N]
//! quasar-experiments all [--full] [--threads N]
//! quasar-experiments trace <id> [--full] [--threads N]
//!                    [--trace-out PATH] [--jsonl-out PATH]
//! quasar-experiments bench-kernels [--full] [--json] [--out PATH]
//! quasar-experiments bench-sim --jobs N [--halt-at-s T --snapshot-out PATH]
//!                    [--chunk-dir PATH]
//! quasar-experiments bench-sim --resume PATH [--chunk-dir PATH]
//! quasar-experiments qos-report <fig> [--full] [--threads N]
//! ```
//!
//! `--threads N` sets the worker count for experiments that fan out
//! over the deterministic parallel runner (default: the machine's
//! available parallelism; `--threads 1` forces the serial path). The
//! printed reports are bit-identical for every thread count.
//!
//! `bench-kernels` times the flat-slice CF math kernels against their
//! frozen pre-refactor references (median of N serial reps; `--full`
//! raises the reps and uses the production SGD epoch cap). `--json`
//! additionally writes the machine-readable result to `--out PATH`
//! (default `BENCH_kernels.json`).
//!
//! `bench-sim --jobs N` streams N jobs through the event-driven
//! simulator, journaling through a file-backed chunk store, and prints
//! a deterministic outcome block; add `--halt-at-s T --snapshot-out
//! PATH` to stop mid-run and persist a resumable snapshot, and
//! `--resume PATH` to continue one (reusing the same `--chunk-dir`).
//! The outcome block is byte-identical across a halt/resume boundary.
//! Throughput and latency numbers come from `benchmark/`, not from here.
//!
//! `qos-report <fig>` reruns one figure's scenario (fig6/fig7/fig9/
//! fig10) with the QoS violation ledger enabled and prints the
//! per-cause episode breakdown for every manager run, writing the
//! breakdown CSV and the `quasar.qos.incident.v1` incident JSONL under
//! `target/experiment-results/qos/`. The table is byte-identical across
//! `--threads` values.
//!
//! `trace <id>` runs one experiment with span collection enabled and
//! exports the telemetry: a Chrome `trace_event` JSON (load it in
//! Perfetto or `chrome://tracing`) to `--trace-out PATH`, a JSONL
//! event+metric stream to `--jsonl-out PATH` (to stderr when neither
//! flag is given), plus a per-run summary table on stdout. Under
//! `QUASAR_MASK_TIMINGS` both exports drop wall-clock fields and order
//! records by logical keys, so the files are byte-identical across
//! `--threads` values.

use quasar_core::par::available_threads;
use quasar_experiments::report::{mask_live_timings, telemetry_summary};
use quasar_experiments::{run_experiment_with, Scale, EXPERIMENT_IDS};
use quasar_obs::trace::{export_chrome, export_jsonl};

fn usage() -> ! {
    eprintln!(
        "usage: quasar-experiments <id>... [--full] [--threads N]\n\
         \x20      quasar-experiments trace <id> [--full] [--threads N] \
         [--trace-out PATH] [--jsonl-out PATH]\n\
         \x20      quasar-experiments bench-kernels [--full] [--json] [--out PATH]\n\
         \x20      quasar-experiments bench-sim --jobs N [--halt-at-s T \
         --snapshot-out PATH] [--chunk-dir PATH]\n\
         \x20      quasar-experiments bench-sim --resume PATH [--chunk-dir PATH]\n\
         \x20      quasar-experiments qos-report <fig> [--full] [--threads N]"
    );
    eprintln!("ids: all {}", EXPERIMENT_IDS.join(" "));
    std::process::exit(2);
}

struct Options {
    scale: Scale,
    threads: usize,
    ids: Vec<String>,
    trace_mode: bool,
    trace_out: Option<String>,
    jsonl_out: Option<String>,
    bench_mode: bool,
    bench_json: bool,
    bench_out: Option<String>,
    bench_sim_mode: bool,
    qos_report_mode: bool,
    sim_jobs: Option<u64>,
    sim_halt_at_s: Option<f64>,
    sim_snapshot_out: Option<String>,
    sim_resume: Option<String>,
    sim_chunk_dir: Option<String>,
}

fn parse_args(args: &[String]) -> Options {
    let mut opts = Options {
        scale: Scale::Quick,
        threads: available_threads(),
        ids: Vec::new(),
        trace_mode: false,
        trace_out: None,
        jsonl_out: None,
        bench_mode: false,
        bench_json: false,
        bench_out: None,
        bench_sim_mode: false,
        qos_report_mode: false,
        sim_jobs: None,
        sim_halt_at_s: None,
        sim_snapshot_out: None,
        sim_resume: None,
        sim_chunk_dir: None,
    };
    let path_flag = |args: &[String], i: &mut usize| -> String {
        *i += 1;
        args.get(*i).cloned().unwrap_or_else(|| {
            eprintln!("{} needs a path", args[*i - 1]);
            usage()
        })
    };
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--full" => opts.scale = Scale::Full,
            "--threads" => {
                i += 1;
                opts.threads = args
                    .get(i)
                    .and_then(|v| v.parse::<usize>().ok())
                    .filter(|&n| n >= 1)
                    .unwrap_or_else(|| {
                        eprintln!("--threads needs a positive integer");
                        usage()
                    });
            }
            "--trace-out" => opts.trace_out = Some(path_flag(args, &mut i)),
            "--jsonl-out" => opts.jsonl_out = Some(path_flag(args, &mut i)),
            "--json" => opts.bench_json = true,
            "--out" => opts.bench_out = Some(path_flag(args, &mut i)),
            "--jobs" => {
                i += 1;
                opts.sim_jobs = args.get(i).and_then(|v| v.parse::<u64>().ok()).or_else(|| {
                    eprintln!("--jobs needs a non-negative integer");
                    usage()
                });
            }
            "--halt-at-s" => {
                i += 1;
                opts.sim_halt_at_s =
                    args.get(i).and_then(|v| v.parse::<f64>().ok()).or_else(|| {
                        eprintln!("--halt-at-s needs a number of seconds");
                        usage()
                    });
            }
            "--snapshot-out" => opts.sim_snapshot_out = Some(path_flag(args, &mut i)),
            "--resume" => opts.sim_resume = Some(path_flag(args, &mut i)),
            "--chunk-dir" => opts.sim_chunk_dir = Some(path_flag(args, &mut i)),
            a if a.starts_with("--") => {
                eprintln!("unknown flag: {a}");
                usage();
            }
            "trace" if opts.ids.is_empty() && !opts.trace_mode => opts.trace_mode = true,
            "bench-kernels" if opts.ids.is_empty() && !opts.bench_mode => opts.bench_mode = true,
            "bench-sim" if opts.ids.is_empty() && !opts.bench_sim_mode => {
                opts.bench_sim_mode = true
            }
            "qos-report" if opts.ids.is_empty() && !opts.qos_report_mode => {
                opts.qos_report_mode = true
            }
            a => opts.ids.push(a.to_string()),
        }
        i += 1;
    }
    if opts.ids.is_empty() && !opts.bench_mode && !opts.bench_sim_mode {
        usage();
    }
    opts
}

/// Runs one experiment, printing its report to stdout and diagnostics
/// to stderr (so result stdout can be diffed across `--threads`
/// values). Every report's columns are pure functions of the seeds
/// except the live decision-time measurements, which print as `-` when
/// `QUASAR_MASK_TIMINGS` is set (as in the CI smoke that cmp's stdout).
fn run_one(id: &str, scale: Scale, threads: usize) {
    eprintln!("[{id}: {scale:?}, {threads} threads]");
    let (report, wall_us) = quasar_obs::span::timed("experiments.run", || {
        run_experiment_with(id, scale, threads)
    });
    match report {
        Some(report) => {
            println!("###### {id} ({scale:?}) ######");
            println!("{report}");
            eprintln!("[{id} completed in {:.1}s]", wall_us / 1e6);
        }
        None => {
            eprintln!("unknown experiment id: {id}");
            usage();
        }
    }
}

fn write_or_fail(path: &str, contents: &str, what: &str) {
    if let Err(e) = std::fs::write(path, contents) {
        eprintln!("failed to write {what} to {path}: {e}");
        std::process::exit(1);
    }
    eprintln!("[{what} written to {path}]");
}

fn run_trace(opts: &Options) {
    let id = match opts.ids.as_slice() {
        [id] if id != "all" => id.as_str(),
        _ => {
            eprintln!("trace takes exactly one experiment id");
            usage();
        }
    };
    // Start both the registry and the event buffer from zero so the
    // exports and the summary table cover exactly this run.
    quasar_obs::Registry::global().reset();
    quasar_obs::trace::enable();
    run_one(id, opts.scale, opts.threads);
    let events = quasar_obs::trace::drain();
    let dropped = quasar_obs::trace::dropped_events();
    if dropped > 0 {
        eprintln!("[warning: {dropped} trace events dropped at the buffer cap]");
    }

    let masked = mask_live_timings();
    let snapshot = quasar_obs::Registry::global().snapshot();
    let chrome = export_chrome(&events, masked);
    let jsonl = export_jsonl(&events, masked, Some(&snapshot));
    match &opts.trace_out {
        Some(path) => write_or_fail(path, &chrome, "chrome trace"),
        None if opts.jsonl_out.is_none() => eprint!("{jsonl}"),
        None => {}
    }
    if let Some(path) = &opts.jsonl_out {
        write_or_fail(path, &jsonl, "jsonl telemetry");
    }
    println!("{}", telemetry_summary());
}

fn run_bench_kernels(opts: &Options) {
    if !opts.ids.is_empty() {
        eprintln!("bench-kernels takes no experiment ids");
        usage();
    }
    let report = quasar_experiments::bench_kernels::run(opts.scale);
    println!("{report}");
    if opts.bench_json {
        let path = opts.bench_out.as_deref().unwrap_or("BENCH_kernels.json");
        write_or_fail(path, &report.to_json(), "kernel bench results");
    }
}

/// `bench-sim` dispatch: a single deterministic run (`--jobs N`) with
/// optional halt/snapshot, or the resumption of one (`--resume PATH`).
fn run_bench_sim(opts: &Options) {
    use quasar_experiments::bench_sim::{self, RunOutcome};

    if !opts.ids.is_empty() {
        eprintln!("bench-sim takes no experiment ids");
        usage();
    }
    let fail = |what: &str, e: std::io::Error| -> ! {
        eprintln!("bench-sim {what} failed: {e}");
        std::process::exit(1);
    };
    let print_done = |outcome: RunOutcome, what: &str| match outcome {
        RunOutcome::Done(run) => print!("{run}"),
        RunOutcome::Halted { at_s } => {
            eprintln!("bench-sim {what}: unexpected halt at {at_s}");
            std::process::exit(1);
        }
    };

    if let Some(snapshot) = &opts.sim_resume {
        // Resume a halted run: same chunk dir the halted run wrote.
        let chunk_dir = opts
            .sim_chunk_dir
            .clone()
            .unwrap_or_else(|| format!("{snapshot}.chunks"));
        match bench_sim::run_resumed(snapshot.as_ref(), chunk_dir.as_ref()) {
            Ok(outcome) => print_done(outcome, "resume"),
            Err(e) => fail("resume", e),
        }
        return;
    }

    let Some(jobs) = opts.sim_jobs else {
        eprintln!("bench-sim needs --jobs N or --resume PATH");
        usage();
    };
    // Fresh run, optionally halting mid-way.
    let halt = match (&opts.sim_halt_at_s, &opts.sim_snapshot_out) {
        (Some(at_s), Some(path)) => Some((*at_s, path.clone())),
        (None, None) => None,
        _ => {
            eprintln!("--halt-at-s and --snapshot-out go together");
            usage();
        }
    };
    let (chunk_dir, temp) = match (&opts.sim_chunk_dir, &opts.sim_snapshot_out) {
        (Some(dir), _) => (dir.clone(), false),
        (None, Some(snapshot)) => (format!("{snapshot}.chunks"), false),
        (None, None) => {
            let dir =
                std::env::temp_dir().join(format!("quasar-bench-sim-cli-{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            (dir.to_string_lossy().into_owned(), true)
        }
    };
    let halt_ref = halt.as_ref().map(|(t, p)| (*t, std::path::Path::new(p)));
    let result = bench_sim::run_fresh(jobs, chunk_dir.as_ref(), halt_ref);
    if temp {
        let _ = std::fs::remove_dir_all(&chunk_dir);
    }
    match result {
        Ok(RunOutcome::Halted { at_s }) => {
            eprintln!(
                "[halted at {at_s}s; snapshot written to {}]",
                opts.sim_snapshot_out.as_deref().unwrap_or("?"),
            );
        }
        Ok(outcome) => print_done(outcome, "run"),
        Err(e) => fail("run", e),
    }
}

/// `qos-report <fig>`: rerun one figure's scenario and print the
/// per-cause QoS violation breakdown (the ledger CSV and the incident
/// JSONL land under `target/experiment-results/qos/`).
fn run_qos_report(opts: &Options) {
    let fig = match opts.ids.as_slice() {
        [id] if id != "all" => id.as_str(),
        _ => {
            eprintln!(
                "qos-report takes exactly one figure id ({})",
                quasar_experiments::qos_report::QOS_REPORT_IDS.join(" ")
            );
            usage();
        }
    };
    eprintln!(
        "[qos-report {fig}: {:?}, {} threads]",
        opts.scale, opts.threads
    );
    match quasar_experiments::qos_report::run_with(fig, opts.scale, opts.threads) {
        Some(report) => {
            println!("###### qos-report {fig} ({:?}) ######", opts.scale);
            print!("{report}");
        }
        None => {
            eprintln!(
                "qos-report does not cover {fig} (ids: {})",
                quasar_experiments::qos_report::QOS_REPORT_IDS.join(" ")
            );
            std::process::exit(2);
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = parse_args(&args);

    if opts.qos_report_mode {
        run_qos_report(&opts);
        return;
    }
    if opts.bench_sim_mode {
        run_bench_sim(&opts);
        return;
    }
    if opts.bench_mode {
        run_bench_kernels(&opts);
        return;
    }
    if opts.trace_mode {
        run_trace(&opts);
        return;
    }

    let selected: Vec<&str> = if opts.ids.iter().any(|i| i == "all") {
        EXPERIMENT_IDS.to_vec()
    } else {
        opts.ids.iter().map(String::as_str).collect()
    };
    for id in selected {
        run_one(id, opts.scale, opts.threads);
    }
}
