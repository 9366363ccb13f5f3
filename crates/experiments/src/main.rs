//! CLI for the Quasar reproduction experiments.
//!
//! ```text
//! quasar-experiments <id>... [--full] [--threads N]
//! quasar-experiments all [--full] [--threads N]
//! quasar-experiments trace <id> [--full] [--threads N]
//!                    [--trace-out PATH] [--jsonl-out PATH]
//! quasar-experiments qos-report <fig> [--full] [--threads N]
//! ```
//!
//! `--threads N` sets the worker count for experiments that fan out
//! over the deterministic parallel runner (default: the machine's
//! available parallelism; `--threads 1` forces the serial path). The
//! printed reports are bit-identical for every thread count.
//!
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
    qos_report_mode: bool,
}

fn parse_args(args: &[String]) -> Options {
    let mut opts = Options {
        scale: Scale::Quick,
        threads: available_threads(),
        ids: Vec::new(),
        trace_mode: false,
        trace_out: None,
        jsonl_out: None,
        qos_report_mode: false,
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
            a if a.starts_with("--") => {
                eprintln!("unknown flag: {a}");
                usage();
            }
            "trace" if opts.ids.is_empty() && !opts.trace_mode => opts.trace_mode = true,
            "qos-report" if opts.ids.is_empty() && !opts.qos_report_mode => {
                opts.qos_report_mode = true
            }
            a => opts.ids.push(a.to_string()),
        }
        i += 1;
    }
    if opts.ids.is_empty() {
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
