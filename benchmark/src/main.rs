//! `quasar-benchmark`: the end-to-end benchmark of the Quasar
//! reproduction. See `benchmark/README.md` for what is measured and how;
//! `benchmark/run.sh` builds and drives this binary.

mod adapter;
mod alloc;
mod bench;
mod compare;
mod json;
mod metrics;
mod schedule;
mod score;
mod span;
mod stats;

use std::path::PathBuf;
use std::process::ExitCode;

use adapter::Kind;
use bench::{Options, Outcome};

#[global_allocator]
static GLOBAL: alloc::CountingAlloc = alloc::CountingAlloc;

const USAGE: &str =
    "usage: quasar-benchmark run --workload NAME [--seed N] [--seconds S | --repeats R]
                            [--trace 0|1] [--smoke] [--out-dir DIR]
       quasar-benchmark compare A.json B.json --bounds BENCHMARK.json
workloads: cloud_mix_under cloud_mix_over recurring_jobs sim_stream";

fn parse_run(args: &[String]) -> Result<Options, String> {
    let mut kind = None;
    let mut opts = Options {
        kind: Kind::CloudMixUnder,
        seed: 1,
        seconds: 10.0,
        repeats: None,
        trace: false,
        smoke: false,
        out_dir: PathBuf::from("benchmark/out"),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .ok_or_else(|| format!("{flag} needs {what}"))
                .map(String::as_str)
        };
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                kind = Some(Kind::parse(name).ok_or_else(|| format!("unknown workload {name}"))?);
            }
            "--seed" => {
                let v = value("a whole number")?;
                opts.seed = v.parse().map_err(|_| format!("bad seed {v}"))?;
            }
            "--seconds" => {
                let v = value("a number of seconds")?;
                opts.seconds = v
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("bad seconds {v}"))?;
            }
            "--repeats" => {
                let v = value("a count")?;
                opts.repeats = Some(
                    v.parse()
                        .ok()
                        .filter(|&n: &usize| (1..=100).contains(&n))
                        .ok_or_else(|| format!("bad repeats {v}"))?,
                );
            }
            "--trace" => {
                opts.trace = match value("0 or 1")? {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("bad trace {v}")),
                };
            }
            "--smoke" => opts.smoke = true,
            "--out-dir" => opts.out_dir = PathBuf::from(value("a directory")?),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    opts.kind = kind.ok_or("--workload is required")?;
    Ok(opts)
}

/// `"correct": .., "attempted": .., "failed": .., "metrics": {..}` with
/// every value in all its digits; `with_spread` adds each value's spread.
fn result_members(outcome: &Outcome, with_spread: bool) -> String {
    let metrics: Vec<String> = outcome
        .readings
        .iter()
        .map(|r| {
            let spread = if with_spread {
                format!(", \"spread\": {}", r.spread)
            } else {
                String::new()
            };
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"{spread}}}",
                r.name, r.value, r.unit
            )
        })
        .collect();
    format!(
        "\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}",
        outcome.problems.is_empty(),
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    )
}

fn mode(opts: &Options) -> &'static str {
    if opts.trace {
        "per_layer"
    } else {
        "end_to_end"
    }
}

/// The record `run.sh` gathers into `results.json`: the result line's
/// content plus workload, mode, seed and each value's spread.
fn record(opts: &Options, outcome: &Outcome) -> String {
    format!(
        "{{\"workload\": \"{}\", \"mode\": \"{}\", \"seed\": {}, \"smoke\": {}, {}}}\n",
        opts.kind.name(),
        mode(opts),
        opts.seed,
        opts.smoke,
        result_members(outcome, true)
    )
}

fn run(args: &[String]) -> Result<ExitCode, String> {
    let opts = parse_run(args)?;
    std::fs::create_dir_all(&opts.out_dir)
        .map_err(|e| format!("cannot create {}: {e}", opts.out_dir.display()))?;
    let outcome = if opts.trace {
        bench::run_traced(&opts)
    } else {
        bench::run_end_to_end(&opts)
    }
    .map_err(|e| format!("{}: {e}", opts.kind.name()))?;

    let name = opts.kind.name();
    for note in &outcome.notes {
        println!("# {name}: {note}");
    }
    for r in &outcome.readings {
        println!("{name} {} {} {}", r.name, r.value, r.unit);
    }
    for problem in &outcome.problems {
        eprintln!("CHECK FAILED {name}: {problem}");
    }
    let path = opts.out_dir.join(format!("{name}.{}.json", mode(&opts)));
    std::fs::write(&path, record(&opts, &outcome))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    // The driver's result line: exactly these four keys.
    println!("{{{}}}", result_members(&outcome, false));
    Ok(if outcome.problems.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn compare_files(args: &[String]) -> Result<ExitCode, String> {
    let [a, b, flag, bounds] = args else {
        return Err("compare needs A.json B.json --bounds BENCHMARK.json".into());
    };
    if flag != "--bounds" {
        return Err(format!("unknown argument {flag}"));
    }
    let read = |p: &String| std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"));
    let (table, worse, _) = compare::compare(&read(a)?, &read(b)?, &read(bounds)?)?;
    print!("{table}");
    Ok(if worse == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.split_first() {
        Some((cmd, rest)) if cmd == "run" => run(rest),
        Some((cmd, rest)) if cmd == "compare" => compare_files(rest),
        _ => Err("expected `run` or `compare`".into()),
    };
    match result {
        Ok(code) => code,
        Err(message) => {
            eprintln!("quasar-benchmark: {message}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}
