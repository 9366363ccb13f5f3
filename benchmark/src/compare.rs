//! `compare A.json B.json`: per workload and end-to-end metric, how B
//! differs from A against the bound declared in `BENCHMARK.json`.

use std::fmt::Write as _;

use crate::json::{self, Value};

/// How B stands against A on one metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Within the bound either way.
    Same,
    /// Worse than A by more than the bound.
    Worse,
    /// Better than A by more than the bound.
    Better,
    /// The spread between repeats is wider than the bound, so a
    /// difference of that size cannot be told from noise.
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Better => "better",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judges one metric. `worse_by` is the relative change in the bad
/// direction: positive when B is worse.
pub fn verdict(a: f64, b: f64, lower_is_better: bool, bound: f64, spread: f64) -> (f64, Verdict) {
    let rel = if a == 0.0 { b - a } else { (b - a) / a.abs() };
    let worse_by = if lower_is_better { rel } else { -rel };
    let v = if spread > bound {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Worse
    } else if worse_by < -bound {
        Verdict::Better
    } else {
        Verdict::Same
    };
    (worse_by, v)
}

struct Bound {
    name: String,
    lower_is_better: bool,
    bound: f64,
}

fn bounds(doc: &Value) -> Result<Vec<Bound>, String> {
    doc.get("end_to_end")
        .and_then(Value::as_array)
        .ok_or("bounds file has no end_to_end list")?
        .iter()
        .map(|m| {
            Ok(Bound {
                name: m
                    .get("name")
                    .and_then(Value::as_str)
                    .ok_or("metric without a name")?
                    .to_string(),
                lower_is_better: m.get("better").and_then(Value::as_str) == Some("lower"),
                bound: m
                    .get("bound")
                    .and_then(Value::as_f64)
                    .ok_or("metric without a bound")?,
            })
        })
        .collect()
}

/// The runs of one mode in a results file, by workload.
fn runs<'a>(doc: &'a Value, mode: &str) -> Result<Vec<(&'a str, &'a Value)>, String> {
    Ok(doc
        .get("runs")
        .and_then(Value::as_array)
        .ok_or("results file has no runs list")?
        .iter()
        .filter(|r| r.get("mode").and_then(Value::as_str) == Some(mode))
        .filter_map(|r| Some((r.get("workload")?.as_str()?, r)))
        .collect())
}

/// Simulated statistics reported by the per-layer run (`sim.*`) that
/// differ between two files, as `workload metric A B` lines.
fn changed_sim_stats(a: &Value, b: &Value) -> Result<Vec<String>, String> {
    let b_runs = runs(b, "per_layer")?;
    let mut changed = Vec::new();
    for (workload, run_a) in runs(a, "per_layer")? {
        let Some((_, run_b)) = b_runs.iter().find(|(w, _)| *w == workload) else {
            continue;
        };
        let Some(Value::Obj(metrics)) = run_a.get("metrics") else {
            continue;
        };
        for (name, _) in metrics.iter().filter(|(n, _)| n.starts_with("sim.")) {
            let (va, vb) = (reading(run_a, name), reading(run_b, name));
            if va != vb {
                changed.push(format!("{workload} {name} {va:?} {vb:?}"));
            }
        }
    }
    Ok(changed)
}

fn reading(run: &Value, name: &str) -> Option<(f64, f64)> {
    let m = run.get("metrics")?.get(name)?;
    Some((m.get("value")?.as_f64()?, m.get("spread")?.as_f64()?))
}

/// Renders the comparison table and counts the `worse` and `unresolved`
/// rows. Errors name what is missing from an input.
pub fn compare(
    a_text: &str,
    b_text: &str,
    bounds_text: &str,
) -> Result<(String, usize, usize), String> {
    let a = json::parse(a_text).map_err(|e| format!("A: {e}"))?;
    let b = json::parse(b_text).map_err(|e| format!("B: {e}"))?;
    let bounds = bounds(&json::parse(bounds_text).map_err(|e| format!("bounds: {e}"))?)?;
    let same_seed = a.get("seed").and_then(Value::as_f64) == b.get("seed").and_then(Value::as_f64);
    let b_runs = runs(&b, "end_to_end")?;
    let mut out = String::new();
    let (mut worse, mut unresolved, mut inexact) = (0, 0, 0);
    let _ = writeln!(
        out,
        "{:<16} {:<20} {:>14} {:>14} {:>9} {:>7} {:>7}  verdict",
        "workload", "metric", "A", "B", "worse_by", "bound", "spread"
    );
    for (workload, run_a) in runs(&a, "end_to_end")? {
        let run_b = b_runs
            .iter()
            .find(|(w, _)| *w == workload)
            .map(|(_, r)| *r)
            .ok_or(format!("B has no end-to-end run of {workload}"))?;
        for m in &bounds {
            let (va, sa) =
                reading(run_a, &m.name).ok_or(format!("A: {workload} lacks {}", m.name))?;
            let (vb, sb) =
                reading(run_b, &m.name).ok_or(format!("B: {workload} lacks {}", m.name))?;
            let spread = sa.max(sb);
            let (worse_by, v) = verdict(va, vb, m.lower_is_better, m.bound, spread);
            match v {
                Verdict::Worse => worse += 1,
                Verdict::Unresolved => unresolved += 1,
                _ => {}
            }
            // A value with no spread repeats exactly for a fixed seed.
            let exact_note = if same_seed && spread == 0.0 && va != vb {
                inexact += 1;
                "  (simulated statistic changed)"
            } else {
                ""
            };
            let _ = writeln!(
                out,
                "{workload:<16} {:<20} {va:>14.6} {vb:>14.6} {:>+9.4} {:>7.3} {spread:>7.4}  {}{exact_note}",
                m.name,
                worse_by,
                m.bound,
                v.as_str()
            );
        }
    }
    if same_seed {
        for line in changed_sim_stats(&a, &b)? {
            inexact += 1;
            let _ = writeln!(out, "changed: {line}");
        }
    }
    let _ = writeln!(
        out,
        "{worse} worse, {unresolved} unresolved; simulated statistics {}",
        if !same_seed {
            "not comparable (different seeds)".to_string()
        } else if inexact == 0 {
            "identical".to_string()
        } else {
            format!("differ in {inexact} places")
        }
    );
    Ok((out, worse, unresolved))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        // Lower is better: +20 % is worse, -20 % better, +5 % the same.
        assert_eq!(verdict(10.0, 12.0, true, 0.1, 0.0).1, Verdict::Worse);
        assert_eq!(verdict(10.0, 8.0, true, 0.1, 0.0).1, Verdict::Better);
        assert_eq!(verdict(10.0, 10.5, true, 0.1, 0.0).1, Verdict::Same);
        // Higher is better flips the sign.
        assert_eq!(verdict(10.0, 12.0, false, 0.1, 0.0).1, Verdict::Better);
        assert_eq!(verdict(10.0, 8.0, false, 0.1, 0.0).1, Verdict::Worse);
        // A spread wider than the bound resolves nothing.
        assert_eq!(verdict(10.0, 20.0, true, 0.1, 0.3).1, Verdict::Unresolved);
        let (by, _) = verdict(10.0, 12.0, true, 0.1, 0.0);
        assert!((by - 0.2).abs() < 1e-12);
    }

    fn results(wall: f64, placed_frac: f64) -> String {
        format!(
            r#"{{"seed": 1, "runs": [{{"workload": "w", "mode": "end_to_end", "metrics": {{
                "wall_s": {{"value": {wall}, "unit": "s", "spread": 0.01}},
                "placed_frac": {{"value": {placed_frac}, "unit": "frac", "spread": 0}}}}}}]}}"#
        )
    }

    #[test]
    fn table_counts_regressions() {
        let bounds = r#"{"end_to_end": [
            {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.1},
            {"name": "placed_frac", "unit": "frac", "better": "higher", "bound": 0.02}]}"#;
        let (table, worse, unresolved) =
            compare(&results(1.0, 1.0), &results(1.05, 1.0), bounds).unwrap();
        assert_eq!((worse, unresolved), (0, 0));
        assert!(table.contains("statistics identical"), "{table}");
        let (table, worse, _) = compare(&results(1.0, 1.0), &results(1.3, 0.9), bounds).unwrap();
        assert_eq!(worse, 2);
        assert!(table.contains("simulated statistic changed"), "{table}");
        assert!(compare(&results(1.0, 1.0), r#"{"runs": []}"#, bounds).is_err());
    }
}
