//! QoS violation ledger reporting: reruns a figure's scenario and
//! prints the per-cause violation breakdown — episode counts, violation
//! time, peak depth, and incident dumps — for every manager run in that
//! figure. Backs the `quasar-experiments qos-report <fig>` subcommand.
//!
//! The breakdown is a pure function of the seeds: the tracker consumes
//! the same deterministic observations the managers see, so the table
//! (and the masked incident JSONL) is byte-identical across `--threads`
//! values.

use std::fmt;
use std::fs;
use std::path::PathBuf;

use quasar_cluster::{EpisodeRecord, Incident, QosCause, Simulation};
use quasar_workloads::WorkloadId;

use crate::report::{write_csv, TextTable};
use crate::{fig67, fig910, Scale};

/// One manager run's QoS violation ledger: every closed episode plus
/// the incident reports dumped for severe ones.
#[derive(Debug, Clone, Default)]
pub struct QosLedger {
    /// Manager name ("quasar", "autoscale", "framework+ll", ...).
    pub manager: String,
    /// Closed episodes, in close order.
    pub episodes: Vec<EpisodeRecord>,
    /// Incident dumps for episodes that crossed the severity bar.
    pub incidents: Vec<Incident>,
}

impl QosLedger {
    /// Harvests the ledger from a finished simulation: closes episodes
    /// still open at the horizon, then drains the incident queue.
    pub fn harvest(manager: &str, sim: &mut Simulation) -> QosLedger {
        sim.world_mut().finish_qos();
        QosLedger {
            manager: manager.to_string(),
            episodes: sim.world().qos().episodes().to_vec(),
            incidents: sim.world_mut().take_incidents(),
        }
    }

    /// Number of episodes attributed to `cause`.
    pub fn count(&self, cause: QosCause) -> usize {
        self.episodes.iter().filter(|e| e.cause == cause).count()
    }

    /// Number of episodes charged to one workload.
    pub fn episodes_for(&self, id: WorkloadId) -> usize {
        self.episodes.iter().filter(|e| e.workload == id).count()
    }

    /// The most frequent cause among `episodes` (ties break toward the
    /// higher-priority cause in [`QosCause::ALL`] order); `-` when the
    /// filter matches nothing.
    pub fn top_cause<F: Fn(&EpisodeRecord) -> bool>(&self, keep: F) -> &'static str {
        QosCause::ALL
            .iter()
            .map(|&c| {
                (
                    self.episodes
                        .iter()
                        .filter(|e| e.cause == c && keep(e))
                        .count(),
                    c,
                )
            })
            .max_by_key(|&(n, _)| n)
            .filter(|&(n, _)| n > 0)
            .map(|(_, c)| c.as_str())
            .unwrap_or("-")
    }
}

/// The `qos-report <fig>` dataset: one ledger per manager run of the
/// underlying figure.
#[derive(Debug, Clone)]
pub struct QosReport {
    /// Figure id the scenario came from.
    pub fig: String,
    /// Ledgers in the figure's run order.
    pub ledgers: Vec<QosLedger>,
}

/// Figure ids `qos-report` covers.
pub const QOS_REPORT_IDS: [&str; 4] = ["fig6", "fig7", "fig9", "fig10"];

/// Reruns `fig`'s scenario and collects its QoS ledgers, writing the
/// per-cause breakdown CSV and the incident JSONL under
/// `target/experiment-results/qos/`. Returns `None` for ids outside
/// [`QOS_REPORT_IDS`].
pub fn run_with(fig: &str, scale: Scale, threads: usize) -> Option<QosReport> {
    let ledgers = match fig {
        "fig6" | "fig7" => {
            let r = fig67::run_with(scale, threads);
            vec![r.baseline.qos, r.quasar.qos]
        }
        "fig9" | "fig10" => fig910::run_with(scale, threads).qos,
        _ => return None,
    };
    let report = QosReport {
        fig: fig.to_string(),
        ledgers,
    };
    write_breakdown_csv(&report);
    write_incidents_jsonl(&report);
    Some(report)
}

/// `breakdown.csv` rows: `(run, cause, episodes, incidents, total_s,
/// mean_s, peak_depth)` with `cause` as its index in [`QosCause::ALL`].
fn write_breakdown_csv(report: &QosReport) {
    let mut rows = Vec::new();
    for (run, ledger) in report.ledgers.iter().enumerate() {
        for (ci, &cause) in QosCause::ALL.iter().enumerate() {
            let stats = CauseStats::collect(ledger, cause);
            rows.push(vec![
                run as f64,
                ci as f64,
                stats.episodes as f64,
                stats.incidents as f64,
                stats.total_s,
                stats.mean_s(),
                stats.peak_depth,
            ]);
        }
    }
    write_csv(
        "qos",
        &format!("{}_breakdown", report.fig),
        &[
            "run",
            "cause",
            "episodes",
            "incidents",
            "total_s",
            "mean_s",
            "peak_depth",
        ],
        &rows,
    );
}

/// Writes every incident as one `quasar.qos.incident.v1` JSON line.
/// Errors are reported but not fatal (read-only sandboxes).
fn write_incidents_jsonl(report: &QosReport) -> Option<PathBuf> {
    let dir = PathBuf::from("target/experiment-results").join("qos");
    fs::create_dir_all(&dir).ok()?;
    let path = dir.join(format!("{}_incidents.jsonl", report.fig));
    let mut body = String::new();
    for ledger in &report.ledgers {
        for incident in &ledger.incidents {
            body.push_str(&incident.to_json_line());
            body.push('\n');
        }
    }
    fs::write(&path, body).ok()?;
    Some(path)
}

/// Per-cause aggregates for one ledger.
struct CauseStats {
    episodes: usize,
    incidents: usize,
    total_s: f64,
    peak_depth: f64,
}

impl CauseStats {
    fn collect(ledger: &QosLedger, cause: QosCause) -> CauseStats {
        let mut stats = CauseStats {
            episodes: 0,
            incidents: 0,
            total_s: 0.0,
            peak_depth: 0.0,
        };
        for e in ledger.episodes.iter().filter(|e| e.cause == cause) {
            stats.episodes += 1;
            stats.total_s += e.duration_s();
            stats.peak_depth = stats.peak_depth.max(e.peak_depth);
        }
        stats.incidents = ledger
            .incidents
            .iter()
            .filter(|i| i.episode.cause == cause)
            .count();
        stats
    }

    fn mean_s(&self) -> f64 {
        if self.episodes == 0 {
            0.0
        } else {
            self.total_s / self.episodes as f64
        }
    }
}

impl fmt::Display for QosReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut t = TextTable::new(format!("QoS violation breakdown ({})", self.fig)).header([
            "run",
            "cause",
            "episodes",
            "incidents",
            "total s",
            "mean s",
            "peak depth",
        ]);
        for ledger in &self.ledgers {
            for &cause in &QosCause::ALL {
                let stats = CauseStats::collect(ledger, cause);
                t.row([
                    ledger.manager.clone(),
                    cause.as_str().to_string(),
                    stats.episodes.to_string(),
                    stats.incidents.to_string(),
                    format!("{:.1}", stats.total_s),
                    format!("{:.1}", stats.mean_s()),
                    format!("{:.2}", stats.peak_depth),
                ]);
            }
            t.row([
                ledger.manager.clone(),
                "total".to_string(),
                ledger.episodes.len().to_string(),
                ledger.incidents.len().to_string(),
                format!(
                    "{:.1}",
                    ledger
                        .episodes
                        .iter()
                        .map(EpisodeRecord::duration_s)
                        .sum::<f64>()
                ),
                "-".to_string(),
                "-".to_string(),
            ]);
        }
        write!(f, "{}", t.render())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig9_breakdown_is_deterministic_across_threads() {
        let a = run_with("fig9", Scale::Quick, 1).expect("fig9 covered");
        let b = run_with("fig9", Scale::Quick, 4).expect("fig9 covered");
        assert_eq!(a.to_string(), b.to_string());
        // Every ledger's per-cause counts sum to its episode total.
        for ledger in &a.ledgers {
            let by_cause: usize = QosCause::ALL.iter().map(|&c| ledger.count(c)).sum();
            assert_eq!(by_cause, ledger.episodes.len());
        }
    }

    #[test]
    fn unknown_figure_is_rejected() {
        assert!(run_with("fig1", Scale::Quick, 1).is_none());
    }
}
