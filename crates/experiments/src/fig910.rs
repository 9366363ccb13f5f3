//! Figures 9 and 10: stateful latency-critical services — memcached and
//! Cassandra over a 24-hour diurnal day under Quasar vs auto-scaling
//! (Fig. 9), and the per-server CPU/memory/disk usage snapshots of the
//! Quasar run in four 6-hour windows (Fig. 10).

use std::fmt;

use quasar_baselines::{AllocationPolicy, AssignmentPolicy, BaselineManager};
use quasar_cluster::{ClusterSpec, Observation, SimConfig, Simulation};

use crate::qos_report::QosLedger;
use crate::report::percentile;
use quasar_core::par::par_map;
use quasar_core::{QuasarConfig, QuasarManager};
use quasar_workloads::generate::Generator;
use quasar_workloads::{LoadPattern, PlatformCatalog, Priority, WorkloadClass, WorkloadId};

use crate::report::{mean, write_csv, TextTable};
use crate::{local_history, Scale};

/// One service's outcome under one manager.
#[derive(Debug, Clone)]
pub struct StatefulOutcome {
    /// Service name.
    pub service: String,
    /// Manager name.
    pub manager: String,
    /// Hourly `(hour, offered, achieved)` samples.
    pub hourly: Vec<(f64, f64, f64)>,
    /// Fraction of queries meeting the latency QoS.
    pub qos_fraction: f64,
    /// Fraction of offered queries served.
    pub served_fraction: f64,
    /// Sampled p99 latencies (µs) across measurement windows — the
    /// query-latency distribution of Fig. 9's right panels.
    pub p99_samples_us: Vec<f64>,
    /// QoS violation episodes charged to this service over the day.
    pub qos_episodes: usize,
    /// Dominant attributed cause of those episodes (`-` when none).
    pub qos_top_cause: String,
}

/// A Fig. 10 window: per-server mean utilizations over 6 hours.
#[derive(Debug, Clone)]
pub struct UsageWindow {
    /// Window label, e.g. "00:00-06:00".
    pub label: String,
    /// Per-server CPU utilization.
    pub cpu: Vec<f64>,
    /// Per-server memory utilization.
    pub memory: Vec<f64>,
    /// Per-server disk-bandwidth utilization proxy.
    pub disk: Vec<f64>,
}

/// The combined Fig. 9 + Fig. 10 dataset.
#[derive(Debug, Clone)]
pub struct Fig910Result {
    /// Outcomes for (service × manager).
    pub outcomes: Vec<StatefulOutcome>,
    /// Fig. 10 windows from the Quasar run.
    pub usage_windows: Vec<UsageWindow>,
    /// QoS violation ledgers, one per manager run (autoscale, quasar).
    pub qos: Vec<QosLedger>,
}

impl Fig910Result {
    /// Lookup helper.
    pub fn outcome(&self, service: &str, manager: &str) -> Option<&StatefulOutcome> {
        self.outcomes
            .iter()
            .find(|o| o.service == service && o.manager == manager)
    }
}

struct RunOutput {
    outcomes: Vec<StatefulOutcome>,
    windows: Vec<UsageWindow>,
    qos: QosLedger,
}

fn run_day(scale: Scale, quasar: bool) -> RunOutput {
    let day = match scale {
        Scale::Quick => LoadPattern::DAY_S / 6.0,
        Scale::Full => LoadPattern::DAY_S,
    };
    let catalog = PlatformCatalog::local();
    let manager: Box<dyn quasar_cluster::Manager> = if quasar {
        Box::new(QuasarManager::with_history(
            local_history().clone(),
            QuasarConfig::default(),
        ))
    } else {
        Box::new(BaselineManager::new(
            AllocationPolicy::Autoscale { min: 1, max: 20 },
            AssignmentPolicy::LeastLoaded,
            None,
            0xF169,
        ))
    };
    let manager_name = if quasar { "quasar" } else { "autoscale" };
    let mut sim = Simulation::new(
        ClusterSpec::uniform(catalog.clone(), 4),
        manager,
        SimConfig {
            tick_s: 10.0,
            metrics_interval_s: 120.0,
            ..SimConfig::default()
        },
    );

    let mut generator = Generator::new(catalog, 0x910);
    // memcached: 1 TB state in the paper, 2.4M QPS peak, 200 µs p99.
    let memcached = generator.service(
        WorkloadClass::Memcached,
        "memcached",
        256.0,
        LoadPattern::Diurnal {
            trough_qps: 500_000.0,
            peak_qps: 1_600_000.0,
        },
        Priority::Guaranteed,
    );
    // Cassandra: 4 TB state, 60K QPS peak, 30 ms p99, disk-bound.
    let cassandra = generator.service(
        WorkloadClass::Cassandra,
        "cassandra",
        1024.0,
        LoadPattern::Diurnal {
            trough_qps: 15_000.0,
            peak_qps: 45_000.0,
        },
        Priority::Guaranteed,
    );
    let ids: Vec<(WorkloadId, &str, LoadPattern)> = vec![
        (
            memcached.id(),
            "memcached",
            *memcached.load().expect("service"),
        ),
        (
            cassandra.id(),
            "cassandra",
            *cassandra.load().expect("service"),
        ),
    ];
    sim.submit_at(memcached, 0.0);
    sim.submit_at(cassandra, 60.0);
    for (i, job) in generator.best_effort_fill(60).into_iter().enumerate() {
        sim.submit_at(job, 120.0 + i as f64 * 10.0);
    }

    let mut hourly: Vec<Vec<(f64, f64, f64)>> = vec![Vec::new(); ids.len()];
    let mut p99s: Vec<Vec<f64>> = vec![Vec::new(); ids.len()];
    let step = day / 96.0;
    let mut t = 0.0;
    while t < day {
        t += step;
        sim.run_until(t);
        for (i, (id, _, load)) in ids.iter().enumerate() {
            let achieved = match sim.world().observation(*id) {
                Some(Observation::Service(o)) => {
                    if o.p99_latency_us.is_finite() {
                        p99s[i].push(o.p99_latency_us);
                    }
                    o.achieved_qps
                }
                _ => 0.0,
            };
            hourly[i].push((t / 3_600.0, load.qps_at(t), achieved));
        }
    }

    let qos = QosLedger::harvest(manager_name, &mut sim);

    let records = sim.world().qos_records();
    let outcomes = ids
        .iter()
        .enumerate()
        .map(|(i, (id, name, _))| {
            let record = records
                .iter()
                .find(|r| r.id == *id)
                .expect("service record exists");
            StatefulOutcome {
                service: (*name).to_string(),
                manager: manager_name.to_string(),
                hourly: hourly[i].clone(),
                qos_fraction: record.qos_fraction(),
                served_fraction: record.served_fraction(),
                p99_samples_us: p99s[i].clone(),
                qos_episodes: qos.episodes_for(*id),
                qos_top_cause: qos.top_cause(|e| e.workload == *id).to_string(),
            }
        })
        .collect();

    // Fig. 10 windows: 4 windows over the day.
    let samples = sim.world().metrics().samples();
    let n_servers = sim.world().servers().len();
    let mut windows = Vec::new();
    for w in 0..4 {
        let (from, to) = (day * w as f64 / 4.0, day * (w as f64 + 1.0) / 4.0);
        let in_window: Vec<_> = samples
            .iter()
            .filter(|s| s.time_s >= from && s.time_s < to)
            .collect();
        if in_window.is_empty() {
            continue;
        }
        let avg = |pick: fn(&quasar_cluster::HeatmapSample) -> &Vec<f64>| -> Vec<f64> {
            let mut acc = vec![0.0; n_servers];
            for s in &in_window {
                for (i, v) in pick(s).iter().enumerate() {
                    acc[i] += v;
                }
            }
            for v in &mut acc {
                *v /= in_window.len() as f64;
            }
            acc
        };
        windows.push(UsageWindow {
            label: format!("{:02}:00-{:02}:00", w * 6, (w + 1) * 6),
            cpu: avg(|s| &s.cpu),
            memory: avg(|s| &s.memory),
            disk: avg(|s| &s.disk),
        });
    }

    RunOutput {
        outcomes,
        windows,
        qos,
    }
}

/// Runs the 24-hour scenario, fanning the two manager runs out over up
/// to `threads` workers (bit-identical to serial for any count: each
/// run owns a fresh simulation with fixed seeds).
pub fn run_with(scale: Scale, threads: usize) -> Fig910Result {
    let mut day_runs = par_map(threads, vec![false, true], |_, quasar| {
        run_day(scale, quasar)
    });
    let quasar = day_runs.pop().expect("two manager runs");
    let autoscale = day_runs.pop().expect("two manager runs");

    let mut outcomes = autoscale.outcomes;
    outcomes.extend(quasar.outcomes.iter().cloned());

    let rows: Vec<Vec<f64>> = outcomes
        .iter()
        .enumerate()
        .flat_map(|(i, o)| {
            o.hourly
                .iter()
                .map(move |(h, off, ach)| vec![i as f64, *h, *off, *ach])
        })
        .collect();
    write_csv(
        "fig9",
        "hourly",
        &["trace", "hour", "offered", "achieved"],
        &rows,
    );

    Fig910Result {
        outcomes,
        usage_windows: quasar.windows,
        qos: vec![autoscale.qos, quasar.qos],
    }
}

impl fmt::Display for Fig910Result {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut t = TextTable::new("Fig.9 stateful services over a diurnal day").header([
            "service",
            "manager",
            "served %",
            "queries meeting QoS %",
            "p99 median us",
            "p99 worst us",
            "qos episodes",
            "top cause",
        ]);
        for o in &self.outcomes {
            t.row([
                o.service.clone(),
                o.manager.clone(),
                format!("{:.1}", o.served_fraction * 100.0),
                format!("{:.1}", o.qos_fraction * 100.0),
                format!("{:.0}", percentile(&o.p99_samples_us, 0.5)),
                format!("{:.0}", percentile(&o.p99_samples_us, 0.99)),
                o.qos_episodes.to_string(),
                o.qos_top_cause.clone(),
            ]);
        }
        write!(f, "{}", t.render())?;

        let mut t2 = TextTable::new("Fig.10 per-server usage under Quasar (window means)")
            .header(["window", "cpu %", "memory %", "disk %"]);
        for w in &self.usage_windows {
            t2.row([
                w.label.clone(),
                format!("{:.1}", mean(&w.cpu) * 100.0),
                format!("{:.1}", mean(&w.memory) * 100.0),
                format!("{:.1}", mean(&w.disk) * 100.0),
            ]);
        }
        write!(f, "{}", t2.render())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quasar_meets_more_qos_than_autoscale() {
        let r = run_with(Scale::Quick, 1);
        for service in ["memcached", "cassandra"] {
            let q = r.outcome(service, "quasar").unwrap();
            let a = r.outcome(service, "autoscale").unwrap();
            assert!(
                q.qos_fraction >= a.qos_fraction - 0.02,
                "{service}: quasar {:.2} vs autoscale {:.2}",
                q.qos_fraction,
                a.qos_fraction
            );
        }
        assert!(!r.usage_windows.is_empty());
    }
}
