//! The names and units of every metric, in reporting order. The same
//! names are declared in `BENCHMARK.json`; a unit test holds the two
//! lists together.

/// Metrics a user of the system would see. Every workload reports all.
pub const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("jobs_placed_per_s", "1/s"),
    ("sim_s_per_wall_s", "sim_s/s"),
    ("admit_wall_p50_us", "us"),
    ("placed_frac", "frac"),
    ("norm_perf_mean", "frac"),
    ("qos_met_frac", "frac"),
];

/// Metrics of single layers (layer = module), from the traced run.
pub const PER_LAYER: [(&str, &str); 61] = [
    ("sim.admit_p50_s", "s"),
    ("sim.admit_p95_s", "s"),
    ("sim.cpu_util_mean", "frac"),
    ("process.peak_rss_mb", "MB"),
    ("core.manager.on_arrival.calls", "count"),
    ("core.manager.on_arrival.busy_s", "s"),
    ("core.manager.on_arrival.wall_us_p95", "us"),
    ("core.manager.on_tick.calls", "count"),
    ("core.manager.on_tick.busy_s", "s"),
    ("core.manager.on_completion.calls", "count"),
    ("core.manager.on_completion.busy_s", "s"),
    ("core.manager.busy_frac", "frac"),
    ("cluster.sim.self_s", "s"),
    ("cluster.sim.self_us_per_tick", "us"),
    ("cluster.sim.delivery_lag_s_max", "s"),
    ("core.manager.on_arrival.allocs_per_call", "count"),
    ("core.manager.classifications", "count"),
    ("core.manager.adaptations", "count"),
    ("core.manager.evictions", "count"),
    ("core.manager.degraded_placements", "count"),
    ("core.profile.call_us_p50", "us"),
    ("core.profile.sim_wall_s_mean", "s"),
    ("core.classify.call_us_p50", "us"),
    ("core.classify.call_us_p90", "us"),
    ("core.classify.t2_speedup", "x"),
    ("core.similarity.query_us_p50", "us"),
    ("core.greedy.plan.call_us_p50", "us"),
    ("cluster.world.place.call_us_p50", "us"),
    ("core.manager.on_arrival.unattributed_frac", "frac"),
    ("cf.svd.call_us_p50", "us"),
    ("cf.sgd_train.call_us_p50", "us"),
    ("cf.reconstruct_row.call_us_p50", "us"),
    ("core.classify.calls", "count"),
    ("cf.sgd.epochs_per_classify", "count"),
    ("cf.svd.sweeps_per_classify", "count"),
    ("cf.row_cache.hit_frac", "frac"),
    ("core.similarity.hits", "count"),
    ("core.similarity.misses", "count"),
    ("core.similarity.warm_starts", "count"),
    ("core.similarity.hit_frac", "frac"),
    ("core.greedy.plans", "count"),
    ("core.greedy.plans_per_placement", "count"),
    ("cluster.world.placements", "count"),
    ("cluster.world.ticks", "count"),
    ("cluster.sim.events_delivered", "count"),
    ("cluster.sim.ticks_skipped", "count"),
    ("cluster.sim.events_per_s", "1/s"),
    ("cluster.journal.events", "count"),
    ("cluster.journal.chunk_flushes", "count"),
    ("cluster.journal.replay_s", "s"),
    ("cluster.journal.attach_overhead_frac", "frac"),
    ("cluster.qos.episodes", "count"),
    ("cluster.qos.incidents", "count"),
    ("cluster.qos.violating_ticks", "count"),
    ("core.par.jobs", "count"),
    ("core.par.items", "count"),
    ("core.history.bootstrap_s", "s"),
    ("workloads.generate.fleet_s", "s"),
    ("obs.bench_span_overhead_frac", "frac"),
    ("obs.trace_on_overhead_frac", "frac"),
    ("obs.trace.events", "count"),
];

/// One reported value.
#[derive(Debug, Clone, PartialEq)]
pub struct Reading {
    /// Metric name.
    pub name: &'static str,
    /// Unit, as declared.
    pub unit: &'static str,
    /// The value: a median over repeats, a pooled percentile or a count.
    pub value: f64,
    /// Largest minus smallest repeat value over the median; 0 for values
    /// that repeat exactly.
    pub spread: f64,
}

/// Readings in declaration order, each name set exactly once.
pub struct Readings {
    declared: &'static [(&'static str, &'static str)],
    values: Vec<Option<(f64, f64)>>,
}

impl Readings {
    /// An empty set over a declared list.
    pub fn new(declared: &'static [(&'static str, &'static str)]) -> Readings {
        Readings {
            declared,
            values: vec![None; declared.len()],
        }
    }

    /// Sets a value that repeats exactly or was measured once.
    pub fn set(&mut self, name: &str, value: f64) {
        self.set_with_spread(name, value, 0.0);
    }

    /// Sets a value with its spread over repeats.
    pub fn set_with_spread(&mut self, name: &str, value: f64, spread: f64) {
        let at = self
            .declared
            .iter()
            .position(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("metric {name} is not declared"));
        assert!(self.values[at].is_none(), "metric {name} set twice");
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        self.values[at] = Some((value, spread));
    }

    /// Every declared metric; panics if one was never set, so a metric
    /// cannot silently drop out of the report.
    pub fn finish(self) -> Vec<Reading> {
        self.declared
            .iter()
            .zip(self.values)
            .map(|(&(name, unit), v)| {
                let (value, spread) = v.unwrap_or_else(|| panic!("metric {name} was never set"));
                Reading {
                    name,
                    unit,
                    value,
                    spread,
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Value};

    fn declared(doc: &Value, key: &str) -> Vec<(String, String)> {
        doc.get(key)
            .and_then(Value::as_array)
            .unwrap_or_else(|| panic!("BENCHMARK.json has no {key}"))
            .iter()
            .map(|m| {
                (
                    m.get("name").and_then(Value::as_str).unwrap().to_string(),
                    m.get("unit").and_then(Value::as_str).unwrap().to_string(),
                )
            })
            .collect()
    }

    #[test]
    fn benchmark_json_declares_exactly_these_metrics_and_workloads() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(declared(&doc, "end_to_end"), own(&END_TO_END));
        assert_eq!(declared(&doc, "per_layer"), own(&PER_LAYER));
        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(Value::as_array)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Value::as_str).unwrap())
            .collect();
        let own: Vec<&str> = crate::adapter::WORKLOADS.iter().map(|k| k.name()).collect();
        assert_eq!(workloads, own);
    }

    #[test]
    #[should_panic(expected = "never set")]
    fn a_missing_metric_is_an_error() {
        let mut r = Readings::new(&END_TO_END);
        r.set("wall_s", 1.0);
        r.finish();
    }
}
