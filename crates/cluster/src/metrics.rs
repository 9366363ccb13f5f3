//! Utilization metrics: heatmaps and aggregate series.

/// A per-server utilization snapshot at one sample time — one column of
/// the utilization heatmaps in Figs. 7 and 11 of the paper.
#[derive(Debug, Clone, PartialEq)]
pub struct HeatmapSample {
    /// Simulation time of the sample, in seconds.
    pub time_s: f64,
    /// Per-server CPU utilization in `[0, 1]` (cores actively used /
    /// total cores).
    pub cpu: Vec<f64>,
    /// Per-server memory utilization in `[0, 1]`.
    pub memory: Vec<f64>,
    /// Per-server disk-bandwidth utilization proxy in `[0, 1]`.
    pub disk: Vec<f64>,
    /// Aggregate cores *allocated* / total (what the manager committed).
    pub allocated_cpu: f64,
    /// Aggregate cores *reserved* / total (what users or frameworks asked
    /// for — only meaningful under reservation-based managers).
    pub reserved_cpu: f64,
    /// Aggregate memory reserved / total.
    pub reserved_memory: f64,
    /// Aggregate memory allocated / total.
    pub allocated_memory: f64,
}

impl HeatmapSample {
    /// Mean CPU utilization across servers.
    pub fn mean_cpu(&self) -> f64 {
        mean(&self.cpu)
    }

    /// Mean memory utilization across servers.
    pub fn mean_memory(&self) -> f64 {
        mean(&self.memory)
    }
}

fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Aggregate utilization statistics over a simulation run.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct UtilizationSummary {
    /// Time-averaged mean server CPU utilization.
    pub mean_cpu: f64,
    /// Time-averaged mean server memory utilization.
    pub mean_memory: f64,
    /// Time-averaged aggregate allocated CPU fraction.
    pub mean_allocated_cpu: f64,
    /// Time-averaged aggregate reserved CPU fraction.
    pub mean_reserved_cpu: f64,
}

/// Records utilization samples over a run.
///
/// # Examples
///
/// ```
/// use quasar_cluster::MetricsRecorder;
///
/// let recorder = MetricsRecorder::new(30.0);
/// assert!(recorder.samples().is_empty());
/// ```
#[derive(Debug, Clone)]
pub struct MetricsRecorder {
    interval_s: f64,
    /// Index of the next *due* sample on the `i * interval_s` grid. The
    /// schedule is computed from this integer index, never by
    /// accumulating `time + interval`: repeated float addition drifts
    /// off the grid over long runs (the same bug class the simulation
    /// tick driver fixed by stepping on an integer tick index).
    next_index: u64,
    samples: Vec<HeatmapSample>,
}

impl MetricsRecorder {
    /// A recorder sampling every `interval_s` seconds.
    ///
    /// # Panics
    ///
    /// Panics if the interval is not positive.
    pub fn new(interval_s: f64) -> MetricsRecorder {
        assert!(interval_s > 0.0, "sample interval must be positive");
        MetricsRecorder {
            interval_s,
            next_index: 0,
            samples: Vec::new(),
        }
    }

    /// The next grid instant a sample is due at (`next_index *
    /// interval_s`, one rounding, no accumulated error).
    pub(crate) fn next_due_s(&self) -> f64 {
        self.next_index as f64 * self.interval_s
    }

    /// Whether a sample is due at time `now`.
    pub(crate) fn due(&self, now: f64) -> bool {
        now + 1e-9 >= self.next_due_s()
    }

    /// Stores a sample and advances the schedule to the first grid point
    /// strictly after the sample's time. A driver ticking coarser than
    /// the interval records at the first tick past each grid point, so
    /// the index may advance by more than one.
    pub(crate) fn record(&mut self, sample: HeatmapSample) {
        let passed = ((sample.time_s + 1e-9) / self.interval_s).floor() as u64;
        self.next_index = passed.max(self.next_index) + 1;
        self.samples.push(sample);
    }

    /// All recorded samples, oldest first.
    pub fn samples(&self) -> &[HeatmapSample] {
        &self.samples
    }

    /// Sampling interval in seconds.
    pub fn interval_s(&self) -> f64 {
        self.interval_s
    }

    /// Time-averaged summary over all samples (steady-state utilization
    /// numbers quoted throughout the paper's evaluation).
    pub fn summary(&self) -> UtilizationSummary {
        if self.samples.is_empty() {
            return UtilizationSummary::default();
        }
        let n = self.samples.len() as f64;
        UtilizationSummary {
            mean_cpu: self
                .samples
                .iter()
                .map(HeatmapSample::mean_cpu)
                .sum::<f64>()
                / n,
            mean_memory: self
                .samples
                .iter()
                .map(HeatmapSample::mean_memory)
                .sum::<f64>()
                / n,
            mean_allocated_cpu: self.samples.iter().map(|s| s.allocated_cpu).sum::<f64>() / n,
            mean_reserved_cpu: self.samples.iter().map(|s| s.reserved_cpu).sum::<f64>() / n,
        }
    }

    /// Summary restricted to samples in `[from_s, to_s)`.
    pub fn summary_between(&self, from_s: f64, to_s: f64) -> UtilizationSummary {
        let window: Vec<&HeatmapSample> = self
            .samples
            .iter()
            .filter(|s| s.time_s >= from_s && s.time_s < to_s)
            .collect();
        if window.is_empty() {
            return UtilizationSummary::default();
        }
        let n = window.len() as f64;
        UtilizationSummary {
            mean_cpu: window.iter().map(|s| s.mean_cpu()).sum::<f64>() / n,
            mean_memory: window.iter().map(|s| s.mean_memory()).sum::<f64>() / n,
            mean_allocated_cpu: window.iter().map(|s| s.allocated_cpu).sum::<f64>() / n,
            mean_reserved_cpu: window.iter().map(|s| s.reserved_cpu).sum::<f64>() / n,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(t: f64, cpu: f64) -> HeatmapSample {
        HeatmapSample {
            time_s: t,
            cpu: vec![cpu, cpu],
            memory: vec![0.5, 0.5],
            disk: vec![0.0, 0.0],
            allocated_cpu: cpu,
            reserved_cpu: cpu * 2.0,
            reserved_memory: 0.0,
            allocated_memory: 0.5,
        }
    }

    #[test]
    fn due_follows_interval() {
        let mut r = MetricsRecorder::new(10.0);
        assert!(r.due(0.0));
        r.record(sample(0.0, 0.2));
        assert!(!r.due(5.0));
        assert!(r.due(10.0));
    }

    #[test]
    fn summary_averages_samples() {
        let mut r = MetricsRecorder::new(1.0);
        r.record(sample(0.0, 0.2));
        r.record(sample(1.0, 0.6));
        let s = r.summary();
        assert!((s.mean_cpu - 0.4).abs() < 1e-12);
        assert!((s.mean_reserved_cpu - 0.8).abs() < 1e-12);
    }

    #[test]
    fn summary_between_filters_window() {
        let mut r = MetricsRecorder::new(1.0);
        r.record(sample(0.0, 0.0));
        r.record(sample(1.0, 1.0));
        let s = r.summary_between(0.5, 1.5);
        assert!((s.mean_cpu - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_summary_is_zero() {
        let r = MetricsRecorder::new(1.0);
        assert_eq!(r.summary(), UtilizationSummary::default());
    }

    /// One million samples at a 0.1s interval stay *bitwise* on the
    /// `i * 0.1` grid: the schedule comes from one multiplication of an
    /// integer index, never from accumulating `t += interval`, so there
    /// is no float drift no matter how long the run. The naive
    /// accumulator the integer index replaced is off the grid by the
    /// end of the same span.
    #[test]
    fn million_samples_stay_on_the_grid() {
        let mut r = MetricsRecorder::new(0.1);
        let mut accumulated = 0.0f64;
        for i in 0..1_000_000u64 {
            let due = r.next_due_s();
            assert_eq!(due.to_bits(), (i as f64 * 0.1).to_bits(), "sample {i}");
            assert!(r.due(due), "sample {i} due at its own grid point");
            r.record(sample(due, 0.5));
            assert_eq!(r.next_index, i + 1, "index advances by one on-grid");
            accumulated += 0.1;
            if r.samples.len() >= 4096 {
                r.samples.clear(); // keep the test's memory flat
            }
        }
        assert_eq!(r.next_due_s().to_bits(), 100_000.0f64.to_bits());
        assert_ne!(
            accumulated.to_bits(),
            100_000.0f64.to_bits(),
            "the accumulating schedule this replaced drifts off the grid"
        );
    }
}
