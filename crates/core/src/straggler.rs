//! Straggler detection and mitigation for framework tasks (paper §4.3).
//!
//! Quasar improves Hadoop's straggler handling: it watches per-task
//! progress rates, flags tasks at least 50% slower than the median, and
//! confirms with an in-place interference reclassification before asking
//! the framework to relaunch. The paper reports detection 19% earlier
//! than stock Hadoop speculative execution and 8% earlier than LATE.
//!
//! This module holds the three speculation policies and the one driver
//! that runs a [`TaskExecution`] under a policy (or none) and scores it.
//! A policy sees a running task only as a [`TaskView`] — index,
//! progress, elapsed time — plus the job's nominal task time, so no
//! detector can read a task's true duration or straggler flag. Only the
//! driver's scorer reads that ground truth, to charge each relaunch of a
//! true straggler as one [`Detection`].

use quasar_cluster::tasks::{TaskExecution, TaskSpec};

/// Seconds between two policy scans of a running job.
pub const SCAN_S: f64 = 5.0;

/// Seconds Quasar's in-place interference probe takes to confirm a
/// flagged task before it is relaunched.
const QUASAR_PROBE_S: f64 = 15.0;

/// What a policy may observe of one running task.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TaskView {
    /// Task index within the job.
    pub index: usize,
    /// Reported progress in `[0, 1]`.
    pub progress: f64,
    /// Seconds the current attempt has run.
    pub elapsed_s: f64,
}

impl TaskView {
    /// Progress rate (fraction/second); zero before the task has run.
    fn rate(&self) -> f64 {
        if self.elapsed_s > 0.0 {
            self.progress / self.elapsed_s
        } else {
            0.0
        }
    }
}

/// What a policy may observe of the job at one scan.
#[derive(Debug, Clone, PartialEq)]
pub struct JobView {
    /// The job's nominal task time in seconds.
    pub nominal_task_s: f64,
    /// Mean progress of every task dispatched so far (finished ones
    /// count as 1), as the framework reports it.
    pub started_progress: f64,
    /// The running tasks.
    pub running: Vec<TaskView>,
}

impl JobView {
    /// The TaskTracker view of `exec`, whose tasks nominally take
    /// `nominal_task_s` seconds.
    pub fn of(exec: &TaskExecution, nominal_task_s: f64) -> JobView {
        let tasks = exec.tasks();
        let (sum, started) = tasks
            .iter()
            .filter(|t| t.started_at_s.is_some())
            .fold((0.0, 0usize), |(sum, n), t| (sum + t.progress(), n + 1));
        JobView {
            nominal_task_s,
            started_progress: if started > 0 {
                sum / started as f64
            } else {
                0.0
            },
            running: exec
                .running()
                .iter()
                .map(|&index| TaskView {
                    index,
                    progress: tasks[index].progress(),
                    elapsed_s: tasks[index].elapsed_s,
                })
                .collect(),
        }
    }
}

/// A speculation policy: which running tasks to mark for relaunch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Policy {
    /// Stock Hadoop speculative execution.
    Hadoop,
    /// LATE (Zaharia et al., OSDI'08).
    Late,
    /// Quasar (§4.3).
    Quasar,
}

impl Policy {
    /// Indices of the running tasks this policy marks at this scan.
    ///
    /// - Hadoop: progress more than 0.2 below the mean progress of the
    ///   started tasks, after at least 60 s of running (Hadoop's rule as
    ///   the LATE paper describes it).
    /// - LATE: progress rate at most 0.6 × the median rate of the running
    ///   tasks, after 0.5 × the nominal task time.
    /// - Quasar: progress rate at most 0.5 × the running median, after
    ///   0.1 × the nominal task time.
    pub fn marks(self, job: &JobView) -> Vec<usize> {
        match self {
            Policy::Hadoop => job
                .running
                .iter()
                .filter(|t| t.elapsed_s >= 60.0 && job.started_progress - t.progress > 0.2)
                .map(|t| t.index)
                .collect(),
            Policy::Late => slow_rate(job, 0.6, 0.5 * job.nominal_task_s),
            Policy::Quasar => slow_rate(job, 0.5, 0.1 * job.nominal_task_s),
        }
    }

    /// Seconds between marking a task and relaunching it.
    fn confirm_s(self) -> f64 {
        match self {
            Policy::Quasar => QUASAR_PROBE_S,
            Policy::Hadoop | Policy::Late => 0.0,
        }
    }
}

/// Running tasks observed for at least `window_s` whose progress rate is
/// at most `fraction` of the median such task's; none when fewer than
/// three tasks have been observed that long.
fn slow_rate(job: &JobView, fraction: f64, window_s: f64) -> Vec<usize> {
    let observed: Vec<&TaskView> = job
        .running
        .iter()
        .filter(|t| t.elapsed_s >= window_s)
        .collect();
    if observed.len() < 3 {
        return Vec::new();
    }
    let mut rates: Vec<f64> = observed.iter().map(|t| t.rate()).collect();
    rates.sort_by(f64::total_cmp);
    let threshold = fraction * rates[rates.len() / 2];
    observed
        .into_iter()
        .filter(|t| t.rate() <= threshold)
        .map(|t| t.index)
        .collect()
}

/// A relaunch of a true straggler: which task, how long it ran first.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Detection {
    /// Task index.
    pub task: usize,
    /// Seconds from the task's first start to the relaunch decision.
    pub latency_s: f64,
}

/// One run of a task execution under a policy, scored.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    /// Seconds until every task finished.
    pub completion_s: f64,
    /// One record per true straggler the policy relaunched.
    pub detections: Vec<Detection>,
}

/// Runs `spec` to completion, scanning every [`SCAN_S`] seconds with
/// `policy` (no intervention under `None`). A marked task is relaunched
/// after the policy's confirmation delay (Quasar's 15 s probe) if it is
/// still running; a task is relaunched at most once.
pub fn run(spec: TaskSpec, policy: Option<Policy>) -> Outcome {
    let mut exec = TaskExecution::new(spec);
    let mut marked: Vec<(usize, f64)> = Vec::new();
    let mut detections = Vec::new();
    let mut guard = 0;
    while !exec.is_complete() {
        exec.advance(SCAN_S);
        guard += 1;
        assert!(guard < 1_000_000, "task execution failed to terminate");
        let Some(policy) = policy else {
            continue;
        };
        let now = exec.now_s();
        for i in policy.marks(&JobView::of(&exec, spec.mean_task_s)) {
            if !exec.tasks()[i].relaunched && !marked.iter().any(|&(m, _)| m == i) {
                marked.push((i, now));
            }
        }
        let (due, waiting) = marked
            .into_iter()
            .partition(|&(_, at)| now - at >= policy.confirm_s());
        marked = waiting;
        for (i, _) in due {
            // The scorer: the one reader of ground truth.
            let task = exec.tasks()[i];
            if exec.relaunch(i) && task.straggler {
                let first_start = task.started_at_s.expect("a running task has started");
                detections.push(Detection {
                    task: i,
                    latency_s: now - first_start,
                });
            }
        }
    }
    Outcome {
        completion_s: exec.now_s(),
        detections,
    }
}

/// Mean detection latency of a detection set; `None` when empty.
pub fn mean_detection_s(detections: &[Detection]) -> Option<f64> {
    if detections.is_empty() {
        None
    } else {
        Some(detections.iter().map(|d| d.latency_s).sum::<f64>() / detections.len() as f64)
    }
}

/// Per-wave mean detection latencies plus the number of detection sets
/// that were *skipped* because they were empty.
///
/// A wave can legitimately detect zero stragglers (none were injected,
/// or the policy never fired before the wave finished). Such a set
/// must degrade the aggregate, not abort it, so it is skipped and
/// counted — the same contract as the adaptation experiment's
/// overhead-fraction aggregation — instead of unwrapped.
pub fn detection_means<'a>(sets: impl IntoIterator<Item = &'a [Detection]>) -> (Vec<f64>, usize) {
    let mut means = Vec::new();
    let mut skipped = 0usize;
    for set in sets {
        match mean_detection_s(set) {
            Some(m) => means.push(m),
            None => skipped += 1,
        }
    }
    (means, skipped)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The adaptation experiment's job: 64 tasks on 16 slots, 60 s
    /// nominal, 20% skew, 8% stragglers at 4×.
    fn adaptation_spec(seed: u64) -> TaskSpec {
        TaskSpec {
            tasks: 64,
            slots: 16,
            mean_task_s: 60.0,
            skew: 0.2,
            straggler_fraction: 0.08,
            straggler_slowdown: 4.0,
            seed,
        }
    }

    fn small_spec() -> TaskSpec {
        TaskSpec {
            tasks: 64,
            slots: 16,
            mean_task_s: 30.0,
            skew: 0.2,
            straggler_fraction: 0.0,
            straggler_slowdown: 1.0,
            seed: 1,
        }
    }

    fn mean(v: &[f64]) -> f64 {
        v.iter().sum::<f64>() / v.len() as f64
    }

    #[test]
    fn all_detectors_find_the_stragglers() {
        let spec = adaptation_spec(0x517A);
        let stragglers = TaskExecution::new(spec)
            .tasks()
            .iter()
            .filter(|t| t.straggler)
            .count();
        assert!(stragglers > 0);
        for policy in [Policy::Hadoop, Policy::Late, Policy::Quasar] {
            let found = run(spec, Some(policy)).detections.len();
            assert_eq!(found, stragglers, "{policy:?}");
        }
        assert!(run(spec, None).detections.is_empty());
    }

    #[test]
    fn quasar_detects_before_late_before_hadoop() {
        // §4.3's shape over 20 seeds, aggregated with the skip-and-count
        // helper: a seed where a policy finds nothing degrades the
        // sample, never panics.
        let runs: Vec<[Outcome; 4]> = (0..20)
            .map(|seed| {
                let spec = adaptation_spec(0x517A + seed);
                [
                    None,
                    Some(Policy::Hadoop),
                    Some(Policy::Late),
                    Some(Policy::Quasar),
                ]
                .map(|policy| run(spec, policy))
            })
            .collect();
        let detection = |k: usize| {
            let (means, _) = detection_means(runs.iter().map(|r| r[k].detections.as_slice()));
            mean(&means)
        };
        let (hadoop, late, quasar) = (detection(1), detection(2), detection(3));
        assert!(
            quasar < late && late < hadoop,
            "expected quasar < late < hadoop, got {quasar:.1} / {late:.1} / {hadoop:.1}"
        );
        let completion =
            |k: usize| mean(&runs.iter().map(|r| r[k].completion_s).collect::<Vec<_>>());
        let (none, late, quasar) = (completion(0), completion(2), completion(3));
        assert!(quasar < none, "quasar {quasar:.0} vs unmitigated {none:.0}");
        assert!(quasar <= late, "quasar {quasar:.0} vs late {late:.0}");
    }

    #[test]
    fn quasar_marks_only_stragglers() {
        let mut exec = TaskExecution::new(TaskSpec {
            straggler_fraction: 0.10,
            straggler_slowdown: 3.0,
            seed: 5,
            ..small_spec()
        });
        exec.advance(10.0);
        let flagged = Policy::Quasar.marks(&JobView::of(&exec, 30.0));
        assert!(!flagged.is_empty(), "slow tasks must be visible mid-wave");
        for idx in flagged {
            assert!(
                exec.tasks()[idx].straggler,
                "task {idx} flagged but healthy"
            );
        }
    }

    #[test]
    fn relaunch_recovers_the_tail() {
        let spec = TaskSpec {
            straggler_fraction: 0.08,
            straggler_slowdown: 5.0,
            seed: 9,
            ..small_spec()
        };
        let unmitigated = run(spec, None).completion_s;
        let mitigated = run(spec, Some(Policy::Quasar)).completion_s;
        assert!(
            mitigated < unmitigated,
            "mitigation must shorten the job: {unmitigated:.0} -> {mitigated:.0}"
        );
    }

    #[test]
    fn no_straggler_wave_is_skipped_and_counted_not_unwrapped() {
        // A healthy job: every policy's detection set is empty, and the
        // aggregation reports it as skipped instead of panicking.
        let sets = [Policy::Hadoop, Policy::Late, Policy::Quasar]
            .map(|p| run(small_spec(), Some(p)).detections);
        for set in &sets {
            assert!(set.is_empty());
            assert_eq!(mean_detection_s(set), None);
        }
        let (means, skipped) = detection_means(sets.iter().map(Vec::as_slice));
        assert!(means.is_empty());
        assert_eq!(skipped, 3);
    }
}
