//! Task-level execution of framework jobs.
//!
//! The main simulator advances batch jobs as fluids (work units per
//! second), which is exact for throughput but hides per-task dynamics.
//! This module provides the task-level view the paper's §4.3 needs: a job
//! is split into map tasks that run in waves over the allocated task
//! slots, individual tasks deviate from the fluid rate (data skew, and
//! injected stragglers from interference or machine instability), and a
//! `TaskTracker`-style API exposes per-task progress and relaunch. This is
//! the only task model: the speculation policies and the driver that runs
//! them live in `quasar_core::straggler`, and they observe a task only
//! through its progress and elapsed time. Each task's true duration and
//! straggler flag are ground truth for scoring, not for detection.
//!
//! # Examples
//!
//! ```
//! use quasar_cluster::tasks::{TaskExecution, TaskSpec};
//!
//! let spec = TaskSpec {
//!     tasks: 64,
//!     slots: 16,
//!     mean_task_s: 30.0,
//!     skew: 0.2,
//!     straggler_fraction: 0.05,
//!     straggler_slowdown: 3.0,
//!     seed: 7,
//! };
//! let mut exec = TaskExecution::new(spec);
//! exec.advance(10.0);
//! assert!(exec.job_progress() > 0.0);
//! assert!(!exec.is_complete());
//! ```

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Parameters of a task-level job execution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TaskSpec {
    /// Total map tasks (dataset / block size).
    pub tasks: usize,
    /// Concurrent task slots (nodes × mappers per node).
    pub slots: usize,
    /// Mean task duration at the current allocation, in seconds.
    pub mean_task_s: f64,
    /// Relative duration spread from data skew (0 = uniform).
    pub skew: f64,
    /// Fraction of tasks that straggle.
    pub straggler_fraction: f64,
    /// Slowdown factor of straggling tasks (>1).
    pub straggler_slowdown: f64,
    /// RNG seed for per-task variation.
    pub seed: u64,
}

/// State of one task.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TaskState {
    /// Duration this task needs, in seconds.
    pub duration_s: f64,
    /// Seconds of execution received so far.
    pub elapsed_s: f64,
    /// Time the task was dispatched, if it has started.
    pub started_at_s: Option<f64>,
    /// Whether the task was relaunched by straggler mitigation.
    pub relaunched: bool,
    /// Whether the task is a (ground-truth) straggler.
    pub straggler: bool,
}

impl TaskState {
    /// Progress in `[0, 1]`.
    pub fn progress(&self) -> f64 {
        (self.elapsed_s / self.duration_s).clamp(0.0, 1.0)
    }

    /// Whether the task has finished.
    pub fn is_done(&self) -> bool {
        self.elapsed_s >= self.duration_s
    }
}

/// A wave-based task execution: tasks are dispatched onto slots FIFO,
/// run to completion, and free their slot for the next task.
#[derive(Debug, Clone)]
pub struct TaskExecution {
    spec: TaskSpec,
    tasks: Vec<TaskState>,
    running: Vec<usize>,
    next_task: usize,
    now_s: f64,
}

impl TaskExecution {
    /// Builds the execution, sampling per-task durations.
    ///
    /// # Panics
    ///
    /// Panics if `tasks` or `slots` is zero, or `mean_task_s` is not
    /// positive.
    pub fn new(spec: TaskSpec) -> TaskExecution {
        assert!(spec.tasks > 0, "need at least one task");
        assert!(spec.slots > 0, "need at least one slot");
        assert!(spec.mean_task_s > 0.0, "tasks need positive duration");
        let mut rng = StdRng::seed_from_u64(spec.seed);
        let tasks = (0..spec.tasks)
            .map(|_| {
                let skewed =
                    spec.mean_task_s * (1.0 + spec.skew * rng.random_range(-1.0..1.0_f64)).max(0.1);
                let straggler = rng.random_range(0.0..1.0_f64) < spec.straggler_fraction;
                let duration = if straggler {
                    skewed * spec.straggler_slowdown.max(1.0)
                } else {
                    skewed
                };
                TaskState {
                    duration_s: duration,
                    elapsed_s: 0.0,
                    started_at_s: None,
                    relaunched: false,
                    straggler,
                }
            })
            .collect();
        let mut exec = TaskExecution {
            spec,
            tasks,
            running: Vec::new(),
            next_task: 0,
            now_s: 0.0,
        };
        exec.dispatch();
        exec
    }

    fn dispatch(&mut self) {
        while self.running.len() < self.spec.slots && self.next_task < self.tasks.len() {
            self.tasks[self.next_task].started_at_s = Some(self.now_s);
            self.running.push(self.next_task);
            self.next_task += 1;
        }
    }

    /// Advances execution by `dt` seconds.
    pub fn advance(&mut self, dt: f64) {
        self.now_s += dt;
        for &idx in &self.running {
            self.tasks[idx].elapsed_s += dt;
        }
        self.running.retain(|&idx| !self.tasks[idx].is_done());
        self.dispatch();
    }

    /// Current simulation time within this execution.
    pub fn now_s(&self) -> f64 {
        self.now_s
    }

    /// All task states (the `TaskTracker` view).
    pub fn tasks(&self) -> &[TaskState] {
        &self.tasks
    }

    /// Indices of currently running tasks.
    pub fn running(&self) -> &[usize] {
        self.running.as_slice()
    }

    /// Mean progress across all tasks (the job progress the framework
    /// reports).
    pub fn job_progress(&self) -> f64 {
        self.tasks.iter().map(TaskState::progress).sum::<f64>() / self.tasks.len() as f64
    }

    /// Whether every task has finished.
    pub fn is_complete(&self) -> bool {
        self.running.is_empty() && self.next_task >= self.tasks.len()
    }

    /// Relaunches a task on a healthy slot (straggler mitigation): its
    /// remaining work restarts at the nominal (non-straggler) duration.
    ///
    /// Returns false if the task is not running.
    pub fn relaunch(&mut self, idx: usize) -> bool {
        if !self.running.contains(&idx) {
            return false;
        }
        let mean = self.spec.mean_task_s;
        let task = &mut self.tasks[idx];
        // The relaunched copy starts fresh at nominal speed.
        task.duration_s = mean;
        task.elapsed_s = 0.0;
        task.started_at_s = Some(self.now_s);
        task.relaunched = true;
        task.straggler = false;
        true
    }

    /// Total wall-clock this execution will take if run to completion
    /// with no further intervention (simulated on a clone).
    pub fn completion_time(&self) -> f64 {
        let mut clone = self.clone();
        let step = self.spec.mean_task_s / 20.0;
        let mut guard = 0;
        while !clone.is_complete() {
            clone.advance(step);
            guard += 1;
            assert!(guard < 4_000_000, "task execution failed to terminate");
        }
        clone.now_s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> TaskSpec {
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

    #[test]
    fn runs_in_waves() {
        let mut exec = TaskExecution::new(spec());
        assert_eq!(exec.running().len(), 16);
        // 64 tasks / 16 slots = 4 waves of ~30s.
        let total = exec.completion_time();
        assert!((90.0..200.0).contains(&total), "completion {total:.0}s");
        while !exec.is_complete() {
            exec.advance(2.0);
        }
        assert!((exec.now_s() - total).abs() <= 2.0 + 1e-9);
        assert!((exec.job_progress() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn stragglers_extend_the_job() {
        let clean = TaskExecution::new(spec()).completion_time();
        let slow = TaskExecution::new(TaskSpec {
            straggler_fraction: 0.08,
            straggler_slowdown: 4.0,
            ..spec()
        })
        .completion_time();
        assert!(
            slow > clean * 1.2,
            "stragglers must dominate the tail: {clean:.0} vs {slow:.0}"
        );
    }

    #[test]
    fn progress_is_monotone() {
        let mut exec = TaskExecution::new(spec());
        let mut last = 0.0;
        for _ in 0..50 {
            exec.advance(3.0);
            let p = exec.job_progress();
            assert!(p >= last);
            last = p;
        }
    }

    #[test]
    #[should_panic(expected = "at least one slot")]
    fn zero_slots_panics() {
        TaskExecution::new(TaskSpec { slots: 0, ..spec() });
    }
}
