//! Simulated-time statistics of one repeat, computed by the harness from
//! what the program journaled: admission latency and the Fig. 11a
//! performance-normalised-to-target score.

/// What an arrival asked for, in the harness's own terms.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Goal {
    /// Finish within this many seconds of submission.
    CompletionS(f64),
    /// Sustain at least `ips` work units per second while running.
    Ips {
        /// The rate floor.
        ips: f64,
        /// Work units in the whole job.
        total_work: f64,
    },
    /// A latency-critical service, scored by its share of queries served
    /// within the latency bound.
    Service,
}

/// What happened to one arrival by the horizon.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Fate {
    /// When the generator scheduled the submission.
    pub scheduled_s: f64,
    /// First journaled placement.
    pub placed_s: Option<f64>,
    /// When that placement becomes active: its time plus the activation
    /// delay the manager charged for profiling.
    pub active_s: f64,
    /// Journaled completion (batch only).
    pub finished_s: Option<f64>,
    /// Share of the job done at the horizon (unfinished batch).
    pub progress: f64,
    /// Work rate observed at the horizon (unfinished batch).
    pub rate: f64,
    /// Share of offered queries that met the latency bound (services).
    pub qos_fraction: f64,
}

/// Simulated admission latency of one arrival: scheduled submission to
/// the moment its first placement becomes active, so delivery lag,
/// queueing and the profiling delay all count. An arrival still unplaced
/// at the horizon is censored at `horizon - scheduled`, the least it can
/// have waited, so that it lengthens the tail instead of vanishing from
/// it.
pub fn admit_sim_s(fate: &Fate, horizon_s: f64) -> f64 {
    match fate.placed_s {
        Some(_) => (fate.active_s - fate.scheduled_s).max(0.0),
        None => (horizon_s - fate.scheduled_s).max(0.0),
    }
}

/// Performance normalised to target, capped at 1 (Fig. 11a).
///
/// Completion targets score `target / (finished - scheduled)`; an
/// unfinished job scores the projection from its progress,
/// `target * progress / (horizon - scheduled)`, and 0 without progress.
/// Rate floors score the rate achieved while placed; a job still running
/// scores its last observed rate and a job never placed scores 0.
/// Services score their share of queries within the latency bound.
pub fn normalised_performance(goal: &Goal, fate: &Fate, horizon_s: f64) -> f64 {
    let score = match *goal {
        Goal::CompletionS(target_s) => match fate.finished_s {
            Some(finished) => target_s / (finished - fate.scheduled_s).max(f64::EPSILON),
            None if fate.progress <= 0.0 => 0.0,
            None => {
                let elapsed = (horizon_s - fate.scheduled_s).max(f64::EPSILON);
                target_s * fate.progress / elapsed
            }
        },
        Goal::Ips { ips, total_work } => match (fate.placed_s, fate.finished_s) {
            (Some(placed), Some(finished)) if finished > placed => {
                total_work / (finished - placed) / ips
            }
            (Some(_), None) => fate.rate / ips,
            _ => 0.0,
        },
        Goal::Service => fate.qos_fraction,
    };
    if score.is_finite() {
        score.clamp(0.0, 1.0)
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unplaced_arrivals_are_censored_at_the_horizon() {
        let placed = Fate {
            scheduled_s: 100.0,
            placed_s: Some(104.0),
            active_s: 145.0,
            ..Fate::default()
        };
        assert_eq!(admit_sim_s(&placed, 10_000.0), 45.0);
        let waiting = Fate {
            scheduled_s: 9_000.0,
            ..Fate::default()
        };
        assert_eq!(admit_sim_s(&waiting, 10_000.0), 1_000.0);
        // Censoring moves the tail: one unplaced arrival out of 100
        // placed within 45 s sets the p99.
        let mut waits: Vec<f64> = (0..99).map(|_| admit_sim_s(&placed, 10_000.0)).collect();
        waits.push(admit_sim_s(&waiting, 10_000.0));
        crate::stats::sort(&mut waits);
        assert_eq!(crate::stats::percentile_sorted(&waits, 0.5), 45.0);
        assert_eq!(crate::stats::percentile_sorted(&waits, 1.0), 1_000.0);
    }

    #[test]
    fn completion_targets_score_against_the_scheduled_time() {
        let goal = Goal::CompletionS(600.0);
        let on_time = Fate {
            scheduled_s: 0.0,
            placed_s: Some(5.0),
            finished_s: Some(500.0),
            ..Fate::default()
        };
        assert_eq!(normalised_performance(&goal, &on_time, 9_000.0), 1.0);
        let late = Fate {
            finished_s: Some(1_200.0),
            ..on_time
        };
        assert!((normalised_performance(&goal, &late, 9_000.0) - 0.5).abs() < 1e-12);
        // Unfinished: halfway after exactly the target time projects 0.5;
        // no progress scores 0 however late it was submitted.
        let half = Fate {
            scheduled_s: 9_400.0,
            progress: 0.5,
            ..Fate::default()
        };
        assert!((normalised_performance(&goal, &half, 10_000.0) - 0.5).abs() < 1e-12);
        let nothing = Fate {
            scheduled_s: 9_999.0,
            ..Fate::default()
        };
        assert_eq!(normalised_performance(&goal, &nothing, 10_000.0), 0.0);
    }

    #[test]
    fn rate_floors_and_services() {
        let goal = Goal::Ips {
            ips: 10.0,
            total_work: 1_000.0,
        };
        let done = Fate {
            placed_s: Some(100.0),
            finished_s: Some(300.0),
            ..Fate::default()
        };
        assert!((normalised_performance(&goal, &done, 1e4) - 0.5).abs() < 1e-12);
        let running = Fate {
            placed_s: Some(100.0),
            rate: 25.0,
            ..Fate::default()
        };
        assert_eq!(normalised_performance(&goal, &running, 1e4), 1.0);
        assert_eq!(normalised_performance(&goal, &Fate::default(), 1e4), 0.0);
        let served = Fate {
            qos_fraction: 0.97,
            ..Fate::default()
        };
        assert_eq!(normalised_performance(&Goal::Service, &served, 1e4), 0.97);
    }
}
