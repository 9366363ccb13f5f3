//! Property tests on the QoS violation ledger: for any interleaving of
//! violating and on-track ticks across workloads, the closed episodes
//! of a workload never overlap, and together they cover every violating
//! tick exactly once. Plus one fixed case pinning the attribution
//! thresholds through the public API.

use proptest::prelude::*;

use quasar_cluster::{EpisodeRecord, Observation, QosCause, QosEvidence, SloTracker};
use quasar_workloads::{QosTarget, WorkloadId};

const TICK_S: f64 = 10.0;

fn batch_obs(rate: f64, projected_total_s: f64) -> Observation {
    Observation::Batch {
        rate,
        progress: 0.5,
        projected_total_s,
        elapsed_s: 10.0,
    }
}

/// Feeds `patterns[w][i]` (true = violating) for workload `w` at tick
/// `i` and returns the full closed ledger.
fn drive(patterns: &[Vec<bool>]) -> Vec<EpisodeRecord> {
    let mut tracker = SloTracker::new(TICK_S);
    let target = QosTarget::ips(100.0);
    let ticks = patterns.iter().map(Vec::len).max().unwrap_or(0);
    for i in 0..ticks {
        let now = (i + 1) as f64 * TICK_S;
        for (w, pattern) in patterns.iter().enumerate() {
            let Some(&violating) = pattern.get(i) else {
                continue;
            };
            // An IPS target is a floor: rate below 100 violates it.
            let obs = batch_obs(if violating { 50.0 } else { 150.0 }, 100.0);
            tracker.observe(
                now,
                WorkloadId(w as u64),
                &obs,
                &target,
                QosEvidence::default(),
            );
        }
    }
    tracker.close_all((ticks + 1) as f64 * TICK_S);
    tracker.episodes().to_vec()
}

/// One violating tick at `rate` against a 100 IPS floor carrying
/// `evidence`, closed at once: the episode's mean evidence is `evidence`.
fn one_tick_episode(rate: f64, evidence: QosEvidence) -> EpisodeRecord {
    let mut tracker = SloTracker::new(TICK_S);
    let target = QosTarget::ips(100.0);
    let id = WorkloadId(0);
    assert!(tracker
        .observe(TICK_S, id, &batch_obs(rate, 100.0), &target, evidence)
        .is_none());
    tracker.terminate(id, 2.0 * TICK_S).expect("episode open")
}

/// The seven thresholds, each probed on both sides of its documented
/// value, with causes winning in [`QosCause::ALL`] priority order.
#[test]
fn thresholds_attribute_in_priority_order() {
    // (interference, queue wait in ticks, rate deviation, utilization):
    // every signal fires and the most specific wins; dropping it hands
    // the episode to the next cause down.
    let cases = [
        ((0.25, 2.0, 0.61, 0.9), QosCause::Straggler),
        ((0.25, 2.0, 0.6, 0.9), QosCause::CalibrationDrift),
        ((0.25, 2.0, 0.16, 0.9), QosCause::CalibrationDrift),
        ((0.25, 2.0, 0.15, 0.9), QosCause::Interference),
        ((0.24, 2.0, 0.15, 0.9), QosCause::QueueWait),
        ((0.24, 1.9, 0.15, 0.9), QosCause::CapacityShortfall),
        ((0.24, 1.9, 0.15, 0.89), QosCause::Unknown),
    ];
    for ((interference, wait_ticks, rate_deviation, utilization), want) in cases {
        let evidence = QosEvidence {
            interference,
            queue_wait_s: wait_ticks * TICK_S,
            rate_deviation,
            utilization,
        };
        assert_eq!(one_tick_episode(50.0, evidence).cause, want, "{evidence:?}");
    }

    // Severity: depth 0.5 is an incident, just under is not.
    let tracker = SloTracker::new(TICK_S);
    assert!(tracker.is_incident(&one_tick_episode(50.0, QosEvidence::default())));
    assert!(!tracker.is_incident(&one_tick_episode(50.5, QosEvidence::default())));

    // Slack: a completion projected 5 % past its target is still on track.
    let target = QosTarget::completion(1000.0);
    let depth = |projected| tracker.violation_depth(&batch_obs(1.0, projected), &target);
    assert!(depth(1049.0).is_none() && depth(1051.0).is_some());
}

proptest! {
    #[test]
    fn episodes_never_overlap_and_cover_every_violating_tick(
        patterns in proptest::collection::vec(
            proptest::collection::vec(any::<bool>(), 0..60),
            1..4,
        )
    ) {
        let episodes = drive(&patterns);

        for (w, pattern) in patterns.iter().enumerate() {
            let id = WorkloadId(w as u64);
            let mut mine: Vec<_> = episodes.iter().filter(|e| e.workload == id).collect();
            mine.sort_by(|a, b| a.start_s.total_cmp(&b.start_s));

            // No overlap: each episode ends before the next one starts.
            for pair in mine.windows(2) {
                prop_assert!(
                    pair[0].end_s <= pair[1].start_s,
                    "workload {w}: episode [{}, {}] overlaps [{}, {}]",
                    pair[0].start_s, pair[0].end_s, pair[1].start_s, pair[1].end_s,
                );
            }
            for e in &mine {
                prop_assert!(e.start_s < e.end_s, "empty interval [{}, {}]", e.start_s, e.end_s);
            }

            // Coverage: every violating tick falls inside exactly one
            // episode's [start, end), and the ledger charges exactly one
            // tick of an episode for it.
            let violating: Vec<f64> = pattern
                .iter()
                .enumerate()
                .filter(|(_, &v)| v)
                .map(|(i, _)| (i + 1) as f64 * TICK_S)
                .collect();
            for &t in &violating {
                let containing = mine
                    .iter()
                    .filter(|e| e.start_s <= t && t < e.end_s)
                    .count();
                prop_assert_eq!(
                    containing, 1,
                    "workload {}: violating tick at {}s is in {} episodes",
                    w, t, containing
                );
            }
            let charged: u64 = mine.iter().map(|e| e.ticks).sum();
            prop_assert_eq!(
                charged,
                violating.len() as u64,
                "workload {}: ledger charges {} ticks for {} violating observations",
                w, charged, violating.len()
            );
        }
    }

    #[test]
    fn episode_count_matches_violation_runs(pattern in proptest::collection::vec(any::<bool>(), 0..80)) {
        // The number of closed episodes equals the number of maximal
        // runs of consecutive violating ticks.
        let episodes = drive(std::slice::from_ref(&pattern));
        let runs = pattern
            .iter()
            .zip(std::iter::once(&false).chain(pattern.iter()))
            .filter(|&(&cur, &prev)| cur && !prev)
            .count();
        prop_assert_eq!(episodes.len(), runs);
    }
}
