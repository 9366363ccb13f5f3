//! Every classification entry point counts exactly one decision (the
//! benchmark's "classifications + index hits = arrivals" check relies on
//! it). The registry is process-global, so this is the only test in its
//! binary: nothing else classifies concurrently.

use quasar_core::{Classifier, GoalKind, HistorySet, ProfilingData};
use quasar_obs::Registry;
use quasar_workloads::PlatformCatalog;

#[test]
fn each_entry_point_counts_one_classification() {
    let history = HistorySet::bootstrap(&PlatformCatalog::local(), 3, 5);
    let data = ProfilingData {
        kind: GoalKind::Rate,
        scale_up: vec![(0, 100.0)],
        scale_out: vec![],
        hetero: vec![(0, 90.0)],
        params: vec![],
        tolerated: vec![(1, 40.0)],
        caused: vec![],
        wall_seconds: 1.0,
        total_seconds: 1.0,
    };
    let classifier = Classifier::new();
    let counter = Registry::global().counter("quasar.core.classify.classifications");
    let before = counter.get();
    classifier.classify(&history, &data);
    assert_eq!(counter.get(), before + 1, "classify");
    let (_, _, models) = classifier.classify_with_models(&history, &data);
    assert_eq!(counter.get(), before + 2, "classify_with_models");
    classifier.classify_warm(&history, &data, &models);
    assert_eq!(counter.get(), before + 3, "classify_warm");
}
