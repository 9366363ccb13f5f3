//! Property-based tests for the interference model.

use proptest::prelude::*;

use quasar_interference::{penalty_for, InterferenceProfile, PressureVector, SharedResource};

fn pressure_vec() -> impl Strategy<Value = PressureVector> {
    proptest::collection::vec(0.0..100.0f64, 10)
        .prop_map(|vals| PressureVector::from_fn(|r| vals[r.index()]))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Penalty always lies in (0, 1].
    #[test]
    fn penalty_is_bounded(tol in pressure_vec(), ext in pressure_vec()) {
        let p = penalty_for(&tol, &ext);
        prop_assert!(p > 0.0 && p <= 1.0, "penalty {p}");
    }

    /// Penalty is monotone non-increasing in external pressure
    /// (component-wise domination).
    #[test]
    fn penalty_is_monotone(tol in pressure_vec(), ext in pressure_vec(), extra in pressure_vec()) {
        let more = ext + extra;
        prop_assert!(penalty_for(&tol, &more) <= penalty_for(&tol, &ext) + 1e-12);
    }

    /// Pressure at or below tolerance never penalizes.
    #[test]
    fn below_tolerance_is_free(tol in pressure_vec(), scale in 0.0..1.0f64) {
        let ext = tol.scaled(scale);
        prop_assert_eq!(penalty_for(&tol, &ext), 1.0);
    }

    /// The sensitivity point is consistent with the penalty law: at that
    /// pressure, the single-resource penalty equals 1 - qos_loss (or the
    /// point saturates at 100).
    #[test]
    fn sensitivity_point_round_trips(tol in pressure_vec(), loss in 0.01..0.3f64) {
        let profile = InterferenceProfile::new(tol, PressureVector::zero());
        for r in SharedResource::ALL {
            let point = profile.sensitivity_point(r, loss);
            prop_assert!((0.0..=100.0).contains(&point));
            if point < 100.0 {
                let pen = profile.resource_penalty(r, point);
                prop_assert!((pen - (1.0 - loss)).abs() < 1e-9, "{r}: pen {pen}");
            }
        }
    }

    /// Pressure arithmetic keeps every component in [0, 100].
    #[test]
    fn pressure_vector_stays_clamped(a in pressure_vec(), b in pressure_vec(), k in -3.0..3.0f64) {
        for v in [a + b, a - b, a.scaled(k), a.component_max(&b)] {
            for (_, x) in v.iter() {
                prop_assert!((0.0..=100.0).contains(&x));
            }
        }
    }
}
