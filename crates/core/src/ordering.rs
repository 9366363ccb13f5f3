//! NaN-safe ordering helpers for `f64` sort keys.
//!
//! `partial_cmp(..).expect(..)` comparators abort the whole run the
//! first time a NaN slips into an estimate. The policy here is instead:
//!
//! - Plain statistics sorts (percentiles, report tables) use
//!   [`f64::total_cmp`] directly — NaN sorts to a deterministic end and
//!   nothing panics.
//! - **Quality rankings** (pick the best server / highest estimate) map
//!   non-finite keys through [`desirability`], so a NaN or infinite
//!   estimate is *never preferred* over any finite candidate.

/// `x` if finite, otherwise `fallback`.
#[inline]
pub fn finite_or(x: f64, fallback: f64) -> f64 {
    if x.is_finite() {
        x
    } else {
        fallback
    }
}

/// Sort key for "higher is better" rankings: non-finite estimates
/// (NaN, ±inf) collapse to [`f64::NEG_INFINITY`] so a corrupted
/// estimate can never win a `max_by`/descending sort over a finite one.
///
/// `+inf` is deliberately *not* treated as "infinitely good": an
/// infinite quality estimate is a model failure, not a great server.
#[inline]
pub fn desirability(x: f64) -> f64 {
    finite_or(x, f64::NEG_INFINITY)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn non_finite_never_wins_a_quality_ranking() {
        let mut xs = [f64::NAN, 3.0, f64::INFINITY, -1.0, f64::NEG_INFINITY];
        xs.sort_by(|a, b| desirability(*b).total_cmp(&desirability(*a)));
        assert_eq!(xs[0], 3.0);
        assert_eq!(xs[1], -1.0);
    }

    #[test]
    fn finite_values_pass_through() {
        assert_eq!(desirability(1.5), 1.5);
        assert_eq!(finite_or(0.0, 9.0), 0.0);
        assert_eq!(finite_or(f64::NAN, 9.0), 9.0);
    }

    #[test]
    fn total_cmp_is_deterministic_with_nan() {
        let mut a = [2.0, f64::NAN, 1.0];
        let mut b = [f64::NAN, 1.0, 2.0];
        a.sort_by(f64::total_cmp);
        b.sort_by(f64::total_cmp);
        assert_eq!(a[0], 1.0);
        assert_eq!(a[1], 2.0);
        assert!(a[2].is_nan() && b[2].is_nan());
    }
}
