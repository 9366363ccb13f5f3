//! The load generator's own randomness: arrival times and template
//! order are pure functions of `--seed`, independent of the program
//! under test.

/// SplitMix64: a tiny, well-mixed generator, enough for gaps and
/// shuffles and free of any dependency on the repository's crates.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    /// A stream for `seed`; `stream` separates independent uses of one
    /// seed (gaps, mix dice, sampling).
    pub fn new(seed: u64, stream: u64) -> SplitMix {
        SplitMix(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)` with 53 random bits.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[lo, hi)`.
    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.unit()
    }

    /// Uniform integer in `[0, n)`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.unit() * n as f64) as usize % n.max(1)
    }

    /// Shuffles a slice in place (Fisher-Yates).
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }

    /// `n` values covering `[lo, hi)` evenly, one drawn inside each of
    /// `n` equal strata, in random order. Every seed then sees nearly
    /// the same set of values and differs in which arrival gets which:
    /// population totals (work submitted, memory asked for) stay put from
    /// seed to seed, so a metric's spread over seeds reflects the system
    /// and not the luck of the draw.
    pub fn stratified(&mut self, n: usize, lo: f64, hi: f64) -> Vec<f64> {
        let width = (hi - lo) / n.max(1) as f64;
        let mut values: Vec<f64> = (0..n)
            .map(|k| lo + width * (k as f64 + self.unit()))
            .collect();
        self.shuffle(&mut values);
        values
    }
}

/// Open-loop arrival times: `n` arrivals with exponential gaps, scaled
/// so that the last one lands exactly at `n * mean_gap_s` (a Poisson
/// process conditioned on its count: bursts and lulls stay, the span of
/// the run does not vary with the seed). Ascending by construction; the
/// generator never looks at the system it drives.
pub fn exponential_arrivals(seed: u64, n: usize, mean_gap_s: f64) -> Vec<f64> {
    let mut rng = SplitMix::new(seed, 1);
    let mut t = 0.0;
    let mut times: Vec<f64> = (0..n)
        .map(|_| {
            t -= (1.0 - rng.unit()).ln();
            t
        })
        .collect();
    let scale = n as f64 * mean_gap_s / t.max(f64::MIN_POSITIVE);
    for at in &mut times {
        *at *= scale;
    }
    times
}

/// For each of `n` arrivals, the template it re-submits: every block of
/// `templates` consecutive arrivals is a fresh seeded permutation of all
/// templates, so each template recurs about `n / templates` times with
/// varying distance between repeats.
pub fn recurring_order(seed: u64, n: usize, templates: usize) -> Vec<usize> {
    let mut rng = SplitMix::new(seed, 2);
    let mut order = Vec::with_capacity(n);
    while order.len() < n {
        let mut block: Vec<usize> = (0..templates).collect();
        rng.shuffle(&mut block);
        order.extend(block);
    }
    order.truncate(n);
    order
}

/// `count` distinct indices out of `0..n` (all of them when
/// `count >= n`), ascending: the seeded sample the stage replay uses.
pub fn sample_indices(seed: u64, n: usize, count: usize) -> Vec<usize> {
    let mut rng = SplitMix::new(seed, 3);
    let mut all: Vec<usize> = (0..n).collect();
    let take = count.min(n);
    for i in 0..take {
        let j = i + rng.below(n - i);
        all.swap(i, j);
    }
    all.truncate(take);
    all.sort_unstable();
    all
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arrivals_are_a_pure_function_of_the_seed() {
        let a = exponential_arrivals(7, 500, 30.0);
        assert_eq!(a, exponential_arrivals(7, 500, 30.0));
        assert_ne!(a, exponential_arrivals(8, 500, 30.0));
        assert!(a.windows(2).all(|w| w[0] < w[1]), "strictly ascending");
        assert_eq!(*a.last().unwrap(), 500.0 * 30.0, "the span is fixed");
        // Exponential gaps: about 1/e of them exceed the mean.
        let long = a.windows(2).filter(|w| w[1] - w[0] > 30.0).count();
        assert!((150..220).contains(&long), "{long} gaps above the mean");
    }

    #[test]
    fn stratified_values_cover_the_range_for_every_seed() {
        for seed in [1, 2] {
            let mut v = SplitMix::new(seed, 9).stratified(10, 100.0, 200.0);
            assert_ne!(v, {
                let mut sorted = v.clone();
                sorted.sort_by(f64::total_cmp);
                sorted
            });
            v.sort_by(f64::total_cmp);
            for (k, x) in v.iter().enumerate() {
                let lo = 100.0 + 10.0 * k as f64;
                assert!((lo..lo + 10.0).contains(x), "stratum {k} holds {x}");
            }
        }
    }

    #[test]
    fn recurring_order_covers_every_template_per_block() {
        let order = recurring_order(3, 200, 64);
        assert_eq!(order.len(), 200);
        for block in order.chunks(64).filter(|b| b.len() == 64) {
            let mut seen = block.to_vec();
            seen.sort_unstable();
            assert_eq!(seen, (0..64).collect::<Vec<_>>());
        }
        assert_ne!(order, recurring_order(4, 200, 64));
        assert_eq!(order, recurring_order(3, 200, 64));
    }

    #[test]
    fn samples_are_distinct_and_seeded() {
        let s = sample_indices(5, 1000, 128);
        assert_eq!(s.len(), 128);
        assert!(s.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(sample_indices(5, 10, 128), (0..10).collect::<Vec<_>>());
        assert_ne!(s, sample_indices(6, 1000, 128));
    }
}
