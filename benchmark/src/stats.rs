//! Seeded randomness and the order statistics every report is built from.

/// SplitMix64: the harness's own generator, so value pools, shuffles and
/// ingest batches depend on `--seed` and on nothing the program under test
/// could change.
pub struct Rng(u64);

impl Rng {
    /// A stream for one purpose: `seed` is the run's `--seed`, `purpose`
    /// a constant naming what the stream is drawn for.
    pub fn new(seed: u64, purpose: &str) -> Rng {
        let tag = purpose.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        });
        Rng(seed ^ tag)
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n` ≥ 1; the modulo bias is below 2⁻⁴⁰ here).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    /// Fisher–Yates.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// The `p`-th percentile (0–100) of `samples` by the nearest-rank rule:
/// the smallest sample with at least `p` % of the samples at or below it.
/// Sorts in place.
pub fn percentile(samples: &mut [f64], p: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of no samples");
    samples.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * samples.len() as f64).ceil() as usize;
    samples[rank.clamp(1, samples.len()) - 1]
}

/// The `q`-quantile (0–1) of `samples`, interpolated linearly between the
/// two samples it falls between. Sorts in place.
pub fn quantile(samples: &mut [f64], q: f64) -> f64 {
    assert!(!samples.is_empty(), "quantile of no samples");
    samples.sort_by(f64::total_cmp);
    let at = q * (samples.len() - 1) as f64;
    let (below, above) = (at.floor() as usize, at.ceil() as usize);
    samples[below] + (samples[above] - samples[below]) * (at - below as f64)
}

/// The mean of the two middle samples when the count is even.
pub fn median(samples: &mut [f64]) -> f64 {
    quantile(samples, 0.5)
}

pub fn geomean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "geomean of no values");
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// Where a percentile of a mixed-class latency sample fell: the class
/// most of the samples within five percentile points on either side
/// belong to, and its share of them. A percentile well inside one class
/// has purity near 1; one on a class boundary, where run-to-run noise
/// could move it across, has purity near one half.
pub struct ClassAt {
    pub class: usize,
    pub purity: f64,
}

/// `samples` are `(latency, class)` pairs; sorts in place.
pub fn class_at(samples: &mut [(f64, usize)], p: f64) -> ClassAt {
    assert!(!samples.is_empty(), "class_at of no samples");
    samples.sort_by(|a, b| a.0.total_cmp(&b.0));
    let n = samples.len();
    let at = (((p / 100.0) * n as f64).ceil() as usize).clamp(1, n) - 1;
    let reach = (0.05 * n as f64).ceil() as usize;
    let window = &samples[at.saturating_sub(reach)..(at + reach + 1).min(n)];
    let count = |class: usize| window.iter().filter(|s| s.1 == class).count();
    // Ties go to the class of the sample at the percentile itself.
    let class = window
        .iter()
        .map(|s| s.1)
        .max_by_key(|&c| (count(c), c == samples[at].1))
        .expect("window holds the sample at the percentile");
    ClassAt {
        class,
        purity: count(class) as f64 / window.len() as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let mut v: Vec<f64> = (1..=10).map(f64::from).rev().collect();
        assert_eq!(percentile(&mut v, 50.0), 5.0);
        assert_eq!(percentile(&mut v, 90.0), 9.0);
        assert_eq!(percentile(&mut v, 100.0), 10.0);
        assert_eq!(percentile(&mut v, 0.0), 1.0);
        assert_eq!(percentile(&mut [7.0], 90.0), 7.0);
    }

    #[test]
    fn median_averages_the_middle_pair() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn quantile_interpolates() {
        let mut v = [50.0, 10.0, 40.0, 20.0, 30.0];
        assert_eq!(quantile(&mut v, 0.0), 10.0);
        assert_eq!(quantile(&mut v, 0.25), 20.0);
        assert_eq!(quantile(&mut v, 1.0), 50.0);
        assert_eq!(quantile(&mut [1.0, 2.0, 3.0, 4.0], 0.25), 1.75);
        assert_eq!(quantile(&mut [7.0], 0.25), 7.0);
    }

    #[test]
    fn geomean_of_ratios() {
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn class_at_reports_class_and_purity() {
        // 60 fast ops of class 0, 40 slow ops of class 1.
        let mut s: Vec<(f64, usize)> = (0..100)
            .map(|i| (f64::from(i), usize::from(i >= 60)))
            .collect();
        let p50 = class_at(&mut s, 50.0);
        assert_eq!((p50.class, p50.purity), (0, 1.0)); // ranks 44..=54
        let p90 = class_at(&mut s, 90.0);
        assert_eq!((p90.class, p90.purity), (1, 1.0));
        // On the boundary the window holds both classes.
        let p60 = class_at(&mut s, 60.0);
        assert_eq!(p60.class, 0);
        assert!((p60.purity - 6.0 / 11.0).abs() < 1e-12); // ranks 54..=64
                                                          // A stray sample of another class at the percentile does not
                                                          // rename the neighbourhood.
        s[49].1 = 1;
        let p50 = class_at(&mut s, 50.0);
        assert_eq!(p50.class, 0);
        assert!((p50.purity - 10.0 / 11.0).abs() < 1e-12);
        // The top of the sample has only one side to look at.
        assert_eq!(class_at(&mut s, 100.0).purity, 1.0);
    }

    #[test]
    fn rng_streams_are_seeded_and_distinct() {
        let a: Vec<u64> = (0..4).map(|_| Rng::new(7, "x").next()).collect();
        assert!(a.windows(2).all(|w| w[0] == w[1]));
        assert_ne!(Rng::new(7, "x").next(), Rng::new(8, "x").next());
        assert_ne!(Rng::new(7, "x").next(), Rng::new(7, "y").next());
        let mut v: Vec<u32> = (0..50).collect();
        Rng::new(1, "shuffle").shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(v, sorted);
    }
}
