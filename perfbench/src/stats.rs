//! Order statistics shared by the workloads and the comparator.

/// Samples that must lie beyond a tail percentile before it is reported
/// as measured (choosing-metrics §1).
pub const MIN_BEYOND_TAIL: usize = 10;

/// Sorts a copy of `xs` (NaN-free by construction: every sample is a
/// measured duration or a ratio of positive counts).
fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("samples are never NaN"));
    v
}

/// Nearest-rank percentile `p` (0 < p ≤ 100) of `xs`; `0.0` when empty.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let v = sorted(xs);
    v[rank(v.len(), p) - 1]
}

/// One-based nearest rank of percentile `p` among `n` samples (the
/// epsilon keeps `99.9% of 10000` at rank 9990 despite rounding).
fn rank(n: usize, p: f64) -> usize {
    ((p / 100.0 * n as f64 - 1e-9).ceil() as usize).clamp(1, n)
}

/// How many of `n` samples lie strictly above the nearest-rank
/// percentile `p`.
pub fn beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, p)
    }
}

/// The highest of the usual tail percentiles that still has at least
/// [`MIN_BEYOND_TAIL`] samples beyond it among `n`, or `None` when not
/// even the median does.
pub fn tail_percentile(n: usize) -> Option<f64> {
    [99.9, 99.0, 90.0, 75.0, 50.0]
        .into_iter()
        .find(|&p| beyond(n, p) >= MIN_BEYOND_TAIL)
}

/// "`n` samples, `k` beyond p90; ..." for the human-readable output.
pub fn sample_note(n: usize) -> String {
    format!(
        "{n} samples, {} beyond p90; highest tail with >= {MIN_BEYOND_TAIL} beyond: {}",
        beyond(n, 90.0),
        tail_percentile(n).map_or("none".to_string(), |p| format!("p{p}")),
    )
}

/// Median (the mean of the two middle samples for an even count).
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let v = sorted(xs);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// First and third quartiles exactly as Python's
/// `statistics.quantiles(xs, n=4)` (the default `exclusive` method)
/// computes them, so spreads printed here match an external check.
pub fn quartiles(xs: &[f64]) -> (f64, f64) {
    let v = sorted(xs);
    match v.len() {
        0 => (0.0, 0.0),
        1 => (v[0], v[0]),
        ld => {
            let q = |i: usize| {
                let m = ld + 1;
                let j = (i * m / 4).clamp(1, ld - 1);
                let delta = (i * m) as f64 - (j * 4) as f64;
                (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
            };
            (q(1), q(3))
        }
    }
}

/// Interquartile range as a share of the median (`0.0` for a zero
/// median).
pub fn relative_spread(xs: &[f64]) -> f64 {
    let (q1, q3) = quartiles(xs);
    let m = median(xs);
    if m == 0.0 {
        0.0
    } else {
        (q3 - q1) / m.abs()
    }
}

/// Geometric mean of positive ratios (`1.0` when empty).
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 1.0;
    }
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// FNV-1a over a byte stream, for report digests.
#[derive(Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Absorbs `bytes`.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// The digest so far.
    pub fn finish(self) -> u64 {
        self.0
    }
}

/// One splitmix64 step: the benchmark's own seeded stream, independent
/// of any generator inside the program under test.
pub fn splitmix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method_for_odd_counts() {
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), (1.5, 4.5));
        // statistics.quantiles([1..=9], n=4) == [2.5, 5.0, 7.5]
        let nine: Vec<f64> = (1..=9).map(f64::from).collect();
        assert_eq!(quartiles(&nine), (2.5, 7.5));
        assert_eq!(median(&nine), 5.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method_for_even_counts() {
        // statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
        assert_eq!(quartiles(&[4.0, 3.0, 2.0, 1.0]), (1.25, 3.75));
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), (2.75, 8.25));
        assert_eq!(median(&ten), 5.5);
        // Two samples clamp to the ends: quantiles([1, 2], n=4) gives
        // [0.75, 1.5, 2.25].
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0));
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond_it() {
        // 100 samples: p99 has 1 beyond, p90 has exactly 10.
        assert_eq!(beyond(100, 90.0), 10);
        assert_eq!(tail_percentile(100), Some(90.0));
        // 99 samples: p90's rank is 90, leaving only 9 beyond, so the
        // tail falls back to p75.
        assert_eq!(beyond(99, 90.0), 9);
        assert_eq!(tail_percentile(99), Some(75.0));
        // 1000 samples support p99; 10_000 support p99.9.
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        // Fewer than 20 samples leave fewer than 10 beyond even the
        // median.
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(0), None);
    }

    #[test]
    fn nearest_rank_percentile_picks_a_sample() {
        let xs: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), 10.0);
        assert_eq!(percentile(&xs, 90.0), 18.0);
        assert_eq!(percentile(&xs, 100.0), 20.0);
        assert_eq!(percentile(&[], 90.0), 0.0);
    }

    #[test]
    fn geomean_of_ratios() {
        assert!((geomean(&[2.0, 0.5]) - 1.0).abs() < 1e-12);
        assert!((geomean(&[4.0, 1.0]) - 2.0).abs() < 1e-12);
    }
}
