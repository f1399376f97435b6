//! Percentiles: exact ones from sorted samples, and a log-linear
//! histogram for per-call timings too numerous to keep.

/// The `q`-quantile (0 ≤ q ≤ 1) of `samples` by linear interpolation
/// between the two nearest ranks of the sorted samples. `0.0` when
/// empty.
pub fn quantile(samples: &mut [f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_unstable_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (samples.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    samples[lo] + (samples[hi] - samples[lo]) * (pos - lo as f64)
}

/// The median of `samples` (sorts them).
pub fn median(samples: &mut [f64]) -> f64 {
    quantile(samples, 0.5)
}

/// The arithmetic mean; `0.0` when empty.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// Windows a timed loop is split into for [`window_median`].
pub const WINDOWS: usize = 5;

/// Splits timestamped samples `(t, v)`, `0 ≤ t < span`, into
/// [`WINDOWS`] equal windows of time, applies `stat` to each window's
/// values, and returns the median over the windows. A burst of host
/// interference confined to a minority of the windows leaves it
/// unchanged.
pub fn window_median(
    samples: &[(f64, f64)],
    span: f64,
    stat: impl Fn(&mut Vec<f64>) -> f64,
) -> f64 {
    let mut windows: Vec<Vec<f64>> = vec![Vec::new(); WINDOWS];
    for &(t, v) in samples {
        let w = ((t / span * WINDOWS as f64) as usize).min(WINDOWS - 1);
        windows[w].push(v);
    }
    let mut per: Vec<f64> = windows
        .iter_mut()
        .filter(|w| !w.is_empty())
        .map(stat)
        .collect();
    median(&mut per)
}

/// Sub-buckets per power of two: a value lands in a bucket no wider
/// than 1/128 of itself, so a reported percentile is within 0.8% of
/// the exact one.
const SUB_BITS: u32 = 7;
const SUB: u64 = 1 << SUB_BITS;

/// A log-linear histogram of non-negative integer samples (ns).
#[derive(Debug, Clone)]
pub struct Hist {
    counts: Vec<u64>,
    total: u64,
}

impl Default for Hist {
    fn default() -> Hist {
        Hist {
            counts: vec![0; ((64 - SUB_BITS as usize) + 1) * SUB as usize],
            total: 0,
        }
    }
}

impl Hist {
    fn bucket(v: u64) -> usize {
        if v < SUB {
            return v as usize;
        }
        let exp = 63 - v.leading_zeros();
        let shift = exp - SUB_BITS;
        let sub = (v >> shift) & (SUB - 1);
        ((shift as u64 + 1) * SUB + sub) as usize
    }

    /// The midpoint of bucket `b`.
    fn value(b: usize) -> f64 {
        let b = b as u64;
        if b < SUB {
            return b as f64;
        }
        let shift = b / SUB - 1;
        let lo = (SUB + b % SUB) << shift;
        lo as f64 + ((1u64 << shift) as f64 - 1.0) / 2.0
    }

    /// Records one sample.
    pub fn record(&mut self, v: u64) {
        self.counts[Hist::bucket(v)] += 1;
        self.total += 1;
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// The `q`-quantile (nearest rank); `0.0` when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.total as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for (b, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Hist::value(b);
            }
        }
        unreachable!("rank never exceeds the total count")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_quantiles_interpolate() {
        let mut v = vec![4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&mut v), 2.5);
        assert_eq!(quantile(&mut v, 0.0), 1.0);
        assert_eq!(quantile(&mut v, 1.0), 4.0);
    }

    #[test]
    fn window_median_ignores_one_bad_window() {
        let mut samples: Vec<(f64, f64)> = (0..100).map(|i| (i as f64 / 10.0, 1.0)).collect();
        for s in samples.iter_mut().filter(|s| s.0 < 2.0) {
            s.1 = 50.0;
        }
        assert_eq!(window_median(&samples, 10.0, |w| quantile(w, 0.99)), 1.0);
        assert_eq!(window_median(&samples, 10.0, |w| w.len() as f64), 20.0);
    }

    #[test]
    fn histogram_error_is_below_one_percent() {
        for v in [
            0u64,
            1,
            127,
            128,
            129,
            1000,
            65_537,
            123_456_789,
            u64::MAX / 3,
        ] {
            let mut h = Hist::default();
            h.record(v);
            let got = h.quantile(0.5);
            let err = (got - v as f64).abs() / (v as f64).max(1.0);
            assert!(err <= 0.008, "{v}: {got} ({err})");
        }
    }

    #[test]
    fn histogram_ranks() {
        let mut h = Hist::default();
        for v in 1..=100u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 100);
        assert_eq!(h.quantile(0.5), 50.0);
        assert_eq!(h.quantile(0.99), 99.0);
    }
}
