//! Order statistics for the reported timings, and the seeded generator the
//! workloads draw their inputs from.

/// SplitMix64: the benchmark's own generator, independent of the
/// program's.
pub struct SplitMix(pub u64);

impl SplitMix {
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Fisher-Yates shuffle of `v`.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            v.swap(i, j);
        }
    }
}

/// Median of `v` (mean of the middle pair for even lengths).
pub fn median(v: &[f64]) -> f64 {
    assert!(!v.is_empty(), "median of no samples");
    let mut s = v.to_vec();
    s.sort_by(|a, b| a.total_cmp(b));
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank `p`-th percentile of `v`. Refuses (returns `Err`) when
/// fewer than [`MIN_BEYOND`] samples lie beyond the rank, because such a
/// tail is decided by a handful of samples.
pub fn percentile(v: &[f64], p: f64) -> Result<f64, String> {
    if v.is_empty() || !(0.0..=100.0).contains(&p) {
        return Err(format!("p{p} of {} samples is undefined", v.len()));
    }
    let n = v.len();
    let rank = ((p / 100.0) * n as f64).ceil().max(1.0) as usize;
    let beyond = n - rank.min(n);
    if beyond < MIN_BEYOND {
        return Err(format!(
            "p{p} of {n} samples has {beyond} samples beyond it; at least {MIN_BEYOND} are needed"
        ));
    }
    let mut s = v.to_vec();
    s.sort_by(|a, b| a.total_cmp(b));
    Ok(s[rank - 1])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn p99_needs_ten_samples_beyond() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&v, 99.0).unwrap(), 990.0);
        assert!(percentile(&v[..999], 99.0).is_err());
        assert!(percentile(&v[..100], 99.0).is_err());
        assert_eq!(percentile(&v[..20], 50.0).unwrap(), 10.0);
        assert!(percentile(&v[..19], 50.0).is_err());
    }
}
