//! Order statistics and the digest the correctness checks compare.

/// Nearest-rank percentile of an ascending slice: the smallest sample with
/// at least `p` of the samples at or below it. With 120 samples the 90th
/// percentile leaves 12 samples beyond it.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median with the middle pair averaged (what `statistics.median` gives).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n > 0, "median of no samples");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// FNV-1a over bytes, continued from `state`; start from [`FNV_OFFSET`].
pub fn fnv1a(mut state: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        state ^= u64::from(b);
        state = state.wrapping_mul(0x0000_0100_0000_01b3);
    }
    state
}

/// FNV-1a offset basis.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Digest of a lattice's cells plus the simulated clock's bits.
pub fn state_digest(cells: &[u8], time: f64) -> u64 {
    fnv1a(fnv1a(FNV_OFFSET, cells), &time.to_bits().to_le_bytes())
}

/// SplitMix64: the harness's own generator, so a change to `psr-rng`
/// cannot change which jobs a seed produces.
pub struct SplitMix(pub u64);

impl SplitMix {
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (modulo bias is irrelevant at these sizes).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 5.0);
        assert_eq!(percentile(&v, 0.9), 9.0);
        assert_eq!(percentile(&v, 1.0), 10.0);
        assert_eq!(percentile(&[7.0], 0.9), 7.0);
        let v: Vec<f64> = (1..=120).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.9), 108.0);
    }

    #[test]
    fn median_averages_the_middle_pair() {
        let v: Vec<f64> = (1..=10).rev().map(f64::from).collect();
        assert_eq!(median(&v), 5.5);
        assert_eq!(median(&[16.0, 1.0, 4.0, 2.0, 8.0]), 4.0);
    }

    #[test]
    fn digest_separates_cells_and_clock() {
        // FNV-1a("a") from the reference vectors.
        assert_eq!(fnv1a(FNV_OFFSET, b"a"), 0xaf63_dc4c_8601_ec8c);
        let d = state_digest(&[0, 1, 2], 1.5);
        assert_eq!(d, state_digest(&[0, 1, 2], 1.5));
        assert_ne!(d, state_digest(&[0, 1, 3], 1.5));
        assert_ne!(d, state_digest(&[0, 1, 2], 1.5000000000000002));
    }
}
