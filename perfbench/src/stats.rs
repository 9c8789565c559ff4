//! The benchmark's own arithmetic: medians, the tail-percentile rule, interval unions,
//! run-seed derivation and the artifact digest.  Kept free of any pipeline type so the
//! self-tests below pin it exactly.

/// Median of `values` (mean of the two middle values for an even count); 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// The tail statistic of a set of run times: the highest nearest-rank percentile that
/// still has at least [`TAIL_BEYOND`] samples strictly beyond it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile reported, in `(0, 100]`.
    pub percentile: f64,
    /// The sample at that percentile.
    pub value: f64,
    /// Samples strictly beyond it.
    pub beyond: usize,
    /// Samples the statistic was taken over.
    pub samples: usize,
}

/// How many samples must lie beyond the reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// Applies the tail rule to `values`.
///
/// With `n` samples the nearest-rank percentile at rank `k` (1-based) has `n - k` samples
/// beyond it, so the highest qualifying rank is `n - 10` and the percentile is
/// `100 (n - 10) / n`.  A tail below the median says nothing about slow runs, so when
/// fewer than 20 samples exist (no percentile at or above p50 has ten samples beyond)
/// the maximum is reported as p100 with zero samples beyond.
pub fn tail(values: &[f64]) -> Tail {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n == 0 {
        return Tail {
            percentile: 100.0,
            value: 0.0,
            beyond: 0,
            samples: 0,
        };
    }
    let rank = n.saturating_sub(TAIL_BEYOND);
    if rank == 0 || 2 * rank < n {
        return Tail {
            percentile: 100.0,
            value: sorted[n - 1],
            beyond: 0,
            samples: n,
        };
    }
    Tail {
        percentile: 100.0 * rank as f64 / n as f64,
        value: sorted[rank - 1],
        beyond: n - rank,
        samples: n,
    }
}

/// Total length covered by the union of half-open `[start, end)` intervals.
pub fn union_len(intervals: &[(u64, u64)]) -> u64 {
    union_within(intervals, (0, u64::MAX))
}

/// Length of the union of `intervals` clipped to `window`.  Overlapping intervals (the
/// same layer busy on several threads at once) count once.
pub fn union_within(intervals: &[(u64, u64)], window: (u64, u64)) -> u64 {
    let mut clipped: Vec<(u64, u64)> = intervals
        .iter()
        .map(|&(start, end)| (start.max(window.0), end.min(window.1)))
        .filter(|(start, end)| start < end)
        .collect();
    clipped.sort_unstable();
    let mut total = 0;
    let mut current: Option<(u64, u64)> = None;
    for (start, end) in clipped {
        current = match current {
            Some((cs, ce)) if start <= ce => Some((cs, ce.max(end))),
            Some((cs, ce)) => {
                total += ce - cs;
                Some((start, end))
            }
            None => Some((start, end)),
        };
    }
    if let Some((cs, ce)) = current {
        total += ce - cs;
    }
    total
}

/// SplitMix64 finalizer: a bijective, well-mixed 64-bit hash.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// The sampling seed of run `run` of a workload invoked with `workload_seed`.
///
/// Seeds are kept below 2^31: artifacts store numbers as JSON doubles, and the
/// save → load round-trip check needs the seed to survive exactly.
pub fn run_seed(workload_seed: u64, run: u64) -> u64 {
    splitmix64(splitmix64(workload_seed) ^ run) & 0x7fff_ffff
}

/// Streaming FNV-1a (64-bit) digest over the artifact and Liberty bytes of a workload,
/// fed in run order.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Folds `bytes` into the digest.
    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// The digest as 16 hex digits.
    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // Shuffled order: the rule must not depend on arrival order.
        (0..n).map(|i| ((i * 7) % n) as f64 + 1.0).collect()
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let t = tail(&ramp(100));
        assert_eq!(
            (t.percentile, t.value, t.beyond, t.samples),
            (90.0, 90.0, 10, 100)
        );
        let t = tail(&ramp(48));
        assert_eq!((t.value, t.beyond), (38.0, 10));
        assert!((t.percentile - 100.0 * 38.0 / 48.0).abs() < 1e-12);
        let t = tail(&ramp(20));
        assert_eq!((t.percentile, t.value, t.beyond), (50.0, 10.0, 10));
    }

    #[test]
    fn tail_falls_back_to_the_max_below_twenty_samples() {
        for n in [1, 5, 10, 11, 19] {
            let t = tail(&ramp(n));
            assert_eq!(
                (t.percentile, t.value, t.beyond),
                (100.0, n as f64, 0),
                "n={n}"
            );
        }
        assert_eq!(tail(&[]).samples, 0);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn overlapping_parallel_intervals_count_once() {
        // Two threads busy over [0,10) and [5,15), a third over [20,30), one empty.
        let intervals = [(20, 30), (0, 10), (5, 15), (40, 40)];
        assert_eq!(union_len(&intervals), 25);
        // Nested and touching intervals merge too.
        assert_eq!(union_len(&[(0, 100), (10, 20), (100, 110)]), 110);
        assert_eq!(union_len(&[]), 0);
    }

    #[test]
    fn self_time_is_the_window_minus_its_covered_part() {
        let window = (10, 50);
        let intervals = [(0, 15), (12, 20), (30, 35), (45, 60)];
        // Covered inside the window: [10,20) + [30,35) + [45,50) = 20.
        let covered = union_within(&intervals, window);
        assert_eq!(covered, 20);
        assert_eq!((window.1 - window.0) - covered, 20);
    }

    #[test]
    fn run_seed_derivation_is_stable() {
        // Pinned values: changing the derivation changes every workload's inputs and
        // breaks comparison with earlier results.
        assert_eq!(run_seed(1, 0), 1_949_917_470);
        assert_eq!(run_seed(1, 1), 1_448_800_798);
        assert_eq!(run_seed(42, 7), 322_561_280);
        assert_ne!(run_seed(1, 0), run_seed(2, 0));
        assert!((0..1000).all(|r| run_seed(9, r) < 1 << 31));
    }

    #[test]
    fn digest_is_fnv1a() {
        let mut d = Digest::default();
        d.update(b"a");
        assert_eq!(d.hex(), "af63dc4c8601ec8c");
    }
}
