//! Order statistics for the benchmark's own measurements.

use std::collections::BTreeMap;

/// Significant bits [`LatencyHist`] keeps: a sample is stored rounded
/// down to its top 10 bits, i.e. to within 0.2 %, so the number of
/// entries stays below 512 per power of two.
const MANTISSA_BITS: u32 = 10;

/// Rounds `nanos` down to the histogram's grain.
fn grain(nanos: u64) -> u64 {
    let width = u64::BITS - nanos.leading_zeros();
    let drop = width.saturating_sub(MANTISSA_BITS);
    nanos >> drop << drop
}

/// Weighted latency samples, each kept to within 0.2 % (see
/// [`MANTISSA_BITS`]), so millions of requests cost a few thousand
/// entries and quantiles are exact up to that grain.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LatencyHist {
    counts: BTreeMap<u64, u64>,
    total: u64,
}

impl LatencyHist {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records `weight` samples of `nanos`.
    pub fn record(&mut self, nanos: u64, weight: u64) {
        if weight == 0 {
            return;
        }
        *self.counts.entry(grain(nanos)).or_insert(0) += weight;
        self.total += weight;
    }

    /// Adds every sample of `other`.
    pub fn merge(&mut self, other: &LatencyHist) {
        for (&k, &w) in &other.counts {
            *self.counts.entry(k).or_insert(0) += w;
        }
        self.total += other.total;
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Nearest-rank quantile in microseconds; `None` when empty.
    pub fn quantile_us(&self, q: f64) -> Option<f64> {
        if self.total == 0 {
            return None;
        }
        let rank = ((q * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut seen = 0;
        for (&k, &w) in &self.counts {
            seen += w;
            if seen >= rank {
                return Some(k as f64 / 1e3);
            }
        }
        unreachable!("rank is at most the total weight")
    }

    /// Largest sample in microseconds; `None` when empty.
    pub fn max_us(&self) -> Option<f64> {
        self.counts.keys().next_back().map(|&k| k as f64 / 1e3)
    }
}

/// Median of `values` (mean of the middle pair for even lengths); `NaN`
/// for an empty slice, which the report rejects as a failed measurement.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Nanoseconds in `d`, saturating.
pub fn nanos(d: std::time::Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Peak resident set size of this process in MB (`VmHWM`), or `NaN` when
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// FNV-1a over a stream of 64-bit words: the trajectory digest the
/// correctness gates compare.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(pub u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Folds one word into the digest.
    pub fn push(&mut self, word: u64) {
        for byte in word.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// Folds one round's report: every counter plus the sum and maximum
    /// of its waiting times.
    pub fn push_round(&mut self, r: &iba_sim::process::RoundReport) {
        for word in [
            r.round,
            r.generated,
            r.thrown,
            r.accepted,
            r.deleted,
            r.failed_deletions,
            r.pool_size,
            r.buffered,
            r.max_load,
            r.waiting_times.iter().sum::<u64>(),
            r.waiting_times.iter().copied().max().unwrap_or(0),
        ] {
            self.push(word);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_quantiles_are_nearest_rank() {
        let mut h = LatencyHist::new();
        for v in 1..=100u64 {
            h.record(v << 10, 1);
        }
        assert_eq!(h.count(), 100);
        assert_eq!(h.quantile_us(0.5), Some(51.2));
        assert_eq!(h.quantile_us(0.99), Some(101.376));
        assert_eq!(h.max_us(), Some(102.4));
        let mut g = LatencyHist::new();
        g.record(7_000, 3);
        h.merge(&g);
        assert_eq!(h.count(), 103);
    }

    #[test]
    fn grain_keeps_ten_significant_bits() {
        assert_eq!(grain(1023), 1023);
        assert_eq!(grain(1025), 1024);
        assert_eq!(grain(123_456_789), 123_456_789 >> 17 << 17);
        assert!(grain(123_456_789) as f64 >= 123_456_789.0 * 0.998);
    }

    #[test]
    fn median_handles_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
    }
}
