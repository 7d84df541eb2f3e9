//! Measurement arithmetic shared by every workload: nearest-rank
//! quantiles with the tail rule, output digests, peak memory, and the
//! metric record each workload fills.

use std::collections::BTreeMap;

use yala_telemetry::stable_hash64;

/// Samples a tail percentile must leave beyond it to be reported.
pub const TAIL_BEYOND: usize = 10;

/// The tail percentile reported when the sample count allows it.
pub const TAIL_Q: f64 = 0.99;

/// Nearest-rank index of quantile `q` in `n` sorted samples.
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n) - 1
}

/// Nearest-rank quantile `q` of `sorted` (ascending, non-empty).
fn quantile(sorted: &[f64], q: f64) -> f64 {
    sorted[rank(sorted.len(), q)]
}

/// The least of repeated timings of the same work: host interference
/// only ever adds time.
pub fn fastest(times: impl IntoIterator<Item = f64>) -> f64 {
    times.into_iter().fold(f64::INFINITY, f64::min)
}

/// Median of `sorted` (nearest rank), or 0 for no samples.
pub fn median(sorted: &[f64]) -> f64 {
    if sorted.is_empty() {
        0.0
    } else {
        quantile(sorted, 0.5)
    }
}

/// The tail rule: the value at p99, or at the highest percentile that
/// still leaves [`TAIL_BEYOND`] samples beyond it. Returns the value and
/// the percentile used, or `None` when fewer than `TAIL_BEYOND + 1`
/// samples exist and no percentile qualifies.
pub fn tail(sorted: &[f64]) -> Option<(f64, f64)> {
    let n = sorted.len();
    if n <= TAIL_BEYOND {
        return None;
    }
    let k = rank(n, TAIL_Q);
    if n - 1 - k >= TAIL_BEYOND {
        return Some((sorted[k], TAIL_Q));
    }
    let k = n - 1 - TAIL_BEYOND;
    Some((sorted[k], (k + 1) as f64 / n as f64))
}

/// [`tail`] where the samples allow it, else their maximum (0 for none):
/// per-layer spans of rare operations (faults, absorbs) still report.
pub fn tail_or_max(sorted: &[f64]) -> f64 {
    tail(sorted).map_or_else(|| sorted.last().copied().unwrap_or(0.0), |(v, _)| v)
}

/// Sorts a sample vector ascending (samples are finite durations).
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

/// A running digest of a stream of lines (replies, reports, journals),
/// chained through the workspace's stable hash.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Digest(u64);

impl Digest {
    /// Folds one line into the digest.
    pub fn line(&mut self, bytes: &[u8]) {
        self.0 = stable_hash64(&[&self.0.to_le_bytes(), bytes].concat());
    }

    /// The digest as fixed-width hex.
    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

/// Peak resident memory of this process in MB (`VmHWM`), if the
/// platform reports it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// One reported number: value, unit, and the samples behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Metric {
    pub value: f64,
    pub unit: &'static str,
    pub samples: u64,
}

/// What a workload run produced: its operation tallies, the checks it
/// failed, and its metrics by name.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// One line per failed correctness check; empty means correct.
    pub problems: Vec<String>,
    pub metrics: BTreeMap<&'static str, Metric>,
}

impl Outcome {
    /// Records a metric (the last write of a name wins).
    pub fn set(&mut self, name: &'static str, value: f64, unit: &'static str, samples: u64) {
        self.metrics.insert(
            name,
            Metric {
                value,
                unit,
                samples,
            },
        );
    }

    /// Records a failed check unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(what());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn tail_is_p99_when_ten_samples_lie_beyond_it() {
        // 2,000 samples: p99 is rank 1,980 (value 1,980), 20 beyond.
        assert_eq!(tail(&ramp(2_000)), Some((1_980.0, 0.99)));
        // 1,100 samples: p99 is rank 1,089, exactly 11 beyond.
        assert_eq!(tail(&ramp(1_100)), Some((1_089.0, 0.99)));
    }

    #[test]
    fn tail_falls_back_to_the_highest_percentile_with_ten_beyond() {
        // 200 samples: p99 would leave 2 beyond; rank 190 leaves 10.
        let (v, q) = tail(&ramp(200)).expect("200 samples qualify");
        assert_eq!(v, 190.0);
        assert!((q - 0.95).abs() < 1e-12, "{q}");
        // Exactly 10 beyond the reported value, never fewer.
        let s = ramp(57);
        let (v, _) = tail(&s).expect("57 samples qualify");
        assert_eq!(s.iter().filter(|&&x| x > v).count(), TAIL_BEYOND);
    }

    #[test]
    fn tail_refuses_too_few_samples() {
        assert_eq!(tail(&ramp(10)), None);
        assert_eq!(tail(&[]), None);
        assert_eq!(tail(&ramp(11)), Some((1.0, 1.0 / 11.0)));
    }

    #[test]
    fn median_is_nearest_rank() {
        assert_eq!(median(&ramp(5)), 3.0);
        assert_eq!(median(&ramp(4)), 2.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn digest_is_order_sensitive() {
        let mut a = Digest::default();
        a.line(b"x");
        a.line(b"y");
        let mut b = Digest::default();
        b.line(b"y");
        b.line(b"x");
        assert_ne!(a, b);
        let mut c = Digest::default();
        c.line(b"x");
        c.line(b"y");
        assert_eq!(a, c);
    }
}
