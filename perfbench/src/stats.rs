//! Timing helpers: nearest-rank percentiles, the "at least ten samples
//! beyond" rule, and open-loop due-time accounting.

use std::time::{Duration, Instant};

/// A percentile is reported only when at least this many samples lie
/// strictly beyond the sample it selects.
pub const MIN_BEYOND: usize = 10;

/// Zero-based index of the nearest-rank `q` quantile of `n` sorted
/// samples: the smallest sample with at least `q * n` samples at or
/// below it. `n` must be positive.
pub fn rank(n: usize, q: f64) -> usize {
    assert!(n > 0, "rank of an empty sample");
    let r = (q * n as f64).ceil() as usize;
    r.clamp(1, n) - 1
}

/// Samples lying strictly beyond the nearest-rank `q` quantile.
pub fn beyond(n: usize, q: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - 1 - rank(n, q)
    }
}

/// The nearest-rank `q` quantile of `samples`, or `None` when fewer than
/// [`MIN_BEYOND`] samples lie beyond it.
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    if beyond(samples.len(), q) < MIN_BEYOND {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank(sorted.len(), q)])
}

/// The nearest-rank `q` quantile with no sample-count rule (for
/// per-layer tables, which print the count beside it).
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[rank(sorted.len(), q)]
}

/// Median of a small set (mean of the middle pair for even counts).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty set");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// A fixed open-loop schedule: event `i` is due at `start + i * interval`
/// whether or not earlier events finished. Latencies are measured from
/// the due time, so a stall also charges the events queued behind it.
#[derive(Debug, Clone, Copy)]
pub struct Schedule {
    start: Instant,
    interval: Duration,
}

impl Schedule {
    pub fn new(start: Instant, per_second: f64) -> Schedule {
        assert!(per_second > 0.0, "schedule rate must be positive");
        Schedule {
            start,
            interval: Duration::from_secs_f64(1.0 / per_second),
        }
    }

    pub fn start(&self) -> Instant {
        self.start
    }

    pub fn due(&self, i: usize) -> Instant {
        self.start + self.interval.mul_f64(i as f64)
    }

    /// Microseconds from event `i`'s due time to `at` (0 if `at` came
    /// first).
    pub fn since_due_us(&self, i: usize, at: Instant) -> f64 {
        micros(at.saturating_duration_since(self.due(i)))
    }
}

pub fn micros(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_selects_the_smallest_covering_sample() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(quantile(&v, 1.0), 100.0);
        assert_eq!(quantile(&[7.0], 0.99), 7.0);
        // Order of the input does not matter.
        let rev: Vec<f64> = v.iter().rev().copied().collect();
        assert_eq!(quantile(&rev, 0.5), 50.0);
    }

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        assert_eq!(beyond(1000, 0.99), 10);
        assert_eq!(beyond(999, 0.99), 9);
        let v: Vec<f64> = (0..1000).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.99), Some(989.0));
        assert_eq!(percentile(&v[..999], 0.99), None);
        assert_eq!(beyond(20, 0.5), 10);
        assert_eq!(beyond(19, 0.5), 9);
        assert_eq!(percentile(&v[..20], 0.5), Some(9.0));
        assert!(percentile(&v[..19], 0.5).is_none());
        assert!(percentile(&[], 0.5).is_none());
    }

    #[test]
    fn median_of_odd_and_even_sets() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn due_times_do_not_drift_with_late_sends() {
        let t0 = Instant::now();
        let s = Schedule::new(t0, 1000.0);
        assert_eq!(s.due(0), t0);
        assert_eq!(s.due(1000), t0 + Duration::from_secs(1));
        // An event acked 3 ms after its due time measures 3 ms, however
        // late the previous one ran.
        let at = s.due(10) + Duration::from_millis(3);
        assert!((s.since_due_us(10, at) - 3000.0).abs() < 1.0);
        // Acks before the due time never go negative.
        assert_eq!(s.since_due_us(10, t0), 0.0);
    }
}
