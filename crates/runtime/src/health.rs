//! Service health: counters, latency histogram, and snapshots.
//!
//! A [`Watchdog`](crate::JobService) thread (and any caller of
//! [`JobService::health`](crate::JobService::health)) reads a consistent
//! [`HealthSnapshot`] of the service: queue depth, in-flight count,
//! terminal-state counters, breaker state, worker liveness, and a
//! log-bucketed per-job latency histogram.

use crate::breaker::BreakerState;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

/// Number of latency buckets: bucket `i` counts jobs whose latency is in
/// `[2^(i-1), 2^i)` microseconds (bucket 0 counts sub-microsecond jobs),
/// with the last bucket open-ended.
pub const LATENCY_BUCKETS: usize = 24;

/// A log₂-bucketed histogram of per-job latencies (µs).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct LatencyHistogram {
    buckets: [u64; LATENCY_BUCKETS],
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one job latency.
    pub fn record(&mut self, latency: Duration) {
        let micros = latency.as_micros().min(u128::from(u64::MAX)) as u64;
        let bucket = (64 - micros.leading_zeros() as usize).min(LATENCY_BUCKETS - 1);
        self.buckets[bucket] += 1;
    }

    /// The raw bucket counts; bucket `i` covers `[2^(i-1), 2^i)` µs
    /// (bucket 0 counts sub-µs jobs, the last bucket is open-ended).
    pub fn buckets(&self) -> &[u64; LATENCY_BUCKETS] {
        &self.buckets
    }

    /// Total recorded jobs.
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// The median latency upper bound in µs (see
    /// [`quantile_upper_bound_micros`](Self::quantile_upper_bound_micros)).
    pub fn p50_micros(&self) -> Option<u64> {
        self.quantile_upper_bound_micros(0.50)
    }

    /// The 90th-percentile latency upper bound in µs.
    pub fn p90_micros(&self) -> Option<u64> {
        self.quantile_upper_bound_micros(0.90)
    }

    /// The 99th-percentile latency upper bound in µs — the tail the wire
    /// `/metrics` endpoint exports.
    pub fn p99_micros(&self) -> Option<u64> {
        self.quantile_upper_bound_micros(0.99)
    }

    /// An upper bound (in µs) under which at least fraction `q` of
    /// recorded latencies fall, or `None` while empty. Quantiles from a
    /// log histogram are bucket-upper-bound approximations, good to a
    /// factor of two — enough for watchdog alerting.
    pub fn quantile_upper_bound_micros(&self, q: f64) -> Option<u64> {
        let total = self.count();
        if total == 0 {
            return None;
        }
        let target = (q.clamp(0.0, 1.0) * total as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= target {
                return Some(1u64 << i.min(63));
            }
        }
        Some(u64::MAX)
    }
}

impl fmt::Display for LatencyHistogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} jobs", self.count())?;
        if let Some(p50) = self.quantile_upper_bound_micros(0.5) {
            write!(f, ", p50 ≤ {p50} µs")?;
        }
        if let Some(p99) = self.quantile_upper_bound_micros(0.99) {
            write!(f, ", p99 ≤ {p99} µs")?;
        }
        Ok(())
    }
}

/// Lock-free counters the workers bump; `latency` is the one mutex-held
/// piece (histograms are not atomically updatable).
#[derive(Debug, Default)]
pub(crate) struct Metrics {
    pub submitted: AtomicU64,
    pub completed: AtomicU64,
    pub failed: AtomicU64,
    pub shed: AtomicU64,
    pub retried: AtomicU64,
    pub timed_out: AtomicU64,
    pub cancelled: AtomicU64,
    pub worker_panics: AtomicU64,
    pub degraded_runs: AtomicU64,
    pub in_flight: AtomicU64,
    pub latency: Mutex<LatencyHistogram>,
}

impl Metrics {
    pub(crate) fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn read(counter: &AtomicU64) -> u64 {
        counter.load(Ordering::Relaxed)
    }

    pub(crate) fn record_latency(&self, latency: Duration) {
        crate::lock(&self.latency).record(latency);
    }
}

/// A point-in-time view of service health.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub struct HealthSnapshot {
    /// Jobs admitted but not yet picked up by a worker.
    pub queue_depth: usize,
    /// Jobs currently executing.
    pub in_flight: u64,
    /// Worker threads currently alive (quarantined workers excluded
    /// until the watchdog respawns them).
    pub workers_alive: usize,
    /// Jobs admitted since the service started.
    pub submitted: u64,
    /// Jobs that completed with a result.
    pub completed: u64,
    /// Jobs that failed with a typed error.
    pub failed: u64,
    /// Submissions shed at admission (queue full, too large, shutdown).
    pub shed: u64,
    /// Retry attempts scheduled after transient failures.
    pub retried: u64,
    /// Jobs whose deadline expired before execution.
    pub timed_out: u64,
    /// Jobs discarded by a non-draining shutdown.
    pub cancelled: u64,
    /// Worker panics caught and isolated.
    pub worker_panics: u64,
    /// Estimation jobs served by the degraded path.
    pub degraded_runs: u64,
    /// Circuit breaker state at snapshot time.
    pub breaker: BreakerState,
    /// Times the breaker has tripped open.
    pub breaker_trips: u64,
    /// Per-job latency distribution (terminal jobs only).
    pub latency: LatencyHistogram,
}

impl fmt::Display for HealthSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "queue {} | in-flight {} | workers {} | ok {} | failed {} | shed {} | \
             retried {} | timed-out {} | panics {} | degraded {} | breaker {} | {}",
            self.queue_depth,
            self.in_flight,
            self.workers_alive,
            self.completed,
            self.failed,
            self.shed,
            self.retried,
            self.timed_out,
            self.worker_panics,
            self.degraded_runs,
            self.breaker,
            self.latency,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_by_log2_micros() {
        let mut h = LatencyHistogram::new();
        h.record(Duration::from_micros(0)); // bucket 0
        h.record(Duration::from_micros(1)); // bucket 1
        h.record(Duration::from_micros(3)); // bucket 2
        h.record(Duration::from_micros(1000)); // bucket 10
        h.record(Duration::from_secs(3600)); // clamped to last bucket
        assert_eq!(h.count(), 5);
        assert_eq!(h.buckets()[0], 1);
        assert_eq!(h.buckets()[1], 1);
        assert_eq!(h.buckets()[2], 1);
        assert_eq!(h.buckets()[10], 1);
        assert_eq!(h.buckets()[LATENCY_BUCKETS - 1], 1);
    }

    #[test]
    fn quantiles_are_upper_bounds() {
        let mut h = LatencyHistogram::new();
        assert_eq!(h.quantile_upper_bound_micros(0.5), None);
        for _ in 0..99 {
            h.record(Duration::from_micros(3)); // bucket 2, bound 4
        }
        h.record(Duration::from_micros(60_000)); // bucket 16
        assert_eq!(h.quantile_upper_bound_micros(0.5), Some(4));
        assert_eq!(h.quantile_upper_bound_micros(1.0), Some(1 << 16));
        let display = h.to_string();
        assert!(display.contains("100 jobs"), "{display}");
    }

    /// Pins the percentile math exactly at bucket boundaries: with the
    /// population split across two buckets, each accessor must land on
    /// the bucket whose cumulative count first reaches `ceil(q·total)`.
    #[test]
    fn percentile_accessors_at_bucket_boundaries() {
        let mut h = LatencyHistogram::new();
        assert_eq!(h.p50_micros(), None);
        assert_eq!(h.p90_micros(), None);
        assert_eq!(h.p99_micros(), None);
        // 50 records in bucket 1 (bound 2 µs), 50 in bucket 4 (bound 16 µs).
        for _ in 0..50 {
            h.record(Duration::from_micros(1)); // bucket 1, bound 2
        }
        for _ in 0..50 {
            h.record(Duration::from_micros(10)); // bucket 4, bound 16
        }
        assert_eq!(h.buckets()[1], 50);
        assert_eq!(h.buckets()[4], 50);
        // p50 target = ceil(0.5 · 100) = 50 — reached exactly at the end
        // of bucket 1, so the boundary case stays in the lower bucket.
        assert_eq!(h.p50_micros(), Some(2));
        // p90 target = 90 and p99 target = 99 both fall in bucket 4.
        assert_eq!(h.p90_micros(), Some(16));
        assert_eq!(h.p99_micros(), Some(16));
        // A single straggler in the top bucket owns exactly the p100 tail.
        h.record(Duration::from_secs(3600));
        assert_eq!(h.p99_micros(), Some(16), "99th of 101 is still bucket 4");
        assert_eq!(
            h.quantile_upper_bound_micros(1.0),
            Some(1 << (LATENCY_BUCKETS - 1))
        );
    }
}
