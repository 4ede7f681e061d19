//! Lock-free metric primitives: counters, fixed-bucket histograms, gauges.
//!
//! All mutators gate on [`crate::enabled`] (one relaxed atomic load) so the
//! disabled path costs a predictable branch, and record via relaxed atomics
//! so the enabled path never takes a lock.

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};

/// Number of power-of-two latency buckets a [`Histogram`] keeps. Bucket `i`
/// counts observations in `[2^i, 2^(i+1))` nanoseconds (bucket 0 also takes
/// zero); the last bucket absorbs everything larger (~4.3 s and up).
pub const HIST_BUCKETS: usize = 32;

/// A monotonically increasing event counter.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    pub fn new() -> Self {
        Self::default()
    }

    /// Add `n` events (no-op while instrumentation is disabled).
    #[inline]
    pub fn add(&self, n: u64) {
        if crate::enabled() {
            self.value.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Shorthand for `add(1)`.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    /// Fold another process's accumulated total into this counter.
    ///
    /// Unlike [`Counter::add`] this is **not** gated on [`crate::enabled`]:
    /// it is the cross-process merge path (a coordinator absorbing worker
    /// snapshots), not hot-path instrumentation, and dropping already-paid
    /// remote totals because the local switch happens to be off would break
    /// counter conservation in merged reports.
    #[inline]
    pub fn merge_add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    pub(crate) fn reset(&self) {
        self.value.store(0, Ordering::Relaxed);
    }
}

/// A fixed-bucket (power-of-two nanoseconds) latency/size histogram.
#[derive(Debug)]
pub struct Histogram {
    count: AtomicU64,
    sum: AtomicU64,
    buckets: [AtomicU64; HIST_BUCKETS],
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

/// Bucket index for an observation: `floor(log2(value))`, clamped.
#[inline]
pub fn bucket_index(value: u64) -> usize {
    if value == 0 {
        return 0;
    }
    ((63 - value.leading_zeros()) as usize).min(HIST_BUCKETS - 1)
}

/// Inclusive upper bound of bucket `i` (`u64::MAX` for the overflow bucket).
pub fn bucket_bound(i: usize) -> u64 {
    if i + 1 >= HIST_BUCKETS {
        u64::MAX
    } else {
        (1u64 << (i + 1)) - 1
    }
}

impl Histogram {
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one observation (nanoseconds for latencies, bytes for sizes).
    #[inline]
    pub fn observe(&self, value: u64) {
        if !crate::enabled() {
            return;
        }
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
    }

    /// Fold another histogram's totals into this one, bucket by bucket.
    ///
    /// `buckets` carries `(inclusive upper bound, count)` pairs as produced
    /// by a report snapshot; each bound maps back onto the pow2 bucket that
    /// contains it ([`bucket_index`]), so merging is exact as long as both
    /// sides use the same bucket layout — which the protocol version pins.
    /// Like [`Counter::merge_add`], this is the cross-process merge path and
    /// is deliberately not gated on [`crate::enabled`].
    pub fn merge(&self, count: u64, sum: u64, buckets: &[(u64, u64)]) {
        self.count.fetch_add(count, Ordering::Relaxed);
        self.sum.fetch_add(sum, Ordering::Relaxed);
        for &(bound, c) in buckets {
            self.buckets[bucket_index(bound)].fetch_add(c, Ordering::Relaxed);
        }
    }

    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Snapshot of all bucket counts.
    pub fn buckets(&self) -> [u64; HIST_BUCKETS] {
        std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed))
    }

    pub(crate) fn reset(&self) {
        self.count.store(0, Ordering::Relaxed);
        self.sum.store(0, Ordering::Relaxed);
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
    }
}

/// An up/down gauge with a high-watermark (e.g. async checkpoint queue
/// depth).
#[derive(Debug, Default)]
pub struct Gauge {
    current: AtomicI64,
    max: AtomicI64,
}

impl Gauge {
    pub fn new() -> Self {
        Self::default()
    }

    /// Add `delta` (may be negative) and update the high-watermark.
    #[inline]
    pub fn add(&self, delta: i64) {
        if !crate::enabled() {
            return;
        }
        let now = self.current.fetch_add(delta, Ordering::Relaxed) + delta;
        self.raise_max(now);
    }

    /// Raise the high-watermark to `candidate` if it is higher, via an
    /// explicit CAS loop so a concurrent raise can never overwrite a
    /// larger peak with a smaller one.
    #[inline]
    fn raise_max(&self, candidate: i64) {
        let mut seen = self.max.load(Ordering::Relaxed);
        while candidate > seen {
            match self.max.compare_exchange_weak(
                seen,
                candidate,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return,
                Err(actual) => seen = actual,
            }
        }
    }

    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    #[inline]
    pub fn dec(&self) {
        self.add(-1);
    }

    /// Overwrite the current value (still watermarked).
    pub fn set(&self, value: i64) {
        if !crate::enabled() {
            return;
        }
        self.current.store(value, Ordering::Relaxed);
        self.raise_max(value);
    }

    pub fn get(&self) -> i64 {
        self.current.load(Ordering::Relaxed)
    }

    pub fn max(&self) -> i64 {
        self.max.load(Ordering::Relaxed)
    }

    pub(crate) fn reset(&self) {
        self.current.store(0, Ordering::Relaxed);
        self.max.store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_indexing() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 0);
        assert_eq!(bucket_index(2), 1);
        assert_eq!(bucket_index(3), 1);
        assert_eq!(bucket_index(4), 2);
        assert_eq!(bucket_index(1 << 31), HIST_BUCKETS - 1);
        assert_eq!(bucket_index(u64::MAX), HIST_BUCKETS - 1);
        assert_eq!(bucket_bound(0), 1);
        assert_eq!(bucket_bound(1), 3);
        assert_eq!(bucket_bound(HIST_BUCKETS - 1), u64::MAX);
    }

    #[test]
    fn merge_paths_ignore_the_enabled_switch() {
        let _lock = crate::test_lock();
        crate::disable();
        let c = Counter::new();
        c.merge_add(7);
        assert_eq!(c.get(), 7, "merge_add is the ungated cross-process path");

        let h = Histogram::new();
        h.merge(3, 1029, &[(1, 1), (1023, 1), (u64::MAX, 1)]);
        assert_eq!((h.count(), h.sum()), (3, 1029));
        let buckets = h.buckets();
        assert_eq!(buckets[0], 1, "bound 1 lands in bucket 0");
        assert_eq!(buckets[9], 1, "bound 1023 lands in bucket 9");
        assert_eq!(buckets[HIST_BUCKETS - 1], 1, "the overflow bound folds into the last bucket");
    }

    #[test]
    fn disabled_metrics_record_nothing() {
        let _lock = crate::test_lock();
        crate::disable();
        let c = Counter::new();
        c.add(5);
        assert_eq!(c.get(), 0);
        let h = Histogram::new();
        h.observe(100);
        assert_eq!(h.count(), 0);
        let g = Gauge::new();
        g.inc();
        assert_eq!(g.get(), 0);
    }

    #[test]
    fn gauge_high_watermark_survives_concurrent_adds() {
        let _lock = crate::test_lock();
        crate::enable();
        // Monotone adds from many threads: the peak is, by construction,
        // the final value — any missed intermediate max manifests as
        // max < current at the end. Mixed up/down traffic then checks the
        // watermark never exceeds what was simultaneously outstanding.
        let g = std::sync::Arc::new(Gauge::new());
        const THREADS: usize = 8;
        const ADDS: i64 = 2_000;
        let handles: Vec<_> = (0..THREADS)
            .map(|_| {
                let g = std::sync::Arc::clone(&g);
                std::thread::spawn(move || {
                    for _ in 0..ADDS {
                        g.inc();
                    }
                })
            })
            .collect();
        for h in handles {
            let _ = h.join();
        }
        let total = THREADS as i64 * ADDS;
        assert_eq!(g.get(), total);
        assert_eq!(g.max(), total, "CAS watermark must capture the true peak");

        let g = std::sync::Arc::new(Gauge::new());
        let handles: Vec<_> = (0..THREADS)
            .map(|_| {
                let g = std::sync::Arc::clone(&g);
                std::thread::spawn(move || {
                    for _ in 0..ADDS {
                        g.inc();
                        g.dec();
                    }
                })
            })
            .collect();
        for h in handles {
            let _ = h.join();
        }
        assert_eq!(g.get(), 0);
        assert!(g.max() >= 1, "at least one increment was observed");
        assert!(g.max() <= THREADS as i64, "peak bounded by concurrent holders");
        crate::disable();
    }

    #[test]
    fn enabled_metrics_accumulate() {
        let _lock = crate::test_lock();
        crate::enable();
        let c = Counter::new();
        c.add(2);
        c.inc();
        assert_eq!(c.get(), 3);

        let h = Histogram::new();
        h.observe(0);
        h.observe(5);
        h.observe(1 << 20);
        assert_eq!(h.count(), 3);
        assert_eq!(h.sum(), 5 + (1 << 20));
        let buckets = h.buckets();
        assert_eq!(buckets[0], 1);
        assert_eq!(buckets[2], 1);
        assert_eq!(buckets[20], 1);

        let g = Gauge::new();
        g.inc();
        g.inc();
        g.dec();
        assert_eq!(g.get(), 1);
        assert_eq!(g.max(), 2);
        g.set(10);
        assert_eq!(g.max(), 10);

        c.reset();
        h.reset();
        g.reset();
        assert_eq!(c.get(), 0);
        assert_eq!(h.count(), 0);
        assert_eq!((g.get(), g.max()), (0, 0));
        crate::disable();
    }
}
