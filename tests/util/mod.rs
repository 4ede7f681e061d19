//! Shared infrastructure for the integration tests.
//!
//! Integration-test binaries are separate crates; each `#[path]`-includes
//! this module, so every helper is `pub` and some are unused in any single
//! binary (hence the `dead_code` allowance).

#![allow(dead_code)]

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};
use swt::prelude::*;

static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

/// A temp dir unique across processes (pid) and across calls within this
/// process (counter), so concurrent test binaries and repeated tests in one
/// binary can never collide on a path.
pub fn temp_dir(tag: &str) -> PathBuf {
    let seq = DIR_SEQ.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("swt_{tag}_{}_{seq}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Poll `cond` until it returns true or `timeout` elapses — the
/// deadline-based replacement for fixed sleeps when a test waits on state
/// produced by another process (worker checkpoints on the shared store,
/// reaped children, …). Returns whether the condition was met, so callers
/// assert with their own message.
pub fn poll_until(timeout: Duration, mut cond: impl FnMut() -> bool) -> bool {
    let deadline = Instant::now() + timeout;
    loop {
        if cond() {
            return true;
        }
        if Instant::now() > deadline {
            // One last look: the condition may have become true while the
            // poller was asleep right at the deadline.
            return cond();
        }
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// Conservation: folding every per-worker snapshot through
/// `RunReport::merge` must equal the plain per-counter (and per-histogram)
/// sum over processes — report.json totals for a multi-process run are
/// produced exactly this way.
pub fn assert_conserved(stats: &DistRunStats, what: &str) {
    let merged = stats.workers_report();
    let mut names: Vec<&str> = Vec::new();
    for (_, m) in &stats.per_worker {
        for c in &m.counters {
            if !names.contains(&c.name.as_str()) {
                names.push(&c.name);
            }
        }
    }
    assert!(!names.is_empty(), "{what}: workers reported no counters at all");
    for name in names {
        let sum: u64 = stats.per_worker.iter().map(|(_, m)| m.counter(name)).sum();
        assert_eq!(merged.counter(name), sum, "{what}: counter `{name}` not conserved");
    }
    for h in &merged.histograms {
        let (mut count, mut sum) = (0u64, 0u64);
        for (_, m) in &stats.per_worker {
            if let Some(wh) = m.histograms.iter().find(|x| x.name == h.name) {
                count += wh.count;
                sum += wh.sum;
            }
        }
        assert_eq!((h.count, h.sum), (count, sum), "{what}: histogram `{}` not conserved", h.name);
    }
}

/// The A/B identity contract: the two canonical traces — everything the
/// strategy and the paper's analyses consume — must match byte for byte.
pub fn assert_traces_identical(a: &NasTrace, b: &NasTrace, what: &str) {
    if let Some(diff) = a.canonical_diff(b) {
        panic!("{what}: canonical traces differ at {diff}");
    }
}
