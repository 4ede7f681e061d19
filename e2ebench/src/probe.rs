//! Outside-in instrumentation: wrappers around the program's public
//! `EvalBackend` and `CheckpointStore` traits. Nothing here reaches inside
//! a crate; every number is taken at a trait boundary.

use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;
use swt::checkpoint::{CheckpointIndex, CheckpointStore};
use swt::nas::{BackendResult, Candidate, EvalBackend};
use swt::tensor::Tensor;

/// One result as the runner received it from the backend.
#[derive(Debug, Clone)]
pub struct Returned {
    pub id: u64,
    /// Seconds since the workload origin when `next_result` returned it.
    pub at: f64,
    pub score: f64,
    /// `t_end - t_start` on the backend's own clock.
    pub backend_secs: f64,
    pub train_secs: f64,
    pub transfer_secs: f64,
    pub save_secs: f64,
}

/// Everything the backend wrapper saw, on one clock whose origin is the
/// start of the workload (so the first submit time is the set-up time).
#[derive(Debug, Default)]
pub struct ProbeLog {
    /// `(id, rung, seconds since origin)` per `submit`.
    pub submits: Vec<(u64, u8, f64)>,
    pub returns: Vec<Returned>,
    /// Seconds spent inside `submit`.
    pub submit_secs: f64,
    /// Seconds spent inside `next_result` (the runner waiting on slots).
    pub wait_secs: f64,
}

impl ProbeLog {
    pub fn first_submit(&self) -> Option<f64> {
        self.submits.first().map(|s| s.2)
    }

    /// Results with duplicates (re-deliveries after a reassignment) dropped,
    /// in arrival order.
    pub fn unique_returns(&self) -> Vec<&Returned> {
        let mut seen = std::collections::HashSet::new();
        self.returns.iter().filter(|r| seen.insert(r.id)).collect()
    }

    /// Search wall: first submit to last result.
    pub fn search_secs(&self) -> f64 {
        match (self.first_submit(), self.returns.last()) {
            (Some(s), Some(r)) => r.at - s,
            _ => 0.0,
        }
    }

    /// Submitted candidates that never came back.
    pub fn failed(&self) -> usize {
        self.submits.len().saturating_sub(self.unique_returns().len())
    }

    /// Seconds from the first submit until the first returned result whose
    /// score reaches `target`.
    pub fn time_to(&self, target: f64) -> Option<f64> {
        let first = self.first_submit()?;
        self.returns.iter().find(|r| r.score >= target).map(|r| r.at - first)
    }
}

/// Times every backend call and logs each submit and result.
pub struct Probe<'a, B: EvalBackend> {
    inner: &'a mut B,
    origin: Instant,
    pub log: ProbeLog,
}

impl<'a, B: EvalBackend> Probe<'a, B> {
    pub fn new(inner: &'a mut B, origin: Instant) -> Self {
        Probe { inner, origin, log: ProbeLog::default() }
    }
}

impl<B: EvalBackend> EvalBackend for Probe<'_, B> {
    fn capacity(&self) -> usize {
        self.inner.capacity()
    }

    fn submit(&mut self, cand: Candidate) -> io::Result<()> {
        let t0 = Instant::now();
        let (id, rung) = (cand.id, cand.rung);
        self.inner.submit(cand)?;
        self.log.submit_secs += t0.elapsed().as_secs_f64();
        self.log.submits.push((id, rung, t0.duration_since(self.origin).as_secs_f64()));
        Ok(())
    }

    fn next_result(&mut self) -> io::Result<BackendResult> {
        let t0 = Instant::now();
        let res = self.inner.next_result()?;
        let t1 = Instant::now();
        self.log.wait_secs += (t1 - t0).as_secs_f64();
        self.log.returns.push(Returned {
            id: res.cand.id,
            at: t1.duration_since(self.origin).as_secs_f64(),
            score: res.outcome.score,
            backend_secs: res.t_end - res.t_start,
            train_secs: res.outcome.train_secs,
            transfer_secs: res.outcome.transfer_secs,
            save_secs: res.outcome.save_secs,
        });
        Ok(res)
    }
}

/// Call count, busy nanoseconds and bytes of one store operation.
#[derive(Debug, Default)]
pub struct OpStat {
    calls: AtomicU64,
    nanos: AtomicU64,
    bytes: AtomicU64,
}

impl OpStat {
    fn record(&self, t0: Instant, bytes: u64) {
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.nanos.fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.bytes.fetch_add(bytes, Ordering::Relaxed);
    }

    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }

    pub fn secs(&self) -> f64 {
        self.nanos.load(Ordering::Relaxed) as f64 * 1e-9
    }

    pub fn bytes(&self) -> u64 {
        self.bytes.load(Ordering::Relaxed)
    }

    /// Mean milliseconds per call (0 when never called).
    pub fn mean_ms(&self) -> f64 {
        match self.calls() {
            0 => 0.0,
            n => self.secs() * 1e3 / n as f64,
        }
    }
}

fn tensor_bytes(entries: &[(String, Tensor)]) -> u64 {
    entries.iter().map(|(_, t)| t.numel() as u64 * 4).sum()
}

/// A `CheckpointStore` that times every call into the store it wraps.
pub struct TimedStore<S: CheckpointStore> {
    inner: S,
    pub save: OpStat,
    pub index: OpStat,
    pub tensors: OpStat,
    /// Whole-checkpoint reads (`load`, `load_raw`).
    pub raw: OpStat,
    errors: AtomicU64,
}

impl<S: CheckpointStore> TimedStore<S> {
    pub fn new(inner: S) -> Self {
        TimedStore {
            inner,
            save: OpStat::default(),
            index: OpStat::default(),
            tensors: OpStat::default(),
            raw: OpStat::default(),
            errors: AtomicU64::new(0),
        }
    }

    pub fn errors(&self) -> u64 {
        self.errors.load(Ordering::Relaxed)
    }

    fn count<T>(&self, r: io::Result<T>) -> io::Result<T> {
        if r.is_err() {
            self.errors.fetch_add(1, Ordering::Relaxed);
        }
        r
    }
}

impl<S: CheckpointStore> CheckpointStore for TimedStore<S> {
    fn save(&self, id: &str, entries: &[(String, Tensor)]) -> io::Result<u64> {
        let t0 = Instant::now();
        let r = self.count(self.inner.save(id, entries));
        self.save.record(t0, *r.as_ref().unwrap_or(&0));
        r
    }

    fn load(&self, id: &str) -> io::Result<Vec<(String, Tensor)>> {
        let t0 = Instant::now();
        let r = self.count(self.inner.load(id));
        self.raw.record(t0, r.as_ref().map_or(0, |e| tensor_bytes(e)));
        r
    }

    fn load_raw(&self, id: &str) -> io::Result<Vec<u8>> {
        let t0 = Instant::now();
        let r = self.count(self.inner.load_raw(id));
        self.raw.record(t0, r.as_ref().map_or(0, |b| b.len() as u64));
        r
    }

    fn load_index(&self, id: &str) -> io::Result<CheckpointIndex> {
        let t0 = Instant::now();
        let r = self.count(self.inner.load_index(id));
        self.index.record(t0, 0);
        r
    }

    fn load_tensors(&self, id: &str, names: &[String]) -> io::Result<Vec<(String, Tensor)>> {
        let t0 = Instant::now();
        let r = self.count(self.inner.load_tensors(id, names));
        self.tensors.record(t0, r.as_ref().map_or(0, |e| tensor_bytes(e)));
        r
    }

    fn exists(&self, id: &str) -> bool {
        self.inner.exists(id)
    }

    fn size_bytes(&self, id: &str) -> Option<u64> {
        self.inner.size_bytes(id)
    }

    fn list(&self) -> Vec<String> {
        self.inner.list()
    }

    fn delete(&self, id: &str) -> bool {
        self.inner.delete(id)
    }
}
