//! Message layer: typed frames and their payload encodings (DESIGN.md §10).
//!
//! | type | frame     | direction           | payload                                  |
//! |------|-----------|---------------------|------------------------------------------|
//! | 0x01 | Hello     | worker → coordinator| version, worker_id, pid                  |
//! | 0x02 | HelloAck  | coordinator → worker| version, [`RunSpec`]                     |
//! | 0x03 | Task      | coordinator → worker| id, parent, arch sequence, rung, epochs  |
//! | 0x04 | Result    | worker → coordinator| id + [`EvalOutcome`] (stop reason last)  |
//! | 0x05 | Ping      | coordinator → worker| nonce                                    |
//! | 0x06 | Pong      | worker → coordinator| echoed nonce                             |
//! | 0x07 | Shutdown  | coordinator → worker| (empty)                                  |
//! | 0x08 | Error     | either              | utf-8 description                        |
//! | 0x0A | Telemetry | worker → coordinator| seq-numbered cumulative [`Telemetry`]    |
//!
//! 0x09 and 0x0B are unassigned (both were frames of earlier protocol
//! versions and are not reused) and decode as [`WireError::UnknownType`].
//!
//! All integers little-endian; floats as IEEE-754 bit patterns (scores must
//! round-trip bit-exactly — the A/B identity gate compares them with `==`).
//! Every field of every frame is mandatory: both ends refuse a peer whose
//! protocol version differs, so there is exactly one layout per frame and
//! any strict prefix of a valid payload is malformed.

use crate::frame::{put_string, Cursor, WireError};
use swt_core::{TransferScheme, TransferStats};
use swt_data::{AppKind, DataScale};
use swt_nas::{Candidate, Convergence, EvalFidelity, EvalOutcome, StopReason, MAX_RUNGS};
use swt_obs::metrics::{bucket_bound, bucket_index, HIST_BUCKETS};
use swt_obs::report::{CounterRow, HistogramRow};
use swt_obs::RunReport;
use swt_space::ArchSeq;

/// Everything a worker needs to reproduce the coordinator's evaluation
/// environment, sent once in `HelloAck`. The worker builds the same
/// problem/search-space/evaluator from these fields that `run_nas` builds
/// in-process — that is the whole determinism story: candidate seeds derive
/// from `(run_seed, id)` and the data from `(app, scale, data_seed)`.
#[derive(Debug, Clone, PartialEq)]
pub struct RunSpec {
    pub app: AppKind,
    pub scale: DataScale,
    pub data_seed: u64,
    pub scheme: TransferScheme,
    pub epochs: u32,
    pub run_seed: u64,
    /// Checkpoint-id namespace (see `NasConfig::namespace`).
    pub namespace: String,
    /// Root of the shared `DirStore` (the stand-in for the paper's parallel
    /// file system).
    pub store_dir: String,
    /// Intra-op thread budget this worker must pin
    /// (`hardware / workers`, floored at 1 — same policy as the in-process
    /// pool).
    pub threads: u32,
    /// Per-worker provider-cache byte budget: the worker wraps its
    /// `DirStore` in a `CachedStore` of this size (0 disables caching).
    /// Sized coordinator-side as the run's cache budget split across the
    /// dispatch window, mirroring the in-process shared cache.
    pub cache_bytes: u64,
    /// Zero-cost pre-filter quantile in `[0, 1)`; 0 disables the filter.
    pub prefilter_quantile: f64,
    /// Convergence window in epochs; 0 disables per-candidate early
    /// stopping.
    pub conv_window: u32,
    /// Loss-delta threshold paired with `conv_window`.
    pub conv_min_delta: f64,
    /// Checkpoint-store endpoint, e.g. `tcp://host:port`. Empty means "use
    /// the shared `DirStore` at `store_dir`"; non-empty means the worker
    /// dials a `swt-ckpt-server` and speaks the store protocol, with
    /// `namespace` doubling as its tenant bucket.
    pub store_url: String,
}

impl RunSpec {
    /// The evaluator-side fidelity knobs carried by this spec — what a
    /// worker passes to `Evaluator::set_fidelity` so its evaluations match
    /// the coordinator's in-process ones bit for bit.
    pub fn eval_fidelity(&self) -> EvalFidelity {
        EvalFidelity {
            prefilter_quantile: self.prefilter_quantile,
            convergence: (self.conv_window > 0).then_some(Convergence {
                window: self.conv_window as usize,
                min_delta: self.conv_min_delta,
            }),
        }
    }
}

/// A worker process's cumulative counter/histogram snapshot — the part of
/// a [`Telemetry`] frame the run report merges.
///
/// Snapshots are *cumulative since worker start*, not deltas: the
/// coordinator keeps only the latest snapshot per worker, so a lost frame
/// (or a worker killed mid-run) costs at most the metrics of work done
/// after its last delivered snapshot — never double counting. Merging the
/// latest snapshot of every process plus the coordinator's own registry
/// yields whole-run totals (`report.json` conservation).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct WorkerMetrics {
    pub counters: Vec<CounterRow>,
    pub histograms: Vec<HistogramRow>,
}

impl WorkerMetrics {
    /// View the snapshot as a counters/histograms-only [`RunReport`], the
    /// shape `RunReport::merge` and `absorb_into` consume.
    pub fn to_report(&self) -> RunReport {
        RunReport {
            counters: self.counters.clone(),
            histograms: self.histograms.clone(),
            ..RunReport::default()
        }
    }

    /// A counter's value in this snapshot (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.iter().find(|c| c.name == name).map_or(0, |c| c.value)
    }

    fn encode_into(&self, out: &mut Vec<u8>) -> Result<(), WireError> {
        let n = u32::try_from(self.counters.len())
            .map_err(|_| WireError::Malformed("too many counters"))?;
        out.extend_from_slice(&n.to_le_bytes());
        for c in &self.counters {
            put_string(out, &c.name)?;
            out.extend_from_slice(&c.value.to_le_bytes());
        }
        let n = u32::try_from(self.histograms.len())
            .map_err(|_| WireError::Malformed("too many histograms"))?;
        out.extend_from_slice(&n.to_le_bytes());
        for h in &self.histograms {
            put_string(out, &h.name)?;
            out.extend_from_slice(&h.count.to_le_bytes());
            out.extend_from_slice(&h.sum.to_le_bytes());
            let nb = u8::try_from(h.buckets.len().min(HIST_BUCKETS))
                .map_err(|_| WireError::Malformed("too many histogram buckets"))?;
            out.push(nb);
            for &(bound, count) in h.buckets.iter().take(HIST_BUCKETS) {
                // Bounds travel as their pow2 bucket index — one byte, and
                // u64::MAX (the overflow bucket) needs no special case.
                out.push(bucket_index(bound) as u8);
                out.extend_from_slice(&count.to_le_bytes());
            }
        }
        Ok(())
    }

    fn decode_from(c: &mut Cursor<'_>) -> Result<WorkerMetrics, WireError> {
        let n = c.u32()? as usize;
        // Capacity is clamped: a hostile count must not pre-allocate beyond
        // what the (already length-capped) payload can actually hold.
        let mut counters = Vec::with_capacity(n.min(256));
        for _ in 0..n {
            let name = c.string()?;
            let value = c.u64()?;
            counters.push(CounterRow { name, value });
        }
        let n = c.u32()? as usize;
        let mut histograms = Vec::with_capacity(n.min(256));
        for _ in 0..n {
            let name = c.string()?;
            let count = c.u64()?;
            let sum = c.u64()?;
            let nb = c.u8()? as usize;
            if nb > HIST_BUCKETS {
                return Err(WireError::Malformed("histogram bucket count out of range"));
            }
            let mut buckets = Vec::with_capacity(nb);
            for _ in 0..nb {
                let idx = c.u8()? as usize;
                if idx >= HIST_BUCKETS {
                    return Err(WireError::Malformed("histogram bucket index out of range"));
                }
                buckets.push((bucket_bound(idx), c.u64()?));
            }
            histograms.push(HistogramRow { name, count, sum, buckets });
        }
        Ok(WorkerMetrics { counters, histograms })
    }
}

/// Upper bound on timeline events per `Telemetry` frame. A drain larger
/// than this is split across frames by the sender; a decode announcing
/// more is hostile and rejected outright.
pub const MAX_TELEMETRY_EVENTS: usize = 2048;

/// Upper bound on the per-frame event-name string table.
pub const MAX_TELEMETRY_NAMES: usize = 1024;

/// Cumulative wall time of one span path, summed across worker slots —
/// the in-flight analogue of a report's span rows (a worker process only
/// ever attributes to its own slot, so the sum loses nothing).
#[derive(Debug, Clone, PartialEq)]
pub struct SpanTotalRow {
    pub path: String,
    pub count: u64,
    pub total_ns: u64,
}

/// One gauge's current value and high-watermark at snapshot time.
#[derive(Debug, Clone, PartialEq)]
pub struct GaugeSnap {
    pub name: String,
    pub value: i64,
    pub max: i64,
}

/// One timeline event on the wire; `name` indexes the frame's string
/// table. `kind` 0 = span (`dur_ns` meaningful), 1 = counter mark
/// (`delta` meaningful).
#[derive(Debug, Clone, PartialEq)]
pub struct WireEvent {
    pub name: u16,
    pub kind: u8,
    pub t_ns: u64,
    pub dur_ns: u64,
    pub delta: i64,
}

/// A worker's metrics snapshot (frame 0x0A): the one channel its
/// counters, histograms, spans, gauges and timeline events travel on.
///
/// `seq` increments per frame on each worker; the coordinator ignores any
/// frame whose seq is not strictly greater than the last applied one, so
/// reordering or loss degrades to staleness, never corruption. `metrics`,
/// `spans` and `gauges` are *cumulative* (latest-wins); only the `events`
/// batch is a delta, cursor-tracked against the worker's timeline ring —
/// overwritten events surface in `dropped_events`.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Telemetry {
    pub seq: u64,
    /// Nanoseconds since the worker's timeline epoch at capture time.
    pub uptime_ns: u64,
    /// Cumulative counters and histograms (what `report.json` merges).
    pub metrics: WorkerMetrics,
    pub spans: Vec<SpanTotalRow>,
    pub gauges: Vec<GaugeSnap>,
    /// Event-name string table (`WireEvent::name` indexes into this).
    pub names: Vec<String>,
    pub events: Vec<WireEvent>,
    /// Ring-overwritten events since the last capture — the staleness
    /// signal a slow coordinator sees instead of corrupted history.
    pub dropped_events: u64,
}

impl Telemetry {
    /// Snapshot this process's registry and timeline for the wire, in one
    /// walk over the registry.
    ///
    /// `cursor` is the caller-owned timeline read position for
    /// `worker_slot`; it advances to cover exactly the events taken, so an
    /// oversized drain simply spills into the next frame. Flushes the
    /// calling thread's buffered spans first so its own just-closed spans
    /// are visible.
    pub fn capture(seq: u64, worker_slot: usize, cursor: &mut u64) -> Telemetry {
        swt_obs::span::flush_thread();
        let registry = swt_obs::registry::global();
        let mut metrics = WorkerMetrics::default();
        registry.for_each_counter(|name, c| {
            let value = c.get();
            if value > 0 {
                metrics.counters.push(CounterRow { name: name.to_string(), value });
            }
        });
        registry.for_each_histogram(|name, h| {
            metrics.histograms.extend(HistogramRow::capture(name, h));
        });
        let mut spans = Vec::new();
        registry.for_each_span(|path, stat| {
            let mut count = 0u64;
            let mut total_ns = 0u64;
            for slot in 0..=swt_obs::registry::WORKER_SLOTS {
                let (c, t, ..) = stat.snapshot(slot);
                count += c;
                total_ns += t;
            }
            if count > 0 {
                spans.push(SpanTotalRow { path: path.to_string(), count, total_ns });
            }
        });
        let mut gauges = Vec::new();
        registry.for_each_gauge(|name, g| {
            let (value, max) = (g.get(), g.max());
            if value != 0 || max != 0 {
                gauges.push(GaugeSnap { name: name.to_string(), value, max });
            }
        });
        let drain = swt_obs::timeline::drain_since(worker_slot, *cursor);
        let mut names: Vec<String> = Vec::new();
        let mut events = Vec::new();
        let mut taken = 0usize;
        for ev in &drain.events {
            if events.len() >= MAX_TELEMETRY_EVENTS {
                break;
            }
            let idx = match names.iter().position(|n| n == &ev.name) {
                Some(i) => i,
                None if names.len() < MAX_TELEMETRY_NAMES => {
                    names.push(ev.name.clone());
                    names.len() - 1
                }
                // A saturated name table (pathological) drops the event;
                // the cursor still advances so the stream cannot stall.
                None => {
                    taken += 1;
                    continue;
                }
            };
            events.push(WireEvent {
                name: idx as u16,
                kind: match ev.kind {
                    swt_obs::timeline::EventKind::Span => 0,
                    swt_obs::timeline::EventKind::Counter => 1,
                },
                t_ns: ev.t_ns,
                dur_ns: ev.dur_ns,
                delta: ev.delta,
            });
            taken += 1;
        }
        *cursor = match drain.events.get(taken.wrapping_sub(1)) {
            Some(last) if taken > 0 => last.seq + 1,
            _ => drain.next_seq.max(*cursor),
        };
        Telemetry {
            seq,
            uptime_ns: swt_obs::timeline::now_ns(),
            metrics,
            spans,
            gauges,
            names,
            events,
            dropped_events: drain.dropped,
        }
    }

    fn encode_into(&self, out: &mut Vec<u8>) -> Result<(), WireError> {
        out.extend_from_slice(&self.seq.to_le_bytes());
        out.extend_from_slice(&self.uptime_ns.to_le_bytes());
        out.extend_from_slice(&self.dropped_events.to_le_bytes());
        self.metrics.encode_into(out)?;
        let n =
            u32::try_from(self.spans.len()).map_err(|_| WireError::Malformed("too many spans"))?;
        out.extend_from_slice(&n.to_le_bytes());
        for s in &self.spans {
            put_string(out, &s.path)?;
            out.extend_from_slice(&s.count.to_le_bytes());
            out.extend_from_slice(&s.total_ns.to_le_bytes());
        }
        let n = u32::try_from(self.gauges.len())
            .map_err(|_| WireError::Malformed("too many gauges"))?;
        out.extend_from_slice(&n.to_le_bytes());
        for g in &self.gauges {
            put_string(out, &g.name)?;
            out.extend_from_slice(&g.value.to_le_bytes());
            out.extend_from_slice(&g.max.to_le_bytes());
        }
        if self.names.len() > MAX_TELEMETRY_NAMES {
            return Err(WireError::Malformed("telemetry name table too large"));
        }
        out.extend_from_slice(&(self.names.len() as u16).to_le_bytes());
        for name in &self.names {
            put_string(out, name)?;
        }
        if self.events.len() > MAX_TELEMETRY_EVENTS {
            return Err(WireError::Malformed("telemetry event batch too large"));
        }
        out.extend_from_slice(&(self.events.len() as u32).to_le_bytes());
        for ev in &self.events {
            out.extend_from_slice(&ev.name.to_le_bytes());
            out.push(ev.kind);
            out.extend_from_slice(&ev.t_ns.to_le_bytes());
            out.extend_from_slice(&ev.dur_ns.to_le_bytes());
            out.extend_from_slice(&ev.delta.to_le_bytes());
        }
        Ok(())
    }

    fn decode_from(c: &mut Cursor<'_>) -> Result<Telemetry, WireError> {
        let seq = c.u64()?;
        let uptime_ns = c.u64()?;
        let dropped_events = c.u64()?;
        let metrics = WorkerMetrics::decode_from(c)?;
        let n = c.u32()? as usize;
        // Capacity clamped like WorkerMetrics: hostile counts must not
        // pre-allocate beyond what the length-capped payload can hold.
        let mut spans = Vec::with_capacity(n.min(256));
        for _ in 0..n {
            let path = c.string()?;
            let count = c.u64()?;
            let total_ns = c.u64()?;
            spans.push(SpanTotalRow { path, count, total_ns });
        }
        let n = c.u32()? as usize;
        let mut gauges = Vec::with_capacity(n.min(256));
        for _ in 0..n {
            let name = c.string()?;
            let value = c.u64()? as i64;
            let max = c.u64()? as i64;
            gauges.push(GaugeSnap { name, value, max });
        }
        let n = c.u16()? as usize;
        if n > MAX_TELEMETRY_NAMES {
            return Err(WireError::Malformed("telemetry name table too large"));
        }
        let mut names = Vec::with_capacity(n.min(256));
        for _ in 0..n {
            names.push(c.string()?);
        }
        let n = c.u32()? as usize;
        if n > MAX_TELEMETRY_EVENTS {
            return Err(WireError::Malformed("telemetry event batch too large"));
        }
        let mut events = Vec::with_capacity(n.min(256));
        for _ in 0..n {
            let name = c.u16()?;
            if name as usize >= names.len() {
                return Err(WireError::Malformed("telemetry event name index out of range"));
            }
            let kind = c.u8()?;
            if kind > 1 {
                return Err(WireError::Malformed("unknown telemetry event kind"));
            }
            let t_ns = c.u64()?;
            let dur_ns = c.u64()?;
            let delta = c.u64()? as i64;
            events.push(WireEvent { name, kind, t_ns, dur_ns, delta });
        }
        Ok(Telemetry { seq, uptime_ns, metrics, spans, gauges, names, events, dropped_events })
    }
}

/// One decoded protocol message.
#[derive(Debug, Clone, PartialEq)]
pub enum Msg {
    Hello {
        version: u32,
        worker_id: u64,
        pid: u32,
    },
    HelloAck {
        version: u32,
        run: RunSpec,
    },
    Task {
        cand: Candidate,
    },
    Result {
        id: u64,
        outcome: EvalOutcome,
    },
    Ping {
        nonce: u64,
    },
    Pong {
        nonce: u64,
    },
    Shutdown,
    Error {
        message: String,
    },
    /// The worker's cumulative metrics snapshot, sent with every `Result`,
    /// with every `Pong` and once at teardown; folded into the
    /// coordinator's `LiveRunView`.
    Telemetry {
        telemetry: Telemetry,
    },
}

fn app_code(app: AppKind) -> u8 {
    match app {
        AppKind::Cifar10 => 0,
        AppKind::Mnist => 1,
        AppKind::Nt3 => 2,
        AppKind::Uno => 3,
    }
}

fn app_from(code: u8) -> Result<AppKind, WireError> {
    match code {
        0 => Ok(AppKind::Cifar10),
        1 => Ok(AppKind::Mnist),
        2 => Ok(AppKind::Nt3),
        3 => Ok(AppKind::Uno),
        _ => Err(WireError::Malformed("unknown app code")),
    }
}

fn scheme_code(s: TransferScheme) -> u8 {
    match s {
        TransferScheme::Baseline => 0,
        TransferScheme::Lp => 1,
        TransferScheme::Lcs => 2,
    }
}

fn scheme_from(code: u8) -> Result<TransferScheme, WireError> {
    match code {
        0 => Ok(TransferScheme::Baseline),
        1 => Ok(TransferScheme::Lp),
        2 => Ok(TransferScheme::Lcs),
        _ => Err(WireError::Malformed("unknown scheme code")),
    }
}

impl Msg {
    /// The frame-type byte of this message.
    pub fn frame_type(&self) -> u8 {
        match self {
            Msg::Hello { .. } => 0x01,
            Msg::HelloAck { .. } => 0x02,
            Msg::Task { .. } => 0x03,
            Msg::Result { .. } => 0x04,
            Msg::Ping { .. } => 0x05,
            Msg::Pong { .. } => 0x06,
            Msg::Shutdown => 0x07,
            Msg::Error { .. } => 0x08,
            Msg::Telemetry { .. } => 0x0A,
        }
    }

    /// Encode the payload (without the frame header).
    pub fn encode(&self) -> Result<Vec<u8>, WireError> {
        let mut out = Vec::new();
        match self {
            Msg::Hello { version, worker_id, pid } => {
                out.extend_from_slice(&version.to_le_bytes());
                out.extend_from_slice(&worker_id.to_le_bytes());
                out.extend_from_slice(&pid.to_le_bytes());
            }
            Msg::HelloAck { version, run } => {
                out.extend_from_slice(&version.to_le_bytes());
                out.push(app_code(run.app));
                out.push(match run.scale {
                    DataScale::Quick => 0,
                    DataScale::Full => 1,
                });
                out.extend_from_slice(&run.data_seed.to_le_bytes());
                out.push(scheme_code(run.scheme));
                out.extend_from_slice(&run.epochs.to_le_bytes());
                out.extend_from_slice(&run.run_seed.to_le_bytes());
                put_string(&mut out, &run.namespace)?;
                put_string(&mut out, &run.store_dir)?;
                out.extend_from_slice(&run.threads.to_le_bytes());
                out.extend_from_slice(&run.cache_bytes.to_le_bytes());
                out.extend_from_slice(&run.prefilter_quantile.to_bits().to_le_bytes());
                out.extend_from_slice(&run.conv_window.to_le_bytes());
                out.extend_from_slice(&run.conv_min_delta.to_bits().to_le_bytes());
                put_string(&mut out, &run.store_url)?;
            }
            Msg::Task { cand } => {
                out.extend_from_slice(&cand.id.to_le_bytes());
                out.push(u8::from(cand.parent.is_some()));
                out.extend_from_slice(&cand.parent.unwrap_or(0).to_le_bytes());
                let choices = cand.arch.choices();
                let len = u16::try_from(choices.len())
                    .map_err(|_| WireError::Malformed("architecture too long"))?;
                out.extend_from_slice(&len.to_le_bytes());
                for &c in choices {
                    out.extend_from_slice(&c.to_le_bytes());
                }
                if cand.rung as usize >= MAX_RUNGS {
                    return Err(WireError::Malformed("rung index out of range"));
                }
                out.push(cand.rung);
                out.push(u8::from(cand.epochs.is_some()));
                let epochs = match cand.epochs {
                    Some(e) => {
                        u32::try_from(e).map_err(|_| WireError::Malformed("epochs too large"))?
                    }
                    None => 0,
                };
                out.extend_from_slice(&epochs.to_le_bytes());
            }
            Msg::Result { id, outcome } => {
                out.extend_from_slice(&id.to_le_bytes());
                out.extend_from_slice(&outcome.score.to_bits().to_le_bytes());
                out.extend_from_slice(&outcome.train_secs.to_bits().to_le_bytes());
                out.extend_from_slice(&outcome.transfer_secs.to_bits().to_le_bytes());
                out.extend_from_slice(&outcome.save_secs.to_bits().to_le_bytes());
                out.extend_from_slice(&outcome.checkpoint_bytes.to_le_bytes());
                out.extend_from_slice(&(outcome.transfer.tensors as u64).to_le_bytes());
                out.extend_from_slice(&(outcome.transfer.bytes as u64).to_le_bytes());
                out.extend_from_slice(&(outcome.transfer.skipped as u64).to_le_bytes());
                out.extend_from_slice(&(outcome.epochs as u32).to_le_bytes());
                out.push(outcome.stop.code());
            }
            Msg::Ping { nonce } | Msg::Pong { nonce } => {
                out.extend_from_slice(&nonce.to_le_bytes());
            }
            Msg::Shutdown => {}
            Msg::Error { message } => {
                put_string(&mut out, message)?;
            }
            Msg::Telemetry { telemetry } => {
                telemetry.encode_into(&mut out)?;
            }
        }
        Ok(out)
    }

    /// Decode a payload of frame type `ty`. Never panics: every malformed
    /// input maps to a [`WireError`].
    pub fn decode(ty: u8, payload: &[u8]) -> Result<Msg, WireError> {
        let mut c = Cursor::new(payload);
        let msg = match ty {
            0x01 => Msg::Hello { version: c.u32()?, worker_id: c.u64()?, pid: c.u32()? },
            0x02 => {
                let version = c.u32()?;
                let app = app_from(c.u8()?)?;
                let scale = match c.u8()? {
                    0 => DataScale::Quick,
                    1 => DataScale::Full,
                    _ => return Err(WireError::Malformed("unknown scale code")),
                };
                let data_seed = c.u64()?;
                let scheme = scheme_from(c.u8()?)?;
                let epochs = c.u32()?;
                let run_seed = c.u64()?;
                let namespace = c.string()?;
                let store_dir = c.string()?;
                let threads = c.u32()?;
                let cache_bytes = c.u64()?;
                let prefilter_quantile = c.f64()?;
                if !(0.0..1.0).contains(&prefilter_quantile) {
                    return Err(WireError::Malformed("prefilter quantile out of range"));
                }
                let conv_window = c.u32()?;
                let conv_min_delta = c.f64()?;
                if conv_min_delta.is_nan() || conv_min_delta < 0.0 {
                    return Err(WireError::Malformed("negative convergence min-delta"));
                }
                let store_url = c.string()?;
                Msg::HelloAck {
                    version,
                    run: RunSpec {
                        app,
                        scale,
                        data_seed,
                        scheme,
                        epochs,
                        run_seed,
                        namespace,
                        store_dir,
                        threads,
                        cache_bytes,
                        prefilter_quantile,
                        conv_window,
                        conv_min_delta,
                        store_url,
                    },
                }
            }
            0x03 => {
                let id = c.u64()?;
                let has_parent = c.u8()?;
                let parent_raw = c.u64()?;
                let parent = match has_parent {
                    0 => None,
                    1 => Some(parent_raw),
                    _ => return Err(WireError::Malformed("invalid parent flag")),
                };
                let n = c.u16()? as usize;
                let mut choices = Vec::with_capacity(n);
                for _ in 0..n {
                    choices.push(c.u16()?);
                }
                let rung = c.u8()?;
                if rung as usize >= MAX_RUNGS {
                    return Err(WireError::Malformed("rung index out of range"));
                }
                let has_epochs = c.u8()?;
                let epochs_raw = c.u32()?;
                let epochs = match has_epochs {
                    0 => None,
                    1 => Some(epochs_raw as usize),
                    _ => return Err(WireError::Malformed("invalid epochs flag")),
                };
                Msg::Task {
                    cand: Candidate { id, arch: ArchSeq::new(choices), parent, rung, epochs },
                }
            }
            0x04 => {
                let id = c.u64()?;
                let score = c.f64()?;
                let train_secs = c.f64()?;
                let transfer_secs = c.f64()?;
                let save_secs = c.f64()?;
                let checkpoint_bytes = c.u64()?;
                let tensors = c.u64()? as usize;
                let bytes = c.u64()? as usize;
                let skipped = c.u64()? as usize;
                let epochs = c.u32()? as usize;
                let stop = StopReason::from_code(c.u8()?)
                    .ok_or(WireError::Malformed("unknown stop reason"))?;
                Msg::Result {
                    id,
                    outcome: EvalOutcome {
                        id,
                        score,
                        train_secs,
                        transfer_secs,
                        save_secs,
                        checkpoint_bytes,
                        transfer: TransferStats { tensors, bytes, skipped },
                        epochs,
                        stop,
                    },
                }
            }
            0x05 => Msg::Ping { nonce: c.u64()? },
            0x06 => Msg::Pong { nonce: c.u64()? },
            0x07 => Msg::Shutdown,
            0x08 => Msg::Error { message: c.string()? },
            0x0A => Msg::Telemetry { telemetry: Telemetry::decode_from(&mut c)? },
            other => return Err(WireError::UnknownType(other)),
        };
        c.finish()?;
        Ok(msg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::PROTOCOL_VERSION;

    fn round_trip(msg: Msg) -> Result<(), WireError> {
        let payload = msg.encode()?;
        let back = Msg::decode(msg.frame_type(), &payload)?;
        assert_eq!(back, msg);
        Ok(())
    }

    #[test]
    fn all_frames_round_trip() -> Result<(), WireError> {
        round_trip(Msg::Hello { version: PROTOCOL_VERSION, worker_id: 3, pid: 4242 })?;
        round_trip(Msg::HelloAck { version: PROTOCOL_VERSION, run: sample_run() })?;
        round_trip(Msg::HelloAck {
            version: PROTOCOL_VERSION,
            run: RunSpec {
                prefilter_quantile: 0.25,
                conv_window: 3,
                conv_min_delta: 1e-4,
                store_url: "tcp://127.0.0.1:7421".into(),
                ..sample_run()
            },
        })?;
        round_trip(Msg::Task {
            cand: Candidate {
                id: 7,
                arch: ArchSeq::new(vec![1, 0, 4, 2]),
                parent: Some(3),
                rung: 2,
                epochs: Some(4),
            },
        })?;
        round_trip(Msg::Task { cand: Candidate::new(0, ArchSeq::new(vec![2]), None) })?;
        round_trip(Msg::Result {
            id: 7,
            outcome: EvalOutcome {
                stop: StopReason::Converged,
                transfer: TransferStats { tensors: 5, bytes: 4096, skipped: 1 },
                ..sample_outcome(7, 0.12345678901234567)
            },
        })?;
        round_trip(Msg::Ping { nonce: u64::MAX })?;
        round_trip(Msg::Pong { nonce: 0 })?;
        round_trip(Msg::Shutdown)?;
        round_trip(Msg::Error { message: "checkpoint store unreachable".into() })?;
        round_trip(Msg::Telemetry { telemetry: sample_telemetry() })?;
        round_trip(Msg::Telemetry { telemetry: Telemetry::default() })?;
        Ok(())
    }

    fn sample_run() -> RunSpec {
        RunSpec {
            app: AppKind::Uno,
            scale: DataScale::Quick,
            data_seed: 11,
            scheme: TransferScheme::Lcs,
            epochs: 1,
            run_seed: 9,
            namespace: "dist_".into(),
            store_dir: "/tmp/swt_store".into(),
            threads: 1,
            cache_bytes: 1 << 22,
            prefilter_quantile: 0.0,
            conv_window: 0,
            conv_min_delta: 0.0,
            store_url: String::new(),
        }
    }

    fn sample_outcome(id: u64, score: f64) -> EvalOutcome {
        EvalOutcome {
            id,
            score,
            train_secs: 1.5,
            transfer_secs: 0.25,
            save_secs: 0.01,
            checkpoint_bytes: 1 << 20,
            transfer: TransferStats::default(),
            epochs: 1,
            stop: StopReason::BudgetExhausted,
        }
    }

    fn sample_telemetry() -> Telemetry {
        Telemetry {
            seq: 42,
            uptime_ns: 1_000_000_007,
            metrics: sample_metrics(),
            spans: vec![
                SpanTotalRow { path: "nas.eval".into(), count: 5, total_ns: 5_000_000 },
                SpanTotalRow { path: "nas.queue_wait".into(), count: 5, total_ns: 700 },
            ],
            gauges: vec![GaugeSnap { name: "eval.batch.size".into(), value: -1, max: 4 }],
            names: vec!["nas.eval".into(), "nas.dispatch".into()],
            events: vec![
                WireEvent { name: 0, kind: 0, t_ns: 10, dur_ns: 90, delta: 0 },
                WireEvent { name: 1, kind: 1, t_ns: 120, dur_ns: 0, delta: -3 },
            ],
            dropped_events: 9,
        }
    }

    #[test]
    fn telemetry_rejects_hostile_payloads() -> Result<(), WireError> {
        // Event referencing a name index beyond the table.
        let payload = {
            // encode_into validates only sizes, so build the bad frame by
            // patching a good one: the name index lives at a fixed offset
            // from the end (2 events × 27 bytes).
            let mut p = Msg::Telemetry { telemetry: sample_telemetry() }.encode()?;
            let off = p.len() - 2 * 27;
            p[off..off + 2].copy_from_slice(&(sample_telemetry().names.len() as u16).to_le_bytes());
            p
        };
        assert!(matches!(Msg::decode(0x0A, &payload), Err(WireError::Malformed(_))));

        // Unknown event kind.
        let mut p = Msg::Telemetry { telemetry: sample_telemetry() }.encode()?;
        let off = p.len() - 2 * 27 + 2;
        p[off] = 7;
        assert!(matches!(Msg::decode(0x0A, &p), Err(WireError::Malformed(_))));

        // Oversized event batch announcement.
        let t = Telemetry { seq: 1, ..Default::default() };
        let mut p = Msg::Telemetry { telemetry: t }.encode()?;
        let len = p.len();
        p[len - 4..].copy_from_slice(&((MAX_TELEMETRY_EVENTS as u32 + 1).to_le_bytes()));
        assert!(matches!(Msg::decode(0x0A, &p), Err(WireError::Malformed(_))));
        Ok(())
    }

    #[test]
    fn telemetry_capture_advances_its_cursor() {
        // seq numbers and cursors are plain data — hostile values must be
        // handled by the *consumer* (LiveRunView ignores non-monotone seqs);
        // here we pin the producer side: capture never rewinds its cursor.
        let mut cursor = u64::MAX - 1; // hostile: far beyond the ring
        let t = Telemetry::capture(1, swt_obs::registry::UNATTRIBUTED_SLOT, &mut cursor);
        assert!(t.events.is_empty());
        assert!(cursor >= u64::MAX - 1, "cursor must never rewind");
        // The snapshot carries this process's counters: the same walk feeds
        // both the live view and the merged run report.
        swt_obs::enable();
        swt_obs::counter!("dist.test.snapshot_probe").inc();
        let t = Telemetry::capture(2, swt_obs::registry::UNATTRIBUTED_SLOT, &mut cursor);
        assert!(t.metrics.counter("dist.test.snapshot_probe") >= 1);
    }

    fn sample_metrics() -> WorkerMetrics {
        WorkerMetrics {
            counters: vec![
                CounterRow { name: "ckpt.cache.hits".into(), value: 12 },
                CounterRow { name: "tensor.gemm.calls".into(), value: 4096 },
            ],
            histograms: vec![HistogramRow {
                name: "ckpt.save_ns".into(),
                count: 3,
                sum: 900,
                // Includes the overflow bucket: its u64::MAX bound must
                // survive the index-based encoding.
                buckets: vec![(255, 2), (u64::MAX, 1)],
            }],
        }
    }

    #[test]
    fn stats_with_bad_bucket_fields_error_cleanly() {
        // The counters/histograms block sits right after the snapshot's
        // fixed header (seq, uptime, dropped events).
        let header = |bad: &mut Vec<u8>| {
            for v in [1u64, 2, 0] {
                bad.extend_from_slice(&v.to_le_bytes());
            }
        };
        // Bucket count beyond HIST_BUCKETS.
        let mut bad = Vec::new();
        header(&mut bad);
        bad.extend_from_slice(&0u32.to_le_bytes()); // no counters
        bad.extend_from_slice(&1u32.to_le_bytes()); // one histogram
        let _ = put_string(&mut bad, "h");
        bad.extend_from_slice(&1u64.to_le_bytes()); // count
        bad.extend_from_slice(&1u64.to_le_bytes()); // sum
        bad.push(HIST_BUCKETS as u8 + 1);
        assert!(matches!(Msg::decode(0x0A, &bad), Err(WireError::Malformed(_))));

        // Bucket index out of range.
        let mut bad = Vec::new();
        header(&mut bad);
        bad.extend_from_slice(&0u32.to_le_bytes());
        bad.extend_from_slice(&1u32.to_le_bytes());
        let _ = put_string(&mut bad, "h");
        bad.extend_from_slice(&1u64.to_le_bytes());
        bad.extend_from_slice(&1u64.to_le_bytes());
        bad.push(1);
        bad.push(HIST_BUCKETS as u8); // first invalid index
        bad.extend_from_slice(&1u64.to_le_bytes());
        assert!(matches!(Msg::decode(0x0A, &bad), Err(WireError::Malformed(_))));

        // Hostile counter count must not pre-allocate: payload ends early.
        let mut bad = Vec::new();
        header(&mut bad);
        bad.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(Msg::decode(0x0A, &bad), Err(WireError::Malformed(_))));
    }

    #[test]
    fn scores_round_trip_bit_exactly() -> Result<(), WireError> {
        // NaN payloads and signed zeros must survive: identity gates compare
        // bit patterns, not approximate values.
        for bits in [f64::to_bits(-0.0), f64::NAN.to_bits() | 1, f64::MIN_POSITIVE.to_bits()] {
            let msg = Msg::Result { id: 1, outcome: sample_outcome(1, f64::from_bits(bits)) };
            let decoded = Msg::decode(0x04, &msg.encode()?)?;
            let Msg::Result { outcome, .. } = decoded else {
                return Err(WireError::Malformed("wrong decode variant"));
            };
            assert_eq!(outcome.score.to_bits(), bits);
        }
        Ok(())
    }

    #[test]
    fn hostile_fidelity_tails_are_rejected() -> Result<(), WireError> {
        // Unknown stop discriminant (the last byte of a Result).
        let p = Msg::Result { id: 1, outcome: sample_outcome(1, 0.0) }.encode()?;
        let n = p.len();
        let mut bad = p.clone();
        bad[n - 1] = 4; // first invalid StopReason code
        assert!(matches!(
            Msg::decode(0x04, &bad),
            Err(WireError::Malformed("unknown stop reason"))
        ));
        // A Result missing its stop code is malformed, never a default.
        assert!(matches!(Msg::decode(0x04, &p[..n - 1]), Err(WireError::Malformed(_))));

        // Out-of-range rung / bogus epochs flag in a Task.
        let p = Msg::Task { cand: Candidate::new(1, ArchSeq::new(vec![2]), None) }.encode()?;
        let n = p.len();
        let mut bad = p.clone();
        bad[n - 6] = MAX_RUNGS as u8;
        assert!(matches!(Msg::decode(0x03, &bad), Err(WireError::Malformed(_))));
        let mut bad = p;
        bad[n - 5] = 2;
        assert!(matches!(
            Msg::decode(0x03, &bad),
            Err(WireError::Malformed("invalid epochs flag"))
        ));

        // Quantile ≥ 1 / NaN min-delta in a HelloAck. The empty store url
        // (a 2-byte length prefix) sits after the fidelity group.
        let good = Msg::HelloAck {
            version: PROTOCOL_VERSION,
            run: RunSpec { prefilter_quantile: 0.5, ..sample_run() },
        }
        .encode()?;
        let n = good.len();
        let mut bad = good.clone();
        bad[n - 22..n - 14].copy_from_slice(&1.0f64.to_bits().to_le_bytes());
        assert!(matches!(Msg::decode(0x02, &bad), Err(WireError::Malformed(_))));
        let mut bad = good.clone();
        bad[n - 10..n - 2].copy_from_slice(&f64::NAN.to_bits().to_le_bytes());
        assert!(matches!(Msg::decode(0x02, &bad), Err(WireError::Malformed(_))));
        // A store-url length prefix promising more bytes than the payload
        // holds is malformed.
        let mut bad = good;
        bad[n - 2..].copy_from_slice(&500u16.to_le_bytes());
        assert!(matches!(Msg::decode(0x02, &bad), Err(WireError::Malformed(_))));
        Ok(())
    }

    #[test]
    fn run_spec_fidelity_maps_onto_evaluator_knobs() {
        let run = RunSpec {
            prefilter_quantile: 0.25,
            conv_window: 3,
            conv_min_delta: 1e-4,
            ..sample_run()
        };
        let f = run.eval_fidelity();
        assert_eq!(f.prefilter_quantile, 0.25);
        assert_eq!(f.convergence, Some(Convergence { window: 3, min_delta: 1e-4 }));
        assert!(f.enabled());
        assert!(!sample_run().eval_fidelity().enabled());
    }

    #[test]
    fn malformed_payloads_error_cleanly() {
        // Truncated Task.
        assert!(matches!(Msg::decode(0x03, &[1, 2, 3]), Err(WireError::Malformed(_))));
        // Unknown frame type, including the unassigned 0x09 and 0x0B.
        assert!(matches!(Msg::decode(0x7f, &[]), Err(WireError::UnknownType(0x7f))));
        assert!(matches!(Msg::decode(0x09, &[]), Err(WireError::UnknownType(0x09))));
        assert!(matches!(Msg::decode(0x0B, &[]), Err(WireError::UnknownType(0x0B))));
        // Trailing garbage after a valid Ping.
        let ping = [0u8; 9];
        assert!(matches!(Msg::decode(0x05, &ping), Err(WireError::Malformed(_))));
        // Bad parent flag.
        let mut bad = Vec::new();
        bad.extend_from_slice(&1u64.to_le_bytes());
        bad.push(9);
        bad.extend_from_slice(&0u64.to_le_bytes());
        bad.extend_from_slice(&0u16.to_le_bytes());
        assert!(matches!(Msg::decode(0x03, &bad), Err(WireError::Malformed(_))));
        // Arch length that promises more choices than the payload holds.
        let mut short = Vec::new();
        short.extend_from_slice(&1u64.to_le_bytes());
        short.push(0);
        short.extend_from_slice(&0u64.to_le_bytes());
        short.extend_from_slice(&500u16.to_le_bytes());
        assert!(matches!(Msg::decode(0x03, &short), Err(WireError::Malformed(_))));
    }
}
