//! The worker process: one simulated GPU evaluating candidates.
//!
//! Lifecycle: connect → `Hello`/`HelloAck` (version check, receive the
//! [`RunSpec`]) → build the problem, search space and evaluator locally →
//! evaluate `Task` frames one at a time, answering `Ping`s concurrently
//! from a reader thread, until `Shutdown` or the socket dies.
//!
//! Metrics travel on one channel: a cumulative, seq-numbered `Telemetry`
//! snapshot that rides with every `Result` and every `Pong`, plus one at
//! teardown.
//!
//! Failure model: the worker is deliberately fragile. An evaluation panic
//! (e.g. the shared store becomes unwritable mid-save) kills the process;
//! the coordinator sees the dead socket and reassigns the candidate —
//! recovery lives in exactly one place, coordinator-side. Protocol
//! violations are answered with an `Error` frame before exiting, so the
//! coordinator logs a cause instead of a bare EOF.

use crate::frame::{read_frame, write_frame, WireError, PROTOCOL_VERSION};
use crate::wire::{Msg, RunSpec, Telemetry};
use std::io::Write;
use std::net::TcpStream;
use std::sync::mpsc;
use std::sync::{Arc, Mutex, MutexGuard};
use swt_checkpoint::{CachedStore, CheckpointStore, DirStore};
use swt_ckpt_server::RemoteStore;
use swt_nas::{Candidate, Evaluator};
use swt_space::SearchSpace;

/// The worker's write half together with its snapshot stream state. Both
/// sending sites — the main loop (with each `Result`) and the reader thread
/// (with each `Pong`) — go through one lock that covers capture *and*
/// write, so seq order is socket order: the coordinator never receives an
/// older snapshot after a newer one, and the last snapshot on the socket is
/// always the newest.
struct Outbox {
    stream: TcpStream,
    /// Seq of the last snapshot captured.
    seq: u64,
    /// Timeline read position for `slot`.
    cursor: u64,
    slot: usize,
}

impl Outbox {
    fn new(stream: TcpStream, slot: usize) -> Outbox {
        Outbox { stream, seq: 0, cursor: 0, slot }
    }

    fn send(&mut self, msg: &Msg) -> Result<(), WireError> {
        write_frame(&mut self.stream, msg.frame_type(), &msg.encode()?)
    }

    /// Send a fresh metrics snapshot followed by `msg` (if any), in one
    /// write. The snapshot goes first so that a `Result` never reaches the
    /// coordinator without the snapshot covering it — even when the worker
    /// is killed partway through the write. Cheap enough for heartbeat
    /// cadence: one registry walk plus a bounded ring drain.
    fn send_with_snapshot(&mut self, msg: Option<&Msg>) -> Result<(), WireError> {
        self.seq += 1;
        let snapshot =
            Msg::Telemetry { telemetry: Telemetry::capture(self.seq, self.slot, &mut self.cursor) };
        let mut buf = Vec::new();
        write_frame(&mut buf, snapshot.frame_type(), &snapshot.encode()?)?;
        if let Some(msg) = msg {
            write_frame(&mut buf, msg.frame_type(), &msg.encode()?)?;
        }
        self.stream.write_all(&buf)?;
        Ok(())
    }
}

fn lock(outbox: &Mutex<Outbox>) -> MutexGuard<'_, Outbox> {
    outbox.lock().unwrap_or_else(|e| e.into_inner())
}

/// Client side of admission: send `Hello`, receive the [`RunSpec`].
/// A mismatched version or an unexpected frame is answered with an `Error`
/// frame before failing, so the coordinator logs a cause.
fn request_admission(stream: &mut TcpStream, worker_id: u64) -> Result<RunSpec, WireError> {
    let hello = Msg::Hello { version: PROTOCOL_VERSION, worker_id, pid: std::process::id() };
    write_frame(stream, hello.frame_type(), &hello.encode()?)?;
    let mut buf = Vec::new();
    let ty = read_frame(stream, &mut buf)?;
    let err = match Msg::decode(ty, &buf)? {
        Msg::HelloAck { version, run } if version == PROTOCOL_VERSION => return Ok(run),
        Msg::HelloAck { version, .. } => {
            WireError::VersionMismatch { ours: PROTOCOL_VERSION, theirs: version }
        }
        Msg::Error { message } => return Err(WireError::Protocol(message)),
        other => {
            WireError::Protocol(format!("expected HelloAck, got frame {:#04x}", other.frame_type()))
        }
    };
    let reply = Msg::Error { message: err.to_string() };
    let _ = reply.encode().and_then(|p| write_frame(stream, reply.frame_type(), &p));
    Err(err)
}

/// Run the worker protocol loop on an established connection. Returns when
/// the coordinator sends `Shutdown`, or the connection fails.
pub fn run_worker(mut stream: TcpStream, worker_id: u64) -> Result<(), WireError> {
    // Metrics are recorded process-locally and shipped to the coordinator as
    // cumulative snapshots; without this the worker's GEMM/checkpoint/cache
    // counters stay zero and the merged run report under-counts. The
    // timeline rings are bounded (staleness, not growth, on overflow), so
    // they stay on unconditionally too.
    swt_obs::enable();
    swt_obs::timeline::enable();
    swt_obs::span::set_worker(worker_id as usize);
    stream.set_nodelay(true)?;
    let run = request_admission(&mut stream, worker_id)?;
    swt_obs::info!(
        "swt_dist",
        "worker {worker_id} handshake ok: app={} scale={:?} threads={}",
        run.app.name(),
        run.scale,
        run.threads
    );

    // Pin this process's intra-op thread budget: each worker models one GPU
    // and must not fan out to the whole machine (same policy as the
    // in-process pool, but per process instead of per run).
    let _budget = swt_tensor::parallel::scoped_max_threads(run.threads.max(1) as usize);
    let mut evaluator = build_evaluator(&run)?;

    let reader_stream = stream.try_clone()?;
    let slot = swt_obs::registry::SpanStat::slot_for(Some(worker_id as usize));
    let outbox = Arc::new(Mutex::new(Outbox::new(stream, slot)));

    // The reader thread owns the receive half: it answers Pings immediately
    // (heartbeats must flow while the main thread is deep in a long
    // evaluation, and each Pong carries a snapshot, so the live view keeps
    // its heartbeat cadence) and forwards Tasks over a channel. Dropping the
    // sender — on Shutdown, a protocol violation, or a dead socket —
    // ends the main loop below.
    let (task_tx, task_rx) = mpsc::channel::<Candidate>();
    let reader_outbox = Arc::clone(&outbox);
    let reader = std::thread::spawn(move || -> Result<(), WireError> {
        let mut reader_stream = reader_stream;
        let mut buf = Vec::new();
        loop {
            let ty = read_frame(&mut reader_stream, &mut buf)?;
            match Msg::decode(ty, &buf) {
                Ok(Msg::Ping { nonce }) => {
                    lock(&reader_outbox).send_with_snapshot(Some(&Msg::Pong { nonce }))?;
                }
                Ok(Msg::Task { cand }) => {
                    if task_tx.send(cand).is_err() {
                        return Ok(()); // main loop gone; nothing left to do
                    }
                }
                Ok(Msg::Shutdown) => return Ok(()),
                Ok(Msg::Error { message }) => return Err(WireError::Protocol(message)),
                Ok(other) => {
                    let err = format!("unexpected frame {:#04x} at worker", other.frame_type());
                    let _ = lock(&reader_outbox).send(&Msg::Error { message: err.clone() });
                    return Err(WireError::Protocol(err));
                }
                Err(err) => {
                    let _ = lock(&reader_outbox).send(&Msg::Error { message: err.to_string() });
                    return Err(err);
                }
            }
        }
    });

    // Main loop: evaluate until the reader closes the channel. A panic in
    // `evaluate` (store write failure, poisoned state) intentionally kills
    // the process — the coordinator reassigns.
    let mut eval_err = None;
    loop {
        // Mirror the in-process pool's span names so a live view shows the
        // same queue_wait / eval / result_send split either way.
        let cand = {
            let _wait_span = swt_obs::span!("nas.queue_wait");
            match task_rx.recv() {
                Ok(cand) => cand,
                Err(_) => break,
            }
        };
        let id = cand.id;
        let outcome = evaluator.evaluate(&cand);
        let sent = {
            let _send_span = swt_obs::span!("nas.result_send");
            lock(&outbox).send_with_snapshot(Some(&Msg::Result { id, outcome }))
        };
        if let Err(e) = sent {
            eval_err = Some(e);
            break;
        }
    }
    // Clean teardown: flush the final snapshot (it covers the spans closed
    // since the last one). Best-effort — the coordinator keeps the last
    // Result's snapshot if this frame is lost, so a dead socket here must
    // not turn a clean shutdown into an error.
    {
        let mut outbox = lock(&outbox);
        if eval_err.is_none() {
            let _ = outbox.send_with_snapshot(None);
        }
        // Unblock the reader if we exited first (send failure): closing the
        // socket fails its blocking read.
        let _ = outbox.stream.shutdown(std::net::Shutdown::Both);
    }
    let reader_result = match reader.join() {
        Ok(res) => res,
        Err(_) => Err(WireError::Protocol("worker reader thread panicked".into())),
    };
    match (eval_err, reader_result) {
        (Some(e), _) => Err(e),
        // A dead socket after we stopped sending is the normal
        // coordinator-initiated teardown, not a failure.
        (None, Err(WireError::Io(_))) | (None, Ok(())) => Ok(()),
        (None, Err(e)) => Err(e),
    }
}

fn build_evaluator(run: &RunSpec) -> Result<Evaluator, WireError> {
    let problem = Arc::new(run.app.problem(run.scale, run.data_seed));
    let space = Arc::new(SearchSpace::for_app(run.app));
    // Each worker fronts the shared store with its own provider cache (its
    // slice of the run's byte budget): a parent checkpoint read for the
    // index and again for the tensors costs one store round-trip, not two,
    // and repeat parents are served from memory entirely. The backend is
    // the shared `DirStore` by default, or — when the coordinator sent a
    // `store_url` — a `RemoteStore` session with the checkpoint server,
    // bucketed by the run's namespace.
    let store: Arc<dyn CheckpointStore> = if run.store_url.is_empty() {
        let dir = DirStore::new(&run.store_dir)?;
        if run.cache_bytes > 0 {
            Arc::new(CachedStore::new(dir, run.cache_bytes))
        } else {
            Arc::new(dir)
        }
    } else {
        let secret = std::env::var("SWT_CKPT_SECRET").unwrap_or_default();
        // Bucket names must be valid tokens; an un-namespaced run shares
        // the server's "default" bucket (ids are still unique per run).
        let bucket = if run.namespace.is_empty() { "default" } else { run.namespace.as_str() };
        let remote = RemoteStore::connect(&run.store_url, bucket, &secret);
        if run.cache_bytes > 0 {
            Arc::new(CachedStore::new(remote, run.cache_bytes))
        } else {
            Arc::new(remote)
        }
    };
    let mut evaluator = Evaluator::with_namespace(
        problem,
        space,
        store,
        run.scheme,
        run.epochs as usize,
        run.run_seed,
        run.namespace.clone(),
    );
    // The fidelity knobs travel in the RunSpec so every worker applies the
    // same pre-filter threshold and convergence rule the in-process pool
    // would — the off-switch identity gate depends on this symmetry.
    evaluator.set_fidelity(run.eval_fidelity());
    Ok(evaluator)
}

/// Entry point for the `swt dist-worker` bin mode: connect and run.
pub fn worker_main(connect: &str, worker_id: u64) -> Result<(), WireError> {
    let stream = TcpStream::connect(connect)?;
    run_worker(stream, worker_id)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    #[test]
    fn concurrent_snapshots_reach_the_socket_in_seq_order() -> Result<(), WireError> {
        // The Result and Pong snapshots come from two threads;
        // whatever the interleaving, the coordinator must decode strictly
        // increasing seqs, or the live view would drop a snapshot (and its
        // event batch) as stale.
        const PER_THREAD: u64 = 2_000;
        let listener = TcpListener::bind(("127.0.0.1", 0))?;
        let client = TcpStream::connect(listener.local_addr()?)?;
        let (mut server, _) = listener.accept()?;
        let slot = swt_obs::registry::UNATTRIBUTED_SLOT;
        let outbox = Arc::new(Mutex::new(Outbox::new(client, slot)));
        let senders: Vec<_> = (0..2u64)
            .map(|thread| {
                let outbox = Arc::clone(&outbox);
                std::thread::spawn(move || -> Result<(), WireError> {
                    for nonce in 0..PER_THREAD {
                        let pong = Msg::Pong { nonce };
                        lock(&outbox).send_with_snapshot((thread == 0).then_some(&pong))?;
                    }
                    Ok(())
                })
            })
            .collect();
        let (mut last_seq, mut snapshots, mut pongs) = (0u64, 0u64, 0u64);
        let mut buf = Vec::new();
        while snapshots + pongs < 3 * PER_THREAD {
            let ty = read_frame(&mut server, &mut buf)?;
            match Msg::decode(ty, &buf)? {
                Msg::Telemetry { telemetry } => {
                    assert!(
                        telemetry.seq > last_seq,
                        "snapshot seq {} arrived after seq {last_seq}",
                        telemetry.seq
                    );
                    last_seq = telemetry.seq;
                    snapshots += 1;
                }
                Msg::Pong { .. } => pongs += 1,
                other => {
                    return Err(WireError::Protocol(format!(
                        "unexpected frame {:#04x}",
                        other.frame_type()
                    )))
                }
            }
        }
        for sender in senders {
            sender.join().map_err(|_| WireError::Protocol("sender panicked".into()))??;
        }
        assert_eq!((last_seq, pongs), (2 * PER_THREAD, PER_THREAD));
        Ok(())
    }
}
