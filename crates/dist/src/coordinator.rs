//! The coordinator: spawns workers, speaks the wire protocol, and exposes
//! the pool to the NAS runner as an [`EvalBackend`].
//!
//! Failure model (DESIGN.md §10): a worker is *lost* when its socket dies
//! (process crash → immediate EOF) or an outstanding heartbeat goes
//! unanswered past the timeout (hang/partition). A lost worker's in-flight
//! candidate goes back to the front of the pending queue and is re-evaluated
//! elsewhere — candidate seeds derive from `(run_seed, id)` and parent
//! checkpoints are immutable once written, so the re-run reproduces the
//! original result exactly and the run stays bit-identical to a failure-free
//! one. The pool degrades gracefully down to a single surviving worker;
//! only losing *all* workers aborts the run.
//!
//! Admission (DESIGN.md §10): there is one way into the pool. The listener
//! stays open for the whole run and every connection — the launch-time
//! workers and late joins alike — goes through the same
//! `Hello`/`HelloAck` admission: the newcomer gets a fresh slot and starts
//! draining the pending queue, or an `Error` frame (bad Hello, version
//! mismatch, pool already at `max_workers`) and is dropped without
//! disturbing the run. The dispatch window is sized by `nas.workers` alone
//! and never moves: admission changes *which process* evaluates a
//! candidate, never *which candidate* is scheduled, so elastic runs stay
//! bit-identical to fixed-pool runs.
//!
//! Metrics: each worker streams cumulative `Telemetry` snapshots, folded
//! in one place — the [`LiveRunView`] under its strictly-greater-seq rule.
//! [`DistBackend::finish`] waits for the final snapshots, reads the
//! per-worker totals back out of the settled view and folds them into the
//! process-global registry, making one `RunReport::capture()` cover the
//! whole multi-process run.

use crate::frame::{read_frame, write_frame, WireError, PROTOCOL_VERSION};
use crate::live::LiveRunView;
use crate::spawn::{find_worker_exe, spawn_worker};
use crate::wire::{Msg, RunSpec};
use crate::{DistConfig, DistRunStats, JoinPlan, KillPlan};
use std::collections::{HashMap, VecDeque};
use std::io;
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::process::Child;
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::Arc;
use std::time::{Duration, Instant};
use swt_nas::runner::NasConfig;
use swt_nas::{BackendResult, Candidate, EvalBackend};

enum Event {
    Msg { worker: usize, msg: Msg },
    Gone { worker: usize, reason: String },
}

struct WorkerSlot {
    /// The child process — `None` for workers we did not spawn ourselves
    /// (a join connecting from outside the coordinator's own injection).
    child: Option<Child>,
    /// Write half; `None` once the worker is lost.
    writer: Option<TcpStream>,
    reader: Option<std::thread::JoinHandle<()>>,
    /// Candidate currently evaluating on this worker.
    current: Option<u64>,
    alive: bool,
    /// Ping in flight: `(nonce, send time)`. A worker with an outstanding
    /// ping older than the timeout is declared lost — liveness is judged on
    /// unanswered pings, never on mere quietness (an idle worker between
    /// tasks is silent but healthy).
    outstanding_ping: Option<(u64, Instant)>,
    rtt: Arc<swt_obs::metrics::Histogram>,
}

/// Multi-process evaluation backend: the coordinator side of `swt-dist`.
pub struct DistBackend {
    /// Kept open (non-blocking) for the whole run: mid-run `Hello`s are
    /// joins.
    listener: TcpListener,
    addr: String,
    exe: PathBuf,
    run: RunSpec,
    /// The deterministic dispatch window (`nas.workers`). Constant for the
    /// backend's lifetime regardless of joins and losses.
    window: usize,
    /// Size of the launch-time pool: admissions into slots below it fill
    /// the pool, later ones count as joins.
    initial_workers: usize,
    max_workers: usize,
    slots: Vec<WorkerSlot>,
    tx: mpsc::Sender<Event>,
    rx: mpsc::Receiver<Event>,
    /// Submitted candidates not yet assigned to a worker (grows past 1 only
    /// while the pool is short of the dispatch window).
    pending: VecDeque<Candidate>,
    /// Assigned-or-pending candidates by id, with their submit timestamp.
    inflight: HashMap<u64, (Candidate, f64)>,
    start: Instant,
    interval: Duration,
    timeout: Duration,
    connect_timeout: Duration,
    next_nonce: u64,
    results_delivered: usize,
    kill_plan: Option<KillPlan>,
    join_plan: Option<JoinPlan>,
    /// Children we spawned (at launch or by join injection) that have not
    /// been admitted yet.
    joining: Vec<Child>,
    joined: usize,
    rejected: usize,
    lost: usize,
    reassigned: usize,
    /// Set by [`DistBackend::finish`]; makes `Drop` a no-op.
    finished: bool,
    /// In-flight run view; streamed `Telemetry` frames fold into it.
    /// Monitoring only — nothing here feeds back into scheduling.
    live: Arc<LiveRunView>,
}

impl DistBackend {
    /// Bind a localhost listener, spawn the initial worker processes
    /// (`dist.initial_workers`, default `nas.workers`), and admit each one
    /// through the same path a mid-run join takes.
    pub fn launch(nas: &NasConfig, dist: &DistConfig) -> io::Result<DistBackend> {
        let mut backend = DistBackend::bind(nas, dist)?;
        let n = backend.initial_workers;
        swt_obs::info!(
            "swt_dist",
            "coordinator on {}, spawning {n} × {}",
            backend.addr,
            backend.exe.display()
        );
        for worker_id in 0..n {
            backend.joining.push(spawn_worker(&backend.exe, &backend.addr, worker_id)?);
        }
        // On error the backend drops, reaping every child spawned so far.
        backend.admit_initial()?;
        // Trace timestamps count from the moment the pool is up.
        backend.start = Instant::now();
        Ok(backend)
    }

    /// Everything in [`DistBackend::launch`] except spawning: validate the
    /// config, bind the (non-blocking) listener, and build an empty pool.
    fn bind(nas: &NasConfig, dist: &DistConfig) -> io::Result<DistBackend> {
        let invalid = |msg: String| io::Error::new(io::ErrorKind::InvalidInput, msg);
        let window = nas.workers;
        if window == 0 {
            return Err(invalid("need a non-empty dispatch window (workers = 0)".into()));
        }
        let n = dist.initial_workers.unwrap_or(window).max(1);
        if n > dist.max_workers {
            return Err(invalid(format!(
                "{n} initial workers exceed max_workers={}",
                dist.max_workers
            )));
        }
        // The listener polls non-blocking for the whole run, so a child that
        // dies before connecting turns into a clear error instead of a hung
        // accept, and mid-run joins never stall the dispatch loop.
        let listener = TcpListener::bind(("127.0.0.1", 0))?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?.to_string();
        let exe = find_worker_exe(dist.worker_exe.as_ref())?;

        // Worker resources are budgeted by the window, not the live pool:
        // thread pinning and cache slices must not depend on how many
        // processes happen to be up, or elastic runs would diverge.
        let hardware = std::thread::available_parallelism().map_or(1, |v| v.get());
        let run = RunSpec {
            app: dist.app,
            scale: dist.scale,
            data_seed: dist.data_seed,
            scheme: nas.scheme,
            epochs: nas.epochs as u32,
            run_seed: nas.seed,
            namespace: nas.namespace.clone(),
            store_dir: dist.store_dir.to_string_lossy().into_owned(),
            threads: (hardware / window).max(1) as u32,
            cache_bytes: nas.cache_bytes / window as u64,
            prefilter_quantile: nas.fidelity.prefilter_quantile,
            conv_window: nas.fidelity.convergence.map_or(0, |c| c.window as u32),
            conv_min_delta: nas.fidelity.convergence.map_or(0.0, |c| c.min_delta),
            store_url: dist.store_url.clone().unwrap_or_default(),
        };

        let live = dist.live.clone().unwrap_or_else(|| Arc::new(LiveRunView::new()));
        live.set_meta("app", dist.app.name());
        live.set_meta("scale", format!("{:?}", dist.scale));
        live.set_meta("addr", &addr);
        live.set_window(window);

        let (tx, rx) = mpsc::channel();
        Ok(DistBackend {
            listener,
            addr,
            exe,
            run,
            window,
            initial_workers: n,
            max_workers: dist.max_workers,
            slots: Vec::with_capacity(n),
            tx,
            rx,
            pending: VecDeque::new(),
            inflight: HashMap::new(),
            start: Instant::now(),
            interval: dist.heartbeat_interval,
            timeout: dist.heartbeat_timeout,
            connect_timeout: dist.connect_timeout,
            next_nonce: 0,
            results_delivered: 0,
            kill_plan: dist.kill_worker_after.clone(),
            join_plan: dist.join_after.clone(),
            joining: Vec::new(),
            joined: 0,
            rejected: 0,
            lost: 0,
            reassigned: 0,
            finished: false,
            live,
        })
    }

    /// Fill the launch-time pool: run the admission loop until
    /// `initial_workers` slots are live. A spawned child that exits first,
    /// or a pool still short at the connect deadline, fails the launch; a
    /// bad Hello is dropped, exactly as it is mid-run.
    fn admit_initial(&mut self) -> io::Result<()> {
        let deadline = Instant::now() + self.connect_timeout;
        loop {
            self.poll_joins()?;
            if self.slots.len() >= self.initial_workers {
                return Ok(());
            }
            for child in &mut self.joining {
                if let Some(status) = child.try_wait()? {
                    return Err(io::Error::new(
                        io::ErrorKind::ConnectionAborted,
                        format!("worker pid {} exited during startup: {status}", child.id()),
                    ));
                }
            }
            if Instant::now() > deadline {
                return Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    format!(
                        "only {}/{} workers connected before the deadline",
                        self.slots.len(),
                        self.initial_workers
                    ),
                ));
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    /// Park an admitted connection in a fresh slot and start its reader
    /// thread. Returns the slot index.
    fn add_slot(&mut self, child: Option<Child>, stream: TcpStream) -> io::Result<usize> {
        let worker = self.slots.len();
        let reader_stream = stream.try_clone()?;
        let tx = self.tx.clone();
        let reader = std::thread::spawn(move || reader_loop(worker, reader_stream, tx));
        self.slots.push(WorkerSlot {
            child,
            writer: Some(stream),
            reader: Some(reader),
            current: None,
            alive: true,
            outstanding_ping: None,
            rtt: swt_obs::registry::global().histogram(&format!("dist.rtt_ns.w{worker}")),
        });
        self.live.worker_added(worker);
        Ok(worker)
    }

    /// Push the current dispatch picture into the live view: candidates
    /// still queued vs. handed to a worker.
    fn sync_live_queue(&self) {
        let queued = self.pending.len();
        self.live.set_queue(queued, self.inflight.len().saturating_sub(queued));
    }

    fn live_workers(&self) -> usize {
        self.slots.iter().filter(|s| s.alive).count()
    }

    fn send_to(&mut self, worker: usize, msg: &Msg) -> Result<(), WireError> {
        let payload = msg.encode()?;
        let stream = self.slots[worker]
            .writer
            .as_mut()
            .ok_or_else(|| WireError::Protocol(format!("worker {worker} already lost")))?;
        write_frame(stream, msg.frame_type(), &payload)
    }

    /// Declare `worker` lost: reclaim its candidate for reassignment, close
    /// its socket and reap the process. Errors only when no worker is left.
    fn mark_lost(&mut self, worker: usize, reason: &str) -> io::Result<()> {
        if !self.slots[worker].alive {
            return Ok(());
        }
        swt_obs::warn!("swt_dist", "worker {worker} lost: {reason}");
        swt_obs::counter!("dist.workers_lost").inc();
        self.lost += 1;
        self.reclaim(worker);
        self.close_slot(worker);
        self.sync_live_queue();
        if self.slots.iter().any(|s| s.alive) {
            Ok(())
        } else {
            Err(io::Error::new(
                io::ErrorKind::ConnectionAborted,
                format!("all {} workers lost (last: worker {worker}: {reason})", self.slots.len()),
            ))
        }
    }

    /// Put `worker`'s in-flight candidate back at the front of the pending
    /// queue, so it is the next dispatch.
    fn reclaim(&mut self, worker: usize) {
        if let Some(id) = self.slots[worker].current.take() {
            if let Some((cand, _)) = self.inflight.get(&id) {
                swt_obs::counter!("dist.reassigned").inc();
                self.reassigned += 1;
                swt_obs::info!("swt_dist", "reassigning candidate {id} from worker {worker}");
                self.pending.push_front(cand.clone());
            }
        }
    }

    /// Close a slot's socket and reap its process. On its own this is the
    /// orderly-teardown half of a loss: no loss counter, no reassignment.
    fn close_slot(&mut self, worker: usize) {
        let slot = &mut self.slots[worker];
        slot.alive = false;
        slot.outstanding_ping = None;
        if let Some(stream) = slot.writer.take() {
            let _ = stream.shutdown(std::net::Shutdown::Both);
        }
        if let Some(child) = slot.child.as_mut() {
            let _ = child.kill();
            let _ = child.wait();
        }
        self.live.worker_lost(worker);
    }

    /// The run view telemetry folds into (the one from
    /// [`DistConfig::live`] when set, otherwise backend-private).
    pub fn live(&self) -> Arc<LiveRunView> {
        Arc::clone(&self.live)
    }

    /// Hand pending candidates to idle live workers.
    fn flush(&mut self) -> io::Result<()> {
        loop {
            if self.pending.is_empty() {
                return Ok(());
            }
            let Some(worker) = self
                .slots
                .iter()
                .position(|s| s.alive && s.current.is_none() && s.writer.is_some())
            else {
                return Ok(()); // every live worker busy; keep queueing
            };
            let Some(cand) = self.pending.pop_front() else {
                return Ok(());
            };
            let id = cand.id;
            match self.send_to(worker, &Msg::Task { cand: cand.clone() }) {
                Ok(()) => {
                    self.slots[worker].current = Some(id);
                    self.live.set_current(worker, Some(id));
                    self.sync_live_queue();
                }
                Err(e) => {
                    self.pending.push_front(cand);
                    self.mark_lost(worker, &format!("task write failed: {e}"))?;
                }
            }
        }
    }

    /// One heartbeat round: time out workers with stale outstanding pings,
    /// ping everyone else, and pick up any join attempts waiting on the
    /// listener.
    fn heartbeat_tick(&mut self) -> io::Result<()> {
        self.poll_joins()?;
        for worker in 0..self.slots.len() {
            if !self.slots[worker].alive {
                continue;
            }
            if let Some((_, sent)) = self.slots[worker].outstanding_ping {
                if sent.elapsed() > self.timeout {
                    self.mark_lost(worker, "heartbeat timeout")?;
                }
                continue;
            }
            let nonce = self.next_nonce;
            self.next_nonce += 1;
            match self.send_to(worker, &Msg::Ping { nonce }) {
                Ok(()) => self.slots[worker].outstanding_ping = Some((nonce, Instant::now())),
                Err(e) => self.mark_lost(worker, &format!("ping write failed: {e}"))?,
            }
        }
        self.flush()
    }

    /// Accept every connection waiting on the (non-blocking) listener and
    /// run the admission protocol on each.
    fn poll_joins(&mut self) -> io::Result<()> {
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => self.handle_join(stream)?,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(()),
                Err(e) => return Err(e),
            }
        }
    }

    /// The admission protocol on one connection, at launch and mid-run
    /// alike: read `Hello`, validate the version, then either admit
    /// (`HelloAck` + fresh slot) or refuse with an `Error` frame — an
    /// unreadable or non-Hello opener, a version mismatch, or a pool already
    /// at `max_workers`. A refused connection is dropped; it never aborts
    /// the run.
    fn handle_join(&mut self, mut stream: TcpStream) -> io::Result<()> {
        stream.set_nonblocking(false)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(10)))?;
        let mut buf = Vec::new();
        let (version, worker_id, pid) =
            match read_frame(&mut stream, &mut buf).and_then(|ty| Msg::decode(ty, &buf)) {
                Ok(Msg::Hello { version, worker_id, pid }) => (version, worker_id, pid),
                Ok(other) => {
                    let reason = format!("expected Hello, got frame {:#04x}", other.frame_type());
                    refuse(&mut stream, &reason);
                    return Ok(());
                }
                Err(e) => {
                    refuse(&mut stream, &format!("unreadable Hello: {e}"));
                    return Ok(());
                }
            };
        // If this is a process we spawned, take ownership of its handle so
        // it gets reaped with its slot.
        let child = self.joining.iter().position(|c| c.id() == pid).map(|i| self.joining.remove(i));
        if version != PROTOCOL_VERSION {
            let err = WireError::VersionMismatch { ours: PROTOCOL_VERSION, theirs: version };
            refuse(&mut stream, &format!("pid {pid}: {err}"));
            reap(child);
            return Ok(());
        }
        if self.live_workers() >= self.max_workers {
            swt_obs::counter!("dist.joins_rejected").inc();
            self.rejected += 1;
            refuse(
                &mut stream,
                &format!("join rejected: pool already at max_workers={}", self.max_workers),
            );
            reap(child);
            return Ok(());
        }
        let ack = Msg::HelloAck { version: PROTOCOL_VERSION, run: self.run.clone() };
        let sent =
            ack.encode().and_then(|payload| write_frame(&mut stream, ack.frame_type(), &payload));
        if let Err(e) = sent {
            reap(child);
            swt_obs::warn!("swt_dist", "worker pid {pid} died during HelloAck: {e}");
            return Ok(());
        }
        stream.set_read_timeout(None)?;
        let slot = self.add_slot(child, stream)?;
        if slot < self.initial_workers {
            swt_obs::info!(
                "swt_dist",
                "worker {slot} connected (hello id {worker_id}, pid {pid}; {}/{})",
                slot + 1,
                self.initial_workers
            );
        } else {
            swt_obs::counter!("dist.workers_joined").inc();
            self.joined += 1;
            swt_obs::info!(
                "swt_dist",
                "worker joined mid-run as slot {slot} (hello id {worker_id}, pid {pid}); \
                 pool now {} live / window {}",
                self.live_workers(),
                self.window
            );
        }
        self.flush()
    }

    /// Elastic scale-out injection for tests, benches and the CI smoke
    /// gate: once the configured number of results has been delivered,
    /// spawn the planned workers and block until the coordinator has
    /// admitted or rejected every one of them, so the join lands at a
    /// deterministic point in the schedule.
    fn maybe_inject_join(&mut self) -> io::Result<()> {
        let due = self
            .join_plan
            .as_ref()
            .is_some_and(|plan| self.results_delivered >= plan.after_results);
        if !due {
            return Ok(());
        }
        let Some(plan) = self.join_plan.take() else {
            return Ok(());
        };
        swt_obs::info!(
            "swt_dist",
            "join injection: spawning {} worker(s) after {} results",
            plan.count,
            self.results_delivered
        );
        let resolved_target = self.joined + self.rejected + plan.count;
        for i in 0..plan.count {
            let worker_id = self.slots.len() + i;
            self.joining.push(spawn_worker(&self.exe, &self.addr, worker_id)?);
        }
        let deadline = Instant::now() + self.connect_timeout;
        while self.joined + self.rejected < resolved_target {
            self.poll_joins()?;
            if self.joined + self.rejected >= resolved_target {
                break;
            }
            if Instant::now() > deadline {
                return Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    "injected worker join did not resolve before the deadline",
                ));
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        Ok(())
    }

    /// Fault injection for benches and the CI smoke gate: SIGKILL a worker
    /// after the configured number of delivered results, then let the
    /// ordinary detection/reassignment machinery pick up the pieces. The
    /// kill waits until the victim is mid-evaluation, so the reassignment
    /// path (not merely loss detection) is guaranteed to run.
    fn maybe_inject_kill(&mut self) {
        let due = match &self.kill_plan {
            Some(plan) => {
                self.results_delivered >= plan.after_results
                    && self.slots.get(plan.worker).is_some_and(|s| s.alive && s.current.is_some())
            }
            None => false,
        };
        if !due {
            return;
        }
        if let Some(plan) = self.kill_plan.take() {
            if let Some(slot) = self.slots.get_mut(plan.worker) {
                if slot.alive {
                    swt_obs::info!(
                        "swt_dist",
                        "fault injection: SIGKILL worker {} after {} results",
                        plan.worker,
                        self.results_delivered
                    );
                    if let Some(child) = slot.child.as_mut() {
                        let _ = child.kill();
                    }
                }
            }
        }
    }

    /// Graceful teardown: send `Shutdown` to every live worker, fold the
    /// final snapshots they flush on the way out, hand back the run's
    /// [`DistRunStats`] with per-worker totals read from the settled live
    /// view, and fold those totals into the process-global registry. After
    /// this, `Drop` is a no-op.
    pub fn finish(&mut self) -> io::Result<DistRunStats> {
        self.finished = true;
        self.send_shutdown();
        // Workers answer Shutdown with a final snapshot and close their
        // socket; wait (bounded) for every live socket to drain. A worker
        // that stalls here keeps its last Result's snapshot — cumulative
        // snapshots make the fallback lossy only for post-last-Result work.
        let deadline = Instant::now() + self.timeout;
        while self.slots.iter().any(|s| s.alive) && Instant::now() < deadline {
            match self.rx.recv_timeout(Duration::from_millis(50)) {
                Ok(Event::Msg { worker, msg: Msg::Telemetry { telemetry } }) => {
                    self.live.apply_telemetry(worker, &telemetry);
                }
                Ok(Event::Msg { .. }) => {}
                Ok(Event::Gone { worker, .. }) => self.close_slot(worker),
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => break,
            }
        }
        self.reap_all();
        self.sync_live_queue();

        let per_worker = self.live.worker_metrics();
        // Fold worker-process totals into this process's registry so one
        // `RunReport::capture()` after the run reports whole-run sums.
        // Gated: a disabled-observability run must stay metrics-silent.
        if swt_obs::enabled() {
            let registry = swt_obs::registry::global();
            for (_, metrics) in &per_worker {
                metrics.to_report().absorb_into(registry);
            }
        }
        Ok(DistRunStats {
            per_worker,
            joined: self.joined,
            rejected: self.rejected,
            lost: self.lost,
            reassigned: self.reassigned,
        })
    }

    /// Ask every connected worker to exit cleanly.
    fn send_shutdown(&mut self) {
        for worker in 0..self.slots.len() {
            if self.slots[worker].writer.is_some() {
                let _ = self.send_to(worker, &Msg::Shutdown);
            }
        }
    }

    /// Close every slot, reap every child (admitted or not) and join the
    /// reader threads. `close_slot` SIGKILLs — a no-op for workers that
    /// already exited on Shutdown, and it ends stragglers (e.g.
    /// mid-evaluation after an aborted run) without blocking.
    fn reap_all(&mut self) {
        for worker in 0..self.slots.len() {
            self.close_slot(worker);
        }
        for child in self.joining.drain(..) {
            reap(Some(child));
        }
        for slot in &mut self.slots {
            if let Some(reader) = slot.reader.take() {
                let _ = reader.join();
            }
        }
    }
}

impl EvalBackend for DistBackend {
    fn capacity(&self) -> usize {
        // Constant: the dispatch window must not follow the live pool as
        // workers die or join, or the canonical schedule (and thus
        // determinism) would change.
        self.window
    }

    fn submit(&mut self, cand: Candidate) -> io::Result<()> {
        let t_submit = self.start.elapsed().as_secs_f64();
        self.inflight.insert(cand.id, (cand.clone(), t_submit));
        self.pending.push_back(cand);
        self.sync_live_queue();
        self.flush()?;
        self.maybe_inject_join()?;
        self.maybe_inject_kill();
        Ok(())
    }

    fn next_result(&mut self) -> io::Result<BackendResult> {
        loop {
            match self.rx.recv_timeout(self.interval) {
                Ok(Event::Msg { worker, msg }) => match msg {
                    Msg::Result { id, outcome } => {
                        if self.slots[worker].current == Some(id) {
                            self.slots[worker].current = None;
                        }
                        let Some((cand, t_start)) = self.inflight.remove(&id) else {
                            continue; // late duplicate; the runner never sees it
                        };
                        self.results_delivered += 1;
                        self.maybe_inject_join()?;
                        self.maybe_inject_kill();
                        self.flush()?;
                        let t_end = self.start.elapsed().as_secs_f64();
                        self.live.record_result(worker, t_end - t_start);
                        self.sync_live_queue();
                        return Ok(BackendResult { cand, t_start, t_end, outcome });
                    }
                    Msg::Telemetry { telemetry } => {
                        // The metrics channel: fold and keep going. A stale
                        // seq is counted by the view, never an error.
                        self.live.apply_telemetry(worker, &telemetry);
                    }
                    Msg::Pong { nonce } => {
                        let slot = &mut self.slots[worker];
                        if let Some((expected, sent)) = slot.outstanding_ping {
                            if expected == nonce {
                                slot.outstanding_ping = None;
                                slot.rtt.observe(sent.elapsed().as_nanos() as u64);
                                swt_obs::counter!("dist.heartbeats").inc();
                            }
                        }
                    }
                    Msg::Error { message } => {
                        self.mark_lost(worker, &format!("worker reported: {message}"))?;
                        self.flush()?;
                    }
                    other => {
                        let reason = format!("unexpected frame {:#04x}", other.frame_type());
                        self.mark_lost(worker, &reason)?;
                        self.flush()?;
                    }
                },
                Ok(Event::Gone { worker, reason }) => {
                    self.mark_lost(worker, &reason)?;
                    self.flush()?;
                }
                Err(RecvTimeoutError::Timeout) => self.heartbeat_tick()?,
                Err(RecvTimeoutError::Disconnected) => {
                    return Err(io::Error::new(
                        io::ErrorKind::BrokenPipe,
                        "all worker connections closed with work pending",
                    ));
                }
            }
        }
    }
}

impl Drop for DistBackend {
    fn drop(&mut self) {
        // The abort path only: a graceful teardown goes through `finish`,
        // which already reaped everything.
        if self.finished {
            return;
        }
        // Graceful first: a Shutdown frame lets idle workers exit cleanly.
        self.send_shutdown();
        self.reap_all();
    }
}

/// Kill and wait for a child we spawned, if there is one.
fn reap(child: Option<Child>) {
    if let Some(mut child) = child {
        let _ = child.kill();
        let _ = child.wait();
    }
}

/// Refuse a connection: log why, then a best-effort `Error` frame before
/// the caller drops it.
fn refuse(stream: &mut TcpStream, reason: &str) {
    swt_obs::warn!("swt_dist", "connection refused: {reason}");
    let msg = Msg::Error { message: reason.to_string() };
    if let Ok(payload) = msg.encode() {
        let _ = write_frame(stream, msg.frame_type(), &payload);
    }
}

fn reader_loop(worker: usize, mut stream: TcpStream, tx: mpsc::Sender<Event>) {
    let mut buf = Vec::new();
    loop {
        let decoded = match read_frame(&mut stream, &mut buf) {
            Ok(ty) => Msg::decode(ty, &buf),
            Err(e) => Err(e),
        };
        match decoded {
            Ok(msg) => {
                if tx.send(Event::Msg { worker, msg }).is_err() {
                    return; // coordinator gone; nothing to report to
                }
            }
            Err(err) => {
                let _ = tx.send(Event::Gone { worker, reason: err.to_string() });
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use swt_core::TransferScheme;
    use swt_data::{AppKind, DataScale};

    /// Open a connection to the coordinator and send one raw frame on it.
    fn connect_with(addr: &str, ty: u8, payload: &[u8]) -> io::Result<TcpStream> {
        let mut stream = TcpStream::connect(addr)?;
        write_frame(&mut stream, ty, payload)?;
        Ok(stream)
    }

    fn hello(version: u32, worker_id: u64) -> Result<Vec<u8>, WireError> {
        Msg::Hello { version, worker_id, pid: 0 }.encode()
    }

    /// The first frame the coordinator sent back on `stream`.
    fn reply(stream: &mut TcpStream) -> io::Result<Msg> {
        let mut buf = Vec::new();
        let ty = read_frame(stream, &mut buf)?;
        Ok(Msg::decode(ty, &buf)?)
    }

    #[test]
    fn bad_hellos_at_startup_are_refused_and_the_pool_still_fills() -> io::Result<()> {
        let nas = NasConfig::quick(TransferScheme::Lcs, 4, 2, 1);
        let mut dist = DistConfig::new(AppKind::Uno, DataScale::Quick, 1, PathBuf::from("unused"));
        dist.worker_exe = Some(PathBuf::from("unused")); // nothing is spawned here
        dist.max_workers = 3;
        let mut backend = DistBackend::bind(&nas, &dist)?;
        let addr = backend.addr.clone();

        // The bad peers connect first, so the listener accepts them first.
        let mut stale = connect_with(&addr, 0x01, &hello(PROTOCOL_VERSION - 1, 0)?)?;
        let mut garbage = connect_with(&addr, 0x01, &[0xde, 0xad, 0xbe])?;
        let mut good = Vec::new();
        for worker_id in 0..2 {
            good.push(connect_with(&addr, 0x01, &hello(PROTOCOL_VERSION, worker_id)?)?);
        }
        backend.admit_initial()?;

        assert_eq!(backend.live_workers(), 2, "the pool must still fill to n");
        for (what, peer) in [("version 6", &mut stale), ("garbage", &mut garbage)] {
            let got = reply(peer)?;
            assert!(
                matches!(got, Msg::Error { .. }),
                "{what} Hello must get an Error, got {got:?}"
            );
        }
        for peer in &mut good {
            let got = reply(peer)?;
            assert!(matches!(got, Msg::HelloAck { version: PROTOCOL_VERSION, .. }));
        }
        assert_eq!((backend.joined, backend.rejected), (0, 0), "startup admissions are not joins");

        // The same path admits later arrivals as joins, up to max_workers.
        for (worker_id, admitted) in [(2, true), (3, false)] {
            let mut peer = connect_with(&addr, 0x01, &hello(PROTOCOL_VERSION, worker_id)?)?;
            backend.poll_joins()?;
            let got = reply(&mut peer)?;
            assert_eq!(
                matches!(got, Msg::HelloAck { .. }),
                admitted,
                "joiner {worker_id}: {got:?}"
            );
        }
        assert_eq!((backend.live_workers(), backend.joined, backend.rejected), (3, 1, 1));
        Ok(())
    }
}
