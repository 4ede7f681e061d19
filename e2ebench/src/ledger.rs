//! Metrics, the two ledgers and the per-layer numbers derived from what
//! the probes, the trace, the run's counters and the replay recorded.

use crate::probe::{ProbeLog, TimedStore};
use crate::replay::{Replay, ROWS};
use crate::workload::{Route, Search, Workload, WORKERS};
use std::collections::{BTreeSet, HashMap};
use swt::checkpoint::CheckpointStore;
use swt::cluster::{simulate, ClusterConfig, PfsModel, TaskCost};
use swt::nas::{NasTrace, StopReason};

/// Named metrics with units, printed in insertion order.
#[derive(Default)]
pub struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        // JSON has no NaN or infinity; an undefined ratio reads as 0.
        let value = if value.is_finite() { value + 0.0 } else { 0.0 };
        self.0.push((name.to_string(), value, unit));
    }

    pub fn to_json(&self) -> String {
        let body: Vec<String> = self
            .0
            .iter()
            .map(|(n, v, u)| format!("\"{n}\": {{\"value\": {v:?}, \"unit\": \"{u}\"}}"))
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The highest of p50/p90/p99/p99.9 with at least ten samples beyond it,
/// as `(percentile, nearest-rank value)`.
pub fn tail(xs: &[f64]) -> (f64, f64) {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len() as f64;
    let p = [99.9, 99.0, 90.0, 50.0]
        .into_iter()
        .find(|p| n * (1.0 - p / 100.0) >= 10.0)
        .unwrap_or(50.0);
    let rank = ((p / 100.0 * n).ceil() as usize).clamp(1, v.len().max(1));
    (p, v.get(rank - 1).copied().unwrap_or(0.0))
}

/// Exclusive seconds per layer over a wall, plus the explicit `other` row.
pub struct Ledger {
    pub name: &'static str,
    pub wall: f64,
    pub rows: Vec<(&'static str, f64)>,
}

impl Ledger {
    fn other(&self) -> f64 {
        self.wall - self.rows.iter().map(|r| r.1).sum::<f64>()
    }

    /// Share of the wall the named rows account for.
    pub fn coverage(&self) -> f64 {
        if self.wall > 0.0 {
            1.0 - self.other().max(0.0) / self.wall
        } else {
            0.0
        }
    }

    pub fn render(&self) -> String {
        let mut out = format!("{} (wall {:.3}s):\n", self.name, self.wall);
        for (name, secs) in self.rows.iter().copied().chain([("other", self.other())]) {
            let share = 100.0 * secs / self.wall.max(1e-12);
            out.push_str(&format!("  {name:<18} {secs:>10.4}s {share:>6.2}%\n"));
        }
        out.push_str(&format!("  coverage {:.2}%", 100.0 * self.coverage()));
        out
    }
}

/// Per-candidate view joining the probe's submit and return times.
struct Cand {
    id: u64,
    latency: f64,
    backend: f64,
    train: f64,
    transfer: f64,
    save: f64,
}

fn cands(log: &ProbeLog) -> Vec<Cand> {
    let submitted: HashMap<u64, f64> = log.submits.iter().map(|&(id, _, t)| (id, t)).collect();
    log.unique_returns()
        .into_iter()
        .map(|r| Cand {
            id: r.id,
            latency: r.at - submitted.get(&r.id).copied().unwrap_or(r.at),
            backend: r.backend_secs,
            train: r.train_secs,
            transfer: r.transfer_secs,
            save: r.save_secs,
        })
        .collect()
}

fn is_dist(w: &Workload) -> bool {
    w.route != Route::InProcess
}

/// Slot time of the run: `workers × runner wall`, split into what the
/// evaluators reported (train/transfer/save), the time a candidate spent
/// in flight outside its evaluation (queue and result hand-off in-process;
/// frames, store RPCs and worker set-up on dist), and free slots inside the
/// dispatch span.
pub fn run_ledger(w: &Workload, run: &Search, trace: &NasTrace) -> Ledger {
    let c = cands(&run.log);
    let sum = |f: &dyn Fn(&Cand) -> f64| c.iter().map(f).sum::<f64>();
    let latency = sum(&|c| c.latency);
    let in_flight = if is_dist(w) {
        ("dist.overhead", sum(&|c| c.latency - c.train - c.transfer - c.save))
    } else {
        ("nas.queue", sum(&|c| c.latency - c.backend))
    };
    Ledger {
        name: "run ledger (slot seconds)",
        wall: WORKERS as f64 * trace.wall_secs,
        rows: vec![
            ("eval.train", sum(&|c| c.train)),
            ("eval.transfer", sum(&|c| c.transfer)),
            ("eval.save", sum(&|c| c.save)),
            in_flight,
            ("nas.slot_idle", WORKERS as f64 * run.log.search_secs() - latency),
        ],
    }
}

pub fn replay_ledger(rp: &Replay) -> Ledger {
    Ledger {
        name: "replay ledger (single thread)",
        wall: rp.wall,
        rows: ROWS.iter().map(|&r| (r, rp.get(r))).collect(),
    }
}

/// Seconds at rung boundaries with fewer than `WORKERS` candidates in
/// flight: from the last submit of a rung to the first submit of the next.
fn rung_drain(log: &ProbeLog) -> f64 {
    let mut steps: Vec<(f64, i32)> = log.submits.iter().map(|s| (s.2, 1)).collect();
    steps.extend(log.unique_returns().iter().map(|r| (r.at, -1)));
    steps.sort_by(|a, b| a.0.total_cmp(&b.0));
    // Seconds within [a, b] with a free slot.
    let below = |a: f64, b: f64| {
        let (mut inflight, mut t_prev, mut secs) = (0i32, f64::MIN, 0.0);
        for &(t, d) in steps.iter().chain([(f64::MAX, 0)].iter()) {
            if (inflight as usize) < WORKERS {
                secs += (t.min(b) - t_prev.max(a)).max(0.0);
            }
            inflight += d;
            t_prev = t;
        }
        secs
    };
    let rungs: BTreeSet<u8> = log.submits.iter().map(|s| s.1).collect();
    let at = |r: u8| log.submits.iter().filter(move |s| s.1 == r).map(|s| s.2);
    rungs
        .iter()
        .filter_map(|&r| {
            let next = at(r + 1).reduce(f64::min)?;
            Some(below(at(r).fold(f64::MIN, f64::max), next))
        })
        .sum()
}

/// Returned results that sat in the runner's reorder buffer at once.
fn reorder_depth_max(log: &ProbeLog) -> usize {
    let mut waiting = BTreeSet::new();
    let (mut next, mut max) = (0u64, 0usize);
    for r in log.unique_returns() {
        waiting.insert(r.id);
        while waiting.remove(&next) {
            next += 1;
        }
        max = max.max(waiting.len());
    }
    max
}

pub fn per_layer<S: CheckpointStore>(
    m: &mut Metrics,
    w: &Workload,
    run: &Search,
    trace: &NasTrace,
    rp: &Replay,
    replay_store: &TimedStore<S>,
    data_secs: f64,
) {
    let log = &run.log;
    let c = cands(log);
    let wall = trace.wall_secs;
    let report = &run.report;
    let frac = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };

    m.put("nas.wait_s", log.wait_secs, "s");
    m.put("nas.runner_self_s", wall - log.wait_secs - log.submit_secs, "s");
    let busy: f64 = c.iter().map(|c| c.backend).sum();
    m.put("nas.slot_idle_frac", 1.0 - frac(busy, WORKERS as f64 * wall), "frac");
    m.put("nas.reorder_depth_max", reorder_depth_max(log) as f64, "count");
    m.put("nas.dispatches", log.submits.len() as f64, "count");
    let lat_ms: Vec<f64> = c.iter().map(|c| c.latency * 1e3).collect();
    let (pct, tail_ms) = tail(&lat_ms);
    m.put("nas.candidate_latency_p50_ms", median(&lat_ms), "ms");
    m.put("nas.candidate_latency_tail_ms", tail_ms, "ms");
    m.put("nas.candidate_latency_tail_pct", pct, "percentile");
    m.put("nas.candidate_latency_samples", lat_ms.len() as f64, "count");
    m.put("nas.rung_drain_s", rung_drain(log), "s");

    let ev = &trace.events;
    let sum = |f: &dyn Fn(&swt::nas::TraceEvent) -> f64| ev.iter().map(f).sum::<f64>();
    m.put("eval.train_s", sum(&|e| e.train_secs), "s");
    m.put("eval.transfer_s", sum(&|e| e.transfer_secs), "s");
    m.put("eval.save_s", sum(&|e| e.save_secs), "s");
    m.put("eval.transfer_bytes", sum(&|e| e.transfer_bytes as f64), "bytes");
    m.put("eval.checkpoint_bytes", sum(&|e| e.checkpoint_bytes as f64), "bytes");
    m.put(
        "eval.prefiltered",
        ev.iter().filter(|e| e.stop == StopReason::Prefiltered).count() as f64,
        "count",
    );
    let with_parent = ev.iter().filter(|e| e.parent.is_some()).count();
    let hits = ev.iter().filter(|e| e.parent.is_some() && e.transfer_tensors > 0).count();
    m.put("eval.transfer_hit_frac", frac(hits as f64, with_parent as f64), "frac");

    m.put("nn.build_s", rp.get("nn.build"), "s");
    m.put("nn.batch_s", rp.get("nn.batch"), "s");
    m.put("nn.forward_s", rp.get("nn.forward"), "s");
    m.put("nn.loss_s", rp.get("nn.loss"), "s");
    m.put("nn.backward_s", rp.get("nn.backward"), "s");
    m.put("nn.optimizer_s", rp.get("nn.optimizer"), "s");
    m.put("nn.val_s", rp.get("nn.val"), "s");
    let step: f64 = ["nn.batch", "nn.forward", "nn.loss", "nn.backward", "nn.optimizer"]
        .iter()
        .map(|r| rp.get(r))
        .sum();
    m.put("nn.samples_per_s", frac(rp.samples_trained as f64, step), "1/s");
    let gemm = report.counter_prefix_sum("tensor.gemm.") as f64;
    m.put("tensor.gemm_calls", gemm, "count");
    m.put(
        "tensor.gemm_simd_frac",
        frac(report.counter("tensor.gemm.blocked.simd") as f64, gemm),
        "frac",
    );

    m.put("core.plan_s", rp.get("core.plan"), "s");
    m.put("core.copy_in_s", rp.get("core.copy_in"), "s");
    m.put("core.tensors_moved", rp.tensors_moved as f64, "count");
    m.put("core.bytes_moved", rp.bytes_moved as f64, "bytes");

    // In-process the store wrapper sat under the run's provider cache; on
    // dist the workers' stores are out of reach and the replay measures it.
    let (save, index, tensors, raw, errors) = match run.timed.as_deref() {
        Some(s) => (&s.save, &s.index, &s.tensors, &s.raw, s.errors()),
        None => {
            let s = replay_store;
            (&s.save, &s.index, &s.tensors, &s.raw, s.errors())
        }
    };
    m.put("ckpt.save_s", save.secs(), "s");
    m.put("ckpt.save_bytes", save.bytes() as f64, "bytes");
    m.put("ckpt.index_read_s", index.secs(), "s");
    m.put("ckpt.tensor_read_s", tensors.secs(), "s");
    // Whole-container reads: what a provider-cache miss costs.
    m.put("ckpt.raw_read_s", raw.secs(), "s");
    m.put("ckpt.read_bytes", (tensors.bytes() + raw.bytes()) as f64, "bytes");
    m.put("ckpt.errors", errors as f64, "count");
    let (hit, miss) =
        (report.counter("ckpt.cache.hits") as f64, report.counter("ckpt.cache.misses") as f64);
    m.put("ckpt.cache_hit_frac", frac(hit, hit + miss), "frac");

    let remote = w.route == Route::DistRemote;
    let rs = |op: &crate::probe::OpStat| if remote { op.mean_ms() } else { 0.0 };
    m.put("ckptsrv.puts", report.counter("ckptsrv.puts") as f64, "count");
    m.put("ckptsrv.gets_index", report.counter("ckptsrv.gets_index") as f64, "count");
    m.put("ckptsrv.gets_tensors", report.counter("ckptsrv.gets_tensors") as f64, "count");
    m.put("ckptsrv.gets_raw", report.counter("ckptsrv.gets_raw") as f64, "count");
    let tx = ["ckptsrv.index_bytes_tx", "ckptsrv.tensor_bytes_tx", "ckptsrv.full_bytes_tx"]
        .iter()
        .map(|n| report.counter(n))
        .sum::<u64>();
    m.put("ckptsrv.bytes_tx", tx as f64, "bytes");
    m.put("ckptsrv.bytes_rx", report.counter("ckptsrv.put_bytes") as f64, "bytes");
    m.put("ckptsrv.retries", report.counter("ckptsrv.client.retries") as f64, "count");
    m.put("ckptsrv.errors", report.counter("ckptsrv.errors") as f64, "count");
    m.put("ckptsrv.rpc_put_ms", rs(&replay_store.save), "ms");
    m.put("ckptsrv.rpc_index_ms", rs(&replay_store.index), "ms");
    m.put("ckptsrv.rpc_tensors_ms", rs(&replay_store.tensors), "ms");

    let stats = run.dist.clone().unwrap_or_default();
    m.put("dist.spawn_s", run.spawn_secs, "s");
    m.put("dist.frames_tx", report.counter("dist.frames_tx") as f64, "count");
    m.put("dist.frames_rx", report.counter("dist.frames_rx") as f64, "count");
    m.put("dist.workers_lost", stats.lost as f64, "count");
    m.put("dist.reassigned", stats.reassigned as f64, "count");
    let overhead: Vec<f64> =
        c.iter().map(|c| (c.latency - c.train - c.transfer - c.save) * 1e3).collect();
    m.put("dist.overhead_ms_per_candidate", if is_dist(w) { median(&overhead) } else { 0.0 }, "ms");

    m.put("data.generate_s", data_secs, "s");
    m.put("replay.candidates", rp.candidates as f64, "count");
}

/// Feed the run's per-candidate costs plus the median in-flight overhead to
/// `swt_cluster::simulate` at 1 and 2 dedicated workers and compare the
/// 2-worker makespan with the measured dispatch span.
pub fn sim_cross_check(m: &mut Metrics, run: &Search) {
    let mut c = cands(&run.log);
    c.sort_by_key(|c| c.id);
    let overhead =
        median(&c.iter().map(|c| c.latency - c.train - c.transfer - c.save).collect::<Vec<_>>());
    let tasks = |extra: f64| -> Vec<TaskCost> {
        c.iter()
            .map(|c| TaskCost {
                train_secs: c.train + c.save + extra,
                read_bytes: 0,
                transfer_secs: c.transfer,
                write_bytes: 0,
            })
            .collect()
    };
    let cluster = |gpus: usize| ClusterConfig {
        name: format!("{gpus} dedicated worker(s)"),
        gpus,
        pfs: PfsModel { read_bw: f64::INFINITY, write_bw: f64::INFINITY, latency: 0.0 },
        dispatch_secs: 0.0,
    };
    let measured = run.log.search_secs();
    let with = (
        simulate(&cluster(1), &tasks(overhead)).makespan,
        simulate(&cluster(2), &tasks(overhead)).makespan,
    );
    let without =
        (simulate(&cluster(1), &tasks(0.0)).makespan, simulate(&cluster(2), &tasks(0.0)).makespan);
    println!(
        "simulator: measured {measured:.3}s; 2-worker prediction {:.3}s with the {:.3} ms median \
         overhead ({:.2}x over 1 worker), {:.3}s without it ({:.2}x)",
        with.1,
        overhead * 1e3,
        with.0 / with.1,
        without.1,
        without.0 / without.1
    );
    // The same comparison over the first 24 candidates: the length of the
    // runs behind BENCH_dist's measured-vs-predicted speedup.
    const SHORT: usize = 24;
    if let (Some(first), Some(r)) =
        (run.log.first_submit(), run.log.unique_returns().get(SHORT - 1))
    {
        let short: Vec<TaskCost> = tasks(overhead).into_iter().take(SHORT).collect();
        let predicted = simulate(&cluster(2), &short).makespan;
        // By submit order: the first candidates pay the workers' start-up.
        let first_latency = run.log.submits.first().and_then(|s| c.iter().find(|c| c.id == s.0));
        println!(
            "simulator, first {SHORT} candidates: measured {:.3}s, predicted {predicted:.3}s \
             (ratio {:.2}); first candidate in flight {:.2} ms, median {:.2} ms",
            r.at - first,
            predicted / (r.at - first),
            first_latency.map_or(0.0, |c| c.latency * 1e3),
            1e3 * median(&c.iter().map(|c| c.latency).collect::<Vec<_>>()),
        );
    }
    m.put("sim.predicted_over_measured", with.1 / measured.max(1e-9), "ratio");
}
