//! Distributed-execution benchmark, emitting `BENCH_dist.json`.
//!
//! Usage: `cargo run --release -p swt-bench --bin bench_dist [--smoke] [out.json]`
//!
//! Proves the two properties the `swt-dist` subsystem exists for:
//!
//! 1. **Bit-identical distribution.** A quick NAS run on the in-process
//!    thread pool is compared against the same configuration executed on
//!    worker *processes* — once with all workers healthy, and once with a
//!    worker SIGKILLed mid-run (exercising heartbeat loss detection and
//!    task reassignment). Scores, architectures, parents, transfer counts
//!    and the top-K must match exactly in all three runs.
//! 2. **Throughput scaling.** Wall-clock of the distributed run at 1 and 2
//!    workers, compared against the `swt-cluster` analytical simulator's
//!    predicted makespans for the same per-task costs. (On a single-core CI
//!    host the measured speedup saturates near 1x while the simulator —
//!    which models dedicated GPUs — predicts ~2x; both numbers are
//!    recorded, the gate is on identity, not scaling.)
//!
//! Exits non-zero if any A/B run diverges, if the killed-worker run fails
//! to complete, or if the reassignment path was not exercised
//! (`dist.reassigned` must be ≥ 1 and `dist.workers_lost` exactly 1).
//!
//! `--smoke` writes the JSON to a temp directory instead of the repository
//! root so CI checks do not dirty the tree. Requires the `swt` binary next
//! to this one (`cargo build --release -p swt`); `SWT_DIST_WORKER_EXE`
//! overrides discovery.

use std::path::PathBuf;
use std::sync::Arc;
use swt::prelude::*;
use swt_bench::traces_identical;

const CANDIDATES: usize = 24;
const SEED: u64 = 9;
const DATA_SEED: u64 = 11;

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("bench_dist_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn nas_config(workers: usize) -> NasConfig {
    NasConfig::quick(TransferScheme::Lcs, CANDIDATES, workers, SEED)
}

fn dist_config(store: PathBuf) -> DistConfig {
    DistConfig::new(AppKind::Uno, DataScale::Quick, DATA_SEED, store)
}

fn counter(name: &str) -> u64 {
    swt::obs::registry::global().counter(name).get()
}

fn main() {
    let mut smoke = false;
    let mut out_arg = None;
    for arg in std::env::args().skip(1) {
        if arg == "--smoke" {
            smoke = true;
        } else {
            out_arg = Some(arg);
        }
    }
    let out_path = out_arg.unwrap_or_else(|| {
        if smoke {
            std::env::temp_dir().join("BENCH_dist.json").to_string_lossy().into_owned()
        } else {
            "BENCH_dist.json".to_string()
        }
    });
    if let Err(e) = std::fs::write(&out_path, "{}\n") {
        eprintln!("cannot write {out_path}: {e}");
        std::process::exit(1);
    }
    swt::obs::enable();

    // --- in-process baseline ------------------------------------------------
    let problem = Arc::new(AppKind::Uno.problem(DataScale::Quick, DATA_SEED));
    let space = Arc::new(SearchSpace::for_app(AppKind::Uno));
    let local_dir = scratch_dir("local");
    let local_store: Arc<dyn CheckpointStore> =
        Arc::new(DirStore::new(&local_dir).expect("open local store"));
    let local = run_nas(Arc::clone(&problem), Arc::clone(&space), local_store, &nas_config(2));
    println!(
        "in-process baseline: {CANDIDATES} candidates, 2 threads, {:.2}s wall",
        local.wall_secs
    );

    // --- distributed, all workers healthy -----------------------------------
    let healthy_dir = scratch_dir("healthy");
    let healthy = swt::dist::run_nas_dist(&nas_config(2), &dist_config(healthy_dir.clone()))
        .expect("healthy distributed run failed");
    let healthy_ok = traces_identical(&local, &healthy, "healthy 2-worker A/B");
    println!(
        "distributed (2 workers, healthy): {:.2}s wall, identical = {healthy_ok}",
        healthy.wall_secs
    );

    // --- distributed, one worker SIGKILLed mid-run ---------------------------
    let lost_before = counter("dist.workers_lost");
    let reassigned_before = counter("dist.reassigned");
    let killed_dir = scratch_dir("killed");
    let mut killed_cfg = dist_config(killed_dir.clone());
    killed_cfg.kill_worker_after = Some(KillPlan { worker: 1, after_results: 3 });
    let killed = swt::dist::run_nas_dist(&nas_config(2), &killed_cfg)
        .expect("killed-worker distributed run failed");
    let killed_ok = traces_identical(&local, &killed, "killed-worker A/B");
    let workers_lost = counter("dist.workers_lost") - lost_before;
    let reassigned = counter("dist.reassigned") - reassigned_before;
    println!(
        "distributed (2 workers, worker 1 SIGKILLed after 3 results): {:.2}s wall, \
         identical = {killed_ok}, workers_lost = {workers_lost}, reassigned = {reassigned}",
        killed.wall_secs
    );

    // --- distributed, elastic: start short-handed, a worker joins mid-run ----
    // One process at launch against a 2-wide dispatch window; a second
    // process joins after 3 results and drains the queued backlog. The
    // trace must still be bit-identical to the fixed 2-worker runs, since
    // joining only changes which process evaluates a candidate.
    let elastic_dir = scratch_dir("elastic");
    let mut elastic_cfg = dist_config(elastic_dir.clone());
    elastic_cfg.initial_workers = Some(1);
    elastic_cfg.max_workers = 2;
    elastic_cfg.join_after = Some(JoinPlan { after_results: 3, count: 1 });
    let (elastic, elastic_stats) = swt::dist::run_nas_dist_with_stats(&nas_config(2), &elastic_cfg)
        .expect("elastic distributed run failed");
    let elastic_ok = traces_identical(&local, &elastic, "elastic-join A/B");
    println!(
        "distributed (1 worker + 1 late join): {:.2}s wall, identical = {elastic_ok}, \
         joined = {}, worker snapshots merged = {}",
        elastic.wall_secs,
        elastic_stats.joined,
        elastic_stats.per_worker.len()
    );

    // --- throughput vs worker count vs simulator -----------------------------
    // The dispatch window is part of the deterministic schedule, so the
    // 1-worker distributed run is compared against a 1-thread in-process
    // baseline (a 2-thread run legitimately explores differently).
    let local1_dir = scratch_dir("local1");
    let local1_store: Arc<dyn CheckpointStore> =
        Arc::new(DirStore::new(&local1_dir).expect("open 1-thread local store"));
    let local1 = run_nas(Arc::clone(&problem), Arc::clone(&space), local1_store, &nas_config(1));
    let one_dir = scratch_dir("one");
    let one = swt::dist::run_nas_dist(&nas_config(1), &dist_config(one_dir.clone()))
        .expect("single-worker distributed run failed");
    let one_ok = traces_identical(&local1, &one, "1-worker A/B");
    let measured_speedup = one.wall_secs / healthy.wall_secs;

    // Feed the simulator the measured per-task costs of the real run and a
    // local-disk "PFS". The prediction assumes one dedicated compute unit
    // per worker — the cluster it models — so on shared cores it is an
    // upper bound on the measured speedup.
    let tasks: Vec<TaskCost> = one
        .events
        .iter()
        .map(|e| TaskCost {
            train_secs: e.train_secs,
            read_bytes: e.transfer_bytes as u64,
            transfer_secs: e.transfer_secs,
            write_bytes: e.checkpoint_bytes,
        })
        .collect();
    let sim_cfg = |gpus: usize| ClusterConfig {
        name: format!("{gpus}-worker localhost"),
        gpus,
        pfs: swt::cluster::PfsModel { read_bw: 2e9, write_bw: 1e9, latency: 2e-4 },
        dispatch_secs: 2e-3,
    };
    let sim1 = simulate(&sim_cfg(1), &tasks);
    let sim2 = simulate(&sim_cfg(2), &tasks);
    let predicted_speedup = sim1.makespan / sim2.makespan;
    println!(
        "throughput 1 -> 2 workers: measured {:.2}s -> {:.2}s ({measured_speedup:.2}x); \
         simulator predicts {:.2}s -> {:.2}s ({predicted_speedup:.2}x, dedicated cores)",
        one.wall_secs, healthy.wall_secs, sim1.makespan, sim2.makespan
    );

    // Observability wiring: the dist counters and per-worker RTT histograms
    // must land in the standard run report.
    let report = RunReport::capture()
        .with_meta("bench", "dist")
        .with_meta("candidates", CANDIDATES)
        .with_meta("seed", SEED);
    let report_path =
        std::env::temp_dir().join(format!("bench_dist_report_{}.json", std::process::id()));
    report.write_json(&report_path).expect("write run report");
    let report_reassigned = report.counter("dist.reassigned");
    println!("run report (dist.* counters + RTT histograms): {}", report_path.display());

    for dir in [&local_dir, &healthy_dir, &killed_dir, &elastic_dir, &local1_dir, &one_dir] {
        let _ = std::fs::remove_dir_all(dir);
    }

    let transfer_tensors: usize = local.events.iter().map(|e| e.transfer_tensors).sum();
    let meta = [
        ("bench", "dist".to_string()),
        ("profile", if cfg!(debug_assertions) { "debug" } else { "release" }.to_string()),
        ("candidates", CANDIDATES.to_string()),
        ("seed", SEED.to_string()),
        ("ab_healthy_identical", healthy_ok.to_string()),
        ("ab_killed_identical", killed_ok.to_string()),
        ("ab_elastic_identical", elastic_ok.to_string()),
        ("ab_one_worker_identical", one_ok.to_string()),
        ("workers_joined", elastic_stats.joined.to_string()),
        ("transfer_tensors", transfer_tensors.to_string()),
        ("workers_lost", workers_lost.to_string()),
        ("reassigned", reassigned.to_string()),
        ("wall_secs_inprocess_2w", format!("{:.3}", local.wall_secs)),
        ("wall_secs_dist_1w", format!("{:.3}", one.wall_secs)),
        ("wall_secs_dist_2w", format!("{:.3}", healthy.wall_secs)),
        ("wall_secs_dist_2w_killed", format!("{:.3}", killed.wall_secs)),
        ("measured_speedup_1to2", format!("{measured_speedup:.3}")),
        ("sim_makespan_1w", format!("{:.3}", sim1.makespan)),
        ("sim_makespan_2w", format!("{:.3}", sim2.makespan)),
        ("predicted_speedup_1to2", format!("{predicted_speedup:.3}")),
    ];
    let h = swt_bench::Harness::new();
    std::fs::write(&out_path, h.to_json(&meta)).expect("write benchmark JSON");
    println!("wrote {out_path}");

    let mut failed = false;
    if !(healthy_ok && killed_ok && elastic_ok && one_ok) {
        eprintln!("FAIL: a distributed run diverged from the in-process baseline");
        failed = true;
    }
    if elastic_stats.joined != 1 {
        eprintln!("FAIL: expected exactly 1 elastic join, saw {}", elastic_stats.joined);
        failed = true;
    }
    if transfer_tensors == 0 {
        eprintln!("FAIL: the A/B never transferred weights (vacuous identity check)");
        failed = true;
    }
    if workers_lost != 1 {
        eprintln!("FAIL: expected exactly 1 lost worker, saw {workers_lost}");
        failed = true;
    }
    if reassigned < 1 || report_reassigned < 1 {
        eprintln!("FAIL: reassignment path not exercised (counter {reassigned})");
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
    println!(
        "PASS: distributed == in-process (healthy, degraded and 1-worker), \
         {reassigned} reassignment(s) after a mid-run SIGKILL"
    );
}
