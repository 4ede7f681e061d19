//! Autoscaling benchmark, emitting `BENCH_autoscale.json`.
//!
//! Usage: `cargo run --release -p swt-bench --bin bench_autoscale [--smoke] [out.json]`
//!
//! Proves the two properties the coordinator-side autoscaler exists for:
//!
//! 1. **Bit-identical elasticity.** The same quick NAS configuration runs
//!    on the in-process thread pool, on a static 2-worker process pool, on
//!    an autoscaled pool that starts at 1 worker and grows on backlog, and
//!    on an over-provisioned pool of 3 that the policy drains back down.
//!    All four traces must match exactly: the policy only changes *which
//!    process* evaluates a candidate, never the schedule.
//! 2. **Makespan-gap reduction.** The very `ScalePolicy` the coordinator
//!    runs is replayed against the `swt-cluster` cost model on a pinned
//!    synthetic scenario. The gate: the elastic replay's makespan must sit
//!    closer to the wide-pool prediction `simulate(W)` than the static
//!    1-worker baseline does — elasticity must buy back most of the gap
//!    between under-provisioned and fully-provisioned pools, and because
//!    the replay is seeded and wall-clock-free the gate is deterministic
//!    on any host.
//!
//! Exits non-zero if any A/B run diverges, if the policy never grew or
//! never retired where the scenario demands it, or if the replayed policy
//! fails the gap gate.
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
/// Pinned replay scenario (the same seed the swt-cluster regression pins).
const SCENARIO_SEED: u64 = 0xA5CA1E;
const SCENARIO_TASKS: usize = 64;
/// Wide-pool worker count the replayed policy may grow to.
const WIDE: usize = 4;

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("bench_autoscale_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn nas_config() -> NasConfig {
    NasConfig::quick(TransferScheme::Lcs, CANDIDATES, 2, SEED)
}

fn dist_config(store: PathBuf) -> DistConfig {
    DistConfig::new(AppKind::Uno, DataScale::Quick, DATA_SEED, store)
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
            std::env::temp_dir().join("BENCH_autoscale.json").to_string_lossy().into_owned()
        } else {
            "BENCH_autoscale.json".to_string()
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
    let local = run_nas(Arc::clone(&problem), Arc::clone(&space), local_store, &nas_config());
    println!(
        "in-process baseline: {CANDIDATES} candidates, 2 threads, {:.2}s wall",
        local.wall_secs
    );

    // --- static 2-worker process pool ---------------------------------------
    let static_dir = scratch_dir("static");
    let fixed = swt::dist::run_nas_dist(&nas_config(), &dist_config(static_dir.clone()))
        .expect("static distributed run failed");
    let static_ok = traces_identical(&local, &fixed, "static 2-worker A/B");
    println!(
        "distributed (2 workers, static): {:.2}s wall, identical = {static_ok}",
        fixed.wall_secs
    );

    // --- autoscaled: start at 1, grow on backlog ----------------------------
    let grow_dir = scratch_dir("grow");
    let mut grow_cfg = dist_config(grow_dir.clone());
    grow_cfg.initial_workers = Some(1);
    grow_cfg.max_workers = 2;
    grow_cfg.autoscale = Some(PolicyConfig::bounded(1, 2));
    let (grow, grow_stats) = swt::dist::run_nas_dist_with_stats(&nas_config(), &grow_cfg)
        .expect("autoscale-grow distributed run failed");
    let grow_ok = traces_identical(&local, &grow, "autoscale-grow A/B");
    println!(
        "distributed (1 worker + autoscale 1..=2): {:.2}s wall, identical = {grow_ok}, \
         grown = {}, retired = {}",
        grow.wall_secs, grow_stats.grown, grow_stats.retired
    );

    // --- autoscaled: start over-provisioned, drain back down ----------------
    // 3 processes against the 2-wide dispatch window leave one always idle;
    // the policy must retire it (drain-then-close) without touching the
    // trace.
    let shrink_dir = scratch_dir("shrink");
    let mut shrink_cfg = dist_config(shrink_dir.clone());
    shrink_cfg.initial_workers = Some(3);
    shrink_cfg.max_workers = 3;
    shrink_cfg.autoscale = Some(PolicyConfig::bounded(2, 3));
    let (shrink, shrink_stats) = swt::dist::run_nas_dist_with_stats(&nas_config(), &shrink_cfg)
        .expect("autoscale-shrink distributed run failed");
    let shrink_ok = traces_identical(&local, &shrink, "autoscale-shrink A/B");
    println!(
        "distributed (3 workers + autoscale 2..=3): {:.2}s wall, identical = {shrink_ok}, \
         grown = {}, retired = {}",
        shrink.wall_secs, shrink_stats.grown, shrink_stats.retired
    );

    // --- the makespan-gap gate: replay the real policy on the cost model ----
    let tasks = scenario_tasks(SCENARIO_SEED, SCENARIO_TASKS);
    let cluster = ClusterConfig {
        name: format!("{WIDE}-worker elastic"),
        gpus: WIDE, // used by simulate(); the replay's pool is policy-owned
        pfs: swt::cluster::PfsModel { read_bw: 1e9, write_bw: 1e9, latency: 0.005 },
        dispatch_secs: 0.02,
    };
    let wide = simulate(&cluster, &tasks).makespan;
    let narrow = simulate(&ClusterConfig { gpus: 1, ..cluster.clone() }, &tasks).makespan;
    let mut policy = ScalePolicy::new(PolicyConfig::bounded(1, WIDE)).expect("valid bench policy");
    let replay_cfg = ReplayConfig { min_workers: 1, max_workers: WIDE, ..ReplayConfig::default() };
    let replay = replay_policy(&cluster, &replay_cfg, &tasks, |view| {
        // Adapt the replay view onto the coordinator's pool snapshot. The
        // replay does not distinguish spawning from live workers, so both
        // count as live — conservative for the grow path (effective
        // capacity is never understated).
        let snapshot = PoolSnapshot {
            queue_depth: view.queue_depth,
            inflight: view.busy,
            live: view.workers,
            idle: view.workers.saturating_sub(view.busy),
            connecting: 0,
            results: view.tick,
            ewma_secs: view.ewma_secs,
        };
        match policy.decide_snapshot(&snapshot) {
            ScaleDecision::Grow(n) => n as isize,
            ScaleDecision::Shrink(n) => -(n as isize),
            ScaleDecision::Hold => 0,
        }
    });
    let gap_elastic = (replay.makespan - wide).abs();
    let gap_static = (narrow - wide).abs();
    let gap_ok = gap_elastic < gap_static;
    println!(
        "replay gate: simulate(1) {narrow:.3}s, simulate({WIDE}) {wide:.3}s, \
         elastic replay {:.3}s (grown {}, retired {}, peak {})",
        replay.makespan, replay.grown, replay.retired, replay.peak_workers
    );
    println!(
        "makespan gap to the wide pool: static {gap_static:.3}s -> elastic {gap_elastic:.3}s \
         ({:.1}% recovered), gate = {gap_ok}",
        if gap_static > 0.0 { 100.0 * (1.0 - gap_elastic / gap_static) } else { 100.0 }
    );

    for dir in [&local_dir, &static_dir, &grow_dir, &shrink_dir] {
        let _ = std::fs::remove_dir_all(dir);
    }

    let transfer_tensors: usize = local.events.iter().map(|e| e.transfer_tensors).sum();
    let meta = [
        ("bench", "autoscale".to_string()),
        ("profile", if cfg!(debug_assertions) { "debug" } else { "release" }.to_string()),
        ("candidates", CANDIDATES.to_string()),
        ("seed", SEED.to_string()),
        ("scenario_seed", format!("{SCENARIO_SEED:#x}")),
        ("scenario_tasks", SCENARIO_TASKS.to_string()),
        ("ab_static_identical", static_ok.to_string()),
        ("ab_grow_identical", grow_ok.to_string()),
        ("ab_shrink_identical", shrink_ok.to_string()),
        ("transfer_tensors", transfer_tensors.to_string()),
        ("workers_grown", grow_stats.grown.to_string()),
        ("workers_retired", shrink_stats.retired.to_string()),
        ("wall_secs_inprocess", format!("{:.3}", local.wall_secs)),
        ("wall_secs_static_2w", format!("{:.3}", fixed.wall_secs)),
        ("wall_secs_autoscale_grow", format!("{:.3}", grow.wall_secs)),
        ("wall_secs_autoscale_shrink", format!("{:.3}", shrink.wall_secs)),
        ("sim_makespan_1w", format!("{narrow:.6}")),
        ("sim_makespan_wide", format!("{wide:.6}")),
        ("replay_makespan", format!("{:.6}", replay.makespan)),
        ("replay_grown", replay.grown.to_string()),
        ("replay_retired", replay.retired.to_string()),
        ("replay_peak_workers", replay.peak_workers.to_string()),
        ("gap_static_secs", format!("{gap_static:.6}")),
        ("gap_elastic_secs", format!("{gap_elastic:.6}")),
    ];
    let h = swt_bench::Harness::new();
    std::fs::write(&out_path, h.to_json(&meta)).expect("write benchmark JSON");
    println!("wrote {out_path}");

    let mut failed = false;
    if !(static_ok && grow_ok && shrink_ok) {
        eprintln!("FAIL: an autoscaled run diverged from the in-process baseline");
        failed = true;
    }
    if grow_stats.grown < 1 {
        eprintln!("FAIL: the backlogged pool never grew (grown = {})", grow_stats.grown);
        failed = true;
    }
    if shrink_stats.retired < 1 {
        eprintln!(
            "FAIL: the over-provisioned pool never retired its spare (retired = {})",
            shrink_stats.retired
        );
        failed = true;
    }
    if transfer_tensors == 0 {
        eprintln!("FAIL: the A/B never transferred weights (vacuous identity check)");
        failed = true;
    }
    if replay.grown < 1 {
        eprintln!("FAIL: the replayed policy never grew on the pinned scenario");
        failed = true;
    }
    if !gap_ok {
        eprintln!(
            "FAIL: elastic replay gap {gap_elastic:.3}s is not below the static gap \
             {gap_static:.3}s"
        );
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
    println!(
        "PASS: autoscaled == in-process (static, grow and shrink), and the replayed policy \
         recovers the makespan gap"
    );
}
