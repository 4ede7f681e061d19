//! Integration tests for `swt-dist`: multi-process runs must be
//! bit-identical to the in-process thread pool — with healthy workers and
//! with a worker SIGKILLed mid-run.
//!
//! The worker binary comes from `CARGO_BIN_EXE_swt` (cargo builds package
//! bins for integration tests), passed explicitly so the tests are immune
//! to stale binaries elsewhere on the path.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;
use swt::prelude::*;

#[path = "util/mod.rs"]
mod util;
use util::{assert_traces_identical, poll_until, temp_dir};

fn nas_config(candidates: usize, workers: usize) -> NasConfig {
    NasConfig::quick(TransferScheme::Lcs, candidates, workers, 9)
}

fn dist_config(store: PathBuf) -> DistConfig {
    let mut cfg = DistConfig::new(AppKind::Uno, DataScale::Quick, 11, store);
    cfg.worker_exe = Some(PathBuf::from(env!("CARGO_BIN_EXE_swt")));
    cfg
}

fn run_in_process(cfg: &NasConfig, store_dir: &PathBuf) -> NasTrace {
    let problem = Arc::new(AppKind::Uno.problem(DataScale::Quick, 11));
    let space = Arc::new(SearchSpace::for_app(AppKind::Uno));
    let store: Arc<dyn CheckpointStore> = Arc::new(DirStore::new(store_dir).unwrap());
    run_nas(problem, space, store, cfg)
}

#[test]
fn distributed_run_matches_in_process_run() {
    let cfg = nas_config(10, 2);
    let local_store = temp_dir("ab_local");
    let local = run_in_process(&cfg, &local_store);

    let dist_store = temp_dir("ab_dist");
    let dist = dist_config(dist_store.clone());
    let distributed = run_nas_dist(&cfg, &dist).expect("distributed run failed");

    assert_traces_identical(&local, &distributed, "healthy 2-worker run");
    // Workers shared one DirStore: every candidate checkpoint is on disk.
    // Checkpoints are written by *worker* processes, so wait on a deadline
    // rather than asserting instantly.
    let store = DirStore::new(&dist_store).unwrap();
    for e in &distributed.events {
        assert!(
            poll_until(Duration::from_secs(5), || store.exists(&format!("c{}", e.id))),
            "missing checkpoint c{}",
            e.id
        );
    }
    let _ = std::fs::remove_dir_all(&local_store);
    let _ = std::fs::remove_dir_all(&dist_store);
}

#[test]
fn killed_worker_is_detected_and_its_candidate_reassigned() {
    swt_obs::enable();
    let cfg = nas_config(10, 2);
    let local_store = temp_dir("kill_local");
    let local = run_in_process(&cfg, &local_store);

    let reassigned_before = swt_obs::registry::global().counter("dist.reassigned").get();
    let lost_before = swt_obs::registry::global().counter("dist.workers_lost").get();

    let dist_store = temp_dir("kill_dist");
    let mut dist = dist_config(dist_store.clone());
    // SIGKILL worker 1 while the run is mid-flight: with a 2-wide window,
    // worker 1 holds an in-flight candidate at that point, so the
    // reassignment path must run for the trace to complete.
    dist.kill_worker_after = Some(KillPlan { worker: 1, after_results: 3 });
    let distributed = run_nas_dist(&cfg, &dist).expect("degraded run failed");

    assert_traces_identical(&local, &distributed, "run with worker 1 killed");
    let lost = swt_obs::registry::global().counter("dist.workers_lost").get() - lost_before;
    let reassigned =
        swt_obs::registry::global().counter("dist.reassigned").get() - reassigned_before;
    assert_eq!(lost, 1, "exactly one worker was killed");
    assert!(reassigned >= 1, "the killed worker's in-flight candidate must be reassigned");
    let _ = std::fs::remove_dir_all(&local_store);
    let _ = std::fs::remove_dir_all(&dist_store);
}

#[test]
fn single_worker_distributed_run_completes() {
    // Degenerate pool: the coordinator must work with a 1-wide window too
    // (this is also the post-failure steady state of a 2-worker run).
    let cfg = nas_config(6, 1);
    let local_store = temp_dir("one_local");
    let local = run_in_process(&cfg, &local_store);
    let dist_store = temp_dir("one_dist");
    let dist = dist_config(dist_store.clone());
    let distributed = run_nas_dist(&cfg, &dist).expect("single-worker run failed");
    assert_traces_identical(&local, &distributed, "single-worker run");
    let _ = std::fs::remove_dir_all(&local_store);
    let _ = std::fs::remove_dir_all(&dist_store);
}

#[test]
fn two_runs_share_one_store_via_namespaces() {
    // Two distributed runs share one DirStore root — the paper's parallel
    // file system shared by concurrent experiments — and must not
    // interfere, because their checkpoint ids live in distinct namespaces.
    let shared_store = temp_dir("shared");
    let isolated_store = temp_dir("isolated");

    let mut cfg_a = nas_config(6, 2);
    cfg_a.namespace = "expA_".into();
    let mut cfg_b = nas_config(6, 2);
    cfg_b.namespace = "expB_".into();
    cfg_b.seed = 10; // a different search so collisions would actually corrupt

    // Baselines in isolation.
    let mut iso_cfg_a = cfg_a.clone();
    iso_cfg_a.namespace = String::new();
    let isolated_a = run_in_process(&iso_cfg_a, &isolated_store);

    let a = run_nas_dist(&cfg_a, &dist_config(shared_store.clone())).expect("run A failed");
    let b = run_nas_dist(&cfg_b, &dist_config(shared_store.clone())).expect("run B failed");

    assert_traces_identical(&isolated_a, &a, "shared-store run A vs isolated baseline");
    let store = DirStore::new(&shared_store).unwrap();
    for e in a.events.iter() {
        assert!(poll_until(Duration::from_secs(5), || store.exists(&format!("expA_c{}", e.id))));
    }
    for e in b.events.iter() {
        assert!(poll_until(Duration::from_secs(5), || store.exists(&format!("expB_c{}", e.id))));
    }
    assert!(!store.exists("c0"), "no run may write outside its namespace");
    let _ = std::fs::remove_dir_all(&shared_store);
    let _ = std::fs::remove_dir_all(&isolated_store);
}

/// Run the `swt` CLI; its exit status and stderr.
fn swt_cli(args: &[&str]) -> (bool, String) {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_swt")).args(args).output().unwrap();
    (out.status.success(), String::from_utf8_lossy(&out.stderr).into_owned())
}

#[test]
fn cli_rejects_flags_outside_the_mode_table() {
    let (ok, err) = swt_cli(&["run", "--candidatez", "3"]);
    assert!(!ok && err.contains("--candidatez"), "a misspelt flag must fail loudly: {err}");
    // The removed fault-injection flag; the kill hook is library-only now.
    let removed = concat!("--kill", "-after");
    let (ok, err) = swt_cli(&["dist-run", removed, "1:3"]);
    assert!(!ok && err.contains(removed), "a removed flag must fail loudly: {err}");
    let (ok, err) = swt_cli(&["run", "--candidates", "3", "stray"]);
    assert!(!ok && err.contains("stray"), "a positional argument is rejected: {err}");
    // The default `--workers` is checked against `--max-workers` too: an
    // error naming the cap, not a panic.
    let args = ["dist-run", "--candidates", "2", "--workers", "3", "--max-workers", "2"];
    let (ok, err) = swt_cli(&args);
    assert!(
        !ok && err.contains("max_workers") && !err.contains("panicked"),
        "a pool above --max-workers must fail cleanly: {err}"
    );
    let (ok, err) = swt_cli(&["run", "--candidates", "3", "--workers", "1"]);
    assert!(ok, "the known flags still run a search: {err}");
}
