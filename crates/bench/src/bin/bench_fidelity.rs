//! Multi-fidelity NAS benchmark, emitting `BENCH_fidelity.json`.
//!
//! Usage: `cargo run --release -p swt-bench --bin bench_fidelity [--smoke] [out.json]`
//!
//! Two sections, mirroring the two claims a multi-fidelity pipeline must
//! back up (paper §VIII-D measures exactly this trade for one-epoch
//! estimates):
//!
//! 1. **Rank fidelity** (`fidelity.rank.e{K}`): one fixed random candidate
//!    population evaluated under fidelity-off runs at several epoch budgets.
//!    Kendall tau-b between each cheap ranking and the full-budget ranking
//!    lands in the JSON `meta` (`tau_b_e{K}_vs_e{F}`). A cheap budget is
//!    only admissible as a successive-halving rung if its tau-b clears the
//!    gate — speed bought by shuffling the ranking is not speed.
//! 2. **Pipeline throughput** (`nas.fidelity.*`): the same search once with
//!    fidelity off at the full budget and once with the full pipeline on
//!    (successive halving + zero-cost pre-filter). Both arms examine the
//!    same rung-0 population, so candidates/sec compares directly; the arms
//!    alternate run for run so thermal/scheduler drift hits both equally.
//!
//! In full mode the binary *enforces* the acceptance gates — tau-b at the
//! rung-0 budget >= 0.85 and pipeline speedup >= 2x — and exits nonzero if
//! either fails. `--smoke` shrinks everything to a few seconds for CI
//! gating and only checks that the pipeline actually engaged (pruned and
//! prefiltered candidates exist) and that tau-b is well-formed.

use std::sync::Arc;
use std::time::Instant;
use swt::nas::StrategyKind;
use swt::prelude::*;
use swt::stats::median;
use swt_bench::Harness;

/// Rung-0 score per candidate id — the ranking the strategy (and any
/// promotion decision) sees for the initial population.
fn rung0_scores(trace: &NasTrace, n: usize) -> Vec<f64> {
    let mut out = vec![f64::NAN; n];
    for e in &trace.events {
        if e.rung == 0 && (e.id as usize) < n {
            out[e.id as usize] = e.score;
        }
    }
    out
}

fn main() {
    let mut smoke = false;
    let mut out_path = "BENCH_fidelity.json".to_string();
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--smoke" => smoke = true,
            other => out_path = other.to_string(),
        }
    }
    // Fail on an unwritable path now, not after minutes of measurement.
    if let Err(e) = std::fs::write(&out_path, "{}\n") {
        eprintln!("cannot write {out_path}: {e}");
        std::process::exit(1);
    }

    // MNIST-quick is where the learning curves plateau fastest: past ~8
    // epochs the ranking stabilises (adjacent-budget tau-b > 0.85), so a
    // rung-0 budget of 8 against a full budget of 12 is the cheapest cut
    // that is still rank-faithful. Shallower budgets (1-4 epochs) are
    // measured and reported below precisely to show they are *not*
    // admissible — their curves still cross.
    let app = AppKind::Mnist;
    let (candidates, workers, full_epochs, reps) =
        if smoke { (12, 4, 3, 1) } else { (96, 8, 12, 3) };
    let rung0_epochs = if smoke { 1usize } else { 8 };
    let (eta, prefilter) = (4usize, 0.5f64);
    let problem = Arc::new(app.problem(DataScale::Quick, 17));
    let space = Arc::new(SearchSpace::for_app(app));

    // Random strategy: scores never feed back into candidate generation, so
    // every run below draws the *same* population and rankings pair by id.
    let base = |epochs: usize| NasConfig {
        strategy: StrategyKind::Random,
        epochs,
        ..NasConfig::quick(TransferScheme::Lcs, candidates, workers, 9)
    };
    let run = |cfg: &NasConfig| -> (f64, NasTrace) {
        let store: Arc<dyn CheckpointStore> = Arc::new(MemStore::new());
        let t = Instant::now();
        let trace = run_nas(Arc::clone(&problem), Arc::clone(&space), store, cfg);
        (t.elapsed().as_nanos() as f64, trace)
    };

    let mut h = Harness::new();
    let mut meta: Vec<(String, String)> = Vec::new();

    // --- Section 1: rank fidelity of cheap epoch budgets ---
    let mut budgets: Vec<usize> = vec![2, 4, rung0_epochs, full_epochs];
    budgets.retain(|&e| e <= full_epochs);
    budgets.sort_unstable();
    budgets.dedup();
    let mut traces = Vec::new();
    for &e in &budgets {
        let (ns, trace) = run(&base(e));
        h.record(&format!("fidelity.rank.e{e}"), ns, 1);
        traces.push((e, trace));
    }
    let (_, full_trace) = traces.last().expect("at least one budget");
    let full_scores = rung0_scores(full_trace, candidates);
    let mut tau_at_rung0 = f64::NAN;
    for (e, trace) in &traces[..traces.len() - 1] {
        // Same seed + Random strategy must mean the same architectures; a
        // mismatch would silently invalidate every tau below.
        for (a, b) in trace.events.iter().zip(&full_trace.events) {
            assert_eq!(a.arch, b.arch, "populations diverged between budgets");
        }
        let tau = kendall_tau_b(&rung0_scores(trace, candidates), &full_scores);
        println!("tau-b rank({e} epochs) vs rank({full_epochs} epochs): {tau:.4}");
        meta.push((format!("tau_b_e{e}_vs_e{full_epochs}"), format!("{tau:.4}")));
        if *e == rung0_epochs {
            tau_at_rung0 = tau;
        }
    }

    // --- Section 2: pipeline throughput, fidelity off vs on ---
    let off_cfg = base(full_epochs);
    let on_cfg = NasConfig {
        fidelity: FidelityConfig::new(
            eta,
            vec![rung0_epochs, full_epochs],
            prefilter,
            Some(Convergence { window: 3, min_delta: 1e-4 }),
        )
        .expect("bench fidelity knobs are valid"),
        ..base(full_epochs)
    };
    // Warm-up (untimed) passes; keep the on-arm trace to check engagement.
    let _ = run(&off_cfg);
    let (_, on_trace) = run(&on_cfg);
    let (mut off_ns, mut on_ns) = (Vec::new(), Vec::new());
    for rep in 0..reps {
        for (cfg, samples, name) in [(&off_cfg, &mut off_ns, "off"), (&on_cfg, &mut on_ns, "on")] {
            let (ns, _) = run(cfg);
            println!("nas.fidelity rep {}/{reps} fidelity={name}: {:.2}s", rep + 1, ns / 1e9);
            samples.push(ns);
        }
    }
    let count = |s: StopReason| on_trace.events.iter().filter(|e| e.stop == s).count();
    let (pruned, prefiltered, converged) =
        (count(StopReason::Pruned), count(StopReason::Prefiltered), count(StopReason::Converged));
    println!(
        "pipeline stop reasons: {pruned} pruned, {prefiltered} prefiltered, {converged} converged"
    );

    let tag = format!("{}_quick.{candidates}cand_{workers}workers", app.slug());
    let (off, on) = (median(&off_ns), median(&on_ns));
    h.record(&format!("nas.fidelity.{tag}.fidelity_off"), off, reps);
    h.record(&format!("nas.fidelity.{tag}.fidelity_on"), on, reps);
    let speedup = off / on;
    let cps = |ns: f64| candidates as f64 / (ns / 1e9);
    println!(
        "\nfidelity pipeline: {:.2} -> {:.2} candidates/sec ({speedup:.2}x) at tau-b {tau_at_rung0:.4}",
        cps(off),
        cps(on)
    );
    meta.push(("candidates_per_sec_off".into(), format!("{:.3}", cps(off))));
    meta.push(("candidates_per_sec_on".into(), format!("{:.3}", cps(on))));
    meta.push(("speedup".into(), format!("{speedup:.3}")));
    meta.push(("stopped_pruned".into(), pruned.to_string()));
    meta.push(("stopped_prefiltered".into(), prefiltered.to_string()));
    meta.push(("stopped_converged".into(), converged.to_string()));

    // --- Gates ---
    if smoke {
        // Tiny sizes make the numbers noisy; only require that the pipeline
        // actually engaged and the statistic is well-formed.
        if pruned == 0 || prefiltered == 0 {
            eprintln!("FAIL: smoke run never pruned/prefiltered a candidate");
            std::process::exit(1);
        }
        if !(-1.0..=1.0).contains(&tau_at_rung0) {
            eprintln!("FAIL: tau-b out of range: {tau_at_rung0}");
            std::process::exit(1);
        }
    } else {
        if tau_at_rung0 < 0.85 {
            eprintln!(
                "FAIL: tau-b at the rung-0 budget is {tau_at_rung0:.4} < 0.85 — the cheap \
                 ranking disagrees too much with the full-budget ranking"
            );
            std::process::exit(1);
        }
        if speedup < 2.0 {
            eprintln!("FAIL: pipeline speedup {speedup:.2}x < 2x");
            std::process::exit(1);
        }
    }

    let hardware = std::thread::available_parallelism().map_or(1, |n| n.get());
    meta.push(("hardware_threads".into(), hardware.to_string()));
    let mut kv: Vec<(&str, String)> = vec![
        ("bench", "fidelity".to_string()),
        ("smoke", smoke.to_string()),
        ("profile", if cfg!(debug_assertions) { "debug" } else { "release" }.to_string()),
        ("eta", eta.to_string()),
        ("rungs", format!("{rung0_epochs},{full_epochs}")),
        ("prefilter_quantile", prefilter.to_string()),
    ];
    kv.extend(meta.iter().map(|(k, v)| (k.as_str(), v.clone())));
    std::fs::write(&out_path, h.to_json(&kv)).expect("write benchmark JSON");
    println!("wrote {out_path}");
}
