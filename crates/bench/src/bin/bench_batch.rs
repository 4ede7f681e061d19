//! Batched candidate evaluation benchmark, emitting `BENCH_batch.json`.
//!
//! Usage: `cargo run --release -p swt-bench --bin bench_batch [--smoke] [out.json]`
//!
//! Two sections:
//!
//! 1. **Kernel sweep** (`gemm.sweep.*`): the blocked GEMM driver across a
//!    range of square sizes, forced-scalar vs runtime-dispatched micro-kernel,
//!    single-threaded. This is the per-op view of what the NAS rows below
//!    aggregate.
//! 2. **Few-shot NAS throughput** (`nas.few_shot.*`): the paper's many-tiny-
//!    models regime (CIFAR-10-like at `DataScale::Quick`) with a dispatch
//!    window far wider than the host's cores. `batch_eval=off` runs the historical
//!    one-thread-per-worker pool; `batch_eval=auto` packs the same window
//!    onto ~one slot thread per core. The two arms alternate run for run so
//!    thermal/scheduler drift hits both equally, and the reported figure is
//!    the per-arm median.
//!
//! Batching is scheduling-only, so the benchmark *asserts* that every run —
//! batched or not — produces one byte-identical canonical trace, and exits
//! nonzero on any mismatch. A throughput number bought with a schedule change
//! would be a bug, not a result.
//!
//! `--smoke` shrinks both sections to a few seconds for CI gating.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;
use swt::prelude::*;
use swt::stats::median;
use swt::tensor::{force_scalar_kernel, gemm_kernel_name, matmul};
use swt_bench::Harness;

fn main() {
    let mut smoke = false;
    let mut out_path = "BENCH_batch.json".to_string();
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

    let mut h = Harness::new();
    let mut rng = Rng::seed(0xBA7C);

    // --- Kernel sweep: scalar vs dispatched micro-kernel, single-threaded ---
    swt::tensor::parallel::set_max_threads(1);
    let sizes: &[usize] = if smoke { &[64] } else { &[64, 128, 256, 384, 512] };
    for &n in sizes {
        let a = Tensor::rand_normal([n, n], 0.0, 1.0, &mut rng);
        let b = Tensor::rand_normal([n, n], 0.0, 1.0, &mut rng);
        force_scalar_kernel(true);
        h.bench(&format!("gemm.sweep.scalar.{n}"), || {
            black_box(matmul(&a, &b));
        });
        force_scalar_kernel(false);
        h.bench(&format!("gemm.sweep.simd.{n}"), || {
            black_box(matmul(&a, &b));
        });
    }
    // The NAS arms size their own thread budgets from the worker count.
    swt::tensor::parallel::set_max_threads(0);

    // --- Few-shot NAS: batched vs unbatched on one oversubscribed window ---
    // CIFAR-10-quick is the arena-heaviest of the four apps (conv gradient
    // buffers),
    // so it shows the cost of one cold per-thread workspace per candidate —
    // exactly what batching removes — most clearly.
    let app = AppKind::Cifar10;
    let (candidates, workers, reps) = if smoke { (12, 8, 1) } else { (128, 128, 5) };
    let problem = Arc::new(app.problem(DataScale::Quick, 17));
    let space = Arc::new(SearchSpace::for_app(app));
    let cfg = |batch_eval: BatchEval| NasConfig {
        batch_eval,
        ..NasConfig::quick(TransferScheme::Lcs, candidates, workers, 5)
    };

    let run = |batch_eval: BatchEval| -> (f64, String) {
        let cfg = cfg(batch_eval);
        let store: Arc<dyn CheckpointStore> = Arc::new(MemStore::new());
        let t = Instant::now();
        let trace = run_nas(Arc::clone(&problem), Arc::clone(&space), store, &cfg);
        let ns = t.elapsed().as_nanos() as f64;
        (ns, trace.canonical_csv())
    };

    // Warm-up (untimed) pass establishes the reference trace.
    let (_, reference) = run(BatchEval::Off);
    let (mut off_ns, mut auto_ns) = (Vec::new(), Vec::new());
    for rep in 0..reps {
        for (arm, samples) in [(BatchEval::Off, &mut off_ns), (BatchEval::Auto, &mut auto_ns)] {
            let (ns, csv) = run(arm);
            println!("nas.few_shot rep {}/{reps} batch_eval={arm}: {:.2}s", rep + 1, ns / 1e9);
            if csv != reference {
                eprintln!(
                    "FAIL: batch_eval={arm} produced a different canonical trace than \
                     batch_eval=off — batching must be scheduling-only"
                );
                std::process::exit(1);
            }
            samples.push(ns);
        }
    }
    println!("canonical traces identical across all {} runs", 2 * reps + 1);
    let tag = format!("{}_quick.{candidates}cand_{workers}workers", app.slug());
    let off = median(&off_ns);
    let auto = median(&auto_ns);
    h.record(&format!("nas.few_shot.{tag}.batch_off"), off, reps);
    h.record(&format!("nas.few_shot.{tag}.batch_auto"), auto, reps);
    println!("\nnas few_shot batched-vs-unbatched speedup: {:.2}x", off / auto);

    if !smoke {
        if let (Some(scalar), Some(simd)) =
            (h.get("gemm.sweep.scalar.256"), h.get("gemm.sweep.simd.256"))
        {
            println!(
                "gemm sweep 256 simd-vs-scalar speedup: {:.2}x ({})",
                scalar / simd,
                gemm_kernel_name()
            );
        }
    }

    let hardware = std::thread::available_parallelism().map_or(1, |n| n.get());
    let meta = [
        ("bench", "batch".to_string()),
        ("kernel", gemm_kernel_name().to_string()),
        ("hardware_threads", hardware.to_string()),
        ("smoke", smoke.to_string()),
        ("profile", if cfg!(debug_assertions) { "debug" } else { "release" }.to_string()),
    ];
    std::fs::write(&out_path, h.to_json(&meta)).expect("write benchmark JSON");
    println!("wrote {out_path}");
}
