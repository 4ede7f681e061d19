//! GEMM / conv / end-to-end benchmark, emitting `BENCH_gemm.json`.
//!
//! Usage: `cargo run --release -p swt-bench --bin bench_gemm [out.json]`
//!
//! Measures, single-threaded (so numbers are comparable across machines and
//! cap configurations):
//! * naive vs blocked GEMM on square and training-shaped problems — the
//!   blocked driver is measured twice, on the forced portable scalar
//!   micro-kernel (`gemm.blocked.*`) and on the runtime-dispatched kernel
//!   (`gemm.simd.*`, AVX2+FMA where detected; identical to blocked rows on
//!   hosts without SIMD),
//! * conv2d forward (implicit-GEMM lowering) on a CIFAR-like layer,
//! * one end-to-end `NasConfig::quick` run per kernel.
//!
//! The JSON is committed as `BENCH_gemm.json` at the repository root so perf
//! changes show up in review diffs.

use std::hint::black_box;
use std::sync::Arc;
use swt::prelude::*;
use swt::tensor::{
    conv2d_forward, force_naive_gemm, force_scalar_kernel, gemm_kernel_name, matmul, matmul_naive,
    Padding,
};
use swt_bench::Harness;

fn main() {
    let out_path = std::env::args().nth(1).unwrap_or_else(|| "BENCH_gemm.json".to_string());
    // Fail on an unwritable path now, not after minutes of measurement.
    if let Err(e) = std::fs::write(&out_path, "{}\n") {
        eprintln!("cannot write {out_path}: {e}");
        std::process::exit(1);
    }
    // Single-threaded kernels: the speedup claimed here must come from the
    // blocked kernel itself, not from parallel fan-out.
    swt::tensor::parallel::set_max_threads(1);

    let mut h = Harness::new();
    let mut rng = Rng::seed(0xBE7C);

    // Square GEMMs (the 256 case is the headline number) plus one
    // training-shaped problem: batch x hidden times hidden x hidden.
    for &(m, k, n) in &[(256usize, 256usize, 256usize), (512, 512, 512), (64, 1024, 256)] {
        let a = Tensor::rand_normal([m, k], 0.0, 1.0, &mut rng);
        let b = Tensor::rand_normal([k, n], 0.0, 1.0, &mut rng);
        h.bench(&format!("gemm.naive.{m}x{k}x{n}"), || {
            black_box(matmul_naive(&a, &b));
        });
        force_scalar_kernel(true);
        h.bench(&format!("gemm.blocked.{m}x{k}x{n}"), || {
            black_box(matmul(&a, &b));
        });
        force_scalar_kernel(false);
        h.bench(&format!("gemm.simd.{m}x{k}x{n}"), || {
            black_box(matmul(&a, &b));
        });
    }

    // CIFAR-like conv layer: NHWC [8, 32, 32, 16] * [3, 3, 16, 32].
    let input = Tensor::rand_normal([8, 32, 32, 16], 0.0, 1.0, &mut rng);
    let kernel = Tensor::rand_normal([3, 3, 16, 32], 0.0, 0.1, &mut rng);
    h.bench("conv2d.forward.8x32x32x16.3x3x16x32", || {
        black_box(conv2d_forward(&input, &kernel, Padding::Same));
    });

    // End-to-end: the same quick NAS run under the naive kernel (the seed's
    // hot path) and the blocked one. The runner re-derives its own thread
    // budget from the worker count, so with 1 worker both runs use identical
    // parallelism and the delta is the GEMM kernel alone.
    let problem = Arc::new(AppKind::Uno.problem(DataScale::Quick, 11));
    let space = Arc::new(SearchSpace::for_app(AppKind::Uno));
    let cfg = NasConfig::quick(TransferScheme::Lcs, 8, 1, 3);
    force_naive_gemm(true);
    h.bench("nas.quick_uno.8cand_1worker.naive_gemm", || {
        let store: Arc<dyn CheckpointStore> = Arc::new(MemStore::new());
        black_box(run_nas(Arc::clone(&problem), Arc::clone(&space), store, &cfg));
    });
    force_naive_gemm(false);
    force_scalar_kernel(true);
    h.bench("nas.quick_uno.8cand_1worker.blocked_gemm", || {
        let store: Arc<dyn CheckpointStore> = Arc::new(MemStore::new());
        black_box(run_nas(Arc::clone(&problem), Arc::clone(&space), store, &cfg));
    });
    force_scalar_kernel(false);
    h.bench("nas.quick_uno.8cand_1worker.simd_gemm", || {
        let store: Arc<dyn CheckpointStore> = Arc::new(MemStore::new());
        black_box(run_nas(Arc::clone(&problem), Arc::clone(&space), store, &cfg));
    });
    swt::tensor::parallel::set_max_threads(1);

    // Speedup summaries for the acceptance headline.
    if let (Some(naive), Some(blocked)) =
        (h.get("gemm.naive.256x256x256"), h.get("gemm.blocked.256x256x256"))
    {
        println!(
            "\ngemm 256x256x256 blocked-vs-naive speedup: {:.2}x (single-threaded)",
            naive / blocked
        );
    }
    if let (Some(blocked), Some(simd)) =
        (h.get("gemm.blocked.256x256x256"), h.get("gemm.simd.256x256x256"))
    {
        println!(
            "gemm 256x256x256 simd-vs-scalar-microkernel speedup: {:.2}x ({})",
            blocked / simd,
            gemm_kernel_name()
        );
    }
    if let (Some(naive), Some(simd)) = (
        h.get("nas.quick_uno.8cand_1worker.naive_gemm"),
        h.get("nas.quick_uno.8cand_1worker.simd_gemm"),
    ) {
        println!("nas quick_uno end-to-end speedup: {:.2}x", naive / simd);
    }

    let meta = [
        ("bench", "gemm".to_string()),
        ("threads", "1".to_string()),
        ("kernel", gemm_kernel_name().to_string()),
        ("profile", if cfg!(debug_assertions) { "debug" } else { "release" }.to_string()),
    ];
    std::fs::write(&out_path, h.to_json(&meta)).expect("write benchmark JSON");
    println!("wrote {out_path}");
}
