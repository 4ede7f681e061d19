//! GEMM and convolution hot-loop allocation discipline.
//!
//! The blocked driver's pack buffers come from the caller's `Workspace`
//! (per-thread scratch slices under parallel dispatch — see
//! `parallel::par_chunks_mut_scratch`), and so does every conv scratch
//! buffer, so at steady state the hot loop must not touch the heap. Two
//! pins, for `matmul_ws` and for the `conv2d_*_ws` / `conv1d_*_ws` passes:
//!
//! * **serial path**: a counting global allocator proves a warmed call
//!   performs literally zero heap allocations;
//! * **parallel path**: scoped thread spawns do allocate (stacks, join
//!   handles — unavoidable with std scoped threads), so the pin is the
//!   arena's own miss counter: once warm, pack-buffer requests never fall
//!   through to the allocator.
//!
//! One `#[test]` on purpose: every check mutate the process-wide thread
//! budget and the allocation counter, and the default multi-threaded test
//! runner would interleave them.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use swt_tensor::{
    conv1d_backward_ws, conv1d_forward_ws, conv2d_backward_ws, conv2d_forward_ws, matmul_ws,
    parallel, Padding, Rng, Tensor, Workspace,
};

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

/// Warm `step` on `ws`, then pin zero heap allocations on the serial path
/// and zero arena misses on the parallel path. `step` must hand every tensor
/// it gets back to the workspace.
fn assert_warm_hot_loop(what: &str, ws: &mut Workspace, step: impl Fn(&mut Workspace)) {
    // --- Serial path: zero heap allocations once warm. ---
    parallel::set_max_threads(1);
    // Two warm-up passes: kernel detection, obs handle registration and the
    // arena's first-touch allocations all happen here.
    for _ in 0..2 {
        step(ws);
    }
    let before = ALLOCS.load(Ordering::Relaxed);
    for _ in 0..3 {
        step(ws);
    }
    let during = ALLOCS.load(Ordering::Relaxed) - before;
    assert_eq!(during, 0, "warmed serial {what} must not allocate ({during} allocations)");

    // --- Parallel path: scratch buffers never miss the arena once warm. ---
    parallel::set_max_threads(3);
    for _ in 0..2 {
        step(ws);
    }
    let misses_before = ws.alloc_misses();
    for _ in 0..3 {
        step(ws);
    }
    let misses = ws.alloc_misses() - misses_before;
    parallel::set_max_threads(0);
    assert_eq!(misses, 0, "warmed parallel {what} scratch fell through to the allocator");
}

#[test]
fn warmed_gemm_hot_loop_never_allocates() {
    let mut rng = Rng::seed(42);
    // Big enough for the blocked path (> SMALL_FLOPS) and, at n = 512, for
    // parallel dispatch over multiple MC row blocks (> PAR_THRESHOLD).
    let a = Tensor::rand_normal([160, 300], 0.0, 1.0, &mut rng);
    let b = Tensor::rand_normal([300, 512], 0.0, 1.0, &mut rng);
    assert_warm_hot_loop("GEMM", &mut Workspace::new(), |ws| {
        let c = matmul_ws(&a, &b, ws);
        ws.recycle(c);
    });

    // 2048 output pixels × 32 filters = 64 Ki outputs: the forward GEMM
    // dispatches in parallel, and col2im runs parallel over the batch.
    let x = Tensor::rand_normal([8, 16, 16, 8], 0.0, 1.0, &mut rng);
    let k = Tensor::rand_normal([3, 3, 8, 32], 0.0, 0.3, &mut rng);
    let dy = Tensor::rand_normal([8, 16, 16, 32], 0.0, 1.0, &mut rng);
    assert_warm_hot_loop("conv2d", &mut Workspace::new(), |ws| {
        let y = conv2d_forward_ws(&x, &k, Padding::Same, ws);
        ws.recycle(y);
        let (dx, dk) = conv2d_backward_ws(&x, &k, &dy, Padding::Same, ws);
        ws.recycle(dx);
        ws.recycle(dk);
    });

    let x = Tensor::rand_normal([4, 512, 8], 0.0, 1.0, &mut rng);
    let k = Tensor::rand_normal([5, 8, 32], 0.0, 0.3, &mut rng);
    let dy = Tensor::rand_normal([4, 508, 32], 0.0, 1.0, &mut rng);
    assert_warm_hot_loop("conv1d", &mut Workspace::new(), |ws| {
        let y = conv1d_forward_ws(&x, &k, Padding::Valid, ws);
        ws.recycle(y);
        let (dx, dk) = conv1d_backward_ws(&x, &k, &dy, Padding::Valid, ws);
        ws.recycle(dx);
        ws.recycle(dk);
    });
}
