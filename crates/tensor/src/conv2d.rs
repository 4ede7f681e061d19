//! 2-D convolution (NHWC), forward and backward, lowered to GEMM without an
//! im2col buffer.
//!
//! The CIFAR-like and MNIST-like search spaces stack convolutional variable
//! nodes with `valid`/`same` padding choices (Section VII-A); this module
//! provides the kernel. Stride is fixed at 1 — exactly like the paper's
//! search spaces, where spatial reduction comes from the pooling variable
//! nodes, not from strided convolutions.
//!
//! Logically every product is against the im2col matrix
//! `col (n·oh·ow × kh·kw·c)`: the forward pass is `col · W` and the weight
//! gradient `colᵀ · dOut`. On the blocked GEMM path that matrix is never
//! built: two `PackA` sources write the driver's `MR`-tall packed strips
//! straight from the NHWC input — `PixelRows` (rows = output pixels, for
//! the forward) and `TapRows` (rows = kernel taps, for the weight
//! gradient). Padding taps pack as zeros, exactly the values im2col would
//! have held, and the contraction order is the driver's, so results are
//! bit-identical to the explicit lowering. Small problems and the forced
//! naive reference still materialise `col` (the paths index it directly).
//! The input gradient stays `dCol = dOut · Wᵀ` followed by a `col2im`
//! scatter-add, parallel over the batch.
//!
//! [`crate::conv1d`] runs through the same core as a conv2d with `h = 1`,
//! `kh = 1`. The `_ws` variants draw every scratch buffer from a
//! caller-owned [`Workspace`] so steady-state training allocates nothing.

use crate::matmul::{
    gemm_at_rowmajor, gemm_bt_rowmajor, gemm_implicit, gemm_rowmajor, interleave,
    takes_blocked_path, PackA, MR, ZEROS,
};
use crate::parallel;
use crate::tensor::Tensor;
use crate::workspace::{with_thread_workspace, Workspace};

/// Convolution padding mode, mirroring the Keras/TensorFlow vocabulary used
/// by the paper's search spaces.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Padding {
    /// No padding; output shrinks by `k - 1`.
    Valid,
    /// Zero padding so the output has the input's spatial size (stride 1).
    /// Total padding `k - 1` split TensorFlow-style: `floor` before, `ceil`
    /// after.
    Same,
}

impl Padding {
    /// `(pad_before, pad_after)` for kernel size `k` at stride 1.
    pub fn pads(self, k: usize) -> (usize, usize) {
        match self {
            Padding::Valid => (0, 0),
            Padding::Same => {
                let total = k - 1;
                (total / 2, total - total / 2)
            }
        }
    }

    /// Output spatial size for input size `s` and kernel size `k`.
    pub fn out_size(self, s: usize, k: usize) -> usize {
        match self {
            Padding::Valid => {
                assert!(s >= k, "valid conv: input {s} smaller than kernel {k}");
                s - k + 1
            }
            Padding::Same => s,
        }
    }
}

/// Shape of one stride-1 NHWC convolution: input `(n, h, w, c)`, kernel
/// `(kh, kw, c, f)`, output `(n, oh, ow, f)`, and the leading pads.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ConvGeom {
    pub(crate) n: usize,
    pub(crate) h: usize,
    pub(crate) w: usize,
    pub(crate) c: usize,
    pub(crate) kh: usize,
    pub(crate) kw: usize,
    pub(crate) f: usize,
    pub(crate) oh: usize,
    pub(crate) ow: usize,
    pt: usize,
    pl: usize,
}

impl ConvGeom {
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        n: usize,
        h: usize,
        w: usize,
        c: usize,
        kh: usize,
        kw: usize,
        f: usize,
        padding: Padding,
    ) -> Self {
        let oh = padding.out_size(h, kh);
        let ow = padding.out_size(w, kw);
        let (pt, pl) = (padding.pads(kh).0, padding.pads(kw).0);
        ConvGeom { n, h, w, c, kh, kw, f, oh, ow, pt, pl }
    }

    /// Rows of the logical im2col matrix: output pixels over the batch.
    fn rows(&self) -> usize {
        self.n * self.oh * self.ow
    }

    /// Columns of the logical im2col matrix: kernel taps `(ky, kx, ci)`.
    fn taps(&self) -> usize {
        self.kh * self.kw * self.c
    }

    /// `(sample, oy, ox)` of output pixel `p`.
    #[inline(always)]
    fn pixel(&self, p: usize) -> (usize, usize, usize) {
        let (ni, rem) = (p / (self.oh * self.ow), p % (self.oh * self.ow));
        (ni, rem / self.ow, rem % self.ow)
    }

    /// The input window output pixel `(ni, oy, ox)` reads.
    #[inline(always)]
    fn window(&self, (ni, oy, ox): (usize, usize, usize)) -> Window {
        let (y, x) = (oy.wrapping_sub(self.pt), ox.wrapping_sub(self.pl));
        let base = (ni * self.h).wrapping_add(y).wrapping_mul(self.w).wrapping_add(x);
        Window { y, x, base: base.wrapping_mul(self.c) }
    }

    /// Input offset of channel 0 at window position `(ky, kx)` of `win`, or
    /// `None` where that tap is padding.
    #[inline(always)]
    fn tap(&self, win: Window, ky: usize, kx: usize) -> Option<usize> {
        let inside = win.y.wrapping_add(ky) < self.h && win.x.wrapping_add(kx) < self.w;
        inside.then(|| win.base.wrapping_add((ky * self.w + kx) * self.c))
    }
}

/// Where an output pixel's window sits in the input: the row and column of
/// its `(0, 0)` tap and that tap's channel-0 offset. All three wrap below
/// zero for windows overhanging the top/left padding, so a tap's bounds
/// test is one unsigned compare per axis and its offset one add (exact
/// whenever the tap is inside, by modular arithmetic).
#[derive(Debug, Clone, Copy, Default)]
struct Window {
    y: usize,
    x: usize,
    base: usize,
}

/// The forward operand `col` (rows = output pixels, k = taps), packed
/// straight from the NHWC input.
struct PixelRows<'a> {
    g: ConvGeom,
    input: &'a [f32],
}

impl PackA for PixelRows<'_> {
    fn pack(&self, m0: usize, mc: usize, k0: usize, kc: usize, dst: &mut [f32]) {
        let g = &self.g;
        let strips = dst[..mc.div_ceil(MR) * MR * kc].chunks_exact_mut(MR * kc);
        for (is, strip) in strips.enumerate() {
            let i = m0 + is * MR;
            let rows = MR.min(mc - is * MR);
            let mut wins = [Window::default(); MR];
            for (r, win) in wins[..rows].iter_mut().enumerate() {
                *win = g.window(g.pixel(i + r));
            }
            // Walk the k-range one window position at a time: the taps of
            // one `(ky, kx)` are `c` consecutive input channels.
            let (mut pos, mut ci) = (k0 / g.c, k0 % g.c);
            let mut kk = 0;
            while kk < kc {
                let len = (g.c - ci).min(kc - kk);
                let (ky, kx) = (pos / g.kw, pos % g.kw);
                // Each lane's channel run; padding taps and the lanes past
                // `rows` read zeros.
                let mut runs: [&[f32]; MR] = [&ZEROS[..len]; MR];
                for (run, &win) in runs.iter_mut().zip(&wins[..rows]) {
                    if let Some(s) = g.tap(win, ky, kx) {
                        *run = &self.input[s + ci..s + ci + len];
                    }
                }
                interleave(&runs, &mut strip[kk * MR..(kk + len) * MR]);
                kk += len;
                pos += 1;
                ci = 0;
            }
        }
    }
}

/// The weight-gradient operand `colᵀ` (rows = taps, k = output pixels),
/// packed straight from the NHWC input.
struct TapRows<'a> {
    g: ConvGeom,
    input: &'a [f32],
}

impl PackA for TapRows<'_> {
    fn pack(&self, m0: usize, mc: usize, k0: usize, kc: usize, dst: &mut [f32]) {
        let g = &self.g;
        let strips = dst[..mc.div_ceil(MR) * MR * kc].chunks_exact_mut(MR * kc);
        for (is, strip) in strips.enumerate() {
            let i = m0 + is * MR;
            let rows = MR.min(mc - is * MR);
            // The strip's taps split into runs that share one window
            // position `(ky, kx)`; each run is a contiguous channel range
            // of one input pixel. At most `MR` runs (one per tap at c = 1).
            let mut runs = [(0, 0, 0, 0, 0); MR]; // (lane, ky, kx, ci, len)
            let mut n_runs = 0;
            let mut r = 0;
            while r < rows {
                let (pos, ci) = ((i + r) / g.c, (i + r) % g.c);
                let len = (g.c - ci).min(rows - r);
                runs[n_runs] = (r, pos / g.kw, pos % g.kw, ci, len);
                n_runs += 1;
                r += len;
            }
            let (mut ni, mut oy, mut ox) = g.pixel(k0);
            for d in strip.chunks_exact_mut(MR) {
                let win = g.window((ni, oy, ox));
                for &(lane, ky, kx, ci, len) in &runs[..n_runs] {
                    let out = &mut d[lane..lane + len];
                    match g.tap(win, ky, kx) {
                        // A plain loop: runs are a few channels long at
                        // small `c`, where a `memcpy` call costs more.
                        Some(s) => {
                            for (o, &v) in out.iter_mut().zip(&self.input[s + ci..s + ci + len]) {
                                *o = v;
                            }
                        }
                        None => out.fill(0.0),
                    }
                }
                d[rows..].fill(0.0);
                // Next output pixel, row-major.
                ox += 1;
                if ox == g.ow {
                    (ox, oy) = (0, oy + 1);
                    if oy == g.oh {
                        (oy, ni) = (0, ni + 1);
                    }
                }
            }
        }
    }
}

/// Lower the input into the explicit im2col matrix `(rows, taps)`, parallel
/// over the batch (one sample = one disjoint row range). Only the small and
/// forced-naive GEMM paths need it.
fn im2col(g: &ConvGeom, input: &[f32], ws: &mut Workspace) -> Vec<f32> {
    let taps = g.taps();
    // Zeroed: padding taps are simply never written.
    let mut m = ws.take_zeroed(g.rows() * taps);
    parallel::par_chunks_mut(&mut m, g.oh * g.ow * taps, |ni, chunk| {
        for (row, dst) in chunk.chunks_exact_mut(taps).enumerate() {
            let win = g.window((ni, row / g.ow, row % g.ow));
            for (pos, d) in dst.chunks_exact_mut(g.c).enumerate() {
                if let Some(s) = g.tap(win, pos / g.kw, pos % g.kw) {
                    d.copy_from_slice(&input[s..s + g.c]);
                }
            }
        }
    });
    m
}

/// Scatter-add the im2col-shaped gradient `dcol (rows, taps)` back onto the
/// input layout, parallel over the batch.
fn col2im(g: &ConvGeom, dcol: &[f32], ws: &mut Workspace) -> Vec<f32> {
    let taps = g.taps();
    let mut out = ws.take_zeroed(g.n * g.h * g.w * g.c);
    parallel::par_chunks_mut(&mut out, g.h * g.w * g.c, |ni, dst| {
        let sample = &dcol[ni * g.oh * g.ow * taps..(ni + 1) * g.oh * g.ow * taps];
        for (row, src) in sample.chunks_exact(taps).enumerate() {
            let win = g.window((0, row / g.ow, row % g.ow));
            for (pos, s) in src.chunks_exact(g.c).enumerate() {
                if let Some(d) = g.tap(win, pos / g.kw, pos % g.kw) {
                    for (o, &v) in dst[d..d + g.c].iter_mut().zip(s) {
                        *o += v;
                    }
                }
            }
        }
    });
    out
}

/// Forward convolution: `out (rows, f) = col · W`.
pub(crate) fn forward_core(
    g: &ConvGeom,
    input: &[f32],
    kernel: &[f32],
    ws: &mut Workspace,
) -> Vec<f32> {
    let (rows, taps, f) = (g.rows(), g.taps(), g.f);
    let mut out = ws.take(rows * f);
    if takes_blocked_path(rows, f, taps) {
        gemm_implicit(rows, f, taps, &PixelRows { g: *g, input }, kernel, &mut out, ws);
    } else {
        let col = im2col(g, input, ws);
        gemm_rowmajor(rows, f, taps, &col, kernel, &mut out, ws);
        ws.give(col);
    }
    out
}

/// Backward convolution: `(d_input, d_kernel)` for upstream `dout (rows, f)`,
/// with `dW = colᵀ · dOut` and `d_input = col2im(dOut · Wᵀ)`.
pub(crate) fn backward_core(
    g: &ConvGeom,
    input: &[f32],
    kernel: &[f32],
    dout: &[f32],
    ws: &mut Workspace,
) -> (Vec<f32>, Vec<f32>) {
    let (rows, taps, f) = (g.rows(), g.taps(), g.f);
    let mut dk = ws.take(taps * f);
    if takes_blocked_path(taps, f, rows) {
        gemm_implicit(taps, f, rows, &TapRows { g: *g, input }, dout, &mut dk, ws);
    } else {
        let col = im2col(g, input, ws);
        gemm_at_rowmajor(rows, taps, f, &col, dout, &mut dk, ws);
        ws.give(col);
    }
    let mut dcol = ws.take(rows * taps);
    gemm_bt_rowmajor(rows, taps, f, dout, kernel, &mut dcol, ws);
    let dinput = col2im(g, &dcol, ws);
    ws.give(dcol);
    (dinput, dk)
}

fn check_conv2d(input: &Tensor, kernel: &Tensor, padding: Padding) -> ConvGeom {
    assert_eq!(input.shape().rank(), 4, "conv2d input must be NHWC rank 4");
    assert_eq!(kernel.shape().rank(), 4, "conv2d kernel must be (kh, kw, c, f)");
    let [n, h, w, c] = [0, 1, 2, 3].map(|i| input.shape().dim(i));
    let [kh, kw, kc, f] = [0, 1, 2, 3].map(|i| kernel.shape().dim(i));
    assert_eq!(c, kc, "conv2d channel mismatch: input {c}, kernel {kc}");
    ConvGeom::new(n, h, w, c, kh, kw, f, padding)
}

/// Forward 2-D convolution.
///
/// * `input` — `(n, h, w, c)`
/// * `kernel` — `(kh, kw, c, f)`
///
/// Returns `(n, oh, ow, f)`.
pub fn conv2d_forward(input: &Tensor, kernel: &Tensor, padding: Padding) -> Tensor {
    with_thread_workspace(|ws| conv2d_forward_ws(input, kernel, padding, ws))
}

/// [`conv2d_forward`] with caller-owned scratch (zero steady-state allocs).
pub fn conv2d_forward_ws(
    input: &Tensor,
    kernel: &Tensor,
    padding: Padding,
    ws: &mut Workspace,
) -> Tensor {
    let g = check_conv2d(input, kernel, padding);
    let out = forward_core(&g, input.data(), kernel.data(), ws);
    Tensor::from_vec([g.n, g.oh, g.ow, g.f], out)
}

/// Backward 2-D convolution: given upstream gradient `dout (n, oh, ow, f)`,
/// returns `(d_input, d_kernel)`.
pub fn conv2d_backward(
    input: &Tensor,
    kernel: &Tensor,
    dout: &Tensor,
    padding: Padding,
) -> (Tensor, Tensor) {
    with_thread_workspace(|ws| conv2d_backward_ws(input, kernel, dout, padding, ws))
}

/// [`conv2d_backward`] with caller-owned scratch (zero steady-state allocs).
pub fn conv2d_backward_ws(
    input: &Tensor,
    kernel: &Tensor,
    dout: &Tensor,
    padding: Padding,
    ws: &mut Workspace,
) -> (Tensor, Tensor) {
    let g = check_conv2d(input, kernel, padding);
    assert_eq!(
        dout.shape().dims(),
        &[g.n, g.oh, g.ow, g.f],
        "conv2d_backward: dout shape {} unexpected",
        dout.shape()
    );
    let (dinput, dk) = backward_core(&g, input.data(), kernel.data(), dout.data(), ws);
    (Tensor::from_vec([g.n, g.h, g.w, g.c], dinput), Tensor::from_vec([g.kh, g.kw, g.c, g.f], dk))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matmul::{available_kernels, strided_view, with_kernel, KC, MC};
    use crate::rng::Rng;

    /// `(n, h, w, c, kh, kw, f, padding)` cases for the implicit-vs-explicit
    /// pins: both paddings, even and non-square kernels, `rows % MR != 0`,
    /// `c = 1` (one packing run per tap) and `k·k·c > KC` with `c = 40`, so a
    /// window position's channels straddle K-panel and `MC` block edges.
    type Case = (usize, usize, usize, usize, usize, usize, usize, Padding);
    const CASES: &[Case] = &[
        (2, 9, 7, 3, 3, 3, 16, Padding::Same),
        (2, 9, 7, 3, 3, 3, 24, Padding::Valid),
        (2, 8, 9, 5, 2, 4, 12, Padding::Same),
        (2, 8, 9, 5, 4, 2, 12, Padding::Valid),
        (2, 12, 12, 1, 5, 5, 16, Padding::Same),
        (1, 6, 7, 40, 3, 3, 10, Padding::Same),
        (1, 7, 6, 40, 3, 3, 10, Padding::Valid),
    ];

    fn random_case(
        &(n, h, w, c, kh, kw, f, padding): &Case,
        rng: &mut Rng,
    ) -> (ConvGeom, Tensor, Tensor, Tensor) {
        let g = ConvGeom::new(n, h, w, c, kh, kw, f, padding);
        let input = Tensor::rand_normal([n, h, w, c], 0.0, 1.0, rng);
        let kernel = Tensor::rand_normal([kh, kw, c, f], 0.0, 0.5, rng);
        let dout = Tensor::rand_normal([n, g.oh, g.ow, f], 0.0, 1.0, rng);
        (g, input, kernel, dout)
    }

    fn bits(x: &[f32]) -> Vec<u32> {
        x.iter().map(|v| v.to_bits()).collect()
    }

    /// The lowering as it was before implicit packing: materialise `col`,
    /// then `col · W`, `colᵀ · dOut` and `col2im(dOut · Wᵀ)`.
    fn explicit(
        g: &ConvGeom,
        input: &Tensor,
        kernel: &Tensor,
        dout: &Tensor,
    ) -> (Vec<f32>, Vec<f32>, Vec<f32>) {
        let mut ws = Workspace::new();
        let (rows, taps, f) = (g.rows(), g.taps(), g.f);
        let col = im2col(g, input.data(), &mut ws);
        let mut out = vec![0.0; rows * f];
        gemm_rowmajor(rows, f, taps, &col, kernel.data(), &mut out, &mut ws);
        let mut dk = vec![0.0; taps * f];
        gemm_at_rowmajor(rows, taps, f, &col, dout.data(), &mut dk, &mut ws);
        let mut dcol = vec![0.0; rows * taps];
        gemm_bt_rowmajor(rows, taps, f, dout.data(), kernel.data(), &mut dcol, &mut ws);
        (out, dk, col2im(g, &dcol, &mut ws))
    }

    /// Both implicit sources write exactly the strips the strided packer
    /// writes from the materialised im2col matrix — every lane, padding
    /// included, over garbage-filled (recycled) buffers.
    #[test]
    fn implicit_sources_pack_the_im2col_strips_bitwise() {
        let mut rng = Rng::seed(21);
        for case in CASES {
            let (g, input, _, _) = random_case(case, &mut rng);
            let (rows, taps) = (g.rows(), g.taps());
            let col = im2col(&g, input.data(), &mut Workspace::new());
            let pixels = PixelRows { g, input: input.data() };
            let taps_src = TapRows { g, input: input.data() };
            let col_rows = strided_view(&col, taps, 1);
            let col_taps = strided_view(&col, 1, taps);
            // (source, explicit view, logical m, logical k)
            let pairs: [(&dyn PackA, &dyn PackA, usize, usize); 2] =
                [(&pixels, &col_rows, rows, taps), (&taps_src, &col_taps, taps, rows)];
            for (implicit, view, m, k) in pairs {
                for m0 in (0..m).step_by(MC) {
                    let mc = MC.min(m - m0);
                    for k0 in (0..k).step_by(KC) {
                        let kc = KC.min(k - k0);
                        let len = mc.div_ceil(MR) * MR * kc;
                        let mut want = vec![f32::NAN; len];
                        let mut got = vec![f32::NAN; len];
                        view.pack(m0, mc, k0, kc, &mut want);
                        implicit.pack(m0, mc, k0, kc, &mut got);
                        assert_eq!(bits(&got), bits(&want), "{case:?} m0={m0} k0={k0}");
                    }
                }
            }
        }
    }

    /// Forward, weight gradient and input gradient equal the explicit
    /// im2col + GEMM lowering bit for bit, on every micro-kernel.
    #[test]
    fn implicit_conv2d_matches_explicit_lowering_bitwise_on_every_kernel() {
        let mut rng = Rng::seed(22);
        for case in CASES {
            let (g, input, kernel, dout) = random_case(case, &mut rng);
            assert!(takes_blocked_path(g.rows(), g.f, g.taps()), "{case:?} must run blocked");
            for kind in available_kernels() {
                let (out, dk, dx) = with_kernel(kind, || explicit(&g, &input, &kernel, &dout));
                let mut ws = Workspace::new();
                let (fwd, (dinput, dkernel)) = with_kernel(kind, || {
                    let fwd = conv2d_forward_ws(&input, &kernel, case.7, &mut ws);
                    (fwd, conv2d_backward_ws(&input, &kernel, &dout, case.7, &mut ws))
                });
                assert_eq!(bits(fwd.data()), bits(&out), "forward {case:?} {kind:?}");
                assert_eq!(bits(dkernel.data()), bits(&dk), "dW {case:?} {kind:?}");
                assert_eq!(bits(dinput.data()), bits(&dx), "dX {case:?} {kind:?}");
            }
        }
    }

    /// The same pin on a layer large enough for parallel row-block dispatch
    /// of both implicit GEMMs, serial and with three threads.
    #[test]
    fn implicit_conv2d_matches_explicit_lowering_serial_and_parallel() {
        let mut rng = Rng::seed(23);
        let case = (2, 16, 16, 40, 3, 3, 192, Padding::Same);
        let (g, input, kernel, dout) = random_case(&case, &mut rng);
        // Forward `rows × f` and weight-gradient `taps × f` both clear
        // PAR_THRESHOLD (64 Ki outputs) over more than one MC row block.
        assert!(g.rows() * g.f >= 64 * 1024 && g.taps() * g.f >= 64 * 1024 && g.taps() > MC);
        for kind in available_kernels() {
            for threads in [1, 3] {
                let _budget = parallel::scoped_max_threads(threads);
                let (out, dk, _) = with_kernel(kind, || explicit(&g, &input, &kernel, &dout));
                let mut ws = Workspace::new();
                let (fwd, (_, dkernel)) = with_kernel(kind, || {
                    let fwd = conv2d_forward_ws(&input, &kernel, case.7, &mut ws);
                    (fwd, conv2d_backward_ws(&input, &kernel, &dout, case.7, &mut ws))
                });
                assert_eq!(bits(fwd.data()), bits(&out), "forward {kind:?} threads={threads}");
                assert_eq!(bits(dkernel.data()), bits(&dk), "dW {kind:?} threads={threads}");
            }
        }
    }

    /// Direct (quadruple-loop) reference convolution.
    fn naive_conv2d(input: &Tensor, kernel: &Tensor, padding: Padding) -> Tensor {
        let (n, h, w, c) = (
            input.shape().dim(0),
            input.shape().dim(1),
            input.shape().dim(2),
            input.shape().dim(3),
        );
        let (kh, kw, _, f) = (
            kernel.shape().dim(0),
            kernel.shape().dim(1),
            kernel.shape().dim(2),
            kernel.shape().dim(3),
        );
        let oh = padding.out_size(h, kh);
        let ow = padding.out_size(w, kw);
        let (pt, _) = padding.pads(kh);
        let (pl, _) = padding.pads(kw);
        let mut out = Tensor::zeros([n, oh, ow, f]);
        for ni in 0..n {
            for oy in 0..oh {
                for ox in 0..ow {
                    for fi in 0..f {
                        let mut acc = 0.0;
                        for ky in 0..kh {
                            for kx in 0..kw {
                                let iy = oy as isize + ky as isize - pt as isize;
                                let ix = ox as isize + kx as isize - pl as isize;
                                if iy < 0 || ix < 0 || iy >= h as isize || ix >= w as isize {
                                    continue;
                                }
                                for ci in 0..c {
                                    acc += input.at(&[ni, iy as usize, ix as usize, ci])
                                        * kernel.at(&[ky, kx, ci, fi]);
                                }
                            }
                        }
                        out.set(&[ni, oy, ox, fi], acc);
                    }
                }
            }
        }
        out
    }

    #[test]
    fn valid_output_shape() {
        let input = Tensor::zeros([2, 8, 8, 3]);
        let kernel = Tensor::zeros([3, 3, 3, 16]);
        let out = conv2d_forward(&input, &kernel, Padding::Valid);
        assert_eq!(out.shape().dims(), &[2, 6, 6, 16]);
    }

    #[test]
    fn same_output_shape_even_kernel() {
        let input = Tensor::zeros([1, 7, 7, 2]);
        let kernel = Tensor::zeros([4, 2, 2, 5]);
        let out = conv2d_forward(&input, &kernel, Padding::Same);
        assert_eq!(out.shape().dims(), &[1, 7, 7, 5]);
    }

    #[test]
    fn forward_matches_naive() {
        let mut rng = Rng::seed(1);
        for &padding in &[Padding::Valid, Padding::Same] {
            for &(h, w, c, kh, kw, f) in
                &[(5, 5, 1, 3, 3, 2), (6, 4, 3, 2, 3, 4), (4, 4, 2, 1, 1, 3)]
            {
                let input = Tensor::rand_normal([2, h, w, c], 0.0, 1.0, &mut rng);
                let kernel = Tensor::rand_normal([kh, kw, c, f], 0.0, 1.0, &mut rng);
                let fast = conv2d_forward(&input, &kernel, padding);
                let slow = naive_conv2d(&input, &kernel, padding);
                assert!(
                    fast.approx_eq(&slow, 1e-4),
                    "padding {padding:?} ({h},{w},{c},{kh},{kw},{f})"
                );
            }
        }
    }

    #[test]
    fn forward_matches_naive_at_gemm_blocking_sizes() {
        // Big enough that the blocked GEMM path (not the small-size fallback)
        // carries the im2col product.
        let mut rng = Rng::seed(4);
        let input = Tensor::rand_normal([2, 12, 12, 8], 0.0, 1.0, &mut rng);
        let kernel = Tensor::rand_normal([3, 3, 8, 24], 0.0, 0.3, &mut rng);
        let fast = conv2d_forward(&input, &kernel, Padding::Same);
        let slow = naive_conv2d(&input, &kernel, Padding::Same);
        assert!(fast.approx_eq(&slow, 1e-3));
    }

    #[test]
    fn ws_variant_matches_and_reuses() {
        let mut rng = Rng::seed(5);
        let mut ws = Workspace::new();
        let input = Tensor::rand_normal([2, 6, 6, 3], 0.0, 1.0, &mut rng);
        let kernel = Tensor::rand_normal([3, 3, 3, 4], 0.0, 1.0, &mut rng);
        let base = conv2d_forward(&input, &kernel, Padding::Same);
        for _ in 0..3 {
            let out = conv2d_forward_ws(&input, &kernel, Padding::Same, &mut ws);
            assert!(out.approx_eq(&base, 1e-6));
            ws.recycle(out);
        }
    }

    #[test]
    fn identity_kernel_passes_through() {
        // 1x1 kernel = identity over channels when kernel is the identity matrix.
        let mut rng = Rng::seed(2);
        let input = Tensor::rand_normal([1, 3, 3, 2], 0.0, 1.0, &mut rng);
        let mut kernel = Tensor::zeros([1, 1, 2, 2]);
        kernel.set(&[0, 0, 0, 0], 1.0);
        kernel.set(&[0, 0, 1, 1], 1.0);
        let out = conv2d_forward(&input, &kernel, Padding::Valid);
        assert!(out.approx_eq(&input, 1e-6));
    }

    /// Central-difference gradient check of both input and kernel gradients.
    #[test]
    fn backward_matches_numerical_gradient() {
        let mut rng = Rng::seed(3);
        for &padding in &[Padding::Valid, Padding::Same] {
            let input = Tensor::rand_normal([1, 4, 4, 2], 0.0, 1.0, &mut rng);
            let kernel = Tensor::rand_normal([3, 3, 2, 2], 0.0, 0.5, &mut rng);
            // Loss = sum of conv output elements -> dout = ones.
            let out = conv2d_forward(&input, &kernel, padding);
            let dout = Tensor::ones(out.shape().dims().to_vec());
            let (dinput, dkernel) = conv2d_backward(&input, &kernel, &dout, padding);

            let eps = 1e-2f32;
            for probe in 0..6 {
                // Probe input gradient.
                let idx = probe * 3 % input.numel();
                let mut plus = input.clone();
                plus.data_mut()[idx] += eps;
                let mut minus = input.clone();
                minus.data_mut()[idx] -= eps;
                let num = (conv2d_forward(&plus, &kernel, padding).sum()
                    - conv2d_forward(&minus, &kernel, padding).sum())
                    / (2.0 * eps);
                assert!(
                    (num - dinput.data()[idx]).abs() < 1e-2,
                    "dinput[{idx}] analytic {} vs numeric {num} ({padding:?})",
                    dinput.data()[idx]
                );
                // Probe kernel gradient.
                let kidx = probe * 5 % kernel.numel();
                let mut kplus = kernel.clone();
                kplus.data_mut()[kidx] += eps;
                let mut kminus = kernel.clone();
                kminus.data_mut()[kidx] -= eps;
                let num = (conv2d_forward(&input, &kplus, padding).sum()
                    - conv2d_forward(&input, &kminus, padding).sum())
                    / (2.0 * eps);
                assert!(
                    (num - dkernel.data()[kidx]).abs() < 1e-2,
                    "dkernel[{kidx}] analytic {} vs numeric {num} ({padding:?})",
                    dkernel.data()[kidx]
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "channel mismatch")]
    fn channel_mismatch_panics() {
        let input = Tensor::zeros([1, 4, 4, 3]);
        let kernel = Tensor::zeros([3, 3, 2, 8]);
        conv2d_forward(&input, &kernel, Padding::Valid);
    }

    #[test]
    #[should_panic(expected = "smaller than kernel")]
    fn valid_too_small_panics() {
        let input = Tensor::zeros([1, 2, 2, 1]);
        let kernel = Tensor::zeros([3, 3, 1, 1]);
        conv2d_forward(&input, &kernel, Padding::Valid);
    }
}
