//! Max pooling (2-D NHWC and 1-D NWC) with argmax-routed backward.
//!
//! The paper's Pooling variable nodes choose identity or pooling layers with
//! sizes/strides from 2 to 5. The forward pass records the flat index of each
//! window's maximum so the backward pass routes the gradient to exactly that
//! element (ties resolve to the first maximum, as in TensorFlow). A window
//! with no value above `-inf` (all `-inf` or NaN) keeps its own first
//! element as the argmax, so its gradient stays inside the window.

use crate::tensor::Tensor;

fn pooled_size(s: usize, k: usize, stride: usize) -> usize {
    assert!(stride > 0, "pool stride must be positive");
    assert!(k > 0, "pool size must be positive");
    assert!(s >= k, "pool: input {s} smaller than window {k}");
    (s - k) / stride + 1
}

/// 2-D max pool over `(n, h, w, c)` with a square `k`×`k` window.
///
/// Returns `(output, argmax)` where `argmax[i]` is the flat input index that
/// produced `output.data()[i]`.
pub fn maxpool2d_forward(input: &Tensor, k: usize, stride: usize) -> (Tensor, Vec<u32>) {
    assert_eq!(input.shape().rank(), 4, "maxpool2d input must be NHWC");
    let (n, h, w, c) =
        (input.shape().dim(0), input.shape().dim(1), input.shape().dim(2), input.shape().dim(3));
    let oh = pooled_size(h, k, stride);
    let ow = pooled_size(w, k, stride);
    let mut out = vec![f32::NEG_INFINITY; n * oh * ow * c];
    let mut arg = vec![0u32; n * oh * ow * c];
    let src = input.data();
    for ni in 0..n {
        for oy in 0..oh {
            for ox in 0..ow {
                let base = ((ni * oh + oy) * ow + ox) * c;
                let first = ((ni * h + oy * stride) * w + ox * stride) * c;
                for ci in 0..c {
                    arg[base + ci] = (first + ci) as u32;
                }
                for ky in 0..k {
                    let iy = oy * stride + ky;
                    for kx in 0..k {
                        let ix = ox * stride + kx;
                        let s = ((ni * h + iy) * w + ix) * c;
                        for ci in 0..c {
                            let v = src[s + ci];
                            if v > out[base + ci] {
                                out[base + ci] = v;
                                arg[base + ci] = (s + ci) as u32;
                            }
                        }
                    }
                }
            }
        }
    }
    (Tensor::from_vec([n, oh, ow, c], out), arg)
}

/// Backward 2-D max pool: scatter `dout` to the recorded argmax positions.
pub fn maxpool2d_backward(input_shape: &[usize], dout: &Tensor, argmax: &[u32]) -> Tensor {
    assert_eq!(dout.numel(), argmax.len(), "dout/argmax length mismatch");
    let mut dinput = Tensor::zeros(input_shape.to_vec());
    let dst = dinput.data_mut();
    for (&a, &g) in argmax.iter().zip(dout.data()) {
        dst[a as usize] += g;
    }
    dinput
}

/// 1-D max pool over `(n, w, c)`.
pub fn maxpool1d_forward(input: &Tensor, k: usize, stride: usize) -> (Tensor, Vec<u32>) {
    assert_eq!(input.shape().rank(), 3, "maxpool1d input must be (n, w, c)");
    let (n, w, c) = (input.shape().dim(0), input.shape().dim(1), input.shape().dim(2));
    let ow = pooled_size(w, k, stride);
    let mut out = vec![f32::NEG_INFINITY; n * ow * c];
    let mut arg = vec![0u32; n * ow * c];
    let src = input.data();
    for ni in 0..n {
        for ox in 0..ow {
            let base = (ni * ow + ox) * c;
            let first = (ni * w + ox * stride) * c;
            for ci in 0..c {
                arg[base + ci] = (first + ci) as u32;
            }
            for kx in 0..k {
                let ix = ox * stride + kx;
                let s = (ni * w + ix) * c;
                for ci in 0..c {
                    let v = src[s + ci];
                    if v > out[base + ci] {
                        out[base + ci] = v;
                        arg[base + ci] = (s + ci) as u32;
                    }
                }
            }
        }
    }
    (Tensor::from_vec([n, ow, c], out), arg)
}

/// Backward 1-D max pool.
pub fn maxpool1d_backward(input_shape: &[usize], dout: &Tensor, argmax: &[u32]) -> Tensor {
    maxpool2d_backward(input_shape, dout, argmax)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;

    #[test]
    fn pool2d_known_values() {
        // 1 sample, 4x4, 1 channel.
        #[rustfmt::skip]
        let input = Tensor::from_vec([1, 4, 4, 1], vec![
            1., 2., 3., 4.,
            5., 6., 7., 8.,
            9., 10., 11., 12.,
            13., 14., 15., 16.,
        ]);
        let (out, _) = maxpool2d_forward(&input, 2, 2);
        assert_eq!(out.shape().dims(), &[1, 2, 2, 1]);
        assert_eq!(out.data(), &[6., 8., 14., 16.]);
    }

    #[test]
    fn pool2d_overlapping_stride() {
        #[rustfmt::skip]
        let input = Tensor::from_vec([1, 3, 3, 1], vec![
            1., 2., 3.,
            4., 5., 6.,
            7., 8., 9.,
        ]);
        let (out, _) = maxpool2d_forward(&input, 2, 1);
        assert_eq!(out.shape().dims(), &[1, 2, 2, 1]);
        assert_eq!(out.data(), &[5., 6., 8., 9.]);
    }

    #[test]
    fn pool2d_backward_routes_to_argmax() {
        #[rustfmt::skip]
        let input = Tensor::from_vec([1, 2, 2, 1], vec![
            1., 9.,
            3., 4.,
        ]);
        let (out, arg) = maxpool2d_forward(&input, 2, 2);
        assert_eq!(out.data(), &[9.]);
        let dout = Tensor::from_vec([1, 1, 1, 1], vec![5.0]);
        let dinput = maxpool2d_backward(&[1, 2, 2, 1], &dout, &arg);
        assert_eq!(dinput.data(), &[0., 5., 0., 0.]);
    }

    #[test]
    fn pool2d_gradient_check() {
        let mut rng = Rng::seed(1);
        let input = Tensor::rand_normal([2, 5, 5, 3], 0.0, 1.0, &mut rng);
        let (out, arg) = maxpool2d_forward(&input, 2, 2);
        let dout = Tensor::ones(out.shape().dims().to_vec());
        let dinput = maxpool2d_backward(input.shape().dims(), &dout, &arg);
        let eps = 1e-3f32;
        for idx in (0..input.numel()).step_by(7) {
            let mut plus = input.clone();
            plus.data_mut()[idx] += eps;
            let mut minus = input.clone();
            minus.data_mut()[idx] -= eps;
            let num = (maxpool2d_forward(&plus, 2, 2).0.sum()
                - maxpool2d_forward(&minus, 2, 2).0.sum())
                / (2.0 * eps);
            assert!(
                (num - dinput.data()[idx]).abs() < 1e-2,
                "dinput[{idx}] analytic {} numeric {num}",
                dinput.data()[idx]
            );
        }
    }

    #[test]
    fn pool1d_known_values() {
        let input = Tensor::from_vec([1, 6, 1], vec![3., 1., 4., 1., 5., 9.]);
        let (out, _) = maxpool1d_forward(&input, 2, 2);
        assert_eq!(out.data(), &[3., 4., 9.]);
        let (out3, _) = maxpool1d_forward(&input, 3, 3);
        assert_eq!(out3.data(), &[4., 9.]);
    }

    #[test]
    fn pool1d_multi_channel_independent() {
        // Two channels pooled independently.
        let input = Tensor::from_vec([1, 2, 2], vec![1., 8., 5., 2.]);
        let (out, arg) = maxpool1d_forward(&input, 2, 1);
        assert_eq!(out.data(), &[5., 8.]);
        let dout = Tensor::from_vec([1, 1, 2], vec![1.0, 1.0]);
        let dinput = maxpool1d_backward(&[1, 2, 2], &dout, &arg);
        assert_eq!(dinput.data(), &[0., 1., 1., 0.]);
    }

    /// A window with nothing above `-inf` routes its gradient to its own
    /// first element, not to element 0 of sample 0.
    #[test]
    fn non_finite_window_routes_gradient_inside_the_window() {
        let (ninf, nan) = (f32::NEG_INFINITY, f32::NAN);
        // Two samples of 2x4x1; in sample 1 the left window is all -inf and
        // the right window all NaN.
        #[rustfmt::skip]
        let input = Tensor::from_vec([2, 2, 4, 1], vec![
            1., 2., 3., 4.,
            5., 6., 7., 8.,
            ninf, ninf, nan, nan,
            ninf, ninf, nan, nan,
        ]);
        let (out, arg) = maxpool2d_forward(&input, 2, 2);
        assert_eq!(&out.data()[..2], &[6., 8.]);
        assert_eq!(arg, vec![5, 7, 8, 10]);
        let dout = Tensor::from_vec([2, 1, 2, 1], vec![1., 1., 1., 1.]);
        let dinput = maxpool2d_backward(&[2, 2, 4, 1], &dout, &arg);
        assert_eq!(dinput.data()[0], 0.0, "sample 0 must not collect sample 1's gradient");
        assert_eq!(dinput.data()[8], 1.0);
        assert_eq!(dinput.data()[10], 1.0);

        // 1-D, two channels: channel 0 all -inf in the second window,
        // channel 1 all NaN in both.
        let input = Tensor::from_vec([1, 4, 2], vec![1., nan, 2., nan, ninf, nan, ninf, nan]);
        let (out, arg) = maxpool1d_forward(&input, 2, 2);
        assert_eq!(out.data()[0], 2.0);
        assert_eq!(arg, vec![2, 1, 4, 5]);
    }

    #[test]
    #[should_panic(expected = "smaller than window")]
    fn window_larger_than_input_panics() {
        maxpool1d_forward(&Tensor::zeros([1, 2, 1]), 3, 1);
    }
}
