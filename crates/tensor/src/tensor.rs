//! The dense row-major `f32` tensor.

use crate::rng::Rng;
use crate::shape::Shape;

/// A dense, row-major, owned `f32` tensor.
///
/// All model parameters, activations and gradients in this repository are
/// `Tensor`s; the weight-transfer contribution (`swt-core`) copies `data`
/// between tensors whose [`Shape`]s match exactly.
#[derive(Debug, Clone, PartialEq)]
pub struct Tensor {
    shape: Shape,
    data: Vec<f32>,
}

impl Tensor {
    /// Build from a shape and matching element buffer.
    ///
    /// # Panics
    /// Panics if `data.len() != shape.numel()`.
    pub fn from_vec(shape: impl Into<Shape>, data: Vec<f32>) -> Self {
        let shape = shape.into();
        assert_eq!(
            data.len(),
            shape.numel(),
            "data length {} does not fill shape {}",
            data.len(),
            shape
        );
        Tensor { shape, data }
    }

    /// All-zero tensor.
    pub fn zeros(shape: impl Into<Shape>) -> Self {
        let shape = shape.into();
        let n = shape.numel();
        Tensor { shape, data: vec![0.0; n] }
    }

    /// All-one tensor.
    pub fn ones(shape: impl Into<Shape>) -> Self {
        Self::full(shape, 1.0)
    }

    /// Constant-filled tensor.
    pub fn full(shape: impl Into<Shape>, value: f32) -> Self {
        let shape = shape.into();
        let n = shape.numel();
        Tensor { shape, data: vec![value; n] }
    }

    /// I.i.d. uniform samples in `[lo, hi)`.
    pub fn rand_uniform(shape: impl Into<Shape>, lo: f32, hi: f32, rng: &mut Rng) -> Self {
        let shape = shape.into();
        let data = (0..shape.numel()).map(|_| rng.uniform(lo, hi)).collect();
        Tensor { shape, data }
    }

    /// I.i.d. normal samples with the given mean and standard deviation.
    pub fn rand_normal(shape: impl Into<Shape>, mean: f32, std: f32, rng: &mut Rng) -> Self {
        let shape = shape.into();
        let data = (0..shape.numel()).map(|_| rng.normal() * std + mean).collect();
        Tensor { shape, data }
    }

    /// The tensor's shape.
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// Total element count.
    pub fn numel(&self) -> usize {
        self.data.len()
    }

    /// Read-only element buffer (row-major).
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable element buffer (row-major).
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consume into the raw buffer.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Element at a multi-index.
    pub fn at(&self, index: &[usize]) -> f32 {
        self.data[self.shape.offset(index)]
    }

    /// Set element at a multi-index.
    pub fn set(&mut self, index: &[usize], value: f32) {
        let off = self.shape.offset(index);
        self.data[off] = value;
    }

    /// Reinterpret with a new shape of identical element count.
    ///
    /// # Panics
    /// Panics if element counts differ.
    pub fn reshape(self, shape: impl Into<Shape>) -> Self {
        let shape = shape.into();
        assert_eq!(shape.numel(), self.data.len(), "reshape to {} changes numel", shape);
        Tensor { shape, data: self.data }
    }

    /// Elementwise map into a new tensor.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        Tensor { shape: self.shape.clone(), data: self.data.iter().map(|&x| f(x)).collect() }
    }

    /// Elementwise combine with another tensor of identical shape.
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn zip_map(&self, other: &Tensor, f: impl Fn(f32, f32) -> f32) -> Tensor {
        assert_eq!(self.shape, other.shape, "zip_map shape mismatch");
        let data = self.data.iter().zip(&other.data).map(|(&a, &b)| f(a, b)).collect();
        Tensor { shape: self.shape.clone(), data }
    }

    /// In-place `self += alpha * other` (the BLAS axpy), the workhorse of the
    /// optimizer and of gradient accumulation.
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn axpy(&mut self, alpha: f32, other: &Tensor) {
        assert_eq!(self.shape, other.shape, "axpy shape mismatch");
        for (a, &b) in self.data.iter_mut().zip(&other.data) {
            *a += alpha * b;
        }
    }

    /// In-place scale by a constant.
    pub fn scale(&mut self, alpha: f32) {
        for a in &mut self.data {
            *a *= alpha;
        }
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Mean of all elements (0.0 if empty).
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f32
        }
    }

    /// Maximum absolute element (0.0 if empty). Useful for gradient checks.
    pub fn max_abs(&self) -> f32 {
        self.data.iter().fold(0.0f32, |m, &x| m.max(x.abs()))
    }

    /// For a rank-2 tensor: the argmax of each row. Used by the accuracy
    /// metric (predicted class = argmax of logits).
    ///
    /// # Panics
    /// Panics unless rank is 2 with at least one column.
    pub fn row_argmax(&self) -> Vec<usize> {
        assert_eq!(self.shape.rank(), 2, "row_argmax requires rank 2");
        let (rows, cols) = (self.shape.dim(0), self.shape.dim(1));
        assert!(cols > 0);
        (0..rows)
            .map(|r| {
                let row = &self.data[r * cols..(r + 1) * cols];
                let mut best = 0;
                for (i, &x) in row.iter().enumerate() {
                    if x > row[best] {
                        best = i;
                    }
                }
                best
            })
            .collect()
    }

    /// Copy rows `rows` of a rank-2 tensor into a new rank-2 tensor (batch
    /// gather).
    ///
    /// # Panics
    /// Panics unless rank is 2 or any row is out of range.
    pub fn gather_rows(&self, rows: &[usize]) -> Tensor {
        assert_eq!(self.shape.rank(), 2, "gather_rows requires rank 2");
        let cols = self.shape.dim(1);
        let mut data = Vec::with_capacity(rows.len() * cols);
        for &r in rows {
            assert!(r < self.shape.dim(0), "row {r} out of range");
            data.extend_from_slice(&self.data[r * cols..(r + 1) * cols]);
        }
        Tensor::from_vec([rows.len(), cols], data)
    }

    /// Copy the given outermost slices of a tensor of any rank ≥ 1 into a new
    /// tensor (batch gather along axis 0).
    ///
    /// # Panics
    /// Panics on rank 0 or an out-of-range index.
    pub fn gather0(&self, indices: &[usize]) -> Tensor {
        assert!(self.shape.rank() >= 1, "gather0 requires rank >= 1");
        let n = self.shape.dim(0);
        let stride = self.shape.numel() / n.max(1);
        let mut data = Vec::with_capacity(indices.len() * stride);
        for &i in indices {
            assert!(i < n, "index {i} out of range (axis-0 size {n})");
            data.extend_from_slice(&self.data[i * stride..(i + 1) * stride]);
        }
        let mut dims = self.shape.dims().to_vec();
        dims[0] = indices.len();
        Tensor::from_vec(dims, data)
    }

    /// True iff every element differs by at most `tol` from `other`'s.
    pub fn approx_eq(&self, other: &Tensor, tol: f32) -> bool {
        self.shape == other.shape
            && self
                .data
                .iter()
                .zip(&other.data)
                .all(|(&a, &b)| (a - b).abs() <= tol || (a.is_nan() && b.is_nan()))
    }

    /// Transpose a rank-2 tensor.
    ///
    /// # Panics
    /// Panics unless rank is 2.
    pub fn transpose2(&self) -> Tensor {
        assert_eq!(self.shape.rank(), 2, "transpose2 requires rank 2");
        let (rows, cols) = (self.shape.dim(0), self.shape.dim(1));
        let mut out = vec![0.0f32; rows * cols];
        for r in 0..rows {
            for c in 0..cols {
                out[c * rows + r] = self.data[r * cols + c];
            }
        }
        Tensor::from_vec([cols, rows], out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors() {
        assert_eq!(Tensor::zeros([2, 2]).sum(), 0.0);
        assert_eq!(Tensor::ones([2, 2]).sum(), 4.0);
        assert_eq!(Tensor::full([3], 2.5).sum(), 7.5);
        let t = Tensor::from_vec([2, 2], vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(t.at(&[1, 0]), 3.0);
    }

    #[test]
    #[should_panic(expected = "does not fill")]
    fn from_vec_checks_len() {
        Tensor::from_vec([2, 2], vec![1.0]);
    }

    #[test]
    fn set_and_get_round_trip() {
        let mut t = Tensor::zeros([2, 3, 4]);
        t.set(&[1, 2, 3], 9.0);
        assert_eq!(t.at(&[1, 2, 3]), 9.0);
        assert_eq!(t.data()[t.shape().offset(&[1, 2, 3])], 9.0);
    }

    #[test]
    fn reshape_preserves_data() {
        let t = Tensor::from_vec([2, 3], (0..6).map(|x| x as f32).collect());
        let r = t.clone().reshape([3, 2]);
        assert_eq!(r.data(), t.data());
        assert_eq!(r.shape().dims(), &[3, 2]);
    }

    #[test]
    fn axpy_and_scale() {
        let mut a = Tensor::from_vec([3], vec![1.0, 2.0, 3.0]);
        let b = Tensor::from_vec([3], vec![10.0, 20.0, 30.0]);
        a.axpy(0.5, &b);
        assert_eq!(a.data(), &[6.0, 12.0, 18.0]);
        a.scale(2.0);
        assert_eq!(a.data(), &[12.0, 24.0, 36.0]);
    }

    #[test]
    fn row_argmax_breaks_ties_towards_first() {
        let t = Tensor::from_vec([2, 3], vec![0.5, 0.5, 0.1, 0.0, 1.0, 1.0]);
        assert_eq!(t.row_argmax(), vec![0, 1]);
    }

    #[test]
    fn gather_rows_selects() {
        let t = Tensor::from_vec([3, 2], vec![1., 2., 3., 4., 5., 6.]);
        let g = t.gather_rows(&[2, 0]);
        assert_eq!(g.data(), &[5., 6., 1., 2.]);
    }

    #[test]
    fn gather0_works_on_higher_ranks() {
        let t = Tensor::from_vec([3, 2, 2], (0..12).map(|x| x as f32).collect());
        let g = t.gather0(&[2, 2, 0]);
        assert_eq!(g.shape().dims(), &[3, 2, 2]);
        assert_eq!(&g.data()[0..4], &[8., 9., 10., 11.]);
        assert_eq!(&g.data()[8..12], &[0., 1., 2., 3.]);
    }

    #[test]
    fn transpose2_round_trip() {
        let t = Tensor::from_vec([2, 3], (0..6).map(|x| x as f32).collect());
        assert!(t.transpose2().transpose2().approx_eq(&t, 0.0));
        assert_eq!(t.transpose2().at(&[2, 1]), t.at(&[1, 2]));
    }

    #[test]
    fn rand_tensors_are_seed_deterministic() {
        let mut r1 = Rng::seed(4);
        let mut r2 = Rng::seed(4);
        let a = Tensor::rand_normal([4, 4], 0.0, 1.0, &mut r1);
        let b = Tensor::rand_normal([4, 4], 0.0, 1.0, &mut r2);
        assert!(a.approx_eq(&b, 0.0));
    }

    #[test]
    fn map_and_zip_map() {
        let a = Tensor::from_vec([2], vec![1.0, -2.0]);
        let b = Tensor::from_vec([2], vec![3.0, 4.0]);
        assert_eq!(a.map(f32::abs).data(), &[1.0, 2.0]);
        assert_eq!(a.zip_map(&b, |x, y| x * y).data(), &[3.0, -8.0]);
    }
}
