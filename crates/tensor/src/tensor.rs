//! A small dense tensor type sufficient for BNN training.
//!
//! The tensor is row-major over an arbitrary number of dimensions and stores `f32` elements,
//! matching the single-precision reference arithmetic of the paper's PyTorch baseline. The
//! quantized (16-bit / 8-bit) training paths are emulated by rounding values through the fixed
//! point formats in [`crate::quant`] rather than by a separate storage type.

use std::fmt;

/// Errors from tensor shape manipulation and binary operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TensorError {
    /// Two tensors that must share a shape do not.
    ShapeMismatch {
        /// Shape of the left operand.
        left: Vec<usize>,
        /// Shape of the right operand.
        right: Vec<usize>,
    },
    /// A reshape was requested to a shape with a different element count.
    InvalidReshape {
        /// Number of elements in the tensor.
        len: usize,
        /// The requested shape.
        shape: Vec<usize>,
    },
    /// A matrix operation was requested on tensors that are not 2-D or whose inner dimensions
    /// do not agree.
    InvalidMatmul {
        /// Shape of the left operand.
        left: Vec<usize>,
        /// Shape of the right operand.
        right: Vec<usize>,
    },
}

impl fmt::Display for TensorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TensorError::ShapeMismatch { left, right } => {
                write!(f, "tensor shape mismatch: {left:?} vs {right:?}")
            }
            TensorError::InvalidReshape { len, shape } => {
                write!(f, "cannot reshape {len} elements into {shape:?}")
            }
            TensorError::InvalidMatmul { left, right } => {
                write!(f, "invalid matmul operands: {left:?} x {right:?}")
            }
        }
    }
}

impl std::error::Error for TensorError {}

/// A dense, row-major, `f32` tensor.
///
/// # Examples
///
/// ```
/// use bnn_tensor::Tensor;
///
/// let a = Tensor::from_vec(vec![2, 2], vec![1.0, 2.0, 3.0, 4.0])?;
/// let b = Tensor::filled(&[2, 2], 1.0);
/// let sum = a.add(&b)?;
/// assert_eq!(sum.data(), &[2.0, 3.0, 4.0, 5.0]);
/// # Ok::<(), bnn_tensor::TensorError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Tensor {
    shape: Vec<usize>,
    data: Vec<f32>,
}

impl Tensor {
    /// Creates a tensor of zeros with the given shape.
    pub fn zeros(shape: &[usize]) -> Self {
        Self::filled(shape, 0.0)
    }

    /// Creates a tensor filled with `value`.
    pub fn filled(shape: &[usize], value: f32) -> Self {
        let len = shape.iter().product();
        Self { shape: shape.to_vec(), data: vec![value; len] }
    }

    /// Creates a tensor from a flat row-major data vector.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidReshape`] if `data.len()` does not equal the product of
    /// `shape`.
    pub fn from_vec(shape: Vec<usize>, data: Vec<f32>) -> Result<Self, TensorError> {
        let expected: usize = shape.iter().product();
        if data.len() != expected {
            return Err(TensorError::InvalidReshape { len: data.len(), shape });
        }
        Ok(Self { shape, data })
    }

    /// Assembles a tensor from an already-validated shape vector and data buffer — the
    /// recycling constructor used by [`crate::scratch::Scratch`].
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` does not equal the product of `shape` (an internal wiring error;
    /// use [`Tensor::from_vec`] for fallible construction from untrusted sizes).
    pub fn from_parts(shape: Vec<usize>, data: Vec<f32>) -> Self {
        assert_eq!(
            data.len(),
            shape.iter().product::<usize>(),
            "from_parts requires data matching the shape"
        );
        Self { shape, data }
    }

    /// Disassembles the tensor into its shape vector and data buffer (the inverse of
    /// [`Tensor::from_parts`], used to recycle both through a scratch arena).
    pub fn into_parts(self) -> (Vec<usize>, Vec<f32>) {
        (self.shape, self.data)
    }

    /// Appends the raw element bits to `out`, each element as a little-endian `f32` word in
    /// row-major order — the lossless export the checkpoint store serializes parameters
    /// through (`to_bits` round-trips every value, NaN payloads and `−0.0` included).
    pub fn extend_le_bytes(&self, out: &mut Vec<u8>) {
        out.reserve(self.data.len() * 4);
        for v in &self.data {
            out.extend_from_slice(&v.to_bits().to_le_bytes());
        }
    }

    /// Rebuilds a tensor from a shape and the little-endian `f32` bytes produced by
    /// [`Tensor::extend_le_bytes`] — bit-exact (`from_le_bytes(shape, bytes)` reproduces the
    /// exported tensor down to every bit pattern).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidReshape`] if `bytes.len()` is not exactly four times the
    /// product of `shape`.
    pub fn from_le_bytes(shape: Vec<usize>, bytes: &[u8]) -> Result<Self, TensorError> {
        let expected: usize = shape.iter().product();
        if bytes.len() != expected * 4 {
            return Err(TensorError::InvalidReshape { len: bytes.len() / 4, shape });
        }
        let data = bytes
            .chunks_exact(4)
            .map(|c| f32::from_bits(u32::from_le_bytes([c[0], c[1], c[2], c[3]])))
            .collect();
        Ok(Self { shape, data })
    }

    /// The tensor's shape.
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Returns `true` if the tensor has no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable view of the flat row-major data.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the flat row-major data.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the tensor and returns its flat data.
    pub fn into_data(self) -> Vec<f32> {
        self.data
    }

    /// Flat index of a multi-dimensional index.
    ///
    /// # Panics
    ///
    /// Panics if the index rank or any coordinate is out of range.
    pub fn flat_index(&self, index: &[usize]) -> usize {
        assert_eq!(index.len(), self.shape.len(), "index rank mismatch");
        let mut flat = 0usize;
        for (i, (&ix, &dim)) in index.iter().zip(&self.shape).enumerate() {
            assert!(ix < dim, "index {ix} out of range for dim {i} of extent {dim}");
            flat = flat * dim + ix;
        }
        flat
    }

    /// Reads the element at a multi-dimensional index.
    ///
    /// # Panics
    ///
    /// Panics if the index is out of range.
    pub fn at(&self, index: &[usize]) -> f32 {
        self.data[self.flat_index(index)]
    }

    /// Writes the element at a multi-dimensional index.
    ///
    /// # Panics
    ///
    /// Panics if the index is out of range.
    pub fn set(&mut self, index: &[usize], value: f32) {
        let i = self.flat_index(index);
        self.data[i] = value;
    }

    /// Returns a tensor with the same data and a new shape.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidReshape`] if the element counts differ.
    pub fn reshape(&self, shape: &[usize]) -> Result<Self, TensorError> {
        let expected: usize = shape.iter().product();
        if expected != self.len() {
            return Err(TensorError::InvalidReshape { len: self.len(), shape: shape.to_vec() });
        }
        Ok(Self { shape: shape.to_vec(), data: self.data.clone() })
    }

    /// Changes the tensor's shape in place without touching the data, reusing the shape
    /// vector's capacity (the zero-allocation counterpart of [`Tensor::reshape`] for owned
    /// tensors — what the flatten layer uses).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidReshape`] if the element counts differ.
    pub fn reshape_in_place(&mut self, shape: &[usize]) -> Result<(), TensorError> {
        let expected: usize = shape.iter().product();
        if expected != self.len() {
            return Err(TensorError::InvalidReshape { len: self.len(), shape: shape.to_vec() });
        }
        self.shape.clear();
        self.shape.extend_from_slice(shape);
        Ok(())
    }

    /// Applies `f` to every element, producing a new tensor.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Self {
        Self { shape: self.shape.clone(), data: self.data.iter().map(|&x| f(x)).collect() }
    }

    /// Applies `f` to every element in place.
    pub fn map_inplace(&mut self, f: impl Fn(f32) -> f32) {
        for x in &mut self.data {
            *x = f(*x);
        }
    }

    /// Combines two same-shaped tensors elementwise with `f`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the shapes differ.
    pub fn zip_map(&self, other: &Self, f: impl Fn(f32, f32) -> f32) -> Result<Self, TensorError> {
        if self.shape != other.shape {
            return Err(TensorError::ShapeMismatch {
                left: self.shape.clone(),
                right: other.shape.clone(),
            });
        }
        let data = self.data.iter().zip(&other.data).map(|(&a, &b)| f(a, b)).collect();
        Ok(Self { shape: self.shape.clone(), data })
    }

    /// Elementwise sum.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the shapes differ.
    pub fn add(&self, other: &Self) -> Result<Self, TensorError> {
        self.zip_map(other, |a, b| a + b)
    }

    /// Elementwise difference.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the shapes differ.
    pub fn sub(&self, other: &Self) -> Result<Self, TensorError> {
        self.zip_map(other, |a, b| a - b)
    }

    /// Elementwise (Hadamard) product, the `ε ∘ σ` operation of weight sampling.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the shapes differ.
    pub fn hadamard(&self, other: &Self) -> Result<Self, TensorError> {
        self.zip_map(other, |a, b| a * b)
    }

    /// Multiplies every element by a scalar.
    pub fn scale(&self, factor: f32) -> Self {
        self.map(|x| x * factor)
    }

    /// Adds `other * factor` into `self` in place (the SGD update primitive).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the shapes differ.
    pub fn axpy(&mut self, factor: f32, other: &Self) -> Result<(), TensorError> {
        if self.shape != other.shape {
            return Err(TensorError::ShapeMismatch {
                left: self.shape.clone(),
                right: other.shape.clone(),
            });
        }
        for (a, &b) in self.data.iter_mut().zip(&other.data) {
            *a += factor * b;
        }
        Ok(())
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Mean of all elements (0 for an empty tensor).
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f32
        }
    }

    /// Index of the maximum element (ties resolve to the first occurrence).
    ///
    /// # Panics
    ///
    /// Panics if the tensor is empty.
    pub fn argmax(&self) -> usize {
        assert!(!self.data.is_empty(), "argmax of empty tensor");
        let mut best = 0usize;
        for (i, &v) in self.data.iter().enumerate() {
            if v > self.data[best] {
                best = i;
            }
        }
        best
    }

    /// 2-D matrix multiplication: `self` is `[m, k]`, `other` is `[k, n]`, result is `[m, n]`,
    /// computed by the tiered GEMM under the process-default [`crate::KernelConfig`].
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidMatmul`] if either operand is not 2-D or the inner
    /// dimensions disagree.
    pub fn matmul(&self, other: &Self) -> Result<Self, TensorError> {
        if self.shape.len() != 2 || other.shape.len() != 2 || self.shape[1] != other.shape[0] {
            return Err(TensorError::InvalidMatmul {
                left: self.shape.clone(),
                right: other.shape.clone(),
            });
        }
        let (m, k) = (self.shape[0], self.shape[1]);
        let n = other.shape[1];
        let mut out = vec![0.0f32; m * n];
        let cfg = crate::kernels::KernelConfig::default();
        crate::kernels::gemm_accumulate_tiered(cfg, &mut out, &self.data, &other.data, m, k, n);
        Ok(Self { shape: vec![m, n], data: out })
    }

    /// Transpose of a 2-D tensor.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not 2-D.
    pub fn transpose2(&self) -> Self {
        assert_eq!(self.shape.len(), 2, "transpose2 requires a 2-D tensor");
        let (m, n) = (self.shape[0], self.shape[1]);
        let mut data = vec![0.0f32; m * n];
        for i in 0..m {
            for j in 0..n {
                data[j * m + i] = self.data[i * n + j];
            }
        }
        Self { shape: vec![n, m], data }
    }

    /// Squared L2 norm of all elements.
    pub fn squared_norm(&self) -> f32 {
        self.data.iter().map(|&x| x * x).sum()
    }
}

impl fmt::Display for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor{:?} ({} elements)", self.shape, self.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_indexing() {
        let t = Tensor::from_vec(vec![2, 3], (0..6).map(|x| x as f32).collect()).unwrap();
        assert_eq!(t.shape(), &[2, 3]);
        assert_eq!(t.at(&[0, 0]), 0.0);
        assert_eq!(t.at(&[1, 2]), 5.0);
        assert_eq!(t.flat_index(&[1, 1]), 4);
    }

    #[test]
    fn from_vec_rejects_wrong_length() {
        assert!(Tensor::from_vec(vec![2, 2], vec![1.0]).is_err());
    }

    #[test]
    fn le_bytes_round_trip_is_bit_exact() {
        // Include the values a lossy text round-trip would mangle: −0.0, subnormals, NaN.
        let t = Tensor::from_vec(
            vec![2, 3],
            vec![-0.0, f32::NAN, 1.0e-40, f32::MIN_POSITIVE, 0.1, -3.5],
        )
        .unwrap();
        let mut bytes = Vec::new();
        t.extend_le_bytes(&mut bytes);
        assert_eq!(bytes.len(), 6 * 4);
        let back = Tensor::from_le_bytes(vec![2, 3], &bytes).unwrap();
        assert_eq!(back.shape(), t.shape());
        for (a, b) in back.data().iter().zip(t.data()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn from_le_bytes_rejects_mismatched_lengths() {
        assert!(Tensor::from_le_bytes(vec![2], &[0u8; 4]).is_err());
        assert!(Tensor::from_le_bytes(vec![1], &[0u8; 5]).is_err());
        assert!(Tensor::from_le_bytes(vec![0], &[]).is_ok());
    }

    #[test]
    fn set_and_at_round_trip() {
        let mut t = Tensor::zeros(&[3, 3]);
        t.set(&[2, 1], 7.5);
        assert_eq!(t.at(&[2, 1]), 7.5);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn at_panics_out_of_range() {
        let t = Tensor::zeros(&[2, 2]);
        t.at(&[2, 0]);
    }

    #[test]
    fn reshape_preserves_data_and_validates_len() {
        let t = Tensor::from_vec(vec![2, 3], vec![1., 2., 3., 4., 5., 6.]).unwrap();
        let r = t.reshape(&[3, 2]).unwrap();
        assert_eq!(r.data(), t.data());
        assert!(t.reshape(&[4, 2]).is_err());
    }

    #[test]
    fn elementwise_ops() {
        let a = Tensor::from_vec(vec![2, 2], vec![1., 2., 3., 4.]).unwrap();
        let b = Tensor::from_vec(vec![2, 2], vec![4., 3., 2., 1.]).unwrap();
        assert_eq!(a.add(&b).unwrap().data(), &[5., 5., 5., 5.]);
        assert_eq!(a.sub(&b).unwrap().data(), &[-3., -1., 1., 3.]);
        assert_eq!(a.hadamard(&b).unwrap().data(), &[4., 6., 6., 4.]);
        assert_eq!(a.scale(2.0).data(), &[2., 4., 6., 8.]);
        let c = Tensor::zeros(&[3]);
        assert!(a.add(&c).is_err());
    }

    #[test]
    fn axpy_accumulates_scaled_gradient() {
        let mut w = Tensor::filled(&[2], 1.0);
        let g = Tensor::from_vec(vec![2], vec![0.5, -0.5]).unwrap();
        w.axpy(-0.1, &g).unwrap();
        assert!((w.data()[0] - 0.95).abs() < 1e-6);
        assert!((w.data()[1] - 1.05).abs() < 1e-6);
    }

    #[test]
    fn reductions() {
        let t = Tensor::from_vec(vec![4], vec![1., 2., 3., 10.]).unwrap();
        assert_eq!(t.sum(), 16.0);
        assert_eq!(t.mean(), 4.0);
        assert_eq!(t.argmax(), 3);
        assert_eq!(t.squared_norm(), 1.0 + 4.0 + 9.0 + 100.0);
    }

    #[test]
    fn matmul_matches_hand_computation() {
        let a = Tensor::from_vec(vec![2, 3], vec![1., 2., 3., 4., 5., 6.]).unwrap();
        let b = Tensor::from_vec(vec![3, 2], vec![7., 8., 9., 10., 11., 12.]).unwrap();
        let c = a.matmul(&b).unwrap();
        assert_eq!(c.shape(), &[2, 2]);
        assert_eq!(c.data(), &[58., 64., 139., 154.]);
        assert!(a.matmul(&a).is_err());
    }

    #[test]
    fn from_parts_and_into_parts_round_trip() {
        let t = Tensor::from_parts(vec![2, 2], vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(t.shape(), &[2, 2]);
        let (shape, data) = t.into_parts();
        assert_eq!(shape, vec![2, 2]);
        assert_eq!(data, vec![1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    #[should_panic(expected = "from_parts")]
    fn from_parts_rejects_mismatched_sizes() {
        Tensor::from_parts(vec![2, 2], vec![1.0]);
    }

    #[test]
    fn reshape_in_place_keeps_data_and_validates() {
        let mut t = Tensor::from_vec(vec![2, 3], vec![1., 2., 3., 4., 5., 6.]).unwrap();
        t.reshape_in_place(&[6]).unwrap();
        assert_eq!(t.shape(), &[6]);
        assert_eq!(t.data(), &[1., 2., 3., 4., 5., 6.]);
        assert!(t.reshape_in_place(&[4]).is_err());
    }

    #[test]
    fn transpose_is_involutive() {
        let a = Tensor::from_vec(vec![2, 3], vec![1., 2., 3., 4., 5., 6.]).unwrap();
        let tt = a.transpose2().transpose2();
        assert_eq!(tt, a);
        assert_eq!(a.transpose2().at(&[2, 1]), 6.0);
    }

    #[test]
    fn display_mentions_shape() {
        let t = Tensor::zeros(&[2, 2]);
        assert!(format!("{t}").contains("[2, 2]"));
    }
}
