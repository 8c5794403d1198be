//! Bayesian and auxiliary layers.
//!
//! Every layer implements [`Layer`]. Bayesian layers ([`BayesLinear`], [`BayesConv2d`]) sample
//! their weights from `(μ, σ)` with ε drawn from an [`EpsilonSource`] during the forward stage,
//! and *reconstruct* the same weights during the backward stage by asking the source for the same
//! ε block again — exactly the paper's process ② — rather than caching the sampled weights.
//! Auxiliary layers (ReLU, max-pooling, flatten) carry no parameters.
//!
//! Layers move tensors **by value** and draw every temporary from the per-worker
//! [`Scratch`] arena: activations flow down the stack without cloning, consumed inputs are
//! cached for the backward stage (replacing — and recycling — whatever the previous iteration
//! left), and gradients travel back the same way. After a warmup iteration has grown the
//! arena, a steady-state forward+backward pass performs **zero heap allocations** (asserted by
//! the allocation-counting test in `crates/bench`).

use crate::epsilon::EpsilonSource;
use crate::snapshot::LayerSnapshot;
use crate::variational::{BayesConfig, VariationalParams};
use bnn_tensor::activation::{relu_backward_into, relu_into};
use bnn_tensor::conv::ConvGeometry;
use bnn_tensor::kernels::{
    conv2d_backward_input_into, conv2d_backward_weights_into, conv2d_forward_into,
    gemm_accumulate_tiered,
};
use bnn_tensor::pool::{max_pool2d_backward_into, max_pool2d_into};
use bnn_tensor::{Scratch, Tensor, TensorError};
use rand::Rng;

/// A network layer processing one sampled model at a time.
///
/// The trainer drives layers through three phases per iteration:
///
/// 1. [`begin_iteration`](Layer::begin_iteration) with the number of Monte-Carlo samples `S`;
/// 2. for each sample `s`: [`forward`](Layer::forward) through all layers, then
///    [`backward`](Layer::backward) through all layers in reverse;
/// 3. [`apply_update`](Layer::apply_update) once.
///
/// Inputs and upstream gradients are consumed by value; every intermediate buffer comes from
/// (and returns to) the caller's [`Scratch`] arena.
pub trait Layer {
    /// Forward pass for sample `s`, consuming the input activation.
    ///
    /// # Errors
    ///
    /// Returns a [`TensorError`] if the input shape does not match the layer.
    fn forward(
        &mut self,
        sample: usize,
        input: Tensor,
        eps: &mut dyn EpsilonSource,
        scratch: &mut Scratch,
    ) -> Result<Tensor, TensorError>;

    /// Backward pass for sample `s`, consuming the gradient w.r.t. this layer's output and
    /// returning the gradient w.r.t. its input.
    ///
    /// # Errors
    ///
    /// Returns a [`TensorError`] if the gradient shape does not match the layer.
    fn backward(
        &mut self,
        sample: usize,
        grad_output: Tensor,
        eps: &mut dyn EpsilonSource,
        scratch: &mut Scratch,
    ) -> Result<Tensor, TensorError>;

    /// Inference-only forward pass of **all** `samples` sampled models over a
    /// sample-stacked activation (the fused-sampling path). `stacked` holds the per-sample
    /// activations sample-major: rank-2 `[S, F]` for vectors, rank-3 `[S·C, H, W]` for
    /// feature maps, so a flatten is a pure reshape and per-channel ops act per-sample for
    /// free.
    ///
    /// The contract is bit-exactness with the per-sample [`Layer::forward`] walk: one
    /// `forward_all` call must produce exactly the stacked concatenation of `samples`
    /// individual `forward` calls — same ε draws from `sources[s]`, same per-scalar
    /// accumulation orders. It skips backward-only work (input caches, complexity
    /// accumulation), which makes fused serving *faster*, never *different* (pinned by
    /// `bnn-serve`'s fused-identity tests), and leaves nothing behind for a backward pass.
    ///
    /// # Errors
    ///
    /// Returns a [`TensorError`] if the stacked shape does not match the layer.
    fn forward_all(
        &mut self,
        stacked: Tensor,
        samples: usize,
        sources: &mut [Box<dyn EpsilonSource>],
        scratch: &mut Scratch,
    ) -> Result<Tensor, TensorError>;

    /// Prepares per-sample caches for an iteration of `samples` Monte-Carlo samples,
    /// recycling whatever the previous iteration left cached (so forward-only iterations
    /// return their activations to the arena, and a backward pass without a matching forward
    /// still fails loudly instead of consuming stale state).
    fn begin_iteration(&mut self, samples: usize, scratch: &mut Scratch);

    /// Applies the accumulated parameter updates (averaged over the iteration's samples).
    fn apply_update(&mut self, learning_rate: f32);

    /// Number of ε values this layer draws per sample (0 for non-Bayesian layers).
    fn epsilon_count(&self) -> usize {
        0
    }

    /// Number of trainable scalar parameters (counting μ and ρ separately).
    fn parameter_count(&self) -> usize {
        0
    }

    /// Complexity loss `Σ[log q − log P]` accumulated across the samples of the current
    /// iteration (0 for non-Bayesian layers).
    fn complexity_loss(&self) -> f32 {
        0.0
    }

    /// A short human-readable layer name for reports.
    fn name(&self) -> &'static str;

    /// Captures the layer's complete trainable state as a [`LayerSnapshot`] — parameters,
    /// gradient accumulators and geometry, but **not** the per-sample activation caches
    /// (snapshots are taken at iteration boundaries, where those are empty). The snapshot
    /// rebuilds an identical layer via [`LayerSnapshot::build`].
    fn snapshot(&self) -> LayerSnapshot;
}

/// Empties a per-sample tensor cache, returning every cached buffer to the arena (what
/// `begin_iteration` does with the previous iteration's leftovers).
fn recycle_tensor_cache(slots: &mut [Option<Tensor>], scratch: &mut Scratch) {
    for slot in slots {
        if let Some(stale) = slot.take() {
            scratch.put_tensor(stale);
        }
    }
}

/// Caches `value` for `sample`, recycling whatever a previous iteration left in the slot.
fn cache_tensor(slots: &mut [Option<Tensor>], sample: usize, value: Tensor, scratch: &mut Scratch) {
    if let Some(old) = slots[sample].replace(value) {
        scratch.put_tensor(old);
    }
}

/// Grows a per-sample cache without reallocating in the steady state (never shrinks, so an
/// oscillating sample count cannot thrash the `Vec`; callers empty the slots — recycling
/// their buffers — before resizing).
fn resize_cache<T>(slots: &mut Vec<Option<T>>, samples: usize) {
    if slots.len() < samples {
        slots.resize_with(samples, || None);
    }
}

/// A Bayesian fully-connected layer: `output = W·input + b` with `W` sampled per Monte-Carlo
/// sample.
#[derive(Debug)]
pub struct BayesLinear {
    in_features: usize,
    out_features: usize,
    weights: VariationalParams,
    bias: Tensor,
    grad_bias: Tensor,
    config: BayesConfig,
    samples: usize,
    cached_inputs: Vec<Option<Tensor>>,
    accumulated_complexity: f32,
}

impl BayesLinear {
    /// Creates a Bayesian linear layer with Xavier-initialized means.
    pub fn new(
        in_features: usize,
        out_features: usize,
        config: BayesConfig,
        rng: &mut impl Rng,
    ) -> Self {
        let weights = VariationalParams::init(&[out_features, in_features], &config, rng);
        Self {
            in_features,
            out_features,
            weights,
            bias: Tensor::zeros(&[out_features]),
            grad_bias: Tensor::zeros(&[out_features]),
            config,
            samples: 1,
            cached_inputs: Vec::new(),
            accumulated_complexity: 0.0,
        }
    }

    /// Reassembles a layer from captured parameters (the checkpoint-restore constructor,
    /// bit-exact — nothing is re-initialized or recomputed).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when the weight shape is not
    /// `[out_features, in_features]` or the bias shapes are not `[out_features]`.
    pub fn from_parts(
        in_features: usize,
        out_features: usize,
        weights: VariationalParams,
        bias: Tensor,
        grad_bias: Tensor,
        config: BayesConfig,
    ) -> Result<Self, TensorError> {
        if weights.shape() != [out_features, in_features] {
            return Err(TensorError::ShapeMismatch {
                left: weights.shape().to_vec(),
                right: vec![out_features, in_features],
            });
        }
        if bias.shape() != [out_features] || grad_bias.shape() != [out_features] {
            return Err(TensorError::ShapeMismatch {
                left: bias.shape().to_vec(),
                right: vec![out_features],
            });
        }
        Ok(Self {
            in_features,
            out_features,
            weights,
            bias,
            grad_bias,
            config,
            samples: 1,
            cached_inputs: Vec::new(),
            accumulated_complexity: 0.0,
        })
    }

    /// The layer's variational parameters (exposed for inspection and tests).
    pub fn weights(&self) -> &VariationalParams {
        &self.weights
    }

    /// The layer's bias vector.
    pub fn bias(&self) -> &Tensor {
        &self.bias
    }

    /// Input feature count.
    pub fn in_features(&self) -> usize {
        self.in_features
    }

    /// Output feature count.
    pub fn out_features(&self) -> usize {
        self.out_features
    }

    /// Samples this layer's weights for the current ε block into a scratch tensor.
    fn sample_weights(&self, epsilon: &[f32], scratch: &mut Scratch) -> Tensor {
        let mut w = scratch.take_tensor(self.weights.shape());
        self.weights.sample_into(epsilon, self.config.precision, &mut w);
        w
    }

    /// Finishes one sample's `W·x` row in place: adds the bias after the whole sum, then
    /// quantizes to the layer's precision.
    fn add_bias_quantized(&self, row: &mut [f32]) {
        for (v, &b) in row.iter_mut().zip(self.bias.data()) {
            *v = self.config.precision.quantize(*v + b);
        }
    }
}

impl Layer for BayesLinear {
    fn forward(
        &mut self,
        sample: usize,
        input: Tensor,
        eps: &mut dyn EpsilonSource,
        scratch: &mut Scratch,
    ) -> Result<Tensor, TensorError> {
        if input.len() != self.in_features {
            return Err(TensorError::InvalidReshape {
                len: input.len(),
                shape: vec![self.in_features],
            });
        }
        let mut epsilon = scratch.take_f32(self.weights.len());
        eps.generate_block_into(&mut epsilon);
        let w = self.sample_weights(&epsilon, scratch);
        self.accumulated_complexity += self.config.kl_weight
            * self.weights.complexity_loss(&w, &epsilon, self.config.prior_sigma);

        // out = W·x + b, quantized: the n = 1 GEMM into the zeroed output adds each row's
        // terms in ascending input order, then the bias lands once, after the sum.
        let mut out = scratch.take_tensor(&[self.out_features]);
        let (outf, inf, cfg) = (self.out_features, self.in_features, scratch.kernel());
        gemm_accumulate_tiered(cfg, out.data_mut(), w.data(), input.data(), outf, inf, 1);
        self.add_bias_quantized(out.data_mut());

        scratch.put_tensor(w);
        scratch.put_f32(epsilon);
        cache_tensor(&mut self.cached_inputs, sample, input, scratch);
        Ok(out)
    }

    /// Fused evaluation: every sample's matvec runs as a row product. Per sample the layer
    /// draws ε and samples `w_s` exactly as [`Layer::forward`] does, packs the weights
    /// *transposed* (`wt[i][o] = w_s[o][i]`) and runs the `m = 1` GEMM `x_sᵀ·w_sᵀ`, whose
    /// rank-1 row updates add each output scalar's terms in precisely the per-sample `n = 1`
    /// product's ascending-`i` order, so the stacked result is bit-identical (pinned by the
    /// kernel-tier proptests and the serve identity tests). The complexity loss (one `ln`
    /// per weight) and the input cache are skipped.
    fn forward_all(
        &mut self,
        stacked: Tensor,
        samples: usize,
        sources: &mut [Box<dyn EpsilonSource>],
        scratch: &mut Scratch,
    ) -> Result<Tensor, TensorError> {
        if stacked.len() != samples * self.in_features {
            return Err(TensorError::InvalidReshape {
                len: stacked.len(),
                shape: vec![samples, self.in_features],
            });
        }
        let (inf, outf) = (self.in_features, self.out_features);
        let mut epsilon = scratch.take_f32(self.weights.len());
        let mut w = scratch.take_tensor(self.weights.shape());
        let mut wt = scratch.take_f32(inf * outf);
        let mut out = scratch.take_tensor(&[samples, outf]);
        for (s, source) in sources.iter_mut().take(samples).enumerate() {
            source.generate_block_into(&mut epsilon);
            self.weights.sample_into(&epsilon, self.config.precision, &mut w);
            for (o, wrow) in w.data().chunks_exact(inf).enumerate() {
                for (i, &wv) in wrow.iter().enumerate() {
                    wt[i * outf + o] = wv;
                }
            }
            let row = &mut out.data_mut()[s * outf..(s + 1) * outf];
            let x = &stacked.data()[s * inf..(s + 1) * inf];
            gemm_accumulate_tiered(scratch.kernel(), row, x, &wt, 1, inf, outf);
            self.add_bias_quantized(row);
        }

        scratch.put_f32(wt);
        scratch.put_tensor(w);
        scratch.put_f32(epsilon);
        scratch.put_tensor(stacked);
        Ok(out)
    }

    fn backward(
        &mut self,
        sample: usize,
        grad_output: Tensor,
        eps: &mut dyn EpsilonSource,
        scratch: &mut Scratch,
    ) -> Result<Tensor, TensorError> {
        if grad_output.len() != self.out_features {
            return Err(TensorError::InvalidReshape {
                len: grad_output.len(),
                shape: vec![self.out_features],
            });
        }
        let input = self.cached_inputs[sample]
            .take()
            .expect("backward called for a sample without a cached forward");
        // Reconstruct the sampled weights from the retrieved ε (process ② of the paper).
        let mut epsilon = scratch.take_f32(self.weights.len());
        eps.retrieve_block_into(&mut epsilon);
        let w = self.sample_weights(&epsilon, scratch);

        // Gradient w.r.t. the input: Wᵀ·g computed as the row product gᵀ·W, without
        // materializing Wᵀ; each input scalar adds its terms in ascending output order.
        let (outf, inf) = (self.out_features, self.in_features);
        let cfg = scratch.kernel();
        let g = grad_output.data();
        let mut grad_input = scratch.take_tensor(&[inf]);
        gemm_accumulate_tiered(cfg, grad_input.data_mut(), g, w.data(), 1, outf, inf);

        // Likelihood gradient w.r.t. the weights: the k = 1 product g ⊗ x into the zeroed
        // buffer (an exact zero's sign may differ from g·x; the +0.0-seeded gradient
        // accumulators absorb it).
        let mut grad_w = scratch.take_tensor(self.weights.shape());
        gemm_accumulate_tiered(cfg, grad_w.data_mut(), g, input.data(), outf, 1, inf);
        self.weights.accumulate_gradients(&grad_w, &w, &epsilon, &self.config);
        for (gb, &g) in self.grad_bias.data_mut().iter_mut().zip(grad_output.data()) {
            *gb += g;
        }

        scratch.put_tensor(grad_w);
        scratch.put_tensor(w);
        scratch.put_f32(epsilon);
        scratch.put_tensor(input);
        scratch.put_tensor(grad_output);
        Ok(grad_input)
    }

    fn begin_iteration(&mut self, samples: usize, scratch: &mut Scratch) {
        self.samples = samples.max(1);
        recycle_tensor_cache(&mut self.cached_inputs, scratch);
        resize_cache(&mut self.cached_inputs, self.samples);
        self.accumulated_complexity = 0.0;
    }

    fn apply_update(&mut self, learning_rate: f32) {
        self.weights.sgd_step(learning_rate, self.samples);
        let scale = -learning_rate / self.samples as f32;
        self.bias.axpy(scale, &self.grad_bias).expect("bias gradient matches bias shape");
        self.grad_bias.map_inplace(|_| 0.0);
    }

    fn epsilon_count(&self) -> usize {
        self.weights.len()
    }

    fn parameter_count(&self) -> usize {
        2 * self.weights.len() + self.bias.len()
    }

    fn complexity_loss(&self) -> f32 {
        self.accumulated_complexity
    }

    fn name(&self) -> &'static str {
        "bayes_linear"
    }

    fn snapshot(&self) -> LayerSnapshot {
        LayerSnapshot::Linear {
            in_features: self.in_features,
            out_features: self.out_features,
            weights: self.weights.clone(),
            bias: self.bias.clone(),
            grad_bias: self.grad_bias.clone(),
        }
    }
}

/// A Bayesian 2-D convolution layer with per-sample weight sampling, running on the packed
/// im2col+GEMM kernels of [`bnn_tensor::kernels`].
#[derive(Debug)]
pub struct BayesConv2d {
    geometry: ConvGeometry,
    weights: VariationalParams,
    bias: Tensor,
    grad_bias: Tensor,
    config: BayesConfig,
    samples: usize,
    cached_inputs: Vec<Option<Tensor>>,
    accumulated_complexity: f32,
}

impl BayesConv2d {
    /// Creates a Bayesian convolution layer with Xavier-initialized means.
    pub fn new(geometry: ConvGeometry, config: BayesConfig, rng: &mut impl Rng) -> Self {
        let shape = [geometry.out_channels, geometry.in_channels, geometry.kernel, geometry.kernel];
        let weights = VariationalParams::init(&shape, &config, rng);
        Self {
            geometry,
            weights,
            bias: Tensor::zeros(&[geometry.out_channels]),
            grad_bias: Tensor::zeros(&[geometry.out_channels]),
            config,
            samples: 1,
            cached_inputs: Vec::new(),
            accumulated_complexity: 0.0,
        }
    }

    /// Reassembles a layer from captured parameters (the checkpoint-restore constructor,
    /// bit-exact — nothing is re-initialized or recomputed).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when the weight shape does not match the
    /// geometry or the bias shapes are not `[out_channels]`.
    pub fn from_parts(
        geometry: ConvGeometry,
        weights: VariationalParams,
        bias: Tensor,
        grad_bias: Tensor,
        config: BayesConfig,
    ) -> Result<Self, TensorError> {
        let expect =
            [geometry.out_channels, geometry.in_channels, geometry.kernel, geometry.kernel];
        if weights.shape() != expect {
            return Err(TensorError::ShapeMismatch {
                left: weights.shape().to_vec(),
                right: expect.to_vec(),
            });
        }
        if bias.shape() != [geometry.out_channels] || grad_bias.shape() != [geometry.out_channels] {
            return Err(TensorError::ShapeMismatch {
                left: bias.shape().to_vec(),
                right: vec![geometry.out_channels],
            });
        }
        Ok(Self {
            geometry,
            weights,
            bias,
            grad_bias,
            config,
            samples: 1,
            cached_inputs: Vec::new(),
            accumulated_complexity: 0.0,
        })
    }

    /// The convolution geometry.
    pub fn geometry(&self) -> &ConvGeometry {
        &self.geometry
    }

    /// The layer's variational parameters.
    pub fn weights(&self) -> &VariationalParams {
        &self.weights
    }

    /// The layer's bias vector.
    pub fn bias(&self) -> &Tensor {
        &self.bias
    }

    fn sample_weights(&self, epsilon: &[f32], scratch: &mut Scratch) -> Tensor {
        let mut w = scratch.take_tensor(self.weights.shape());
        self.weights.sample_into(epsilon, self.config.precision, &mut w);
        w
    }
}

impl Layer for BayesConv2d {
    fn forward(
        &mut self,
        sample: usize,
        input: Tensor,
        eps: &mut dyn EpsilonSource,
        scratch: &mut Scratch,
    ) -> Result<Tensor, TensorError> {
        let in_shape = input.shape();
        if in_shape.len() != 3 || in_shape[0] != self.geometry.in_channels {
            return Err(TensorError::ShapeMismatch {
                left: in_shape.to_vec(),
                right: vec![self.geometry.in_channels, 0, 0],
            });
        }
        let (oh, ow) = self.geometry.output_size(in_shape[1], in_shape[2]);

        let mut epsilon = scratch.take_f32(self.weights.len());
        eps.generate_block_into(&mut epsilon);
        let w = self.sample_weights(&epsilon, scratch);
        self.accumulated_complexity += self.config.kl_weight
            * self.weights.complexity_loss(&w, &epsilon, self.config.prior_sigma);

        let mut out = scratch.take_tensor(&[self.geometry.out_channels, oh, ow]);
        conv2d_forward_into(&self.geometry, &input, &w, &self.bias, &mut out, scratch)?;
        self.config.precision.quantize_tensor_inplace(&mut out);

        scratch.put_tensor(w);
        scratch.put_f32(epsilon);
        cache_tensor(&mut self.cached_inputs, sample, input, scratch);
        Ok(out)
    }

    /// Fused evaluation: the convolution itself stays per-sample (each sample owns a full
    /// im2col+GEMM pass over its own sampled kernel), but the complexity loss (one `ln` per
    /// weight) and the input cache are skipped.
    fn forward_all(
        &mut self,
        stacked: Tensor,
        samples: usize,
        sources: &mut [Box<dyn EpsilonSource>],
        scratch: &mut Scratch,
    ) -> Result<Tensor, TensorError> {
        let sh = stacked.shape();
        let cin = self.geometry.in_channels;
        let cout = self.geometry.out_channels;
        if sh.len() != 3 || sh[0] != samples * cin {
            return Err(TensorError::ShapeMismatch {
                left: sh.to_vec(),
                right: vec![samples * cin, 0, 0],
            });
        }
        let (h, w_dim) = (sh[1], sh[2]);
        let (oh, ow) = self.geometry.output_size(h, w_dim);
        let (per_in, per_out) = (cin * h * w_dim, cout * oh * ow);

        let mut epsilon = scratch.take_f32(self.weights.len());
        let mut w = scratch.take_tensor(self.weights.shape());
        let mut input_s = scratch.take_tensor(&[cin, h, w_dim]);
        let mut out_s = scratch.take_tensor(&[cout, oh, ow]);
        let mut out = scratch.take_tensor(&[samples * cout, oh, ow]);
        for (s, source) in sources.iter_mut().take(samples).enumerate() {
            source.generate_block_into(&mut epsilon);
            self.weights.sample_into(&epsilon, self.config.precision, &mut w);
            input_s.data_mut().copy_from_slice(&stacked.data()[s * per_in..(s + 1) * per_in]);
            // The driver overwrites every output scalar (bias prefill), so `out_s` reuse is
            // sound across samples.
            conv2d_forward_into(&self.geometry, &input_s, &w, &self.bias, &mut out_s, scratch)?;
            self.config.precision.quantize_tensor_inplace(&mut out_s);
            out.data_mut()[s * per_out..(s + 1) * per_out].copy_from_slice(out_s.data());
        }

        scratch.put_tensor(out_s);
        scratch.put_tensor(input_s);
        scratch.put_tensor(w);
        scratch.put_f32(epsilon);
        scratch.put_tensor(stacked);
        Ok(out)
    }

    fn backward(
        &mut self,
        sample: usize,
        grad_output: Tensor,
        eps: &mut dyn EpsilonSource,
        scratch: &mut Scratch,
    ) -> Result<Tensor, TensorError> {
        let input = self.cached_inputs[sample]
            .take()
            .expect("backward called for a sample without a cached forward");
        let mut epsilon = scratch.take_f32(self.weights.len());
        eps.retrieve_block_into(&mut epsilon);
        let w = self.sample_weights(&epsilon, scratch);

        let (h, wd) = (input.shape()[1], input.shape()[2]);
        let mut grad_input = scratch.take_tensor(&[self.geometry.in_channels, h, wd]);
        conv2d_backward_input_into(
            &self.geometry,
            &grad_output,
            &w,
            h,
            wd,
            &mut grad_input,
            scratch,
        )?;

        let mut grad_w = scratch.take_tensor(self.weights.shape());
        let mut grad_b = scratch.take_tensor(&[self.geometry.out_channels]);
        conv2d_backward_weights_into(
            &self.geometry,
            &input,
            &grad_output,
            &mut grad_w,
            &mut grad_b,
            scratch,
        )?;
        self.weights.accumulate_gradients(&grad_w, &w, &epsilon, &self.config);
        for (gb, &g) in self.grad_bias.data_mut().iter_mut().zip(grad_b.data()) {
            *gb += g;
        }

        scratch.put_tensor(grad_b);
        scratch.put_tensor(grad_w);
        scratch.put_tensor(w);
        scratch.put_f32(epsilon);
        scratch.put_tensor(input);
        scratch.put_tensor(grad_output);
        Ok(grad_input)
    }

    fn begin_iteration(&mut self, samples: usize, scratch: &mut Scratch) {
        self.samples = samples.max(1);
        recycle_tensor_cache(&mut self.cached_inputs, scratch);
        resize_cache(&mut self.cached_inputs, self.samples);
        self.accumulated_complexity = 0.0;
    }

    fn apply_update(&mut self, learning_rate: f32) {
        self.weights.sgd_step(learning_rate, self.samples);
        let scale = -learning_rate / self.samples as f32;
        self.bias.axpy(scale, &self.grad_bias).expect("bias gradient matches bias shape");
        self.grad_bias.map_inplace(|_| 0.0);
    }

    fn epsilon_count(&self) -> usize {
        self.weights.len()
    }

    fn parameter_count(&self) -> usize {
        2 * self.weights.len() + self.bias.len()
    }

    fn complexity_loss(&self) -> f32 {
        self.accumulated_complexity
    }

    fn name(&self) -> &'static str {
        "bayes_conv2d"
    }

    fn snapshot(&self) -> LayerSnapshot {
        LayerSnapshot::Conv {
            geometry: self.geometry,
            weights: self.weights.clone(),
            bias: self.bias.clone(),
            grad_bias: self.grad_bias.clone(),
        }
    }
}

/// ReLU activation layer.
#[derive(Debug, Default)]
pub struct ReluLayer {
    cached_inputs: Vec<Option<Tensor>>,
}

impl ReluLayer {
    /// Creates a ReLU layer.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Layer for ReluLayer {
    fn forward(
        &mut self,
        sample: usize,
        input: Tensor,
        _eps: &mut dyn EpsilonSource,
        scratch: &mut Scratch,
    ) -> Result<Tensor, TensorError> {
        let mut out = scratch.take_tensor(input.shape());
        relu_into(&input, &mut out);
        cache_tensor(&mut self.cached_inputs, sample, input, scratch);
        Ok(out)
    }

    /// Fused evaluation: ReLU is elementwise, so it applies to the whole stacked activation
    /// at once, skipping the per-sample input cache.
    fn forward_all(
        &mut self,
        stacked: Tensor,
        _samples: usize,
        _sources: &mut [Box<dyn EpsilonSource>],
        scratch: &mut Scratch,
    ) -> Result<Tensor, TensorError> {
        let mut out = scratch.take_tensor(stacked.shape());
        relu_into(&stacked, &mut out);
        scratch.put_tensor(stacked);
        Ok(out)
    }

    fn backward(
        &mut self,
        sample: usize,
        grad_output: Tensor,
        _eps: &mut dyn EpsilonSource,
        scratch: &mut Scratch,
    ) -> Result<Tensor, TensorError> {
        let input = self.cached_inputs[sample]
            .take()
            .expect("backward called for a sample without a cached forward");
        let mut grad_input = scratch.take_tensor(input.shape());
        relu_backward_into(&input, &grad_output, &mut grad_input);
        scratch.put_tensor(input);
        scratch.put_tensor(grad_output);
        Ok(grad_input)
    }

    fn begin_iteration(&mut self, samples: usize, scratch: &mut Scratch) {
        recycle_tensor_cache(&mut self.cached_inputs, scratch);
        resize_cache(&mut self.cached_inputs, samples.max(1));
    }

    fn apply_update(&mut self, _learning_rate: f32) {}

    fn name(&self) -> &'static str {
        "relu"
    }

    fn snapshot(&self) -> LayerSnapshot {
        LayerSnapshot::Relu
    }
}

/// Non-overlapping max-pooling layer.
#[derive(Debug)]
pub struct MaxPoolLayer {
    window: usize,
    /// Per-sample `(input shape, argmax record)`, both in recycled scratch buffers.
    cached: Vec<Option<(Vec<usize>, Vec<usize>)>>,
}

impl MaxPoolLayer {
    /// Creates a max-pooling layer with the given window (and equal stride).
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero.
    pub fn new(window: usize) -> Self {
        assert!(window > 0, "pooling window must be positive");
        Self { window, cached: Vec::new() }
    }
}

impl Layer for MaxPoolLayer {
    fn forward(
        &mut self,
        sample: usize,
        input: Tensor,
        _eps: &mut dyn EpsilonSource,
        scratch: &mut Scratch,
    ) -> Result<Tensor, TensorError> {
        let shape = input.shape();
        if shape.len() != 3
            || !shape[1].is_multiple_of(self.window)
            || !shape[2].is_multiple_of(self.window)
        {
            return Err(TensorError::ShapeMismatch {
                left: shape.to_vec(),
                right: vec![shape.first().copied().unwrap_or(0), self.window, self.window],
            });
        }
        let (c, oh, ow) = (shape[0], shape[1] / self.window, shape[2] / self.window);
        let mut out = scratch.take_tensor(&[c, oh, ow]);
        let mut argmax = scratch.take_usize(c * oh * ow);
        max_pool2d_into(&input, self.window, &mut out, &mut argmax)?;
        let mut cached_shape = scratch.take_usize(3);
        cached_shape.copy_from_slice(input.shape());
        if let Some((old_shape, old_argmax)) = self.cached[sample].replace((cached_shape, argmax)) {
            scratch.put_usize(old_shape);
            scratch.put_usize(old_argmax);
        }
        scratch.put_tensor(input);
        Ok(out)
    }

    /// Fused evaluation: pooling acts per channel, and the stacked layout `[S·C, H, W]`
    /// keeps every sample's channels contiguous — one pooling pass over the stacked map *is*
    /// `S` per-sample passes. The argmax cache is skipped.
    fn forward_all(
        &mut self,
        stacked: Tensor,
        _samples: usize,
        _sources: &mut [Box<dyn EpsilonSource>],
        scratch: &mut Scratch,
    ) -> Result<Tensor, TensorError> {
        let shape = stacked.shape();
        if shape.len() != 3
            || !shape[1].is_multiple_of(self.window)
            || !shape[2].is_multiple_of(self.window)
        {
            return Err(TensorError::ShapeMismatch {
                left: shape.to_vec(),
                right: vec![shape.first().copied().unwrap_or(0), self.window, self.window],
            });
        }
        let (c, oh, ow) = (shape[0], shape[1] / self.window, shape[2] / self.window);
        let mut out = scratch.take_tensor(&[c, oh, ow]);
        let mut argmax = scratch.take_usize(c * oh * ow);
        max_pool2d_into(&stacked, self.window, &mut out, &mut argmax)?;
        scratch.put_usize(argmax);
        scratch.put_tensor(stacked);
        Ok(out)
    }

    fn backward(
        &mut self,
        sample: usize,
        grad_output: Tensor,
        _eps: &mut dyn EpsilonSource,
        scratch: &mut Scratch,
    ) -> Result<Tensor, TensorError> {
        let (shape, argmax) = self.cached[sample]
            .take()
            .expect("backward called for a sample without a cached forward");
        let mut grad_input = scratch.take_tensor(&shape);
        max_pool2d_backward_into(&grad_output, &argmax, &mut grad_input);
        scratch.put_usize(shape);
        scratch.put_usize(argmax);
        scratch.put_tensor(grad_output);
        Ok(grad_input)
    }

    fn begin_iteration(&mut self, samples: usize, scratch: &mut Scratch) {
        for slot in &mut self.cached {
            if let Some((shape, argmax)) = slot.take() {
                scratch.put_usize(shape);
                scratch.put_usize(argmax);
            }
        }
        resize_cache(&mut self.cached, samples.max(1));
    }

    fn apply_update(&mut self, _learning_rate: f32) {}

    fn name(&self) -> &'static str {
        "max_pool"
    }

    fn snapshot(&self) -> LayerSnapshot {
        LayerSnapshot::MaxPool { window: self.window }
    }
}

/// Flattens a `[C, H, W]` feature map into a `[C·H·W]` vector (and restores the shape on the way
/// back) — a pure reshape of the owned tensor, no data movement at all.
#[derive(Debug, Default)]
pub struct FlattenLayer {
    cached_shapes: Vec<Option<Vec<usize>>>,
}

impl FlattenLayer {
    /// Creates a flatten layer.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Layer for FlattenLayer {
    fn forward(
        &mut self,
        sample: usize,
        mut input: Tensor,
        _eps: &mut dyn EpsilonSource,
        scratch: &mut Scratch,
    ) -> Result<Tensor, TensorError> {
        let mut cached_shape = scratch.take_usize(input.shape().len());
        cached_shape.copy_from_slice(input.shape());
        if let Some(old) = self.cached_shapes[sample].replace(cached_shape) {
            scratch.put_usize(old);
        }
        input.reshape_in_place(&[input.len()])?;
        Ok(input)
    }

    /// Fused evaluation: the stacked layout is sample-major, so flattening `[S·C, H, W]` to
    /// `[S, C·H·W]` is a pure in-place reshape. The shape cache is skipped.
    fn forward_all(
        &mut self,
        mut stacked: Tensor,
        samples: usize,
        _sources: &mut [Box<dyn EpsilonSource>],
        _scratch: &mut Scratch,
    ) -> Result<Tensor, TensorError> {
        let per_len = stacked.len() / samples;
        stacked.reshape_in_place(&[samples, per_len])?;
        Ok(stacked)
    }

    fn backward(
        &mut self,
        sample: usize,
        mut grad_output: Tensor,
        _eps: &mut dyn EpsilonSource,
        scratch: &mut Scratch,
    ) -> Result<Tensor, TensorError> {
        let shape = self.cached_shapes[sample]
            .take()
            .expect("backward called for a sample without a cached forward");
        grad_output.reshape_in_place(&shape)?;
        scratch.put_usize(shape);
        Ok(grad_output)
    }

    fn begin_iteration(&mut self, samples: usize, scratch: &mut Scratch) {
        for slot in &mut self.cached_shapes {
            if let Some(stale) = slot.take() {
                scratch.put_usize(stale);
            }
        }
        resize_cache(&mut self.cached_shapes, samples.max(1));
    }

    fn apply_update(&mut self, _learning_rate: f32) {}

    fn name(&self) -> &'static str {
        "flatten"
    }

    fn snapshot(&self) -> LayerSnapshot {
        LayerSnapshot::Flatten
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::epsilon::LfsrRetrieve;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn eps_source() -> LfsrRetrieve {
        LfsrRetrieve::new(99).unwrap()
    }

    #[test]
    fn linear_forward_backward_shapes() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut layer = BayesLinear::new(6, 4, BayesConfig::default(), &mut rng);
        let mut eps = eps_source();
        let mut scratch = Scratch::new();
        layer.begin_iteration(1, &mut scratch);
        let input = Tensor::filled(&[6], 0.5);
        let out = layer.forward(0, input, &mut eps, &mut scratch).unwrap();
        assert_eq!(out.shape(), &[4]);
        let grad = Tensor::filled(&[4], 1.0);
        let grad_in = layer.backward(0, grad, &mut eps, &mut scratch).unwrap();
        assert_eq!(grad_in.shape(), &[6]);
        assert_eq!(layer.epsilon_count(), 24);
        assert_eq!(layer.parameter_count(), 2 * 24 + 4);
        layer.apply_update(0.01);
    }

    #[test]
    fn conv_forward_backward_shapes() {
        let mut rng = StdRng::seed_from_u64(2);
        let geom =
            ConvGeometry { in_channels: 1, out_channels: 2, kernel: 3, stride: 1, padding: 1 };
        let mut layer = BayesConv2d::new(geom, BayesConfig::default(), &mut rng);
        let mut eps = eps_source();
        let mut scratch = Scratch::new();
        layer.begin_iteration(2, &mut scratch);
        let input = Tensor::filled(&[1, 6, 6], 1.0);
        let out = layer.forward(0, input, &mut eps, &mut scratch).unwrap();
        assert_eq!(out.shape(), &[2, 6, 6]);
        let grad_in =
            layer.backward(0, Tensor::filled(&[2, 6, 6], 0.1), &mut eps, &mut scratch).unwrap();
        assert_eq!(grad_in.shape(), &[1, 6, 6]);
        assert_eq!(layer.epsilon_count(), 2 * 9);
    }

    #[test]
    fn backward_reconstructs_the_same_weights_it_sampled() {
        // The complexity loss uses the forward weights, the gradients use the reconstructed
        // ones; with the same source both must coincide, so one SGD step from two layers driven
        // by identically seeded sources stays identical.
        let mut rng_a = StdRng::seed_from_u64(3);
        let mut rng_b = StdRng::seed_from_u64(3);
        let cfg = BayesConfig::default();
        let mut layer_a = BayesLinear::new(5, 3, cfg, &mut rng_a);
        let mut layer_b = BayesLinear::new(5, 3, cfg, &mut rng_b);
        let mut eps_a = LfsrRetrieve::new(7).unwrap();
        let mut eps_b = crate::epsilon::StoreReplay::new(7).unwrap();
        let input = Tensor::from_vec(vec![5], vec![0.1, -0.2, 0.3, 0.4, -0.5]).unwrap();
        let grad = Tensor::from_vec(vec![3], vec![1.0, -1.0, 0.5]).unwrap();
        let mut scratch = Scratch::new();
        for (layer, eps) in [
            (&mut layer_a, &mut eps_a as &mut dyn EpsilonSource),
            (&mut layer_b, &mut eps_b as &mut dyn EpsilonSource),
        ] {
            layer.begin_iteration(1, &mut scratch);
            layer.forward(0, input.clone(), eps, &mut scratch).unwrap();
            layer.backward(0, grad.clone(), eps, &mut scratch).unwrap();
            layer.apply_update(0.05);
        }
        assert_eq!(layer_a.weights().mu(), layer_b.weights().mu());
        assert_eq!(layer_a.weights().rho(), layer_b.weights().rho());
    }

    #[test]
    fn relu_and_flatten_round_trip_shapes() {
        let mut relu_layer = ReluLayer::new();
        let mut flatten = FlattenLayer::new();
        let mut eps = eps_source();
        let mut scratch = Scratch::new();
        relu_layer.begin_iteration(1, &mut scratch);
        flatten.begin_iteration(1, &mut scratch);
        let input =
            Tensor::from_vec(vec![2, 2, 2], vec![-1., 2., -3., 4., 5., -6., 7., -8.]).unwrap();
        let activated = relu_layer.forward(0, input, &mut eps, &mut scratch).unwrap();
        let flat = flatten.forward(0, activated, &mut eps, &mut scratch).unwrap();
        assert_eq!(flat.shape(), &[8]);
        let back = flatten.backward(0, Tensor::filled(&[8], 1.0), &mut eps, &mut scratch).unwrap();
        assert_eq!(back.shape(), &[2, 2, 2]);
        let grad_in = relu_layer.backward(0, back, &mut eps, &mut scratch).unwrap();
        // Gradient passes only where the input was positive.
        assert_eq!(grad_in.data(), &[0., 1., 0., 1., 1., 0., 1., 0.]);
    }

    #[test]
    fn max_pool_layer_reduces_and_restores() {
        let mut pool = MaxPoolLayer::new(2);
        let mut eps = eps_source();
        let mut scratch = Scratch::new();
        pool.begin_iteration(1, &mut scratch);
        let input = Tensor::from_vec(vec![1, 2, 2], vec![1., 5., 2., 3.]).unwrap();
        let out = pool.forward(0, input, &mut eps, &mut scratch).unwrap();
        assert_eq!(out.data(), &[5.0]);
        let grad_in =
            pool.backward(0, Tensor::filled(&[1, 1, 1], 2.0), &mut eps, &mut scratch).unwrap();
        assert_eq!(grad_in.data(), &[0.0, 2.0, 0.0, 0.0]);
    }

    #[test]
    fn complexity_loss_accumulates_only_on_bayes_layers() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut layer = BayesLinear::new(4, 2, BayesConfig::default(), &mut rng);
        let mut eps = eps_source();
        let mut scratch = Scratch::new();
        layer.begin_iteration(1, &mut scratch);
        layer.forward(0, Tensor::filled(&[4], 1.0), &mut eps, &mut scratch).unwrap();
        assert_ne!(layer.complexity_loss(), 0.0);
        let relu_layer = ReluLayer::new();
        assert_eq!(relu_layer.complexity_loss(), 0.0);
    }

    #[test]
    fn steady_state_layer_round_trips_do_not_grow_the_arena() {
        let mut rng = StdRng::seed_from_u64(5);
        let geom =
            ConvGeometry { in_channels: 2, out_channels: 3, kernel: 3, stride: 1, padding: 1 };
        let mut layer = BayesConv2d::new(geom, BayesConfig::default(), &mut rng);
        let mut eps = eps_source();
        let mut scratch = Scratch::new();
        let mut pooled_after_warmup = 0;
        for iter in 0..4 {
            layer.begin_iteration(1, &mut scratch);
            // Inputs come from the arena, as `Network::forward_sample` provides them.
            let mut input = scratch.take_tensor(&[2, 8, 8]);
            input.data_mut().fill(0.3);
            let out = layer.forward(0, input, &mut eps, &mut scratch).unwrap();
            let grad_in = layer.backward(0, out, &mut eps, &mut scratch).unwrap();
            scratch.put_tensor(grad_in);
            eps.reset_iteration();
            layer.apply_update(0.01);
            if iter == 1 {
                pooled_after_warmup = scratch.pooled_buffers();
            } else if iter > 1 {
                assert_eq!(scratch.pooled_buffers(), pooled_after_warmup, "arena grew");
            }
        }
    }
}
