//! Single-pass moment propagation over a frozen posterior — the analytic alternative to
//! Monte-Carlo serving.
//!
//! Monte-Carlo inference runs `S` sampled forward passes per request (`w = μ + ε∘σ` each
//! pass) and aggregates; the serving cost is `S` GEMMs plus `S·ε` Gaussian draws. Moment
//! propagation replaces the ensemble with **one analytic pass** that pushes the pair
//! `(E[x], Var[x])` through every layer, exploiting the fact that under the mean-field
//! posterior each weight is an *independent* Gaussian `N(μ, σ²)`:
//!
//! * **Linear / conv** (exact, given independent inputs): a weighted sum `y_i = Σ_j W_ij·x_j + b_i`
//!   of independent terms has
//!   `E[y]_i = Σ_j μ_ij·E[x]_j + b_i` and
//!   `Var[y]_i = Σ_j (μ²_ij·Var[x]_j + σ²_ij·(Var[x]_j + E[x]²_j))` — one GEMM for the mean
//!   and two accumulating GEMMs (or convolutions) for the variance, riding the same tiered
//!   GEMM as the sampled path ([`bnn_tensor::kernels`]).
//! * **ReLU** (Gaussian approximation): treating the pre-activation as `X ~ N(m, s²)`, the
//!   rectified moments are closed-form in the standard normal pdf `φ` and cdf `Φ`:
//!   `E[max(X,0)] = m·Φ(m/s) + s·φ(m/s)` and
//!   `E[max(X,0)²] = (m² + s²)·Φ(m/s) + m·s·φ(m/s)`. The *approximation* is re-assuming the
//!   output is Gaussian for the next layer (it is left-truncated); the validation harness in
//!   `bnn-serve` pins how far this drifts from large-`S` Monte-Carlo in practice.
//! * **Max-pool** (mean-field argmax): the pooled mean is the max over window means and the
//!   pooled variance is gathered from the argmax position — exact when one window element
//!   dominates, an underestimate when means tie (documented divergence case).
//! * **Flatten**: a reshape of both moments.
//! * **Head**: predictive probabilities are `softmax(E[z])` and the per-class probability
//!   variance is the first-order delta method through the full softmax Jacobian over
//!   independent logits, `Var[p_i] ≈ Σ_j (p_i·(δ_ij − p_j))²·Var[z_j]`.
//!   [`Predictive::samples`] is 0, marking the summary as analytic.
//!
//! One deviation from the Monte-Carlo backend is structural, not numerical: every rule above
//! assumes **independent** weight perturbations (`ε ~ N(0, I)`), the textbook mean-field
//! posterior. The serial Shift-BNN GRNG that the MC path draws from advances its LFSR one
//! shift per ε, so consecutive draws share all but one register bit and are strongly
//! serially correlated — which inflates MC *predictive variance* well above the
//! independent-ε value while leaving the predictive mean and entropy essentially unchanged.
//! The validation harness in `bnn-serve` therefore pins mean and entropy tightly and gates
//! the per-class variance on scale (a pinned ratio window), not on tight agreement.
//!
//! Weight moments are taken from the posterior directly (`μ`, `σ = softplus(ρ)`), which is
//! exact for the default `Fp32` precision; quantized precisions sample *quantized* weights in
//! the MC path, so there the analytic moments are one further approximation.
//!
//! The φ/Φ evaluations run in `f64` (erf via the Abramowitz–Stegun 7.1.26 polynomial, max
//! absolute error 1.5e-7) so the approximation error — not the arithmetic — dominates; the
//! whole pass is deterministic and allocation-free in steady state under [`Scratch`].

use crate::network::{Network, Predictive};
use crate::snapshot::{LayerSnapshot, NetworkSnapshot};
use bnn_tensor::conv::ConvGeometry;
use bnn_tensor::kernels::{conv2d_forward_into, gemm_accumulate_tiered};
use bnn_tensor::loss::softmax_inplace;
use bnn_tensor::pool::max_pool2d_into;
use bnn_tensor::{KernelConfig, Scratch, Tensor, TensorError};

/// `1/√(2π)`, the standard normal density normalizer.
const INV_SQRT_2PI: f64 = 0.398_942_280_401_432_7;
/// `1/√2`, converting `erf` to the standard normal CDF.
const INV_SQRT_2: f64 = std::f64::consts::FRAC_1_SQRT_2;

/// Error function via Abramowitz & Stegun 7.1.26 (5-term polynomial in `1/(1+px)` times a
/// Gaussian), maximum absolute error 1.5e-7 — far below the Gaussian-ReLU approximation error
/// it feeds.
fn erf(x: f64) -> f64 {
    let sign = if x < 0.0 { -1.0 } else { 1.0 };
    let x = x.abs();
    let t = 1.0 / (1.0 + 0.327_591_1 * x);
    let poly = ((((1.061_405_429 * t - 1.453_152_027) * t) + 1.421_413_741) * t - 0.284_496_736)
        * t
        + 0.254_829_592;
    sign * (1.0 - poly * t * (-x * x).exp())
}

/// Standard normal CDF `Φ(z)`.
fn normal_cdf(z: f64) -> f64 {
    0.5 * (1.0 + erf(z * INV_SQRT_2))
}

/// Standard normal PDF `φ(z)`.
fn normal_pdf(z: f64) -> f64 {
    INV_SQRT_2PI * (-0.5 * z * z).exp()
}

/// The rectified-Gaussian moments: mean and variance of `max(X, 0)` for `X ~ N(m, v)`.
///
/// Degenerate spread (`v ≤ 0`, including the exact-input case) falls back to the
/// deterministic ReLU: `(max(m, 0), 0)`.
fn relu_moments(m: f64, v: f64) -> (f64, f64) {
    if v <= 0.0 {
        return (m.max(0.0), 0.0);
    }
    let s = v.sqrt();
    let z = m / s;
    let cdf = normal_cdf(z);
    let pdf = normal_pdf(z);
    let mean = m * cdf + s * pdf;
    let var = ((m * m + v) * cdf + m * s * pdf - mean * mean).max(0.0);
    (mean, var)
}

/// One layer of a [`MomentNetwork`]: the frozen weight moments a single analytic pass needs.
///
/// Bayesian layers pre-square their posteriors (`μ²`, `σ²`) at construction so the steady
/// state is pure GEMM traffic; parameter-free layers carry only geometry.
enum MomentLayer {
    /// A fully-connected layer's weight moments (`[out, in]`) and bias.
    Linear { mu: Tensor, mu_sq: Tensor, sigma_sq: Tensor, bias: Tensor },
    /// A convolution layer's weight moments (`[M, N, K, K]`), bias, and an all-zero bias used
    /// to seed the variance convolutions.
    Conv {
        geometry: ConvGeometry,
        mu: Tensor,
        mu_sq: Tensor,
        sigma_sq: Tensor,
        bias: Tensor,
        zero_bias: Tensor,
    },
    /// Rectified-Gaussian moment matching.
    Relu,
    /// Mean-field max-pool (window = stride).
    MaxPool { window: usize },
    /// Reshape of both moments.
    Flatten,
}

impl MomentLayer {
    fn name(&self) -> &'static str {
        match self {
            MomentLayer::Linear { .. } => "moment_linear",
            MomentLayer::Conv { .. } => "moment_conv",
            MomentLayer::Relu => "moment_relu",
            MomentLayer::MaxPool { .. } => "moment_max_pool",
            MomentLayer::Flatten => "moment_flatten",
        }
    }
}

/// A frozen posterior compiled for single-pass moment propagation: the analytic serving
/// backend (`ServeMode::Moment` in `bnn-serve`).
///
/// Built from the same [`NetworkSnapshot`] artifact the Monte-Carlo path serves, so a
/// checkpoint round-trips into either backend. The pass itself is deterministic (no ε
/// sources, no RNG) and allocation-free in steady state: every intermediate buffer cycles
/// through the owned [`Scratch`] arena.
pub struct MomentNetwork {
    layers: Vec<MomentLayer>,
    /// Classes at the head (the last linear layer's fan-out), for shape checks.
    classes: usize,
    scratch: Scratch,
}

impl std::fmt::Debug for MomentNetwork {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let names: Vec<&str> = self.layers.iter().map(|l| l.name()).collect();
        f.debug_struct("MomentNetwork")
            .field("layers", &names)
            .field("classes", &self.classes)
            .finish()
    }
}

impl MomentNetwork {
    /// Compiles a snapshot's frozen `(μ, ρ)` posteriors into weight moments (`μ`, `μ²`,
    /// `σ² = softplus(ρ)²`).
    ///
    /// # Errors
    ///
    /// Propagates [`NetworkSnapshot::validate`] shape errors, and rejects a snapshot whose
    /// last Bayesian layer is not a linear head (the delta-method softmax needs logits).
    pub fn from_snapshot(snapshot: &NetworkSnapshot) -> Result<MomentNetwork, TensorError> {
        snapshot.validate()?;
        let mut layers = Vec::with_capacity(snapshot.layers.len());
        let mut classes = 0;
        for layer in &snapshot.layers {
            layers.push(match layer {
                LayerSnapshot::Linear { out_features, weights, bias, .. } => {
                    classes = *out_features;
                    let sigma = weights.sigma();
                    MomentLayer::Linear {
                        mu: weights.mu().clone(),
                        mu_sq: weights.mu().map(|w| w * w),
                        sigma_sq: sigma.map(|s| s * s),
                        bias: bias.clone(),
                    }
                }
                LayerSnapshot::Conv { geometry, weights, bias, .. } => {
                    let sigma = weights.sigma();
                    MomentLayer::Conv {
                        geometry: *geometry,
                        mu: weights.mu().clone(),
                        mu_sq: weights.mu().map(|w| w * w),
                        sigma_sq: sigma.map(|s| s * s),
                        bias: bias.clone(),
                        zero_bias: Tensor::zeros(&[geometry.out_channels]),
                    }
                }
                LayerSnapshot::Relu => MomentLayer::Relu,
                LayerSnapshot::MaxPool { window } => MomentLayer::MaxPool { window: *window },
                LayerSnapshot::Flatten => MomentLayer::Flatten,
            });
        }
        Ok(MomentNetwork { layers, classes, scratch: Scratch::new() })
    }

    /// Compiles a live network (convenience over [`MomentNetwork::from_snapshot`]); the
    /// moment network inherits the network's kernel configuration.
    ///
    /// # Errors
    ///
    /// Propagates [`MomentNetwork::from_snapshot`] errors.
    pub fn from_network(network: &Network) -> Result<MomentNetwork, TensorError> {
        let mut moment = MomentNetwork::from_snapshot(&network.snapshot())?;
        moment.set_kernel(network.kernel());
        Ok(moment)
    }

    /// Replaces the kernel configuration the mean/variance GEMMs dispatch on. Bit-exact
    /// tiers ([`bnn_tensor::KernelTier::BIT_EXACT`]) and any `gemm_workers` count leave every
    /// output bit unchanged.
    pub fn set_kernel(&mut self, kernel: KernelConfig) {
        self.scratch.set_kernel(kernel);
    }

    /// Classes at the head.
    pub fn classes(&self) -> usize {
        self.classes
    }

    /// Number of compiled layers.
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// Returns `true` when no layers were compiled.
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }

    /// The analytic predictive summary for `input` (see [`MomentNetwork::predictive_into`]).
    ///
    /// # Errors
    ///
    /// Propagates shape errors from the layer rules.
    pub fn predictive(&mut self, input: &Tensor) -> Result<Predictive, TensorError> {
        let mut out = Predictive {
            mean: Tensor::zeros(&[0]),
            variance: Tensor::zeros(&[0]),
            entropy: 0.0,
            samples: 0,
        };
        self.predictive_into(input, &mut out)?;
        Ok(out)
    }

    /// One single-pass analytic predictive summary into a caller-provided buffer — the
    /// zero-allocation form the serving engine drives per request.
    ///
    /// The input is treated as exact (`Var[x] = 0`); uncertainty enters through the weight
    /// posteriors. `out.samples` is set to 0 to mark the summary as analytic rather than an
    /// `S`-sample Monte-Carlo aggregate; mean/variance/entropy have the same shapes as the
    /// MC path's, so `InferResponse`s are interchangeable between backends.
    ///
    /// # Errors
    ///
    /// Propagates shape errors from the layer rules.
    pub fn predictive_into(
        &mut self,
        input: &Tensor,
        out: &mut Predictive,
    ) -> Result<(), TensorError> {
        let mut mean = self.scratch.take_tensor_copy(input);
        let mut var = self.scratch.take_tensor(input.shape());
        for layer in &self.layers {
            match layer {
                MomentLayer::Linear { mu, mu_sq, sigma_sq, bias } => {
                    let (out_f, in_f) = (mu.shape()[0], mu.shape()[1]);
                    if mean.len() != in_f {
                        let err = TensorError::ShapeMismatch {
                            left: mean.shape().to_vec(),
                            right: vec![in_f],
                        };
                        self.scratch.put_tensor(mean);
                        self.scratch.put_tensor(var);
                        return Err(err);
                    }
                    // E[y] = μ·E[x] + b — one GEMM with n = 1.
                    let mut out_mean = self.scratch.take_tensor(&[out_f]);
                    out_mean.data_mut().copy_from_slice(bias.data());
                    let cfg = self.scratch.kernel();
                    let (md, vd) = (mean.data(), var.data());
                    gemm_accumulate_tiered(cfg, out_mean.data_mut(), mu.data(), md, out_f, in_f, 1);
                    // Var[y] = μ²·Var[x] + σ²·(Var[x] + E[x]²) — two accumulating GEMMs into
                    // the zero-filled output, sharing the second moment E[x²] buffer.
                    let mut m2 = self.scratch.take_tensor(&[in_f]);
                    for ((d, &m), &v) in m2.data_mut().iter_mut().zip(md).zip(vd) {
                        *d = v + m * m;
                    }
                    let mut out_var = self.scratch.take_tensor(&[out_f]);
                    let ov = out_var.data_mut();
                    gemm_accumulate_tiered(cfg, ov, mu_sq.data(), vd, out_f, in_f, 1);
                    gemm_accumulate_tiered(cfg, ov, sigma_sq.data(), m2.data(), out_f, in_f, 1);
                    self.scratch.put_tensor(m2);
                    self.scratch.put_tensor(mean);
                    self.scratch.put_tensor(var);
                    mean = out_mean;
                    var = out_var;
                }
                MomentLayer::Conv { geometry, mu, mu_sq, sigma_sq, bias, zero_bias } => {
                    let in_shape = mean.shape();
                    if in_shape.len() != 3 || in_shape[0] != geometry.in_channels {
                        let err = TensorError::ShapeMismatch {
                            left: in_shape.to_vec(),
                            right: vec![geometry.in_channels, 0, 0],
                        };
                        self.scratch.put_tensor(mean);
                        self.scratch.put_tensor(var);
                        return Err(err);
                    }
                    let (oh, ow) = geometry.output_size(in_shape[1], in_shape[2]);
                    let out_shape = [geometry.out_channels, oh, ow];
                    // Mean path: one convolution of E[x] with μ, seeded by the bias.
                    let mut out_mean = self.scratch.take_tensor(&out_shape);
                    conv2d_forward_into(
                        geometry,
                        &mean,
                        mu,
                        bias,
                        &mut out_mean,
                        &mut self.scratch,
                    )?;
                    // Variance path: conv(Var[x], μ²) + conv(Var[x] + E[x]², σ²), bias-free.
                    let mut m2 = self.scratch.take_tensor(mean.shape());
                    for ((d, &m), &v) in m2.data_mut().iter_mut().zip(mean.data()).zip(var.data()) {
                        *d = v + m * m;
                    }
                    let mut out_var = self.scratch.take_tensor(&out_shape);
                    conv2d_forward_into(
                        geometry,
                        &var,
                        mu_sq,
                        zero_bias,
                        &mut out_var,
                        &mut self.scratch,
                    )?;
                    let mut sigma_term = self.scratch.take_tensor(&out_shape);
                    conv2d_forward_into(
                        geometry,
                        &m2,
                        sigma_sq,
                        zero_bias,
                        &mut sigma_term,
                        &mut self.scratch,
                    )?;
                    for (v, &s) in out_var.data_mut().iter_mut().zip(sigma_term.data()) {
                        *v += s;
                    }
                    self.scratch.put_tensor(sigma_term);
                    self.scratch.put_tensor(m2);
                    self.scratch.put_tensor(mean);
                    self.scratch.put_tensor(var);
                    mean = out_mean;
                    var = out_var;
                }
                MomentLayer::Relu => {
                    for (m, v) in mean.data_mut().iter_mut().zip(var.data_mut()) {
                        let (rm, rv) = relu_moments(*m as f64, *v as f64);
                        *m = rm as f32;
                        *v = rv as f32;
                    }
                }
                MomentLayer::MaxPool { window } => {
                    let in_shape = mean.shape();
                    if in_shape.len() != 3 {
                        let err = TensorError::ShapeMismatch {
                            left: in_shape.to_vec(),
                            right: vec![0, *window, *window],
                        };
                        self.scratch.put_tensor(mean);
                        self.scratch.put_tensor(var);
                        return Err(err);
                    }
                    let out_shape = [in_shape[0], in_shape[1] / window, in_shape[2] / window];
                    let out_len = out_shape.iter().product();
                    let mut out_mean = self.scratch.take_tensor(&out_shape);
                    let mut argmax = self.scratch.take_usize(out_len);
                    if let Err(err) = max_pool2d_into(&mean, *window, &mut out_mean, &mut argmax) {
                        self.scratch.put_usize(argmax);
                        self.scratch.put_tensor(out_mean);
                        self.scratch.put_tensor(mean);
                        self.scratch.put_tensor(var);
                        return Err(err);
                    }
                    // Gather the variance at each window's mean-argmax: the mean-field
                    // approximation that the window max is attained where the mean is.
                    let mut out_var = self.scratch.take_tensor(&out_shape);
                    for (d, &src) in out_var.data_mut().iter_mut().zip(argmax.iter()) {
                        *d = var.data()[src];
                    }
                    self.scratch.put_usize(argmax);
                    self.scratch.put_tensor(mean);
                    self.scratch.put_tensor(var);
                    mean = out_mean;
                    var = out_var;
                }
                MomentLayer::Flatten => {
                    let len = mean.len();
                    mean.reshape_in_place(&[len])?;
                    var.reshape_in_place(&[len])?;
                }
            }
        }
        // Head: probabilities from the logit means, per-class probability variance through
        // the full softmax Jacobian (first-order delta method over independent logits):
        // `Var[p_i] ≈ Σ_j (p_i·(δ_ij − p_j))²·Var[z_j]`.
        softmax_inplace(&mut mean);
        crate::network::reuse_buffer(&mut out.mean, mean.shape());
        crate::network::reuse_buffer(&mut out.variance, mean.shape());
        out.mean.data_mut().copy_from_slice(mean.data());
        let probs = mean.data();
        let logit_var = var.data();
        for (i, d) in out.variance.data_mut().iter_mut().enumerate() {
            let p_i = probs[i] as f64;
            let mut acc = 0.0f64;
            for (j, (&p_j, &vz)) in probs.iter().zip(logit_var).enumerate() {
                let jac = if i == j { p_i * (1.0 - p_i) } else { -p_i * p_j as f64 };
                acc += jac * jac * vz.max(0.0) as f64;
            }
            *d = acc as f32;
        }
        out.entropy = Network::predictive_entropy(&out.mean);
        out.samples = 0;
        self.scratch.put_tensor(mean);
        self.scratch.put_tensor(var);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::epsilon::{EpsilonSource, LfsrForward};
    use crate::variational::BayesConfig;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn mc_sources(count: usize, base: u64) -> Vec<Box<dyn EpsilonSource>> {
        (0..count)
            .map(|i| Box::new(LfsrForward::new(base + i as u64).unwrap()) as Box<dyn EpsilonSource>)
            .collect()
    }

    #[test]
    fn erf_matches_known_values() {
        // erf(0) = 0, erf(1) ≈ 0.8427007929, erf(2) ≈ 0.9953222650, odd symmetry.
        assert!(erf(0.0).abs() < 1e-9);
        assert!((erf(1.0) - 0.842_700_792_9).abs() < 2e-7);
        assert!((erf(2.0) - 0.995_322_265_0).abs() < 2e-7);
        assert!((erf(-1.0) + erf(1.0)).abs() < 1e-12);
    }

    #[test]
    fn relu_moments_match_closed_form_limits() {
        // Deep in the positive tail the ReLU is the identity: moments pass through.
        let (m, v) = relu_moments(10.0, 0.25);
        assert!((m - 10.0).abs() < 1e-6);
        assert!((v - 0.25).abs() < 1e-4);
        // Deep in the negative tail everything is clipped to zero.
        let (m, v) = relu_moments(-10.0, 0.25);
        assert!(m.abs() < 1e-6 && v.abs() < 1e-6);
        // At m = 0: E = s/√(2π), Var = s²(1/2 − 1/(2π)).
        let (m, v) = relu_moments(0.0, 1.0);
        assert!((m - INV_SQRT_2PI).abs() < 1e-6);
        assert!((v - (0.5 - 1.0 / (2.0 * std::f64::consts::PI))).abs() < 1e-6);
        // Degenerate spread falls back to the deterministic ReLU.
        assert_eq!(relu_moments(3.0, 0.0), (3.0, 0.0));
        assert_eq!(relu_moments(-3.0, 0.0), (0.0, 0.0));
    }

    #[test]
    fn moment_summary_is_deterministic_and_well_formed() {
        let mut rng = StdRng::seed_from_u64(31);
        let net = Network::bayes_mlp(6, &[8], 3, BayesConfig::default(), &mut rng);
        let mut moment = MomentNetwork::from_network(&net).unwrap();
        let input = Tensor::filled(&[6], 0.4);
        let a = moment.predictive(&input).unwrap();
        let b = moment.predictive(&input).unwrap();
        assert_eq!(a, b, "the analytic pass must be bit-deterministic");
        assert_eq!(a.samples, 0, "samples = 0 marks the summary as analytic");
        assert_eq!(a.mean.shape(), &[3]);
        assert_eq!(a.variance.shape(), &[3]);
        assert!((a.mean.sum() - 1.0).abs() < 1e-5);
        assert!(a.variance.data().iter().all(|&v| v >= 0.0));
        assert!(a.entropy >= 0.0);
    }

    #[test]
    fn moment_mean_tracks_large_s_monte_carlo_on_an_mlp() {
        let mut rng = StdRng::seed_from_u64(32);
        let mut net = Network::bayes_mlp(5, &[7, 6], 3, BayesConfig::default(), &mut rng);
        let mut moment = MomentNetwork::from_network(&net).unwrap();
        let input = Tensor::filled(&[5], 0.3);
        let analytic = moment.predictive(&input).unwrap();
        let mut sources = mc_sources(512, 900);
        let mc = net.predictive(&input, &mut sources).unwrap();
        for (a, m) in analytic.mean.data().iter().zip(mc.mean.data()) {
            assert!((a - m).abs() < 0.02, "analytic mean {a} vs MC mean {m}");
        }
        assert!((analytic.entropy - mc.entropy).abs() < 0.05);
    }

    #[test]
    fn moment_pass_handles_the_lenet_stack() {
        let mut rng = StdRng::seed_from_u64(33);
        let net = Network::bayes_lenet(&[1, 8, 8], 4, BayesConfig::default(), &mut rng);
        let mut moment = MomentNetwork::from_network(&net).unwrap();
        assert_eq!(moment.classes(), 4);
        let out = moment.predictive(&Tensor::filled(&[1, 8, 8], 0.5)).unwrap();
        assert_eq!(out.mean.shape(), &[4]);
        assert!((out.mean.sum() - 1.0).abs() < 1e-5);
        assert!(out.variance.data().iter().all(|&v| v >= 0.0 && v.is_finite()));
    }

    #[test]
    fn steady_state_moment_pass_reuses_scratch() {
        let mut rng = StdRng::seed_from_u64(34);
        let net = Network::bayes_lenet(&[1, 8, 8], 3, BayesConfig::default(), &mut rng);
        let mut moment = MomentNetwork::from_network(&net).unwrap();
        let input = Tensor::filled(&[1, 8, 8], 0.2);
        let mut out = moment.predictive(&input).unwrap();
        moment.predictive_into(&input, &mut out).unwrap();
        let pooled = moment.scratch.pooled_buffers();
        for _ in 0..3 {
            moment.predictive_into(&input, &mut out).unwrap();
            assert_eq!(
                moment.scratch.pooled_buffers(),
                pooled,
                "steady-state passes must not grow the arena"
            );
        }
    }

    #[test]
    fn mismatched_input_shape_is_rejected() {
        let mut rng = StdRng::seed_from_u64(35);
        let net = Network::bayes_mlp(4, &[5], 2, BayesConfig::default(), &mut rng);
        let mut moment = MomentNetwork::from_network(&net).unwrap();
        assert!(moment.predictive(&Tensor::filled(&[3], 0.1)).is_err());
        // The arena survives the error path: a well-shaped request still succeeds.
        assert!(moment.predictive(&Tensor::filled(&[4], 0.1)).is_ok());
    }
}
