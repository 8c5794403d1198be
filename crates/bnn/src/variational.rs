//! Variational weight parameters (μ, ρ) shared by all Bayesian layers.
//!
//! Each weight is a Gaussian `N(μ, σ²)` with `σ = softplus(ρ)`; a sampled weight is
//! `w = μ + ε ∘ σ` (the paper's process ①/②). Gradients follow Bayes-by-Backprop (Blundell et
//! al., 2015), which is the training algorithm the paper builds on:
//!
//! * `Δμ = ∂NLL/∂w + λ·w/σ_c²` — the posterior's direct and pathwise μ terms cancel, leaving the
//!   likelihood gradient plus the Gaussian-prior pull (the paper's `Δw_p ≈ w/σ_c²`, implemented
//!   in the DPU as a 2-bit shift when `σ_c = 0.5`);
//! * `Δσ = ε·(∂NLL/∂w + λ·w/σ_c²) − λ/σ`, then `Δρ = Δσ·sigmoid(ρ)` through the softplus
//!   reparameterization. The ε factor is why the backward stage needs every forward ε again —
//!   the data-movement problem Shift-BNN eliminates.
//!
//! σ and `sigmoid(ρ)` change only when ρ does, so each parameter set keeps a per-weight memo
//! of both: derived from ρ on first use, refreshed in place by
//! [`VariationalParams::sgd_step`], and neither cloned, compared nor serialized. Sampling,
//! the complexity loss and the gradients read it instead of paying an `exp`/`ln_1p` per
//! weight per sample; the memo holds the same f32 function of the same input, so every
//! result is bit-identical to evaluating it per element.

use bnn_tensor::activation::{sigmoid, softplus, softplus_inverse};
use bnn_tensor::init::{fan_in_out, xavier_uniform};
use bnn_tensor::{Precision, Tensor, TensorError};
use rand::Rng;
use std::fmt;
use std::sync::OnceLock;

/// Hyper-parameters shared by every Bayesian layer of a network.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BayesConfig {
    /// Arithmetic precision emulated during training (the paper's Table 1 sweeps this).
    pub precision: Precision,
    /// Standard deviation `σ_c` of the zero-mean Gaussian prior; the paper fixes 0.5.
    pub prior_sigma: f32,
    /// Weight `λ` of the complexity (posterior − prior) term relative to the likelihood,
    /// typically `1 / number_of_training_examples`.
    pub kl_weight: f32,
    /// Initial value of ρ; `softplus(init_rho)` is the initial posterior standard deviation.
    pub init_rho: f32,
}

impl Default for BayesConfig {
    fn default() -> Self {
        Self { precision: Precision::Fp32, prior_sigma: 0.5, kl_weight: 1e-3, init_rho: -4.0 }
    }
}

impl BayesConfig {
    /// Returns a copy of the configuration with a different precision (convenience for the
    /// Table 1 precision sweep).
    pub fn with_precision(mut self, precision: Precision) -> Self {
        self.precision = precision;
        self
    }
}

/// The (μ, ρ) parameter pair of one Bayesian weight tensor, with gradient accumulators.
#[derive(Debug, Clone, PartialEq)]
pub struct VariationalParams {
    mu: Tensor,
    rho: Tensor,
    grad_mu: Tensor,
    grad_rho: Tensor,
    memo: SigmaMemo,
}

/// `σ = softplus(ρ)` and `sigmoid(ρ)` per weight, derived from ρ on first use. A clone starts
/// empty and every memo compares equal, so the memo never changes what a parameter set *is*.
#[derive(Default)]
struct SigmaMemo(OnceLock<Frozen>);

struct Frozen {
    sigma: Vec<f32>,
    sigmoid: Vec<f32>,
}

impl Frozen {
    fn refresh(&mut self, rho: &[f32]) {
        for ((s, g), &r) in self.sigma.iter_mut().zip(&mut self.sigmoid).zip(rho) {
            *s = softplus(r);
            *g = sigmoid(r);
        }
    }
}

impl SigmaMemo {
    fn get(&self, rho: &Tensor) -> &Frozen {
        self.0.get_or_init(|| {
            let n = rho.len();
            let mut frozen = Frozen { sigma: vec![0.0; n], sigmoid: vec![0.0; n] };
            frozen.refresh(rho.data());
            frozen
        })
    }

    /// Re-derives an existing memo in place after ρ moved; an underived memo stays lazy.
    fn refresh(&mut self, rho: &Tensor) {
        if let Some(frozen) = self.0.get_mut() {
            frozen.refresh(rho.data());
        }
    }
}

impl Clone for SigmaMemo {
    fn clone(&self) -> Self {
        SigmaMemo::default()
    }
}

impl PartialEq for SigmaMemo {
    fn eq(&self, _: &Self) -> bool {
        true
    }
}

impl fmt::Debug for SigmaMemo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SigmaMemo").field("derived", &self.0.get().is_some()).finish()
    }
}

impl VariationalParams {
    /// Initializes μ with Xavier-uniform values and ρ with `config.init_rho`.
    pub fn init(shape: &[usize], config: &BayesConfig, rng: &mut impl Rng) -> Self {
        let (fan_in, fan_out) = fan_in_out(shape);
        let mu = xavier_uniform(shape, fan_in, fan_out, rng);
        let rho = Tensor::filled(shape, config.init_rho);
        Self::assemble(mu, rho, Tensor::zeros(shape), Tensor::zeros(shape))
    }

    /// Creates parameters from explicit μ and σ tensors (σ is converted to ρ).
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ or σ contains non-positive values.
    pub fn from_mu_sigma(mu: Tensor, sigma: &Tensor) -> Self {
        assert_eq!(mu.shape(), sigma.shape(), "mu and sigma must share a shape");
        let rho = sigma.map(softplus_inverse);
        let shape = mu.shape().to_vec();
        Self::assemble(mu, rho, Tensor::zeros(&shape), Tensor::zeros(&shape))
    }

    /// Reassembles parameters from captured tensors, bit-exactly — the checkpoint-restore
    /// constructor: unlike [`VariationalParams::from_mu_sigma`] nothing is recomputed through
    /// `softplus`, so a snapshot/restore round trip reproduces every ρ and every accumulated
    /// gradient down to the bit.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the four tensors do not share one shape.
    pub fn from_raw(
        mu: Tensor,
        rho: Tensor,
        grad_mu: Tensor,
        grad_rho: Tensor,
    ) -> Result<Self, TensorError> {
        for other in [&rho, &grad_mu, &grad_rho] {
            if other.shape() != mu.shape() {
                return Err(TensorError::ShapeMismatch {
                    left: mu.shape().to_vec(),
                    right: other.shape().to_vec(),
                });
            }
        }
        Ok(Self::assemble(mu, rho, grad_mu, grad_rho))
    }

    fn assemble(mu: Tensor, rho: Tensor, grad_mu: Tensor, grad_rho: Tensor) -> Self {
        Self { mu, rho, grad_mu, grad_rho, memo: SigmaMemo::default() }
    }

    /// The mean tensor μ.
    pub fn mu(&self) -> &Tensor {
        &self.mu
    }

    /// The pre-softplus spread parameter ρ.
    pub fn rho(&self) -> &Tensor {
        &self.rho
    }

    /// The posterior standard deviation `σ = softplus(ρ)`, evaluated afresh (one `softplus`
    /// sweep; the sampling paths read the memo instead).
    pub fn sigma(&self) -> Tensor {
        self.rho.map(softplus)
    }

    /// Number of weights.
    pub fn len(&self) -> usize {
        self.mu.len()
    }

    /// Returns `true` if the parameter tensor is empty.
    pub fn is_empty(&self) -> bool {
        self.mu.is_empty()
    }

    /// Shape of the weight tensor.
    pub fn shape(&self) -> &[usize] {
        self.mu.shape()
    }

    /// Samples a weight tensor `w = μ + ε∘σ` into a caller-provided tensor, quantizing to the
    /// configured precision — the zero-allocation sampling primitive of the hot path. σ comes
    /// from the memo, so after the first call (which derives it) a sample costs one
    /// multiply-add per weight.
    ///
    /// # Panics
    ///
    /// Panics if `epsilon.len()` or `out.len()` differs from the parameter count.
    pub fn sample_into(&self, epsilon: &[f32], precision: Precision, out: &mut Tensor) {
        assert_eq!(epsilon.len(), self.len(), "epsilon block size must match weight count");
        assert_eq!(out.len(), self.len(), "output tensor must match weight count");
        let sigma = &self.memo.get(&self.rho).sigma;
        for (((wv, &m), &e), &s) in
            out.data_mut().iter_mut().zip(self.mu.data()).zip(epsilon).zip(sigma)
        {
            *wv = m + e * s;
        }
        // A separate pass (a no-op at Fp32) keeps the multiply-add loop vectorizable.
        precision.quantize_tensor_inplace(out);
    }

    /// Samples a weight tensor `w = μ + ε∘σ`, quantizing the result to the configured precision
    /// (allocating wrapper over [`VariationalParams::sample_into`]).
    ///
    /// # Panics
    ///
    /// Panics if `epsilon.len()` differs from the parameter count.
    pub fn sample(&self, epsilon: &[f32], precision: Precision) -> Tensor {
        let mut w = Tensor::zeros(self.shape());
        self.sample_into(epsilon, precision, &mut w);
        w
    }

    /// Complexity contribution `Σ_i [log q(w_i|θ) − log P(w_i)]` for a sampled weight tensor.
    ///
    /// # Panics
    ///
    /// Panics if `weights.len()` or `epsilon.len()` differs from the parameter count.
    pub fn complexity_loss(&self, weights: &Tensor, epsilon: &[f32], prior_sigma: f32) -> f32 {
        assert_eq!(weights.len(), self.len(), "weight tensor must match weight count");
        assert_eq!(epsilon.len(), self.len(), "epsilon block size must match weight count");
        let neg_log_prior_sigma = -(prior_sigma as f64).ln();
        let prior_var = (prior_sigma as f64).powi(2);
        let mut total = 0.0f64;
        for ((&w, &e), &s) in
            weights.data().iter().zip(epsilon).zip(&self.memo.get(&self.rho).sigma)
        {
            let log_q = -(s as f64).ln() - 0.5 * (e as f64) * (e as f64);
            let log_p = neg_log_prior_sigma - 0.5 * (w as f64) * (w as f64) / prior_var;
            total += log_q - log_p;
        }
        total as f32
    }

    /// Accumulates gradients for one sample given the likelihood gradient `∂NLL/∂w`, the sampled
    /// weights, and the ε used to sample them.
    ///
    /// # Panics
    ///
    /// Panics if the operand sizes disagree.
    pub fn accumulate_gradients(
        &mut self,
        grad_w_likelihood: &Tensor,
        weights: &Tensor,
        epsilon: &[f32],
        config: &BayesConfig,
    ) {
        assert_eq!(grad_w_likelihood.len(), self.len());
        assert_eq!(weights.len(), self.len());
        assert_eq!(epsilon.len(), self.len());
        let inv_prior_var = 1.0 / (config.prior_sigma * config.prior_sigma);
        let frozen = self.memo.get(&self.rho);
        let accumulators = self.grad_mu.data_mut().iter_mut().zip(self.grad_rho.data_mut());
        let terms = grad_w_likelihood.data().iter().zip(weights.data()).zip(epsilon);
        let memo = frozen.sigma.iter().zip(&frozen.sigmoid);
        for ((gm, gr), (((&gw, &w), &e), (&s, &sg))) in accumulators.zip(terms.zip(memo)) {
            let total_w_grad = gw + config.kl_weight * w * inv_prior_var;
            *gm += total_w_grad;
            let dsigma = e * total_w_grad - config.kl_weight / s;
            *gr += dsigma * sg;
        }
    }

    /// Zeroes the gradient accumulators.
    pub fn zero_grad(&mut self) {
        self.grad_mu.map_inplace(|_| 0.0);
        self.grad_rho.map_inplace(|_| 0.0);
    }

    /// Applies one SGD step with the accumulated gradients averaged over `samples`, then clears
    /// the accumulators and refreshes a derived σ memo in place (the only place ρ changes).
    ///
    /// # Panics
    ///
    /// Panics if `samples` is zero.
    pub fn sgd_step(&mut self, learning_rate: f32, samples: usize) {
        assert!(samples > 0, "cannot average gradients over zero samples");
        let scale = -learning_rate / samples as f32;
        self.mu.axpy(scale, &self.grad_mu).expect("gradient shape matches parameters");
        self.rho.axpy(scale, &self.grad_rho).expect("gradient shape matches parameters");
        self.memo.refresh(&self.rho);
        self.zero_grad();
    }

    /// Read access to the accumulated μ gradient (used in tests).
    pub fn grad_mu(&self) -> &Tensor {
        &self.grad_mu
    }

    /// Read access to the accumulated ρ gradient (used in tests).
    pub fn grad_rho(&self) -> &Tensor {
        &self.grad_rho
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn params() -> VariationalParams {
        let mut rng = StdRng::seed_from_u64(1);
        VariationalParams::init(&[4, 3], &BayesConfig::default(), &mut rng)
    }

    #[test]
    fn init_sets_rho_and_xavier_mu() {
        let p = params();
        assert_eq!(p.shape(), &[4, 3]);
        assert!(p.rho().data().iter().all(|&r| r == -4.0));
        assert!(p.mu().data().iter().any(|&m| m != 0.0));
        assert!(!p.is_empty());
    }

    #[test]
    fn sigma_is_softplus_of_rho() {
        let p = params();
        let expected = softplus(-4.0);
        assert!(p.sigma().data().iter().all(|&s| (s - expected).abs() < 1e-6));
    }

    #[test]
    fn sampling_with_zero_epsilon_returns_mu() {
        let p = params();
        let eps = vec![0.0f32; p.len()];
        let w = p.sample(&eps, Precision::Fp32);
        assert_eq!(w, *p.mu());
    }

    #[test]
    fn sampling_shifts_by_epsilon_times_sigma() {
        let p = params();
        let eps = vec![2.0f32; p.len()];
        let w = p.sample(&eps, Precision::Fp32);
        let sigma = softplus(-4.0);
        for (wv, m) in w.data().iter().zip(p.mu().data()) {
            assert!((wv - (m + 2.0 * sigma)).abs() < 1e-6);
        }
    }

    #[test]
    fn from_mu_sigma_round_trips_sigma() {
        let mu = Tensor::zeros(&[2, 2]);
        let sigma = Tensor::filled(&[2, 2], 0.25);
        let p = VariationalParams::from_mu_sigma(mu, &sigma);
        assert!(p.sigma().data().iter().all(|&s| (s - 0.25).abs() < 1e-3));
    }

    #[test]
    fn complexity_loss_is_zero_when_posterior_equals_prior_and_sample_is_typical() {
        // With sigma == prior_sigma and w == 0 and eps == 0, log q - log p reduces to 0.
        let mu = Tensor::zeros(&[3]);
        let sigma = Tensor::filled(&[3], 0.5);
        let p = VariationalParams::from_mu_sigma(mu, &sigma);
        let w = Tensor::zeros(&[3]);
        let loss = p.complexity_loss(&w, &[0.0, 0.0, 0.0], 0.5);
        assert!(loss.abs() < 1e-4, "loss {loss}");
    }

    #[test]
    fn complexity_loss_penalizes_narrow_posterior_far_from_prior() {
        let mu = Tensor::filled(&[1], 3.0);
        let sigma = Tensor::filled(&[1], 0.05);
        let p = VariationalParams::from_mu_sigma(mu, &sigma);
        let w = Tensor::filled(&[1], 3.0);
        let loss = p.complexity_loss(&w, &[0.0], 0.5);
        assert!(loss > 1.0, "narrow posterior far from the prior should cost, got {loss}");
    }

    #[test]
    #[should_panic(expected = "epsilon block size must match weight count")]
    fn complexity_loss_rejects_a_short_epsilon_block() {
        let p = params();
        let w = p.sample(&vec![0.0; p.len()], Precision::Fp32);
        p.complexity_loss(&w, &vec![0.0; p.len() - 1], 0.5);
    }

    #[test]
    #[should_panic(expected = "weight tensor must match weight count")]
    fn complexity_loss_rejects_a_mismatched_weight_tensor() {
        let p = params();
        p.complexity_loss(&Tensor::zeros(&[p.len() + 1]), &vec![0.0; p.len()], 0.5);
    }

    #[test]
    fn gradient_accumulation_and_sgd_step_move_parameters() {
        let mut p = params();
        let eps = vec![0.5f32; p.len()];
        let w = p.sample(&eps, Precision::Fp32);
        let grad = Tensor::filled(p.shape(), 1.0);
        let cfg = BayesConfig::default();
        p.accumulate_gradients(&grad, &w, &eps, &cfg);
        assert!(p.grad_mu().data().iter().all(|&g| g != 0.0));
        let mu_before = p.mu().clone();
        p.sgd_step(0.1, 1);
        assert_ne!(*p.mu(), mu_before);
        assert!(p.grad_mu().data().iter().all(|&g| g == 0.0), "gradients cleared after step");
    }

    #[test]
    fn mu_gradient_matches_finite_difference_of_full_objective() {
        // Scalar "network": NLL(w) = 0.5 * w^2 so dNLL/dw = w; plus the complexity term.
        let cfg = BayesConfig { kl_weight: 0.1, ..BayesConfig::default() };
        let mu0 = 0.7f32;
        let sigma0 = 0.3f32;
        let eps = 0.9f32;

        let objective = |mu: f32| -> f32 {
            let w = mu + eps * sigma0;
            let nll = 0.5 * w * w;
            let log_q = -(sigma0).ln() - 0.5 * eps * eps;
            let log_p = -(0.5f32).ln() - w * w / (2.0 * 0.25);
            nll + cfg.kl_weight * (log_q - log_p)
        };
        let h = 1e-3;
        let numerical = (objective(mu0 + h) - objective(mu0 - h)) / (2.0 * h);

        let mu = Tensor::filled(&[1], mu0);
        let sigma = Tensor::filled(&[1], sigma0);
        let mut p = VariationalParams::from_mu_sigma(mu, &sigma);
        let w = p.sample(&[eps], Precision::Fp32);
        let grad_nll = Tensor::filled(&[1], w.data()[0]);
        p.accumulate_gradients(&grad_nll, &w, &[eps], &cfg);
        let analytic = p.grad_mu().data()[0];
        assert!(
            (numerical - analytic).abs() < 1e-2,
            "numerical {numerical} vs analytic {analytic}"
        );
    }

    #[test]
    fn rho_gradient_matches_finite_difference_of_full_objective() {
        let cfg = BayesConfig { kl_weight: 0.1, ..BayesConfig::default() };
        let mu0 = 0.2f32;
        let rho0 = -1.0f32;
        let eps = -0.6f32;

        let objective = |rho: f32| -> f32 {
            let sigma = softplus(rho);
            let w = mu0 + eps * sigma;
            let nll = 0.5 * w * w;
            let log_q = -sigma.ln() - 0.5 * eps * eps;
            let log_p = -(0.5f32).ln() - w * w / (2.0 * 0.25);
            nll + cfg.kl_weight * (log_q - log_p)
        };
        let h = 1e-3;
        let numerical = (objective(rho0 + h) - objective(rho0 - h)) / (2.0 * h);

        let mu = Tensor::filled(&[1], mu0);
        let sigma = Tensor::filled(&[1], softplus(rho0));
        let mut p = VariationalParams::from_mu_sigma(mu, &sigma);
        let w = p.sample(&[eps], Precision::Fp32);
        let grad_nll = Tensor::filled(&[1], w.data()[0]);
        p.accumulate_gradients(&grad_nll, &w, &[eps], &cfg);
        let analytic = p.grad_rho().data()[0];
        assert!(
            (numerical - analytic).abs() < 1e-2,
            "numerical {numerical} vs analytic {analytic}"
        );
    }
}
