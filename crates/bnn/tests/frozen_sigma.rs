//! Bit-identity of the σ memo: `VariationalParams` derives `σ = softplus(ρ)` and `sigmoid(ρ)`
//! once and reuses them across samples, so sampling, the complexity loss and the gradients
//! must reproduce, bit for bit, an oracle that evaluates both per element on every call —
//! across SGD steps (a stale memo would diverge after the first), on every `softplus` branch
//! and at every precision. Clones and checkpoint-style `from_raw` rebuilds start without a
//! memo and must still compare equal and sample identically.

use bnn_tensor::activation::{sigmoid, softplus};
use bnn_tensor::{Precision, Tensor};
use bnn_train::variational::{BayesConfig, VariationalParams};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const PRECISIONS: [Precision; 3] =
    [Precision::Fp32, Precision::Fx16 { frac_bits: 10 }, Precision::Fx8 { frac_bits: 4 }];

/// The per-element formulas the memo replaced, over an independent copy of the parameters.
struct Oracle {
    mu: Vec<f32>,
    rho: Vec<f32>,
    grad_mu: Vec<f32>,
    grad_rho: Vec<f32>,
}

impl Oracle {
    fn sample(&self, epsilon: &[f32], precision: Precision) -> Vec<f32> {
        self.mu
            .iter()
            .zip(epsilon)
            .zip(&self.rho)
            .map(|((&m, &e), &rho)| precision.quantize(m + e * softplus(rho)))
            .collect()
    }

    fn complexity_loss(&self, weights: &[f32], epsilon: &[f32], prior_sigma: f32) -> f32 {
        let mut total = 0.0f64;
        for ((&w, &e), &rho) in weights.iter().zip(epsilon).zip(&self.rho) {
            let s = softplus(rho);
            let log_q = -(s as f64).ln() - 0.5 * (e as f64) * (e as f64);
            let log_p = -(prior_sigma as f64).ln()
                - 0.5 * (w as f64) * (w as f64) / (prior_sigma as f64).powi(2);
            total += log_q - log_p;
        }
        total as f32
    }

    fn accumulate_gradients(
        &mut self,
        grad_w: &[f32],
        weights: &[f32],
        epsilon: &[f32],
        config: &BayesConfig,
    ) {
        let inv_prior_var = 1.0 / (config.prior_sigma * config.prior_sigma);
        for i in 0..self.mu.len() {
            let s = softplus(self.rho[i]);
            let total_w_grad = grad_w[i] + config.kl_weight * weights[i] * inv_prior_var;
            self.grad_mu[i] += total_w_grad;
            let dsigma = epsilon[i] * total_w_grad - config.kl_weight / s;
            self.grad_rho[i] += dsigma * sigmoid(self.rho[i]);
        }
    }

    fn sgd_step(&mut self, learning_rate: f32, samples: usize) {
        let scale = -learning_rate / samples as f32;
        for (p, g) in self.mu.iter_mut().zip(&mut self.grad_mu) {
            *p += scale * *g;
            *g = 0.0;
        }
        for (p, g) in self.rho.iter_mut().zip(&mut self.grad_rho) {
            *p += scale * *g;
            *g = 0.0;
        }
    }
}

fn bits(values: &[f32]) -> Vec<u32> {
    values.iter().map(|v| v.to_bits()).collect()
}

fn uniform(rng: &mut StdRng, n: usize, lo: f32, hi: f32) -> Vec<f32> {
    (0..n).map(|_| rng.gen_range(lo..hi)).collect()
}

/// ρ cycling through all three `softplus` branches: `ρ < −20`, `|ρ| ≤ 20` and `ρ > 20`.
fn rho_on_every_branch(rng: &mut StdRng, n: usize) -> Vec<f32> {
    (0..n)
        .map(|i| match i % 3 {
            0 => rng.gen_range(-30.0..-20.5),
            1 => rng.gen_range(-20.0..20.0),
            _ => rng.gen_range(20.5..30.0),
        })
        .collect()
}

fn params_and_oracle(rng: &mut StdRng, shape: &[usize]) -> (VariationalParams, Oracle) {
    let n = shape.iter().product();
    let mu = uniform(rng, n, -1.0, 1.0);
    let rho = rho_on_every_branch(rng, n);
    let tensor = |data: Vec<f32>| Tensor::from_vec(shape.to_vec(), data).unwrap();
    let params = VariationalParams::from_raw(
        tensor(mu.clone()),
        tensor(rho.clone()),
        Tensor::zeros(shape),
        Tensor::zeros(shape),
    )
    .unwrap();
    let oracle = Oracle { grad_mu: vec![0.0; n], grad_rho: vec![0.0; n], mu, rho };
    (params, oracle)
}

#[test]
fn memoized_sigma_matches_the_per_element_oracle_across_sgd_steps() {
    let shape = [7, 9];
    let n = 63;
    for (k, precision) in PRECISIONS.into_iter().enumerate() {
        let mut rng = StdRng::seed_from_u64(0x5161 + k as u64);
        let config = BayesConfig { precision, kl_weight: 0.05, ..BayesConfig::default() };
        let (mut params, mut oracle) = params_and_oracle(&mut rng, &shape);
        let rho0 = oracle.rho.clone();
        let samples = 2;
        for step in 0..4 {
            for sample in 0..samples {
                let ctx = format!("{precision:?} step {step} sample {sample}");
                let epsilon = uniform(&mut rng, n, -3.0, 3.0);
                let w = params.sample(&epsilon, precision);
                let want_w = oracle.sample(&epsilon, precision);
                assert_eq!(bits(w.data()), bits(&want_w), "{ctx}: sampled weights");

                let loss = params.complexity_loss(&w, &epsilon, config.prior_sigma);
                let want_loss = oracle.complexity_loss(&want_w, &epsilon, config.prior_sigma);
                assert_eq!(loss.to_bits(), want_loss.to_bits(), "{ctx}: complexity loss");

                let grad = uniform(&mut rng, n, -0.5, 0.5);
                let grad_tensor = Tensor::from_vec(shape.to_vec(), grad.clone()).unwrap();
                params.accumulate_gradients(&grad_tensor, &w, &epsilon, &config);
                oracle.accumulate_gradients(&grad, &want_w, &epsilon, &config);
                assert_eq!(bits(params.grad_mu().data()), bits(&oracle.grad_mu), "{ctx}: Δμ");
                assert_eq!(bits(params.grad_rho().data()), bits(&oracle.grad_rho), "{ctx}: Δρ");
            }
            params.sgd_step(0.05, samples);
            oracle.sgd_step(0.05, samples);
            assert_eq!(bits(params.mu().data()), bits(&oracle.mu), "{precision:?} step {step}: μ");
            assert_eq!(
                bits(params.rho().data()),
                bits(&oracle.rho),
                "{precision:?} step {step}: ρ"
            );
        }
        assert_ne!(bits(params.rho().data()), bits(&rho0), "the steps must have moved ρ");
    }
}

#[test]
fn clones_and_raw_rebuilds_compare_equal_and_sample_identically() {
    let shape = [5, 4];
    let n = 20;
    let mut rng = StdRng::seed_from_u64(0xC10E);
    let (mut params, _) = params_and_oracle(&mut rng, &shape);
    let config = BayesConfig::default();
    // Derive the memo, then move ρ so the memo is refreshed rather than freshly derived.
    let epsilon = uniform(&mut rng, n, -2.0, 2.0);
    let w = params.sample(&epsilon, config.precision);
    let grad = Tensor::from_vec(shape.to_vec(), uniform(&mut rng, n, -0.5, 0.5)).unwrap();
    params.accumulate_gradients(&grad, &w, &epsilon, &config);
    params.sgd_step(0.1, 1);
    let epsilon = uniform(&mut rng, n, -2.0, 2.0);
    let w = params.sample(&epsilon, config.precision);

    let clone = params.clone();
    let rebuilt = VariationalParams::from_raw(
        params.mu().clone(),
        params.rho().clone(),
        params.grad_mu().clone(),
        params.grad_rho().clone(),
    )
    .unwrap();
    for (name, other) in [("clone", &clone), ("from_raw", &rebuilt)] {
        assert_eq!(*other, params, "{name} must compare equal to the sampled original");
        for precision in PRECISIONS {
            let ours = params.sample(&epsilon, precision);
            let theirs = other.sample(&epsilon, precision);
            assert_eq!(bits(theirs.data()), bits(ours.data()), "{name} {precision:?}");
        }
        assert_eq!(*other, params, "sampling must not change equality");
        assert_eq!(
            other.complexity_loss(&w, &epsilon, config.prior_sigma).to_bits(),
            params.complexity_loss(&w, &epsilon, config.prior_sigma).to_bits(),
            "{name}: complexity loss"
        );
    }
}
