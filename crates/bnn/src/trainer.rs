//! The Bayes-by-Backprop training loop.
//!
//! The trainer mirrors the computation flow of the paper's Fig. 1(a): per training example it
//! runs the forward stage for all `S` sampled models, computes the loss, runs the backward and
//! gradient-calculation stages per sample (reconstructing weights from retrieved ε), averages
//! the parameter gradients over the samples, and applies the update. Each sampled model owns its
//! own [`EpsilonSource`], matching the per-SPU GRNGs of the accelerator.

use crate::data::SyntheticDataset;
use crate::epsilon::{EpsilonSource, LfsrRetrieve, StoreReplay};
use crate::network::Network;
use crate::snapshot::TrainerSnapshot;
use bnn_lfsr::LfsrError;
use bnn_tensor::loss::softmax_cross_entropy_owned;
use bnn_tensor::{Tensor, TensorError};

/// How the forward-stage ε are made available to the backward stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum EpsilonStrategy {
    /// Store every ε (the baseline's off-chip round trip).
    StoreReplay,
    /// Regenerate every ε by reversed LFSR shifting (Shift-BNN).
    #[default]
    LfsrRetrieve,
}

/// Trainer hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrainerConfig {
    /// Number of Monte-Carlo samples `S` per training example.
    pub samples: usize,
    /// SGD learning rate.
    pub learning_rate: f32,
    /// ε handling strategy.
    pub strategy: EpsilonStrategy,
    /// Base seed for the per-sample GRNGs.
    pub seed: u64,
}

impl Default for TrainerConfig {
    fn default() -> Self {
        Self { samples: 8, learning_rate: 0.05, strategy: EpsilonStrategy::LfsrRetrieve, seed: 1 }
    }
}

/// Metrics of one training step (one example, `S` samples).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StepMetrics {
    /// Mean negative log-likelihood over the samples.
    pub nll: f32,
    /// Mean weighted complexity term (posterior − prior) over the samples.
    pub complexity: f32,
    /// Total loss (`nll + complexity`).
    pub total_loss: f32,
}

/// Metrics of one pass over a dataset.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EpochMetrics {
    /// Mean total loss across the epoch's steps.
    pub mean_loss: f32,
    /// Mean negative log-likelihood across the epoch's steps.
    pub mean_nll: f32,
    /// Number of training steps taken.
    pub steps: usize,
}

/// Errors produced by the trainer.
#[derive(Debug, Clone, PartialEq)]
pub enum TrainError {
    /// Building a GRNG failed.
    Lfsr(LfsrError),
    /// A tensor shape did not match the network.
    Tensor(TensorError),
    /// A trainer snapshot was inconsistent with its own configuration (e.g. the wrong number
    /// of ε source captures for the configured sample count).
    Snapshot(String),
}

impl std::fmt::Display for TrainError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TrainError::Lfsr(e) => write!(f, "epsilon source error: {e}"),
            TrainError::Tensor(e) => write!(f, "tensor error: {e}"),
            TrainError::Snapshot(detail) => write!(f, "inconsistent trainer snapshot: {detail}"),
        }
    }
}

impl std::error::Error for TrainError {}

impl From<LfsrError> for TrainError {
    fn from(e: LfsrError) -> Self {
        TrainError::Lfsr(e)
    }
}

impl From<TensorError> for TrainError {
    fn from(e: TensorError) -> Self {
        TrainError::Tensor(e)
    }
}

/// Drives Bayes-by-Backprop training of a [`Network`].
pub struct Trainer {
    network: Network,
    sources: Vec<Box<dyn EpsilonSource>>,
    config: TrainerConfig,
    /// Training steps (examples) completed so far; carried through snapshots so a resumed
    /// run continues the count of the uninterrupted one.
    steps: u64,
    /// Per-sample loss gradients held between the forward and backward stages; the tensors
    /// cycle through the network's scratch arena, so the steady state allocates nothing.
    grad_store: Vec<Tensor>,
}

impl std::fmt::Debug for Trainer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Trainer")
            .field("network", &self.network)
            .field("config", &self.config)
            .field("sources", &self.sources.len())
            .finish()
    }
}

fn build_sources(config: &TrainerConfig) -> Result<Vec<Box<dyn EpsilonSource>>, LfsrError> {
    (0..config.samples.max(1))
        .map(|s| {
            let seed =
                config.seed.wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(s as u64 + 1));
            Ok(match config.strategy {
                EpsilonStrategy::StoreReplay => {
                    Box::new(StoreReplay::new(seed)?) as Box<dyn EpsilonSource>
                }
                EpsilonStrategy::LfsrRetrieve => {
                    Box::new(LfsrRetrieve::new(seed)?) as Box<dyn EpsilonSource>
                }
            })
        })
        .collect()
}

impl Trainer {
    /// Creates a trainer for `network`, building one ε source per Monte-Carlo sample.
    ///
    /// # Errors
    ///
    /// Returns an error if GRNG construction fails.
    pub fn new(network: Network, config: TrainerConfig) -> Result<Self, TrainError> {
        let sources = build_sources(&config)?;
        Ok(Self { network, sources, config, steps: 0, grad_store: Vec::new() })
    }

    /// Rebuilds a trainer from a [`TrainerSnapshot`], bit-exactly: the network, the step
    /// count and every ε source resume precisely where [`Trainer::snapshot`] captured them,
    /// so continued training reproduces the uninterrupted run's posteriors and loss trace
    /// down to the bit (pinned by `crates/store`'s resume-determinism test).
    ///
    /// # Errors
    ///
    /// Returns [`TrainError::Snapshot`] when the capture disagrees with its own
    /// configuration, and propagates network/ε-source restoration failures.
    pub fn from_snapshot(snapshot: &TrainerSnapshot) -> Result<Self, TrainError> {
        let network = snapshot.network.build()?;
        let mut trainer = Trainer::new(network, snapshot.config)?;
        if snapshot.sources.len() != trainer.sources.len() {
            return Err(TrainError::Snapshot(format!(
                "{} source captures for {} configured samples",
                snapshot.sources.len(),
                trainer.sources.len()
            )));
        }
        for (source, state) in trainer.sources.iter_mut().zip(&snapshot.sources) {
            source.restore(state)?;
        }
        trainer.steps = snapshot.steps;
        Ok(trainer)
    }

    /// Captures the complete training state at the current iteration boundary (posterior,
    /// configuration, step count, per-sample GRNG registers). See [`TrainerSnapshot`].
    ///
    /// # Panics
    ///
    /// Panics if called mid-iteration — possible only if a previous
    /// [`Trainer::train_example`] errored out partway; completed calls always leave the
    /// sources at a boundary.
    pub fn snapshot(&self) -> TrainerSnapshot {
        TrainerSnapshot {
            network: self.network.snapshot(),
            config: self.config,
            steps: self.steps,
            sources: self.sources.iter().map(|s| s.state()).collect(),
        }
    }

    /// The trainer's configuration.
    pub fn config(&self) -> &TrainerConfig {
        &self.config
    }

    /// Training steps (examples) completed so far, counted across snapshot/resume.
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// The trained network.
    pub fn network(&self) -> &Network {
        &self.network
    }

    /// Mutable access to the trained network (for inspection between epochs).
    pub fn network_mut(&mut self) -> &mut Network {
        &mut self.network
    }

    /// Total ε values that had to be stored off-chip so far (zero under LFSR retrieval).
    pub fn stored_epsilons(&self) -> u64 {
        self.sources.iter().map(|s| s.stored_values()).sum()
    }

    /// Trains on one example (minibatch of 1, as the paper's characterization assumes).
    ///
    /// # Errors
    ///
    /// Returns a [`TrainError`] if the input shape does not match the network.
    pub fn train_example(
        &mut self,
        image: &Tensor,
        label: usize,
    ) -> Result<StepMetrics, TrainError> {
        let samples = self.config.samples.max(1);
        self.network.begin_iteration(samples);

        // Forward stage for every sampled model, recording the per-sample loss gradient
        // (computed in place in the logits buffer — no per-sample allocation). The store is
        // normally drained by the backward loop; clearing defends against a previous call
        // that errored mid-iteration and left stale gradients behind.
        self.grad_store.clear();
        let mut nll_sum = 0.0f32;
        for (s, source) in self.sources.iter_mut().enumerate() {
            let logits = self.network.forward_sample(s, image, source.as_mut())?;
            let (nll, grad) = softmax_cross_entropy_owned(logits, label);
            nll_sum += nll;
            self.grad_store.push(grad);
        }

        // Backward + gradient-calculation stages, sample by sample, retrieving ε. The loss
        // gradients and the returned input gradients both recycle into the network's arena.
        for (s, (source, grad)) in
            self.sources.iter_mut().zip(self.grad_store.drain(..)).enumerate()
        {
            let grad_image = self.network.backward_sample(s, &grad, source.as_mut())?;
            self.network.recycle(grad_image);
            self.network.recycle(grad);
            source.reset_iteration();
        }

        let complexity = self.network.complexity_loss() / samples as f32;
        self.network.apply_update(self.config.learning_rate);
        self.steps += 1;

        let nll = nll_sum / samples as f32;
        Ok(StepMetrics { nll, complexity, total_loss: nll + complexity })
    }

    /// Trains one epoch over a dataset.
    ///
    /// # Errors
    ///
    /// Returns a [`TrainError`] on the first failing step.
    pub fn train_epoch(&mut self, dataset: &SyntheticDataset) -> Result<EpochMetrics, TrainError> {
        let mut loss_sum = 0.0f32;
        let mut nll_sum = 0.0f32;
        let mut steps = 0usize;
        for (image, label) in dataset.iter() {
            let m = self.train_example(image, label)?;
            loss_sum += m.total_loss;
            nll_sum += m.nll;
            steps += 1;
        }
        Ok(EpochMetrics {
            mean_loss: if steps > 0 { loss_sum / steps as f32 } else { 0.0 },
            mean_nll: if steps > 0 { nll_sum / steps as f32 } else { 0.0 },
            steps,
        })
    }

    /// Classification accuracy on a dataset, using Monte-Carlo averaging over
    /// `config.samples` forward passes with evaluation-only ε sources.
    ///
    /// # Errors
    ///
    /// Returns a [`TrainError`] if shapes mismatch.
    pub fn evaluate(&mut self, dataset: &SyntheticDataset) -> Result<f64, TrainError> {
        if dataset.is_empty() {
            return Ok(0.0);
        }
        let eval_config = TrainerConfig { seed: self.config.seed ^ 0x5EED_5EED, ..self.config };
        let mut correct = 0usize;
        for (image, label) in dataset.iter() {
            let mut sources = build_sources(&eval_config)?;
            let probs = self.network.predict(image, &mut sources)?;
            if probs.argmax() == label {
                correct += 1;
            }
        }
        Ok(correct as f64 / dataset.len() as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::variational::BayesConfig;
    use bnn_tensor::Precision;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn tiny_dataset() -> SyntheticDataset {
        SyntheticDataset::generate(&[6], 2, 8, 0.15, 11)
    }

    fn mlp(seed: u64, precision: Precision) -> Network {
        let mut rng = StdRng::seed_from_u64(seed);
        let config =
            BayesConfig { kl_weight: 1e-3, ..BayesConfig::default() }.with_precision(precision);
        Network::bayes_mlp(6, &[12], 2, config, &mut rng)
    }

    #[test]
    fn training_reduces_loss_on_separable_data() {
        let dataset = tiny_dataset();
        let mut trainer = Trainer::new(
            mlp(1, Precision::Fp32),
            TrainerConfig { samples: 4, learning_rate: 0.1, ..TrainerConfig::default() },
        )
        .unwrap();
        let first = trainer.train_epoch(&dataset).unwrap();
        let mut last = first;
        for _ in 0..14 {
            last = trainer.train_epoch(&dataset).unwrap();
        }
        assert!(
            last.mean_nll < first.mean_nll,
            "nll should fall: first {} last {}",
            first.mean_nll,
            last.mean_nll
        );
        let acc = trainer.evaluate(&dataset).unwrap();
        assert!(acc > 0.7, "accuracy {acc}");
    }

    #[test]
    fn store_replay_and_lfsr_retrieve_train_bit_identically() {
        // The paper's central accuracy claim: LFSR reversal changes nothing about training.
        let dataset = tiny_dataset();
        let base =
            TrainerConfig { samples: 3, learning_rate: 0.05, seed: 42, ..TrainerConfig::default() };
        let mut baseline = Trainer::new(
            mlp(7, Precision::Fp32),
            TrainerConfig { strategy: EpsilonStrategy::StoreReplay, ..base },
        )
        .unwrap();
        let mut shift = Trainer::new(
            mlp(7, Precision::Fp32),
            TrainerConfig { strategy: EpsilonStrategy::LfsrRetrieve, ..base },
        )
        .unwrap();
        for _ in 0..3 {
            let mb = baseline.train_epoch(&dataset).unwrap();
            let ms = shift.train_epoch(&dataset).unwrap();
            assert_eq!(mb, ms, "per-epoch metrics must be bit-identical");
        }
        assert!(baseline.stored_epsilons() > 0);
        assert_eq!(shift.stored_epsilons(), 0);
    }

    #[test]
    fn quantized_training_still_learns_with_16_bits() {
        let dataset = tiny_dataset();
        let mut trainer = Trainer::new(
            mlp(3, Precision::PAPER_16BIT),
            TrainerConfig { samples: 2, learning_rate: 0.1, ..TrainerConfig::default() },
        )
        .unwrap();
        for _ in 0..12 {
            trainer.train_epoch(&dataset).unwrap();
        }
        let acc = trainer.evaluate(&dataset).unwrap();
        assert!(acc > 0.6, "16-bit training accuracy {acc}");
    }

    #[test]
    fn stored_epsilon_count_matches_samples_times_weights_per_step() {
        let mut trainer = Trainer::new(
            mlp(5, Precision::Fp32),
            TrainerConfig {
                samples: 2,
                strategy: EpsilonStrategy::StoreReplay,
                ..TrainerConfig::default()
            },
        )
        .unwrap();
        let weights = trainer.network().epsilon_count() as u64;
        let dataset = SyntheticDataset::generate(&[6], 2, 1, 0.1, 1);
        trainer.train_epoch(&dataset).unwrap();
        assert_eq!(trainer.stored_epsilons(), 2 * weights * dataset.len() as u64);
    }

    #[test]
    fn error_type_formats_cleanly() {
        let e = TrainError::Lfsr(LfsrError::ZeroSeed);
        assert!(e.to_string().contains("epsilon source"));
        let e = TrainError::Snapshot("3 captures for 2 samples".into());
        assert!(e.to_string().contains("3 captures"));
    }

    #[test]
    fn snapshot_resume_matches_uninterrupted_training() {
        let dataset = tiny_dataset();
        let config = TrainerConfig { samples: 3, learning_rate: 0.07, ..TrainerConfig::default() };
        let mut uninterrupted = Trainer::new(mlp(9, Precision::Fp32), config).unwrap();
        let mut first_leg = Trainer::new(mlp(9, Precision::Fp32), config).unwrap();
        // First leg: one epoch, then snapshot at the boundary.
        uninterrupted.train_epoch(&dataset).unwrap();
        first_leg.train_epoch(&dataset).unwrap();
        let snapshot = first_leg.snapshot();
        assert_eq!(snapshot.steps, dataset.len() as u64);
        drop(first_leg);
        // Second leg: resumed trainer must replay the uninterrupted run bit-for-bit.
        let mut resumed = Trainer::from_snapshot(&snapshot).unwrap();
        assert_eq!(resumed.steps(), dataset.len() as u64);
        for (image, label) in dataset.iter() {
            let a = uninterrupted.train_example(image, label).unwrap();
            let b = resumed.train_example(image, label).unwrap();
            assert_eq!(a, b, "resumed step metrics diverged");
        }
        let final_a = uninterrupted.snapshot();
        let final_b = resumed.snapshot();
        assert_eq!(final_a.network, final_b.network, "posteriors diverged after resume");
        assert_eq!(final_a.sources, final_b.sources, "GRNG states diverged after resume");
        assert_eq!(final_a.steps, final_b.steps);
    }

    #[test]
    fn from_snapshot_rejects_source_count_mismatch() {
        let trainer = Trainer::new(mlp(2, Precision::Fp32), TrainerConfig::default()).unwrap();
        let mut snapshot = trainer.snapshot();
        snapshot.sources.pop();
        assert!(matches!(Trainer::from_snapshot(&snapshot), Err(TrainError::Snapshot(_))));
    }
}
