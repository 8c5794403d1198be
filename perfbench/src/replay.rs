//! Replays of each layer's public primitive on a workload's exact block and GEMM shapes.
//!
//! The program's own calls into these primitives happen inside opaque public entry points, so
//! the traced run times the primitives separately, on the same shapes, and multiplies the rate
//! by the call counts one unit makes (from geometry and the profile counters). A replay runs
//! one repetition between units of work, so replays and units sample the host's changing speed
//! alike; rates are means over all repetitions. Every repetition is a span of the traced run.

use std::hint::black_box;

use bnn_tensor::kernels::gemm_accumulate_tiered;
use bnn_tensor::{KernelConfig, Tensor};
use bnn_train::variational::{BayesConfig, VariationalParams};
use bnn_train::{EpsilonSource, LfsrForward, LfsrRetrieve};

use crate::trace::Tracer;

/// Seed of the replayed generators (the rates do not depend on it).
const REPLAY_SEED: u64 = 0x5EED;

/// Total time per span name over every repetition.
#[derive(Debug, Default)]
struct Totals(Vec<(&'static str, f64)>);

impl Totals {
    /// Runs `f` inside a span named `name` and adds its duration to the name's total.
    fn time(&mut self, tracer: &mut Tracer, name: &'static str, f: impl FnOnce()) {
        let id = tracer.begin(name, None);
        f();
        tracer.end(id);
        let ns = tracer.spans()[id].duration() as f64;
        match self.0.iter_mut().find(|(n, _)| *n == name) {
            Some(entry) => entry.1 += ns,
            None => self.0.push((name, ns)),
        }
    }

    /// Mean time per element of `name`, over `elements` elements in all repetitions.
    fn per(&self, name: &str, elements: usize) -> f64 {
        let ns = self.0.iter().find(|(n, _)| *n == name).map_or(0.0, |e| e.1);
        if elements == 0 {
            0.0
        } else {
            ns / elements as f64
        }
    }
}

/// Nanoseconds per ε or per weight of each primitive one training sample runs.
#[derive(Debug, Clone, Copy)]
pub struct TrainingRates {
    /// `LfsrRetrieve::generate_block_into`, ns per ε.
    pub generate: f64,
    /// `LfsrRetrieve::retrieve_block_into`, ns per ε.
    pub retrieve: f64,
    /// `VariationalParams::sample_into` (`w = μ + ε·softplus(ρ)`), ns per weight.
    pub sample: f64,
    /// `VariationalParams::complexity_loss`, ns per weight.
    pub complexity: f64,
    /// `VariationalParams::accumulate_gradients`, ns per weight.
    pub grad: f64,
}

/// One training sample's ε and weight work, replayed in the order the layers run it: forward,
/// per layer, generate → sample → complexity; backward, per layer in reverse, retrieve →
/// sample → gradient; then the iteration reset.
pub struct TrainingReplay {
    params: Vec<VariationalParams>,
    config: BayesConfig,
    source: LfsrRetrieve,
    epsilons: Vec<Vec<f32>>,
    weights: Vec<Tensor>,
    grads: Vec<Tensor>,
    totals: Totals,
    reps: usize,
}

impl TrainingReplay {
    /// Prepares the replay over `params` (one entry per Bayesian layer).
    pub fn new(params: Vec<VariationalParams>, config: BayesConfig) -> TrainingReplay {
        TrainingReplay {
            source: LfsrRetrieve::new(REPLAY_SEED).expect("default GRNG construction"),
            epsilons: params.iter().map(|p| vec![0.0; p.len()]).collect(),
            weights: params.iter().map(|p| Tensor::zeros(p.shape())).collect(),
            grads: params
                .iter()
                .map(|p| {
                    Tensor::from_vec(p.shape().to_vec(), vec![1e-3; p.len()]).expect("layer shape")
                })
                .collect(),
            params,
            config,
            totals: Totals::default(),
            reps: 0,
        }
    }

    /// Bayesian layers replayed.
    pub fn layers(&self) -> usize {
        self.params.len()
    }

    /// Replays one sample.
    pub fn rep(&mut self, tracer: &mut Tracer) {
        let Self { params, config, source, epsilons, weights, grads, totals, .. } = self;
        for ((p, e), w) in params.iter().zip(epsilons.iter_mut()).zip(weights.iter_mut()) {
            totals.time(tracer, "replay.lfsr.generate", || source.generate_block_into(e));
            totals.time(tracer, "replay.variational.sample", || {
                p.sample_into(e, config.precision, w)
            });
            totals.time(tracer, "replay.variational.complexity", || {
                black_box(p.complexity_loss(w, e, config.prior_sigma));
            });
        }
        for (((p, e), w), g) in
            params.iter_mut().zip(epsilons.iter_mut()).zip(weights.iter_mut()).zip(&*grads).rev()
        {
            totals.time(tracer, "replay.lfsr.retrieve", || source.retrieve_block_into(e));
            totals.time(tracer, "replay.variational.sample", || {
                p.sample_into(e, config.precision, w)
            });
            totals.time(tracer, "replay.variational.grad", || {
                p.accumulate_gradients(g, w, e, config)
            });
        }
        source.reset_iteration();
        black_box(&weights);
        self.reps += 1;
    }

    /// Mean rates over every repetition so far.
    pub fn rates(&self) -> TrainingRates {
        let n = self.params.iter().map(VariationalParams::len).sum::<usize>() * self.reps;
        TrainingRates {
            generate: self.totals.per("replay.lfsr.generate", n),
            retrieve: self.totals.per("replay.lfsr.retrieve", n),
            sample: self.totals.per("replay.variational.sample", 2 * n),
            complexity: self.totals.per("replay.variational.complexity", n),
            grad: self.totals.per("replay.variational.grad", n),
        }
    }
}

/// One Monte-Carlo request's ε and weight work as the fused serving path runs it: per layer,
/// for each of `samples` reseeded forward-only sources, generate → sample.
pub struct ServingReplay {
    params: Vec<VariationalParams>,
    config: BayesConfig,
    sources: Vec<LfsrForward>,
    epsilons: Vec<Vec<f32>>,
    weights: Vec<Tensor>,
    totals: Totals,
    reps: u64,
}

impl ServingReplay {
    /// Prepares the replay over `params` with `samples` sources.
    pub fn new(params: Vec<VariationalParams>, config: BayesConfig, samples: usize) -> Self {
        ServingReplay {
            sources: (0..samples)
                .map(|_| LfsrForward::new(REPLAY_SEED).expect("default GRNG construction"))
                .collect(),
            epsilons: params.iter().map(|p| vec![0.0; p.len()]).collect(),
            weights: params.iter().map(|p| Tensor::zeros(p.shape())).collect(),
            params,
            config,
            totals: Totals::default(),
            reps: 0,
        }
    }

    /// Bayesian layers replayed.
    pub fn layers(&self) -> usize {
        self.params.len()
    }

    /// Replays one request.
    pub fn rep(&mut self, tracer: &mut Tracer) {
        let Self { params, config, sources, epsilons, weights, totals, reps } = self;
        for (s, source) in sources.iter_mut().enumerate() {
            source.reseed(REPLAY_SEED ^ (*reps << 8) ^ s as u64);
        }
        for ((p, e), w) in params.iter().zip(epsilons.iter_mut()).zip(weights.iter_mut()) {
            for source in sources.iter_mut() {
                totals.time(tracer, "replay.lfsr.generate", || source.generate_block_into(e));
                totals.time(tracer, "replay.variational.sample", || {
                    p.sample_into(e, config.precision, w)
                });
            }
        }
        black_box(&weights);
        *reps += 1;
    }

    /// Mean ns per ε generated and per weight sampled over every repetition so far.
    pub fn rates(&self) -> (f64, f64) {
        let n = self.params.iter().map(VariationalParams::len).sum::<usize>()
            * self.sources.len()
            * self.reps as usize;
        (
            self.totals.per("replay.lfsr.generate", n),
            self.totals.per("replay.variational.sample", n),
        )
    }
}

/// One GEMM shape of a unit: `C[m,n] += A[m,k]·B[k,n]`, issued `calls` times per unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GemmShape {
    /// Rows of A and C.
    pub m: usize,
    /// Inner dimension.
    pub k: usize,
    /// Columns of B and C.
    pub n: usize,
    /// Calls per unit of work.
    pub calls: usize,
}

impl GemmShape {
    /// Multiply-accumulates of one call.
    pub fn macs(&self) -> usize {
        self.m * self.k * self.n
    }
}

/// Multiply-accumulates per unit over `shapes`.
pub fn unit_macs(shapes: &[GemmShape]) -> usize {
    shapes.iter().map(|s| s.macs() * s.calls).sum()
}

/// A unit's products replayed through the tiered GEMM entry point with the default kernel
/// configuration, each shape as often as one unit issues it.
pub struct GemmReplay {
    shapes: Vec<GemmShape>,
    operands: Vec<(Vec<f32>, Vec<f32>, Vec<f32>)>,
    ns: f64,
    reps: usize,
}

impl GemmReplay {
    /// Prepares operands for every shape.
    pub fn new(shapes: Vec<GemmShape>) -> GemmReplay {
        let operands = shapes
            .iter()
            .map(|s| {
                let a = (0..s.m * s.k).map(|i| (i % 7) as f32 * 0.01).collect();
                let b = (0..s.k * s.n).map(|i| (i % 5) as f32 * 0.02).collect();
                (a, b, vec![0.0f32; s.m * s.n])
            })
            .collect();
        GemmReplay { shapes, operands, ns: 0.0, reps: 0 }
    }

    /// Shapes replayed.
    pub fn shapes(&self) -> &[GemmShape] {
        &self.shapes
    }

    /// Replays one unit's products.
    pub fn rep(&mut self, tracer: &mut Tracer) {
        let cfg = KernelConfig::default();
        for (shape, (a, b, c)) in self.shapes.iter().zip(self.operands.iter_mut()) {
            let id = tracer.begin("replay.tensor.gemm", None);
            for _ in 0..shape.calls {
                gemm_accumulate_tiered(cfg, c, a, b, shape.m, shape.k, shape.n);
            }
            tracer.end(id);
            self.ns += tracer.spans()[id].duration() as f64;
            black_box(&c);
        }
        self.reps += 1;
    }

    /// The rate in GMAC/s and the mean GEMM time of one unit in nanoseconds.
    pub fn rates(&self) -> (f64, f64) {
        let unit_ns = self.ns / self.reps.max(1) as f64;
        (unit_macs(&self.shapes) as f64 / unit_ns, unit_ns)
    }
}
