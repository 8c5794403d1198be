//! `train_mlp`: Bayes-by-Backprop training of the paper's B-MLP (784-400-400-400-10) with
//! `TrainerConfig::default()` — S = 8 samples, ε regenerated by reverse LFSR shifting — one
//! example per step, in a closed loop on one thread.

use std::time::{Duration, Instant};

use bnn_tensor::loss::softmax_cross_entropy_owned;
use bnn_tensor::Tensor;
use bnn_train::data::SyntheticDataset;
use bnn_train::snapshot::LayerSnapshot;
use bnn_train::variational::{BayesConfig, VariationalParams};
use bnn_train::{EpsilonSource, EpsilonStrategy, LfsrRetrieve, Network, Trainer, TrainerConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::replay::{self, GemmReplay, GemmShape, TrainingReplay};
use crate::speed::{normalize, Speed};
use crate::stats::{attribute, mean};
use crate::trace::{counted, Counters, Tracer};
use crate::{print_speed, print_summary, timed_setup, Args, Outcome};

/// Layer widths of the paper's B-MLP.
pub const DIMS: [usize; 5] = [784, 400, 400, 400, 10];

/// Examples per class of the synthetic MNIST stand-in the loop cycles through.
const PER_CLASS: usize = 4;

/// Steps the output checks compare against the reference paths before timing starts.
const CHECK_STEPS: usize = 2;

/// Tail quantile of the step time: a run holds 20–45 steps, too few for any tail percentile
/// with ten steps beyond it, so the tail is the median.
const TAIL_Q: f64 = 0.5;

/// Set-up repetitions (the median is reported).
const SETUP_REPS: usize = 9;

/// `(in, out)` of every Bayesian linear layer.
fn layers() -> Vec<(usize, usize)> {
    DIMS.windows(2).map(|w| (w[0], w[1])).collect()
}

/// Bayesian weights (= ε per sample = forward MACs per sample) of the B-MLP.
pub fn weights() -> usize {
    layers().iter().map(|(i, o)| i * o).sum()
}

struct Setup {
    network: Network,
    data: SyntheticDataset,
}

/// The inputs and the untrained posterior, both generated from the workload seed.
fn build(seed: u64) -> Setup {
    let data = SyntheticDataset::generate(&[DIMS[0]], DIMS[4], PER_CLASS, 0.5, seed);
    let mut rng = StdRng::seed_from_u64(seed);
    let network =
        Network::bayes_mlp(DIMS[0], &DIMS[1..4], DIMS[4], BayesConfig::default(), &mut rng);
    Setup { network, data }
}

/// FNV-1a over the bits of every posterior parameter (μ, ρ and bias of each layer).
pub fn posterior_digest(network: &Network) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |t: &Tensor| {
        for v in t.data() {
            for byte in v.to_bits().to_le_bytes() {
                hash = (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
            }
        }
    };
    for layer in network.snapshot().layers {
        if let LayerSnapshot::Linear { weights, bias, .. }
        | LayerSnapshot::Conv { weights, bias, .. } = layer
        {
            eat(weights.mu());
            eat(weights.rho());
            eat(&bias);
        }
    }
    hash
}

/// The Bayesian layers' variational parameters, in layer order.
pub fn variational_params(network: &Network) -> Vec<VariationalParams> {
    network
        .snapshot()
        .layers
        .into_iter()
        .filter_map(|layer| match layer {
            LayerSnapshot::Linear { weights, .. } | LayerSnapshot::Conv { weights, .. } => {
                Some(weights)
            }
            _ => None,
        })
        .collect()
}

/// One ε source per sample, seeded exactly as `Trainer` seeds its own.
fn sources(config: &TrainerConfig) -> Vec<Box<dyn EpsilonSource>> {
    (0..config.samples)
        .map(|s| {
            let seed =
                config.seed.wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(s as u64 + 1));
            Box::new(LfsrRetrieve::new(seed).expect("default GRNG construction"))
                as Box<dyn EpsilonSource>
        })
        .collect()
}

/// One training step driven through the network's public calls, each inside a span: the
/// sequence `Trainer::train_example` runs. Returns the total loss.
fn manual_step(
    network: &mut Network,
    sources: &mut [Box<dyn EpsilonSource>],
    config: &TrainerConfig,
    image: &Tensor,
    label: usize,
    tracer: &mut Tracer,
    unit: u64,
) -> f32 {
    let u = Some(unit);
    let samples = sources.len();
    tracer.time("network.begin_iteration", u, || network.begin_iteration(samples));
    let mut grads = Vec::with_capacity(samples);
    let mut nll_sum = 0.0f32;
    for (s, source) in sources.iter_mut().enumerate() {
        let logits = tracer
            .time("network.forward", u, || network.forward_sample(s, image, source.as_mut()))
            .expect("input matches the network");
        let (nll, grad) =
            tracer.time("tensor.loss", u, || softmax_cross_entropy_owned(logits, label));
        nll_sum += nll;
        grads.push(grad);
    }
    for (s, (source, grad)) in sources.iter_mut().zip(grads).enumerate() {
        let grad_image = tracer
            .time("network.backward", u, || network.backward_sample(s, &grad, source.as_mut()))
            .expect("gradient matches the network");
        network.recycle(grad_image);
        network.recycle(grad);
        tracer.time("lfsr.skip", u, || source.reset_iteration());
    }
    let complexity = tracer.time("trainer.update", u, || {
        let complexity = network.complexity_loss() / samples as f32;
        network.apply_update(config.learning_rate);
        complexity
    });
    nll_sum / samples as f32 + complexity
}

/// GEMM-shaped products of one training step: per layer and sample, the forward matvec, the
/// input-gradient matvec and the weight-gradient outer product.
fn step_gemm_shapes(samples: usize) -> Vec<GemmShape> {
    layers()
        .into_iter()
        .flat_map(|(i, o)| {
            [
                GemmShape { m: o, k: i, n: 1, calls: samples },
                GemmShape { m: i, k: o, n: 1, calls: samples },
                GemmShape { m: o, k: 1, n: i, calls: samples },
            ]
        })
        .collect()
}

fn describe(config: &TrainerConfig) {
    let w = weights();
    println!(
        "network: B-MLP {} (Network::bayes_mlp), {w} Bayesian weights, {w} eps per sample, \
         {w} analytic forward MACs per sample; training S={} with {:?}, {} analytic MACs per \
         step (forward, input gradient, weight gradient)",
        DIMS.map(|d| d.to_string()).join("-"),
        config.samples,
        config.strategy,
        3 * w * config.samples,
    );
}

fn print_coverage(c: &Counters, samples: usize) {
    let analytic_eps = (weights() * samples) as f64;
    let analytic_macs = (3 * weights() * samples) as f64;
    println!(
        "coverage per step: profiled eps {} of {} analytic ({:.3}); profiled GEMM MACs {} of {} \
         analytic ({:.3}) in {} tiered GEMM calls",
        c.eps,
        analytic_eps,
        c.eps as f64 / analytic_eps,
        c.gemm_macs,
        analytic_macs,
        c.gemm_macs as f64 / analytic_macs,
        c.gemm_calls,
    );
}

/// Runs the workload.
pub fn run(args: &Args) -> Outcome {
    let config = TrainerConfig::default();
    describe(&config);
    let mut out = Outcome::default();
    let (setup, setup_s, setup_n) = timed_setup("dataset, network, trainer", SETUP_REPS, || {
        let Setup { network, data } = build(args.seed);
        (Trainer::new(network, config).expect("default trainer config is valid"), data)
    });
    let (mut trainer, data) = setup;
    out.metric("setup_s", setup_s, setup_n);
    if args.trace {
        traced(args, &config, trainer, &data, &mut out);
        return out;
    }

    // Output check, doubling as warm-up: the Shift-BNN retrieval trainer and the baseline
    // store-and-replay trainer must produce bit-identical posteriors.
    let mut baseline = Trainer::new(
        build(args.seed).network,
        TrainerConfig { strategy: EpsilonStrategy::StoreReplay, ..config },
    )
    .expect("baseline trainer config is valid");
    for step in 0..CHECK_STEPS {
        let (image, label) = data.example(step % data.len());
        let (shift, counters) = counted(|| trainer.train_example(image, label));
        let replay = baseline.train_example(image, label);
        out.attempted += 1;
        let same = match (&shift, &replay) {
            (Ok(a), Ok(b)) => {
                a.total_loss.to_bits() == b.total_loss.to_bits()
                    && a.total_loss.is_finite()
                    && posterior_digest(trainer.network()) == posterior_digest(baseline.network())
            }
            _ => false,
        };
        out.check(same, 1, || {
            format!("step {step}: LfsrRetrieve and StoreReplay posteriors differ")
        });
        if step == 0 {
            print_coverage(&counters, config.samples);
        }
    }
    drop(baseline);

    // Each step is timed between two speed probes and scaled to the reference speed.
    let (mut raw_ms, mut step_ms) = (Vec::new(), Vec::new());
    let mut speed = Speed::new(Duration::ZERO);
    let mut before = speed.factor();
    let start = Instant::now();
    let mut step = CHECK_STEPS;
    while start.elapsed() < args.seconds {
        let (image, label) = data.example(step % data.len());
        let t = Instant::now();
        let result = trainer.train_example(image, label);
        let ms = t.elapsed().as_secs_f64() * 1e3;
        let after = speed.factor();
        raw_ms.push(ms);
        step_ms.push(normalize(ms, before, after));
        before = after;
        out.attempted += 1;
        match result {
            Ok(m) if m.total_loss.is_finite() => {}
            Ok(m) => {
                out.check(false, 1, || format!("step {step}: non-finite loss {}", m.total_loss))
            }
            Err(e) => out.check(false, 1, || format!("step {step}: {e}")),
        }
        step += 1;
    }
    let stored = trainer.stored_epsilons();
    out.check(stored == 0, 0, || format!("LFSR retrieval stored {stored} eps"));

    print_summary("step time, wall clock", "ms", &raw_ms, TAIL_Q);
    let s = print_summary("step time, speed-normalized", "ms", &step_ms, TAIL_Q);
    print_speed(&speed);
    out.metric("throughput_per_s", s.n as f64 / (step_ms.iter().sum::<f64>() / 1e3), s.n);
    out.metric("latency_p50_ms", s.p50, s.n);
    out.metric("latency_tail_ms", s.tail, s.n);
    out
}

/// The traced run: steps driven through the network's public calls inside spans, then
/// replays of the layer primitives on the step's exact shapes.
fn traced(
    args: &Args,
    config: &TrainerConfig,
    mut reference: Trainer,
    data: &SyntheticDataset,
    out: &mut Outcome,
) {
    let mut network = build(args.seed).network;
    let mut sources = sources(config);
    let mut off = Tracer::off();

    // Output check: driving the public calls directly gives the trainer's posterior bits.
    for step in 0..CHECK_STEPS {
        let (image, label) = data.example(step % data.len());
        let (loss, counters) =
            counted(|| manual_step(&mut network, &mut sources, config, image, label, &mut off, 0));
        let expected = reference.train_example(image, label);
        out.attempted += 1;
        let same = matches!(&expected, Ok(m) if m.total_loss.to_bits() == loss.to_bits())
            && posterior_digest(&network) == posterior_digest(reference.network());
        out.check(same, 1, || {
            format!("step {step}: manual drive and Trainer::train_example differ")
        });
        if step == 0 {
            print_coverage(&counters, config.samples);
        }
    }
    drop(reference);

    // Every other step is traced; the rest are the untraced baseline of the tracing overhead.
    // Each traced step is followed by one replay of the layer primitives on the step's shapes.
    let mut untraced = Vec::new();
    let mut tracer = Tracer::default();
    let mut counters = Vec::new();
    let mut primitives = TrainingReplay::new(variational_params(&network), BayesConfig::default());
    let mut gemm = GemmReplay::new(step_gemm_shapes(config.samples));
    let start = Instant::now();
    let mut step = CHECK_STEPS as u64;
    while start.elapsed() < args.seconds {
        let (image, label) = data.example(step as usize % data.len());
        let loss = if step % 2 == 1 {
            let (loss, c) = counted(|| {
                let id = tracer.begin("trainer.step", Some(step));
                let loss = manual_step(
                    &mut network,
                    &mut sources,
                    config,
                    image,
                    label,
                    &mut tracer,
                    step,
                );
                tracer.end(id);
                loss
            });
            counters.push(c);
            primitives.rep(&mut tracer);
            gemm.rep(&mut tracer);
            loss
        } else {
            let t = Instant::now();
            let loss =
                manual_step(&mut network, &mut sources, config, image, label, &mut off, step);
            untraced.push(t.elapsed().as_nanos() as f64);
            loss
        };
        out.attempted += 1;
        out.check(loss.is_finite(), 1, || format!("step {step}: non-finite loss {loss}"));
        step += 1;
    }
    let stored: u64 = sources.iter().map(|s| s.stored_values()).sum();
    out.check(stored == 0, 0, || format!("LFSR retrieval stored {stored} eps"));
    out.check(!counters.is_empty() && !untraced.is_empty(), 0, || {
        "run too short for both an untraced and a traced step".to_string()
    });
    if counters.is_empty() || untraced.is_empty() {
        return;
    }

    let rates = primitives.rates();
    let (gmacs, gemm_ns) = gemm.rates();
    let shapes = gemm.shapes();
    let steps = counters.len() as f64;
    let per_step = |name: &str| tracer.total(name) as f64 / steps;
    let step_ns = per_step("trainer.step");
    let untraced_ns = mean(&untraced);

    let n = (weights() * config.samples) as f64;
    let skip_ns = per_step("lfsr.skip");
    let layer_ns = [
        ("lfsr.share", (rates.generate + rates.retrieve) * n + skip_ns),
        ("variational.share", (2.0 * rates.sample + rates.complexity + rates.grad) * n),
        ("tensor.share", gemm_ns + per_step("tensor.loss")),
        ("trainer.share", per_step("trainer.update")),
    ];
    let (shares, unattributed) = attribute(step_ns, &layer_ns);

    let k = counters.len();
    let per_unit = |f: fn(&Counters) -> u64| counters.iter().map(f).sum::<u64>() as f64 / steps;
    let analytic = replay::unit_macs(shapes) as f64;
    let layers = primitives.layers();
    out.metric("lfsr.generate_ns_per_eps", rates.generate, layers);
    out.metric("lfsr.retrieve_ns_per_eps", rates.retrieve, layers);
    out.metric("lfsr.skip_ns_per_eps", skip_ns / n, k * config.samples);
    out.metric("lfsr.eps_per_unit", per_unit(|c| c.eps), k);
    out.metric("lfsr.stored_eps", stored as f64, k);
    out.metric("variational.sample_ns_per_weight", rates.sample, layers);
    out.metric("variational.grad_ns_per_weight", rates.grad, layers);
    out.metric("variational.complexity_ns_per_weight", rates.complexity, layers);
    out.metric("tensor.gemm_gmacs_per_s", gmacs, shapes.len());
    out.metric("tensor.gemm_calls", per_unit(|c| c.gemm_calls), k);
    out.metric("tensor.gemm_macs", per_unit(|c| c.gemm_macs), k);
    out.metric("tensor.analytic_macs", analytic, 1);
    out.metric("tensor.mac_coverage", per_unit(|c| c.gemm_macs) / analytic, k);
    let high_water = counters.iter().map(|c| c.scratch_high_water).max().unwrap_or(0);
    out.metric("tensor.scratch_high_water", high_water as f64, k);
    out.metric("network.forward_ms", per_step("network.forward") / 1e6, k);
    out.metric("network.backward_ms", per_step("network.backward") / 1e6, k);
    out.metric("trainer.update_ms", per_step("trainer.update") / 1e6, k);
    for (name, share) in shares {
        out.metric(name, share, k);
    }
    out.metric("unit_ms", step_ns / 1e6, k);
    out.metric("unattributed_share", unattributed, k);
    out.metric("trace.overhead_share", step_ns / untraced_ns - 1.0, k + untraced.len());
    crate::finish_trace(args, &tracer);
}
