//! `serve_mc` and `serve_moment`: serving the B-LeNet serving proxy (3×12×12 input) under
//! S = 16 Monte-Carlo sampling or the single-pass analytic moment backend, on one trace shape.
//!
//! Each run interleaves two phases chunk by chunk, so both see the same machine conditions:
//! the engine (`InferenceEngine::run` at `nproc` workers) answers a chunk of the trace for
//! throughput, then a single client answers the same chunk in a closed loop on a warmed
//! `ServeReplica` for per-request latency.

use std::time::{Duration, Instant};

use bnn_serve::{
    mix_seed, plan_batches, BatchPolicy, EngineSpec, InferRequest, InferResponse, InferenceEngine,
    ModelSource, ModelSpec, ServeMode, ServeReplica, WorkloadSpec,
};
use bnn_tensor::{KernelTier, Tensor};
use bnn_train::snapshot::LayerSnapshot;
use bnn_train::variational::BayesConfig;
use bnn_train::{EpsilonSource, LfsrForward, MomentNetwork, Network, Predictive};

use crate::fingerprint::nproc;
use crate::replay::{self, GemmReplay, GemmShape, ServingReplay};
use crate::speed::{normalize, probe_threads_ns, Speed, REFERENCE_NS};
use crate::stats::{attribute, mean, median};
use crate::trace::{counted, Counters, Tracer};
use crate::train::variational_params;
use crate::{print_speed, print_summary, timed_setup, Args, Outcome};

/// Monte-Carlo samples every request asks for.
pub const SAMPLES: usize = 16;

/// Requests in the generated trace; chunks cycle through it.
const TRACE_REQUESTS: usize = 4096;

/// Ticks between arrivals: with the policy below, the Monte-Carlo engine batches ~3 requests
/// and keeps up with the trace in simulated time.
const INTERARRIVAL_TICKS: u64 = 200;

/// The engine's batching policy.
const POLICY: BatchPolicy = BatchPolicy { max_batch: 8, max_wait_ticks: 512 };

/// Requests the reference and worker-count checks compare.
const CHECK_REQUESTS: usize = 32;

/// Closed-loop answers a run collects at least.
const MIN_ANSWERS: usize = 1000;

/// Tail quantile of the answer time. p99 is left out: on a shared host its spread over
/// identical runs (10–27 %) exceeds any useful bound.
const TAIL_Q: f64 = 0.95;

/// Set-up repetitions (the median is reported).
const SETUP_REPS: usize = 9;

/// Requests per engine chunk: long enough that pool start-up and replica builds amortize.
fn chunk_len(mode: ServeMode) -> usize {
    match mode {
        ServeMode::MonteCarlo => 128,
        ServeMode::Moment => 2048,
    }
}

/// One Bayesian layer of the served network and its forward product per sample.
struct BayesLayer {
    weights: usize,
    conv: bool,
    /// `(m, k, n)` of the forward product: `[cout, cin·k·k]·[cin·k·k, oh·ow]` for a
    /// convolution, `[1, in]·[in, out]` for a linear layer.
    gemm: (usize, usize, usize),
}

/// Walks the network's layer stack from `input`, naming every layer by its real geometry.
fn walk(network: &Network, input: &[usize]) -> (Vec<BayesLayer>, String) {
    let (mut c, mut h, mut w) = match *input {
        [c, h, w] => (c, h, w),
        [n] => (n, 1, 1),
        _ => panic!("unsupported input shape {input:?}"),
    };
    let mut layers = Vec::new();
    let mut names = Vec::new();
    for layer in network.snapshot().layers {
        match layer {
            LayerSnapshot::Conv { geometry: g, .. } => {
                let (oh, ow) = g.output_size(h, w);
                names.push(format!(
                    "conv{k}x{k} {}->{} @{h}x{w}",
                    g.in_channels,
                    g.out_channels,
                    k = g.kernel
                ));
                layers.push(BayesLayer {
                    weights: g.weight_count(),
                    conv: true,
                    gemm: (g.out_channels, g.in_channels * g.kernel * g.kernel, oh * ow),
                });
                (c, h, w) = (g.out_channels, oh, ow);
            }
            LayerSnapshot::Linear { in_features, out_features, .. } => {
                names.push(format!("fc {in_features}->{out_features}"));
                layers.push(BayesLayer {
                    weights: in_features * out_features,
                    conv: false,
                    gemm: (1, in_features, out_features),
                });
                (c, h, w) = (out_features, 1, 1);
            }
            LayerSnapshot::MaxPool { window } => {
                names.push(format!("maxpool{window}"));
                (h, w) = (h / window, w / window);
            }
            LayerSnapshot::Flatten => {
                names.push(format!("flatten {}", c * h * w));
                (c, h, w) = (c * h * w, 1, 1);
            }
            LayerSnapshot::Relu => {}
        }
    }
    (layers, names.join(", "))
}

/// Forward products one request issues: `S` per layer under Monte-Carlo; under the moment
/// backend three per layer (mean, and the two variance terms), linear ones as matvecs.
fn request_shapes(layers: &[BayesLayer], mode: ServeMode) -> Vec<GemmShape> {
    layers
        .iter()
        .map(|l| {
            let (m, k, n) = l.gemm;
            match (mode, l.conv) {
                (ServeMode::MonteCarlo, _) => GemmShape { m, k, n, calls: SAMPLES },
                (ServeMode::Moment, true) => GemmShape { m, k, n, calls: 3 },
                (ServeMode::Moment, false) => GemmShape { m: n, k, n: 1, calls: 3 },
            }
        })
        .collect()
}

fn same_bits(a: &InferResponse, b: &InferResponse) -> bool {
    let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    a.id == b.id
        && a.samples == b.samples
        && bits(&a.mean) == bits(&b.mean)
        && bits(&a.variance) == bits(&b.variance)
        && a.entropy.to_bits() == b.entropy.to_bits()
}

fn well_formed(request: &InferRequest, response: &InferResponse, mode: ServeMode) -> bool {
    let samples = match mode {
        ServeMode::MonteCarlo => request.samples,
        ServeMode::Moment => 0,
    };
    response.id == request.id
        && response.samples == samples
        && !response.mean.is_empty()
        && response.mean.iter().chain(&response.variance).all(|v| v.is_finite())
        && response.entropy.is_finite()
}

fn empty_response() -> InferResponse {
    InferResponse { id: 0, samples: 0, mean: Vec::new(), variance: Vec::new(), entropy: 0.0 }
}

struct Setup {
    trace: Vec<InferRequest>,
    engine: InferenceEngine,
    replica: ServeReplica,
}

/// The public call a serving replica wraps, on a replica of its own.
enum Predictor {
    /// `Network::predictive_fused_into` with S reseeded forward-only sources.
    MonteCarlo { network: Network, sources: Vec<Box<dyn EpsilonSource>>, out: Predictive },
    /// `MomentNetwork::predictive_into`.
    Moment { network: MomentNetwork, out: Predictive },
}

/// Requests per chunk whose predictive call is replayed.
const PREDICTIVE_PER_CHUNK: usize = 8;

/// The traced run's replays, one repetition after every chunk.
struct Replays {
    gemm: GemmReplay,
    /// ε and weight sampling (Monte-Carlo only).
    sampling: Option<ServingReplay>,
    predictor: Predictor,
    /// Time of each replayed predictive call.
    predictive_ns: Vec<f64>,
    /// `plan_batches` time per request, per chunk.
    batcher_ns: Vec<f64>,
}

impl Replays {
    fn new(spec: &ModelSpec, mode: ServeMode, shapes: Vec<GemmShape>) -> Replays {
        let empty = || Predictive {
            mean: Tensor::zeros(&[0]),
            variance: Tensor::zeros(&[0]),
            entropy: 0.0,
            samples: 0,
        };
        let (sampling, predictor) = match mode {
            ServeMode::MonteCarlo => {
                let params = variational_params(&spec.build());
                let sources = (0..SAMPLES)
                    .map(|_| {
                        Box::new(LfsrForward::new(0).expect("default GRNG construction"))
                            as Box<dyn EpsilonSource>
                    })
                    .collect();
                (
                    Some(ServingReplay::new(params, BayesConfig::default(), SAMPLES)),
                    Predictor::MonteCarlo { network: spec.build(), sources, out: empty() },
                )
            }
            ServeMode::Moment => {
                let network = ModelSource::from(spec.clone()).build_moment();
                (None, Predictor::Moment { network, out: empty() })
            }
        };
        Replays {
            gemm: GemmReplay::new(shapes),
            sampling,
            predictor,
            predictive_ns: Vec::new(),
            batcher_ns: Vec::new(),
        }
    }

    /// One repetition of every replay, on the chunk just served.
    fn rep(&mut self, tracer: &mut Tracer, requests: &[InferRequest]) {
        self.gemm.rep(tracer);
        if let Some(sampling) = self.sampling.as_mut() {
            sampling.rep(tracer);
        }
        for request in requests.iter().take(PREDICTIVE_PER_CHUNK) {
            let id = match &mut self.predictor {
                Predictor::MonteCarlo { network, sources, out } => {
                    for (s, source) in sources.iter_mut().enumerate() {
                        source.reseed(mix_seed(request.seed, s as u64));
                    }
                    let id = tracer.begin("network.predictive", Some(request.id));
                    network
                        .predictive_fused_into(&request.input, sources, out)
                        .expect("request matches the network");
                    id
                }
                Predictor::Moment { network, out } => {
                    let id = tracer.begin("moment.predictive", Some(request.id));
                    network
                        .predictive_into(&request.input, out)
                        .expect("request matches the network");
                    id
                }
            };
            tracer.end(id);
            self.predictive_ns.push(tracer.spans()[id].duration() as f64);
        }
        let id = tracer.begin("replay.serve.batcher", None);
        std::hint::black_box(plan_batches(requests, POLICY));
        tracer.end(id);
        self.batcher_ns.push(tracer.spans()[id].duration() as f64 / requests.len() as f64);
    }
}

/// Runs the workload under `mode`.
pub fn run(args: &Args, mode: ServeMode) -> Outcome {
    let mut out = Outcome::default();
    let workers = nproc();
    let spec = ModelSpec::lenet(args.seed);
    let base = EngineSpec::new(spec.clone()).mode(mode).policy(POLICY);
    let (layers, geometry) = walk(&spec.build(), spec.input_shape());
    let weights: usize = layers.iter().map(|l| l.weights).sum();
    let forward_macs: usize = layers.iter().map(|l| l.gemm.0 * l.gemm.1 * l.gemm.2).sum();
    let shapes = request_shapes(&layers, mode);
    let analytic_macs = replay::unit_macs(&shapes);
    let analytic_eps = match mode {
        ServeMode::MonteCarlo => weights * SAMPLES,
        ServeMode::Moment => 0,
    };
    println!(
        "network: B-LeNet serving proxy, input {:?}: {geometry}; {weights} Bayesian weights, \
         {weights} eps per sample, {forward_macs} analytic forward MACs per sample; serving {} \
         (S={SAMPLES}): {analytic_eps} eps and {analytic_macs} analytic MACs per request",
        spec.input_shape(),
        mode.label(),
    );

    let setup_label = format!("trace, engine at {workers} workers, warmed replica");
    let (setup, setup_s, setup_n) = timed_setup(&setup_label, SETUP_REPS, || {
        let trace = WorkloadSpec::uniform(TRACE_REQUESTS, INTERARRIVAL_TICKS, SAMPLES, args.seed)
            .generate(&spec);
        let engine = InferenceEngine::build(base.clone().workers(workers));
        let mut replica = ServeReplica::build(&base);
        replica.answer_into(&trace[0], &mut empty_response());
        Setup { trace, engine, replica }
    });
    let Setup { trace, engine, mut replica } = setup;
    out.metric("setup_s", setup_s, setup_n);

    // Output checks: responses equal a Reference-tier, unfused replica of the same source,
    // and the engine answers byte-identically at 1 and at nproc workers.
    let check = &trace[..CHECK_REQUESTS];
    let parallel = engine.run(check);
    let serial = InferenceEngine::build(base.clone().workers(1)).run(check);
    out.attempted += check.len() as u64;
    out.check(parallel.responses_digest() == serial.responses_digest(), check.len() as u64, || {
        format!("response digests differ between 1 and {workers} workers")
    });
    let mut reference =
        ServeReplica::build(&base.clone().kernel_tier(KernelTier::Reference).fused_sampling(false));
    let mut expected = empty_response();
    let mut closed = empty_response();
    let mut mismatched = 0;
    for (request, response) in check.iter().zip(&parallel.responses) {
        reference.answer_into(request, &mut expected);
        replica.answer_into(request, &mut closed);
        if !(same_bits(&expected, response) && same_bits(&expected, &closed)) {
            mismatched += 1;
        }
    }
    out.check(mismatched == 0, mismatched, || {
        format!("{mismatched} of {CHECK_REQUESTS} responses differ from the Reference-tier replica")
    });

    let mut tracer = if args.trace { Tracer::default() } else { Tracer::off() };
    let mut replays = args.trace.then(|| Replays::new(&spec, mode, shapes.clone()));
    let (mut untraced_ns, mut traced_ns) = (Vec::new(), Vec::new());
    let mut answer_ns = Vec::new();
    let mut counters = Vec::new();
    let (mut raw_rates, mut rates, mut raw_answer_ns) = (Vec::new(), Vec::new(), Vec::new());
    // Closed-loop answers are scaled by speed probes at most 2 ms apart; an engine chunk by
    // probes on every worker's core before and after it.
    let mut speed = Speed::new(Duration::from_millis(2));
    let mut utilisation = Vec::new();
    let (mut answered, mut batches, mut sim_latencies) = (0usize, 0usize, Vec::new());
    let chunk = chunk_len(mode);
    let mut response = empty_response();
    let start = Instant::now();
    let mut offset = 0;
    let mut unit = 0u64;
    while start.elapsed() < args.seconds || (!args.trace && answer_ns.len() < MIN_ANSWERS) {
        let requests = &trace[offset..offset + chunk];
        offset = (offset + chunk) % (TRACE_REQUESTS - TRACE_REQUESTS % chunk);

        let before = probe_threads_ns(workers) / REFERENCE_NS;
        let t = Instant::now();
        let report = tracer.time("serve.engine_run", None, || engine.run(requests));
        let engine_s = t.elapsed().as_secs_f64();
        let after = probe_threads_ns(workers) / REFERENCE_NS;
        raw_rates.push(requests.len() as f64 / engine_s);
        rates.push(requests.len() as f64 / normalize(engine_s, before, after));
        out.attempted += requests.len() as u64;
        let good =
            requests.iter().zip(&report.responses).filter(|(q, r)| well_formed(q, r, mode)).count();
        out.check(
            good == requests.len() && report.responses.len() == requests.len(),
            (requests.len() - good) as u64,
            || format!("engine answered {good} of {} requests well-formed", requests.len()),
        );
        answered += report.responses.len();
        batches += report.batches.len();
        sim_latencies.extend(report.latencies.iter().map(|&l| l as f64));

        // The traced run traces every other answer; the rest are the untraced baseline of
        // the tracing overhead.
        let mut chunk_answer_ns = 0.0;
        for request in requests {
            let tracing = args.trace && unit % 2 == 1;
            let before = speed.factor();
            let t = Instant::now();
            if tracing {
                let ((), c) = counted(|| {
                    tracer.time("serve.answer", Some(unit), || {
                        replica.answer_into(request, &mut response)
                    })
                });
                counters.push(c);
            } else {
                replica.answer_into(request, &mut response);
            }
            let ns = t.elapsed().as_nanos() as f64;
            chunk_answer_ns += ns;
            match (args.trace, tracing) {
                (true, true) => traced_ns.push(ns),
                (true, false) => untraced_ns.push(ns),
                (false, _) => {
                    raw_answer_ns.push(ns);
                    answer_ns.push(normalize(ns, before, speed.factor()));
                }
            }
            out.attempted += 1;
            out.check(well_formed(request, &response, mode), 1, || {
                format!("closed-loop answer to request {} is malformed", request.id)
            });
            unit += 1;
        }
        utilisation.push(chunk_answer_ns / 1e9 / (workers as f64 * engine_s));
        if let Some(replays) = replays.as_mut() {
            replays.rep(&mut tracer, requests);
        }
    }

    if !args.trace {
        let ms = |v: &[f64]| v.iter().map(|ns| ns / 1e6).collect::<Vec<f64>>();
        let label = format!("engine throughput, chunks of {chunk} at {workers} workers");
        print_summary("closed-loop answer, wall clock", "ms", &ms(&raw_answer_ns), TAIL_Q);
        let s =
            print_summary("closed-loop answer, speed-normalized", "ms", &ms(&answer_ns), TAIL_Q);
        print_summary(&format!("{label}, wall clock"), "req/s", &raw_rates, 0.5);
        let r = print_summary(&format!("{label}, speed-normalized"), "req/s", &rates, 0.5);
        println!(
            "  engine aggregate: {} req/s",
            rates.len() as f64 * chunk as f64 / rates.iter().map(|r| chunk as f64 / r).sum::<f64>()
        );
        print_speed(&speed);
        out.metric("throughput_per_s", r.p50, r.n);
        out.metric("latency_p50_ms", s.p50, s.n);
        out.metric("latency_tail_ms", s.tail, s.n);
        return out;
    }

    // Per-layer attribution of a traced closed-loop answer.
    let k = counters.len();
    out.check(k > 0 && !untraced_ns.is_empty(), 0, || {
        "run too short for both untraced and traced answers".to_string()
    });
    let Some(replays) = replays.filter(|_| k > 0 && !untraced_ns.is_empty()) else {
        return out;
    };
    let unit_ns = mean(&traced_ns);
    let per_unit = |f: fn(&Counters) -> u64| counters.iter().map(f).sum::<u64>() as f64 / k as f64;
    let eps = per_unit(|c| c.eps);
    let gemm_macs = per_unit(|c| c.gemm_macs);
    println!(
        "coverage per request: profiled eps {eps} of {analytic_eps} analytic; profiled GEMM MACs \
         {gemm_macs} of {analytic_macs} analytic ({:.3})",
        gemm_macs / analytic_macs as f64
    );
    let (gmacs, gemm_ns) = replays.gemm.rates();
    let predictive_ns = mean(&replays.predictive_ns);
    let mut layer_ns = vec![("tensor.share", gemm_ns)];
    match &replays.sampling {
        Some(sampling) => {
            let (generate, sample) = sampling.rates();
            let n = (weights * SAMPLES) as f64;
            layer_ns.push(("lfsr.share", generate * n));
            layer_ns.push(("variational.share", sample * n));
            out.metric("lfsr.generate_ns_per_eps", generate, sampling.layers());
            out.metric("variational.sample_ns_per_weight", sample, sampling.layers());
            out.metric("network.predictive_us", predictive_ns / 1e3, replays.predictive_ns.len());
        }
        None => {
            layer_ns.push(("moment.share", predictive_ns - gemm_ns));
            out.metric("moment.predictive_us", predictive_ns / 1e3, replays.predictive_ns.len());
        }
    }
    let (shares, unattributed) = attribute(unit_ns, &layer_ns);
    sim_latencies.sort_by(f64::total_cmp);
    let p99 = crate::stats::percentile(&sim_latencies, 0.99);

    out.metric("lfsr.eps_per_unit", eps, k);
    out.metric("tensor.gemm_gmacs_per_s", gmacs, shapes.len());
    out.metric("tensor.gemm_calls", per_unit(|c| c.gemm_calls), k);
    out.metric("tensor.gemm_macs", gemm_macs, k);
    out.metric("tensor.analytic_macs", analytic_macs as f64, 1);
    out.metric("tensor.mac_coverage", gemm_macs / analytic_macs as f64, k);
    let high_water = counters.iter().map(|c| c.scratch_high_water).max().unwrap_or(0);
    out.metric("tensor.scratch_high_water", high_water as f64, k);
    out.metric("serve.batcher_ns_per_req", mean(&replays.batcher_ns), replays.batcher_ns.len());
    out.metric("serve.mean_batch_size", answered as f64 / batches.max(1) as f64, batches);
    out.metric("serve.sim_latency_ticks_p99", p99, sim_latencies.len());
    out.metric("pool.utilisation", median(&utilisation), utilisation.len());
    for (name, share) in shares {
        out.metric(name, share, k);
    }
    out.metric("unit_ms", unit_ns / 1e6, k);
    out.metric("unattributed_share", unattributed, k);
    let baseline = mean(&untraced_ns);
    out.metric("trace.overhead_share", unit_ns / baseline - 1.0, k + untraced_ns.len());
    crate::finish_trace(args, &tracer);
    out
}
