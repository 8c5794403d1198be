//! The numeric hot-path microbenchmark suite behind the `hot_bench` binary.
//!
//! Three families of measurements, all pure functions of their seeds:
//!
//! * **conv kernels** — the packed im2col+GEMM drivers of [`bnn_tensor::kernels`] against the
//!   retained reference loop nests of [`bnn_tensor::conv::reference`], per geometry and per
//!   direction (forward / grad-input / grad-weights). Each comparison also *checks* the two
//!   paths produce bit-identical outputs and records an FNV-1a digest of the result bits —
//!   the digests (not the timings) go into the committed `BENCH_hot_summary.json`;
//! * **ε generation** — word-parallel [`Grng::fill_epsilon`](bnn_lfsr::Grng::fill_epsilon)
//!   against the bit-serial `next_epsilon` loop, plus a stream digest;
//! * **steady-state probes** — a full training iteration ([`TrainingProbe`]) and a served
//!   request ([`ServeProbe`]), used by the allocation-counting test and by `hot_bench` to
//!   assert the zero-allocation steady state at the allocator.
//!
//! Wall-clock numbers are machine-dependent and therefore live only in the full
//! `BENCH_hot.json` artifact and the printed table, never in the committed summary.

use bnn_lfsr::{Grng, GrngMode};
use bnn_obs::{Event, Recorder, TraceRecorder};
use bnn_serve::{
    BatchPolicy, EngineSpec, InferRequest, InferResponse, InferenceEngine, ModelSpec, ServeReplica,
    WorkloadSpec,
};
use bnn_tensor::conv::{reference, ConvGeometry};
use bnn_tensor::kernels::{
    conv2d_backward_input_into, conv2d_backward_weights_into, conv2d_forward_into,
    gemm_accumulate_tiered,
};
use bnn_tensor::{KernelConfig, KernelTier, Precision, Scratch, Tensor};
use bnn_train::trainer::{Trainer, TrainerConfig};
use bnn_train::variational::BayesConfig;
use bnn_train::{LayerSnapshot, Network};
use rand::rngs::StdRng;
use rand::SeedableRng;
use shift_bnn::sweep::json::Json;
use std::time::Instant;

/// FNV-1a digest of a float slice's bit patterns, as 16 hex characters (the workspace-shared
/// [`fnv1a_hex`](shift_bnn::sweep::json::fnv1a_hex) over the little-endian bit stream).
pub fn digest_f32(values: &[f32]) -> String {
    shift_bnn::sweep::json::fnv1a_hex(values.iter().flat_map(|v| v.to_bits().to_le_bytes()))
}

/// Deterministic pseudo-random tensor fill in roughly [−1, 1] (the shared splitmix64 fixture
/// generator from `bnn_tensor::init` — the committed digests depend on this exact stream).
pub fn fill_tensor(seed: u64, shape: &[usize]) -> Tensor {
    bnn_tensor::init::splitmix_tensor(seed, shape)
}

/// One benchmarked convolution geometry (name, layer geometry, input spatial size).
#[derive(Debug, Clone)]
pub struct HotGeometry {
    /// Short stable identifier used in reports and the committed summary.
    pub name: &'static str,
    /// The convolution parameters.
    pub geom: ConvGeometry,
    /// Input height.
    pub h: usize,
    /// Input width.
    pub w: usize,
}

/// The benchmarked geometry grid: the two trainable-proxy convolution layers that every
/// training golden exercises, plus two serving-scale layers where the tiled GEMM's arithmetic
/// intensity actually shows.
pub fn hot_geometries() -> Vec<HotGeometry> {
    let c = |ic, oc, k, s, p| ConvGeometry {
        in_channels: ic,
        out_channels: oc,
        kernel: k,
        stride: s,
        padding: p,
    };
    vec![
        HotGeometry { name: "proxy_conv1_1x6_k3_8x8", geom: c(1, 6, 3, 1, 1), h: 8, w: 8 },
        HotGeometry { name: "proxy_conv2_6x16_k3_4x4", geom: c(6, 16, 3, 1, 1), h: 4, w: 4 },
        HotGeometry { name: "serve_conv_8x16_k3_16x16", geom: c(8, 16, 3, 1, 1), h: 16, w: 16 },
        HotGeometry { name: "serve_conv_16x32_k3_32x32", geom: c(16, 32, 3, 1, 1), h: 32, w: 32 },
        HotGeometry {
            name: "serve_conv_16x32_k5_s2_16x16",
            geom: c(16, 32, 5, 2, 2),
            h: 16,
            w: 16,
        },
    ]
}

/// Timing + bit-exactness result of one (geometry, direction) comparison.
#[derive(Debug, Clone)]
pub struct KernelBench {
    /// Geometry identifier.
    pub name: &'static str,
    /// `"forward"`, `"grad_input"` or `"grad_weights"`.
    pub op: &'static str,
    /// Best-of-reps time of the retained reference loops, in nanoseconds per call.
    pub reference_ns: f64,
    /// Best-of-reps time of the packed im2col+GEMM kernel, in nanoseconds per call.
    pub packed_ns: f64,
    /// FNV-1a digest of the (bit-identical) output of both paths.
    pub digest: String,
}

impl KernelBench {
    /// reference / packed wall-clock ratio.
    pub fn speedup(&self) -> f64 {
        self.reference_ns / self.packed_ns
    }
}

fn best_of<R>(reps: usize, mut f: impl FnMut() -> R) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps.max(1) {
        let start = Instant::now();
        std::hint::black_box(f());
        best = best.min(start.elapsed().as_nanos() as f64);
    }
    best
}

/// Runs the conv-kernel comparison over [`hot_geometries`].
///
/// # Panics
///
/// Panics if the packed and reference outputs are not bit-identical (the rewrite's core
/// contract; also pinned by proptests in `crates/tensor`).
pub fn run_kernel_benches(reps: usize) -> Vec<KernelBench> {
    let mut out = Vec::new();
    let mut scratch = Scratch::new();
    for hg in hot_geometries() {
        let g = &hg.geom;
        let (n, m, k) = (g.in_channels, g.out_channels, g.kernel);
        let (oh, ow) = g.output_size(hg.h, hg.w);
        let input = fill_tensor(0xA11CE ^ n as u64, &[n, hg.h, hg.w]);
        let weights = fill_tensor(0xB0B ^ m as u64, &[m, n, k, k]);
        let bias = fill_tensor(0xBEEF, &[m]);
        let grad_out = fill_tensor(0xD00D ^ m as u64, &[m, oh, ow]);

        // Forward.
        let want = reference::conv2d_forward(g, &input, &weights, &bias).unwrap();
        let mut got = scratch.take_tensor(&[m, oh, ow]);
        conv2d_forward_into(g, &input, &weights, &bias, &mut got, &mut scratch).unwrap();
        assert_bits(&got, &want, hg.name, "forward");
        let reference_ns =
            best_of(reps, || reference::conv2d_forward(g, &input, &weights, &bias).unwrap());
        let packed_ns = best_of(reps, || {
            conv2d_forward_into(g, &input, &weights, &bias, &mut got, &mut scratch).unwrap()
        });
        out.push(KernelBench {
            name: hg.name,
            op: "forward",
            reference_ns,
            packed_ns,
            digest: digest_f32(want.data()),
        });
        scratch.put_tensor(got);

        // Input gradient.
        let want = reference::conv2d_backward_input(g, &grad_out, &weights, hg.h, hg.w).unwrap();
        let mut got = scratch.take_tensor(&[n, hg.h, hg.w]);
        conv2d_backward_input_into(g, &grad_out, &weights, hg.h, hg.w, &mut got, &mut scratch)
            .unwrap();
        assert_bits(&got, &want, hg.name, "grad_input");
        let reference_ns = best_of(reps, || {
            reference::conv2d_backward_input(g, &grad_out, &weights, hg.h, hg.w).unwrap()
        });
        let packed_ns = best_of(reps, || {
            conv2d_backward_input_into(g, &grad_out, &weights, hg.h, hg.w, &mut got, &mut scratch)
                .unwrap()
        });
        out.push(KernelBench {
            name: hg.name,
            op: "grad_input",
            reference_ns,
            packed_ns,
            digest: digest_f32(want.data()),
        });
        scratch.put_tensor(got);

        // Weight gradient.
        let (want_gw, want_gb) = reference::conv2d_backward_weights(g, &input, &grad_out).unwrap();
        let mut gw = scratch.take_tensor(&[m, n, k, k]);
        let mut gb = scratch.take_tensor(&[m]);
        conv2d_backward_weights_into(g, &input, &grad_out, &mut gw, &mut gb, &mut scratch).unwrap();
        assert_bits(&gw, &want_gw, hg.name, "grad_weights");
        assert_bits(&gb, &want_gb, hg.name, "grad_bias");
        let reference_ns =
            best_of(reps, || reference::conv2d_backward_weights(g, &input, &grad_out).unwrap());
        let packed_ns = best_of(reps, || {
            conv2d_backward_weights_into(g, &input, &grad_out, &mut gw, &mut gb, &mut scratch)
                .unwrap()
        });
        out.push(KernelBench {
            name: hg.name,
            op: "grad_weights",
            reference_ns,
            packed_ns,
            digest: digest_f32(want_gw.data()),
        });
        scratch.put_tensor(gw);
        scratch.put_tensor(gb);
    }
    out
}

fn assert_bits(got: &Tensor, want: &Tensor, name: &str, op: &str) {
    assert_eq!(got.shape(), want.shape(), "{name}/{op} shape");
    for (i, (g, w)) in got.data().iter().zip(want.data()).enumerate() {
        assert_eq!(g.to_bits(), w.to_bits(), "{name}/{op}[{i}]: {g} vs {w}");
    }
}

/// Per-[`KernelTier`] timing of one GEMM shape (PR 8's tier arms): every tier runs the same
/// `C += A·B`, the bit-exact tiers are asserted `to_bits()`-identical to the reference tier,
/// and `FastMath` — allowed to reassociate — records its own digest unasserted.
#[derive(Debug, Clone)]
pub struct TierBench {
    /// Shape identifier (`gemm_<m>x<k>x<n>`-style).
    pub name: &'static str,
    /// Rows of `A` / `C`.
    pub m: usize,
    /// The contraction depth.
    pub k: usize,
    /// Columns of `B` / `C`.
    pub n: usize,
    /// Best-of-reps nanoseconds per call, one entry per tier in [`KernelTier::ALL`] order.
    pub tier_ns: Vec<(KernelTier, f64)>,
    /// FNV-1a digest of the reference-tier result (shared by every bit-exact tier).
    pub digest: String,
}

impl TierBench {
    /// Best-of-reps time of one tier.
    ///
    /// # Panics
    ///
    /// Panics if `tier` was not benchmarked.
    pub fn ns(&self, tier: KernelTier) -> f64 {
        self.tier_ns.iter().find(|(t, _)| *t == tier).expect("tier was benchmarked").1
    }

    /// The headline tier ratio: the `Reference` oracle over the default SIMD tier.
    pub fn simd_speedup(&self) -> f64 {
        self.ns(KernelTier::Reference) / self.ns(KernelTier::Simd)
    }
}

/// The tier-arm GEMM shapes: the im2col products of the serving-scale conv geometries (the
/// shapes where tiers separate) plus one deeper-contraction panel.
fn tier_shapes() -> [(&'static str, usize, usize, usize); 3] {
    [
        ("gemm_16x72x256", 16, 72, 256),
        ("gemm_32x144x1024", 32, 144, 1024),
        ("gemm_64x288x1024", 64, 288, 1024),
    ]
}

/// Runs every [`KernelTier`] over the tier-arm GEMM shapes.
///
/// # Panics
///
/// Panics if any tier in [`KernelTier::BIT_EXACT`] — serial or M-split across 3 GEMM
/// workers — is not bit-identical to the reference tier.
pub fn run_tier_benches(reps: usize) -> Vec<TierBench> {
    tier_shapes()
        .into_iter()
        .map(|(name, m, k, n)| {
            let a = fill_tensor(0x7E12 ^ m as u64, &[m, k]);
            let b = fill_tensor(0x7E34 ^ n as u64, &[k, n]);
            let mut want = vec![0.0f32; m * n];
            gemm_accumulate_tiered(
                KernelConfig { tier: KernelTier::Reference, gemm_workers: 1 },
                &mut want,
                a.data(),
                b.data(),
                m,
                k,
                n,
            );
            let digest = digest_f32(&want);
            let mut c = vec![0.0f32; m * n];
            let mut tier_ns = Vec::new();
            for tier in KernelTier::ALL {
                for gemm_workers in [1usize, 3] {
                    let cfg = KernelConfig { tier, gemm_workers };
                    c.fill(0.0);
                    gemm_accumulate_tiered(cfg, &mut c, a.data(), b.data(), m, k, n);
                    if KernelTier::BIT_EXACT.contains(&tier) {
                        for (i, (g, w)) in c.iter().zip(&want).enumerate() {
                            assert_eq!(
                                g.to_bits(),
                                w.to_bits(),
                                "{name}: tier {} × {gemm_workers} workers diverged at [{i}]",
                                tier.label()
                            );
                        }
                    }
                }
                let cfg = KernelConfig { tier, gemm_workers: 1 };
                let ns = best_of(reps, || {
                    c.fill(0.0);
                    gemm_accumulate_tiered(cfg, &mut c, a.data(), b.data(), m, k, n);
                });
                tier_ns.push((tier, ns));
            }
            TierBench { name, m, k, n, tier_ns, digest }
        })
        .collect()
}

/// Timing of fused-sampling serving against the per-sample path (PR 8's fused arm): one
/// frozen B-LeNet replica answering `S = 16` Monte-Carlo requests both ways, asserted
/// byte-identical before either is timed.
#[derive(Debug, Clone)]
pub struct FusedServeBench {
    /// Monte-Carlo samples per request.
    pub samples: usize,
    /// Per-sample (`S` separate forward passes) nanoseconds per request.
    pub per_sample_ns: f64,
    /// Fused (one stacked walk) nanoseconds per request.
    pub fused_ns: f64,
    /// FNV-1a digest of the (identical) response mean ∥ variance bits.
    pub digest: String,
}

impl FusedServeBench {
    /// per-sample / fused wall-clock ratio.
    pub fn speedup(&self) -> f64 {
        self.per_sample_ns / self.fused_ns
    }
}

/// Benchmarks fused vs per-sample Monte-Carlo serving at `samples` draws per request.
///
/// # Panics
///
/// Panics if the two paths' responses are not byte-identical.
pub fn run_fused_serve_bench(reps: usize, samples: usize) -> FusedServeBench {
    let spec = ModelSpec::lenet(7);
    let mut request = InferRequest {
        id: 0,
        arrival_tick: 0,
        input: fill_tensor(0xFEED, spec.input_shape()),
        samples,
        seed: 1,
    };
    let mut fused = ServeReplica::build(&EngineSpec::new(spec.clone()));
    let mut per_sample = ServeReplica::build(&EngineSpec::new(spec).fused_sampling(false));
    let mut response =
        InferResponse { id: 0, samples: 0, mean: Vec::new(), variance: Vec::new(), entropy: 0.0 };
    let mut check = response.clone();
    for seed in 1..=4u64 {
        request.seed = seed;
        fused.answer_into(&request, &mut response);
        per_sample.answer_into(&request, &mut check);
        assert_eq!(response, check, "fused serving diverged at seed {seed}");
    }
    let digest =
        digest_f32(&response.mean.iter().chain(&response.variance).copied().collect::<Vec<f32>>());
    // The arms alternate rep by rep, so host speed drift cannot favour either one.
    let (mut fused_ns, mut per_sample_ns) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..reps.max(1) {
        fused_ns = fused_ns.min(best_of(1, || fused.answer_into(&request, &mut response)));
        per_sample_ns =
            per_sample_ns.min(best_of(1, || per_sample.answer_into(&request, &mut check)));
    }
    FusedServeBench { samples, per_sample_ns, fused_ns, digest }
}

/// Timing of one `softplus` sweep over a posterior against one weight sample on the same
/// layer: [`VariationalParams::sigma`](bnn_train::variational::VariationalParams::sigma)
/// evaluates `σ = softplus(ρ)` per weight — what every `sample_into` paid before σ was
/// memoized — while `sample_into` reads the memo and pays one multiply-add per weight.
#[derive(Debug, Clone)]
pub struct FrozenSigmaBench {
    /// Weights in the benchmarked layer.
    pub weights: usize,
    /// `sigma()`, nanoseconds per call.
    pub sigma_ns: f64,
    /// `sample_into` with a derived memo, nanoseconds per call.
    pub sample_ns: f64,
}

impl FrozenSigmaBench {
    /// σ-sweep / sample wall-clock ratio — the `frozen_sigma` gate (≈ 1 when every sample
    /// re-evaluates `softplus`).
    pub fn speedup(&self) -> f64 {
        self.sigma_ns / self.sample_ns
    }
}

/// Benchmarks the σ sweep against one memoized sample on the largest Bayesian layer of the
/// B-LeNet serving proxy.
///
/// # Panics
///
/// Panics if the sampled weights are not bit-identical to `μ + ε·sigma()`.
pub fn run_frozen_sigma_bench(reps: usize) -> FrozenSigmaBench {
    let params = ModelSpec::lenet(7)
        .build()
        .snapshot()
        .layers
        .into_iter()
        .filter_map(|layer| match layer {
            LayerSnapshot::Linear { weights, .. } | LayerSnapshot::Conv { weights, .. } => {
                Some(weights)
            }
            _ => None,
        })
        .max_by_key(|weights| weights.len())
        .expect("the LeNet proxy has Bayesian layers");
    let epsilon = fill_tensor(0x5167, params.shape()).data().to_vec();
    let mut w = Tensor::zeros(params.shape());
    params.sample_into(&epsilon, Precision::Fp32, &mut w);
    let sigma = params.sigma();
    for (i, ((&got, &m), (&e, &s))) in
        w.data().iter().zip(params.mu().data()).zip(epsilon.iter().zip(sigma.data())).enumerate()
    {
        assert_eq!(got.to_bits(), (m + e * s).to_bits(), "sampled weight {i} diverged");
    }
    let sigma_ns = best_of(reps, || params.sigma());
    let sample_ns = best_of(reps, || params.sample_into(&epsilon, Precision::Fp32, &mut w));
    FrozenSigmaBench { weights: params.len(), sigma_ns, sample_ns }
}

/// Timing result of the ε-generation comparison.
#[derive(Debug, Clone)]
pub struct EpsilonBench {
    /// ε values generated per call.
    pub count: usize,
    /// Bit-serial `next_epsilon` loop, nanoseconds per call.
    pub serial_ns: f64,
    /// Word-parallel `fill_epsilon`, nanoseconds per call.
    pub word_parallel_ns: f64,
    /// FNV-1a digest of the (identical) generated stream.
    pub digest: String,
}

impl EpsilonBench {
    /// serial / word-parallel wall-clock ratio.
    pub fn speedup(&self) -> f64 {
        self.serial_ns / self.word_parallel_ns
    }
}

/// Benchmarks word-parallel vs bit-serial generation of `count` ε values on the 256-bit
/// Shift-BNN GRNG (both paths produce — and the digest pins — the identical stream).
pub fn run_epsilon_bench(reps: usize, count: usize) -> EpsilonBench {
    let mut buf = vec![0.0f32; count];
    let mut word = Grng::shift_bnn_default(0x5EED).unwrap();
    word.fill_epsilon(&mut buf);
    let digest = digest_f32(&buf);
    let mut serial_check: Vec<f32> = Vec::with_capacity(count);
    let mut serial = Grng::shift_bnn_default(0x5EED).unwrap();
    for _ in 0..count {
        serial_check.push(serial.next_epsilon() as f32);
    }
    assert_eq!(digest, digest_f32(&serial_check), "ε streams diverged");

    let mut word = Grng::shift_bnn_default(0x5EED).unwrap();
    word.set_mode(GrngMode::Forward);
    let word_parallel_ns = best_of(reps, || word.fill_epsilon(&mut buf));
    let mut serial = Grng::shift_bnn_default(0x5EED).unwrap();
    let serial_ns = best_of(reps, || {
        for slot in buf.iter_mut() {
            *slot = serial.next_epsilon() as f32;
        }
    });
    EpsilonBench { count, serial_ns, word_parallel_ns, digest }
}

/// Geometric mean of a slice of ratios.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn geometric_mean(ratios: &[f64]) -> f64 {
    assert!(!ratios.is_empty(), "geometric mean of nothing");
    (ratios.iter().map(|r| r.ln()).sum::<f64>() / ratios.len() as f64).exp()
}

/// A steady-state training-iteration workload: one scaled-down Bayesian conv net, one
/// example, `S = 4` Monte-Carlo samples per iteration — the paper's Fig. 1(a) loop in
/// miniature, covering conv, pooling, flatten and linear layers.
pub struct TrainingProbe {
    trainer: Trainer,
    image: Tensor,
    label: usize,
}

impl TrainingProbe {
    /// Builds the probe (deterministic).
    pub fn new() -> TrainingProbe {
        let mut rng = StdRng::seed_from_u64(0xCAFE);
        let network = Network::bayes_lenet(&[1, 8, 8], 5, BayesConfig::default(), &mut rng);
        let trainer = Trainer::new(
            network,
            TrainerConfig { samples: 4, learning_rate: 0.02, ..TrainerConfig::default() },
        )
        .expect("default GRNG construction cannot fail");
        let image = fill_tensor(0xF00D, &[1, 8, 8]);
        TrainingProbe { trainer, image, label: 2 }
    }

    /// Runs `iters` full training iterations (forward, backward, ε retrieval, update).
    pub fn run(&mut self, iters: usize) {
        for _ in 0..iters {
            self.trainer
                .train_example(&self.image, self.label)
                .expect("probe shapes are consistent");
        }
    }
}

impl Default for TrainingProbe {
    fn default() -> Self {
        Self::new()
    }
}

/// A steady-state serving workload: one frozen-posterior replica answering Monte-Carlo
/// uncertainty requests (`S = 8`) into a reusable response.
pub struct ServeProbe {
    replica: ServeReplica,
    request: InferRequest,
    response: InferResponse,
}

impl ServeProbe {
    /// Builds the probe over the B-LeNet serving proxy (deterministic).
    pub fn new() -> ServeProbe {
        let spec = ModelSpec::lenet(7);
        let replica = ServeReplica::build(&EngineSpec::new(spec.clone()));
        let request = InferRequest {
            id: 0,
            arrival_tick: 0,
            input: fill_tensor(0xFEED, spec.input_shape()),
            samples: 8,
            seed: 1,
        };
        let response = InferResponse {
            id: 0,
            samples: 0,
            mean: Vec::new(),
            variance: Vec::new(),
            entropy: 0.0,
        };
        ServeProbe { replica, request, response }
    }

    /// Serves `n` requests (distinct seeds, reused buffers).
    pub fn run(&mut self, n: usize) {
        for i in 0..n {
            self.request.seed = 1 + i as u64;
            self.replica.answer_into(&self.request, &mut self.response);
        }
    }

    /// The last response's entropy (read back so the optimizer cannot elide the work).
    pub fn last_entropy(&self) -> f32 {
        self.response.entropy
    }
}

impl Default for ServeProbe {
    fn default() -> Self {
        Self::new()
    }
}

/// A steady-state analytic-serving workload: one moment-backend replica answering requests
/// into a reusable response (single pass per request, no ε drawn).
pub struct MomentProbe {
    replica: ServeReplica,
    request: InferRequest,
    response: InferResponse,
}

impl MomentProbe {
    /// Builds the probe over the B-LeNet serving proxy (deterministic), moment backend.
    pub fn new() -> MomentProbe {
        let spec = ModelSpec::lenet(7);
        let request = InferRequest {
            id: 0,
            arrival_tick: 0,
            input: fill_tensor(0xFEED, spec.input_shape()),
            samples: 8, // ignored by the analytic backend — kept to mirror ServeProbe
            seed: 1,
        };
        let replica =
            ServeReplica::build(&EngineSpec::new(spec).mode(bnn_serve::ServeMode::Moment));
        let response = InferResponse {
            id: 0,
            samples: 0,
            mean: Vec::new(),
            variance: Vec::new(),
            entropy: 0.0,
        };
        MomentProbe { replica, request, response }
    }

    /// Serves `n` analytic requests (reused buffers).
    pub fn run(&mut self, n: usize) {
        for i in 0..n {
            self.request.id = i as u64;
            self.replica.answer_into(&self.request, &mut self.response);
        }
    }

    /// The last response's entropy (read back so the optimizer cannot elide the work).
    pub fn last_entropy(&self) -> f32 {
        self.response.entropy
    }

    /// The last response's sample count — 0 marks it analytic.
    pub fn last_samples(&self) -> usize {
        self.response.samples
    }
}

impl Default for MomentProbe {
    fn default() -> Self {
        Self::new()
    }
}

/// A steady-state *traced*-serving workload: the [`ServeProbe`] request loop with the
/// enabled recorder's per-request event sequence (admit → batch-close → dispatch →
/// compute-done → answer) recorded into a pre-sized [`TraceRecorder`]. Used by the
/// allocation-counting test to prove at the allocator that the recording path itself —
/// `record()` into warmed capacity — adds **zero** heap allocations to the steady state.
pub struct TracedServeProbe {
    replica: ServeReplica,
    request: InferRequest,
    response: InferResponse,
    recorder: TraceRecorder,
}

impl TracedServeProbe {
    /// Events recorded per served request (the full admit-to-answer stage sequence).
    pub const EVENTS_PER_REQUEST: usize = 5;

    /// Builds the probe over the B-LeNet serving proxy with a recorder pre-sized for any
    /// steady-state window the probe is asked to run (capacity is never grown afterwards).
    pub fn new() -> TracedServeProbe {
        let spec = ModelSpec::lenet(7);
        let replica = ServeReplica::build(&EngineSpec::new(spec.clone()));
        let request = InferRequest {
            id: 0,
            arrival_tick: 0,
            input: fill_tensor(0xFEED, spec.input_shape()),
            samples: 8,
            seed: 1,
        };
        let response = InferResponse {
            id: 0,
            samples: 0,
            mean: Vec::new(),
            variance: Vec::new(),
            entropy: 0.0,
        };
        TracedServeProbe { replica, request, response, recorder: TraceRecorder::with_capacity(512) }
    }

    /// Serves `n` requests, recording the five-stage event sequence around each answer. The
    /// recorder is cleared first — `clear` keeps capacity, so a warmed probe records
    /// without touching the allocator (for windows up to `512 / EVENTS_PER_REQUEST`
    /// requests).
    pub fn run(&mut self, n: usize) {
        self.recorder.clear();
        for i in 0..n {
            let (id, tick) = (i as u64, i as u64 * 8);
            self.request.seed = 1 + i as u64;
            self.recorder.record(Event::Admit { request: id, tick, shard: 0, queue_depth: 1 });
            self.recorder.record(Event::BatchClose { request: id, shard: 0, tick: tick + 1 });
            self.recorder.record(Event::Dispatch { request: id, shard: 0, tick: tick + 2 });
            self.replica.answer_into(&self.request, &mut self.response);
            self.recorder.record(Event::ComputeDone { request: id, shard: 0, tick: tick + 5 });
            self.recorder.record(Event::Answer { request: id, tick: tick + 5 });
        }
    }

    /// Events recorded by the last [`run`](Self::run) window.
    pub fn events_recorded(&self) -> usize {
        self.recorder.len()
    }

    /// The last response's entropy (read back so the optimizer cannot elide the work).
    pub fn last_entropy(&self) -> f32 {
        self.response.entropy
    }
}

impl Default for TracedServeProbe {
    fn default() -> Self {
        Self::new()
    }
}

/// Timing of a traced engine run against the identical untraced run (the observability
/// overhead arm): one single-worker B-LeNet engine over a uniform trace, responses asserted
/// byte-identical tracing-on vs tracing-off before either is timed.
#[derive(Debug, Clone)]
pub struct ObsOverheadBench {
    /// Requests per engine run.
    pub requests: usize,
    /// Events the traced run records.
    pub events: usize,
    /// Untraced `InferenceEngine::run`, nanoseconds per run.
    pub untraced_ns: f64,
    /// Traced `InferenceEngine::run_traced` into a warmed recorder, nanoseconds per run.
    pub traced_ns: f64,
    /// FNV-1a digest of the (identical) response document.
    pub digest: String,
}

impl ObsOverheadBench {
    /// untraced / traced wall-clock ratio — the `obs_overhead` gate: ≥ 0.95 means the
    /// enabled recorder costs at most ~5% of an engine run.
    pub fn overhead(&self) -> f64 {
        self.untraced_ns / self.traced_ns
    }
}

/// Benchmarks a traced engine run against the untraced run over `requests` B-LeNet
/// Monte-Carlo requests.
///
/// # Panics
///
/// Panics if the traced and untraced responses are not byte-identical.
pub fn run_obs_overhead_bench(reps: usize, requests: usize) -> ObsOverheadBench {
    let spec = ModelSpec::lenet(7);
    let trace = WorkloadSpec::uniform(requests, 8, 4, 13).generate(&spec);
    let engine = InferenceEngine::build(
        EngineSpec::new(spec).policy(BatchPolicy { max_batch: 8, max_wait_ticks: 16 }).workers(1),
    );
    let untraced = engine.run(&trace);
    let mut recorder = TraceRecorder::new();
    let traced = engine.run_traced(&trace, &[], &mut recorder);
    assert_eq!(
        untraced.responses_json(),
        traced.responses_json(),
        "responses must be byte-identical tracing-on vs tracing-off"
    );
    let events = recorder.len();
    let untraced_ns = best_of(reps, || engine.run(&trace));
    let traced_ns = best_of(reps, || {
        recorder.clear();
        engine.run_traced(&trace, &[], &mut recorder)
    });
    ObsOverheadBench { requests, events, untraced_ns, traced_ns, digest: traced.responses_digest() }
}

/// Builds the **deterministic** summary document committed as `BENCH_hot_summary.json` and
/// gated by `bench_regression`: kernel output digests, the ε stream digest, and the measured
/// steady-state allocation counts (which must be zero) — no wall-clock values.
pub fn summary_json(
    kernels: &[KernelBench],
    epsilon: &EpsilonBench,
    train_allocs: u64,
    serve_allocs: u64,
    traced_allocs: u64,
) -> Json {
    Json::obj([
        (
            "kernels",
            Json::Array(
                kernels
                    .iter()
                    .map(|k| {
                        Json::obj([
                            ("name", Json::Str(k.name.to_string())),
                            ("op", Json::Str(k.op.to_string())),
                            ("digest", Json::Str(k.digest.clone())),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "epsilon",
            Json::obj([
                ("count", Json::UInt(epsilon.count as u64)),
                ("digest", Json::Str(epsilon.digest.clone())),
            ]),
        ),
        (
            "steady_state_allocations",
            Json::obj([
                ("per_training_iteration", Json::UInt(train_allocs)),
                ("per_served_request", Json::UInt(serve_allocs)),
                ("per_traced_request", Json::UInt(traced_allocs)),
            ]),
        ),
    ])
}

/// Builds the full (machine-dependent) report written to `BENCH_hot.json` — timings,
/// speedups and the geometric mean alongside everything in the summary, plus PR 8's
/// per-tier GEMM arms, the fused-serving arm, the frozen-σ arm and the named `speedups`
/// object gated by `bench_regression --min-speedup`.
#[allow(clippy::too_many_arguments)]
pub fn full_json(
    kernels: &[KernelBench],
    tiers: &[TierBench],
    fused: &FusedServeBench,
    obs: &ObsOverheadBench,
    frozen: &FrozenSigmaBench,
    epsilon: &EpsilonBench,
    train_allocs: u64,
    serve_allocs: u64,
    traced_allocs: u64,
) -> Json {
    let speedups: Vec<f64> = kernels.iter().map(KernelBench::speedup).collect();
    let simd: Vec<f64> = tiers.iter().map(TierBench::simd_speedup).collect();
    Json::obj([
        (
            "kernels",
            Json::Array(
                kernels
                    .iter()
                    .map(|k| {
                        Json::obj([
                            ("name", Json::Str(k.name.to_string())),
                            ("op", Json::Str(k.op.to_string())),
                            ("reference_ns", Json::Float(k.reference_ns)),
                            ("packed_ns", Json::Float(k.packed_ns)),
                            ("speedup", Json::Float(k.speedup())),
                            ("digest", Json::Str(k.digest.clone())),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("geometric_mean_speedup", Json::Float(geometric_mean(&speedups))),
        (
            "kernel_tiers",
            Json::Array(
                tiers
                    .iter()
                    .map(|t| {
                        Json::obj([
                            ("name", Json::Str(t.name.to_string())),
                            ("m", Json::UInt(t.m as u64)),
                            ("k", Json::UInt(t.k as u64)),
                            ("n", Json::UInt(t.n as u64)),
                            (
                                "tier_ns",
                                Json::obj(
                                    t.tier_ns
                                        .iter()
                                        .map(|(tier, ns)| (tier.label(), Json::Float(*ns)))
                                        .collect::<Vec<_>>(),
                                ),
                            ),
                            ("simd_speedup", Json::Float(t.simd_speedup())),
                            ("digest", Json::Str(t.digest.clone())),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "fused_serving",
            Json::obj([
                ("samples", Json::UInt(fused.samples as u64)),
                ("per_sample_ns", Json::Float(fused.per_sample_ns)),
                ("fused_ns", Json::Float(fused.fused_ns)),
                ("speedup", Json::Float(fused.speedup())),
                ("digest", Json::Str(fused.digest.clone())),
            ]),
        ),
        (
            "obs_serving",
            Json::obj([
                ("requests", Json::UInt(obs.requests as u64)),
                ("events", Json::UInt(obs.events as u64)),
                ("untraced_ns", Json::Float(obs.untraced_ns)),
                ("traced_ns", Json::Float(obs.traced_ns)),
                ("overhead", Json::Float(obs.overhead())),
                ("digest", Json::Str(obs.digest.clone())),
            ]),
        ),
        (
            "frozen_sigma",
            Json::obj([
                ("weights", Json::UInt(frozen.weights as u64)),
                ("sigma_ns", Json::Float(frozen.sigma_ns)),
                ("sample_ns", Json::Float(frozen.sample_ns)),
                ("speedup", Json::Float(frozen.speedup())),
            ]),
        ),
        (
            "speedups",
            Json::obj([
                ("simd_gemm", Json::Float(geometric_mean(&simd))),
                ("fused_sampling", Json::Float(fused.speedup())),
                ("obs_overhead", Json::Float(obs.overhead())),
                ("frozen_sigma", Json::Float(frozen.speedup())),
            ]),
        ),
        (
            "epsilon",
            Json::obj([
                ("count", Json::UInt(epsilon.count as u64)),
                ("serial_ns", Json::Float(epsilon.serial_ns)),
                ("word_parallel_ns", Json::Float(epsilon.word_parallel_ns)),
                ("speedup", Json::Float(epsilon.speedup())),
                ("digest", Json::Str(epsilon.digest.clone())),
            ]),
        ),
        (
            "steady_state_allocations",
            Json::obj([
                ("per_training_iteration", Json::UInt(train_allocs)),
                ("per_served_request", Json::UInt(serve_allocs)),
                ("per_traced_request", Json::UInt(traced_allocs)),
            ]),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_benches_cover_every_geometry_and_direction() {
        let benches = run_kernel_benches(1);
        assert_eq!(benches.len(), hot_geometries().len() * 3);
        for b in &benches {
            assert!(b.reference_ns > 0.0 && b.packed_ns > 0.0);
            assert_eq!(b.digest.len(), 16);
        }
    }

    #[test]
    fn tier_benches_cover_every_tier_and_assert_bit_exactness() {
        let tiers = run_tier_benches(1);
        assert_eq!(tiers.len(), tier_shapes().len());
        for t in &tiers {
            assert_eq!(t.tier_ns.len(), KernelTier::ALL.len());
            assert_eq!(t.digest.len(), 16);
            for tier in KernelTier::ALL {
                assert!(t.ns(tier) > 0.0, "{}: {} has no timing", t.name, tier.label());
            }
        }
    }

    #[test]
    fn fused_serve_bench_pins_byte_identity_before_timing() {
        let fused = run_fused_serve_bench(1, 4);
        assert_eq!(fused.samples, 4);
        assert_eq!(fused.digest.len(), 16);
        assert!(fused.per_sample_ns > 0.0 && fused.fused_ns > 0.0);
    }

    #[test]
    fn full_json_names_the_gated_speedups() {
        let kernels = run_kernel_benches(1);
        let tiers = run_tier_benches(1);
        let fused = run_fused_serve_bench(1, 4);
        let obs = run_obs_overhead_bench(1, 8);
        let frozen = run_frozen_sigma_bench(1);
        let epsilon = run_epsilon_bench(1, 128);
        let doc =
            full_json(&kernels, &tiers, &fused, &obs, &frozen, &epsilon, 0, 0, 0).to_compact();
        assert!(doc.contains("\"speedups\""));
        assert!(doc.contains("\"simd_gemm\""));
        assert!(doc.contains("\"fused_sampling\""));
        assert!(doc.contains("\"obs_overhead\""));
        assert!(doc.contains("\"frozen_sigma\""));
    }

    #[test]
    fn frozen_sigma_bench_times_the_largest_lenet_layer() {
        let frozen = run_frozen_sigma_bench(1);
        assert_eq!(frozen.weights, 64 * 144, "the proxy's first dense layer is its largest");
        assert!(frozen.sigma_ns > 0.0 && frozen.sample_ns > 0.0);
    }

    #[test]
    fn obs_overhead_bench_pins_byte_identity_before_timing() {
        let obs = run_obs_overhead_bench(1, 8);
        assert_eq!(obs.requests, 8);
        assert!(obs.events > 0, "the traced run must record events");
        assert_eq!(obs.digest.len(), 16);
        assert!(obs.untraced_ns > 0.0 && obs.traced_ns > 0.0);
    }

    #[test]
    fn traced_probe_records_the_full_stage_sequence() {
        let mut probe = TracedServeProbe::new();
        probe.run(3);
        assert_eq!(probe.events_recorded(), 3 * TracedServeProbe::EVENTS_PER_REQUEST);
        assert!(probe.last_entropy() >= 0.0);
        // Re-running clears and re-records — the window, not the history, is bounded.
        probe.run(2);
        assert_eq!(probe.events_recorded(), 2 * TracedServeProbe::EVENTS_PER_REQUEST);
    }

    #[test]
    fn epsilon_bench_pins_the_stream() {
        let e = run_epsilon_bench(1, 256);
        assert_eq!(e.count, 256);
        assert_eq!(e.digest.len(), 16);
    }

    #[test]
    fn geometric_mean_of_constant_ratios_is_the_ratio() {
        assert!((geometric_mean(&[2.0, 2.0, 2.0]) - 2.0).abs() < 1e-12);
        assert!((geometric_mean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn probes_run_and_produce_work() {
        let mut t = TrainingProbe::new();
        t.run(2);
        let mut s = ServeProbe::new();
        s.run(2);
        assert!(s.last_entropy() >= 0.0);
        let mut m = MomentProbe::new();
        m.run(2);
        assert!(m.last_entropy() >= 0.0);
        assert_eq!(m.last_samples(), 0, "moment responses must be marked analytic");
    }

    #[test]
    fn summary_json_is_deterministic_and_timing_free() {
        let kernels = run_kernel_benches(1);
        let epsilon = run_epsilon_bench(1, 128);
        let a = summary_json(&kernels, &epsilon, 0, 0, 0).to_compact();
        let kernels2 = run_kernel_benches(2);
        let epsilon2 = run_epsilon_bench(2, 128);
        let b = summary_json(&kernels2, &epsilon2, 0, 0, 0).to_compact();
        assert_eq!(a, b, "summary must not depend on timings or rep counts");
        assert!(!a.contains("_ns"), "summary must not embed wall-clock fields");
    }
}
