//! The inference engine: batched Monte-Carlo execution on the shared work-stealing pool.
//!
//! Two clocks run through an engine, deliberately kept apart:
//!
//! * the **tick clock** is simulated. Batch formation and device timing (the batch clock in
//!   [`crate::batcher`]), service cost and every latency statistic live here, modelled after
//!   the Shift-BNN accelerator (a batch pays a fixed dispatch/weight-load overhead of
//!   [`BATCH_OVERHEAD_TICKS`], then each request pays one tick per [`EPSILON_LANES`] ε drawn —
//!   the paper's 16 SPUs × 64 GRNG lanes). Nothing on this path reads a wall clock, so
//!   reports are bit-reproducible;
//! * the **wall clock** exists only outside the engine: `serve_bench` times whole runs to
//!   measure real software throughput, and those numbers are explicitly excluded from the
//!   committed regression baselines.
//!
//! Execution itself fans the requests out over [`bnn_pool::run_indexed_with`]: each worker
//! materializes one frozen-posterior replica per model version it serves
//! ([`ModelSource::build`] — seed-rebuilt or checkpoint-loaded) and answers whatever requests
//! it steals. A response depends only on the request (input, `S`, seed) and the frozen
//! posterior of the version that answered it — never on the worker, the batch it rode in, or
//! the completion order — so 1-worker and N-worker runs, and batch-size-1 and coalesced runs,
//! produce byte-identical responses. `tests/serve_determinism.rs` pins those equalities and
//! `tests/hot_swap.rs` extends them across scheduled version swaps
//! ([`InferenceEngine::run_traced`]): versions change only at deterministic tick
//! boundaries, old versions drain, and no request is ever dropped.

use crate::batcher::{BatchClock, BatchPolicy};
use crate::builder::EngineSpec;
use crate::request::{mix_seed, InferRequest, InferResponse};
use crate::spec::{ModelSource, ServeMode};
use bnn_obs::{Event, NullRecorder, Recorder};
use bnn_tensor::{KernelConfig, Tensor};
use bnn_train::moment::MomentNetwork;
use bnn_train::network::Predictive;
use bnn_train::{EpsilonSource, LfsrForward, Network};
use shift_bnn::sweep::json::Json;

/// Ticks a batch pays once, regardless of size: dispatch plus streaming the `(μ, σ)` weights
/// into the SPU array. Amortizing this over coalesced requests is what batching buys.
pub const BATCH_OVERHEAD_TICKS: u64 = 64;

/// ε values generated per tick: 16 Sample Processing Units × 64 GRNG lanes each.
pub const EPSILON_LANES: u64 = 1024;

/// Timing of one executed batch in the simulated tick domain.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchStat {
    /// Tick the batcher closed the batch at.
    pub close_tick: u64,
    /// Tick service began (the device serializes batches: `max(close, previous end)`).
    pub start_tick: u64,
    /// Tick the batch completed; every member request's response is ready here.
    pub end_tick: u64,
    /// Number of coalesced requests.
    pub size: usize,
    /// Index of the model version that answered this batch: 0 is the engine's initial
    /// source, `i ≥ 1` is the `i`-th scheduled [`VersionSwap`]. Always 0 without swaps.
    pub version: usize,
}

/// A scheduled hot-swap: from (simulated) tick `at_tick` onward, batches are answered by
/// `source` instead of whatever version was active before.
///
/// The swap is **deterministic in the tick domain**: a batch is answered by the newest
/// version whose `at_tick` is at or before the batch's *service start* tick. Batches that
/// started service earlier drain on the old version — no request is ever dropped or
/// re-answered — and every batch from the boundary onward answers with the new posterior.
/// Because batch timing is a pure function of (trace, policy), the boundary is too: the same
/// swap schedule splits the same trace at the same request on every machine and worker count.
#[derive(Debug, Clone)]
pub struct VersionSwap {
    /// First tick at which the new version may begin answering.
    pub at_tick: u64,
    /// The replacement posterior source.
    pub source: ModelSource,
}

/// A fault-injected slow window on the simulated device: a batch whose service *starts*
/// inside `[from_tick, until_tick)` takes `multiplier ×` its normal service time. The
/// multiplier is sampled once, at the start tick — a batch starting just before the window
/// ends runs slow end to end, mirroring how a thermal-throttled device finishes the work it
/// started. Windows come from [`crate::faults::FaultEvent::SlowShard`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Slowdown {
    /// First tick of the slow window (inclusive).
    pub(crate) from_tick: u64,
    /// End of the slow window (exclusive).
    pub(crate) until_tick: u64,
    /// Service-time multiplier (≥ 1).
    pub(crate) multiplier: u64,
}

/// The service-time multiplier in effect for a batch starting at `start_tick`: the maximum
/// over every slow window containing it, `1` outside all windows (overlapping faults don't
/// stack multiplicatively — the worst one dominates, keeping grid scenarios composable).
pub(crate) fn slow_multiplier(slowdowns: &[Slowdown], start_tick: u64) -> u64 {
    slowdowns
        .iter()
        .filter(|s| s.from_tick <= start_tick && start_tick < s.until_tick)
        .map(|s| s.multiplier)
        .max()
        .unwrap_or(1)
}

/// The result of one engine run over a request trace.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeRunReport {
    /// Name of the served model family.
    pub model: String,
    /// The batching policy the run used.
    pub policy: BatchPolicy,
    /// Worker threads the responses were computed on (does not affect any value in here).
    pub workers: usize,
    /// One response per request, in request order.
    pub responses: Vec<InferResponse>,
    /// Per-request latency in ticks (batch end − arrival), in request order.
    pub latencies: Vec<u64>,
    /// Per-batch timing, in execution order.
    pub batches: Vec<BatchStat>,
    /// Tick the last batch completed at (0 for an empty trace).
    pub makespan_ticks: u64,
}

impl ServeRunReport {
    /// Nearest-rank latency percentile in ticks (`q` in `0.0..=1.0`); see
    /// [`crate::stats::latency_percentile`] for the rank contract (`q = 0.0` → minimum).
    ///
    /// # Panics
    ///
    /// Panics on an empty report or `q` outside `0.0..=1.0`.
    pub fn latency_percentile(&self, q: f64) -> u64 {
        assert!(!self.latencies.is_empty(), "no requests were served");
        crate::stats::latency_percentile(&self.latencies, q)
    }

    /// Requests completed per thousand simulated ticks.
    pub fn throughput_per_kilotick(&self) -> f64 {
        if self.makespan_ticks == 0 {
            return 0.0;
        }
        self.responses.len() as f64 * 1000.0 / self.makespan_ticks as f64
    }

    /// Mean coalesced batch size.
    pub fn mean_batch_size(&self) -> f64 {
        if self.batches.is_empty() {
            return 0.0;
        }
        self.responses.len() as f64 / self.batches.len() as f64
    }

    /// The canonical response bytes: what the determinism contract compares across worker
    /// counts and batch policies.
    pub fn responses_json(&self) -> String {
        Json::array_of(self.responses.iter()).to_compact()
    }

    /// FNV-1a digest of [`responses_json`](Self::responses_json), as 16 hex characters — the
    /// compact fingerprint the committed serve baseline pins the numerical outputs with.
    pub fn responses_digest(&self) -> String {
        shift_bnn::sweep::json::fnv1a_hex(self.responses_json().bytes())
    }

    /// Serializes the full run report. Every field is tick-domain or response data — a pure
    /// function of (trace, model spec, policy) — so two runs of the same inputs serialize
    /// byte-identically whatever the worker count. An empty run serializes the latency
    /// percentiles as `null`.
    pub fn to_json(&self) -> Json {
        let percentile = |q| {
            if self.latencies.is_empty() {
                Json::Null
            } else {
                Json::UInt(self.latency_percentile(q))
            }
        };
        Json::obj([
            ("model", Json::Str(self.model.clone())),
            (
                "policy",
                Json::obj([
                    ("label", Json::Str(self.policy.label())),
                    ("max_batch", Json::UInt(self.policy.max_batch as u64)),
                    ("max_wait_ticks", Json::UInt(self.policy.max_wait_ticks)),
                ]),
            ),
            ("requests", Json::UInt(self.responses.len() as u64)),
            ("batches", Json::UInt(self.batches.len() as u64)),
            ("mean_batch_size", Json::Float(self.mean_batch_size())),
            ("makespan_ticks", Json::UInt(self.makespan_ticks)),
            ("throughput_per_kilotick", Json::Float(self.throughput_per_kilotick())),
            (
                "latency_ticks",
                Json::obj([
                    ("p50", percentile(0.50)),
                    ("p95", percentile(0.95)),
                    ("p99", percentile(0.99)),
                ]),
            ),
            ("responses", Json::array_of(self.responses.iter())),
        ])
    }
}

/// A batched inference engine over one frozen posterior (with optional scheduled hot-swaps
/// to newer posterior versions — see [`InferenceEngine::run_traced`]), serving under
/// either backend of the [`ServeMode`] axis: `S`-sample Monte-Carlo or single-pass analytic
/// moment propagation.
#[derive(Debug, Clone)]
pub struct InferenceEngine {
    source: ModelSource,
    mode: ServeMode,
    policy: BatchPolicy,
    workers: usize,
    kernel: KernelConfig,
    fused_sampling: bool,
    epsilon_per_sample: usize,
}

impl InferenceEngine {
    /// Builds an engine from a declarative [`EngineSpec`], the one way to construct it.
    ///
    /// # Panics
    ///
    /// Panics when the spec's `workers` is zero or its policy's `max_batch` is zero.
    pub fn build(spec: EngineSpec) -> InferenceEngine {
        assert!(spec.workers >= 1, "an engine needs at least one worker");
        assert!(spec.policy.max_batch >= 1, "max_batch must be at least 1");
        // The source's ε-per-sample count drives the tick cost model (as the weight count in
        // moment mode — both backends stream the same weight volume).
        let epsilon_per_sample = spec.source.epsilon_count();
        InferenceEngine {
            source: spec.source,
            mode: spec.mode,
            policy: spec.policy,
            workers: spec.workers,
            kernel: spec.kernel,
            fused_sampling: spec.fused_sampling,
            epsilon_per_sample,
        }
    }

    /// The served model's source (version 0; swaps are per-run, not engine state).
    pub fn source(&self) -> &ModelSource {
        &self.source
    }

    /// The engine's serving backend.
    pub fn mode(&self) -> ServeMode {
        self.mode
    }

    /// The engine's batching policy.
    pub fn policy(&self) -> BatchPolicy {
        self.policy
    }

    /// The engine's worker count.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// ε values one Monte-Carlo sample draws (one per Bayesian weight).
    pub fn epsilon_per_sample(&self) -> usize {
        self.epsilon_per_sample
    }

    /// Simulated service cost of one request on the engine's initial source: one setup tick
    /// plus the GRNG-bound ε generation time of its `S` sampled forward passes (Monte-Carlo),
    /// or the two weight-wide moment passes (analytic).
    pub fn service_cost_ticks(&self, samples: usize) -> u64 {
        service_cost(self.mode, self.epsilon_per_sample, samples)
    }

    /// Serves a request trace: plans batches, computes tick-domain timing, and executes every
    /// request's `S` sampled forward passes on the pool (one posterior replica per worker).
    ///
    /// # Panics
    ///
    /// Panics when the trace is not sorted by arrival tick, a request's input shape does not
    /// match the model, or a request asks for zero samples.
    pub fn run(&self, requests: &[InferRequest]) -> ServeRunReport {
        self.run_traced(requests, &[], &mut NullRecorder)
    }

    /// [`InferenceEngine::run`] with scheduled **hot-swaps** and structured tracing.
    ///
    /// Batches that start service at or after a swap's `at_tick` are answered by the
    /// swapped-in posterior; earlier batches drain on the prior version. No request is
    /// dropped at a swap — the trace is answered end to end, and the version boundary is a
    /// deterministic function of (trace, policy, swap schedule), never of worker count or
    /// wall clock. Every worker materializes a private replica of each version it actually
    /// serves (lazily, at most once per version per worker), so responses stay
    /// byte-identical across worker counts with any swap schedule.
    ///
    /// Each batch's close, dispatch and completion are recorded as tick-stamped [`Event`]s
    /// keyed by the member requests' ids, plus one [`Event::BatchSeal`] per batch for
    /// occupancy metrics. The recorder observes the exact same timing the report carries —
    /// it never influences it — so responses, latencies and batch stats are byte-identical
    /// to an untraced run (`&mut NullRecorder`; the obs benchmark asserts this equivalence
    /// on every run).
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`InferenceEngine::run`], or when `swaps` is not
    /// sorted by `at_tick`.
    pub fn run_traced<R: Recorder>(
        &self,
        requests: &[InferRequest],
        swaps: &[VersionSwap],
        rec: &mut R,
    ) -> ServeRunReport {
        for pair in swaps.windows(2) {
            assert!(pair[0].at_tick <= pair[1].at_tick, "swap schedule must be sorted by at_tick");
        }
        let mut clock =
            BatchClock::new(self.policy, self.mode, self.epsilon_per_sample, swaps, &[]);
        let mut previous_arrival = 0;
        for (i, request) in requests.iter().enumerate() {
            assert!(
                request.arrival_tick >= previous_arrival,
                "request trace must be sorted by arrival_tick (index {i})"
            );
            previous_arrival = request.arrival_tick;
            clock.admit(i, request.samples, request.arrival_tick);
        }
        self.execute(requests, swaps, clock.finish(), 0, rec)
    }

    /// Executes batches a [`BatchClock`] timed: batch `k` answers the next `batches[k].size`
    /// requests of `requests`, each priced and answered at its own `samples`. `shard` is
    /// stamped into emitted events (single-engine runs pass 0); recording happens on the
    /// calling thread, never on pool workers, so recorded streams are identical at any worker
    /// count.
    pub(crate) fn execute<R: Recorder>(
        &self,
        requests: &[InferRequest],
        swaps: &[VersionSwap],
        batches: Vec<BatchStat>,
        shard: usize,
        rec: &mut R,
    ) -> ServeRunReport {
        // Version table: index 0 is the engine's own source, i ≥ 1 the (i−1)-th swap.
        let sources: Vec<&ModelSource> =
            std::iter::once(&self.source).chain(swaps.iter().map(|s| &s.source)).collect();
        let mut latencies = Vec::with_capacity(requests.len());
        let mut version_of = Vec::with_capacity(requests.len());
        let mut members = requests.iter();
        for batch in &batches {
            if R::ENABLED {
                rec.record(Event::BatchSeal {
                    shard,
                    close_tick: batch.close_tick,
                    members: batch.size,
                    version: batch.version,
                });
            }
            for request in members.by_ref().take(batch.size) {
                latencies.push(batch.end_tick - request.arrival_tick);
                version_of.push(batch.version);
                if R::ENABLED {
                    let request = request.id;
                    rec.record(Event::BatchClose { request, shard, tick: batch.close_tick });
                    rec.record(Event::Dispatch { request, shard, tick: batch.start_tick });
                    rec.record(Event::ComputeDone { request, shard, tick: batch.end_tick });
                }
            }
        }
        assert_eq!(latencies.len(), requests.len(), "timed batches must cover every request");

        // Execution: requests fan out over the pool; each worker materializes one replica
        // per version it serves (built once, lazily) and results merge by request index
        // (completion order cannot leak into the report). Materializing the owned
        // per-request responses necessarily allocates their vectors; the zero-allocation
        // contract covers the compute path (`answer_into`) itself.
        let sources = &sources;
        let version_of = &version_of;
        let mode = self.mode;
        let kernel = self.kernel;
        let fused = self.fused_sampling;
        let responses = bnn_pool::run_indexed_with(
            requests.len(),
            self.workers,
            |_worker| -> Vec<Option<ServeReplica>> { (0..sources.len()).map(|_| None).collect() },
            |replicas, i| {
                let version = version_of[i];
                let replica = replicas[version].get_or_insert_with(|| {
                    ServeReplica::with_options(sources[version], mode, kernel, fused)
                });
                let mut response = InferResponse {
                    id: 0,
                    samples: 0,
                    mean: Vec::new(),
                    variance: Vec::new(),
                    entropy: 0.0,
                };
                replica.answer_into(&requests[i], &mut response);
                response
            },
        );

        ServeRunReport {
            model: self.source.name(),
            policy: self.policy,
            workers: self.workers,
            responses,
            latencies,
            makespan_ticks: batches.last().map_or(0, |b| b.end_tick),
            batches,
        }
    }
}

/// Simulated per-request service cost, summed into each batch's service time by the
/// [`BatchClock`]:
///
/// * **Monte-Carlo** — one setup tick plus the GRNG-bound ε generation time of `samples`
///   forward passes drawing `epsilon_per_sample` values each;
/// * **Moment** — one setup tick plus **two** weight-wide streaming passes (mean + variance
///   GEMM traffic over the same `epsilon_per_sample` weights), independent of the request's
///   `samples` and with no GRNG serialization at all. A moment shard therefore consumes no
///   ε budget.
pub(crate) fn service_cost(mode: ServeMode, epsilon_per_sample: usize, samples: usize) -> u64 {
    match mode {
        ServeMode::MonteCarlo => {
            1 + (samples as u64 * epsilon_per_sample as u64).div_ceil(EPSILON_LANES)
        }
        ServeMode::Moment => 1 + (2 * epsilon_per_sample as u64).div_ceil(EPSILON_LANES),
    }
}

/// [`service_cost`] with the graceful-degradation sentinel: in a Monte-Carlo engine,
/// `samples == 0` marks a request the degradation ladder downgraded to the single-pass
/// analytic backend, so it is priced (and executed — see [`ServeReplica::answer_into`]) at
/// moment cost. Every other `(mode, samples)` pair prices exactly as before.
pub(crate) fn request_service_cost(
    mode: ServeMode,
    epsilon_per_sample: usize,
    samples: usize,
) -> u64 {
    if mode == ServeMode::MonteCarlo && samples == 0 {
        service_cost(ServeMode::Moment, epsilon_per_sample, 0)
    } else {
        service_cost(mode, epsilon_per_sample, samples)
    }
}

/// One worker's serving backend state, per [`ServeMode`]: a sampled-forward network replica
/// with its reusable ε sources, or a compiled analytic moment network (which needs none).
enum ReplicaBackend {
    /// `S` sampled forward passes per request; sources are *reseeded* per request instead of
    /// rebuilt, mirroring how the accelerator's GRNGs are re-loaded rather than
    /// re-fabricated.
    MonteCarlo {
        network: Network,
        /// One forward-only source per Monte-Carlo sample, grown to the largest `S` seen and
        /// reseeded in place for every request.
        sources: Vec<Box<dyn EpsilonSource>>,
        /// The analytic twin of `network`, compiled lazily the first time a
        /// graceful-degradation request (`samples == 0`) reaches this replica. Deterministic
        /// in the posterior, so laziness cannot leak into response bytes.
        moment: Option<MomentNetwork>,
    },
    /// One analytic `(mean, variance)` pass per request; no ε, no RNG.
    Moment { network: MomentNetwork },
}

/// One worker's serving state: a frozen-posterior backend replica plus the reusable
/// predictive buffer that lets the steady-state request path run without heap allocation.
pub struct ServeReplica {
    backend: ReplicaBackend,
    predictive: Predictive,
    /// Whether Monte-Carlo requests run fused ([`Network::predictive_fused_into`]) — a pure
    /// speed switch, bit-identical either way (ignored by the moment backend).
    fused_sampling: bool,
}

impl std::fmt::Debug for ServeReplica {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut s = f.debug_struct("ServeReplica");
        match &self.backend {
            ReplicaBackend::MonteCarlo { network, sources, moment } => s
                .field("mode", &"mc")
                .field("network", network)
                .field("sources", &sources.len())
                .field("moment_compiled", &moment.is_some()),
            ReplicaBackend::Moment { network } => {
                s.field("mode", &"moment").field("network", network)
            }
        }
        .finish()
    }
}

impl ServeReplica {
    /// Builds a replica from a declarative [`EngineSpec`], the one way to construct it; the
    /// spec's policy/worker fields are engine-level and ignored here.
    pub fn build(spec: &EngineSpec) -> ServeReplica {
        ServeReplica::with_options(&spec.source, spec.mode, spec.kernel, spec.fused_sampling)
    }

    /// The full-option constructor [`ServeReplica::build`] and the engine's per-version
    /// replicas share: posterior source, backend, kernel configuration for the replica's layer
    /// stack, and the fused-sampling switch. Deterministic in `(source, mode)` alone — `kernel` (bit-exact tiers) and
    /// `fused` change speed, never bytes.
    pub(crate) fn with_options(
        source: &ModelSource,
        mode: ServeMode,
        kernel: KernelConfig,
        fused_sampling: bool,
    ) -> ServeReplica {
        let backend = match mode {
            ServeMode::MonteCarlo => {
                let mut network = source.build();
                network.set_kernel(kernel);
                ReplicaBackend::MonteCarlo { network, sources: Vec::new(), moment: None }
            }
            ServeMode::Moment => {
                let mut network = source.build_moment();
                network.set_kernel(kernel);
                ReplicaBackend::Moment { network }
            }
        };
        ServeReplica {
            backend,
            predictive: Predictive {
                mean: Tensor::zeros(&[0]),
                variance: Tensor::zeros(&[0]),
                entropy: 0.0,
                samples: 0,
            },
            fused_sampling,
        }
    }

    /// The replica's serving backend.
    pub fn mode(&self) -> ServeMode {
        match &self.backend {
            ReplicaBackend::MonteCarlo { .. } => ServeMode::MonteCarlo,
            ReplicaBackend::Moment { .. } => ServeMode::Moment,
        }
    }

    /// Computes one response into `response`, reusing its buffers. Monte-Carlo: `S` forward
    /// passes with seed-regenerated ε, aggregated into mean / variance / entropy. Moment:
    /// one analytic pass — the request's `samples` and ε seed are ignored and the response
    /// reports `samples = 0` to mark itself analytic. A Monte-Carlo replica given a
    /// `samples == 0` request — the graceful-degradation sentinel set by the cluster's
    /// [`DegradeLadder`](crate::faults::DegradeLadder) — answers analytically too, from a
    /// moment network compiled lazily (once per replica) off the same frozen posterior.
    /// Pure in (replica parameters, request) — bit-identical on every worker, whatever was
    /// served before. After the replica has warmed up (largest `S` seen, buffer shapes,
    /// moment compilation if exercised), this performs zero heap allocations per request
    /// (asserted by `crates/bench`'s allocation test).
    ///
    /// # Panics
    ///
    /// Panics if the request's input shape mismatches the model.
    pub fn answer_into(&mut self, request: &InferRequest, response: &mut InferResponse) {
        match &mut self.backend {
            ReplicaBackend::MonteCarlo { network, sources, moment } => {
                if request.samples == 0 {
                    let moment = moment.get_or_insert_with(|| {
                        MomentNetwork::from_network(network)
                            .expect("a servable posterior always compiles to a moment network")
                    });
                    moment
                        .predictive_into(&request.input, &mut self.predictive)
                        .expect("request input shape matches the served model");
                    finish_response(&self.predictive, request, response);
                    return;
                }
                while sources.len() < request.samples {
                    sources.push(Box::new(
                        LfsrForward::new(0)
                            .expect("Shift-BNN default GRNG construction cannot fail"),
                    ));
                }
                let sources = &mut sources[..request.samples];
                for (s, source) in sources.iter_mut().enumerate() {
                    source.reseed(mix_seed(request.seed, s as u64));
                }
                if self.fused_sampling {
                    network
                        .predictive_fused_into(&request.input, sources, &mut self.predictive)
                        .expect("request input shape matches the served model");
                } else {
                    network
                        .predictive_into(&request.input, sources, &mut self.predictive)
                        .expect("request input shape matches the served model");
                }
            }
            ReplicaBackend::Moment { network } => {
                network
                    .predictive_into(&request.input, &mut self.predictive)
                    .expect("request input shape matches the served model");
            }
        }
        finish_response(&self.predictive, request, response);
    }

    /// [`ServeReplica::answer_into`] bracketed by the hot-path profiling counters: returns
    /// what answering this request cost in per-tier GEMM calls/MACs, emitted ε values and
    /// scratch high-water `f32` slots. The counters are thread-local, so the profile is
    /// exact when the replica runs on the calling thread (the deterministic replay mode the
    /// obs benchmark commits) and the response is bit-identical to an unprofiled answer.
    pub fn answer_profiled(
        &mut self,
        request: &InferRequest,
        response: &mut InferResponse,
    ) -> bnn_obs::ProfileSnapshot {
        let before = profile_snapshot();
        bnn_tensor::profile::reset_scratch_high_water();
        self.answer_into(request, response);
        profile_snapshot().delta_since(&before)
    }
}

/// A point-in-time copy of this thread's hot-path counters in the obs presentation type.
fn profile_snapshot() -> bnn_obs::ProfileSnapshot {
    bnn_obs::ProfileSnapshot {
        gemm_calls: bnn_tensor::profile::gemm_calls(),
        gemm_macs: bnn_tensor::profile::gemm_macs(),
        epsilon_values: bnn_lfsr::profile::epsilon_values(),
        scratch_high_water: bnn_tensor::profile::scratch_high_water(),
    }
}

/// Copies a computed predictive into the response's reused buffers.
fn finish_response(predictive: &Predictive, request: &InferRequest, response: &mut InferResponse) {
    response.id = request.id;
    response.samples = predictive.samples;
    response.mean.clear();
    response.mean.extend_from_slice(predictive.mean.data());
    response.variance.clear();
    response.variance.extend_from_slice(predictive.variance.data());
    response.entropy = predictive.entropy;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::ModelSpec;
    use crate::workload::WorkloadSpec;

    fn engine(spec: &ModelSpec, policy: BatchPolicy, workers: usize) -> InferenceEngine {
        InferenceEngine::build(EngineSpec::new(spec.clone()).policy(policy).workers(workers))
    }

    fn small_trace(spec: &ModelSpec) -> Vec<InferRequest> {
        WorkloadSpec::uniform(10, 2, 3, 99).generate(spec)
    }

    #[test]
    fn run_produces_one_response_per_request_in_order() {
        let spec = ModelSpec::mlp(5);
        let engine = engine(&spec, BatchPolicy::unbatched(), 1);
        let trace = small_trace(&spec);
        let report = engine.run(&trace);
        assert_eq!(report.responses.len(), trace.len());
        for (request, response) in trace.iter().zip(&report.responses) {
            assert_eq!(request.id, response.id);
            assert_eq!(request.samples, response.samples);
            let total: f32 = response.mean.iter().sum();
            assert!((total - 1.0).abs() < 1e-5, "mean must be a distribution");
        }
    }

    #[test]
    fn tick_model_amortizes_batch_overhead() {
        let spec = ModelSpec::mlp(5);
        let trace = small_trace(&spec);
        let unbatched = engine(&spec, BatchPolicy::unbatched(), 1);
        let coalesced = engine(&spec, BatchPolicy { max_batch: 10, max_wait_ticks: 64 }, 1);
        let a = unbatched.run(&trace);
        let b = coalesced.run(&trace);
        // Same total work, fewer overhead payments: the coalesced makespan must be smaller.
        assert!(b.makespan_ticks < a.makespan_ticks);
        assert!(b.throughput_per_kilotick() > a.throughput_per_kilotick());
        assert!(b.mean_batch_size() > a.mean_batch_size());
    }

    #[test]
    fn batch_timing_respects_device_serialization() {
        let spec = ModelSpec::mlp(5);
        let engine = engine(&spec, BatchPolicy { max_batch: 2, max_wait_ticks: 4 }, 1);
        let report = engine.run(&small_trace(&spec));
        for pair in report.batches.windows(2) {
            assert!(pair[1].start_tick >= pair[0].end_tick, "batches overlap on the device");
            assert!(pair[1].start_tick >= pair[1].close_tick, "service before close");
        }
        assert_eq!(report.makespan_ticks, report.batches.last().unwrap().end_tick);
    }

    #[test]
    fn latency_percentiles_are_ordered() {
        let spec = ModelSpec::mlp(5);
        let engine = engine(&spec, BatchPolicy { max_batch: 4, max_wait_ticks: 8 }, 2);
        let report = engine.run(&small_trace(&spec));
        let (p50, p95, p99) = (
            report.latency_percentile(0.50),
            report.latency_percentile(0.95),
            report.latency_percentile(0.99),
        );
        assert!(p50 <= p95 && p95 <= p99);
        assert!(p50 > 0, "every latency includes at least the service time");
    }

    #[test]
    fn service_cost_scales_with_samples() {
        let engine = engine(&ModelSpec::lenet(5), BatchPolicy::unbatched(), 1);
        assert!(engine.epsilon_per_sample() > 0);
        let one = engine.service_cost_ticks(1);
        let many = engine.service_cost_ticks(64);
        assert!(many > one);
    }

    #[test]
    fn responses_digest_tracks_response_content() {
        let spec = ModelSpec::mlp(5);
        let engine = engine(&spec, BatchPolicy::unbatched(), 1);
        let trace_a = small_trace(&spec);
        let a = engine.run(&trace_a);
        assert_eq!(a.responses_digest().len(), 16);
        assert_eq!(a.responses_digest(), engine.run(&trace_a).responses_digest());
        let mut trace_b = trace_a.clone();
        trace_b[0].seed ^= 1;
        assert_ne!(a.responses_digest(), engine.run(&trace_b).responses_digest());
    }

    #[test]
    fn slow_multiplier_takes_the_max_overlapping_window() {
        let windows = [
            Slowdown { from_tick: 10, until_tick: 20, multiplier: 2 },
            Slowdown { from_tick: 15, until_tick: 30, multiplier: 5 },
        ];
        assert_eq!(slow_multiplier(&windows, 9), 1, "before every window");
        assert_eq!(slow_multiplier(&windows, 10), 2, "from_tick is inclusive");
        assert_eq!(slow_multiplier(&windows, 17), 5, "overlap takes the max");
        assert_eq!(slow_multiplier(&windows, 20), 5, "until_tick is exclusive");
        assert_eq!(slow_multiplier(&windows, 30), 1, "after every window");
    }

    #[test]
    fn slowdown_windows_stretch_timing_but_not_bytes() {
        let spec = ModelSpec::mlp(5);
        let engine = engine(&spec, BatchPolicy { max_batch: 2, max_wait_ticks: 4 }, 1);
        let trace = small_trace(&spec);
        let healthy = engine.run(&trace);
        // Slow windows reach an engine only through the cluster's fault plan: time the trace
        // on a slowed clock, then execute those batches.
        let slowdowns = [Slowdown { from_tick: 0, until_tick: u64::MAX, multiplier: 3 }];
        let mut clock = BatchClock::new(
            engine.policy(),
            engine.mode(),
            engine.epsilon_per_sample(),
            &[],
            &slowdowns,
        );
        for (i, request) in trace.iter().enumerate() {
            clock.admit(i, request.samples, request.arrival_tick);
        }
        let slow = engine.execute(&trace, &[], clock.finish(), 0, &mut NullRecorder);
        assert!(slow.makespan_ticks > healthy.makespan_ticks);
        for (batch, healthy_batch) in slow.batches.iter().zip(&healthy.batches) {
            assert_eq!(
                batch.end_tick - batch.start_tick,
                3 * (healthy_batch.end_tick - healthy_batch.start_tick),
                "every batch starts inside the window, so service stretches exactly 3x"
            );
        }
        assert_eq!(slow.responses_digest(), healthy.responses_digest(), "late, not different");
    }

    #[test]
    fn zero_sample_requests_answer_analytically_in_a_monte_carlo_replica() {
        let spec = ModelSpec::mlp(5);
        let source = ModelSource::Spec(spec.clone());
        let mut mc = ServeReplica::build(&EngineSpec::new(source.clone()));
        let mut moment = ServeReplica::build(&EngineSpec::new(source).mode(ServeMode::Moment));
        let mut request = small_trace(&spec).remove(0);
        request.samples = 0;
        let mut degraded = InferResponse {
            id: 0,
            samples: 9,
            mean: Vec::new(),
            variance: Vec::new(),
            entropy: 0.0,
        };
        let mut analytic = degraded.clone();
        mc.answer_into(&request, &mut degraded);
        moment.answer_into(&request, &mut analytic);
        assert_eq!(degraded, analytic, "the sentinel routes to the same analytic pass");
        assert_eq!(degraded.samples, 0, "the answer is marked analytic");
        // Degraded pricing matches the moment backend's two weight-wide passes.
        assert_eq!(
            request_service_cost(ServeMode::MonteCarlo, 5088, 0),
            service_cost(ServeMode::Moment, 5088, 0),
        );
    }

    #[test]
    fn empty_trace_yields_an_empty_report() {
        let engine = engine(&ModelSpec::mlp(5), BatchPolicy::unbatched(), 2);
        let report = engine.run(&[]);
        assert!(report.responses.is_empty());
        assert_eq!(report.makespan_ticks, 0);
        assert_eq!(report.throughput_per_kilotick(), 0.0);
        assert_eq!(report.mean_batch_size(), 0.0);
        // Serialization must not trip the percentile assert on an empty run.
        let json = report.to_json().to_compact();
        assert!(json.contains("\"p50\":null"));
    }
}
