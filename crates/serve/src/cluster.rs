//! **bnn-cluster** — a deterministic tick-domain cluster simulator above the single-engine
//! serving path: a router fanning [`InferRequest`]s across N replica shards, each an
//! [`InferenceEngine`] with its own pool and a bounded per-shard queue.
//!
//! This is the "millions of users" layer: it adds the three mechanisms a single engine does
//! not have —
//!
//! * **admission control and load shedding**: every shard bounds its *backlog* (requests
//!   admitted but not yet completed) at [`ClusterConfig::queue_cap`]; a request routed to a
//!   full shard is shed at its arrival tick. An optional relative deadline
//!   ([`ClusterConfig::deadline_ticks`]) sheds requests whose estimated completion already
//!   misses it at admission time, so nothing hopeless occupies queue space;
//! * **routing policies** ([`RoutingPolicy`]): deterministic round-robin, deterministic
//!   least-loaded (min backlog, lowest index on ties), and the uncertainty-aware **two-tier**
//!   policy — a cheap low-`S` first pass on the low tier whose predictive entropy above a
//!   threshold *escalates* the request to a reserved high-`S` shard. Escalation is the
//!   serving-side payoff of the paper's ε regeneration: re-sampling the same request at
//!   higher `S` needs only its 64-bit seed, nothing stored;
//! * **queue-depth-driven autoscaling** ([`AutoscalePolicy`]): at deterministic epoch ticks,
//!   shards activate when the mean backlog crosses a high watermark and drain (stop receiving,
//!   finish their queue) when it falls below a low one.
//!
//! # The determinism argument
//!
//! Everything above runs in the simulated tick domain: arrival ticks come from the trace, and
//! every shard times its batches on its own [`BatchClock`](crate::batcher) — the same state
//! machine [`InferenceEngine::run_traced`] times a whole trace on (same coalescing, same
//! `BATCH_OVERHEAD_TICKS` + ε-volume pricing, same version-at-service-start swap rule).
//! Routing, shedding, escalation and scaling decisions are pure functions of (trace, config,
//! swap schedule, fault plan); responses are pure functions of (request, posterior, `S`). No
//! wall clock is read anywhere on the result path, so an N-shard × M-worker cluster run
//! serializes **byte-identically** on every machine, at every worker count — and each shard's
//! slice of the run equals a standalone single-shard run over the sub-trace the router handed
//! it (`tests/cluster_determinism.rs` pins both).
//!
//! Every decision is a [`bnn_obs::Event`], built once where it is made: the recorder stream
//! and the report's per-family lists (`sheds`, `escalations`, `scale_events` and the
//! [`FaultTrace`]'s `retries`, `degrades`, `checkpoint_faults`) carry the same values, and
//! [`bnn_obs::export`] serializes both.
//!
//! Internally a run has two phases. Phase A (the *plan*) walks arrivals in trace order,
//! queries each shard's clock for backlog and completion estimates, and makes every decision;
//! it never touches a network, so it scales to million-request traces
//! ([`Cluster::plan_with_faults`] exposes it directly). Phase B hands each shard's admitted
//! requests and the batches its clock closed to that shard's own [`InferenceEngine`], which
//! executes exactly those batches on its pool — the report's timing and its answers come from
//! one clock ([`Cluster::run_traced`]).

use crate::batcher::{BatchClock, BatchPolicy};
use crate::builder::EngineSpec;
use crate::engine::{BatchStat, InferenceEngine, ServeRunReport, VersionSwap};
use crate::faults::{DegradeLevel, FaultPlan, FaultTimeline, FaultTrace, RetryPolicy};
use crate::request::{InferRequest, InferResponse};
use crate::spec::{ModelSource, ServeMode};
use bnn_obs::{export, Event, NullRecorder, Recorder};
use shift_bnn::sweep::json::{fnv1a_hex, Json, ToJson};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// How the router picks a shard for each arriving request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RoutingPolicy {
    /// Cycle through the active shards in arrival order — the baseline that ignores load.
    RoundRobin,
    /// Route to the active shard with the smallest backlog (admitted-but-incomplete
    /// requests); ties break to the lowest shard index. Deterministic because backlog is a
    /// pure tick-domain function of prior decisions.
    LeastLoaded,
    /// Uncertainty-aware two-tier serving: the low tier (all shards but the last) answers a
    /// cheap `low_samples`-sample first pass, routed least-loaded; any answer whose
    /// predictive entropy exceeds `entropy_threshold` is *escalated* — re-submitted, at its
    /// low-pass completion tick, to the reserved high-`S` shard (the last one) for a
    /// `high_samples`-sample answer. Escalations pass the same admission control; one that
    /// is shed keeps its low-tier answer.
    TwoTier {
        /// Monte-Carlo samples of the cheap first pass (≥ 1).
        low_samples: usize,
        /// Monte-Carlo samples of the escalated pass (≥ 1).
        high_samples: usize,
        /// Predictive-entropy escalation threshold in nats.
        entropy_threshold: f64,
    },
}

impl RoutingPolicy {
    /// A short machine-readable label: `"round_robin"`, `"least_loaded"` or `"two_tier"`.
    pub fn label(&self) -> &'static str {
        match self {
            RoutingPolicy::RoundRobin => "round_robin",
            RoutingPolicy::LeastLoaded => "least_loaded",
            RoutingPolicy::TwoTier { .. } => "two_tier",
        }
    }
}

/// Queue-depth-driven autoscaling, evaluated at deterministic epoch ticks
/// (`interval_ticks`, `2 × interval_ticks`, …): when the summed backlog of the active shards
/// exceeds `high_watermark` per active shard, the next inactive shard activates; when it
/// falls below `low_watermark` per active shard, the highest-numbered active shard *drains* —
/// it stops receiving new requests but completes everything already admitted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AutoscalePolicy {
    /// Ticks between scaling decisions (≥ 1).
    pub interval_ticks: u64,
    /// Mean backlog per active shard above which a shard activates.
    pub high_watermark: usize,
    /// Mean backlog per active shard below which a shard drains (must be < high).
    pub low_watermark: usize,
    /// Active shards never drop below this (≥ 1).
    pub min_active: usize,
}

/// Configuration of a cluster: N replica shards of one posterior source, a shared batching
/// policy and queue bound, a routing policy and optional autoscaling.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// The frozen posterior every shard replicates (hot-swaps can replace it per shard).
    pub source: ModelSource,
    /// The serving backend every shard runs ([`ServeMode::MonteCarlo`] by default). A
    /// [`ServeMode::Moment`] cluster prices batches by two weight-wide passes instead of
    /// `S·ε` GRNG draws and consumes no ε budget at all.
    pub mode: ServeMode,
    /// Total replica shards. Under [`RoutingPolicy::TwoTier`] the *last* shard is reserved
    /// as the high-`S` escalation tier and the rest form the low tier.
    pub shards: usize,
    /// Pool workers each shard's engine executes on (affects wall clock only, never bytes).
    pub workers_per_shard: usize,
    /// The per-shard dynamic-batching policy.
    pub batch: BatchPolicy,
    /// Per-shard backlog bound: a request routed to a shard holding this many
    /// admitted-but-incomplete requests is shed.
    pub queue_cap: usize,
    /// Optional relative deadline: a request whose estimated completion (service start on an
    /// idle-or-busy device plus batch overhead and its own ε volume) exceeds
    /// `arrival + deadline_ticks` is shed at admission rather than queued hopelessly.
    pub deadline_ticks: Option<u64>,
    /// How the router picks shards.
    pub routing: RoutingPolicy,
    /// Optional queue-depth-driven autoscaling over the routable shards.
    pub autoscale: Option<AutoscalePolicy>,
}

impl ClusterConfig {
    /// Mirrors an [`EngineSpec`] into a cluster configuration: every shard replicates the
    /// spec's posterior source and runs the spec's backend, batching policy and worker count.
    /// The spec's kernel tier, GEMM worker budget and fused-sampling switch are dropped:
    /// shard engines build at their defaults. Cluster-only knobs start at their neutral
    /// values — no deadline, round-robin routing, no autoscaling — and remain plain public
    /// fields for struct-update customization.
    ///
    /// ```
    /// use bnn_serve::{ClusterConfig, EngineSpec, ModelSpec, RoutingPolicy};
    ///
    /// let spec = EngineSpec::new(ModelSpec::mlp(7)).workers(2);
    /// let config = ClusterConfig {
    ///     routing: RoutingPolicy::LeastLoaded,
    ///     ..ClusterConfig::from_engine_spec(&spec, 3, 64)
    /// };
    /// assert_eq!(config.shards, 3);
    /// assert_eq!(config.workers_per_shard, 2);
    /// ```
    pub fn from_engine_spec(spec: &EngineSpec, shards: usize, queue_cap: usize) -> ClusterConfig {
        ClusterConfig {
            source: spec.source.clone(),
            mode: spec.mode,
            shards,
            workers_per_shard: spec.workers,
            batch: spec.policy,
            queue_cap,
            deadline_ticks: None,
            routing: RoutingPolicy::RoundRobin,
            autoscale: None,
        }
    }
}

/// A scheduled hot-swap on one shard of the cluster (the cluster form of [`VersionSwap`]).
#[derive(Debug, Clone)]
pub struct ShardSwap {
    /// Which shard swaps.
    pub shard: usize,
    /// The swap itself (tick + replacement source).
    pub swap: VersionSwap,
}

/// Why a request was shed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShedReason {
    /// The routed shard's backlog was at `queue_cap`.
    QueueFull,
    /// The admission-time completion estimate already missed the request's deadline.
    Deadline,
    /// The request was evicted by a [`crate::faults::FaultEvent::ShardDown`] crash (possibly
    /// more than once) and its [`crate::faults::RetryPolicy`] budget ran out. The event's
    /// shard is the one whose crash spent the final attempt.
    RetryBudgetExhausted,
    /// Every routable shard was down when the request (or its final retry) submitted. The
    /// event's shard is recorded as `0` by convention — there was no shard to cite.
    ShardUnavailable,
    /// The degradation ladder's top rung ([`crate::faults::DegradeLevel::Shed`]) was active
    /// at submission: cluster-wide backlog pressure left no capacity at any quality level.
    Overload,
}

impl ShedReason {
    /// A short machine-readable label.
    pub fn label(&self) -> &'static str {
        match self {
            ShedReason::QueueFull => "queue_full",
            ShedReason::Deadline => "deadline",
            ShedReason::RetryBudgetExhausted => "retry_budget_exhausted",
            ShedReason::ShardUnavailable => "shard_unavailable",
            ShedReason::Overload => "overload",
        }
    }
}

/// What happened to one submitted request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RequestOutcome {
    /// Shed at admission — never answered.
    Shed {
        /// The tick the decision was made at.
        tick: u64,
        /// The shard the router had chosen.
        shard: usize,
        /// Why it was shed.
        reason: ShedReason,
    },
    /// Answered (possibly after an escalation to the high tier).
    Answered {
        /// The shard whose answer the response carries (the high shard for upgrades).
        shard: usize,
        /// The tick the carried answer completed at.
        end_tick: u64,
        /// Whether the two-tier policy escalated this request.
        escalated: bool,
        /// Whether the escalation was admitted and the high-`S` answer is the one carried.
        upgraded: bool,
    },
}

pub use crate::stats::latency_percentile;

// ---------------------------------------------------------------------------------------------
// Phase A output: the plan
// ---------------------------------------------------------------------------------------------

/// The routing/admission/timing plan of a cluster run — everything except the answers.
///
/// Produced by [`Cluster::plan_with_faults`] without materializing a single network replica,
/// so it scales to arbitrarily long traces; [`Cluster::run_traced`] executes the same plan and
/// fills in real responses. Every decision list holds [`Event`]s of one variant, in decision
/// order — the values the recorder saw.
#[derive(Debug, Clone)]
pub struct ClusterPlan {
    /// Per submitted request, in trace order.
    pub outcomes: Vec<RequestOutcome>,
    /// Every shed decision ([`Event::Shed`]), in decision order.
    pub sheds: Vec<Event>,
    /// Every autoscaling decision ([`Event::Scale`]), in epoch order.
    pub scale_events: Vec<Event>,
    /// Answered-request latencies (completion − arrival), in trace order of the answered.
    pub latencies: Vec<u64>,
    /// Tick the last batch on any shard completes at (0 for an empty plan).
    pub makespan_ticks: u64,
    /// Batches planned per shard.
    pub batches_per_shard: Vec<usize>,
    /// Everything the fault plan caused: retries, ladder transitions, checkpoint fallbacks
    /// and per-request serving levels (empty under [`FaultPlan::none`]).
    pub faults: FaultTrace,
}

impl ClusterPlan {
    /// Nearest-rank latency percentile over the answered requests.
    ///
    /// # Panics
    ///
    /// Panics when nothing was answered.
    pub fn latency_percentile(&self, q: f64) -> u64 {
        latency_percentile(&self.latencies, q)
    }

    /// Shed requests over submitted requests (0 for an empty trace).
    pub fn shed_rate(&self) -> f64 {
        if self.outcomes.is_empty() {
            return 0.0;
        }
        self.sheds.len() as f64 / self.outcomes.len() as f64
    }

    /// Answered requests over submitted requests (1 for an empty trace).
    pub fn availability(&self) -> f64 {
        if self.outcomes.is_empty() {
            return 1.0;
        }
        (self.outcomes.len() - self.sheds.len()) as f64 / self.outcomes.len() as f64
    }
}

/// Records `event` and appends it to its family's list: the one place a decision is both
/// observed by the recorder and kept for the report.
fn decide<R: Recorder>(rec: &mut R, family: &mut Vec<Event>, event: Event) {
    if R::ENABLED {
        rec.record(event);
    }
    family.push(event);
}

/// Phase A's decisions as the router makes them, and the failover retry schedule they feed.
struct Decisions {
    outcomes: Vec<Option<RequestOutcome>>,
    sheds: Vec<Event>,
    scale_events: Vec<Event>,
    retries: Vec<Event>,
    degrades: Vec<Event>,
    /// `Reverse<(retry tick, schedule sequence, trace index)>` pops the earliest retry, in
    /// schedule order on ties.
    retry_heap: BinaryHeap<Reverse<(u64, u64, usize)>>,
    retry_seq: u64,
    /// Failed submissions per request.
    attempts: Vec<u32>,
}

impl Decisions {
    fn new(requests: usize) -> Decisions {
        Decisions {
            outcomes: vec![None; requests],
            sheds: Vec::new(),
            scale_events: Vec::new(),
            retries: Vec::new(),
            degrades: Vec::new(),
            retry_heap: BinaryHeap::new(),
            retry_seq: 0,
            attempts: vec![0; requests],
        }
    }

    /// Sheds the request at trace index `i` at `tick`.
    fn shed<R: Recorder>(
        &mut self,
        rec: &mut R,
        i: usize,
        request: u64,
        tick: u64,
        shard: usize,
        reason: ShedReason,
    ) {
        self.outcomes[i] = Some(RequestOutcome::Shed { tick, shard, reason });
        decide(rec, &mut self.sheds, Event::Shed { request, tick, shard, reason: reason.label() });
    }

    /// A submission of the request at trace index `i` failed at `tick`: the crash of `shard`
    /// evicted it, or (`None`) no shard was live. It retries after the policy's backoff while
    /// its budget lasts, and is shed once the budget is spent — `RetryBudgetExhausted` citing
    /// the crashed shard, or `ShardUnavailable` citing shard 0 by convention.
    fn fail_over<R: Recorder>(
        &mut self,
        rec: &mut R,
        policy: &RetryPolicy,
        i: usize,
        request: u64,
        tick: u64,
        shard: Option<usize>,
    ) {
        self.attempts[i] += 1;
        let attempt = self.attempts[i];
        if attempt <= policy.max_retries {
            let retry_tick = tick + policy.backoff_ticks(attempt);
            self.retry_heap.push(Reverse((retry_tick, self.retry_seq, i)));
            self.retry_seq += 1;
            let event = Event::Retry { request, failed_tick: tick, retry_tick, shard, attempt };
            decide(rec, &mut self.retries, event);
        } else {
            let reason = match shard {
                Some(_) => ShedReason::RetryBudgetExhausted,
                None => ShedReason::ShardUnavailable,
            };
            self.shed(rec, i, request, tick, shard.unwrap_or(0), reason);
        }
    }
}

/// Phase A's decisions, plus the work phase B executes.
struct Routing {
    work: ShardWork,
    decisions: Decisions,
    levels: Vec<DegradeLevel>,
}

/// Each shard's admitted requests and the batches phase A timed for them: everything phase B
/// executes.
struct ShardWork {
    /// Per-shard swap schedules, corrupted swaps cancelled.
    swaps: Vec<Vec<VersionSwap>>,
    /// Admitted global request indices per shard, in admission order (non-decreasing ticks).
    routed: Vec<Vec<usize>>,
    /// Each shard's batches, in service order; they answer `routed` in consecutive runs.
    batches: Vec<Vec<BatchStat>>,
    /// Effective per-request sample count (two-tier low passes and the degradation ladder
    /// override the request's own; `0` is the analytic-moment sentinel).
    effective_samples: Vec<usize>,
    /// The tick each request was (finally) admitted at — its arrival tick unless a crash
    /// evicted it into the retry path, in which case the last retry's submission tick.
    admitted_ticks: Vec<u64>,
}

impl ShardWork {
    /// Every admitted request as `(shard, trace index, completion tick)`.
    fn completions(&self) -> impl Iterator<Item = (usize, usize, u64)> + '_ {
        self.routed.iter().zip(&self.batches).enumerate().flat_map(|(shard, (members, batches))| {
            batches
                .iter()
                .flat_map(|batch| std::iter::repeat_n(batch.end_tick, batch.size))
                .zip(members)
                .map(move |(end_tick, &i)| (shard, i, end_tick))
        })
    }
}

/// Answered-request latencies in trace order. Latency is measured from the ORIGINAL arrival:
/// a retried request's failover delay is real waiting its caller experienced, so it lands in
/// the tail percentiles.
fn answered_latencies(outcomes: &[RequestOutcome], trace: &[InferRequest]) -> Vec<u64> {
    outcomes
        .iter()
        .zip(trace)
        .filter_map(|(outcome, request)| match outcome {
            RequestOutcome::Answered { end_tick, .. } => Some(end_tick - request.arrival_tick),
            RequestOutcome::Shed { .. } => None,
        })
        .collect()
}

// ---------------------------------------------------------------------------------------------
// The cluster
// ---------------------------------------------------------------------------------------------

/// A deterministic tick-domain cluster: router + N bounded-queue replica shards.
#[derive(Debug, Clone)]
pub struct Cluster {
    config: ClusterConfig,
}

impl Cluster {
    /// Creates a cluster after validating the configuration.
    ///
    /// # Panics
    ///
    /// Panics on a zero shard/worker/queue/batch bound, a two-tier cluster with fewer than
    /// two shards or zero sample counts, or an autoscale policy with inverted watermarks, a
    /// zero interval, or `min_active` outside `1..=routable shards`.
    pub fn new(config: ClusterConfig) -> Cluster {
        assert!(config.shards >= 1, "a cluster needs at least one shard");
        assert!(config.workers_per_shard >= 1, "each shard needs at least one worker");
        assert!(config.queue_cap >= 1, "queue_cap must be at least 1");
        assert!(config.batch.max_batch >= 1, "max_batch must be at least 1");
        if let RoutingPolicy::TwoTier { low_samples, high_samples, .. } = config.routing {
            assert!(config.shards >= 2, "two-tier routing reserves the last shard as high tier");
            assert!(low_samples >= 1 && high_samples >= 1, "sample counts must be at least 1");
            assert!(
                config.mode == ServeMode::MonteCarlo,
                "two-tier routing escalates by sample count, which the analytic moment \
                 backend has no use for — serve a moment cluster with a single tier"
            );
        }
        if let Some(scale) = config.autoscale {
            assert!(scale.interval_ticks >= 1, "autoscale interval must be at least 1 tick");
            assert!(scale.low_watermark < scale.high_watermark, "watermarks must be ordered");
            let routable = Cluster::routable(&config);
            assert!(
                scale.min_active >= 1 && scale.min_active <= routable,
                "min_active must be in 1..={routable}"
            );
        }
        Cluster { config }
    }

    /// The cluster's configuration.
    pub fn config(&self) -> &ClusterConfig {
        &self.config
    }

    /// Shards the router may target (all of them, minus the reserved high tier).
    fn routable(config: &ClusterConfig) -> usize {
        match config.routing {
            RoutingPolicy::TwoTier { .. } => config.shards - 1,
            _ => config.shards,
        }
    }

    /// Groups a swap schedule by shard and validates it.
    fn swaps_by_shard(&self, swaps: &[ShardSwap]) -> Vec<Vec<VersionSwap>> {
        let mut grouped: Vec<Vec<VersionSwap>> = vec![Vec::new(); self.config.shards];
        for swap in swaps {
            assert!(swap.shard < self.config.shards, "swap targets shard {}", swap.shard);
            grouped[swap.shard].push(swap.swap.clone());
        }
        for shard in &grouped {
            for pair in shard.windows(2) {
                assert!(
                    pair[0].at_tick <= pair[1].at_tick,
                    "per-shard swap schedules must be sorted by at_tick"
                );
            }
        }
        grouped
    }

    /// Phase A: a merged tick-ordered event loop over arrivals, failover retries, fault
    /// transitions and autoscale epochs, making every scaling, routing, degradation and
    /// admission decision against one [`BatchClock`] per shard.
    ///
    /// Event ordering, the whole determinism argument in four rules:
    ///
    /// 1. *submissions* (fresh arrivals merged with the retry heap) are processed in
    ///    non-decreasing tick order; a retry tying with an arrival goes first (it is the
    ///    older request), retries tying with each other go in schedule order;
    /// 2. *control events* at or before the next submission's tick fire before it, in tick
    ///    order — fault transitions before autoscale epochs on ties;
    /// 3. after the last submission, remaining fault transitions still fire (a trailing
    ///    crash can evict an open batch, whose retries then re-enter rule 1), but no further
    ///    autoscale epochs do — matching the fault-free router, which never scales after the
    ///    last arrival;
    /// 4. nothing reads anything but (trace, config, swaps, fault plan) — no clock, no
    ///    iteration order of any unordered container.
    ///
    /// Under [`FaultPlan::none`] the loop degenerates to exactly the pre-fault router:
    /// arrivals in trace order, epochs before each, no retries, every level `Normal`.
    ///
    /// Each decision is built once, as an [`Event`]: the recorder sees it and the report's
    /// lists keep it, at the same tick. Admissions (with the queue depth the admission
    /// control compared) are recorded too. The recorder is written to, never read, so
    /// routing is byte-identical with any recorder.
    fn route<R: Recorder>(
        &self,
        trace: &[InferRequest],
        swaps: Vec<Vec<VersionSwap>>,
        faults: &FaultPlan,
        timeline: &FaultTimeline,
        rec: &mut R,
    ) -> Routing {
        let routable = Cluster::routable(&self.config);
        let base_epsilon = self.config.source.epsilon_count();
        let mut clocks: Vec<BatchClock> = swaps
            .iter()
            .zip(&timeline.slowdowns)
            .map(|(swaps, slowdowns)| {
                BatchClock::new(self.config.batch, self.config.mode, base_epsilon, swaps, slowdowns)
            })
            .collect();
        let mut routed: Vec<Vec<usize>> = vec![Vec::new(); self.config.shards];
        let mut decisions = Decisions::new(trace.len());
        let mut effective_samples = vec![0usize; trace.len()];
        let mut admitted_ticks = vec![0u64; trace.len()];
        let mut levels = vec![DegradeLevel::Normal; trace.len()];

        let mut active = match self.config.autoscale {
            Some(scale) => scale.min_active,
            None => routable,
        };
        let mut next_epoch = self.config.autoscale.map(|s| s.interval_ticks);
        let mut rr_cursor = 0usize;
        let mut previous_arrival = 0u64;

        // Liveness per routable shard, flipped by the fault timeline's transitions.
        let mut up = vec![true; routable];
        let mut tr_idx = 0usize;
        let mut current_level = DegradeLevel::Normal;
        let mut arrival_idx = 0usize;

        loop {
            // Rule 1: the next submission is the earliest of the retry heap and the arrival
            // cursor; the retry wins ties.
            let next_retry = decisions.retry_heap.peek().map(|&Reverse(key)| key);
            let next_arrival = (arrival_idx < trace.len()).then(|| trace[arrival_idx].arrival_tick);
            let next_sub_tick = match (next_retry, next_arrival) {
                (Some((rt, _, _)), Some(at)) => Some(rt.min(at)),
                (Some((rt, _, _)), None) => Some(rt),
                (None, Some(at)) => Some(at),
                (None, None) => None,
            };

            // Rules 2 and 3: fire one due control event and re-evaluate (a transition can
            // schedule a retry earlier than the submission we were advancing toward).
            let next_tr = timeline.transitions.get(tr_idx).copied();
            let tr_due = next_tr.is_some_and(|(tt, _, _)| next_sub_tick.is_none_or(|st| tt <= st));
            let ep_due = match (next_epoch, next_sub_tick) {
                (Some(e), Some(st)) => e <= st,
                _ => false,
            };
            if tr_due && (!ep_due || next_tr.is_some_and(|(tt, _, _)| tt <= next_epoch.unwrap())) {
                let (tick, shard, down) = next_tr.expect("tr_due implies a transition");
                tr_idx += 1;
                if !down {
                    up[shard] = true;
                } else if up[shard] {
                    up[shard] = false;
                    // Fail-stop at the dispatch boundary: committed batches complete, the
                    // open batch's members fail over. They are the exact tail of this
                    // shard's admission order, so un-routing them is a truncation.
                    let evicted = clocks[shard].evict_open(tick);
                    let keep = routed[shard].len() - evicted.len();
                    debug_assert!(
                        routed[shard][keep..] == evicted[..],
                        "the open batch must be the tail of the shard's admission order"
                    );
                    routed[shard].truncate(keep);
                    for &i in &evicted {
                        decisions.fail_over(rec, &faults.retry, i, trace[i].id, tick, Some(shard));
                    }
                }
                continue;
            }
            if ep_due {
                let scale = self.config.autoscale.expect("ep_due implies autoscaling");
                let epoch = next_epoch.expect("ep_due implies an epoch");
                let backlog: usize =
                    clocks[..active].iter_mut().map(|clock| clock.backlog(epoch)).sum();
                let before = active;
                if backlog > scale.high_watermark * active && active < routable {
                    active += 1;
                } else if backlog < scale.low_watermark * active && active > scale.min_active {
                    active -= 1;
                }
                if active != before {
                    let event = Event::Scale { tick: epoch, active };
                    decide(rec, &mut decisions.scale_events, event);
                }
                next_epoch = Some(epoch + scale.interval_ticks);
                continue;
            }

            // No controls due: process the submission itself (or finish).
            if next_sub_tick.is_none() {
                break;
            }
            let (t, i) = match (next_retry, next_arrival) {
                (Some((rt, _, ri)), at) if at.is_none_or(|at| rt <= at) => {
                    decisions.retry_heap.pop();
                    (rt, ri)
                }
                _ => {
                    let i = arrival_idx;
                    arrival_idx += 1;
                    let t = trace[i].arrival_tick;
                    assert!(
                        t >= previous_arrival,
                        "request trace must be sorted by arrival_tick (index {i})"
                    );
                    previous_arrival = t;
                    (t, i)
                }
            };
            let request = &trace[i];

            // Failover's last resort: with every routable-and-active shard down, the
            // submission re-enters the retry path.
            let live = (0..active).filter(|&s| up[s]).count();
            if live == 0 {
                decisions.fail_over(rec, &faults.retry, i, request.id, t, None);
                continue;
            }

            // The degradation ladder reads cluster-wide pressure over the live shards at
            // every submission; a level change is a tick-stamped event.
            let level = match faults.ladder {
                Some(ladder) => {
                    let pressure: usize =
                        (0..active).filter(|&s| up[s]).map(|s| clocks[s].backlog(t)).sum();
                    let level = ladder.level_for(pressure, live);
                    if level != current_level {
                        let event = Event::Degrade {
                            tick: t,
                            from: current_level.label(),
                            to: level.label(),
                            backlog: pressure,
                        };
                        decide(rec, &mut decisions.degrades, event);
                        current_level = level;
                    }
                    level
                }
                None => DegradeLevel::Normal,
            };
            levels[i] = level;

            let samples = match self.config.routing {
                RoutingPolicy::TwoTier { low_samples, .. } => low_samples,
                _ => match level {
                    DegradeLevel::Normal | DegradeLevel::Shed => request.samples,
                    DegradeLevel::ReducedSamples => request
                        .samples
                        .min(faults.ladder.expect("level implies ladder").reduced_samples),
                    // 0 is the analytic sentinel: priced and answered as one moment pass.
                    DegradeLevel::Moment => 0,
                },
            };
            let shard = match self.config.routing {
                RoutingPolicy::RoundRobin => {
                    let position = rr_cursor % live;
                    rr_cursor += 1;
                    (0..active)
                        .filter(|&s| up[s])
                        .nth(position)
                        .expect("position is within the live count")
                }
                RoutingPolicy::LeastLoaded | RoutingPolicy::TwoTier { .. } => (0..active)
                    .filter(|&s| up[s])
                    .min_by_key(|&s| (clocks[s].backlog(t), s))
                    .expect("at least one live shard"),
            };

            // Admission control: the ladder's top rung, then the queue bound, then the
            // deadline. The backlog at the decision doubles as the recorded queue depth.
            let depth = clocks[shard].backlog(t);
            let shed = if level == DegradeLevel::Shed {
                Some(ShedReason::Overload)
            } else if depth >= self.config.queue_cap {
                Some(ShedReason::QueueFull)
            } else if self
                .config
                .deadline_ticks
                .is_some_and(|deadline| clocks[shard].estimate_end(t, samples) > t + deadline)
            {
                Some(ShedReason::Deadline)
            } else {
                None
            };
            if let Some(reason) = shed {
                decisions.shed(rec, i, request.id, t, shard, reason);
                continue;
            }
            if R::ENABLED {
                rec.record(Event::Admit {
                    request: request.id,
                    tick: t,
                    shard,
                    queue_depth: depth,
                });
            }
            clocks[shard].admit(i, samples, t);
            routed[shard].push(i);
            effective_samples[i] = samples;
            admitted_ticks[i] = t;
        }
        Routing {
            work: ShardWork {
                swaps,
                routed,
                batches: clocks.into_iter().map(BatchClock::finish).collect(),
                effective_samples,
                admitted_ticks,
            },
            decisions,
            levels,
        }
    }

    /// Plans a run without computing any responses: routing, admission, shedding, scaling,
    /// failover and the degradation ladder, with complete tick timing. Batch timing prices
    /// each batch at the version active at its service start, exactly as
    /// [`Cluster::run_traced`] executes it, and the plan's `faults` trace records every
    /// crash, recovery, slow window and checkpoint corruption the fault plan fires. No
    /// replica is ever materialized, so the chaos grid can sweep fault schedules over
    /// arbitrarily long traces. Untraced callers pass `&[]` and [`FaultPlan::none`] for a
    /// swap-free, fault-free plan.
    ///
    /// # Panics
    ///
    /// Panics under [`RoutingPolicy::TwoTier`] — escalation decisions need real predictive
    /// entropy, so the two-tier policy only supports [`Cluster::run_traced`] — when the trace
    /// is not sorted by arrival tick, when a swap targets a shard out of range or a per-shard
    /// schedule is not sorted by `at_tick`, or when the fault plan fails validation
    /// ([`FaultPlan`] events unsorted, shard out of range, ladder watermarks inverted, or a
    /// ladder on a non-Monte-Carlo cluster).
    pub fn plan_with_faults(
        &self,
        trace: &[InferRequest],
        swaps: &[ShardSwap],
        faults: &FaultPlan,
    ) -> ClusterPlan {
        assert!(
            !matches!(self.config.routing, RoutingPolicy::TwoTier { .. }),
            "two-tier escalation needs real entropies; use Cluster::run_traced"
        );
        self.plan_traced(trace, swaps, faults, &mut NullRecorder).0
    }

    /// Phase A in full: validates the fault plan and swap schedule, routes the trace, and
    /// settles every admitted request as answered by its shard when its batch completes.
    /// Returns the plan and the work phase B executes.
    fn plan_traced<R: Recorder>(
        &self,
        trace: &[InferRequest],
        swaps: &[ShardSwap],
        faults: &FaultPlan,
        rec: &mut R,
    ) -> (ClusterPlan, ShardWork) {
        let timeline = FaultTimeline::build(
            faults,
            Cluster::routable(&self.config),
            self.config.shards,
            self.config.mode,
        );
        let mut grouped = self.swaps_by_shard(swaps);
        let mut checkpoint_faults = Vec::new();
        for event in timeline.cancel_corrupted_swaps(&mut grouped) {
            decide(rec, &mut checkpoint_faults, event);
        }
        let Routing { work, decisions, levels } =
            self.route(trace, grouped, faults, &timeline, rec);
        let Decisions { mut outcomes, sheds, scale_events, retries, degrades, .. } = decisions;
        for (shard, i, end_tick) in work.completions() {
            outcomes[i] = Some(RequestOutcome::Answered {
                shard,
                end_tick,
                escalated: false,
                upgraded: false,
            });
        }
        let outcomes: Vec<RequestOutcome> =
            outcomes.into_iter().map(|o| o.expect("every request has an outcome")).collect();
        let plan = ClusterPlan {
            latencies: answered_latencies(&outcomes, trace),
            outcomes,
            sheds,
            scale_events,
            makespan_ticks: work
                .batches
                .iter()
                .filter_map(|b| b.last())
                .map(|b| b.end_tick)
                .max()
                .unwrap_or(0),
            batches_per_shard: work.batches.iter().map(Vec::len).collect(),
            faults: FaultTrace { retries, degrades, checkpoint_faults, levels },
        };
        (plan, work)
    }

    /// Serves a trace through the cluster: the same phase-A decisions as
    /// [`Cluster::plan_with_faults`], then real answers for every finally-admitted request on
    /// its shard's own engine, which executes exactly the batches the plan timed, escalating
    /// high-entropy two-tier answers to the high shard. Each shard's engine answers its
    /// sub-trace under its own swap schedule, with the same deterministic
    /// version-at-service-start boundary as [`InferenceEngine::run_traced`]. An evicted
    /// request is in none of a shard's batches (the crash took it out of the open batch
    /// before dispatch), and requests the degradation ladder downgraded to the analytic
    /// backend are answered by the engine's moment sentinel (`samples == 0`).
    ///
    /// Every routing decision, batch transition, fault reaction and final answer is recorded
    /// as a tick-stamped [`Event`], keyed by request id. The recorder is written to and never
    /// read, so the returned report — responses, outcomes, timing, digests — is
    /// byte-identical to an untraced run's (`&mut NullRecorder`) at any worker or shard
    /// count. Recorded streams attribute 100% of every answered request's end-to-end latency
    /// to named stages via [`bnn_obs::assemble_traces`].
    ///
    /// # Panics
    ///
    /// Panics when the trace is not sorted by arrival tick, a request's input shape
    /// mismatches the source, or a request asks for zero samples; under the swap and
    /// fault-plan conditions of [`Cluster::plan_with_faults`]; or when a non-empty fault plan
    /// is combined with [`RoutingPolicy::TwoTier`] (escalation across crashing shards is not
    /// modelled).
    pub fn run_traced<R: Recorder>(
        &self,
        trace: &[InferRequest],
        swaps: &[ShardSwap],
        faults: &FaultPlan,
        rec: &mut R,
    ) -> ClusterRunReport {
        if matches!(self.config.routing, RoutingPolicy::TwoTier { .. }) {
            assert!(
                faults.is_empty(),
                "fault injection does not support two-tier routing: escalation across \
                 crashing shards is not modelled"
            );
        }
        let (plan, work) = self.plan_traced(trace, swaps, faults, rec);
        let ClusterPlan { mut outcomes, sheds, scale_events, mut makespan_ticks, faults, .. } =
            plan;

        // Phase B: each shard's engine executes exactly the batches phase A timed, over the
        // requests that shard admitted. A retried request enters at its final admission tick
        // (its failover history lives in phase A) and is answered at the sample count phase A
        // priced it at. Under two-tier routing the router never targets the reserved high
        // shard, so its engine (and report) is built once by the escalation block below.
        // Every shard executes on one engine spec: the cluster's source, backend, policy and
        // workers, every other knob at its default.
        let engine = InferenceEngine::build(
            EngineSpec::new(self.config.source.clone())
                .mode(self.config.mode)
                .policy(self.config.batch)
                .workers(self.config.workers_per_shard),
        );
        let mut responses: Vec<Option<InferResponse>> = vec![None; trace.len()];
        let mut shard_reports: Vec<ServeRunReport> = Vec::with_capacity(self.config.shards);
        for (shard, members) in work.routed.iter().enumerate().take(Cluster::routable(&self.config))
        {
            let sub_trace: Vec<InferRequest> = members
                .iter()
                .map(|&i| InferRequest {
                    arrival_tick: work.admitted_ticks[i],
                    samples: work.effective_samples[i],
                    ..trace[i].clone()
                })
                .collect();
            let batches = work.batches[shard].clone();
            let report = engine.execute(&sub_trace, &work.swaps[shard], batches, shard, rec);
            for (&i, response) in members.iter().zip(&report.responses) {
                responses[i] = Some(response.clone());
            }
            shard_reports.push(report);
        }

        // Two-tier escalation: low-pass answers whose entropy crosses the threshold re-enter
        // at the high shard, arriving at their low-pass completion tick.
        let mut escalations: Vec<Event> = Vec::new();
        if let RoutingPolicy::TwoTier { high_samples, entropy_threshold, .. } = self.config.routing
        {
            let high = self.config.shards - 1;
            let mut candidates: Vec<(u64, usize)> = outcomes
                .iter()
                .enumerate()
                .filter_map(|(i, outcome)| match *outcome {
                    RequestOutcome::Answered { end_tick, .. } => {
                        let response = responses[i].as_ref().expect("answered requests respond");
                        (f64::from(response.entropy) > entropy_threshold).then_some((end_tick, i))
                    }
                    RequestOutcome::Shed { .. } => None,
                })
                .collect();
            candidates.sort_unstable();

            let mut high_clock = BatchClock::new(
                self.config.batch,
                self.config.mode,
                self.config.source.epsilon_count(),
                &work.swaps[high],
                &[], // two-tier runs carry no fault plan (asserted above)
            );
            // `high_trace[k]` escalates the request at trace index `high_indices[k]`; ids
            // are caller-chosen and never used as positions.
            let mut high_trace: Vec<InferRequest> = Vec::new();
            let mut high_indices: Vec<usize> = Vec::new();
            let mut kept_low: Vec<usize> = Vec::new();
            for &(tick, i) in &candidates {
                let full = high_clock.backlog(tick) >= self.config.queue_cap;
                let late = self.config.deadline_ticks.is_some_and(|deadline| {
                    high_clock.estimate_end(tick, high_samples) > tick + deadline
                });
                let admit = !full && !late;
                let event = Event::Escalation { request: trace[i].id, tick, admitted: admit };
                decide(rec, &mut escalations, event);
                if admit {
                    high_clock.admit(i, high_samples, tick);
                    let mut request = trace[i].clone();
                    request.arrival_tick = tick;
                    request.samples = high_samples;
                    high_trace.push(request);
                    high_indices.push(i);
                } else {
                    kept_low.push(i);
                }
            }

            let high_report =
                engine.execute(&high_trace, &work.swaps[high], high_clock.finish(), high, rec);
            for (k, &i) in high_indices.iter().enumerate() {
                responses[i] = Some(high_report.responses[k].clone());
                outcomes[i] = RequestOutcome::Answered {
                    shard: high,
                    end_tick: high_trace[k].arrival_tick + high_report.latencies[k],
                    escalated: true,
                    upgraded: true,
                };
            }
            for &i in &kept_low {
                if let RequestOutcome::Answered { escalated, .. } = &mut outcomes[i] {
                    *escalated = true;
                }
            }
            makespan_ticks = makespan_ticks.max(high_report.makespan_ticks);
            shard_reports.push(high_report);
        }

        if R::ENABLED {
            // Terminal leaves for the answered side (sheds already recorded theirs at the
            // decision): the carried answer's completion tick, post-escalation-upgrade.
            for (outcome, request) in outcomes.iter().zip(trace) {
                if let RequestOutcome::Answered { end_tick, .. } = outcome {
                    rec.record(Event::Answer { request: request.id, tick: *end_tick });
                }
            }
        }

        ClusterRunReport {
            routing: self.config.routing.label().to_string(),
            shards: self.config.shards,
            queue_cap: self.config.queue_cap,
            workers_per_shard: self.config.workers_per_shard,
            latencies: answered_latencies(&outcomes, trace),
            outcomes,
            responses,
            sheds,
            escalations,
            scale_events,
            shard_reports,
            makespan_ticks,
            faults,
        }
    }
}

// ---------------------------------------------------------------------------------------------
// The report
// ---------------------------------------------------------------------------------------------

/// The result of one cluster run: per-request outcomes and answers, every shed / escalation /
/// scaling decision with its exact tick, and the per-shard engine reports.
///
/// Every field except `workers_per_shard` is a pure function of (trace, config, swap
/// schedule); `to_json` omits the worker count, so two runs of the same inputs serialize
/// byte-identically at any worker count.
#[derive(Debug, Clone)]
pub struct ClusterRunReport {
    /// The routing policy's label.
    pub routing: String,
    /// Shard count (for two-tier runs the last is the high tier).
    pub shards: usize,
    /// The per-shard backlog bound the run enforced.
    pub queue_cap: usize,
    /// Pool workers per shard (wall-clock only; never affects any other field).
    pub workers_per_shard: usize,
    /// Per submitted request, in trace order.
    pub outcomes: Vec<RequestOutcome>,
    /// Per submitted request, in trace order: the carried answer, `None` when shed.
    pub responses: Vec<Option<InferResponse>>,
    /// Answered-request latencies (carried answer's completion − arrival), in trace order
    /// of the answered requests.
    pub latencies: Vec<u64>,
    /// Every shed decision ([`Event::Shed`]), in decision order.
    pub sheds: Vec<Event>,
    /// Every two-tier escalation decision ([`Event::Escalation`]), in decision order.
    pub escalations: Vec<Event>,
    /// Every autoscaling decision ([`Event::Scale`]), in epoch order.
    pub scale_events: Vec<Event>,
    /// One engine report per shard (the high shard's holds the escalation sub-trace).
    pub shard_reports: Vec<ServeRunReport>,
    /// Tick the last batch on any shard completed at (0 for an empty run).
    pub makespan_ticks: u64,
    /// Everything the fault plan caused: retries, ladder transitions, checkpoint fallbacks
    /// and per-request serving levels (empty under [`FaultPlan::none`]).
    pub faults: FaultTrace,
}

impl ClusterRunReport {
    /// Submitted request count.
    pub fn submitted(&self) -> usize {
        self.outcomes.len()
    }

    /// Answered request count (`submitted − shed`).
    pub fn answered(&self) -> usize {
        self.outcomes.len() - self.sheds.len()
    }

    /// Shed requests over submitted requests (0 for an empty trace).
    pub fn shed_rate(&self) -> f64 {
        if self.outcomes.is_empty() {
            return 0.0;
        }
        self.sheds.len() as f64 / self.outcomes.len() as f64
    }

    /// Answered requests over submitted requests (1 for an empty trace) — the headline
    /// robustness metric the chaos grid gates: under a fault plan it measures how much of
    /// the offered load survived crashes and overload via failover and degradation.
    pub fn availability(&self) -> f64 {
        if self.outcomes.is_empty() {
            return 1.0;
        }
        self.answered() as f64 / self.submitted() as f64
    }

    /// Counts of answered requests per degradation level `(normal, reduced_samples,
    /// moment)` — the ladder's occupancy. All-normal without a ladder.
    pub fn degrade_occupancy(&self) -> (usize, usize, usize) {
        self.faults
            .occupancy(self.outcomes.iter().map(|o| matches!(o, RequestOutcome::Answered { .. })))
    }

    /// Escalated requests over submitted requests (0 outside two-tier routing).
    pub fn escalation_rate(&self) -> f64 {
        if self.outcomes.is_empty() {
            return 0.0;
        }
        self.escalations.len() as f64 / self.outcomes.len() as f64
    }

    /// Nearest-rank latency percentile over the answered requests.
    ///
    /// # Panics
    ///
    /// Panics when nothing was answered.
    pub fn latency_percentile(&self, q: f64) -> u64 {
        latency_percentile(&self.latencies, q)
    }

    /// The canonical response bytes (shed requests serialize as `null`) — what the cluster
    /// determinism contract compares across shard and worker counts.
    pub fn responses_json(&self) -> String {
        let items: Vec<Json> = self
            .responses
            .iter()
            .map(|r| r.as_ref().map_or(Json::Null, |resp| resp.to_json()))
            .collect();
        Json::Array(items).to_compact()
    }

    /// FNV-1a digest of [`responses_json`](Self::responses_json), 16 hex characters.
    pub fn responses_digest(&self) -> String {
        fnv1a_hex(self.responses_json().bytes())
    }

    /// The canonical decision bytes: every shed, escalation and scaling event with its exact
    /// tick, serialized through the observability exporter ([`export::decision_events_json`]
    /// — the single emission code path). The committed cluster baseline pins this digest.
    pub fn events_json(&self) -> String {
        export::decision_events_json(
            self.sheds.iter().chain(&self.escalations).chain(&self.scale_events),
        )
        .to_compact()
    }

    /// FNV-1a digest of [`events_json`](Self::events_json), 16 hex characters.
    pub fn events_digest(&self) -> String {
        fnv1a_hex(self.events_json().bytes())
    }

    /// The canonical fault-event bytes: every failover retry, ladder transition and
    /// checkpoint fallback with its exact tick. Deliberately separate from
    /// [`events_json`](Self::events_json), whose digest pre-dates fault injection and stays
    /// byte-identical under [`FaultPlan::none`].
    pub fn fault_events_json(&self) -> String {
        self.faults.to_json().to_compact()
    }

    /// FNV-1a digest of [`fault_events_json`](Self::fault_events_json), 16 hex characters —
    /// what the committed chaos baseline pins.
    pub fn fault_events_digest(&self) -> String {
        fnv1a_hex(self.fault_events_json().bytes())
    }

    /// Serializes the full report. Worker count is deliberately omitted: every serialized
    /// field is a pure function of (trace, config, swap schedule), so 1-worker and N-worker
    /// runs — and re-runs on any machine — produce identical bytes.
    pub fn to_json(&self) -> Json {
        let percentile = |q| {
            if self.latencies.is_empty() {
                Json::Null
            } else {
                Json::UInt(self.latency_percentile(q))
            }
        };
        Json::obj([
            ("routing", Json::Str(self.routing.clone())),
            ("shards", Json::UInt(self.shards as u64)),
            ("queue_cap", Json::UInt(self.queue_cap as u64)),
            ("submitted", Json::UInt(self.submitted() as u64)),
            ("answered", Json::UInt(self.answered() as u64)),
            ("shed", Json::UInt(self.sheds.len() as u64)),
            ("shed_rate", Json::Float(self.shed_rate())),
            ("escalated", Json::UInt(self.escalations.len() as u64)),
            ("escalation_rate", Json::Float(self.escalation_rate())),
            ("makespan_ticks", Json::UInt(self.makespan_ticks)),
            (
                "latency_ticks",
                Json::obj([
                    ("p50", percentile(0.50)),
                    ("p95", percentile(0.95)),
                    ("p99", percentile(0.99)),
                    ("p999", percentile(0.999)),
                ]),
            ),
            ("availability", Json::Float(self.availability())),
            (
                "degrade_occupancy",
                Json::obj([
                    ("normal", Json::UInt(self.degrade_occupancy().0 as u64)),
                    ("reduced_samples", Json::UInt(self.degrade_occupancy().1 as u64)),
                    ("moment", Json::UInt(self.degrade_occupancy().2 as u64)),
                ]),
            ),
            ("sheds", Json::Array(self.sheds.iter().map(export::event_payload).collect())),
            (
                "escalations",
                Json::Array(self.escalations.iter().map(export::event_payload).collect()),
            ),
            (
                "scale_events",
                Json::Array(self.scale_events.iter().map(export::event_payload).collect()),
            ),
            ("faults", self.faults.to_json()),
            (
                "shard_batches",
                Json::Array(
                    self.shard_reports.iter().map(|r| Json::UInt(r.batches.len() as u64)).collect(),
                ),
            ),
            (
                "responses",
                Json::Array(
                    self.responses
                        .iter()
                        .map(|r| r.as_ref().map_or(Json::Null, |resp| resp.to_json()))
                        .collect(),
                ),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::ModelSpec;
    use crate::workload::{ArrivalProcess, WorkloadSpec};

    fn spec() -> ModelSpec {
        ModelSpec::mlp(2021)
    }

    fn config(shards: usize, routing: RoutingPolicy) -> ClusterConfig {
        ClusterConfig {
            source: ModelSource::Spec(spec()),
            mode: ServeMode::MonteCarlo,
            shards,
            workers_per_shard: 1,
            batch: BatchPolicy { max_batch: 4, max_wait_ticks: 8 },
            queue_cap: 8,
            deadline_ticks: None,
            routing,
            autoscale: None,
        }
    }

    fn trace(requests: usize, interarrival: u64) -> Vec<InferRequest> {
        WorkloadSpec::uniform(requests, interarrival, 2, 33).generate(&spec())
    }

    /// An untraced run under `faults` with a per-shard swap schedule.
    fn run_faulted(
        cluster: &Cluster,
        trace: &[InferRequest],
        swaps: &[ShardSwap],
        faults: &FaultPlan,
    ) -> ClusterRunReport {
        cluster.run_traced(trace, swaps, faults, &mut NullRecorder)
    }

    /// An untraced, swap-free, fault-free run.
    fn run(cluster: &Cluster, trace: &[InferRequest]) -> ClusterRunReport {
        run_faulted(cluster, trace, &[], &FaultPlan::none())
    }

    #[test]
    fn every_request_has_exactly_one_outcome() {
        let cluster = Cluster::new(config(3, RoutingPolicy::LeastLoaded));
        let trace = trace(48, 1);
        let report = run(&cluster, &trace);
        assert_eq!(report.outcomes.len(), 48);
        assert_eq!(report.answered() + report.sheds.len(), report.submitted());
        for (i, outcome) in report.outcomes.iter().enumerate() {
            match outcome {
                RequestOutcome::Answered { end_tick, .. } => {
                    assert!(responses_present(&report, i));
                    assert!(*end_tick >= trace[i].arrival_tick);
                }
                RequestOutcome::Shed { .. } => assert!(!responses_present(&report, i)),
            }
        }
    }

    fn responses_present(report: &ClusterRunReport, i: usize) -> bool {
        report.responses[i].is_some()
    }

    #[test]
    fn round_robin_spreads_and_least_loaded_balances() {
        let trace = trace(32, 2);
        for routing in [RoutingPolicy::RoundRobin, RoutingPolicy::LeastLoaded] {
            let report = run(&Cluster::new(config(4, routing)), &trace);
            let served: Vec<usize> =
                report.shard_reports.iter().map(|r| r.responses.len()).collect();
            assert!(served.iter().all(|&n| n > 0), "{}: idle shard {served:?}", routing.label());
        }
    }

    #[test]
    fn queue_cap_sheds_under_adversarial_spikes() {
        let spikes = WorkloadSpec::uniform(64, 1, 2, 33)
            .with_arrival(ArrivalProcess::Adversarial { spike: 32 })
            .generate(&spec());
        let mut cfg = config(2, RoutingPolicy::LeastLoaded);
        cfg.queue_cap = 4;
        let report = run(&Cluster::new(cfg), &spikes);
        assert!(!report.sheds.is_empty(), "a 32-request spike must overflow cap-4 queues");
        assert!(report.shed_rate() > 0.0);
        for event in &report.sheds {
            let Event::Shed { request, tick, reason, .. } = *event else { panic!("{event:?}") };
            assert_eq!(reason, ShedReason::QueueFull.label());
            assert_eq!(tick, spikes[request as usize].arrival_tick);
        }
    }

    #[test]
    fn deadline_admission_sheds_hopeless_requests() {
        let mut cfg = config(1, RoutingPolicy::LeastLoaded);
        cfg.deadline_ticks = Some(70); // one batch overhead (64) + a couple of service ticks
        cfg.queue_cap = 1000;
        let dense = trace(32, 1);
        let report = run(&Cluster::new(cfg), &dense);
        assert!(
            report.sheds.iter().any(|s| matches!(s, Event::Shed { reason: "deadline", .. })),
            "a deadline barely above the batch overhead must shed queued requests"
        );
        // Every answered request a deadline shed would have displaced still completed.
        assert_eq!(report.answered() + report.sheds.len(), 32);
    }

    #[test]
    fn two_tier_escalates_high_entropy_answers() {
        let cfg = ClusterConfig {
            routing: RoutingPolicy::TwoTier {
                low_samples: 1,
                high_samples: 8,
                entropy_threshold: 0.0, // escalate everything: entropy is always positive
            },
            ..config(3, RoutingPolicy::LeastLoaded)
        };
        let trace = trace(24, 4);
        let report = run(&Cluster::new(cfg), &trace);
        assert_eq!(report.escalations.len(), report.answered());
        for outcome in &report.outcomes {
            if let RequestOutcome::Answered { escalated, upgraded, shard, .. } = outcome {
                assert!(escalated);
                if *upgraded {
                    assert_eq!(*shard, 2, "upgraded answers come from the high shard");
                }
            }
        }
        let upgraded = report
            .outcomes
            .iter()
            .filter(|o| matches!(o, RequestOutcome::Answered { upgraded: true, .. }))
            .count();
        assert!(upgraded > 0, "some escalations must be admitted");
        for (outcome, request) in report.outcomes.iter().zip(&trace) {
            if let RequestOutcome::Answered { upgraded: true, .. } = outcome {
                let response = report.responses[request.id as usize].as_ref().unwrap();
                assert_eq!(response.samples, 8, "upgraded answers carry the high-S ensemble");
            }
        }
    }

    #[test]
    fn two_tier_with_infinite_threshold_never_escalates() {
        let cfg = ClusterConfig {
            routing: RoutingPolicy::TwoTier {
                low_samples: 2,
                high_samples: 8,
                entropy_threshold: f64::INFINITY,
            },
            ..config(2, RoutingPolicy::LeastLoaded)
        };
        let report = run(&Cluster::new(cfg), &trace(16, 4));
        assert!(report.escalations.is_empty());
        assert_eq!(report.escalation_rate(), 0.0);
        assert!(report.shard_reports[1].responses.is_empty(), "high shard stays idle");
    }

    #[test]
    fn autoscaling_activates_and_drains_at_epoch_ticks() {
        let scale = AutoscalePolicy {
            interval_ticks: 32,
            high_watermark: 3,
            low_watermark: 1,
            min_active: 1,
        };
        let mut cfg = config(4, RoutingPolicy::LeastLoaded);
        cfg.autoscale = Some(scale);
        cfg.queue_cap = 64;
        // A burst early (forces scale-up), then a long quiet tail (forces drain).
        let mut trace = trace(48, 1);
        for request in trace.iter_mut().skip(40) {
            request.arrival_tick += 4000;
        }
        let report = run(&Cluster::new(cfg), &trace);
        assert!(!report.scale_events.is_empty(), "the burst must trigger scaling");
        let actives: Vec<usize> = report
            .scale_events
            .iter()
            .map(|event| {
                let Event::Scale { tick, active } = *event else { panic!("{event:?}") };
                assert_eq!(tick % 32, 0, "scale decisions land on epoch ticks only");
                assert!((1..=4).contains(&active));
                active
            })
            .collect();
        let peak = *actives.iter().max().unwrap();
        let last = *actives.last().unwrap();
        assert!(peak > 1, "the burst must activate extra shards");
        assert!(last < peak, "the quiet tail must drain them");
    }

    #[test]
    fn two_tier_handles_caller_chosen_request_ids() {
        // Ids are caller-chosen opaque labels, not trace positions: a run whose ids are far
        // outside 0..n must behave exactly like the same trace with index ids.
        let cfg = || ClusterConfig {
            routing: RoutingPolicy::TwoTier {
                low_samples: 1,
                high_samples: 8,
                entropy_threshold: 0.0,
            },
            ..config(3, RoutingPolicy::LeastLoaded)
        };
        let indexed = trace(24, 4);
        let mut relabeled = indexed.clone();
        for request in relabeled.iter_mut() {
            request.id = 10_000 + request.id * 7;
        }
        let baseline = run(&Cluster::new(cfg()), &indexed);
        let report = run(&Cluster::new(cfg()), &relabeled);
        assert_eq!(report.outcomes, baseline.outcomes);
        assert_eq!(report.latencies, baseline.latencies);
        // Answers match payload-for-payload; only the echoed caller id may differ.
        assert_eq!(report.responses.len(), baseline.responses.len());
        for (response, twin) in report.responses.iter().zip(&baseline.responses) {
            match (response, twin) {
                (Some(r), Some(t)) => {
                    assert_eq!(r.id, 10_000 + t.id * 7);
                    assert_eq!((&r.mean, &r.variance), (&t.mean, &t.variance));
                    assert_eq!((r.samples, r.entropy), (t.samples, t.entropy));
                }
                (None, None) => {}
                _ => panic!("relabeling changed a shed decision"),
            }
        }
        for (event, twin) in report.escalations.iter().zip(&baseline.escalations) {
            let (
                &Event::Escalation { request, tick, admitted },
                &Event::Escalation {
                    request: twin_request,
                    tick: twin_tick,
                    admitted: twin_admitted,
                },
            ) = (event, twin)
            else {
                panic!("escalation lists hold escalations only: {event:?} / {twin:?}");
            };
            assert_eq!(request, 10_000 + twin_request * 7);
            assert_eq!((tick, admitted), (twin_tick, twin_admitted));
        }
    }

    #[test]
    fn swapped_plan_matches_swapped_run_timing() {
        let cluster = Cluster::new(config(2, RoutingPolicy::LeastLoaded));
        let trace = trace(32, 2);
        let swaps = vec![ShardSwap {
            shard: 1,
            swap: VersionSwap { at_tick: 80, source: ModelSource::Spec(ModelSpec::mlp(77)) },
        }];
        let none = FaultPlan::none();
        let plan = cluster.plan_with_faults(&trace, &swaps, &none);
        let report = cluster.run_traced(&trace, &swaps, &none, &mut NullRecorder);
        assert_eq!(plan.outcomes, report.outcomes);
        assert_eq!(plan.sheds, report.sheds);
        assert_eq!(plan.latencies, report.latencies);
        assert_eq!(plan.makespan_ticks, report.makespan_ticks);
        // The swap engaged: the swapped shard served batches on both sides of the boundary
        // (the run cross-checks the plan's per-batch version against the engine's).
        let versions: Vec<usize> =
            report.shard_reports[1].batches.iter().map(|b| b.version).collect();
        assert!(versions.contains(&0) && versions.contains(&1), "swap never engaged: {versions:?}");
    }

    #[test]
    fn plan_matches_run_timing_without_computing_responses() {
        let cluster = Cluster::new(config(3, RoutingPolicy::RoundRobin));
        let trace = trace(40, 2);
        let plan = cluster.plan_with_faults(&trace, &[], &FaultPlan::none());
        let report = run(&cluster, &trace);
        assert_eq!(plan.outcomes, report.outcomes);
        assert_eq!(plan.sheds, report.sheds);
        assert_eq!(plan.latencies, report.latencies);
        assert_eq!(plan.makespan_ticks, report.makespan_ticks);
        assert_eq!(
            plan.batches_per_shard,
            report.shard_reports.iter().map(|r| r.batches.len()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn fault_plan_none_is_byte_identical_to_a_plain_run() {
        let cluster = Cluster::new(config(2, RoutingPolicy::LeastLoaded));
        let trace = trace(24, 2);
        let plain = run(&cluster, &trace);
        let faulted = run_faulted(&cluster, &trace, &[], &FaultPlan::none());
        assert_eq!(plain.to_json().to_compact(), faulted.to_json().to_compact());
        assert_eq!(plain.events_digest(), faulted.events_digest());
        assert!(faulted.faults.retries.is_empty());
        assert!((faulted.availability() - (1.0 - faulted.shed_rate())).abs() < 1e-12);
    }

    #[test]
    fn crash_fails_over_the_open_batch_and_conserves_every_request() {
        use crate::faults::FaultEvent;
        // Dense arrivals on 2 shards; shard 0 crashes mid-trace and recovers later. The
        // open batch at the crash tick fails over; everything still ends answered or shed.
        let mut cfg = config(2, RoutingPolicy::LeastLoaded);
        cfg.queue_cap = 64;
        let cluster = Cluster::new(cfg);
        let trace = trace(32, 3);
        let faults = FaultPlan::new(vec![
            FaultEvent::ShardDown { tick: 20, shard: 0 },
            FaultEvent::ShardUp { tick: 400, shard: 0 },
        ]);
        let plan = cluster.plan_with_faults(&trace, &[], &faults);
        let report = run_faulted(&cluster, &trace, &[], &faults);
        assert_eq!(report.answered() + report.sheds.len(), report.submitted());
        assert_eq!(plan.outcomes, report.outcomes);
        assert_eq!(plan.latencies, report.latencies);
        assert_eq!(plan.makespan_ticks, report.makespan_ticks);
        assert_eq!(plan.faults, report.faults);
        assert!(!report.faults.retries.is_empty(), "the crash must evict an open batch");
        for event in &report.faults.retries {
            let Event::Retry { request, failed_tick, retry_tick, shard, attempt } = *event else {
                panic!("{event:?}")
            };
            assert_eq!(failed_tick, 20);
            assert_eq!(shard, Some(0));
            assert_eq!(
                retry_tick,
                20 + faults.retry.backoff_ticks(attempt),
                "backoff is exact in the tick domain"
            );
            // A retried request that was answered completed at or after its retry tick.
            let i = trace.iter().position(|r| r.id == request).unwrap();
            if let RequestOutcome::Answered { end_tick, .. } = report.outcomes[i] {
                assert!(end_tick >= retry_tick, "no answer before the failover retry");
            }
        }
        assert!(report.availability() == 1.0, "with capacity to spare, nothing is lost");
    }

    #[test]
    fn exhausted_retry_budget_sheds_with_typed_reasons() {
        use crate::faults::{FaultEvent, RetryPolicy};
        // Both shards stay down across the whole trace with a zero retry budget: every
        // submission finds no live shard and sheds ShardUnavailable at its arrival tick.
        let cluster = Cluster::new(config(2, RoutingPolicy::RoundRobin));
        let trace = trace(8, 4);
        let faults = FaultPlan::new(vec![
            FaultEvent::ShardDown { tick: 0, shard: 0 },
            FaultEvent::ShardDown { tick: 0, shard: 1 },
        ])
        .with_retry(RetryPolicy {
            base_backoff_ticks: 16,
            max_backoff_ticks: 64,
            max_retries: 0,
        });
        let report = run_faulted(&cluster, &trace, &[], &faults);
        assert_eq!(report.answered(), 0);
        assert_eq!(report.sheds.len(), 8);
        for (shed, request) in report.sheds.iter().zip(&trace) {
            let Event::Shed { tick, shard, reason, .. } = *shed else { panic!("{shed:?}") };
            assert_eq!(reason, ShedReason::ShardUnavailable.label());
            assert_eq!(tick, request.arrival_tick);
            assert_eq!(shard, 0, "no shard to cite: 0 by convention");
        }
        assert_eq!(report.availability(), 0.0);
    }

    #[test]
    fn slow_shard_stretches_its_batches_and_diverts_load() {
        use crate::faults::FaultEvent;
        let cluster = Cluster::new(config(2, RoutingPolicy::LeastLoaded));
        let trace = trace(40, 24);
        let faults = FaultPlan::new(vec![FaultEvent::SlowShard {
            shard: 1,
            from_tick: 0,
            until_tick: u64::MAX,
            multiplier: 6,
        }]);
        let healthy = run(&cluster, &trace);
        let report = run_faulted(&cluster, &trace, &[], &faults);
        assert!(report.makespan_ticks > healthy.makespan_ticks);
        for batch in &report.shard_reports[1].batches {
            assert_eq!((batch.end_tick - batch.start_tick) % 6, 0, "shard 1 runs 6x slow");
        }
        // Least-loaded routing sees the stretched backlog and diverts work to shard 0: the
        // slow shard answers less, and the overflow sheds cite the healthy shard's queue.
        assert!(
            report.shard_reports[1].responses.len() < healthy.shard_reports[1].responses.len(),
            "the slow shard must absorb less load"
        );
        assert!(!report.sheds.is_empty());
        assert!(
            report
                .sheds
                .iter()
                .all(|s| matches!(s, Event::Shed { shard: 0, reason: "queue_full", .. })),
            "diverted overflow lands on the healthy shard's bounded queue"
        );
        assert_eq!(report.answered() + report.sheds.len(), report.submitted());
    }

    #[test]
    fn degradation_ladder_trades_samples_for_availability() {
        use crate::faults::{DegradeLadder, DegradeLevel};
        // One slow-ish shard, bursty oversubscription: without the ladder the queue cap
        // sheds; with it, requests degrade to fewer samples / the analytic backend first.
        let mut cfg = config(1, RoutingPolicy::LeastLoaded);
        cfg.queue_cap = 12;
        let cluster = Cluster::new(cfg);
        let dense = trace(40, 1);
        let ladder = DegradeLadder {
            reduced_samples: 1,
            reduce_watermark: 2,
            moment_watermark: 5,
            shed_watermark: 64,
        };
        let without = run_faulted(&cluster, &dense, &[], &FaultPlan::none());
        let with = run_faulted(&cluster, &dense, &[], &FaultPlan::none().with_ladder(ladder));
        assert!(!with.faults.degrades.is_empty(), "pressure must move the ladder");
        let (normal, reduced, moment) = with.degrade_occupancy();
        assert!(reduced + moment > 0, "some requests must serve degraded");
        assert_eq!(normal + reduced + moment, with.answered());
        assert!(
            with.availability() >= without.availability(),
            "degrading quality must not lose more requests than full-quality serving"
        );
        // Analytic answers are marked: samples == 0.
        for (i, level) in with.faults.levels.iter().enumerate() {
            if *level == DegradeLevel::Moment {
                if let Some(response) = &with.responses[i] {
                    assert_eq!(response.samples, 0, "moment-degraded answers are analytic");
                }
            }
        }
        // Transitions reconstruct the per-request levels: both serialize deterministically.
        assert_eq!(with.fault_events_digest(), {
            let again = run_faulted(&cluster, &dense, &[], &FaultPlan::none().with_ladder(ladder));
            again.fault_events_digest()
        });
    }

    #[test]
    fn overload_ladder_rung_sheds_with_typed_reason() {
        use crate::faults::DegradeLadder;
        let mut cfg = config(1, RoutingPolicy::LeastLoaded);
        cfg.queue_cap = 1000;
        let cluster = Cluster::new(cfg);
        let dense = trace(48, 1);
        let ladder = DegradeLadder {
            reduced_samples: 1,
            reduce_watermark: 1,
            moment_watermark: 2,
            shed_watermark: 3,
        };
        let report = run_faulted(&cluster, &dense, &[], &FaultPlan::none().with_ladder(ladder));
        assert!(
            report.sheds.iter().any(|s| matches!(s, Event::Shed { reason: "overload", .. })),
            "a shed watermark this low must trip the top rung"
        );
        assert_eq!(report.answered() + report.sheds.len(), report.submitted());
    }

    #[test]
    fn corrupt_checkpoint_cancels_the_swap_and_keeps_the_prior_version() {
        use crate::faults::FaultEvent;
        let cluster = Cluster::new(config(2, RoutingPolicy::LeastLoaded));
        let trace = trace(32, 2);
        let swaps = vec![ShardSwap {
            shard: 1,
            swap: VersionSwap { at_tick: 80, source: ModelSource::Spec(ModelSpec::mlp(77)) },
        }];
        let faults = FaultPlan::new(vec![FaultEvent::CorruptCheckpoint { tick: 80, shard: 1 }]);
        let swapped = run_faulted(&cluster, &trace, &swaps, &FaultPlan::none());
        let report = run_faulted(&cluster, &trace, &swaps, &faults);
        assert_eq!(
            report.faults.checkpoint_faults,
            vec![Event::CheckpointFault { tick: 80, shard: 1, cancelled_swaps: 1 }]
        );
        assert!(
            report.shard_reports[1].batches.iter().all(|b| b.version == 0),
            "the corrupt version must never activate"
        );
        assert_ne!(
            swapped.responses_digest(),
            report.responses_digest(),
            "the cancelled swap visibly changes post-boundary answers"
        );
        // And the same run without the corruption matches a swap-free run byte for byte.
        let unswapped = run(&cluster, &trace);
        assert_eq!(unswapped.responses_digest(), report.responses_digest());
    }

    #[test]
    fn faulted_reports_are_worker_invariant() {
        use crate::faults::{DegradeLadder, FaultEvent};
        let trace = trace(32, 2);
        let faults = FaultPlan::new(vec![
            FaultEvent::ShardDown { tick: 30, shard: 0 },
            FaultEvent::SlowShard { shard: 1, from_tick: 50, until_tick: 500, multiplier: 3 },
            FaultEvent::ShardUp { tick: 600, shard: 0 },
        ])
        .with_ladder(DegradeLadder {
            reduced_samples: 1,
            reduce_watermark: 3,
            moment_watermark: 6,
            shed_watermark: 12,
        });
        let mut reports = Vec::new();
        for workers in [1, 4] {
            let mut cfg = config(2, RoutingPolicy::LeastLoaded);
            cfg.workers_per_shard = workers;
            reports.push(run_faulted(&Cluster::new(cfg), &trace, &[], &faults));
        }
        assert_eq!(reports[0].to_json().to_compact(), reports[1].to_json().to_compact());
        assert_eq!(reports[0].fault_events_digest(), reports[1].fault_events_digest());
        assert_eq!(reports[0].responses_digest(), reports[1].responses_digest());
    }

    #[test]
    fn empty_trace_yields_an_empty_report() {
        let report = run(&Cluster::new(config(2, RoutingPolicy::LeastLoaded)), &[]);
        assert_eq!(report.submitted(), 0);
        assert_eq!(report.makespan_ticks, 0);
        assert_eq!(report.shed_rate(), 0.0);
        let json = report.to_json().to_compact();
        assert!(json.contains("\"p999\":null"));
    }

    #[test]
    fn reports_serialize_deterministically() {
        let cluster = Cluster::new(config(2, RoutingPolicy::LeastLoaded));
        let trace = trace(12, 2);
        let a = run(&cluster, &trace);
        let b = run(&cluster, &trace);
        assert_eq!(a.to_json().to_pretty(), b.to_json().to_pretty());
        assert_eq!(a.responses_digest(), b.responses_digest());
        assert_eq!(a.events_digest(), b.events_digest());
    }
}
