//! **Fault injection and graceful degradation** for the cluster simulator: typed tick-domain
//! fault events, a deterministic failover/retry policy, and a backlog-pressure degradation
//! ladder — the robustness layer above [`crate::cluster`].
//!
//! A [`FaultPlan`] schedules [`FaultEvent`]s at exact ticks and travels with a trace into
//! [`Cluster::plan_with_faults`](crate::Cluster::plan_with_faults) /
//! [`Cluster::run_traced`](crate::Cluster::run_traced). Everything the router does
//! in response stays a pure function of (trace, config, swap schedule, fault plan), so a
//! faulted run serializes byte-identically at any shard × worker count, exactly like a
//! healthy one.
//!
//! # The failure model: fail-stop at the dispatch boundary
//!
//! [`FaultEvent::ShardDown`] models a replica crash with connection draining: batches already
//! *closed* (dispatched to the simulated device) complete and their answers are delivered,
//! but the downed shard's **open batch** — requests admitted and still waiting to dispatch —
//! fails over. Each evicted request re-enters the router after a deterministic exponential
//! backoff ([`RetryPolicy`]), and a request that exhausts its retry budget is shed with
//! [`ShedReason::RetryBudgetExhausted`](crate::ShedReason) — conservation
//! `answered + shed == submitted` holds under every fault plan. While a shard is down the
//! router simply routes around it; if *every* routable shard is down, arrivals retry too, and
//! shed with [`ShedReason::ShardUnavailable`](crate::ShedReason) as the last resort.
//!
//! The crash is drawn at the dispatch boundary: batches already committed to the device
//! complete, and the evicted open batch never reaches a shard's batch list, so phase B (real
//! engines) executes exactly the batches the plan committed.
//! The retry schedule itself is deterministic because it lives in the tick domain — backoff
//! is `min(base · 2^(attempt−1), max)` ticks from the observed failure tick, retries re-enter
//! the arrival stream in (tick, schedule-order) order, and ties against fresh arrivals
//! resolve in favour of the retry (it is the older request). No randomness, no wall clock.
//!
//! # The degradation ladder
//!
//! [`DegradeLadder`] turns overload into graceful quality loss instead of sheds: at each
//! submission the cluster-wide backlog pressure (summed over the live shards, compared per
//! live shard) picks a [`DegradeLevel`] —
//!
//! 1. **Normal** — requests serve at their own `S`;
//! 2. **ReducedSamples** — `S` is capped at [`DegradeLadder::reduced_samples`] (the paper's
//!    S=16 → S=4 step: a four-fold ε-volume cut for modestly wider predictive bands);
//! 3. **Moment** — requests serve the single-pass analytic moment backend (`samples = 0`
//!    marks the answer analytic), cutting service cost to two weight-wide passes;
//! 4. **Shed** — the last rung: admission sheds with
//!    [`ShedReason::Overload`](crate::ShedReason).
//!
//! Every level change is recorded as a tick-stamped [`Event::Degrade`]. The ladder is a pure
//! threshold function of instantaneous pressure (no hysteresis), so it is as deterministic
//! as the admission control it extends.
//!
//! # Checkpoint corruption
//!
//! [`FaultEvent::CorruptCheckpoint`] models a published registry version that fails
//! [`Checkpoint::from_bytes`] validation at activation time: the scheduled hot-swap at that
//! (shard, tick) is cancelled, the shard keeps serving its prior version, and an
//! [`Event::CheckpointFault`] records the fallback — never a panic, never garbage served. The
//! store-side mirror is `ModelRegistry::load_latest_valid`, which skips corrupt newest
//! versions on disk the same way.
//!
//! [`Checkpoint::from_bytes`]: ../../bnn_store/struct.Checkpoint.html#method.from_bytes

use crate::engine::Slowdown;
use crate::spec::ServeMode;
use bnn_obs::Event;
use shift_bnn::sweep::json::Json;

/// One scheduled fault, pinned to an exact tick in the simulated clock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultEvent {
    /// The shard crashes at `tick`: its open batch fails over (see the module docs' failure
    /// model) and the router stops targeting it until a matching [`FaultEvent::ShardUp`].
    /// A `ShardDown` for an already-down shard is a no-op.
    ShardDown {
        /// The crash tick.
        tick: u64,
        /// The crashing shard.
        shard: usize,
    },
    /// The shard recovers at `tick` and is routable again from that tick on (inclusive).
    /// A `ShardUp` for an already-up shard is a no-op.
    ShardUp {
        /// The recovery tick.
        tick: u64,
        /// The recovering shard.
        shard: usize,
    },
    /// The shard's device slows down: batches whose service *starts* inside
    /// `[from_tick, until_tick)` take `multiplier ×` their normal service time (thermal
    /// throttling, a noisy neighbour, a degraded link — anything that stretches service
    /// without dropping work).
    SlowShard {
        /// The affected shard.
        shard: usize,
        /// First tick of the slow window (inclusive).
        from_tick: u64,
        /// End of the slow window (exclusive).
        until_tick: u64,
        /// Service-time multiplier (≥ 1; 1 is a no-op).
        multiplier: u64,
    },
    /// The model version scheduled to hot-swap into `shard` at exactly `tick` fails
    /// checkpoint validation: the swap is cancelled, the shard keeps its prior version, and
    /// an [`Event::CheckpointFault`] records the fallback. A mark with no matching swap still
    /// records the (harmless) validation failure.
    CorruptCheckpoint {
        /// The `at_tick` of the swap that fails validation.
        tick: u64,
        /// The shard whose swap fails.
        shard: usize,
    },
}

impl FaultEvent {
    /// The tick the event fires at (`from_tick` for a slow window).
    pub fn tick(&self) -> u64 {
        match *self {
            FaultEvent::ShardDown { tick, .. }
            | FaultEvent::ShardUp { tick, .. }
            | FaultEvent::CorruptCheckpoint { tick, .. } => tick,
            FaultEvent::SlowShard { from_tick, .. } => from_tick,
        }
    }

    /// The shard the event targets.
    pub fn shard(&self) -> usize {
        match *self {
            FaultEvent::ShardDown { shard, .. }
            | FaultEvent::ShardUp { shard, .. }
            | FaultEvent::CorruptCheckpoint { shard, .. }
            | FaultEvent::SlowShard { shard, .. } => shard,
        }
    }

    /// A short machine-readable label.
    pub fn label(&self) -> &'static str {
        match self {
            FaultEvent::ShardDown { .. } => "shard_down",
            FaultEvent::ShardUp { .. } => "shard_up",
            FaultEvent::SlowShard { .. } => "slow_shard",
            FaultEvent::CorruptCheckpoint { .. } => "corrupt_checkpoint",
        }
    }
}

/// Deterministic failover retry policy: bounded exponential backoff in ticks with a
/// per-request retry budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Backoff of the first retry, in ticks (attempt `n` waits `base · 2^(n−1)`, capped).
    pub base_backoff_ticks: u64,
    /// Upper bound every backoff is clamped to.
    pub max_backoff_ticks: u64,
    /// Per-request retry budget; a request failing past it is shed
    /// ([`ShedReason::RetryBudgetExhausted`](crate::ShedReason) /
    /// [`ShedReason::ShardUnavailable`](crate::ShedReason)). `0` disables failover.
    pub max_retries: u32,
}

impl Default for RetryPolicy {
    /// 32-tick base, 256-tick cap, 3 attempts — half a batch overhead to start, never more
    /// than a few service times, bounded work per request.
    fn default() -> Self {
        RetryPolicy { base_backoff_ticks: 32, max_backoff_ticks: 256, max_retries: 3 }
    }
}

impl RetryPolicy {
    /// The backoff of retry attempt `n ≥ 1`: `min(base · 2^(n−1), max)` ticks, saturating.
    ///
    /// # Panics
    ///
    /// Panics on `attempt == 0` (attempts are 1-indexed).
    pub fn backoff_ticks(&self, attempt: u32) -> u64 {
        assert!(attempt >= 1, "retry attempts are 1-indexed");
        let shift = attempt - 1;
        // A shift wide enough to push the base's top bit out saturates instead of wrapping.
        let raw = if shift >= self.base_backoff_ticks.leading_zeros() {
            u64::MAX
        } else {
            self.base_backoff_ticks << shift
        };
        raw.min(self.max_backoff_ticks)
    }
}

/// The graceful-degradation ladder: backlog-pressure thresholds that trade answer quality
/// for admission capacity (see the module docs). Pressure is the summed backlog of the live
/// shards; each watermark is compared per live shard, mirroring
/// [`AutoscalePolicy`](crate::AutoscalePolicy)'s arithmetic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DegradeLadder {
    /// The sample cap of the [`DegradeLevel::ReducedSamples`] rung (≥ 1).
    pub reduced_samples: usize,
    /// Mean backlog per live shard at or above which `S` is capped.
    pub reduce_watermark: usize,
    /// Mean backlog per live shard at or above which requests serve analytically
    /// (must be > `reduce_watermark`).
    pub moment_watermark: usize,
    /// Mean backlog per live shard at or above which admission sheds
    /// (must be > `moment_watermark`).
    pub shed_watermark: usize,
}

impl DegradeLadder {
    /// The level the ladder selects at `pressure` total backlog across `live` shards.
    pub fn level_for(&self, pressure: usize, live: usize) -> DegradeLevel {
        if pressure >= self.shed_watermark * live {
            DegradeLevel::Shed
        } else if pressure >= self.moment_watermark * live {
            DegradeLevel::Moment
        } else if pressure >= self.reduce_watermark * live {
            DegradeLevel::ReducedSamples
        } else {
            DegradeLevel::Normal
        }
    }

    pub(crate) fn validate(&self) {
        assert!(self.reduced_samples >= 1, "reduced_samples must be at least 1");
        assert!(
            self.reduce_watermark < self.moment_watermark
                && self.moment_watermark < self.shed_watermark,
            "ladder watermarks must be strictly increasing (reduce < moment < shed)"
        );
    }
}

/// The serving level the degradation ladder applied to a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DegradeLevel {
    /// Full service: the request's own `S`.
    Normal,
    /// `S` capped at [`DegradeLadder::reduced_samples`].
    ReducedSamples,
    /// Single-pass analytic moment serving (`samples = 0` in the answer).
    Moment,
    /// Admission sheds ([`ShedReason::Overload`](crate::ShedReason)).
    Shed,
}

impl DegradeLevel {
    /// A short machine-readable label.
    pub fn label(&self) -> &'static str {
        match self {
            DegradeLevel::Normal => "normal",
            DegradeLevel::ReducedSamples => "reduced_samples",
            DegradeLevel::Moment => "moment",
            DegradeLevel::Shed => "shed",
        }
    }
}

/// A complete fault schedule for one cluster run, plus the policies that govern the
/// reaction: failover retry and (optionally) the degradation ladder.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultPlan {
    /// The scheduled events, sorted by [`FaultEvent::tick`].
    pub events: Vec<FaultEvent>,
    /// The failover retry policy.
    pub retry: RetryPolicy,
    /// The degradation ladder; `None` serves every admitted request at full quality and
    /// sheds under overload exactly like a fault-free cluster.
    pub ladder: Option<DegradeLadder>,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan::none()
    }
}

impl FaultPlan {
    /// The empty plan: no events, default retry policy, no ladder. A run under it behaves
    /// — and serializes — exactly like the corresponding un-faulted run.
    pub fn none() -> FaultPlan {
        FaultPlan { events: Vec::new(), retry: RetryPolicy::default(), ladder: None }
    }

    /// A plan scheduling `events` under the default retry policy, no ladder.
    pub fn new(events: Vec<FaultEvent>) -> FaultPlan {
        FaultPlan { events, ..FaultPlan::none() }
    }

    /// Sets the retry policy.
    pub fn with_retry(mut self, retry: RetryPolicy) -> FaultPlan {
        self.retry = retry;
        self
    }

    /// Enables the degradation ladder.
    pub fn with_ladder(mut self, ladder: DegradeLadder) -> FaultPlan {
        self.ladder = Some(ladder);
        self
    }

    /// Whether the plan changes anything at all (no events *and* no ladder).
    pub fn is_empty(&self) -> bool {
        self.events.is_empty() && self.ladder.is_none()
    }
}

/// The preprocessed, validated form of a [`FaultPlan`] the router consumes: up/down
/// transitions in firing order, per-shard slowdown windows, and corruption marks.
#[derive(Debug, Clone)]
pub(crate) struct FaultTimeline {
    /// `(tick, shard, down)` in tick order (schedule order on ties).
    pub(crate) transitions: Vec<(u64, usize, bool)>,
    /// Slow windows grouped per shard.
    pub(crate) slowdowns: Vec<Vec<Slowdown>>,
    /// `(tick, shard)` corruption marks, in schedule order.
    pub(crate) corrupt: Vec<(u64, usize)>,
}

impl FaultTimeline {
    /// Validates and preprocesses a plan against a cluster of `shards` shards, of which the
    /// first `routable` receive router traffic.
    ///
    /// # Panics
    ///
    /// Panics when events are not sorted by tick, target a shard out of range, a slow window
    /// is empty or has a zero multiplier, the ladder's watermarks are not strictly
    /// increasing, or a ladder is paired with a non-Monte-Carlo cluster.
    pub(crate) fn build(
        plan: &FaultPlan,
        routable: usize,
        shards: usize,
        mode: ServeMode,
    ) -> FaultTimeline {
        if let Some(ladder) = &plan.ladder {
            ladder.validate();
            assert!(
                mode == ServeMode::MonteCarlo,
                "the degradation ladder trades Monte-Carlo samples for capacity; a moment \
                 cluster is already at the ladder's floor"
            );
        }
        for pair in plan.events.windows(2) {
            assert!(
                pair[0].tick() <= pair[1].tick(),
                "fault events must be sorted by tick ({} at {} after {} at {})",
                pair[1].label(),
                pair[1].tick(),
                pair[0].label(),
                pair[0].tick(),
            );
        }
        let mut transitions = Vec::new();
        let mut slowdowns: Vec<Vec<Slowdown>> = vec![Vec::new(); shards];
        let mut corrupt = Vec::new();
        for event in &plan.events {
            match *event {
                FaultEvent::ShardDown { tick, shard } => {
                    assert!(shard < routable, "ShardDown targets non-routable shard {shard}");
                    transitions.push((tick, shard, true));
                }
                FaultEvent::ShardUp { tick, shard } => {
                    assert!(shard < routable, "ShardUp targets non-routable shard {shard}");
                    transitions.push((tick, shard, false));
                }
                FaultEvent::SlowShard { shard, from_tick, until_tick, multiplier } => {
                    assert!(shard < routable, "SlowShard targets non-routable shard {shard}");
                    assert!(from_tick < until_tick, "slow window must be non-empty");
                    assert!(multiplier >= 1, "slowdown multiplier must be at least 1");
                    slowdowns[shard].push(Slowdown { from_tick, until_tick, multiplier });
                }
                FaultEvent::CorruptCheckpoint { tick, shard } => {
                    assert!(shard < shards, "CorruptCheckpoint targets shard {shard}");
                    corrupt.push((tick, shard));
                }
            }
        }
        FaultTimeline { transitions, slowdowns, corrupt }
    }

    /// Cancels every scheduled swap a corruption mark hits (the incoming version fails
    /// validation, so the shard keeps its prior version), returning one
    /// [`Event::CheckpointFault`] per mark, in mark order.
    pub(crate) fn cancel_corrupted_swaps(
        &self,
        swaps: &mut [Vec<crate::engine::VersionSwap>],
    ) -> Vec<Event> {
        self.corrupt
            .iter()
            .map(|&(tick, shard)| {
                let before = swaps[shard].len();
                swaps[shard].retain(|swap| swap.at_tick != tick);
                Event::CheckpointFault { tick, shard, cancelled_swaps: before - swaps[shard].len() }
            })
            .collect()
    }
}

/// Everything a faulted run recorded beyond the healthy-run events: retries, ladder
/// transitions, checkpoint fallbacks, and the level each request was finally served (or
/// shed) at. Each decision list holds [`Event`]s of one variant — the values the recorder
/// saw. Empty — and serialization-invisible in the digests that predate it — for a run under
/// [`FaultPlan::none`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultTrace {
    /// Every failover retry ([`Event::Retry`]), in schedule order.
    pub retries: Vec<Event>,
    /// Every ladder transition ([`Event::Degrade`]), in tick order.
    pub degrades: Vec<Event>,
    /// Every checkpoint-corruption fallback ([`Event::CheckpointFault`]), in mark order.
    pub checkpoint_faults: Vec<Event>,
    /// Per submitted request, in trace order: the [`DegradeLevel`] applied at its final
    /// submission ([`DegradeLevel::Normal`] without a ladder).
    pub levels: Vec<DegradeLevel>,
}

impl FaultTrace {
    /// The canonical fault-event bytes: every retry, ladder transition and checkpoint
    /// fallback with its exact tick, serialized through the observability exporter
    /// ([`bnn_obs::export::fault_events_json`] — the single emission code path). Kept
    /// separate from [`ClusterRunReport::events_json`](crate::ClusterRunReport::events_json)
    /// so pre-existing committed digests stay valid.
    pub fn to_json(&self) -> Json {
        bnn_obs::export::fault_events_json(
            self.retries.iter().chain(&self.degrades).chain(&self.checkpoint_faults),
        )
    }

    /// Counts of *answered* requests per serving level `(normal, reduced_samples, moment)`,
    /// given the parallel answered mask — the degradation-mode occupancy the chaos benchmark
    /// reports.
    pub fn occupancy(&self, answered: impl Iterator<Item = bool>) -> (usize, usize, usize) {
        let (mut normal, mut reduced, mut moment) = (0, 0, 0);
        for (level, answered) in self.levels.iter().zip(answered) {
            if !answered {
                continue;
            }
            match level {
                DegradeLevel::Normal => normal += 1,
                DegradeLevel::ReducedSamples => reduced += 1,
                DegradeLevel::Moment => moment += 1,
                DegradeLevel::Shed => {}
            }
        }
        (normal, reduced, moment)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_doubles_and_saturates_at_the_cap() {
        let retry = RetryPolicy { base_backoff_ticks: 8, max_backoff_ticks: 50, max_retries: 9 };
        assert_eq!(retry.backoff_ticks(1), 8);
        assert_eq!(retry.backoff_ticks(2), 16);
        assert_eq!(retry.backoff_ticks(3), 32);
        assert_eq!(retry.backoff_ticks(4), 50, "clamped to the cap");
        assert_eq!(retry.backoff_ticks(64), 50, "wide shifts saturate instead of overflowing");
    }

    #[test]
    fn ladder_levels_follow_the_watermarks() {
        let ladder = DegradeLadder {
            reduced_samples: 4,
            reduce_watermark: 2,
            moment_watermark: 5,
            shed_watermark: 8,
        };
        assert_eq!(ladder.level_for(0, 3), DegradeLevel::Normal);
        assert_eq!(ladder.level_for(5, 3), DegradeLevel::Normal);
        assert_eq!(ladder.level_for(6, 3), DegradeLevel::ReducedSamples);
        assert_eq!(ladder.level_for(15, 3), DegradeLevel::Moment);
        assert_eq!(ladder.level_for(24, 3), DegradeLevel::Shed);
        // Fewer live shards lower every absolute threshold.
        assert_eq!(ladder.level_for(5, 1), DegradeLevel::Moment);
    }

    #[test]
    fn corruption_marks_cancel_only_matching_swaps() {
        use crate::engine::VersionSwap;
        use crate::spec::{ModelSource, ModelSpec};
        let plan = FaultPlan::new(vec![FaultEvent::CorruptCheckpoint { tick: 100, shard: 0 }]);
        let timeline = FaultTimeline::build(&plan, 2, 2, ServeMode::MonteCarlo);
        let source = ModelSource::Spec(ModelSpec::mlp(1));
        let mut swaps = vec![
            vec![
                VersionSwap { at_tick: 100, source: source.clone() },
                VersionSwap { at_tick: 200, source: source.clone() },
            ],
            vec![VersionSwap { at_tick: 100, source }],
        ];
        let events = timeline.cancel_corrupted_swaps(&mut swaps);
        assert_eq!(
            events,
            vec![Event::CheckpointFault { tick: 100, shard: 0, cancelled_swaps: 1 }]
        );
        assert_eq!(swaps[0].len(), 1, "only the matching swap is cancelled");
        assert_eq!(swaps[0][0].at_tick, 200);
        assert_eq!(swaps[1].len(), 1, "other shards keep their schedules");
    }

    #[test]
    #[should_panic(expected = "sorted by tick")]
    fn unsorted_events_are_rejected() {
        let plan = FaultPlan::new(vec![
            FaultEvent::ShardDown { tick: 50, shard: 0 },
            FaultEvent::ShardUp { tick: 20, shard: 0 },
        ]);
        FaultTimeline::build(&plan, 2, 2, ServeMode::MonteCarlo);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn inverted_ladder_watermarks_are_rejected() {
        let plan = FaultPlan::none().with_ladder(DegradeLadder {
            reduced_samples: 4,
            reduce_watermark: 5,
            moment_watermark: 5,
            shed_watermark: 8,
        });
        FaultTimeline::build(&plan, 2, 2, ServeMode::MonteCarlo);
    }

    #[test]
    fn fault_trace_occupancy_counts_answered_levels() {
        let trace = FaultTrace {
            levels: vec![
                DegradeLevel::Normal,
                DegradeLevel::ReducedSamples,
                DegradeLevel::Moment,
                DegradeLevel::Moment,
                DegradeLevel::Shed,
            ],
            ..FaultTrace::default()
        };
        let answered = [true, true, true, false, false];
        assert_eq!(trace.occupancy(answered.into_iter()), (1, 1, 1));
    }
}
