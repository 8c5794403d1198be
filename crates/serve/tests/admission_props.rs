//! Admission-control invariants, property-tested across random cluster shapes and arrival
//! patterns. Everything here runs on [`Cluster::plan_with_faults`] — the phase-A simulator
//! that makes every routing/admission decision without touching a network — so each case is
//! cheap and the sampled space can be wide.
//!
//! The invariants:
//!
//! * **conservation** — every submitted request is answered or shed, never both, never
//!   neither: `answered + shed == submitted`, id sets disjoint;
//! * **causality** — an admitted request completes no earlier than its arrival plus the
//!   batch overhead; a shed request is shed exactly at its arrival tick, at a shard that
//!   actually exists;
//! * **monotone shedding** — at a fixed queue cap, slowing the arrival process down (larger
//!   uniform interarrival gap) never sheds *more* requests;
//! * **one batch clock** — the engine and a 1-shard, fault-free cluster with room for the
//!   whole trace time the same batches, and `plan_batches` coalesces them identically.

use bnn_serve::engine::BATCH_OVERHEAD_TICKS;
use bnn_serve::{
    plan_batches, ArrivalProcess, BatchPolicy, Cluster, ClusterConfig, ClusterPlan, DegradeLadder,
    EngineSpec, Event, FaultEvent, FaultPlan, InferRequest, InferenceEngine, ModelSource,
    ModelSpec, NullRecorder, RequestOutcome, RetryPolicy, RoutingPolicy, ServeMode, ShardSwap,
    VersionSwap, WorkloadSpec,
};
use proptest::prelude::*;

/// Plans (never executes) a least-loaded cluster over a uniform trace. Inputs use a 1-element
/// shape: phase A prices batches from ε volume and sample counts alone, so the tensor payload
/// is irrelevant and traces can be long.
fn plan_with_policy(
    requests: usize,
    interarrival: u64,
    shards: usize,
    queue_cap: usize,
    arrival: ArrivalProcess,
    batch: BatchPolicy,
) -> (Vec<InferRequest>, ClusterPlan) {
    let trace = WorkloadSpec::uniform(requests, interarrival, 2, 4242)
        .with_arrival(arrival)
        .generate_for_shape(&[1]);
    let cluster = Cluster::new(ClusterConfig {
        source: ModelSource::Spec(ModelSpec::mlp(2021)),
        mode: ServeMode::MonteCarlo,
        shards,
        workers_per_shard: 1,
        batch,
        queue_cap,
        deadline_ticks: None,
        routing: RoutingPolicy::LeastLoaded,
        autoscale: None,
    });
    let plan = cluster.plan_with_faults(&trace, &[], &FaultPlan::none());
    (trace, plan)
}

fn plan(
    requests: usize,
    interarrival: u64,
    shards: usize,
    queue_cap: usize,
    arrival: ArrivalProcess,
) -> (Vec<InferRequest>, ClusterPlan) {
    plan_with_policy(
        requests,
        interarrival,
        shards,
        queue_cap,
        arrival,
        BatchPolicy { max_batch: 4, max_wait_ticks: 8 },
    )
}

fn arrival_process(selector: u8) -> ArrivalProcess {
    match selector % 4 {
        0 => ArrivalProcess::Uniform,
        1 => ArrivalProcess::Bursty { mean_burst: 5 },
        2 => ArrivalProcess::Diurnal { cycle: 64 },
        _ => ArrivalProcess::Adversarial { spike: 12 },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// `answered + shed == submitted`, and the answered/shed id sets partition the trace.
    #[test]
    fn conservation_holds_for_every_request(
        requests in 1usize..120,
        interarrival in 1u64..6,
        shards in 1usize..5,
        queue_cap in 1usize..8,
        selector in 0u8..4,
    ) {
        let (trace, plan) = plan(requests, interarrival, shards, queue_cap,
            arrival_process(selector));
        prop_assert_eq!(plan.outcomes.len(), trace.len());

        let shed_ids: Vec<u64> = plan.sheds.iter().filter_map(Event::request).collect();
        let mut answered = 0usize;
        for (request, outcome) in trace.iter().zip(&plan.outcomes) {
            match outcome {
                RequestOutcome::Answered { .. } => {
                    answered += 1;
                    prop_assert!(
                        !shed_ids.contains(&request.id),
                        "request {} both answered and shed", request.id
                    );
                }
                RequestOutcome::Shed { .. } => {
                    prop_assert!(shed_ids.contains(&request.id));
                }
            }
        }
        prop_assert_eq!(answered + plan.sheds.len(), trace.len());
        prop_assert_eq!(plan.latencies.len(), answered);
    }

    /// An admitted request never completes before `arrival + BATCH_OVERHEAD_TICKS`; a shed
    /// request is dropped exactly at its arrival tick at an existing shard.
    #[test]
    fn outcomes_respect_the_tick_arrow(
        requests in 1usize..120,
        interarrival in 1u64..6,
        shards in 1usize..5,
        queue_cap in 1usize..8,
        selector in 0u8..4,
    ) {
        let (trace, plan) = plan(requests, interarrival, shards, queue_cap,
            arrival_process(selector));
        for (request, outcome) in trace.iter().zip(&plan.outcomes) {
            match outcome {
                RequestOutcome::Answered { end_tick, shard, .. } => {
                    prop_assert!(*shard < shards);
                    prop_assert!(
                        *end_tick >= request.arrival_tick + BATCH_OVERHEAD_TICKS,
                        "request {} finished at {} before arrival {} + overhead",
                        request.id, end_tick, request.arrival_tick
                    );
                }
                RequestOutcome::Shed { tick, shard, .. } => {
                    prop_assert!(*shard < shards);
                    prop_assert_eq!(*tick, request.arrival_tick);
                }
            }
        }
    }

    /// At a fixed queue cap, a slower uniform arrival process (larger interarrival gap, same
    /// request count) never sheds more — under the **unbatched** policy, where each request's
    /// service demand is a constant independent of arrivals. (Under dynamic batching, strict
    /// pointwise monotonicity is genuinely false: slowing arrivals past a batch-window
    /// boundary shrinks batches, each request pays more amortized overhead, and shed counts
    /// can tick *up* — e.g. gap 4 → 5 at `max_wait_ticks: 8` splits 3-request batches into
    /// 2-request ones. Fixing per-request cost isolates the queueing property the cap is
    /// supposed to enforce.)
    #[test]
    fn shed_count_is_monotone_in_arrival_rate(
        requests in 8usize..120,
        fast_gap in 1u64..5,
        slowdown in 1u64..6,
        shards in 1usize..4,
        queue_cap in 1usize..6,
    ) {
        let unbatched = BatchPolicy::unbatched();
        let (_, fast) = plan_with_policy(
            requests, fast_gap, shards, queue_cap, ArrivalProcess::Uniform, unbatched);
        let (_, slow) = plan_with_policy(
            requests, fast_gap + slowdown, shards, queue_cap, ArrivalProcess::Uniform, unbatched);
        prop_assert!(
            slow.sheds.len() <= fast.sheds.len(),
            "slowing arrivals from every {} to every {} ticks raised sheds {} -> {}",
            fast_gap, fast_gap + slowdown, fast.sheds.len(), slow.sheds.len()
        );
        prop_assert!(slow.shed_rate() <= fast.shed_rate());
    }

    /// The queue cap is a real bound: lowering it (same trace) never sheds less, and a cap
    /// at the trace length sheds nothing.
    #[test]
    fn shed_count_is_antitone_in_queue_cap(
        requests in 8usize..100,
        interarrival in 1u64..4,
        shards in 1usize..4,
        cap in 1usize..6,
        extra in 1usize..6,
    ) {
        let (_, tight) = plan(requests, interarrival, shards, cap, ArrivalProcess::Uniform);
        let (_, loose) =
            plan(requests, interarrival, shards, cap + extra, ArrivalProcess::Uniform);
        prop_assert!(loose.sheds.len() <= tight.sheds.len());
        let (_, unbounded) =
            plan(requests, interarrival, shards, requests, ArrivalProcess::Uniform);
        prop_assert_eq!(unbounded.sheds.len(), 0);
    }
}

/// Plans a least-loaded cluster over a shaped trace with a fault plan threaded through.
fn plan_with_faults(
    requests: usize,
    interarrival: u64,
    shards: usize,
    queue_cap: usize,
    arrival: ArrivalProcess,
    batch: BatchPolicy,
    faults: &FaultPlan,
) -> (Vec<InferRequest>, ClusterPlan) {
    let trace = WorkloadSpec::uniform(requests, interarrival, 2, 4242)
        .with_arrival(arrival)
        .generate_for_shape(&[1]);
    let cluster = Cluster::new(ClusterConfig {
        source: ModelSource::Spec(ModelSpec::mlp(2021)),
        mode: ServeMode::MonteCarlo,
        shards,
        workers_per_shard: 1,
        batch,
        queue_cap,
        deadline_ticks: None,
        routing: RoutingPolicy::LeastLoaded,
        autoscale: None,
    });
    let plan = cluster.plan_with_faults(&trace, &[], faults);
    (trace, plan)
}

/// A random single-shard crash window with a slow window alongside, a random retry policy,
/// and a random (strictly increasing) degradation ladder. `knobs` packs the small
/// parameters (shard choices, multiplier, backoff, budget, ladder watermarks) into one
/// proptest input — the proptest tuple limit caps how many named parameters a property can
/// take, and these knobs don't benefit from individual shrinking.
fn random_fault_plan(shards: usize, down_tick: u64, window: u64, knobs: u32) -> FaultPlan {
    let mut knobs = knobs as u64;
    let mut draw = |range: u64| {
        let v = knobs % range;
        knobs /= range;
        v
    };
    let crash_shard = draw(shards as u64) as usize;
    let slow_shard = draw(shards as u64) as usize;
    let multiplier = 1 + draw(3);
    let base_backoff = 1 + draw(60);
    let budget = draw(3) as u32;
    let reduce = 1 + draw(3) as usize;
    let moment_step = 1 + draw(3) as usize;
    let shed_step = 1 + draw(3) as usize;
    let up_tick = down_tick + window;
    FaultPlan::new(vec![
        FaultEvent::ShardDown { tick: down_tick, shard: crash_shard },
        FaultEvent::SlowShard {
            shard: slow_shard,
            from_tick: down_tick,
            until_tick: up_tick,
            multiplier,
        },
        FaultEvent::ShardUp { tick: up_tick, shard: crash_shard },
    ])
    .with_retry(RetryPolicy {
        base_backoff_ticks: base_backoff,
        max_backoff_ticks: base_backoff * 4,
        max_retries: budget,
    })
    .with_ladder(DegradeLadder {
        reduced_samples: 1,
        reduce_watermark: reduce,
        moment_watermark: reduce + moment_step,
        shed_watermark: reduce + moment_step + shed_step,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Conservation and the tick arrow survive arbitrary fault plans: every request is
    /// answered or shed exactly once; an answered request still completes no earlier than
    /// its arrival plus batch overhead; a shed request is shed at or after its arrival
    /// (failover retries legitimately move a shed past the arrival tick).
    #[test]
    fn conservation_holds_under_random_fault_plans(
        requests in 1usize..120,
        interarrival in 1u64..6,
        shards in 1usize..5,
        queue_cap in 1usize..8,
        selector in 0u8..4,
        down_tick in 0u64..400,
        window in 1u64..500,
        knobs in 0u32..u32::MAX,
    ) {
        let faults = random_fault_plan(shards, down_tick, window, knobs);
        let (trace, plan) = plan_with_faults(
            requests, interarrival, shards, queue_cap, arrival_process(selector),
            BatchPolicy { max_batch: 4, max_wait_ticks: 8 }, &faults,
        );
        prop_assert_eq!(plan.outcomes.len(), trace.len());
        let shed_ids: Vec<u64> = plan.sheds.iter().filter_map(Event::request).collect();
        let mut answered = 0usize;
        for (request, outcome) in trace.iter().zip(&plan.outcomes) {
            match outcome {
                RequestOutcome::Answered { end_tick, shard, .. } => {
                    answered += 1;
                    prop_assert!(*shard < shards);
                    prop_assert!(!shed_ids.contains(&request.id));
                    prop_assert!(
                        *end_tick >= request.arrival_tick + BATCH_OVERHEAD_TICKS,
                        "request {} finished at {} before arrival {} + overhead",
                        request.id, end_tick, request.arrival_tick
                    );
                }
                RequestOutcome::Shed { tick, shard, .. } => {
                    prop_assert!(*shard < shards);
                    prop_assert!(shed_ids.contains(&request.id));
                    prop_assert!(
                        *tick >= request.arrival_tick,
                        "request {} shed at {} before its arrival {}",
                        request.id, tick, request.arrival_tick
                    );
                }
            }
        }
        prop_assert_eq!(answered + plan.sheds.len(), trace.len());
        prop_assert_eq!(plan.latencies.len(), answered);
    }

    /// Failover retries obey the backoff arithmetic exactly: every retry fires at
    /// `failed + backoff(attempt)`, and a retried request that ends up answered never
    /// completes before its last scheduled retry tick.
    #[test]
    fn retries_never_complete_before_their_backoff_tick(
        requests in 8usize..120,
        interarrival in 1u64..4,
        shards in 1usize..4,
        down_tick in 0u64..300,
        window in 50u64..600,
        crash_shard in 0usize..4,
        base_backoff in 1u64..64,
        budget in 1u32..4,
    ) {
        let crash_shard = crash_shard % shards;
        let retry = RetryPolicy {
            base_backoff_ticks: base_backoff,
            max_backoff_ticks: base_backoff * 4,
            max_retries: budget,
        };
        let faults = FaultPlan::new(vec![
            FaultEvent::ShardDown { tick: down_tick, shard: crash_shard },
            FaultEvent::ShardUp { tick: down_tick + window, shard: crash_shard },
        ])
        .with_retry(retry);
        let (trace, plan) = plan_with_faults(
            requests, interarrival, shards, 8, ArrivalProcess::Bursty { mean_burst: 5 },
            BatchPolicy { max_batch: 4, max_wait_ticks: 8 }, &faults,
        );
        for event in &plan.faults.retries {
            let Event::Retry { request, failed_tick, retry_tick, attempt, .. } = *event else {
                panic!("retry list holds a non-retry event: {event:?}");
            };
            prop_assert_eq!(
                retry_tick,
                failed_tick + retry.backoff_ticks(attempt),
                "retry of {} must fire exactly one backoff after the failure", request
            );
            prop_assert!(attempt >= 1 && attempt <= budget);
            let index = trace.iter().position(|r| r.id == request).unwrap();
            if let RequestOutcome::Answered { end_tick, .. } = plan.outcomes[index] {
                prop_assert!(
                    end_tick >= retry_tick,
                    "request {} answered at {} before its retry at {}",
                    request, end_tick, retry_tick
                );
            }
        }
    }

    /// Availability is antitone in fault density: widening an all-shard blackout (a strict
    /// superset of downtime) never answers more. Run unbatched with an uncontended queue
    /// and no retries so downtime is the *only* thing that sheds — under contention a
    /// longer blackout could legitimately reshuffle queueing in either direction.
    #[test]
    fn availability_is_antitone_in_fault_density(
        requests in 8usize..120,
        interarrival in 1u64..6,
        shards in 1usize..4,
        start in 0u64..200,
        len in 1u64..300,
        extra in 1u64..300,
    ) {
        let blackout = |until: u64| {
            let mut events: Vec<FaultEvent> =
                (0..shards).map(|s| FaultEvent::ShardDown { tick: start, shard: s }).collect();
            events.extend((0..shards).map(|s| FaultEvent::ShardUp { tick: until, shard: s }));
            FaultPlan::new(events).with_retry(RetryPolicy {
                base_backoff_ticks: 16,
                max_backoff_ticks: 64,
                max_retries: 0,
            })
        };
        let (_, short) = plan_with_faults(
            requests, interarrival, shards, requests, ArrivalProcess::Uniform,
            BatchPolicy::unbatched(), &blackout(start + len),
        );
        let (_, long) = plan_with_faults(
            requests, interarrival, shards, requests, ArrivalProcess::Uniform,
            BatchPolicy::unbatched(), &blackout(start + len + extra),
        );
        prop_assert!(
            long.availability() <= short.availability(),
            "a longer blackout ({} -> {} ticks) raised availability {} -> {}",
            len, len + extra, short.availability(), long.availability()
        );
    }

    /// A retry budget only helps when nothing else competes: with an uncontended queue and
    /// no batching, every blackout-shed request is answered instead once retries can
    /// outlast the downtime.
    #[test]
    fn retries_only_improve_uncontended_availability(
        requests in 8usize..120,
        interarrival in 1u64..6,
        shards in 1usize..4,
        start in 0u64..200,
        len in 1u64..200,
    ) {
        let blackout = |budget: u32| {
            let mut events: Vec<FaultEvent> =
                (0..shards).map(|s| FaultEvent::ShardDown { tick: start, shard: s }).collect();
            events
                .extend((0..shards).map(|s| FaultEvent::ShardUp { tick: start + len, shard: s }));
            FaultPlan::new(events).with_retry(RetryPolicy {
                base_backoff_ticks: 16,
                max_backoff_ticks: 256,
                max_retries: budget,
            })
        };
        let (_, without) = plan_with_faults(
            requests, interarrival, shards, requests, ArrivalProcess::Uniform,
            BatchPolicy::unbatched(), &blackout(0),
        );
        let (_, with) = plan_with_faults(
            requests, interarrival, shards, requests, ArrivalProcess::Uniform,
            BatchPolicy::unbatched(), &blackout(5),
        );
        prop_assert!(
            with.availability() >= without.availability(),
            "granting retries lowered availability {} -> {}",
            without.availability(), with.availability()
        );
    }
}

/// Swap version `version` of the B-MLP proxy: new weights and wider hidden layers, so the
/// version active at a batch's service start visibly changes its price.
fn swap_source(version: usize) -> ModelSource {
    let mut spec = ModelSpec::mlp(2021 + version as u64);
    spec.proxy.hidden.iter_mut().for_each(|width| *width += 8 * version);
    ModelSource::Spec(spec)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The engine and the cluster drive one batch clock: over any sorted trace, batch policy
    /// and sorted swap schedule, a standalone engine and a 1-shard, fault-free cluster whose
    /// queue holds the whole trace close, start, end, size and version every batch alike;
    /// the cluster's plan carries the engine's latencies and makespan; and `plan_batches`
    /// coalesces the trace into the engine's batches.
    #[test]
    fn engine_and_one_shard_cluster_time_batches_identically(
        requests in 1usize..40,
        interarrival in 1u64..8,
        selector in 0u8..4,
        max_batch in 1usize..6,
        max_wait_ticks in 0u64..24,
        samples in 1usize..3,
        swap_ticks in prop::collection::vec(0u64..600, 0..4),
        seed in 0u64..1000,
    ) {
        let model = ModelSpec::mlp(2021);
        let trace = WorkloadSpec::uniform(requests, interarrival, samples, seed)
            .with_arrival(arrival_process(selector))
            .generate(&model);
        let policy = BatchPolicy { max_batch, max_wait_ticks };
        let mut swap_ticks = swap_ticks;
        swap_ticks.sort_unstable();
        let swaps: Vec<VersionSwap> = swap_ticks
            .iter()
            .enumerate()
            .map(|(i, &at_tick)| VersionSwap { at_tick, source: swap_source(i + 1) })
            .collect();
        let spec = EngineSpec::new(model).policy(policy);

        let solo =
            InferenceEngine::build(spec.clone()).run_traced(&trace, &swaps, &mut NullRecorder);
        let cluster = Cluster::new(ClusterConfig::from_engine_spec(&spec, 1, trace.len()));
        let shard_swaps: Vec<ShardSwap> =
            swaps.into_iter().map(|swap| ShardSwap { shard: 0, swap }).collect();
        let none = FaultPlan::none();
        let report = cluster.run_traced(&trace, &shard_swaps, &none, &mut NullRecorder);
        prop_assert_eq!(&solo.batches, &report.shard_reports[0].batches);

        let plan = cluster.plan_with_faults(&trace, &shard_swaps, &none);
        prop_assert_eq!(&plan.latencies, &solo.latencies);
        prop_assert_eq!(plan.makespan_ticks, solo.makespan_ticks);

        let coalesced: Vec<(u64, usize)> = plan_batches(&trace, policy)
            .iter()
            .map(|batch| (batch.close_tick, batch.requests.len()))
            .collect();
        let timed: Vec<(u64, usize)> =
            solo.batches.iter().map(|batch| (batch.close_tick, batch.size)).collect();
        prop_assert_eq!(coalesced, timed);
    }
}

/// The plan-side invariants above transfer to full runs: this control arm checks
/// conservation on a real executed report, escalations included.
#[test]
fn executed_two_tier_run_conserves_requests() {
    let spec = ModelSpec::mlp(2021);
    let trace = WorkloadSpec::uniform(30, 2, 2, 4242)
        .with_arrival(ArrivalProcess::Bursty { mean_burst: 5 })
        .generate(&spec);
    let cluster = Cluster::new(ClusterConfig {
        source: ModelSource::Spec(spec),
        mode: ServeMode::MonteCarlo,
        shards: 3,
        workers_per_shard: 2,
        batch: BatchPolicy { max_batch: 4, max_wait_ticks: 8 },
        queue_cap: 4,
        deadline_ticks: Some(400),
        routing: RoutingPolicy::TwoTier { low_samples: 1, high_samples: 6, entropy_threshold: 1.0 },
        autoscale: None,
    });
    let report = cluster.run_traced(&trace, &[], &FaultPlan::none(), &mut NullRecorder);
    assert_eq!(report.answered() + report.sheds.len(), report.submitted());
    for (i, outcome) in report.outcomes.iter().enumerate() {
        match outcome {
            RequestOutcome::Answered { .. } => assert!(report.responses[i].is_some()),
            RequestOutcome::Shed { .. } => assert!(report.responses[i].is_none()),
        }
    }
    // Escalation is an upgrade path, never a second outcome: escalated requests stay answered.
    for event in &report.escalations {
        let request = event.request().expect("escalations are request-scoped");
        assert!(matches!(
            report.outcomes[request as usize],
            RequestOutcome::Answered { escalated: true, .. }
        ));
    }
}
