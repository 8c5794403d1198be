//! Span-tree invariants of the traced cluster path, property-tested across random fault
//! plans × all four arrival processes on small **executed** clusters (real engines, phase B
//! pinned to phase A internally).
//!
//! The invariants, for every submitted request:
//!
//! * the recorded event stream assembles into one span tree per request;
//! * every tree is **well-formed** — monotone ticks, children nested inside their parent —
//!   and carries exactly one terminal answer-or-shed leaf, matching the report's outcome;
//! * stage attribution tiles an answered request's admit→answer window **exactly** (the
//!   five named stages sum to 100% of its end-to-end tick latency);
//! * tracing is free: responses serialize byte-identically with the recorder on or off;
//! * each of the report's decision lists is the recorded stream filtered to its variant,
//!   element for element and in order.
//!
//! Three scenario shapes share the inputs: least-loaded routing under the random fault plan;
//! the same with autoscaling and a corrupt checkpoint that cancels a scheduled hot-swap; and
//! fault-free two-tier routing, which escalates.

use bnn_obs::{assemble_traces, Event, NullRecorder, SpanNode, TraceRecorder};
use bnn_serve::{
    ArrivalProcess, AutoscalePolicy, BatchPolicy, Cluster, ClusterConfig, DegradeLadder,
    FaultEvent, FaultPlan, ModelSource, ModelSpec, RequestOutcome, RetryPolicy, RoutingPolicy,
    ServeMode, ShardSwap, VersionSwap, WorkloadSpec,
};
use proptest::prelude::*;

fn arrival_process(selector: u8) -> ArrivalProcess {
    match selector % 4 {
        0 => ArrivalProcess::Uniform,
        1 => ArrivalProcess::Bursty { mean_burst: 5 },
        2 => ArrivalProcess::Diurnal { cycle: 64 },
        _ => ArrivalProcess::Adversarial { spike: 12 },
    }
}

/// A random crash window + slow window + retry policy + degradation ladder, `knobs`-packed
/// like `admission_props::random_fault_plan` (proptest's tuple limit caps named inputs).
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

fn cluster(
    shards: usize,
    queue_cap: usize,
    routing: RoutingPolicy,
    autoscale: Option<AutoscalePolicy>,
) -> Cluster {
    Cluster::new(ClusterConfig {
        source: ModelSource::Spec(ModelSpec::mlp(2021)),
        mode: ServeMode::MonteCarlo,
        shards,
        workers_per_shard: 1,
        batch: BatchPolicy { max_batch: 4, max_wait_ticks: 8 },
        queue_cap,
        deadline_ticks: None,
        routing,
        autoscale,
    })
}

/// One scenario shape per `shape` (see the module docs): the cluster, its per-shard swap
/// schedule and its fault plan.
fn scenario(
    shape: u8,
    shards: usize,
    queue_cap: usize,
    faults: FaultPlan,
    down_tick: u64,
) -> (Cluster, Vec<ShardSwap>, FaultPlan) {
    match shape % 3 {
        0 => (cluster(shards, queue_cap, RoutingPolicy::LeastLoaded, None), Vec::new(), faults),
        1 => {
            let autoscale = AutoscalePolicy {
                interval_ticks: 16,
                high_watermark: 2,
                low_watermark: 1,
                min_active: 1,
            };
            let swap =
                VersionSwap { at_tick: down_tick, source: ModelSource::Spec(ModelSpec::mlp(3031)) };
            let mut events = faults.events.clone();
            events.insert(0, FaultEvent::CorruptCheckpoint { tick: down_tick, shard: 0 });
            (
                cluster(shards, queue_cap, RoutingPolicy::LeastLoaded, Some(autoscale)),
                vec![ShardSwap { shard: 0, swap }],
                FaultPlan { events, ..faults },
            )
        }
        _ => {
            let routing =
                RoutingPolicy::TwoTier { low_samples: 1, high_samples: 4, entropy_threshold: 1.0 };
            (cluster(shards.max(2), queue_cap, routing, None), Vec::new(), FaultPlan::none())
        }
    }
}

/// The events of one variant in a recorded stream, in recording order.
fn family(events: &[Event], variant: fn(&Event) -> bool) -> Vec<Event> {
    events.iter().copied().filter(variant).collect()
}

/// Terminal (`answer` / `shed`) leaves in a span tree.
fn terminal_count(node: &SpanNode) -> usize {
    let own = usize::from(node.stage == "answer" || node.stage == "shed");
    own + node.children.iter().map(terminal_count).sum::<usize>()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every admitted request's span tree is well-formed under random fault plans × all
    /// four arrival processes, terminal leaves match outcomes, answered attribution is
    /// exact, and tracing never perturbs the responses.
    #[test]
    fn span_trees_are_well_formed_under_random_faults(
        requests in 1usize..40,
        interarrival in 1u64..6,
        shards in 1usize..4,
        queue_cap in 1usize..8,
        selector in 0u8..4,
        down_tick in 0u64..200,
        window in 1u64..300,
        knobs in 0u32..u32::MAX,
        shape in 0u8..3,
    ) {
        let faults = random_fault_plan(shards, down_tick, window, knobs);
        let (cluster, swaps, faults) = scenario(shape, shards, queue_cap, faults, down_tick);
        let spec = ModelSpec::mlp(2021);
        let trace = WorkloadSpec::uniform(requests, interarrival, 2, 4242)
            .with_arrival(arrival_process(selector))
            .generate(&spec);

        let mut rec = TraceRecorder::new();
        let report = cluster.run_traced(&trace, &swaps, &faults, &mut rec);
        let untraced = cluster.run_traced(&trace, &swaps, &faults, &mut NullRecorder);
        prop_assert_eq!(
            untraced.responses_json(),
            report.responses_json(),
            "responses must be byte-identical tracing-on vs tracing-off"
        );

        // One vocabulary: every decision list is the recorded stream, filtered by variant.
        let events = rec.events();
        prop_assert_eq!(&report.sheds, &family(events, |e| matches!(e, Event::Shed { .. })));
        prop_assert_eq!(
            &report.escalations,
            &family(events, |e| matches!(e, Event::Escalation { .. }))
        );
        prop_assert_eq!(
            &report.scale_events,
            &family(events, |e| matches!(e, Event::Scale { .. }))
        );
        prop_assert_eq!(
            &report.faults.retries,
            &family(events, |e| matches!(e, Event::Retry { .. }))
        );
        prop_assert_eq!(
            &report.faults.degrades,
            &family(events, |e| matches!(e, Event::Degrade { .. }))
        );
        prop_assert_eq!(
            &report.faults.checkpoint_faults,
            &family(events, |e| matches!(e, Event::CheckpointFault { .. }))
        );

        let traces = assemble_traces(rec.events())
            .map_err(|e| TestCaseError::fail(format!("span assembly failed: {e}")))?;
        prop_assert_eq!(traces.len(), trace.len(), "one span tree per submitted request");

        for (t, request) in traces.iter().zip(&trace) {
            prop_assert_eq!(t.request, request.id);
            prop_assert!(
                t.root.well_formed().is_ok(),
                "request {}: malformed span tree: {:?}", t.request, t.root.well_formed()
            );
            prop_assert_eq!(
                terminal_count(&t.root), 1,
                "request {}: exactly one answer-or-shed leaf", t.request
            );
            let index = t.request as usize;
            match &report.outcomes[index] {
                RequestOutcome::Answered { end_tick, .. } => {
                    prop_assert!(t.breakdown.answered);
                    prop_assert_eq!(t.breakdown.end_tick, *end_tick);
                    prop_assert_eq!(
                        t.breakdown.coverage(), 1.0,
                        "request {}: attribution must tile the window exactly", t.request
                    );
                    prop_assert_eq!(t.breakdown.attributed(), t.breakdown.total());
                }
                RequestOutcome::Shed { tick, .. } => {
                    prop_assert!(!t.breakdown.answered);
                    prop_assert_eq!(t.breakdown.end_tick, *tick);
                }
            }
        }
    }
}
