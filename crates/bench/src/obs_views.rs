//! The `obs_bench` traced-replay grid and its deterministic summary.
//!
//! Same division of labor as [`crate::chaos_views`]: the binary drives the grid and
//! measures wall clocks; this module owns what the grid *is* and which scalars are
//! deterministic enough to commit (`BENCH_obs_summary.json`) and regression-check. Every
//! recorded number is tick-domain — event counts, stream digests, per-stage p50/p99
//! attribution tables, metrics-registry digests — so the committed summary reproduces
//! bit-for-bit on any machine at any worker count.
//!
//! The grid replays the chaos benchmark's everything-at-once `crash_storm` scenario under
//! all four arrival processes, plus a fault-free two-tier escalation run, each **twice**:
//! once untraced and once through a [`TraceRecorder`]. Every record asserts the tracing
//! contract before it is committed:
//!
//! * responses, decision events and fault events are **byte-identical** tracing-on vs
//!   tracing-off;
//! * the recorder-derived serialization of sheds/escalations/scales and of the fault trace
//!   equals the report's own (one emission code path, same committed digests);
//! * span assembly attributes **exactly 100%** of every answered request's end-to-end tick
//!   latency to the five named stages (queue / batch_wait / compute / retry_backoff /
//!   escalation) — the issue's ≥ 99% acceptance bar, met with equality.
//!
//! A separate profile section replays B-LeNet requests through
//! [`ServeReplica::answer_profiled`] and commits the per-request hot-path cost — per-tier
//! GEMM calls/MACs, ε values, scratch high water — the numbers the paper's traffic/energy
//! argument is about.

use bnn_obs::{
    assemble_traces, export, percentile, Event, Registry, StageBreakdown, TraceRecorder, STAGES,
};
use bnn_serve::{
    ArrivalProcess, Cluster, ClusterConfig, ClusterRunReport, EngineSpec, FaultPlan, InferRequest,
    InferResponse, ModelSpec, NullRecorder, RoutingPolicy, ServeReplica,
};
use shift_bnn::sweep::json::Json;

use crate::chaos_views::{
    chaos_arrivals, chaos_cluster_config, chaos_request_count, chaos_scenarios,
    CHAOS_INTERARRIVAL_TICKS, CHAOS_SAMPLES, CHAOS_WEIGHT_SEED, CHAOS_WORKLOAD_SEED,
};

/// Two-tier escalation parameters of the grid's fault-free arm (the cluster benchmark's
/// escalation example): 1-sample low pass, 8-sample high pass, escalate above 1.35 nats.
pub const OBS_TWO_TIER: RoutingPolicy =
    RoutingPolicy::TwoTier { low_samples: 1, high_samples: 8, entropy_threshold: 1.35 };

/// One point of the obs grid: a named scenario (fault plan + swaps + routing) × arrival.
#[derive(Debug, Clone)]
pub struct ObsConfig {
    /// Stable record key.
    pub scenario: &'static str,
    /// The arrival shape of the trace.
    pub arrival: ArrivalProcess,
    /// The cluster to run (routing differs between the chaos and two-tier arms).
    pub cluster: ClusterConfig,
    /// The fault plan.
    pub faults: FaultPlan,
    /// Scheduled hot-swaps.
    pub swaps: Vec<bnn_serve::ShardSwap>,
}

/// One completed grid point: the (traced) report plus its recorded event stream.
#[derive(Debug, Clone)]
pub struct ObsRun {
    /// The grid point.
    pub config: ObsConfig,
    /// The traced run's report (asserted byte-identical to the untraced run's).
    pub report: ClusterRunReport,
    /// The recorded stream, in recording order.
    pub events: Vec<Event>,
}

/// Enumerates the grid in committed order: `crash_storm` × the four arrivals, then the
/// fault-free `two_tier` escalation run under uniform arrivals.
pub fn obs_configs(reduced: bool, workers: usize) -> Vec<ObsConfig> {
    let storm = chaos_scenarios(reduced)
        .into_iter()
        .find(|s| s.name == "crash_storm")
        .expect("chaos grid defines crash_storm");
    let mut configs: Vec<ObsConfig> = chaos_arrivals()
        .into_iter()
        .map(|arrival| ObsConfig {
            scenario: "crash_storm",
            arrival,
            cluster: chaos_cluster_config(workers),
            faults: storm.faults.clone(),
            swaps: storm.swaps.clone(),
        })
        .collect();
    let mut two_tier = chaos_cluster_config(workers);
    two_tier.routing = OBS_TWO_TIER;
    configs.push(ObsConfig {
        scenario: "two_tier",
        arrival: ArrivalProcess::Uniform,
        cluster: two_tier,
        faults: FaultPlan::none(),
        swaps: Vec::new(),
    });
    configs
}

fn obs_trace(arrival: ArrivalProcess, requests: usize) -> Vec<InferRequest> {
    let spec = ModelSpec::mlp(CHAOS_WEIGHT_SEED);
    bnn_serve::WorkloadSpec::uniform(
        requests,
        CHAOS_INTERARRIVAL_TICKS,
        CHAOS_SAMPLES,
        CHAOS_WORKLOAD_SEED,
    )
    .with_arrival(arrival)
    .generate(&spec)
}

/// Runs every grid config traced *and* untraced with `workers` pool threads per shard and
/// asserts the tracing contract on each: byte-identical responses/events/faults between the
/// two runs, recorder-derived serialization equal to the report's, and exact 100% stage
/// coverage for every answered request.
///
/// # Panics
///
/// Panics if any record violates the tracing contract — that is the point.
pub fn run_obs_grid(reduced: bool, workers: usize) -> Vec<ObsRun> {
    let requests = chaos_request_count(reduced);
    obs_configs(reduced, workers)
        .into_iter()
        .map(|config| {
            let trace = obs_trace(config.arrival, requests);
            let cluster = Cluster::new(config.cluster.clone());
            let untraced =
                cluster.run_traced(&trace, &config.swaps, &config.faults, &mut NullRecorder);
            let mut rec = TraceRecorder::new();
            let report = cluster.run_traced(&trace, &config.swaps, &config.faults, &mut rec);
            let key = format!("{} x {}", config.scenario, config.arrival.label());

            // Tracing on vs off: the report's canonical bytes must not move at all.
            assert_eq!(
                untraced.responses_json(),
                report.responses_json(),
                "{key}: responses must be byte-identical tracing-on vs tracing-off"
            );
            assert_eq!(untraced.events_json(), report.events_json(), "{key}: decision events");
            assert_eq!(untraced.fault_events_json(), report.fault_events_json(), "{key}: faults");

            // One emission code path: serializing the recorded stream reproduces the
            // report's own decision/fault documents byte for byte.
            let events = rec.into_inner();
            assert_eq!(
                export::decision_events_json(&events).to_compact(),
                report.events_json(),
                "{key}: recorder-derived decision events must match the report's"
            );
            assert_eq!(
                export::fault_events_json(&events).to_compact(),
                report.fault_events_json(),
                "{key}: recorder-derived fault events must match the report's"
            );

            // Attribution: exactly 100% of every answered request's latency lands in the
            // five named stages (the acceptance bar is ≥ 99%; the tiling is exact).
            let traces = assemble_traces(&events).expect("recorded spans are well-formed");
            assert_eq!(
                traces.len(),
                report.submitted(),
                "{key}: every submitted request has a span tree"
            );
            for t in &traces {
                assert_eq!(
                    t.breakdown.coverage(),
                    1.0,
                    "{key}: request {} attribution must tile its window exactly",
                    t.request
                );
            }
            assert_eq!(
                traces.iter().filter(|t| t.breakdown.answered).count(),
                report.answered(),
                "{key}: answered span trees match the report"
            );

            ObsRun { config, report, events }
        })
        .collect()
}

/// Nearest-rank p50/p99 plus the total over one stage's per-request tick values.
fn stage_stats(values: &[u64]) -> Json {
    let total: u64 = values.iter().sum();
    Json::obj([
        ("p50", Json::UInt(percentile(values, 0.50))),
        ("p99", Json::UInt(percentile(values, 0.99))),
        ("total_ticks", Json::UInt(total)),
    ])
}

/// The p50/p99 stage-attribution table over the answered requests' breakdowns: one row per
/// named stage plus the end-to-end row, all in ticks.
pub fn stage_attribution_json(breakdowns: &[&StageBreakdown]) -> Json {
    let mut rows: Vec<(String, Json)> = Vec::new();
    for (s, stage) in STAGES.iter().enumerate() {
        let values: Vec<u64> = breakdowns.iter().map(|b| b.stage_ticks()[s]).collect();
        rows.push((stage.to_string(), stage_stats(&values)));
    }
    let e2e: Vec<u64> = breakdowns.iter().map(|b| b.total()).collect();
    rows.push(("end_to_end".to_string(), stage_stats(&e2e)));
    Json::obj(rows)
}

/// Requests the profile section replays through the B-LeNet replica.
pub fn obs_profile_requests(reduced: bool) -> usize {
    if reduced {
        4
    } else {
        16
    }
}

/// Replays B-LeNet uncertainty requests through [`ServeReplica::answer_profiled`] on the
/// calling thread and serializes the per-request hot-path costs: per-tier GEMM calls/MACs,
/// ε values drawn, scratch high water. Fully deterministic — the counters are exact deltas
/// around each request, independent of whatever ran on this thread before.
pub fn obs_profile_json(reduced: bool) -> Json {
    let samples = 8usize;
    let spec = ModelSpec::lenet(7);
    // The per-tier counts are committed, so the replica pins the default tier rather than
    // following a `SHIFT_BNN_KERNEL_TIER` override (CI's forced-tier legs run this golden).
    let engine = EngineSpec::new(spec.clone()).kernel_tier(bnn_tensor::KernelTier::Simd);
    let mut replica = ServeReplica::build(&engine);
    let mut request = InferRequest {
        id: 0,
        arrival_tick: 0,
        input: crate::hot::fill_tensor(0xFEED, spec.input_shape()),
        samples,
        seed: 1,
    };
    let mut response =
        InferResponse { id: 0, samples: 0, mean: Vec::new(), variance: Vec::new(), entropy: 0.0 };
    let n = obs_profile_requests(reduced);
    let mut per_request = Vec::with_capacity(n);
    let mut totals = bnn_obs::ProfileSnapshot::default();
    for i in 0..n {
        request.id = i as u64;
        request.seed = 1 + i as u64;
        let profile = replica.answer_profiled(&request, &mut response);
        totals.gemm_calls.iter_mut().zip(profile.gemm_calls).for_each(|(t, v)| *t += v);
        totals.gemm_macs.iter_mut().zip(profile.gemm_macs).for_each(|(t, v)| *t += v);
        totals.epsilon_values += profile.epsilon_values;
        totals.scratch_high_water = totals.scratch_high_water.max(profile.scratch_high_water);
        per_request.push(profile);
    }
    assert!(
        per_request[0].epsilon_values > 0,
        "a Monte-Carlo answer must draw ε values through the counted path"
    );
    Json::obj([
        ("model", Json::Str("lenet".into())),
        ("samples", Json::UInt(samples as u64)),
        ("requests", Json::UInt(n as u64)),
        ("first_request", per_request[0].to_json()),
        ("totals", totals.to_json()),
    ])
}

/// Builds the deterministic summary document from a grid run — the committed
/// `BENCH_obs_summary.json` regression baseline.
pub fn obs_summary_json(grid: &[ObsRun], reduced: bool) -> Json {
    let records: Vec<Json> = grid
        .iter()
        .map(|run| {
            let report = &run.report;
            let traces = assemble_traces(&run.events).expect("grid runs assert well-formedness");
            let answered: Vec<&StageBreakdown> =
                traces.iter().filter(|t| t.breakdown.answered).map(|t| &t.breakdown).collect();
            let min_coverage = answered.iter().map(|b| b.coverage()).fold(f64::INFINITY, f64::min);
            let mut registry = Registry::from_events(&run.events);
            registry.record_traces(&traces);
            Json::obj([
                ("scenario", Json::Str(run.config.scenario.into())),
                ("arrival", Json::Str(run.config.arrival.label())),
                ("submitted", Json::UInt(report.submitted() as u64)),
                ("answered", Json::UInt(report.answered() as u64)),
                ("shed", Json::UInt(report.sheds.len() as u64)),
                ("events_recorded", Json::UInt(run.events.len() as u64)),
                ("min_coverage", Json::Float(min_coverage)),
                ("stage_attribution", stage_attribution_json(&answered)),
                ("responses_digest", Json::Str(report.responses_digest())),
                ("events_digest", Json::Str(report.events_digest())),
                ("fault_events_digest", Json::Str(report.fault_events_digest())),
                ("stream_digest", Json::Str(export::digest(&export::stream_json(&run.events)))),
                ("metrics_digest", Json::Str(export::digest(&registry.to_json()))),
                (
                    "prometheus_digest",
                    Json::Str(shift_bnn::sweep::json::fnv1a_hex(registry.to_prometheus().bytes())),
                ),
            ])
        })
        .collect();
    Json::obj([
        ("schema", Json::Str("shift-bnn-obs-summary/v1".into())),
        ("reduced", Json::Bool(reduced)),
        (
            "workload",
            Json::obj([
                ("requests", Json::UInt(chaos_request_count(reduced) as u64)),
                ("interarrival_ticks", Json::UInt(CHAOS_INTERARRIVAL_TICKS)),
                ("samples", Json::UInt(CHAOS_SAMPLES as u64)),
                ("seed", Json::UInt(CHAOS_WORKLOAD_SEED)),
            ]),
        ),
        ("records", Json::Array(records)),
        ("profile", obs_profile_json(reduced)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_enumerates_storm_then_two_tier() {
        let configs = obs_configs(true, 1);
        assert_eq!(configs.len(), 5);
        assert!(configs[..4].iter().all(|c| c.scenario == "crash_storm"));
        assert_eq!(configs[0].arrival.label(), "uniform");
        assert_eq!(configs[4].scenario, "two_tier");
        assert!(matches!(configs[4].cluster.routing, RoutingPolicy::TwoTier { .. }));
    }

    #[test]
    fn adversarial_storm_attributes_every_answered_tick() {
        // The acceptance golden in miniature: the adversarial-arrival crash storm — the
        // nastiest fault scenario the repo has — attributes 100% of every answered
        // request's latency, with nonzero queue, compute and retry-backoff mass.
        let grid = run_obs_grid(true, 1);
        let run = grid
            .iter()
            .find(|r| {
                r.config.scenario == "crash_storm" && r.config.arrival.label() == "adversarial150"
            })
            .expect("grid has the adversarial storm");
        let traces = assemble_traces(&run.events).unwrap();
        let answered: Vec<_> = traces.iter().filter(|t| t.breakdown.answered).collect();
        assert!(!answered.is_empty());
        assert!(answered.iter().all(|t| t.breakdown.coverage() == 1.0));
        assert!(answered.iter().any(|t| t.breakdown.queue > 0), "queueing must appear");
        assert!(answered.iter().all(|t| t.breakdown.compute > 0), "every answer computed");
        // Failover backoff shows up under the diurnal arrival in the reduced grid (the
        // adversarial spike sheds its victims instead of retrying them); assert the stage
        // is exercised — and attributed to an *answered* request — somewhere in the storm.
        assert!(
            grid.iter()
                .filter(|r| r.config.scenario == "crash_storm")
                .flat_map(|r| assemble_traces(&r.events).unwrap())
                .any(|t| t.breakdown.answered && t.breakdown.retry_backoff > 0),
            "the storm must send some answered request through failover backoff"
        );
    }

    #[test]
    fn two_tier_run_attributes_escalation_windows() {
        let grid = run_obs_grid(true, 1);
        let run = grid.last().expect("two_tier is the last record");
        assert_eq!(run.config.scenario, "two_tier");
        let traces = assemble_traces(&run.events).unwrap();
        assert!(
            traces.iter().any(|t| t.breakdown.escalation > 0),
            "some escalated request must spend ticks in the escalation window"
        );
    }

    #[test]
    fn reduced_grid_summary_is_worker_invariant() {
        let a = obs_summary_json(&run_obs_grid(true, 1), true);
        let b = obs_summary_json(&run_obs_grid(true, 3), true);
        assert_eq!(a.to_pretty(), b.to_pretty());
    }

    #[test]
    fn profile_counts_gemm_work_and_epsilon_volume() {
        let profile = obs_profile_json(true);
        let first = profile.get("first_request").unwrap();
        assert!(first.get("gemm_macs_total").unwrap().as_u64().unwrap() > 0);
        // 8 samples × one ε per Bayesian weight, word-parallel batches included.
        assert!(first.get("epsilon_values").unwrap().as_u64().unwrap() > 0);
    }
}
