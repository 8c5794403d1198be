//! `cluster_plan`: plan-only scheduling (`Cluster::plan_with_faults`, no tensors computed) of
//! long traces, one per arrival process, on a 4-shard least-loaded S = 16 cluster under the
//! crash-storm fault plan of `chaos_bench`: staggered crashes on two shards, a slow third
//! shard, a hot-swap cancelled by a corrupt checkpoint, failover retries with backoff and the
//! degradation ladder.

use std::time::{Duration, Instant};

use bnn_serve::{
    ArrivalProcess, BatchPolicy, Cluster, ClusterConfig, ClusterPlan, DegradeLadder, FaultEvent,
    FaultPlan, InferRequest, ModelSource, ModelSpec, RequestOutcome, RetryPolicy, RoutingPolicy,
    ServeMode, ShardSwap, VersionSwap, WorkloadSpec,
};

use crate::speed::{normalize, Speed};
use crate::stats::{attribute, mean, percentile};
use crate::trace::Tracer;
use crate::{print_speed, print_summary, timed_setup, Args, Outcome};

/// Requests in each trace: five times `chaos_bench`'s, while a round of four plans stays
/// short (~4 ms) next to the host's speed changes.
const REQUESTS: usize = 5_000;

/// Ticks between arrivals before the arrival process shapes them: light enough that the
/// degradation ladder absorbs the crash storm on every arrival shape without shedding, since a
/// shed request counts as failed.
const INTERARRIVAL_TICKS: u64 = 100;

/// Monte-Carlo samples every request asks for at full quality.
const SAMPLES: usize = 16;

/// Shards of the cluster.
const SHARDS: usize = 4;

/// Per-shard backlog bound.
const QUEUE_CAP: usize = 12;

/// Weight seed of the posterior the crash storm hot-swaps in.
const SWAP_SEED: u64 = 4042;

/// Tail quantile of a round's plan time per request.
const TAIL_Q: f64 = 0.95;

/// Set-up repetitions (the median is reported).
const SETUP_REPS: usize = 9;

/// The four arrival shapes, one trace each. The adversarial spike stays under the ladder's
/// shed watermark with two shards down (10 per live shard).
const ARRIVALS: [ArrivalProcess; 4] = [
    ArrivalProcess::Uniform,
    ArrivalProcess::Bursty { mean_burst: 6 },
    ArrivalProcess::Diurnal { cycle: 512 },
    ArrivalProcess::Adversarial { spike: 12 },
];

fn config(seed: u64) -> ClusterConfig {
    ClusterConfig {
        source: ModelSource::Spec(ModelSpec::mlp(seed)),
        mode: ServeMode::MonteCarlo,
        shards: SHARDS,
        workers_per_shard: 1,
        batch: BatchPolicy { max_batch: 8, max_wait_ticks: 16 },
        queue_cap: QUEUE_CAP,
        deadline_ticks: None,
        routing: RoutingPolicy::LeastLoaded,
        autoscale: None,
    }
}

/// `chaos_bench`'s crash storm, its event ticks at the same fractions of this trace's span,
/// with the chaos ladder and retry policy armed.
fn crash_storm() -> (FaultPlan, Vec<ShardSwap>) {
    let span = REQUESTS as u64 * INTERARRIVAL_TICKS;
    let faults = FaultPlan::new(vec![
        FaultEvent::ShardDown { tick: span / 8, shard: 0 },
        FaultEvent::SlowShard {
            shard: 1,
            from_tick: span / 4,
            until_tick: span * 3 / 4,
            multiplier: 3,
        },
        FaultEvent::ShardDown { tick: span * 3 / 8, shard: 2 },
        FaultEvent::CorruptCheckpoint { tick: span / 2, shard: 2 },
        FaultEvent::ShardUp { tick: span * 5 / 8, shard: 0 },
        FaultEvent::ShardUp { tick: span * 6 / 8, shard: 2 },
    ])
    .with_ladder(DegradeLadder {
        reduced_samples: 4,
        reduce_watermark: 2,
        moment_watermark: 7,
        shed_watermark: 10,
    })
    .with_retry(RetryPolicy {
        base_backoff_ticks: 64,
        max_backoff_ticks: 512,
        max_retries: 3,
    });
    // Shard 2's swap is cancelled by the corrupt checkpoint; shard 3's lands.
    let swap = |shard| ShardSwap {
        shard,
        swap: VersionSwap {
            at_tick: span / 2,
            source: ModelSource::Spec(ModelSpec::mlp(SWAP_SEED)),
        },
    };
    (faults, vec![swap(2), swap(3)])
}

struct Setup {
    cluster: Cluster,
    traces: Vec<Vec<InferRequest>>,
    faults: FaultPlan,
    swaps: Vec<ShardSwap>,
}

/// Answered and shed requests of a plan, checked against what was submitted.
fn tally(plan: &ClusterPlan, submitted: usize) -> Result<(usize, usize), String> {
    let answered =
        plan.outcomes.iter().filter(|o| matches!(o, RequestOutcome::Answered { .. })).count();
    let shed = plan.sheds.len();
    if plan.outcomes.len() != submitted || answered + shed != submitted {
        return Err(format!(
            "{answered} answered + {shed} shed != {submitted} submitted ({} outcomes)",
            plan.outcomes.len()
        ));
    }
    Ok((answered, shed))
}

/// Runs the workload.
pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let spec = ModelSpec::mlp(args.seed);
    println!(
        "network: none computed (plan only); shards price the B-MLP serving proxy {}-{}-{} \
         ({} eps per sample) at S={SAMPLES}; {SHARDS} shards, least-loaded, queue cap \
         {QUEUE_CAP}, crash-storm faults; {} traces of {REQUESTS} requests",
        spec.input_shape()[0],
        spec.proxy.hidden.iter().map(|h| h.to_string()).collect::<Vec<_>>().join("-"),
        spec.proxy.classes,
        spec.epsilon_count(),
        ARRIVALS.len(),
    );
    let (setup, setup_s, setup_n) = timed_setup("traces, fault plan, cluster", SETUP_REPS, || {
        let traces = ARRIVALS
            .iter()
            .enumerate()
            .map(|(i, &arrival)| {
                WorkloadSpec::uniform(REQUESTS, INTERARRIVAL_TICKS, SAMPLES, args.seed + i as u64)
                    .with_arrival(arrival)
                    .generate(&spec)
            })
            .collect();
        let (faults, swaps) = crash_storm();
        Setup { cluster: Cluster::new(config(args.seed)), traces, faults, swaps }
    });
    let Setup { cluster, traces, faults, swaps } = setup;
    out.metric("setup_s", setup_s, setup_n);

    // One plan per trace up front: the simulated outcome is deterministic, so its counts are
    // printed once and reported by the traced run.
    let (mut batches, mut retries, mut degrades, mut shed_total, mut latencies) =
        (0usize, 0usize, 0usize, 0usize, Vec::new());
    for (arrival, trace) in ARRIVALS.iter().zip(&traces) {
        let plan = cluster.plan_with_faults(trace, &swaps, &faults);
        let (answered, shed) = tally(&plan, trace.len()).unwrap_or((0, trace.len()));
        println!(
            "  {:<14} answered {answered}, shed {shed}, retries {}, ladder transitions {}, \
             batches {}, sim latency p50 {} p99 {} ticks",
            arrival.label(),
            plan.faults.retries.len(),
            plan.faults.degrades.len(),
            plan.batches_per_shard.iter().sum::<usize>(),
            plan.latency_percentile(0.5),
            plan.latency_percentile(0.99),
        );
        batches += plan.batches_per_shard.iter().sum::<usize>();
        retries += plan.faults.retries.len();
        degrades += plan.faults.degrades.len();
        shed_total += shed;
        latencies.extend(plan.latencies.iter().map(|&l| l as f64));
    }

    let mut tracer = if args.trace { Tracer::default() } else { Tracer::off() };
    let round_requests: usize = traces.iter().map(Vec::len).sum();
    let (mut raw_ms, mut per_request_ms) = (Vec::new(), Vec::new());
    // Each round is timed between two speed probes and scaled to the reference speed.
    let mut speed = Speed::new(Duration::ZERO);
    let mut before = speed.factor();
    let mut untraced_ns = Vec::new();
    let (mut traced_rounds, mut traced_ns) = (0usize, 0.0f64);
    let start = Instant::now();
    let (mut round, mut call) = (0u64, 0u64);
    while start.elapsed() < args.seconds {
        // A round plans every trace once. The traced run traces every other round; the rest
        // are its untraced baseline.
        let tracing = args.trace && round % 2 == 1;
        let mut round_ns = 0.0;
        for trace in &traces {
            let t = Instant::now();
            let plan = if tracing {
                tracer.time("cluster.plan", Some(round), || {
                    cluster.plan_with_faults(trace, &swaps, &faults)
                })
            } else {
                cluster.plan_with_faults(trace, &swaps, &faults)
            };
            round_ns += t.elapsed().as_nanos() as f64;
            out.attempted += trace.len() as u64;
            match tally(&plan, trace.len()) {
                Ok((_, shed)) => out
                    .check(shed == 0, shed as u64, || format!("plan {call}: {shed} requests shed")),
                Err(e) => out.check(false, trace.len() as u64, || format!("plan {call}: {e}")),
            }
            call += 1;
        }
        let after = speed.factor();
        let normalized = normalize(round_ns, before, after);
        raw_ms.push(round_ns / 1e6 / round_requests as f64);
        per_request_ms.push(normalized / 1e6 / round_requests as f64);
        before = after;
        if tracing {
            traced_rounds += 1;
            traced_ns += round_ns;
        } else if args.trace {
            untraced_ns.push(round_ns / round_requests as f64);
        }
        round += 1;
    }

    if !args.trace {
        print_summary("plan time per request, wall clock", "ms", &raw_ms, TAIL_Q);
        let s =
            print_summary("plan time per request, speed-normalized", "ms", &per_request_ms, TAIL_Q);
        print_speed(&speed);
        out.metric("throughput_per_s", 1.0 / (s.mean / 1e3), s.n);
        out.metric("latency_p50_ms", s.p50, s.n);
        out.metric("latency_tail_ms", s.tail, s.n);
        return out;
    }

    out.check(traced_rounds > 0 && !untraced_ns.is_empty(), 0, || {
        "run too short for both untraced and traced rounds".to_string()
    });
    if traced_rounds == 0 || untraced_ns.is_empty() {
        return out;
    }
    let calls = traced_rounds * traces.len();
    let traced_requests = (traced_rounds * round_requests) as f64;
    let unit_ns = traced_ns / traced_requests;
    let plan_ns = tracer.total("cluster.plan") as f64 / traced_requests;
    let (shares, unattributed) = attribute(unit_ns, &[("cluster.share", plan_ns)]);
    let submitted = (REQUESTS * traces.len()) as f64;
    latencies.sort_by(f64::total_cmp);
    out.metric("cluster.plan_ns_per_req", plan_ns, calls);
    out.metric("cluster.batches", batches as f64, traces.len());
    out.metric("cluster.retries", retries as f64, traces.len());
    out.metric("cluster.degrade_transitions", degrades as f64, traces.len());
    out.metric("cluster.shed_share", shed_total as f64 / submitted, traces.len());
    out.metric("cluster.availability", 1.0 - shed_total as f64 / submitted, traces.len());
    out.metric("cluster.sim_latency_ticks_p50", percentile(&latencies, 0.5), latencies.len());
    out.metric("cluster.sim_latency_ticks_p99", percentile(&latencies, 0.99), latencies.len());
    for (name, share) in shares {
        out.metric(name, share, calls);
    }
    out.metric("unit_ms", unit_ns / 1e6, calls);
    out.metric("unattributed_share", unattributed, calls);
    let baseline = mean(&untraced_ns);
    out.metric("trace.overhead_share", unit_ns / baseline - 1.0, calls + untraced_ns.len());
    crate::finish_trace(args, &tracer);
    out
}
