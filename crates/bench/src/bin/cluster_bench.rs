//! `cluster_bench`: drives the deterministic cluster simulator across (routing policy ×
//! arrival process) with real per-shard engines, re-runs the grid at a different per-shard
//! worker count and asserts the two passes are **byte-identical**, then plans the
//! large-trace stress arm (phase A only, autoscaling enabled) where p999 is a meaningful
//! tail statistic. Emits:
//!
//! * `BENCH_cluster.json` — the full record, including machine-dependent wall clocks (a CI
//!   artifact, not committed);
//! * `BENCH_cluster_summary.json` — the deterministic tick-domain scalars (p50/p95/p99/p999,
//!   shed rate, escalation rate, event + response digests per grid point; the committed
//!   regression baseline, checked by `bench_regression` and the golden suite).
//!
//! Usage: `cargo run --release -p shift-bnn-bench --bin cluster_bench -- [--reduced]
//! [--workers N] [--out PATH] [--summary PATH]`

use std::time::Instant;

use shift_bnn::sweep::json::Json;
use shift_bnn_bench::cluster_views::{
    cluster_request_count, cluster_summary_json, peak_active_shards, run_cluster_grid,
    run_cluster_stress, stress_request_count,
};
use shift_bnn_bench::{num, percent, print_table};

struct Args {
    reduced: bool,
    workers: usize,
    out: String,
    summary: String,
}

fn parse_args() -> Args {
    // Like serve_bench: even on a single-CPU machine the parallel pass uses at least two
    // workers per shard so the byte-identity assertion exercises the pooled scheduler.
    let mut args = Args {
        reduced: false,
        workers: bnn_pool::default_workers().max(2),
        out: "BENCH_cluster.json".to_string(),
        summary: String::new(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--reduced" => args.reduced = true,
            "--workers" => {
                let v = it.next().expect("--workers needs a value");
                args.workers = v.parse().expect("--workers must be a positive integer");
                assert!(args.workers >= 1, "--workers must be >= 1");
            }
            "--out" => args.out = it.next().expect("--out needs a path"),
            "--summary" => args.summary = it.next().expect("--summary needs a path"),
            other => panic!(
                "unknown argument {other} (expected --reduced, --workers N, --out PATH, --summary PATH)"
            ),
        }
    }
    if args.summary.is_empty() {
        // A reduced run's summary differs from the committed full baseline (shorter traces),
        // so it defaults to a sibling path rather than clobbering the committed file.
        args.summary = if args.reduced {
            "BENCH_cluster_summary_reduced.json".to_string()
        } else {
            "BENCH_cluster_summary.json".to_string()
        };
    }
    args
}

fn main() {
    let args = parse_args();
    println!(
        "cluster grid: 12 configs (3 routing policies x 4 arrival processes), {} requests \
         each on 4 shards; stress arm: 4 plan-only configs, {} requests each; 1 worker/shard \
         vs {} workers/shard",
        cluster_request_count(args.reduced),
        stress_request_count(args.reduced),
        args.workers
    );

    // Serial pass: timed per grid, reports kept as the canonical results.
    let serial_start = Instant::now();
    let grid = run_cluster_grid(args.reduced, 1);
    let serial_ns = serial_start.elapsed().as_nanos();

    // Parallel pass: every grid point's report must serialize byte-identically — the
    // cluster-level determinism contract, asserted at runtime on every benchmark run.
    let parallel_start = Instant::now();
    let parallel = run_cluster_grid(args.reduced, args.workers);
    let parallel_ns = parallel_start.elapsed().as_nanos();
    for ((config, serial_report), (_, parallel_report)) in grid.iter().zip(&parallel) {
        assert_eq!(
            serial_report.to_json().to_compact(),
            parallel_report.to_json().to_compact(),
            "{} x {}: 1-worker and {}-worker cluster reports must be byte-identical",
            config.routing.label(),
            config.arrival.label(),
            args.workers
        );
    }
    let wall_speedup = serial_ns as f64 / parallel_ns as f64;

    // Stress arm: phase-A planning only, so its cost is routing arithmetic, not inference.
    let stress_start = Instant::now();
    let stress = run_cluster_stress(args.reduced);
    let stress_ns = stress_start.elapsed().as_nanos();

    let rows: Vec<Vec<String>> = grid
        .iter()
        .map(|(config, report)| {
            vec![
                config.routing.label().to_string(),
                config.arrival.label().to_string(),
                report.answered().to_string(),
                percent(report.shed_rate()),
                percent(report.escalation_rate()),
                report.latency_percentile(0.50).to_string(),
                report.latency_percentile(0.95).to_string(),
                report.latency_percentile(0.99).to_string(),
                report.latency_percentile(0.999).to_string(),
            ]
        })
        .collect();
    print_table(
        "Cluster serving (simulated ticks; 4 shards, cap-32 queues)",
        &["routing", "arrival", "answered", "shed", "escal", "p50", "p95", "p99", "p999"],
        &rows,
    );

    let stress_rows: Vec<Vec<String>> = stress
        .iter()
        .map(|(config, plan)| {
            vec![
                config.routing.label().to_string(),
                config.arrival.label().to_string(),
                plan.outcomes.len().to_string(),
                percent(plan.shed_rate()),
                plan.latency_percentile(0.99).to_string(),
                plan.latency_percentile(0.999).to_string(),
                plan.scale_events.len().to_string(),
                peak_active_shards(plan).to_string(),
            ]
        })
        .collect();
    print_table(
        "Stress arm (plan-only, autoscaling 1..4 shards)",
        &["routing", "arrival", "requests", "shed", "p99", "p999", "scalings", "peak"],
        &stress_rows,
    );

    let cpus = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    println!(
        "\nwall clock: grid 1 worker/shard {} ms, {} workers/shard {} ms; stress plan {} ms; \
         reports byte-identical",
        num(serial_ns as f64 / 1e6, 1),
        args.workers,
        num(parallel_ns as f64 / 1e6, 1),
        num(stress_ns as f64 / 1e6, 1),
    );
    if args.workers > 1 && wall_speedup <= 1.0 && cpus == 1 {
        println!(
            "note: this machine exposes a single CPU; worker threads cannot run concurrently, \
             so no wall-clock speedup is expected here"
        );
    }

    // Full artifact: summary records plus wall clocks and per-grid-point full reports.
    let summary = cluster_summary_json(&grid, &stress, args.reduced);
    let bench = Json::obj([
        ("schema", Json::Str("shift-bnn-bench-cluster/v1".into())),
        ("reduced", Json::Bool(args.reduced)),
        (
            "timing",
            Json::obj([
                ("available_parallelism", Json::UInt(cpus as u64)),
                ("workers_serial", Json::UInt(1)),
                ("workers_parallel", Json::UInt(args.workers as u64)),
                ("serial_total_ns", Json::UInt(serial_ns as u64)),
                ("parallel_total_ns", Json::UInt(parallel_ns as u64)),
                ("stress_total_ns", Json::UInt(stress_ns as u64)),
                ("wall_speedup", Json::Float(wall_speedup)),
                ("reports_byte_identical", Json::Bool(true)),
            ]),
        ),
        ("summary", summary.clone()),
        ("runs", Json::Array(grid.iter().map(|(_, report)| report.to_json()).collect())),
    ]);
    std::fs::write(&args.out, bench.to_pretty() + "\n").expect("write BENCH_cluster.json");
    std::fs::write(&args.summary, summary.to_pretty() + "\n")
        .expect("write BENCH_cluster_summary.json");
    println!("wrote {} and {} (12 grid + 4 stress configs)", args.out, args.summary);
}
