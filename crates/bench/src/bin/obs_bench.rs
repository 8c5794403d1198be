//! `obs_bench`: drives the traced-replay observability grid — the everything-at-once
//! `crash_storm` fault scenario × the four arrival processes, plus a fault-free two-tier
//! escalation run — on a 4-shard Monte-Carlo cluster. Every grid point runs **twice**,
//! untraced and through a `TraceRecorder`, and the run asserts the tracing contract:
//! responses/events/faults byte-identical either way, recorder-derived serialization equal
//! to the report's own, and exactly 100% of every answered request's end-to-end tick
//! latency attributed to the five named stages. The grid then re-runs at a different
//! per-shard worker count and the summaries must be byte-identical. Emits:
//!
//! * `BENCH_obs.json` — the full record including machine-dependent wall clocks (a CI
//!   artifact, not committed);
//! * `BENCH_obs_summary.json` — the deterministic tick-domain scalars (event counts,
//!   stream/metrics/prometheus digests, the p50/p99 stage-attribution table, per-tier GEMM
//!   and ε profile counters; the committed regression baseline, checked by
//!   `bench_regression` and the golden suite).
//!
//! Usage: `cargo run --release -p shift-bnn-bench --bin obs_bench -- [--reduced]
//! [--workers N] [--out PATH] [--summary PATH]`

use std::time::Instant;

use shift_bnn::sweep::json::Json;
use shift_bnn_bench::obs_views::{obs_summary_json, run_obs_grid};
use shift_bnn_bench::{num, print_table};

struct Args {
    reduced: bool,
    workers: usize,
    out: String,
    summary: String,
}

fn parse_args() -> Args {
    // Like chaos_bench: even on a single-CPU machine the parallel pass uses at least two
    // workers per shard so the worker-invariance assertion exercises the pooled scheduler.
    let mut args = Args {
        reduced: false,
        workers: bnn_pool::default_workers().max(2),
        out: "BENCH_obs.json".to_string(),
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
            "BENCH_obs_summary_reduced.json".to_string()
        } else {
            "BENCH_obs_summary.json".to_string()
        };
    }
    args
}

fn main() {
    let args = parse_args();
    println!(
        "obs grid: 5 configs (crash_storm x 4 arrival processes + two_tier), each run traced \
         AND untraced on 4 shards; 1 worker/shard vs {} workers/shard",
        args.workers
    );

    // Serial pass: timed per grid, kept as the canonical results. Every record already
    // asserts traced-vs-untraced byte identity and exact stage coverage internally.
    let serial_start = Instant::now();
    let grid = run_obs_grid(args.reduced, 1);
    let serial_ns = serial_start.elapsed().as_nanos();
    let summary = obs_summary_json(&grid, args.reduced);

    // Parallel pass: the recorder lives on the orchestration thread, so the recorded
    // stream — and with it every digest in the summary — must not move with worker count.
    let parallel_start = Instant::now();
    let parallel = run_obs_grid(args.reduced, args.workers);
    let parallel_ns = parallel_start.elapsed().as_nanos();
    assert_eq!(
        summary.to_compact(),
        obs_summary_json(&parallel, args.reduced).to_compact(),
        "1-worker and {}-worker obs summaries must be byte-identical",
        args.workers
    );

    let table = |record: &Json, stage: &str, field: &str| -> String {
        record
            .get("stage_attribution")
            .and_then(|t| t.get(stage))
            .and_then(|s| s.get(field))
            .and_then(Json::as_u64)
            .expect("summary records carry the attribution table")
            .to_string()
    };
    let records = match summary.get("records") {
        Some(Json::Array(records)) => records,
        _ => unreachable!("summary has a records array"),
    };
    let rows: Vec<Vec<String>> = records
        .iter()
        .map(|record| {
            let s = |key: &str| record.get(key).unwrap().to_compact().trim_matches('"').to_string();
            vec![
                s("scenario"),
                s("arrival"),
                s("answered"),
                s("events_recorded"),
                table(record, "queue", "p99"),
                table(record, "batch_wait", "p99"),
                table(record, "compute", "p99"),
                table(record, "retry_backoff", "p99"),
                table(record, "escalation", "p99"),
                table(record, "end_to_end", "p50"),
                table(record, "end_to_end", "p99"),
            ]
        })
        .collect();
    print_table(
        "Stage attribution (p99 ticks per stage; 100% of answered latency tiled)",
        &[
            "scenario", "arrival", "answered", "events", "queue", "batch", "compute", "retry",
            "escal", "e2e p50", "e2e p99",
        ],
        &rows,
    );

    let cpus = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    println!(
        "\nwall clock: grid 1 worker/shard {} ms, {} workers/shard {} ms; summaries byte-identical",
        num(serial_ns as f64 / 1e6, 1),
        args.workers,
        num(parallel_ns as f64 / 1e6, 1),
    );

    // Full artifact: the deterministic summary plus wall clocks and per-grid-point reports.
    let bench = Json::obj([
        ("schema", Json::Str("shift-bnn-bench-obs/v1".into())),
        ("reduced", Json::Bool(args.reduced)),
        (
            "timing",
            Json::obj([
                ("available_parallelism", Json::UInt(cpus as u64)),
                ("workers_serial", Json::UInt(1)),
                ("workers_parallel", Json::UInt(args.workers as u64)),
                ("serial_total_ns", Json::UInt(serial_ns as u64)),
                ("parallel_total_ns", Json::UInt(parallel_ns as u64)),
                ("summaries_byte_identical", Json::Bool(true)),
            ]),
        ),
        ("summary", summary.clone()),
        ("runs", Json::Array(grid.iter().map(|run| run.report.to_json()).collect())),
    ]);
    std::fs::write(&args.out, bench.to_pretty() + "\n").expect("write BENCH_obs.json");
    std::fs::write(&args.summary, summary.to_pretty() + "\n")
        .expect("write BENCH_obs_summary.json");
    println!("wrote {} and {} (5 grid configs)", args.out, args.summary);
}
