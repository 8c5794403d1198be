//! `chaos_bench`: drives the deterministic fault-injection grid — five fault scenarios
//! (healthy baseline, single crash with and without the degradation ladder, a slow shard,
//! and an everything-at-once crash storm) × the four arrival processes — on a 4-shard
//! Monte-Carlo cluster, re-runs the grid at a different per-shard worker count and asserts
//! the two passes are **byte-identical**, then checks the availability gates the issue
//! pins: ≥ 99% on the single crash with the ladder armed, < 95% with it disarmed. Emits:
//!
//! * `BENCH_chaos.json` — the full record, including machine-dependent wall clocks and a
//!   `speedups.ladder_availability` ratio for the nightly `bench_regression` gate (a CI
//!   artifact, not committed);
//! * `BENCH_chaos_summary.json` — the deterministic tick-domain scalars (availability,
//!   retry counts, degradation-mode occupancy, p50–p999 tails, response/event/fault
//!   digests per grid point; the committed regression baseline, checked by
//!   `bench_regression` and the golden suite).
//!
//! Usage: `cargo run --release -p shift-bnn-bench --bin chaos_bench -- [--reduced]
//! [--workers N] [--out PATH] [--summary PATH]`

use std::time::Instant;

use shift_bnn::sweep::json::Json;
use shift_bnn_bench::chaos_views::{
    chaos_request_count, chaos_summary_json, grid_availability, run_chaos_grid,
};
use shift_bnn_bench::{num, percent, print_table};

struct Args {
    reduced: bool,
    workers: usize,
    out: String,
    summary: String,
}

fn parse_args() -> Args {
    // Like cluster_bench: even on a single-CPU machine the parallel pass uses at least two
    // workers per shard so the byte-identity assertion exercises the pooled scheduler.
    let mut args = Args {
        reduced: false,
        workers: bnn_pool::default_workers().max(2),
        out: "BENCH_chaos.json".to_string(),
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
            "BENCH_chaos_summary_reduced.json".to_string()
        } else {
            "BENCH_chaos_summary.json".to_string()
        };
    }
    args
}

fn main() {
    let args = parse_args();
    println!(
        "chaos grid: 20 configs (5 fault scenarios x 4 arrival processes), {} requests each \
         on 4 shards; 1 worker/shard vs {} workers/shard",
        chaos_request_count(args.reduced),
        args.workers
    );

    // Serial pass: timed per grid, reports kept as the canonical results.
    let serial_start = Instant::now();
    let grid = run_chaos_grid(args.reduced, 1);
    let serial_ns = serial_start.elapsed().as_nanos();

    // Parallel pass: every grid point's report must serialize byte-identically — the
    // fault-path determinism contract, asserted at runtime on every benchmark run.
    let parallel_start = Instant::now();
    let parallel = run_chaos_grid(args.reduced, args.workers);
    let parallel_ns = parallel_start.elapsed().as_nanos();
    for ((config, serial_report), (_, parallel_report)) in grid.iter().zip(&parallel) {
        assert_eq!(
            serial_report.to_json().to_compact(),
            parallel_report.to_json().to_compact(),
            "{} x {}: 1-worker and {}-worker chaos reports must be byte-identical",
            config.scenario.name,
            config.arrival.label(),
            args.workers
        );
    }

    // The acceptance gates: the degradation ladder is what keeps a crashed cluster
    // answering. These hold in both full and reduced runs (the fault windows scale with
    // the trace), so CI enforces them on every invocation, not just nightly.
    let with_ladder = grid_availability(&grid, "single_crash", "uniform");
    let without_ladder = grid_availability(&grid, "single_crash_no_ladder", "uniform");
    assert!(
        with_ladder >= 0.99,
        "single-crash availability with the ladder must stay >= 99%, got {with_ladder}"
    );
    assert!(
        without_ladder < 0.95,
        "single-crash availability without the ladder should fall under 95%, got {without_ladder}"
    );
    let ladder_availability = with_ladder / without_ladder;

    let rows: Vec<Vec<String>> = grid
        .iter()
        .map(|(config, report)| {
            let (_, reduced_s, moment) = report.degrade_occupancy();
            vec![
                config.scenario.name.to_string(),
                config.arrival.label(),
                percent(report.availability()),
                report.faults.retries.len().to_string(),
                reduced_s.to_string(),
                moment.to_string(),
                report.latency_percentile(0.50).to_string(),
                report.latency_percentile(0.99).to_string(),
                report.latency_percentile(0.999).to_string(),
            ]
        })
        .collect();
    print_table(
        "Chaos grid (simulated ticks; 4 shards, cap-12 queues, S=16 Monte-Carlo)",
        &["scenario", "arrival", "avail", "retries", "S=4", "moment", "p50", "p99", "p999"],
        &rows,
    );
    println!(
        "\nsingle-crash availability: {} with the ladder vs {} without ({}x)",
        percent(with_ladder),
        percent(without_ladder),
        num(ladder_availability, 2),
    );

    let cpus = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    println!(
        "wall clock: grid 1 worker/shard {} ms, {} workers/shard {} ms; reports byte-identical",
        num(serial_ns as f64 / 1e6, 1),
        args.workers,
        num(parallel_ns as f64 / 1e6, 1),
    );

    // Full artifact: summary records plus wall clocks, the gate ratio, and per-grid-point
    // full reports.
    let summary = chaos_summary_json(&grid, args.reduced);
    let bench = Json::obj([
        ("schema", Json::Str("shift-bnn-bench-chaos/v1".into())),
        ("reduced", Json::Bool(args.reduced)),
        (
            "timing",
            Json::obj([
                ("available_parallelism", Json::UInt(cpus as u64)),
                ("workers_serial", Json::UInt(1)),
                ("workers_parallel", Json::UInt(args.workers as u64)),
                ("serial_total_ns", Json::UInt(serial_ns as u64)),
                ("parallel_total_ns", Json::UInt(parallel_ns as u64)),
                ("reports_byte_identical", Json::Bool(true)),
            ]),
        ),
        ("speedups", Json::obj([("ladder_availability", Json::Float(ladder_availability))])),
        ("summary", summary.clone()),
        ("runs", Json::Array(grid.iter().map(|(_, report)| report.to_json()).collect())),
    ]);
    std::fs::write(&args.out, bench.to_pretty() + "\n").expect("write BENCH_chaos.json");
    std::fs::write(&args.summary, summary.to_pretty() + "\n")
        .expect("write BENCH_chaos_summary.json");
    println!("wrote {} and {} (20 grid configs)", args.out, args.summary);
}
