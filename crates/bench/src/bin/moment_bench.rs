//! `moment_bench`: serves the same dense open-loop trace under S = 16 Monte-Carlo and under
//! the single-pass analytic moment backend for every zoo family, each config once on a
//! single worker and once on the work-stealing pool, asserts the two runs' responses are
//! **byte-identical**, and emits:
//!
//! * `BENCH_moment.json` — the full record, including machine-dependent wall clocks (a CI
//!   artifact, not committed);
//! * `BENCH_moment_summary.json` — the deterministic tick-domain scalars, response digests,
//!   per-family moment-vs-MC speedups and accuracy deviations (the committed regression
//!   baseline, checked by `bench_regression` and the golden suite).
//!
//! Usage: `cargo run --release -p shift-bnn-bench --bin moment_bench -- [--reduced]
//! [--workers N] [--out PATH] [--summary PATH]`

use std::time::Instant;

use bnn_serve::ServeMode;
use shift_bnn::sweep::json::Json;
use shift_bnn_bench::moment_views::{
    entropy_deviation_vs_mc, mean_deviation_vs_mc, moment_configs, moment_request_count,
    moment_summary_json, run_moment_grid, speedup_vs_mc16,
};
use shift_bnn_bench::{num, print_table, ratio};

struct Args {
    reduced: bool,
    workers: usize,
    out: String,
    summary: String,
}

fn parse_args() -> Args {
    // Like serve_bench: even on a single-CPU machine the parallel run uses at least two
    // workers so the byte-identity assertion always exercises the multi-threaded scheduler.
    let mut args = Args {
        reduced: false,
        workers: bnn_pool::default_workers().max(2),
        out: "BENCH_moment.json".to_string(),
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
            "BENCH_moment_summary_reduced.json".to_string()
        } else {
            "BENCH_moment_summary.json".to_string()
        };
    }
    args
}

fn main() {
    let args = parse_args();
    let requests = moment_request_count(args.reduced);
    let configs = moment_configs();
    println!(
        "moment grid: {} configs (5 models x {{mc16, moment}}), {} requests each, \
         1 worker vs {} workers",
        configs.len(),
        requests,
        args.workers
    );

    // Serial pass: timed per config, reports kept as the canonical results.
    let serial_start = Instant::now();
    let results = run_moment_grid(args.reduced, 1);
    let serial_ns = serial_start.elapsed().as_nanos();

    // Parallel pass: timed, then every config's responses must match the serial pass byte
    // for byte — the engine-level determinism contract of both backends.
    let parallel_start = Instant::now();
    let parallel = run_moment_grid(args.reduced, args.workers);
    let parallel_ns = parallel_start.elapsed().as_nanos();
    for ((config, serial_report), (_, parallel_report)) in results.iter().zip(&parallel) {
        assert_eq!(
            serial_report.responses_json(),
            parallel_report.responses_json(),
            "{} {}: 1-worker and {}-worker responses must be byte-identical",
            config.kind.paper_name(),
            config.mode.label(),
            args.workers
        );
    }
    let wall_speedup = serial_ns as f64 / parallel_ns as f64;

    let rows: Vec<Vec<String>> = results
        .iter()
        .enumerate()
        .map(|(i, (config, report))| {
            let (mean_dev, entropy_dev) = match config.mode {
                ServeMode::MonteCarlo => ("-".to_string(), "-".to_string()),
                ServeMode::Moment => {
                    let (_, mc) = &results[i - 1];
                    (
                        num(mean_deviation_vs_mc(mc, report), 4),
                        num(entropy_deviation_vs_mc(mc, report), 4),
                    )
                }
            };
            vec![
                report.model.clone(),
                config.mode.label().to_string(),
                report.batches.len().to_string(),
                report.makespan_ticks.to_string(),
                report.latency_percentile(0.50).to_string(),
                report.latency_percentile(0.99).to_string(),
                num(report.throughput_per_kilotick(), 2),
                ratio(speedup_vs_mc16(&results, i)),
                mean_dev,
                entropy_dev,
            ]
        })
        .collect();
    print_table(
        "Analytic moment serving vs S=16 Monte-Carlo (simulated ticks; accuracy vs MC trace)",
        &[
            "model",
            "mode",
            "batches",
            "makespan",
            "p50",
            "p99",
            "req/ktick",
            "speedup",
            "mean dev",
            "entropy dev",
        ],
        &rows,
    );

    let cpus = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    println!(
        "\nwall clock: 1 worker {} ms, {} workers {} ms ({}); responses byte-identical",
        num(serial_ns as f64 / 1e6, 1),
        args.workers,
        num(parallel_ns as f64 / 1e6, 1),
        ratio(wall_speedup)
    );
    if args.workers > 1 && wall_speedup <= 1.0 && cpus == 1 {
        println!(
            "note: this machine exposes a single CPU; worker threads cannot run concurrently, \
             so no wall-clock speedup is expected here"
        );
    }

    // Full artifact: summary records plus wall clocks and per-config full reports.
    let summary = moment_summary_json(&results, args.reduced);
    let bench = Json::obj([
        ("schema", Json::Str("shift-bnn-bench-moment/v1".into())),
        ("reduced", Json::Bool(args.reduced)),
        (
            "timing",
            Json::obj([
                ("available_parallelism", Json::UInt(cpus as u64)),
                ("workers_serial", Json::UInt(1)),
                ("workers_parallel", Json::UInt(args.workers as u64)),
                ("serial_total_ns", Json::UInt(serial_ns as u64)),
                ("parallel_total_ns", Json::UInt(parallel_ns as u64)),
                ("wall_speedup", Json::Float(wall_speedup)),
                ("responses_byte_identical", Json::Bool(true)),
            ]),
        ),
        ("summary", summary.clone()),
        ("runs", Json::Array(results.iter().map(|(_, report)| report.to_json()).collect())),
    ]);
    std::fs::write(&args.out, bench.to_pretty() + "\n").expect("write BENCH_moment.json");
    std::fs::write(&args.summary, summary.to_pretty() + "\n")
        .expect("write BENCH_moment_summary.json");
    println!("wrote {} and {} ({} configs)", args.out, args.summary, results.len());
}
