//! `bench_regression`: the CI drift gate. Compares a freshly produced benchmark summary
//! against the committed baseline and fails (exit 1) when any headline scalar drifts beyond
//! tolerance — so a simulator, model or engine change can no longer shift the recorded
//! numbers without the diff saying so.
//!
//! Both inputs are JSON documents produced by this repo's own deterministic serializer
//! (`BENCH_sweep_summary.json` from `sweep_all`, `BENCH_serve_summary.json` from
//! `serve_bench`, `BENCH_cluster_summary.json` from `cluster_bench`). Structure must match
//! exactly; numeric leaves may differ by the relative
//! tolerance (default 1e-9 — the summaries are deterministic, so the default is effectively
//! "identical up to float printing").
//!
//! A second, independent gate guards the PR 8 kernel-tier work: `--speedups FILE` points at a
//! full `BENCH_hot.json` report (whose `speedups` object names machine-measured ratios like
//! `simd_gemm` and `fused_sampling`), and each repeatable `--min-speedup name:floor` fails the
//! run when that named ratio falls below its floor. Drift comparison and speedup gating can
//! run together or alone.
//!
//! Usage: `cargo run --release -p shift-bnn-bench --bin bench_regression -- \
//!   [--baseline BENCH_sweep_summary.json --fresh out/BENCH_sweep_summary.json] \
//!   [--tolerance 1e-9] [--speedups out/BENCH_hot.json] \
//!   [--min-speedup simd_gemm:12] [--min-speedup fused_sampling:1.5]`

use shift_bnn::sweep::json::Json;
use shift_bnn_bench::regression::compare;

struct Args {
    baseline: Option<String>,
    fresh: Option<String>,
    tolerance: f64,
    speedups: Option<String>,
    min_speedups: Vec<(String, f64)>,
}

fn parse_args() -> Args {
    let mut args = Args {
        baseline: None,
        fresh: None,
        tolerance: 1e-9,
        speedups: None,
        min_speedups: Vec::new(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--baseline" => args.baseline = Some(it.next().expect("--baseline needs a path")),
            "--fresh" => args.fresh = Some(it.next().expect("--fresh needs a path")),
            "--tolerance" => {
                let v = it.next().expect("--tolerance needs a value");
                args.tolerance = v.parse().expect("--tolerance must be a float");
                assert!(args.tolerance >= 0.0, "--tolerance must be non-negative");
            }
            "--speedups" => args.speedups = Some(it.next().expect("--speedups needs a path")),
            "--min-speedup" => {
                let v = it.next().expect("--min-speedup needs name:floor");
                let (name, floor) =
                    v.split_once(':').expect("--min-speedup must be name:floor, e.g. simd_gemm:12");
                let floor: f64 = floor.parse().expect("--min-speedup floor must be a float");
                assert!(floor > 0.0, "--min-speedup floor must be positive");
                args.min_speedups.push((name.to_string(), floor));
            }
            other => panic!(
                "unknown argument {other} (expected --baseline PATH, --fresh PATH, \
                 --tolerance X, --speedups PATH, --min-speedup name:floor)"
            ),
        }
    }
    assert_eq!(
        args.baseline.is_some(),
        args.fresh.is_some(),
        "--baseline and --fresh must be given together"
    );
    assert!(
        args.min_speedups.is_empty() || args.speedups.is_some(),
        "--min-speedup needs --speedups FILE to read the measured ratios from"
    );
    assert!(
        args.baseline.is_some() || args.speedups.is_some(),
        "nothing to do: give --baseline/--fresh, --speedups gates, or both"
    );
    args
}

/// Reads the named ratio from the report's top-level `speedups` object.
fn named_speedup(report: &Json, path: &str, name: &str) -> f64 {
    let Json::Object(root) = report else { panic!("{path}: expected a JSON object") };
    let speedups = root
        .iter()
        .find(|(k, _)| k == "speedups")
        .unwrap_or_else(|| panic!("{path}: no `speedups` object"));
    let Json::Object(pairs) = &speedups.1 else { panic!("{path}: `speedups` must be an object") };
    match pairs.iter().find(|(k, _)| k == name) {
        Some((_, Json::Float(v))) => *v,
        Some((_, Json::UInt(v))) => *v as f64,
        Some(_) => panic!("{path}: speedups.{name} is not numeric"),
        None => panic!("{path}: no speedups.{name} (available: {:?})", {
            pairs.iter().map(|(k, _)| k.as_str()).collect::<Vec<_>>()
        }),
    }
}

fn load(path: &str) -> Json {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"));
    Json::parse(&text).unwrap_or_else(|e| panic!("cannot parse {path}: {e}"))
}

fn main() {
    let args = parse_args();

    if let (Some(baseline_path), Some(fresh_path)) = (&args.baseline, &args.fresh) {
        let baseline = load(baseline_path);
        let fresh = load(fresh_path);
        let mismatches = compare(&baseline, &fresh, args.tolerance);
        if mismatches.is_empty() {
            println!(
                "bench_regression: {fresh_path} matches {baseline_path} within tolerance {:e}",
                args.tolerance
            );
        } else {
            eprintln!(
                "bench_regression: {fresh_path} drifted from {baseline_path} ({} mismatch(es), \
                 tolerance {:e}):",
                mismatches.len(),
                args.tolerance
            );
            for mismatch in &mismatches {
                eprintln!("  {mismatch}");
            }
            eprintln!(
                "\nIf the drift is intentional, regenerate the committed baseline (run sweep_all \
                 / serve_bench / cluster_bench without --reduced at the repo root) and commit \
                 the updated summary."
            );
            std::process::exit(1);
        }
    }

    if let Some(path) = &args.speedups {
        let report = load(path);
        let mut failed = false;
        for (name, floor) in &args.min_speedups {
            let measured = named_speedup(&report, path, name);
            if measured >= *floor {
                println!(
                    "bench_regression: speedup {name} = {measured:.2}x meets floor {floor:.2}x"
                );
            } else {
                eprintln!(
                    "bench_regression: speedup {name} = {measured:.2}x below floor {floor:.2}x"
                );
                failed = true;
            }
        }
        if failed {
            std::process::exit(1);
        }
    }
}
