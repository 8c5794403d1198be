//! `hot_bench`: the end-to-end gauge of the numeric hot-path rewrite.
//!
//! Measures, in one run:
//!
//! 1. the packed im2col+GEMM convolution kernels against the retained reference loop nests
//!    (per geometry × direction, asserting bit-identical outputs as it goes);
//! 2. word-parallel ε generation against the bit-serial LFSR walk;
//! 3. a traced engine run against the identical untraced run (responses asserted
//!    byte-identical) — the `obs_overhead` ratio gated by `bench_regression`;
//! 4. one `softplus` sweep over a posterior against one memoized weight sample on the same
//!    layer — the `frozen_sigma` ratio gated by `bench_regression`;
//! 5. the steady-state allocation counts of a full training iteration, a served request and
//!    a *traced* served request (serving plus recorder writes), measured **at the
//!    allocator** via the binary's counting `#[global_allocator]` — all must be zero after
//!    warmup, and the run fails otherwise.
//!
//! Outputs: a human table on stdout, the full timing report to `--out` (machine-dependent,
//! a CI artifact), and the deterministic summary (digests + allocation counts, no timings)
//! to `--summary` — the file committed as `BENCH_hot_summary.json` and drift-gated by
//! `bench_regression` on every PR and nightly.
//!
//! Usage: `cargo run --release -p shift-bnn-bench --bin hot_bench -- \
//!   [--reps N] [--out BENCH_hot.json] [--summary BENCH_hot_summary.json] [--min-speedup X]`

use bnn_tensor::KernelTier;
use shift_bnn_bench::alloc::CountingAlloc;
use shift_bnn_bench::hot::{
    full_json, geometric_mean, run_epsilon_bench, run_frozen_sigma_bench, run_fused_serve_bench,
    run_kernel_benches, run_obs_overhead_bench, run_tier_benches, summary_json, EpsilonBench,
    KernelBench, ServeProbe, TierBench, TracedServeProbe, TrainingProbe,
};
use shift_bnn_bench::print_table;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::system();

struct Args {
    reps: usize,
    out: Option<String>,
    summary: Option<String>,
    min_speedup: f64,
}

fn parse_args() -> Args {
    let mut args = Args { reps: 60, out: None, summary: None, min_speedup: 0.0 };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--reps" => {
                args.reps = it
                    .next()
                    .expect("--reps needs a count")
                    .parse()
                    .expect("--reps must be an integer")
            }
            "--out" => args.out = Some(it.next().expect("--out needs a path")),
            "--summary" => args.summary = Some(it.next().expect("--summary needs a path")),
            "--min-speedup" => {
                args.min_speedup = it
                    .next()
                    .expect("--min-speedup needs a value")
                    .parse()
                    .expect("--min-speedup must be a float")
            }
            other => panic!(
                "unknown argument {other} (expected --reps N, --out PATH, --summary PATH, \
                 --min-speedup X)"
            ),
        }
    }
    args
}

/// Measures total steady-state allocations across `measured` iterations of `work` after
/// `warmup` warmup calls — the raw count, so even a single allocation anywhere in the
/// window fails the zero-allocation gate (no per-iteration averaging to round it away).
fn steady_allocs(warmup: usize, measured: usize, mut work: impl FnMut()) -> u64 {
    for _ in 0..warmup {
        work();
    }
    let before = ALLOC.allocations();
    for _ in 0..measured {
        work();
    }
    ALLOC.allocations() - before
}

fn main() {
    let args = parse_args();

    let kernels = run_kernel_benches(args.reps);
    let tiers = run_tier_benches(args.reps);
    let fused = run_fused_serve_bench(args.reps, 16);
    let obs = run_obs_overhead_bench(args.reps, 48);
    let frozen = run_frozen_sigma_bench(args.reps);
    let epsilon = run_epsilon_bench(args.reps, 16 * 1024);

    // Allocation probes: warm two iterations (arena growth, Vec capacity), then measure.
    let mut training = TrainingProbe::new();
    let train_allocs = steady_allocs(2, 4, || training.run(1));
    let mut serving = ServeProbe::new();
    let serve_allocs = steady_allocs(2, 4, || serving.run(1));
    let mut traced = TracedServeProbe::new();
    let traced_allocs = steady_allocs(2, 4, || traced.run(4));

    let rows: Vec<Vec<String>> = kernels
        .iter()
        .map(|k: &KernelBench| {
            vec![
                k.name.to_string(),
                k.op.to_string(),
                format!("{:.1}", k.reference_ns / 1e3),
                format!("{:.1}", k.packed_ns / 1e3),
                format!("{:.2}x", k.speedup()),
            ]
        })
        .collect();
    print_table(
        "Hot-path kernels: retained reference loops vs im2col+tiered GEMM (bit-identical)",
        &["geometry", "op", "reference µs", "packed µs", "speedup"],
        &rows,
    );

    let speedups: Vec<f64> = kernels.iter().map(KernelBench::speedup).collect();
    let geomean = geometric_mean(&speedups);
    println!("\ngeometric-mean conv kernel speedup: {geomean:.2}x");

    let tier_rows: Vec<Vec<String>> = tiers
        .iter()
        .map(|t: &TierBench| {
            let mut row = vec![t.name.to_string()];
            row.extend(KernelTier::ALL.iter().map(|&tier| format!("{:.1}", t.ns(tier) / 1e3)));
            row.push(format!("{:.2}x", t.simd_speedup()));
            row
        })
        .collect();
    print_table(
        "GEMM kernel tiers (bit-exact tiers asserted identical; fastmath ULP-bounded)",
        &["shape", "reference µs", "simd µs", "fastmath µs", "reference/simd"],
        &tier_rows,
    );
    let simd_gemm =
        geometric_mean(&tiers.iter().map(TierBench::simd_speedup).collect::<Vec<f64>>());
    println!("\ngeometric-mean SIMD-over-reference GEMM speedup: {simd_gemm:.2}x");
    println!(
        "fused sampling (S = {}): per-sample {:.1} µs, fused {:.1} µs ({:.2}x), \
         response digest {}",
        fused.samples,
        fused.per_sample_ns / 1e3,
        fused.fused_ns / 1e3,
        fused.speedup(),
        fused.digest
    );

    println!(
        "frozen σ ({} weights): softplus sweep {:.1} µs, memoized sample {:.1} µs ({:.2}x)",
        frozen.weights,
        frozen.sigma_ns / 1e3,
        frozen.sample_ns / 1e3,
        frozen.speedup()
    );

    let e: &EpsilonBench = &epsilon;
    println!(
        "ε generation ({} values): bit-serial {:.1} µs, word-parallel {:.1} µs ({:.2}x), \
         stream digest {}",
        e.count,
        e.serial_ns / 1e3,
        e.word_parallel_ns / 1e3,
        e.speedup(),
        e.digest
    );
    println!(
        "traced serving ({} requests, {} events): untraced {:.1} µs, traced {:.1} µs \
         ({:.3}x, responses byte-identical)",
        obs.requests,
        obs.events,
        obs.untraced_ns / 1e3,
        obs.traced_ns / 1e3,
        obs.overhead(),
    );
    println!(
        "steady-state allocations: {train_allocs} per training iteration, \
         {serve_allocs} per served request, {traced_allocs} per traced request"
    );

    assert_eq!(train_allocs, 0, "steady-state training iteration must not allocate");
    assert_eq!(serve_allocs, 0, "steady-state served request must not allocate");
    assert_eq!(traced_allocs, 0, "steady-state traced request must not allocate");
    if args.min_speedup > 0.0 {
        assert!(
            geomean >= args.min_speedup,
            "geometric-mean speedup {geomean:.2}x below required {:.2}x",
            args.min_speedup
        );
    }

    if let Some(path) = &args.out {
        let doc = full_json(
            &kernels,
            &tiers,
            &fused,
            &obs,
            &frozen,
            &epsilon,
            train_allocs,
            serve_allocs,
            traced_allocs,
        );
        std::fs::write(path, doc.to_pretty() + "\n").expect("write full report");
        println!("wrote {path}");
    }
    if let Some(path) = &args.summary {
        let doc = summary_json(&kernels, &epsilon, train_allocs, serve_allocs, traced_allocs);
        std::fs::write(path, doc.to_pretty() + "\n").expect("write summary");
        println!("wrote {path}");
    }
}
