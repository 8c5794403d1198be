//! `perfbench`: the wall-clock benchmark of the Shift-BNN reproduction.
//!
//! One command runs one workload for a fixed time, checks the program's outputs against the
//! repository's own reference paths, and prints every metric by name with its unit and sample
//! count. The last line of standard output is one JSON object: with `--trace 0` it carries the
//! end-to-end metrics, with `--trace 1` the per-layer metrics of a separate traced run.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload train_mlp --seed 1 --seconds 15 --trace 0
//! ```
//!
//! Workloads (see `README.md` for why each was chosen):
//!
//! * `train_mlp` — Bayes-by-Backprop training of the paper's B-MLP with LFSR ε retrieval;
//! * `serve_mc` — S = 16 Monte-Carlo serving of the B-LeNet serving proxy;
//! * `serve_moment` — the same proxy and trace under the analytic moment backend;
//! * `cluster_plan` — plan-only crash-storm scheduling of long traces on a 4-shard cluster.

mod cluster;
mod fingerprint;
mod replay;
mod serve;
mod speed;
mod stats;
mod trace;
mod train;

use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Seeds the bounds in `BENCHMARK.json` were set with.
pub const TUNING_SEEDS: std::ops::RangeInclusive<u64> = 1..=10;

/// A seed never used while setting bounds: a claimed gain must also hold on it.
pub const CLAIM_SEED: u64 = 20_211_018;

/// End-to-end metrics `(name, unit)`, reported with tracing off on every workload.
///
/// * `throughput_per_s` — training steps (`train_mlp`), engine requests at `nproc` workers
///   (`serve_*`) or planned requests (`cluster_plan`) per second;
/// * `latency_p50_ms` / `latency_tail_ms` — the median and the p95 of the per-unit time: a
///   closed-loop answer, or a round of plans' time per request. A `train_mlp` run holds too few
///   steps for a tail with ten beyond it, so its tail is its median step time.
///
/// Every time is speed-normalized (see [`speed`]).
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("throughput_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
];

/// Per-layer metrics `(name, unit)` of the traced run. A layer that does no work on a
/// workload reads 0 there.
pub const PER_LAYER: [(&str, &str); 40] = [
    ("lfsr.generate_ns_per_eps", "ns"),
    ("lfsr.retrieve_ns_per_eps", "ns"),
    ("lfsr.skip_ns_per_eps", "ns"),
    ("lfsr.eps_per_unit", "count"),
    ("lfsr.stored_eps", "count"),
    ("lfsr.share", "ratio"),
    ("variational.sample_ns_per_weight", "ns"),
    ("variational.grad_ns_per_weight", "ns"),
    ("variational.complexity_ns_per_weight", "ns"),
    ("variational.share", "ratio"),
    ("tensor.gemm_gmacs_per_s", "GMAC/s"),
    ("tensor.gemm_calls", "count"),
    ("tensor.gemm_macs", "count"),
    ("tensor.analytic_macs", "count"),
    ("tensor.mac_coverage", "ratio"),
    ("tensor.scratch_high_water", "count"),
    ("tensor.share", "ratio"),
    ("network.forward_ms", "ms"),
    ("network.backward_ms", "ms"),
    ("network.predictive_us", "us"),
    ("trainer.update_ms", "ms"),
    ("trainer.share", "ratio"),
    ("moment.predictive_us", "us"),
    ("moment.share", "ratio"),
    ("serve.batcher_ns_per_req", "ns"),
    ("serve.mean_batch_size", "count"),
    ("serve.sim_latency_ticks_p99", "ticks"),
    ("pool.utilisation", "ratio"),
    ("cluster.plan_ns_per_req", "ns"),
    ("cluster.batches", "count"),
    ("cluster.retries", "count"),
    ("cluster.degrade_transitions", "count"),
    ("cluster.shed_share", "ratio"),
    ("cluster.availability", "ratio"),
    ("cluster.sim_latency_ticks_p50", "ticks"),
    ("cluster.sim_latency_ticks_p99", "ticks"),
    ("cluster.share", "ratio"),
    ("unit_ms", "ms"),
    ("unattributed_share", "ratio"),
    ("trace.overhead_share", "ratio"),
];

/// The workloads, in the order the benchmark documents them.
pub const WORKLOADS: [&str; 4] = ["train_mlp", "serve_mc", "serve_moment", "cluster_plan"];

/// Command-line arguments.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    /// Which workload to run.
    pub workload: String,
    /// Seed of every generated input.
    pub seed: u64,
    /// How long the run measures.
    pub seconds: Duration,
    /// Whether this is the traced (per-layer) run.
    pub trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut parsed =
        Args { workload: String::new(), seed: 1, seconds: Duration::from_secs(10), trace: false };
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => parsed.workload = value,
            "--seed" => parsed.seed = value.parse().map_err(|_| format!("bad --seed {value}"))?,
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| format!("bad --seconds {value}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {value} outside (0, 600]"));
                }
                parsed.seconds = Duration::from_secs_f64(s);
            }
            "--trace" => {
                parsed.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if !WORKLOADS.contains(&parsed.workload.as_str()) {
        return Err(format!("--workload must be one of {}", WORKLOADS.join(", ")));
    }
    Ok(parsed)
}

/// What a workload run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// `(name, value, sample count)` of every metric the run produced.
    pub metrics: Vec<(&'static str, f64, usize)>,
    /// Units of work attempted (steps, requests or planned requests).
    pub attempted: u64,
    /// Units that errored, went unanswered, were shed or failed an output check.
    pub failed: u64,
    /// Description of every failed check.
    pub failures: Vec<String>,
}

impl Outcome {
    /// Records a metric.
    pub fn metric(&mut self, name: &'static str, value: f64, samples: usize) {
        self.metrics.push((name, value, samples));
    }

    /// Records a check; a failed one counts `units` failed units.
    pub fn check(&mut self, ok: bool, units: u64, what: impl FnOnce() -> String) {
        if !ok {
            self.failed += units;
            self.failures.push(what());
        }
    }
}

/// Builds something `reps` times through the program's API and returns the last build with
/// the median speed-normalized build time in seconds: set-up is measured as a median, like
/// every timing. Prints the raw wall-clock median beside it.
pub fn timed_setup<T>(label: &str, reps: usize, mut build: impl FnMut() -> T) -> (T, f64, usize) {
    let (mut raw, mut norm) = (Vec::with_capacity(reps), Vec::with_capacity(reps));
    let mut last = None;
    let mut before = speed::probe_ns() / speed::REFERENCE_NS;
    for _ in 0..reps {
        drop(last.take());
        let start = Instant::now();
        last = Some(std::hint::black_box(build()));
        let s = start.elapsed().as_secs_f64();
        let after = speed::probe_ns() / speed::REFERENCE_NS;
        raw.push(s);
        norm.push(speed::normalize(s, before, after));
        before = after;
    }
    let setup_s = stats::median(&norm);
    println!(
        "setup ({label}): {setup_s:.6} s speed-normalized, {:.6} s wall, median of {reps} builds",
        stats::median(&raw)
    );
    (last.expect("at least one set-up repetition"), setup_s, reps)
}

/// Prints how many speed probes a run took and the host's mean speed factor.
pub fn print_speed(speed: &speed::Speed) {
    let (probes, factor) = speed.summary();
    println!(
        "  speed: {probes} probes, mean probe time {factor:.3}x the reference {} ns",
        speed::REFERENCE_NS
    );
}

/// Summarizes a timing sample with its median and `tail_q` percentile and prints it.
pub fn print_summary(label: &str, unit: &str, values: &[f64], tail_q: f64) -> stats::Summary {
    let s = stats::summarize(values, tail_q);
    let spread = if values.len() >= 2 { stats::relative_spread(values) } else { 0.0 };
    println!(
        "  {label}: p50 {:.6} {unit}, p{} {:.6} {unit} ({} samples beyond), mean {:.6} {unit}, \
         interquartile spread {:.3} of the median (n={})",
        s.p50,
        s.tail_q * 100.0,
        s.tail,
        s.beyond,
        s.mean,
        spread,
        s.n
    );
    if s.beyond < stats::MIN_BEYOND {
        println!("    (fewer than {} samples beyond the p{})", stats::MIN_BEYOND, s.tail_q * 100.0);
    }
    s
}

/// Directory the traced run writes its spans to, relative to the working directory.
pub const TRACE_DIR: &str = ".perfbench_out";

/// Prints each span name's total self time and writes every span out as JSON lines.
pub fn finish_trace(args: &Args, tracer: &trace::Tracer) {
    println!("span self time (total over the run):");
    for (name, ns, count) in tracer.self_times() {
        println!("  {name}: {:.3} ms over {count} spans", ns as f64 / 1e6);
    }
    let path = format!("{TRACE_DIR}/{}-seed{}.spans.jsonl", args.workload, args.seed);
    match std::fs::create_dir_all(TRACE_DIR).and_then(|()| std::fs::write(&path, tracer.to_jsonl()))
    {
        Ok(()) => println!("spans: {} written to {path}", tracer.spans().len()),
        Err(e) => println!("spans: not written to {path}: {e}"),
    }
}

fn json_line(outcome: &Outcome, correct: bool, table: &[(&str, &str)]) -> String {
    let metrics: Vec<String> = table
        .iter()
        .map(|&(name, unit)| {
            let value = outcome.metrics.iter().find(|m| m.0 == name).map_or(0.0, |m| m.1);
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    println!("{}", fingerprint::describe());
    println!(
        "workload {} seed {} ({}s, trace {}); bounds were set on seeds {}..={}, check claims on seed {}",
        args.workload,
        args.seed,
        args.seconds.as_secs_f64(),
        u8::from(args.trace),
        TUNING_SEEDS.start(),
        TUNING_SEEDS.end(),
        CLAIM_SEED
    );
    let mut outcome = match args.workload.as_str() {
        "train_mlp" => train::run(&args),
        "serve_mc" => serve::run(&args, bnn_serve::ServeMode::MonteCarlo),
        "serve_moment" => serve::run(&args, bnn_serve::ServeMode::Moment),
        "cluster_plan" => cluster::run(&args),
        _ => unreachable!("workload validated by parse_args"),
    };
    if !args.trace {
        match fingerprint::peak_rss_mb() {
            Some(mb) => outcome.metric("peak_rss_mb", mb, 1),
            None => outcome.check(false, 0, || "peak RSS unavailable".to_string()),
        }
    }
    let table: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    for &(name, unit) in table {
        let found = outcome.metrics.iter().find(|m| m.0 == name).copied();
        match found {
            Some((_, value, n)) => {
                println!("metric {name} = {value} {unit} (n={n})");
                let finite = value.is_finite();
                outcome.check(finite, 0, || format!("metric {name} is not finite"));
            }
            // Per-layer metrics of a layer that does no work on this workload read zero.
            None if args.trace => println!("metric {name} = 0 {unit} (layer idle)"),
            None => outcome.check(false, 0, || format!("metric {name} was not measured")),
        }
    }
    outcome.metrics.retain(|m| m.1.is_finite());
    let failed_share = outcome.failed as f64 / outcome.attempted.max(1) as f64;
    println!(
        "failed_share = {failed_share} ({} failed of {} attempted)",
        outcome.failed, outcome.attempted
    );
    const SHOWN_FAILURES: usize = 20;
    for failure in outcome.failures.iter().take(SHOWN_FAILURES) {
        println!("CHECK FAILED: {failure}");
    }
    if outcome.failures.len() > SHOWN_FAILURES {
        println!("... and {} more failed checks", outcome.failures.len() - SHOWN_FAILURES);
    }
    let correct = outcome.failures.is_empty() && outcome.failed == 0 && outcome.attempted > 0;
    println!("{}", json_line(&outcome, correct, table));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(list.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = args(&["--workload", "serve_mc", "--seed", "7", "--seconds", "12", "--trace", "1"])
            .unwrap();
        assert_eq!(a.workload, "serve_mc");
        assert_eq!(a.seed, 7);
        assert_eq!(a.seconds, Duration::from_secs(12));
        assert!(a.trace);
        assert!(args(&["--workload", "nope"]).is_err());
        assert!(args(&["--workload", "train_mlp", "--trace", "2"]).is_err());
        assert!(args(&["--workload", "train_mlp", "--seconds"]).is_err());
    }

    #[test]
    fn benchmark_json_declares_every_metric_and_workload() {
        let declared = include_str!("../../BENCHMARK.json");
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(declared.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        for workload in WORKLOADS {
            assert!(declared.contains(&format!("\"name\": \"{workload}\"")), "{workload}");
        }
        let names = END_TO_END.len() + PER_LAYER.len() + WORKLOADS.len();
        assert_eq!(declared.matches("\"name\":").count(), names, "no undeclared extras");
    }

    #[test]
    fn result_line_carries_every_metric_of_its_table() {
        let mut o = Outcome { attempted: 3, ..Outcome::default() };
        o.metric("setup_s", 0.5, 5);
        let line = json_line(&o, true, &END_TO_END);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0"));
        assert!(line.contains("\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}"));
        for (name, _) in END_TO_END {
            assert!(line.contains(&format!("\"{name}\"")));
        }
    }
}
