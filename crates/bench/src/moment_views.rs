//! The `moment_bench` configuration grid and its deterministic summary.
//!
//! The moment benchmark answers the two questions the analytic backend exists for, on every
//! zoo family:
//!
//! * **how much cheaper is it?** — the same dense trace served under S = 16 Monte-Carlo and
//!   under the single-pass moment backend, speedup measured in simulated ticks. The grid is
//!   service-bound on purpose (arrivals every tick, deep batches), so the makespan ratio
//!   reflects the per-request cost model rather than idle waiting;
//! * **how close does it stay?** — per-model deviation of the analytic predictive mean and
//!   entropy from the Monte-Carlo responses over the whole trace, committed as part of
//!   `BENCH_moment_summary.json` so accuracy drift trips the regression gate exactly like a
//!   performance drift would.
//!
//! Everything committed is tick-domain or response bytes — wall clocks never enter the
//! summary (same rule as `serve_views`).

use bnn_models::ModelKind;
use bnn_serve::{
    BatchPolicy, EngineSpec, InferenceEngine, ModelSource, ModelSpec, ServeMode, ServeRunReport,
    WorkloadSpec,
};
use shift_bnn::sweep::json::Json;

/// Weight seed of the frozen posteriors every moment benchmark builds.
pub const MOMENT_WEIGHT_SEED: u64 = 2021;

/// Workload seed of the synthetic open-loop traces.
pub const MOMENT_WORKLOAD_SEED: u64 = 11;

/// Ticks between arrivals: every tick, so the engine is service-bound and the makespan ratio
/// measures the backends' per-request cost, not queue idling.
pub const MOMENT_INTERARRIVAL_TICKS: u64 = 1;

/// The Monte-Carlo sample count the moment backend is compared against.
pub const MOMENT_MC_SAMPLES: usize = 16;

/// Every paper family: the analytic backend must hold its speedup and accuracy on all five.
pub fn moment_models() -> [ModelKind; 5] {
    ModelKind::all()
}

/// The single deep batching policy of the grid (dense arrivals want deep batches; this is
/// what makes the ≥5× simulated speedup claim service-bound rather than batching-bound).
pub fn moment_policy() -> BatchPolicy {
    BatchPolicy { max_batch: 32, max_wait_ticks: 32 }
}

/// One point of the moment grid: (model × serving backend).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MomentConfig {
    /// The served model family.
    pub kind: ModelKind,
    /// The serving backend this point runs under.
    pub mode: ServeMode,
}

impl MomentConfig {
    /// The frozen-posterior spec this config serves.
    pub fn spec(&self) -> ModelSpec {
        ModelSpec::for_kind(self.kind, MOMENT_WEIGHT_SEED)
    }

    /// The open-loop trace this config is driven with. Both backends of a model share it
    /// (same seed, same inputs, same S field), so their responses are directly comparable.
    pub fn workload(&self, requests: usize) -> WorkloadSpec {
        WorkloadSpec::uniform(
            requests,
            MOMENT_INTERARRIVAL_TICKS,
            MOMENT_MC_SAMPLES,
            MOMENT_WORKLOAD_SEED,
        )
    }
}

/// Enumerates the moment grid, model-major, Monte-Carlo before moment — the order the
/// summary's records are committed in.
pub fn moment_configs() -> Vec<MomentConfig> {
    let mut configs = Vec::new();
    for kind in moment_models() {
        for mode in [ServeMode::MonteCarlo, ServeMode::Moment] {
            configs.push(MomentConfig { kind, mode });
        }
    }
    configs
}

/// Requests per config: the full grid's trace length, or the CI-reduced one.
pub fn moment_request_count(reduced: bool) -> usize {
    if reduced {
        32
    } else {
        128
    }
}

/// Runs every grid config on `workers` pool threads and returns `(config, report)` pairs in
/// grid order. Every value a report carries except the recorded worker count is
/// worker-invariant, so any `workers` reproduces the committed summary.
pub fn run_moment_grid(reduced: bool, workers: usize) -> Vec<(MomentConfig, ServeRunReport)> {
    let requests = moment_request_count(reduced);
    moment_configs()
        .into_iter()
        .map(|config| {
            let spec = config.spec();
            let trace = config.workload(requests).generate(&spec);
            let engine = InferenceEngine::build(
                EngineSpec::new(ModelSource::Spec(spec))
                    .mode(config.mode)
                    .policy(moment_policy())
                    .workers(workers),
            );
            (config, engine.run(&trace))
        })
        .collect()
}

/// The simulated moment-vs-Monte-Carlo speedup of each grid point: the model's S = 16 MC
/// sibling's makespan over its own (1.0 for the MC baseline itself). This is the committed
/// headline: the analytic backend must clear 5× on every family.
pub fn speedup_vs_mc16(results: &[(MomentConfig, ServeRunReport)], index: usize) -> f64 {
    let (config, report) = &results[index];
    let baseline = results
        .iter()
        .find(|(c, _)| c.kind == config.kind && c.mode == ServeMode::MonteCarlo)
        .expect("every model slice contains the S=16 Monte-Carlo baseline");
    baseline.1.makespan_ticks as f64 / report.makespan_ticks as f64
}

/// Maximum per-class deviation of a moment run's predictive means from its Monte-Carlo
/// sibling's, over every request of the shared trace.
pub fn mean_deviation_vs_mc(mc: &ServeRunReport, moment: &ServeRunReport) -> f64 {
    mc.responses
        .iter()
        .zip(&moment.responses)
        .flat_map(|(a, b)| a.mean.iter().zip(&b.mean))
        .map(|(a, b)| (*a as f64 - *b as f64).abs())
        .fold(0.0, f64::max)
}

/// Maximum deviation of a moment run's predictive entropies from its Monte-Carlo sibling's.
pub fn entropy_deviation_vs_mc(mc: &ServeRunReport, moment: &ServeRunReport) -> f64 {
    mc.responses
        .iter()
        .zip(&moment.responses)
        .map(|(a, b)| (a.entropy as f64 - b.entropy as f64).abs())
        .fold(0.0, f64::max)
}

/// Builds the deterministic summary document from a grid run — the committed
/// `BENCH_moment_summary.json` regression baseline.
pub fn moment_summary_json(results: &[(MomentConfig, ServeRunReport)], reduced: bool) -> Json {
    let records: Vec<Json> = results
        .iter()
        .enumerate()
        .map(|(i, (config, report))| {
            let mut fields = vec![
                ("model", Json::Str(report.model.clone())),
                ("mode", Json::Str(config.mode.label().into())),
                ("batches", Json::UInt(report.batches.len() as u64)),
                ("mean_batch_size", Json::Float(report.mean_batch_size())),
                ("makespan_ticks", Json::UInt(report.makespan_ticks)),
                ("p50_ticks", Json::UInt(report.latency_percentile(0.50))),
                ("p95_ticks", Json::UInt(report.latency_percentile(0.95))),
                ("p99_ticks", Json::UInt(report.latency_percentile(0.99))),
                ("throughput_per_kilotick", Json::Float(report.throughput_per_kilotick())),
                ("speedup_vs_mc16_sim", Json::Float(speedup_vs_mc16(results, i))),
                ("responses_digest", Json::Str(report.responses_digest())),
            ];
            if config.mode == ServeMode::Moment {
                let (_, mc) = &results[i - 1];
                fields.push(("mean_dev_vs_mc16", Json::Float(mean_deviation_vs_mc(mc, report))));
                fields.push((
                    "entropy_dev_vs_mc16",
                    Json::Float(entropy_deviation_vs_mc(mc, report)),
                ));
            }
            Json::obj(fields)
        })
        .collect();
    Json::obj([
        ("schema", Json::Str("shift-bnn-moment-summary/v1".into())),
        ("reduced", Json::Bool(reduced)),
        (
            "workload",
            Json::obj([
                ("requests", Json::UInt(moment_request_count(reduced) as u64)),
                ("interarrival_ticks", Json::UInt(MOMENT_INTERARRIVAL_TICKS)),
                ("mc_samples", Json::UInt(MOMENT_MC_SAMPLES as u64)),
                ("policy", Json::Str(moment_policy().label())),
                ("seed", Json::UInt(MOMENT_WORKLOAD_SEED)),
                ("weight_seed", Json::UInt(MOMENT_WEIGHT_SEED)),
            ]),
        ),
        ("records", Json::Array(records)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_enumerates_model_major_with_mc_leading_each_slice() {
        let configs = moment_configs();
        assert_eq!(configs.len(), 5 * 2);
        for pair in configs.chunks(2) {
            assert_eq!(pair[0].kind, pair[1].kind);
            assert_eq!(pair[0].mode, ServeMode::MonteCarlo);
            assert_eq!(pair[1].mode, ServeMode::Moment);
        }
    }

    #[test]
    fn reduced_grid_summary_is_worker_invariant() {
        let a = moment_summary_json(&run_moment_grid(true, 1), true);
        let b = moment_summary_json(&run_moment_grid(true, 3), true);
        assert_eq!(a.to_pretty(), b.to_pretty());
    }

    #[test]
    fn moment_backend_clears_five_x_on_every_family() {
        let results = run_moment_grid(true, 2);
        for (i, (config, report)) in results.iter().enumerate() {
            let speedup = speedup_vs_mc16(&results, i);
            match config.mode {
                ServeMode::MonteCarlo => assert_eq!(speedup, 1.0),
                ServeMode::Moment => {
                    assert!(
                        speedup >= 5.0,
                        "{} {}: simulated speedup {speedup} below the 5x gate",
                        config.kind.paper_name(),
                        config.mode.label()
                    );
                    assert!(report.responses.iter().all(|r| r.samples == 0));
                }
            }
        }
    }

    #[test]
    fn committed_accuracy_records_stay_within_the_validation_gates() {
        // Same per-family gates as `moment_validation.rs` in bnn-serve: tight for the MLP
        // proxy, looser for the conv families (shared-weight spatial correlation in MC).
        let results = run_moment_grid(true, 2);
        for pair in results.chunks(2) {
            let (config, mc) = &pair[0];
            let (_, moment) = &pair[1];
            let (mean_tol, entropy_tol) =
                if config.spec().proxy.conv { (0.15, 0.2) } else { (0.05, 0.05) };
            let mean_dev = mean_deviation_vs_mc(mc, moment);
            let entropy_dev = entropy_deviation_vs_mc(mc, moment);
            assert!(
                mean_dev < mean_tol && entropy_dev < entropy_tol,
                "{}: mean dev {mean_dev}, entropy dev {entropy_dev}",
                config.kind.paper_name()
            );
        }
    }
}
