//! The `store_bench` grid and its deterministic summary.
//!
//! Mirrors the relationship between `serve_bench` and [`crate::serve_views`]: the binary
//! measures wall clocks; this module owns what the benchmark *is* and which scalars are
//! deterministic enough to commit (`BENCH_store_summary.json`) and regression-check —
//! checkpoint sizes and digests, registry version numbers, hot-swap tick boundaries, and the
//! response digests proving disk-loaded replicas answer exactly like in-memory ones.
//! Save/load throughput never enters the summary.
//!
//! This is also where the registry meets **sweep-trained models**: each benchmarked artifact
//! is a `TrainableProxy` (the same scaled-down family geometries the Table 1 precision study
//! trains) taken through train → checkpoint → publish → load → serve → hot-swap.

use bnn_models::zoo::TrainableProxy;
use bnn_models::ModelKind;
use bnn_serve::{
    BatchPolicy, EngineSpec, InferenceEngine, ModelSource, NullRecorder, ServeRunReport,
    VersionSwap, WorkloadSpec,
};
use bnn_store::{Checkpoint, ModelRegistry};
use bnn_train::data::SyntheticDataset;
use bnn_train::variational::BayesConfig;
use bnn_train::{Network, Trainer, TrainerConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;
use shift_bnn::sweep::json::Json;
use std::path::Path;

/// Weight/dataset seed of every store benchmark (training is deterministic in it).
pub const STORE_SEED: u64 = 2027;

/// Training steps of the v1 artifact; v2 continues (from v1's training checkpoint) for the
/// same count again — so v2 is also a live demonstration of resume-from-checkpoint.
pub const STORE_TRAIN_STEPS: usize = 6;

/// The tick the benchmark schedules its hot-swap at.
pub const STORE_SWAP_TICK: u64 = 60;

/// Requests in the serving trace.
pub const STORE_REQUESTS: usize = 24;

/// The model families the store grid exercises (the two distinct proxy architectures).
pub const STORE_MODELS: [ModelKind; 2] = [ModelKind::Mlp, ModelKind::LeNet];

/// Builds the family proxy's untrained network.
fn proxy_network(proxy: &TrainableProxy, rng: &mut StdRng) -> Network {
    if proxy.conv {
        let shape = [proxy.input[0], proxy.input[1], proxy.input[2]];
        Network::bayes_lenet(&shape, proxy.classes, BayesConfig::default(), rng)
    } else {
        Network::bayes_mlp(
            proxy.input[0],
            &proxy.hidden,
            proxy.classes,
            BayesConfig::default(),
            rng,
        )
    }
}

/// Trains the family proxy for [`STORE_TRAIN_STEPS`] steps and captures the full training
/// checkpoint (deterministic in [`STORE_SEED`]).
pub fn train_v1(kind: ModelKind) -> Checkpoint {
    let proxy = kind.trainable_proxy();
    let mut rng = StdRng::seed_from_u64(STORE_SEED);
    let network = proxy_network(&proxy, &mut rng);
    let mut trainer = Trainer::new(
        network,
        TrainerConfig { samples: 2, learning_rate: 0.05, seed: STORE_SEED, ..Default::default() },
    )
    .expect("default GRNG construction cannot fail");
    let dataset = dataset_for(&proxy);
    for step in 0..STORE_TRAIN_STEPS {
        let (image, label) = dataset.example(step % dataset.len());
        trainer.train_example(image, label).expect("proxy shapes are consistent");
    }
    Checkpoint::from_trainer(&trainer)
}

/// Resumes training from a v1 checkpoint for another [`STORE_TRAIN_STEPS`] steps — the v2
/// artifact, produced the way production retraining would produce it.
pub fn train_v2(kind: ModelKind, v1: &Checkpoint) -> Checkpoint {
    let proxy = kind.trainable_proxy();
    let dataset = dataset_for(&proxy);
    let mut trainer = v1.resume_trainer().expect("v1 is a validated training checkpoint");
    for _ in 0..STORE_TRAIN_STEPS {
        let step = trainer.steps() as usize;
        let (image, label) = dataset.example(step % dataset.len());
        trainer.train_example(image, label).expect("proxy shapes are consistent");
    }
    Checkpoint::from_trainer(&trainer)
}

fn dataset_for(proxy: &TrainableProxy) -> SyntheticDataset {
    SyntheticDataset::generate(&proxy.input, proxy.classes, 2, 0.2, STORE_SEED)
}

/// The serving trace every store benchmark drives.
pub fn store_trace(proxy: &TrainableProxy) -> Vec<bnn_serve::InferRequest> {
    WorkloadSpec::uniform(STORE_REQUESTS, 3, 4, STORE_SEED).generate_for_shape(&proxy.input)
}

/// One family's results: the deterministic facts (sizes, digests, versions, tick boundaries)
/// plus the wall-clock timings of the persistence operations.
#[derive(Debug, Clone)]
pub struct StoreBenchResult {
    /// Registry model name (`"bmlp"` / `"blenet"`).
    pub name: String,
    /// Paper family name.
    pub family: &'static str,
    /// Serialized checkpoint size of v1, in bytes.
    pub v1_bytes: usize,
    /// Container digest of v1.
    pub v1_digest: String,
    /// Serialized checkpoint size of v2, in bytes.
    pub v2_bytes: usize,
    /// Container digest of v2.
    pub v2_digest: String,
    /// Registry versions allocated (must be `(1, 2)` in a fresh root).
    pub versions: (u32, u32),
    /// Tick the hot-swap was scheduled at.
    pub swap_requested_tick: u64,
    /// Service-start tick of the first batch the new version answered.
    pub swap_boundary_tick: u64,
    /// Response digest of the hot-swapped run.
    pub swapped_responses_digest: String,
    /// Response digest of the v1-only run.
    pub v1_responses_digest: String,
    /// Response digest of the v2-only run.
    pub v2_responses_digest: String,
    /// Best-of-reps encode time, nanoseconds.
    pub encode_ns: f64,
    /// Best-of-reps decode (with full validation) time, nanoseconds.
    pub decode_ns: f64,
    /// Best-of-reps registry publish time, nanoseconds.
    pub publish_ns: f64,
    /// Best-of-reps registry load time, nanoseconds.
    pub load_ns: f64,
}

impl StoreBenchResult {
    /// Hot-swap activation latency in ticks (boundary − request).
    pub fn swap_latency_ticks(&self) -> u64 {
        self.swap_boundary_tick - self.swap_requested_tick
    }

    /// Encode throughput in MB/s.
    pub fn encode_mb_per_s(&self) -> f64 {
        self.v1_bytes as f64 / 1e6 / (self.encode_ns / 1e9)
    }

    /// Decode (validated) throughput in MB/s.
    pub fn decode_mb_per_s(&self) -> f64 {
        self.v1_bytes as f64 / 1e6 / (self.decode_ns / 1e9)
    }
}

fn best_of<R>(reps: usize, mut f: impl FnMut() -> R) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps.max(1) {
        let start = std::time::Instant::now();
        std::hint::black_box(f());
        best = best.min(start.elapsed().as_nanos() as f64);
    }
    best
}

/// Runs the full store benchmark into a **fresh** registry under `registry_root` (the root is
/// recreated so version numbers are reproducible).
///
/// Beyond timing, this asserts the store's contracts at runtime, exactly like `serve_bench`
/// asserts response identity: byte-identical checkpoint round trips, byte-identical
/// disk-vs-memory serving at 1 and N workers, and a version sequence that steps 0 → 1 at one
/// deterministic boundary.
///
/// # Panics
///
/// Panics when any contract is violated or the registry root cannot be (re)created.
pub fn run_store_bench(registry_root: &Path, reps: usize) -> Vec<StoreBenchResult> {
    let _ = std::fs::remove_dir_all(registry_root);
    let registry = ModelRegistry::open(registry_root).expect("create registry root");
    STORE_MODELS.iter().map(|&kind| bench_family(&registry, kind, reps)).collect()
}

fn registry_name(kind: ModelKind) -> String {
    kind.paper_name().to_ascii_lowercase().replace('-', "")
}

fn bench_family(registry: &ModelRegistry, kind: ModelKind, reps: usize) -> StoreBenchResult {
    let proxy = kind.trainable_proxy();
    let name = registry_name(kind);

    // Train v1, resume-train v2 — the artifact pair a rolling deployment produces.
    let v1 = train_v1(kind);
    let v2 = train_v2(kind, &v1);
    let v1_encoded = v1.to_bytes();
    let v2_encoded = v2.to_bytes();
    let decoded = Checkpoint::from_bytes(&v1_encoded).expect("own bytes decode");
    assert_eq!(decoded, v1, "checkpoint round trip must be lossless");

    // Persistence timings (wall clock; full report only).
    let encode_ns = best_of(reps, || v1.to_bytes());
    let decode_ns = best_of(reps, || Checkpoint::from_bytes(&v1_encoded).expect("valid bytes"));
    let version_1 = registry.publish(&name, &v1).expect("publish v1");
    let publish_ns = best_of(reps, || {
        let scratch_name = format!("{name}-scratch");
        registry.publish(&scratch_name, &v1).expect("publish scratch")
    });
    let load_ns = best_of(reps, || registry.load(&name, version_1).expect("load v1"));
    let version_2 = registry.publish(&name, &v2).expect("publish v2");

    // Serve: disk-loaded replicas must answer exactly like in-memory ones, at 1 and N
    // workers, and the hot-swap must split the trace at one deterministic boundary.
    let trace = store_trace(&proxy);
    let policy = BatchPolicy { max_batch: 4, max_wait_ticks: 8 };
    let (_, v1_source) =
        registry.serve_source(&name, Some(version_1), proxy.input.clone()).expect("serve v1");
    let (_, v2_source) =
        registry.serve_source(&name, Some(version_2), proxy.input.clone()).expect("serve v2");
    let in_memory = ModelSource::Checkpoint(
        bnn_serve::CheckpointReplica::new(
            format!("{name}@v{version_1}"),
            v1.network.clone(),
            proxy.input.clone(),
        )
        .expect("validated checkpoint"),
    );
    let memory_run =
        InferenceEngine::build(EngineSpec::new(in_memory).policy(policy).workers(1)).run(&trace);
    let disk_run =
        InferenceEngine::build(EngineSpec::new(v1_source.clone()).policy(policy).workers(2))
            .run(&trace);
    assert_eq!(
        memory_run.responses_json(),
        disk_run.responses_json(),
        "{name}: disk-loaded replica diverged from the in-memory posterior"
    );

    let swaps = [VersionSwap { at_tick: STORE_SWAP_TICK, source: v2_source.clone() }];
    let swapped: ServeRunReport =
        InferenceEngine::build(EngineSpec::new(v1_source.clone()).policy(policy).workers(2))
            .run_traced(&trace, &swaps, &mut NullRecorder);
    let boundary = swapped
        .batches
        .iter()
        .find(|b| b.version == 1)
        .expect("the swap must land within the store trace");
    let v1_run =
        InferenceEngine::build(EngineSpec::new(v1_source).policy(policy).workers(2)).run(&trace);
    let v2_run =
        InferenceEngine::build(EngineSpec::new(v2_source).policy(policy).workers(2)).run(&trace);

    StoreBenchResult {
        name,
        family: kind.paper_name(),
        v1_bytes: v1_encoded.len(),
        v1_digest: v1.digest(),
        v2_bytes: v2_encoded.len(),
        v2_digest: v2.digest(),
        versions: (version_1, version_2),
        swap_requested_tick: STORE_SWAP_TICK,
        swap_boundary_tick: boundary.start_tick,
        swapped_responses_digest: swapped.responses_digest(),
        v1_responses_digest: v1_run.responses_digest(),
        v2_responses_digest: v2_run.responses_digest(),
        encode_ns,
        decode_ns,
        publish_ns,
        load_ns,
    }
}

/// Builds the **deterministic** summary document committed as `BENCH_store_summary.json` and
/// gated by `bench_regression`: checkpoint sizes and digests, registry versions, hot-swap
/// tick boundaries and response digests — no wall-clock values.
pub fn summary_json(results: &[StoreBenchResult]) -> Json {
    let records: Vec<Json> = results
        .iter()
        .map(|r| {
            Json::obj([
                ("name", Json::Str(r.name.clone())),
                ("family", Json::Str(r.family.to_string())),
                ("train_steps_per_version", Json::UInt(STORE_TRAIN_STEPS as u64)),
                ("v1_bytes", Json::UInt(r.v1_bytes as u64)),
                ("v1_digest", Json::Str(r.v1_digest.clone())),
                ("v2_bytes", Json::UInt(r.v2_bytes as u64)),
                ("v2_digest", Json::Str(r.v2_digest.clone())),
                (
                    "versions",
                    Json::Array(vec![
                        Json::UInt(u64::from(r.versions.0)),
                        Json::UInt(u64::from(r.versions.1)),
                    ]),
                ),
                ("swap_requested_tick", Json::UInt(r.swap_requested_tick)),
                ("swap_boundary_tick", Json::UInt(r.swap_boundary_tick)),
                ("swap_latency_ticks", Json::UInt(r.swap_latency_ticks())),
                ("swapped_responses_digest", Json::Str(r.swapped_responses_digest.clone())),
                ("v1_responses_digest", Json::Str(r.v1_responses_digest.clone())),
                ("v2_responses_digest", Json::Str(r.v2_responses_digest.clone())),
            ])
        })
        .collect();
    Json::obj([
        ("schema", Json::Str("shift-bnn-store-summary/v1".into())),
        (
            "workload",
            Json::obj([
                ("seed", Json::UInt(STORE_SEED)),
                ("requests", Json::UInt(STORE_REQUESTS as u64)),
            ]),
        ),
        ("records", Json::Array(records)),
    ])
}

/// Builds the full (machine-dependent) report written to `BENCH_store.json` — persistence
/// timings and throughputs alongside everything in the summary.
pub fn full_json(results: &[StoreBenchResult]) -> Json {
    let records: Vec<Json> = results
        .iter()
        .map(|r| {
            Json::obj([
                ("name", Json::Str(r.name.clone())),
                ("family", Json::Str(r.family.to_string())),
                ("v1_bytes", Json::UInt(r.v1_bytes as u64)),
                ("v1_digest", Json::Str(r.v1_digest.clone())),
                ("encode_ns", Json::Float(r.encode_ns)),
                ("decode_ns", Json::Float(r.decode_ns)),
                ("publish_ns", Json::Float(r.publish_ns)),
                ("load_ns", Json::Float(r.load_ns)),
                ("encode_mb_per_s", Json::Float(r.encode_mb_per_s())),
                ("decode_mb_per_s", Json::Float(r.decode_mb_per_s())),
                ("swap_latency_ticks", Json::UInt(r.swap_latency_ticks())),
            ])
        })
        .collect();
    Json::obj([("records", Json::Array(records)), ("summary", summary_json(results))])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_root(label: &str) -> std::path::PathBuf {
        std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../../target/tmp")
            .join(format!("store-views-{label}"))
    }

    #[test]
    fn store_bench_is_deterministic_and_timing_free_in_summary() {
        let a = run_store_bench(&tmp_root("det-a"), 1);
        let b = run_store_bench(&tmp_root("det-b"), 2);
        let sa = summary_json(&a).to_pretty();
        let sb = summary_json(&b).to_pretty();
        assert_eq!(sa, sb, "summary must not depend on the registry path or rep count");
        assert!(!sa.contains("_ns"), "summary must not embed wall-clock fields");
        std::fs::remove_dir_all(tmp_root("det-a")).ok();
        std::fs::remove_dir_all(tmp_root("det-b")).ok();
    }

    #[test]
    fn v2_continues_v1_rather_than_restarting() {
        let v1 = train_v1(ModelKind::Mlp);
        let v2 = train_v2(ModelKind::Mlp, &v1);
        assert_ne!(v1.digest(), v2.digest(), "further training must change the posterior");
        let t1 = v1.trainer.as_ref().unwrap();
        let t2 = v2.trainer.as_ref().unwrap();
        assert_eq!(t1.steps, STORE_TRAIN_STEPS as u64);
        assert_eq!(t2.steps, 2 * STORE_TRAIN_STEPS as u64);
    }
}
