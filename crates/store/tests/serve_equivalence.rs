//! Serve equivalence: a replica materialized from a checkpoint that went **through the full
//! persistence pipeline** (encode → publish → registry load → decode) answers byte-identically
//! to a replica built from the in-memory posterior it captured — across 1-vs-N workers, and
//! whether the checkpoint arrives as the engine's initial source or via a mid-stream hot-swap.
//!
//! This closes the lifecycle loop the store exists for: train → snapshot → publish → serve →
//! hot-swap, with the answers provably independent of which side of the disk the posterior
//! came from.

use bnn_serve::{
    BatchPolicy, CheckpointReplica, EngineSpec, InferenceEngine, ModelSource, NullRecorder,
    ServeMode, VersionSwap, WorkloadSpec,
};
use bnn_store::{Checkpoint, ModelRegistry};
use bnn_train::data::SyntheticDataset;
use bnn_train::variational::BayesConfig;
use bnn_train::{Network, Trainer, TrainerConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::PathBuf;

const INPUT_SHAPE: [usize; 3] = [1, 8, 8];

/// A fresh registry root under cargo's per-target temp dir (inside `target/`, cleaned by
/// `cargo clean`, never colliding across parallel test binaries). Wiped on every call so
/// version numbers restart at 1 however many times the test binary has run before.
fn registry_root(label: &str) -> PathBuf {
    let root = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("registry-{label}"));
    let _ = std::fs::remove_dir_all(&root);
    root
}

/// Trains a small conv net for a few steps so the served posterior is a *trained* artifact,
/// not an initializer (the lifecycle the store exists for).
fn trained_network(seed: u64) -> Network {
    let mut rng = StdRng::seed_from_u64(seed);
    let network = Network::bayes_lenet(&INPUT_SHAPE, 3, BayesConfig::default(), &mut rng);
    let mut trainer = Trainer::new(
        network,
        TrainerConfig { samples: 2, learning_rate: 0.05, ..TrainerConfig::default() },
    )
    .unwrap();
    let dataset = SyntheticDataset::generate(&INPUT_SHAPE, 3, 2, 0.2, seed);
    trainer.train_epoch(&dataset).unwrap();
    Checkpoint::from_trainer(&trainer).build_network().unwrap()
}

fn in_memory_source(network: &Network, label: &str) -> ModelSource {
    ModelSource::Checkpoint(
        CheckpointReplica::new(label, network.snapshot(), INPUT_SHAPE.to_vec()).unwrap(),
    )
}

fn trace(requests: usize) -> Vec<bnn_serve::InferRequest> {
    WorkloadSpec::uniform(requests, 3, 4, 2026).generate_for_shape(&INPUT_SHAPE)
}

#[test]
fn registry_loaded_replicas_answer_byte_identically_to_in_memory_ones() {
    let network = trained_network(7);
    let in_memory = in_memory_source(&network, "blenet@v1");

    // Through the full pipeline: bytes → atomic publish → registry load → ModelSource.
    let registry = ModelRegistry::open(registry_root("serve-equivalence")).unwrap();
    let version = registry.publish("blenet", &Checkpoint::posterior(&network)).unwrap();
    let (loaded_version, from_disk) =
        registry.serve_source("blenet", None, INPUT_SHAPE.to_vec()).unwrap();
    assert_eq!(loaded_version, version);

    let policy = BatchPolicy { max_batch: 4, max_wait_ticks: 8 };
    let requests = trace(18);
    let baseline =
        InferenceEngine::build(EngineSpec::new(in_memory).policy(policy).workers(1)).run(&requests);
    for workers in [1, 2, 4] {
        let served = InferenceEngine::build(
            EngineSpec::new(from_disk.clone()).policy(policy).workers(workers),
        )
        .run(&requests);
        assert_eq!(
            baseline.responses_json(),
            served.responses_json(),
            "disk-loaded replica diverged from the in-memory posterior at {workers} workers"
        );
    }
}

#[test]
fn hot_swapped_checkpoint_replicas_match_their_dedicated_engine() {
    let v1_network = trained_network(11);
    let v2_network = trained_network(12);
    let registry = ModelRegistry::open(registry_root("hot-swap")).unwrap();
    registry.publish("blenet", &Checkpoint::posterior(&v1_network)).unwrap();
    registry.publish("blenet", &Checkpoint::posterior(&v2_network)).unwrap();
    assert_eq!(registry.versions("blenet").unwrap(), vec![1, 2]);

    let (_, v1) = registry.serve_source("blenet", Some(1), INPUT_SHAPE.to_vec()).unwrap();
    let (_, v2) = registry.serve_source("blenet", Some(2), INPUT_SHAPE.to_vec()).unwrap();

    let policy = BatchPolicy { max_batch: 3, max_wait_ticks: 6 };
    let requests = trace(24);
    let swaps = [VersionSwap { at_tick: 45, source: v2.clone() }];

    let baseline = InferenceEngine::build(EngineSpec::new(v1.clone()).policy(policy).workers(1))
        .run_traced(&requests, &swaps, &mut NullRecorder);
    // 1-vs-N workers: byte-identical, swap schedule included.
    for workers in [2, 4] {
        let parallel =
            InferenceEngine::build(EngineSpec::new(v1.clone()).policy(policy).workers(workers))
                .run_traced(&requests, &swaps, &mut NullRecorder);
        assert_eq!(baseline.responses_json(), parallel.responses_json());
        assert_eq!(baseline.batches, parallel.batches);
    }

    // Each side of the boundary matches the single-version engine built from the same
    // registry artifact — the swapped-in replica is not an approximation of v2, it *is* v2.
    let v1_only =
        InferenceEngine::build(EngineSpec::new(v1).policy(policy).workers(2)).run(&requests);
    let v2_only =
        InferenceEngine::build(EngineSpec::new(v2).policy(policy).workers(2)).run(&requests);
    let mut request_index = 0usize;
    let mut saw_both = (false, false);
    for batch in &baseline.batches {
        for _ in 0..batch.size {
            let expected = if batch.version == 0 {
                saw_both.0 = true;
                &v1_only.responses[request_index]
            } else {
                saw_both.1 = true;
                &v2_only.responses[request_index]
            };
            assert_eq!(&baseline.responses[request_index], expected);
            request_index += 1;
        }
    }
    assert_eq!(request_index, requests.len());
    assert!(saw_both.0 && saw_both.1, "the swap must split this trace");
}

#[test]
fn publish_is_monotonic_and_immutable() {
    let network = trained_network(21);
    let registry = ModelRegistry::open(registry_root("monotonic")).unwrap();
    let checkpoint = Checkpoint::posterior(&network);
    let v1 = registry.publish("m", &checkpoint).unwrap();
    let v2 = registry.publish("m", &checkpoint).unwrap();
    let v3 = registry.publish("m", &checkpoint).unwrap();
    assert_eq!((v1, v2, v3), (1, 2, 3));
    assert_eq!(registry.latest("m").unwrap(), Some(3));
    assert_eq!(registry.models().unwrap(), vec!["m".to_string()]);
    // Same artifact in every version: loading any of them yields the same digest.
    for version in [v1, v2, v3] {
        assert_eq!(registry.load("m", version).unwrap().digest(), checkpoint.digest());
    }
    // Unknown lookups are typed errors.
    assert!(registry.load("m", 9).is_err());
    assert!(registry.load_latest("ghost").is_err());
    assert!(registry.publish("../escape", &checkpoint).is_err());
}

#[test]
fn concurrent_publishers_never_clobber_each_other() {
    let network = trained_network(31);
    let registry = ModelRegistry::open(registry_root("concurrent")).unwrap();
    let checkpoint = Checkpoint::posterior(&network);
    let versions: Vec<u32> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let registry = registry.clone();
                let checkpoint = &checkpoint;
                scope.spawn(move || registry.publish("racy", checkpoint).unwrap())
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let mut sorted = versions.clone();
    sorted.sort_unstable();
    sorted.dedup();
    assert_eq!(sorted.len(), versions.len(), "publishers claimed a duplicate version");
    assert_eq!(registry.versions("racy").unwrap().len(), 4);
    // Every published file is complete and valid (atomicity: no partial writes visible).
    for version in registry.versions("racy").unwrap() {
        registry.load("racy", version).unwrap();
    }
}

#[test]
fn moment_mode_survives_the_checkpoint_round_trip() {
    // The analytic backend serves a *persisted* posterior exactly like the in-memory one it
    // captured: encode → publish → registry load → `MomentNetwork::from_snapshot` produces a
    // byte-identical moment engine, across worker counts, with every response analytic.
    let network = trained_network(41);
    let in_memory = in_memory_source(&network, "blenet@v1");
    let registry = ModelRegistry::open(registry_root("moment-serve")).unwrap();
    registry.publish("blenet", &Checkpoint::posterior(&network)).unwrap();
    let (_, from_disk) = registry.serve_source("blenet", None, INPUT_SHAPE.to_vec()).unwrap();

    let policy = BatchPolicy { max_batch: 4, max_wait_ticks: 8 };
    let requests = trace(18);
    let baseline = InferenceEngine::build(
        EngineSpec::new(in_memory).mode(ServeMode::Moment).policy(policy).workers(1),
    )
    .run(&requests);
    assert!(baseline.responses.iter().all(|r| r.samples == 0));
    for workers in [1, 2, 4] {
        let served = InferenceEngine::build(
            EngineSpec::new(from_disk.clone())
                .mode(ServeMode::Moment)
                .policy(policy)
                .workers(workers),
        )
        .run(&requests);
        assert_eq!(
            baseline.responses_json(),
            served.responses_json(),
            "disk-loaded moment replica diverged from the in-memory posterior at {workers} workers"
        );
    }

    // The backends answer from the same posterior but are genuinely different summaries:
    // Monte-Carlo responses over the same trace differ from the analytic ones.
    let mc = InferenceEngine::build(
        EngineSpec::new(from_disk).mode(ServeMode::MonteCarlo).policy(policy).workers(2),
    )
    .run(&requests);
    assert_ne!(baseline.responses_json(), mc.responses_json());
}
