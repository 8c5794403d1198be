//! PR 8 serving-side identity contracts:
//!
//! 1. **Fused sampling is a pure speed switch.** A replica answering with
//!    `Network::predictive_fused_into` (all `S` sampled passes batched into one stacked
//!    walk) produces byte-identical responses to the historical per-sample path, on both
//!    architecture families and across `S` ∈ {1, 2, 8, 16}.
//! 2. **Bit-exact kernel tiers cannot change a response.** Forcing any tier in
//!    [`bnn_tensor::KernelTier::BIT_EXACT`] (or any GEMM worker count) on a replica leaves
//!    every response byte equal to the reference tier's.

use bnn_serve::{
    BatchPolicy, ClusterConfig, EngineSpec, InferRequest, InferResponse, InferenceEngine,
    ModelSpec, RoutingPolicy, ServeMode, ServeReplica, WorkloadSpec,
};
use bnn_tensor::KernelTier;

fn trace(spec: &ModelSpec, requests: usize, samples: usize) -> Vec<InferRequest> {
    WorkloadSpec::uniform(requests, 3, samples, 2021).generate(spec)
}

fn empty_response() -> InferResponse {
    InferResponse { id: 0, samples: 0, mean: Vec::new(), variance: Vec::new(), entropy: 0.0 }
}

fn answers(replica: &mut ServeReplica, requests: &[InferRequest]) -> Vec<InferResponse> {
    let mut response = empty_response();
    requests
        .iter()
        .map(|request| {
            replica.answer_into(request, &mut response);
            response.clone()
        })
        .collect()
}

#[test]
fn fused_and_per_sample_replicas_answer_byte_identically() {
    for spec in [ModelSpec::mlp(11), ModelSpec::lenet(11)] {
        for samples in [1usize, 2, 8, 16] {
            let requests = trace(&spec, 6, samples);
            let mut fused = ServeReplica::build(&EngineSpec::new(spec.clone()));
            let mut per_sample =
                ServeReplica::build(&EngineSpec::new(spec.clone()).fused_sampling(false));
            assert_eq!(
                answers(&mut fused, &requests),
                answers(&mut per_sample, &requests),
                "{}: fused sampling changed responses at S={samples}",
                spec.name()
            );
        }
    }
}

#[test]
fn fused_and_per_sample_engines_serialize_identically() {
    let spec = ModelSpec::lenet(23);
    let requests = trace(&spec, 20, 5);
    let base = EngineSpec::new(spec).policy(BatchPolicy { max_batch: 4, max_wait_ticks: 8 });
    let fused = InferenceEngine::build(base.clone()).run(&requests);
    let per_sample = InferenceEngine::build(base.fused_sampling(false)).run(&requests);
    assert_eq!(fused.to_json().to_pretty(), per_sample.to_json().to_pretty());
}

#[test]
fn bit_exact_kernel_tiers_leave_responses_unchanged() {
    for spec in [ModelSpec::mlp(5), ModelSpec::lenet(5)] {
        let requests = trace(&spec, 4, 8);
        let mut reference =
            ServeReplica::build(&EngineSpec::new(spec.clone()).kernel_tier(KernelTier::Reference));
        let baseline = answers(&mut reference, &requests);
        for tier in KernelTier::BIT_EXACT {
            for gemm_workers in [1usize, 3] {
                let mut replica = ServeReplica::build(
                    &EngineSpec::new(spec.clone()).kernel_tier(tier).gemm_workers(gemm_workers),
                );
                assert_eq!(
                    answers(&mut replica, &requests),
                    baseline,
                    "{}: tier {} × {gemm_workers} GEMM workers changed responses",
                    spec.name(),
                    tier.label()
                );
            }
        }
    }
}

#[test]
fn moment_replicas_ignore_the_fused_switch() {
    let spec = ModelSpec::mlp(13);
    let requests = trace(&spec, 5, 6);
    let base = EngineSpec::new(spec).mode(ServeMode::Moment);
    let mut on = ServeReplica::build(&base.clone());
    let mut off = ServeReplica::build(&base.fused_sampling(false));
    assert_eq!(answers(&mut on, &requests), answers(&mut off, &requests));
}

#[test]
fn cluster_config_mirrors_an_engine_spec() {
    let spec = EngineSpec::new(ModelSpec::lenet(9))
        .mode(ServeMode::Moment)
        .policy(BatchPolicy { max_batch: 3, max_wait_ticks: 6 })
        .workers(2);
    let config = ClusterConfig::from_engine_spec(&spec, 4, 32);
    assert_eq!(config.mode, ServeMode::Moment);
    assert_eq!(config.shards, 4);
    assert_eq!(config.workers_per_shard, 2);
    assert_eq!(config.batch, BatchPolicy { max_batch: 3, max_wait_ticks: 6 });
    assert_eq!(config.queue_cap, 32);
    assert_eq!(config.deadline_ticks, None);
    assert_eq!(config.routing, RoutingPolicy::RoundRobin);
    assert!(config.autoscale.is_none());
    assert_eq!(config.source.epsilon_count(), spec.source_ref().epsilon_count());
}
