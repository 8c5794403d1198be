//! Every multiply-accumulate of training and Monte-Carlo inference goes through the one
//! tiered GEMM entry point, so `bnn_tensor::profile`'s thread-local counters see 100% of the
//! analytic MAC volume: a B-MLP training step records exactly `3 · weights · S` MACs (forward
//! `W·x`, input gradient `Wᵀ·g`, weight gradient `g ⊗ x`), and one `S`-sample B-LeNet
//! predictive records exactly its analytic forward MACs, fused or per sample.

use bnn_tensor::conv::ConvGeometry;
use bnn_tensor::profile;
use bnn_train::data::SyntheticDataset;
use bnn_train::epsilon::LfsrForward;
use bnn_train::network::Network;
use bnn_train::trainer::{Trainer, TrainerConfig};
use bnn_train::variational::BayesConfig;
use bnn_train::EpsilonSource;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The GEMM MACs this thread records while `f` runs.
fn macs_during(f: impl FnOnce()) -> u64 {
    let before: u64 = profile::gemm_macs().iter().sum();
    f();
    profile::gemm_macs().iter().sum::<u64>() - before
}

#[test]
fn mlp_training_step_records_three_products_per_weight_and_sample() {
    let mut rng = StdRng::seed_from_u64(3);
    let network = Network::bayes_mlp(20, &[16, 12], 4, BayesConfig::default(), &mut rng);
    let weights = (20 * 16 + 16 * 12 + 12 * 4) as u64;
    assert_eq!(network.epsilon_count() as u64, weights);
    let config = TrainerConfig::default();
    let samples = config.samples as u64;
    let mut trainer = Trainer::new(network, config).unwrap();
    let data = SyntheticDataset::generate(&[20], 4, 1, 0.2, 5);
    let (image, label) = data.iter().next().unwrap();
    let macs = macs_during(|| {
        trainer.train_example(image, label).unwrap();
    });
    assert_eq!(macs, 3 * weights * samples);
}

#[test]
fn lenet_mc_predictive_records_its_analytic_forward_macs() {
    let (c, h, w, classes, samples) = (3, 12, 12, 10, 16);
    let mut rng = StdRng::seed_from_u64(4);
    let mut net = Network::bayes_lenet(&[c, h, w], classes, BayesConfig::default(), &mut rng);
    let input = bnn_tensor::init::splitmix_tensor(9, &[c, h, w]);

    // conv MACs = out_channels · (in_channels · k²) · output pixels; linear MACs = out · in.
    let conv = |g: ConvGeometry, h: usize, w: usize| {
        let (oh, ow) = g.output_size(h, w);
        g.out_channels * g.in_channels * g.kernel * g.kernel * oh * ow
    };
    let geometry = |in_channels, out_channels| ConvGeometry {
        in_channels,
        out_channels,
        kernel: 3,
        stride: 1,
        padding: 1,
    };
    let flat = 16 * (h / 4) * (w / 4);
    let per_sample =
        conv(geometry(c, 6), h, w) + conv(geometry(6, 16), h / 2, w / 2) + flat * 64 + 64 * classes;
    let analytic = (per_sample * samples) as u64;

    let sources = || -> Vec<Box<dyn EpsilonSource>> {
        (1..=samples as u64)
            .map(|s| Box::new(LfsrForward::new(s).unwrap()) as Box<dyn EpsilonSource>)
            .collect()
    };
    let fused = macs_during(|| {
        net.predictive_fused(&input, &mut sources()).unwrap();
    });
    let per_sample_path = macs_during(|| {
        net.predictive(&input, &mut sources()).unwrap();
    });
    assert_eq!(fused, analytic, "fused request");
    assert_eq!(per_sample_path, analytic, "per-sample request");
}
