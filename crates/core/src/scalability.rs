//! Sample-size scalability sweeps — the data behind Fig. 13.

use crate::designs::DesignKind;
use crate::sweep::{run_sweep, SweepGrid, SweepPrecision};
use bnn_arch::EnergyModel;
use bnn_models::ModelConfig;
use bnn_pool::default_workers;

/// Metrics at one sample count of a scalability sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScalabilityPoint {
    /// The Monte-Carlo sample count `S`.
    pub samples: usize,
    /// Fractional energy reduction of Shift-BNN over RC-Acc (`1 − E_shift / E_rc`).
    pub shift_energy_reduction: f64,
    /// Fractional energy reduction of MNShift-Acc over MN-Acc.
    pub mnshift_energy_reduction: f64,
    /// Energy efficiency (GOPS/W) of Shift-BNN.
    pub shift_efficiency: f64,
    /// Energy efficiency (GOPS/W) of MNShift-Acc.
    pub mnshift_efficiency: f64,
}

/// Sweeps the sample counts of Fig. 13 (4…128) for one model.
///
/// The (design × samples) grid runs on the sweep engine's work-stealing pool; the derived
/// points are identical to evaluating each (design, S) pair serially.
pub fn sweep_samples(model: &ModelConfig, sample_counts: &[usize]) -> Vec<ScalabilityPoint> {
    let grid = SweepGrid {
        designs: DesignKind::all().to_vec(),
        models: vec![model.clone()],
        sample_counts: sample_counts.to_vec(),
        precisions: vec![SweepPrecision::Bits16],
    };
    let report = run_sweep(&grid, default_workers(), &EnergyModel::default());
    report.scalability(&model.name, sample_counts)
}

/// The sample counts used by the paper's Fig. 13.
pub const FIG13_SAMPLE_COUNTS: [usize; 6] = [4, 8, 16, 32, 64, 128];

#[cfg(test)]
mod tests {
    use super::*;
    use bnn_models::ModelKind;

    #[test]
    fn energy_reduction_grows_with_sample_count() {
        // Fig. 13's headline: the savings increase as S grows because ε's share of the traffic
        // grows.
        for kind in [ModelKind::Mlp, ModelKind::LeNet, ModelKind::Vgg16] {
            let points = sweep_samples(&kind.bnn(), &FIG13_SAMPLE_COUNTS);
            assert_eq!(points.len(), 6);
            for pair in points.windows(2) {
                // Allow sub-percent wiggles from cycle-count rounding; the trend must rise.
                assert!(
                    pair[1].shift_energy_reduction >= pair[0].shift_energy_reduction - 5e-3,
                    "{}: S={} -> S={} reduction fell ({} -> {})",
                    kind.paper_name(),
                    pair[0].samples,
                    pair[1].samples,
                    pair[0].shift_energy_reduction,
                    pair[1].shift_energy_reduction
                );
            }
        }
    }

    #[test]
    fn shift_bnn_efficiency_exceeds_mnshift_at_every_sample_count() {
        let points = sweep_samples(&ModelKind::LeNet.bnn(), &FIG13_SAMPLE_COUNTS);
        for p in points {
            assert!(
                p.shift_efficiency > p.mnshift_efficiency,
                "S={}: {} vs {}",
                p.samples,
                p.shift_efficiency,
                p.mnshift_efficiency
            );
            assert!(p.shift_energy_reduction > 0.0 && p.shift_energy_reduction < 1.0);
        }
    }
}
