//! The design-space sweep engine behind every figure binary.
//!
//! The paper's evaluation is a grid — designs × models × Monte-Carlo sample counts ×
//! datapath precisions — and every reproduced figure is a *slice* of that grid. This module
//! turns the grid into first-class data:
//!
//! * [`SweepGrid`] enumerates the cross product into independent [`SweepPoint`] jobs with a
//!   stable grid index;
//! * [`run_sweep`] executes the points on a work-stealing pool of scoped threads
//!   ([`bnn_pool`]) and aggregates the simulator's [`TrainingRunReport`]s into a [`SweepReport`],
//!   ordered by grid index — *never* by completion order, so a 1-worker run and an N-worker run
//!   serialize to byte-identical JSON;
//! * [`json`] provides the deterministic hand-rolled serializer and parser (`serde` is
//!   unavailable in this offline workspace);
//! * [`summary`] extracts the compact reference-slice baseline (`BENCH_sweep_summary.json`)
//!   that is committed to the repo and regression-checked by CI, in place of the full ~14k-line
//!   report (which stays a CI artifact).
//!
//! The figure/table binaries of `shift-bnn-bench` are thin views over one shared
//! [`SweepReport`] (see [`SweepGrid::paper_figures`]), and `sweep_all` emits the whole grid —
//! with 1-worker vs N-worker wall-clock timings — as `BENCH_sweep.json`.
//!
//! # Example
//!
//! ```
//! use shift_bnn::sweep::{run_sweep, SweepGrid};
//! use bnn_arch::EnergyModel;
//!
//! let grid = SweepGrid::paper_figures();
//! let report = run_sweep(&grid, 4, &EnergyModel::default());
//! let cmp = report.comparison("B-LeNet", 16);
//! let energy = cmp.normalized_energy(shift_bnn::DesignKind::RcAcc);
//! assert_eq!(energy.len(), 4);
//! ```

pub mod json;
pub mod summary;

use crate::compare::DesignComparison;
use crate::designs::DesignKind;
use crate::evaluate::{evaluate_with_precision, DesignEvaluation};
use crate::scalability::{ScalabilityPoint, FIG13_SAMPLE_COUNTS};
use bnn_arch::simulate::TrainingRunReport;
use bnn_arch::EnergyModel;
use bnn_models::zoo::{paper_bnns, paper_variants};
use bnn_models::ModelConfig;
use json::{Json, ToJson};

/// Datapath precision of a sweep point (the Table 1 axis, applied to the simulator's byte
/// accounting).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SweepPrecision {
    /// 8-bit fixed point.
    Bits8,
    /// 16-bit fixed point — the paper's evaluated datapath.
    Bits16,
    /// 32-bit floating point.
    Bits32,
}

impl SweepPrecision {
    /// The three precisions of the paper's Table 1, in ascending width order.
    pub fn all() -> [SweepPrecision; 3] {
        [SweepPrecision::Bits8, SweepPrecision::Bits16, SweepPrecision::Bits32]
    }

    /// Width in bits.
    pub fn bits(&self) -> u64 {
        match self {
            SweepPrecision::Bits8 => 8,
            SweepPrecision::Bits16 => 16,
            SweepPrecision::Bits32 => 32,
        }
    }

    /// Bytes per value on the datapath.
    pub fn bytes(&self) -> usize {
        (self.bits() / 8) as usize
    }
}

/// The cross product a sweep enumerates.
///
/// Every axis combination is a valid simulator input — for non-Bayesian models the sample
/// axis acts as a parallel batch (no ε is drawn); the Fig. 2 DNN baselines simply select the
/// S = 1 slice.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepGrid {
    /// Accelerator designs, in the order the paper's figures list them.
    pub designs: Vec<DesignKind>,
    /// Model configurations (Bayesian and/or DNN variants).
    pub models: Vec<ModelConfig>,
    /// Monte-Carlo sample counts `S`, ascending.
    pub sample_counts: Vec<usize>,
    /// Datapath precisions.
    pub precisions: Vec<SweepPrecision>,
}

impl SweepGrid {
    /// The full paper grid of the ISSUE's tentpole: 4 designs × 5 Bayesian model families ×
    /// the Fig. 13 sample counts × the Table 1 precisions — 360 points.
    pub fn paper_full() -> SweepGrid {
        SweepGrid {
            designs: DesignKind::all().to_vec(),
            models: paper_bnns(),
            sample_counts: FIG13_SAMPLE_COUNTS.to_vec(),
            precisions: SweepPrecision::all().to_vec(),
        }
    }

    /// The union grid the figure binaries consume: 4 designs × 10 model variants (5 BNN +
    /// 5 DNN) × every sample count any figure uses × the 16-bit paper datapath.
    ///
    /// Every `fig*`/`table*` binary selects its slice of one report over this grid.
    pub fn paper_figures() -> SweepGrid {
        SweepGrid {
            designs: DesignKind::all().to_vec(),
            models: paper_variants(),
            sample_counts: vec![1, 4, 8, 16, 24, 32, 64, 128],
            precisions: vec![SweepPrecision::Bits16],
        }
    }

    /// A reduced grid for CI smoke runs: 4 designs × 5 BNN families × S ∈ {4, 16} × 16-bit.
    pub fn reduced() -> SweepGrid {
        SweepGrid {
            designs: DesignKind::all().to_vec(),
            models: paper_bnns(),
            sample_counts: vec![4, 16],
            precisions: vec![SweepPrecision::Bits16],
        }
    }

    /// Enumerates the grid into [`SweepPoint`]s with stable indices.
    ///
    /// The enumeration order — model-major, then samples, then precision, then design — is
    /// part of the JSON contract: record `i` of a [`SweepReport`] is always point `i` of its
    /// grid, whatever the worker count.
    pub fn points(&self) -> Vec<SweepPoint> {
        let mut points = Vec::with_capacity(self.len());
        for model in &self.models {
            for &samples in &self.sample_counts {
                for &precision in &self.precisions {
                    for &design in &self.designs {
                        points.push(SweepPoint {
                            index: points.len(),
                            design,
                            model: model.clone(),
                            samples,
                            precision,
                        });
                    }
                }
            }
        }
        points
    }

    /// Number of points the grid enumerates to: the product of the four axis lengths.
    pub fn len(&self) -> usize {
        self.models.len() * self.sample_counts.len() * self.precisions.len() * self.designs.len()
    }

    /// Whether the grid enumerates to zero points.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl ToJson for SweepGrid {
    fn to_json(&self) -> Json {
        Json::obj([
            (
                "designs",
                Json::Array(self.designs.iter().map(|d| Json::Str(d.name().into())).collect()),
            ),
            (
                "models",
                Json::Array(self.models.iter().map(|m| Json::Str(m.name.clone())).collect()),
            ),
            (
                "sample_counts",
                Json::Array(self.sample_counts.iter().map(|&s| Json::UInt(s as u64)).collect()),
            ),
            (
                "precision_bits",
                Json::Array(self.precisions.iter().map(|p| Json::UInt(p.bits())).collect()),
            ),
            ("points", Json::UInt(self.len() as u64)),
        ])
    }
}

/// One independent job of a sweep: a (design, model, samples, precision) tuple plus its grid
/// index.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepPoint {
    /// Position in the grid enumeration (see [`SweepGrid::points`]).
    pub index: usize,
    /// The accelerator design.
    pub design: DesignKind,
    /// The model variant.
    pub model: ModelConfig,
    /// Monte-Carlo sample count `S`.
    pub samples: usize,
    /// Datapath precision.
    pub precision: SweepPrecision,
}

impl SweepPoint {
    /// Runs the point through the analytic simulator.
    pub fn run(&self, energy: &EnergyModel) -> TrainingRunReport {
        evaluate_with_precision(
            self.design,
            &self.model,
            self.samples,
            self.precision.bytes(),
            energy,
        )
        .report
    }
}

/// A sweep point together with its simulation result.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepRecord {
    /// The grid point.
    pub point: SweepPoint,
    /// The simulator's run-level report for that point.
    pub report: TrainingRunReport,
}

impl ToJson for &SweepRecord {
    fn to_json(&self) -> Json {
        Json::obj([
            ("index", Json::UInt(self.point.index as u64)),
            ("design", Json::Str(self.point.design.name().into())),
            ("model", Json::Str(self.point.model.name.clone())),
            ("bayesian", Json::Bool(self.point.model.bayesian)),
            ("samples", Json::UInt(self.point.samples as u64)),
            ("precision_bits", Json::UInt(self.point.precision.bits())),
            ("report", self.report.to_json()),
        ])
    }
}

/// The aggregated result of one sweep: every record, in grid-index order.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepReport {
    /// The grid that was swept.
    pub grid: SweepGrid,
    /// One record per grid point, ordered by [`SweepPoint::index`].
    pub records: Vec<SweepRecord>,
}

impl SweepReport {
    /// Finds the record of one grid point, or `None` when the grid did not include it.
    pub fn record(
        &self,
        design: DesignKind,
        model: &str,
        samples: usize,
        precision: SweepPrecision,
    ) -> Option<&SweepRecord> {
        self.records.iter().find(|r| {
            r.point.design == design
                && r.point.model.name == model
                && r.point.samples == samples
                && r.point.precision == precision
        })
    }

    /// The [`DesignEvaluation`] of one 16-bit grid point.
    ///
    /// # Panics
    ///
    /// Panics when the grid did not cover the requested point.
    pub fn evaluation(&self, design: DesignKind, model: &str, samples: usize) -> DesignEvaluation {
        let record =
            self.record(design, model, samples, SweepPrecision::Bits16).unwrap_or_else(|| {
                panic!("sweep does not cover {} / {model} / S={samples}", design.name())
            });
        DesignEvaluation { design, report: record.report.clone() }
    }

    /// Assembles the [`DesignComparison`] of one (model, samples) slice — the structure Figs.
    /// 10, 11, 12 and 14 are views of — from the 16-bit records, in the grid's design order.
    ///
    /// # Panics
    ///
    /// Panics when the grid did not cover every design at the requested point.
    pub fn comparison(&self, model: &str, samples: usize) -> DesignComparison {
        let evaluations: Vec<DesignEvaluation> =
            self.grid.designs.iter().map(|&d| self.evaluation(d, model, samples)).collect();
        DesignComparison { model: model.to_string(), samples, evaluations }
    }

    /// Derives the Fig. 13 scalability points of one model from the 16-bit records.
    ///
    /// # Panics
    ///
    /// Panics when the grid did not cover the four designs at every requested sample count.
    pub fn scalability(&self, model: &str, sample_counts: &[usize]) -> Vec<ScalabilityPoint> {
        sample_counts
            .iter()
            .map(|&samples| {
                let report = |d| self.evaluation(d, model, samples);
                let rc = report(DesignKind::RcAcc);
                let shift = report(DesignKind::ShiftBnn);
                let mn = report(DesignKind::MnAcc);
                let mnshift = report(DesignKind::MnShiftAcc);
                ScalabilityPoint {
                    samples,
                    shift_energy_reduction: 1.0 - shift.energy_mj() / rc.energy_mj(),
                    mnshift_energy_reduction: 1.0 - mnshift.energy_mj() / mn.energy_mj(),
                    shift_efficiency: shift.gops_per_watt(),
                    mnshift_efficiency: mnshift.gops_per_watt(),
                }
            })
            .collect()
    }

    /// Serializes the report; both runs of the determinism contract produce this value
    /// byte-identically.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("schema", Json::Str("shift-bnn-sweep/v1".into())),
            ("grid", self.grid.to_json()),
            ("records", Json::array_of(self.records.iter())),
        ])
    }

    /// Pretty-printed [`SweepReport::to_json`].
    pub fn to_json_string(&self) -> String {
        self.to_json().to_pretty()
    }
}

/// Executes every point of `grid` on `workers` work-stealing threads and aggregates the
/// reports in grid order.
pub fn run_sweep(grid: &SweepGrid, workers: usize, energy: &EnergyModel) -> SweepReport {
    let points = grid.points();
    let reports = bnn_pool::run_indexed(points.len(), workers, |i| points[i].run(energy));
    let records = points
        .into_iter()
        .zip(reports)
        .map(|(point, report)| SweepRecord { point, report })
        .collect();
    SweepReport { grid: grid.clone(), records }
}

/// The shared sweep every figure binary views: [`SweepGrid::paper_figures`] under the default
/// energy model, executed on [`bnn_pool::default_workers`] threads.
pub fn paper_sweep() -> SweepReport {
    run_sweep(&SweepGrid::paper_figures(), bnn_pool::default_workers(), &EnergyModel::default())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evaluate::evaluate;
    use bnn_models::ModelKind;

    fn small_grid() -> SweepGrid {
        SweepGrid {
            designs: DesignKind::all().to_vec(),
            models: vec![ModelKind::Mlp.bnn(), ModelKind::LeNet.bnn()],
            sample_counts: vec![4, 16],
            precisions: vec![SweepPrecision::Bits16],
        }
    }

    #[test]
    fn enumeration_indices_are_dense_and_ordered() {
        let grid = SweepGrid::paper_figures();
        let points = grid.points();
        assert_eq!(points.len(), grid.len());
        for (i, p) in points.iter().enumerate() {
            assert_eq!(p.index, i);
        }
        // 10 model variants × 8 sample counts × 4 designs × 1 precision — a full factorial.
        assert_eq!(points.len(), 10 * 8 * 4);
    }

    #[test]
    fn non_bayesian_models_cover_the_full_sample_axis() {
        // The S axis is a parallel batch for a DNN (no ε drawn); every combination must be
        // enumerated so e.g. `sweep_samples` keeps working on DNN configs.
        let grid = SweepGrid {
            designs: vec![DesignKind::MnAcc],
            models: vec![ModelKind::Mlp.dnn()],
            sample_counts: vec![1, 8, 32],
            precisions: vec![SweepPrecision::Bits16],
        };
        let points = grid.points();
        assert_eq!(points.len(), grid.len());
        assert_eq!(points.iter().map(|p| p.samples).collect::<Vec<_>>(), vec![1, 8, 32]);
        let report = run_sweep(&grid, 2, &EnergyModel::default());
        assert_eq!(report.records[1].report.dram_traffic.epsilon, 0);
        let dnn_points = crate::scalability::sweep_samples(&ModelKind::Mlp.dnn(), &[1, 8]);
        assert_eq!(dnn_points.len(), 2);
    }

    #[test]
    fn sweep_records_match_direct_evaluation() {
        let report = run_sweep(&small_grid(), 2, &EnergyModel::default());
        let direct = evaluate(DesignKind::ShiftBnn, &ModelKind::LeNet.bnn(), 16);
        let swept = report.evaluation(DesignKind::ShiftBnn, "B-LeNet", 16);
        assert_eq!(swept.report, direct.report);
    }

    #[test]
    fn comparison_slice_behaves_like_design_comparison_run() {
        let report = run_sweep(&small_grid(), 3, &EnergyModel::default());
        let via_sweep = report.comparison("B-MLP", 16);
        let direct = DesignComparison::run(&ModelKind::Mlp.bnn(), 16, &DesignKind::all());
        assert_eq!(via_sweep, direct);
    }

    #[test]
    fn scalability_slice_matches_sweep_samples() {
        let grid = SweepGrid { models: vec![ModelKind::LeNet.bnn()], ..small_grid() };
        let report = run_sweep(&grid, 2, &EnergyModel::default());
        let via_sweep = report.scalability("B-LeNet", &[4, 16]);
        let direct = crate::scalability::sweep_samples(&ModelKind::LeNet.bnn(), &[4, 16]);
        assert_eq!(via_sweep, direct);
    }

    #[test]
    fn precision_axis_scales_dram_bytes() {
        let grid = SweepGrid {
            designs: vec![DesignKind::RcAcc],
            models: vec![ModelKind::Mlp.bnn()],
            sample_counts: vec![8],
            precisions: SweepPrecision::all().to_vec(),
        };
        let report = run_sweep(&grid, 1, &EnergyModel::default());
        let bytes = |p| report.record(DesignKind::RcAcc, "B-MLP", 8, p).unwrap().report.dram_bytes;
        assert_eq!(bytes(SweepPrecision::Bits8) * 2, bytes(SweepPrecision::Bits16));
        assert_eq!(bytes(SweepPrecision::Bits16) * 2, bytes(SweepPrecision::Bits32));
    }

    #[test]
    fn missing_point_is_a_clean_panic() {
        let report = run_sweep(&small_grid(), 1, &EnergyModel::default());
        assert!(report.record(DesignKind::ShiftBnn, "B-VGG", 16, SweepPrecision::Bits16).is_none());
        let panicked =
            std::panic::catch_unwind(|| report.evaluation(DesignKind::ShiftBnn, "B-VGG", 16));
        assert!(panicked.is_err());
    }

    #[test]
    fn paper_full_grid_has_the_issue_dimensions() {
        let grid = SweepGrid::paper_full();
        assert_eq!(grid.len(), 4 * 5 * FIG13_SAMPLE_COUNTS.len() * 3);
        assert!(grid.models.iter().all(|m| m.bayesian));
    }
}
