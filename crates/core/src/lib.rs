//! **Shift-BNN** — reproduction of the MICRO 2021 paper "Shift-BNN: Highly-Efficient
//! Probabilistic Bayesian Neural Network Training via Memory-Friendly Pattern Retrieving".
//!
//! Training a Bayesian neural network draws one Gaussian random variable ε per weight per
//! Monte-Carlo sample during the forward pass and needs the same ε again during backpropagation;
//! on conventional training accelerators these ε dominate off-chip traffic (up to ~71%). The
//! paper's insight is that the LFSR-based Gaussian generators producing the ε are *reversible*,
//! so the backward pass can regenerate every ε locally by shifting the LFSRs backwards — no
//! storage, no traffic, bit-identical training. Shift-BNN is the accelerator built around that
//! idea: 16 Sample Processing Units with RC-mapped 4×4 PE tiles, per-PE GRNG slices and function
//! units.
//!
//! This crate ties the substrates together into the paper's evaluated artifacts:
//!
//! * [`designs`] — the four comparison designs (MN-Acc, RC-Acc, MNShift-Acc, Shift-BNN);
//! * [`spu`] — a functional Sample Processing Unit (PE tile + GRNG bank + DPU/updater math);
//! * [`mod@evaluate`] — run a model's training workload through a design (or the GPU model);
//! * [`compare`] — multi-design comparisons (energy, speedup, GOPS/W, DRAM accesses, footprint);
//! * [`scalability`] — sample-count sweeps;
//! * [`sweep`] — the design-space sweep engine: the (design × model × samples × precision)
//!   grid as independent jobs on the pool, aggregated into one deterministically-serialized
//!   [`sweep::SweepReport`] that every figure is a view of.
//!
//! The algorithmic side (actual Bayes-by-Backprop training with LFSR-retrieved ε) lives in the
//! companion crate `bnn-train`; the reversible generators themselves in `bnn-lfsr`.
//!
//! # Example
//!
//! ```
//! use shift_bnn::compare::DesignComparison;
//! use shift_bnn::designs::DesignKind;
//! use bnn_models::ModelKind;
//!
//! let comparison = DesignComparison::run(&ModelKind::LeNet.bnn(), 16, &DesignKind::all());
//! let energy = comparison.normalized_energy(DesignKind::RcAcc);
//! let (_, shift_bnn_energy) = energy.iter().find(|(d, _)| *d == DesignKind::ShiftBnn).unwrap();
//! assert!(*shift_bnn_energy < 1.0); // Shift-BNN consumes less energy than the RC baseline
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod compare;
pub mod designs;
pub mod evaluate;
pub mod scalability;
pub mod spu;
pub mod sweep;

pub use compare::{compare_all_designs, DesignComparison};
pub use designs::DesignKind;
pub use evaluate::{evaluate, evaluate_gpu, DesignEvaluation};
pub use scalability::{sweep_samples, ScalabilityPoint, FIG13_SAMPLE_COUNTS};
pub use spu::SampleProcessingUnit;
pub use sweep::summary::SweepSummary;
pub use sweep::{paper_sweep, run_sweep, SweepGrid, SweepPoint, SweepPrecision, SweepReport};
