//! Tier contracts of the GEMM kernel subsystem:
//!
//! * `Simd` is `to_bits()`-identical to `Reference` across randomized GEMM and convolution
//!   geometries, skinny `m = 1`, `k = 1` and `n = 1` products included — not approximately
//!   close, bit-identical;
//! * the M-split parallel path is byte-identical across worker counts (1 vs N) for **every**
//!   tier, FastMath included — the row partition may not leak into the numbers;
//! * `FastMath` is only ULP-close: its even/odd k-split reassociates each scalar's sum, and
//!   the documented bound is the standard forward-error bound for two different summation
//!   orders of the same dot product, `|fast − ref| ≤ 2·γ_k·Σ_p|a_p·b_p|` with
//!   `γ_k = k·ε/(1−k·ε)` (Higham, *Accuracy and Stability of Numerical Algorithms*, §3.1);
//! * the `m = 1` row form (fused linear forward) matches the `n = 1` column form
//!   (per-sample linear forward) bit for bit.

use bnn_tensor::conv::{reference, ConvGeometry};
use bnn_tensor::init::splitmix_tensor as fill;
use bnn_tensor::kernels::{conv2d_forward_into, gemm_accumulate_tiered, KernelConfig, KernelTier};
use bnn_tensor::{Scratch, Tensor};
use proptest::prelude::*;

/// Runs the tiered GEMM on a fresh copy of `c_init` and returns the result.
fn run_gemm(
    cfg: KernelConfig,
    c_init: &[f32],
    a: &[f32],
    b: &[f32],
    m: usize,
    k: usize,
    n: usize,
) -> Vec<f32> {
    let mut c = c_init.to_vec();
    gemm_accumulate_tiered(cfg, &mut c, a, b, m, k, n);
    c
}

/// Pins one dimension of a drawn `(m, k, n)` to 1 — `pin` 0, 1, 2 select `m`, `k`, `n`;
/// any other value keeps the shape — so every proptest below hits each skinny form the
/// linear layers and the moment backend run (`m = 1` row products, `k = 1` outer products,
/// `n = 1` GEMVs) explicitly rather than by chance.
fn skinny(pin: usize, (m, k, n): (usize, usize, usize)) -> (usize, usize, usize) {
    match pin {
        0 => (1, k, n),
        1 => (m, 1, n),
        2 => (m, k, 1),
        _ => (m, k, n),
    }
}

fn assert_bits_eq(got: &[f32], want: &[f32], what: &str) -> Result<(), TestCaseError> {
    prop_assert_eq!(got.len(), want.len(), "{} length", what);
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        prop_assert_eq!(g.to_bits(), w.to_bits(), "{}[{}]: {} vs {}", what, i, g, w);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `Simd` accumulates every output scalar's k-terms in the reference order, so it is
    /// bit-identical to `Reference` for arbitrary shapes — including C seeded with non-zero
    /// values (the bias-prefill pattern of the conv driver), column remainders narrower than
    /// the SIMD tile, row remainders shorter than the register tile, the skinny forms, and
    /// contractions as deep as a 784-input linear layer.
    #[test]
    fn bit_exact_tiers_match_reference_bitwise(
        m in 1usize..14,
        k in 1usize..800,
        n in 1usize..300,
        pin in 0usize..4,
        seed in 0u64..u64::MAX,
    ) {
        let (m, k, n) = skinny(pin, (m, k, n));
        let a = fill(seed, &[m, k]);
        let b = fill(seed ^ 0xA5A5, &[k, n]);
        let c0 = fill(seed ^ 0x3C3C, &[m, n]);
        let want = run_gemm(
            KernelConfig::with_tier(KernelTier::Reference), c0.data(), a.data(), b.data(), m, k, n,
        );
        let got = run_gemm(
            KernelConfig::with_tier(KernelTier::Simd), c0.data(), a.data(), b.data(), m, k, n,
        );
        assert_bits_eq(&got, &want, "simd")?;
    }

    /// The M-split parallel partition is byte-identical across worker counts for every tier.
    /// Shapes are sized above the inline threshold so the split actually runs — `n = 1`
    /// GEMVs included, as deep as `m·k ≥ 64 Ki` — and each output row is computed by the
    /// same per-scalar addition order regardless of which chunk it lands in.
    #[test]
    fn m_split_is_byte_identical_across_worker_counts(
        m in 32usize..64,
        k in 64usize..128,
        n in 64usize..160,
        gemv in prop::bool::ANY,
        seed in 0u64..u64::MAX,
    ) {
        // A GEMV keeps the MAC volume above the threshold by deepening m and k instead.
        let (m, k, n) = if gemv { (8 * m, 4 * k, 1) } else { (m, k, n) };
        let a = fill(seed, &[m, k]);
        let b = fill(seed ^ 0x1111, &[k, n]);
        let c0 = fill(seed ^ 0x2222, &[m, n]);
        for tier in KernelTier::ALL {
            let serial = run_gemm(
                KernelConfig { tier, gemm_workers: 1 }, c0.data(), a.data(), b.data(), m, k, n,
            );
            for workers in [2usize, 3, 5, 8] {
                let parallel = run_gemm(
                    KernelConfig { tier, gemm_workers: workers },
                    c0.data(), a.data(), b.data(), m, k, n,
                );
                assert_bits_eq(&parallel, &serial, tier.label())?;
            }
        }
    }

    /// The convolution drivers stay bit-identical to the reference loops under every
    /// bit-exact tier and under the parallel M-split.
    #[test]
    fn conv_forward_matches_reference_under_every_bit_exact_tier(
        cin in 1usize..4,
        cout in 1usize..6,
        kernel in 1usize..4,
        extra in 0usize..5,
        seed in 0u64..u64::MAX,
    ) {
        let geom = ConvGeometry {
            in_channels: cin,
            out_channels: cout,
            kernel,
            stride: 1 + (seed % 2) as usize,
            padding: (seed % kernel as u64) as usize,
        };
        let (h, w) = (kernel + extra, kernel + extra + 1);
        let (oh, ow) = geom.output_size(h, w);
        let input = fill(seed, &[cin, h, w]);
        let weights = fill(seed ^ 0xBEEF, &[cout, cin, kernel, kernel]);
        let bias = fill(seed ^ 0xF00D, &[cout]);
        let want = reference::conv2d_forward(&geom, &input, &weights, &bias).unwrap();

        for tier in KernelTier::BIT_EXACT {
            for workers in [1usize, 4] {
                let mut scratch = Scratch::new();
                scratch.set_kernel(KernelConfig { tier, gemm_workers: workers });
                let mut got = scratch.take_tensor(&[cout, oh, ow]);
                conv2d_forward_into(&geom, &input, &weights, &bias, &mut got, &mut scratch)
                    .unwrap();
                assert_bits_eq(got.data(), want.data(), tier.label())?;
            }
        }
    }

    /// FastMath reassociates each scalar's sum; the divergence from the reference order is
    /// bounded by the documented forward-error bound `2·γ_k·Σ|a_p·b_p|` per scalar (both
    /// summation orders satisfy the `γ_k` bound around the exact dot product, so their
    /// difference satisfies twice it).
    #[test]
    fn fastmath_stays_within_the_documented_forward_error_bound(
        m in 1usize..12,
        k in 1usize..800,
        n in 1usize..80,
        pin in 0usize..4,
        seed in 0u64..u64::MAX,
    ) {
        let (m, k, n) = skinny(pin, (m, k, n));
        let a = fill(seed, &[m, k]);
        let b = fill(seed ^ 0x7777, &[k, n]);
        let c0 = fill(seed ^ 0x8888, &[m, n]);
        let want = run_gemm(
            KernelConfig::with_tier(KernelTier::Reference), c0.data(), a.data(), b.data(), m, k, n,
        );
        let got = run_gemm(
            KernelConfig::with_tier(KernelTier::FastMath), c0.data(), a.data(), b.data(), m, k, n,
        );
        let eps = f32::EPSILON as f64;
        let gamma = (k + 1) as f64 * eps / (1.0 - (k + 1) as f64 * eps);
        for i in 0..m {
            for j in 0..n {
                // Magnitude budget of scalar (i, j): |c0| plus every |a·b| term.
                let mut budget = c0.data()[i * n + j].abs() as f64;
                for p in 0..k {
                    budget += (a.data()[i * k + p] as f64 * b.data()[p * n + j] as f64).abs();
                }
                let diff = (got[i * n + j] as f64 - want[i * n + j] as f64).abs();
                let bound = 2.0 * gamma * budget + f64::MIN_POSITIVE;
                prop_assert!(
                    diff <= bound,
                    "({}, {}): |{} - {}| = {} exceeds 2·γ_k·Σ|terms| = {}",
                    i, j, got[i * n + j], want[i * n + j], diff, bound,
                );
            }
        }
    }

    /// The two skinny Simd forms agree: the `m = 1` row product `xᵀ·Wᵀ` (the fused linear
    /// forward) and the `n = 1` column product `W·x` (the per-sample forward) add every
    /// output scalar's terms in the same ascending order, so they are bit-identical.
    #[test]
    fn m1_row_product_matches_n1_column_product_bitwise(
        in_features in 1usize..800,
        out_features in 1usize..48,
        seed in 0u64..u64::MAX,
    ) {
        let x = fill(seed, &[in_features]);
        let w = fill(seed ^ 0xD1CE, &[out_features, in_features]);
        let mut wt = vec![0.0f32; in_features * out_features];
        for o in 0..out_features {
            for i in 0..in_features {
                wt[i * out_features + o] = w.data()[o * in_features + i];
            }
        }
        let simd = KernelConfig::with_tier(KernelTier::Simd);
        let zeros = vec![0.0f32; out_features];
        let row = run_gemm(simd, &zeros, x.data(), &wt, 1, in_features, out_features);
        let column = run_gemm(simd, &zeros, w.data(), x.data(), out_features, in_features, 1);
        assert_bits_eq(&row, &column, "row vs column form")?;
    }
}

/// A deliberately non-random pin: the default tier is `Simd` (or whatever
/// `SHIFT_BNN_KERNEL_TIER` forces — the CI matrix relies on this), and `Simd` sits in the
/// bit-exact set.
#[test]
fn default_tier_is_bit_exact_or_explicitly_forced() {
    let tier = KernelTier::default();
    match std::env::var("SHIFT_BNN_KERNEL_TIER") {
        Ok(v) => assert_eq!(tier.label(), v, "forced tier must win"),
        Err(_) => assert_eq!(tier, KernelTier::Simd),
    }
}

/// A typo'd `SHIFT_BNN_KERNEL_TIER` fails loudly and the panic names every valid spelling —
/// a silent fallback would re-test the default tier while CI believes it covered another.
#[test]
fn unknown_env_tier_fails_loudly_listing_the_valid_tiers() {
    for tier in KernelTier::ALL {
        assert_eq!(KernelTier::from_env_value(tier.label()), tier);
    }
    let panic = std::panic::catch_unwind(|| KernelTier::from_env_value("smid"))
        .expect_err("a typo must panic, not fall back");
    let message = panic
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()))
        .expect("panic payload is a message");
    assert!(message.contains("smid"), "names the offending value: {message}");
    for tier in KernelTier::ALL {
        assert!(message.contains(tier.label()), "lists {:?}: {message}", tier.label());
    }
}

/// Labels round-trip through `parse` — the env-var spelling can't drift from the enum.
#[test]
fn tier_labels_round_trip() {
    for tier in KernelTier::ALL {
        assert_eq!(KernelTier::parse(tier.label()), Some(tier));
    }
    assert_eq!(KernelTier::parse("avx512-of-the-gaps"), None);
}

/// Scratch carries the kernel config to the drivers (the zero-signature-churn plumbing).
#[test]
fn scratch_defaults_to_the_process_tier_and_accepts_overrides() {
    let scratch = Scratch::new();
    assert_eq!(scratch.kernel().tier, KernelTier::default());
    assert_eq!(scratch.kernel().gemm_workers, 1);
    let mut scratch = Scratch::new();
    scratch.set_kernel(KernelConfig { tier: KernelTier::Reference, gemm_workers: 3 });
    assert_eq!(scratch.kernel().tier, KernelTier::Reference);
    assert_eq!(scratch.kernel().gemm_workers, 3);
}

/// Keep a Tensor import alive for the helper signature (and pin that `fill` produces the
/// shapes the tests assume).
#[test]
fn splitmix_fill_produces_requested_shapes() {
    let t: Tensor = fill(7, &[2, 3]);
    assert_eq!(t.shape(), &[2, 3]);
}
