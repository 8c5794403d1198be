//! Bit-exactness of the packed im2col+GEMM kernels against the retained reference
//! convolution loops, across randomized geometries (channels, kernel size, stride, padding,
//! spatial extent) and randomized finite data.
//!
//! Equality is asserted on `to_bits()` — not approximate closeness — because the kernel
//! rewrite's whole contract is that every output scalar accumulates the same terms in the
//! same order as the reference loop nest (see `kernels` module docs for the argument).

use bnn_tensor::conv::{reference, ConvGeometry};
use bnn_tensor::init::splitmix_tensor as fill;
use bnn_tensor::kernels::{
    conv2d_backward_input_into, conv2d_backward_weights_into, conv2d_forward_into,
};
use bnn_tensor::{KernelConfig, KernelTier, Scratch, Tensor};
use proptest::prelude::*;

/// A scratch pinned to a bit-exact tier: the bitwise contract below holds for every tier in
/// [`KernelTier::BIT_EXACT`] but not under a `SHIFT_BNN_KERNEL_TIER=fastmath` process
/// default, which the CI tier matrix forces (FastMath's own ULP bound is pinned by
/// `kernel_tiers.rs`).
fn bit_exact_scratch() -> Scratch {
    let mut scratch = Scratch::new();
    scratch.set_kernel(KernelConfig { tier: KernelTier::Simd, gemm_workers: 1 });
    scratch
}

fn assert_bits_eq(got: &Tensor, want: &Tensor, what: &str) -> Result<(), TestCaseError> {
    prop_assert_eq!(got.shape(), want.shape(), "{} shape", what);
    for (i, (g, w)) in got.data().iter().zip(want.data()).enumerate() {
        prop_assert_eq!(g.to_bits(), w.to_bits(), "{}[{}]: {} vs {}", what, i, g, w);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Forward, input-gradient and weight-gradient kernels are bit-identical to the
    /// reference for arbitrary geometry.
    #[test]
    fn packed_kernels_match_reference_bitwise(
        n in 1usize..4,
        m in 1usize..5,
        kernel in 1usize..5,
        stride in 1usize..4,
        pad_raw in 0usize..4,
        seed in 0u64..u64::MAX,
    ) {
        // Padding below the kernel size (every real model) exercises the packed path;
        // the input must be large enough for at least one output pixel.
        let padding = pad_raw.min(kernel - 1);
        let (extra_h, extra_w) = ((seed % 6) as usize, ((seed >> 8) % 6) as usize);
        let h = kernel.max(kernel.saturating_sub(2 * padding)) + extra_h;
        let w = kernel.max(kernel.saturating_sub(2 * padding)) + extra_w;
        let geom = ConvGeometry { in_channels: n, out_channels: m, kernel, stride, padding };
        let (oh, ow) = geom.output_size(h, w);

        let input = fill(seed, &[n, h, w]);
        let weights = fill(seed ^ 0xAAAA, &[m, n, kernel, kernel]);
        let bias = fill(seed ^ 0x5555, &[m]);
        let grad_out = fill(seed ^ 0x3333, &[m, oh, ow]);

        let mut scratch = bit_exact_scratch();

        // Forward.
        let want = reference::conv2d_forward(&geom, &input, &weights, &bias).unwrap();
        let mut got = scratch.take_tensor(&[m, oh, ow]);
        conv2d_forward_into(&geom, &input, &weights, &bias, &mut got, &mut scratch).unwrap();
        assert_bits_eq(&got, &want, "forward")?;

        // Input gradient.
        let want = reference::conv2d_backward_input(&geom, &grad_out, &weights, h, w).unwrap();
        let mut got = scratch.take_tensor(&[n, h, w]);
        conv2d_backward_input_into(&geom, &grad_out, &weights, h, w, &mut got, &mut scratch)
            .unwrap();
        assert_bits_eq(&got, &want, "grad_input")?;

        // Weight + bias gradients.
        let (want_gw, want_gb) =
            reference::conv2d_backward_weights(&geom, &input, &grad_out).unwrap();
        let mut got_gw = scratch.take_tensor(&[m, n, kernel, kernel]);
        let mut got_gb = scratch.take_tensor(&[m]);
        conv2d_backward_weights_into(
            &geom, &input, &grad_out, &mut got_gw, &mut got_gb, &mut scratch,
        )
        .unwrap();
        assert_bits_eq(&got_gw, &want_gw, "grad_weights")?;
        assert_bits_eq(&got_gb, &want_gb, "grad_bias")?;
    }

    /// Sparse upstream gradients (exact zeros) exercise the reference's `g == 0` skip
    /// shortcuts against the packed kernels' branch-free accumulation.
    #[test]
    fn zero_riddled_gradients_still_match_bitwise(
        seed in 0u64..u64::MAX,
        zero_mask in 0u64..u64::MAX,
    ) {
        let geom =
            ConvGeometry { in_channels: 2, out_channels: 3, kernel: 3, stride: 1, padding: 1 };
        let (h, w) = (6, 6);
        let (oh, ow) = geom.output_size(h, w);
        let input = fill(seed, &[2, h, w]);
        let weights = fill(seed ^ 0x77, &[3, 2, 3, 3]);
        let mut grad_out = fill(seed ^ 0x99, &[3, oh, ow]);
        for (i, g) in grad_out.data_mut().iter_mut().enumerate() {
            if (zero_mask >> (i % 64)) & 1 == 1 {
                *g = 0.0;
            }
        }

        let mut scratch = bit_exact_scratch();
        let want = reference::conv2d_backward_input(&geom, &grad_out, &weights, h, w).unwrap();
        let mut got = scratch.take_tensor(&[2, h, w]);
        conv2d_backward_input_into(&geom, &grad_out, &weights, h, w, &mut got, &mut scratch)
            .unwrap();
        assert_bits_eq(&got, &want, "sparse grad_input")?;

        let (want_gw, want_gb) =
            reference::conv2d_backward_weights(&geom, &input, &grad_out).unwrap();
        let mut got_gw = scratch.take_tensor(&[3, 2, 3, 3]);
        let mut got_gb = scratch.take_tensor(&[3]);
        conv2d_backward_weights_into(
            &geom, &input, &grad_out, &mut got_gw, &mut got_gb, &mut scratch,
        )
        .unwrap();
        assert_bits_eq(&got_gw, &want_gw, "sparse grad_weights")?;
        assert_bits_eq(&got_gb, &want_gb, "sparse grad_bias")?;
    }
}
