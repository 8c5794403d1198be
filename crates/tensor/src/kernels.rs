//! The numeric hot-path kernels: one tiered GEMM entry point and the im2col convolution
//! drivers built on it.
//!
//! Every matrix product in the workspace — convolutions, Bayesian linear layers forward and
//! backward, the fused-sampling forward, the moment backend's mean/variance passes and
//! [`Tensor::matmul`] — runs through [`gemm_accumulate_tiered`]. Everything in this module is
//! **bit-exact by construction** against the straightforward loops it replaces (retained in
//! [`crate::conv::reference`] and pinned by `tests/kernel_equivalence.rs`). The invariant that
//! makes this possible: every output scalar accumulates *exactly one* running sum whose terms
//! are added in the same order as the reference loops —
//!
//! * convolution forward: bias first, then products ordered by `(ic, ky, kx)`;
//! * weight gradient: products ordered by output pixel `(oy, ox)`;
//! * input gradient: products ordered by `(om, oy, ox)` (realized as a unit-stride
//!   convolution of the dilated, zero-embedded output gradient with 180°-rotated kernels,
//!   whose k-dimension `(om, ky′, kx′)` enumerates the same terms in the same order);
//! * GEMM: plain `k`-ascending accumulation per scalar, never split into partial sums.
//!
//! Where the reference loops *skip* terms (out-of-bounds taps, explicit `g == 0` shortcuts),
//! the packed kernels add the corresponding `±0.0` products instead. Under IEEE-754
//! round-to-nearest this cannot change any running sum: `x + (±0.0) == x` for every `x`
//! except `x == -0.0` with a `+0.0` addend, and a running sum seeded from `+0.0` (or from a
//! bias that is never `-0.0`) can never reach `-0.0` — exact cancellation rounds to `+0.0`.
//! The proptests assert `to_bits()` equality, not approximate closeness.
//!
//! All drivers take a [`Scratch`] arena and perform **zero heap allocations** once the arena
//! has warmed up.
//!
//! # Kernel tiers
//!
//! [`gemm_accumulate_tiered`] dispatches on [`KernelTier`]:
//!
//! * [`KernelTier::Reference`] — the naive triple loop, retained as the bit-exactness oracle;
//! * [`KernelTier::Simd`] — the default. Full-width column strips run a register-tile
//!   microkernel built from fixed-size `f32` lane arrays (`MR×NR` accumulators initialized
//!   *from C*, stored back once after the k-loop) so LLVM autovectorizes the inner loops
//!   reliably. Two skinny shapes get their own form, chosen by shape alone: a column strip
//!   narrower than `NR` (every `n = 1` GEMV) keeps each scalar's running sum in a register
//!   in the reference form, and an `m = 1` product streams rank-1 row updates over the one
//!   C row. Because every output scalar still owns exactly one running sum whose k-terms are
//!   added in ascending order, every form is `to_bits()`-identical to `Reference`.
//! * [`KernelTier::FastMath`] — an explicitly-labeled tier that contracts each term into an
//!   FMA (or, without FMA hardware, splits the k-accumulation into even/odd partial sums).
//!   Changing the rounding breaks bit-exactness, so this tier is **never** a default anywhere
//!   and is pinned by forward-error-bounded tests instead (see `tests/kernel_tiers.rs` for
//!   the documented bound).
//!
//! [`gemm_accumulate_tiered`] additionally splits the M dimension of large products across
//! the [`bnn_pool`] work-stealing workers when [`KernelConfig::gemm_workers`] > 1. The
//! partition is deterministic *and* irrelevant to the numbers: every output row is computed
//! by a serial kernel with the same per-scalar addition order no matter which chunk it
//! lands in, so 1-vs-N-thread results are byte-identical (the property `tests/kernel_tiers.rs`
//! pins). The parallel path is opt-in precisely because it spawns scoped threads and
//! allocates queue state — the zero-allocation steady-state contract holds for the default
//! `gemm_workers == 1`, which runs inline on the calling thread.
//!
//! The active [`KernelConfig`] travels inside [`Scratch`] — every kernel driver and layer
//! already threads a scratch arena, so the tier selection needs no signature changes. The
//! process-wide default tier can be forced with the `SHIFT_BNN_KERNEL_TIER` environment
//! variable (`reference`, `simd`, `fastmath`), which is how CI's per-tier matrix legs keep
//! every tier building and passing.

use crate::conv::{expect_shape, ConvGeometry};
use crate::scratch::Scratch;
use crate::tensor::{Tensor, TensorError};
use std::sync::{Mutex, OnceLock};

/// Selects which GEMM implementation the kernel drivers run. See the module docs for the
/// contract of each tier; every tier except `FastMath` is `to_bits()`-identical to
/// `Reference`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KernelTier {
    /// Naive triple loop — the bit-exactness oracle.
    Reference,
    /// Register-tile microkernel (bit-exact, autovectorized). The default.
    Simd,
    /// FMA-contracted (or even/odd k-split) sums — fast but only ULP-close, never a default.
    FastMath,
}

impl KernelTier {
    /// Every tier, in oracle-first order (handy for equivalence sweeps).
    pub const ALL: [KernelTier; 3] =
        [KernelTier::Reference, KernelTier::Simd, KernelTier::FastMath];

    /// The tiers that are bit-identical to [`KernelTier::Reference`].
    pub const BIT_EXACT: [KernelTier; 2] = [KernelTier::Reference, KernelTier::Simd];

    /// Stable lowercase label (also the `SHIFT_BNN_KERNEL_TIER` spelling).
    pub fn label(self) -> &'static str {
        match self {
            KernelTier::Reference => "reference",
            KernelTier::Simd => "simd",
            KernelTier::FastMath => "fastmath",
        }
    }

    /// Parses a [`KernelTier::label`] back into a tier.
    pub fn parse(label: &str) -> Option<KernelTier> {
        KernelTier::ALL.into_iter().find(|t| t.label() == label)
    }

    /// Resolves a `SHIFT_BNN_KERNEL_TIER` setting to a tier.
    ///
    /// # Panics
    ///
    /// Panics on an unrecognized value, naming every valid spelling — a typo'd CI matrix
    /// leg must fail loudly rather than silently re-test the default tier.
    pub fn from_env_value(value: &str) -> KernelTier {
        KernelTier::parse(value).unwrap_or_else(|| {
            let valid: Vec<&str> = KernelTier::ALL.iter().map(|t| t.label()).collect();
            panic!("unknown SHIFT_BNN_KERNEL_TIER {value:?}; valid tiers are: {}", valid.join(", "))
        })
    }
}

impl Default for KernelTier {
    /// The process-wide default: [`KernelTier::Simd`], unless the `SHIFT_BNN_KERNEL_TIER`
    /// environment variable forces another tier (read once; CI's matrix legs use this).
    ///
    /// # Panics
    ///
    /// Panics on an unrecognized `SHIFT_BNN_KERNEL_TIER` value (see
    /// [`KernelTier::from_env_value`]) — a typo'd CI leg must fail loudly rather than
    /// silently re-test the default tier.
    fn default() -> Self {
        static FORCED: OnceLock<KernelTier> = OnceLock::new();
        *FORCED.get_or_init(|| match std::env::var("SHIFT_BNN_KERNEL_TIER") {
            Ok(v) => KernelTier::from_env_value(&v),
            Err(_) => KernelTier::Simd,
        })
    }
}

/// The kernel selection every driver reads from [`Scratch`]: which GEMM tier to run and how
/// many pool workers an M-split may use (`1` = inline, the zero-allocation default).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KernelConfig {
    /// The GEMM implementation tier.
    pub tier: KernelTier,
    /// Worker budget for the M-dimension parallel split; `1` runs inline on the calling
    /// thread and is the only setting covered by the zero-allocation contract.
    pub gemm_workers: usize,
}

impl Default for KernelConfig {
    fn default() -> Self {
        Self { tier: KernelTier::default(), gemm_workers: 1 }
    }
}

impl KernelConfig {
    /// A config pinned to one tier with the default inline worker budget.
    pub fn with_tier(tier: KernelTier) -> Self {
        Self { tier, gemm_workers: 1 }
    }
}

/// Row count of the SIMD microkernel's register tile.
const MR: usize = 4;
/// Column count of the SIMD microkernel's register tile: 16 f32 lanes = two 256-bit vectors
/// per row, so an `MR×NR` tile is 8 vector registers of accumulators — small enough to stay
/// register-resident, wide enough to hide the per-scalar addition-chain latency with ILP
/// across scalars.
const NR: usize = 16;

/// C\[m, j0..n\] += A·B\[.., j0..n\] as one naive triple loop: per output scalar, one
/// register accumulator seeded from `c`, k-ascending terms. With `j0 = 0` this is the
/// [`KernelTier::Reference`] oracle every other tier is measured against; the tiled tiers run
/// it on the column strip narrower than [`NR`] left over after their full-width tiles (for an
/// `n = 1` GEMV, that is the whole product — a plain dot loop per row).
#[inline(always)]
fn reference_cols(c: &mut [f32], a: &[f32], b: &[f32], m: usize, k: usize, n: usize, j0: usize) {
    for i in 0..m {
        let arow = &a[i * k..(i + 1) * k];
        for j in j0..n {
            let mut acc = c[i * n + j];
            for (p, &av) in arow.iter().enumerate() {
                acc += av * b[p * n + j];
            }
            c[i * n + j] = acc;
        }
    }
}

/// C\[1, n\] += A\[1, k\]·B\[k, n\] as `k` rank-1 row updates: each step streams one
/// contiguous B row into the single C row, so the inner loop is a unit-stride vectorizable
/// walk and C stays cache-resident. Every scalar still adds its terms k-ascending into C, the
/// reference order.
#[inline(always)]
fn row_updates(c: &mut [f32], a: &[f32], b: &[f32], n: usize) {
    for (p, &av) in a.iter().enumerate() {
        for (cv, &bv) in c.iter_mut().zip(&b[p * n..(p + 1) * n]) {
            *cv += av * bv;
        }
    }
}

/// One `ROWS × NR` register-tile microkernel, run by [`sweep`] over every full-width tile.
trait Tile {
    /// C\[i0..i0+ROWS, j0..j0+NR\] += A\[i0..i0+ROWS, ..\]·B\[.., j0..j0+NR\].
    fn tile<const ROWS: usize>(
        c: &mut [f32],
        a: &[f32],
        b: &[f32],
        k: usize,
        n: usize,
        i0: usize,
        j0: usize,
    );
}

/// Tile sweep shared by the tiled tiers: `MR`-row tiles, remainder rows through the same
/// tile at `ROWS = 1`, and the column strip narrower than `NR` through [`reference_cols`].
/// `#[inline(always)]` so that each `target_feature` wrapper recompiles the whole sweep —
/// tiles included — under its wider target features instead of calling back into baseline
/// code.
#[inline(always)]
fn sweep<T: Tile>(c: &mut [f32], a: &[f32], b: &[f32], m: usize, k: usize, n: usize) {
    let mut j0 = 0;
    while j0 + NR <= n {
        let mut i = 0;
        while i + MR <= m {
            T::tile::<MR>(c, a, b, k, n, i, j0);
            i += MR;
        }
        while i < m {
            T::tile::<1>(c, a, b, k, n, i, j0);
            i += 1;
        }
        j0 += NR;
    }
    reference_cols(c, a, b, m, k, n, j0);
}

/// The [`KernelTier::Simd`] tile: accumulators are **loaded from C**, the k-loop adds terms
/// in ascending order, and the tile is stored back once — so every scalar's addition order
/// is exactly the reference order with one C load and one store per scalar. The fixed-size
/// `[f32; NR]` rows are what lets LLVM keep the tile in vector registers.
struct SimdTile;

impl Tile for SimdTile {
    #[inline(always)]
    fn tile<const ROWS: usize>(
        c: &mut [f32],
        a: &[f32],
        b: &[f32],
        k: usize,
        n: usize,
        i0: usize,
        j0: usize,
    ) {
        let mut acc = [[0.0f32; NR]; ROWS];
        for (r, row) in acc.iter_mut().enumerate() {
            let src: &[f32; NR] = c[(i0 + r) * n + j0..][..NR].try_into().unwrap();
            *row = *src;
        }
        for p in 0..k {
            let brow: &[f32; NR] = b[p * n + j0..][..NR].try_into().unwrap();
            for (r, row) in acc.iter_mut().enumerate() {
                let av = a[(i0 + r) * k + p];
                for (lane, &bv) in row.iter_mut().zip(brow) {
                    *lane += av * bv;
                }
            }
        }
        for (r, row) in acc.iter().enumerate() {
            c[(i0 + r) * n + j0..][..NR].copy_from_slice(row);
        }
    }
}

/// The Simd kernel body, forms chosen by shape: an `m = 1` product as [`row_updates`], every
/// other shape as the [`SimdTile`] sweep.
#[inline(always)]
fn gemm_simd_body(c: &mut [f32], a: &[f32], b: &[f32], m: usize, k: usize, n: usize) {
    if m == 1 {
        row_updates(c, a, b, n);
    } else {
        sweep::<SimdTile>(c, a, b, m, k, n);
    }
}

/// [`gemm_simd_body`] recompiled with AVX2 enabled: an `NR = 16` tile row is two 256-bit
/// vectors instead of four 128-bit ones, halving the accumulator register pressure. Lane-wise
/// IEEE multiplies and adds round exactly like their scalar counterparts, so this path is
/// every bit as exact as the portable one — width changes *which registers* hold a scalar's
/// running sum, never the order of its additions. (No FMA: contraction would change
/// rounding, and this tier promises bit-exactness.)
///
/// # Safety
///
/// The running CPU must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn gemm_simd_avx2(c: &mut [f32], a: &[f32], b: &[f32], m: usize, k: usize, n: usize) {
    gemm_simd_body(c, a, b, m, k, n);
}

/// Returns whether the running CPU has AVX2 (detected once, cached).
#[cfg(target_arch = "x86_64")]
fn avx2_available() -> bool {
    static AVX2: OnceLock<bool> = OnceLock::new();
    *AVX2.get_or_init(|| std::arch::is_x86_feature_detected!("avx2"))
}

/// Returns whether the running CPU has AVX2 + FMA (detected once, cached).
#[cfg(target_arch = "x86_64")]
fn fma_available() -> bool {
    static FMA: OnceLock<bool> = OnceLock::new();
    *FMA.get_or_init(|| {
        std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
    })
}

/// The [`KernelTier::Simd`] GEMM: `to_bits()`-identical to [`reference_cols`] in every shape
/// form — on the AVX2 fast path exactly as on the portable one (see `gemm_simd_avx2`).
fn gemm_simd(c: &mut [f32], a: &[f32], b: &[f32], m: usize, k: usize, n: usize) {
    #[cfg(target_arch = "x86_64")]
    if avx2_available() {
        // SAFETY: guarded by runtime AVX2 detection.
        return unsafe { gemm_simd_avx2(c, a, b, m, k, n) };
    }
    gemm_simd_body(c, a, b, m, k, n);
}

/// The portable FastMath tile: the k-loop is split into even/odd partial sums (`acc0` seeded
/// from C, `acc1` from zero) that are combined once at the end. The two independent addition
/// chains double the throughput ceiling per scalar but **reorder the sum** — this tile is
/// deliberately not bit-exact.
struct SplitTile;

impl Tile for SplitTile {
    #[inline(always)]
    fn tile<const ROWS: usize>(
        c: &mut [f32],
        a: &[f32],
        b: &[f32],
        k: usize,
        n: usize,
        i0: usize,
        j0: usize,
    ) {
        let mut acc0 = [[0.0f32; NR]; ROWS];
        let mut acc1 = [[0.0f32; NR]; ROWS];
        for (r, row) in acc0.iter_mut().enumerate() {
            let src: &[f32; NR] = c[(i0 + r) * n + j0..][..NR].try_into().unwrap();
            *row = *src;
        }
        let mut p = 0;
        while p + 2 <= k {
            let brow0: &[f32; NR] = b[p * n + j0..][..NR].try_into().unwrap();
            let brow1: &[f32; NR] = b[(p + 1) * n + j0..][..NR].try_into().unwrap();
            for r in 0..ROWS {
                let av0 = a[(i0 + r) * k + p];
                let av1 = a[(i0 + r) * k + p + 1];
                for j in 0..NR {
                    acc0[r][j] += av0 * brow0[j];
                    acc1[r][j] += av1 * brow1[j];
                }
            }
            p += 2;
        }
        if p < k {
            let brow: &[f32; NR] = b[p * n + j0..][..NR].try_into().unwrap();
            for (r, row) in acc0.iter_mut().enumerate() {
                let av = a[(i0 + r) * k + p];
                for (lane, &bv) in row.iter_mut().zip(brow) {
                    *lane += av * bv;
                }
            }
        }
        for r in 0..ROWS {
            for j in 0..NR {
                c[(i0 + r) * n + j0 + j] = acc0[r][j] + acc1[r][j];
            }
        }
    }
}

/// The FastMath FMA tile: like [`SimdTile`] but each term lands via `f32::mul_add`, i.e. a
/// single-rounded hardware FMA. One fewer rounding per term changes the bits (that is why
/// this lives in the FastMath tier), and doubles the arithmetic throughput per instruction on
/// FMA hardware.
#[cfg(target_arch = "x86_64")]
struct FmaTile;

#[cfg(target_arch = "x86_64")]
impl Tile for FmaTile {
    #[inline(always)]
    fn tile<const ROWS: usize>(
        c: &mut [f32],
        a: &[f32],
        b: &[f32],
        k: usize,
        n: usize,
        i0: usize,
        j0: usize,
    ) {
        let mut acc = [[0.0f32; NR]; ROWS];
        for (r, row) in acc.iter_mut().enumerate() {
            let src: &[f32; NR] = c[(i0 + r) * n + j0..][..NR].try_into().unwrap();
            *row = *src;
        }
        for p in 0..k {
            let brow: &[f32; NR] = b[p * n + j0..][..NR].try_into().unwrap();
            for (r, row) in acc.iter_mut().enumerate() {
                let av = a[(i0 + r) * k + p];
                for (lane, &bv) in row.iter_mut().zip(brow) {
                    *lane = av.mul_add(bv, *lane);
                }
            }
        }
        for (r, row) in acc.iter().enumerate() {
            c[(i0 + r) * n + j0..][..NR].copy_from_slice(row);
        }
    }
}

/// The FastMath sweep over FMA tiles, compiled with AVX2+FMA enabled so `mul_add` lowers to
/// `vfmadd` instead of a libm call.
///
/// # Safety
///
/// The running CPU must support AVX2 and FMA.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn gemm_fastmath_fma(c: &mut [f32], a: &[f32], b: &[f32], m: usize, k: usize, n: usize) {
    sweep::<FmaTile>(c, a, b, m, k, n);
}

/// The [`KernelTier::FastMath`] GEMM. **Not bit-exact**: on FMA hardware every term is
/// contracted into a single-rounded `mul_add`, and the portable fallback reassociates each
/// scalar's sum into even/odd partial chains (see [`SplitTile`]). Either way the result
/// only promises closeness to [`reference_cols`] within the standard forward-error bound
/// `2·γ_{k+1}·(|c₀| + Σ|aᵢbᵢ|)` (`γ_k = k·ε/(1−k·ε)`, ε = f32 machine epsilon) asserted by
/// `tests/kernel_tiers.rs`. The form is the same [`sweep`] for every row count, and narrow
/// column strips run the (exact) reference loop, so the 1-vs-N-thread M-split identity still
/// holds for this tier on any given machine.
fn gemm_fastmath(c: &mut [f32], a: &[f32], b: &[f32], m: usize, k: usize, n: usize) {
    #[cfg(target_arch = "x86_64")]
    if fma_available() {
        // SAFETY: guarded by runtime AVX2+FMA detection.
        return unsafe { gemm_fastmath_fma(c, a, b, m, k, n) };
    }
    sweep::<SplitTile>(c, a, b, m, k, n);
}

/// Serial tier dispatch — the function every M-split chunk runs.
fn gemm_serial(
    tier: KernelTier,
    c: &mut [f32],
    a: &[f32],
    b: &[f32],
    m: usize,
    k: usize,
    n: usize,
) {
    match tier {
        KernelTier::Reference => reference_cols(c, a, b, m, k, n, 0),
        KernelTier::Simd => gemm_simd(c, a, b, m, k, n),
        KernelTier::FastMath => gemm_fastmath(c, a, b, m, k, n),
    }
}

/// Below this many multiply-accumulates an M-split costs more in thread traffic than it
/// saves; such products always run inline regardless of the worker budget.
const PARALLEL_MIN_MACS: usize = 64 * 1024;

/// The GEMM entry point, and the only one: C\[m,n\] += A\[m,k\] · B\[k,n\], row-major,
/// accumulating into whatever `c` already holds (zeros or a bias pre-fill). Dispatches to the
/// configured [`KernelTier`] and, when `cfg.gemm_workers > 1` and the product is large
/// enough, splits the M dimension into contiguous row chunks across the [`bnn_pool`]
/// workers. Every call records its `m·k·n` MAC volume in [`crate::profile`].
///
/// The split is byte-identical to the serial run for every tier and every worker count:
/// chunks are disjoint row ranges, each chunk runs a serial kernel, and no tier's per-scalar
/// result depends on which rows share its chunk (the Simd tier chooses *which* form computes
/// a scalar by the chunk's shape, but all its forms add that scalar's terms in the same
/// order; FastMath's form does not depend on the row count at all).
pub fn gemm_accumulate_tiered(
    cfg: KernelConfig,
    c: &mut [f32],
    a: &[f32],
    b: &[f32],
    m: usize,
    k: usize,
    n: usize,
) {
    debug_assert_eq!(c.len(), m * n);
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), k * n);
    // Profiling hook: the full MAC volume counts on the calling thread, before any split.
    crate::profile::record_gemm(cfg.tier, (m * k * n) as u64);
    let workers = cfg.gemm_workers.max(1);
    if workers == 1 || m < 2 || m * k * n < PARALLEL_MIN_MACS {
        return gemm_serial(cfg.tier, c, a, b, m, k, n);
    }
    // Contiguous row chunks, one per worker; each chunk is a disjoint &mut window of C. The
    // per-chunk mutex is uncontended (each job locks only its own chunk) — it exists to hand
    // a &mut slice through the pool's Fn(&self)-style job closure.
    let chunks = workers.min(m);
    let mut parts: Vec<Mutex<(usize, &mut [f32])>> = Vec::with_capacity(chunks);
    let mut rest = c;
    let mut row = 0;
    for t in 0..chunks {
        let hi = m * (t + 1) / chunks;
        let (head, tail) = rest.split_at_mut((hi - row) * n);
        parts.push(Mutex::new((row, head)));
        rest = tail;
        row = hi;
    }
    bnn_pool::run_indexed(chunks, workers, |t| {
        let mut guard = parts[t].lock().unwrap();
        let (lo, chunk) = &mut *guard;
        let rows = chunk.len() / n;
        gemm_serial(cfg.tier, chunk, &a[*lo * k..(*lo + rows) * k], b, rows, k, n);
    });
}

/// Packs `input` (`[N, H, W]`) into the im2col matrix `[N·K·K, OH·OW]`: row `(ic, ky, kx)`,
/// column `(oy, ox)`, out-of-bounds taps as `0.0`. Row order `(ic, ky, kx)` is exactly the
/// accumulation order of the reference forward loop.
#[allow(clippy::too_many_arguments)]
fn pack_im2col(
    col: &mut [f32],
    input: &[f32],
    n: usize,
    h: usize,
    w: usize,
    geom: &ConvGeometry,
    oh: usize,
    ow: usize,
) {
    let k = geom.kernel;
    let (stride, pad) = (geom.stride as isize, geom.padding as isize);
    let cols = oh * ow;
    debug_assert_eq!(col.len(), n * k * k * cols);
    for ic in 0..n {
        let plane = &input[ic * h * w..(ic + 1) * h * w];
        for ky in 0..k {
            for kx in 0..k {
                let row = &mut col[((ic * k + ky) * k + kx) * cols..][..cols];
                for oy in 0..oh {
                    let iy = oy as isize * stride + ky as isize - pad;
                    let dst = &mut row[oy * ow..(oy + 1) * ow];
                    if iy < 0 || iy >= h as isize {
                        dst.fill(0.0);
                        continue;
                    }
                    let src = &plane[iy as usize * w..(iy as usize + 1) * w];
                    for (ox, d) in dst.iter_mut().enumerate() {
                        let ix = ox as isize * stride + kx as isize - pad;
                        *d = if ix < 0 || ix >= w as isize { 0.0 } else { src[ix as usize] };
                    }
                }
            }
        }
    }
}

/// Packs `input` into the im2row matrix `[OH·OW, N·K·K]` (one contiguous patch per output
/// pixel) — the transpose of [`pack_im2col`], used as the GEMM `B` operand of the weight
/// gradient so its k-dimension enumerates output pixels in raster order.
#[allow(clippy::too_many_arguments)]
fn pack_im2row(
    row_mat: &mut [f32],
    input: &[f32],
    n: usize,
    h: usize,
    w: usize,
    geom: &ConvGeometry,
    oh: usize,
    ow: usize,
) {
    let k = geom.kernel;
    let (stride, pad) = (geom.stride as isize, geom.padding as isize);
    let patch = n * k * k;
    debug_assert_eq!(row_mat.len(), oh * ow * patch);
    for oy in 0..oh {
        for ox in 0..ow {
            let dst = &mut row_mat[(oy * ow + ox) * patch..][..patch];
            let mut q = 0;
            for ic in 0..n {
                let plane = &input[ic * h * w..(ic + 1) * h * w];
                for ky in 0..k {
                    let iy = oy as isize * stride + ky as isize - pad;
                    if iy < 0 || iy >= h as isize {
                        dst[q..q + k].fill(0.0);
                        q += k;
                        continue;
                    }
                    let src = &plane[iy as usize * w..(iy as usize + 1) * w];
                    for kx in 0..k {
                        let ix = ox as isize * stride + kx as isize - pad;
                        dst[q] = if ix < 0 || ix >= w as isize { 0.0 } else { src[ix as usize] };
                        q += 1;
                    }
                }
            }
        }
    }
}

/// Forward convolution into a caller-provided output tensor (shape `[M, OH, OW]`, any prior
/// contents overwritten), via im2col packing and the tiered GEMM. Bit-identical to
/// [`crate::conv::reference::conv2d_forward`].
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] on inconsistent operand shapes.
pub fn conv2d_forward_into(
    geom: &ConvGeometry,
    input: &Tensor,
    weights: &Tensor,
    bias: &Tensor,
    out: &mut Tensor,
    scratch: &mut Scratch,
) -> Result<(), TensorError> {
    let (n, m, k) = (geom.in_channels, geom.out_channels, geom.kernel);
    let in_shape = input.shape();
    if in_shape.len() != 3 || in_shape[0] != n {
        return Err(TensorError::ShapeMismatch { left: in_shape.to_vec(), right: vec![n, 0, 0] });
    }
    let (h, w) = (in_shape[1], in_shape[2]);
    expect_shape(weights, &[m, n, k, k])?;
    expect_shape(bias, &[m])?;
    let (oh, ow) = geom.output_size(h, w);
    debug_assert_eq!(out.shape(), &[m, oh, ow]);

    let cols = oh * ow;
    let kk = n * k * k;
    let mut col = scratch.take_f32(kk * cols);
    pack_im2col(&mut col, input.data(), n, h, w, geom, oh, ow);

    // Seed every output scalar with its channel bias — the reference loop starts `acc = b`.
    let out_d = out.data_mut();
    for om in 0..m {
        out_d[om * cols..(om + 1) * cols].fill(bias.data()[om]);
    }
    // Weights are already `[M, (ic, ky, kx)]` row-major: the GEMM A operand needs no packing.
    gemm_accumulate_tiered(scratch.kernel(), out_d, weights.data(), &col, m, kk, cols);
    scratch.put_f32(col);
    Ok(())
}

/// Input-gradient convolution into a caller-provided `[N, H, W]` tensor, bit-identical to
/// [`crate::conv::reference::conv2d_backward_input`].
///
/// The scatter loop of the reference accumulates into each input pixel in `(om, oy, ox)`
/// order. That is exactly the `(om, ky′, kx′)`-ordered k-dimension of a unit-stride
/// convolution over the *dilated* output gradient (stride−1 zeros between elements, embedded
/// with a `k−1−pad` border) with 180°-rotated, axis-swapped kernels — so the same
/// im2col+GEMM machinery applies. Geometries with `padding ≥ kernel` (which never occur in
/// the paper's models) fall back to the reference scatter.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] on inconsistent operand shapes.
pub fn conv2d_backward_input_into(
    geom: &ConvGeometry,
    grad_output: &Tensor,
    weights: &Tensor,
    input_h: usize,
    input_w: usize,
    grad_in: &mut Tensor,
    scratch: &mut Scratch,
) -> Result<(), TensorError> {
    let (n, m, k) = (geom.in_channels, geom.out_channels, geom.kernel);
    let (oh, ow) = geom.output_size(input_h, input_w);
    expect_shape(grad_output, &[m, oh, ow])?;
    expect_shape(weights, &[m, n, k, k])?;
    debug_assert_eq!(grad_in.shape(), &[n, input_h, input_w]);

    if geom.padding >= k {
        // Degenerate geometry outside the dilated-convolution formulation's domain.
        let reference = crate::conv::reference::conv2d_backward_input(
            geom,
            grad_output,
            weights,
            input_h,
            input_w,
        )?;
        grad_in.data_mut().copy_from_slice(reference.data());
        return Ok(());
    }

    // 1. Embed the output gradient: D[om, oy·s + border, ox·s + border] = go[om, oy, ox]
    //    with border = k − 1 − pad; everything else 0. A unit-stride valid convolution of D
    //    then has output extent exactly [input_h, input_w].
    let border = k - 1 - geom.padding;
    let (dh, dw) = (input_h + k - 1, input_w + k - 1);
    let mut dilated = scratch.take_f32(m * dh * dw);
    let go = grad_output.data();
    for om in 0..m {
        let plane = &mut dilated[om * dh * dw..(om + 1) * dh * dw];
        for oy in 0..oh {
            let y = oy * geom.stride + border;
            for ox in 0..ow {
                plane[y * dw + ox * geom.stride + border] = go[(om * oh + oy) * ow + ox];
            }
        }
    }

    // 2. Rotate + axis-swap the kernels: A[ic, (om, ky′, kx′)] = w[om, ic, k−1−ky′, k−1−kx′].
    let kk = m * k * k;
    let mut rot = scratch.take_f32(n * kk);
    let w_d = weights.data();
    for ic in 0..n {
        for om in 0..m {
            for ky in 0..k {
                for kx in 0..k {
                    rot[(ic * m + om) * k * k + ky * k + kx] =
                        w_d[((om * n + ic) * k + (k - 1 - ky)) * k + (k - 1 - kx)];
                }
            }
        }
    }

    // 3. im2col over D (kernel k, stride 1, no padding — the border is already embedded).
    let dil_geom =
        ConvGeometry { in_channels: m, out_channels: n, kernel: k, stride: 1, padding: 0 };
    let cols = input_h * input_w;
    let mut col = scratch.take_f32(kk * cols);
    pack_im2col(&mut col, &dilated, m, dh, dw, &dil_geom, input_h, input_w);

    let gi = grad_in.data_mut();
    gi.fill(0.0);
    gemm_accumulate_tiered(scratch.kernel(), gi, &rot, &col, n, kk, cols);

    scratch.put_f32(col);
    scratch.put_f32(rot);
    scratch.put_f32(dilated);
    Ok(())
}

/// Weight/bias-gradient convolution into caller-provided `[M, N, K, K]` / `[M]` tensors,
/// bit-identical to [`crate::conv::reference::conv2d_backward_weights`]: the GEMM k-dimension
/// enumerates output pixels in raster order, matching the reference's `(oy, ox)` accumulation.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] on inconsistent operand shapes.
pub fn conv2d_backward_weights_into(
    geom: &ConvGeometry,
    input: &Tensor,
    grad_output: &Tensor,
    grad_w: &mut Tensor,
    grad_b: &mut Tensor,
    scratch: &mut Scratch,
) -> Result<(), TensorError> {
    let (n, m, k) = (geom.in_channels, geom.out_channels, geom.kernel);
    let in_shape = input.shape();
    if in_shape.len() != 3 || in_shape[0] != n {
        return Err(TensorError::ShapeMismatch { left: in_shape.to_vec(), right: vec![n, 0, 0] });
    }
    let (h, w) = (in_shape[1], in_shape[2]);
    let (oh, ow) = geom.output_size(h, w);
    expect_shape(grad_output, &[m, oh, ow])?;
    debug_assert_eq!(grad_w.shape(), &[m, n, k, k]);
    debug_assert_eq!(grad_b.shape(), &[m]);

    let pixels = oh * ow;
    let patch = n * k * k;
    let mut rows = scratch.take_f32(pixels * patch);
    pack_im2row(&mut rows, input.data(), n, h, w, geom, oh, ow);

    let go = grad_output.data();
    let gb = grad_b.data_mut();
    for om in 0..m {
        let mut acc = 0.0f32;
        for &g in &go[om * pixels..(om + 1) * pixels] {
            acc += g;
        }
        gb[om] = acc;
    }

    let gw = grad_w.data_mut();
    gw.fill(0.0);
    gemm_accumulate_tiered(scratch.kernel(), gw, go, &rows, m, pixels, patch);
    scratch.put_f32(rows);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tensor(shape: &[usize], f: impl Fn(usize) -> f32) -> Tensor {
        let len = shape.iter().product();
        Tensor::from_vec(shape.to_vec(), (0..len).map(f).collect()).unwrap()
    }

    #[test]
    fn gemm_matches_naive_bitwise() {
        let (m, k, n) = (5, 7, 300); // 300 = 18 full tiles plus a 12-wide narrow strip
        let a = tensor(&[m, k], |i| ((i as f32) * 0.17).sin());
        let b = tensor(&[k, n], |i| ((i as f32) * 0.09).cos());
        let mut c = vec![0.0f32; m * n];
        gemm_accumulate_tiered(
            KernelConfig::with_tier(KernelTier::Simd),
            &mut c,
            a.data(),
            b.data(),
            m,
            k,
            n,
        );
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0f32;
                for p in 0..k {
                    acc += a.data()[i * k + p] * b.data()[p * n + j];
                }
                assert_eq!(c[i * n + j].to_bits(), acc.to_bits(), "({i},{j})");
            }
        }
    }

    #[test]
    fn conv_forward_into_matches_reference_bitwise() {
        let geom =
            ConvGeometry { in_channels: 3, out_channels: 5, kernel: 3, stride: 2, padding: 1 };
        let input = tensor(&[3, 9, 11], |i| (i as f32 * 0.7).sin());
        let weights = tensor(&[5, 3, 3, 3], |i| (i as f32 * 0.11).cos() * 0.4);
        let bias = tensor(&[5], |i| i as f32 * 0.05 - 0.1);
        let expect =
            crate::conv::reference::conv2d_forward(&geom, &input, &weights, &bias).unwrap();
        // Pin a bit-exact tier explicitly: the bitwise contract holds for every tier in
        // `KernelTier::BIT_EXACT` but not under a `SHIFT_BNN_KERNEL_TIER=fastmath` process
        // default (the CI tier matrix runs exactly that).
        let mut scratch = Scratch::new();
        scratch.set_kernel(KernelConfig { tier: KernelTier::Simd, gemm_workers: 1 });
        let mut out = scratch.take_tensor(expect.shape());
        conv2d_forward_into(&geom, &input, &weights, &bias, &mut out, &mut scratch).unwrap();
        for (got, want) in out.data().iter().zip(expect.data()) {
            assert_eq!(got.to_bits(), want.to_bits());
        }
    }

    #[test]
    fn degenerate_padding_falls_back_to_reference_bitwise() {
        // padding >= kernel is outside the dilated-gather formulation's domain; the driver
        // must detect it and reproduce the reference scatter exactly.
        let geom =
            ConvGeometry { in_channels: 2, out_channels: 3, kernel: 2, stride: 1, padding: 3 };
        let (h, w) = (5, 4);
        let (oh, ow) = geom.output_size(h, w);
        let weights = tensor(&[3, 2, 2, 2], |i| (i as f32 * 0.23).cos() * 0.5);
        let grad_out = tensor(&[3, oh, ow], |i| (i as f32 * 0.31).sin());
        let want = crate::conv::reference::conv2d_backward_input(&geom, &grad_out, &weights, h, w)
            .unwrap();
        let mut scratch = Scratch::new();
        let mut got = scratch.take_tensor(&[2, h, w]);
        conv2d_backward_input_into(&geom, &grad_out, &weights, h, w, &mut got, &mut scratch)
            .unwrap();
        for (g, t) in got.data().iter().zip(want.data()) {
            assert_eq!(g.to_bits(), t.to_bits());
        }
    }

    #[test]
    fn conv_backward_into_matches_reference_bitwise() {
        let geom =
            ConvGeometry { in_channels: 2, out_channels: 4, kernel: 3, stride: 2, padding: 1 };
        let (h, w) = (8, 7);
        let input = tensor(&[2, h, w], |i| (i as f32 * 0.37).sin());
        let weights = tensor(&[4, 2, 3, 3], |i| (i as f32 * 0.19).cos() * 0.3);
        let (oh, ow) = geom.output_size(h, w);
        let grad_out = tensor(&[4, oh, ow], |i| (i as f32 * 0.41).sin());

        let expect_gi =
            crate::conv::reference::conv2d_backward_input(&geom, &grad_out, &weights, h, w)
                .unwrap();
        let (expect_gw, expect_gb) =
            crate::conv::reference::conv2d_backward_weights(&geom, &input, &grad_out).unwrap();

        // Pinned bit-exact tier, as in the forward test: the CI tier matrix forces fastmath
        // via the environment, which is outside this test's bitwise contract.
        let mut scratch = Scratch::new();
        scratch.set_kernel(KernelConfig { tier: KernelTier::Simd, gemm_workers: 1 });
        let mut gi = scratch.take_tensor(expect_gi.shape());
        conv2d_backward_input_into(&geom, &grad_out, &weights, h, w, &mut gi, &mut scratch)
            .unwrap();
        let mut gw = scratch.take_tensor(expect_gw.shape());
        let mut gb = scratch.take_tensor(expect_gb.shape());
        conv2d_backward_weights_into(&geom, &input, &grad_out, &mut gw, &mut gb, &mut scratch)
            .unwrap();

        for (got, want) in gi.data().iter().zip(expect_gi.data()) {
            assert_eq!(got.to_bits(), want.to_bits(), "grad input");
        }
        for (got, want) in gw.data().iter().zip(expect_gw.data()) {
            assert_eq!(got.to_bits(), want.to_bits(), "grad weights");
        }
        for (got, want) in gb.data().iter().zip(expect_gb.data()) {
            assert_eq!(got.to_bits(), want.to_bits(), "grad bias");
        }
    }
}
