//! Thread-local hot-path profiling counters: GEMM calls/MACs per [`KernelTier`] and the
//! scratch arena's `f32` high-water mark.
//!
//! Each counter is a plain `Cell<u64>` in thread-local storage — bumping one is a single
//! register-width store with no atomics, no branches beyond the TLS access, and no heap
//! traffic, so the hooks stay compiled into release builds. Counters are **per thread** by
//! design: a deterministic profiled replay runs its replica on one thread and reads exactly
//! that thread's movement. The one wrinkle is the tiered GEMM's worker split — the hook in
//! [`crate::kernels::gemm_accumulate_tiered`] fires on the *calling* thread before any
//! split, counting the full `m·k·n` volume, so parallel dispatch loses nothing.
//!
//! The presentation layer (snapshot structs, JSON) lives downstream in `bnn-obs`; this
//! module only owns the raw cells so the tensor crate keeps zero new dependencies.

use std::cell::Cell;

use crate::kernels::KernelTier;

const TIERS: usize = KernelTier::ALL.len();

thread_local! {
    static GEMM_CALLS: [Cell<u64>; TIERS] = const { [Cell::new(0), Cell::new(0), Cell::new(0)] };
    static GEMM_MACS: [Cell<u64>; TIERS] = const { [Cell::new(0), Cell::new(0), Cell::new(0)] };
    static SCRATCH_OUTSTANDING: Cell<u64> = const { Cell::new(0) };
    static SCRATCH_HIGH_WATER: Cell<u64> = const { Cell::new(0) };
}

/// Records one GEMM dispatch of `macs = m·k·n` multiply-accumulates under `tier`.
#[inline]
pub fn record_gemm(tier: KernelTier, macs: u64) {
    // Declaration order is `KernelTier::ALL` order, so the discriminant is the index.
    let i = tier as usize;
    GEMM_CALLS.with(|c| c[i].set(c[i].get() + 1));
    GEMM_MACS.with(|c| c[i].set(c[i].get() + macs));
}

/// This thread's cumulative GEMM call counts, per tier in [`KernelTier::ALL`] order.
pub fn gemm_calls() -> [u64; TIERS] {
    GEMM_CALLS.with(|c| c.each_ref().map(Cell::get))
}

/// This thread's cumulative GEMM MAC volume, per tier in [`KernelTier::ALL`] order.
pub fn gemm_macs() -> [u64; TIERS] {
    GEMM_MACS.with(|c| c.each_ref().map(Cell::get))
}

/// Records `slots` `f32` slots leaving the scratch arena, raising the high-water mark.
#[inline]
pub fn scratch_take(slots: u64) {
    SCRATCH_OUTSTANDING.with(|out| {
        let now = out.get() + slots;
        out.set(now);
        SCRATCH_HIGH_WATER.with(|hw| {
            if now > hw.get() {
                hw.set(now);
            }
        });
    });
}

/// Records `slots` `f32` slots returning to the scratch arena.
#[inline]
pub fn scratch_put(slots: u64) {
    SCRATCH_OUTSTANDING.with(|out| out.set(out.get().saturating_sub(slots)));
}

/// This thread's scratch high-water mark (`f32` slots) since the last
/// [`reset_scratch_high_water`].
pub fn scratch_high_water() -> u64 {
    SCRATCH_HIGH_WATER.with(|hw| hw.get())
}

/// Resets the high-water mark to the currently outstanding slots, starting a fresh
/// measurement region (callers bracket a request with this + [`scratch_high_water`]).
pub fn reset_scratch_high_water() {
    let outstanding = SCRATCH_OUTSTANDING.with(|out| out.get());
    SCRATCH_HIGH_WATER.with(|hw| hw.set(outstanding));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gemm_counters_accumulate_per_tier() {
        let before_calls = gemm_calls();
        let before_macs = gemm_macs();
        record_gemm(KernelTier::Simd, 1000);
        record_gemm(KernelTier::Simd, 500);
        record_gemm(KernelTier::Reference, 10);
        let calls = gemm_calls();
        let macs = gemm_macs();
        assert_eq!(calls[1] - before_calls[1], 2);
        assert_eq!(macs[1] - before_macs[1], 1500);
        assert_eq!(calls[0] - before_calls[0], 1);
        assert_eq!(macs[0] - before_macs[0], 10);
    }

    #[test]
    fn scratch_high_water_tracks_the_peak_between_resets() {
        reset_scratch_high_water();
        let base = scratch_high_water();
        scratch_take(100);
        scratch_take(50);
        scratch_put(50);
        scratch_take(20);
        assert_eq!(scratch_high_water() - base, 150, "peak was 100+50 outstanding");
        scratch_put(120);
        reset_scratch_high_water();
        assert_eq!(scratch_high_water(), base, "reset returns to outstanding level");
    }
}
