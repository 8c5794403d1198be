//! Hot-path profiling snapshots: per-`KernelTier` GEMM MAC/call counters, ε-word
//! generation counts, and scratch-arena high-water marks.
//!
//! The raw counters live next to the hot code they count (`bnn_tensor::profile`,
//! `bnn_lfsr::profile`) as thread-local plain `Cell`s — bumping one is a register-width
//! store with no atomics and no heap traffic, so the hooks are safe to leave compiled in.
//! This module holds the *presentation* types: a [`ProfileSnapshot`] is a point-in-time
//! copy of those counters, and subtracting two snapshots around a request yields its
//! [`ProfileSnapshot::delta_since`] — the per-request "what did this answer cost in MACs,
//! ε words and scratch bytes" breakdown the obs benchmark commits.
//!
//! Counters are per-thread by design: deterministic profiled replays run the replica on the
//! calling thread. GEMM hooks record the full `m·k·n` MAC volume *before* any worker split,
//! so tiered-parallel calls still attribute their whole volume to the caller.

use shift_bnn::sweep::json::Json;

/// Kernel-tier labels in the tensor crate's oracle-first order — index `i` of the per-tier
/// arrays below counts tier `TIER_LABELS[i]`.
pub const TIER_LABELS: [&str; 3] = ["reference", "simd", "fastmath"];

/// A point-in-time copy of the thread-local hot-path counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProfileSnapshot {
    /// GEMM invocations per kernel tier (in [`TIER_LABELS`] order).
    pub gemm_calls: [u64; 3],
    /// Multiply-accumulate volume (`m·k·n` summed) per kernel tier.
    pub gemm_macs: [u64; 3],
    /// ε values drawn from the GRNG (each LFSR word yields 64 of them on the batch path).
    pub epsilon_values: u64,
    /// Scratch-arena high-water mark in `f32` slots since the last reset.
    pub scratch_high_water: u64,
}

impl ProfileSnapshot {
    /// The counter movement between an `earlier` snapshot and this one. Monotone counters
    /// subtract; the high-water mark carries this snapshot's value (callers reset the mark
    /// before the measured region, so it *is* the region's peak).
    pub fn delta_since(&self, earlier: &ProfileSnapshot) -> ProfileSnapshot {
        let mut delta = *self;
        for i in 0..TIER_LABELS.len() {
            delta.gemm_calls[i] -= earlier.gemm_calls[i];
            delta.gemm_macs[i] -= earlier.gemm_macs[i];
        }
        delta.epsilon_values -= earlier.epsilon_values;
        delta
    }

    /// Total GEMM calls across tiers.
    pub fn total_gemm_calls(&self) -> u64 {
        self.gemm_calls.iter().sum()
    }

    /// Total MAC volume across tiers.
    pub fn total_gemm_macs(&self) -> u64 {
        self.gemm_macs.iter().sum()
    }

    /// The snapshot as a `sweep::json` document (every tier, fixed order).
    pub fn to_json(&self) -> Json {
        let tiers = TIER_LABELS.iter().enumerate().map(|(i, label)| {
            (
                label.to_string(),
                Json::obj([
                    ("calls", Json::UInt(self.gemm_calls[i])),
                    ("macs", Json::UInt(self.gemm_macs[i])),
                ]),
            )
        });
        Json::obj([
            ("gemm", Json::obj(tiers.collect::<Vec<_>>())),
            ("gemm_calls_total", Json::UInt(self.total_gemm_calls())),
            ("gemm_macs_total", Json::UInt(self.total_gemm_macs())),
            ("epsilon_values", Json::UInt(self.epsilon_values)),
            ("scratch_high_water", Json::UInt(self.scratch_high_water)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delta_subtracts_monotone_counters_and_keeps_the_peak() {
        let before = ProfileSnapshot {
            gemm_calls: [0, 3, 0],
            gemm_macs: [0, 3000, 0],
            epsilon_values: 128,
            scratch_high_water: 0,
        };
        let after = ProfileSnapshot {
            gemm_calls: [0, 5, 1],
            gemm_macs: [0, 5000, 400],
            epsilon_values: 192,
            scratch_high_water: 777,
        };
        let delta = after.delta_since(&before);
        assert_eq!(delta.gemm_calls, [0, 2, 1]);
        assert_eq!(delta.gemm_macs, [0, 2000, 400]);
        assert_eq!(delta.epsilon_values, 64);
        assert_eq!(delta.scratch_high_water, 777);
        assert_eq!(delta.total_gemm_calls(), 3);
        assert_eq!(delta.total_gemm_macs(), 2400);
    }

    #[test]
    fn json_lists_all_tiers_in_fixed_order() {
        let snap = ProfileSnapshot::default();
        let text = snap.to_json().to_compact();
        let mut last = 0;
        for label in TIER_LABELS {
            let at = text.find(&format!("\"{label}\"")).expect("tier present");
            assert!(at > last, "tiers must appear in declaration order");
            last = at;
        }
        assert!(text.contains("\"epsilon_values\":0"));
    }
}
