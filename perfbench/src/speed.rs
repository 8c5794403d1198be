//! Speed normalization: a fixed probe, owned by the benchmark and never by the program, whose
//! time tracks the machine's momentary speed.
//!
//! Shared cloud hosts change a core's throughput by up to ~1.6× within a second (a busy
//! hyper-thread sibling, host scheduling), on every kind of code, while a run lasts. Wall-clock
//! medians then move with the host rather than with the program. The benchmark probes before
//! and after each unit of work and reports the unit's time scaled by
//! `REFERENCE_NS / probe time` (the mean of the two probes): the time the unit would take at
//! the probe's reference speed.
//! A change to the program moves the scaled time exactly as it moves the wall clock; the
//! host's state cancels. Raw wall-clock figures are printed beside every scaled one.

use std::hint::black_box;
use std::time::{Duration, Instant};

/// The probe's time at the reference speed: its fast-state time (about the 5th percentile of
/// 26 000 probes over 20 s) on the machine the bounds were set on, a 2-vCPU Intel Xeon at
/// 2.0 GHz with AVX2, where the slow state's median is ~178 µs.
pub const REFERENCE_NS: f64 = 115_000.0;

/// Elements the probe works on: small enough to stay in L1/L2, so the probe measures the core.
const PROBE_LEN: usize = 4096;

/// One probe: transcendental math (the σ = softplus(ρ) kind of work) followed by a branchy
/// sort (the scheduling kind), on a fixed small input.
pub fn probe_ns() -> f64 {
    let start = Instant::now();
    let mut acc = 0.0f32;
    for i in 0..PROBE_LEN {
        let x = black_box(i as f32 * 1e-3 - 2.0);
        acc += x.exp().ln_1p();
    }
    let mut keys = [0u32; PROBE_LEN];
    for (i, key) in keys.iter_mut().enumerate() {
        *key = black_box(i as u32).wrapping_mul(2_654_435_761) >> 7;
    }
    keys.sort_unstable();
    black_box((acc, &keys));
    start.elapsed().as_nanos() as f64
}

/// Probes on `threads` threads at once and returns the mean probe time: the speed of a
/// multi-threaded phase, whose threads may sit on cores in different states.
pub fn probe_threads_ns(threads: usize) -> f64 {
    if threads <= 1 {
        return probe_ns();
    }
    let times: Vec<f64> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads).map(|_| scope.spawn(probe_ns)).collect();
        handles.into_iter().map(|h| h.join().expect("probe thread panicked")).collect()
    });
    times.iter().sum::<f64>() / threads as f64
}

/// Tracks the machine's speed factor (probe time over [`REFERENCE_NS`]) across a run.
#[derive(Debug)]
pub struct Speed {
    factor: f64,
    at: Instant,
    max_age: Duration,
    probes: usize,
    factors_sum: f64,
}

impl Speed {
    /// Probes now; later probes happen when the last one is older than `max_age`.
    pub fn new(max_age: Duration) -> Speed {
        let mut speed =
            Speed { factor: 1.0, at: Instant::now(), max_age, probes: 0, factors_sum: 0.0 };
        speed.probe();
        speed
    }

    /// Probes now and returns the new factor.
    pub fn probe(&mut self) -> f64 {
        self.record(probe_ns())
    }

    fn record(&mut self, ns: f64) -> f64 {
        self.factor = ns / REFERENCE_NS;
        self.at = Instant::now();
        self.probes += 1;
        self.factors_sum += self.factor;
        self.factor
    }

    /// The current factor, re-probing first when the last probe is too old.
    pub fn factor(&mut self) -> f64 {
        if self.at.elapsed() >= self.max_age {
            self.probe();
        }
        self.factor
    }

    /// Probes taken and their mean factor, for the run's report.
    pub fn summary(&self) -> (usize, f64) {
        (self.probes, self.factors_sum / self.probes.max(1) as f64)
    }
}

/// A time measured between two speed factors, scaled to the reference speed by their mean.
pub fn normalize(raw: f64, before: f64, after: f64) -> f64 {
    raw * 2.0 / (before + after)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalization_divides_by_the_mean_factor() {
        assert_eq!(normalize(10.0, 1.0, 1.0), 10.0);
        assert_eq!(normalize(16.0, 1.6, 1.6), 10.0);
        assert_eq!(normalize(12.0, 1.0, 2.0), 8.0);
        assert_eq!(normalize(12.0, 2.0, 1.0), 8.0);
    }

    #[test]
    fn probes_take_time_and_refresh_when_stale() {
        assert!(probe_ns() > 0.0);
        assert!(probe_threads_ns(2) > 0.0);
        let mut speed = Speed::new(Duration::ZERO);
        speed.factor();
        speed.factor();
        assert_eq!(speed.summary().0, 3, "a zero max age probes on every call");
        let mut lazy = Speed::new(Duration::from_secs(3600));
        lazy.factor();
        assert_eq!(lazy.summary().0, 1);
    }
}
