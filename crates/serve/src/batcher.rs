//! The dynamic batcher: deterministic request coalescing in a simulated tick domain.
//!
//! Production batchers trade latency for throughput with two knobs — close a batch when it is
//! *full* or when its oldest request has *waited long enough*. Both knobs here operate on
//! simulated **ticks** carried by the requests themselves; the batcher never reads a wall
//! clock, so the same trace always coalesces into the same batches, on any machine, at any
//! worker count. That determinism is what lets the serving tests compare batch-size-1 against
//! coalesced execution and 1 worker against N workers byte-for-byte.
//!
//! Coalescing and device timing are one state machine, the crate-internal `BatchClock`: an
//! [`InferenceEngine`](crate::InferenceEngine) times a trace on one clock, every cluster shard
//! runs its own, and [`plan_batches`] drives its coalescing half alone.

use crate::engine::{
    request_service_cost, slow_multiplier, BatchStat, Slowdown, VersionSwap, BATCH_OVERHEAD_TICKS,
};
use crate::request::InferRequest;
use crate::spec::ServeMode;

/// The two-knob coalescing policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchPolicy {
    /// A batch closes the moment it holds this many requests.
    pub max_batch: usize,
    /// A batch closes `max_wait_ticks` after its first request arrived, full or not.
    pub max_wait_ticks: u64,
}

impl BatchPolicy {
    /// The degenerate policy that never coalesces: every request is its own batch, closed on
    /// arrival. The baseline the batched-vs-unbatched speedup is measured against.
    pub fn unbatched() -> BatchPolicy {
        BatchPolicy { max_batch: 1, max_wait_ticks: 0 }
    }

    /// A short machine-readable label, e.g. `"b8w32"`.
    pub fn label(&self) -> String {
        format!("b{}w{}", self.max_batch, self.max_wait_ticks)
    }
}

/// One planned batch: which requests it coalesced and the tick it closed at.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchPlan {
    /// Tick at which the batch closed (became eligible to execute).
    pub close_tick: u64,
    /// Indices into the planned request slice, in arrival order.
    pub requests: Vec<usize>,
}

/// Coalesces an arrival-ordered request trace into batches under `policy`.
///
/// Semantics, in arrival order:
///
/// * a batch *opens* when its first request arrives, setting its deadline to
///   `arrival + max_wait_ticks`;
/// * a request arriving at or before the open batch's deadline joins it; one arriving after
///   the deadline closes the open batch at the deadline and opens a new one;
/// * a batch also closes — immediately, at the joining request's arrival tick — when it
///   reaches `max_batch` requests;
/// * the trailing batch closes at its deadline (the engine has no "end of input" oracle a
///   real open-loop arrival process wouldn't have).
///
/// This is the coalescing half of the batch clock the engine and every cluster shard time
/// their batches on, driven without the device.
///
/// # Panics
///
/// Panics when `policy.max_batch` is zero or the trace is not sorted by `arrival_tick`.
pub fn plan_batches(requests: &[InferRequest], policy: BatchPolicy) -> Vec<BatchPlan> {
    let mut coalescer = Coalescer::new(policy);
    let mut plans = Vec::new();
    let mut close = |close_tick, members: &[usize]| {
        plans.push(BatchPlan { close_tick, requests: members.to_vec() });
    };
    let mut previous_arrival = 0;
    for (i, request) in requests.iter().enumerate() {
        assert!(
            request.arrival_tick >= previous_arrival,
            "request trace must be sorted by arrival_tick (index {i})"
        );
        previous_arrival = request.arrival_tick;
        coalescer.join(i, request.arrival_tick, &mut close);
    }
    coalescer.finish(&mut close);
    plans
}

/// The coalescing half of the batch clock: the one open batch and its wait deadline. Each
/// closing batch is handed to a `close(close_tick, members)` callback, then emptied.
#[derive(Debug)]
struct Coalescer<M> {
    policy: BatchPolicy,
    open: Vec<M>,
    deadline: u64,
}

impl<M> Coalescer<M> {
    fn new(policy: BatchPolicy) -> Coalescer<M> {
        assert!(policy.max_batch >= 1, "max_batch must be at least 1");
        Coalescer { policy, open: Vec::new(), deadline: 0 }
    }

    fn close(&mut self, tick: u64, close: &mut impl FnMut(u64, &[M])) {
        close(tick, &self.open);
        self.open.clear();
    }

    /// Advances to tick `t`: an open batch whose deadline `t` is strictly past closed at
    /// that deadline.
    fn advance_to(&mut self, t: u64, close: &mut impl FnMut(u64, &[M])) {
        if !self.open.is_empty() && t > self.deadline {
            self.close(self.deadline, close);
        }
    }

    /// Joins `member` arriving at `t`: an empty batch opens with a fresh wait deadline, and a
    /// batch that fills closes at once, at `t`.
    fn join(&mut self, member: M, t: u64, close: &mut impl FnMut(u64, &[M])) {
        self.advance_to(t, close);
        if self.open.is_empty() {
            self.deadline = t + self.policy.max_wait_ticks;
        }
        self.open.push(member);
        if self.open.len() == self.policy.max_batch {
            self.close(t, close);
        }
    }

    /// Closes the trailing batch at its deadline.
    fn finish(&mut self, close: &mut impl FnMut(u64, &[M])) {
        if !self.open.is_empty() {
            self.close(self.deadline, close);
        }
    }
}

/// The device half of the batch clock: one simulated accelerator serving closed batches one
/// at a time, in close order.
#[derive(Debug)]
struct Device {
    mode: ServeMode,
    /// ε per sample of version 0, then of each scheduled swap, in order.
    epsilon_counts: Vec<usize>,
    /// Swap activation ticks (parallel to `epsilon_counts[1..]`).
    swap_ticks: Vec<u64>,
    /// Fault-injected slow windows on this device.
    slowdowns: Vec<Slowdown>,
    /// Tick the last closed batch ends at.
    free_at: u64,
    /// Every closed batch, in close (= service) order; end ticks are non-decreasing.
    batches: Vec<BatchStat>,
    /// `batches[..completed]` had ended by the last backlog query.
    completed: usize,
    /// Requests in `batches[completed..]`: queued behind the device or in service.
    in_flight: usize,
}

impl Device {
    /// Times a batch that is ready at `ready`: service starts at `max(ready, free_at)`, the
    /// version active at that start tick prices it, and it pays the batch overhead plus each
    /// member's service cost, stretched by any slow window containing the start. Returns
    /// `(start, version, end)`.
    fn time(&self, ready: u64, samples: impl Iterator<Item = usize>) -> (u64, usize, u64) {
        let start = ready.max(self.free_at);
        let version = self.swap_ticks.iter().take_while(|&&at| at <= start).count();
        let epsilon = self.epsilon_counts[version];
        let service = BATCH_OVERHEAD_TICKS
            + samples.map(|s| request_service_cost(self.mode, epsilon, s)).sum::<u64>();
        (start, version, start + slow_multiplier(&self.slowdowns, start) * service)
    }

    /// Serves a batch that closed at `close_tick` with `members` as `(index, samples)`.
    fn serve(&mut self, close_tick: u64, members: &[(usize, usize)]) {
        let (start_tick, version, end_tick) =
            self.time(close_tick, members.iter().map(|&(_, samples)| samples));
        self.free_at = end_tick;
        self.in_flight += members.len();
        self.batches.push(BatchStat {
            close_tick,
            start_tick,
            end_tick,
            size: members.len(),
            version,
        });
    }
}

/// The batch clock: the one implementation of coalescing and device timing, driven request by
/// request. [`InferenceEngine`](crate::InferenceEngine) times a whole trace on one clock;
/// every cluster shard runs its own, queried between admissions for routing, admission control
/// and failover, and phase B executes exactly the batches it closed.
///
/// Admissions and queries must come with non-decreasing ticks. Members are admitted as
/// `(index, samples)`, where `samples` is the count the request is priced and answered at.
/// Closed batches carry no member list: batch `k` holds the next `size` members in admission
/// order, evicted members excluded.
#[derive(Debug)]
pub(crate) struct BatchClock {
    batch: Coalescer<(usize, usize)>,
    device: Device,
}

impl BatchClock {
    /// A clock for `policy` on a `mode` device whose version 0 draws `base_epsilon` ε per
    /// sample, with a swap schedule (sorted by `at_tick`) and slow windows.
    pub(crate) fn new(
        policy: BatchPolicy,
        mode: ServeMode,
        base_epsilon: usize,
        swaps: &[VersionSwap],
        slowdowns: &[Slowdown],
    ) -> BatchClock {
        let mut epsilon_counts = vec![base_epsilon];
        epsilon_counts.extend(swaps.iter().map(|s| s.source.epsilon_count()));
        BatchClock {
            batch: Coalescer::new(policy),
            device: Device {
                mode,
                epsilon_counts,
                swap_ticks: swaps.iter().map(|s| s.at_tick).collect(),
                slowdowns: slowdowns.to_vec(),
                free_at: 0,
                batches: Vec::new(),
                completed: 0,
                in_flight: 0,
            },
        }
    }

    /// Advances to tick `t`, closing the open batch at its deadline if `t` is past it.
    fn advance_to(&mut self, t: u64) {
        let device = &mut self.device;
        self.batch.advance_to(t, &mut |tick, members| device.serve(tick, members));
    }

    /// Admits request `index`, priced at `samples`, at tick `t`.
    pub(crate) fn admit(&mut self, index: usize, samples: usize, t: u64) {
        let device = &mut self.device;
        self.batch.join((index, samples), t, &mut |tick, members| device.serve(tick, members));
    }

    /// Backlog at tick `t`: requests admitted but not yet completed (waiting in the open
    /// batch, queued behind the device, or in service).
    pub(crate) fn backlog(&mut self, t: u64) -> usize {
        self.advance_to(t);
        let device = &mut self.device;
        while let Some(batch) = device.batches.get(device.completed).filter(|b| b.end_tick <= t) {
            device.in_flight -= batch.size;
            device.completed += 1;
        }
        self.batch.open.len() + device.in_flight
    }

    /// Admission-time completion estimate for a request of `samples` arriving at `t`: the
    /// device drains its current queue, then one fresh batch holding only this request runs.
    /// Ignores co-members the open batch would contribute, so it is a lower bound, used only
    /// to shed requests that *cannot* make their deadline.
    pub(crate) fn estimate_end(&self, t: u64, samples: usize) -> u64 {
        self.device.time(t, std::iter::once(samples)).2
    }

    /// Evicts the open (not yet dispatched) batch at crash tick `t` and returns its member
    /// indices: a batch whose deadline already passed closed before the crash and completes
    /// normally. The evicted members are the tail of the admission order.
    pub(crate) fn evict_open(&mut self, t: u64) -> Vec<usize> {
        self.advance_to(t);
        self.batch.open.drain(..).map(|(index, _)| index).collect()
    }

    /// Closes the trailing batch at its deadline and returns every batch, in service order.
    pub(crate) fn finish(mut self) -> Vec<BatchStat> {
        let device = &mut self.device;
        self.batch.finish(&mut |tick, members| device.serve(tick, members));
        self.device.batches
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{ModelSource, ModelSpec};
    use bnn_tensor::Tensor;

    fn trace(arrivals: &[u64]) -> Vec<InferRequest> {
        arrivals
            .iter()
            .enumerate()
            .map(|(i, &arrival_tick)| InferRequest {
                id: i as u64,
                arrival_tick,
                input: Tensor::filled(&[2], 0.0),
                samples: 1,
                seed: i as u64,
            })
            .collect()
    }

    fn shape(plans: &[BatchPlan]) -> Vec<(u64, Vec<usize>)> {
        plans.iter().map(|p| (p.close_tick, p.requests.clone())).collect()
    }

    #[test]
    fn unbatched_policy_closes_every_request_on_arrival() {
        let plans = plan_batches(&trace(&[0, 3, 9]), BatchPolicy::unbatched());
        assert_eq!(shape(&plans), vec![(0, vec![0]), (3, vec![1]), (9, vec![2])]);
    }

    #[test]
    fn size_trigger_closes_at_the_filling_requests_arrival() {
        let policy = BatchPolicy { max_batch: 2, max_wait_ticks: 100 };
        let plans = plan_batches(&trace(&[0, 4, 5, 7]), policy);
        assert_eq!(shape(&plans), vec![(4, vec![0, 1]), (7, vec![2, 3])]);
    }

    #[test]
    fn wait_trigger_closes_at_the_deadline() {
        let policy = BatchPolicy { max_batch: 8, max_wait_ticks: 5 };
        // Request at t=6 is past the first batch's deadline (0 + 5); request at t=5 is not.
        let plans = plan_batches(&trace(&[0, 5, 6]), policy);
        assert_eq!(shape(&plans), vec![(5, vec![0, 1]), (11, vec![2])]);
    }

    #[test]
    fn arrival_exactly_at_the_deadline_still_joins() {
        let policy = BatchPolicy { max_batch: 8, max_wait_ticks: 10 };
        let plans = plan_batches(&trace(&[2, 12]), policy);
        assert_eq!(shape(&plans), vec![(12, vec![0, 1])]);
    }

    #[test]
    fn trailing_batch_closes_at_its_deadline() {
        let policy = BatchPolicy { max_batch: 8, max_wait_ticks: 7 };
        let plans = plan_batches(&trace(&[40]), policy);
        assert_eq!(shape(&plans), vec![(47, vec![0])]);
    }

    #[test]
    fn every_request_lands_in_exactly_one_batch() {
        let arrivals: Vec<u64> = (0..37).map(|i| i * 3).collect();
        for policy in [
            BatchPolicy::unbatched(),
            BatchPolicy { max_batch: 4, max_wait_ticks: 2 },
            BatchPolicy { max_batch: 5, max_wait_ticks: 50 },
        ] {
            let plans = plan_batches(&trace(&arrivals), policy);
            let mut seen: Vec<usize> = plans.iter().flat_map(|p| p.requests.clone()).collect();
            let in_order = seen.clone();
            seen.sort_unstable();
            seen.dedup();
            assert_eq!(seen, (0..37).collect::<Vec<_>>(), "{}", policy.label());
            assert_eq!(in_order, (0..37).collect::<Vec<_>>(), "batches preserve arrival order");
            for plan in &plans {
                assert!(plan.requests.len() <= policy.max_batch);
            }
        }
    }

    #[test]
    fn empty_trace_plans_no_batches() {
        assert!(plan_batches(&[], BatchPolicy::unbatched()).is_empty());
    }

    #[test]
    #[should_panic(expected = "sorted by arrival_tick")]
    fn unsorted_trace_is_rejected() {
        plan_batches(&trace(&[5, 3]), BatchPolicy::unbatched());
    }

    #[test]
    fn policy_labels_are_stable() {
        assert_eq!(BatchPolicy::unbatched().label(), "b1w0");
        assert_eq!(BatchPolicy { max_batch: 16, max_wait_ticks: 64 }.label(), "b16w64");
    }

    fn clock(policy: BatchPolicy) -> BatchClock {
        BatchClock::new(policy, ServeMode::MonteCarlo, 1024, &[], &[])
    }

    #[test]
    fn evict_open_returns_exactly_the_open_tail() {
        let mut clock = clock(BatchPolicy { max_batch: 3, max_wait_ticks: 10 });
        for (index, t) in [(0, 0), (1, 1), (2, 2), (3, 4), (4, 5)] {
            clock.admit(index, 1, t);
        }
        // 0..3 filled and closed at t = 2; 3 and 4 are still open (deadline 14) at t = 6.
        assert_eq!(clock.evict_open(6), vec![3, 4]);
        assert_eq!(clock.evict_open(7), Vec::<usize>::new(), "nothing is left to evict");
        clock.admit(5, 1, 20);
        // Past its deadline the open batch closed before the crash: committed, not open.
        assert_eq!(clock.evict_open(31), Vec::<usize>::new());
        let closed: Vec<(u64, usize)> =
            clock.finish().iter().map(|b| (b.close_tick, b.size)).collect();
        assert_eq!(closed, vec![(2, 3), (30, 1)], "the evicted members never close");
    }

    #[test]
    fn backlog_drops_batches_completed_by_t() {
        let policy = BatchPolicy { max_batch: 2, max_wait_ticks: 100 };
        let mut clock = clock(policy);
        clock.admit(0, 1, 0);
        clock.admit(1, 1, 0); // fills: closes and starts at 0
        clock.admit(2, 1, 1); // stays open until its deadline, 101
        let mut twin = self::clock(policy);
        twin.admit(0, 1, 0);
        twin.admit(1, 1, 0);
        twin.admit(2, 1, 1);
        let ends: Vec<u64> = twin.finish().iter().map(|b| b.end_tick).collect();
        assert!(ends[0] < 101);
        assert_eq!(clock.backlog(1), 3);
        assert_eq!(clock.backlog(ends[0] - 1), 3, "in service until its end tick");
        assert_eq!(clock.backlog(ends[0]), 1, "a batch ending at t is complete at t");
        assert_eq!(clock.backlog(ends[1] - 1), 1);
        assert_eq!(clock.backlog(ends[1]), 0);
    }

    #[test]
    fn estimate_end_prices_at_the_version_active_at_the_estimated_start() {
        let base = ModelSpec::mlp(1).epsilon_count();
        let swapped = ModelSpec::lenet(1);
        let swapped_epsilon = swapped.epsilon_count();
        let swaps = [VersionSwap { at_tick: 10, source: ModelSource::Spec(swapped) }];
        let mut clock =
            BatchClock::new(BatchPolicy::unbatched(), ServeMode::MonteCarlo, base, &swaps, &[]);
        let cost = |epsilon| request_service_cost(ServeMode::MonteCarlo, epsilon, 4);
        // An idle device starts at the arrival tick itself, at the version active then.
        let before = clock.estimate_end(3, 4) - 3;
        let after = clock.estimate_end(10, 4) - 10;
        assert_ne!(before, after);
        assert_eq!(before + cost(swapped_epsilon), after + cost(base));
        // Busy past the swap: a request arriving before it starts, and is priced, after it.
        let free_at = clock.estimate_end(0, 4);
        clock.admit(0, 4, 0);
        assert!(free_at > 10);
        assert_eq!(clock.estimate_end(5, 4), free_at + after);
    }
}
