//! The tick-stamped event vocabulary every recorded serving run is described in.
//!
//! One [`Event`] is one stage transition (or one control decision) at one exact simulated
//! tick. It is the serving stack's only decision vocabulary: the cluster builds each shed,
//! escalation, scaling, retry, ladder and checkpoint-fallback decision once, as an `Event`,
//! and both the recorder stream and the run report's per-family lists carry that value, so
//! the exporter in [`crate::export`] serializes either through one code path.
//!
//! Every variant is `Copy` and holds only integers and `&'static str` labels: recording an
//! event is a fixed-size store with no heap traffic, which is what lets the enabled
//! recorder's steady state stay allocation-free (asserted at the allocator by the bench
//! crate's `alloc_zero` probe).

/// One tick-stamped observation from a recorded serving run.
///
/// Request-scoped variants (everything except [`Event::Degrade`], [`Event::Scale`],
/// [`Event::CheckpointFault`] and [`Event::BatchSeal`]) carry the caller-chosen request id;
/// span assembly and stage attribution group by it, so ids should be unique within a trace
/// (the workload generator's always are).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Event {
    /// A request joined a shard's open batch at `tick` (its arrival, or its final retry's
    /// submission tick). `queue_depth` is the shard's backlog at the admission decision —
    /// the same value admission control compared against the queue cap.
    Admit {
        /// The admitted request's id.
        request: u64,
        /// The admission tick.
        tick: u64,
        /// The shard it joined.
        shard: usize,
        /// The shard's backlog at the decision (admitted-but-incomplete requests).
        queue_depth: usize,
    },
    /// The batch holding `request` closed (stopped accepting members) at `tick`.
    BatchClose {
        /// The member request's id.
        request: u64,
        /// The closing batch's shard.
        shard: usize,
        /// The close tick.
        tick: u64,
    },
    /// The batch holding `request` started service on its shard's device at `tick`.
    Dispatch {
        /// The member request's id.
        request: u64,
        /// The serving shard.
        shard: usize,
        /// The service-start tick.
        tick: u64,
    },
    /// The batch holding `request` finished computing at `tick`.
    ComputeDone {
        /// The member request's id.
        request: u64,
        /// The serving shard.
        shard: usize,
        /// The service-end tick.
        tick: u64,
    },
    /// One closed batch, summarized (occupancy metrics): `members` requests sealed at
    /// `close_tick` on `shard`, served by posterior `version`.
    BatchSeal {
        /// The batch's shard.
        shard: usize,
        /// The close tick.
        close_tick: u64,
        /// Member count.
        members: usize,
        /// The posterior version active at the batch's service start.
        version: usize,
    },
    /// A crash evicted (or no live shard could take) `request`; it re-enters the router at
    /// `retry_tick` after its deterministic backoff.
    Retry {
        /// The retried request's id.
        request: u64,
        /// The tick the failure was observed at.
        failed_tick: u64,
        /// The tick the request re-enters the router at.
        retry_tick: u64,
        /// The crashed shard, `None` when the failure was "no live shard".
        shard: Option<usize>,
        /// Which retry attempt this is (1-indexed).
        attempt: u32,
    },
    /// The degradation ladder changed level at a submission tick (labels are the serving
    /// crate's `DegradeLevel` labels).
    Degrade {
        /// The submission tick of the transition.
        tick: u64,
        /// The level before (its machine label).
        from: &'static str,
        /// The level after (its machine label).
        to: &'static str,
        /// The cluster-wide backlog that selected `to`.
        backlog: usize,
    },
    /// A hot-swap's incoming version failed validation; the shard kept its prior version.
    CheckpointFault {
        /// The `at_tick` of the failed swap.
        tick: u64,
        /// The shard that kept its prior version.
        shard: usize,
        /// Scheduled swaps cancelled at this (shard, tick).
        cancelled_swaps: usize,
    },
    /// A request was shed — the terminal leaf of an unanswered request's span tree (the label
    /// is the serving crate's `ShedReason` label).
    Shed {
        /// The shed request's id.
        request: u64,
        /// The decision tick.
        tick: u64,
        /// The shard the router had chosen.
        shard: usize,
        /// The shed reason's machine label.
        reason: &'static str,
    },
    /// A two-tier escalation decision at the request's low-pass completion tick.
    Escalation {
        /// The escalated request's id.
        request: u64,
        /// The low-pass completion tick.
        tick: u64,
        /// Whether the high shard admitted the escalation.
        admitted: bool,
    },
    /// An autoscaling decision.
    Scale {
        /// The epoch tick.
        tick: u64,
        /// Active shards after the decision.
        active: usize,
    },
    /// A request's final answer became available at `tick` — the terminal leaf of an
    /// answered request's span tree (for an upgraded two-tier request, the high pass's end).
    Answer {
        /// The answered request's id.
        request: u64,
        /// The completion tick of the carried answer.
        tick: u64,
    },
}

impl Event {
    /// The request id the event is scoped to, `None` for shard/cluster-scoped events.
    pub fn request(&self) -> Option<u64> {
        match *self {
            Event::Admit { request, .. }
            | Event::BatchClose { request, .. }
            | Event::Dispatch { request, .. }
            | Event::ComputeDone { request, .. }
            | Event::Retry { request, .. }
            | Event::Shed { request, .. }
            | Event::Escalation { request, .. }
            | Event::Answer { request, .. } => Some(request),
            Event::BatchSeal { .. }
            | Event::Degrade { .. }
            | Event::CheckpointFault { .. }
            | Event::Scale { .. } => None,
        }
    }

    /// The event's primary tick — the point it sorts by on a request's timeline (a
    /// [`Event::Retry`] sorts at its `failed_tick`; the backoff window to `retry_tick` is
    /// attributed separately).
    pub fn tick(&self) -> u64 {
        match *self {
            Event::Admit { tick, .. }
            | Event::BatchClose { tick, .. }
            | Event::Dispatch { tick, .. }
            | Event::ComputeDone { tick, .. }
            | Event::Degrade { tick, .. }
            | Event::CheckpointFault { tick, .. }
            | Event::Shed { tick, .. }
            | Event::Escalation { tick, .. }
            | Event::Scale { tick, .. }
            | Event::Answer { tick, .. } => tick,
            Event::BatchSeal { close_tick, .. } => close_tick,
            Event::Retry { failed_tick, .. } => failed_tick,
        }
    }

    /// Tie-break rank for events sharing a tick on one request's timeline, in causal order:
    /// admit < batch-close < retry < dispatch < compute < escalation < terminal.
    pub fn rank(&self) -> u8 {
        match self {
            Event::Admit { .. } => 0,
            Event::BatchClose { .. } | Event::BatchSeal { .. } => 1,
            Event::Retry { .. } => 2,
            Event::Dispatch { .. } => 3,
            Event::ComputeDone { .. } => 4,
            Event::Degrade { .. } | Event::CheckpointFault { .. } | Event::Scale { .. } => 5,
            Event::Escalation { .. } => 6,
            Event::Shed { .. } | Event::Answer { .. } => 7,
        }
    }

    /// Whether the event terminates a request's span tree (answer-or-shed).
    pub fn is_terminal(&self) -> bool {
        matches!(self, Event::Shed { .. } | Event::Answer { .. })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_are_fixed_size_and_copy() {
        // The recorder's zero-allocation argument rests on Event being a plain Copy value.
        fn assert_copy<T: Copy>() {}
        assert_copy::<Event>();
        assert!(std::mem::size_of::<Event>() <= 64, "Event should stay a small fixed struct");
    }

    #[test]
    fn request_scope_and_ticks() {
        let e =
            Event::Retry { request: 7, failed_tick: 10, retry_tick: 74, shard: None, attempt: 1 };
        assert_eq!(e.request(), Some(7));
        assert_eq!(e.tick(), 10);
        assert!(!e.is_terminal());
        assert!(Event::Answer { request: 7, tick: 99 }.is_terminal());
        assert_eq!(Event::Scale { tick: 5, active: 2 }.request(), None);
    }

    #[test]
    fn ranks_follow_causal_order_on_ties() {
        let admit = Event::Admit { request: 1, tick: 4, shard: 0, queue_depth: 0 };
        let close = Event::BatchClose { request: 1, shard: 0, tick: 4 };
        let dispatch = Event::Dispatch { request: 1, shard: 0, tick: 4 };
        assert!(admit.rank() < close.rank());
        assert!(close.rank() < dispatch.rank());
    }
}
