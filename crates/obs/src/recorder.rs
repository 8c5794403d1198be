//! The [`Recorder`] trait the serving stack is generic over, and its two implementations.
//!
//! The contract has two halves:
//!
//! * **observation only** — a recorder is handed every [`Event`] at the decision point that
//!   produced it, but nothing in the serving stack ever reads recorder state back. Responses,
//!   outcomes and timings are therefore byte-identical with tracing on or off; the obs-bench
//!   grid re-asserts this equivalence on every run.
//! * **no-op compiles to nothing** — call sites guard every `record` behind
//!   `if R::ENABLED`, a monomorphization-time constant. With [`NullRecorder`] the branch is
//!   `if false { .. }` and the whole recording path folds away; the traced-vs-untraced
//!   `obs_overhead` arm of `hot_bench` gates the residual cost of the enabled path.
//!
//! Recorders are driven exclusively from the orchestration thread (phase-A routing and the
//! engines' sequential timing loops), never from pool workers — which is why the trait needs
//! no `Sync` bound and why recorded streams are identical at any worker or shard count.

use crate::event::Event;

/// Receives tick-stamped [`Event`]s from a recorded serving run.
pub trait Recorder {
    /// Monomorphization-time switch call sites guard on: `false` compiles recording away.
    const ENABLED: bool;

    /// Records one event. Called only when [`Recorder::ENABLED`] is `true`.
    fn record(&mut self, event: Event);
}

/// The no-op recorder: `ENABLED = false`, so guarded call sites compile to nothing. Untraced
/// runs pass it to the traced entry points (`Cluster::run_traced`,
/// `InferenceEngine::run_traced`); `Cluster::plan_with_faults` and `InferenceEngine::run`
/// pass it themselves.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullRecorder;

impl Recorder for NullRecorder {
    const ENABLED: bool = false;

    #[inline(always)]
    fn record(&mut self, _event: Event) {}
}

/// An in-memory recorder appending events to a preallocated buffer.
///
/// Steady-state recording is allocation-free as long as pushes stay within the buffer's
/// capacity: [`Event`] is `Copy` with only `&'static str` labels, so a `record` is one
/// bounds check and one fixed-size store. Size the buffer with
/// [`TraceRecorder::with_capacity`] (or let a warmup run grow it) and reuse it across runs
/// via [`TraceRecorder::clear`], which keeps the capacity.
#[derive(Debug, Clone, Default)]
pub struct TraceRecorder {
    events: Vec<Event>,
}

impl TraceRecorder {
    /// An empty recorder (grows on demand).
    pub fn new() -> TraceRecorder {
        TraceRecorder { events: Vec::new() }
    }

    /// An empty recorder with room for `capacity` events before any reallocation.
    pub fn with_capacity(capacity: usize) -> TraceRecorder {
        TraceRecorder { events: Vec::with_capacity(capacity) }
    }

    /// The recorded events, in recording order.
    pub fn events(&self) -> &[Event] {
        &self.events
    }

    /// Recorded event count.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Current buffer capacity in events.
    pub fn capacity(&self) -> usize {
        self.events.capacity()
    }

    /// Drops the recorded events but keeps the allocation, readying the recorder for the
    /// next run without heap traffic.
    pub fn clear(&mut self) {
        self.events.clear();
    }

    /// Consumes the recorder, returning the event buffer.
    pub fn into_inner(self) -> Vec<Event> {
        self.events
    }
}

impl Recorder for TraceRecorder {
    const ENABLED: bool = true;

    #[inline]
    fn record(&mut self, event: Event) {
        self.events.push(event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_recorder_is_disabled() {
        const { assert!(!NullRecorder::ENABLED) };
        // Recording through it is a no-op by contract; just exercise the call.
        NullRecorder.record(Event::Scale { tick: 1, active: 1 });
    }

    #[test]
    fn trace_recorder_appends_in_order_and_clears_in_place() {
        let mut rec = TraceRecorder::with_capacity(8);
        let base = rec.capacity();
        rec.record(Event::Answer { request: 1, tick: 5 });
        rec.record(Event::Answer { request: 2, tick: 9 });
        assert_eq!(rec.len(), 2);
        assert_eq!(rec.events()[0].request(), Some(1));
        rec.clear();
        assert!(rec.is_empty());
        assert_eq!(rec.capacity(), base, "clear must keep the allocation");
    }
}
