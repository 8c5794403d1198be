//! The single serialization path for recorded decision events.
//!
//! The decision payload layouts are pinned by committed benchmark baselines
//! (`BENCH_cluster_summary.json`, `BENCH_chaos_summary.json`): same keys, same order, same
//! variants. The serving crate's reports hold their decisions as [`Event`]s and serialize
//! them here, exactly as a recorded stream is serialized — one emission code path.
//!
//! [`decision_events_json`] and [`fault_events_json`] filter a stream down to the pinned
//! event families; [`stream_json`] serializes a full recorded stream with type tags for
//! digesting whole traces.

use shift_bnn::sweep::json::{fnv1a_hex, Json};

use crate::event::Event;

/// The baseline-pinned payload of one event, keys in field order. Stage-transition variants
/// no baseline pins (admit/close/dispatch/compute/seal/answer) get analogous field-order
/// payloads.
pub fn event_payload(event: &Event) -> Json {
    match *event {
        Event::Admit { request, tick, shard, queue_depth } => Json::obj([
            ("request", Json::UInt(request)),
            ("tick", Json::UInt(tick)),
            ("shard", Json::UInt(shard as u64)),
            ("queue_depth", Json::UInt(queue_depth as u64)),
        ]),
        Event::BatchClose { request, shard, tick } => Json::obj([
            ("request", Json::UInt(request)),
            ("shard", Json::UInt(shard as u64)),
            ("tick", Json::UInt(tick)),
        ]),
        Event::Dispatch { request, shard, tick } => Json::obj([
            ("request", Json::UInt(request)),
            ("shard", Json::UInt(shard as u64)),
            ("tick", Json::UInt(tick)),
        ]),
        Event::ComputeDone { request, shard, tick } => Json::obj([
            ("request", Json::UInt(request)),
            ("shard", Json::UInt(shard as u64)),
            ("tick", Json::UInt(tick)),
        ]),
        Event::BatchSeal { shard, close_tick, members, version } => Json::obj([
            ("shard", Json::UInt(shard as u64)),
            ("close_tick", Json::UInt(close_tick)),
            ("members", Json::UInt(members as u64)),
            ("version", Json::UInt(version as u64)),
        ]),
        Event::Retry { request, failed_tick, retry_tick, shard, attempt } => Json::obj([
            ("request", Json::UInt(request)),
            ("failed_tick", Json::UInt(failed_tick)),
            ("retry_tick", Json::UInt(retry_tick)),
            ("shard", shard.map_or(Json::Null, |s| Json::UInt(s as u64))),
            ("attempt", Json::UInt(u64::from(attempt))),
        ]),
        Event::Degrade { tick, from, to, backlog } => Json::obj([
            ("tick", Json::UInt(tick)),
            ("from", Json::Str(from.to_string())),
            ("to", Json::Str(to.to_string())),
            ("backlog", Json::UInt(backlog as u64)),
        ]),
        Event::CheckpointFault { tick, shard, cancelled_swaps } => Json::obj([
            ("tick", Json::UInt(tick)),
            ("shard", Json::UInt(shard as u64)),
            ("cancelled_swaps", Json::UInt(cancelled_swaps as u64)),
        ]),
        Event::Shed { request, tick, shard, reason } => Json::obj([
            ("request", Json::UInt(request)),
            ("tick", Json::UInt(tick)),
            ("shard", Json::UInt(shard as u64)),
            ("reason", Json::Str(reason.to_string())),
        ]),
        Event::Escalation { request, tick, admitted } => Json::obj([
            ("request", Json::UInt(request)),
            ("tick", Json::UInt(tick)),
            ("admitted", Json::Bool(admitted)),
        ]),
        Event::Scale { tick, active } => {
            Json::obj([("tick", Json::UInt(tick)), ("active", Json::UInt(active as u64))])
        }
        Event::Answer { request, tick } => {
            Json::obj([("request", Json::UInt(request)), ("tick", Json::UInt(tick))])
        }
    }
}

fn payloads<'a>(
    events: impl IntoIterator<Item = &'a Event>,
    keep: impl Fn(&Event) -> bool,
) -> Json {
    Json::Array(events.into_iter().filter(|e| keep(e)).map(event_payload).collect())
}

/// The cluster decision-event document — `{sheds, escalations, scale_events}` — filtered
/// from a recorded stream or a report's decision lists; the serving report's `events_json`
/// is this document, compacted.
pub fn decision_events_json<'a>(events: impl IntoIterator<Item = &'a Event> + Clone) -> Json {
    Json::obj([
        ("sheds", payloads(events.clone(), |e| matches!(e, Event::Shed { .. }))),
        ("escalations", payloads(events.clone(), |e| matches!(e, Event::Escalation { .. }))),
        ("scale_events", payloads(events, |e| matches!(e, Event::Scale { .. }))),
    ])
}

/// The fault-trace document — `{retries, degrades, checkpoint_faults}` — filtered from a
/// recorded stream or a fault trace's lists; the serving crate's `FaultTrace::to_json`.
pub fn fault_events_json<'a>(events: impl IntoIterator<Item = &'a Event> + Clone) -> Json {
    Json::obj([
        ("retries", payloads(events.clone(), |e| matches!(e, Event::Retry { .. }))),
        ("degrades", payloads(events.clone(), |e| matches!(e, Event::Degrade { .. }))),
        ("checkpoint_faults", payloads(events, |e| matches!(e, Event::CheckpointFault { .. }))),
    ])
}

/// The variant's type tag in [`stream_json`].
pub fn event_type(event: &Event) -> &'static str {
    match event {
        Event::Admit { .. } => "admit",
        Event::BatchClose { .. } => "batch_close",
        Event::Dispatch { .. } => "dispatch",
        Event::ComputeDone { .. } => "compute_done",
        Event::BatchSeal { .. } => "batch_seal",
        Event::Retry { .. } => "retry",
        Event::Degrade { .. } => "degrade",
        Event::CheckpointFault { .. } => "checkpoint_fault",
        Event::Shed { .. } => "shed",
        Event::Escalation { .. } => "escalation",
        Event::Scale { .. } => "scale",
        Event::Answer { .. } => "answer",
    }
}

/// A full recorded stream as a type-tagged JSON array, in recording order — the canonical
/// bytes a whole trace is digested over.
pub fn stream_json(events: &[Event]) -> Json {
    Json::Array(
        events
            .iter()
            .map(|e| {
                let mut pairs = vec![("type".to_string(), Json::Str(event_type(e).to_string()))];
                if let Json::Object(fields) = event_payload(e) {
                    pairs.extend(fields);
                }
                Json::Object(pairs)
            })
            .collect(),
    )
}

/// FNV-1a digest of a document's compact bytes, 16 hex characters — the same digest
/// convention every committed baseline uses.
pub fn digest(json: &Json) -> String {
    fnv1a_hex(json.to_compact().bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn legacy_payload_shapes_are_pinned() {
        // These literals are the byte layouts the committed cluster/chaos baselines pin;
        // they must never change shape, key order, or variant encoding.
        let shed = Event::Shed { request: 3, tick: 40, shard: 1, reason: "queue_full" };
        assert_eq!(
            event_payload(&shed).to_compact(),
            r#"{"request":3,"tick":40,"shard":1,"reason":"queue_full"}"#
        );
        let esc = Event::Escalation { request: 9, tick: 77, admitted: true };
        assert_eq!(event_payload(&esc).to_compact(), r#"{"request":9,"tick":77,"admitted":true}"#);
        let scale = Event::Scale { tick: 128, active: 3 };
        assert_eq!(event_payload(&scale).to_compact(), r#"{"tick":128,"active":3}"#);
        let retry =
            Event::Retry { request: 5, failed_tick: 10, retry_tick: 74, shard: None, attempt: 2 };
        assert_eq!(
            event_payload(&retry).to_compact(),
            r#"{"request":5,"failed_tick":10,"retry_tick":74,"shard":null,"attempt":2}"#
        );
        let degrade = Event::Degrade { tick: 6, from: "normal", to: "moment", backlog: 31 };
        assert_eq!(
            event_payload(&degrade).to_compact(),
            r#"{"tick":6,"from":"normal","to":"moment","backlog":31}"#
        );
        let ckpt = Event::CheckpointFault { tick: 512, shard: 2, cancelled_swaps: 1 };
        assert_eq!(
            event_payload(&ckpt).to_compact(),
            r#"{"tick":512,"shard":2,"cancelled_swaps":1}"#
        );
    }

    #[test]
    fn filtered_documents_keep_family_key_order() {
        let events = [
            Event::Scale { tick: 1, active: 2 },
            Event::Shed { request: 0, tick: 2, shard: 0, reason: "overload" },
            Event::Retry { request: 1, failed_tick: 3, retry_tick: 67, shard: Some(0), attempt: 1 },
        ];
        let decisions = decision_events_json(&events).to_compact();
        assert!(decisions.starts_with(r#"{"sheds":["#));
        assert!(decisions.contains(r#""escalations":[]"#));
        let faults = fault_events_json(&events).to_compact();
        assert!(faults.starts_with(r#"{"retries":["#));
        assert!(faults.ends_with(r#""checkpoint_faults":[]}"#));
    }

    #[test]
    fn stream_json_tags_every_event() {
        let events = [
            Event::Admit { request: 0, tick: 0, shard: 0, queue_depth: 0 },
            Event::Answer { request: 0, tick: 9 },
        ];
        let text = stream_json(&events).to_compact();
        assert!(text.contains(r#"{"type":"admit","request":0"#));
        assert!(text.contains(r#"{"type":"answer","request":0,"tick":9}"#));
        assert_eq!(digest(&stream_json(&events)).len(), 16);
    }
}
