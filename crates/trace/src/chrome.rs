//! Chrome `trace_event` rendering: the drained timeline plus sampled
//! metrics as one JSON document loadable in `chrome://tracing` or
//! Perfetto.
//!
//! Mapping: every lane is a thread (`tid`) of one process (`pid` 1),
//! named via `thread_name` metadata events; complete control-plane
//! spans render as `B`/`E` duration pairs; every other event is an
//! instant (`ph:"i"`, thread scope); metric samples render as counter
//! (`ph:"C"`) events, which Perfetto draws as stacked time series.

use crate::ring::{Event, EventKind, SpanOp};
use crate::series::MetricPoint;
use minijson::{obj, Json};
use std::collections::HashMap;

/// Lane display name: worker shards, then the three service lanes.
fn lane_name(lane: u16, shards: usize) -> String {
    let lane = usize::from(lane);
    if lane < shards {
        format!("shard-{lane}")
    } else {
        match lane - shards {
            0 => "control".to_owned(),
            1 => "durability".to_owned(),
            _ => "supervisor".to_owned(),
        }
    }
}

/// One trace_event record of phase `ph` on thread `tid`; `ts_ns` is
/// `None` for metadata. Timestamps (`ts`) are microseconds with
/// nanosecond resolution; instants are thread-scoped (`s:"t"`).
fn event(ph: &str, tid: u16, ts_ns: Option<u64>, name: &str, args: Json) -> Json {
    let mut fields = vec![("ph", ph.into()), ("pid", 1u8.into()), ("tid", tid.into())];
    if let Some(ts_ns) = ts_ns {
        fields.push(("ts", (ts_ns as f64 / 1e3).into()));
    }
    if ph == "i" {
        fields.push(("s", "t".into()));
    }
    fields.extend([("name", name.into()), ("args", args)]);
    obj(fields)
}

/// Builds `events` (a [`crate::FlightRecorder::snapshot`]) and
/// `samples` (a [`crate::SeriesRing::snapshot`]) for `shards` worker
/// lanes into a complete Chrome trace_event JSON document.
#[must_use]
pub fn chrome_trace(shards: usize, events: &[Event], samples: &[MetricPoint]) -> Json {
    // Thread-name metadata for every lane that appears.
    let mut lanes: Vec<u16> = events.iter().map(|e| e.lane).collect();
    lanes.sort_unstable();
    lanes.dedup();
    let mut out: Vec<Json> = lanes
        .into_iter()
        .map(|lane| {
            let args = obj([("name", lane_name(lane, shards).into())]);
            event("M", lane, None, "thread_name", args)
        })
        .collect();

    // Pair spans: id → (begin event, op); ends consume their begin.
    // Unpaired halves (the ring overwrote the partner) fall through to
    // the instant pass — never a dangling B that corrupts the nesting.
    let mut open: HashMap<u64, &Event> = HashMap::new();
    let mut paired: Vec<(&Event, &Event)> = Vec::new();
    let mut instant: Vec<&Event> = Vec::new();
    for e in events {
        match e.kind {
            EventKind::SpanBegin => {
                open.insert(e.a, e);
            }
            EventKind::SpanEnd => match open.remove(&e.a) {
                Some(begin) => paired.push((begin, e)),
                None => instant.push(e),
            },
            _ => instant.push(e),
        }
    }
    instant.extend(open.into_values());
    instant.sort_by_key(|e| (e.ts_ns, e.lane, e.kind as u16));

    for (begin, end) in paired {
        let name = SpanOp::name_of(begin.b);
        let args = obj([("span", begin.a.into())]);
        out.push(event("B", begin.lane, Some(begin.ts_ns), name, args));
        let args = obj([("span", end.a.into()), ("version", end.b.into())]);
        out.push(event("E", end.lane, Some(end.ts_ns.max(begin.ts_ns)), name, args));
    }

    for e in instant {
        let args = obj([("a", e.a.into()), ("b", e.b.into())]);
        out.push(event("i", e.lane, Some(e.ts_ns), e.kind.name(), args));
    }

    // Metric samples as counter tracks.
    for p in samples {
        let args = p
            .values
            .iter()
            .map(|&(key, value)| (key, Json::from(if value.is_finite() { value } else { 0.0 })));
        out.push(event("C", 0, Some(p.ts_ns), "runtime", obj(args)));
    }

    obj([("displayTimeUnit", "ms".into()), ("traceEvents", Json::Arr(out))])
}

#[cfg(test)]
mod tests {
    use super::*;
    use minijson::parse_json;

    fn sample_events() -> Vec<Event> {
        vec![
            Event { ts_ns: 100, lane: 2, kind: EventKind::SpanBegin, a: 1, b: 1 },
            Event { ts_ns: 150, lane: 3, kind: EventKind::WalAppend, a: 5, b: 64 },
            Event { ts_ns: 200, lane: 2, kind: EventKind::Publish, a: 6, b: 10 },
            Event { ts_ns: 250, lane: 2, kind: EventKind::SpanEnd, a: 1, b: 6 },
            Event { ts_ns: 300, lane: 0, kind: EventKind::SnapshotRefresh, a: 6, b: 5 },
            // An unpaired end (its begin was overwritten): must render
            // as an instant, not a dangling E.
            Event { ts_ns: 350, lane: 2, kind: EventKind::SpanEnd, a: 99, b: 7 },
        ]
    }

    fn samples() -> Vec<MetricPoint> {
        vec![MetricPoint { ts_ns: 400, values: vec![("publishes", 6.0), ("hit_rate", 0.8)] }]
    }

    #[test]
    fn output_is_valid_json_with_balanced_spans() {
        let text = chrome_trace(2, &sample_events(), &samples()).render_compact();
        let doc = parse_json(&text).expect("chrome trace parses as JSON");
        let events = doc.get("traceEvents").and_then(Json::as_arr).expect("traceEvents array");
        let mut begins = 0i64;
        let mut ends = 0i64;
        for e in events {
            let ph = e.get("ph").and_then(Json::as_str).expect("every event has ph");
            assert!(e.get("pid").is_some());
            assert!(e.get("tid").is_some());
            if ph != "M" {
                assert!(e.get("ts").and_then(Json::as_f64).is_some(), "non-meta events have ts");
            }
            match ph {
                "B" => begins += 1,
                "E" => ends += 1,
                _ => {}
            }
        }
        assert_eq!(begins, 1);
        assert_eq!(ends, 1, "the unpaired end rendered as an instant");
        assert!(
            events.iter().any(|e| e.get("ph").and_then(Json::as_str) == Some("C")),
            "metric samples render as counters"
        );
    }

    #[test]
    fn lanes_are_named_threads() {
        let text = chrome_trace(2, &sample_events(), &[]).render_compact();
        let doc = parse_json(&text).expect("parses");
        let events = doc.get("traceEvents").and_then(Json::as_arr).unwrap();
        let names: Vec<&str> = events
            .iter()
            .filter(|e| e.get("ph").and_then(Json::as_str) == Some("M"))
            .filter_map(|e| e.get("args").and_then(|a| a.get("name")).and_then(Json::as_str))
            .collect();
        assert_eq!(names, ["shard-0", "control", "durability"]);
    }

    #[test]
    fn timestamps_render_in_microseconds() {
        let event = Event { ts_ns: 1_500, lane: 0, kind: EventKind::Publish, a: 1, b: 2 };
        let doc = parse_json(&chrome_trace(1, &[event], &[]).render_compact()).expect("parses");
        let events = doc.get("traceEvents").and_then(Json::as_arr).expect("traceEvents");
        let instant = events.iter().find(|e| e.get("ph").and_then(Json::as_str) == Some("i"));
        assert_eq!(instant.and_then(|e| e.get("ts")).and_then(Json::as_f64), Some(1.5));
    }
}
