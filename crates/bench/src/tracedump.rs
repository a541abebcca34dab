//! `repro -- trace-dump`: drives a live runtime (dataplane traffic +
//! control-plane churn + the metrics sampler), drains the flight
//! recorder, and renders the whole timeline as a Chrome
//! `trace_event` / Perfetto document under `target/repro/trace.json`.
//!
//! The point is a *loadable* artifact: open `chrome://tracing` or
//! <https://ui.perfetto.dev>, drop the file in, and read the actual
//! interleaving — per-shard serve lanes, control-plane spans
//! (`add_rule` begin/end bracketing WAL append + publish), and the
//! sampled counter tracks — instead of reconstructing it from logs.

use crate::data::Workloads;
use crate::output::write_json;
use classifier_api::ClassifierBuilder;
use minijson::Json;
use mtl_core::MtlSwitch;
use mtl_runtime::trace::{chrome_trace, Event, EventKind, MetricPoint};
use mtl_runtime::{Runtime, RuntimeConfig};
use offilter::synth::{generate_trace, TraceConfig};
use offilter::{Rule, RuleAction};
use oflow::{FlowMatch, HeaderValues, MatchFieldKind};
use std::sync::Arc;
use std::time::Duration;

/// Shards the dump runtime runs with.
pub const SHARDS: usize = 2;

/// A churn rule for round `round` (ids far above any synth set).
fn churn_rule(round: u32) -> Rule {
    Rule::new(
        950_000 + round,
        u16::MAX - 1,
        FlowMatch::any()
            .with_exact(MatchFieldKind::InPort, u128::from(1 + round % 4))
            .unwrap()
            .with_prefix(MatchFieldKind::Ipv4Dst, 0x0A00_0000, 8)
            .unwrap(),
        RuleAction::Forward(800 + round),
    )
}

/// Drives the runtime and returns the drained timeline, the sampled
/// series, and the Chrome trace document built from them.
#[must_use]
pub fn capture(
    w: &Workloads,
    batches: usize,
    churn_rounds: u32,
) -> (Vec<Event>, Vec<MetricPoint>, Json) {
    let set = w.routing_of("bbra").expect("routing set exists");
    let switch = <MtlSwitch as ClassifierBuilder>::try_build(set).expect("switch builds");
    let cfg = TraceConfig {
        packets: 1024,
        flows: 256,
        skew: 0.9,
        random_fraction: 0.125,
        oneshot_fraction: 0.1,
    };
    let trace: Arc<[HeaderValues]> = generate_trace(set, &cfg, crate::DEFAULT_SEED).into();
    let config = RuntimeConfig {
        metrics_sampler: Some(Duration::from_millis(2)),
        ..RuntimeConfig::with_shards(SHARDS)
    };
    let rt = Runtime::with_control(switch, &config);
    for round in 0..churn_rounds {
        for _ in 0..batches.div_ceil(churn_rounds as usize) {
            let _ = rt.submit(Arc::clone(&trace)).wait();
        }
        let (_, v) = rt.add_rule(churn_rule(round)).expect("churn rule inserts");
        assert!(v > 0);
        rt.remove_rule(950_000 + round).expect("churn rule exists");
    }
    // A few cadence ticks so the counter tracks have real samples.
    std::thread::sleep(Duration::from_millis(10));
    let events = rt.trace_events();
    let samples = rt.metrics_series();
    rt.shutdown();
    let doc = chrome_trace(SHARDS, &events, &samples);
    (events, samples, doc)
}

/// Entry point for `repro -- trace-dump`.
pub fn report(w: &Workloads) {
    let (events, samples, doc) = capture(w, 32, 8);
    if let Some(path) = write_json("trace", &doc) {
        let spans = events.iter().filter(|e| e.kind == EventKind::SpanEnd).count();
        println!(
            "== trace-dump: {} events ({} control-plane spans), {} metric samples -> {} ==",
            events.len(),
            spans,
            samples.len(),
            path.display()
        );
        println!("load it in chrome://tracing or https://ui.perfetto.dev");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use minijson::parse_json;

    /// The acceptance check: a live capture renders as a structurally
    /// valid Chrome trace — parseable JSON, a `traceEvents` array where
    /// every entry carries `ph`/`pid`/`tid`, balanced `B`/`E` span
    /// pairs, named lanes, instants from the real run, and counter
    /// samples from the real sampler.
    #[test]
    fn live_capture_renders_a_valid_chrome_trace() {
        let w = Workloads::shared_quick();
        let (events, samples, doc) = capture(w, 8, 4);
        assert!(!events.is_empty() && !samples.is_empty());
        assert!(
            events.iter().any(|e| e.kind == EventKind::BatchServe),
            "the dataplane left serves on the timeline"
        );

        let parsed = parse_json(&doc.render_pretty()).expect("chrome trace parses as JSON");
        let entries = parsed.get("traceEvents").and_then(Json::as_arr).expect("traceEvents array");
        assert!(!entries.is_empty());
        let mut begins = 0i64;
        let mut ends = 0i64;
        let mut instants = 0i64;
        let mut counters = 0i64;
        let mut names = Vec::new();
        for e in entries {
            let ph = e.get("ph").and_then(Json::as_str).expect("every event has ph");
            assert!(e.get("pid").is_some() && e.get("tid").is_some());
            match ph {
                "B" => begins += 1,
                "E" => ends += 1,
                "i" => instants += 1,
                "C" => counters += 1,
                "M" => {
                    if let Some(n) =
                        e.get("args").and_then(|a| a.get("name")).and_then(Json::as_str)
                    {
                        names.push(n.to_owned());
                    }
                }
                other => panic!("unexpected phase {other:?}"),
            }
            if ph != "M" {
                assert!(e.get("ts").and_then(Json::as_f64).is_some(), "non-meta events have ts");
            }
        }
        assert_eq!(begins, ends, "span begins and ends balance");
        assert!(begins >= 4, "the churn rounds produced control-plane spans");
        assert!(instants > 0, "dataplane events render as instants");
        assert!(counters as usize == samples.len(), "every sample renders as a counter");
        assert!(names.iter().any(|n| n == "shard-0"), "worker lanes are named: {names:?}");
        assert!(names.iter().any(|n| n == "control"), "the control lane is named: {names:?}");
    }
}
