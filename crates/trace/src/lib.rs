//! # mtl-trace — the runtime's flight recorder
//!
//! Always-on, low-overhead observability in the PerSyst mold:
//! collection cheap enough to never turn off, aggregation kept out of
//! the hot path.
//!
//! Three layers, bottom up:
//!
//! * [`FlightRecorder`] — one lock-free fixed-capacity ring of compact
//!   binary events per *lane* (one lane per worker shard, plus
//!   dedicated control-plane / durability / supervisor lanes). An event
//!   is a monotonic timestamp, a lane, an [`EventKind`], and two `u64`
//!   payload words, padded to one cache line so concurrent writers
//!   never share a line. Writers claim a slot with one relaxed
//!   `fetch_add` and publish with a release store — a few nanoseconds
//!   per *batch* on the dataplane, never per packet — and the ring
//!   overwrites oldest, so memory is bounded forever.
//! * **Spans** ([`FlightRecorder::span_begin`]) — paired begin/end
//!   events with a process-unique id, used by the control plane so an
//!   `add_rule` renders as a causal timeline: span begin → WAL append →
//!   publish → per-shard snapshot refreshes observed.
//! * [`SeriesRing`] — a bounded time-series of sampled telemetry
//!   gauges/counters with first-class [`deltas`]: rates between
//!   consecutive snapshots (publishes/s, sheds/s, hit-rate trend) are
//!   computed here, not re-derived by every caller.
//!
//! For crash forensics the recorder's drained timeline round-trips
//! through a checksummed binary image ([`encode_flight_log`] /
//! [`decode_flight_log`]) that the runtime persists as a bounded
//! `flight.log` region via its store; for humans, [`chrome_trace`]
//! builds events + samples into a Chrome `trace_event` JSON document
//! (a `minijson::Json` value) loadable in `chrome://tracing` or
//! Perfetto.

#![forbid(unsafe_code)]

mod chrome;
mod log;
mod ring;
mod series;

pub use chrome::chrome_trace;
pub use log::{decode_flight_log, encode_flight_log, FLIGHT_LOG_MAGIC};
pub use ring::{
    Event, EventKind, FlightRecorder, SpanOp, DEFAULT_EVENTS_PER_LANE, EVENTS_PER_LANE_MAX,
};
pub use series::{deltas, MetricPoint, SeriesDelta, SeriesRing, DEFAULT_SERIES_CAPACITY};
