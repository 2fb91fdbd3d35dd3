//! # cslack-obs
//!
//! The observability layer of the cslack stack — std-only (like the
//! dependency shims, it pulls in nothing external) and cheap enough to
//! stay wired into the hot path permanently:
//!
//! * **Decision traces** ([`trace`]): every submission becomes a
//!   [`DecisionEvent`] carrying the job, the shard, the threshold it
//!   was tested against, and — for rejections — a typed
//!   [`RejectReason`]. The engine records each one once, into its
//!   flight rings; JSONL traces are an export of a flight snapshot,
//!   and [`summarize`] folds either back into counters.
//! * **Histogram metrics** ([`hist`], [`metrics`]): log-bucketed
//!   [`Histogram`]s with p50/p90/p99/p999 summaries replace min/max
//!   aggregates; the [`MetricsRegistry`] holds atomic counters
//!   (submitted / accepted / rejected-by-reason / backpressure stalls)
//!   and renders a Prometheus-style text exposition.
//! * **Profiling spans** ([`span`], [`span!`]): `span!("route")`-style
//!   scope timers that cost one atomic load when disabled.
//! * **Flight recordings** ([`flight`]): bounded per-shard binary rings
//!   capturing the complete causal record (submissions, decisions,
//!   commitments) as fixed-size records, snapshottable to a checksummed
//!   `.cfr` file for deterministic replay and invariant auditing. Each
//!   lock-free [`SharedFlightRing`] has a single writer and can be
//!   snapshotted from any thread.
//! * **Rolling windows** ([`window`]): fixed-width bucket rings
//!   (`WindowedCounter`, `WindowedHistogram`) with lazy rotation and
//!   exact cross-shard merge, mirroring every registry metric at
//!   1s/10s/60s resolutions as `cslack_window_*` gauges.
//! * **Quality gauges** ([`quality`]): windowed admitted load vs the
//!   max-flow OPT bound — `cslack_empirical_ratio` — published by the
//!   engine's observatory thread, with a ratio-floor alert counter.
//! * **Latency timelines** ([`timeline`]): stage-resolved stamps —
//!   client send, frame decode, dispatch, enqueue, dequeue, decide,
//!   delivery — on one shared monotonic [`ClockBase`], riding in every
//!   flight record, aggregated into per-stage waterfalls.
//!
//! The crate sits at the bottom of the workspace graph (no cslack
//! dependencies), so algorithms, the engine, the CLI, and benches can
//! all speak the same observability vocabulary.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod flight;
pub mod hist;
pub mod metrics;
pub mod quality;
pub mod span;
pub mod timeline;
pub mod trace;
pub mod window;

pub use flight::{
    decode_event, encode_event, FlightEvent, FlightHeader, FlightSnapshot, ShardFlight,
    SharedFlightRing, StampedDecision, RECORD_SIZE,
};
pub use hist::{AtomicHistogram, Histogram, HistogramSummary};
pub use metrics::{Counter, MetricsRegistry, MetricsSnapshot};
pub use quality::QualityPanel;
pub use span::{
    reset_spans, set_spans_enabled, span_histogram, span_snapshot, spans_enabled, SpanGuard,
};
pub use timeline::{ClockBase, Stage, StageBreakdown, TimelineStamps, STAGES, STAGE_SPANS};
pub use trace::{
    read_jsonl, summarize, write_jsonl, DecisionEvent, RejectCounts, RejectReason,
    ShardTraceSummary, TraceSummary, MAX_TRACE_SHARD,
};
pub use window::{
    WindowPanel, WindowSlot, WindowSnapshot, WindowedCounter, WindowedHistogram, BUCKET_WIDTH_NS,
    RESOLUTIONS, WINDOW_SLOTS,
};
