//! # noc-telemetry — flit-lifecycle tracing with a zero-cost off switch
//!
//! The network engine in `noc-core` answers *what* happened through its
//! aggregate [`NetStats`](../noc_core/stats/struct.NetStats.html)
//! counters; this crate answers *why*. Every mechanism of the paper's
//! §4 — injection arbitration losses, I-tag reservations and claims,
//! E-tag deflections, bridge backpressure, SWAP firings — emits a
//! [`FlitEvent`] stamped with its cycle, ring/station/lane coordinates
//! and flit id ([`TraceRecord`]), into whatever [`TraceSink`] the
//! network was built with.
//!
//! The disabled path costs nothing: [`NullSink`] sets
//! [`TraceSink::ENABLED`] to `false`, and every emission site in the
//! engine is guarded by that associated constant, so monomorphization
//! deletes the event construction *and* the branch. A
//! `Network<NullSink>` (the default) compiles to the same tick loop as
//! a network with no telemetry at all.
//!
//! # Sinks
//!
//! * [`NullSink`] — the off switch; all emission compiled away.
//! * [`RingBufferSink`] — bounded in-memory buffer (oldest records
//!   dropped) plus never-dropping [`EventCounts`]; the workhorse for
//!   tests and short diagnostics runs.
//!
//! # Exports
//!
//! * [`chrome_trace`] — a Chrome `trace_event` JSON export: one lane
//!   per flit, spans from enqueue to delivery, instants for
//!   deflections/tags/SWAPs, counter tracks for ring occupancy. Load
//!   it in `chrome://tracing` or <https://ui.perfetto.dev>.
//!
//! Per-class latency percentiles, per-station deflection and I-tag
//! counts and ring occupancy are not rebuilt from a trace here: the
//! engine keeps them exactly (`NetStats`' histograms,
//! `Network::deflection_cells`/`itag_cells`, `Network::ring_occupancy`),
//! whether or not a sink records, and drops nothing.
//!
//! # Observatory
//!
//! Beyond post-hoc tracing, the crate hosts the *online* observability
//! layer: the engine samples every ring into a [`MetricsSnapshot`]
//! (window counter deltas + instantaneous gauges) every N cycles and
//! commits them to a [`MetricsRegistry`] in ring order at the end of
//! the cycle, so the snapshot stream is deterministic. A
//! [`HealthMonitor`] turns the stream into
//! cycle-stamped watchdog verdicts (starvation onset, congestion knee,
//! SWAP storms, liveness stalls), and the exporters render it as JSONL
//! ([`jsonl`]) or Prometheus text ([`prometheus_text`]).
//!
//! Both stall verdicts read one progress clock, the network's
//! `stalled_for()` stamp: liveness fires when it reaches
//! [`HealthConfig::liveness_cycles`], and the transaction fabric's
//! [`WedgeLatch`] builds a typed resource wait-for graph once the stamp
//! reaches [`FREEZE_W`] and certifies any cycle in it as a
//! [`WedgeReport`] (`deadlock-suspected`). Nothing samples the graph.
//!
//! Every committed series — the metrics snapshots and the transaction
//! series — keeps one retention rule: a
//! window fixed when its store is built ([`SERIES_WINDOW`] unless a
//! recorder sizes it), a count of every commit, and `since(seq)` for a
//! reader that wants the whole series as it is committed.
//!
//! # Flight recorder and postmortems
//!
//! The attribution layer turns verdicts into evidence. The observatory
//! keeps, per ring, a deterministic Space-Saving [`FlowTable`] of the
//! ring's heaviest (src, dst) flows — delivered flits, cumulative latency, deflections,
//! extra E-tag laps, I-tag wait cycles — plus a per-link utilization
//! row. A bounded [`FlightRecorder`] exposes the last R snapshots of the
//! registry and retains the last T trace events, and when a watchdog
//! latches (or on an explicit dump) the engine freezes everything into
//! a [`PostmortemBundle`]: recent history, flow top-K, link heat, fired
//! rules, and the engine config needed for deterministic replay,
//! serialized as kind-tagged JSONL.
//!
//! # Example
//!
//! ```
//! use noc_telemetry::{FlitEvent, RingBufferSink, TraceRecord, TraceSink, NO_LANE};
//!
//! let mut sink = RingBufferSink::new(1024);
//! sink.emit(TraceRecord {
//!     cycle: 3,
//!     flit: 0,
//!     ring: 0,
//!     station: 2,
//!     lane: NO_LANE,
//!     event: FlitEvent::Enqueued { node: 7, class: 0 },
//! });
//! assert_eq!(sink.counts().enqueued, 1);
//! ```

#![forbid(unsafe_code)]

pub mod chrome;
pub mod critical;
pub mod event;
pub mod export;
pub mod flowstats;
pub mod health;
mod last_n;
pub mod metrics;
pub mod postmortem;
pub mod recorder;
pub mod sink;
pub mod spans;
pub mod txnstats;
pub mod waitgraph;

pub use chrome::{chrome_trace, spans_chrome_trace};
pub use critical::{
    critical_path, CriticalLink, CriticalPath, LatencyBreakdown, PhaseCycles, PHASE_NAMES,
};
pub use event::{EventCounts, FlitEvent, TraceRecord, NO_FLIT, NO_LANE};
pub use export::{
    jsonl, jsonl as snapshots_jsonl, jsonl as span_trees_jsonl, jsonl as txn_snapshots_jsonl,
    prometheus_text,
};
pub use flowstats::{flow_table_ascii, merge_ranked, FlowDelta, FlowRecord, FlowTable};
pub use health::{HealthConfig, HealthMonitor, HealthRule, Severity, Verdict};
pub use last_n::SERIES_WINDOW;
pub use metrics::{
    BridgeGauges, MetricsRegistry, MetricsSnapshot, RingGauges, RingWindow, WindowCounters,
};
pub use postmortem::{heat_cell, link_heat_ascii, BundleMeta, PostmortemBundle};
pub use recorder::{FlightRecorder, RecorderConfig, RecorderView, FLOW_TOP_K, MAX_BUNDLES};
pub use sink::{NullSink, RingBufferSink, TraceBuffer, TraceSink};
pub use spans::{
    FlitSpan, NullSpanSink, PacketSpan, SpanCollector, SpanRole, SpanSink, TailExemplars,
    TxnSpanTree, SPAN_OP_NAMES,
};
pub use txnstats::{TxnRegistry, TxnSnapshot};
pub use waitgraph::{
    cyclic_sccs, ResourceId, WaitEdge, WaitGraphConfig, WedgeLatch, WedgeReport, FREEZE_W,
};
