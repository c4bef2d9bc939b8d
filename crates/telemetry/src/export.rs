//! Machine-readable exports of the observatory's snapshot stream.
//!
//! Two formats, both derived from the same deterministic
//! [`MetricsSnapshot`] series:
//!
//! * **JSONL** ([`snapshots_jsonl`]) — one JSON object per snapshot,
//!   one per line, for offline time-series analysis. Byte-identical
//!   run to run because the snapshots are.
//! * **Prometheus text exposition** ([`prometheus_text`]) — the
//!   current state of the network as `noc_*` metrics with ring/bridge
//!   labels, ready for a scrape endpoint or `promtool` ingestion.

use crate::flowstats::FlowRecord;
use crate::metrics::MetricsSnapshot;
use crate::txnstats::TxnSnapshot;
use crate::waitgraph::{WaitStats, WaitVerdict, WAIT_CLASS_NAMES};
use std::fmt::Write as _;

/// `writeln!` into a `String`, made explicit about infallibility
/// instead of discarding the `fmt::Result`.
macro_rules! line {
    ($out:expr, $($arg:tt)*) => {
        writeln!($out, $($arg)*).expect("writing to a String cannot fail")
    };
}

/// Escape a string for use inside a Prometheus label value, per the
/// text exposition format (version 0.0.4): backslash, double quote and
/// line feed must be written as `\\`, `\"` and `\n`. Everything the
/// exporters interpolate into `{label="..."}` positions goes through
/// this — ring and workload names come from user configs and may
/// contain anything.
pub fn escape_label_value(raw: &str) -> String {
    let mut out = String::with_capacity(raw.len());
    for c in raw.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Render a merged flow top-K as Prometheus text exposition, one series
/// per (src, dst) pair per metric. `name_of` maps node ids to label
/// values (device names, typically); the result is escaped with
/// [`escape_label_value`], so hostile names cannot break the format.
pub fn prometheus_flows(flows: &[FlowRecord], name_of: impl Fn(u32) -> String) -> String {
    let mut out = String::new();
    let w = &mut out;
    type FlowMetric = (&'static str, &'static str, fn(&FlowRecord) -> u64);
    let metrics: [FlowMetric; 5] = [
        (
            "flow_delivered_total",
            "Flits delivered on the flow.",
            |f| f.delivered,
        ),
        (
            "flow_latency_cycles_total",
            "Cumulative end-to-end latency of delivered flits.",
            |f| f.latency_sum,
        ),
        (
            "flow_deflections_total",
            "Deflections suffered by the flow.",
            |f| f.deflections,
        ),
        (
            "flow_etag_laps_total",
            "Extra laps flown after an E-tag reservation.",
            |f| f.etag_laps,
        ),
        (
            "flow_itag_wait_cycles_total",
            "Cycles spent starving at inject-queue heads.",
            |f| f.itag_waits,
        ),
    ];
    for (name, help, get) in metrics {
        line!(w, "# HELP noc_{name} {help}");
        line!(w, "# TYPE noc_{name} counter");
        for f in flows {
            line!(
                w,
                "noc_{name}{{src=\"{}\",dst=\"{}\"}} {}",
                escape_label_value(&name_of(f.src)),
                escape_label_value(&name_of(f.dst)),
                get(f)
            );
        }
    }
    out
}

/// Render a snapshot series as JSON Lines: one snapshot object per
/// line, in order. Returns an empty string for an empty series.
pub fn snapshots_jsonl(snapshots: &[MetricsSnapshot]) -> String {
    let mut out = String::new();
    for snap in snapshots {
        let line = serde_json::to_string(snap).expect("snapshot serializes");
        out.push_str(&line);
        out.push('\n');
    }
    out
}

/// Render the latest state as Prometheus text exposition (version
/// 0.0.4): cumulative counters as `noc_*_total`, instantaneous ring
/// and bridge state as labelled gauges, plus window-derived rates.
pub fn prometheus_text(snap: &MetricsSnapshot) -> String {
    let mut out = String::new();
    let w = &mut out;

    line!(
        w,
        "# HELP noc_sample_cycle Cycle of the latest metrics sample."
    );
    line!(w, "# TYPE noc_sample_cycle gauge");
    line!(w, "noc_sample_cycle {}", snap.cycle);
    line!(w, "# HELP noc_in_flight Flits inside the network.");
    line!(w, "# TYPE noc_in_flight gauge");
    line!(w, "noc_in_flight {}", snap.in_flight);

    for (name, value) in snap.cumulative.fields() {
        line!(w, "# HELP noc_{name}_total Cumulative {name} count.");
        line!(w, "# TYPE noc_{name}_total counter");
        line!(w, "noc_{name}_total {value}");
    }

    line!(
        w,
        "# HELP noc_injection_success_rate Injection wins / attempts over the last window."
    );
    line!(w, "# TYPE noc_injection_success_rate gauge");
    line!(
        w,
        "noc_injection_success_rate {}",
        snap.totals.injection_success_rate()
    );
    line!(
        w,
        "# HELP noc_deflection_rate Deflections / ejection attempts over the last window."
    );
    line!(w, "# TYPE noc_deflection_rate gauge");
    line!(w, "noc_deflection_rate {}", snap.totals.deflection_rate());

    type RingGauge = (
        &'static str,
        &'static str,
        fn(&crate::metrics::RingGauges) -> u64,
    );
    let ring_gauges: [RingGauge; 7] = [
        ("ring_occupancy", "Flits riding the ring.", |g| g.occupancy),
        ("ring_capacity", "Slot capacity of the ring.", |g| {
            g.capacity
        }),
        (
            "ring_itag_slots",
            "Slots reserved by circulating I-tags.",
            |g| g.itag_slots,
        ),
        (
            "ring_inject_backlog",
            "Flits waiting in inject queues.",
            |g| g.inject_backlog,
        ),
        (
            "ring_eject_backlog",
            "Flits waiting in eject queues.",
            |g| g.eject_backlog,
        ),
        (
            "ring_etag_backlog",
            "Outstanding E-tag reservations.",
            |g| g.etag_backlog,
        ),
        (
            "ring_max_starve",
            "Largest current injection wait (cycles).",
            |g| g.max_starve,
        ),
    ];
    for (name, help, get) in ring_gauges {
        line!(w, "# HELP noc_{name} {help}");
        line!(w, "# TYPE noc_{name} gauge");
        for r in &snap.rings {
            line!(w, "noc_{name}{{ring=\"{}\"}} {}", r.ring, get(&r.gauges));
        }
    }

    line!(
        w,
        "# HELP noc_bridge_tx_pipe Bridge-side outgoing pipeline occupancy."
    );
    line!(w, "# TYPE noc_bridge_tx_pipe gauge");
    for b in snap.bridges() {
        line!(
            w,
            "noc_bridge_tx_pipe{{bridge=\"{}\",side=\"{}\"}} {}",
            b.bridge,
            b.side,
            b.tx_pipe
        );
    }
    line!(
        w,
        "# HELP noc_bridge_in_drm Whether the bridge side is in deadlock resolution mode."
    );
    line!(w, "# TYPE noc_bridge_in_drm gauge");
    for b in snap.bridges() {
        line!(
            w,
            "noc_bridge_in_drm{{bridge=\"{}\",side=\"{}\"}} {}",
            b.bridge,
            b.side,
            u8::from(b.in_drm)
        );
    }
    line!(
        w,
        "# HELP noc_bridge_drm_entries_total DRM entries on the bridge side since start."
    );
    line!(w, "# TYPE noc_bridge_drm_entries_total counter");
    for b in snap.bridges() {
        line!(
            w,
            "noc_bridge_drm_entries_total{{bridge=\"{}\",side=\"{}\"}} {}",
            b.bridge,
            b.side,
            b.drm_entries
        );
    }
    out
}

/// Render the latest transaction-layer snapshot as Prometheus text
/// exposition (version 0.0.4) — the scrape-endpoint counterpart of
/// [`txn_snapshots_jsonl`](crate::txn_snapshots_jsonl). Completion
/// totals export as a counter, the windowed percentiles as `quantile`-
/// labelled gauges (the summary convention, minus the `_sum`/`_count`
/// series a streaming summary cannot provide), and the in-flight /
/// window-occupancy gauges directly.
pub fn prometheus_txn(snap: &TxnSnapshot) -> String {
    let mut out = String::new();
    let w = &mut out;

    line!(
        w,
        "# HELP noc_txn_sample_cycle Cycle of the latest transaction sample."
    );
    line!(w, "# TYPE noc_txn_sample_cycle gauge");
    line!(w, "noc_txn_sample_cycle {}", snap.at);
    line!(
        w,
        "# HELP noc_txn_completed_total Transactions completed since start."
    );
    line!(w, "# TYPE noc_txn_completed_total counter");
    line!(w, "noc_txn_completed_total {}", snap.completed_total);
    line!(
        w,
        "# HELP noc_txn_window_completed Transactions completed in the last window."
    );
    line!(w, "# TYPE noc_txn_window_completed gauge");
    line!(w, "noc_txn_window_completed {}", snap.completed_delta);

    line!(
        w,
        "# HELP noc_txn_latency_cycles Windowed completion-latency percentiles."
    );
    line!(w, "# TYPE noc_txn_latency_cycles gauge");
    let quantiles: [(&str, u64); 4] = [
        ("0.5", snap.p50),
        ("0.95", snap.p95),
        ("0.99", snap.p99),
        ("1", snap.max),
    ];
    for (q, v) in quantiles {
        line!(w, "noc_txn_latency_cycles{{quantile=\"{q}\"}} {v}");
    }

    line!(
        w,
        "# HELP noc_txn_inflight Transactions in flight at sample time."
    );
    line!(w, "# TYPE noc_txn_inflight gauge");
    line!(w, "noc_txn_inflight {}", snap.inflight_txns);
    line!(
        w,
        "# HELP noc_txn_window_occupancy Non-posted window slots occupied, summed over endpoints."
    );
    line!(w, "# TYPE noc_txn_window_occupancy gauge");
    line!(w, "noc_txn_window_occupancy {}", snap.window_occupancy);
    out
}

/// Render the latest wait-graph gauges as Prometheus text exposition
/// (version 0.0.4) — the scrape surface of the stall-forensics
/// detector. Blocked-holder counts export per resource class, the
/// verdict as a one-hot state set, and the freeze age directly. On a
/// fast-path sample (no ring/escape freeze, so no edge build) the
/// blocked gauges and SCC count read 0 by construction.
pub fn prometheus_wait(stats: &WaitStats) -> String {
    let mut out = String::new();
    let w = &mut out;

    line!(
        w,
        "# HELP noc_wait_sample_cycle Cycle of the latest wait-graph sample."
    );
    line!(w, "# TYPE noc_wait_sample_cycle gauge");
    line!(w, "noc_wait_sample_cycle {}", stats.cycle);

    line!(
        w,
        "# HELP noc_wait_blocked Resources of the class currently waiting on another resource."
    );
    line!(w, "# TYPE noc_wait_blocked gauge");
    for (i, class) in WAIT_CLASS_NAMES.iter().enumerate() {
        line!(
            w,
            "noc_wait_blocked{{class=\"{class}\"}} {}",
            stats.blocked[i]
        );
    }

    line!(
        w,
        "# HELP noc_wait_oldest_frozen_cycles Cycles since the oldest frozen resource last progressed."
    );
    line!(w, "# TYPE noc_wait_oldest_frozen_cycles gauge");
    line!(w, "noc_wait_oldest_frozen_cycles {}", stats.oldest_frozen);

    line!(
        w,
        "# HELP noc_wait_cyclic_sccs Cyclic strongly connected components in the wait graph."
    );
    line!(w, "# TYPE noc_wait_cyclic_sccs gauge");
    line!(w, "noc_wait_cyclic_sccs {}", stats.cyclic_sccs);

    line!(
        w,
        "# HELP noc_wait_verdict One-hot detector verdict for the sample."
    );
    line!(w, "# TYPE noc_wait_verdict gauge");
    for v in [
        WaitVerdict::Progressing,
        WaitVerdict::TransientCycle,
        WaitVerdict::Wedged,
    ] {
        line!(
            w,
            "noc_wait_verdict{{verdict=\"{v}\"}} {}",
            u8::from(stats.verdict == v)
        );
    }
    out
}

/// Render a wait-gauge series as JSON Lines, one [`WaitStats`] row per
/// line — the compact time-series twin of
/// [`wait_graphs_jsonl`](crate::waitgraph::wait_graphs_jsonl) (which
/// carries the full per-sample graphs).
pub fn wait_stats_jsonl(stats: &[WaitStats]) -> String {
    let mut out = String::new();
    for s in stats {
        out.push_str(&serde_json::to_string(s).expect("stats serialize"));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{BridgeGauges, MetricsRegistry, RingGauges, RingWindow, WindowCounters};
    use serde::Value;

    fn sample_registry() -> MetricsRegistry {
        let mut reg = MetricsRegistry::new(32);
        for i in 1..=3u64 {
            reg.commit(
                i * 32,
                32,
                2,
                vec![RingWindow {
                    ring: 0,
                    counters: WindowCounters {
                        enqueued: 4,
                        injected: 4,
                        delivered: 3,
                        delivered_bytes: 192,
                        ..WindowCounters::default()
                    },
                    gauges: RingGauges {
                        occupancy: 2,
                        capacity: 16,
                        ..RingGauges::default()
                    },
                    bridges: vec![BridgeGauges {
                        bridge: 0,
                        side: 0,
                        ring: 0,
                        tx_pipe: 1,
                        ..BridgeGauges::default()
                    }],
                    ..RingWindow::default()
                }],
            );
        }
        reg
    }

    #[test]
    fn jsonl_is_one_valid_object_per_snapshot() {
        let reg = sample_registry();
        let text = snapshots_jsonl(reg.snapshots());
        assert_eq!(text.lines().count(), 3);
        for line in text.lines() {
            let v: Value = serde_json::from_str(line).expect("valid JSON");
            assert!(v.get("cycle").is_some(), "{line}");
            assert!(v.get("totals").is_some(), "{line}");
        }
        assert!(snapshots_jsonl(&[]).is_empty());
    }

    #[test]
    fn prometheus_exposition_has_counters_and_labelled_gauges() {
        let reg = sample_registry();
        let text = prometheus_text(reg.last().expect("non-empty"));
        assert!(text.contains("noc_delivered_total 9"), "{text}");
        assert!(text.contains("noc_delivered_bytes_total 576"), "{text}");
        assert!(text.contains("noc_ring_occupancy{ring=\"0\"} 2"), "{text}");
        assert!(
            text.contains("noc_bridge_tx_pipe{bridge=\"0\",side=\"0\"} 1"),
            "{text}"
        );
        assert!(text.contains("noc_injection_success_rate 1"), "{text}");
        // Every non-comment line is `name[{labels}] value`.
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            assert_eq!(line.split_whitespace().count(), 2, "{line}");
        }
        // Every metric has HELP and TYPE headers.
        for needed in [
            "# HELP noc_sample_cycle",
            "# TYPE noc_deflection_rate gauge",
        ] {
            assert!(text.contains(needed), "{needed} missing:\n{text}");
        }
    }

    #[test]
    fn txn_exposition_has_counter_quantiles_and_gauges() {
        let mut reg = crate::TxnRegistry::new(32);
        for v in [100, 200, 300, 4000] {
            reg.record(v);
        }
        reg.sample(noc_sim::Cycle(32), 3, 7);
        let text = prometheus_txn(reg.snapshots().last().expect("sampled"));
        assert!(text.contains("noc_txn_sample_cycle 32"), "{text}");
        assert!(text.contains("noc_txn_completed_total 4"), "{text}");
        assert!(text.contains("noc_txn_window_completed 4"), "{text}");
        assert!(
            text.contains("noc_txn_latency_cycles{quantile=\"0.99\"}"),
            "{text}"
        );
        assert!(text.contains("noc_txn_inflight 3"), "{text}");
        assert!(text.contains("noc_txn_window_occupancy 7"), "{text}");
        // Format discipline: every non-comment line is `name value`,
        // every metric has HELP and TYPE headers.
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            assert_eq!(line.split_whitespace().count(), 2, "{line}");
        }
        assert_eq!(
            text.lines().filter(|l| l.starts_with("# TYPE")).count(),
            6,
            "{text}"
        );
    }

    #[test]
    fn wait_exposition_has_class_gauges_and_one_hot_verdict() {
        let stats = WaitStats {
            cycle: 96,
            verdict: WaitVerdict::Wedged,
            blocked: [2, 1, 3, 0],
            oldest_frozen: 128,
            cyclic_sccs: 1,
        };
        let text = prometheus_wait(&stats);
        assert!(text.contains("noc_wait_sample_cycle 96"), "{text}");
        assert!(
            text.contains("noc_wait_blocked{class=\"ring\"} 2"),
            "{text}"
        );
        assert!(
            text.contains("noc_wait_blocked{class=\"reassembly\"} 0"),
            "{text}"
        );
        assert!(
            text.contains("noc_wait_verdict{verdict=\"wedged\"} 1"),
            "{text}"
        );
        assert!(
            text.contains("noc_wait_verdict{verdict=\"progressing\"} 0"),
            "{text}"
        );
        assert!(text.contains("noc_wait_oldest_frozen_cycles 128"), "{text}");
        assert!(text.contains("noc_wait_cyclic_sccs 1"), "{text}");
        // Format discipline: every non-comment line is `name value`,
        // every metric has HELP and TYPE headers.
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            assert_eq!(line.split_whitespace().count(), 2, "{line}");
        }
        assert_eq!(
            text.lines().filter(|l| l.starts_with("# TYPE")).count(),
            5,
            "{text}"
        );

        let jsonl = wait_stats_jsonl(&[stats, stats]);
        assert_eq!(jsonl.lines().count(), 2);
        for line in jsonl.lines() {
            let v: Value = serde_json::from_str(line).expect("valid JSON");
            assert!(v.get("blocked").is_some(), "{line}");
            assert!(v.get("verdict").is_some(), "{line}");
        }
        assert!(wait_stats_jsonl(&[]).is_empty());
    }

    #[test]
    fn label_values_are_escaped_per_exposition_format() {
        assert_eq!(escape_label_value("plain"), "plain");
        assert_eq!(escape_label_value("a\\b\"c\nd"), "a\\\\b\\\"c\\nd");

        // A hostile workload/ring name survives the flow exporter
        // without breaking the line structure.
        let flows = vec![FlowRecord {
            src: 0,
            dst: 1,
            delivered: 7,
            latency_sum: 21,
            ..FlowRecord::default()
        }];
        let hostile = |id: u32| {
            if id == 0 {
                "evil\"ring\\one\nx".to_string()
            } else {
                "dst".to_string()
            }
        };
        let text = prometheus_flows(&flows, hostile);
        assert!(
            text.contains(
                "noc_flow_delivered_total{src=\"evil\\\"ring\\\\one\\nx\",dst=\"dst\"} 7"
            ),
            "{text}"
        );
        // No raw newline or quote leaked into a label: every
        // non-comment line still splits into exactly two fields, and
        // the line count is 5 metrics × (2 headers + 1 series).
        assert_eq!(text.lines().count(), 15, "{text}");
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            assert_eq!(line.split_whitespace().count(), 2, "{line}");
        }
    }
}
