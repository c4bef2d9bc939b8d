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

use crate::metrics::MetricsSnapshot;
use std::fmt::Write as _;

/// `writeln!` into a `String`, made explicit about infallibility
/// instead of discarding the `fmt::Result`.
macro_rules! line {
    ($out:expr, $($arg:tt)*) => {
        writeln!($out, $($arg)*).expect("writing to a String cannot fail")
    };
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
}
