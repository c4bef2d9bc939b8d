//! Machine-readable exports of the observatory's series.
//!
//! Two formats:
//!
//! * **JSONL** ([`jsonl`]) — one JSON object per item, one per line,
//!   for offline analysis of any series: metrics snapshots, the
//!   transaction series, span trees. Byte-identical run to run because
//!   the series are.
//! * **Prometheus text exposition** ([`prometheus_text`]) — the
//!   current state of the network as `noc_*` metrics with ring/bridge
//!   labels, ready for a scrape endpoint or `promtool` ingestion.
//!
//! Both, the Chrome exports and the postmortem bundle render through
//! one writer here, `written_once`, into a buffer of their final size.

use crate::metrics::MetricsSnapshot;
use serde::Serialize;
use std::fmt;

/// The one writer every export goes through: `render` runs once into
/// a counter to learn the output's length, then once more into a
/// `String` reserved to exactly that length. No export grows its
/// buffer or copies an item out of a `String` of its own, so the
/// returned string's capacity equals its length and the largest export
/// costs its own size once (DESIGN.md §11 "Exports written once").
pub(crate) fn written_once(render: impl Fn(&mut dyn fmt::Write) -> fmt::Result) -> String {
    /// A `fmt::Write` that keeps only the length written to it.
    struct Len(usize);
    impl fmt::Write for Len {
        fn write_str(&mut self, s: &str) -> fmt::Result {
            self.0 += s.len();
            Ok(())
        }
    }
    let mut len = Len(0);
    render(&mut len).expect("counting cannot fail");
    let mut out = String::with_capacity(len.0);
    render(&mut out).expect("writing to a String cannot fail");
    debug_assert_eq!(out.len(), len.0, "both passes render the same text");
    out
}

/// Render a series as JSON Lines: one object per line, in order.
/// Returns an empty string for an empty series. The crate root also
/// exports it as `snapshots_jsonl`, `txn_snapshots_jsonl` and
/// `span_trees_jsonl`, the names its callers read it by. The items are
/// walked twice (a counting pass, then the render), so their iterator
/// is `Clone`.
pub fn jsonl<'a, T: Serialize + 'a>(
    items: impl IntoIterator<Item = &'a T, IntoIter: Clone>,
) -> String {
    let items = items.into_iter();
    written_once(|w| {
        for item in items.clone() {
            serde_json::write_to(w, item)?;
            w.write_char('\n')?;
        }
        Ok(())
    })
}

/// Render the latest state as Prometheus text exposition (version
/// 0.0.4): cumulative counters as `noc_*_total`, instantaneous ring
/// and bridge state as labelled gauges, plus window-derived rates.
pub fn prometheus_text(snap: &MetricsSnapshot) -> String {
    written_once(|w| prometheus_lines(w, snap))
}

fn prometheus_lines(w: &mut dyn fmt::Write, snap: &MetricsSnapshot) -> fmt::Result {
    writeln!(
        w,
        "# HELP noc_sample_cycle Cycle of the latest metrics sample."
    )?;
    writeln!(w, "# TYPE noc_sample_cycle gauge")?;
    writeln!(w, "noc_sample_cycle {}", snap.cycle)?;
    writeln!(w, "# HELP noc_in_flight Flits inside the network.")?;
    writeln!(w, "# TYPE noc_in_flight gauge")?;
    writeln!(w, "noc_in_flight {}", snap.in_flight)?;

    for (name, value) in snap.cumulative.fields() {
        writeln!(w, "# HELP noc_{name}_total Cumulative {name} count.")?;
        writeln!(w, "# TYPE noc_{name}_total counter")?;
        writeln!(w, "noc_{name}_total {value}")?;
    }

    writeln!(
        w,
        "# HELP noc_injection_success_rate Injection wins / attempts over the last window."
    )?;
    writeln!(w, "# TYPE noc_injection_success_rate gauge")?;
    writeln!(
        w,
        "noc_injection_success_rate {}",
        snap.totals.injection_success_rate()
    )?;
    writeln!(
        w,
        "# HELP noc_deflection_rate Deflections / ejection attempts over the last window."
    )?;
    writeln!(w, "# TYPE noc_deflection_rate gauge")?;
    writeln!(w, "noc_deflection_rate {}", snap.totals.deflection_rate())?;

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
        writeln!(w, "# HELP noc_{name} {help}")?;
        writeln!(w, "# TYPE noc_{name} gauge")?;
        for r in &snap.rings {
            writeln!(w, "noc_{name}{{ring=\"{}\"}} {}", r.ring, get(&r.gauges))?;
        }
    }

    writeln!(
        w,
        "# HELP noc_bridge_tx_pipe Bridge-side outgoing pipeline occupancy."
    )?;
    writeln!(w, "# TYPE noc_bridge_tx_pipe gauge")?;
    for b in snap.bridges() {
        writeln!(
            w,
            "noc_bridge_tx_pipe{{bridge=\"{}\",side=\"{}\"}} {}",
            b.bridge, b.side, b.tx_pipe
        )?;
    }
    writeln!(
        w,
        "# HELP noc_bridge_in_drm Whether the bridge side is in deadlock resolution mode."
    )?;
    writeln!(w, "# TYPE noc_bridge_in_drm gauge")?;
    for b in snap.bridges() {
        writeln!(
            w,
            "noc_bridge_in_drm{{bridge=\"{}\",side=\"{}\"}} {}",
            b.bridge,
            b.side,
            u8::from(b.in_drm)
        )?;
    }
    writeln!(
        w,
        "# HELP noc_bridge_drm_entries_total DRM entries on the bridge side since start."
    )?;
    writeln!(w, "# TYPE noc_bridge_drm_entries_total counter")?;
    for b in snap.bridges() {
        writeln!(
            w,
            "noc_bridge_drm_entries_total{{bridge=\"{}\",side=\"{}\"}} {}",
            b.bridge, b.side, b.drm_entries
        )?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chrome::{chrome_trace, spans_chrome_trace};
    use crate::event::{FlitEvent, TraceRecord, NO_FLIT, NO_LANE};
    use crate::flowstats::FlowRecord;
    use crate::health::{HealthRule, Severity, Verdict};
    use crate::metrics::{BridgeGauges, MetricsRegistry, RingGauges, RingWindow, WindowCounters};
    use crate::postmortem::{BundleMeta, PostmortemBundle};
    use crate::spans::{FlitSpan, PacketSpan, SpanRole, TxnSpanTree};
    use crate::txnstats::TxnSnapshot;
    use crate::waitgraph::{ResourceId, WaitEdge, WedgeReport};
    use serde::Value;

    fn sample_registry() -> MetricsRegistry {
        let mut reg = MetricsRegistry::new(32, 3);
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

    /// A packet span of `flits` flits staged at `at` and reassembled 9
    /// cycles later.
    fn packet(packet: u64, parent: Option<u64>, role: SpanRole, at: u64) -> PacketSpan {
        PacketSpan {
            packet,
            parent,
            role,
            src: packet as u32,
            dst: packet as u32 + 4,
            class: 0,
            bytes: 64,
            flits: 2,
            staged_at: at,
            first_flit_at: at + 6,
            reassembled_at: at + 9,
            hops: 5,
            deflections: 1,
            recirc_cycles: 2,
            etag_laps: 0,
            itag_wait: 1,
            bridge_crossings: 1,
            crit: FlitSpan {
                enqueued_at: at + 1,
                injected_at: at + 3,
                delivered_at: at + 9,
                hops: 5,
                deflections: 1,
                recirc_cycles: 2,
                etag_laps: 0,
                itag_wait: 1,
                bridge_crossings: 1,
            },
        }
    }

    /// A read (request, response) and a broadcast whose first copy a
    /// relay forwards.
    fn trees() -> Vec<TxnSpanTree> {
        let tree = |txn, op, packets: Vec<PacketSpan>| TxnSpanTree {
            txn,
            op,
            src: 0,
            dst: 4,
            bytes: 64,
            issued_at: 10,
            req_done_at: Some(19),
            completed_at: 28,
            window_occupancy: 2,
            final_packet: packets.last().map_or(0, |p| p.packet),
            packets,
        };
        vec![
            tree(
                7,
                0,
                vec![
                    packet(0, None, SpanRole::Request, 10),
                    packet(1, Some(0), SpanRole::Response, 19),
                ],
            ),
            tree(
                8,
                5,
                vec![
                    packet(2, None, SpanRole::Request, 10),
                    packet(3, Some(2), SpanRole::Relay, 19),
                ],
            ),
        ]
    }

    /// Every `FlitEvent` kind once on flit 1 between its enqueue and its
    /// delivery, and a ring occupancy sample.
    fn records() -> Vec<TraceRecord> {
        let events = [
            FlitEvent::Enqueued { node: 3, class: 1 },
            FlitEvent::InjectLost { node: 3 },
            FlitEvent::ITagSet { node: 3 },
            FlitEvent::ITagClaimed { node: 3 },
            FlitEvent::Injected { node: 3 },
            FlitEvent::Deflected { target: 9 },
            FlitEvent::ETagReserved { target: 9 },
            FlitEvent::SwapTriggered { node: 9 },
            FlitEvent::Ejected { node: 9 },
            FlitEvent::BridgeEnqueued { bridge: 2 },
            FlitEvent::BridgeStalled { bridge: 2 },
            FlitEvent::RingUtil {
                occupied: 5,
                capacity: 16,
            },
            FlitEvent::Delivered { node: 12, class: 1 },
        ];
        (0..)
            .zip(events)
            .map(|(cycle, event)| TraceRecord {
                cycle: 4 * cycle,
                flit: if matches!(event, FlitEvent::RingUtil { .. }) {
                    NO_FLIT
                } else {
                    1
                },
                ring: 1,
                station: 6,
                lane: NO_LANE,
                event,
            })
            .collect()
    }

    fn bundle(snapshot: &MetricsSnapshot, records: &[TraceRecord]) -> PostmortemBundle {
        let edge = |holder| WaitEdge {
            from: ResourceId::Ring { ring: 0 },
            to: ResourceId::Escape { bridge: 0, side: 1 },
            holder,
        };
        PostmortemBundle {
            meta: BundleMeta {
                reason: "watchdog: \"CRIT\"\tliveness".into(),
                cycle: 96,
                stations: vec![8],
                flow_top_k: 8,
                snapshots_seen: 3,
                events_seen: records.len() as u64,
                config: Value::Object(vec![("itag_threshold".into(), Value::UInt(8))]),
            },
            verdicts: vec![Verdict {
                cycle: 96,
                rule: HealthRule::LivenessStall,
                severity: Severity::Critical,
                ring: Some(0),
                bridge: Some((0, 1)),
                value: 0.1,
                threshold: 512.0,
                message: "no progress for 512 cycles".into(),
            }],
            flows: vec![FlowRecord {
                src: 1,
                dst: 5,
                delivered: 2,
                latency_sum: 40,
                deflections: 3,
                etag_laps: 1,
                itag_waits: 3,
                overcount: 0,
            }],
            links: vec![vec![0, 4, 9, 0, 0, 0, 0, 0]],
            snapshots: vec![snapshot.clone()],
            events: records.to_vec(),
            txn_exemplars: trees(),
            wedges: vec![WedgeReport {
                cycle: 96,
                stalled_for: 128,
                chain: vec![edge(12)],
                pinned: vec![edge(17)],
                holders: vec![12, 17],
            }],
        }
    }

    /// Every export over a fixture that takes each of its paths: the
    /// three series `jsonl` renders, a trace with every event kind and
    /// a delivered flit, read and broadcast span trees, a bundle. Each
    /// comes back in a buffer of exactly its size, and its text is the
    /// pinned one.
    #[test]
    fn every_export_is_written_once_into_a_buffer_of_its_size() {
        let reg = sample_registry();
        let snap = reg.last().expect("committed");
        let txn = [TxnSnapshot {
            at: 64,
            completed_total: 9,
            completed_delta: 4,
            p50: 30,
            p95: 41,
            p99: 44,
            max: 44,
            inflight_txns: 3,
            window_occupancy: 2,
        }];
        let (records, trees) = (records(), trees());
        let exports = [
            ("snapshots_jsonl", jsonl(reg.snapshots())),
            ("txn_snapshots_jsonl", jsonl(&txn)),
            ("span_trees_jsonl", jsonl(&trees)),
            ("prometheus_text", prometheus_text(snap)),
            ("chrome_trace", chrome_trace(&records)),
            ("spans_chrome_trace", spans_chrome_trace(&trees)),
            ("bundle", bundle(snap, &records).to_jsonl()),
        ];
        let mut all = String::new();
        for (name, text) in &exports {
            assert_eq!(text.capacity(), text.len(), "{name}: slack in its buffer");
            all.push_str(&format!("== {name}\n{text}\n"));
        }
        assert_eq!(all, include_str!("../testdata/exports.txt"));
    }

    #[test]
    fn jsonl_is_one_valid_object_per_snapshot() {
        let reg = sample_registry();
        let text = jsonl(reg.snapshots());
        assert_eq!(text.lines().count(), 3);
        for line in text.lines() {
            let v: Value = serde_json::from_str(line).expect("valid JSON");
            assert!(v.get("cycle").is_some(), "{line}");
            assert!(v.get("totals").is_some(), "{line}");
        }
        assert!(jsonl::<MetricsSnapshot>(&[]).is_empty());
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
