//! Chrome `trace_event` export: visual flit timelines.
//!
//! [`chrome_trace`] converts a recorded trace into the JSON Object
//! Format of the Trace Event specification — load the output in
//! `chrome://tracing` or <https://ui.perfetto.dev>. Each flit gets a
//! complete (`"ph":"X"`) span from enqueue to delivery on its own
//! track, lifecycle incidents (deflections, tag placements, SWAPs,
//! bridge stalls) appear as instant events on the flit's track, and
//! ring occupancy samples become counter (`"ph":"C"`) tracks.
//!
//! Cycle numbers are written directly as microsecond timestamps: the
//! viewer's "us" axis reads as cycles.

use crate::critical::critical_path;
use crate::event::{FlitEvent, TraceRecord};
use crate::export::written_once;
use crate::spans::TxnSpanTree;
use std::collections::HashMap;
use std::fmt;

/// Human name of a flit-class index (mirrors
/// `noc_core::FlitClass::index()`).
const CLASS_NAMES: [&str; 4] = ["REQ", "RSP", "SNP", "DAT"];

/// Process ids used to group tracks in the viewer.
const PID_FLITS: u32 = 1;
const PID_RINGS: u32 = 2;

fn class_name(class: u8) -> &'static str {
    CLASS_NAMES.get(class as usize).copied().unwrap_or("?")
}

/// The name of an instant event: a fixed word, or `bridge{id}-` and a
/// suffix.
struct InstantName(Option<u16>, &'static str);

impl fmt::Display for InstantName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.0 {
            Some(bridge) => write!(f, "bridge{bridge}-{}", self.1),
            None => f.write_str(self.1),
        }
    }
}

fn instant_name(event: &FlitEvent) -> Option<InstantName> {
    Some(match *event {
        FlitEvent::InjectLost { .. } => InstantName(None, "inject-lost"),
        FlitEvent::ITagSet { .. } => InstantName(None, "itag-set"),
        FlitEvent::ITagClaimed { .. } => InstantName(None, "itag-claimed"),
        FlitEvent::Deflected { .. } => InstantName(None, "deflected"),
        FlitEvent::ETagReserved { .. } => InstantName(None, "etag-reserved"),
        FlitEvent::BridgeEnqueued { bridge } => InstantName(Some(bridge), "enq"),
        FlitEvent::BridgeStalled { bridge } => InstantName(Some(bridge), "stall"),
        FlitEvent::SwapTriggered { .. } => InstantName(None, "swap"),
        _ => return None,
    })
}

/// A `trace_event` JSON object whose event array `events` writes,
/// rendered by the one export writer. `events` is handed the output
/// and a separator that reads `""` before the first event and `","`
/// before every later one.
fn trace_object(
    events: impl Fn(&mut dyn fmt::Write, &mut dyn FnMut() -> &'static str) -> fmt::Result,
) -> String {
    written_once(|w| {
        w.write_str("{\"traceEvents\":[")?;
        let mut first = true;
        events(w, &mut || if std::mem::take(&mut first) { "" } else { "," })?;
        w.write_str("],\"displayTimeUnit\":\"ns\"}")
    })
}

/// Render `records` as a Chrome `trace_event` JSON object.
///
/// # Example
///
/// ```
/// use noc_telemetry::{chrome_trace, FlitEvent, TraceRecord, NO_LANE};
/// let stamp = |cycle, event| TraceRecord {
///     cycle, flit: 1, ring: 0, station: 0, lane: NO_LANE, event,
/// };
/// let json = chrome_trace(&[
///     stamp(0, FlitEvent::Enqueued { node: 0, class: 3 }),
///     stamp(9, FlitEvent::Delivered { node: 2, class: 3 }),
/// ]);
/// assert!(json.starts_with("{\"traceEvents\":["));
/// assert!(json.contains("\"ph\":\"X\""));
/// ```
pub fn chrome_trace(records: &[TraceRecord]) -> String {
    trace_object(|w, sep| {
        // (enqueue cycle, src node) per in-flight flit.
        let mut open: HashMap<u64, (u64, u32)> = HashMap::new();
        for r in records {
            match r.event {
                FlitEvent::Enqueued { node, .. } => {
                    open.insert(r.flit, (r.cycle, node));
                }
                FlitEvent::Delivered { node, class } => {
                    if let Some((start, src)) = open.remove(&r.flit) {
                        write!(
                            w,
                            "{}{{\"name\":\"flit {} {} n{}->n{}\",\"cat\":\"flit\",\
                             \"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":{},\"tid\":{}}}",
                            sep(),
                            r.flit,
                            class_name(class),
                            src,
                            node,
                            start,
                            (r.cycle - start).max(1),
                            PID_FLITS,
                            r.flit
                        )?;
                    }
                }
                FlitEvent::RingUtil { occupied, .. } => write!(
                    w,
                    "{}{{\"name\":\"ring{} occupancy\",\"ph\":\"C\",\"ts\":{},\
                     \"pid\":{},\"tid\":0,\"args\":{{\"occupied\":{}}}}}",
                    sep(),
                    r.ring,
                    r.cycle,
                    PID_RINGS,
                    occupied
                )?,
                _ => {
                    if let Some(name) = instant_name(&r.event) {
                        write!(
                            w,
                            "{}{{\"name\":\"{} r{}s{}\",\"cat\":\"lifecycle\",\"ph\":\"i\",\
                             \"ts\":{},\"pid\":{},\"tid\":{},\"s\":\"t\"}}",
                            sep(),
                            name,
                            r.ring,
                            r.station,
                            r.cycle,
                            PID_FLITS,
                            r.flit
                        )?;
                    }
                }
            }
        }
        Ok(())
    })
}

/// Render transaction span trees as a Chrome `trace_event` JSON object.
///
/// Each transaction becomes its own process: track 0 carries the root
/// span (issue → completion) with the critical chain's phase segments
/// nested under it, and every packet gets a complete span on its own
/// track (staged → reassembled) so overlapping request packets render
/// side by side. Load in `chrome://tracing` or
/// <https://ui.perfetto.dev>; cycle numbers are written as microsecond
/// timestamps, so the "us" axis reads as cycles.
pub fn spans_chrome_trace(trees: &[TxnSpanTree]) -> String {
    trace_object(|w, sep| {
        for tree in trees {
            let pid = tree.txn;
            write!(
                w,
                "{}{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{},\"tid\":0,\
                 \"args\":{{\"name\":\"txn {} {} n{}->n{}\"}}}}",
                sep(),
                pid,
                tree.txn,
                tree.op_name(),
                tree.src,
                tree.dst
            )?;
            write!(
                w,
                "{}{{\"name\":\"txn {} {}\",\"cat\":\"txn\",\"ph\":\"X\",\
                 \"ts\":{},\"dur\":{},\"pid\":{},\"tid\":0,\
                 \"args\":{{\"bytes\":{},\"window_occupancy\":{}}}}}",
                sep(),
                tree.txn,
                tree.op_name(),
                tree.issued_at,
                tree.latency().max(1),
                pid,
                tree.bytes,
                tree.window_occupancy
            )?;

            // Critical-chain phase segments, nested inside the root span
            // on track 0: contiguous and non-overlapping by construction.
            for link in &critical_path(tree).links {
                let mut at = link.from;
                for (name, cycles) in crate::critical::PHASE_NAMES
                    .iter()
                    .zip(link.phases.as_array())
                {
                    if cycles == 0 {
                        continue;
                    }
                    write!(
                        w,
                        "{}{{\"name\":\"{} p{}\",\"cat\":\"critical\",\"ph\":\"X\",\
                         \"ts\":{},\"dur\":{},\"pid\":{},\"tid\":0}}",
                        sep(),
                        name,
                        link.packet,
                        at,
                        cycles,
                        pid
                    )?;
                    at += cycles;
                }
            }

            for (i, p) in tree.packets.iter().enumerate() {
                write!(
                    w,
                    "{}{{\"name\":\"pkt {} {} n{}->n{}\",\"cat\":\"packet\",\"ph\":\"X\",\
                     \"ts\":{},\"dur\":{},\"pid\":{},\"tid\":{},\
                     \"args\":{{\"flits\":{},\"hops\":{},\"deflections\":{},\
                     \"recirc\":{},\"bridges\":{}}}}}",
                    sep(),
                    p.packet,
                    p.role.name(),
                    p.src,
                    p.dst,
                    p.staged_at,
                    (p.reassembled_at - p.staged_at).max(1),
                    pid,
                    i + 1,
                    p.flits,
                    p.hops,
                    p.deflections,
                    p.recirc_cycles,
                    p.bridge_crossings
                )?;
            }
        }
        Ok(())
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{NO_FLIT, NO_LANE};
    use serde::Value;

    fn stamp(cycle: u64, flit: u64, event: FlitEvent) -> TraceRecord {
        TraceRecord {
            cycle,
            flit,
            ring: 0,
            station: 2,
            lane: NO_LANE,
            event,
        }
    }

    #[test]
    fn export_is_loadable_json_with_spans_and_counters() {
        let records = vec![
            stamp(0, 1, FlitEvent::Enqueued { node: 0, class: 1 }),
            stamp(3, 1, FlitEvent::Deflected { target: 4 }),
            stamp(
                8,
                NO_FLIT,
                FlitEvent::RingUtil {
                    occupied: 1,
                    capacity: 16,
                },
            ),
            stamp(10, 1, FlitEvent::Delivered { node: 4, class: 1 }),
        ];
        let json = chrome_trace(&records);
        let v: Value = serde_json::from_str(&json).expect("valid JSON");
        let events = v
            .get("traceEvents")
            .and_then(Value::as_array)
            .expect("traceEvents array");
        assert_eq!(events.len(), 3, "span + instant + counter: {json}");
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"ph\":\"i\""));
        assert!(json.contains("\"ph\":\"C\""));
        assert!(json.contains("\"dur\":10"));
        assert!(json.contains("RSP"), "class name in span name: {json}");
    }

    #[test]
    fn undelivered_flits_produce_no_span() {
        let records = vec![stamp(0, 1, FlitEvent::Enqueued { node: 0, class: 0 })];
        let json = chrome_trace(&records);
        assert!(!json.contains("\"ph\":\"X\""));
        let _: Value = serde_json::from_str(&json).expect("still valid JSON");
    }

    #[test]
    fn zero_length_span_gets_unit_duration() {
        let records = vec![
            stamp(5, 2, FlitEvent::Enqueued { node: 0, class: 0 }),
            stamp(5, 2, FlitEvent::Delivered { node: 1, class: 0 }),
        ];
        let json = chrome_trace(&records);
        assert!(json.contains("\"dur\":1"), "{json}");
    }

    #[test]
    fn span_export_is_loadable_json_with_phase_segments() {
        use crate::spans::{FlitSpan, PacketSpan, SpanRole};
        let tree = TxnSpanTree {
            txn: 3,
            op: 0,
            src: 0,
            dst: 4,
            bytes: 64,
            issued_at: 10,
            req_done_at: Some(30),
            completed_at: 40,
            window_occupancy: 1,
            final_packet: 1,
            packets: vec![
                PacketSpan {
                    packet: 0,
                    parent: None,
                    role: SpanRole::Request,
                    src: 0,
                    dst: 4,
                    class: 0,
                    bytes: 64,
                    flits: 2,
                    staged_at: 10,
                    first_flit_at: 25,
                    reassembled_at: 30,
                    hops: 20,
                    deflections: 1,
                    recirc_cycles: 3,
                    etag_laps: 0,
                    itag_wait: 2,
                    bridge_crossings: 1,
                    crit: FlitSpan {
                        enqueued_at: 12,
                        injected_at: 14,
                        delivered_at: 30,
                        hops: 13,
                        deflections: 1,
                        recirc_cycles: 3,
                        etag_laps: 0,
                        itag_wait: 2,
                        bridge_crossings: 1,
                    },
                },
                PacketSpan {
                    packet: 1,
                    parent: Some(0),
                    role: SpanRole::Response,
                    src: 4,
                    dst: 0,
                    class: 1,
                    bytes: 0,
                    flits: 1,
                    staged_at: 30,
                    first_flit_at: 40,
                    reassembled_at: 40,
                    hops: 8,
                    deflections: 0,
                    recirc_cycles: 0,
                    etag_laps: 0,
                    itag_wait: 0,
                    bridge_crossings: 0,
                    crit: FlitSpan {
                        enqueued_at: 31,
                        injected_at: 32,
                        delivered_at: 40,
                        hops: 8,
                        deflections: 0,
                        recirc_cycles: 0,
                        etag_laps: 0,
                        itag_wait: 0,
                        bridge_crossings: 0,
                    },
                },
            ],
        };
        let json = spans_chrome_trace(&[tree]);
        let v: Value = serde_json::from_str(&json).expect("valid JSON");
        let events = v
            .get("traceEvents")
            .and_then(Value::as_array)
            .expect("traceEvents array");
        // 1 process_name + 1 root + phase segments + 2 packet spans.
        assert!(events.len() >= 4, "{json}");
        assert!(json.contains("\"ph\":\"M\""), "{json}");
        assert!(json.contains("txn 3 read"), "{json}");
        assert!(json.contains("pkt 1 response"), "{json}");
        assert!(json.contains("\"recirc p0\""), "phase segment: {json}");
        assert!(spans_chrome_trace(&[]).contains("traceEvents"));
    }
}
