//! Postmortem bundles: everything a latched health verdict needs to be
//! debugged offline, in one self-contained artifact.
//!
//! A [`PostmortemBundle`] collects the recent past (the flight
//! recorder's retained snapshots and events), the attribution layer
//! (flow top-K and the per-link heat matrix), the fired watchdog
//! verdicts, and the run's identity (the engine config) — enough to
//! understand the pathology *and* to replay the run deterministically.
//!
//! # Serialization and byte-identity
//!
//! [`PostmortemBundle::to_jsonl`] renders one `{"kind": ...}` object
//! per line. Every line is simulation output, so two runs of one
//! simulation render byte-identical bundles.

use crate::flowstats::{flow_table_ascii, FlowRecord};
use crate::health::Verdict;
use crate::metrics::MetricsSnapshot;
use crate::spans::TxnSpanTree;
use crate::waitgraph::WedgeReport;
use crate::TraceRecord;
use serde::{Deserialize, Serialize, Value};

/// Identity and provenance of a bundle: why and when it was captured,
/// what it covers, and the engine configuration needed to replay the
/// run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BundleMeta {
    /// Why the bundle was captured: `"watchdog: ..."` for latched
    /// verdicts, or the label passed to an explicit dump.
    pub reason: String,
    /// Cycle the bundle was captured at.
    pub cycle: u64,
    /// Stations per ring, ascending ring id — makes the bundle
    /// self-contained for rendering heatmaps without the topology.
    pub stations: Vec<u16>,
    /// Flow-table cut applied when merging per-ring tables.
    pub flow_top_k: usize,
    /// Snapshots ever committed (retained or scrolled off the ring).
    pub snapshots_seen: u64,
    /// Trace events ever recorded (retained or scrolled off).
    pub events_seen: u64,
    /// The engine configuration as a JSON tree.
    pub config: Value,
}

/// A self-contained postmortem of one network run. See the module docs.
#[derive(Debug, Clone, PartialEq)]
pub struct PostmortemBundle {
    /// Capture identity and replay provenance.
    pub meta: BundleMeta,
    /// Every watchdog verdict fired up to the capture, in firing order.
    pub verdicts: Vec<Verdict>,
    /// Merged flow top-K: the heaviest src→dst pairs with delivery,
    /// latency, deflection, E-tag-lap and I-tag-wait attribution.
    pub flows: Vec<FlowRecord>,
    /// Per-ring link heat: cumulative flit traversals of each
    /// station's incoming link, `links[ring][station]`.
    pub links: Vec<Vec<u64>>,
    /// The flight recorder's retained snapshots, oldest first.
    pub snapshots: Vec<MetricsSnapshot>,
    /// The flight recorder's retained flit-lifecycle events, oldest
    /// first (empty when the network ran without a tracing sink).
    pub events: Vec<TraceRecord>,
    /// Tail exemplars from the transaction layer: the K slowest
    /// transactions' full span trees at capture time, slowest first —
    /// causal context for the latched verdict (empty when the run had
    /// no transaction layer or span tracing was off).
    pub txn_exemplars: Vec<TxnSpanTree>,
    /// Wedge reports from the stall-forensics latch: the cyclic-wait
    /// certificates latched before capture (empty when forensics was
    /// off or nothing wedged).
    pub wedges: Vec<WedgeReport>,
}

/// Wrapper for the `"kind":"links"` line.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct LinksLine {
    cells: Vec<Vec<u64>>,
}

/// Serialize `value` as one JSONL line with a leading `"kind"` tag.
fn kind_line(kind: &str, value: &impl Serialize) -> String {
    let inner = match value.to_value() {
        Value::Object(entries) => entries,
        other => vec![("value".to_string(), other)],
    };
    let mut entries = vec![("kind".to_string(), Value::Str(kind.to_string()))];
    entries.extend(inner);
    serde_json::to_string(&Value::Object(entries)).expect("bundle line serializes")
}

impl PostmortemBundle {
    /// Render the bundle as JSON Lines: one `meta` line, then one line
    /// per verdict, flow, the link matrix, each snapshot, each event,
    /// each transaction exemplar and each wedge report.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        out.push_str(&kind_line("meta", &self.meta));
        out.push('\n');
        for v in &self.verdicts {
            out.push_str(&kind_line("verdict", v));
            out.push('\n');
        }
        for f in &self.flows {
            out.push_str(&kind_line("flow", f));
            out.push('\n');
        }
        out.push_str(&kind_line(
            "links",
            &LinksLine {
                cells: self.links.clone(),
            },
        ));
        out.push('\n');
        for s in &self.snapshots {
            out.push_str(&kind_line("snapshot", s));
            out.push('\n');
        }
        for e in &self.events {
            out.push_str(&kind_line("event", e));
            out.push('\n');
        }
        for t in &self.txn_exemplars {
            out.push_str(&kind_line("txn_exemplar", t));
            out.push('\n');
        }
        for w in &self.wedges {
            out.push_str(&kind_line("wedge", w));
            out.push('\n');
        }
        out
    }

    /// Parse a bundle back from its [`PostmortemBundle::to_jsonl`]
    /// rendering.
    ///
    /// # Errors
    ///
    /// Fails on malformed JSON, unknown `kind` tags, or a missing
    /// `meta`/`links` line.
    pub fn from_jsonl(text: &str) -> Result<Self, serde_json::Error> {
        let mut meta = None;
        let mut verdicts = Vec::new();
        let mut flows = Vec::new();
        let mut links = None;
        let mut snapshots = Vec::new();
        let mut events = Vec::new();
        let mut txn_exemplars = Vec::new();
        let mut wedges = Vec::new();
        for line in text.lines().filter(|l| !l.trim().is_empty()) {
            let v: Value = serde_json::from_str(line)?;
            let kind = v
                .get("kind")
                .and_then(Value::as_str)
                .ok_or_else(|| serde_json::Error("bundle line without kind".into()))?;
            // The extra "kind" key is ignored by the typed parses.
            match kind {
                "meta" => meta = Some(serde_json::from_value::<BundleMeta>(&v)?),
                "verdict" => verdicts.push(serde_json::from_value::<Verdict>(&v)?),
                "flow" => flows.push(serde_json::from_value::<FlowRecord>(&v)?),
                "links" => links = Some(serde_json::from_value::<LinksLine>(&v)?.cells),
                "snapshot" => snapshots.push(serde_json::from_value::<MetricsSnapshot>(&v)?),
                "event" => events.push(serde_json::from_value::<TraceRecord>(&v)?),
                "txn_exemplar" => txn_exemplars.push(serde_json::from_value::<TxnSpanTree>(&v)?),
                "wedge" => wedges.push(serde_json::from_value::<WedgeReport>(&v)?),
                other => {
                    return Err(serde_json::Error(format!(
                        "unknown bundle line kind {other:?}"
                    )))
                }
            }
        }
        Ok(PostmortemBundle {
            meta: meta.ok_or_else(|| serde_json::Error("bundle without meta line".into()))?,
            verdicts,
            flows,
            links: links.ok_or_else(|| serde_json::Error("bundle without links line".into()))?,
            snapshots,
            events,
            txn_exemplars,
            wedges,
        })
    }

    /// Human-readable postmortem: the trigger, the fired rules, the
    /// flow attribution table and the per-link heat rows.
    pub fn render(&self) -> String {
        let mut out = format!(
            "postmortem @ cycle {} — {}\n",
            self.meta.cycle, self.meta.reason
        );
        out.push_str(&format!(
            "  history: {} snapshot(s) retained of {} seen, {} event(s) of {}\n",
            self.snapshots.len(),
            self.meta.snapshots_seen,
            self.events.len(),
            self.meta.events_seen
        ));
        if self.verdicts.is_empty() {
            out.push_str("  verdicts: none\n");
        } else {
            out.push_str(&format!("  verdicts: {}\n", self.verdicts.len()));
            for v in &self.verdicts {
                out.push_str(&format!("    {v}\n"));
            }
        }
        if !self.txn_exemplars.is_empty() {
            out.push_str(&format!(
                "  txn exemplars: {} (slowest: txn {} at {} cycles)\n",
                self.txn_exemplars.len(),
                self.txn_exemplars[0].txn,
                self.txn_exemplars[0].latency()
            ));
        }
        for w in &self.wedges {
            out.push('\n');
            out.push_str(&w.render());
        }
        out.push_str("\nflow attribution (top flows by delivered + deflections):\n");
        out.push_str(&flow_table_ascii(&self.flows, |id| format!("n{id}")));
        out.push('\n');
        out.push_str(&link_heat_ascii(
            "link utilization (flit traversals per incoming link)",
            &self.meta.stations,
            &self.links,
        ));
        out
    }
}

/// Intensity ramp of every ASCII heat rendering, blank to densest.
const RAMP: [char; 10] = [' ', '.', ':', '-', '=', '+', '*', '#', '%', '@'];

/// The heat character of a cell holding `v` on a map whose hottest cell
/// holds `max`: zero stays blank and any non-zero count is visible, the
/// ramp step being ⌈9·v / max⌉. [`link_heat_ascii`] and
/// `noc_core::render::ascii_heatmap` both draw their cells with it.
pub fn heat_cell(v: u64, max: u64) -> char {
    if v == 0 {
        return RAMP[0];
    }
    let step = (v * (RAMP.len() as u64 - 1)).div_ceil(max.max(v));
    RAMP[step as usize]
}

/// Render a per-(ring, station) matrix as ASCII heat rows without
/// needing a topology — `stations[r]` gives row r's width. The scale is
/// normalized to the hottest cell; an all-zero matrix (idle network)
/// renders as blank cells with a `max 0` scale instead of dividing by
/// zero.
pub fn link_heat_ascii(title: &str, stations: &[u16], cells: &[Vec<u64>]) -> String {
    let max = cells.iter().flatten().copied().max().unwrap_or(0);
    let mut out = format!("{title} (max {max})\n");
    for (r, row) in cells.iter().enumerate() {
        let width = stations.get(r).copied().unwrap_or(row.len() as u16) as usize;
        out.push_str(&format!("ring {r:>2} |"));
        for s in 0..width {
            out.push(heat_cell(row.get(s).copied().unwrap_or(0), max));
        }
        out.push_str("|\n");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::health::{HealthRule, Severity};
    use crate::metrics::MetricsSnapshot;
    use crate::waitgraph::{ResourceId, WaitEdge};

    fn sample_bundle() -> PostmortemBundle {
        PostmortemBundle {
            meta: BundleMeta {
                reason: "watchdog: CRIT:liveness-stall".into(),
                cycle: 640,
                stations: vec![8, 6],
                flow_top_k: 8,
                snapshots_seen: 10,
                events_seen: 0,
                config: Value::Object(vec![("itag_threshold".into(), Value::UInt(8))]),
            },
            verdicts: vec![Verdict {
                cycle: 640,
                rule: HealthRule::LivenessStall,
                severity: Severity::Critical,
                ring: None,
                bridge: None,
                value: 512.0,
                threshold: 512.0,
                message: "no delivery for 512 cycles".into(),
            }],
            flows: vec![FlowRecord {
                src: 1,
                dst: 5,
                delivered: 2,
                latency_sum: 40,
                deflections: 100,
                etag_laps: 90,
                itag_waits: 3,
                overcount: 0,
            }],
            links: vec![vec![0, 4, 9, 0, 0, 0, 0, 0], vec![0; 6]],
            snapshots: vec![MetricsSnapshot {
                seq: 9,
                cycle: 640,
                ..MetricsSnapshot::default()
            }],
            events: Vec::new(),
            txn_exemplars: vec![TxnSpanTree {
                txn: 17,
                op: 1,
                src: 1,
                dst: 5,
                bytes: 4096,
                issued_at: 10,
                req_done_at: None,
                completed_at: 630,
                window_occupancy: 4,
                final_packet: 3,
                packets: Vec::new(),
            }],
            wedges: vec![WedgeReport {
                cycle: 640,
                stalled_for: 128,
                chain: vec![WaitEdge {
                    from: ResourceId::Ring { ring: 0 },
                    to: ResourceId::Escape { bridge: 0, side: 1 },
                    holder: 12,
                }],
                pinned: vec![WaitEdge {
                    from: ResourceId::Window { node: 3 },
                    to: ResourceId::Ring { ring: 0 },
                    holder: 17,
                }],
                holders: vec![12, 17],
            }],
        }
    }

    #[test]
    fn jsonl_round_trips() {
        let b = sample_bundle();
        let text = b.to_jsonl();
        let back = PostmortemBundle::from_jsonl(&text).expect("parses");
        assert_eq!(b, back);
        // Every line is a kind-tagged JSON object.
        for line in text.lines() {
            let v: Value = serde_json::from_str(line).expect("valid JSON");
            assert!(v.get("kind").is_some(), "{line}");
        }
    }

    #[test]
    fn an_env_line_is_an_unknown_kind() {
        let text = sample_bundle().to_jsonl();
        // Bundles used to carry an environment line after `meta`.
        let old = text.replacen('\n', "\n{\"kind\":\"env\"}\n", 1);
        let err = PostmortemBundle::from_jsonl(&old).expect_err("env is no bundle line");
        assert!(
            err.0.contains("unknown bundle line kind \"env\""),
            "{err:?}"
        );
    }

    #[test]
    fn render_names_the_flow_and_the_trigger() {
        let r = sample_bundle().render();
        assert!(r.contains("liveness-stall"), "{r}");
        assert!(r.contains("n1 -> n5"), "{r}");
        assert!(r.contains("link utilization"), "{r}");
        assert!(
            r.contains("txn exemplars: 1 (slowest: txn 17 at 620 cycles)"),
            "{r}"
        );
    }

    #[test]
    fn exemplar_lines_round_trip_and_stay_comparable() {
        let b = sample_bundle();
        let text = b.to_jsonl();
        assert!(text.contains("{\"kind\":\"txn_exemplar\""), "{text}");
        let back = PostmortemBundle::from_jsonl(&text).expect("parses");
        assert_eq!(back.txn_exemplars, b.txn_exemplars);
        // Pre-PR 9 bundles (no exemplar lines) still parse.
        let old: String = text
            .lines()
            .filter(|l| !l.starts_with("{\"kind\":\"txn_exemplar\""))
            .map(|l| format!("{l}\n"))
            .collect();
        let back = PostmortemBundle::from_jsonl(&old).expect("old bundles parse");
        assert!(back.txn_exemplars.is_empty());
    }

    #[test]
    fn wedge_lines_round_trip_and_old_bundles_parse() {
        let b = sample_bundle();
        let text = b.to_jsonl();
        assert!(text.contains("{\"kind\":\"wedge\""), "{text}");
        let back = PostmortemBundle::from_jsonl(&text).expect("parses");
        assert_eq!(back.wedges, b.wedges);
        // Rendered postmortem names the cycle chain.
        let r = b.render();
        assert!(r.contains("ring:r0 -[12]-> escape:b0.s1"), "{r}");
        // Pre-PR 10 bundles (no wedge lines) still parse.
        let old: String = text
            .lines()
            .filter(|l| !l.starts_with("{\"kind\":\"wedge\""))
            .map(|l| format!("{l}\n"))
            .collect();
        let back = PostmortemBundle::from_jsonl(&old).expect("old bundles parse");
        assert!(back.wedges.is_empty());
    }

    #[test]
    fn link_heat_guards_all_zero_matrices() {
        let s = link_heat_ascii("idle", &[4, 4], &[vec![0; 4], vec![0; 4]]);
        assert!(s.contains("max 0"), "{s}");
        assert!(s.contains("|    |"), "all cells blank: {s}");
        // Hot matrix scales to the ramp.
        let hot = link_heat_ascii("hot", &[3], &[vec![0, 5, 10]]);
        assert!(hot.contains('@'), "{hot}");
    }

    #[test]
    fn missing_meta_is_an_error() {
        assert!(PostmortemBundle::from_jsonl("{\"kind\":\"links\",\"cells\":[]}\n").is_err());
        assert!(PostmortemBundle::from_jsonl("{\"nokind\":1}\n").is_err());
    }
}
