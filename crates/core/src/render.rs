//! Topology rendering: Graphviz DOT export, a terminal summary, and
//! ASCII heatmap / ring-utilization views of the engine's counters.

use crate::topology::{NodeKind, Topology};
use noc_telemetry::heat_cell;
use std::fmt::Write as _;

/// Render per-station counts as one ASCII heatmap row per ring.
///
/// `cells[ring][station]` holds the count, e.g. the output of
/// `Network::deflection_cells` / `itag_cells` (rows may be shorter than
/// the ring — missing cells read as zero). Cells are scaled against the
/// global maximum by [`heat_cell`]: a ten-step ramp where any non-zero
/// count is visible.
///
/// # Example
///
/// ```
/// use noc_core::{render::ascii_heatmap, RingKind, TopologyBuilder};
/// let mut b = TopologyBuilder::new();
/// let die = b.add_chiplet("die");
/// let r = b.add_ring(die, RingKind::Full, 4)?;
/// b.add_node("cpu", r, 0)?;
/// let art = ascii_heatmap(&b.build()?, "deflections", &[vec![0, 2, 8, 0]]);
/// assert!(art.contains("deflections (max 8)"));
/// assert!(art.contains("|"));
/// # Ok::<(), noc_core::TopologyError>(())
/// ```
pub fn ascii_heatmap(topo: &Topology, title: &str, cells: &[Vec<u64>]) -> String {
    let max = cells.iter().flatten().copied().max().unwrap_or(0);
    let widest = topo.rings().iter().map(|r| r.stations).max().unwrap_or(0);
    let mut out = String::new();
    let _ = writeln!(out, "{title} (max {max})");
    let header: String = (0..widest)
        .map(|s| (b'0' + (s % 10) as u8) as char)
        .collect();
    let _ = writeln!(out, "{:>8} {}", "station", header);
    for ring in topo.rings() {
        let ri = ring.id.index();
        let row: &[u64] = cells.get(ri).map(Vec::as_slice).unwrap_or(&[]);
        let art: String = (0..ring.stations as usize)
            .map(|s| heat_cell(row.get(s).copied().unwrap_or(0), max))
            .collect();
        let total: u64 = row.iter().sum();
        let _ = writeln!(out, "r{ri} {:>4?} |{art}| total {total}", ring.kind);
    }
    out
}

/// Render per-ring occupancy as ASCII utilization bars.
///
/// `occupancy[ring]` is `(occupied, capacity)` — e.g. from
/// `Network::ring_occupancy` live or its peak over a run, against the
/// ring's `stations × lanes` slots. Rings beyond `occupancy` are skipped.
///
/// # Example
///
/// ```
/// use noc_core::{render::ascii_rings, RingKind, TopologyBuilder};
/// let mut b = TopologyBuilder::new();
/// let die = b.add_chiplet("die");
/// let r = b.add_ring(die, RingKind::Full, 4)?;
/// b.add_node("cpu", r, 0)?;
/// let art = ascii_rings(&b.build()?, &[(2, 8)]);
/// assert!(art.contains("2/8"));
/// assert!(art.contains("25%"));
/// # Ok::<(), noc_core::TopologyError>(())
/// ```
pub fn ascii_rings(topo: &Topology, occupancy: &[(u64, u64)]) -> String {
    const WIDTH: u64 = 20;
    let mut out = String::from("ring utilization\n");
    for ring in topo.rings() {
        let Some(&(occ, cap)) = occupancy.get(ring.id.index()) else {
            continue;
        };
        let filled = if cap == 0 {
            0
        } else {
            (occ * WIDTH).div_ceil(cap).min(WIDTH)
        };
        let pct = (occ * 100).checked_div(cap).unwrap_or(0);
        let _ = writeln!(
            out,
            "r{} {:>4?} x{:<2} [{}{}] {occ}/{cap} {pct}%",
            ring.id.index(),
            ring.kind,
            ring.stations,
            "#".repeat(filled as usize),
            ".".repeat((WIDTH - filled) as usize),
        );
    }
    out
}

/// Render a topology as a Graphviz DOT graph: chiplets as clusters,
/// rings as labelled cycles of stations, devices as boxes, bridges as
/// bold edges.
///
/// # Example
///
/// ```
/// use noc_core::{render::to_dot, RingKind, TopologyBuilder};
/// let mut b = TopologyBuilder::new();
/// let die = b.add_chiplet("die");
/// let r = b.add_ring(die, RingKind::Full, 4)?;
/// b.add_node("cpu", r, 0)?;
/// let dot = to_dot(&b.build()?);
/// assert!(dot.contains("digraph"));
/// assert!(dot.contains("cpu"));
/// # Ok::<(), noc_core::TopologyError>(())
/// ```
pub fn to_dot(topo: &Topology) -> String {
    let mut out = String::from("digraph soc {\n  rankdir=LR;\n  node [fontsize=10];\n");
    for (ci, chiplet) in topo.chiplets().iter().enumerate() {
        let _ = writeln!(out, "  subgraph cluster_{ci} {{");
        let _ = writeln!(out, "    label=\"{chiplet}\";");
        for ring in topo.rings().iter().filter(|r| r.chiplet.index() == ci) {
            let ri = ring.id.index();
            // Stations as small circles, connected in a cycle.
            for s in 0..ring.stations {
                let _ = writeln!(
                    out,
                    "    r{ri}s{s} [label=\"{s}\", shape=circle, width=0.25];"
                );
            }
            for s in 0..ring.stations {
                let next = (s + 1) % ring.stations;
                let style = match ring.kind {
                    crate::ids::RingKind::Half => "",
                    crate::ids::RingKind::Full => " [dir=both]",
                };
                let _ = writeln!(out, "    r{ri}s{s} -> r{ri}s{next}{style};");
            }
        }
        // Devices attached inside this chiplet.
        for node in topo.nodes() {
            let ring = &topo.rings()[node.ring.index()];
            if ring.chiplet.index() != ci {
                continue;
            }
            if matches!(node.kind, NodeKind::Device) {
                let _ = writeln!(
                    out,
                    "    n{} [label=\"{}\", shape=box, style=filled, fillcolor=lightblue];",
                    node.id.index(),
                    node.name
                );
                let _ = writeln!(
                    out,
                    "    n{} -> r{}s{} [dir=none, style=dotted];",
                    node.id.index(),
                    node.ring.index(),
                    node.station
                );
            }
        }
        let _ = writeln!(out, "  }}");
    }
    // Bridges as bold cross-cluster edges.
    for bridge in topo.bridges() {
        let a = &topo.nodes()[bridge.a.index()];
        let b = &topo.nodes()[bridge.b.index()];
        let _ = writeln!(
            out,
            "  r{}s{} -> r{}s{} [dir=both, style=bold, color=red, label=\"{:?}\"];",
            a.ring.index(),
            a.station,
            b.ring.index(),
            b.station,
            bridge.config.level
        );
    }
    out.push_str("}\n");
    out
}

/// One-line-per-ring terminal summary of a topology.
///
/// # Example
///
/// ```
/// use noc_core::{render::summary, RingKind, TopologyBuilder};
/// let mut b = TopologyBuilder::new();
/// let die = b.add_chiplet("die");
/// let r = b.add_ring(die, RingKind::Half, 3)?;
/// b.add_node("x", r, 0)?;
/// let s = summary(&b.build()?);
/// assert!(s.contains("Half"));
/// # Ok::<(), noc_core::TopologyError>(())
/// ```
pub fn summary(topo: &Topology) -> String {
    let mut out = String::new();
    for (ci, chiplet) in topo.chiplets().iter().enumerate() {
        let _ = writeln!(out, "chiplet {chiplet}:");
        for ring in topo.rings().iter().filter(|r| r.chiplet.index() == ci) {
            let devices: Vec<&str> = topo
                .nodes()
                .iter()
                .filter(|n| n.ring == ring.id && matches!(n.kind, NodeKind::Device))
                .map(|n| n.name.as_str())
                .collect();
            let _ = writeln!(
                out,
                "  {} {:?} x{}: [{}]",
                ring.id,
                ring.kind,
                ring.stations,
                devices.join(", ")
            );
        }
    }
    let _ = writeln!(out, "bridges: {}", topo.bridges().len());
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::BridgeConfig;
    use crate::ids::RingKind;
    use crate::topology::TopologyBuilder;

    fn topo() -> Topology {
        let mut b = TopologyBuilder::new();
        let d0 = b.add_chiplet("compute");
        let d1 = b.add_chiplet("io");
        let r0 = b.add_ring(d0, RingKind::Full, 4).unwrap();
        let r1 = b.add_ring(d1, RingKind::Half, 3).unwrap();
        b.add_node("cpu", r0, 0).unwrap();
        b.add_node("nic", r1, 1).unwrap();
        b.add_bridge(BridgeConfig::l2(), r0, 2, r1, 0).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn dot_contains_structure() {
        let dot = to_dot(&topo());
        assert!(dot.starts_with("digraph soc {"));
        assert!(dot.contains("subgraph cluster_0"));
        assert!(dot.contains("subgraph cluster_1"));
        assert!(dot.contains("\"cpu\""));
        assert!(dot.contains("\"nic\""));
        assert!(dot.contains("color=red"), "bridge edge present");
        assert!(dot.ends_with("}\n"));
    }

    #[test]
    fn dot_marks_half_rings_unidirectional() {
        let dot = to_dot(&topo());
        // Full-ring edges are dir=both; the half ring has plain edges.
        assert!(dot.contains("[dir=both]"));
        assert!(dot.contains("r1s0 -> r1s1;"));
    }

    #[test]
    fn summary_lists_devices_and_bridges() {
        let s = summary(&topo());
        assert!(s.contains("chiplet compute:"));
        assert!(s.contains("cpu"));
        assert!(s.contains("bridges: 1"));
    }

    #[test]
    fn heatmap_golden() {
        let cells = vec![vec![0, 3, 12, 0], vec![1, 0, 6]];
        let art = ascii_heatmap(&topo(), "deflections", &cells);
        let expected = "\
deflections (max 12)
 station 0123
r0 Full | -@ | total 15
r1 Half |. +| total 7
";
        assert_eq!(art, expected);
    }

    #[test]
    fn heatmap_all_zero_is_blank() {
        let art = ascii_heatmap(&topo(), "itags", &[vec![0; 4], vec![0; 3]]);
        let expected = "\
itags (max 0)
 station 0123
r0 Full |    | total 0
r1 Half |   | total 0
";
        assert_eq!(art, expected);
    }

    #[test]
    fn heatmap_tolerates_short_and_missing_rows() {
        // Row 0 shorter than the ring, row 1 absent entirely.
        let art = ascii_heatmap(&topo(), "x", &[vec![5]]);
        assert!(art.contains("r0 Full |@   | total 5"), "{art}");
        assert!(art.contains("r1 Half |   | total 0"), "{art}");
    }

    #[test]
    fn heatmap_and_postmortem_heat_draw_the_same_cells() {
        let rows = [vec![0, 1, 5, 12]];
        let first_row = |art: &str| -> String {
            let line = art.lines().find(|l| l.contains('|')).expect("a heat row");
            line.split('|')
                .nth(1)
                .expect("cells between bars")
                .to_string()
        };
        let topo_art = ascii_heatmap(&topo(), "x", &rows);
        let bundle_art = noc_telemetry::link_heat_ascii("x", &[4], &rows);
        assert_eq!(first_row(&topo_art), " .=@");
        assert_eq!(first_row(&topo_art), first_row(&bundle_art));
    }

    #[test]
    fn rings_golden() {
        let art = ascii_rings(&topo(), &[(2, 8), (6, 6)]);
        let expected = "\
ring utilization
r0 Full x4  [#####...............] 2/8 25%
r1 Half x3  [####################] 6/6 100%
";
        assert_eq!(art, expected);
    }

    #[test]
    fn rings_empty_capacity_renders_zero() {
        let art = ascii_rings(&topo(), &[(0, 0)]);
        assert!(art.contains("[....................] 0/0 0%"), "{art}");
    }
}
