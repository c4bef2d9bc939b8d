//! Table 5: intra-/inter-chiplet cache access latency for M/E/S lines,
//! this work vs the commercial-style baselines — the full CHI protocol
//! runs over every transport.

use crate::report::{fnum, ExperimentResult, Scale};
use crate::systems::{self, Partition};
use noc_chi::system::ChiTransport;
use noc_chi::LineAddr;
use noc_server_cpu::experiments::{coherence_ping, lines_homed_at, PreparedState};

/// Table 5 over a baseline: requester 0 prepares `lines` lines in
/// `state` (helped by requester 2), then requester `reader` reads them.
fn ping_baseline<T: ChiTransport>(
    (ic, part): (T, Partition),
    reader: usize,
    state: PreparedState,
    lines: u64,
) -> f64 {
    let mut sys = systems::coherent(ic, &part);
    let addrs: Vec<_> = (0..lines).map(|i| LineAddr(0x100 + i)).collect();
    let r = &part.requesters;
    coherence_ping(&mut sys, r[0], r[2], r[reader], state, &addrs)
}

/// Table 5 on this work: lines homed on compute die 0, prepared by its
/// clusters 0 (and 2), read by cluster `reader.1` of die `reader.0`.
fn ping_ours(reader: (usize, usize), state: PreparedState, lines: u64) -> f64 {
    let mut s = systems::ours_coherent();
    let local_hns: Vec<_> = s.map.home_nodes[..s.cfg.hn_per_ccd].to_vec();
    let addrs = lines_homed_at(&s.sys, &local_hns, lines as usize, 0x100);
    let ccd0 = s.map.clusters_of_ccd(0);
    let (owner, helper) = (ccd0[0], ccd0[2]);
    let reader = s.map.clusters_of_ccd(reader.0)[reader.1];
    coherence_ping(&mut s.sys, owner, helper, reader, state, &addrs)
}

/// Reproduce Table 5.
pub fn run(scale: Scale) -> ExperimentResult {
    let lines = scale.pick(12, 64);
    let mut r = ExperimentResult::new(
        "table05",
        "Inter-/intra-chiplet coherent access latency (cycles)",
    )
    .with_header(vec![
        "scenario",
        "state",
        "this work",
        "intel-like (monolithic)",
        "amd-like (hub)",
    ]);

    let states = [
        (PreparedState::M, "M"),
        (PreparedState::E, "E"),
        (PreparedState::S, "S"),
    ];

    // Baselines (monolithic mesh has no chiplet distinction; the hub
    // design pays the central switch either way). Readers: the mesh's
    // requester 14; the hub's 1 (same chiplet) and 9 (other chiplet).
    let mut intel = Vec::new();
    let mut amd_intra = Vec::new();
    let mut amd_inter = Vec::new();
    // This work: lines homed on the owner's compute die; readers on the
    // owner's die and on the next.
    let mut ours_intra = Vec::new();
    let mut ours_inter = Vec::new();
    for &(state, _) in &states {
        intel.push(ping_baseline(systems::intel_like(), 14, state, lines));
        amd_intra.push(ping_baseline(systems::amd_like(), 1, state, lines));
        amd_inter.push(ping_baseline(systems::amd_like(), 9, state, lines));
        ours_intra.push(ping_ours((0, 1), state, lines));
        ours_inter.push(ping_ours((1, 0), state, lines));
    }

    for (i, &(_, name)) in states.iter().enumerate() {
        r.push_row(vec![
            "intra-chiplet".to_string(),
            name.to_string(),
            fnum(ours_intra[i], 0),
            "NA (monolithic)".to_string(),
            fnum(amd_intra[i], 0),
        ]);
    }
    for (i, &(_, name)) in states.iter().enumerate() {
        r.push_row(vec![
            "inter-chiplet".to_string(),
            name.to_string(),
            fnum(ours_inter[i], 0),
            fnum(intel[i], 0),
            fnum(amd_inter[i], 0),
        ]);
    }

    let ours_i = ours_intra.iter().sum::<f64>() / 3.0;
    let ours_x = ours_inter.iter().sum::<f64>() / 3.0;
    let intel_x = intel.iter().sum::<f64>() / 3.0;
    let amd_x = amd_inter.iter().sum::<f64>() / 3.0;
    r.note(format!(
        "shape check: intra ({ours_i:.0}) < inter ({ours_x:.0}) for this work — {}",
        if ours_i < ours_x { "PASS" } else { "FAIL" }
    ));
    r.note(format!(
        "shape check: this work's inter-chiplet latency ({ours_x:.0}) beats intel-like ({intel_x:.0}) and amd-like ({amd_x:.0}) — {}",
        if ours_x < intel_x && ours_x < amd_x { "PASS" } else { "FAIL" }
    ));
    let amd_flat = (amd_intra.iter().sum::<f64>() / 3.0 - amd_x).abs() < 0.35 * amd_x;
    r.note(format!(
        "shape check: amd-like is flat across intra/inter (every access crosses the hub, paper shows 138-140 everywhere) — {}",
        if amd_flat { "PASS" } else { "FAIL" }
    ));
    r.note("paper: ours 44/44/48 intra, 65/65/69 inter; Intel-6248 91; AMD-7742 ≈138".to_string());
    r
}
