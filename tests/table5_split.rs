//! Table 5 split into its fabric and protocol parts.
//!
//! On an idle Server-CPU a coherent read's latency is exactly the
//! zero-load latency of each flit on its critical path, in closed form
//! from the topology (`zero_load_model`, which shares no code with the
//! engine), plus the protocol's fixed delays:
//!
//! * one cycle from issue to enqueue: a requester's outbox is flushed
//!   into the NoC on the next tick;
//! * M or E at the owner: `ReadShared` to the home, `SnpShared` to the
//!   owner, `SnpRespData` back to the home after the snoop latency, and
//!   `CompData` to the reader after the home-node latency;
//! * S: an LLC hit at the home, so `ReadShared` there and `CompData`
//!   back after the home-node latency.
//!
//! Each line is prepared and read as Table 5 does (`coherence_ping`),
//! but the network drains between transactions, so no `CompAck` is in
//! flight when the measured read starts.

#[path = "../crates/core/tests/zero_load_model/mod.rs"]
mod zero_load_model;

use noc_chi::{LineAddr, ReadKind, TxnId};
use noc_core::NodeId;
use noc_server_cpu::experiments::{lines_homed_at, PreparedState};
use noc_server_cpu::{ServerCpu, ServerCpuConfig};
use zero_load_model::ZeroLoad;

/// The coherent system's home-node and snoop pipeline latencies
/// (`noc-chi`'s `HN_LATENCY` and `SNOOP_LATENCY`).
const HN_LATENCY: u64 = 12;
const SNOOP_LATENCY: u64 = 6;
/// Issue to enqueue: the outbox is flushed on the next tick.
const ISSUE: u64 = 1;

/// Run `txn` to completion, then tick until the network is empty.
fn complete(s: &mut ServerCpu, txn: TxnId) -> u64 {
    let c = s.sys.run_until_complete(txn, 10_000).expect("completes");
    for _ in 0..10_000 {
        if s.sys.network().in_flight() == 0 {
            return c.latency();
        }
        s.sys.tick();
    }
    panic!("the network did not drain");
}

/// Measured and closed-form (fabric, protocol) latency of each of 12
/// local lines read by the cluster `reader` of CCD `reader.0` after CCD
/// 0's clusters 0 (and 2) prepared them in `state`.
fn split(state: PreparedState, reader: (usize, usize)) -> Vec<(u64, u64, u64)> {
    let mut s = ServerCpu::build(ServerCpuConfig::default()).expect("default builds");
    let topo = s.sys.network().topology().clone();
    let model = ZeroLoad::new(&topo);
    let lat = |a: NodeId, b: NodeId| model.latency(a, b);
    let local = s.map.home_nodes[..s.cfg.hn_per_ccd].to_vec();
    let ccd0 = s.map.clusters_of_ccd(0).to_vec();
    let (owner, helper) = (ccd0[0], ccd0[2]);
    let reader = s.map.clusters_of_ccd(reader.0)[reader.1];
    lines_homed_at(&s.sys, &local, 12, 0x100)
        .into_iter()
        .map(|addr: LineAddr| {
            match state {
                PreparedState::M => {
                    let t = s.sys.write(owner, addr);
                    complete(&mut s, t);
                }
                PreparedState::E => {
                    let t = s.sys.read(owner, addr, ReadKind::Shared);
                    complete(&mut s, t);
                }
                PreparedState::S => {
                    for rn in [owner, helper] {
                        let t = s.sys.read(rn, addr, ReadKind::Shared);
                        complete(&mut s, t);
                    }
                }
            }
            let t = s.sys.read(reader, addr, ReadKind::Shared);
            let measured = complete(&mut s, t);
            let home = s.sys.home_of(addr);
            let (fabric, protocol) = match state {
                PreparedState::M | PreparedState::E => (
                    lat(reader, home) + lat(home, owner) + lat(owner, home) + lat(home, reader),
                    ISSUE + SNOOP_LATENCY + HN_LATENCY,
                ),
                PreparedState::S => (lat(reader, home) + lat(home, reader), ISSUE + HN_LATENCY),
            };
            (measured, fabric, protocol)
        })
        .collect()
}

#[test]
fn every_table5_read_is_its_fabric_plus_its_protocol_part() {
    for state in [PreparedState::M, PreparedState::E, PreparedState::S] {
        for reader in [(0, 1), (1, 0)] {
            for (i, (measured, fabric, protocol)) in split(state, reader).into_iter().enumerate() {
                assert_eq!(
                    measured,
                    fabric + protocol,
                    "{state:?}, reader {reader:?}, line {i}: fabric {fabric} + protocol {protocol}"
                );
            }
        }
    }
}
