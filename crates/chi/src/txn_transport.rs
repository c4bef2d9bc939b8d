//! Coherence over the transaction layer: [`ChiTransport`] for
//! [`TxnFabric`].
//!
//! With this impl a [`CoherentSystem`](crate::CoherentSystem) rides
//! real multi-flit packets instead of lone flits: every CHI message is
//! packetized into a header flit plus data flits (a 64 B cache line on
//! the DAT channel becomes header + one data flit; larger lines split
//! further), reassembled out-of-order at the receiver, and handed back
//! by token exactly like the bare-network transport. Backpressure maps
//! the same way too — a full staging queue returns `false` from
//! `offer`, and the protocol layer retries, just as it does when the
//! bare network's inject queue is full.

use crate::system::ChiTransport;
use noc_core::telemetry::{SpanSink, TraceSink};
use noc_core::{FlitClass, NodeId};
use noc_sim::Cycle;
use noc_txn::TxnFabric;

impl<S: TraceSink, P: SpanSink> ChiTransport for TxnFabric<S, P> {
    fn offer(
        &mut self,
        src: NodeId,
        dst: NodeId,
        class: FlitClass,
        bytes: u32,
        token: u64,
    ) -> bool {
        self.submit_message(src, dst, class, bytes, token)
    }

    fn tick(&mut self) {
        TxnFabric::tick(self);
    }

    fn now(&self) -> Cycle {
        TxnFabric::now(self)
    }

    fn recv(&mut self, node: NodeId) -> Option<u64> {
        self.recv_message(node)
    }

    fn nodes_with_mail(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.nodes_with_messages()
    }
}

#[cfg(test)]
mod tests {
    use crate::{
        CoherentSystem, LineAddr, LlcParams, MemoryParams, MesiState, ReadKind, SystemSpec,
    };
    use noc_core::{Network, NetworkConfig, NodeId, RingKind, TopologyBuilder};
    use noc_txn::{TxnConfig, TxnFabric};

    fn build() -> (CoherentSystem<TxnFabric>, Vec<NodeId>) {
        let mut b = TopologyBuilder::new();
        let die = b.add_chiplet("die");
        let r = b.add_ring(die, RingKind::Full, 16).unwrap();
        let rns: Vec<NodeId> = (0..4u16)
            .map(|i| b.add_node(format!("cpu{i}"), r, i * 2).unwrap())
            .collect();
        let hns = vec![
            b.add_node("hn0", r, 9).unwrap(),
            b.add_node("hn1", r, 11).unwrap(),
        ];
        let sns = vec![
            b.add_node("sn0", r, 13).unwrap(),
            b.add_node("sn1", r, 15).unwrap(),
        ];
        let net = Network::new(b.build().unwrap(), NetworkConfig::default());
        let fab = TxnFabric::new(net, TxnConfig::default());
        let spec = SystemSpec {
            requesters: rns.clone(),
            home_nodes: hns,
            memories: sns,
            mem_params: MemoryParams::ddr4(),
            llc: LlcParams::default(),
            line_bytes: 64,
            local_hit_latency: 10,
            hn_latency: 12,
            snoop_latency: 6,
        };
        (CoherentSystem::new(fab, spec), rns)
    }

    #[test]
    fn coherence_runs_over_multi_flit_packets() {
        let (mut sys, rns) = build();
        // Two readers then a writer on the same line: the full
        // S→S→M/I snoop dance, every message a real packet.
        sys.read(rns[0], LineAddr(3), ReadKind::Shared);
        sys.read(rns[1], LineAddr(3), ReadKind::Shared);
        for _ in 0..20_000 {
            if sys.outstanding() == 0 {
                break;
            }
            sys.tick();
        }
        assert_eq!(sys.outstanding(), 0, "reads wedged over txn transport");
        assert_eq!(sys.rn_state(rns[0], LineAddr(3)), MesiState::Shared);
        assert_eq!(sys.rn_state(rns[1], LineAddr(3)), MesiState::Shared);

        sys.write(rns[2], LineAddr(3));
        for _ in 0..20_000 {
            if sys.outstanding() == 0 {
                break;
            }
            sys.tick();
        }
        assert_eq!(sys.outstanding(), 0, "write wedged over txn transport");
        assert_eq!(sys.rn_state(rns[2], LineAddr(3)), MesiState::Modified);
        assert_eq!(sys.rn_state(rns[0], LineAddr(3)), MesiState::Invalid);
        assert_eq!(sys.rn_state(rns[1], LineAddr(3)), MesiState::Invalid);

        // The transport really packetized: a 64 B DAT message is a
        // header + one data flit, so reassembled packets and delivered
        // messages both counted.
        let fab = sys.network();
        assert!(fab.counters().messages > 0);
        assert_eq!(fab.counters().messages, fab.counters().packets_reassembled);
        assert!(fab.counters().flits_sent > fab.counters().messages);
        assert_eq!(fab.counters().stray_flits, 0);
        assert_eq!(fab.counters().late_responses, 0);
    }
}
