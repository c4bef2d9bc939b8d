//! [`RingAdapter`]: a `noc_core::Network` behind a bounded per-node
//! delivery buffer — the paper's multi-ring NoC itself, or a single
//! bufferless ring (the Intel-8280-style monolithic baseline and the
//! scalability ablation of §3.4.2).

use crate::{Mailboxes, DELIVERY_CAP};
use noc_chi::system::ChiTransport;
use noc_core::{FlitClass, Network, NetworkConfig, NodeId, RingKind, TopologyBuilder};
use noc_sim::Cycle;

/// A [`Network`] whose deliveries wait in a buffer of at most
/// `DELIVERY_CAP` (8) tokens per node until received; nodes are the
/// network's own [`NodeId`]s.
#[derive(Debug)]
pub struct RingAdapter {
    net: Network,
    delivered: Mailboxes,
    /// Scratch list of the nodes with deliveries, reused every tick.
    pulled: Vec<NodeId>,
}

impl RingAdapter {
    /// Adapt an existing network.
    pub fn new(net: Network) -> Self {
        RingAdapter {
            delivered: Mailboxes::new(net.topology().nodes().len()),
            net,
            pulled: Vec::new(),
        }
    }

    /// Build a single bufferless full ring with `n` endpoints, one per
    /// station — the monolithic single-ring baseline. Station `i` hosts
    /// `NodeId(i)`.
    pub fn single_ring(n: usize, cfg: NetworkConfig) -> Self {
        let mut b = TopologyBuilder::new();
        let die = b.add_chiplet("monolithic");
        let r = b
            .add_ring(die, RingKind::Full, n as u16)
            .expect("n > 0 stations");
        for i in 0..n {
            let node = b
                .add_node(format!("ep{i}"), r, i as u16)
                .expect("free port");
            debug_assert_eq!(node, NodeId(i as u32));
        }
        RingAdapter::new(Network::new(b.build().expect("valid"), cfg))
    }

    /// The wrapped network (stats access).
    pub fn network(&self) -> &Network {
        &self.net
    }
}

impl ChiTransport for RingAdapter {
    fn offer(
        &mut self,
        src: NodeId,
        dst: NodeId,
        class: FlitClass,
        bytes: u32,
        token: u64,
    ) -> bool {
        self.net.enqueue(src, dst, class, bytes, token).is_ok()
    }

    fn tick(&mut self) {
        self.net.tick();
        // Each node's eject queue is independent: the pull order is free.
        self.pulled.extend(self.net.nodes_with_deliveries());
        for node in self.pulled.drain(..) {
            while self.delivered.len(node.index()) < DELIVERY_CAP {
                let Some(f) = self.net.pop_delivered(node) else {
                    break;
                };
                self.delivered.push(node.index(), f.token);
            }
        }
    }

    fn now(&self) -> Cycle {
        self.net.now()
    }

    fn recv(&mut self, node: NodeId) -> Option<u64> {
        self.delivered.recv(node)
    }

    fn nodes_with_mail(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.delivered.with_mail()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_ring_roundtrip() {
        let mut r = RingAdapter::single_ring(8, NetworkConfig::default());
        assert!(r.offer(NodeId(0), NodeId(4), FlitClass::Data, 64, 3));
        for _ in 0..50 {
            r.tick();
        }
        assert_eq!(r.nodes_with_mail().collect::<Vec<_>>(), [NodeId(4)]);
        assert_eq!(r.recv(NodeId(4)), Some(3));
        assert_eq!(r.network().in_flight(), 0);
        assert_eq!(r.nodes_with_mail().count(), 0);
    }

    #[test]
    fn adapter_tracks_bandwidth() {
        let mut r = RingAdapter::single_ring(6, NetworkConfig::default());
        for i in 0..5u32 {
            r.offer(NodeId(i), NodeId((i + 3) % 6), FlitClass::Data, 64, 0);
        }
        for _ in 0..100 {
            r.tick();
        }
        let stats = r.network().stats();
        assert_eq!(stats.delivered.get(), 5);
        assert_eq!(stats.delivered_bytes.get(), 320);
        let got: usize = (0..6)
            .map(|i| usize::from(r.recv(NodeId(i)).is_some()))
            .sum();
        assert_eq!(got, 5);
    }

    #[test]
    fn delivery_buffer_holds_eight_and_backs_up_into_the_network() {
        let mut r = RingAdapter::single_ring(12, NetworkConfig::default());
        let mut offered = 0;
        for cycle in 0..400u64 {
            let src = NodeId(1 + (cycle % 11) as u32);
            if r.offer(src, NodeId(0), FlitClass::Data, 64, cycle) {
                offered += 1;
            }
            r.tick();
        }
        assert!(offered > DELIVERY_CAP);
        let mut got = 0;
        while r.recv(NodeId(0)).is_some() {
            got += 1;
        }
        assert_eq!(got, DELIVERY_CAP, "nobody received: the buffer fills");
        assert!(r.network().delivered_len(NodeId(0)) > 0);
    }
}
