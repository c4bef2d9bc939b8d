//! Adapters exposing `noc_core::Network` instances through the
//! [`Interconnect`] trait: the paper's multi-ring NoC itself, and a
//! single bufferless ring (the Intel-8280-style monolithic baseline and
//! the scalability ablation of §3.4.2).

use crate::traits::{Delivered, Interconnect};
use noc_core::{FlitClass, Network, NetworkConfig, NodeId, RingKind, TopologyBuilder};

/// Per-endpoint delivery queue depth: consumer backpressure, to which
/// the bufferless network responds with E-tag deflection instead of
/// blocking.
const DELIVERY_CAP: usize = 8;

/// Wraps a [`Network`] plus an endpoint-index → [`NodeId`] mapping.
#[derive(Debug)]
pub struct RingAdapter {
    name: String,
    net: Network,
    endpoints: Vec<NodeId>,
    delivered: Vec<std::collections::VecDeque<Delivered>>,
    latency_sum: u64,
    delivered_count: u64,
    delivered_bytes: u64,
    accepted: u64,
}

impl RingAdapter {
    /// Adapt an existing network; `endpoints[i]` is the device node for
    /// endpoint index `i`.
    ///
    /// # Panics
    ///
    /// Panics if `endpoints` is empty.
    pub fn new(name: impl Into<String>, net: Network, endpoints: Vec<NodeId>) -> Self {
        assert!(!endpoints.is_empty());
        RingAdapter {
            name: name.into(),
            delivered: vec![std::collections::VecDeque::new(); endpoints.len()],
            net,
            endpoints,
            latency_sum: 0,
            delivered_count: 0,
            delivered_bytes: 0,
            accepted: 0,
        }
    }

    /// Build a single bufferless full ring with `n` endpoints, one per
    /// station — the monolithic single-ring baseline.
    pub fn single_ring(n: usize, cfg: NetworkConfig) -> Self {
        let mut b = TopologyBuilder::new();
        let die = b.add_chiplet("monolithic");
        let r = b
            .add_ring(die, RingKind::Full, n as u16)
            .expect("n > 0 stations");
        let endpoints: Vec<NodeId> = (0..n)
            .map(|i| {
                b.add_node(format!("ep{i}"), r, i as u16)
                    .expect("free port")
            })
            .collect();
        let net = Network::new(b.build().expect("valid"), cfg);
        RingAdapter::new(format!("single-ring-{n}"), net, endpoints)
    }

    /// The wrapped network (stats access).
    pub fn network(&self) -> &Network {
        &self.net
    }
}

impl Interconnect for RingAdapter {
    fn endpoints(&self) -> usize {
        self.endpoints.len()
    }

    fn offer(&mut self, src: usize, dst: usize, class: FlitClass, bytes: u32, token: u64) -> bool {
        self.net
            .enqueue(
                self.endpoints[src],
                self.endpoints[dst],
                class,
                bytes,
                token,
            )
            .map(|_| {
                self.accepted += 1;
            })
            .is_ok()
    }

    fn tick(&mut self) {
        self.net.tick();
        let now = self.net.now().raw();
        // Index endpoints by NodeId for src/dst reverse mapping.
        for (i, &node) in self.endpoints.iter().enumerate() {
            while self.delivered[i].len() < DELIVERY_CAP {
                let Some(f) = self.net.pop_delivered(node) else {
                    break;
                };
                let src_idx = self
                    .endpoints
                    .iter()
                    .position(|&n| n == f.src)
                    .unwrap_or(usize::MAX);
                let d = Delivered {
                    src: src_idx,
                    dst: i,
                    token: f.token,
                    bytes: f.payload_bytes,
                    enqueued_at: f.created_at.raw(),
                    delivered_at: now,
                    hops: f.hops,
                };
                self.latency_sum += d.latency();
                self.delivered_count += 1;
                self.delivered_bytes += u64::from(d.bytes);
                self.delivered[i].push_back(d);
            }
        }
    }

    fn pop_delivered(&mut self, endpoint: usize) -> Option<Delivered> {
        self.delivered[endpoint].pop_front()
    }

    fn now(&self) -> u64 {
        self.net.now().raw()
    }

    fn delivered_count(&self) -> u64 {
        self.delivered_count
    }

    fn delivered_bytes(&self) -> u64 {
        self.delivered_bytes
    }

    fn mean_latency(&self) -> f64 {
        if self.delivered_count == 0 {
            0.0
        } else {
            self.latency_sum as f64 / self.delivered_count as f64
        }
    }

    fn in_flight(&self) -> u64 {
        self.accepted - self.delivered_count
    }

    fn name(&self) -> &str {
        &self.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_ring_roundtrip() {
        let mut r = RingAdapter::single_ring(8, NetworkConfig::default());
        assert_eq!(r.endpoints(), 8);
        assert!(r.offer(0, 4, FlitClass::Data, 64, 3));
        for _ in 0..50 {
            r.tick();
        }
        let d = r.pop_delivered(4).expect("arrived");
        assert_eq!(d.src, 0);
        assert_eq!(d.token, 3);
        assert!(d.latency() > 0);
        assert_eq!(r.in_flight(), 0);
    }

    #[test]
    fn adapter_tracks_bandwidth() {
        let mut r = RingAdapter::single_ring(6, NetworkConfig::default());
        for i in 0..5 {
            r.offer(i, (i + 3) % 6, FlitClass::Data, 64, 0);
        }
        for _ in 0..100 {
            r.tick();
        }
        assert_eq!(r.delivered_count(), 5);
        assert_eq!(r.delivered_bytes(), 320);
        assert!(r.mean_latency() > 0.0);
    }
}
