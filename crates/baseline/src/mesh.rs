//! A buffered, input-queued 2-D mesh router network — the monolithic
//! commercial baseline (Intel Ice-Lake-SP-style mesh, paper Table 9).
//!
//! Classic XY dimension-ordered routing, one flit per link per cycle,
//! credit-style downstream space checks, a fixed per-router pipeline
//! delay, and round-robin switch allocation per output port.

use crate::{Mailboxes, DELIVERY_CAP};
use noc_chi::system::ChiTransport;
use noc_core::{FlitClass, NodeId};
use noc_sim::Cycle;
use std::collections::VecDeque;

const PORTS: usize = 5; // N, S, E, W, Local
const N: usize = 0;
const S: usize = 1;
const E: usize = 2;
const W: usize = 3;
const L: usize = 4;

#[derive(Debug, Clone, Copy)]
struct Msg {
    dst: usize,
    token: u64,
    eligible_at: u64,
}

/// Input FIFO depth per port.
const BUF_CAP: usize = 4;
/// Router pipeline delay in cycles (route + VC/switch alloc + xbar).
const ROUTER_DELAY: u64 = 3;

/// Mesh configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MeshConfig {
    /// Mesh is `k × k` routers, one endpoint per router.
    pub k: usize,
}

impl Default for MeshConfig {
    /// A 6 × 6 mesh.
    fn default() -> Self {
        MeshConfig { k: 6 }
    }
}

/// The buffered mesh interconnect.
///
/// # Example
///
/// ```
/// use noc_baseline::{BufferedMesh, MeshConfig};
/// use noc_chi::system::ChiTransport;
/// use noc_core::{FlitClass, NodeId};
/// let mut mesh = BufferedMesh::new(MeshConfig { k: 4 });
/// assert!(mesh.offer(NodeId(0), NodeId(15), FlitClass::Data, 64, 1));
/// for _ in 0..100 { mesh.tick(); }
/// assert_eq!(mesh.recv(NodeId(15)), Some(1));
/// ```
#[derive(Debug)]
pub struct BufferedMesh {
    cfg: MeshConfig,
    /// `inputs[router][port]` — input FIFOs.
    inputs: Vec<[VecDeque<Msg>; PORTS]>,
    /// Round-robin pointers per (router, output port).
    rr: Vec<[usize; PORTS]>,
    delivered: Mailboxes,
    now: u64,
}

impl BufferedMesh {
    /// Create a `k × k` mesh.
    ///
    /// # Panics
    ///
    /// Panics if `k < 2`.
    pub fn new(cfg: MeshConfig) -> Self {
        assert!(cfg.k >= 2, "mesh needs k >= 2");
        let n = cfg.k * cfg.k;
        BufferedMesh {
            inputs: (0..n).map(|_| Default::default()).collect(),
            rr: vec![[0; PORTS]; n],
            delivered: Mailboxes::new(n),
            now: 0,
            cfg,
        }
    }

    fn xy(&self, r: usize) -> (usize, usize) {
        (r % self.cfg.k, r / self.cfg.k)
    }

    fn router(&self, x: usize, y: usize) -> usize {
        y * self.cfg.k + x
    }

    /// XY routing: which output port a message at router `r` takes.
    fn out_port(&self, r: usize, dst: usize) -> usize {
        let (x, y) = self.xy(r);
        let (dx, dy) = self.xy(dst);
        if dx > x {
            E
        } else if dx < x {
            W
        } else if dy > y {
            S
        } else if dy < y {
            N
        } else {
            L
        }
    }

    fn neighbor(&self, r: usize, port: usize) -> usize {
        let (x, y) = self.xy(r);
        match port {
            N => self.router(x, y - 1),
            S => self.router(x, y + 1),
            E => self.router(x + 1, y),
            W => self.router(x - 1, y),
            _ => r,
        }
    }

    /// Reverse port: arriving through the link from `r` via `port`
    /// enters the neighbor on the opposite side.
    fn entry_port(port: usize) -> usize {
        match port {
            N => S,
            S => N,
            E => W,
            W => E,
            other => other,
        }
    }
}

impl ChiTransport for BufferedMesh {
    fn offer(
        &mut self,
        src: NodeId,
        dst: NodeId,
        _class: FlitClass,
        _bytes: u32,
        token: u64,
    ) -> bool {
        let n = self.inputs.len();
        let (src, dst) = (src.index(), dst.index());
        assert!(src < n && dst < n);
        assert_ne!(src, dst, "self-send");
        if self.inputs[src][L].len() >= BUF_CAP {
            return false;
        }
        self.inputs[src][L].push_back(Msg {
            dst,
            token,
            eligible_at: self.now + ROUTER_DELAY,
        });
        true
    }

    fn tick(&mut self) {
        self.now += 1;
        let n = self.inputs.len();
        // Collect moves first so every decision sees start-of-cycle state.
        // (router, in_port) -> (out_port)
        let mut moves: Vec<(usize, usize, usize)> = Vec::new();
        // Space already promised to arrivals this cycle.
        let mut reserved = vec![[0usize; PORTS]; n];
        for r in 0..n {
            for out in 0..PORTS {
                // Pick one input whose head wants `out`, round-robin.
                let start = self.rr[r][out];
                for i in 0..PORTS {
                    let inp = (start + i) % PORTS;
                    let Some(head) = self.inputs[r][inp].front() else {
                        continue;
                    };
                    if head.eligible_at > self.now || self.out_port(r, head.dst) != out {
                        continue;
                    }
                    if out == L {
                        if self.delivered.len(r) + reserved[r][L] < DELIVERY_CAP {
                            reserved[r][L] += 1;
                            moves.push((r, inp, out));
                            self.rr[r][out] = (inp + 1) % PORTS;
                        }
                        break;
                    }
                    let nbr = self.neighbor(r, out);
                    let entry = Self::entry_port(out);
                    if self.inputs[nbr][entry].len() + reserved[nbr][entry] < BUF_CAP {
                        reserved[nbr][entry] += 1;
                        moves.push((r, inp, out));
                        self.rr[r][out] = (inp + 1) % PORTS;
                        break;
                    }
                }
            }
        }
        for (r, inp, out) in moves {
            let mut msg = self.inputs[r][inp].pop_front().expect("selected head");
            if out == L {
                self.delivered.push(r, msg.token);
            } else {
                msg.eligible_at = self.now + ROUTER_DELAY;
                let nbr = self.neighbor(r, out);
                self.inputs[nbr][Self::entry_port(out)].push_back(msg);
            }
        }
    }

    fn now(&self) -> Cycle {
        Cycle(self.now)
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
    use noc_chi::{CoherentSystem, LineAddr, LlcParams, MesiState, ReadKind, SystemSpec};

    fn mesh(k: usize) -> BufferedMesh {
        BufferedMesh::new(MeshConfig { k })
    }

    fn offer(m: &mut BufferedMesh, src: usize, dst: usize, token: u64) -> bool {
        m.offer(
            NodeId(src as u32),
            NodeId(dst as u32),
            FlitClass::Data,
            64,
            token,
        )
    }

    /// Receive every waiting token, returning how many there were.
    fn drain(m: &mut BufferedMesh) -> u64 {
        let mut got = 0;
        for e in 0..m.inputs.len() {
            while m.recv(NodeId(e as u32)).is_some() {
                got += 1;
            }
        }
        got
    }

    #[test]
    fn corner_to_corner_delivery() {
        let mut m = mesh(4);
        offer(&mut m, 0, 15, 9);
        let token = loop {
            m.tick();
            if let Some(t) = m.recv(NodeId(15)) {
                break t;
            }
            assert!(m.now < 200);
        };
        assert_eq!(token, 9);
        // Manhattan distance 3+3: six link hops, so seven 3-cycle
        // router pipelines on an empty mesh.
        assert_eq!(m.now, 3 * (6 + 1));
        assert!(m.inputs.iter().flatten().all(VecDeque::is_empty));
    }

    #[test]
    fn latency_includes_router_pipeline() {
        let mut m = mesh(4);
        offer(&mut m, 0, 1, 0);
        let mut t = 0;
        loop {
            m.tick();
            t += 1;
            if m.recv(NodeId(1)).is_some() {
                break;
            }
            assert!(t < 100);
        }
        // 2 routers × 3-cycle pipeline ≥ 6.
        assert!(t >= 6, "latency {t} too small for a 3-stage router");
    }

    #[test]
    fn backpressure_on_full_local_queue() {
        let mut m = mesh(4);
        for i in 0..4 {
            assert!(offer(&mut m, 0, 15, i));
        }
        assert!(!offer(&mut m, 0, 15, 99), "queue full");
    }

    #[test]
    fn all_pairs_eventually_deliver() {
        let mut m = mesh(3);
        let n = 9;
        let mut expected = 0;
        for s in 0..n {
            for d in 0..n {
                if s != d {
                    while !offer(&mut m, s, d, 0) {
                        m.tick();
                    }
                    expected += 1;
                }
            }
        }
        for _ in 0..2000 {
            m.tick();
        }
        assert_eq!(m.nodes_with_mail().count(), n);
        assert_eq!(drain(&mut m), expected);
        assert_eq!(m.nodes_with_mail().count(), 0);
    }

    #[test]
    fn xy_routing_is_deadlock_free_under_load() {
        let mut m = mesh(4);
        let n = 16;
        let (mut sent, mut got) = (0u64, 0u64);
        for cycle in 0..5000u64 {
            let s = (cycle as usize * 7) % n;
            let d = (cycle as usize * 11 + 3) % n;
            if s != d && offer(&mut m, s, d, cycle) {
                sent += 1;
            }
            m.tick();
            got += drain(&mut m);
        }
        for _ in 0..2000 {
            m.tick();
            got += drain(&mut m);
        }
        assert_eq!(got, sent);
    }

    #[test]
    fn chi_protocol_runs_over_buffered_mesh() {
        let mesh = BufferedMesh::new(MeshConfig { k: 3 });
        // Endpoints 0..9: 4 requesters, 3 home nodes, 2 memories.
        let mut sys = CoherentSystem::new(
            mesh,
            SystemSpec {
                requesters: (0..4).map(NodeId).collect(),
                home_nodes: (4..7).map(NodeId).collect(),
                memories: (7..9).map(NodeId).collect(),
                llc: LlcParams::default(),
            },
        );
        let a = LineAddr(0x42);
        let t = sys.write(NodeId(0), a);
        sys.run_until_complete(t, 10_000).expect("write completes");
        assert_eq!(sys.rn_state(NodeId(0), a), MesiState::Modified);
        let t = sys.read(NodeId(1), a, ReadKind::Shared);
        sys.run_until_complete(t, 10_000).expect("snooped read");
        assert_eq!(sys.rn_state(NodeId(0), a), MesiState::Shared);
        assert_eq!(sys.rn_state(NodeId(1), a), MesiState::Shared);
    }
}
