//! Seeded generators and digests shared by the engine identity suites
//! (`tick_equivalence`, `engine_goldens`, `side_index`, …) and the
//! observatory suites, the observatory suites' mixed traffic, and
//! their snapshot-stream reader. Each suite uses a
//! subset, hence the blanket `dead_code` allowance.
#![allow(dead_code)]

use noc_core::drive::drain;
use noc_core::telemetry::{snapshots_jsonl, TraceSink};
use noc_core::{
    BridgeConfig, Flit, FlitClass, Network, NetworkConfig, NodeId, RingKind, Topology,
    TopologyBuilder,
};

/// splitmix64: deterministic per-seed stream.
pub struct Rng(pub u64);

impl Rng {
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, bound: u64) -> u64 {
        self.next() % bound
    }
}

/// Random 2–4 ring topology over two chiplets, rings chained by
/// bridges (L1 within a chiplet, L2 across), devices scattered.
pub fn random_topology(rng: &mut Rng) -> (Topology, Vec<NodeId>) {
    let mut b = TopologyBuilder::new();
    let dies = [b.add_chiplet("die0"), b.add_chiplet("die1")];
    let nrings = 2 + rng.below(3) as usize;
    let mut rings = Vec::new();
    let mut stations = Vec::new();
    for i in 0..nrings {
        let kind = if rng.below(2) == 0 {
            RingKind::Full
        } else {
            RingKind::Half
        };
        let n = 4 + rng.below(29) as u16; // 4..=32 stations
        let die = dies[(rng.below(2) as usize + i) % 2];
        rings.push(b.add_ring(die, kind, n).expect("ring"));
        stations.push(n);
    }
    let mut devices = Vec::new();
    for i in 0..rings.len() {
        let ndev = 2 + rng.below(4);
        for d in 0..ndev {
            // Random station; the builder rejects over-full stations —
            // just try a few and move on.
            for _ in 0..8 {
                let s = rng.below(stations[i] as u64) as u16;
                if let Ok(id) = b.add_node(format!("dev{i}_{d}"), rings[i], s) {
                    devices.push(id);
                    break;
                }
            }
        }
    }
    for w in 0..nrings - 1 {
        // L2 bridges are legal both within and across chiplets; vary
        // their latency/buffering/DRM knobs per seed.
        let cfg = if rng.below(2) == 0 {
            BridgeConfig::l2()
                .with_latency(1 + rng.below(4) as u32)
                .with_deadlock_threshold(32 + rng.below(64) as u32)
        } else {
            BridgeConfig::l2()
                .with_latency(2 + rng.below(8) as u32)
                .with_buffer_cap(2 + rng.below(6) as usize)
                .with_deadlock_threshold(24 + rng.below(64) as u32)
        };
        let mut bridged = false;
        for _ in 0..16 {
            let sa = rng.below(stations[w] as u64) as u16;
            let sb = rng.below(stations[w + 1] as u64) as u16;
            if b.add_bridge(cfg.clone(), rings[w], sa, rings[w + 1], sb)
                .is_ok()
            {
                bridged = true;
                break;
            }
        }
        assert!(
            bridged,
            "could not place bridge between rings {w} and {}",
            w + 1
        );
    }
    (b.build().expect("valid random topology"), devices)
}

/// Seed `seed`'s case for the observatory suites: a [`random_topology`]
/// with at least two devices, random queue caps and I-tag threshold,
/// and the seed of its traffic.
pub fn random_case(seed: u64) -> (Topology, Vec<NodeId>, NetworkConfig, u64) {
    let mut rng = Rng(seed.wrapping_mul(0x5851_f42d_4c95_7f2d) ^ 0xa076_1d64_78bd_642f);
    let (topo, devices) = random_topology(&mut rng);
    assert!(devices.len() >= 2, "seed {seed}: too few devices");
    let cfg = NetworkConfig {
        inject_queue_cap: 2 + rng.below(7) as usize,
        eject_queue_cap: 1 + rng.below(4) as usize,
        itag_threshold: 4 + rng.below(12) as u32,
        ..NetworkConfig::default()
    };
    (topo, devices, cfg, rng.next())
}

/// The observatory suites' mixed traffic: for 200–299 cycles each
/// device sends with probability 1/(2..=4) a flit of a random class and
/// size to a random other device, mail popped every 1–4 cycles; then a
/// [`drain`] of up to 10 000 cycles, mail popped every cycle.
/// `after_tick` runs after every tick, once the mail is popped.
pub fn drive_mixed<S: TraceSink>(
    net: &mut Network<S>,
    devices: &[NodeId],
    seed: u64,
    mut after_tick: impl FnMut(&Network<S>),
) {
    let mut rng = Rng(seed);
    let cycles = 200 + rng.below(100);
    let drain_period = 1 + rng.below(4);
    let send_die = 1 + rng.below(3);
    let mut token = 0u64;
    let pop_all = |net: &mut Network<S>| {
        for &d in devices {
            while net.pop_delivered(d).is_some() {}
        }
    };
    for cycle in 0..cycles {
        for si in 0..devices.len() {
            if rng.below(1 + send_die) != 0 {
                continue;
            }
            let di = (si + 1 + rng.below(devices.len() as u64 - 1) as usize) % devices.len();
            let class = match rng.below(4) {
                0 => FlitClass::Request,
                1 => FlitClass::Response,
                2 => FlitClass::Snoop,
                _ => FlitClass::Data,
            };
            let bytes = [32u32, 64][rng.below(2) as usize];
            token += 1;
            let _ = net.enqueue(devices[si], devices[di], class, bytes, token);
        }
        net.tick();
        if cycle % drain_period == 0 {
            pop_all(net);
        }
        after_tick(net);
    }
    drain(net, 10_000, |net| {
        pop_all(net);
        after_tick(net);
        Ok(())
    })
    .expect("popping never fails");
    pop_all(net);
}

/// Random 2–4 ring chain: mixed half/full rings over two chiplets,
/// consecutive rings joined by an L2 bridge of random latency, two
/// devices per ring.
pub fn chain_topology(rng: &mut Rng) -> (Topology, Vec<NodeId>) {
    let mut b = TopologyBuilder::new();
    let dies = [b.add_chiplet("die0"), b.add_chiplet("die1")];
    let nrings = 2 + rng.below(3) as usize;
    let mut rings = Vec::new();
    let mut devs = Vec::new();
    for i in 0..nrings {
        let kind = if rng.below(2) == 0 {
            RingKind::Full
        } else {
            RingKind::Half
        };
        let n = 6 + rng.below(11) as u16;
        let r = b.add_ring(dies[i % 2], kind, n).unwrap();
        devs.push(
            b.add_node(format!("p{i}"), r, 1 + rng.below(2) as u16)
                .unwrap(),
        );
        devs.push(b.add_node(format!("q{i}"), r, 4).unwrap());
        rings.push((r, n));
    }
    for w in 0..nrings - 1 {
        let cfg = BridgeConfig::l2().with_latency(1 + rng.below(8) as u32);
        b.add_bridge(
            cfg,
            rings[w].0,
            rings[w].1 - 1,
            rings[w + 1].0,
            rings[w + 1].1 - 1,
        )
        .unwrap();
    }
    (b.build().unwrap(), devs)
}

/// Digest of one delivered flit for stream comparison.
pub fn digest(f: &Flit) -> (u64, NodeId, NodeId, u64, u32, u32, u32, u32) {
    (
        f.id,
        f.src,
        f.dst,
        f.token,
        f.payload_bytes,
        f.hops,
        f.deflections,
        f.ring_changes,
    )
}

/// 64-bit FNV-1a, foldable: feed the previous result back as `state`
/// to hash a stream in pieces. Start from [`FNV_OFFSET`].
pub fn fnv1a(state: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(state, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The FNV-1a 64-bit offset basis.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// A network's snapshot series read as it is committed: each
/// [`SnapshotStream::read`] appends, as JSONL, what the registry
/// committed since the previous read. The registry keeps only its
/// window (the flight recorder's, or `SERIES_WINDOW` without one), so a
/// suite that compares the whole series reads it this way after every
/// tick or epoch; the bytes equal `snapshots_jsonl` of the full series.
#[derive(Debug, Default)]
pub struct SnapshotStream {
    pub jsonl: String,
    next: u64,
}

impl SnapshotStream {
    pub fn read<S: TraceSink>(&mut self, net: &Network<S>) {
        let reg = net.metrics().expect("observatory enabled");
        let fresh = reg
            .since(self.next)
            .expect("read before the window scrolled past");
        self.jsonl.push_str(&snapshots_jsonl(fresh));
        self.next = reg.committed();
    }
}
