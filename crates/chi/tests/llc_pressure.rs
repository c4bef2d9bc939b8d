//! LLC capacity-pressure tests: dirty evictions, write-back storms and
//! directory behaviour under a working set larger than the LLC.

use noc_chi::drive::{settle, Verdict::Drained};
use noc_chi::{CoherentSystem, LineAddr, LlcParams, MesiState, ReadKind, SystemSpec};
use noc_core::{Network, NetworkConfig, NodeId, RingKind, TopologyBuilder};

/// A system whose LLC slice holds only 32 lines, so modest working sets
/// force evictions.
fn tiny_llc_system() -> (CoherentSystem, Vec<NodeId>) {
    let mut b = TopologyBuilder::new();
    let die = b.add_chiplet("die");
    let r = b.add_ring(die, RingKind::Full, 12).unwrap();
    let rns: Vec<NodeId> = (0..3)
        .map(|i| b.add_node(format!("cpu{i}"), r, i * 2).unwrap())
        .collect();
    let hn = b.add_node("hn", r, 7).unwrap();
    let sn = b.add_node("ddr", r, 9).unwrap();
    let net = Network::new(b.build().unwrap(), NetworkConfig::default());
    let sys = CoherentSystem::new(
        net,
        SystemSpec {
            requesters: rns.clone(),
            home_nodes: vec![hn],
            memories: vec![sn],
            llc: LlcParams {
                capacity_bytes: 32 * 64, // 32 lines
                ways: 4,
            },
        },
    );
    (sys, rns)
}

#[test]
fn writeback_storm_evicts_cleanly() {
    let (mut sys, rns) = tiny_llc_system();
    // Dirty 128 lines (4x LLC capacity) and write them all back: every
    // installation past capacity evicts a dirty victim to memory.
    for i in 0..128u64 {
        let t = sys.write(rns[0], LineAddr(i));
        sys.run_until_complete(t, 50_000).expect("write");
        let wb = sys.write_back(rns[0], LineAddr(i)).expect("owner");
        sys.run_until_complete(wb, 50_000).expect("write-back");
    }
    let verdict = settle(&mut sys, 100_000, |_| Ok(()));
    assert!(matches!(verdict, Ok(Drained(_))), "{verdict:?}");
    // Everything still works afterwards: fresh reads complete.
    let t = sys.read(rns[1], LineAddr(5), ReadKind::Shared);
    let c = sys.run_until_complete(t, 50_000).expect("read after storm");
    assert!(c.latency() > 0);
}

#[test]
fn eviction_does_not_break_coherence() {
    let (mut sys, rns) = tiny_llc_system();
    // rn0 owns line 0 (dirty). Then a large read sweep by rn1 flushes
    // the LLC many times over. rn0's ownership must survive (the
    // directory is not the LLC data array).
    let t = sys.write(rns[0], LineAddr(0));
    sys.run_until_complete(t, 50_000).expect("write");
    for i in 100..200u64 {
        let t = sys.read(rns[1], LineAddr(i), ReadKind::Shared);
        sys.run_until_complete(t, 50_000).expect("sweep read");
    }
    assert_eq!(sys.rn_state(rns[0], LineAddr(0)), MesiState::Modified);
    // And a third party still snoops the dirty data correctly.
    let t = sys.read(rns[2], LineAddr(0), ReadKind::Shared);
    sys.run_until_complete(t, 50_000).expect("snooped read");
    assert_eq!(sys.rn_state(rns[0], LineAddr(0)), MesiState::Shared);
    assert_eq!(sys.rn_state(rns[2], LineAddr(0)), MesiState::Shared);
}

#[test]
fn llc_thrash_latency_exceeds_llc_hit() {
    let (mut sys, rns) = tiny_llc_system();
    // Warm one line via write+writeback (lands in LLC dirty).
    let t = sys.write(rns[0], LineAddr(0));
    sys.run_until_complete(t, 50_000).unwrap();
    let wb = sys.write_back(rns[0], LineAddr(0)).unwrap();
    sys.run_until_complete(wb, 50_000).unwrap();
    let t = sys.read(rns[1], LineAddr(0), ReadKind::Shared);
    let warm = sys.run_until_complete(t, 50_000).unwrap().latency();

    // Thrash the LLC, then read a line guaranteed to be evicted.
    for i in 1000..1100u64 {
        let t = sys.read(rns[2], LineAddr(i), ReadKind::Shared);
        sys.run_until_complete(t, 50_000).unwrap();
    }
    // rn1 drops its copy (write-back impossible: Shared), so force the
    // re-fetch via a different, previously-LLC-resident address now
    // evicted; use a fresh cold line as proxy for the memory trip.
    let t = sys.read(rns[1], LineAddr(0xF000), ReadKind::Shared);
    let cold = sys.run_until_complete(t, 50_000).unwrap().latency();
    assert!(
        cold > warm,
        "memory trip ({cold}) must exceed LLC hit ({warm})"
    );
}
