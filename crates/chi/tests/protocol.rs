//! Protocol-level tests: MESI transitions, snoops, LLC behaviour and
//! coherence invariants over a real multi-ring network.

use noc_chi::{
    CoherentSystem, LineAddr, LlcParams, MemoryParams, MesiState, ReadKind, SystemSpec, TxnKind,
};
use noc_core::{Network, NetworkConfig, NodeId, RingKind, TopologyBuilder};

/// One ring: 4 requesters, 2 home nodes, 2 memory controllers.
fn small_system() -> (CoherentSystem, Vec<NodeId>) {
    let mut b = TopologyBuilder::new();
    let die = b.add_chiplet("die");
    let r = b.add_ring(die, RingKind::Full, 16).unwrap();
    let rns: Vec<NodeId> = (0..4)
        .map(|i| b.add_node(format!("cpu{i}"), r, i * 2).unwrap())
        .collect();
    let hns: Vec<NodeId> = (0..2)
        .map(|i| b.add_node(format!("hn{i}"), r, 9 + i * 2).unwrap())
        .collect();
    let sns: Vec<NodeId> = (0..2)
        .map(|i| b.add_node(format!("ddr{i}"), r, 13 + i * 2).unwrap())
        .collect();
    let net = Network::new(b.build().unwrap(), NetworkConfig::default());
    let sys = CoherentSystem::new(
        net,
        SystemSpec {
            requesters: rns.clone(),
            home_nodes: hns,
            memories: sns,
            mem_params: MemoryParams::ddr4(),
            llc: LlcParams::default(),
            line_bytes: 64,
            local_hit_latency: 10,
            hn_latency: 12,
            snoop_latency: 6,
        },
    );
    (sys, rns)
}

fn settle(sys: &mut CoherentSystem, budget: u64) {
    for _ in 0..budget {
        sys.tick();
        if sys.outstanding() == 0 {
            return;
        }
    }
    panic!("transactions did not settle within {budget} cycles");
}

#[test]
fn first_read_grants_exclusive() {
    let (mut sys, rns) = small_system();
    let a = LineAddr(0x1000);
    let t = sys.read(rns[0], a, ReadKind::Shared);
    let c = sys.run_until_complete(t, 5000).expect("completes");
    assert_eq!(sys.rn_state(rns[0], a), MesiState::Exclusive);
    assert!(c.latency() > 60, "cold miss must include DDR latency");
}

#[test]
fn second_read_hits_llc_and_is_faster() {
    let (mut sys, rns) = small_system();
    let a = LineAddr(0x2000);
    // Warm the LLC via rn0's read + write-back path: a clean E line is
    // silently tracked, so make it dirty and write it back.
    let t = sys.write(rns[0], a);
    sys.run_until_complete(t, 5000).unwrap();
    let wb = sys.write_back(rns[0], a).expect("owner can write back");
    sys.run_until_complete(wb, 5000).unwrap();
    // Now rn1 reads: LLC hit, no memory trip.
    let cold = {
        let t = sys.read(rns[1], LineAddr(0x9999), ReadKind::Shared);
        sys.run_until_complete(t, 5000).unwrap().latency()
    };
    let warm = {
        let t = sys.read(rns[1], a, ReadKind::Shared);
        sys.run_until_complete(t, 5000).unwrap().latency()
    };
    assert!(
        warm < cold,
        "LLC hit ({warm}) must beat memory miss ({cold})"
    );
}

#[test]
fn local_hit_completes_without_noc() {
    let (mut sys, rns) = small_system();
    let a = LineAddr(0x3000);
    let t = sys.read(rns[0], a, ReadKind::Shared);
    sys.run_until_complete(t, 5000).unwrap();
    let before = sys.network().stats().enqueued.get();
    let t2 = sys.read(rns[0], a, ReadKind::Shared);
    let c = sys.run_until_complete(t2, 5000).unwrap();
    assert_eq!(
        sys.network().stats().enqueued.get(),
        before,
        "local hit must not generate traffic"
    );
    assert_eq!(c.latency(), 10);
}

#[test]
fn dirty_line_is_snooped_from_owner() {
    let (mut sys, rns) = small_system();
    let a = LineAddr(0x4000);
    let t = sys.write(rns[0], a);
    sys.run_until_complete(t, 5000).unwrap();
    assert_eq!(sys.rn_state(rns[0], a), MesiState::Modified);

    let t = sys.read(rns[1], a, ReadKind::Shared);
    let c = sys.run_until_complete(t, 5000).expect("snooped read");
    assert_eq!(sys.rn_state(rns[0], a), MesiState::Shared, "owner demoted");
    assert_eq!(sys.rn_state(rns[1], a), MesiState::Shared);
    assert!(c.latency() > 0);
    // The snoop path generated Snoop-class flits.
    assert!(sys.network().stats().total_latency[noc_core::FlitClass::Snoop.index()].count() > 0);
}

#[test]
fn read_unique_invalidates_all_sharers() {
    let (mut sys, rns) = small_system();
    let a = LineAddr(0x5000);
    for &rn in &rns[0..3] {
        let t = sys.read(rn, a, ReadKind::Shared);
        sys.run_until_complete(t, 5000).unwrap();
    }
    let t = sys.write(rns[3], a);
    sys.run_until_complete(t, 5000).expect("write completes");
    assert_eq!(sys.rn_state(rns[3], a), MesiState::Modified);
    for &rn in &rns[0..3] {
        assert_eq!(
            sys.rn_state(rn, a),
            MesiState::Invalid,
            "{rn} must be invalidated"
        );
    }
}

#[test]
fn write_back_requires_ownership() {
    let (mut sys, rns) = small_system();
    let a = LineAddr(0x6000);
    assert!(sys.write_back(rns[0], a).is_none(), "not held at all");
    let t = sys.read(rns[0], a, ReadKind::Shared);
    sys.run_until_complete(t, 5000).unwrap();
    let t = sys.read(rns[1], a, ReadKind::Shared);
    sys.run_until_complete(t, 5000).unwrap();
    // rns[0] is now Shared, not writable.
    assert!(sys.write_back(rns[0], a).is_none(), "shared is not enough");
}

#[test]
#[should_panic(expected = "n8 is not a requester")]
fn a_node_one_past_the_topology_is_not_a_requester() {
    // The agent tables are indexed by node id: an id beyond them must
    // read as "no such agent", by name, not as an index out of bounds.
    let (mut sys, _) = small_system();
    let past = NodeId(8);
    assert_eq!(sys.rn_state(past, LineAddr(1)), MesiState::Invalid);
    assert!(sys.write_back(past, LineAddr(1)).is_none());
    sys.read(past, LineAddr(1), ReadKind::Shared);
}

#[test]
#[should_panic(expected = "n0 has two roles")]
fn an_agent_listed_in_two_roles_is_rejected_by_name() {
    let mut b = TopologyBuilder::new();
    let die = b.add_chiplet("die");
    let r = b.add_ring(die, RingKind::Full, 8).unwrap();
    let a = b.add_node("a", r, 0).unwrap();
    let c = b.add_node("c", r, 4).unwrap();
    let net = Network::new(b.build().unwrap(), NetworkConfig::default());
    CoherentSystem::new(
        net,
        SystemSpec {
            requesters: vec![a],
            home_nodes: vec![c],
            memories: vec![a],
            mem_params: MemoryParams::ddr4(),
            llc: LlcParams::default(),
            line_bytes: 64,
            local_hit_latency: 10,
            hn_latency: 12,
            snoop_latency: 6,
        },
    );
}

#[test]
fn nosnp_read_does_not_install_state() {
    let (mut sys, rns) = small_system();
    let a = LineAddr(0x7000);
    let t = sys.read(rns[0], a, ReadKind::NoSnp);
    let c = sys.run_until_complete(t, 5000).expect("completes");
    assert_eq!(sys.rn_state(rns[0], a), MesiState::Invalid);
    assert_eq!(c.kind, TxnKind::Read(ReadKind::NoSnp));
    assert!(c.latency() > 60, "NoSnp always goes to memory");
}

#[test]
fn concurrent_reads_to_one_line_serialize_safely() {
    let (mut sys, rns) = small_system();
    let a = LineAddr(0x8000);
    let txns: Vec<_> = rns
        .iter()
        .map(|&rn| sys.read(rn, a, ReadKind::Shared))
        .collect();
    settle(&mut sys, 10_000);
    let done = sys.take_completions();
    assert_eq!(done.len(), txns.len());
    for &rn in &rns {
        assert!(sys.rn_state(rn, a).readable());
    }
}

#[test]
fn interleaved_random_traffic_drains_and_stays_coherent() {
    let (mut sys, rns) = small_system();
    // Pseudo-random but deterministic op mix.
    let mut seed = 0x1234_5678u64;
    let mut next = || {
        seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
        seed >> 33
    };
    for step in 0..400 {
        let rn = rns[(next() % 4) as usize];
        let addr = LineAddr(next() % 32);
        match next() % 4 {
            0 => {
                sys.write(rn, addr);
            }
            1 => {
                sys.write_back(rn, addr);
            }
            _ => {
                sys.read(rn, addr, ReadKind::Shared);
            }
        }
        for _ in 0..3 {
            sys.tick();
        }
        // Invariant: never more than one writable holder per line.
        if step % 20 == 0 {
            for line in 0..32u64 {
                let writable = rns
                    .iter()
                    .filter(|&&rn| sys.rn_state(rn, LineAddr(line)).writable())
                    .count();
                let readable = rns
                    .iter()
                    .filter(|&&rn| sys.rn_state(rn, LineAddr(line)).readable())
                    .count();
                assert!(writable <= 1, "line {line}: {writable} writable holders");
                if writable == 1 {
                    assert_eq!(
                        readable, 1,
                        "line {line}: writable copy must be the only copy"
                    );
                }
            }
        }
    }
    settle(&mut sys, 50_000);
    assert_eq!(sys.outstanding(), 0);
}

#[test]
fn completions_report_kind_and_monotonic_time() {
    let (mut sys, rns) = small_system();
    let t1 = sys.read(rns[0], LineAddr(1), ReadKind::Shared);
    let t2 = sys.write(rns[1], LineAddr(2));
    settle(&mut sys, 10_000);
    let cs = sys.take_completions();
    assert_eq!(cs.len(), 2);
    for c in &cs {
        assert!(c.end >= c.start);
        if c.txn == t1 {
            assert_eq!(c.kind, TxnKind::Read(ReadKind::Shared));
        }
        if c.txn == t2 {
            assert_eq!(c.kind, TxnKind::Write);
        }
    }
}
