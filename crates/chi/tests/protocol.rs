//! Protocol-level tests: MESI transitions, snoops, LLC behaviour and
//! coherence invariants over a real multi-ring network.

use noc_chi::drive::{settle, Verdict::Drained};
use noc_chi::{
    CoherentSystem, DirState, LineAddr, LlcParams, MesiState, ReadKind, SystemSpec, TxnKind,
};
use noc_core::{Network, NetworkConfig, NodeId, RingKind, TopologyBuilder};

fn spec(requesters: Vec<NodeId>, home_nodes: Vec<NodeId>, memories: Vec<NodeId>) -> SystemSpec {
    SystemSpec {
        requesters,
        home_nodes,
        memories,
        llc: LlcParams::default(),
    }
}

/// One ring: 4 requesters, 2 home nodes, 2 memory controllers.
fn small_system() -> (CoherentSystem, Vec<NodeId>) {
    small_system_listing(|rns| rns)
}

/// [`small_system`] with its requesters (built in ascending `NodeId`)
/// listed to the spec in the order `order` puts them in; returns them in
/// that order.
fn small_system_listing(
    order: impl FnOnce(Vec<NodeId>) -> Vec<NodeId>,
) -> (CoherentSystem, Vec<NodeId>) {
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
    let rns = order(rns);
    let sys = CoherentSystem::new(net, spec(rns.clone(), hns, sns));
    (sys, rns)
}

/// The coherence invariants over `lines` (see
/// [`CoherentSystem::check_coherent`]).
fn assert_coherent(sys: &CoherentSystem, lines: std::ops::Range<u64>) {
    if let Err(e) = sys.check_coherent(lines.map(LineAddr)) {
        panic!("{e}");
    }
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
        assert_eq!(sys.rn_lines_held(rn), 0, "{rn}'s table forgets the line");
    }
    assert_eq!(sys.rn_lines_held(rns[3]), 1);
    let dir = sys.directory_of(a);
    assert_eq!(dir.state(a), DirState::Owned(rns[3]));
    assert_eq!(dir.len(), 1);
}

#[test]
fn a_write_back_leaves_no_entry_behind() {
    let (mut sys, rns) = small_system();
    let a = LineAddr(0x5100);
    let t = sys.write(rns[1], a);
    sys.run_until_complete(t, 5000).unwrap();
    let wb = sys.write_back(rns[1], a).expect("owner can write back");
    assert_eq!(
        sys.rn_lines_held(rns[1]),
        0,
        "forgotten when the write-back is sent"
    );
    sys.run_until_complete(wb, 5000).unwrap();
    assert_eq!(sys.rn_state(rns[1], a), MesiState::Invalid);
    assert!(sys.directory_of(a).is_empty(), "the last holder went");
}

#[test]
fn a_snoop_that_overtakes_a_write_back_brings_nothing_back() {
    // rn1's read reaches the home while rn0's write-back is on its way,
    // so the home snoops rn0, which has already let the line go. For
    // some gap between the two the write-back then lands before the
    // snoop; either way rn0 must stay Invalid — a copy the directory
    // has dropped would never be snooped by the write below.
    let a = LineAddr(0x5300);
    for gap in 0..24 {
        let (mut sys, rns) = small_system();
        let t = sys.write(rns[0], a);
        sys.run_until_complete(t, 5000).unwrap();
        sys.read(rns[1], a, ReadKind::Shared);
        for _ in 0..gap {
            sys.tick();
        }
        sys.write_back(rns[0], a);
        let verdict = settle(&mut sys, 5000, |_| Ok(()));
        assert!(matches!(verdict, Ok(Drained(_))), "{verdict:?}");
        assert_coherent(&sys, a.0..a.0 + 1);
        let t = sys.write(rns[2], a);
        sys.run_until_complete(t, 5000).unwrap();
        assert_coherent(&sys, a.0..a.0 + 1);
    }
}

#[test]
fn sharers_are_ranked_by_node_id_whatever_order_the_spec_lists() {
    let (mut sys, listed) = small_system_listing(|mut rns| {
        rns.swap(0, 3);
        rns.swap(1, 2);
        rns
    });
    let mut ascending = listed.clone();
    ascending.sort_unstable();
    assert_ne!(listed, ascending, "the spec lists requesters out of order");
    let a = LineAddr(0x5200);
    for &rn in &[listed[1], listed[3], listed[0], listed[2]] {
        let t = sys.read(rn, a, ReadKind::Shared);
        sys.run_until_complete(t, 5000).unwrap();
    }
    let held: Vec<NodeId> = sys.directory_of(a).holders(a).collect();
    assert_eq!(held, ascending);
    // The write snoops the other three and leaves only the writer.
    let t = sys.write(listed[0], a);
    sys.run_until_complete(t, 5000).unwrap();
    assert!(sys.directory_of(a).holders(a).eq([listed[0]]));
    for &rn in &listed[1..] {
        assert_eq!(sys.rn_lines_held(rn), 0);
    }
}

#[test]
#[should_panic(expected = "129 requesters")]
fn more_requesters_than_a_sharer_mask_holds_are_rejected() {
    let mut b = TopologyBuilder::new();
    let die = b.add_chiplet("die");
    let r = b.add_ring(die, RingKind::Full, 4).unwrap();
    b.add_node("a", r, 0).unwrap();
    let net = Network::new(b.build().unwrap(), NetworkConfig::default());
    // Checked before any id is looked up, so the ids need not exist.
    let rns = (0..129).map(NodeId).collect();
    CoherentSystem::new(net, spec(rns, vec![NodeId(200)], vec![NodeId(201)]));
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
    CoherentSystem::new(net, spec(vec![a], vec![c], vec![a]));
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
    let verdict = settle(&mut sys, 10_000, |_| Ok(()));
    assert!(matches!(verdict, Ok(Drained(_))), "{verdict:?}");
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
    for _ in 0..400 {
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
            assert_coherent(&sys, 0..32);
        }
    }
    let verdict = settle(&mut sys, 50_000, |sys| {
        let lines = (0..32).map(LineAddr);
        sys.check_coherent(lines).map_err(|e| e.to_string())
    });
    assert!(matches!(verdict, Ok(Drained(_))), "{verdict:?}");
}

#[test]
fn completions_report_kind_and_monotonic_time() {
    let (mut sys, rns) = small_system();
    let t1 = sys.read(rns[0], LineAddr(1), ReadKind::Shared);
    let t2 = sys.write(rns[1], LineAddr(2));
    let verdict = settle(&mut sys, 10_000, |_| Ok(()));
    assert!(matches!(verdict, Ok(Drained(_))), "{verdict:?}");
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
