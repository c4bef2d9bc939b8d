//! Transport parity: the CHI protocol must reach the same logical
//! outcome (final MESI states, completion counts, coherence invariants)
//! whether it runs over the bufferless multi-ring NoC, the transaction
//! layer on top of it, the buffered mesh, or the hub-and-spoke — only
//! timing may differ. SWMR holds after every cycle on all of them, and
//! every directory lists every copy.

use noc_baseline::hub::PER_CHIPLET;
use noc_baseline::{BufferedMesh, HubSpoke, MeshConfig};
use noc_chi::drive::{settle, Verdict::Drained};
use noc_chi::system::ChiTransport;
use noc_chi::{CoherentSystem, LineAddr, LlcParams, MesiState, ReadKind, SystemSpec};
use noc_core::{Network, NetworkConfig, NodeId, RingKind, TopologyBuilder};
use noc_txn::{TxnConfig, TxnFabric};

const RNS: usize = 4;
const LINES: u64 = 12;

fn spec(rns: Vec<NodeId>, hns: Vec<NodeId>, sns: Vec<NodeId>) -> SystemSpec {
    SystemSpec {
        requesters: rns,
        home_nodes: hns,
        memories: sns,
        llc: LlcParams::default(),
    }
}

/// A deterministic op script every transport executes.
fn script() -> Vec<(usize, u64, u8)> {
    let mut seed = 0xDEAD_BEEFu64;
    let mut next = move || {
        seed = seed
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        seed >> 33
    };
    (0..120)
        .map(|_| {
            (
                (next() % RNS as u64) as usize,
                next() % LINES,
                (next() % 3) as u8,
            )
        })
        .collect()
}

/// Every requester's state of every line the script touches.
fn states<T: ChiTransport>(sys: &CoherentSystem<T>, rns: &[NodeId]) -> Vec<Vec<MesiState>> {
    (0..LINES)
        .map(|l| {
            rns.iter()
                .map(|&rn| sys.rn_state(rn, LineAddr(l)))
                .collect()
        })
        .collect()
}

/// The coherence invariants on every line the script touches (see
/// [`CoherentSystem::check_coherent`]).
fn assert_coherent<T: ChiTransport>(sys: &CoherentSystem<T>) {
    if let Err(e) = sys.check_coherent((0..LINES).map(LineAddr)) {
        panic!("{e}");
    }
}

/// Run the script to quiescence, checking coherence after every tick;
/// return the completion count.
fn run<T: ChiTransport>(mut sys: CoherentSystem<T>, rns: &[NodeId]) -> usize {
    for (rn, line, op) in script() {
        let rn = rns[rn];
        let addr = LineAddr(line);
        match op {
            0 => {
                sys.write(rn, addr);
            }
            _ => {
                sys.read(rn, addr, ReadKind::Shared);
            }
        }
        for _ in 0..5 {
            sys.tick();
            assert_coherent(&sys);
        }
    }
    let verdict = settle(&mut sys, 300_000, |sys| {
        assert_coherent(sys);
        Ok(())
    });
    assert!(
        matches!(verdict, Ok(Drained(_))),
        "transport wedged: {verdict:?}"
    );
    sys.take_completions().len()
}

/// The ring system's network, wrapped in the transaction layer.
fn txn_system() -> (CoherentSystem<TxnFabric>, Vec<NodeId>) {
    let (net, spec) = ring_parts();
    let rns = spec.requesters.clone();
    let fab = TxnFabric::new(net, TxnConfig::default());
    (CoherentSystem::new(fab, spec), rns)
}

fn ring_system() -> (CoherentSystem<Network>, Vec<NodeId>) {
    let (net, spec) = ring_parts();
    let rns = spec.requesters.clone();
    (CoherentSystem::new(net, spec), rns)
}

fn ring_parts() -> (Network, SystemSpec) {
    let mut b = TopologyBuilder::new();
    let die = b.add_chiplet("die");
    let r = b.add_ring(die, RingKind::Full, 16).unwrap();
    let rns: Vec<NodeId> = (0..RNS)
        .map(|i| b.add_node(format!("cpu{i}"), r, (i * 2) as u16).unwrap())
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
    (net, spec(rns, hns, sns))
}

fn mesh_system() -> (CoherentSystem<BufferedMesh>, Vec<NodeId>) {
    let mesh = BufferedMesh::new(MeshConfig { k: 3 });
    let rns: Vec<NodeId> = (0..RNS as u32).map(NodeId).collect();
    let hns = vec![NodeId(4), NodeId(5)];
    let sns = vec![NodeId(6), NodeId(7)];
    let sys = CoherentSystem::new(mesh, spec(rns.clone(), hns, sns));
    (sys, rns)
}

fn hub_system() -> (CoherentSystem<HubSpoke>, Vec<NodeId>) {
    // Requesters on chiplet 0, home nodes on 1 and memories on 2.
    let on = |chiplet: usize, i: usize| NodeId((chiplet * PER_CHIPLET + i) as u32);
    let rns: Vec<NodeId> = (0..RNS).map(|i| on(0, i)).collect();
    let hns = vec![on(1, 0), on(1, 1)];
    let sns = vec![on(2, 0), on(2, 1)];
    let sys = CoherentSystem::new(HubSpoke::new(), spec(rns.clone(), hns, sns));
    (sys, rns)
}

#[test]
fn all_transports_complete_the_script() {
    let (sys, rns) = ring_system();
    let ring_done = run(sys, &rns);

    let (sys, rns) = mesh_system();
    let mesh_done = run(sys, &rns);

    let (sys, rns) = hub_system();
    let hub_done = run(sys, &rns);

    let (sys, rns) = txn_system();
    let txn_done = run(sys, &rns);

    // Same script → same number of completions on every transport.
    assert_eq!(ring_done, mesh_done);
    assert_eq!(ring_done, hub_done);
    assert_eq!(ring_done, txn_done);
    assert_eq!(ring_done, 120);
}

#[test]
fn final_ownership_matches_across_transports_for_serial_script() {
    // With fully serialized operations (run each to completion before
    // the next), the final states must be *identical* across
    // transports — the protocol outcome is timing-independent.
    fn run_serial<T: ChiTransport>(
        mut sys: CoherentSystem<T>,
        rns: &[NodeId],
    ) -> Vec<Vec<MesiState>> {
        for (rn, line, op) in script().into_iter().take(60) {
            let rn = rns[rn];
            let addr = LineAddr(line);
            let txn = match op {
                0 => sys.write(rn, addr),
                _ => sys.read(rn, addr, ReadKind::Shared),
            };
            sys.run_until_complete(txn, 300_000).expect("completes");
        }
        states(&sys, rns)
    }
    let (sys, rns) = ring_system();
    let ring = run_serial(sys, &rns);
    let (sys, rns) = mesh_system();
    let mesh = run_serial(sys, &rns);
    let (sys, rns) = hub_system();
    let hub = run_serial(sys, &rns);
    let (sys, rns) = txn_system();
    let txn = run_serial(sys, &rns);
    assert_eq!(ring, mesh, "ring vs mesh final states differ");
    assert_eq!(ring, hub, "ring vs hub final states differ");
    assert_eq!(ring, txn, "ring vs txn final states differ");
}
