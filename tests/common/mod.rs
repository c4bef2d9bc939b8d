//! Fabrics and traffic shared by the transaction suites: the identity
//! suites' seeded mixed workload on a 2×2 torus (`txn_lockstep`,
//! `span_identity`, `waitgraph_identity`), and the 4×4 torus with the
//! stride-7 writes that wedge legacy admission. Each suite uses a
//! subset, hence the blanket `dead_code` allowance.
#![allow(dead_code)]

use noc_core::spec::devices_by_name;
use noc_core::telemetry::{SpanSink, TraceSink};
use noc_core::{GridParams, NodeId, Topology};
use noc_sim::fuzz::TrafficPattern;
use noc_sim::SimRng;
use noc_txn::drive::{settle, ClosedLoop, Verdict};
use noc_txn::{TxnCompletion, TxnFabric, TxnOp, TxnRequest};
use noc_workloads::{TxnMix, TxnWorkload};

/// The 2×2 torus of `seed`, 8 devices a chiplet, and its devices in
/// name order: `compile` hands back a `HashMap`, and its iteration
/// order must never leak into the traffic schedule.
pub fn torus(seed: u64) -> (Topology, Vec<NodeId>) {
    let (topo, names) = GridParams::torus(2, 2)
        .with_devices(8)
        .with_seed(seed)
        .generate()
        .expect("params are valid")
        .compile()
        .expect("spec compiles");
    (topo, devices_by_name(&names))
}

/// The 4×4 torus, 16 stations a ring, two devices a chiplet, at its
/// pinned seed: the benchmark's transaction fabric, where full rings
/// and full bridge escape buffers can form a cyclic wait SWAP cannot
/// break.
pub fn torus4() -> (Topology, Vec<NodeId>) {
    let (topo, names) = GridParams::torus(4, 4)
        .with_stations(16)
        .with_devices(2)
        .with_seed(0x7261_6a65)
        .generate()
        .expect("the 4x4 torus generates")
        .compile()
        .expect("the 4x4 torus compiles");
    (topo, devices_by_name(&names))
}

/// Request `i` of the stride-7 pattern: a 2 KiB non-posted write from
/// device `i mod n` to device `(7i + 3) mod n` (the next one if that is
/// the source). The stride walks every bridge pair, closing a four-ring
/// escape cycle under legacy admission.
pub fn stride7(i: usize, devs: &[NodeId]) -> TxnRequest {
    let n = devs.len();
    let src = i % n;
    let mut dst = (i * 7 + 3) % n;
    if dst == src {
        dst = (dst + 1) % n;
    }
    TxnRequest::Point {
        src: devs[src],
        dst: devs[dst],
        op: TxnOp::Write {
            bytes: 2048,
            posted: false,
        },
    }
}

/// Drive the workload of `seed` over `devs` until `txns` requests are
/// accepted, then settle `fab`; returns every completion in order.
///
/// # Panics
///
/// Panics if the workload is never accepted or the fabric does not
/// drain.
pub fn run_mixed<S: TraceSink, P: SpanSink>(
    fab: &mut TxnFabric<S, P>,
    devs: Vec<NodeId>,
    seed: u64,
    txns: u64,
) -> Vec<TxnCompletion> {
    let wl = TxnWorkload::new(devs, TxnMix::default(), TrafficPattern::Uniform, 64, 32);
    let mut rng = SimRng::seed_from(seed.wrapping_mul(0x9E37_79B9));
    let mut requests = std::iter::repeat_with(|| wl.next(&mut rng));
    let mut lp = ClosedLoop::new(usize::MAX, 1);
    let mut completions = Vec::new();
    while lp.accepted() < txns {
        assert!(fab.now().raw() < 1_000_000, "seed {seed}: never accepted");
        lp.cycle(fab, &mut requests, |c| completions.push(c))
            .expect("generated requests are valid");
    }
    let verdict = settle(fab, 2_000_000, |_| Ok(()));
    assert!(
        matches!(verdict, Ok(Verdict::Drained(_))),
        "seed {seed}: fabric failed to quiesce: {verdict:?}, counters {:?}",
        fab.counters()
    );
    completions.extend(fab.drain_completions());
    completions
}
