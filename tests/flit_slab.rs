//! The network's flit slab holds exactly the flits resident in it and
//! is bounded by load, not by run length: on the 8×8 generated torus
//! and both paper SoCs, under open-loop raw-flit load.
//!
//! Every flit's body lives in one slab slot from `Network::enqueue` to
//! `Network::pop_delivered`; lanes, queues and bridge escapes hold
//! handles to it. Only those two calls allocate and free, so the live
//! count is at its highest right after a cycle's enqueues, which is
//! where the peak is sampled.

use noc_ai::{AiConfig, AiProcessor};
use noc_core::drive::{drain, OpenLoop, Verdict};
use noc_core::{GridParams, Network, NetworkConfig, NodeId, NodeKind};
use noc_server_cpu::{ServerCpu, ServerCpuConfig};
use noc_sim::fuzz::TrafficPattern;
use noc_sim::SimRng;

/// The network's devices, ascending id.
fn devices(net: &Network) -> Vec<NodeId> {
    let nodes = net.topology().nodes().iter();
    let devices = nodes.filter(|n| matches!(n.kind, NodeKind::Device));
    devices.map(|n| n.id).collect()
}

/// The slab's live count equals the flits physically inside the
/// network; returns that count.
fn resident(net: &Network, when: &str) -> usize {
    let (live, _) = net.flit_slab_usage();
    let resident = net.count_resident_flits() as usize;
    assert_eq!(live, resident, "{when}: live slots vs resident flits");
    resident
}

fn pop_all(net: &mut Network) {
    let mail: Vec<NodeId> = net.nodes_with_deliveries().collect();
    for node in mail {
        while net.pop_delivered(node).is_some() {}
    }
}

/// Offer Bernoulli(`rate`) flits per device per cycle with uniform
/// destinations for `cycles` cycles, checking live against resident
/// flits before and after every tick. Returns the peak resident count.
fn offer(net: &mut Network, rate: f64, cycles: u64, seed: u64) -> usize {
    let mut offers = OpenLoop::new(devices(net), TrafficPattern::Uniform, rate);
    let mut rng = SimRng::seed_from(seed);
    let mut peak = 0;
    for _ in 0..cycles {
        offers.offer(net, &mut rng);
        peak = peak.max(resident(net, "after the enqueues"));
        net.tick();
        resident(net, "after the tick");
        pop_all(net);
    }
    peak
}

/// Load `net` for two phases, the second three times as long as the
/// first, then drain it: the slab never holds more slots than the peak
/// resident count, and a drained network holds no live slot.
fn check(mut net: Network, rate: f64, cycles: u64, what: &str) {
    let mut peak = offer(&mut net, rate, cycles, 1);
    assert!(peak > 0, "{what}: the load put flits in the network");
    peak = peak.max(offer(&mut net, rate, 3 * cycles, 2));
    let (_, slots) = net.flit_slab_usage();
    assert!(slots <= peak, "{what}: {slots} slots for a peak of {peak}");
    let verdict = drain(&mut net, 50_000, |net| {
        resident(net, "while draining");
        pop_all(net);
        Ok(())
    });
    assert!(
        matches!(verdict, Ok(Verdict::Drained(_))),
        "{what}: {verdict:?}"
    );
    assert_eq!(net.flit_slab_usage(), (0, slots), "{what}: drained slab");
}

#[test]
fn torus8_slab_follows_resident_flits() {
    let spec = GridParams::torus(8, 8)
        .with_stations(16)
        .with_devices(4)
        .with_seed(7)
        .generate()
        .expect("the 8x8 torus generates");
    let (topo, _) = spec.compile().expect("the 8x8 torus compiles");
    check(
        Network::new(topo, NetworkConfig::default()),
        0.06,
        150,
        "8x8 torus",
    );
}

#[test]
fn ai_processor_slab_follows_resident_flits() {
    let p = AiProcessor::build(AiConfig::default()).expect("builds");
    check(p.net, 0.05, 200, "AI processor");
}

#[test]
fn server_cpu_slab_follows_resident_flits() {
    let s = ServerCpu::build(ServerCpuConfig::default()).expect("builds");
    check(s.sys.network().clone(), 0.05, 200, "Server CPU");
}
