//! Trace record → serialize → replay across the full stack: the §5.2
//! methodology ("use AI-processor's instruction trace record as NoC's
//! input") as an end-to-end test.

use noc_core::{FlitClass, Network, NetworkConfig, NodeId, RingKind, TopologyBuilder};
use noc_sim::fuzz::TrafficPattern;
use noc_workloads::{Trace, TraceEvent, TrafficGen};

fn build(n: u16) -> (Network, Vec<NodeId>) {
    let mut b = TopologyBuilder::new();
    let die = b.add_chiplet("die");
    let r = b.add_ring(die, RingKind::Full, n).unwrap();
    let eps = (0..n)
        .map(|i| b.add_node(format!("n{i}"), r, i).unwrap())
        .collect();
    (
        Network::new(b.build().unwrap(), NetworkConfig::default()),
        eps,
    )
}

/// Record a synthetic run into a trace.
fn record(cycles: u64, n: usize, seed: u64) -> Trace {
    let mut gen = TrafficGen::new(n, 0.1, TrafficPattern::Uniform, 0.5, seed);
    let mut trace = Trace::new();
    for cycle in 0..cycles {
        for (src, dst, class, bytes) in gen.cycle_events() {
            trace.record(TraceEvent {
                cycle,
                src,
                dst,
                class,
                bytes,
            });
        }
    }
    trace
}

/// Run a trace through a network and return per-class delivery counts
/// plus total latency. Each event is offered from its recorded cycle on;
/// a refused (backpressured) event is offered again the next cycle.
fn run_trace(trace: &Trace, n: u16) -> (u64, u64) {
    let (mut net, eps) = build(n);
    let events = trace.events();
    let mut next = 0;
    let mut waiting: Vec<TraceEvent> = Vec::new();
    let mut cycle = 0u64;
    loop {
        while next < events.len() && events[next].cycle <= cycle {
            waiting.push(events[next]);
            next += 1;
        }
        waiting.retain(|e| {
            net.enqueue(eps[e.src], eps[e.dst], e.class, e.bytes, e.cycle)
                .is_err()
        });
        net.tick();
        for &ep in &eps {
            while net.pop_delivered(ep).is_some() {}
        }
        cycle += 1;
        if next == events.len() && waiting.is_empty() && net.in_flight() == 0 {
            break;
        }
        assert!(cycle < 500_000, "trace replay wedged");
    }
    (
        net.stats().delivered.get(),
        net.stats().total_latency[FlitClass::Data.index()].sum()
            + net.stats().total_latency[FlitClass::Request.index()].sum(),
    )
}

#[test]
fn trace_roundtrips_through_json_and_replays_identically() {
    let trace = record(2_000, 8, 42);
    assert!(trace.len() > 100, "trace has substance: {}", trace.len());

    // Serialize → deserialize → replay both; byte-identical behaviour.
    let json = trace.to_json().expect("serialize");
    let restored = Trace::from_json(&json).expect("parse");
    assert_eq!(trace, restored);

    let (delivered_a, latency_a) = run_trace(&trace, 8);
    let (delivered_b, latency_b) = run_trace(&restored, 8);
    assert_eq!(delivered_a, trace.len() as u64, "every event delivered");
    assert_eq!(
        (delivered_a, latency_a),
        (delivered_b, latency_b),
        "replay is deterministic across serialization"
    );
}

#[test]
fn replay_is_backpressure_tolerant() {
    // Replay a dense trace into a much smaller, slower network: events
    // get retried under backpressure but none are lost.
    let trace = record(500, 6, 7);
    let (delivered, _) = run_trace(&trace, 6);
    assert_eq!(delivered, trace.len() as u64);
}

#[test]
fn recorded_traffic_statistics_survive_replay() {
    let trace = record(3_000, 8, 99);
    let reads = trace
        .events()
        .iter()
        .filter(|e| e.class == FlitClass::Request)
        .count();
    let writes = trace
        .events()
        .iter()
        .filter(|e| e.class == FlitClass::Data)
        .count();
    // The generator's 50/50 mix is visible in the recorded trace.
    let frac = reads as f64 / (reads + writes) as f64;
    assert!((frac - 0.5).abs() < 0.1, "read fraction {frac}");
    assert_eq!(trace.total_bytes(), 64 * trace.len() as u64);
}
