//! The flight recorder's retention rules, on a live network.
//!
//! The recorder keeps no snapshots of its own: its window is the last
//! `snapshot_window` entries of the metrics registry created beside it.
//! Its trace events live in one fixed-capacity ring. These tests pin
//! what a reader sees through `Network::recorder()` and in bundles:
//! a zero window, a window longer than the series, re-enabling mid-run
//! (with the recorder, or metrics only, which drops flow accounting),
//! and a watchdog capture that lands inside a multi-cycle epoch. The
//! registry keeps only the window (fewer than `2·max(R, 1)` snapshots),
//! so the whole series is read as it is committed, through `since`.

mod common;

use common::SnapshotStream;
use noc_core::telemetry::{
    snapshots_jsonl, FlitEvent, HealthConfig, RecorderConfig, RingBufferSink,
};
use noc_core::{
    BridgeConfig, FlitClass, Network, NetworkConfig, NodeId, RingKind, TopologyBuilder,
};
use std::ops::Range;

/// Three rings in a chain joined by latency-4 bridges, two devices per
/// ring; every device sends to the device two rings away.
fn chain() -> (Network<RingBufferSink>, Vec<NodeId>) {
    let mut b = TopologyBuilder::new();
    let die = b.add_chiplet("die");
    let rings: Vec<_> = (0..3)
        .map(|_| b.add_ring(die, RingKind::Full, 8).expect("ring"))
        .collect();
    let mut devs = Vec::new();
    for (i, &r) in rings.iter().enumerate() {
        for s in [1u16, 3] {
            devs.push(b.add_node(format!("d{i}_{s}"), r, s).expect("device"));
        }
    }
    for w in rings.windows(2) {
        b.add_bridge(BridgeConfig::l2().with_latency(4), w[0], 6, w[1], 6)
            .expect("bridge");
    }
    let net = Network::with_sink(
        b.build().expect("topology"),
        NetworkConfig::default(),
        RingBufferSink::new(1 << 14),
    );
    (net, devs)
}

fn drive(net: &mut Network<RingBufferSink>, devs: &[NodeId], cycles: Range<u64>) {
    for c in cycles {
        let src = devs[c as usize % devs.len()];
        let dst = devs[(c as usize + 4) % devs.len()];
        let _ = net.enqueue(src, dst, FlitClass::Data, 64, c);
        net.tick();
        for &d in devs {
            while net.pop_delivered(d).is_some() {}
        }
    }
}

/// Records the recorder sees: what the shards stage, i.e. every sink
/// record except enqueues and ring-utilization samples, which the
/// network hands to the sink alone.
fn staged(event: &FlitEvent) -> bool {
    !matches!(
        event,
        FlitEvent::Enqueued { .. } | FlitEvent::RingUtil { .. }
    )
}

fn flit_records(net: &Network<RingBufferSink>) -> u64 {
    let c = net.sink().counts();
    c.total() - c.enqueued - c.ring_util
}

#[test]
fn a_zero_window_keeps_no_snapshots_but_counts_every_commit() {
    let (mut net, devs) = chain();
    net.enable_flight_recorder(
        16,
        HealthConfig::default(),
        RecorderConfig {
            snapshot_window: 0,
            event_window: 0,
        },
    );
    drive(&mut net, &devs, 0..400);
    let committed = net.metrics().expect("on").committed();
    assert_eq!(committed, 400 / 16);
    let rec = net.recorder().expect("on");
    assert_eq!(rec.snapshots().count(), 0);
    assert_eq!(rec.snapshots_seen(), committed);
    assert_eq!(rec.events().count(), 0);
    assert_eq!(rec.events_seen(), flit_records(&net));
    let bundle = net.dump_postmortem("zero window").expect("on");
    assert!(bundle.snapshots.is_empty() && bundle.events.is_empty());
    assert_eq!(bundle.meta.snapshots_seen, committed);
    assert_eq!(bundle.meta.events_seen, flit_records(&net));
}

#[test]
fn a_window_longer_than_the_series_shows_all_of_it_and_a_short_one_its_tail() {
    for window in [3usize, 1_000] {
        let (mut net, devs) = chain();
        net.enable_flight_recorder(
            16,
            HealthConfig::default(),
            RecorderConfig {
                snapshot_window: window,
                event_window: 64,
            },
        );
        drive(&mut net, &devs, 0..200);
        net.finish_metrics();
        let all = net.metrics().expect("on").snapshots();
        let tail = &all[all.len().saturating_sub(window)..];
        let rec = net.recorder().expect("on");
        let shown: Vec<_> = rec.snapshots().cloned().collect();
        assert_eq!(
            snapshots_jsonl(&shown),
            snapshots_jsonl(tail),
            "window {window}"
        );
        assert_eq!(rec.snapshots_seen(), net.metrics().expect("on").committed());
        assert_eq!(rec.snapshots_seen(), 200 / 16 + 1);
        // The event ring keeps the newest 64 of what the sink saw.
        let kept: Vec<_> = rec.events().copied().collect();
        let sunk: Vec<_> = net
            .sink()
            .records()
            .filter(|r| staged(&r.event))
            .copied()
            .collect();
        assert_eq!(kept.len(), 64);
        assert_eq!(kept[..], sunk[sunk.len() - 64..]);
        let bundle = net.dump_postmortem("window").expect("on");
        assert_eq!(snapshots_jsonl(&bundle.snapshots), snapshots_jsonl(tail));
    }
}

/// The chain traffic with the given snapshot window, the series read
/// through `since` after every tick: its JSONL, and the commit count.
fn streamed(window: usize) -> (String, u64) {
    let (mut net, devs) = chain();
    net.enable_flight_recorder(
        16,
        HealthConfig::default(),
        RecorderConfig {
            snapshot_window: window,
            ..RecorderConfig::default()
        },
    );
    let bound = window.max(1).saturating_mul(2);
    let mut snapshots = SnapshotStream::default();
    for c in 0..400u64 {
        drive(&mut net, &devs, c..c + 1);
        snapshots.read(&net);
        assert!(net.metrics().expect("on").len() < bound, "window {window}");
    }
    net.finish_metrics();
    snapshots.read(&net);
    (snapshots.jsonl, net.metrics().expect("on").committed())
}

#[test]
fn the_stream_survives_the_window() {
    let (bounded, committed) = streamed(4);
    let (full, all) = streamed(1_000);
    assert_eq!(committed, 400 / 16 + 1);
    assert_eq!(all, committed);
    assert_eq!(bounded.lines().count() as u64, committed);
    assert_eq!(bounded, full);
}

#[test]
fn re_enabling_mid_run_resets_snapshots_and_events_together() {
    let (mut net, devs) = chain();
    let cfg = RecorderConfig {
        snapshot_window: 4,
        event_window: 32,
    };
    net.enable_flight_recorder(16, HealthConfig::default(), cfg.clone());
    drive(&mut net, &devs, 0..160);
    assert!(net.recorder().expect("on").snapshots_seen() > 0);
    let before = flit_records(&net);

    net.enable_flight_recorder(16, HealthConfig::default(), cfg);
    let rec = net.recorder().expect("on");
    assert_eq!((rec.snapshots().count(), rec.snapshots_seen()), (0, 0));
    assert_eq!((rec.events().count(), rec.events_seen()), (0, 0));

    drive(&mut net, &devs, 0..64);
    let rec = net.recorder().expect("on");
    let seqs: Vec<u64> = rec.snapshots().map(|s| s.seq).collect();
    assert_eq!(seqs, vec![0, 1, 2, 3], "a fresh series starts at seq 0");
    assert_eq!(rec.events_seen(), flit_records(&net) - before);
    assert!(rec.events().all(|e| e.cycle > 160));
}

#[test]
fn a_metrics_only_observatory_after_the_recorder_drops_flow_accounting() {
    /// Flow rows and link cells in the last snapshot, and `flow_top(8)`.
    fn flow_evidence(net: &Network<RingBufferSink>) -> (usize, usize, usize) {
        let snaps = net.metrics().expect("on").snapshots();
        let last = snaps.last().expect("a snapshot");
        let flows = last.rings.iter().map(|r| r.flows.len()).sum();
        let links = last.rings.iter().map(|r| r.links.len()).sum();
        (flows, links, net.flow_top(8).len())
    }

    let (mut net, devs) = chain();
    net.enable_flight_recorder(16, HealthConfig::default(), RecorderConfig::default());
    drive(&mut net, &devs, 0..200);
    assert_ne!(
        flow_evidence(&net),
        (0, 0, 0),
        "the recorder accounts flows"
    );

    net.enable_metrics(16);
    drive(&mut net, &devs, 200..400);
    assert!(net.recorder().is_none());
    assert_eq!(flow_evidence(&net), (0, 0, 0));
    assert!(net.link_cells().iter().flatten().all(|&c| c == 0));

    let (mut fresh, devs) = chain();
    fresh.enable_metrics(16);
    drive(&mut fresh, &devs, 0..400);
    assert_eq!(flow_evidence(&fresh), (0, 0, 0));
}

/// One ring whose destination never drains: arrivals past the eject
/// cap deflect forever and the liveness watchdog latches. One lone
/// cycle first shifts the `k`-cycle epochs off the 30-cycle sampling
/// grid, so for `k = 4` every sample falls inside an epoch, not at its
/// last cycle.
fn wedged(k: u64) -> Network<RingBufferSink> {
    let mut b = TopologyBuilder::new();
    let die = b.add_chiplet("die0");
    let ring = b.add_ring(die, RingKind::Full, 8).expect("ring");
    let src = b.add_node("src", ring, 0).expect("src");
    let dst = b.add_node("dst", ring, 4).expect("dst");
    let mut net = Network::with_sink(
        b.build().expect("topology"),
        NetworkConfig {
            eject_queue_cap: 2,
            ..NetworkConfig::default()
        },
        RingBufferSink::new(1 << 12),
    );
    net.enable_flight_recorder(
        30,
        HealthConfig::default(),
        RecorderConfig {
            snapshot_window: 4,
            event_window: 48,
        },
    );
    // More flits than the eject queue holds, all up front so every `k`
    // simulates the same traffic; never pop a single one.
    for token in 0..8 {
        net.enqueue(src, dst, FlitClass::Request, 64, token)
            .expect("the inject queue holds eight");
    }
    net.tick();
    while net.now().raw() < 2_400 {
        net.tick_epoch(k).expect("one ring has no epoch bound");
    }
    net
}

#[test]
fn a_watchdog_capture_inside_a_four_cycle_epoch_matches_one_cycle_epochs() {
    let one = wedged(1);
    let four = wedged(4);
    let (a, b) = (one.bundles(), four.bundles());
    assert_eq!(a.len(), 1, "the wedge latches:\n{}", one.health_report());
    assert_eq!(b.len(), 1);
    let cycle = b[0].meta.cycle;
    assert_ne!(
        (cycle - 1) % 4,
        0,
        "capture at {cycle} must fall inside an epoch"
    );
    // The whole bundle, flow table included, matches byte for byte.
    assert_eq!(a[0].comparable_jsonl(), b[0].comparable_jsonl());
    // The window ends at the capture: nothing committed or traced after
    // the watchdog fired leaks into the bundle, though the epoch ran on.
    let last = b[0].snapshots.last().expect("window");
    assert_eq!(last.cycle, cycle);
    assert!(b[0].events.iter().all(|e| e.cycle < cycle));
    assert!(four.metrics().expect("on").last().expect("more").cycle > cycle);
}
