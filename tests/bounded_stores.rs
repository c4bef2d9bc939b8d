//! Bounded-store census: with every telemetry plane on, what each
//! store holds does not depend on how long the run is.
//!
//! The observed configuration of the benchmark's `torus4_txn_observed`
//! — the 4×4 torus under the benchmark's transaction mix, a tracing
//! sink, the flight recorder and both observatories every 32 cycles,
//! a span collector and wait-graph forensics — with small sink, event
//! and span capacities, so the stores fill quickly. The census is
//! taken after T cycles and again after 4T; every retained length must
//! read the same, and equal its configured bound:
//!
//! * the metrics registry holds the recorder's R snapshots;
//! * the recorder's events, the trace sink and the recent span trees
//!   each hold their capacity;
//! * the wait-graph tracker's samples and gauge rows each hold
//!   `max_samples`.
//!
//! One store is still sized by run length: the transaction registry
//! keeps every `TxnSnapshot`, one per 32 cycles.

use noc_core::spec::devices_by_name;
use noc_core::telemetry::{
    HealthConfig, RecorderConfig, RingBufferSink, SpanCollector, WaitGraphConfig,
};
use noc_core::{GridParams, Network, NetworkConfig};
use noc_sim::fuzz::TrafficPattern;
use noc_sim::SimRng;
use noc_txn::{TxnConfig, TxnFabric};
use noc_workloads::{TxnMix, TxnRequest, TxnWorkload};

const PERIOD: u64 = 32;
const T: u64 = 3_200;
const SINK: usize = 512;
const SPANS: usize = 64;

/// Every retained length, in one comparable row.
#[derive(Debug, PartialEq)]
struct Census {
    registry: usize,
    events: usize,
    sink: usize,
    spans: usize,
    wait_samples: usize,
    wait_stats: usize,
}

#[test]
fn every_store_but_the_txn_series_holds_its_bound_however_long_the_run() {
    let recorder = RecorderConfig {
        event_window: 256,
        ..RecorderConfig::default()
    };
    let forensics = WaitGraphConfig::default();
    let (topo, names) = GridParams::torus(4, 4)
        .with_stations(16)
        .with_devices(2)
        .with_seed(0x7261_6a65)
        .generate()
        .expect("the 4x4 torus generates")
        .compile()
        .expect("the 4x4 torus compiles");
    let devices = devices_by_name(&names);

    let mut net = Network::with_sink(topo, NetworkConfig::default(), RingBufferSink::new(SINK));
    net.enable_flight_recorder(PERIOD, HealthConfig::default(), recorder.clone());
    let mut fab = TxnFabric::with_spans(
        net,
        TxnConfig {
            reassembly_slots: 1,
            max_data_flits: 16,
            metrics_period: PERIOD,
            ..TxnConfig::default()
        },
        SpanCollector::new(SPANS, 8),
    );
    fab.enable_forensics(forensics);
    let mix = TxnMix {
        read_frac: 0.45,
        write_frac: 0.43,
        atomic_frac: 0.12,
        bcast_frac: 0.0,
        posted_frac: 0.5,
    };
    let workload = TxnWorkload::new(devices, mix, TrafficPattern::Uniform, 64, 16);
    let mut rng = SimRng::seed_from(7);
    let mut pending: Option<TxnRequest> = None;

    let census_at = |fab: &mut TxnFabric<RingBufferSink, SpanCollector>,
                     rng: &mut SimRng,
                     pending: &mut Option<TxnRequest>,
                     cycles: u64| {
        while fab.now().raw() < cycles {
            while fab.in_flight_txns() < 64 {
                let req = pending.take().unwrap_or_else(|| workload.next(rng));
                let TxnRequest::Point { src, dst, op } = req else {
                    panic!("the mix has no broadcasts");
                };
                if fab.submit(src, dst, op).expect("valid endpoints").is_none() {
                    *pending = Some(req);
                    break;
                }
            }
            fab.tick();
            fab.drain_completions();
        }
        let net = fab.network();
        let tracker = fab.wait_tracker().expect("forensics on");
        // The one store still sized by run length.
        assert_eq!(
            fab.txn_snapshots().len() as u64,
            cycles / PERIOD,
            "the transaction series keeps every snapshot"
        );
        Census {
            registry: net.metrics().expect("observatory on").len(),
            events: net.recorder().expect("recorder on").events().count(),
            sink: net.sink().len(),
            spans: fab.span_sink().recent().count(),
            wait_samples: tracker.samples().count(),
            wait_stats: tracker.stats().len(),
        }
    };

    let bound = Census {
        registry: recorder.snapshot_window,
        events: recorder.event_window,
        sink: SINK,
        spans: SPANS,
        wait_samples: forensics.max_samples,
        wait_stats: forensics.max_samples,
    };
    let short = census_at(&mut fab, &mut rng, &mut pending, T);
    assert_eq!(short, bound, "after {T} cycles");
    assert!(
        fab.span_sink().recorded() > SPANS as u64,
        "the span store wrapped"
    );
    let long = census_at(&mut fab, &mut rng, &mut pending, 4 * T);
    assert_eq!(long, bound, "after {} cycles", 4 * T);
    let registry = fab.network().metrics().expect("observatory on");
    assert_eq!(
        registry.committed(),
        4 * T / PERIOD,
        "every window was committed"
    );
}
