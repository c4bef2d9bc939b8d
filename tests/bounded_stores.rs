//! Bounded-store census: what each telemetry store holds does not
//! depend on how long the run is.
//!
//! Two configurations of the benchmark's 4×4 torus under its
//! transaction mix, both with the network and transaction
//! observatories sampling every 32 cycles:
//!
//! * every plane on, as in `torus4_txn_observed` — a tracing sink, the
//!   flight recorder, a span collector and stall forensics — with
//!   small sink, event and span capacities, so the stores fill quickly;
//! * `enable_metrics` alone, as the benchmark's `observatory` side
//!   plane: no recorder, so the snapshot registry keeps the default
//!   window.
//!
//! The census is taken after T cycles and again after 4T; every
//! retained length must read the same, and equal its configured bound:
//!
//! * the metrics registry holds the recorder's R snapshots, or
//!   `SERIES_WINDOW` without a recorder;
//! * the transaction series holds `SERIES_WINDOW` snapshots;
//! * the recorder's events, the trace sink and the recent span trees
//!   each hold their capacity;
//! * stall forensics holds at most one wedge report and one wedge
//!   bundle.
//!
//! Both series still count every window they committed.

mod common;

use noc_core::telemetry::{
    HealthConfig, NullSink, NullSpanSink, RecorderConfig, RingBufferSink, SpanCollector, SpanSink,
    TraceSink, WaitGraphConfig, SERIES_WINDOW,
};
use noc_core::{Network, NetworkConfig, NodeId};
use noc_sim::fuzz::TrafficPattern;
use noc_sim::SimRng;
use noc_txn::drive::ClosedLoop;
use noc_txn::{TxnConfig, TxnFabric};
use noc_workloads::{TxnMix, TxnWorkload};

const PERIOD: u64 = 32;
const T: u64 = 3_200;
const SINK: usize = 512;
const SPANS: usize = 64;

/// Every retained length, in one comparable row (`None` where the
/// configuration has no such store).
#[derive(Debug, PartialEq)]
struct Census {
    registry: usize,
    txn_series: usize,
    events: Option<usize>,
    sink: Option<usize>,
    spans: Option<usize>,
}

fn txn_config() -> TxnConfig {
    TxnConfig {
        reassembly_slots: 1,
        max_data_flits: 16,
        metrics_period: PERIOD,
        ..TxnConfig::default()
    }
}

/// Drive `fab` with the benchmark's mix, 64 transactions in flight,
/// taking a census after T and after 4T cycles; both must equal
/// `bound`, and both series must have committed every window.
fn census_holds<S: TraceSink, P: SpanSink>(
    fab: &mut TxnFabric<S, P>,
    devices: Vec<NodeId>,
    census: impl Fn(&TxnFabric<S, P>) -> Census,
    bound: &Census,
) {
    let mix = TxnMix {
        read_frac: 0.45,
        write_frac: 0.43,
        atomic_frac: 0.12,
        bcast_frac: 0.0,
        posted_frac: 0.5,
    };
    let workload = TxnWorkload::new(devices, mix, TrafficPattern::Uniform, 64, 16);
    let mut rng = SimRng::seed_from(7);
    let mut requests = std::iter::repeat_with(|| workload.next(&mut rng));
    let mut lp = ClosedLoop::new(64, usize::MAX);
    for cycles in [T, 4 * T] {
        while fab.now().raw() < cycles {
            lp.cycle(fab, &mut requests, |_| {})
                .expect("valid endpoints");
        }
        assert_eq!(&census(fab), bound, "after {cycles} cycles");
        // A latched wedge keeps one report and the one bundle captured
        // with it; nothing more accrues however long the run.
        assert_eq!(
            fab.wedge_bundles().len(),
            usize::from(fab.wedge_latched()),
            "after {cycles} cycles: at most one wedge report, with its one bundle"
        );
        let registry = fab.network().metrics().expect("observatory on");
        let txn = fab.registry().expect("txn observatory on");
        assert_eq!(
            (registry.committed(), txn.committed()),
            (cycles / PERIOD, cycles / PERIOD),
            "every window was committed"
        );
    }
}

#[test]
fn every_store_holds_its_bound_however_long_the_run() {
    let recorder = RecorderConfig {
        event_window: 256,
        ..RecorderConfig::default()
    };
    let (topo, devices) = common::torus4();
    let mut net = Network::with_sink(topo, NetworkConfig::default(), RingBufferSink::new(SINK));
    net.enable_flight_recorder(PERIOD, HealthConfig::default(), recorder.clone());
    let mut fab = TxnFabric::with_spans(net, txn_config(), SpanCollector::new(SPANS, 8));
    fab.enable_forensics(WaitGraphConfig);

    let bound = Census {
        registry: recorder.snapshot_window,
        txn_series: SERIES_WINDOW,
        events: Some(recorder.event_window),
        sink: Some(SINK),
        spans: Some(SPANS),
    };
    let census = |fab: &TxnFabric<RingBufferSink, SpanCollector>| {
        let net = fab.network();
        Census {
            registry: net.metrics().expect("observatory on").len(),
            txn_series: fab.txn_snapshots().len(),
            events: Some(net.recorder().expect("recorder on").events().count()),
            sink: Some(net.sink().len()),
            spans: Some(fab.span_sink().recent().count()),
        }
    };
    census_holds(&mut fab, devices, census, &bound);
    assert!(
        fab.span_sink().recorded() > SPANS as u64,
        "the span store wrapped"
    );
}

#[test]
fn the_metrics_plane_alone_keeps_the_default_window() {
    let (topo, devices) = common::torus4();
    let mut net = Network::new(topo, NetworkConfig::default());
    net.enable_metrics(PERIOD);
    assert!(net.recorder().is_none());
    let mut fab = TxnFabric::new(net, txn_config());

    let bound = Census {
        registry: SERIES_WINDOW,
        txn_series: SERIES_WINDOW,
        events: None,
        sink: None,
        spans: None,
    };
    let census = |fab: &TxnFabric<NullSink, NullSpanSink>| Census {
        registry: fab.network().metrics().expect("observatory on").len(),
        txn_series: fab.txn_snapshots().len(),
        events: None,
        sink: None,
        spans: None,
    };
    census_holds(&mut fab, devices, census, &bound);
}
