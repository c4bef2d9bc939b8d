//! `torus4_txn_mix` and `torus4_txn_observed`: packetised
//! transactions on the 4×4 generated torus, closed loop, with the
//! telemetry planes off or on — plus the one-plane-alone side runs.

use super::{
    accounting_check, blank_report, conservation_check, core_counters, ratio, stream_seed, Slicer,
    STALL_CYCLES,
};
use crate::estimate::LatencyHist;
use crate::report::{hash_words, ChildReport, SideReport, Size};
use crate::trace::{self, Tracer};
use noc_core::telemetry::{
    chrome_trace, prometheus_text, snapshots_jsonl, span_trees_jsonl, spans_chrome_trace,
    txn_snapshots_jsonl, HealthConfig, NullSink, NullSpanSink, RecorderConfig, RingBufferSink,
    SpanCollector, SpanSink, TraceRecord, TraceSink, TxnSpanTree, WaitGraphConfig,
};
use noc_core::{ExecMode, GridParams, Network, NetworkConfig, NodeId, TickMode, Topology};
use noc_sim::fuzz::TrafficPattern;
use noc_sim::SimRng;
use noc_txn::{TxnCompletion, TxnConfig, TxnFabric, TxnKind};
use noc_workloads::{TxnMix, TxnRequest, TxnWorkload};
use std::hint::black_box;
use std::time::Instant;

/// Fabric seed (device placement); fixed. The same torus the
/// repository's wedge and trajectory reports use.
const FABRIC_SEED: u64 = 0x7261_6a65;
/// Sampling period of every periodic plane (cycles).
pub const PERIOD: u64 = 32;

/// What shapes the transaction traffic.
#[derive(Debug, Clone, Copy)]
pub struct TxnParams {
    /// Operation mix.
    pub mix: TxnMix,
    /// Transactions kept in flight (closed loop).
    pub outstanding: usize,
    /// Largest packet, in data flits (bursts ≤ 64 B × this).
    pub max_data_flits: u16,
    /// `TxnConfig::reassembly_slots`.
    pub reassembly_slots: usize,
}

impl TxnParams {
    /// The benchmark's mix: reads (small request, large response)
    /// beside writes (large request, small ack; half posted) and
    /// atomics; bursts ≤ 1 KiB. No broadcasts, and not the 2 KiB bursts
    /// the issue asked for: both wedge this fabric at HEAD, the second
    /// on 2 traffic seeds in 30 (README, *Known exclusions*). This
    /// shape drained on 130 seeds × 64 000 transactions.
    pub const BENCH: TxnParams = TxnParams {
        mix: TxnMix {
            read_frac: 0.45,
            write_frac: 0.43,
            atomic_frac: 0.12,
            bcast_frac: 0.0,
            posted_frac: 0.5,
        },
        outstanding: 64,
        max_data_flits: 16,
        reassembly_slots: 1,
    };
}

/// Which telemetry planes are on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Planes {
    /// `RingBufferSink::new(1 << 16)` receiving every flit event.
    pub trace_sink: bool,
    /// Network observatory + health watchdogs and the transaction
    /// observatory, every [`PERIOD`] cycles.
    pub observatory: bool,
    /// Flight recorder with flow tables (implies the network
    /// observatory).
    pub recorder: bool,
    /// `SpanCollector::new(4096, 8)` receiving every span tree.
    pub spans: bool,
    /// Wait-graph forensics (implies the transaction observatory).
    pub forensics: bool,
}

impl Planes {
    /// Every plane on: `torus4_txn_observed`.
    pub const ALL: Planes = Planes {
        trace_sink: true,
        observatory: true,
        recorder: true,
        spans: true,
        forensics: true,
    };

    /// The side-run variants: nothing, then each plane alone.
    pub const VARIANTS: [&'static str; 6] = [
        "none",
        "trace_sink",
        "observatory",
        "recorder",
        "spans",
        "forensics",
    ];

    /// The planes a side-run variant switches on.
    pub fn of_variant(variant: &str) -> Option<Planes> {
        let mut p = Planes::default();
        match variant {
            "none" => {}
            "trace_sink" => p.trace_sink = true,
            "observatory" => p.observatory = true,
            "recorder" => p.recorder = true,
            "spans" => p.spans = true,
            "forensics" => p.forensics = true,
            _ => return None,
        }
        Some(p)
    }
}

/// What the export step needs from a trace sink.
trait SinkProbe: TraceSink {
    fn retained(&self) -> Vec<TraceRecord>;
    fn seen(&self) -> u64;
}

impl SinkProbe for NullSink {
    fn retained(&self) -> Vec<TraceRecord> {
        Vec::new()
    }
    fn seen(&self) -> u64 {
        0
    }
}

impl SinkProbe for RingBufferSink {
    fn retained(&self) -> Vec<TraceRecord> {
        self.to_vec()
    }
    fn seen(&self) -> u64 {
        self.len() as u64 + self.dropped()
    }
}

/// What the export step needs from a span sink.
trait SpanProbe: SpanSink {
    fn retained(&self) -> Vec<TxnSpanTree>;
    fn seen(&self) -> u64;
}

impl SpanProbe for NullSpanSink {
    fn retained(&self) -> Vec<TxnSpanTree> {
        Vec::new()
    }
    fn seen(&self) -> u64 {
        0
    }
}

impl SpanProbe for SpanCollector {
    fn retained(&self) -> Vec<TxnSpanTree> {
        self.recent().cloned().collect()
    }
    fn seen(&self) -> u64 {
        self.recorded()
    }
}

fn torus<T: Tracer>(tr: &mut T) -> (Topology, Vec<NodeId>) {
    tr.open(trace::TOPOGEN);
    let spec = GridParams::torus(4, 4)
        .with_stations(16)
        .with_devices(2)
        .with_seed(FABRIC_SEED)
        .generate()
        .expect("the 4x4 torus generates");
    tr.close();
    tr.open(trace::COMPILE);
    let (topo, names) = spec.compile().expect("the 4x4 torus compiles");
    tr.close();
    let mut named: Vec<_> = names.into_iter().collect();
    named.sort();
    (topo, named.into_iter().map(|(_, id)| id).collect())
}

fn network<S: TraceSink>(topo: Topology, sink: S, planes: Planes) -> Network<S> {
    let mut net = Network::with_exec(
        topo,
        NetworkConfig::default(),
        TickMode::Fast,
        ExecMode::Sequential,
        sink,
    );
    if planes.recorder {
        net.enable_flight_recorder(PERIOD, HealthConfig::default(), RecorderConfig::default());
    } else if planes.observatory {
        net.enable_metrics(PERIOD);
    }
    net
}

fn fabric<S: TraceSink, P: SpanSink>(
    net: Network<S>,
    spans: P,
    planes: Planes,
    params: TxnParams,
) -> TxnFabric<S, P> {
    let mut fab = TxnFabric::with_spans(
        net,
        TxnConfig {
            reassembly_slots: params.reassembly_slots,
            max_data_flits: params.max_data_flits,
            metrics_period: if planes.observatory || planes.forensics {
                PERIOD
            } else {
                0
            },
            ..TxnConfig::default()
        },
        spans,
    );
    if planes.forensics {
        fab.enable_forensics(WaitGraphConfig::default());
    }
    fab
}

fn generate(seed: u64, devices: &[NodeId], params: TxnParams, count: u64) -> Vec<TxnRequest> {
    let workload = TxnWorkload::new(
        devices.to_vec(),
        params.mix,
        TrafficPattern::Uniform,
        64,
        u32::from(params.max_data_flits),
    );
    let mut rng = SimRng::seed_from(stream_seed(seed, 0x7478_6e34));
    (0..count).map(|_| workload.next(&mut rng)).collect()
}

/// The closed loop over the fabric's three public calls.
struct Loop<S: TraceSink, P: SpanSink> {
    fab: TxnFabric<S, P>,
    requests: Vec<TxnRequest>,
    outstanding: usize,
    next: usize,
    completed: u64,
    last_progress: u64,
    window_occupancy_sum: u64,
}

impl<S: TraceSink, P: SpanSink> Loop<S, P> {
    fn stalled(&self) -> bool {
        self.fab.now().raw() - self.last_progress >= STALL_CYCLES
    }

    /// One simulated cycle: keep `outstanding` transactions in flight
    /// (a backpressured submit is retried next cycle), tick, collect.
    fn cycle<T: Tracer>(&mut self, tr: &mut T, mut on_done: impl FnMut(&TxnCompletion)) {
        tr.iter_open();
        let fab = &mut self.fab;
        while self.next < self.requests.len() && fab.in_flight_txns() < self.outstanding {
            let accepted = tr.call(trace::TXN_SUBMIT, || match &self.requests[self.next] {
                TxnRequest::Point { src, dst, op } => fab.submit(*src, *dst, *op),
                TxnRequest::Broadcast {
                    src,
                    targets,
                    bytes,
                } => fab.submit_broadcast(*src, targets, *bytes),
            });
            match accepted.expect("generated requests name valid endpoints") {
                Some(_) => self.next += 1,
                None => break,
            }
        }
        tr.call(trace::TXN_TICK, || fab.tick());
        let done = tr.call(trace::TXN_DRAIN, || fab.drain_completions());
        for c in &done {
            self.completed += 1;
            on_done(c);
        }
        if !done.is_empty() {
            self.last_progress = fab.now().raw();
        }
        self.window_occupancy_sum += fab.window_occupancy();
        tr.iter_close();
    }
}

fn class_of(kind: TxnKind) -> &'static str {
    match kind {
        TxnKind::Read => "txn.read",
        TxnKind::WritePosted => "txn.write_posted",
        TxnKind::WriteNonPosted => "txn.write_np",
        TxnKind::Atomic => "txn.atomic",
        TxnKind::Broadcast => "txn.broadcast",
    }
}

/// One transaction run: what to call it, the traffic seed, the counts
/// (in transactions), the planes and the traffic shape.
#[derive(Debug, Clone, Copy)]
pub struct Job<'a> {
    /// Workload (or variant) name for the report.
    pub name: &'a str,
    /// Traffic seed.
    pub seed: u64,
    /// Counts, in transactions.
    pub size: Size,
    /// `Planes::default()` for `torus4_txn_mix`, [`Planes::ALL`] for
    /// `torus4_txn_observed`.
    pub planes: Planes,
    /// Traffic shape.
    pub params: TxnParams,
}

/// Run the job. The sink and span types are chosen at compile time, as
/// the program's users choose them.
pub fn run<T: Tracer>(job: Job, tr: &mut T) -> ChildReport {
    tr.open(trace::SETUP);
    let (topo, devices) = torus(tr);
    let sink = || RingBufferSink::new(1 << 16);
    let spans = || SpanCollector::new(4096, 8);
    match (job.planes.trace_sink, job.planes.spans) {
        (false, false) => go(job, tr, topo, devices, NullSink, NullSpanSink),
        (true, false) => go(job, tr, topo, devices, sink(), NullSpanSink),
        (false, true) => go(job, tr, topo, devices, NullSink, spans()),
        (true, true) => go(job, tr, topo, devices, sink(), spans()),
    }
}

fn go<T: Tracer, S: SinkProbe, P: SpanProbe>(
    job: Job,
    tr: &mut T,
    topo: Topology,
    devices: Vec<NodeId>,
    sink: S,
    spans: P,
) -> ChildReport {
    let Job {
        name,
        seed,
        size,
        planes,
        params,
    } = job;
    let mut rep = blank_report(name, seed, size);
    tr.open(trace::NET_BUILD);
    let net = network(topo, sink, planes);
    tr.close();
    tr.open(trace::TXN_NEW);
    let fab = fabric(net, spans, planes, params);
    tr.close();
    tr.open(trace::GENERATE);
    let total = size.warmup + size.measured;
    let requests = generate(seed, &devices, params, total);
    tr.close();

    let mut lp = Loop {
        fab,
        requests,
        outstanding: params.outstanding,
        next: 0,
        completed: 0,
        last_progress: 0,
        window_occupancy_sum: 0,
    };
    tr.open(trace::WARMUP);
    while lp.completed < size.warmup && !lp.stalled() {
        lp.cycle(&mut trace::NoTrace::default(), |_| ());
    }
    tr.close();
    let stats0 = lp.fab.network().stats();
    let profile0 = lp.fab.network().tick_profile();
    let counters0 = *lp.fab.counters();
    let completed0 = lp.completed;
    lp.window_occupancy_sum = 0;
    tr.close(); // setup

    let mut all = LatencyHist::default();
    let mut classes: Vec<(&'static str, LatencyHist)> = Vec::new();
    let mut slicer = Slicer::start(lp.fab.now().raw(), size.slices());
    let mut boundary = size.warmup + size.slice;
    while lp.completed < total {
        if lp.stalled() {
            // A last, partial slice, so the row covers what ran.
            slicer.cut(lp.fab.now().raw());
            rep.stalled = true;
            break;
        }
        lp.cycle(tr, |c| {
            let lat = c.latency();
            all.record(lat);
            let class = class_of(c.kind);
            match classes.iter_mut().find(|(k, _)| *k == class) {
                Some((_, h)) => h.record(lat),
                None => {
                    let mut h = LatencyHist::default();
                    h.record(lat);
                    classes.push((class, h));
                }
            }
        });
        while lp.completed >= boundary && boundary <= total {
            slicer.cut(lp.fab.now().raw());
            boundary += size.slice;
        }
    }

    let fab = &lp.fab;
    let net = fab.network();
    let stats1 = net.stats();
    let counters1 = *fab.counters();
    rep.setup_s = tr.last_secs(trace::SETUP);
    for (k, span) in [
        ("core.topogen_generate_s", trace::TOPOGEN),
        ("core.spec_compile_s", trace::COMPILE),
        ("core.network_build_s", trace::NET_BUILD),
        ("txn.new_s", trace::TXN_NEW),
        ("workloads.generate_s", trace::GENERATE),
        ("bench.warmup_s", trace::WARMUP),
    ] {
        rep.setup_phases.insert(k.to_string(), tr.last_secs(span));
    }
    rep.cycles = slicer.total_cycles();
    rep.slice_ns = slicer.ns;
    rep.slice_cycles = slicer.cycles;
    rep.ops = lp.completed - completed0;
    rep.attempted = total - completed0;
    rep.failed = rep.attempted - rep.ops;
    rep.latency = all.summary();
    for (k, h) in &classes {
        rep.class_latency.insert(k.to_string(), h.summary());
    }
    rep.sim_fingerprint = hash_words(&fab.fingerprint());
    rep.net_fingerprint = hash_words(&net.fingerprint());
    core_counters(
        &mut rep.counters,
        &stats0,
        &stats1,
        (profile0, net.tick_profile()),
    );
    let d = |f: fn(&noc_txn::TxnCounters) -> u64| (f(&counters1) - f(&counters0)) as f64;
    let submitted = d(|c| c.submitted);
    let backpressured = d(|c| c.backpressured);
    for (k, v) in [
        (
            "txn.backpressured_per_submit",
            ratio(backpressured, submitted + backpressured),
        ),
        (
            "txn.reassembly_deferred_per_packet",
            ratio(d(|c| c.reassembly_deferred), d(|c| c.packets_reassembled)),
        ),
        (
            "txn.flits_per_txn",
            ratio(d(|c| c.flits_sent), rep.ops as f64),
        ),
        (
            "txn.window_occupancy_mean",
            ratio(lp.window_occupancy_sum as f64, rep.cycles as f64),
        ),
    ] {
        rep.counters.insert(k.to_string(), v);
    }

    if planes != Planes::default() {
        // Render every exporter once, after the timed section, on what
        // a consumer would export at the end of a run: the last scrape,
        // the flight recorder's retained snapshot window (all 5 000+
        // snapshots of a run render to 240 MB), the transaction series,
        // the retained flit events and span trees, the tail exemplars.
        let t = Instant::now();
        let snaps = net.metrics().map_or(&[][..], |m| m.snapshots());
        let window: Vec<_> = net
            .recorder()
            .map(|r| r.snapshots().cloned().collect())
            .unwrap_or_default();
        let records = net.sink().retained();
        let trees = fab.span_sink().retained();
        let mut bytes = snaps.last().map_or(0, |s| prometheus_text(s).len());
        bytes += snapshots_jsonl(&window).len();
        bytes += txn_snapshots_jsonl(fab.txn_snapshots()).len();
        bytes += chrome_trace(&records).len();
        bytes += span_trees_jsonl(&trees).len();
        bytes += spans_chrome_trace(fab.tail_exemplars()).len();
        black_box(bytes);
        let mut put = |k: &str, v: f64| {
            rep.counters.insert(k.to_string(), v);
        };
        put("telemetry.export_s", t.elapsed().as_secs_f64());
        put("telemetry.export_bytes", bytes as f64);
        put("telemetry.snapshots", snaps.len() as f64);
        put("telemetry.span_trees", fab.span_sink().seen() as f64);
        put("telemetry.trace_events", net.sink().seen() as f64);
        put(
            "telemetry.wedge_latched",
            u64::from(fab.wedge_latched()) as f64,
        );
    }
    rep.checks
        .push(conservation_check(&stats1, net.count_resident_flits()));
    rep.checks
        .push(accounting_check(rep.attempted, rep.ops, rep.failed));
    rep
}

/// One telemetry side run: the benchmark's mix with `variant`'s planes
/// on, `txns` transactions after `warmup`, cut into `slices` slices.
pub fn side_run(variant: &str, seed: u64, warmup: u64, txns: u64, slices: u64) -> SideReport {
    let planes = Planes::of_variant(variant)
        .unwrap_or_else(|| panic!("unknown telemetry variant {variant}"));
    let size = Size {
        warmup,
        measured: txns,
        slice: txns / slices,
    };
    let job = Job {
        name: variant,
        seed,
        size,
        planes,
        params: TxnParams::BENCH,
    };
    let rep = run(job, &mut trace::NoTrace::default());
    SideReport {
        variant: variant.to_string(),
        slice_ns: rep.slice_ns,
        cycles: rep.cycles,
        fingerprint: rep.net_fingerprint,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The stall guard, against the mix that wedges this fabric at
    /// HEAD: `TxnMix::default()` (8 % broadcasts), bursts ≤ 2 KiB, 64
    /// outstanding, `reassembly_slots = 1`. The run must end with a report whose
    /// failures add up, not hang.
    #[test]
    fn stall_guard_ends_a_wedged_run_with_a_row() {
        let size = Size {
            warmup: 0,
            measured: 60_000,
            slice: 600,
        };
        let params = TxnParams {
            mix: TxnMix::default(),
            max_data_flits: 32,
            ..TxnParams::BENCH
        };
        let job = Job {
            name: "wedge",
            seed: 1,
            size,
            planes: Planes::default(),
            params,
        };
        let rep = run(job, &mut trace::NoTrace::default());
        assert!(
            rep.stalled,
            "the broadcast mix drained: pick it up in torus4_txn_mix"
        );
        assert!(rep.failed > 0 && rep.failed == rep.attempted - rep.ops);
        assert!((rep.slice_ns.len() as u64) < size.slices());
        assert!(
            rep.cycles >= STALL_CYCLES,
            "the row covers the idle cycles too"
        );
        assert!(rep.checks.iter().all(|c| c.ok), "{:?}", rep.checks);
    }

    #[test]
    fn observing_does_not_perturb() {
        let size = Size {
            warmup: 200,
            measured: 2_000,
            slice: 40,
        };
        let mut tr = trace::NoTrace::default();
        let job = Job {
            name: "plain",
            seed: 3,
            size,
            planes: Planes::default(),
            params: TxnParams::BENCH,
        };
        let plain = run(job, &mut tr);
        let seen = run(
            Job {
                name: "seen",
                planes: Planes::ALL,
                ..job
            },
            &mut tr,
        );
        assert_eq!(plain.sim_fingerprint, seen.sim_fingerprint);
        assert_eq!(plain.net_fingerprint, seen.net_fingerprint);
        assert_eq!(plain.latency, seen.latency);
        assert_eq!(plain.cycles, seen.cycles);
        assert_eq!(plain.failed, 0);
        assert!(seen.counters["telemetry.snapshots"] > 0.0);
        assert!(seen.counters["telemetry.span_trees"] >= 2_000.0);
        assert!(seen.counters["telemetry.trace_events"] > 0.0);
    }
}
