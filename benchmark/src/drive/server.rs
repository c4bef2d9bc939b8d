//! `server_chi_mix`: the paper's Server-CPU under a closed-loop
//! coherent request mix.

use super::{
    accounting_check, blank_report, conservation_check, core_counters, ratio, stream_seed, Slicer,
    STALL_CYCLES,
};
use crate::estimate::LatencyHist;
use crate::report::{ChildReport, Size};
use crate::trace::{self, Tracer};
use noc_chi::{CoherentSystem, Completion, LineAddr, ReadKind, TxnKind};
use noc_core::NodeId;
use noc_server_cpu::experiments::{coherence_ping, lines_homed_at, PreparedState};
use noc_server_cpu::{ServerCpu, ServerCpuConfig};
use noc_sim::SimRng;
use noc_workloads::Zipf;

/// Outstanding requests per CPU cluster (closed loop).
pub const OUTSTANDING_PER_CLUSTER: u32 = 4;
/// Share of requests that are `read(Shared)`; the rest are writes.
pub const READ_SHARE: f64 = 0.7;
/// Lines the Zipf address stream covers.
pub const LINES: usize = 65_536;
/// Zipf skew.
pub const THETA: f64 = 0.9;
/// Paper Table 5, M-state rows: intra- and inter-chiplet (cycles).
pub const PAPER_PING: (f64, f64) = (44.0, 65.0);

fn build() -> ServerCpu {
    ServerCpu::build(ServerCpuConfig::default()).expect("the default Server-CPU is valid")
}

/// Mean relative error of the intra- and inter-chiplet M-state ping
/// against Table 5, in percent. Runs on throw-away systems so the
/// benchmarked one starts cold.
fn paper_error_pct() -> f64 {
    let ping = |reader_ccd: usize, reader_idx: usize| {
        let mut s = build();
        let local: Vec<_> = s.map.home_nodes[..s.cfg.hn_per_ccd].to_vec();
        let addrs = lines_homed_at(&s.sys, &local, 64, 0x100);
        let owner = s.map.clusters_of_ccd(0)[0];
        let helper = s.map.clusters_of_ccd(0)[2];
        let reader = s.map.clusters_of_ccd(reader_ccd)[reader_idx];
        coherence_ping(&mut s.sys, owner, helper, reader, PreparedState::M, &addrs)
    };
    let (intra, inter) = (ping(0, 1), ping(1, 0));
    50.0 * ((intra - PAPER_PING.0).abs() / PAPER_PING.0
        + (inter - PAPER_PING.1).abs() / PAPER_PING.1)
}

/// The closed loop: every cluster keeps up to
/// [`OUTSTANDING_PER_CLUSTER`] requests in flight and issues its next
/// only when one completes.
struct Loop {
    sys: CoherentSystem,
    clusters: Vec<NodeId>,
    /// `NodeId` index → cluster index.
    cluster_of: Vec<usize>,
    outstanding: Vec<u32>,
    requests: Vec<(u32, bool)>,
    next: usize,
    completed: u64,
    last_progress: u64,
}

impl Loop {
    fn new(cpu: ServerCpu, requests: Vec<(u32, bool)>) -> Self {
        let clusters = cpu.map.clusters;
        let max_id = clusters.iter().map(|n| n.index()).max().unwrap_or(0);
        let mut cluster_of = vec![usize::MAX; max_id + 1];
        for (i, n) in clusters.iter().enumerate() {
            cluster_of[n.index()] = i;
        }
        Loop {
            sys: cpu.sys,
            outstanding: vec![0; clusters.len()],
            clusters,
            cluster_of,
            requests,
            next: 0,
            completed: 0,
            last_progress: 0,
        }
    }

    fn stalled(&self) -> bool {
        self.sys.now().raw() - self.last_progress >= STALL_CYCLES
    }

    /// One simulated cycle: top every cluster up, tick, collect.
    fn cycle<T: Tracer>(&mut self, tr: &mut T, mut on_done: impl FnMut(&Completion)) {
        tr.iter_open();
        let sys = &mut self.sys;
        for (c, &rn) in self.clusters.iter().enumerate() {
            while self.outstanding[c] < OUTSTANDING_PER_CLUSTER && self.next < self.requests.len() {
                let (line, write) = self.requests[self.next];
                self.next += 1;
                self.outstanding[c] += 1;
                let addr = LineAddr(u64::from(line));
                tr.call(trace::CHI_ISSUE, || {
                    if write {
                        sys.write(rn, addr)
                    } else {
                        sys.read(rn, addr, ReadKind::Shared)
                    }
                });
            }
        }
        tr.call(trace::CHI_TICK, || sys.tick());
        let done = tr.call(trace::CHI_TAKE, || sys.take_completions());
        for c in &done {
            self.outstanding[self.cluster_of[c.rn.index()]] -= 1;
            self.completed += 1;
            on_done(c);
        }
        if !done.is_empty() {
            self.last_progress = sys.now().raw();
        }
        tr.iter_close();
    }
}

/// Run the workload. `size` counts requests.
pub fn run<T: Tracer>(seed: u64, size: Size, tr: &mut T) -> ChildReport {
    let mut rep = blank_report("server_chi_mix", seed, size);
    tr.open(trace::SETUP);

    tr.open(trace::GENERATE);
    let total = size.warmup + size.measured;
    let zipf = Zipf::new(LINES, THETA);
    let mut rng = SimRng::seed_from(stream_seed(seed, 0x5e72_7665));
    let requests: Vec<(u32, bool)> = (0..total)
        .map(|_| (zipf.sample(&mut rng) as u32, !rng.gen_bool(READ_SHARE)))
        .collect();
    tr.close();

    tr.open(trace::SERVER_BUILD);
    let cpu = build();
    tr.close();
    tr.open(trace::SERVER_PING);
    rep.paper_error_pct = Some(paper_error_pct());
    tr.close();

    let mut lp = Loop::new(cpu, requests);
    tr.open(trace::WARMUP);
    while lp.completed < size.warmup && !lp.stalled() {
        lp.cycle(&mut trace::NoTrace::default(), |_| ());
    }
    tr.close();
    let stats0 = lp.sys.network().stats();
    let profile0 = lp.sys.network().tick_profile();
    let completed0 = lp.completed;
    tr.close(); // setup

    let mut all = LatencyHist::default();
    let mut reads = LatencyHist::default();
    let mut writes = LatencyHist::default();
    let mut slicer = Slicer::start(lp.sys.now().raw(), size.slices());
    let mut boundary = size.warmup + size.slice;
    while lp.completed < total {
        if lp.stalled() {
            // A last, partial slice, so the row covers what ran.
            slicer.cut(lp.sys.now().raw());
            rep.stalled = true;
            break;
        }
        lp.cycle(tr, |c| {
            let lat = c.latency();
            all.record(lat);
            match c.kind {
                TxnKind::Write => writes.record(lat),
                _ => reads.record(lat),
            }
        });
        while lp.completed >= boundary && boundary <= total {
            slicer.cut(lp.sys.now().raw());
            boundary += size.slice;
        }
    }
    let (sys, completed) = (lp.sys, lp.completed);

    let net = sys.network();
    let stats1 = net.stats();
    rep.setup_s = tr.last_secs(trace::SETUP);
    for (k, name) in [
        ("workloads.generate_s", trace::GENERATE),
        ("server-cpu.build_s", trace::SERVER_BUILD),
        ("server-cpu.coherence_ping_s", trace::SERVER_PING),
        ("bench.warmup_s", trace::WARMUP),
    ] {
        rep.setup_phases.insert(k.to_string(), tr.last_secs(name));
    }
    rep.cycles = slicer.total_cycles();
    rep.slice_ns = slicer.ns;
    rep.slice_cycles = slicer.cycles;
    rep.ops = completed - completed0;
    rep.attempted = total - completed0;
    rep.failed = rep.attempted - rep.ops;
    rep.latency = all.summary();
    rep.class_latency
        .insert("chi.read".to_string(), reads.summary());
    rep.class_latency
        .insert("chi.write".to_string(), writes.summary());
    rep.net_fingerprint = crate::report::hash_words(&net.fingerprint());
    // The protocol layer has no fingerprint of its own: extend the
    // network's with what the requesters observed.
    let mut words = net.fingerprint();
    words.extend([completed, sys.now().raw(), all.count(), all.quantile(1.0)]);
    rep.sim_fingerprint = crate::report::hash_words(&words);
    core_counters(
        &mut rep.counters,
        &stats0,
        &stats1,
        (profile0, net.tick_profile()),
    );
    rep.counters.insert(
        "chi.cycles_per_request".to_string(),
        ratio(rep.cycles as f64, rep.ops as f64),
    );
    rep.checks
        .push(conservation_check(&stats1, net.count_resident_flits()));
    rep.checks
        .push(accounting_check(rep.attempted, rep.ops, rep.failed));
    rep
}
