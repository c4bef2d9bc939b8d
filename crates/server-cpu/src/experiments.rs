//! Measurement runners behind the Server-CPU evaluation:
//! coherence-latency pings (Table 5) and DDR-latency-under-noise curves
//! (Figure 11), plus the Server-CPU NoC as a raw transport for them.

use crate::soc::{ServerCpuConfig, ServerCpuMap};
use noc_baseline::{MemHarness, RingAdapter};
use noc_chi::system::ChiTransport;
use noc_chi::{CoherentSystem, LineAddr, ReadKind};
use noc_core::{NodeId, SpecError};

/// Coherence state prepared at the first core before the measured read
/// (paper Table 5 rows).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PreparedState {
    /// Modified: owner wrote the lines.
    M,
    /// Exclusive: owner read fresh lines (sole copy).
    E,
    /// Shared: owner and a helper both read the lines.
    S,
}

/// Prepare `lines` cache lines in `state` at `owner` (with `helper`
/// for S), then measure `reader`'s mean read latency over them — the
/// Table 5 experiment, generic over the transport so the same protocol
/// runs on the multi-ring NoC and the baselines.
///
/// # Panics
///
/// Panics if any preparation or measured transaction fails to complete
/// within a generous cycle budget, and in debug builds if a coherence
/// invariant ([`CoherentSystem::check_coherent`]) breaks on `addrs`.
pub fn coherence_ping<T: ChiTransport>(
    sys: &mut CoherentSystem<T>,
    owner: NodeId,
    helper: NodeId,
    reader: NodeId,
    state: PreparedState,
    addrs: &[LineAddr],
) -> f64 {
    const BUDGET: u64 = 200_000;
    // Debug builds: the coherence invariants on `addrs` hold after
    // every transaction the ping completes.
    let run = |sys: &mut CoherentSystem<T>, t, what: &str| {
        let c = sys.run_until_complete(t, BUDGET).expect(what);
        if cfg!(debug_assertions) {
            if let Err(e) = sys.check_coherent(addrs.iter().copied()) {
                panic!("{what}: {e}");
            }
        }
        c
    };
    for &addr in addrs {
        match state {
            PreparedState::M => {
                let t = sys.write(owner, addr);
                run(sys, t, "prepare M");
            }
            PreparedState::E => {
                let t = sys.read(owner, addr, ReadKind::Shared);
                run(sys, t, "prepare E");
            }
            PreparedState::S => {
                let t = sys.read(owner, addr, ReadKind::Shared);
                run(sys, t, "prepare S/owner");
                let t = sys.read(helper, addr, ReadKind::Shared);
                run(sys, t, "prepare S/helper");
            }
        }
    }
    let mut total = 0u64;
    for &addr in addrs {
        let t = sys.read(reader, addr, ReadKind::Shared);
        total += run(sys, t, "measured read").latency();
    }
    total as f64 / addrs.len() as f64
}

/// Pick `count` line addresses (scanning upward from `start`) whose
/// home node is in `allowed` — the paper's Table 5 setup keeps the
/// tested data resident in one chiplet's L3, so intra-chiplet pings
/// must use locally-homed lines.
pub fn lines_homed_at<T: ChiTransport>(
    sys: &CoherentSystem<T>,
    allowed: &[NodeId],
    count: usize,
    start: u64,
) -> Vec<LineAddr> {
    let mut out = Vec::with_capacity(count);
    let mut a = start;
    while out.len() < count {
        let addr = LineAddr(a);
        if allowed.contains(&sys.home_of(addr)) {
            out.push(addr);
        }
        a += 1;
    }
    out
}

/// Build the Server-CPU topology as a raw [`RingAdapter`] transport,
/// with the map of its devices, for bandwidth/latency experiments that
/// the baselines can run identically.
///
/// # Errors
///
/// Returns the [`SpecError`] of a degenerate configuration's spec.
pub fn server_interconnect(
    cfg: &ServerCpuConfig,
) -> Result<(RingAdapter, ServerCpuMap), SpecError> {
    let (spec, map) = cfg.spec();
    let (net, _) = spec.build()?;
    Ok((RingAdapter::new(net), map))
}

/// One point of the Figure 11 curve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencyPoint {
    /// Background injection rate per noise core (requests/cycle).
    pub noise_rate: f64,
    /// Probe core's mean DDR round-trip latency (cycles).
    pub probe_latency: f64,
    /// Median round-trip latency (cycles).
    pub p50: u64,
    /// 95th-percentile round-trip latency (cycles).
    pub p95: u64,
    /// 99th-percentile round-trip latency (cycles).
    pub p99: u64,
    /// Worst observed round-trip latency (cycles).
    pub max: u64,
}

/// Sweep background-noise rates and record the probe core's DDR
/// latency — Figure 11. `factory` builds a fresh harness per point and
/// returns `(harness, probe_endpoint, noise_endpoints)`.
pub fn latency_vs_noise<T, F>(
    factory: F,
    rates: &[f64],
    read_frac: f64,
    warmup: u64,
    measure: u64,
) -> Vec<LatencyPoint>
where
    T: ChiTransport,
    F: Fn() -> (MemHarness<T>, NodeId, Vec<NodeId>),
{
    rates
        .iter()
        .map(|&rate| {
            let (mut h, probe, noise) = factory();
            let report = h.run_probe_with_noise(probe, &noise, rate, read_frac, warmup, measure);
            let p = &report.per_requester[0];
            LatencyPoint {
                noise_rate: rate,
                probe_latency: p.mean_latency(),
                p50: p.latency.percentile(0.50),
                p95: p.latency.percentile(0.95),
                p99: p.latency.percentile(0.99),
                max: p.latency.max(),
            }
        })
        .collect()
}

/// The load level past which the curve is considered "turned", against
/// an absolute latency threshold (for comparing systems with different
/// unloaded latencies on the paper's shared y-axis): the first rate
/// whose latency exceeds `latency_threshold`.
pub fn turning_point_abs(points: &[LatencyPoint], latency_threshold: f64) -> Option<f64> {
    points
        .iter()
        .find(|p| p.probe_latency > latency_threshold)
        .map(|p| p.noise_rate)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::soc::ServerCpu;

    fn small_cfg() -> ServerCpuConfig {
        ServerCpuConfig {
            clusters_per_ccd: 4,
            hn_per_ccd: 2,
            ddr_per_ccd: 2,
            ..Default::default()
        }
    }

    #[test]
    fn intra_beats_inter_chiplet_latency() {
        let cfg = small_cfg();
        let mut s = ServerCpu::build(cfg.clone()).unwrap();
        // Lines homed in CCD0, where owner/helper/intra-reader live.
        let local_hns: Vec<_> = s.map.home_nodes[..cfg.hn_per_ccd].to_vec();
        let addrs = lines_homed_at(&s.sys, &local_hns, 16, 0x100);
        let owner = s.map.clusters_of_ccd(0)[0];
        let helper = s.map.clusters_of_ccd(0)[2];
        let intra_reader = s.map.clusters_of_ccd(0)[1];
        let inter_reader = s.map.clusters_of_ccd(1)[0];
        let intra = coherence_ping(
            &mut s.sys,
            owner,
            helper,
            intra_reader,
            PreparedState::M,
            &addrs,
        );
        let mut s2 = ServerCpu::build(cfg).unwrap();
        let owner2 = s2.map.clusters_of_ccd(0)[0];
        let helper2 = s2.map.clusters_of_ccd(0)[2];
        let inter = coherence_ping(
            &mut s2.sys,
            owner2,
            helper2,
            inter_reader,
            PreparedState::M,
            &addrs,
        );
        assert!(
            inter > intra,
            "cross-die coherence ({inter}) must cost more than intra ({intra})"
        );
    }

    #[test]
    fn noise_sweep_raises_latency() {
        let cfg = small_cfg();
        let points = latency_vs_noise(
            || {
                let (ic, map) = server_interconnect(&cfg).unwrap();
                let mut noise = map.clusters.clone();
                let probe = noise.remove(0);
                (MemHarness::new(ic, map.ddrs), probe, noise)
            },
            &[0.0, 0.2, 0.8],
            0.5,
            500,
            4000,
        );
        assert_eq!(points.len(), 3);
        assert!(
            points[2].probe_latency > points[0].probe_latency,
            "heavy noise must raise latency: {points:?}"
        );
        let p = &points[2];
        assert!(
            p.p50 > 0 && p.p50 <= p.p95 && p.p95 <= p.p99 && p.p99 <= p.max,
            "percentiles must be populated and ordered: {p:?}"
        );
    }

    #[test]
    fn turning_point_detection() {
        let pt = |noise_rate, probe_latency| LatencyPoint {
            noise_rate,
            probe_latency,
            p50: probe_latency as u64,
            p95: probe_latency as u64,
            p99: probe_latency as u64,
            max: probe_latency as u64,
        };
        let pts = vec![pt(0.0, 100.0), pt(0.5, 110.0), pt(0.8, 260.0)];
        assert_eq!(turning_point_abs(&pts, 200.0), Some(0.8));
        assert_eq!(turning_point_abs(&pts, 500.0), None);
    }
}
