//! `noc-bench scaling`: the epoch-length × thread-count sweep.
//!
//! One run produces `BENCH_PR8.json`: engine throughput on a 16-ring
//! chain (256 stations, L2 bridges) across
//! `ExecMode::{Sequential, Parallel(2/4/8)}` × K ∈ {1, 2, 4, 8}. The
//! K = 1 rows are the one-cycle epoch — what every
//! [`noc_core::Network::tick`] call runs, one pool handoff per cycle
//! under `Parallel` — and 8 is the fabric's bridge-latency epoch bound
//! ([`noc_core::Network::max_epoch`]). Traffic and drains are applied
//! only at cycles aligned to the largest K, so every point simulates
//! the identical network and the sweep doubles as a 16-way fingerprint
//! cross-check.
//!
//! The report header records the **host shape** — logical core count
//! and CPU model — because the headline gate (`Parallel(4)` at its
//! best K must beat `Sequential` at *its* best K by ≥ 1.5×) is only
//! meaningful with ≥ 4 hardware cores. On smaller hosts the gate
//! auto-skips and records the reason in the artifact instead of
//! producing a vacuous pass/fail. The fingerprint cross-check never
//! skips: a host too small to demonstrate speedup can still prove
//! determinism.
//!
//! `NOC_EXEC_THREADS` (also honored by the CI step) caps the swept
//! thread counts and is recorded in the report when set.

use noc_core::telemetry::NullSink;
use noc_core::{
    BridgeConfig, ExecMode, FlitClass, Network, NetworkConfig, NodeId, RingKind, TickMode,
    Topology, TopologyBuilder,
};
use serde::Serialize;
use std::time::Instant;

/// splitmix64, the workspace's deterministic stream of choice.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`, from the top 53 bits.
    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }

    fn below(&mut self, bound: u64) -> u64 {
        self.next() % bound
    }
}

/// The epoch lengths every point is swept over; the last entry is the
/// 16-ring chain's bridge-latency bound (L2 latency = 8 cycles).
pub const EPOCHS: [u64; 4] = [1, 2, 4, 8];

/// The shape of the machine the numbers were taken on.
#[derive(Debug, Clone, Serialize)]
pub struct HostInfo {
    /// Logical cores visible to the process
    /// (`std::thread::available_parallelism`).
    pub logical_cores: usize,
    /// CPU model string from `/proc/cpuinfo`, or `"unknown"` where
    /// unavailable.
    pub cpu_model: String,
}

/// Probe the host shape. Failures degrade to `1` core / `"unknown"`
/// rather than erroring: the sweep itself runs anywhere.
pub fn host_info() -> HostInfo {
    let logical_cores = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    HostInfo {
        logical_cores,
        cpu_model,
    }
}

/// One measured cell of the exec × K grid.
#[derive(Debug, Clone, Serialize)]
pub struct ScalingPoint {
    /// Execution mode label (`sequential`, `parallel2`, …).
    pub exec: String,
    /// Worker threads behind the label (0 = sequential).
    pub threads: usize,
    /// Epoch length (cycles per handoff).
    pub k: u64,
    /// Engine throughput in simulated cycles per wall-clock second
    /// (best of the timing repeats).
    pub ticks_per_sec: f64,
    /// This point's throughput over the sequential K=1 point's (the
    /// calling thread running one-cycle epochs, i.e. plain `tick()`).
    pub speedup_vs_seq_k1: f64,
    /// Whether this point's `NetStats` fingerprint matched the
    /// sequential K=1 run.
    pub fingerprint_ok: bool,
}

/// The headline gate's outcome — always present in the artifact, even
/// (especially) when it could not run.
#[derive(Debug, Clone, Serialize)]
pub struct SpeedupGate {
    /// Required `Parallel(4)` / `Sequential` speedup.
    pub required: f64,
    /// Best measured speedup (best-K parallel4 over best-K
    /// sequential), when both sides were swept.
    pub measured: Option<f64>,
    /// `Some(true/false)` when the gate ran; `None` when it skipped.
    pub passed: Option<bool>,
    /// Why the gate skipped, when it did.
    pub skip_reason: Option<String>,
}

/// The whole `BENCH_PR8.json` document.
#[derive(Debug, Clone, Serialize)]
pub struct ScalingReport {
    /// Report schema tag.
    pub bench: String,
    /// Whether this was a `--quick` run.
    pub quick: bool,
    /// Host shape the numbers were taken on.
    pub host: HostInfo,
    /// `NOC_EXEC_THREADS` cap, when the environment set one.
    pub exec_threads_env: Option<usize>,
    /// Fabric label (`chain-16ring`).
    pub fabric: String,
    /// Rings in the fabric.
    pub rings: usize,
    /// Total cross stations.
    pub stations: u64,
    /// Injection cycles per timed run.
    pub cycles: u64,
    /// The measured exec × K grid.
    pub points: Vec<ScalingPoint>,
    /// The Parallel(4) ≥ 1.5× Sequential gate.
    pub gate: SpeedupGate,
}

/// The scaling fabric: sixteen 16-station full rings chained by L2
/// bridges (latency 8 ⇒ `max_epoch() == 8`), four rings per chiplet,
/// four devices per ring.
pub fn sixteen_ring_chain() -> (Topology, Vec<NodeId>) {
    let mut b = TopologyBuilder::new();
    let dies: Vec<_> = (0..4).map(|d| b.add_chiplet(format!("die{d}"))).collect();
    let mut rings = Vec::new();
    let mut devices = Vec::new();
    for i in 0..16 {
        let ring = b
            .add_ring(dies[i / 4], RingKind::Full, 16)
            .expect("ring fits");
        for d in 0..4u16 {
            // Stations 0..=9 step 3; 12+ stays free for bridges.
            devices.push(
                b.add_node(format!("dev{i}_{d}"), ring, d * 3)
                    .expect("device placement"),
            );
        }
        rings.push(ring);
    }
    for w in 0..rings.len() - 1 {
        b.add_bridge(BridgeConfig::l2(), rings[w], 13, rings[w + 1], 15)
            .expect("bridge placement");
    }
    (b.build().expect("valid 16-ring chain"), devices)
}

/// Drive `cycles` of epoch-aligned uniform traffic (enqueue and drain
/// only at multiples of the largest swept K) and run to full drain,
/// advancing `k` cycles per engine call. Returns (ticks/sec,
/// fingerprint).
fn timed_run(cycles: u64, rate: f64, exec: ExecMode, k: u64) -> (f64, Vec<u64>) {
    let align = *EPOCHS.last().expect("non-empty");
    assert!(align.is_multiple_of(k));
    let (topo, devices) = sixteen_ring_chain();
    let mut net = Network::with_exec(
        topo,
        NetworkConfig::default(),
        TickMode::Fast,
        exec,
        NullSink,
    );
    debug_assert_eq!(net.max_epoch(), align);
    let mut rng = Rng(0x5ca1_ab1e_0000_0008);
    let mut token = 0u64;
    let start = Instant::now();
    loop {
        let now = net.now().raw();
        if now.is_multiple_of(align) && now < cycles {
            for (si, &src) in devices.iter().enumerate() {
                if rng.unit() >= rate {
                    continue;
                }
                let dst = devices
                    [(si + 1 + rng.below(devices.len() as u64 - 1) as usize) % devices.len()];
                token += 1;
                let _ = net.enqueue(src, dst, FlitClass::Data, 64, token);
            }
        }
        net.tick_epoch(k)
            .expect("k divides the fabric's epoch bound");
        let now = net.now().raw();
        if now.is_multiple_of(align) {
            for &d in &devices {
                while net.pop_delivered(d).is_some() {}
            }
            if now >= cycles && net.in_flight() == 0 {
                break;
            }
            assert!(now < cycles + 200_000, "scaling run failed to drain");
        }
    }
    let secs = start.elapsed().as_secs_f64().max(1e-9);
    (net.now().raw() as f64 / secs, net.stats().fingerprint())
}

/// Thread counts to sweep: {2, 4, 8} capped by `NOC_EXEC_THREADS` when
/// set (the cap itself joins the sweep if it is not a power of two).
fn thread_counts(env_cap: Option<usize>) -> Vec<usize> {
    let mut counts: Vec<usize> = [2usize, 4, 8]
        .into_iter()
        .filter(|&t| env_cap.is_none_or(|cap| t <= cap))
        .collect();
    if let Some(cap) = env_cap {
        if cap >= 2 && !counts.contains(&cap) {
            counts.push(cap);
            counts.sort_unstable();
        }
    }
    counts
}

/// Run the whole sweep. `quick` trades cycle counts and timing repeats
/// for wall-clock.
pub fn run(quick: bool) -> ScalingReport {
    let cycles: u64 = if quick { 2_000 } else { 12_000 };
    let repeats: u32 = if quick { 1 } else { 3 };
    let rate = 0.25;
    let host = host_info();
    let exec_threads_env = std::env::var("NOC_EXEC_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok());

    let mut execs: Vec<(String, usize, ExecMode)> =
        vec![("sequential".to_string(), 0, ExecMode::Sequential)];
    for t in thread_counts(exec_threads_env) {
        execs.push((format!("parallel{t}"), t, ExecMode::Parallel(t)));
    }

    let mut points: Vec<ScalingPoint> = Vec::new();
    let mut base: Option<(f64, Vec<u64>)> = None;
    for (label, threads, exec) in &execs {
        for &k in &EPOCHS {
            let mut tps = f64::MIN;
            let mut fp = Vec::new();
            for _ in 0..repeats {
                let (t, f) = timed_run(cycles, rate, *exec, k);
                tps = tps.max(t);
                fp = f;
            }
            let (base_tps, base_fp) = base.get_or_insert_with(|| (tps, fp.clone()));
            points.push(ScalingPoint {
                exec: label.clone(),
                threads: *threads,
                k,
                ticks_per_sec: tps,
                speedup_vs_seq_k1: tps / *base_tps,
                fingerprint_ok: fp == *base_fp,
            });
        }
    }

    let best = |pred: &dyn Fn(&ScalingPoint) -> bool| -> Option<f64> {
        points
            .iter()
            .filter(|p| pred(p))
            .map(|p| p.ticks_per_sec)
            .fold(None, |acc, t| Some(acc.map_or(t, |a: f64| a.max(t))))
    };
    let required = 1.5;
    let gate = if host.logical_cores < 4 {
        SpeedupGate {
            required,
            measured: None,
            passed: None,
            skip_reason: Some(format!(
                "host has {} logical core(s) (< 4): a {}× parallel speedup is not \
                 demonstrable here; fingerprint cross-check still enforced",
                host.logical_cores, required
            )),
        }
    } else {
        match (best(&|p| p.threads == 0), best(&|p| p.threads == 4)) {
            (Some(seq), Some(par4)) => {
                let measured = par4 / seq;
                SpeedupGate {
                    required,
                    measured: Some(measured),
                    passed: Some(measured >= required),
                    skip_reason: None,
                }
            }
            _ => SpeedupGate {
                required,
                measured: None,
                passed: None,
                skip_reason: Some(
                    "NOC_EXEC_THREADS excluded the 4-thread point from the sweep".to_string(),
                ),
            },
        }
    };

    let (topo, _) = sixteen_ring_chain();
    ScalingReport {
        bench: "noc-bench parallel-scaling".to_string(),
        quick,
        host,
        exec_threads_env,
        fabric: "chain-16ring".to_string(),
        rings: topo.rings().len(),
        stations: topo.total_stations(),
        cycles,
        points,
        gate,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sixteen_ring_chain_has_the_advertised_shape() {
        let (topo, devices) = sixteen_ring_chain();
        assert_eq!(topo.rings().len(), 16);
        assert_eq!(topo.total_stations(), 256);
        assert_eq!(topo.chiplets().len(), 4);
        assert_eq!(devices.len(), 64);
        let net = Network::new(topo, NetworkConfig::default());
        assert_eq!(net.max_epoch(), *EPOCHS.last().unwrap());
    }

    #[test]
    fn thread_counts_honor_the_env_cap() {
        assert_eq!(thread_counts(None), vec![2, 4, 8]);
        assert_eq!(thread_counts(Some(4)), vec![2, 4]);
        assert_eq!(thread_counts(Some(6)), vec![2, 4, 6]);
        assert_eq!(thread_counts(Some(1)), Vec::<usize>::new());
    }

    #[test]
    fn quick_scaling_sweep_is_complete_and_fingerprint_clean() {
        // Pin the sweep shape regardless of the test host's environment.
        let report = run(true);
        assert!(report.host.logical_cores >= 1);
        assert!(!report.host.cpu_model.is_empty());
        assert_eq!(report.rings, 16);
        assert_eq!(report.stations, 256);
        let seq_points = report.points.iter().filter(|p| p.threads == 0).count();
        assert_eq!(seq_points, EPOCHS.len());
        for p in &report.points {
            assert!(p.ticks_per_sec > 0.0, "{}/k={}: no throughput", p.exec, p.k);
            assert!(
                p.fingerprint_ok,
                "{}/k={}: fingerprint diverged from sequential K=1",
                p.exec, p.k
            );
        }
        // The gate either ran or recorded why it could not.
        assert!(
            report.gate.passed.is_some() || report.gate.skip_reason.is_some(),
            "gate must resolve or explain itself"
        );
        let json = serde_json::to_string_pretty(&report).expect("serializes");
        assert!(json.contains("\"cpu_model\""));
        assert!(json.contains("\"gate\""));
    }
}
