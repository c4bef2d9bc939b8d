//! DMA-burst workload over the transaction layer.
//!
//! [`AiEngine`](crate::AiEngine) approximates DMA traffic with lone
//! flits; [`DmaBurstEngine`] runs the real thing: each system DMA
//! issues non-posted **reads from its HBM stack** (header-flit request
//! out, multi-flit data response back) and posted **writes to the L2
//! slices** sharing that HBM's horizontal ring (header + data flits
//! out, completing at delivery), all over a
//! [`TxnFabric`] with bounded per-DMA in-flight
//! windows. Burst sizes are whole transfers — a 4 KiB read is one
//! packet of 64 data flits — so the reported p50/p99 are end-to-end
//! *burst* latencies: queueing, packetization, deflections, reassembly
//! and the response leg included.

use crate::soc::{AiConfig, AiMap, AiProcessor};
use noc_core::TopologyError;
use noc_sim::SimRng;
use noc_txn::{TxnConfig, TxnFabric, TxnOp};
use serde::{Deserialize, Serialize};

/// Configuration of a DMA-burst run.
#[derive(Debug, Clone)]
pub struct DmaBurstConfig {
    /// The SoC to build.
    pub ai: AiConfig,
    /// Transaction-layer parameters (window, packet shape, metrics).
    pub txn: TxnConfig,
    /// Bytes per burst (reads and writes alike).
    pub burst_bytes: u32,
    /// Fraction of submissions that are posted writes to L2 (the rest
    /// are non-posted reads from HBM).
    pub write_frac: f64,
    /// Traffic seed.
    pub seed: u64,
}

impl Default for DmaBurstConfig {
    fn default() -> Self {
        DmaBurstConfig {
            ai: AiConfig::default(),
            txn: TxnConfig::default(),
            burst_bytes: 4096,
            write_frac: 0.5,
            seed: 0xD0A_0001,
        }
    }
}

/// What a DMA-burst run measured.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DmaBurstReport {
    /// Cycles simulated (including the drain to quiescence).
    pub cycles: u64,
    /// Completed read bursts.
    pub reads: u64,
    /// Completed posted-write bursts.
    pub writes: u64,
    /// Submissions refused by window/staging backpressure.
    pub backpressured: u64,
    /// Median end-to-end burst latency in cycles.
    pub p50: u64,
    /// Tail end-to-end burst latency in cycles.
    pub p99: u64,
    /// Mean end-to-end burst latency in cycles.
    pub mean: f64,
    /// Payload bytes handed to the network (headers included).
    pub bytes_sent: u64,
    /// Mean payload bytes per cycle.
    pub bytes_per_cycle: f64,
}

/// Drives every system DMA with burst traffic over a [`TxnFabric`].
#[derive(Debug)]
pub struct DmaBurstEngine {
    fab: TxnFabric,
    map: AiMap,
    burst_bytes: u32,
    write_frac: f64,
    rng: SimRng,
}

impl DmaBurstEngine {
    /// Build the AI processor and layer the transaction fabric on it.
    ///
    /// # Errors
    ///
    /// Propagates topology construction failures.
    pub fn build(cfg: DmaBurstConfig) -> Result<Self, TopologyError> {
        let DmaBurstConfig {
            ai,
            txn,
            burst_bytes,
            write_frac,
            seed,
        } = cfg;
        let proc = AiProcessor::build(ai)?;
        let AiProcessor { net, map, .. } = proc;
        Ok(DmaBurstEngine {
            fab: TxnFabric::new(net, txn),
            map,
            burst_bytes,
            write_frac,
            rng: SimRng::seed_from(seed),
        })
    }

    /// The underlying transaction fabric (observatory access).
    pub fn fabric(&self) -> &TxnFabric {
        &self.fab
    }

    /// Offer one burst per DMA, then advance one cycle. Backpressured
    /// DMAs simply retry on the next call.
    pub fn step(&mut self) {
        let hbm_count = self.map.hbms.len();
        for i in 0..self.map.dmas.len() {
            let dma = self.map.dmas[i];
            let h = i % hbm_count;
            let is_write = self.rng.gen_bool(self.write_frac);
            let res = if is_write {
                let l2s = self.map.l2s_on_ring_of_hbm(h);
                let dst = l2s[self.rng.gen_index(l2s.len())];
                self.fab.submit(
                    dma,
                    dst,
                    TxnOp::Write {
                        bytes: self.burst_bytes,
                        posted: true,
                    },
                )
            } else {
                self.fab.submit(
                    dma,
                    self.map.hbms[h],
                    TxnOp::Read {
                        bytes: self.burst_bytes,
                    },
                )
            };
            // Backpressure (Ok(None)) is expected steady-state; any
            // structural error would be a wiring bug.
            res.expect("DMA endpoints are devices");
        }
        self.fab.tick();
    }

    /// Drive `load_cycles` of offered load, then drain to quiescence
    /// (bounded) and report.
    pub fn run(&mut self, load_cycles: u64, drain_bound: u64) -> DmaBurstReport {
        for _ in 0..load_cycles {
            self.step();
        }
        assert!(
            self.fab.run_until_quiet(drain_bound),
            "DMA-burst drain exceeded {drain_bound} cycles"
        );
        let cycles = self.fab.now().raw();
        let c = self.fab.counters();
        let lat = self.fab.latency();
        DmaBurstReport {
            cycles,
            reads: c.reads,
            writes: c.writes_posted,
            backpressured: c.backpressured,
            p50: lat.percentile(0.50),
            p99: lat.percentile(0.99),
            mean: lat.mean(),
            bytes_sent: c.bytes_sent,
            bytes_per_cycle: if cycles == 0 {
                0.0
            } else {
                c.bytes_sent as f64 / cycles as f64
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> DmaBurstConfig {
        DmaBurstConfig {
            ai: AiConfig {
                v_rings: 2,
                cores_per_vring: 2,
                h_rings: 2,
                l2_per_hring: 2,
                hbm_count: 2,
                dma_count: 2,
                llc_count: 2,
                ..AiConfig::default()
            },
            burst_bytes: 1024,
            ..DmaBurstConfig::default()
        }
    }

    #[test]
    fn bursts_complete_end_to_end() {
        let mut eng = DmaBurstEngine::build(small()).unwrap();
        let report = eng.run(300, 200_000);
        assert!(report.reads > 0, "no read bursts completed");
        assert!(report.writes > 0, "no write bursts completed");
        assert!(report.p50 > 0 && report.p99 >= report.p50);
        assert!(report.bytes_per_cycle > 0.0);
        let c = eng.fabric().counters();
        assert_eq!(c.stray_flits, 0);
        assert_eq!(c.late_responses, 0);
        assert_eq!(c.completed(), c.reads + c.writes_posted, "only bursts ran");
        assert_eq!(eng.fabric().window_occupancy(), 0, "windows drained");
    }

    #[test]
    fn observatory_sees_burst_percentiles() {
        let mut cfg = small();
        cfg.txn.metrics_period = 128;
        let mut eng = DmaBurstEngine::build(cfg).unwrap();
        eng.run(300, 200_000);
        let snaps = eng.fabric().txn_snapshots();
        assert!(!snaps.is_empty());
        assert!(snaps.iter().any(|s| s.completed_delta > 0 && s.p99 > 0));
        assert!(
            snaps.iter().any(|s| s.window_occupancy > 0),
            "window gauge never moved under load"
        );
    }

    #[test]
    fn runs_are_deterministic() {
        let r1 = DmaBurstEngine::build(small()).unwrap().run(200, 200_000);
        let r2 = DmaBurstEngine::build(small()).unwrap().run(200, 200_000);
        assert_eq!(r1.reads, r2.reads);
        assert_eq!(r1.writes, r2.writes);
        assert_eq!(r1.p99, r2.p99);
        assert_eq!(r1.bytes_sent, r2.bytes_sent);
    }
}
