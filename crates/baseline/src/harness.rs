//! A memory request/response harness over any [`ChiTransport`].
//!
//! Drives the paper's bandwidth and latency experiments identically
//! across the multi-ring NoC and the baselines: requesters issue
//! read/write requests to memory endpoints (closed-loop with a fixed
//! outstanding budget, or open-loop at a rate), memory models service
//! them, responses flow back, and per-requester latency/bandwidth is
//! recorded.

use noc_chi::system::ChiTransport;
use noc_chi::{MemoryModel, MemoryParams};
use noc_core::{FlitClass, NodeId};
use noc_sim::{Histogram, SimRng};
use std::collections::HashMap;

/// Request header bytes.
const REQ_BYTES: u32 = 16;
/// Controller request-queue depth: when full, arrivals stay in the
/// interconnect (backpressure reaches the NoC).
const MEM_QUEUE_CAP: usize = 12;

/// Harness parameters.
#[derive(Debug, Clone, Copy)]
pub struct MemHarnessConfig {
    /// Cache-line bytes (data payload).
    pub line_bytes: u32,
    /// Memory controller parameters (same for every controller).
    pub mem: MemoryParams,
    /// RNG seed for read/write draws.
    pub seed: u64,
}

impl Default for MemHarnessConfig {
    fn default() -> Self {
        MemHarnessConfig {
            line_bytes: 64,
            mem: MemoryParams::ddr4(),
            seed: 0xFEED,
        }
    }
}

/// Outstanding-miss budget of one noise requester (a multi-core
/// cluster's worth of memory-level parallelism).
const NOISE_MLP: u64 = 8;

#[derive(Debug, Clone, Copy)]
struct Req {
    requester: NodeId,
    is_read: bool,
    issued_at: u64,
}

/// Per-requester result.
#[derive(Debug, Clone)]
pub struct RequesterStats {
    /// Completed round-trips.
    pub completed: u64,
    /// Sum of round-trip latencies.
    pub latency_sum: u64,
    /// Log2-bucketed round-trip latency distribution — tail percentiles
    /// (`latency.percentile(0.99)`) where the mean hides congestion.
    pub latency: Histogram,
}

impl Default for RequesterStats {
    fn default() -> Self {
        RequesterStats {
            completed: 0,
            latency_sum: 0,
            latency: Histogram::new("round_trip"),
        }
    }
}

impl RequesterStats {
    /// Mean round-trip latency in cycles.
    pub fn mean_latency(&self) -> f64 {
        if self.completed == 0 {
            0.0
        } else {
            self.latency_sum as f64 / self.completed as f64
        }
    }
}

/// Aggregate result of a harness run.
#[derive(Debug, Clone)]
pub struct MemHarnessReport {
    /// Cycles simulated.
    pub cycles: u64,
    /// Completed round-trips across all requesters.
    pub completed: u64,
    /// Mean round-trip latency in cycles.
    pub mean_latency: f64,
    /// Data bytes moved by reads (line per read).
    pub read_bytes: u64,
    /// Data bytes moved by writes (line per write).
    pub write_bytes: u64,
    /// Per-requester breakdown.
    pub per_requester: Vec<RequesterStats>,
}

impl MemHarnessReport {
    /// Total data bytes moved.
    pub fn total_bytes(&self) -> u64 {
        self.read_bytes + self.write_bytes
    }

    /// Data bandwidth moved, in bytes/cycle.
    pub fn bytes_per_cycle(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.total_bytes() as f64 / self.cycles as f64
        }
    }
}

/// The harness itself.
///
/// # Example
///
/// ```
/// use noc_baseline::{MemHarness, MemHarnessConfig, BufferedMesh, MeshConfig};
/// use noc_core::NodeId;
///
/// let mesh = BufferedMesh::new(MeshConfig { k: 3, ..Default::default() });
/// let mut h = MemHarness::new(mesh, vec![NodeId(8)], MemHarnessConfig::default());
/// let report = h.run_closed_loop(&[NodeId(0), NodeId(1)], 4, 1.0, 500, 2000);
/// assert!(report.completed > 0);
/// ```
#[derive(Debug)]
pub struct MemHarness<T> {
    ic: T,
    cfg: MemHarnessConfig,
    mem_endpoints: Vec<NodeId>,
    mems: Vec<MemoryModel<u64>>,
    reqs: HashMap<u64, Req>,
    next_token: u64,
    rng: SimRng,
    /// Responses that could not be offered yet: (mem index, token).
    retry: Vec<(usize, u64)>,
}

impl<T: ChiTransport> MemHarness<T> {
    /// Attach memory controllers at the `mem_endpoints` nodes of `ic`.
    ///
    /// # Panics
    ///
    /// Panics if `mem_endpoints` is empty.
    pub fn new(ic: T, mem_endpoints: Vec<NodeId>, cfg: MemHarnessConfig) -> Self {
        assert!(!mem_endpoints.is_empty());
        let mems = mem_endpoints
            .iter()
            .map(|_| MemoryModel::new(cfg.mem))
            .collect();
        MemHarness {
            ic,
            mems,
            mem_endpoints,
            reqs: HashMap::new(),
            next_token: 0,
            rng: SimRng::seed_from(cfg.seed),
            retry: Vec::new(),
            cfg,
        }
    }

    /// The wrapped interconnect.
    pub fn interconnect(&self) -> &T {
        &self.ic
    }

    /// Offer one request from `requester`; returns false on
    /// backpressure.
    pub fn issue(&mut self, requester: NodeId, is_read: bool) -> bool {
        // Uniform interleave over channels (address-hash style); a
        // synchronized round-robin pointer would sweep hotspots.
        let mem = self.mem_endpoints[self.rng.gen_index(self.mem_endpoints.len())];
        let token = self.next_token;
        let bytes = if is_read {
            REQ_BYTES
        } else {
            self.cfg.line_bytes
        };
        let class = if is_read {
            FlitClass::Request
        } else {
            FlitClass::Data
        };
        if self.ic.offer(requester, mem, class, bytes, token) {
            self.next_token += 1;
            self.reqs.insert(
                token,
                Req {
                    requester,
                    is_read,
                    issued_at: self.ic.now().raw(),
                },
            );
            true
        } else {
            false
        }
    }

    fn service_memory(&mut self) {
        let now = self.ic.now().raw();
        // Requests arriving at memory endpoints (bounded controller
        // queue: a full controller backpressures into the NoC).
        for (mi, &ep) in self.mem_endpoints.iter().enumerate() {
            while self.mems[mi].pending() < MEM_QUEUE_CAP {
                let Some(token) = self.ic.recv(ep) else {
                    break;
                };
                self.mems[mi].push(now, token);
            }
        }
        // Retry previously backpressured responses first.
        let mut still: Vec<(usize, u64)> = Vec::new();
        for (mi, token) in std::mem::take(&mut self.retry) {
            if !self.try_respond(mi, token) {
                still.push((mi, token));
            }
        }
        self.retry = still;
        // Fresh responses.
        for mi in 0..self.mems.len() {
            while let Some(token) = self.mems[mi].pop_ready(now) {
                if !self.try_respond(mi, token) {
                    self.retry.push((mi, token));
                    break;
                }
            }
        }
    }

    fn try_respond(&mut self, mi: usize, token: u64) -> bool {
        let req = self.reqs[&token];
        let (class, bytes) = if req.is_read {
            (FlitClass::Data, self.cfg.line_bytes)
        } else {
            (FlitClass::Response, 8)
        };
        self.ic
            .offer(self.mem_endpoints[mi], req.requester, class, bytes, token)
    }

    fn collect_completions(&mut self, requesters: &[NodeId], run: &mut MemHarnessRun) {
        let now = self.ic.now().raw();
        for &r in requesters {
            while let Some(token) = self.ic.recv(r) {
                let req = self
                    .reqs
                    .remove(&token)
                    .expect("response matches an issued request");
                let lat = now - req.issued_at;
                run.stats[run.index[&r]].completed += 1;
                run.stats[run.index[&r]].latency_sum += lat;
                run.stats[run.index[&r]].latency.record(lat);
                if req.is_read {
                    run.read_bytes += u64::from(self.cfg.line_bytes);
                } else {
                    run.write_bytes += u64::from(self.cfg.line_bytes);
                }
                run.outstanding[run.index[&r]] -= 1;
            }
        }
    }

    /// Closed-loop run: every requester keeps `outstanding` requests in
    /// flight, `read_frac` of them reads. Statistics are collected after
    /// `warmup` cycles, for `measure` cycles.
    pub fn run_closed_loop(
        &mut self,
        requesters: &[NodeId],
        outstanding: u32,
        read_frac: f64,
        warmup: u64,
        measure: u64,
    ) -> MemHarnessReport {
        let mut run = MemHarnessRun::new(requesters);
        for phase in 0..2 {
            let (cycles, record) = if phase == 0 {
                (warmup, false)
            } else {
                (measure, true)
            };
            if record {
                run.reset_counters();
            }
            for _ in 0..cycles {
                for (i, &r) in requesters.iter().enumerate() {
                    while run.outstanding[i] < outstanding as u64 {
                        let is_read = self.rng.gen_bool(read_frac);
                        if self.issue(r, is_read) {
                            run.outstanding[i] += 1;
                        } else {
                            break;
                        }
                    }
                }
                self.ic.tick();
                self.service_memory();
                self.collect_completions(requesters, &mut run);
            }
        }
        run.report(measure)
    }

    /// Probe-with-noise run (paper Figure 11): the probe requester keeps
    /// exactly one request outstanding (pure latency). Noise requesters
    /// are **closed-loop with a duty cycle**: each models a cluster of
    /// cores with up to `NOISE_MLP` outstanding misses and, per cycle,
    /// starts a new one with probability `noise_rate` — the paper's
    /// "time ratio of background read/write request traffic". The
    /// closed loop bounds total pressure (pure open-loop noise would
    /// collapse any network once demand exceeds memory capacity, which
    /// is not what the experiment measures).
    /// Returns the report; the probe is `per_requester[0]`.
    #[allow(clippy::too_many_arguments)]
    pub fn run_probe_with_noise(
        &mut self,
        probe: NodeId,
        noise: &[NodeId],
        noise_rate: f64,
        noise_read_frac: f64,
        warmup: u64,
        measure: u64,
    ) -> MemHarnessReport {
        let mut all = vec![probe];
        all.extend_from_slice(noise);
        let mut run = MemHarnessRun::new(&all);
        for phase in 0..2 {
            let (cycles, record) = if phase == 0 {
                (warmup, false)
            } else {
                (measure, true)
            };
            if record {
                run.reset_counters();
            }
            for _ in 0..cycles {
                // Probe: one outstanding read.
                if run.outstanding[0] == 0 && self.issue(probe, true) {
                    run.outstanding[0] += 1;
                }
                for (i, &r) in noise.iter().enumerate() {
                    if run.outstanding[i + 1] < NOISE_MLP && self.rng.gen_bool(noise_rate) {
                        let is_read = self.rng.gen_bool(noise_read_frac);
                        if self.issue(r, is_read) {
                            run.outstanding[i + 1] += 1;
                        }
                    }
                }
                self.ic.tick();
                self.service_memory();
                self.collect_completions(&all, &mut run);
            }
        }
        run.report(measure)
    }
}

#[derive(Debug)]
struct MemHarnessRun {
    index: HashMap<NodeId, usize>,
    stats: Vec<RequesterStats>,
    outstanding: Vec<u64>,
    read_bytes: u64,
    write_bytes: u64,
}

impl MemHarnessRun {
    fn new(requesters: &[NodeId]) -> Self {
        MemHarnessRun {
            index: requesters
                .iter()
                .enumerate()
                .map(|(i, &r)| (r, i))
                .collect(),
            stats: vec![RequesterStats::default(); requesters.len()],
            outstanding: vec![0; requesters.len()],
            read_bytes: 0,
            write_bytes: 0,
        }
    }

    fn reset_counters(&mut self) {
        self.stats
            .iter_mut()
            .for_each(|s| *s = RequesterStats::default());
        self.read_bytes = 0;
        self.write_bytes = 0;
    }

    fn report(self, cycles: u64) -> MemHarnessReport {
        let completed: u64 = self.stats.iter().map(|s| s.completed).sum();
        let latency_sum: u64 = self.stats.iter().map(|s| s.latency_sum).sum();
        MemHarnessReport {
            cycles,
            completed,
            mean_latency: if completed == 0 {
                0.0
            } else {
                latency_sum as f64 / completed as f64
            },
            read_bytes: self.read_bytes,
            write_bytes: self.write_bytes,
            per_requester: self.stats,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mesh::{BufferedMesh, MeshConfig};
    use crate::ring_adapter::RingAdapter;
    use noc_core::NetworkConfig;

    fn nodes(ids: impl IntoIterator<Item = u32>) -> Vec<NodeId> {
        ids.into_iter().map(NodeId).collect()
    }

    #[test]
    fn closed_loop_moves_data() {
        let ring = RingAdapter::single_ring(8, NetworkConfig::default());
        let mut h = MemHarness::new(ring, nodes([6, 7]), MemHarnessConfig::default());
        let report = h.run_closed_loop(&nodes(0..3), 4, 0.5, 500, 3000);
        assert!(report.completed > 100, "completed {}", report.completed);
        assert!(report.mean_latency > 0.0);
        assert!(report.read_bytes > 0 && report.write_bytes > 0);
        assert!(report.bytes_per_cycle() > 0.0);
    }

    #[test]
    fn probe_latency_rises_with_noise() {
        let probe_latency = |noise_rate| {
            let ring = RingAdapter::single_ring(10, NetworkConfig::default());
            let mut h = MemHarness::new(ring, nodes([9]), MemHarnessConfig::default());
            let r = h.run_probe_with_noise(NodeId(0), &nodes(1..5), noise_rate, 0.5, 500, 4000);
            r.per_requester[0].mean_latency()
        };
        let (quiet, noisy) = (probe_latency(0.0), probe_latency(0.4));
        assert!(
            noisy > quiet,
            "noise must raise probe latency: quiet={quiet} noisy={noisy}"
        );
    }

    #[test]
    fn single_requester_bandwidth_scales_with_outstanding() {
        let run = |outstanding| {
            let mesh = BufferedMesh::new(MeshConfig {
                k: 4,
                ..Default::default()
            });
            let mut h = MemHarness::new(mesh, nodes([15]), MemHarnessConfig::default());
            h.run_closed_loop(&[NodeId(0)], outstanding, 1.0, 500, 3000)
                .bytes_per_cycle()
        };
        assert!(run(8) > 1.5 * run(1), "MLP must increase bandwidth");
    }
}
