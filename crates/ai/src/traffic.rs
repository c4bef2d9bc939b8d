//! The AI-Processor traffic engine: AI-core↔L2 read/write streams and
//! L2↔HBM DMA streams competing for the NoC (paper §5.4, Table 7 and
//! Figure 14).
//!
//! Transactions are independent and stateless (§3.2.2): cores issue
//! closed-loop reads/writes against interleaved L2 slices; the system
//! DMA moves lines between HBM stacks and the L2 slices on their own
//! horizontal ring.

use crate::soc::AiProcessor;
use noc_core::bits::word_ones;
use noc_core::{BitRing, EnqueueError, FlitClass, NodeId};
use noc_sim::{IdMap, SimRng, SlotIndex};
use std::collections::VecDeque;

/// What a token stands for. `core` is the requesting core's position
/// in `AiMap::cores` — the index of its closed-loop counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    /// Core→L2 read request.
    ReadReq { core: u32 },
    /// L2→core read data.
    ReadData { core: u32 },
    /// Core→L2 write data.
    WriteData { core: u32 },
    /// L2→core write acknowledgement.
    WriteAck { core: u32 },
    /// DMA line between HBM and L2 (either direction).
    Dma,
    /// Core→LLC directory lookup (Fig. 8B Path 1, when the LLC path is
    /// enabled).
    LlcReq {
        /// The requesting core.
        core: u32,
    },
}

/// L2 array access latency in cycles.
const L2_LATENCY: u64 = 6;
/// L2 slice port width in bytes/cycle, per direction. This is the
/// byte-limited resource that makes balanced read/write mixes beat
/// lopsided ones (paper Table 7): pure reads saturate the response port
/// while the receive port idles, and vice versa.
const L2_PORT_BYTES: u64 = 96;
/// LLC directory lookup latency in cycles (Fig. 8B Path 1).
const LLC_LATENCY: u64 = 4;

/// Traffic parameters for one bandwidth run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AiTraffic {
    /// Fraction of core transactions that are reads (R:W ratio).
    pub read_frac: f64,
    /// Closed-loop outstanding transactions per AI core.
    pub outstanding: u32,
    /// Probability per cycle that each HBM stack starts a DMA line
    /// transfer.
    pub dma_rate: f64,
    /// Route reads through the LLC directory (Fig. 8B Paths 1→2): the
    /// core asks the LLC, which forwards the request to an L2 slice on
    /// its own horizontal ring; data returns L2→core directly. Adds a
    /// directory hop per read.
    pub via_llc: bool,
    /// RNG seed.
    pub seed: u64,
}

impl Default for AiTraffic {
    fn default() -> Self {
        AiTraffic {
            read_frac: 0.5,
            outstanding: 16,
            dma_rate: 0.27,
            via_llc: false,
            seed: 0xA1,
        }
    }
}

impl AiTraffic {
    /// Build a traffic mix from an `R:W` ratio like the Table 7 rows
    /// (`(1,1)`, `(2,1)`, `(4,1)`, `(3,2)`, `(1,0)`, `(0,1)`).
    pub fn from_ratio(read: u32, write: u32) -> Self {
        let total = read + write;
        assert!(total > 0, "R:W ratio cannot be 0:0");
        AiTraffic {
            read_frac: read as f64 / total as f64,
            ..Default::default()
        }
    }
}

/// Bandwidth report of one run (paper Table 7 row).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AiBandwidthReport {
    /// Measured cycles.
    pub cycles: u64,
    /// Core read data bytes delivered.
    pub read_bytes: u64,
    /// Core write data bytes delivered.
    pub write_bytes: u64,
    /// DMA bytes delivered.
    pub dma_bytes: u64,
    /// NoC clock in GHz.
    pub clock_ghz: f64,
}

impl AiBandwidthReport {
    fn tbs(&self, bytes: u64) -> f64 {
        if self.cycles == 0 {
            return 0.0;
        }
        bytes as f64 / self.cycles as f64 * self.clock_ghz * 1e9 / 1e12
    }

    /// Read bandwidth in TB/s.
    pub fn read_tbs(&self) -> f64 {
        self.tbs(self.read_bytes)
    }

    /// Write bandwidth in TB/s.
    pub fn write_tbs(&self) -> f64 {
        self.tbs(self.write_bytes)
    }

    /// DMA bandwidth in TB/s.
    pub fn dma_tbs(&self) -> f64 {
        self.tbs(self.dma_bytes)
    }

    /// Total NoC data bandwidth in TB/s.
    pub fn total_tbs(&self) -> f64 {
        self.tbs(self.read_bytes + self.write_bytes + self.dma_bytes)
    }
}

/// One L2 slice's byte-limited port pair plus its array pipeline.
#[derive(Debug, Clone, Default)]
struct L2Ports {
    /// Cycle the receive (eject-side) port frees up.
    in_free: u64,
    /// Cycle the respond (inject-side) port frees up.
    out_free: u64,
    /// Requests whose array access completes at `.0`.
    pending: VecDeque<(u64, u64)>,
}

/// Re-offer every backpressured `(slice, token)` of `list` in order,
/// keeping in place — still in order — those refused again.
fn retry_each(
    list: &mut Vec<(usize, u64)>,
    mut offer: impl FnMut(usize, u64) -> Result<bool, EnqueueError>,
) -> Result<(), EnqueueError> {
    let mut kept = 0;
    for j in 0..list.len() {
        let (i, token) = list[j];
        if !offer(i, token)? {
            list[kept] = (i, token);
            kept += 1;
        }
    }
    list.truncate(kept);
    Ok(())
}

/// The traffic engine driving an [`AiProcessor`].
#[derive(Debug)]
pub struct AiEngine {
    proc: AiProcessor,
    traffic: AiTraffic,
    rng: SimRng,
    /// Live tokens. Keyed lookups only.
    tokens: IdMap<u64, Kind>,
    next_token: u64,
    l2_ports: Vec<L2Ports>,
    /// Pending directory lookups per LLC slice: (ready cycle, token).
    llc_pending: Vec<VecDeque<(u64, u64)>>,
    /// Backpressured LLC forwards: (llc index, token).
    llc_retry: Vec<(usize, u64)>,
    /// Closed-loop transactions in flight, parallel to `AiMap::cores`.
    core_outstanding: Vec<u32>,
    /// Payload bytes each core has consumed, parallel to `AiMap::cores`.
    core_bytes: Vec<u64>,
    /// L2 slices on each HBM stack's / LLC slice's own horizontal
    /// ring, parallel to `AiMap::{hbms, llcs}` (fixed at build time).
    hbm_partners: Vec<Vec<NodeId>>,
    llc_partners: Vec<Vec<NodeId>>,
    dma_flip: bool,
    dma_rr: usize,
    /// Retry buffers for backpressured L2 responses: (l2 index, token).
    retry: Vec<(usize, u64)>,
    /// [`NodeId::index`] → slot over the nodes that receive traffic, in
    /// drain order: `AiMap::l2s`, then `cores`, `llcs`, `hbms`.
    sinks: SlotIndex,
    /// Drain scratch: sink slots the network reported deliveries for.
    delivered: BitRing,
    read_bytes: u64,
    write_bytes: u64,
    dma_bytes: u64,
    recording: bool,
}

impl AiEngine {
    /// Attach traffic to a built processor.
    pub fn new(proc: AiProcessor, traffic: AiTraffic) -> Self {
        let l2_ports = vec![L2Ports::default(); proc.map.l2s.len()];
        let llc_pending = vec![VecDeque::new(); proc.map.llcs.len()];
        let map = &proc.map;
        let sinks = [&map.l2s, &map.cores, &map.llcs, &map.hbms]
            .into_iter()
            .flatten();
        let delivered = BitRing::new(sinks.clone().count());
        let sinks = SlotIndex::new(sinks.map(|n| n.index()))
            .unwrap_or_else(|i| panic!("{} is wired as two kinds of sink", NodeId(i as u32)));
        AiEngine {
            core_outstanding: vec![0; map.cores.len()],
            core_bytes: vec![0; map.cores.len()],
            hbm_partners: (0..map.hbms.len())
                .map(|h| map.l2s_on_ring_of_hbm(h))
                .collect(),
            llc_partners: (0..map.llcs.len())
                .map(|i| map.l2s_on_ring_of_llc(i))
                .collect(),
            rng: SimRng::seed_from(traffic.seed),
            l2_ports,
            llc_pending,
            llc_retry: Vec::new(),
            dma_flip: false,
            dma_rr: 0,
            retry: Vec::new(),
            sinks,
            delivered,
            tokens: IdMap::default(),
            next_token: 0,
            read_bytes: 0,
            write_bytes: 0,
            dma_bytes: 0,
            recording: false,
            proc,
            traffic,
        }
    }

    /// The wrapped processor.
    pub fn processor(&self) -> &AiProcessor {
        &self.proc
    }

    /// Payload bytes delivered to each AI core since the engine was
    /// built, warmup included, parallel to `AiMap::cores`: a delivery is
    /// counted in the tick that ejects it (Figure 14 windows these).
    pub fn core_bytes(&self) -> &[u64] {
        &self.core_bytes
    }

    /// Try to enqueue one transaction flit under a fresh token.
    /// `Ok(true)` means the flit entered the network and the token now
    /// stands for `kind`; `Ok(false)` means the inject queue pushed
    /// back (retry later — the token number is spent, as every attempt
    /// spends one, but nothing is recorded under it). Any other
    /// enqueue failure is a wiring bug in the engine (bad node id,
    /// self-send) and is propagated instead of panicking so callers
    /// can surface it.
    fn offer(
        &mut self,
        src: NodeId,
        dst: NodeId,
        class: FlitClass,
        bytes: u32,
        kind: Kind,
    ) -> Result<bool, EnqueueError> {
        let token = self.next_token;
        self.next_token += 1;
        match self.proc.net.enqueue(src, dst, class, bytes, token) {
            Ok(_) => {
                self.tokens.insert(token, kind);
                Ok(true)
            }
            Err(EnqueueError::InjectQueueFull { .. }) => Ok(false),
            Err(e) => Err(e),
        }
    }

    fn issue_core_traffic(&mut self) -> Result<(), EnqueueError> {
        let line = self.proc.cfg.line_bytes;
        let n_l2 = self.proc.map.l2s.len();
        for c in 0..self.proc.map.cores.len() {
            let node = self.proc.map.cores[c];
            let core = c as u32;
            while self.core_outstanding[c] < self.traffic.outstanding {
                // Interleaved L2 addressing: uniform over slices
                // (§3.2.2 — requests "evenly spread across the chip").
                let l2 = self.proc.map.l2s[self.rng.gen_index(n_l2)];
                let is_read = self.rng.gen_bool(self.traffic.read_frac);
                let ok = if is_read {
                    if self.traffic.via_llc {
                        let n_llc = self.proc.map.llcs.len().max(1);
                        let llc = self.proc.map.llcs[self.rng.gen_index(n_llc)];
                        self.offer(node, llc, FlitClass::Request, 16, Kind::LlcReq { core })?
                    } else {
                        self.offer(node, l2, FlitClass::Request, 16, Kind::ReadReq { core })?
                    }
                } else {
                    self.offer(node, l2, FlitClass::Data, line, Kind::WriteData { core })?
                };
                if ok {
                    self.core_outstanding[c] += 1;
                } else {
                    break;
                }
            }
        }
        Ok(())
    }

    fn issue_dma_traffic(&mut self) -> Result<(), EnqueueError> {
        let line = self.proc.cfg.line_bytes;
        for h in 0..self.proc.map.hbms.len() {
            if !self.rng.gen_bool(self.traffic.dma_rate) {
                continue;
            }
            let hbm = self.proc.map.hbms[h];
            let partners = &self.hbm_partners[h];
            if partners.is_empty() {
                continue;
            }
            let l2 = partners[self.dma_rr % partners.len()];
            self.dma_rr += 1;
            self.dma_flip = !self.dma_flip;
            // Alternate fill (HBM→L2) and drain (L2→HBM) directions.
            if self.dma_flip {
                self.offer(hbm, l2, FlitClass::Data, line, Kind::Dma)?;
            } else {
                self.offer(l2, hbm, FlitClass::Data, line, Kind::Dma)?;
            }
        }
        Ok(())
    }

    /// Answer the serviced request `token` from L2 slice `l2_idx`; the
    /// request's token retires once the reply is in the network.
    fn respond(&mut self, l2_idx: usize, token: u64) -> Result<bool, EnqueueError> {
        let l2 = self.proc.map.l2s[l2_idx];
        let line = self.proc.cfg.line_bytes;
        let (core, class, bytes, reply) = match self.tokens[&token] {
            Kind::ReadReq { core } => (core, FlitClass::Data, line, Kind::ReadData { core }),
            Kind::WriteData { core } => (core, FlitClass::Response, 8, Kind::WriteAck { core }),
            other => unreachable!("L2 service queue held {other:?}"),
        };
        let node = self.proc.map.cores[core as usize];
        let sent = self.offer(l2, node, class, bytes, reply)?;
        if sent {
            self.tokens.remove(&token);
        }
        Ok(sent)
    }

    /// Drain deliveries in ascending sink slot order over the sinks the
    /// network reports mail for: every L2 slice, then every core, LLC
    /// slice and HBM stack — the order polling them all would take
    /// (handling a flit never delivers another).
    fn drain_deliveries(&mut self) {
        for node in self.proc.net.nodes_with_deliveries() {
            if let Some(slot) = self.sinks.get(node.index()) {
                self.delivered.set(slot);
            }
        }
        let map = &self.proc.map;
        let cores = map.l2s.len();
        let llcs = cores + map.cores.len();
        let hbms = llcs + map.llcs.len();
        for wi in 0..self.delivered.words().len() {
            for slot in word_ones(wi, self.delivered.words()[wi]) {
                self.delivered.clear(slot);
                if slot < cores {
                    self.l2_arrivals(slot);
                } else if slot < llcs {
                    self.core_arrivals(slot - cores);
                } else if slot < hbms {
                    self.llc_arrivals(slot - llcs);
                } else {
                    self.hbm_arrivals(slot - hbms);
                }
            }
        }
    }

    /// L2 slice `i`'s arrivals: charge the byte-limited receive port,
    /// then the array pipeline.
    fn l2_arrivals(&mut self, i: usize) {
        let now = self.proc.net.now().raw();
        let line = u64::from(self.proc.cfg.line_bytes);
        let l2 = self.proc.map.l2s[i];
        while let Some(f) = self.proc.net.pop_delivered(l2) {
            let in_cost = (u64::from(f.payload_bytes) / L2_PORT_BYTES).max(1);
            match self.tokens[&f.token] {
                Kind::ReadReq { .. } => {
                    let p = &mut self.l2_ports[i];
                    p.in_free = p.in_free.max(now) + in_cost;
                    p.pending.push_back((p.in_free + L2_LATENCY, f.token));
                }
                Kind::WriteData { .. } => {
                    if self.recording {
                        self.write_bytes += line;
                    }
                    let p = &mut self.l2_ports[i];
                    p.in_free = p.in_free.max(now) + in_cost;
                    p.pending.push_back((p.in_free + L2_LATENCY, f.token));
                }
                Kind::Dma => {
                    if self.recording {
                        self.dma_bytes += line;
                    }
                    let p = &mut self.l2_ports[i];
                    p.in_free = p.in_free.max(now) + in_cost;
                    self.tokens.remove(&f.token);
                }
                other => unreachable!("L2 received {other:?}"),
            }
        }
    }

    /// Core `i`'s arrivals: read data and write acks retire its
    /// closed-loop transactions.
    fn core_arrivals(&mut self, i: usize) {
        let line = u64::from(self.proc.cfg.line_bytes);
        let core = self.proc.map.cores[i];
        while let Some(f) = self.proc.net.pop_delivered(core) {
            self.core_bytes[i] += u64::from(f.payload_bytes);
            match self.tokens.remove(&f.token) {
                Some(Kind::ReadData { core: c }) => {
                    if self.recording {
                        self.read_bytes += line;
                    }
                    self.core_outstanding[c as usize] -= 1;
                }
                Some(Kind::WriteAck { core: c }) => {
                    self.core_outstanding[c as usize] -= 1;
                }
                other => unreachable!("core received {other:?}"),
            }
        }
    }

    /// LLC slice `i`'s directory arrivals (Path 1).
    fn llc_arrivals(&mut self, i: usize) {
        let now = self.proc.net.now().raw();
        let llc = self.proc.map.llcs[i];
        while let Some(f) = self.proc.net.pop_delivered(llc) {
            match self.tokens[&f.token] {
                Kind::LlcReq { .. } => {
                    self.llc_pending[i].push_back((now + LLC_LATENCY, f.token));
                }
                other => unreachable!("LLC received {other:?}"),
            }
        }
    }

    /// HBM stack `h`'s arrivals (DMA lines).
    fn hbm_arrivals(&mut self, h: usize) {
        let line = u64::from(self.proc.cfg.line_bytes);
        let hbm = self.proc.map.hbms[h];
        while let Some(f) = self.proc.net.pop_delivered(hbm) {
            match self.tokens.remove(&f.token) {
                Some(Kind::Dma) => {
                    if self.recording {
                        self.dma_bytes += line;
                    }
                }
                other => unreachable!("HBM received {other:?}"),
            }
        }
    }

    fn service_l2(&mut self) -> Result<(), EnqueueError> {
        let now = self.proc.net.now().raw();
        let line = u64::from(self.proc.cfg.line_bytes);
        // Retry backpressured responses first (out-port already paid).
        let mut retry = std::mem::take(&mut self.retry);
        retry_each(&mut retry, |i, token| self.respond(i, token))?;
        self.retry = retry;
        for i in 0..self.l2_ports.len() {
            loop {
                let p = &self.l2_ports[i];
                let Some(&(done, token)) = p.pending.front() else {
                    break;
                };
                if done > now || p.out_free > now {
                    break;
                }
                let out_bytes = match self.tokens[&token] {
                    Kind::ReadReq { .. } => line,
                    Kind::WriteData { .. } => 8,
                    other => unreachable!("pending held {other:?}"),
                };
                let p = &mut self.l2_ports[i];
                p.pending.pop_front();
                p.out_free = p.out_free.max(now) + (out_bytes / L2_PORT_BYTES).max(1);
                if !self.respond(i, token)? {
                    self.retry.push((i, token));
                    break;
                }
            }
        }
        Ok(())
    }

    fn forward_from_llc(&mut self, i: usize, token: u64) -> Result<bool, EnqueueError> {
        let Kind::LlcReq { core } = self.tokens[&token] else {
            unreachable!("llc pending held a non-LlcReq token");
        };
        let llc = self.proc.map.llcs[i];
        let partners = &self.llc_partners[i];
        if partners.is_empty() {
            // Degenerate config: fall back to any slice.
            let n = self.proc.map.l2s.len();
            let l2 = self.proc.map.l2s[self.rng.gen_index(n)];
            return self.forward_to(llc, l2, core, token);
        }
        let l2 = partners[self.rng.gen_index(partners.len())];
        self.forward_to(llc, l2, core, token)
    }

    fn forward_to(
        &mut self,
        llc: NodeId,
        l2: NodeId,
        core: u32,
        token: u64,
    ) -> Result<bool, EnqueueError> {
        let sent = self.offer(llc, l2, FlitClass::Request, 16, Kind::ReadReq { core })?;
        if sent {
            self.tokens.remove(&token);
        }
        Ok(sent)
    }

    fn service_llc(&mut self) -> Result<(), EnqueueError> {
        let now = self.proc.net.now().raw();
        let mut retry = std::mem::take(&mut self.llc_retry);
        retry_each(&mut retry, |i, token| self.forward_from_llc(i, token))?;
        self.llc_retry = retry;
        for i in 0..self.llc_pending.len() {
            while self.llc_pending[i]
                .front()
                .is_some_and(|&(ready, _)| ready <= now)
            {
                let (_, token) = self.llc_pending[i].pop_front().expect("checked");
                if !self.forward_from_llc(i, token)? {
                    self.llc_retry.push((i, token));
                    break;
                }
            }
        }
        Ok(())
    }

    /// Advance one cycle.
    ///
    /// # Errors
    ///
    /// Returns the underlying [`EnqueueError`] if the engine tries an
    /// enqueue that the network rejects for a reason other than inject
    /// backpressure (which is handled internally by retrying).
    pub fn tick(&mut self) -> Result<(), EnqueueError> {
        self.issue_core_traffic()?;
        self.issue_dma_traffic()?;
        self.proc.net.tick();
        self.drain_deliveries();
        self.service_l2()?;
        self.service_llc()?;
        Ok(())
    }

    /// Run `warmup` unrecorded cycles then `measure` recorded cycles and
    /// return the bandwidth report.
    ///
    /// # Errors
    ///
    /// Propagates the first non-backpressure enqueue failure from
    /// [`AiEngine::tick`].
    pub fn run(&mut self, warmup: u64, measure: u64) -> Result<AiBandwidthReport, EnqueueError> {
        self.recording = false;
        for _ in 0..warmup {
            self.tick()?;
        }
        self.recording = true;
        self.read_bytes = 0;
        self.write_bytes = 0;
        self.dma_bytes = 0;
        for _ in 0..measure {
            self.tick()?;
        }
        self.recording = false;
        Ok(AiBandwidthReport {
            cycles: measure,
            read_bytes: self.read_bytes,
            write_bytes: self.write_bytes,
            dma_bytes: self.dma_bytes,
            clock_ghz: self.proc.cfg.clock_ghz,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::soc::AiConfig;

    fn small() -> AiConfig {
        AiConfig {
            v_rings: 4,
            cores_per_vring: 4,
            h_rings: 2,
            l2_per_hring: 4,
            hbm_count: 2,
            dma_count: 2,
            llc_count: 2,
            ..Default::default()
        }
    }

    #[test]
    fn balanced_mix_moves_reads_and_writes() {
        let proc = AiProcessor::build(small()).unwrap();
        let mut e = AiEngine::new(proc, AiTraffic::from_ratio(1, 1));
        let r = e.run(1000, 4000).expect("runs");
        assert!(r.read_bytes > 0, "reads must flow");
        assert!(r.write_bytes > 0, "writes must flow");
        assert!(r.dma_bytes > 0, "DMA must flow");
        assert!(r.total_tbs() > 0.0);
    }

    #[test]
    fn pure_read_has_no_write_bandwidth() {
        let proc = AiProcessor::build(small()).unwrap();
        let mut e = AiEngine::new(proc, AiTraffic::from_ratio(1, 0));
        let r = e.run(500, 2000).expect("runs");
        assert_eq!(r.write_bytes, 0);
        assert!(r.read_bytes > 0);
    }

    #[test]
    fn pure_write_has_no_read_bandwidth() {
        let proc = AiProcessor::build(small()).unwrap();
        let mut e = AiEngine::new(proc, AiTraffic::from_ratio(0, 1));
        let r = e.run(500, 2000).expect("runs");
        assert_eq!(r.read_bytes, 0);
        assert!(r.write_bytes > 0);
    }

    #[test]
    fn balanced_mix_outperforms_lopsided() {
        // The paper's Table 7 shape: 1:1 total bandwidth beats 1:0 and
        // 0:1 because both directions of the full rings carry data.
        let bw = |read, write| {
            let proc = AiProcessor::build(small()).unwrap();
            let mut e = AiEngine::new(proc, AiTraffic::from_ratio(read, write));
            e.run(1000, 6000).expect("runs").total_tbs()
        };
        let balanced = bw(1, 1);
        let pure_read = bw(1, 0);
        let pure_write = bw(0, 1);
        assert!(
            balanced > pure_read && balanced > pure_write,
            "balanced {balanced} vs read {pure_read} / write {pure_write}"
        );
    }

    #[test]
    fn full_inject_queue_backpressures_instead_of_panicking() {
        // Regression: a saturated inject queue used to be the only
        // tolerated enqueue failure — anything else panicked deep in
        // the engine. With a 1-entry inject queue and 16 outstanding
        // transactions per core, every cycle hits InjectQueueFull;
        // the engine must absorb it as backpressure and still make
        // forward progress, and `run` must report success.
        let cfg = small();
        let (mut spec, map) = cfg.spec();
        spec.network.inject_queue_cap = 1;
        let (net, _) = spec.build().unwrap();
        let proc = AiProcessor { net, map, cfg };
        let mut e = AiEngine::new(proc, AiTraffic::from_ratio(1, 1));
        let r = e.run(500, 3000).expect("backpressure is not an error");
        assert!(
            r.read_bytes > 0 && r.write_bytes > 0,
            "traffic still flows under heavy inject backpressure"
        );
        // The closed loop really was throttled by the tiny queue: no
        // core can have more transactions in flight than it asked for.
        for (core, &n) in e.proc.map.cores.iter().zip(&e.core_outstanding) {
            assert!(n <= e.traffic.outstanding, "{core} holds {n}");
        }
    }

    #[test]
    fn a_core_one_past_the_topology_is_a_typed_error() {
        // The per-core counters are indexed by position in `map.cores`,
        // never by node id, so a mis-wired map reaches the network's
        // own check instead of an index out of bounds.
        let mut proc = AiProcessor::build(small()).unwrap();
        let past = NodeId(proc.net.topology().nodes().len() as u32);
        proc.map.cores.push(past);
        let mut e = AiEngine::new(proc, AiTraffic::from_ratio(1, 1));
        assert_eq!(e.tick(), Err(EnqueueError::UnknownNode { node: past }));
    }

    #[test]
    fn core_counters_sum_to_the_bytes_delivered_to_cores() {
        // Pure reads without DMA: a core receives only read data, which
        // the report counts too when recording starts at cycle 0.
        let proc = AiProcessor::build(small()).unwrap();
        let traffic = AiTraffic {
            dma_rate: 0.0,
            ..AiTraffic::from_ratio(1, 0)
        };
        let mut e = AiEngine::new(proc, traffic);
        let r = e.run(0, 3000).expect("runs");
        assert!(r.read_bytes > 0);
        assert_eq!(e.core_bytes().iter().sum::<u64>(), r.read_bytes);
        assert!(e.core_bytes().iter().all(|&b| b > 0), "every core reads");
    }

    #[test]
    fn dma_rate_controls_dma_bandwidth() {
        let run = |rate| {
            let proc = AiProcessor::build(small()).unwrap();
            let mut e = AiEngine::new(
                proc,
                AiTraffic {
                    dma_rate: rate,
                    ..AiTraffic::from_ratio(1, 1)
                },
            );
            e.run(500, 3000).expect("runs").dma_tbs()
        };
        assert!(run(0.8) > run(0.1));
        assert_eq!(run(0.0), 0.0);
    }
}

#[cfg(test)]
mod llc_tests {
    use super::*;
    use crate::soc::{AiConfig, AiProcessor};

    fn small() -> AiConfig {
        AiConfig {
            v_rings: 4,
            cores_per_vring: 4,
            h_rings: 2,
            l2_per_hring: 4,
            hbm_count: 2,
            dma_count: 2,
            llc_count: 2,
            ..Default::default()
        }
    }

    #[test]
    fn llc_path_reads_complete() {
        let proc = AiProcessor::build(small()).unwrap();
        let mut e = AiEngine::new(
            proc,
            AiTraffic {
                via_llc: true,
                ..AiTraffic::from_ratio(1, 0)
            },
        );
        let r = e.run(500, 3000).expect("runs");
        assert!(r.read_bytes > 0, "reads must flow through the directory");
    }

    #[test]
    fn llc_path_costs_bandwidth_but_still_works() {
        let bw = |via_llc| {
            let proc = AiProcessor::build(small()).unwrap();
            let mut e = AiEngine::new(
                proc,
                AiTraffic {
                    via_llc,
                    ..AiTraffic::from_ratio(1, 1)
                },
            );
            e.run(800, 4000).expect("runs").total_tbs()
        };
        let direct = bw(false);
        let routed = bw(true);
        assert!(
            routed > 0.5 * direct,
            "direct {direct:.1} vs via-LLC {routed:.1}"
        );
    }

    #[test]
    fn llc_forwards_stay_on_local_ring() {
        let proc = AiProcessor::build(small()).unwrap();
        for i in 0..proc.map.llcs.len() {
            let partners = proc.map.l2s_on_ring_of_llc(i);
            assert!(!partners.is_empty());
            let topo = proc.net.topology();
            let llc_ring = topo.nodes()[proc.map.llcs[i].index()].ring;
            for l2 in partners {
                assert_eq!(topo.nodes()[l2.index()].ring, llc_ring);
            }
        }
    }
}
