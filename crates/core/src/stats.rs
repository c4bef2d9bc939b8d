//! Network-wide statistics.

use crate::flit::Flit;
use noc_sim::{Counter, Cycle, Histogram};

/// Aggregated statistics of one [`Network`](crate::Network) run.
///
/// Counters cover every mechanism the paper describes: I-tag and E-tag
/// placements, deflections, DRM (deadlock-resolution-mode) entries and
/// SWAP operations.
#[derive(Debug, Clone)]
pub struct NetStats {
    /// Flits accepted into inject queues.
    pub enqueued: Counter,
    /// Flits that won a ring slot.
    pub injected: Counter,
    /// Injection attempts that lost arbitration (no free slot, or the
    /// passing slot was reserved for someone else). One flit can lose
    /// many times before it wins; `injected / (injected +
    /// inject_losses)` is the injection success rate.
    pub inject_losses: Counter,
    /// Flits delivered to a device eject queue.
    pub delivered: Counter,
    /// Payload bytes delivered to devices.
    pub delivered_bytes: Counter,
    /// Deflections (failed ejections that sent a flit onward).
    pub deflections: Counter,
    /// I-tags placed on passing slots.
    pub itags_placed: Counter,
    /// E-tag reservations created.
    pub etags_placed: Counter,
    /// Times an RBRG-L2 entered deadlock resolution mode.
    pub drm_entries: Counter,
    /// SWAP operations performed during DRM.
    pub swaps: Counter,
    /// Flits that crossed a bridge.
    pub bridge_crossings: Counter,
    /// Extra laps flown by delivered flits after an E-tag reservation
    /// was already in place — the one-lap guarantee of §4.1.2 bounds
    /// the *wait for a buffer*, not the laps a saturated exit forces.
    pub etag_laps: Counter,
    /// Cycles delivered flits spent as starving inject-queue heads,
    /// summed over every ring they injected on.
    pub itag_wait_cycles: Counter,
    /// End-to-end latency (enqueue → device delivery) per flit class.
    pub total_latency: [Histogram; 4],
    /// In-network latency (injection → device delivery) per flit class.
    pub network_latency: [Histogram; 4],
    /// Ring hops per delivered flit.
    pub hops: Histogram,
    /// Deflections per delivered flit.
    pub deflections_per_flit: Histogram,
}

/// The counters one ring keeps: [`NetStats`]'s 13 counters as plain
/// integers, in its field order. A ring's counters are read per ring
/// (the observatory's window deltas and wait-graph progress), so each
/// ring keeps its own; [`Network::stats`](crate::Network::stats) sums
/// them.
#[derive(Debug, Clone, Default)]
pub(crate) struct RingCounters {
    pub enqueued: u64,
    pub injected: u64,
    pub inject_losses: u64,
    pub delivered: u64,
    pub delivered_bytes: u64,
    pub deflections: u64,
    pub itags_placed: u64,
    pub etags_placed: u64,
    pub drm_entries: u64,
    pub swaps: u64,
    pub bridge_crossings: u64,
    pub etag_laps: u64,
    pub itag_wait_cycles: u64,
}

impl RingCounters {
    /// Count a device delivery of `flit`.
    pub fn record_delivery(&mut self, flit: &Flit) {
        self.delivered += 1;
        self.delivered_bytes += u64::from(flit.payload_bytes);
        self.etag_laps += u64::from(flit.etag_laps);
        self.itag_wait_cycles += u64::from(flit.itag_wait);
    }

    /// Add `other`'s counts to these.
    pub fn add(&mut self, other: &RingCounters) {
        self.enqueued += other.enqueued;
        self.injected += other.injected;
        self.inject_losses += other.inject_losses;
        self.delivered += other.delivered;
        self.delivered_bytes += other.delivered_bytes;
        self.deflections += other.deflections;
        self.itags_placed += other.itags_placed;
        self.etags_placed += other.etags_placed;
        self.drm_entries += other.drm_entries;
        self.swaps += other.swaps;
        self.bridge_crossings += other.bridge_crossings;
        self.etag_laps += other.etag_laps;
        self.itag_wait_cycles += other.itag_wait_cycles;
    }
}

/// [`NetStats`]'s delivery histograms, one set per network. Only
/// [`Network::stats`](crate::Network::stats) reads them, and a
/// histogram merge is a sum, so one set recorded in delivery order
/// holds what per-ring sets merged in ring order would — at one
/// network's cost instead of one per ring.
#[derive(Debug, Clone)]
pub(crate) struct DeliveryHists {
    total_latency: [Histogram; 4],
    network_latency: [Histogram; 4],
    hops: Histogram,
    deflections_per_flit: Histogram,
}

impl DeliveryHists {
    pub fn new() -> Self {
        let h = |name: &str| Histogram::new(name);
        DeliveryHists {
            total_latency: [
                h("total_latency.req"),
                h("total_latency.rsp"),
                h("total_latency.snp"),
                h("total_latency.dat"),
            ],
            network_latency: [
                h("network_latency.req"),
                h("network_latency.rsp"),
                h("network_latency.snp"),
                h("network_latency.dat"),
            ],
            hops: h("hops"),
            deflections_per_flit: h("deflections_per_flit"),
        }
    }

    /// Record a device delivery of `flit` at time `now`.
    pub fn record(&mut self, flit: &Flit, now: Cycle) {
        let i = flit.class.index();
        self.total_latency[i].record(flit.total_latency(now));
        self.network_latency[i].record(flit.network_latency(now));
        self.hops.record(u64::from(flit.hops));
        self.deflections_per_flit
            .record(u64::from(flit.deflections));
    }
}

impl NetStats {
    /// Fresh, zeroed statistics.
    pub fn new() -> Self {
        Self::from_parts(&RingCounters::default(), DeliveryHists::new())
    }

    /// The public view of a network's statistics: its rings' counters,
    /// summed, beside its one set of delivery histograms.
    pub(crate) fn from_parts(c: &RingCounters, h: DeliveryHists) -> Self {
        let counter = |name: &str, value: u64| {
            let mut k = Counter::new(name);
            k.add(value);
            k
        };
        NetStats {
            enqueued: counter("enqueued", c.enqueued),
            injected: counter("injected", c.injected),
            inject_losses: counter("inject_losses", c.inject_losses),
            delivered: counter("delivered", c.delivered),
            delivered_bytes: counter("delivered_bytes", c.delivered_bytes),
            deflections: counter("deflections", c.deflections),
            itags_placed: counter("itags_placed", c.itags_placed),
            etags_placed: counter("etags_placed", c.etags_placed),
            drm_entries: counter("drm_entries", c.drm_entries),
            swaps: counter("swaps", c.swaps),
            bridge_crossings: counter("bridge_crossings", c.bridge_crossings),
            etag_laps: counter("etag_laps", c.etag_laps),
            itag_wait_cycles: counter("itag_wait_cycles", c.itag_wait_cycles),
            total_latency: h.total_latency,
            network_latency: h.network_latency,
            hops: h.hops,
            deflections_per_flit: h.deflections_per_flit,
        }
    }

    /// Mean end-to-end latency across all classes (cycles).
    pub fn mean_total_latency(&self) -> f64 {
        let (sum, count) = self
            .total_latency
            .iter()
            .fold((0u64, 0u64), |(s, c), h| (s + h.sum(), c + h.count()));
        if count == 0 {
            0.0
        } else {
            sum as f64 / count as f64
        }
    }

    /// Delivered payload bandwidth in bytes/cycle over `elapsed` cycles.
    pub fn bytes_per_cycle(&self, elapsed: u64) -> f64 {
        if elapsed == 0 {
            0.0
        } else {
            self.delivered_bytes.get() as f64 / elapsed as f64
        }
    }

    /// Conservation check value: enqueued − delivered (must equal the
    /// number of flits still inside the network).
    pub fn outstanding(&self) -> u64 {
        self.enqueued.get() - self.delivered.get()
    }

    /// A semantic digest of the run: every counter plus a
    /// (count, sum, max) triple per histogram.
    ///
    /// Two networks that simulated the same traffic identically produce
    /// equal fingerprints. Engine instrumentation (station visit counts)
    /// deliberately lives in [`TickProfile`], not here: the fingerprint
    /// describes what the network simulated, not how much work the
    /// sweep did to simulate it.
    pub fn fingerprint(&self) -> Vec<u64> {
        let mut fp = vec![
            self.enqueued.get(),
            self.injected.get(),
            self.inject_losses.get(),
            self.delivered.get(),
            self.delivered_bytes.get(),
            self.deflections.get(),
            self.itags_placed.get(),
            self.etags_placed.get(),
            self.drm_entries.get(),
            self.swaps.get(),
            self.bridge_crossings.get(),
            self.etag_laps.get(),
            self.itag_wait_cycles.get(),
        ];
        let hists = self
            .total_latency
            .iter()
            .chain(self.network_latency.iter())
            .chain([&self.hops, &self.deflections_per_flit]);
        for h in hists {
            fp.extend([h.count(), h.sum(), h.max()]);
        }
        fp
    }
}

/// Engine-level instrumentation of the tick loop itself.
///
/// These counters describe how much work the sweep did — not what the
/// simulated network did — so they are kept out of [`NetStats`] and its
/// [`NetStats::fingerprint`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TickProfile {
    /// Cycles simulated.
    pub ticks: u64,
    /// Lane passes performed (rings × lanes × ticks).
    pub lane_passes: u64,
    /// Stations a full sweep would have visited.
    pub stations_total: u64,
    /// (Lane, station) visits the fast path made: one per station where,
    /// on that lane, a flit stood at its exit, an I-tag rode the slot,
    /// or a queue head wanted a slot.
    pub stations_visited: u64,
    /// Always 0: the fast path has no full-sweep fallback any more.
    /// The field stays because the benchmark reads it.
    pub full_lane_sweeps: u64,
    /// Bridge-side bodies run: one per side delivery drained or found
    /// stalled, and per side intake or DRM bookkeeping looked at. Zero
    /// on an idle fabric, whatever its bridge count.
    pub side_visits: u64,
}

impl TickProfile {
    /// Fold another profile into this one. `ticks` is summed like the
    /// rest; shard-local profiles keep it at zero so the merged value
    /// is whatever the engine adds on top.
    pub fn merge_from(&mut self, other: &TickProfile) {
        self.ticks += other.ticks;
        self.lane_passes += other.lane_passes;
        self.stations_total += other.stations_total;
        self.stations_visited += other.stations_visited;
        self.full_lane_sweeps += other.full_lane_sweeps;
        self.side_visits += other.side_visits;
    }

    /// Fraction of station visits skipped relative to a full sweep
    /// (0.0 for a fully saturated network).
    pub fn skip_fraction(&self) -> f64 {
        if self.stations_total == 0 {
            0.0
        } else {
            1.0 - self.stations_visited as f64 / self.stations_total as f64
        }
    }
}

impl Default for NetStats {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flit::FlitClass;
    use crate::ids::NodeId;

    #[test]
    fn delivery_updates_everything() {
        let (mut c, mut h) = (RingCounters::default(), DeliveryHists::new());
        let mut f = Flit::new(1, NodeId(0), NodeId(1), FlitClass::Data, 64, 0, Cycle(10));
        f.injected_at = Some(Cycle(12));
        f.hops = 5;
        f.deflections = 1;
        c.enqueued += 1;
        c.record_delivery(&f);
        h.record(&f, Cycle(30));
        let s = NetStats::from_parts(&c, h);
        assert_eq!(s.delivered.get(), 1);
        assert_eq!(s.delivered_bytes.get(), 64);
        assert_eq!(s.total_latency[FlitClass::Data.index()].mean(), 20.0);
        assert_eq!(s.network_latency[FlitClass::Data.index()].mean(), 18.0);
        assert_eq!(s.hops.max(), 5);
        assert_eq!(s.outstanding(), 0);
        assert_eq!(s.mean_total_latency(), 20.0);
    }

    /// Every ring carries one counter block: 13 plain `u64`s, no names,
    /// no heap.
    #[test]
    fn a_ring_counter_block_is_104_bytes() {
        assert_eq!(std::mem::size_of::<RingCounters>(), 13 * 8);
    }

    #[test]
    fn bandwidth_accounting() {
        let mut s = NetStats::new();
        s.delivered_bytes.add(1000);
        assert!((s.bytes_per_cycle(100) - 10.0).abs() < 1e-12);
        assert_eq!(s.bytes_per_cycle(0), 0.0);
    }
}
