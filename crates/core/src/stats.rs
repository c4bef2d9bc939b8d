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

impl NetStats {
    /// Fresh, zeroed statistics.
    pub fn new() -> Self {
        let h = |name: &str| Histogram::new(name);
        NetStats {
            enqueued: Counter::new("enqueued"),
            injected: Counter::new("injected"),
            inject_losses: Counter::new("inject_losses"),
            delivered: Counter::new("delivered"),
            delivered_bytes: Counter::new("delivered_bytes"),
            deflections: Counter::new("deflections"),
            itags_placed: Counter::new("itags_placed"),
            etags_placed: Counter::new("etags_placed"),
            drm_entries: Counter::new("drm_entries"),
            swaps: Counter::new("swaps"),
            bridge_crossings: Counter::new("bridge_crossings"),
            etag_laps: Counter::new("etag_laps"),
            itag_wait_cycles: Counter::new("itag_wait_cycles"),
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

    /// Record a device delivery at time `now`.
    pub fn record_delivery(&mut self, flit: &Flit, now: Cycle) {
        self.delivered.inc();
        self.delivered_bytes.add(flit.payload_bytes as u64);
        self.etag_laps.add(flit.etag_laps as u64);
        self.itag_wait_cycles.add(flit.itag_wait as u64);
        let i = flit.class.index();
        self.total_latency[i].record(flit.total_latency(now));
        self.network_latency[i].record(flit.network_latency(now));
        self.hops.record(flit.hops as u64);
        self.deflections_per_flit.record(flit.deflections as u64);
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

    /// Fold another statistics block into this one (counter sums,
    /// histogram merges). Used by the sharded engine to combine
    /// per-ring statistics into the network-wide view; merging is
    /// commutative, so the result is independent of shard order.
    pub fn merge_from(&mut self, other: &NetStats) {
        self.enqueued.add(other.enqueued.get());
        self.injected.add(other.injected.get());
        self.inject_losses.add(other.inject_losses.get());
        self.delivered.add(other.delivered.get());
        self.delivered_bytes.add(other.delivered_bytes.get());
        self.deflections.add(other.deflections.get());
        self.itags_placed.add(other.itags_placed.get());
        self.etags_placed.add(other.etags_placed.get());
        self.drm_entries.add(other.drm_entries.get());
        self.swaps.add(other.swaps.get());
        self.bridge_crossings.add(other.bridge_crossings.get());
        self.etag_laps.add(other.etag_laps.get());
        self.itag_wait_cycles.add(other.itag_wait_cycles.get());
        for (mine, theirs) in self.total_latency.iter_mut().zip(&other.total_latency) {
            mine.merge(theirs);
        }
        for (mine, theirs) in self.network_latency.iter_mut().zip(&other.network_latency) {
            mine.merge(theirs);
        }
        self.hops.merge(&other.hops);
        self.deflections_per_flit.merge(&other.deflections_per_flit);
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
    /// stalled, per side intake or DRM bookkeeping looked at, and per
    /// side a mailbox barrier moved mail or a depth for. Zero on an
    /// idle fabric, whatever its bridge count.
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
        let mut s = NetStats::new();
        let mut f = Flit::new(1, NodeId(0), NodeId(1), FlitClass::Data, 64, 0, Cycle(10));
        f.injected_at = Some(Cycle(12));
        f.hops = 5;
        f.deflections = 1;
        s.enqueued.inc();
        s.record_delivery(&f, Cycle(30));
        assert_eq!(s.delivered.get(), 1);
        assert_eq!(s.delivered_bytes.get(), 64);
        assert_eq!(s.total_latency[FlitClass::Data.index()].mean(), 20.0);
        assert_eq!(s.network_latency[FlitClass::Data.index()].mean(), 18.0);
        assert_eq!(s.hops.max(), 5);
        assert_eq!(s.outstanding(), 0);
        assert_eq!(s.mean_total_latency(), 20.0);
    }

    #[test]
    fn bandwidth_accounting() {
        let mut s = NetStats::new();
        s.delivered_bytes.add(1000);
        assert!((s.bytes_per_cycle(100) - 10.0).abs() < 1e-12);
        assert_eq!(s.bytes_per_cycle(0), 0.0);
    }
}
