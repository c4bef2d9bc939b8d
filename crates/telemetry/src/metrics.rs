//! Windowed metrics: the data model of the `noc-observatory` layer.
//!
//! Every N cycles, at the end of the cycle once every ring has run it,
//! the engine samples each ring and commits the per-ring samples as one
//! [`MetricsSnapshot`], in ascending ring order. Because sampling reads
//! settled engine state and the order is fixed, the snapshot stream
//! is bit-identical run to run (the same argument that makes the
//! trace stream deterministic; see DESIGN.md §11).
//!
//! A snapshot carries two kinds of data:
//!
//! * **window counters** ([`WindowCounters`]) — deltas of the engine's
//!   monotonic `NetStats` counters over the sample window. Windows
//!   partition the counter timeline exactly: summing every window of a
//!   run (including the final partial window flushed by
//!   `Network::finish_metrics`) reproduces the end-of-run `NetStats`
//!   totals counter for counter. The reconciliation tests hold the
//!   engine to this.
//! * **gauges** ([`RingGauges`], [`BridgeGauges`]) — instantaneous
//!   state at the sample cycle: ring occupancy, I-tag slots, queue
//!   backlogs, the distribution of current injection-wait times, and
//!   per-bridge-side pipeline occupancy / escape buffers / DRM state.

use crate::flowstats::FlowRecord;
use crate::last_n::Series;
use serde::{Deserialize, Serialize};

/// Number of log2 buckets in [`RingGauges::starve_buckets`]: bucket `i`
/// counts nodes whose current injection wait is in `[2^i, 2^(i+1))`
/// cycles, with the last bucket open-ended.
pub const STARVE_BUCKETS: usize = 8;

/// Deltas of the engine's monotonic counters over one sample window.
///
/// Field set and semantics mirror `noc_core::NetStats` one to one, so
/// windows sum exactly to the run totals.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct WindowCounters {
    /// Flits accepted into inject queues.
    pub enqueued: u64,
    /// Flits that won a ring slot (or the zero-hop local path).
    pub injected: u64,
    /// Injection attempts that lost arbitration (one per head flit per
    /// losing cycle): the denominator half of the injection success
    /// rate, and the raw signal behind I-tag placement.
    pub inject_losses: u64,
    /// Flits delivered to a device eject queue.
    pub delivered: u64,
    /// Payload bytes delivered to devices.
    pub delivered_bytes: u64,
    /// Deflections (failed ejections that sent a flit onward).
    pub deflections: u64,
    /// I-tags placed on passing slots.
    pub itags_placed: u64,
    /// E-tag reservations created (each one is a forced extra lap).
    pub etags_placed: u64,
    /// Times an RBRG-L2 side entered deadlock resolution mode.
    pub drm_entries: u64,
    /// SWAP operations performed during DRM.
    pub swaps: u64,
    /// Flits that crossed a bridge.
    pub bridge_crossings: u64,
}

impl WindowCounters {
    /// Accumulate another window (or ring share) into this one.
    pub fn add(&mut self, other: &WindowCounters) {
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
    }

    /// The delta from `base` to `self`, where both are cumulative
    /// counter readings and `base` was taken earlier.
    pub fn delta_since(&self, base: &WindowCounters) -> WindowCounters {
        WindowCounters {
            enqueued: self.enqueued - base.enqueued,
            injected: self.injected - base.injected,
            inject_losses: self.inject_losses - base.inject_losses,
            delivered: self.delivered - base.delivered,
            delivered_bytes: self.delivered_bytes - base.delivered_bytes,
            deflections: self.deflections - base.deflections,
            itags_placed: self.itags_placed - base.itags_placed,
            etags_placed: self.etags_placed - base.etags_placed,
            drm_entries: self.drm_entries - base.drm_entries,
            swaps: self.swaps - base.swaps,
            bridge_crossings: self.bridge_crossings - base.bridge_crossings,
        }
    }

    /// Fraction of injection attempts that won a slot this window
    /// (`1.0` when nothing tried to inject).
    pub fn injection_success_rate(&self) -> f64 {
        let attempts = self.injected + self.inject_losses;
        if attempts == 0 {
            1.0
        } else {
            self.injected as f64 / attempts as f64
        }
    }

    /// Fraction of ejection attempts that deflected this window:
    /// `deflections / (deflections + delivered)`, the congestion signal
    /// the knee watchdog watches. `0.0` when nothing reached an exit.
    pub fn deflection_rate(&self) -> f64 {
        let attempts = self.deflections + self.delivered;
        if attempts == 0 {
            0.0
        } else {
            self.deflections as f64 / attempts as f64
        }
    }

    /// Every field as `(name, value)` pairs, in declaration order —
    /// shared by the exporters and reconciliation tests.
    pub fn fields(&self) -> [(&'static str, u64); 11] {
        [
            ("enqueued", self.enqueued),
            ("injected", self.injected),
            ("inject_losses", self.inject_losses),
            ("delivered", self.delivered),
            ("delivered_bytes", self.delivered_bytes),
            ("deflections", self.deflections),
            ("itags_placed", self.itags_placed),
            ("etags_placed", self.etags_placed),
            ("drm_entries", self.drm_entries),
            ("swaps", self.swaps),
            ("bridge_crossings", self.bridge_crossings),
        ]
    }
}

/// Instantaneous per-ring state at a sample cycle.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct RingGauges {
    /// Flits currently riding the ring.
    pub occupancy: u64,
    /// Slot capacity of the ring (stations × lanes).
    pub capacity: u64,
    /// Slots currently reserved by circulating I-tags.
    pub itag_slots: u64,
    /// Flits waiting in inject queues on this ring.
    pub inject_backlog: u64,
    /// Flits sitting in eject queues (delivered but not yet popped, or
    /// awaiting bridge intake).
    pub eject_backlog: u64,
    /// Outstanding E-tag reservations on this ring.
    pub etag_backlog: u64,
    /// Largest current consecutive-injection-failure count of any node.
    pub max_starve: u64,
    /// Nodes whose current wait reached the I-tag threshold.
    pub starving_nodes: u64,
    /// Log2 distribution of current injection waits over nodes with a
    /// non-zero wait (the live I-tag wait distribution).
    pub starve_buckets: [u64; STARVE_BUCKETS],
}

impl RingGauges {
    /// Record one node's current injection wait into the distribution.
    pub fn record_starve(&mut self, starve: u64) {
        if starve == 0 {
            return;
        }
        let bucket = (63 - starve.leading_zeros() as usize).min(STARVE_BUCKETS - 1);
        self.starve_buckets[bucket] += 1;
    }
}

/// Instantaneous state of one bridge side at a sample cycle.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct BridgeGauges {
    /// Bridge id.
    pub bridge: u16,
    /// Which side (0 = a, 1 = b).
    pub side: u8,
    /// Ring this side sits on.
    pub ring: u16,
    /// Outgoing pipeline occupancy. A flit pushed in the sampled
    /// cycle counts here in a periodic sample and in the peer's
    /// `rx_depth` in the closing one (`noc_core`'s `Bridges::gauges`).
    pub tx_pipe: u32,
    /// Flits in flight toward this side's endpoint.
    pub rx_depth: u32,
    /// Occupied reserved escape buffers (SWAP/escape mode).
    pub reserved: u32,
    /// Whether this side is currently in deadlock resolution mode.
    pub in_drm: bool,
    /// Monotonic count of DRM entries on this side since construction —
    /// consecutive-snapshot deltas feed the SWAP-storm watchdog.
    pub drm_entries: u64,
}

/// One ring's contribution to a snapshot: its window counters, its
/// gauges, and the gauges of every bridge side it owns.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct RingWindow {
    /// Ring id.
    pub ring: u16,
    /// Counter deltas attributed to this ring over the window.
    pub counters: WindowCounters,
    /// Instantaneous ring state.
    pub gauges: RingGauges,
    /// Instantaneous state of the bridge sides on this ring, ascending
    /// `(bridge, side)` within the ring.
    pub bridges: Vec<BridgeGauges>,
    /// Heaviest flows delivering or deflecting on this ring, ranked
    /// (cumulative since flow accounting was enabled, not per-window —
    /// a Space-Saving table has no meaningful window delta). Empty
    /// unless the flight recorder's flow accounting is on.
    #[serde(default)]
    pub flows: Vec<FlowRecord>,
    /// Flits observed sitting on each station's ring slot at sampling
    /// boundaries (lanes summed, cumulative across windows), index =
    /// station. An occupancy *sample*, not an exact traversal count —
    /// the sum over windows approximates relative link load without
    /// putting accounting work on every tick. Empty unless flow
    /// accounting is on.
    #[serde(default)]
    pub links: Vec<u64>,
}

/// One deterministic sample of the whole network.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    /// Snapshot sequence number (0-based, per registry).
    pub seq: u64,
    /// Cycle the sample was taken at (end of that tick's per-ring
    /// phase).
    pub cycle: u64,
    /// Cycles covered by the window counters (the sample period, or the
    /// remainder for the final flush).
    pub window: u64,
    /// Flits inside the network at the sample cycle.
    pub in_flight: u64,
    /// Window counter deltas summed over all rings.
    pub totals: WindowCounters,
    /// Cumulative counters since the registry was enabled (running sum
    /// of all windows including this one) — the monotonic series
    /// Prometheus `_total` metrics export.
    pub cumulative: WindowCounters,
    /// Per-ring windows, ascending ring id.
    pub rings: Vec<RingWindow>,
}

impl MetricsSnapshot {
    /// All bridge-side gauges in the snapshot, in ring order.
    pub fn bridges(&self) -> impl Iterator<Item = &BridgeGauges> {
        self.rings.iter().flat_map(|r| r.bridges.iter())
    }
}

/// Collects the deterministic snapshot series of one network run.
///
/// The registry itself is engine-agnostic: the engine samples its
/// shards, hands the per-ring windows to [`MetricsRegistry::commit`]
/// in ascending ring order, and the registry derives totals, the
/// cumulative series and sequence numbers.
///
/// # Retention
///
/// The registry keeps the newest `max(keep, 1)` snapshots, `keep` fixed
/// when it is built: the network passes the flight recorder's
/// `snapshot_window` when it attaches one and
/// [`SERIES_WINDOW`](crate::SERIES_WINDOW) otherwise, so memory is
/// bounded by configuration, not by run length. A snapshot's rings are
/// kept as the one spare the commit it leaves the window
/// ([`MetricsRegistry::take_spare`]) and freed at the next eviction if
/// nobody took them. Eviction changes nothing that
/// is committed: `seq` stays the commit index, and
/// [`MetricsRegistry::summed`] and [`MetricsRegistry::committed`] count
/// every window. A reader that needs the whole stream reads it as it is
/// committed, through [`MetricsRegistry::since`].
#[derive(Debug, Clone)]
pub struct MetricsRegistry {
    period: u64,
    cumulative: WindowCounters,
    /// The retained tail of the series, oldest first.
    snapshots: Series<MetricsSnapshot>,
    /// The ring rows of the snapshot the last commit evicted, lent to
    /// the engine to sample the next window into.
    spare: Vec<RingWindow>,
}

impl MetricsRegistry {
    /// Create a registry sampling every `period` cycles and keeping the
    /// newest `max(keep, 1)` snapshots it commits.
    ///
    /// # Panics
    ///
    /// Panics if `period` is zero.
    pub fn new(period: u64, keep: usize) -> Self {
        assert!(period > 0, "metrics period must be positive");
        MetricsRegistry {
            period,
            cumulative: WindowCounters::default(),
            snapshots: Series::new(keep),
            spare: Vec::new(),
        }
    }

    /// The configured sample period in cycles.
    pub fn period(&self) -> u64 {
        self.period
    }

    /// Fold a set of per-ring windows (ascending ring id) into the next
    /// snapshot and return it.
    pub fn commit(
        &mut self,
        cycle: u64,
        window: u64,
        in_flight: u64,
        rings: Vec<RingWindow>,
    ) -> &MetricsSnapshot {
        let mut totals = WindowCounters::default();
        for r in &rings {
            totals.add(&r.counters);
        }
        self.cumulative.add(&totals);
        let evicted = self.snapshots.push(MetricsSnapshot {
            seq: self.snapshots.committed(),
            cycle,
            window,
            in_flight,
            totals,
            cumulative: self.cumulative,
            rings,
        });
        self.spare = evicted.map(|old| old.rings).unwrap_or_default();
        self.last().expect("just committed")
    }

    /// The ring rows of the snapshot the last commit evicted (empty
    /// before the first eviction), for the engine to overwrite in
    /// place and hand back to [`MetricsRegistry::commit`]: once the
    /// window is full, a sample allocates nothing.
    pub fn take_spare(&mut self) -> Vec<RingWindow> {
        std::mem::take(&mut self.spare)
    }

    /// The retained snapshots, oldest first (see the type-level docs).
    pub fn snapshots(&self) -> &[MetricsSnapshot] {
        self.snapshots.as_slice()
    }

    /// The snapshots from sequence number `seq` on, oldest first (empty
    /// once `seq` reaches [`MetricsRegistry::committed`]), or `None` if
    /// one of them was already evicted. Polling again from the
    /// `committed()` of the previous poll reads the series as it is
    /// committed.
    pub fn since(&self, seq: u64) -> Option<&[MetricsSnapshot]> {
        self.snapshots.since(seq)
    }

    /// The most recent snapshot.
    pub fn last(&self) -> Option<&MetricsSnapshot> {
        self.snapshots().last()
    }

    /// Number of retained snapshots.
    pub fn len(&self) -> usize {
        self.snapshots.len()
    }

    /// Whether no snapshot is retained (equivalently: none has been
    /// committed yet — the registry keeps at least one).
    pub fn is_empty(&self) -> bool {
        self.snapshots.len() == 0
    }

    /// Snapshots ever committed, retained or evicted.
    pub fn committed(&self) -> u64 {
        self.snapshots.committed()
    }

    /// Sum of every window committed so far — equals the cumulative
    /// counters of the last snapshot, and (after the final flush) the
    /// run's `NetStats` totals.
    pub fn summed(&self) -> WindowCounters {
        self.cumulative
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn win(enqueued: u64, delivered: u64, deflections: u64) -> WindowCounters {
        WindowCounters {
            enqueued,
            delivered,
            deflections,
            ..WindowCounters::default()
        }
    }

    #[test]
    fn windows_sum_and_subtract() {
        let a = win(10, 7, 3);
        let b = win(4, 2, 0);
        let mut sum = a;
        sum.add(&b);
        assert_eq!(sum.enqueued, 14);
        assert_eq!(sum.delta_since(&a), b);
    }

    #[test]
    fn rates_are_guarded_against_empty_windows() {
        let z = WindowCounters::default();
        assert_eq!(z.injection_success_rate(), 1.0);
        assert_eq!(z.deflection_rate(), 0.0);
        let w = WindowCounters {
            injected: 3,
            inject_losses: 1,
            delivered: 1,
            deflections: 3,
            ..WindowCounters::default()
        };
        assert_eq!(w.injection_success_rate(), 0.75);
        assert_eq!(w.deflection_rate(), 0.75);
    }

    #[test]
    fn starve_distribution_buckets_log2() {
        let mut g = RingGauges::default();
        g.record_starve(0); // ignored
        g.record_starve(1); // bucket 0
        g.record_starve(3); // bucket 1
        g.record_starve(200); // bucket 7 (open-ended)
        assert_eq!(g.starve_buckets[0], 1);
        assert_eq!(g.starve_buckets[1], 1);
        assert_eq!(g.starve_buckets[7], 1);
    }

    #[test]
    fn registry_derives_totals_and_cumulative() {
        let mut reg = MetricsRegistry::new(16, 2);
        assert!(reg.is_empty());
        let rings = vec![
            RingWindow {
                ring: 0,
                counters: win(5, 2, 1),
                ..RingWindow::default()
            },
            RingWindow {
                ring: 1,
                counters: win(1, 1, 0),
                ..RingWindow::default()
            },
        ];
        let snap = reg.commit(16, 16, 3, rings);
        assert_eq!(snap.seq, 0);
        assert_eq!(snap.totals, win(6, 3, 1));
        assert_eq!(snap.cumulative, win(6, 3, 1));
        let snap = reg.commit(
            32,
            16,
            0,
            vec![RingWindow {
                ring: 0,
                counters: win(0, 3, 0),
                ..RingWindow::default()
            }],
        );
        assert_eq!(snap.seq, 1);
        assert_eq!(snap.cumulative, win(6, 6, 1));
        assert_eq!(reg.summed(), win(6, 6, 1));
        assert_eq!(reg.len(), 2);
        assert_eq!(reg.last().expect("two").cycle, 32);
    }

    /// The `i`-th commit of the retention tests: one to three rings, so
    /// no two snapshots render alike.
    fn commit_nth(reg: &mut MetricsRegistry, i: u64) -> MetricsSnapshot {
        let rings = (0..=i % 3)
            .map(|r| RingWindow {
                ring: r as u16,
                counters: win(i + r, i / 2, i % 5),
                ..RingWindow::default()
            })
            .collect();
        reg.commit(8 * (i + 1), 8, i % 7, rings).clone()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]
        /// A registry keeping R snapshots against the list of every
        /// snapshot it committed, with `since` polled after the commits
        /// `poll` selects and once at the end. Sequence numbers, the
        /// retained tail, the recorder's window, the streamed bytes,
        /// `summed()` and `committed()` all agree with the list; the tail
        /// is `min(committed, max(R, 1))`; `since` is `None` exactly when
        /// the poll came after its next snapshot was evicted, and the
        /// reader then resumes at the tail.
        #[test]
        fn a_registry_streams_every_snapshot_it_committed(
            window in 0usize..6,
            commits in 0u64..60,
            poll in proptest::collection::vec(any::<bool>(), 60..61),
        ) {
            use crate::export::jsonl;
            use crate::recorder::{FlightRecorder, RecorderConfig};
            let keep = window.max(1) as u64;
            let mut all: Vec<MetricsSnapshot> = Vec::new();
            let mut reg = MetricsRegistry::new(8, window);
            let recorder = FlightRecorder::new(RecorderConfig {
                snapshot_window: window,
                ..RecorderConfig::default()
            });
            let (mut streamed, mut seqs, mut next) = (String::new(), Vec::new(), 0u64);
            for i in 0..=commits {
                let last = i == commits;
                if !last {
                    all.push(commit_nth(&mut reg, i));
                }
                let committed = all.len() as u64;
                prop_assert_eq!(reg.committed(), committed);
                let summed = all.last().map_or_else(WindowCounters::default, |s| s.cumulative);
                prop_assert_eq!(reg.summed(), summed);
                prop_assert_eq!(reg.last(), all.last());
                prop_assert_eq!(reg.is_empty(), committed == 0);
                let len = reg.len() as u64;
                prop_assert_eq!(len, committed.min(keep));
                prop_assert_eq!(reg.snapshots(), &all[(committed - len) as usize..]);
                let shown: Vec<u64> = recorder.view(&reg).snapshots().map(|s| s.seq).collect();
                let window_seqs: Vec<u64> =
                    (committed.saturating_sub(window as u64)..committed).collect();
                prop_assert_eq!(shown, window_seqs);
                if last || poll[i as usize] {
                    let too_late = next < committed - len;
                    let got = reg.since(next);
                    prop_assert_eq!(got.is_none(), too_late);
                    let fresh = got.unwrap_or(reg.snapshots());
                    let from = fresh.first().map_or(next, |s| s.seq);
                    prop_assert_eq!(fresh, &all[from as usize..]);
                    streamed.push_str(&jsonl(fresh));
                    seqs.extend(fresh.iter().map(|s| s.seq));
                    next = committed;
                }
            }
            // What reached the reader, byte for byte, is what was
            // committed at the same sequence numbers.
            let same: Vec<MetricsSnapshot> =
                seqs.iter().map(|&s| all[s as usize].clone()).collect();
            prop_assert_eq!(&streamed, &jsonl(&same));
            prop_assert!(seqs.windows(2).all(|w| w[0] < w[1]));
            prop_assert_eq!(seqs.last().copied(), commits.checked_sub(1));
            if seqs.len() as u64 == commits {
                prop_assert_eq!(streamed, jsonl(&all));
            }
        }
    }

    #[test]
    fn since_reads_the_stream_and_refuses_an_evicted_start() {
        let mut reg = MetricsRegistry::new(8, 2);
        assert_eq!(reg.since(0).map(<[_]>::len), Some(0));
        for i in 0..5 {
            commit_nth(&mut reg, i);
        }
        // Each commit past the second evicted the oldest.
        let seqs = |s: &[MetricsSnapshot]| s.iter().map(|s| s.seq).collect::<Vec<_>>();
        assert_eq!(seqs(reg.snapshots()), vec![3, 4]);
        assert_eq!(reg.since(2), None);
        assert_eq!(reg.since(3).map(seqs), Some(vec![3, 4]));
        assert_eq!(reg.since(4).map(seqs), Some(vec![4]));
        assert_eq!(reg.since(5).map(<[_]>::len), Some(0));
        assert_eq!(reg.since(99).map(<[_]>::len), Some(0));
        assert_eq!((reg.committed(), reg.len()), (5, 2));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_period_is_rejected() {
        let _ = MetricsRegistry::new(0, 1);
    }

    #[test]
    fn snapshot_round_trips_through_json() {
        let mut reg = MetricsRegistry::new(8, 1);
        reg.commit(
            8,
            8,
            1,
            vec![RingWindow {
                ring: 0,
                counters: win(2, 1, 0),
                gauges: RingGauges {
                    occupancy: 1,
                    capacity: 16,
                    ..RingGauges::default()
                },
                bridges: vec![BridgeGauges {
                    bridge: 0,
                    side: 1,
                    ring: 0,
                    tx_pipe: 2,
                    rx_depth: 0,
                    reserved: 0,
                    in_drm: false,
                    drm_entries: 0,
                }],
                ..RingWindow::default()
            }],
        );
        let text = serde_json::to_string(reg.last().expect("one")).expect("serializes");
        let back: MetricsSnapshot = serde_json::from_str(&text).expect("parses");
        assert_eq!(&back, reg.last().expect("one"));
    }
}
