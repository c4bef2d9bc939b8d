//! The flight recorder: bounded retention of the recent past.
//!
//! When a health watchdog latches, the postmortem bundle should show
//! what the network looked like in the windows *leading up to* the
//! verdict, not just at the moment of it. The recorder keeps that
//! history without storing anything twice:
//!
//! * **snapshots** — the last R committed [`MetricsSnapshot`]s are the
//!   last R entries of the network's [`MetricsRegistry`], which the
//!   recorder is created beside and which sees the same commit stream.
//!   The recorder holds no copy; [`RecorderView::snapshots`] is a slice
//!   of the registry. Attaching the recorder bounds that registry to
//!   the same window ([`MetricsRegistry::retain_last`]), so the
//!   registry holds exactly max(R, 1) snapshots however long the run
//!   (at least one, so the latest sample stays readable at R = 0).
//! * **events** — the last T flit-lifecycle [`TraceRecord`]s, in one
//!   fixed-capacity ring. Memory is bounded by construction; a
//!   recorder attached to a year-long run costs the same as one
//!   attached to a test.
//!
//! The event ring only fills when the network runs with a real
//! [`TraceSink`](crate::TraceSink) (the engine tees the per-shard trace
//! buffers into the recorder at the same deterministic ring-order drain
//! that feeds the sink). Under `NullSink` the ring stays empty and the
//! tee is compiled away with the rest of the telemetry path.

use crate::event::TraceRecord;
use crate::last_n::LastN;
use crate::metrics::{MetricsRegistry, MetricsSnapshot};

/// Sizing for the flight recorder and the flow-attribution layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecorderConfig {
    /// Snapshots retained (R): the visible history of a bundle. A
    /// network that attaches the recorder bounds its metrics registry
    /// by it too: the registry keeps exactly the newest max(R, 1)
    /// snapshots (`usize::MAX` keeps the whole series). Read the full
    /// stream through [`MetricsRegistry::since`] as it is committed.
    pub snapshot_window: usize,
    /// Trace events retained (T) when a tracing sink is attached.
    pub event_window: usize,
    /// Flows tracked per ring shard (Space-Saving capacity), and the
    /// cut applied when tables are merged for a bundle.
    pub flow_top_k: usize,
    /// Sampling windows between in-flight charge sweeps (1 = every
    /// window). Deliveries are always accounted exactly at the next
    /// window; the sweep that attributes a *circulating* flit's
    /// deflections and samples link occupancy only runs every
    /// `charge_stride`-th window — plus, forced, right before any
    /// watchdog bundle capture and at `finish_metrics`, so frozen
    /// tables never lag.
    pub charge_stride: usize,
    /// Watchdog-triggered bundles kept per run. Explicit
    /// `dump_postmortem` calls are not counted against this.
    pub max_bundles: usize,
}

impl Default for RecorderConfig {
    fn default() -> Self {
        RecorderConfig {
            snapshot_window: 32,
            event_window: 4096,
            flow_top_k: 16,
            charge_stride: 8,
            max_bundles: 4,
        }
    }
}

/// The recorder's own state: its limits and the trace-event ring. Read
/// it through [`FlightRecorder::view`], which adds the snapshot window.
#[derive(Debug, Clone)]
pub struct FlightRecorder {
    cfg: RecorderConfig,
    events: LastN<TraceRecord>,
}

impl FlightRecorder {
    /// A recorder with the given retention limits.
    pub fn new(cfg: RecorderConfig) -> Self {
        FlightRecorder {
            events: LastN::new(cfg.event_window),
            cfg,
        }
    }

    /// The retention limits in effect.
    pub fn config(&self) -> &RecorderConfig {
        &self.cfg
    }

    /// Retain trace events in order, evicting the oldest past T.
    #[inline]
    pub fn record_events(&mut self, records: &[TraceRecord]) {
        self.events.extend_from_slice(records);
    }

    /// The recorder as a reader sees it, with its snapshot window taken
    /// from `registry` — the registry created beside it.
    pub fn view<'a>(&'a self, registry: &'a MetricsRegistry) -> RecorderView<'a> {
        RecorderView {
            recorder: self,
            registry,
        }
    }
}

/// A read-only view of a [`FlightRecorder`] together with the registry
/// its snapshot window lives in.
#[derive(Debug, Clone, Copy)]
pub struct RecorderView<'a> {
    recorder: &'a FlightRecorder,
    registry: &'a MetricsRegistry,
}

impl<'a> RecorderView<'a> {
    /// The retention limits in effect.
    pub fn config(&self) -> &'a RecorderConfig {
        &self.recorder.cfg
    }

    /// Retained snapshots, oldest first: the last
    /// [`RecorderConfig::snapshot_window`] the registry committed.
    pub fn snapshots(&self) -> std::slice::Iter<'a, MetricsSnapshot> {
        let all = self.registry.snapshots();
        let window = self.recorder.cfg.snapshot_window.min(all.len());
        all[all.len() - window..].iter()
    }

    /// Retained events, oldest first.
    pub fn events(&self) -> impl DoubleEndedIterator<Item = &'a TraceRecord> {
        self.recorder.events.iter()
    }

    /// Snapshots ever committed while the recorder was on (retained or
    /// scrolled off).
    pub fn snapshots_seen(&self) -> u64 {
        self.registry.committed()
    }

    /// Events ever recorded (retained or scrolled off).
    pub fn events_seen(&self) -> u64 {
        self.recorder.events.len() as u64 + self.recorder.events.dropped()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{FlitEvent, NO_LANE};
    use crate::metrics::RingWindow;

    fn event(cycle: u64) -> TraceRecord {
        TraceRecord {
            cycle,
            flit: 0,
            ring: 0,
            station: 0,
            lane: NO_LANE,
            event: FlitEvent::Injected { node: 0 },
        }
    }

    fn commit(reg: &mut MetricsRegistry, n: u64) {
        for i in 0..n {
            reg.commit((i + 1) * 32, 32, 0, vec![RingWindow::default()]);
        }
    }

    #[test]
    fn rings_retain_the_most_recent() {
        let mut r = FlightRecorder::new(RecorderConfig {
            snapshot_window: 3,
            event_window: 2,
            ..RecorderConfig::default()
        });
        let mut reg = MetricsRegistry::new(32);
        commit(&mut reg, 10);
        let events: Vec<TraceRecord> = (0..10).map(event).collect();
        r.record_events(&events);
        let v = r.view(&reg);
        let seqs: Vec<u64> = v.snapshots().map(|s| s.seq).collect();
        assert_eq!(seqs, vec![7, 8, 9]);
        let cycles: Vec<u64> = v.events().map(|e| e.cycle).collect();
        assert_eq!(cycles, vec![8, 9]);
        assert_eq!(v.snapshots_seen(), 10);
        assert_eq!(v.events_seen(), 10);
    }

    #[test]
    fn zero_windows_retain_nothing_but_count() {
        let mut r = FlightRecorder::new(RecorderConfig {
            snapshot_window: 0,
            event_window: 0,
            ..RecorderConfig::default()
        });
        let mut reg = MetricsRegistry::new(32);
        commit(&mut reg, 1);
        r.record_events(&[event(0)]);
        let v = r.view(&reg);
        assert_eq!(v.snapshots().count(), 0);
        assert_eq!(v.events().count(), 0);
        assert_eq!(v.snapshots_seen(), 1);
        assert_eq!(v.events_seen(), 1);
    }

    #[test]
    fn a_window_longer_than_the_series_shows_all_of_it() {
        let r = FlightRecorder::new(RecorderConfig::default());
        let mut reg = MetricsRegistry::new(32);
        assert_eq!(r.view(&reg).snapshots().count(), 0);
        commit(&mut reg, 5);
        let seqs: Vec<u64> = r.view(&reg).snapshots().map(|s| s.seq).collect();
        assert_eq!(seqs, vec![0, 1, 2, 3, 4]);
    }
}
