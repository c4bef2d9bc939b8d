//! Observatory view of the transaction layer: windowed per-transaction
//! latency percentiles and in-flight gauges.
//!
//! Mirrors the [`MetricsRegistry`](crate::MetricsRegistry) discipline:
//! the transaction fabric samples a [`TxnSnapshot`] every `period`
//! cycles from state it mutates after each network tick, so the
//! snapshot stream is byte-identical run to run for free, and the
//! registry keeps it by the one retention rule of every committed
//! series: the newest [`SERIES_WINDOW`] snapshots, a count of every
//! one committed, and [`TxnRegistry::since`] for a reader that wants
//! the whole series as it is committed.
//! Latency is recorded per *completed transaction* (not per flit),
//! which is the number an application actually sees —
//! a DMA burst's p99 here is the tail of whole bursts, headers,
//! reassembly and response included.

use crate::last_n::{Series, SERIES_WINDOW};
use noc_sim::{Cycle, Histogram};
use serde::{Deserialize, Serialize};

/// One sampled window of transaction-layer state.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct TxnSnapshot {
    /// Cycle the snapshot was taken.
    pub at: u64,
    /// Transactions completed since the registry was created.
    pub completed_total: u64,
    /// Transactions completed during this window.
    pub completed_delta: u64,
    /// Window p50 completion latency (0 when the window is empty).
    pub p50: u64,
    /// Window p95 completion latency.
    pub p95: u64,
    /// Window p99 completion latency.
    pub p99: u64,
    /// Slowest completion in the window.
    pub max: u64,
    /// Gauge: transactions in flight at sample time.
    pub inflight_txns: u64,
    /// Gauge: non-posted window slots occupied, summed over endpoints.
    pub window_occupancy: u64,
}

/// Accumulates completion latencies and commits windowed snapshots.
#[derive(Debug, Clone)]
pub struct TxnRegistry {
    period: u64,
    completed_total: u64,
    window: Histogram,
    snapshots: Series<TxnSnapshot>,
}

impl TxnRegistry {
    /// A registry sampling every `period` cycles and keeping the newest
    /// [`SERIES_WINDOW`] snapshots.
    ///
    /// # Panics
    ///
    /// Panics if `period == 0` (callers gate the zero = disabled case).
    pub fn new(period: u64) -> Self {
        assert!(period > 0, "sampling period must be positive");
        TxnRegistry {
            period,
            completed_total: 0,
            window: Histogram::new("txn-latency-window"),
            snapshots: Series::new(SERIES_WINDOW),
        }
    }

    /// Sampling period in cycles.
    pub fn period(&self) -> u64 {
        self.period
    }

    /// Record one completed transaction's end-to-end latency.
    pub fn record(&mut self, latency: u64) {
        self.completed_total += 1;
        self.window.record(latency);
    }

    /// Close the current window at `at` with the given gauges.
    pub fn sample(&mut self, at: Cycle, inflight_txns: u64, window_occupancy: u64) {
        self.snapshots.push(TxnSnapshot {
            at: at.raw(),
            completed_total: self.completed_total,
            completed_delta: self.window.count(),
            p50: self.window.percentile(0.50),
            p95: self.window.percentile(0.95),
            p99: self.window.percentile(0.99),
            max: self.window.max(),
            inflight_txns,
            window_occupancy,
        });
        self.window.reset();
    }

    /// The retained snapshots, oldest first: the newest
    /// [`SERIES_WINDOW`] committed.
    pub fn snapshots(&self) -> &[TxnSnapshot] {
        self.snapshots.as_slice()
    }

    /// The snapshots from sequence number `seq` (the 0-based commit
    /// index) on, oldest first, or `None` if one of them was already
    /// evicted. Polling again from the `committed()` of the previous
    /// poll reads the series as it is committed.
    pub fn since(&self, seq: u64) -> Option<&[TxnSnapshot]> {
        self.snapshots.since(seq)
    }

    /// Snapshots ever committed, retained or evicted.
    pub fn committed(&self) -> u64 {
        self.snapshots.committed()
    }

    /// Transactions completed since creation.
    pub fn completed_total(&self) -> u64 {
        self.completed_total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn windows_reset_between_samples() {
        let mut r = TxnRegistry::new(100);
        for v in [10, 20, 30] {
            r.record(v);
        }
        r.sample(Cycle(100), 2, 5);
        r.record(1000);
        r.sample(Cycle(200), 0, 0);
        let s = r.snapshots();
        assert_eq!(s.len(), 2);
        assert_eq!(s[0].completed_delta, 3);
        assert_eq!(s[0].completed_total, 3);
        assert_eq!(s[0].inflight_txns, 2);
        assert_eq!(s[0].window_occupancy, 5);
        assert_eq!(s[1].completed_delta, 1);
        assert_eq!(s[1].completed_total, 4);
        assert!(s[1].p50 >= 512, "second window only saw the slow txn");
    }

    #[test]
    fn empty_window_snapshot_is_zeroed() {
        let mut r = TxnRegistry::new(10);
        r.sample(Cycle(10), 0, 0);
        let s = &r.snapshots()[0];
        assert_eq!((s.completed_delta, s.p50, s.p99, s.max), (0, 0, 0, 0));
    }

    #[test]
    fn the_series_keeps_its_window_and_streams_every_commit() {
        let mut r = TxnRegistry::new(10);
        let n = 3 * SERIES_WINDOW as u64;
        let mut streamed = Vec::new();
        for i in 1..=n {
            r.sample(Cycle(10 * i), 0, 0);
            let fresh = r.since(streamed.len() as u64).expect("read every sample");
            streamed.extend(fresh.iter().map(|s| s.at));
        }
        assert_eq!(r.snapshots().len(), SERIES_WINDOW);
        assert_eq!(r.committed(), n);
        assert_eq!(streamed, (1..=n).map(|i| 10 * i).collect::<Vec<_>>());
        assert_eq!(r.since(0), None, "the first snapshot was evicted");
    }

    #[test]
    fn jsonl_is_one_parseable_object_per_line() {
        let mut r = TxnRegistry::new(10);
        r.record(7);
        r.sample(Cycle(10), 1, 1);
        r.sample(Cycle(20), 0, 0);
        let text = crate::jsonl(r.snapshots());
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        for line in lines {
            let v: serde::Value = serde_json::from_str(line).unwrap();
            assert!(v.get("p99").is_some());
        }
    }
}
