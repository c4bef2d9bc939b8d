//! Trace sinks: where emitted records go.
//!
//! The engine is generic over one of these; the associated
//! [`TraceSink::ENABLED`] constant is the zero-cost off switch. Every
//! emission site in the engine reads
//!
//! ```ignore
//! if S::ENABLED {
//!     self.sink.emit(TraceRecord { .. });
//! }
//! ```
//!
//! so for [`NullSink`] (`ENABLED = false`) the record construction and
//! the branch are both deleted at monomorphization — the disabled tick
//! loop is bit-identical to one compiled without telemetry.

use crate::event::{EventCounts, TraceRecord};
use crate::last_n::LastN;

/// Destination for engine trace records.
pub trait TraceSink {
    /// Compile-time switch read at every emission site. Leave `true`
    /// for real sinks; [`NullSink`] overrides it to `false`.
    const ENABLED: bool = true;

    /// Accept one record.
    fn emit(&mut self, record: TraceRecord);

    /// Accept a run of records, in order — what the engine hands over
    /// per ring and cycle. Default: one [`TraceSink::emit`] each.
    fn emit_all(&mut self, records: &[TraceRecord]) {
        for &record in records {
            self.emit(record);
        }
    }

    /// Flush buffered output (end of run). Default: nothing.
    fn flush(&mut self) {}
}

/// A plain per-shard staging buffer for trace records.
///
/// The sharded engine cannot hand every ring a `&mut` to the one
/// [`TraceSink`], so each shard appends its records here during its
/// phase, and the engine drains the buffers into the real sink **in
/// ring order** at the end of the cycle. Records within one shard keep
/// their emission order, and the drain order is fixed, so the sink
/// observes a deterministic stream.
///
/// # Example
///
/// ```
/// use noc_telemetry::{FlitEvent, RingBufferSink, TraceBuffer, TraceRecord, TraceSink, NO_LANE};
/// let mut buf = TraceBuffer::default();
/// buf.push(TraceRecord {
///     cycle: 0,
///     flit: 0,
///     ring: 1,
///     station: 2,
///     lane: NO_LANE,
///     event: FlitEvent::Injected { node: 9 },
/// });
/// let mut sink = RingBufferSink::new(16);
/// for &record in buf.records() {
///     sink.emit(record);
/// }
/// buf.clear();
/// assert!(buf.is_empty());
/// assert_eq!(sink.counts().injected, 1);
/// ```
#[derive(Debug, Clone, Default)]
pub struct TraceBuffer {
    records: Vec<TraceRecord>,
}

impl TraceBuffer {
    /// Append one record.
    #[inline]
    pub fn push(&mut self, record: TraceRecord) {
        self.records.push(record);
    }

    /// Discard every buffered record (capacity retained for the next
    /// tick).
    pub fn clear(&mut self) {
        self.records.clear();
    }

    /// The buffered records in push order, without draining — lets the
    /// flight recorder tee the buffer before it drains into the sink.
    pub fn records(&self) -> &[TraceRecord] {
        &self.records
    }

    /// Number of buffered records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }
}

/// The off switch: drops everything, compiled to nothing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NullSink;

impl TraceSink for NullSink {
    const ENABLED: bool = false;

    #[inline(always)]
    fn emit(&mut self, _record: TraceRecord) {}
}

/// A bounded in-memory sink: keeps the most recent `capacity` records
/// (oldest dropped first) plus never-dropping [`EventCounts`], so
/// count-based reconciliation stays exact even when the buffer wraps.
///
/// # Example
///
/// ```
/// use noc_telemetry::{FlitEvent, RingBufferSink, TraceRecord, TraceSink, NO_LANE};
/// let mut s = RingBufferSink::new(2);
/// for i in 0..3 {
///     s.emit(TraceRecord {
///         cycle: i,
///         flit: i,
///         ring: 0,
///         station: 0,
///         lane: NO_LANE,
///         event: FlitEvent::Injected { node: 0 },
///     });
/// }
/// assert_eq!(s.len(), 2);
/// assert_eq!(s.dropped(), 1);
/// assert_eq!(s.counts().injected, 3);
/// ```
#[derive(Debug, Clone)]
pub struct RingBufferSink {
    records: LastN<TraceRecord>,
    counts: EventCounts,
}

impl RingBufferSink {
    /// Create a sink retaining at most `capacity` records.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "ring buffer capacity must be positive");
        RingBufferSink {
            records: LastN::new(capacity),
            counts: EventCounts::default(),
        }
    }

    /// Retained records, oldest first.
    pub fn records(&self) -> impl Iterator<Item = &TraceRecord> {
        self.records.iter()
    }

    /// Retained records as a contiguous vector (oldest first).
    pub fn to_vec(&self) -> Vec<TraceRecord> {
        self.records.to_vec()
    }

    /// Number of retained records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether nothing is retained.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Records evicted to stay within capacity.
    pub fn dropped(&self) -> u64 {
        self.records.dropped()
    }

    /// Never-dropping per-kind totals.
    pub fn counts(&self) -> &EventCounts {
        &self.counts
    }

    /// Drop retained records (totals are kept).
    pub fn clear(&mut self) {
        self.records.clear();
    }
}

impl TraceSink for RingBufferSink {
    #[inline]
    fn emit(&mut self, record: TraceRecord) {
        self.counts.record(&record.event);
        self.records.push(record);
    }

    #[inline]
    fn emit_all(&mut self, records: &[TraceRecord]) {
        self.counts.record_all(records.iter().map(|r| &r.event));
        self.records.extend_from_slice(records);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{FlitEvent, NO_LANE};

    fn rec(cycle: u64, event: FlitEvent) -> TraceRecord {
        TraceRecord {
            cycle,
            flit: cycle,
            ring: 0,
            station: 0,
            lane: NO_LANE,
            event,
        }
    }

    #[test]
    fn null_sink_is_disabled() {
        // Read through the trait to keep the constant assertion from
        // being, well, constant-folded by clippy.
        fn enabled<S: TraceSink>(_: &S) -> bool {
            S::ENABLED
        }
        assert!(!enabled(&NullSink));
        let mut s = NullSink;
        s.emit(rec(0, FlitEvent::Injected { node: 0 }));
        s.flush();
    }

    #[test]
    fn ring_buffer_drops_oldest_keeps_counts() {
        let mut s = RingBufferSink::new(3);
        for i in 0..5 {
            s.emit(rec(i, FlitEvent::Deflected { target: 1 }));
        }
        assert_eq!(s.len(), 3);
        assert_eq!(s.dropped(), 2);
        assert_eq!(s.counts().deflected, 5);
        let cycles: Vec<u64> = s.records().map(|r| r.cycle).collect();
        assert_eq!(cycles, vec![2, 3, 4]);
        s.clear();
        assert!(s.is_empty());
        assert_eq!(s.counts().deflected, 5, "totals survive clear");
    }
}
