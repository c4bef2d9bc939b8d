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
use std::io;

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
/// (possibly parallel) phase, and the engine drains the buffers into
/// the real sink **in ring order** at the tick's merge barrier. Records
/// within one shard keep their emission order, and the drain order is
/// fixed, so the sink observes a deterministic stream regardless of
/// execution mode or thread count.
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

/// Streams records as JSON Lines (one object per line) to any writer —
/// the unbounded-run counterpart of [`RingBufferSink`]. Also keeps
/// [`EventCounts`] for cheap end-of-run reconciliation.
///
/// # Error handling
///
/// Emission must never kill a run, so write failures are not
/// propagated from [`TraceSink::emit`]. They are *not* swallowed
/// either: every failed record is counted ([`JsonlSink::errors`]) and
/// the **first** I/O error is kept as a sticky state
/// ([`JsonlSink::error`]) that [`JsonlSink::finish`] surfaces — so a
/// truncated trace (disk full, broken pipe) becomes a hard failure at
/// end of run instead of a silently incomplete file.
///
/// # Example
///
/// ```
/// use noc_telemetry::{FlitEvent, JsonlSink, TraceRecord, TraceSink, NO_LANE};
/// let mut s = JsonlSink::new(Vec::new());
/// s.emit(TraceRecord {
///     cycle: 1,
///     flit: 0,
///     ring: 0,
///     station: 5,
///     lane: 0,
///     event: FlitEvent::Deflected { target: 3 },
/// });
/// s.finish().expect("no I/O error on a Vec");
/// let text = String::from_utf8(s.into_inner()).unwrap();
/// assert!(text.contains("Deflected"));
/// assert!(text.ends_with('\n'));
/// ```
#[derive(Debug)]
pub struct JsonlSink<W: io::Write> {
    writer: W,
    counts: EventCounts,
    /// Records that failed to serialize or write.
    errors: u64,
    /// First I/O error encountered, surfaced by [`JsonlSink::finish`].
    error: Option<io::Error>,
}

impl<W: io::Write> JsonlSink<W> {
    /// Wrap a writer. Use a `BufWriter` for file targets.
    pub fn new(writer: W) -> Self {
        JsonlSink {
            writer,
            counts: EventCounts::default(),
            errors: 0,
            error: None,
        }
    }

    /// Per-kind totals of everything emitted.
    pub fn counts(&self) -> &EventCounts {
        &self.counts
    }

    /// Records lost to serialization or I/O errors.
    pub fn errors(&self) -> u64 {
        self.errors
    }

    /// The sticky first I/O error, if any write or flush has failed.
    pub fn error(&self) -> Option<&io::Error> {
        self.error.as_ref()
    }

    /// Keep the first I/O failure as the sticky error state.
    fn record_io_error(&mut self, e: io::Error) {
        self.errors += 1;
        if self.error.is_none() {
            self.error = Some(e);
        }
    }

    /// Flush and surface the sticky error state: `Err` with the first
    /// I/O error if any record or flush failed since construction.
    /// Call at end of run; a dropped trace line means the file on disk
    /// is incomplete and should not be trusted.
    pub fn finish(&mut self) -> io::Result<()> {
        if let Err(e) = self.writer.flush() {
            self.record_io_error(e);
        }
        match self.error.take() {
            Some(e) => Err(e),
            None if self.errors > 0 => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("{} record(s) failed to serialize", self.errors),
            )),
            None => Ok(()),
        }
    }

    /// Unwrap the inner writer (flushing is the caller's concern —
    /// prefer [`JsonlSink::finish`] first).
    pub fn into_inner(self) -> W {
        self.writer
    }
}

impl<W: io::Write> TraceSink for JsonlSink<W> {
    fn emit(&mut self, record: TraceRecord) {
        self.counts.record(&record.event);
        match serde_json::to_string(&record) {
            Ok(line) => {
                if let Err(e) = writeln!(self.writer, "{line}") {
                    self.record_io_error(e);
                }
            }
            Err(_) => self.errors += 1,
        }
    }

    fn flush(&mut self) {
        if let Err(e) = self.writer.flush() {
            self.record_io_error(e);
        }
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

    #[test]
    fn jsonl_writes_one_line_per_record() {
        let mut s = JsonlSink::new(Vec::new());
        s.emit(rec(1, FlitEvent::Injected { node: 4 }));
        s.emit(rec(2, FlitEvent::Delivered { node: 5, class: 3 }));
        s.flush();
        assert_eq!(s.counts().delivered, 1);
        assert_eq!(s.errors(), 0);
        assert!(s.finish().is_ok());
        let text = String::from_utf8(s.into_inner()).unwrap();
        assert_eq!(text.lines().count(), 2);
        assert!(text.lines().all(|l| l.starts_with('{')));
    }

    /// A writer that accepts `good_for` bytes, then fails every write
    /// (and every flush) with `ErrorKind::Other` — a stand-in for a
    /// full disk or broken pipe mid-run.
    struct FailingWriter {
        good_for: usize,
        written: usize,
        flush_fails: bool,
    }

    impl io::Write for FailingWriter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            if self.written + buf.len() > self.good_for {
                return Err(io::Error::other("disk full"));
            }
            self.written += buf.len();
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            if self.flush_fails {
                Err(io::Error::other("flush failed"))
            } else {
                Ok(())
            }
        }
    }

    #[test]
    fn jsonl_write_failure_is_sticky_and_surfaced_by_finish() {
        let mut s = JsonlSink::new(FailingWriter {
            good_for: 0,
            written: 0,
            flush_fails: false,
        });
        s.emit(rec(1, FlitEvent::Injected { node: 4 }));
        s.emit(rec(2, FlitEvent::Injected { node: 5 }));
        // emit never panics or propagates, but the failures are counted
        // and the first error is latched.
        assert_eq!(s.errors(), 2);
        assert_eq!(s.error().expect("sticky error").to_string(), "disk full");
        assert_eq!(s.counts().injected, 2, "counts still track emissions");
        let err = s.finish().expect_err("finish surfaces the failure");
        assert_eq!(err.to_string(), "disk full", "first error wins");
    }

    #[test]
    fn jsonl_flush_failure_is_surfaced_by_finish() {
        let mut s = JsonlSink::new(FailingWriter {
            good_for: usize::MAX,
            written: 0,
            flush_fails: true,
        });
        s.emit(rec(1, FlitEvent::Injected { node: 4 }));
        assert_eq!(s.errors(), 0, "the write itself succeeded");
        let err = s.finish().expect_err("flush failure must not vanish");
        assert_eq!(err.to_string(), "flush failed");
        assert_eq!(s.errors(), 1);
    }
}
