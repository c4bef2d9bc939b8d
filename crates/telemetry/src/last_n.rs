//! The bounded stores behind every "keep the last N" buffer in this
//! crate. [`LastN`], a ring, holds the trace sink, the flight
//! recorder's event ring and the span collector's recent trees.
//! [`Series`] holds the committed series readers take as one slice: the
//! metrics registry's snapshots and the transaction series. It is the
//! one retention rule of those series: a window
//! fixed when the store is built ([`SERIES_WINDOW`] unless the owner
//! sizes it), a commit count, and `since(seq)` for a reader that wants
//! the whole series as it is committed.
//!
//! A [`LastN`] is a `Vec` that grows to its capacity once and is then
//! written in place: a push at capacity overwrites the oldest element
//! and advances a head index, and counts the eviction, so each store
//! reads its `dropped` total from here instead of keeping its own.
//! Against a `VecDeque` used the same way (`pop_front` + `push_back`)
//! this measured −1.6 … −1.9 % host time on `torus4_txn_observed`
//! (EXPERIMENTS.md "Observe once").

/// The last `capacity` elements pushed, oldest first.
#[derive(Debug, Clone)]
pub(crate) struct LastN<T> {
    buf: Vec<T>,
    capacity: usize,
    /// Index of the oldest element once `buf` is full; 0 before.
    head: usize,
    /// Elements overwritten (or, at capacity 0, refused).
    dropped: u64,
}

impl<T> LastN<T> {
    /// An empty store keeping at most `capacity` elements (0 keeps none
    /// and counts every push as dropped). At most 4096 slots are
    /// reserved up front; past that the store grows as it fills, so a
    /// generous capacity costs nothing on a short run.
    pub fn new(capacity: usize) -> Self {
        LastN {
            buf: Vec::with_capacity(capacity.min(4096)),
            capacity,
            head: 0,
            dropped: 0,
        }
    }

    /// Append `value`, overwriting the oldest element at capacity.
    #[inline]
    pub fn push(&mut self, value: T) {
        if self.buf.len() < self.capacity {
            self.buf.push(value);
            return;
        }
        self.dropped += 1;
        if let Some(slot) = self.buf.get_mut(self.head) {
            *slot = value;
            self.head += 1;
            if self.head == self.capacity {
                self.head = 0;
            }
        }
    }

    /// Retained elements, oldest first.
    pub fn iter(&self) -> impl DoubleEndedIterator<Item = &T> + Clone {
        let (newest, oldest) = self.buf.split_at(self.head);
        oldest.iter().chain(newest)
    }

    /// Number of retained elements.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing is retained.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Elements evicted (or refused, at capacity 0) so far.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Drop every retained element; the `dropped` total is kept.
    pub fn clear(&mut self) {
        self.buf.clear();
        self.head = 0;
    }
}

impl<T: Clone> LastN<T> {
    /// [`LastN::push`] a copy of every element of `items`, in order.
    #[inline]
    pub fn extend_from_slice(&mut self, items: &[T]) {
        for item in items {
            self.push(item.clone());
        }
    }

    /// Retained elements as a contiguous vector, oldest first.
    pub fn to_vec(&self) -> Vec<T> {
        let (newest, oldest) = self.buf.split_at(self.head);
        let mut out = Vec::with_capacity(self.buf.len());
        out.extend_from_slice(oldest);
        out.extend_from_slice(newest);
        out
    }
}

/// The window every committed telemetry series keeps unless it is
/// built with another: the metrics registry without a flight recorder,
/// the transaction series and the recorder's snapshot window
/// ([`RecorderConfig`](crate::RecorderConfig)).
pub const SERIES_WINDOW: usize = 32;

/// A committed series: the last `keep` elements pushed, oldest first,
/// as one contiguous slice, and the count of every element ever
/// pushed. `keep` is fixed when the store is built, so memory is
/// bounded by configuration, not by run length; a reader that needs
/// the whole series polls [`Series::since`] as it is committed.
///
/// The live tail is `buf[start..]`. An element that leaves the window
/// is replaced by `T::default()` at once, so what it owned on the heap
/// is freed then; the emptied prefix is compacted away once it is
/// `keep` long. Each compaction moves the `keep` live elements, so a
/// push costs amortised O(1) and the buffer never holds more than
/// `2·keep` shells.
#[derive(Debug, Clone)]
pub(crate) struct Series<T> {
    buf: Vec<T>,
    /// Length of the evicted, emptied prefix of `buf`.
    start: usize,
    keep: usize,
    /// Elements ever pushed, retained or evicted: the next sequence
    /// number.
    committed: u64,
}

impl<T: Default> Series<T> {
    /// An empty series keeping the newest `max(keep, 1)` elements, so
    /// the latest one always stays readable.
    pub fn new(keep: usize) -> Self {
        Series {
            buf: Vec::new(),
            start: 0,
            keep: keep.max(1),
            committed: 0,
        }
    }

    /// Commit `value`, evicting the oldest element past `keep`, and
    /// return it as retained.
    pub fn push(&mut self, value: T) -> &T {
        self.buf.push(value);
        self.committed += 1;
        if self.len() > self.keep {
            self.buf[self.start] = T::default();
            self.start += 1;
            if self.start >= self.keep {
                self.buf.drain(..self.start);
                self.start = 0;
            }
        }
        self.buf.last().expect("just pushed")
    }

    /// The retained elements, oldest first.
    pub fn as_slice(&self) -> &[T] {
        &self.buf[self.start..]
    }

    /// Number of retained elements.
    pub fn len(&self) -> usize {
        self.buf.len() - self.start
    }

    /// Elements ever committed, retained or evicted.
    pub fn committed(&self) -> u64 {
        self.committed
    }

    /// The elements from sequence number `seq` (the 0-based commit
    /// index) on, oldest first — empty once `seq` reaches
    /// [`Series::committed`] — or `None` if one of them was already
    /// evicted. Polling again from the `committed()` of the previous
    /// poll reads the series as it is committed.
    pub fn since(&self, seq: u64) -> Option<&[T]> {
        let tail = self.as_slice();
        let first = self.committed - tail.len() as u64;
        let skip = seq.checked_sub(first)?.min(tail.len() as u64);
        Some(&tail[skip as usize..])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{FlitEvent, TraceRecord, NO_LANE};
    use crate::metrics::MetricsRegistry;
    use crate::recorder::{FlightRecorder, RecorderConfig};
    use crate::sink::{RingBufferSink, TraceSink};
    use proptest::prelude::*;
    use std::collections::VecDeque;

    fn rec(i: u64) -> TraceRecord {
        TraceRecord {
            cycle: i,
            flit: i,
            ring: 0,
            station: 0,
            lane: NO_LANE,
            event: FlitEvent::Injected { node: 0 },
        }
    }

    /// A `VecDeque` popped at the front when full, as the model.
    struct Model {
        capacity: usize,
        items: VecDeque<u64>,
        dropped: u64,
    }

    impl Model {
        fn push(&mut self, v: u64) {
            if self.items.len() == self.capacity {
                self.items.pop_front();
                self.dropped += 1;
            }
            self.items.push_back(v);
        }
    }

    /// Everything a reader can observe of a store or sink: retained
    /// values in order (iterated, then copied out), length and the
    /// dropped total.
    type Seen = (Vec<u64>, Vec<u64>, usize, u64);

    fn of_model(m: &Model) -> Seen {
        let v: Vec<u64> = m.items.iter().copied().collect();
        (v.clone(), v, m.items.len(), m.dropped)
    }

    fn of_store(r: &LastN<u64>) -> Seen {
        (
            r.iter().copied().collect(),
            r.to_vec(),
            r.len(),
            r.dropped(),
        )
    }

    fn of_sink(s: &RingBufferSink) -> Seen {
        let cycles = |v: &[TraceRecord]| v.iter().map(|r| r.cycle).collect();
        let iterated: Vec<TraceRecord> = s.records().copied().collect();
        (cycles(&iterated), cycles(&s.to_vec()), s.len(), s.dropped())
    }

    /// One of each store, fed either per element or in runs.
    struct Stores {
        store: LastN<u64>,
        sink: RingBufferSink,
        recorder: FlightRecorder,
    }

    impl Stores {
        fn new(capacity: usize) -> Self {
            Stores {
                store: LastN::new(capacity),
                sink: RingBufferSink::new(capacity),
                recorder: FlightRecorder::new(RecorderConfig {
                    event_window: capacity,
                    ..RecorderConfig::default()
                }),
            }
        }

        fn push(&mut self, i: u64) {
            self.store.push(i);
            self.sink.emit(rec(i));
            self.recorder.record_events(&[rec(i)]);
        }

        fn extend(&mut self, run: &[u64]) {
            let records: Vec<TraceRecord> = run.iter().map(|&i| rec(i)).collect();
            self.store.extend_from_slice(run);
            self.sink.emit_all(&records);
            self.recorder.record_events(&records);
        }

        fn clear(&mut self) {
            self.store.clear();
            self.sink.clear();
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]
        /// The store, the trace sink and the recorder's event ring agree
        /// with the model — order, `len`, `dropped`, `last` and
        /// `to_vec` — whether fed one element at a time or in runs of
        /// `run`, with a `clear` anywhere in the stream.
        #[test]
        fn bounded_stores_match_the_model(
            capacity in 1usize..6,
            pushes in 0usize..41,
            clear_at in 0usize..48,
            run in 1usize..8,
        ) {
            let mut model = Model { capacity, items: VecDeque::new(), dropped: 0 };
            let mut single = Stores::new(capacity);
            let mut batched = Stores::new(capacity);
            let mut pending: Vec<u64> = Vec::new();
            for i in 0..pushes as u64 {
                if i as usize == clear_at {
                    batched.extend(&pending);
                    pending.clear();
                    prop_assert_eq!(of_store(&batched.store), of_model(&model));
                    model.items.clear();
                    single.clear();
                    batched.clear();
                }
                model.push(i);
                single.push(i);
                pending.push(i);
                if pending.len() == run {
                    batched.extend(&pending);
                    pending.clear();
                    prop_assert_eq!(of_store(&batched.store), of_model(&model));
                    prop_assert_eq!(of_sink(&batched.sink), of_model(&model));
                }
                prop_assert_eq!(of_store(&single.store), of_model(&model));
                prop_assert_eq!(of_sink(&single.sink), of_model(&model));
                prop_assert_eq!(single.sink.is_empty(), model.items.is_empty());
                prop_assert_eq!(single.sink.counts().injected, i + 1);
            }
            batched.extend(&pending);
            prop_assert_eq!(of_store(&batched.store), of_model(&model));
            prop_assert_eq!(of_sink(&batched.sink), of_model(&model));
            prop_assert_eq!(batched.sink.counts(), single.sink.counts());
            // The recorders are never cleared: each keeps the last
            // `capacity` events of the whole stream.
            let tail: Vec<u64> = (0..pushes as u64).skip(pushes.saturating_sub(capacity)).collect();
            let registry = MetricsRegistry::new(1, 1);
            for recorder in [&single.recorder, &batched.recorder] {
                let view = recorder.view(&registry);
                let kept: Vec<u64> = view.events().map(|r| r.cycle).collect();
                prop_assert_eq!(kept, tail.clone());
                prop_assert_eq!(view.events_seen(), pushes as u64);
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]
        /// The series holds exactly the model's newest `max(keep, 1)`
        /// elements after every push, and never more than `2·keep`
        /// slots, the emptied prefix included; `committed` counts every
        /// push and `since` returns the model's elements from a
        /// sequence number on, or `None` once the first was evicted.
        #[test]
        fn the_slice_store_holds_exactly_its_window(
            keep in 0usize..6,
            pushes in 0usize..41,
            from in 0u64..48,
        ) {
            let window = keep.max(1);
            let mut model = Model { capacity: window, items: VecDeque::new(), dropped: 0 };
            let mut store = Series::new(keep);
            for i in 0..pushes as u64 {
                // From 1, so an emptied slot (0) is told from a value.
                model.push(i + 1);
                prop_assert_eq!(*store.push(i + 1), i + 1);
                let held: Vec<u64> = model.items.iter().copied().collect();
                prop_assert_eq!(store.as_slice(), held.as_slice());
                prop_assert_eq!(store.len(), held.len());
                prop_assert_eq!(store.committed(), i + 1);
                prop_assert!(store.buf.len() <= 2 * window);
                prop_assert!(store.buf[..store.start].iter().all(|&v| v == 0));
                // Element `seq` holds the value `seq + 1`.
                let first = i + 1 - held.len() as u64;
                let want: Vec<u64> = (from.max(first)..=i).map(|s| s + 1).collect();
                let got = store.since(from);
                prop_assert_eq!(got.is_none(), from < first);
                if let Some(got) = got {
                    prop_assert_eq!(got, want.as_slice());
                }
            }
        }
    }

    #[test]
    fn zero_capacity_keeps_nothing_and_counts_every_push() {
        let mut r = LastN::new(0);
        for i in 0..3u64 {
            r.push(i);
        }
        r.extend_from_slice(&[3, 4]);
        assert!(r.is_empty());
        assert_eq!(r.dropped(), 5);
        assert!(r.to_vec().is_empty());
    }
}
