//! Traffic trace record & replay.
//!
//! The paper's AI-processor bandwidth experiments "use AI-processor's
//! instruction trace record as NoC's input" (§5.2). This module provides
//! the equivalent facility: capture `(cycle, src, dst, class, bytes)`
//! events from any traffic source and serialize them; a harness replays
//! [`Trace::events`] in cycle order into any interconnect.

use noc_core::FlitClass;
use serde::{Deserialize, Serialize};

/// One recorded injection event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceEvent {
    /// Cycle at which the event was offered.
    pub cycle: u64,
    /// Source endpoint index.
    pub src: usize,
    /// Destination endpoint index.
    pub dst: usize,
    /// Message class.
    pub class: FlitClass,
    /// Payload bytes.
    pub bytes: u32,
}

/// An ordered event trace.
///
/// # Example
///
/// ```
/// use noc_workloads::{Trace, TraceEvent};
/// use noc_core::FlitClass;
///
/// let mut t = Trace::new();
/// t.record(TraceEvent { cycle: 3, src: 0, dst: 1, class: FlitClass::Data, bytes: 64 });
/// t.record(TraceEvent { cycle: 5, src: 1, dst: 0, class: FlitClass::Response, bytes: 8 });
/// let json = t.to_json().unwrap();
/// let back = Trace::from_json(&json).unwrap();
/// assert_eq!(back.len(), 2);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Trace {
    events: Vec<TraceEvent>,
}

impl Trace {
    /// An empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append an event. Events must be recorded in non-decreasing cycle
    /// order.
    ///
    /// # Panics
    ///
    /// Panics if `event.cycle` precedes the last recorded cycle.
    pub fn record(&mut self, event: TraceEvent) {
        if let Some(last) = self.events.last() {
            assert!(
                event.cycle >= last.cycle,
                "trace events must be time-ordered"
            );
        }
        self.events.push(event);
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// All events, time-ordered.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Last event cycle (0 when empty).
    pub fn duration(&self) -> u64 {
        self.events.last().map_or(0, |e| e.cycle)
    }

    /// Total payload bytes across events.
    pub fn total_bytes(&self) -> u64 {
        self.events.iter().map(|e| u64::from(e.bytes)).sum()
    }

    /// Serialize to JSON.
    ///
    /// # Errors
    ///
    /// Propagates serializer errors (practically infallible for this
    /// type).
    pub fn to_json(&self) -> Result<String, serde_json::Error> {
        serde_json::to_string(self)
    }

    /// Deserialize from JSON.
    ///
    /// # Errors
    ///
    /// Fails on malformed input or out-of-order events.
    pub fn from_json(s: &str) -> Result<Self, serde_json::Error> {
        let t: Trace = serde_json::from_str(s)?;
        Ok(t)
    }
}

impl FromIterator<TraceEvent> for Trace {
    fn from_iter<I: IntoIterator<Item = TraceEvent>>(iter: I) -> Self {
        let mut t = Trace::new();
        for e in iter {
            t.record(e);
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(cycle: u64, src: usize, dst: usize) -> TraceEvent {
        TraceEvent {
            cycle,
            src,
            dst,
            class: FlitClass::Data,
            bytes: 64,
        }
    }

    #[test]
    fn record_and_query() {
        let t: Trace = [ev(1, 0, 1), ev(4, 1, 2), ev(4, 2, 0)]
            .into_iter()
            .collect();
        assert_eq!(t.len(), 3);
        assert_eq!(t.duration(), 4);
        assert_eq!(t.total_bytes(), 192);
        assert!(!t.is_empty());
    }

    #[test]
    #[should_panic(expected = "time-ordered")]
    fn rejects_out_of_order() {
        let mut t = Trace::new();
        t.record(ev(5, 0, 1));
        t.record(ev(3, 0, 1));
    }

    #[test]
    fn json_roundtrip() {
        let t: Trace = [ev(0, 0, 1), ev(2, 1, 0)].into_iter().collect();
        let back = Trace::from_json(&t.to_json().unwrap()).unwrap();
        assert_eq!(t, back);
    }
}
