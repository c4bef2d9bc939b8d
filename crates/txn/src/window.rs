//! Per-endpoint in-flight windows for non-posted transactions.
//!
//! Every endpoint may hold at most `cap` non-posted transactions (read,
//! non-posted write, atomic) awaiting a response. A full window
//! backpressures the submitter — the transaction is simply not
//! accepted this cycle — mirroring how a NIU with a bounded
//! transaction-ID table stalls new requests. Responses that arrive for
//! transactions no longer in the window (duplicates, or anything a
//! fault-injection hook crafted) are rejected rather than corrupting a
//! live slot.

use noc_sim::IdSet;

/// Bounded set of transaction ids awaiting responses at one endpoint.
#[derive(Debug, Clone)]
pub struct InFlightWindow {
    cap: usize,
    /// Keyed lookups only (`pending_txns` sorts).
    pending: IdSet<u64>,
    /// Slots ever released (monotonic) — the wait-graph detector's
    /// progress counter for this window: occupied slots with no
    /// completions across consecutive samples mean the window is
    /// frozen behind something.
    completions: u64,
}

impl InFlightWindow {
    /// A window admitting at most `cap` concurrent non-posted
    /// transactions.
    pub fn new(cap: usize) -> Self {
        InFlightWindow {
            cap,
            pending: IdSet::with_capacity_and_hasher(cap, Default::default()),
            completions: 0,
        }
    }

    /// Whether the window has no free slot.
    pub fn is_full(&self) -> bool {
        self.pending.len() >= self.cap
    }

    /// Occupied slots.
    pub fn occupancy(&self) -> usize {
        self.pending.len()
    }

    /// Capacity.
    pub fn cap(&self) -> usize {
        self.cap
    }

    /// Claim a slot for `txn`. Returns `false` (and changes nothing)
    /// when the window is full — the backpressure path.
    pub fn try_reserve(&mut self, txn: u64) -> bool {
        if self.is_full() {
            return false;
        }
        let fresh = self.pending.insert(txn);
        debug_assert!(fresh, "transaction {txn} reserved twice");
        fresh
    }

    /// Release the slot of `txn` on response arrival. Returns `false`
    /// when `txn` holds no slot — a late or duplicate response that
    /// must be dropped.
    pub fn complete(&mut self, txn: u64) -> bool {
        let released = self.pending.remove(&txn);
        self.completions += u64::from(released);
        released
    }

    /// Slots ever released since construction (monotonic).
    pub fn completions(&self) -> u64 {
        self.completions
    }

    /// Transaction ids currently holding slots, ascending (sorted, so
    /// the id set's iteration order never shows).
    pub fn pending_txns(&self) -> Vec<u64> {
        let mut v: Vec<u64> = self.pending.iter().copied().collect();
        v.sort_unstable();
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fills_then_backpressures() {
        let mut w = InFlightWindow::new(2);
        assert!(w.try_reserve(1));
        assert!(w.try_reserve(2));
        assert!(w.is_full());
        assert!(!w.try_reserve(3), "full window must refuse, not panic");
        assert_eq!(w.occupancy(), 2);
        assert!(w.complete(1));
        assert!(!w.is_full());
        assert!(w.try_reserve(3));
    }

    #[test]
    fn late_and_duplicate_responses_are_rejected() {
        let mut w = InFlightWindow::new(4);
        assert!(w.try_reserve(7));
        assert!(w.complete(7));
        assert!(!w.complete(7), "duplicate response must be rejected");
        assert!(!w.complete(99), "unknown transaction must be rejected");
        assert_eq!(w.occupancy(), 0);
    }

    #[test]
    fn zero_capacity_window_refuses_everything() {
        let mut w = InFlightWindow::new(0);
        assert!(w.is_full());
        assert!(!w.try_reserve(1));
    }
}
