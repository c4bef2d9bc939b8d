//! Transaction vocabulary: operations, identifiers, completions,
//! configuration and the layer's counter block.

use crate::packet::FLIT_BYTES;
use noc_core::NodeId;
use noc_sim::Cycle;
use serde::{Deserialize, Serialize};

/// Identifier of one transaction, unique per [`TxnFabric`] in
/// allocation order.
///
/// [`TxnFabric`]: crate::TxnFabric
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct TxnId(pub u64);

impl std::fmt::Display for TxnId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// A remote atomic operation on the destination endpoint's 64-bit
/// atomic cell. All atomics are fetch-ops: the response carries the
/// cell value *before* the operation (Blackhole-style remote atomics).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum AtomicKind {
    /// `cell += operand` (wrapping).
    Accumulate(u64),
    /// `cell = operand`.
    Swap(u64),
    /// `cell += 1` (wrapping).
    Increment,
    /// `if cell == expected { cell = desired }`.
    CompareSwap {
        /// Value the cell must hold for the swap to take effect.
        expected: u64,
        /// Value written on a successful compare.
        desired: u64,
    },
}

impl AtomicKind {
    /// Apply to a cell, returning the pre-op value (the fetch result).
    pub fn apply(self, cell: &mut u64) -> u64 {
        let before = *cell;
        match self {
            AtomicKind::Accumulate(v) => *cell = cell.wrapping_add(v),
            AtomicKind::Swap(v) => *cell = v,
            AtomicKind::Increment => *cell = cell.wrapping_add(1),
            AtomicKind::CompareSwap { expected, desired } => {
                if before == expected {
                    *cell = desired;
                }
            }
        }
        before
    }
}

/// A point-to-point transaction offered to [`TxnFabric::submit`].
///
/// [`TxnFabric::submit`]: crate::TxnFabric::submit
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TxnOp {
    /// Non-posted read of `bytes` from the destination; the response
    /// carries the data back.
    Read {
        /// Bytes requested.
        bytes: u32,
    },
    /// Write of `bytes` to the destination. Posted writes complete at
    /// delivery; non-posted writes complete when the ack returns.
    Write {
        /// Bytes carried.
        bytes: u32,
        /// Whether the write is posted (no acknowledgement).
        posted: bool,
    },
    /// Non-posted remote atomic on the destination's atomic cell.
    Atomic(AtomicKind),
}

impl TxnOp {
    /// Whether the operation needs a response (occupies a window slot).
    pub fn non_posted(self) -> bool {
        !matches!(self, TxnOp::Write { posted: true, .. })
    }

    /// Request-direction payload bytes.
    pub fn bytes(self) -> u32 {
        match self {
            TxnOp::Read { .. } | TxnOp::Atomic(_) => 0,
            TxnOp::Write { bytes, .. } => bytes,
        }
    }
}

/// What kind of transaction a completion records.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TxnKind {
    /// Non-posted read.
    Read,
    /// Posted write (completes at delivery).
    WritePosted,
    /// Non-posted write (completes at ack).
    WriteNonPosted,
    /// Remote atomic.
    Atomic,
    /// Broadcast to a station set.
    Broadcast,
}

/// One finished transaction, reported in completion order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TxnCompletion {
    /// The transaction.
    pub txn: TxnId,
    /// What it was.
    pub kind: TxnKind,
    /// Issuing endpoint.
    pub src: NodeId,
    /// Destination endpoint (for broadcasts: the root's first target).
    pub dst: NodeId,
    /// Payload bytes moved in the request direction (for reads: bytes
    /// returned in the response direction).
    pub bytes: u32,
    /// Cycle the transaction was accepted by [`TxnFabric::submit`].
    ///
    /// [`TxnFabric::submit`]: crate::TxnFabric::submit
    pub issued_at: Cycle,
    /// Cycle the transaction completed.
    pub completed_at: Cycle,
    /// Fetch result for atomics (`None` otherwise).
    pub atomic_result: Option<u64>,
}

impl TxnCompletion {
    /// End-to-end latency in cycles.
    pub fn latency(&self) -> u64 {
        self.completed_at.since(self.issued_at)
    }
}

/// Why a submission was rejected outright (distinct from backpressure,
/// which is the `Ok(None)` path).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TxnError {
    /// Source or destination is not a device endpoint of the fabric.
    BadEndpoint(NodeId),
    /// Source equals destination.
    SelfSend(NodeId),
    /// A broadcast was submitted with no targets besides the root.
    EmptyBroadcast,
    /// A broadcast payload exceeds one packet
    /// (`FLIT_BYTES * max_data_flits`).
    BroadcastTooLarge {
        /// Bytes requested.
        bytes: u32,
        /// Largest allowed payload.
        max: u32,
    },
}

impl std::fmt::Display for TxnError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TxnError::BadEndpoint(n) => write!(f, "{n} is not a device endpoint"),
            TxnError::SelfSend(n) => write!(f, "{n} cannot transact with itself"),
            TxnError::EmptyBroadcast => write!(f, "broadcast has no targets"),
            TxnError::BroadcastTooLarge { bytes, max } => {
                write!(f, "broadcast of {bytes} B exceeds one packet ({max} B)")
            }
        }
    }
}

impl std::error::Error for TxnError {}

/// Transaction-layer configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TxnConfig {
    /// Maximum data flits per packet (Blackhole: 256, i.e. 16 KiB).
    pub max_data_flits: u16,
    /// Per-endpoint cap on in-flight non-posted transactions. A full
    /// window backpressures `submit` into the `Ok(None)` path.
    pub window: usize,
    /// Sample a transaction-metrics snapshot every this many cycles
    /// (0 disables the observatory hook).
    pub metrics_period: u64,
    /// Per-endpoint reassembly credits: how many request packets may be
    /// concurrently admitted *toward* one endpoint. The admission pump
    /// reserves a credit at the responder before releasing a request
    /// packet's header flit and the credit returns when that packet
    /// finishes reassembly, so inbound demand can never pile up
    /// unboundedly on the rings around a hot destination — the
    /// saturation pattern that wedges a multi-ring fabric (full rings +
    /// full escape buffers in a cyclic wait SWAP cannot break).
    /// Responses and broadcast forwards are never credit-gated (gating
    /// them could deadlock the windows waiting on them). `0` disables
    /// crediting (legacy admission).
    pub reassembly_slots: usize,
}

impl Default for TxnConfig {
    fn default() -> Self {
        TxnConfig {
            max_data_flits: 256,
            window: 8,
            metrics_period: 0,
            reassembly_slots: 0,
        }
    }
}

impl TxnConfig {
    /// Largest payload one packet can carry.
    pub fn packet_capacity(&self) -> u32 {
        FLIT_BYTES * u32::from(self.max_data_flits)
    }
}

/// Monotonic counters over the fabric's lifetime. All values are part
/// of the transaction-layer fingerprint, so any cross-engine divergence
/// in packetization, reassembly or windowing shows up as a mismatch.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct TxnCounters {
    /// Transactions accepted by `submit`/`submit_broadcast`.
    pub submitted: u64,
    /// Messages accepted by `submit_message`.
    pub messages_submitted: u64,
    /// Submissions refused with `Ok(None)` (window or staging full).
    pub backpressured: u64,
    /// Completed reads.
    pub reads: u64,
    /// Completed posted writes.
    pub writes_posted: u64,
    /// Completed non-posted writes.
    pub writes_non_posted: u64,
    /// Completed atomics.
    pub atomics: u64,
    /// Completed broadcasts.
    pub broadcasts: u64,
    /// Delivered messages.
    pub messages: u64,
    /// Packets fully reassembled anywhere in the fabric.
    pub packets_reassembled: u64,
    /// Flits handed to the network.
    pub flits_sent: u64,
    /// Payload bytes handed to the network (headers included).
    pub bytes_sent: u64,
    /// Flits whose token matched no live packet (dropped).
    pub stray_flits: u64,
    /// Flits repeating an already-received packet sequence (dropped).
    pub duplicate_flits: u64,
    /// Always 0. A response is counted only when it reaches a live
    /// transaction, and every live non-posted transaction holds its
    /// window slot until its last response, so no response arrives
    /// late; a flit for a finished packet counts in `stray_flits`. The
    /// field keeps its place because [`TxnCounters::digest`] (and so
    /// every pinned fingerprint) hashes by position.
    pub late_responses: u64,
    /// Pump passes that paused an endpoint because the responder's
    /// reassembly credits were exhausted
    /// ([`TxnConfig::reassembly_slots`]).
    pub reassembly_deferred: u64,
}

impl TxnCounters {
    /// Completed transactions of all kinds (messages excluded).
    pub fn completed(&self) -> u64 {
        self.reads + self.writes_posted + self.writes_non_posted + self.atomics + self.broadcasts
    }

    /// Flatten into fingerprint words.
    pub fn digest(&self) -> Vec<u64> {
        vec![
            self.submitted,
            self.messages_submitted,
            self.backpressured,
            self.reads,
            self.writes_posted,
            self.writes_non_posted,
            self.atomics,
            self.broadcasts,
            self.messages,
            self.packets_reassembled,
            self.flits_sent,
            self.bytes_sent,
            self.stray_flits,
            self.duplicate_flits,
            self.late_responses,
            self.reassembly_deferred,
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn atomic_apply_is_fetch_op() {
        let mut cell = 10;
        assert_eq!(AtomicKind::Accumulate(5).apply(&mut cell), 10);
        assert_eq!(cell, 15);
        assert_eq!(AtomicKind::Swap(2).apply(&mut cell), 15);
        assert_eq!(cell, 2);
        assert_eq!(AtomicKind::Increment.apply(&mut cell), 2);
        assert_eq!(cell, 3);
        assert_eq!(
            AtomicKind::CompareSwap {
                expected: 3,
                desired: 99
            }
            .apply(&mut cell),
            3
        );
        assert_eq!(cell, 99);
        // Failed compare leaves the cell untouched but still fetches.
        assert_eq!(
            AtomicKind::CompareSwap {
                expected: 0,
                desired: 1
            }
            .apply(&mut cell),
            99
        );
        assert_eq!(cell, 99);
    }

    #[test]
    fn op_posting_rules() {
        assert!(TxnOp::Read { bytes: 64 }.non_posted());
        assert!(TxnOp::Atomic(AtomicKind::Increment).non_posted());
        assert!(TxnOp::Write {
            bytes: 64,
            posted: false
        }
        .non_posted());
        assert!(!TxnOp::Write {
            bytes: 64,
            posted: true
        }
        .non_posted());
    }

    #[test]
    fn default_config_matches_blackhole_shape() {
        let c = TxnConfig::default();
        assert_eq!(c.max_data_flits, 256);
        assert_eq!(c.packet_capacity(), 16 * 1024);
    }

    #[test]
    fn counters_digest_covers_every_field() {
        // 16 public u64 fields — the digest must track them all.
        let c = TxnCounters {
            submitted: 1,
            messages_submitted: 2,
            backpressured: 3,
            reads: 4,
            writes_posted: 5,
            writes_non_posted: 6,
            atomics: 7,
            broadcasts: 8,
            messages: 9,
            packets_reassembled: 10,
            flits_sent: 11,
            bytes_sent: 12,
            stray_flits: 13,
            duplicate_flits: 14,
            late_responses: 15,
            reassembly_deferred: 16,
        };
        let d = c.digest();
        assert_eq!(d.len(), 16);
        assert_eq!(d, (1..=16).collect::<Vec<u64>>());
        assert_eq!(c.completed(), 4 + 5 + 6 + 7 + 8);
    }
}
