//! Basic protocol types: line addresses, transaction ids, MESI states
//! and message opcodes.

use serde::{Deserialize, Serialize};
use std::fmt;

/// A cache-line-aligned physical address (the line index, not the byte
/// address).
///
/// # Example
///
/// ```
/// use noc_chi::LineAddr;
/// // Byte address 0x1_0040 with 64-byte lines is line 0x401.
/// let a = LineAddr(0x1_0040 / 64);
/// assert_eq!(a, LineAddr(0x401));
/// // Lines interleave deterministically over the home slices.
/// assert!(a.interleave(8) < 8);
/// assert_eq!(a.interleave(8), LineAddr(0x401).interleave(8));
/// ```
#[derive(
    Debug, Default, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize,
)]
pub struct LineAddr(pub u64);

impl LineAddr {
    /// Deterministic interleave: which of `n` slices services this line.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn interleave(self, n: usize) -> usize {
        assert!(n > 0, "interleave over zero slices");
        // Multiplicative hash so strided streams spread evenly.
        ((self.0.wrapping_mul(0x9E37_79B9_7F4A_7C15)) >> 32) as usize % n
    }
}

impl fmt::Display for LineAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line:{:#x}", self.0)
    }
}

/// Identifies one coherence transaction.
#[derive(
    Debug, Default, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize,
)]
pub struct TxnId(pub u64);

impl fmt::Display for TxnId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "txn{}", self.0)
    }
}

/// MESI coherence state of a line in a requester's cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum MesiState {
    /// Modified: exclusive and dirty.
    Modified,
    /// Exclusive: sole copy, clean.
    Exclusive,
    /// Shared: possibly multiple copies, clean.
    Shared,
    /// Invalid: not present.
    Invalid,
}

impl MesiState {
    /// Whether this state permits reads without a coherence action.
    pub fn readable(self) -> bool {
        self != MesiState::Invalid
    }

    /// Whether this state permits writes without a coherence action.
    pub fn writable(self) -> bool {
        matches!(self, MesiState::Modified | MesiState::Exclusive)
    }
}

/// What a requester wants from a read.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ReadKind {
    /// ReadShared: the line will be read; S (or E if sole) suffices.
    Shared,
    /// ReadUnique: the line will be written; all other copies must go.
    Unique,
    /// ReadNoSnp: non-coherent read (I/O, uncached).
    NoSnp,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interleave_spreads_strided_streams() {
        let n = 8;
        let mut counts = vec![0u32; n];
        for i in 0..8000u64 {
            counts[LineAddr(i).interleave(n)] += 1;
        }
        for &c in &counts {
            assert!((800..1200).contains(&c), "imbalanced: {counts:?}");
        }
    }

    #[test]
    fn interleave_is_deterministic() {
        assert_eq!(LineAddr(42).interleave(6), LineAddr(42).interleave(6));
    }

    #[test]
    fn mesi_permissions() {
        assert!(MesiState::Modified.writable());
        assert!(MesiState::Exclusive.writable());
        assert!(!MesiState::Shared.writable());
        assert!(MesiState::Shared.readable());
        assert!(!MesiState::Invalid.readable());
    }

    #[test]
    fn display_formats() {
        assert_eq!(LineAddr(0x10).to_string(), "line:0x10");
        assert_eq!(TxnId(3).to_string(), "txn3");
    }
}
