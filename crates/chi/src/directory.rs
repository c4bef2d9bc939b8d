//! The home node's coherence directory.

use crate::types::LineAddr;
use noc_core::NodeId;
use noc_sim::IdMap;
use std::sync::Arc;

/// The most requesters a directory can name: one bit each in the
/// [`DirState::Shared`] mask.
pub const MAX_REQUESTERS: usize = 128;

/// Directory state of one line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DirState {
    /// No coherent copies exist.
    Invalid,
    /// One or more clean shared copies: bit *i* is set when the
    /// requester of rank *i* (the *i*-th in ascending `NodeId`) holds
    /// one.
    Shared(u128),
    /// A single requester owns the line (M or E).
    Owned(NodeId),
}

/// What [`Directory`] stores for a held line: the sharer mask as two
/// `u64` words (ranks 0–63 in the first, 64–127 in the second), or the
/// owner. A [`DirState`] is 32 bytes because its `u128` is 16-aligned,
/// which pads a `(LineAddr, DirState)` bucket to 48 bytes; this is 24
/// bytes and 8-aligned, so a bucket is 32.
#[derive(Debug, Clone, Copy)]
enum Held {
    Shared([u64; 2]),
    Owned(NodeId),
}

impl Held {
    fn shared(mask: u128) -> Self {
        Held::Shared([mask as u64, (mask >> 64) as u64])
    }

    fn state(self) -> DirState {
        match self {
            Held::Shared([lo, hi]) => DirState::Shared(u128::from(lo) | u128::from(hi) << 64),
            Held::Owned(owner) => DirState::Owned(owner),
        }
    }
}

/// Tracks, per line, which requesters hold copies — the "L3 tag" half of
/// the paper's hybrid L3 design.
///
/// A line no requester holds has no entry; [`Directory::state`] reads
/// it as [`DirState::Invalid`].
///
/// # Example
///
/// ```
/// use noc_chi::{Directory, DirState, LineAddr};
/// use noc_core::NodeId;
/// let mut d = Directory::new(vec![NodeId(3), NodeId(5)].into());
/// d.set_owner(LineAddr(1), NodeId(3));
/// assert_eq!(d.state(LineAddr(1)), DirState::Owned(NodeId(3)));
/// d.add_sharer(LineAddr(1), NodeId(5));
/// assert!(d.holders(LineAddr(1)).eq([NodeId(3), NodeId(5)]));
/// ```
#[derive(Debug, Clone)]
pub struct Directory {
    /// Rank → requester, ascending `NodeId`.
    ranked: Arc<[NodeId]>,
    /// Keyed lookups only (`len` is the map's own count).
    lines: IdMap<LineAddr, Held>,
}

impl Directory {
    /// Empty directory over the requesters in `ranked`, which must be in
    /// strictly ascending `NodeId` order: a requester's position there is
    /// its rank, its bit in a [`DirState::Shared`] mask.
    ///
    /// # Panics
    ///
    /// Panics if `ranked` is not strictly ascending or names more than
    /// [`MAX_REQUESTERS`] requesters.
    pub fn new(ranked: Arc<[NodeId]>) -> Self {
        assert!(
            ranked.len() <= MAX_REQUESTERS,
            "{} requesters, a directory names at most {MAX_REQUESTERS}",
            ranked.len()
        );
        assert!(
            ranked.windows(2).all(|w| w[0] < w[1]),
            "requesters must be ranked in strictly ascending NodeId"
        );
        Directory {
            ranked,
            lines: IdMap::default(),
        }
    }

    /// The bit of requester `node` in a [`DirState::Shared`] mask.
    fn bit(&self, node: NodeId) -> u128 {
        let rank = self
            .ranked
            .binary_search(&node)
            .unwrap_or_else(|_| panic!("{node} is not a ranked requester"));
        1 << rank
    }

    /// Current state of a line (Invalid if no requester holds it).
    pub fn state(&self, addr: LineAddr) -> DirState {
        self.lines
            .get(&addr)
            .map_or(DirState::Invalid, |h| h.state())
    }

    /// Record `owner` as the sole (M/E) holder.
    pub fn set_owner(&mut self, addr: LineAddr, owner: NodeId) {
        self.lines.insert(addr, Held::Owned(owner));
    }

    /// Add a sharer, demoting an owner if present.
    ///
    /// # Panics
    ///
    /// Panics if `sharer`, or the owner it demotes, is not ranked.
    pub fn add_sharer(&mut self, addr: LineAddr, sharer: NodeId) {
        let held = match self.state(addr) {
            DirState::Invalid => 0,
            DirState::Shared(mask) => mask,
            DirState::Owned(owner) => self.bit(owner),
        };
        let mask = held | self.bit(sharer);
        self.lines.insert(addr, Held::shared(mask));
    }

    /// Remove one holder (sharer or owner); the line's entry goes when
    /// the last copy does.
    pub fn remove(&mut self, addr: LineAddr, node: NodeId) {
        match self.state(addr) {
            DirState::Owned(o) if o == node => {
                self.lines.remove(&addr);
            }
            DirState::Shared(mask) => {
                let left = mask & !self.bit(node);
                if left == 0 {
                    self.lines.remove(&addr);
                } else {
                    self.lines.insert(addr, Held::shared(left));
                }
            }
            _ => {}
        }
    }

    /// Drop all tracking of a line.
    pub fn invalidate(&mut self, addr: LineAddr) {
        self.lines.remove(&addr);
    }

    /// Every holder of the line, in ascending `NodeId` (rank) order.
    pub fn holders(&self, addr: LineAddr) -> impl Iterator<Item = NodeId> + '_ {
        let (owner, mut mask) = match self.state(addr) {
            DirState::Invalid => (None, 0),
            DirState::Owned(o) => (Some(o), 0),
            DirState::Shared(mask) => (None, mask),
        };
        owner.into_iter().chain(std::iter::from_fn(move || {
            let rank = mask.trailing_zeros() as usize;
            mask &= mask.checked_sub(1)?;
            Some(self.ranked[rank])
        }))
    }

    /// Number of tracked (held) lines.
    pub fn len(&self) -> usize {
        self.lines.len()
    }

    /// Whether the directory tracks no lines.
    pub fn is_empty(&self) -> bool {
        self.lines.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A directory over requesters `0..n`.
    fn dir(n: u32) -> Directory {
        Directory::new((0..n).map(NodeId).collect())
    }

    #[test]
    fn owner_then_share_demotes() {
        let mut d = dir(2);
        d.set_owner(LineAddr(1), NodeId(0));
        d.add_sharer(LineAddr(1), NodeId(1));
        assert!(d.holders(LineAddr(1)).eq([NodeId(0), NodeId(1)]));
        assert!(matches!(d.state(LineAddr(1)), DirState::Shared(_)));
    }

    #[test]
    fn remove_last_holder_invalidates() {
        let mut d = dir(6);
        d.add_sharer(LineAddr(2), NodeId(5));
        d.remove(LineAddr(2), NodeId(5));
        assert_eq!(d.state(LineAddr(2)), DirState::Invalid);
        assert!(d.is_empty());
    }

    #[test]
    fn remove_owner() {
        let mut d = dir(2);
        d.set_owner(LineAddr(3), NodeId(1));
        d.remove(LineAddr(3), NodeId(1));
        assert_eq!(d.state(LineAddr(3)), DirState::Invalid);
        assert_eq!(d.len(), 0);
    }

    #[test]
    fn remove_wrong_owner_is_noop() {
        let mut d = dir(3);
        d.set_owner(LineAddr(3), NodeId(1));
        d.remove(LineAddr(3), NodeId(2));
        assert_eq!(d.state(LineAddr(3)), DirState::Owned(NodeId(1)));
    }

    #[test]
    fn untouched_lines_are_invalid() {
        let d = dir(1);
        assert_eq!(d.state(LineAddr(9)), DirState::Invalid);
        assert_eq!(d.holders(LineAddr(9)).count(), 0);
    }

    #[test]
    fn holders_come_back_in_ascending_node_order() {
        let mut d = Directory::new(vec![NodeId(2), NodeId(7), NodeId(9), NodeId(40)].into());
        for n in [40, 2, 9, 7] {
            d.add_sharer(LineAddr(4), NodeId(n));
        }
        let held: Vec<NodeId> = d.holders(LineAddr(4)).collect();
        assert_eq!(held, [NodeId(2), NodeId(7), NodeId(9), NodeId(40)]);
        assert_eq!(d.state(LineAddr(4)), DirState::Shared(0b1111));
    }

    #[test]
    fn a_rank_in_the_upper_half_of_the_mask_round_trips() {
        let mut d = dir(MAX_REQUESTERS as u32);
        for n in [127, 64, 3] {
            d.add_sharer(LineAddr(5), NodeId(n));
        }
        assert!(d
            .holders(LineAddr(5))
            .eq([NodeId(3), NodeId(64), NodeId(127)]));
        d.remove(LineAddr(5), NodeId(3));
        d.remove(LineAddr(5), NodeId(127));
        assert_eq!(d.state(LineAddr(5)), DirState::Shared(1 << 64));
        assert!(d.holders(LineAddr(5)).eq([NodeId(64)]));
        d.remove(LineAddr(5), NodeId(64));
        assert_eq!(d.len(), 0);
    }

    #[test]
    fn a_bucket_is_thirty_two_bytes() {
        assert_eq!(std::mem::size_of::<Held>(), 24);
        assert_eq!(std::mem::size_of::<(LineAddr, Held)>(), 32);
    }

    #[test]
    fn masks_with_bits_in_both_words_round_trip() {
        for mask in [
            1,
            1 << 63,
            1 << 64,
            1 << 127,
            (1 << 64) | 1,
            (1 << 95) | (1 << 63) | (1 << 5),
            u128::MAX,
        ] {
            assert_eq!(Held::shared(mask).state(), DirState::Shared(mask));
        }
        // Built up one sharer at a time, and read back through `holders`.
        let mut d = dir(MAX_REQUESTERS as u32);
        let ranks = [0, 5, 63, 64, 65, 95, 127];
        for &n in ranks.iter().rev() {
            d.add_sharer(LineAddr(8), NodeId(n));
        }
        let mask = ranks.iter().fold(0u128, |m, &r| m | 1 << r);
        assert_eq!(d.state(LineAddr(8)), DirState::Shared(mask));
        assert!(d.holders(LineAddr(8)).eq(ranks.map(NodeId)));
    }

    #[test]
    fn removing_the_last_sharer_drops_the_entry() {
        let mut d = dir(4);
        d.set_owner(LineAddr(6), NodeId(0));
        d.add_sharer(LineAddr(6), NodeId(3));
        d.add_sharer(LineAddr(7), NodeId(1));
        assert_eq!(d.len(), 2);
        d.remove(LineAddr(6), NodeId(3));
        assert_eq!(d.len(), 2, "one sharer left");
        d.remove(LineAddr(6), NodeId(0));
        d.remove(LineAddr(7), NodeId(1));
        assert_eq!(d.len(), 0);
        assert!(d.is_empty());
    }

    #[test]
    #[should_panic(expected = "n4 is not a ranked requester")]
    fn an_unranked_sharer_is_rejected_by_name() {
        dir(4).add_sharer(LineAddr(1), NodeId(4));
    }

    #[test]
    #[should_panic(expected = "129 requesters")]
    fn more_requesters_than_mask_bits_are_rejected() {
        dir(MAX_REQUESTERS as u32 + 1);
    }
}
