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

/// Bit 63 of a line's first word: the line is owned, and the owner's
/// `NodeId` is the word's low 32 bits.
const OWNED: u64 = 1 << 63;

/// Sharer ranks per stored word: bits 0–62. Bit 63 is never a sharer,
/// so a line's first word tells an owner from sharers by itself.
const RANKS_PER_WORD: usize = 63;

/// Words of a [`MAX_REQUESTERS`]-bit sharer mask.
const WORDS: usize = MAX_REQUESTERS.div_ceil(RANKS_PER_WORD);

/// The sharer mask as stored: word *w* holds ranks 63·*w* to
/// 63·*w* + 62 in its bits 0–62.
fn split(mask: u128) -> [u64; WORDS] {
    std::array::from_fn(|w| (mask >> (RANKS_PER_WORD * w)) as u64 & !OWNED)
}

/// The inverse of [`split`].
fn join(words: [u64; WORDS]) -> u128 {
    (0..WORDS).fold(0, |mask, w| {
        mask | u128::from(words[w]) << (RANKS_PER_WORD * w)
    })
}

/// Tracks, per line, which requesters hold copies — the "L3 tag" half of
/// the paper's hybrid L3 design.
///
/// A line no requester holds has no entry; [`Directory::state`] reads
/// it as [`DirState::Invalid`]. A held line is one `u64` word in
/// `lines` (a 16-byte bucket): its owner, or its sharers ranked 0–62.
/// Sharers ranked 63 and above spill into `upper`, which stays empty
/// while at most 63 requesters are ranked. Every line address is legal:
/// no key bit is borrowed for state.
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
    /// Word 0 of every held line: [`OWNED`] and the owner, or the
    /// sharers ranked 0–62. Keyed lookups only (`len` is the map's own
    /// count).
    lines: IdMap<LineAddr, u64>,
    /// Words 1 and 2 of a shared line with a sharer ranked 63 or above.
    /// Keyed lookups only.
    upper: IdMap<LineAddr, [u64; WORDS - 1]>,
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
            upper: IdMap::default(),
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
        let Some(&first) = self.lines.get(&addr) else {
            return DirState::Invalid;
        };
        if first & OWNED != 0 {
            return DirState::Owned(NodeId(first as u32));
        }
        // Skip the probe while nothing has spilled, which is always the
        // case with at most 63 requesters.
        let [w1, w2] = if self.upper.is_empty() {
            [0; WORDS - 1]
        } else {
            self.upper.get(&addr).copied().unwrap_or_default()
        };
        DirState::Shared(join([first, w1, w2]))
    }

    /// Record `owner` as the sole (M/E) holder.
    pub fn set_owner(&mut self, addr: LineAddr, owner: NodeId) {
        self.lines.insert(addr, OWNED | u64::from(owner.0));
        self.forget_upper(addr);
    }

    /// Store a non-empty sharer mask.
    fn set_shared(&mut self, addr: LineAddr, mask: u128) {
        let [first, w1, w2] = split(mask);
        self.lines.insert(addr, first);
        if w1 | w2 != 0 {
            self.upper.insert(addr, [w1, w2]);
        } else {
            self.forget_upper(addr);
        }
    }

    /// Drop a line's spilled words, if it has any.
    fn forget_upper(&mut self, addr: LineAddr) {
        if !self.upper.is_empty() {
            self.upper.remove(&addr);
        }
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
        self.set_shared(addr, mask);
    }

    /// Remove one holder (sharer or owner); the line's entry goes when
    /// the last copy does.
    pub fn remove(&mut self, addr: LineAddr, node: NodeId) {
        match self.state(addr) {
            DirState::Owned(o) if o == node => self.invalidate(addr),
            DirState::Shared(mask) => {
                let left = mask & !self.bit(node);
                if left == 0 {
                    self.invalidate(addr);
                } else {
                    self.set_shared(addr, left);
                }
            }
            _ => {}
        }
    }

    /// Drop all tracking of a line.
    pub fn invalidate(&mut self, addr: LineAddr) {
        self.lines.remove(&addr);
        self.forget_upper(addr);
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
    fn a_line_is_one_sixteen_byte_bucket_until_a_rank_above_62_shares_it() {
        assert_eq!(std::mem::size_of::<(LineAddr, u64)>(), 16);
        assert_eq!(std::mem::size_of::<(LineAddr, [u64; WORDS - 1])>(), 24);
        let mut d = dir(MAX_REQUESTERS as u32);
        for n in [0, 62] {
            d.add_sharer(LineAddr(u64::MAX), NodeId(n));
        }
        d.set_owner(LineAddr(1 << 63), NodeId(127));
        assert_eq!((d.lines.len(), d.upper.len()), (2, 0));
        d.add_sharer(LineAddr(u64::MAX), NodeId(63));
        assert_eq!((d.lines.len(), d.upper.len()), (2, 1));
        d.remove(LineAddr(u64::MAX), NodeId(63));
        assert_eq!((d.lines.len(), d.upper.len()), (2, 0));
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
            (1 << 62) | (1 << 125) | (1 << 126),
            u128::MAX,
        ] {
            assert_eq!(join(split(mask)), mask);
        }
        // Bit 63 of every stored word is free for the owner flag.
        assert!(split(u128::MAX).iter().all(|w| w & OWNED == 0));
        // Built up one sharer at a time, and read back through `holders`.
        let mut d = dir(MAX_REQUESTERS as u32);
        let ranks = [0, 5, 62, 63, 64, 65, 95, 125, 126, 127];
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

#[cfg(test)]
mod properties {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    /// Line address `x` (0–3) from corner `corner` (0–3) of the range:
    /// small values, values at 2^62 and at 3·2^62 (where borrowing the
    /// top address bits would collide), and the top of the range.
    fn addr(corner: u8, x: u64) -> LineAddr {
        LineAddr([x, (1 << 62) + x, (3 << 62) + x, u64::MAX - x][usize::from(corner)])
    }

    #[derive(Debug, Clone, Copy)]
    enum Op {
        SetOwner(LineAddr, usize),
        AddSharer(LineAddr, usize),
        Remove(LineAddr, usize),
        Invalidate(LineAddr),
    }

    impl Op {
        /// The operation a raw `((kind, corner, x), rank)` draw names.
        fn from_draw(((kind, corner, x), rank): ((u8, u8, u64), usize)) -> Self {
            let a = addr(corner, x);
            match kind {
                0 => Op::SetOwner(a, rank),
                1 => Op::AddSharer(a, rank),
                2 => Op::Remove(a, rank),
                _ => Op::Invalidate(a),
            }
        }
    }

    /// The directory's contract over a `BTreeMap` of `DirState`s, with
    /// the sharer mask computed in `u128` and no packing at all.
    fn apply(model: &mut BTreeMap<LineAddr, DirState>, op: Op, ranked: &[NodeId]) {
        let bit = |n: NodeId| 1u128 << ranked.binary_search(&n).expect("ranked");
        let node = |r: usize| ranked[r % ranked.len()];
        match op {
            Op::SetOwner(a, r) => {
                model.insert(a, DirState::Owned(node(r)));
            }
            Op::AddSharer(a, r) => {
                let held = match model.get(&a) {
                    None | Some(DirState::Invalid) => 0,
                    Some(&DirState::Shared(m)) => m,
                    Some(&DirState::Owned(o)) => bit(o),
                };
                model.insert(a, DirState::Shared(held | bit(node(r))));
            }
            Op::Remove(a, r) => match model.get(&a).copied() {
                Some(DirState::Owned(o)) if o == node(r) => {
                    model.remove(&a);
                }
                Some(DirState::Shared(m)) => match m & !bit(node(r)) {
                    0 => {
                        model.remove(&a);
                    }
                    left => {
                        model.insert(a, DirState::Shared(left));
                    }
                },
                _ => {}
            },
            Op::Invalidate(a) => {
                model.remove(&a);
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]
        /// Every operation sequence leaves the directory answering
        /// `state`, `holders` and `len` as the model does, for each of
        /// the 16 lines the ops draw from, over 1, 24, 63, 64 and 128 ranked
        /// requesters (ranks 62, 63 and 126 sit on word boundaries).
        #[test]
        fn the_directory_matches_a_btreemap_model(
            size in 0usize..5,
            draws in collection::vec(((0u8..4, 0u8..4, 0u64..4), 0usize..MAX_REQUESTERS), 1..120),
        ) {
            let n = [1, 24, 63, 64, 128][size];
            // Sparse, ascending ids so a rank is not its NodeId.
            let ranked: Vec<NodeId> = (0..n as u32).map(|i| NodeId(3 * i + 1)).collect();
            let mut d = Directory::new(ranked.clone().into());
            let mut model = BTreeMap::new();
            for op in draws.iter().copied().map(Op::from_draw) {
                match op {
                    Op::SetOwner(a, r) => d.set_owner(a, ranked[r % n]),
                    Op::AddSharer(a, r) => d.add_sharer(a, ranked[r % n]),
                    Op::Remove(a, r) => d.remove(a, ranked[r % n]),
                    Op::Invalidate(a) => d.invalidate(a),
                }
                apply(&mut model, op, &ranked);
                for a in (0..16).map(|i| addr(i / 4, u64::from(i % 4))) {
                    let want = model.get(&a).copied().unwrap_or(DirState::Invalid);
                    prop_assert_eq!(d.state(a), want, "{}", a);
                    let holders: Vec<NodeId> = match want {
                        DirState::Invalid => vec![],
                        DirState::Owned(o) => vec![o],
                        DirState::Shared(m) => ranked
                            .iter()
                            .enumerate()
                            .filter(|&(r, _)| m >> r & 1 == 1)
                            .map(|(_, &id)| id)
                            .collect(),
                    };
                    prop_assert!(d.holders(a).eq(holders), "{}", a);
                }
                prop_assert_eq!(d.len(), model.len());
                prop_assert_eq!(d.is_empty(), model.is_empty());
                if n <= RANKS_PER_WORD {
                    prop_assert!(d.upper.is_empty(), "spilled with {} requesters", n);
                }
            }
        }
    }
}
