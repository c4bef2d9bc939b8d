//! A requester's line table: the MESI state of each line it holds.

use crate::types::{LineAddr, MesiState};
use noc_sim::IdMap;
use std::hash::{Hash, Hasher};

/// A [`LineAddr`] stored as its eight little-endian bytes. Align 1, so
/// a `(PackedLine, MesiState)` bucket is 9 bytes where a
/// `(LineAddr, MesiState)` one pads to 16. It hashes as the `u64` it
/// holds, exactly as `LineAddr` does, so the table's buckets (and its
/// iteration order) are the ones a `LineAddr` key gives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct PackedLine([u8; 8]);

impl From<LineAddr> for PackedLine {
    fn from(addr: LineAddr) -> Self {
        PackedLine(addr.0.to_le_bytes())
    }
}

impl Hash for PackedLine {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(u64::from_le_bytes(self.0));
    }
}

/// Line → state for the lines one requester holds. An absent line is
/// Invalid, and an Invalid line is never stored (DESIGN.md §20 Rule 3).
/// Keyed lookups only.
#[derive(Debug, Clone, Default)]
pub(crate) struct LineTable {
    lines: IdMap<PackedLine, MesiState>,
}

impl LineTable {
    /// The state of `addr`: Invalid unless held.
    pub fn get(&self, addr: LineAddr) -> MesiState {
        self.lines
            .get(&addr.into())
            .copied()
            .unwrap_or(MesiState::Invalid)
    }

    /// Hold `addr` in `state`, which must be valid.
    pub fn insert(&mut self, addr: LineAddr, state: MesiState) {
        debug_assert!(state.readable(), "{addr}: only held lines are stored");
        self.lines.insert(addr.into(), state);
    }

    /// Give `addr` up; returns the state it was in.
    pub fn remove(&mut self, addr: LineAddr) -> MesiState {
        self.lines
            .remove(&addr.into())
            .unwrap_or(MesiState::Invalid)
    }

    /// Lines held.
    pub fn len(&self) -> usize {
        self.lines.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_sim::idmap::IdHasher;
    use proptest::prelude::*;
    use std::collections::BTreeMap;
    use std::hash::{BuildHasher, BuildHasherDefault};

    #[test]
    fn a_bucket_is_nine_bytes_and_hashes_as_a_line_addr() {
        assert_eq!(std::mem::size_of::<(PackedLine, MesiState)>(), 9);
        assert_eq!(std::mem::size_of::<(LineAddr, MesiState)>(), 16);
        let build = BuildHasherDefault::<IdHasher>::default();
        for a in [0, 1, 0x401, 1 << 62, 3 << 62, u64::MAX] {
            assert_eq!(
                build.hash_one(PackedLine::from(LineAddr(a))),
                build.hash_one(LineAddr(a))
            );
        }
    }

    #[derive(Debug, Clone, Copy)]
    enum Op {
        Insert(LineAddr, MesiState),
        Remove(LineAddr),
        Get(LineAddr),
    }

    impl Op {
        /// The operation a raw `(kind, corner, x)` draw names: line `x`
        /// (0–3) from one corner of the range (small values, 2^62,
        /// 3·2^62, the top), and for an insert a valid state.
        fn from_draw((kind, corner, x): (u8, u8, u64)) -> Self {
            let a = LineAddr([x, (1 << 62) + x, (3 << 62) + x, u64::MAX - x][usize::from(corner)]);
            match kind {
                0 => Op::Insert(a, MesiState::Modified),
                1 => Op::Insert(a, MesiState::Exclusive),
                2 => Op::Insert(a, MesiState::Shared),
                3 => Op::Remove(a),
                _ => Op::Get(a),
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]
        /// Insert, remove and get agree with a `BTreeMap` in which an
        /// absent line reads Invalid, over small addresses, addresses at
        /// and above 2^62 and the top of the range.
        #[test]
        fn the_table_matches_a_btreemap_model(draws in collection::vec((0u8..6, 0u8..4, 0u64..4), 1..200)) {
            let mut table = LineTable::default();
            let mut model: BTreeMap<LineAddr, MesiState> = BTreeMap::new();
            for op in draws.iter().copied().map(Op::from_draw) {
                match op {
                    Op::Insert(a, s) => {
                        table.insert(a, s);
                        model.insert(a, s);
                    }
                    Op::Remove(a) => {
                        let want = model.remove(&a).unwrap_or(MesiState::Invalid);
                        prop_assert_eq!(table.remove(a), want);
                    }
                    Op::Get(a) => {
                        let want = model.get(&a).copied().unwrap_or(MesiState::Invalid);
                        prop_assert_eq!(table.get(a), want);
                    }
                }
                prop_assert_eq!(table.len(), model.len());
            }
            for (&a, &s) in &model {
                prop_assert_eq!(table.get(a), s);
            }
        }
    }
}
