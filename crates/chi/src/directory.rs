//! The home node's coherence directory.

use crate::types::LineAddr;
use noc_core::NodeId;
use noc_sim::IdMap;
use std::collections::BTreeSet;

/// Directory state of one line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DirState {
    /// No coherent copies exist.
    Invalid,
    /// One or more clean shared copies.
    Shared(BTreeSet<NodeId>),
    /// A single requester owns the line (M or E).
    Owned(NodeId),
}

/// Tracks, per line, which requesters hold copies — the "L3 tag" half of
/// the paper's hybrid L3 design.
///
/// # Example
///
/// ```
/// use noc_chi::{Directory, DirState, LineAddr};
/// use noc_core::NodeId;
/// let mut d = Directory::new();
/// d.set_owner(LineAddr(1), NodeId(3));
/// assert_eq!(d.state(LineAddr(1)), &DirState::Owned(NodeId(3)));
/// ```
#[derive(Debug, Clone, Default)]
pub struct Directory {
    /// Keyed lookups only (`len` counts, which is order-insensitive).
    lines: IdMap<LineAddr, DirState>,
}

impl Directory {
    /// Empty directory.
    pub fn new() -> Self {
        Self::default()
    }

    /// Current state of a line (Invalid if never touched).
    pub fn state(&self, addr: LineAddr) -> &DirState {
        self.lines.get(&addr).unwrap_or(&DirState::Invalid)
    }

    /// Record `owner` as the sole (M/E) holder.
    pub fn set_owner(&mut self, addr: LineAddr, owner: NodeId) {
        self.lines.insert(addr, DirState::Owned(owner));
    }

    /// Add a sharer, demoting an owner if present.
    pub fn add_sharer(&mut self, addr: LineAddr, sharer: NodeId) {
        let entry = self.lines.entry(addr).or_insert(DirState::Invalid);
        match entry {
            DirState::Invalid => {
                *entry = DirState::Shared(BTreeSet::from([sharer]));
            }
            DirState::Shared(set) => {
                set.insert(sharer);
            }
            DirState::Owned(owner) => {
                let set = BTreeSet::from([*owner, sharer]);
                *entry = DirState::Shared(set);
            }
        }
    }

    /// Remove one holder (sharer or owner); line becomes Invalid when
    /// the last copy goes.
    pub fn remove(&mut self, addr: LineAddr, node: NodeId) {
        if let Some(entry) = self.lines.get_mut(&addr) {
            match entry {
                DirState::Owned(o) if *o == node => {
                    *entry = DirState::Invalid;
                }
                DirState::Shared(set) => {
                    set.remove(&node);
                    if set.is_empty() {
                        *entry = DirState::Invalid;
                    }
                }
                _ => {}
            }
        }
    }

    /// Drop all tracking of a line.
    pub fn invalidate(&mut self, addr: LineAddr) {
        self.lines.remove(&addr);
    }

    /// Every holder of the line, in deterministic order.
    pub fn holders(&self, addr: LineAddr) -> Vec<NodeId> {
        match self.state(addr) {
            DirState::Invalid => Vec::new(),
            DirState::Owned(o) => vec![*o],
            DirState::Shared(set) => set.iter().copied().collect(),
        }
    }

    /// Number of tracked (non-invalid) lines.
    pub fn len(&self) -> usize {
        self.lines
            .values()
            .filter(|s| !matches!(s, DirState::Invalid))
            .count()
    }

    /// Whether the directory tracks no lines.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn owner_then_share_demotes() {
        let mut d = Directory::new();
        d.set_owner(LineAddr(1), NodeId(0));
        d.add_sharer(LineAddr(1), NodeId(1));
        assert_eq!(d.holders(LineAddr(1)), vec![NodeId(0), NodeId(1)]);
        assert!(matches!(d.state(LineAddr(1)), DirState::Shared(_)));
    }

    #[test]
    fn remove_last_holder_invalidates() {
        let mut d = Directory::new();
        d.add_sharer(LineAddr(2), NodeId(5));
        d.remove(LineAddr(2), NodeId(5));
        assert_eq!(d.state(LineAddr(2)), &DirState::Invalid);
        assert!(d.is_empty());
    }

    #[test]
    fn remove_owner() {
        let mut d = Directory::new();
        d.set_owner(LineAddr(3), NodeId(1));
        d.remove(LineAddr(3), NodeId(1));
        assert_eq!(d.state(LineAddr(3)), &DirState::Invalid);
    }

    #[test]
    fn remove_wrong_owner_is_noop() {
        let mut d = Directory::new();
        d.set_owner(LineAddr(3), NodeId(1));
        d.remove(LineAddr(3), NodeId(2));
        assert_eq!(d.state(LineAddr(3)), &DirState::Owned(NodeId(1)));
    }

    #[test]
    fn untouched_lines_are_invalid() {
        let d = Directory::new();
        assert_eq!(d.state(LineAddr(9)), &DirState::Invalid);
        assert!(d.holders(LineAddr(9)).is_empty());
    }
}
