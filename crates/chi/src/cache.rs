//! A set-associative cache model with LRU replacement.
//!
//! Used for LLC data slices (home nodes), L3 tag caches (Server-CPU) and
//! any hit/miss modelling a workload needs. Tracks presence and a dirty
//! bit; actual data values are never simulated (the NoC only cares about
//! traffic).

use crate::types::LineAddr;

/// One resident line: 16 bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Entry {
    addr: LineAddr,
    /// The monotonic LRU stamp (larger = more recently used) shifted
    /// left by one, with the dirty bit in bit 0.
    meta: u64,
}

impl Entry {
    fn new(addr: LineAddr, dirty: bool, stamp: u64) -> Self {
        Entry {
            addr,
            meta: (stamp << 1) | u64::from(dirty),
        }
    }

    fn stamp(self) -> u64 {
        self.meta >> 1
    }

    fn dirty(self) -> bool {
        self.meta & 1 != 0
    }

    /// Make this the most recently used line; it stays dirty if it was,
    /// and becomes dirty if `dirty`.
    fn touch(&mut self, stamp: u64, dirty: bool) {
        self.meta = (stamp << 1) | (self.meta & 1) | u64::from(dirty);
    }
}

/// Result of inserting into the cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Inserted {
    /// The line was already resident (its LRU position was refreshed).
    AlreadyPresent,
    /// The line was installed into a free way.
    Installed,
    /// The line was installed by evicting a victim; `dirty` says whether
    /// the victim needs a write-back.
    Evicted {
        /// The evicted line.
        victim: LineAddr,
        /// Whether the victim was dirty (requires write-back).
        dirty: bool,
    },
}

/// A set-associative, LRU-replacement cache.
///
/// # Example
///
/// ```
/// use noc_chi::{LineAddr, SetAssocCache};
/// let mut c = SetAssocCache::new(64, 8); // 64 sets, 8 ways
/// assert!(!c.contains(LineAddr(1)));
/// c.insert(LineAddr(1), false);
/// assert!(c.contains(LineAddr(1)));
/// ```
#[derive(Debug, Clone)]
pub struct SetAssocCache {
    sets: usize,
    ways: usize,
    /// One boxed slice per set, exactly as long as the ways it holds:
    /// a 16-byte header, and no allocation while the set is empty.
    entries: Vec<Box<[Entry]>>,
    tick: u64,
    hits: u64,
    misses: u64,
}

impl SetAssocCache {
    /// Create a cache with `sets` sets of `ways` ways.
    ///
    /// # Panics
    ///
    /// Panics if `sets` or `ways` is zero.
    pub fn new(sets: usize, ways: usize) -> Self {
        assert!(sets > 0 && ways > 0, "cache geometry must be non-zero");
        SetAssocCache {
            sets,
            ways,
            entries: vec![Box::default(); sets],
            tick: 0,
            hits: 0,
            misses: 0,
        }
    }

    /// Build from a capacity in bytes and a line size.
    ///
    /// # Panics
    ///
    /// Panics if the geometry doesn't divide evenly into ≥1 set.
    pub fn with_capacity(bytes: u64, line_bytes: u64, ways: usize) -> Self {
        let lines = (bytes / line_bytes) as usize;
        assert!(lines >= ways && ways > 0, "capacity too small");
        SetAssocCache::new(lines / ways, ways)
    }

    fn set_of(&self, addr: LineAddr) -> usize {
        // Hash the set index so power-of-two strides don't alias.
        ((addr.0.wrapping_mul(0x2545_F491_4F6C_DD1D)) >> 24) as usize % self.sets
    }

    /// Whether `addr` is resident (does not update LRU or counters).
    pub fn contains(&self, addr: LineAddr) -> bool {
        self.entries[self.set_of(addr)]
            .iter()
            .any(|e| e.addr == addr)
    }

    /// Look up `addr`, refreshing LRU and hit/miss counters.
    pub fn access(&mut self, addr: LineAddr) -> bool {
        self.tick += 1;
        let set = self.set_of(addr);
        let tick = self.tick;
        if let Some(e) = self.entries[set].iter_mut().find(|e| e.addr == addr) {
            e.touch(tick, false);
            self.hits += 1;
            true
        } else {
            self.misses += 1;
            false
        }
    }

    /// Install `addr` (marking it dirty if requested), evicting an LRU
    /// victim when the set is full.
    pub fn insert(&mut self, addr: LineAddr, dirty: bool) -> Inserted {
        self.tick += 1;
        let tick = self.tick;
        let ways = self.ways;
        let set = self.set_of(addr);
        let entries = &mut self.entries[set];
        if let Some(e) = entries.iter_mut().find(|e| e.addr == addr) {
            e.touch(tick, dirty);
            return Inserted::AlreadyPresent;
        }
        if entries.len() < ways {
            // Grow by exactly this way: a set's allocation is the ways
            // it holds, not `Vec`'s doubling (0 → 4 → 8 → 16).
            let mut grown = std::mem::take(entries).into_vec();
            grown.reserve_exact(1);
            grown.push(Entry::new(addr, dirty, tick));
            *entries = grown.into_boxed_slice();
            return Inserted::Installed;
        }
        let lru = entries
            .iter()
            .enumerate()
            .min_by_key(|(_, e)| e.stamp())
            .map(|(i, _)| i)
            .expect("set is full, so non-empty");
        let victim = std::mem::replace(&mut entries[lru], Entry::new(addr, dirty, tick));
        Inserted::Evicted {
            victim: victim.addr,
            dirty: victim.dirty(),
        }
    }

    /// Remove a line; returns whether it was present and dirty. The
    /// set shrinks by that way.
    pub fn invalidate(&mut self, addr: LineAddr) -> Option<bool> {
        let set = self.set_of(addr);
        let entries = &mut self.entries[set];
        let pos = entries.iter().position(|e| e.addr == addr)?;
        let mut kept = std::mem::take(entries).into_vec();
        let e = kept.swap_remove(pos);
        *entries = kept.into_boxed_slice();
        Some(e.dirty())
    }

    /// Lookup hits so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Lookup misses so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Currently resident line count.
    pub fn len(&self) -> usize {
        self.entries.iter().map(|set| set.len()).sum()
    }

    /// Whether the cache holds no lines.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn miss_then_hit() {
        let mut c = SetAssocCache::new(16, 4);
        assert!(!c.access(LineAddr(5)));
        c.insert(LineAddr(5), false);
        assert!(c.access(LineAddr(5)));
        assert_eq!(c.hits(), 1);
        assert_eq!(c.misses(), 1);
    }

    #[test]
    fn eviction_picks_lru() {
        let mut c = SetAssocCache::new(1, 2);
        c.insert(LineAddr(1), false);
        c.insert(LineAddr(2), true);
        c.access(LineAddr(1)); // 1 is now MRU, 2 is LRU
        match c.insert(LineAddr(3), false) {
            Inserted::Evicted { victim, dirty } => {
                assert_eq!(victim, LineAddr(2));
                assert!(dirty);
            }
            other => panic!("expected eviction, got {other:?}"),
        }
        assert!(c.contains(LineAddr(1)));
        assert!(c.contains(LineAddr(3)));
        assert!(!c.contains(LineAddr(2)));
    }

    #[test]
    fn reinsert_refreshes_not_duplicates() {
        let mut c = SetAssocCache::new(4, 2);
        c.insert(LineAddr(7), false);
        assert_eq!(c.insert(LineAddr(7), true), Inserted::AlreadyPresent);
        assert_eq!(c.len(), 1);
        // Dirty bit was merged.
        assert_eq!(c.invalidate(LineAddr(7)), Some(true));
        assert_eq!(c.len(), 0);
        assert!(c.is_empty());
    }

    #[test]
    fn an_entry_is_sixteen_bytes() {
        assert_eq!(std::mem::size_of::<Entry>(), 16);
    }

    #[test]
    fn a_set_header_is_sixteen_bytes() {
        assert_eq!(std::mem::size_of::<Box<[Entry]>>(), 16);
    }

    #[test]
    fn a_set_allocates_the_ways_it_has_installed() {
        let mut c = SetAssocCache::new(1, 4);
        assert!(c.entries[0].is_empty(), "an empty set allocates nothing");
        for n in 1..=6u64 {
            c.insert(LineAddr(n), false);
            // A boxed slice's allocation is exactly its length.
            assert_eq!(
                c.entries[0].len(),
                (n as usize).min(4),
                "after {n} installs"
            );
        }
        // An invalidated way gives its room back; an install takes it.
        assert_eq!(c.invalidate(LineAddr(6)), Some(false));
        assert_eq!(c.entries[0].len(), 3);
        c.insert(LineAddr(7), false);
        assert_eq!(c.entries[0].len(), 4);
    }

    #[test]
    fn the_dirty_bit_survives_an_lru_refresh_and_is_reported_on_eviction() {
        let mut c = SetAssocCache::new(1, 2);
        c.insert(LineAddr(1), true);
        c.insert(LineAddr(2), false);
        // Refresh 1 both ways: 2 becomes LRU and is evicted clean.
        assert!(c.access(LineAddr(1)));
        assert_eq!(c.insert(LineAddr(1), false), Inserted::AlreadyPresent);
        assert_eq!(
            c.insert(LineAddr(3), false),
            Inserted::Evicted {
                victim: LineAddr(2),
                dirty: false
            }
        );
        // 1 is LRU now and still dirty.
        assert_eq!(
            c.insert(LineAddr(4), false),
            Inserted::Evicted {
                victim: LineAddr(1),
                dirty: true
            }
        );
        assert_eq!(c.invalidate(LineAddr(3)), Some(false));
    }

    #[test]
    fn invalidate_absent_is_none() {
        let mut c = SetAssocCache::new(4, 2);
        assert_eq!(c.invalidate(LineAddr(1)), None);
    }

    #[test]
    fn with_capacity_geometry() {
        // 1 MiB, 64 B lines, 16 ways → 1024 sets.
        let c = SetAssocCache::with_capacity(1 << 20, 64, 16);
        assert_eq!((c.sets, c.ways), (1024, 16));
    }

    #[test]
    fn working_set_smaller_than_cache_stays_hit() {
        let mut c = SetAssocCache::with_capacity(1 << 16, 64, 8); // 1024 lines
        for round in 0..4 {
            for i in 0..256u64 {
                let hit = c.access(LineAddr(i));
                if round > 0 {
                    assert!(hit, "line {i} evicted despite fitting");
                }
                if !hit {
                    c.insert(LineAddr(i), false);
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_geometry_panics() {
        let _ = SetAssocCache::new(0, 4);
    }
}
