//! Tables for keys the simulator allocates itself: [`IdMap`] /
//! [`IdSet`] for sparse ids, [`SlotIndex`] for the fixed set of agents
//! a layer is built over.
//!
//! The protocol layers keep side tables keyed by monotone counters
//! (flit tokens, transaction and packet ids), by line addresses and by
//! small tuples of those. None of these keys comes from outside the
//! program, so SipHash's collision resistance buys nothing and costs a
//! dozen rounds per lookup on every simulated cycle. [`IdHasher`] is
//! one rotate-xor-multiply per integer word with a fixed constant: the
//! same key hashes to the same value in every process, on every
//! platform and toolchain (pinned by a unit test), so an [`IdMap`]'s
//! iteration order is reproducible — though no caller may rely on it.
//!
//! Do not use these for keys read from input; keep the standard
//! library's default hasher there.
//!
//! ```
//! use noc_sim::IdMap;
//! let mut live: IdMap<u64, &str> = IdMap::default();
//! live.insert(7, "txn");
//! assert_eq!(live.remove(&7), Some("txn"));
//! ```

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// Odd multiplier with no short bit period (the FxHash constant).
/// Deliberately *not* the golden-ratio constant `LineAddr::interleave`
/// uses to pick a home node: a directory holds exactly the lines whose
/// product with that constant agrees modulo the slice count.
const K: u64 = 0x517c_c1b7_2722_0a95;

/// A `HashMap` over [`IdHasher`].
pub type IdMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;

/// A `HashSet` over [`IdHasher`].
pub type IdSet<K> = HashSet<K, BuildHasherDefault<IdHasher>>;

/// Dense `id → slot` index over a set of ids fixed at construction:
/// the ids are numbered 0, 1, 2… in the order given, and per-id state
/// lives in `Vec`s indexed by that slot. A lookup is one bounds-checked
/// load; an id that was never registered — inside the table's range or
/// beyond it — is `None`, never an index out of bounds.
///
/// ```
/// use noc_sim::idmap::SlotIndex;
/// let agents = SlotIndex::new([7, 2, 5]).unwrap();
/// assert_eq!(agents.get(2), Some(1));
/// assert_eq!(agents.get(3), None); // in range, not registered
/// assert_eq!(agents.get(8), None); // one past the largest id
/// ```
#[derive(Debug, Clone, Default)]
pub struct SlotIndex {
    /// `id → slot`, [`SlotIndex::VACANT`] where no id was registered.
    slot_of: Vec<u32>,
}

impl SlotIndex {
    const VACANT: u32 = u32::MAX;

    /// Number `ids` in iteration order.
    ///
    /// # Errors
    ///
    /// Returns the first id that appears twice.
    pub fn new(ids: impl IntoIterator<Item = usize>) -> Result<Self, usize> {
        let mut slot_of = Vec::new();
        for (slot, id) in ids.into_iter().enumerate() {
            if id >= slot_of.len() {
                slot_of.resize(id + 1, Self::VACANT);
            }
            if slot_of[id] != Self::VACANT {
                return Err(id);
            }
            slot_of[id] = u32::try_from(slot).expect("fewer than 2^32 slots");
        }
        Ok(SlotIndex { slot_of })
    }

    /// The slot of `id`, if it was registered.
    #[inline]
    pub fn get(&self, id: usize) -> Option<usize> {
        match self.slot_of.get(id) {
            Some(&s) if s != Self::VACANT => Some(s as usize),
            _ => None,
        }
    }
}

/// Deterministic multiplicative hasher for integer-like keys.
///
/// Every integer `write_*` folds one word into the state as
/// `state = (state.rotate_left(5) ^ word) * K`. Byte slices are
/// consumed as little-endian `u64` words, eight bytes at a time, with
/// a final short chunk of 1–7 bytes zero-extended to one more word
/// (an empty slice contributes nothing).
///
/// `finish()` returns `state ^ (state >> 32)`. The table takes its
/// bucket from the *low* bits of the hash, and the low bits of a
/// product depend only on the low bits of the key — keys such as
/// `id << 12` or byte-aligned addresses would pile into a handful of
/// buckets. The fold brings the well-mixed high half down.
#[derive(Debug, Default, Clone, Copy)]
pub struct IdHasher {
    state: u64,
}

impl IdHasher {
    #[inline]
    fn mix(&mut self, word: u64) {
        self.state = (self.state.rotate_left(5) ^ word).wrapping_mul(K);
    }
}

impl Hasher for IdHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.state ^ (self.state >> 32)
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.mix(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut word = [0u8; 8];
            word[..rest.len()].copy_from_slice(rest);
            self.mix(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.mix(u64::from(i));
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.mix(u64::from(i));
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.mix(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.mix(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.mix(i as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SimRng;
    use std::hash::{BuildHasher, Hash};

    fn hash_one<T: Hash>(key: T) -> u64 {
        BuildHasherDefault::<IdHasher>::default().hash_one(key)
    }

    /// Same shape as `noc_core::NodeId` (which this crate cannot name).
    #[derive(Hash)]
    struct NodeId(u32);

    #[test]
    fn hash_values_are_pinned() {
        // Written constants, not recomputed: the function must not
        // drift with a toolchain or a refactor.
        assert_eq!(hash_one(0u64), 0);
        assert_eq!(hash_one(1u64), 0x517c_c1b7_765e_cb22);
        assert_eq!(hash_one(u64::MAX), 0xae83_3e48_765e_cb23);
        assert_eq!(hash_one((3usize, 0x40u64)), 0xc89f_d001_c667_4d97);
        assert_eq!(hash_one(NodeId(37)), 0xc707_ff78_60ec_78f1);
    }

    /// Insert `keys` into an [`IdMap`] and check that no probe-start
    /// group (16 consecutive buckets, addressed by the low
    /// `log2(buckets)` bits of the hash) receives more than 4× its
    /// fair share.
    fn assert_spread<T: Hash + Eq + Copy>(shape: &str, keys: &[T]) {
        let mut map: IdMap<T, ()> = IdMap::default();
        for &k in keys {
            map.insert(k, ());
        }
        assert_eq!(map.len(), keys.len(), "{shape}: keys are distinct");
        // `capacity()` is 7/8 of the power-of-two bucket count.
        let buckets = map.capacity().next_power_of_two();
        let groups = buckets / 16;
        let mut load = vec![0usize; groups];
        for &k in keys {
            load[(hash_one(k) as usize & (buckets - 1)) / 16] += 1;
        }
        let fair = keys.len().div_ceil(groups);
        let worst = *load.iter().max().expect("groups");
        assert!(
            worst <= 4 * fair,
            "{shape}: a bucket group holds {worst} of {} keys (fair share {fair})",
            keys.len()
        );
    }

    #[test]
    fn key_shapes_the_layers_use_spread_over_buckets() {
        const N: u64 = 4096;
        let counters: Vec<u64> = (0..N).collect();
        assert_spread("0..n", &counters);
        let tokens: Vec<u64> = (0..N).map(|i| i << 12).collect();
        assert_spread("i << 12", &tokens);
        let bytes: Vec<u64> = (0..N).map(|i| i * 64).collect();
        assert_spread("i * 64", &bytes);
        let pairs: Vec<(usize, u64)> = (0..N).map(|i| ((i % 12) as usize, i / 12 * 64)).collect();
        assert_spread("(hn, line)", &pairs);
        // Skewed line indices: a cubed uniform draw piles most keys
        // near zero with a long sparse tail, like a Zipfian object set.
        let mut rng = SimRng::seed_from(0x1D);
        let mut seen: IdSet<u64> = IdSet::default();
        let mut skewed = Vec::new();
        while (skewed.len() as u64) < N {
            let line = (rng.gen_f64().powi(3) * 4e6) as u64;
            if seen.insert(line) {
                skewed.push(line);
            }
        }
        assert_spread("skewed lines", &skewed);
    }

    #[test]
    fn slot_index_numbers_in_order_and_rejects_duplicates() {
        let idx = SlotIndex::new([4, 0, 9]).unwrap();
        assert_eq!(
            [idx.get(4), idx.get(0), idx.get(9)],
            [Some(0), Some(1), Some(2)]
        );
        assert_eq!([idx.get(1), idx.get(10), idx.get(usize::MAX)], [None; 3]);
        assert_eq!(SlotIndex::new([3, 1, 3]).unwrap_err(), 3);
        assert_eq!(SlotIndex::default().get(0), None);
    }

    #[test]
    fn byte_slices_hash_as_documented_chunks() {
        let by_words = |words: &[u64]| {
            let mut h = IdHasher::default();
            for &w in words {
                h.write_u64(w);
            }
            h.finish()
        };
        let by_bytes = |bytes: &[u8]| {
            let mut h = IdHasher::default();
            h.write(bytes);
            h.finish()
        };
        assert_eq!(by_bytes(&[]), by_words(&[]));
        assert_eq!(by_bytes(&[1, 2, 3]), by_words(&[0x03_0201]));
        let long: Vec<u8> = (1..=17).collect();
        assert_eq!(
            by_bytes(&long),
            by_words(&[0x0807_0605_0403_0201, 0x100f_0e0d_0c0b_0a09, 0x11])
        );
        // A `String` key goes through `write` + `write_u8(0xff)`.
        let mut m: IdMap<String, u32> = IdMap::default();
        m.insert("hn0".to_owned(), 1);
        assert_eq!(m.get("hn0"), Some(&1));
    }
}
