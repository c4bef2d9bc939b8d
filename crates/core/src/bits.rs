//! Fixed-size bitsets backing the event-indexed tick.
//!
//! A [`BitRing`] marks which positions of a ring hold something of
//! interest. A lane keeps two over its *slots* (flits, I-tags), which
//! never move: a slot's station follows from the lane's rotation
//! offset, so advancing a lane touches no bit. The shard keeps them
//! over *stations* (queue heads wanting a lane) and bridge sides. The
//! fast-path sweep merges station-space words and visits only set bits,
//! so an idle lane costs one word test instead of a full station walk;
//! [`BitRing::window`] reads a slot-space set at a station offset.

/// A bitset over `n` positions around a ring.
///
/// Bits at positions `>= n` are always zero (maintained by every
/// mutator).
#[derive(Debug, PartialEq, Eq)]
pub struct BitRing {
    n: usize,
    words: Vec<u64>,
}

impl Clone for BitRing {
    fn clone(&self) -> Self {
        BitRing {
            n: self.n,
            words: self.words.clone(),
        }
    }

    /// Reuses `self`'s allocation, so a per-call scratch copy costs no
    /// allocation.
    fn clone_from(&mut self, source: &Self) {
        self.n = source.n;
        self.words.clone_from(&source.words);
    }
}

impl BitRing {
    /// An empty bitset over `n` positions.
    pub fn new(n: usize) -> Self {
        BitRing {
            n,
            words: vec![0; n.div_ceil(64)],
        }
    }

    /// Number of positions covered.
    #[inline]
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the ring covers zero positions.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Set bit `s`.
    #[inline]
    pub fn set(&mut self, s: usize) {
        debug_assert!(s < self.n);
        self.words[s / 64] |= 1u64 << (s % 64);
    }

    /// Clear bit `s`.
    #[inline]
    pub fn clear(&mut self, s: usize) {
        debug_assert!(s < self.n);
        self.words[s / 64] &= !(1u64 << (s % 64));
    }

    /// Test bit `s`.
    #[inline]
    pub fn test(&self, s: usize) -> bool {
        debug_assert!(s < self.n);
        self.words[s / 64] & (1u64 << (s % 64)) != 0
    }

    /// Number of set bits.
    #[inline]
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// The backing words (64 positions each, little-endian bit order).
    #[inline]
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// The `len ≤ 64` bits from position `start` on, read circularly
    /// (position `n` is position 0 again), as one word: bit `k` of the
    /// result is bit `(start + k) mod n`. Requires `start < n` and
    /// `len ≤ n`.
    pub fn window(&self, start: usize, len: usize) -> u64 {
        debug_assert!(start < self.n && len <= self.n.min(64));
        let straight = len.min(self.n - start);
        let mut w = self.run(start, straight);
        if straight < len {
            w |= self.run(0, len - straight) << straight;
        }
        w
    }

    /// The `len ≤ 64` bits `start..start + len` (no wrap) as one word.
    fn run(&self, start: usize, len: usize) -> u64 {
        if len == 0 {
            return 0;
        }
        let (wi, off) = (start / 64, start % 64);
        let mut w = self.words[wi] >> off;
        if off != 0 && wi + 1 < self.words.len() {
            w |= self.words[wi + 1] << (64 - off);
        }
        if len < 64 {
            w &= (1u64 << len) - 1;
        }
        w
    }

    /// Iterate set bits in ascending order.
    pub fn iter_ones(&self) -> impl Iterator<Item = usize> + '_ {
        self.words
            .iter()
            .enumerate()
            .flat_map(|(wi, &w)| word_ones(wi, w))
    }
}

/// The positions of the set bits of `word`, word number `wi` of a
/// bitset, ascending. Takes the word by value, so a caller can walk a
/// snapshot of one word while it mutates the set (and whatever owns it).
pub fn word_ones(wi: usize, word: u64) -> impl Iterator<Item = usize> {
    std::iter::successors((word != 0).then_some(word), |&rem| {
        let rem = rem & (rem - 1);
        (rem != 0).then_some(rem)
    })
    .map(move |rem| wi * 64 + rem.trailing_zeros() as usize)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_clear_test() {
        let mut b = BitRing::new(70);
        assert_eq!(b.count_ones(), 0);
        b.set(0);
        b.set(63);
        b.set(69);
        assert!(b.test(0) && b.test(63) && b.test(69));
        assert!(!b.test(1));
        assert_eq!(b.count_ones(), 3);
        b.clear(63);
        assert!(!b.test(63));
        assert_eq!(b.iter_ones().collect::<Vec<_>>(), vec![0, 69]);
    }

    #[test]
    fn window_reads_circularly() {
        for n in [1usize, 2, 5, 63, 64, 65, 130] {
            let mut b = BitRing::new(n);
            for s in [0, 1 % n, n / 2, n - 1] {
                b.set(s);
            }
            for start in [0, 1 % n, n / 3, n - 1] {
                for len in [0, 1, n.min(64) / 2, n.min(64)] {
                    let want = (0..len)
                        .filter(|&k| b.test((start + k) % n))
                        .fold(0u64, |w, k| w | 1 << k);
                    assert_eq!(b.window(start, len), want, "n={n} start={start} len={len}");
                }
            }
        }
    }
}
