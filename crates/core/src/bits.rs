//! Fixed-size rotating bitsets backing the event-indexed tick.
//!
//! A [`BitRing`] tracks which stations of a ring lane currently hold
//! something of interest (a flit, an I-tag, a queue head wanting a
//! lane). The fast-path sweep merges these per 64-station word and
//! visits only set bits, so an idle lane costs one word test instead of
//! a full station walk. Because lane slots physically rotate each
//! cycle, the bitset can rotate with them in O(words).

/// A bitset over `n` ring stations supporting single-step rotation.
///
/// Bit `s` corresponds to station `s`. Bits at positions `>= n` are
/// always zero (maintained by every mutator).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BitRing {
    n: usize,
    words: Vec<u64>,
}

impl BitRing {
    /// An empty bitset over `n` stations.
    pub fn new(n: usize) -> Self {
        BitRing {
            n,
            words: vec![0; n.div_ceil(64)],
        }
    }

    /// Number of stations covered.
    #[inline]
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the ring covers zero stations.
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

    /// The backing words (64 stations each, little-endian bit order).
    #[inline]
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Rotate every bit one station upward: `s -> (s + 1) % n`.
    pub fn rotate_up(&mut self) {
        if self.n <= 1 {
            return;
        }
        let top = self.test(self.n - 1);
        let mut carry = 0u64;
        for w in self.words.iter_mut() {
            let next = *w >> 63;
            *w = (*w << 1) | carry;
            carry = next;
        }
        // The old top bit shifted to position n; move it to position 0.
        if !self.n.is_multiple_of(64) {
            self.words[self.n / 64] &= !(1u64 << (self.n % 64));
        }
        if top {
            self.words[0] |= 1;
        } else {
            self.words[0] &= !1;
        }
    }

    /// Rotate every bit one station downward: `s -> (s + n - 1) % n`.
    pub fn rotate_down(&mut self) {
        if self.n <= 1 {
            return;
        }
        let bottom = self.words[0] & 1 != 0;
        let mut carry = 0u64;
        for w in self.words.iter_mut().rev() {
            let next = *w & 1;
            *w = (*w >> 1) | (carry << 63);
            carry = next;
        }
        if bottom {
            self.set(self.n - 1);
        } else {
            self.clear(self.n - 1);
        }
    }

    /// Iterate set bits in ascending station order.
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
pub(crate) fn word_ones(wi: usize, word: u64) -> impl Iterator<Item = usize> {
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
    fn rotate_up_wraps() {
        for n in [1usize, 2, 5, 63, 64, 65, 130] {
            let mut b = BitRing::new(n);
            b.set(n - 1);
            if n > 2 {
                b.set(1);
            }
            let expect: Vec<usize> = b.iter_ones().map(|s| (s + 1) % n).collect();
            b.rotate_up();
            let mut expect = expect;
            expect.sort_unstable();
            assert_eq!(b.iter_ones().collect::<Vec<_>>(), expect, "n={n}");
        }
    }

    #[test]
    fn rotate_down_wraps() {
        for n in [1usize, 2, 5, 63, 64, 65, 130] {
            let mut b = BitRing::new(n);
            b.set(0);
            if n > 2 {
                b.set(2);
            }
            let expect: Vec<usize> = b.iter_ones().map(|s| (s + n - 1) % n).collect();
            b.rotate_down();
            let mut expect = expect;
            expect.sort_unstable();
            assert_eq!(b.iter_ones().collect::<Vec<_>>(), expect, "n={n}");
        }
    }

    #[test]
    fn many_rotations_roundtrip() {
        let n = 37;
        let mut b = BitRing::new(n);
        for s in [0usize, 7, 18, 36] {
            b.set(s);
        }
        let before: Vec<usize> = b.iter_ones().collect();
        for _ in 0..n {
            b.rotate_up();
        }
        assert_eq!(b.iter_ones().collect::<Vec<_>>(), before);
        for _ in 0..n {
            b.rotate_down();
        }
        assert_eq!(b.iter_ones().collect::<Vec<_>>(), before);
    }
}
