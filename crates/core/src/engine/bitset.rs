//! Bit-packed configuration sets.
//!
//! The checker's `legit` / `initial` / `reachable` sets over configuration
//! ids were `Vec<bool>` in the seed implementation — one byte per
//! configuration. [`BitSet`] packs them 64 per word, which both shrinks the
//! working set eightfold and turns the frequent "reachable ∧ ¬legit" style
//! combinations into word-wide operations.

/// A fixed-length set of configuration ids, one bit each.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BitSet {
    words: Vec<u64>,
    len: usize,
}

impl BitSet {
    /// An empty set over a universe of `len` ids.
    pub fn new(len: usize) -> Self {
        BitSet {
            words: vec![0; len.div_ceil(64)],
            len,
        }
    }

    /// The full set over a universe of `len` ids.
    pub fn full(len: usize) -> Self {
        let mut s = BitSet {
            words: vec![u64::MAX; len.div_ceil(64)],
            len,
        };
        s.trim();
        s
    }

    /// Builds the set of ids where `f` holds.
    pub fn from_fn(len: usize, mut f: impl FnMut(usize) -> bool) -> Self {
        let mut s = BitSet::new(len);
        for i in 0..len {
            if f(i) {
                s.insert(i);
            }
        }
        s
    }

    /// Packs a slice of booleans.
    pub fn from_bools(bools: &[bool]) -> Self {
        Self::from_fn(bools.len(), |i| bools[i])
    }

    /// The backing 64-bit words (bit `i` of the set is bit `i % 64` of
    /// word `i / 64`) — the checkpoint serialization surface.
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Universe size (number of ids, not number of members).
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the universe is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Whether `i` is a member.
    ///
    /// # Panics
    ///
    /// Panics if `i` is outside the universe.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        assert!(i < self.len, "bit {i} out of range {}", self.len);
        self.words[i / 64] >> (i % 64) & 1 == 1
    }

    /// Inserts `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is outside the universe.
    #[inline]
    pub fn insert(&mut self, i: usize) {
        assert!(i < self.len, "bit {i} out of range {}", self.len);
        self.words[i / 64] |= 1 << (i % 64);
    }

    /// Grows the universe by one id, a member iff `member`.
    #[inline]
    pub(crate) fn push(&mut self, member: bool) {
        if self.len.is_multiple_of(64) {
            self.words.push(0);
        }
        self.len += 1;
        if member {
            self.insert(self.len - 1);
        }
    }

    /// Removes `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is outside the universe.
    #[inline]
    pub fn remove(&mut self, i: usize) {
        assert!(i < self.len, "bit {i} out of range {}", self.len);
        self.words[i / 64] &= !(1 << (i % 64));
    }

    /// Number of members.
    pub fn count_ones(&self) -> u64 {
        self.words.iter().map(|w| w.count_ones() as u64).sum()
    }

    /// Whether every id of the universe is a member.
    pub fn is_full(&self) -> bool {
        self.count_ones() == self.len as u64
    }

    /// Iterator over the members in ascending order.
    pub fn ones(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &w)| {
            let mut rest = w;
            std::iter::from_fn(move || {
                if rest == 0 {
                    return None;
                }
                let bit = rest.trailing_zeros() as usize;
                rest &= rest - 1;
                Some(wi * 64 + bit)
            })
        })
    }

    /// The members of `self` that are not members of `other`
    /// (`self ∖ other`), word-parallel.
    ///
    /// # Panics
    ///
    /// Panics on universe size mismatch.
    pub fn and_not(&self, other: &BitSet) -> BitSet {
        assert_eq!(self.len, other.len, "universe size mismatch");
        BitSet {
            words: self
                .words
                .iter()
                .zip(&other.words)
                .map(|(a, b)| a & !b)
                .collect(),
            len: self.len,
        }
    }

    /// Zeroes the bits past `len` (invariant after whole-word fills).
    fn trim(&mut self) {
        let tail = self.len % 64;
        if tail != 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= (1u64 << tail) - 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_remove_roundtrip() {
        let mut s = BitSet::new(130);
        assert!(!s.get(129));
        s.insert(129);
        s.insert(0);
        s.insert(64);
        assert!(s.get(129) && s.get(0) && s.get(64) && !s.get(1));
        assert_eq!(s.count_ones(), 3);
        s.remove(64);
        assert!(!s.get(64));
        assert_eq!(s.count_ones(), 2);
    }

    #[test]
    fn full_respects_partial_last_word() {
        let s = BitSet::full(70);
        assert_eq!(s.count_ones(), 70);
        assert!(s.is_full());
        assert!(s.get(69));
    }

    #[test]
    fn ones_iterates_in_order() {
        let s = BitSet::from_fn(200, |i| i % 63 == 0);
        let got: Vec<usize> = s.ones().collect();
        assert_eq!(got, vec![0, 63, 126, 189]);
    }

    #[test]
    fn and_not_is_set_difference() {
        let a = BitSet::from_fn(100, |i| i < 50);
        let b = BitSet::from_fn(100, |i| i % 2 == 0);
        let d = a.and_not(&b);
        assert_eq!(d.count_ones(), 25);
        assert!(d.get(1) && !d.get(2) && !d.get(51));
    }

    #[test]
    fn from_bools_matches() {
        let s = BitSet::from_bools(&[true, false, true]);
        assert!(s.get(0) && !s.get(1) && s.get(2));
        assert_eq!(s.len(), 3);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_get_panics() {
        let _ = BitSet::new(3).get(3);
    }
}
