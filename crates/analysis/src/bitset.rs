//! A dense, fixed-capacity bit set.

use std::fmt;

/// Capacities up to this many bits are stored inline, without a heap
/// buffer. PRE's expression universes average 29 expressions, so nearly
/// every set PRE and the dataflow solver make fits.
const INLINE_BITS: usize = 128;

/// A fixed-capacity set of small integers, stored one bit per element.
///
/// Sets of capacity at most 128 keep their bits inline and never allocate;
/// larger ones own one heap buffer.
///
/// All binary operations require both operands to have the same capacity;
/// data-flow facts over a common universe always do.
///
/// ```
/// use epre_analysis::BitSet;
/// let mut a = BitSet::new(100);
/// a.insert(3);
/// a.insert(64);
/// let mut b = BitSet::new(100);
/// b.insert(64);
/// a.intersect_with(&b);
/// assert_eq!(a.iter().collect::<Vec<_>>(), vec![64]);
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct BitSet {
    words: Words,
    capacity: usize,
}

/// A set's words. Bits at or above the capacity are always zero, so the
/// derived equality and hash see only the elements.
#[derive(Clone, PartialEq, Eq, Hash)]
enum Words {
    Inline([u64; INLINE_BITS / 64]),
    Heap(Box<[u64]>),
}

impl BitSet {
    /// An empty set able to hold elements `0..capacity`.
    pub fn new(capacity: usize) -> Self {
        let words = if capacity <= INLINE_BITS {
            Words::Inline([0; INLINE_BITS / 64])
        } else {
            Words::Heap(vec![0; capacity.div_ceil(64)].into_boxed_slice())
        };
        BitSet { words, capacity }
    }

    /// A set containing every element `0..capacity`.
    pub fn full(capacity: usize) -> Self {
        let mut s = BitSet::new(capacity);
        s.words_mut().fill(!0);
        s.trim();
        s
    }

    fn words(&self) -> &[u64] {
        match &self.words {
            Words::Inline(w) => w,
            Words::Heap(w) => w,
        }
    }

    fn words_mut(&mut self) -> &mut [u64] {
        match &mut self.words {
            Words::Inline(w) => w,
            Words::Heap(w) => w,
        }
    }

    /// Clear the bits at or above the capacity.
    fn trim(&mut self) {
        // Defensive form: never subtracts below zero and never shifts by 64,
        // so `capacity == 0` (empty-function universes from the reducer
        // corpus) and word-aligned capacities are both safe.
        let (cap, words) = (self.capacity, self.words_mut());
        let used = cap.div_ceil(64);
        words[used..].fill(0);
        if cap % 64 != 0 {
            words[used - 1] &= !0u64 >> (64 - cap % 64);
        }
    }

    /// Add the elements of a row of words, bit `i` of word `i / 64` for
    /// element `i`, holding nothing at or above the capacity.
    pub(crate) fn union_with_words(&mut self, words: &[u64]) {
        for (w, x) in self.words_mut().iter_mut().zip(words) {
            *w |= x;
        }
    }

    /// The capacity (universe size) of the set.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Insert `i`; returns true if it was newly inserted.
    ///
    /// # Panics
    /// Panics if `i >= capacity`.
    pub fn insert(&mut self, i: usize) -> bool {
        assert!(i < self.capacity, "bit {i} out of capacity {}", self.capacity);
        let (w, b) = (i / 64, i % 64);
        let word = &mut self.words_mut()[w];
        let fresh = *word & (1 << b) == 0;
        *word |= 1 << b;
        fresh
    }

    /// Remove `i`; returns true if it was present.
    pub fn remove(&mut self, i: usize) -> bool {
        assert!(i < self.capacity, "bit {i} out of capacity {}", self.capacity);
        let (w, b) = (i / 64, i % 64);
        let word = &mut self.words_mut()[w];
        let present = *word & (1 << b) != 0;
        *word &= !(1 << b);
        present
    }

    /// Is `i` in the set?
    pub fn contains(&self, i: usize) -> bool {
        if i >= self.capacity {
            return false;
        }
        self.words()[i / 64] & (1 << (i % 64)) != 0
    }

    /// Remove all elements.
    pub fn clear(&mut self) {
        self.words_mut().fill(0);
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.words().iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Is the set empty?
    pub fn is_empty(&self) -> bool {
        self.words().iter().all(|&w| w == 0)
    }

    /// `self ∪= other`; returns true if `self` changed.
    pub fn union_with(&mut self, other: &BitSet) -> bool {
        debug_assert_eq!(self.capacity, other.capacity);
        let mut changed = false;
        for (a, b) in self.words_mut().iter_mut().zip(other.words()) {
            let new = *a | b;
            changed |= new != *a;
            *a = new;
        }
        changed
    }

    /// `self ∩= other`; returns true if `self` changed.
    pub fn intersect_with(&mut self, other: &BitSet) -> bool {
        debug_assert_eq!(self.capacity, other.capacity);
        let mut changed = false;
        for (a, b) in self.words_mut().iter_mut().zip(other.words()) {
            let new = *a & b;
            changed |= new != *a;
            *a = new;
        }
        changed
    }

    /// `self −= other`; returns true if `self` changed.
    pub fn difference_with(&mut self, other: &BitSet) -> bool {
        debug_assert_eq!(self.capacity, other.capacity);
        let mut changed = false;
        for (a, b) in self.words_mut().iter_mut().zip(other.words()) {
            let new = *a & !b;
            changed |= new != *a;
            *a = new;
        }
        changed
    }

    /// Overwrite `self` with the contents of `other`, reusing the existing
    /// word storage (no allocation).
    ///
    /// ```
    /// use epre_analysis::BitSet;
    /// let mut scratch = BitSet::new(100);
    /// scratch.insert(7);
    /// let mut src = BitSet::new(100);
    /// src.insert(64);
    /// scratch.assign_from(&src);
    /// assert_eq!(scratch.iter().collect::<Vec<_>>(), vec![64]);
    /// ```
    ///
    /// # Panics
    /// Panics (debug) if the capacities differ.
    pub fn assign_from(&mut self, other: &BitSet) {
        debug_assert_eq!(self.capacity, other.capacity);
        self.words_mut().copy_from_slice(other.words());
    }

    /// `self ∪= (add − minus)` in one in-place sweep; returns true if
    /// `self` changed. This is the data-flow transfer step
    /// `out ∪= gen ∪ (in − kill)` without the intermediate clone.
    ///
    /// ```
    /// use epre_analysis::BitSet;
    /// let mut out = BitSet::new(8);
    /// let mut inn = BitSet::new(8);
    /// let mut kill = BitSet::new(8);
    /// inn.insert(1);
    /// inn.insert(2);
    /// kill.insert(2);
    /// assert!(out.union_with_minus(&inn, &kill));
    /// assert_eq!(out.iter().collect::<Vec<_>>(), vec![1]);
    /// assert!(!out.union_with_minus(&inn, &kill)); // already a fixed point
    /// ```
    ///
    /// # Panics
    /// Panics (debug) if the capacities differ.
    pub fn union_with_minus(&mut self, add: &BitSet, minus: &BitSet) -> bool {
        debug_assert_eq!(self.capacity, add.capacity);
        debug_assert_eq!(self.capacity, minus.capacity);
        let mut changed = false;
        for ((a, b), m) in self.words_mut().iter_mut().zip(add.words()).zip(minus.words()) {
            let new = *a | (b & !m);
            changed |= new != *a;
            *a = new;
        }
        changed
    }

    /// Iterate the elements in increasing order.
    pub fn iter(&self) -> Iter<'_> {
        let words = self.words();
        Iter { words, word: 0, bits: words.first().copied().unwrap_or(0) }
    }
}

/// Iterator over the elements of a [`BitSet`], produced by [`BitSet::iter`].
pub struct Iter<'a> {
    words: &'a [u64],
    word: usize,
    bits: u64,
}

impl Iterator for Iter<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        loop {
            if self.bits != 0 {
                let b = self.bits.trailing_zeros() as usize;
                self.bits &= self.bits - 1;
                return Some(self.word * 64 + b);
            }
            self.word += 1;
            if self.word >= self.words.len() {
                return None;
            }
            self.bits = self.words[self.word];
        }
    }
}

impl Default for BitSet {
    /// The empty set of capacity 0.
    fn default() -> Self {
        BitSet::new(0)
    }
}

impl fmt::Debug for BitSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

impl FromIterator<usize> for BitSet {
    /// Collect into a set sized by the maximum element (+1).
    fn from_iter<I: IntoIterator<Item = usize>>(iter: I) -> Self {
        let items: Vec<usize> = iter.into_iter().collect();
        let cap = items.iter().max().map_or(0, |m| m + 1);
        let mut s = BitSet::new(cap);
        for i in items {
            s.insert(i);
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn insert_remove_contains() {
        let mut s = BitSet::new(130);
        assert!(s.insert(0));
        assert!(s.insert(129));
        assert!(!s.insert(0));
        assert!(s.contains(0));
        assert!(s.contains(129));
        assert!(!s.contains(64));
        assert!(s.remove(0));
        assert!(!s.remove(0));
        assert!(!s.contains(0));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn full_respects_capacity() {
        let s = BitSet::full(67);
        assert_eq!(s.len(), 67);
        assert!(s.contains(66));
        assert!(!s.contains(67));
        let e = BitSet::full(0);
        assert!(e.is_empty());
    }

    #[test]
    fn set_algebra() {
        let mut a = BitSet::new(128);
        let mut b = BitSet::new(128);
        for i in [1, 5, 64, 100] {
            a.insert(i);
        }
        for i in [5, 64, 99] {
            b.insert(i);
        }
        let mut u = a.clone();
        assert!(u.union_with(&b));
        assert_eq!(u.iter().collect::<Vec<_>>(), vec![1, 5, 64, 99, 100]);
        let mut i = a.clone();
        assert!(i.intersect_with(&b));
        assert_eq!(i.iter().collect::<Vec<_>>(), vec![5, 64]);
        let mut d = a.clone();
        assert!(d.difference_with(&b));
        assert_eq!(d.iter().collect::<Vec<_>>(), vec![1, 100]);
        // No-change operations report false.
        assert!(!u.union_with(&a));
        assert!(!i.intersect_with(&a));
    }

    #[test]
    fn full_and_trim_handle_zero_and_aligned_capacities() {
        // Regression: the old trim computed `words.len()*64 - capacity` and
        // shifted by it, which is shift-overflow-prone at the boundaries.
        for cap in [0usize, 1, 63, 64, 65, 127, 128] {
            let s = BitSet::full(cap);
            assert_eq!(s.len(), cap, "full({cap})");
            assert_eq!(s.capacity(), cap);
            if cap > 0 {
                assert!(s.contains(cap - 1));
            }
            assert!(!s.contains(cap));
        }
        let e = BitSet::full(0);
        assert!(e.is_empty());
        assert_eq!(e.iter().count(), 0);
        // Set algebra on the empty universe must not panic either.
        let mut a = BitSet::full(0);
        let b = BitSet::new(0);
        assert!(!a.union_with(&b));
        assert!(!a.union_with_minus(&b, &b));
        a.assign_from(&b);
        assert!(a.is_empty());
    }

    #[test]
    fn assign_from_and_union_with_minus() {
        let mut scratch = BitSet::new(130);
        scratch.insert(5);
        let mut src = BitSet::new(130);
        src.insert(129);
        scratch.assign_from(&src);
        assert_eq!(scratch.iter().collect::<Vec<_>>(), vec![129]);

        let mut out = BitSet::new(130);
        out.insert(0);
        let mut add = BitSet::new(130);
        let mut minus = BitSet::new(130);
        for i in [3, 64, 100] {
            add.insert(i);
        }
        minus.insert(64);
        assert!(out.union_with_minus(&add, &minus));
        assert_eq!(out.iter().collect::<Vec<_>>(), vec![0, 3, 100]);
        // Equivalent to the clone-based formulation.
        let mut reference = add.clone();
        reference.difference_with(&minus);
        reference.insert(0);
        assert_eq!(out, reference);
        assert!(!out.union_with_minus(&add, &minus));
    }

    #[test]
    fn out_of_range_contains_is_false() {
        let s = BitSet::new(10);
        assert!(!s.contains(1000));
    }

    #[test]
    #[should_panic(expected = "out of capacity")]
    fn out_of_range_insert_panics() {
        BitSet::new(10).insert(10);
    }

    #[test]
    fn from_iterator() {
        let s: BitSet = [3usize, 9, 1].into_iter().collect();
        assert_eq!(s.capacity(), 10);
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![1, 3, 9]);
    }

    #[test]
    fn matches_hashset_model() {
        // Deterministic pseudo-random ops vs a HashSet reference model.
        let mut seed = 0x9e3779b97f4a7c15u64;
        let mut rng = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        let cap = 200;
        let mut bs = BitSet::new(cap);
        let mut hs: HashSet<usize> = HashSet::new();
        for _ in 0..2000 {
            let v = (rng() % cap as u64) as usize;
            match rng() % 3 {
                0 => {
                    assert_eq!(bs.insert(v), hs.insert(v));
                }
                1 => {
                    assert_eq!(bs.remove(v), hs.remove(&v));
                }
                _ => assert_eq!(bs.contains(v), hs.contains(&v)),
            }
            assert_eq!(bs.len(), hs.len());
        }
        let mut from_bs: Vec<usize> = bs.iter().collect();
        let mut from_hs: Vec<usize> = hs.into_iter().collect();
        from_bs.sort_unstable();
        from_hs.sort_unstable();
        assert_eq!(from_bs, from_hs);
    }

    #[test]
    fn inline_and_heap_sets_agree() {
        // The same elements at a capacity stored inline (128) and one on
        // the heap (129) give the same answers, and trimming keeps the
        // bits past the capacity clear in both.
        for cap in [1usize, 64, 100, 128, 129, 200] {
            let mut a = BitSet::full(cap);
            let mut b = BitSet::new(cap);
            for i in (0..cap).step_by(3) {
                b.insert(i);
            }
            let expect: Vec<usize> = (0..cap).filter(|i| i % 3 != 0).collect();
            assert!(a.difference_with(&b));
            assert_eq!(a.iter().collect::<Vec<_>>(), expect, "cap {cap}");
            assert_eq!(a.len() + b.len(), cap);
            let copy = a.clone();
            assert_eq!(copy, a);
            a.union_with(&b);
            assert_eq!(a, BitSet::full(cap));
            assert!(!a.contains(cap));
        }
    }

    #[test]
    fn clear_empties() {
        let mut s = BitSet::full(100);
        s.clear();
        assert!(s.is_empty());
        assert_eq!(s.iter().count(), 0);
    }

    #[test]
    fn debug_format() {
        let s: BitSet = [2usize, 4].into_iter().collect();
        assert_eq!(format!("{s:?}"), "{2, 4}");
    }
}
