//! Compressed sparse rows: [`Csr`], the flat layout of every per-block and
//! per-register list the passes rebuild.

/// A read-only table of rows stored as one flat array plus row offsets.
///
/// Every pass rebuilds its CFG, dominator tree and use lists from scratch,
/// so a `Vec` per row would cost an allocation per block or register on
/// every rebuild; a `Csr` costs two, whatever its size.
///
/// ```
/// use epre_cfg::Csr;
/// let t = Csr::from_pairs(3, [(2, 'a'), (0, 'b'), (2, 'c')]);
/// assert_eq!(t.row(0), &['b']);
/// assert!(t.row(1).is_empty());
/// assert_eq!(t.row(2), &['a', 'c']);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Csr<T> {
    /// Row `k` is `items[offsets[k]..offsets[k + 1]]`.
    offsets: Vec<u32>,
    items: Vec<T>,
}

impl<T> Default for Csr<T> {
    /// The table of no rows.
    fn default() -> Self {
        Csr { offsets: Vec::new(), items: Vec::new() }
    }
}

impl<T: Copy> Csr<T> {
    /// Group `(row, item)` pairs into `rows` rows by a stable counting
    /// sort: each row keeps its items in the order the pairs came.
    /// `pairs` is walked twice, once to count and once to fill.
    ///
    /// # Panics
    /// Panics if a pair names a row `>= rows`.
    pub fn from_pairs<I>(rows: usize, pairs: I) -> Self
    where
        I: IntoIterator<Item = (usize, T)>,
        I::IntoIter: Clone,
    {
        let mut table = Csr::default();
        table.refill(rows, pairs);
        table
    }

    /// Make `self` the table [`Csr::from_pairs`] would build, reusing its
    /// storage: a refill that fits in the old table allocates nothing.
    ///
    /// # Panics
    /// Panics if a pair names a row `>= rows`.
    pub fn refill<I>(&mut self, rows: usize, pairs: I)
    where
        I: IntoIterator<Item = (usize, T)>,
        I::IntoIter: Clone,
    {
        let pairs = pairs.into_iter();
        // offsets[k + 2] counts row k. After the prefix sum offsets[k + 1]
        // is where row k starts, and filling moves it to where row k ends,
        // which is where row k + 1 starts; the last slot is then spare.
        let offsets = &mut self.offsets;
        offsets.clear();
        offsets.resize(rows + 2, 0);
        for (k, _) in pairs.clone() {
            offsets[k + 2] += 1;
        }
        for k in 2..offsets.len() {
            offsets[k] += offsets[k - 1];
        }
        self.items.clear();
        if let Some((_, seed)) = pairs.clone().next() {
            self.items.resize(offsets[rows + 1] as usize, seed);
        }
        for (k, item) in pairs {
            let at = &mut offsets[k + 1];
            self.items[*at as usize] = item;
            *at += 1;
        }
        offsets.pop();
    }

    /// Drop each item equal to the one before it in its row, in place.
    pub fn dedup_rows(&mut self)
    where
        T: PartialEq,
    {
        let mut write = 0;
        let mut start = 0;
        for k in 1..self.offsets.len() {
            let end = self.offsets[k] as usize;
            for read in start..end {
                if read == start || self.items[read] != self.items[read - 1] {
                    self.items[write] = self.items[read];
                    write += 1;
                }
            }
            start = end;
            self.offsets[k] = write as u32;
        }
        self.items.truncate(write);
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.offsets.len().saturating_sub(1)
    }

    /// Row `k`.
    pub fn row(&self, k: usize) -> &[T] {
        &self.items[self.offsets[k] as usize..self.offsets[k + 1] as usize]
    }

    /// Every item, row after row.
    pub fn items(&self) -> &[T] {
        &self.items
    }

    /// Every `(row, item)` pair, row after row.
    pub fn pairs(&self) -> impl Iterator<Item = (usize, T)> + Clone + '_ {
        (0..self.rows()).flat_map(move |k| self.row(k).iter().map(move |&t| (k, t)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_keep_insertion_order() {
        let pairs = [(1, 10), (0, 20), (1, 30), (3, 40), (1, 50)];
        let t = Csr::from_pairs(4, pairs);
        assert_eq!(t.rows(), 4);
        assert_eq!(t.row(0), &[20]);
        assert_eq!(t.row(1), &[10, 30, 50]);
        assert!(t.row(2).is_empty());
        assert_eq!(t.row(3), &[40]);
        assert_eq!(t.items(), &[20, 10, 30, 50, 40]);
        let back: Vec<(usize, i32)> = t.pairs().collect();
        assert_eq!(back, vec![(0, 20), (1, 10), (1, 30), (1, 50), (3, 40)]);
    }

    #[test]
    fn empty_tables() {
        let none: Csr<u8> = Csr::from_pairs(0, []);
        assert_eq!(none.rows(), 0);
        assert_eq!(none.pairs().count(), 0);
        let blank: Csr<u8> = Csr::from_pairs(3, []);
        assert_eq!(blank.rows(), 3);
        assert!((0..3).all(|k| blank.row(k).is_empty()));
    }

    #[test]
    fn dedup_rows_drops_adjacent_repeats_only() {
        let mut t = Csr::from_pairs(3, [(0, 1), (0, 1), (0, 2), (0, 1), (2, 7), (2, 7)]);
        t.dedup_rows();
        assert_eq!(t.row(0), &[1, 2, 1]);
        assert!(t.row(1).is_empty());
        assert_eq!(t.row(2), &[7]);
        assert_eq!(t.items().len(), 4);
    }

    #[test]
    fn refill_equals_a_fresh_table() {
        let mut t = Csr::from_pairs(4, [(1, 10), (3, 40), (1, 50)]);
        t.refill(3, [(2, 7), (0, 8)]);
        assert_eq!(t, Csr::from_pairs(3, [(2, 7), (0, 8)]));
        t.refill(2, []);
        assert_eq!(t, Csr::from_pairs(2, []));
        assert_eq!(Csr::<u8>::default().rows(), 0);
    }

    #[test]
    #[should_panic]
    fn row_out_of_range_panics() {
        Csr::from_pairs(1, [(1, 0u8)]);
    }
}
