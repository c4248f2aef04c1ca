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
        let pairs = pairs.into_iter();
        // offsets[k + 2] counts row k. After the prefix sum offsets[k + 1]
        // is where row k starts, and filling moves it to where row k ends,
        // which is where row k + 1 starts; the last slot is then spare.
        let mut offsets = vec![0u32; rows + 2];
        for (k, _) in pairs.clone() {
            offsets[k + 2] += 1;
        }
        for k in 2..offsets.len() {
            offsets[k] += offsets[k - 1];
        }
        let mut items = match pairs.clone().next() {
            Some((_, seed)) => vec![seed; offsets[rows + 1] as usize],
            None => Vec::new(),
        };
        for (k, item) in pairs {
            let at = &mut offsets[k + 1];
            items[*at as usize] = item;
            *at += 1;
        }
        offsets.pop();
        Csr { offsets, items }
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
        self.offsets.len() - 1
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
    #[should_panic]
    fn row_out_of_range_panics() {
        Csr::from_pairs(1, [(1, 0u8)]);
    }
}
