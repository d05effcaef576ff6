//! Compressed-sparse-row storage for transition systems and sparse
//! matrices.
//!
//! The seed implementation stored one `Vec` per configuration
//! (`Vec<Vec<Edge>>` in the checker, `Vec<Vec<(u32, f64)>>` in the Markov
//! builder): one heap allocation and one pointer-chase per row. [`Csr`]
//! flattens every row into a single `data` vector addressed through an
//! `offsets` array, which is both allocation-free to traverse and cache
//! friendly — the layout every analysis (Tarjan, reachability, Gauss–
//! Seidel) actually wants.

use crate::error::CoreError;

/// A flat row-major sparse structure: row `i` is
/// `data[offsets[i] .. offsets[i + 1]]`.
#[derive(Debug, Clone, PartialEq)]
pub struct Csr<E> {
    offsets: Vec<u32>,
    data: Vec<E>,
}

impl<E> Default for Csr<E> {
    /// No rows.
    fn default() -> Self {
        Csr {
            offsets: vec![0],
            data: Vec::new(),
        }
    }
}

impl<E> Csr<E> {
    /// Fallible [`Csr::from_counts`]: the offset accumulation is
    /// `checked_add`, so a total past the u32 offset width surfaces as
    /// [`CoreError::OffsetOverflow`] instead of wrapping or aborting —
    /// the form planners and budgeted builders want.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::OffsetOverflow`] when `Σ counts` exceeds
    /// `u32::MAX`.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != Σ counts` — a caller logic error, not a
    /// size condition.
    pub fn try_from_counts(counts: &[u32], data: Vec<E>) -> Result<Self, CoreError> {
        let mut offsets = Vec::with_capacity(counts.len() + 1);
        let mut acc: u32 = 0;
        offsets.push(0);
        for &c in counts {
            acc = acc.checked_add(c).ok_or(CoreError::OffsetOverflow {
                what: "CSR offset",
                value: acc as u128 + c as u128,
            })?;
            offsets.push(acc);
        }
        assert_eq!(
            acc as usize,
            data.len(),
            "row counts do not match data length"
        );
        Ok(Csr { offsets, data })
    }

    /// Assembles a CSR from per-row counts and the concatenated row data
    /// (row-major, already in row order).
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != Σ counts` or the total exceeds `u32::MAX`
    /// (use [`Csr::try_from_counts`] to get the overflow as a typed
    /// error instead).
    pub fn from_counts(counts: &[u32], data: Vec<E>) -> Self {
        Self::try_from_counts(counts, data).expect("CSR size exceeds u32 offsets")
    }

    /// Appends a row. A row that would take the total past the u32
    /// offset width is not appended.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::OffsetOverflow`] when the total would exceed
    /// `u32::MAX`.
    pub fn push_row(&mut self, row: impl IntoIterator<Item = E>) -> Result<(), CoreError> {
        let start = self.data.len();
        self.data.extend(row);
        let end = super::ids::try_id(self.data.len(), "CSR offset")
            .inspect_err(|_| self.data.truncate(start))?;
        self.offsets.push(end);
        Ok(())
    }

    /// Removes every row, keeping both buffers' capacity.
    pub fn clear(&mut self) {
        self.offsets.truncate(1);
        self.data.clear();
    }

    /// Builds a CSR from nested rows (convenience for tests and small
    /// call sites; the hot paths assemble flat data directly).
    ///
    /// # Panics
    ///
    /// Panics if the total exceeds `u32::MAX` (checked row by row, so
    /// oversized rows fail loudly instead of silently corrupting the
    /// offsets).
    pub fn from_rows(rows: Vec<Vec<E>>) -> Self {
        let mut csr = Self::default();
        for row in rows {
            csr.push_row(row).expect("CSR offsets exceed u32");
        }
        csr
    }

    /// Number of rows.
    #[inline]
    pub fn n_rows(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Total number of stored entries.
    #[inline]
    pub fn n_entries(&self) -> usize {
        self.data.len()
    }

    /// Row `i` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[inline]
    pub fn row(&self, i: usize) -> &[E] {
        &self.data[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    /// Iterator over all rows in order.
    pub fn rows(&self) -> impl Iterator<Item = &[E]> + '_ {
        (0..self.n_rows()).map(move |i| self.row(i))
    }

    /// The concatenated row data.
    #[inline]
    pub fn flat(&self) -> &[E] {
        &self.data
    }

    /// Inverts the adjacency structure: entry `e` in row `i` with
    /// `key(e) = j` becomes entry `i` in row `j` of the result. Rows of the
    /// result are sorted ascending (counting-sort order): the flat tier's
    /// reverse CSR ([`TransitionSystem::reverse_budgeted`]).
    ///
    /// [`TransitionSystem::reverse_budgeted`]:
    /// crate::engine::TransitionSystem::reverse_budgeted
    pub fn invert(&self, key: impl Fn(&E) -> u32) -> Csr<u32> {
        let n = self.n_rows();
        let mut counts = vec![0u32; n];
        for e in &self.data {
            counts[key(e) as usize] += 1;
        }
        let mut offsets = Vec::with_capacity(n + 1);
        let mut acc = 0u32;
        offsets.push(0);
        for &c in &counts {
            acc += c;
            offsets.push(acc);
        }
        let mut cursor = offsets.clone();
        let mut data = vec![0u32; self.data.len()];
        for i in 0..n {
            for e in self.row(i) {
                let j = key(e) as usize;
                // lint: cast-ok(row index is bounded by the u32 offset width)
                data[cursor[j] as usize] = i as u32;
                cursor[j] += 1;
            }
        }
        Csr { offsets, data }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_counts_slices_rows() {
        let csr = Csr::from_counts(&[2, 0, 3], vec![10, 11, 20, 21, 22]);
        assert_eq!(csr.n_rows(), 3);
        assert_eq!(csr.n_entries(), 5);
        assert_eq!(csr.row(0), &[10, 11]);
        assert_eq!(csr.row(1), &[] as &[i32]);
        assert_eq!(csr.row(2), &[20, 21, 22]);
        let rows: Vec<&[i32]> = csr.rows().collect();
        assert_eq!(rows.len(), 3);
    }

    #[test]
    fn from_rows_round_trips() {
        let csr = Csr::from_rows(vec![vec![1u32], vec![], vec![2, 3]]);
        assert_eq!(csr.row(0), &[1]);
        assert_eq!(csr.row(2), &[2, 3]);
        assert_eq!(csr.flat(), &[1, 2, 3]);
    }

    #[test]
    #[should_panic(expected = "do not match")]
    fn mismatched_counts_panic() {
        let _ = Csr::from_counts(&[1], vec![1u8, 2]);
    }

    #[test]
    #[should_panic(expected = "exceeds u32 offsets")]
    fn offset_overflow_panics_before_corrupting() {
        // The running total is checked against u32::MAX *before* the
        // data-length comparison, so overflow can never wrap silently.
        let _ = Csr::<u8>::from_counts(&[u32::MAX, 1], vec![]);
    }

    #[test]
    fn try_from_counts_surfaces_overflow_as_typed_error() {
        let e = Csr::<u8>::try_from_counts(&[u32::MAX, 1], vec![]).unwrap_err();
        assert!(matches!(
            e,
            CoreError::OffsetOverflow {
                what: "CSR offset",
                ..
            }
        ));
        assert!(e.to_string().contains("4294967296"));
    }

    #[test]
    fn push_row_appends_and_clear_keeps_no_rows() {
        let mut csr = Csr::from_rows(vec![vec![1u32], vec![], vec![2, 3]]);
        csr.clear();
        assert_eq!(csr, Csr::default());
        csr.push_row([4, 5]).unwrap();
        csr.push_row([]).unwrap();
        assert_eq!(csr, Csr::from_rows(vec![vec![4, 5], vec![]]));
    }

    #[test]
    fn invert_builds_predecessor_rows() {
        // 0 -> {1, 2}, 1 -> {2}, 2 -> {0, 2}
        let csr = Csr::from_rows(vec![vec![1u32, 2], vec![2], vec![0, 2]]);
        let rev = csr.invert(|&j| j);
        assert_eq!(rev.row(0), &[2]);
        assert_eq!(rev.row(1), &[0]);
        assert_eq!(rev.row(2), &[0, 1, 2]);
    }
}
