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

    /// Fallible [`Csr::from_rows`]: oversized rows and oversized totals
    /// surface as [`CoreError::OffsetOverflow`].
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::OffsetOverflow`] when a single row exceeds
    /// `u32::MAX` entries or `Σ` row lengths exceeds `u32::MAX`.
    pub fn try_from_rows(rows: Vec<Vec<E>>) -> Result<Self, CoreError> {
        let counts: Vec<u32> = rows
            .iter()
            .map(|r| super::ids::try_id(r.len(), "CSR row length"))
            .collect::<Result<_, _>>()?;
        let data: Vec<E> = rows.into_iter().flatten().collect();
        Self::try_from_counts(&counts, data)
    }

    /// Builds a CSR from nested rows (convenience for tests and small
    /// call sites; the hot paths assemble flat data directly).
    ///
    /// # Panics
    ///
    /// Panics if any single row holds more than `u32::MAX` entries (the
    /// per-row counts are u32 — a checked conversion, so oversized rows
    /// fail loudly instead of silently corrupting the offsets), or if the
    /// total exceeds `u32::MAX` (as [`Csr::from_counts`]).
    pub fn from_rows(rows: Vec<Vec<E>>) -> Self {
        let counts: Vec<u32> = rows
            .iter()
            .map(|r| u32::try_from(r.len()).expect("CSR row length exceeds u32::MAX entries"))
            .collect();
        let data: Vec<E> = rows.into_iter().flatten().collect();
        Self::from_counts(&counts, data)
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
    fn try_from_rows_round_trips_small_rows() {
        let csr = Csr::try_from_rows(vec![vec![1u32], vec![], vec![2, 3]]).unwrap();
        assert_eq!(csr.row(0), &[1]);
        assert_eq!(csr.row(2), &[2, 3]);
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
