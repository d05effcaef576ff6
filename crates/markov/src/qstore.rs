//! Storage for the transient-to-transient matrix `Q`, in the engine's
//! edge-store tiers (`stab_core::engine::edgestore`).
//!
//! The flat tier is the classic [`QMatrix`] — a `Csr<(u32, f64)>` holding
//! `(column, probability)` pairs, 12–16 bytes per entry plus u32 offsets.
//! The compressed and disk tiers are one type, the engine's
//! [`DeltaStream`]: each row packs zig-zag varint **column deltas**
//! (against the row's own transient index first, then the previous
//! column — rows are sorted by column) plus a varint index into a
//! deduplicated probability table, delimited by u64 byte offsets. The
//! compressed tier keeps the stream in one resident buffer; the disk tier
//! spills it to `WSR1` chunk files through the engine's shared spill
//! machinery (`stab_core::engine::spill`), and rows decode out of a
//! pinned-budget chunk cache, with only the u64 offsets, the probability
//! table, and the cache resident.
//!
//! [`AbsorbingChain`](crate::AbsorbingChain) picks the tier matching the
//! transition system it was built from, so a run selected with
//! `ExploreOptions::with_edge_store(EdgeStoreKind::Compressed)` keeps its
//! memory profile through the whole Markov pipeline: the solvers
//! ([`crate::linalg`]) iterate rows through the [`QRows`] trait and never
//! materialise a flat copy. The chain matches on [`QStorage`] once per
//! solve and hands the solver the concrete store, so no per-entry tier
//! dispatch sits in a sweep ([`QStorage::row_iter`] serves everything
//! else). The solver sweeps one strongly connected block at a time,
//! sinks first, and on the compressed and disk tiers decodes each block
//! once into a flat scratch while the scratch fits the engine's byte
//! budget; only a block too large for it is decoded again on every sweep (and, on the disk tier, re-faults the
//! chunks holding it through the cache), paying time for the memory
//! reduction that lets 10⁹-entry chains fit at all. A block's rows need
//! not be contiguous, so a decode reads rows in ascending index order but
//! may skip between chunks.

use stab_core::engine::{
    Csr, DeltaStream, DeltaStreamWriter, EdgeStoreKind, SpillConfig, StreamCursor,
};

/// The flat `Q` tier: row `i` holds `(j, Q_ij)` entries sorted by `j`.
pub type QMatrix = Csr<(u32, f64)>;

/// Row-iteration access to a sparse substochastic matrix, implemented by
/// each concrete tier. The solvers are generic over it; the
/// runtime-selected [`QStorage`] is matched once per solve instead.
pub trait QRows {
    /// The row cursor.
    type Row<'a>: Iterator<Item = (u32, f64)>
    where
        Self: 'a;
    /// Number of rows.
    fn n_rows(&self) -> usize;
    /// Cursor over row `i`'s `(column, probability)` entries, ascending
    /// by column.
    fn row_iter(&self, i: usize) -> Self::Row<'_>;
    /// Resident-set bytes backing the rows (the cache-pressure figure the
    /// solvers feed their `Budget` probes). In-RAM tiers report 0 — their
    /// footprint was already accounted at build time; the disk tier
    /// reports offsets + probability table + pinned chunk cache.
    fn resident_bytes(&self) -> u64 {
        0
    }
}

impl QRows for QMatrix {
    type Row<'a> = std::iter::Copied<std::slice::Iter<'a, (u32, f64)>>;

    fn n_rows(&self) -> usize {
        QMatrix::n_rows(self)
    }

    fn row_iter(&self, i: usize) -> Self::Row<'_> {
        self.row(i).iter().copied()
    }
}

/// Zero-alloc decoding cursor over one stream-tier `Q` row, resident or
/// spilled (a spilled row's chunk is pinned by the cursor, so eviction
/// under it is safe).
#[derive(Debug, Clone)]
pub struct QStreamRow<'a>(StreamCursor<'a>);

impl Iterator for QStreamRow<'_> {
    type Item = (u32, f64);

    #[inline]
    fn next(&mut self) -> Option<(u32, f64)> {
        if self.0.done() {
            return None;
        }
        Some((self.0.target(), self.0.prob()))
    }
}

impl QRows for DeltaStream {
    type Row<'a> = QStreamRow<'a>;

    fn n_rows(&self) -> usize {
        DeltaStream::n_rows(self)
    }

    fn row_iter(&self, i: usize) -> QStreamRow<'_> {
        QStreamRow(StreamCursor::new(self, i))
    }

    fn resident_bytes(&self) -> u64 {
        match self.spill_store() {
            Some(_) => DeltaStream::resident_bytes(self),
            None => 0,
        }
    }
}

/// The per-run `Q` store of an [`AbsorbingChain`](crate::AbsorbingChain):
/// whichever tier matches the transition system's edge store.
#[derive(Debug)]
pub enum QStorage {
    /// Flat CSR tier.
    Flat(QMatrix),
    /// The delta stream: the compressed tier when resident, the disk
    /// tier when spilled.
    Stream(DeltaStream),
}

/// Cursor over one row of either `Q` tier.
#[derive(Debug, Clone)]
pub enum QRowIter<'a> {
    /// Slice walk over the flat tier.
    Flat(std::iter::Copied<std::slice::Iter<'a, (u32, f64)>>),
    /// Varint decode over the delta stream.
    Stream(QStreamRow<'a>),
}

impl Iterator for QRowIter<'_> {
    type Item = (u32, f64);

    #[inline]
    fn next(&mut self) -> Option<(u32, f64)> {
        match self {
            QRowIter::Flat(it) => it.next(),
            QRowIter::Stream(it) => it.next(),
        }
    }
}

impl QStorage {
    /// Which tier this store is.
    pub fn kind(&self) -> EdgeStoreKind {
        match self {
            QStorage::Flat(_) => EdgeStoreKind::Flat,
            QStorage::Stream(q) => q.kind(),
        }
    }

    /// Number of transient rows.
    pub fn n_rows(&self) -> usize {
        match self {
            QStorage::Flat(q) => QMatrix::n_rows(q),
            QStorage::Stream(q) => q.n_rows(),
        }
    }

    /// Total stored entries (u64 — representable past 2³² on the stream
    /// tiers).
    pub fn n_entries(&self) -> u64 {
        match self {
            QStorage::Flat(q) => q.n_entries() as u64,
            QStorage::Stream(q) => q.n_items(),
        }
    }

    /// Heap bytes held by the store (offsets + entries + side tables) —
    /// the `Q`-side analogue of the engine's `edge_bytes`. On the disk
    /// tier this is the total comparable footprint: resident side tables
    /// plus the spilled stream (which the other tiers hold in RAM).
    pub fn q_bytes(&self) -> u64 {
        match self {
            QStorage::Flat(q) => {
                (q.n_entries() * std::mem::size_of::<(u32, f64)>()
                    + (QMatrix::n_rows(q) + 1) * std::mem::size_of::<u32>()) as u64
            }
            QStorage::Stream(q) => q.bytes(),
        }
    }

    /// Resident-set bytes (see [`QRows::resident_bytes`]): equals
    /// [`QStorage::q_bytes`] minus the spilled stream on the disk tier,
    /// 0 on the in-RAM tiers.
    pub fn resident_q_bytes(&self) -> u64 {
        match self {
            QStorage::Flat(_) => 0,
            QStorage::Stream(q) => QRows::resident_bytes(q),
        }
    }

    /// Cursor over row `i`'s `(column, probability)` entries, ascending.
    #[inline]
    pub fn row_iter(&self, i: usize) -> QRowIter<'_> {
        match self {
            QStorage::Flat(q) => QRowIter::Flat(q.row(i).iter().copied()),
            QStorage::Stream(q) => QRowIter::Stream(QRows::row_iter(q, i)),
        }
    }

    /// Row `i` decoded into a fresh vector (test and display convenience;
    /// the solvers iterate the concrete tier's rows without allocating).
    pub fn row_vec(&self, i: usize) -> Vec<(u32, f64)> {
        self.row_iter(i).collect()
    }
}

/// Tier-selected assembly of a `Q` store: rows appended in transient-index
/// order.
#[derive(Debug)]
pub enum QStorageBuilder {
    /// Appends rows to a flat [`QMatrix`].
    Flat(QMatrix),
    /// Streams rows into the engine's delta encoding — each item is
    /// `(column delta, prob id)` — resident, or spilling sealed chunks to
    /// a temp directory as the pending tail crosses the chunk size.
    Stream(DeltaStreamWriter),
}

impl QStorageBuilder {
    /// An empty builder of the selected tier.
    pub fn new(kind: EdgeStoreKind) -> Self {
        match kind {
            EdgeStoreKind::Flat => QStorageBuilder::Flat(QMatrix::default()),
            EdgeStoreKind::Compressed => QStorageBuilder::Stream(DeltaStreamWriter::new()),
            // `Q` is never checkpointed, so the spill is always a
            // self-cleaning temp directory with the default budgets.
            EdgeStoreKind::Disk => {
                QStorageBuilder::Stream(DeltaStreamWriter::spilling(&SpillConfig::default()))
            }
        }
    }

    /// Appends the next row (entries sorted by column, as the chain build
    /// produces them).
    ///
    /// # Panics
    ///
    /// Panics on the flat tier past `u32::MAX` entries in all.
    pub fn push_row(&mut self, row: &[(u32, f64)]) {
        match self {
            QStorageBuilder::Flat(q) => q
                .push_row(row.iter().copied())
                .expect("Q entries fit the u32 offset width"),
            QStorageBuilder::Stream(w) => {
                for &(j, p) in row {
                    w.target(j);
                    w.prob(p);
                }
                w.end_row();
            }
        }
    }

    /// Finalises the selected store.
    pub fn finish(self) -> QStorage {
        match self {
            QStorageBuilder::Flat(q) => QStorage::Flat(q),
            QStorageBuilder::Stream(w) => QStorage::Stream(w.finish()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn build(kind: EdgeStoreKind, rows: &[Vec<(u32, f64)>]) -> QStorage {
        let mut b = QStorageBuilder::new(kind);
        for r in rows {
            b.push_row(r);
        }
        b.finish()
    }

    #[test]
    fn tiers_agree_row_for_row() {
        let rows = vec![
            vec![(0u32, 0.5), (2, 0.25)],
            vec![],
            vec![(1u32, 0.125), (2, 0.5), (3, 0.25)],
            vec![(0u32, 0.5)],
        ];
        let flat = build(EdgeStoreKind::Flat, &rows);
        let comp = build(EdgeStoreKind::Compressed, &rows);
        let disk = build(EdgeStoreKind::Disk, &rows);
        assert_eq!(flat.n_rows(), comp.n_rows());
        assert_eq!(flat.n_rows(), disk.n_rows());
        assert_eq!(flat.n_entries(), comp.n_entries());
        assert_eq!(flat.n_entries(), disk.n_entries());
        for (i, row) in rows.iter().enumerate() {
            assert_eq!(&flat.row_vec(i), row);
            assert_eq!(&comp.row_vec(i), row, "row {i}");
            assert_eq!(&disk.row_vec(i), row, "row {i}");
        }
        assert!(comp.q_bytes() < flat.q_bytes());
        // The disk tier spills its whole stream; the resident set is the
        // side tables plus whatever the cache pins — for a stream smaller
        // than the cache budget that is everything, so resident may equal
        // (never exceed) the total footprint.
        assert!(disk.resident_q_bytes() <= disk.q_bytes());
        match &disk {
            QStorage::Stream(q) => assert!(
                q.spill_store().is_some_and(|s| s.spilled_bytes() > 0),
                "disk Q must spill"
            ),
            QStorage::Flat(_) => unreachable!(),
        }
    }

    #[test]
    fn kinds_are_reported() {
        let flat = build(EdgeStoreKind::Flat, &[vec![(0, 1.0)]]);
        let comp = build(EdgeStoreKind::Compressed, &[vec![(0, 1.0)]]);
        let disk = build(EdgeStoreKind::Disk, &[vec![(0, 1.0)]]);
        assert_eq!(flat.kind(), EdgeStoreKind::Flat);
        assert_eq!(comp.kind(), EdgeStoreKind::Compressed);
        assert_eq!(disk.kind(), EdgeStoreKind::Disk);
    }
}
