//! Three-tier edge storage for transition systems: the flat [`Csr<Edge>`]
//! tier (24 bytes per edge, slice access), a byte-packed compressed
//! tier ([`CompressedEdges`]) for 10⁸+-edge systems, and a disk-spilling
//! tier ([`DiskEdges`]) whose compressed byte stream lives in CRC-framed
//! chunk files behind a pinned-budget cache, for 10⁹+-edge systems whose
//! compressed stream itself exceeds RAM.
//!
//! # Why a second tier
//!
//! Reachable-only exploration and symmetry quotients cap the largest
//! checkable instance by *edge memory*, not time: every [`Edge`] costs
//! `size_of::<Edge>()` = 24 bytes in the flat CSR, so Herman N=17
//! (≈ 1.3·10⁸ edges for the full sweep) sits at the RAM ceiling. The
//! compressed tier stores, per row,
//!
//! * the successor ids as **zig-zag varint deltas** — against the row's
//!   own id for the first edge (delta encoding keeps successors close to
//!   their source), then against the previous successor (rows are sorted
//!   by `(to, movers)`, so the gaps are small);
//! * the activation bitmask as a plain varint (low process bits
//!   dominate);
//! * the Definition 6 probability as a varint **index into a deduplicated
//!   probability table** — distinct probabilities per run are few (powers
//!   of ½ for Herman, `1/#activations` families elsewhere), so the
//!   side-channel `Vec<f64>` stays tiny.
//!
//! Measured bytes per edge land at 3–6 for the zoo (see
//! `BENCH_explore.json`, schema v4+), a 4–8× reduction over the flat tier.
//!
//! Row boundaries are **u64 byte offsets**, and edge counts are tracked
//! in u64 throughout, so systems past 2³² edges are representable rather
//! than silently wrapped (the flat tier's u32 offsets *panic* past that
//! point — see [`Csr::from_counts`]).
//!
//! Both tiers implement the [`EdgeStore`] trait; [`EdgeStorage`] is the
//! runtime-selected store held by
//! [`TransitionSystem`](super::TransitionSystem), chosen per run with
//! [`ExploreOptions::with_edge_store`](super::ExploreOptions::with_edge_store).
//! Decoding is allocation-free: [`EdgeIter`] is a cursor over the byte
//! stream (or a slice iterator on the flat tier), which is what Tarjan,
//! the reachability closures and the `Q`-row reads actually need.

use std::collections::HashMap;

use super::csr::Csr;
use super::explore::Edge;
use super::ids;
use super::resilience::Budget;
use super::spill::{SpillConfig, SpillCursor, SpillSink, SpillStore};
use crate::error::CoreError;

/// Variable-byte (LEB128) and zig-zag primitives shared by the compressed
/// edge stream and `stab-markov`'s compressed `Q` store.
pub mod vbyte {
    /// Maps a signed delta onto the unsigned varint domain
    /// (0, −1, 1, −2, … ↦ 0, 1, 2, 3, …).
    #[inline]
    pub fn zigzag(v: i64) -> u64 {
        ((v << 1) ^ (v >> 63)) as u64
    }

    /// Inverse of [`zigzag`].
    #[inline]
    pub fn unzigzag(v: u64) -> i64 {
        ((v >> 1) as i64) ^ -((v & 1) as i64)
    }

    /// Appends `v` as an LEB128 varint (7 payload bits per byte,
    /// continuation in the high bit).
    #[inline]
    pub fn write(buf: &mut Vec<u8>, mut v: u64) {
        loop {
            let byte = (v & 0x7f) as u8; // lint: cast-ok(masked to 7 bits)
            v >>= 7;
            if v == 0 {
                buf.push(byte);
                return;
            }
            buf.push(byte | 0x80);
        }
    }

    /// Reads one LEB128 varint at `*pos`, advancing the cursor.
    ///
    /// # Panics
    ///
    /// Panics if the stream ends mid-varint (corrupt stream).
    #[inline]
    pub fn read(buf: &[u8], pos: &mut usize) -> u64 {
        let mut v = 0u64;
        let mut shift = 0u32;
        loop {
            let byte = buf[*pos];
            *pos += 1;
            v |= ((byte & 0x7f) as u64) << shift;
            if byte & 0x80 == 0 {
                return v;
            }
            shift += 7;
        }
    }
}

/// Shared low-level writer for delta-compressed row streams: u64 byte
/// offsets, zig-zag varint target deltas (base = the row's own index
/// before its first item, then the previous target), and a dedup-interned
/// probability table. [`CompressedEdgesBuilder`] and `stab-markov`'s
/// compressed `Q` builder wrap it with their per-item payloads, so the
/// subtle parts of the encoding live exactly once.
#[derive(Debug)]
pub struct DeltaStreamWriter {
    offsets: Vec<u64>,
    stream: Vec<u8>,
    probs: Vec<f64>,
    prob_ids: HashMap<u64, u32>,
    n_items: u64,
    prev: i64,
    /// Global byte offset of `stream[0]`: 0 for in-RAM streams, and the
    /// number of already-spilled bytes once [`DeltaStreamWriter::drain`]
    /// has handed prefixes of the stream to a chunk sink. `offsets` stay
    /// global either way.
    base: u64,
}

impl Default for DeltaStreamWriter {
    fn default() -> Self {
        Self::new()
    }
}

impl DeltaStreamWriter {
    /// An empty stream positioned at row 0.
    pub fn new() -> Self {
        DeltaStreamWriter {
            offsets: vec![0],
            stream: Vec::new(),
            probs: Vec::new(),
            prob_ids: HashMap::new(),
            n_items: 0,
            prev: 0,
            base: 0,
        }
    }

    /// Writes the next item's target as a zig-zag varint delta and counts
    /// the item. Call first per item, before any payload varints.
    #[inline]
    pub fn target(&mut self, target: u32) {
        vbyte::write(&mut self.stream, vbyte::zigzag(target as i64 - self.prev));
        self.prev = target as i64;
        self.n_items += 1;
    }

    /// Writes a raw payload varint for the current item.
    #[inline]
    pub fn raw(&mut self, v: u64) {
        vbyte::write(&mut self.stream, v);
    }

    /// Interns `prob` (keyed by its exact bit pattern) and writes its
    /// table id as a varint.
    #[inline]
    pub fn prob(&mut self, prob: f64) {
        let pid = match self.prob_ids.entry(prob.to_bits()) {
            std::collections::hash_map::Entry::Occupied(e) => *e.get(),
            std::collections::hash_map::Entry::Vacant(e) => {
                let id = ids::id_u32(self.probs.len(), "interned probability ids fit u32");
                self.probs.push(prob);
                e.insert(id);
                id
            }
        };
        vbyte::write(&mut self.stream, pid as u64);
    }

    /// Closes the current row: records its end offset (global, i.e.
    /// including any drained prefix) and re-bases the delta encoding on
    /// the next row's index.
    pub fn end_row(&mut self) {
        // lint: arith-ok(byte offsets grow by in-memory buffer lengths; u64 outlives addressable memory)
        self.offsets.push(self.base + self.stream.len() as u64);
        self.prev = (self.offsets.len() - 1) as i64;
    }

    /// Bytes currently resident in the pending (undrained) stream tail.
    pub fn pending_len(&self) -> usize {
        self.stream.len()
    }

    /// Global byte offset at which the pending tail starts.
    pub fn pending_base(&self) -> u64 {
        self.base
    }

    /// Hands the pending stream bytes to a chunk sink and re-bases the
    /// writer past them: returns `(start, bytes)` where `start` is the
    /// global offset of `bytes[0]`. Only valid at a row boundary (right
    /// after [`DeltaStreamWriter::end_row`]), so spilled chunks always
    /// end on row boundaries.
    pub fn drain(&mut self) -> (u64, Vec<u8>) {
        let start = self.base;
        let bytes = std::mem::take(&mut self.stream);
        // lint: arith-ok(base advances by a drained in-memory buffer length; u64 outlives addressable memory)
        self.base += bytes.len() as u64;
        (start, bytes)
    }

    /// Finalises into `(offsets, stream, probs, n_items)`.
    pub fn into_parts(self) -> (Vec<u64>, Vec<u8>, Vec<f64>, u64) {
        (self.offsets, self.stream, self.probs, self.n_items)
    }

    /// Borrowed view of the in-progress stream
    /// `(offsets, stream, probs, n_items)` — the checkpoint snapshot
    /// surface (valid only at a row boundary, i.e. right after
    /// [`DeltaStreamWriter::end_row`]).
    pub fn parts(&self) -> (&[u64], &[u8], &[f64], u64) {
        (&self.offsets, &self.stream, &self.probs, self.n_items)
    }

    /// Rebuilds an in-progress writer from checkpointed parts, positioned
    /// at the row boundary the parts were captured at: the prob-intern
    /// map is rebuilt from `probs` (ids are insertion order) and the
    /// delta base is re-derived from the offsets length, exactly as
    /// [`DeltaStreamWriter::end_row`] left it.
    ///
    /// # Panics
    ///
    /// Panics if `offsets` is empty (a valid stream always starts with
    /// offset 0).
    pub fn from_parts(offsets: Vec<u64>, stream: Vec<u8>, probs: Vec<f64>, n_items: u64) -> Self {
        assert!(!offsets.is_empty(), "offsets must start with 0");
        let prob_ids = probs
            .iter()
            .enumerate()
            .map(|(i, p)| {
                (
                    p.to_bits(),
                    ids::id_u32(i, "interned probability ids fit u32"),
                )
            })
            .collect();
        let prev = (offsets.len() - 1) as i64;
        let base = offsets.last().unwrap() - stream.len() as u64;
        DeltaStreamWriter {
            offsets,
            stream,
            probs,
            prob_ids,
            n_items,
            prev,
            base,
        }
    }
}

/// The decoding counterpart of [`DeltaStreamWriter`]: a zero-alloc
/// cursor over one row's span of a delta-compressed stream, holding the
/// rebase / zig-zag-accumulation / prob-table invariants exactly once
/// for both the edge tier and `stab-markov`'s `Q` tier.
#[derive(Debug, Clone)]
pub struct DeltaStreamReader<'a> {
    stream: &'a [u8],
    pos: usize,
    end: usize,
    /// Delta base: the row id before the first item, then the previous
    /// target.
    prev: i64,
    probs: &'a [f64],
}

impl<'a> DeltaStreamReader<'a> {
    /// A cursor over row `row` spanning `offsets[row]..offsets[row + 1]`.
    #[inline]
    pub fn new(stream: &'a [u8], offsets: &[u64], row: usize, probs: &'a [f64]) -> Self {
        DeltaStreamReader {
            stream,
            pos: offsets[row] as usize,
            end: offsets[row + 1] as usize,
            prev: row as i64,
            probs,
        }
    }

    /// Whether the row's span is exhausted.
    #[inline]
    pub fn done(&self) -> bool {
        self.pos >= self.end
    }

    /// Decodes the next item's target (call first per item, mirroring
    /// [`DeltaStreamWriter::target`]).
    #[inline]
    pub fn target(&mut self) -> u32 {
        self.prev += vbyte::unzigzag(vbyte::read(self.stream, &mut self.pos));
        ids::delta_target(self.prev, "corrupt compressed delta stream")
    }

    /// Decodes a raw payload varint.
    #[inline]
    pub fn raw(&mut self) -> u64 {
        vbyte::read(self.stream, &mut self.pos)
    }

    /// Decodes a probability-table id and resolves it.
    #[inline]
    pub fn prob(&mut self) -> f64 {
        self.probs[vbyte::read(self.stream, &mut self.pos) as usize]
    }
}

/// Rows decoded between two budget probes of the inversion passes.
const INVERT_PROBE_STRIDE: usize = 1 << 16;

/// Counting-sort inversion shared by the compressed tiers (the flat
/// tiers use [`Csr::invert`]): builds the u32-offset reverse CSR from a
/// per-row target cursor, decoding each row twice, under a cooperative
/// [`Budget`]. The full reverse-CSR allocation (4 B/entry data + 4 B/row
/// counts + cursor) is probed on the `reverse` stage up front, and both
/// decoding passes re-probe every `INVERT_PROBE_STRIDE` (2^16) rows —
/// the chunk-blocked external inversion runs row-sequentially, so on the
/// disk tier chunks rotate through the cache exactly once per pass.
///
/// # Errors
///
/// [`CoreError::BudgetExhausted`] when a probe trips; the partial CSR is
/// discarded.
///
/// # Panics
///
/// Panics if `n_entries` exceeds `u32::MAX` — the reverse CSR is
/// u32-offset (checked, never silently wrapped).
pub fn invert_target_rows_budgeted<I>(
    n_rows: usize,
    n_entries: u64,
    row_targets: impl Fn(usize) -> I,
    budget: &Budget,
) -> Result<Csr<u32>, CoreError>
where
    I: Iterator<Item = u32>,
{
    assert!(
        n_entries <= u32::MAX as u64,
        "reverse CSR is u32-offset; {n_entries} entries exceed it"
    );
    let full_bytes = n_entries * 4 + (n_rows as u64) * 8;
    budget.probe("reverse", full_bytes, n_rows as u64)?;
    let mut counts = vec![0u32; n_rows];
    for i in 0..n_rows {
        if i % INVERT_PROBE_STRIDE == 0 && i > 0 {
            budget.probe("reverse", (n_rows as u64) * 4, i as u64)?;
        }
        for t in row_targets(i) {
            counts[t as usize] += 1;
        }
    }
    // Exclusive prefix sum = the write cursor per target row
    // (`Csr::from_counts` re-derives the offsets from `counts`).
    let mut cursor = Vec::with_capacity(n_rows);
    let mut acc = 0u32;
    for &c in &counts {
        cursor.push(acc);
        acc += c;
    }
    let mut data = vec![0u32; n_entries as usize];
    for i in 0..n_rows {
        if i % INVERT_PROBE_STRIDE == 0 && i > 0 {
            budget.probe("reverse", full_bytes, i as u64)?;
        }
        for t in row_targets(i) {
            // lint: cast-ok(row index is bounded by the u32 id width)
            data[cursor[t as usize] as usize] = i as u32;
            cursor[t as usize] += 1;
        }
    }
    Ok(Csr::from_counts(&counts, data))
}

/// Which edge-store tier a run materialises.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EdgeStoreKind {
    /// The flat `Csr<Edge>` tier: 24 B/edge, u32 offsets, slice access —
    /// the fastest store while edge memory fits.
    #[default]
    Flat,
    /// The byte-packed delta stream: ~3–6 B/edge, u64 offsets, cursor
    /// access — for instances whose flat store exceeds RAM.
    Compressed,
    /// The compressed stream spilled to CRC-framed chunk files behind a
    /// pinned-budget cache: ~3–6 B/edge *on disk*, only offsets, the
    /// probability table and the cached chunks resident — for instances
    /// whose compressed stream itself exceeds RAM.
    Disk,
}

impl EdgeStoreKind {
    /// Stable lower-case label (`"flat"` / `"compressed"` / `"disk"`)
    /// used by the bench JSON schema.
    pub fn label(self) -> &'static str {
        match self {
            EdgeStoreKind::Flat => "flat",
            EdgeStoreKind::Compressed => "compressed",
            EdgeStoreKind::Disk => "disk",
        }
    }
}

/// Read access to per-row edge storage, implemented by both tiers and by
/// the runtime-selected [`EdgeStorage`].
pub trait EdgeStore {
    /// Number of rows (explored configurations).
    fn n_rows(&self) -> usize;
    /// Total number of stored edges (u64: representable past 2³²).
    fn n_edges(&self) -> u64;
    /// Heap bytes held by the store (offsets + edge data + side tables).
    fn edge_bytes(&self) -> u64;
    /// Which tier this store is.
    fn kind(&self) -> EdgeStoreKind;
    /// Zero-alloc cursor over row `i`'s decoded edges, in `(to, movers)`
    /// order.
    fn row_iter(&self, i: usize) -> EdgeIter<'_>;
    /// Whether row `i` stores no edges (terminal configuration).
    fn row_is_empty(&self, i: usize) -> bool;
}

impl EdgeStore for Csr<Edge> {
    fn n_rows(&self) -> usize {
        Csr::n_rows(self)
    }

    fn n_edges(&self) -> u64 {
        self.n_entries() as u64
    }

    fn edge_bytes(&self) -> u64 {
        (self.n_entries() * std::mem::size_of::<Edge>()
            + (Csr::n_rows(self) + 1) * std::mem::size_of::<u32>()) as u64
    }

    fn kind(&self) -> EdgeStoreKind {
        EdgeStoreKind::Flat
    }

    fn row_iter(&self, i: usize) -> EdgeIter<'_> {
        EdgeIter::Flat(self.row(i).iter())
    }

    fn row_is_empty(&self, i: usize) -> bool {
        self.row(i).is_empty()
    }
}

/// The compressed tier: per-row zig-zag varint successor deltas plus a
/// deduplicated probability table, delimited by u64 byte offsets.
#[derive(Debug, Clone, PartialEq)]
pub struct CompressedEdges {
    /// Byte offset of each row's encoding in `stream` (`n_rows + 1`
    /// entries, monotone).
    offsets: Vec<u64>,
    /// The packed edge stream.
    stream: Vec<u8>,
    /// Deduplicated Definition 6 probabilities, indexed by the stream's
    /// probability ids.
    probs: Vec<f64>,
    /// Total edges across all rows.
    n_edges: u64,
}

impl CompressedEdges {
    /// Number of distinct probabilities interned in the side table.
    pub fn prob_table_len(&self) -> usize {
        self.probs.len()
    }

    /// The byte offsets delimiting each row's encoding.
    pub fn offsets(&self) -> &[u64] {
        &self.offsets
    }

    /// The packed edge stream bytes.
    pub fn stream(&self) -> &[u8] {
        &self.stream
    }

    /// The deduplicated probability table.
    pub fn probs(&self) -> &[f64] {
        &self.probs
    }

    /// Reassembles a store from checkpointed parts (inverse of the
    /// accessors above).
    pub fn from_parts(offsets: Vec<u64>, stream: Vec<u8>, probs: Vec<f64>, n_edges: u64) -> Self {
        CompressedEdges {
            offsets,
            stream,
            probs,
            n_edges,
        }
    }
}

impl EdgeStore for CompressedEdges {
    fn n_rows(&self) -> usize {
        self.offsets.len() - 1
    }

    fn n_edges(&self) -> u64 {
        self.n_edges
    }

    fn edge_bytes(&self) -> u64 {
        (self.stream.len()
            + self.offsets.len() * std::mem::size_of::<u64>()
            + self.probs.len() * std::mem::size_of::<f64>()) as u64
    }

    fn kind(&self) -> EdgeStoreKind {
        EdgeStoreKind::Compressed
    }

    fn row_iter(&self, i: usize) -> EdgeIter<'_> {
        EdgeIter::Compressed(CompressedRow(DeltaStreamReader::new(
            &self.stream,
            &self.offsets,
            i,
            &self.probs,
        )))
    }

    fn row_is_empty(&self, i: usize) -> bool {
        self.offsets[i] == self.offsets[i + 1]
    }
}

/// Zero-alloc decoding cursor over one compressed edge row.
#[derive(Debug, Clone)]
pub struct CompressedRow<'a>(DeltaStreamReader<'a>);

impl Iterator for CompressedRow<'_> {
    type Item = Edge;

    #[inline]
    fn next(&mut self) -> Option<Edge> {
        if self.0.done() {
            return None;
        }
        Some(Edge {
            to: self.0.target(),
            movers: self.0.raw(),
            prob: self.0.prob(),
        })
    }
}

/// The disk tier: the compressed encoding of [`CompressedEdges`], but
/// with the byte stream spilled to CRC-framed chunk files (see
/// [`super::spill`]); only the u64 row offsets, the deduplicated
/// probability table and a pinned-budget chunk cache stay resident.
/// Chunks end on row boundaries, so every row decodes from exactly one
/// cached chunk.
#[derive(Debug)]
pub struct DiskEdges {
    /// Global byte offset of each row's encoding (`n_rows + 1` entries,
    /// monotone) — resident.
    offsets: Vec<u64>,
    /// Deduplicated Definition 6 probabilities — resident.
    probs: Vec<f64>,
    /// Total edges across all rows.
    n_edges: u64,
    /// The spilled chunk files plus their cache.
    store: SpillStore,
}

impl DiskEdges {
    /// Number of distinct probabilities interned in the side table.
    pub fn prob_table_len(&self) -> usize {
        self.probs.len()
    }

    /// The byte offsets delimiting each row's encoding.
    pub fn offsets(&self) -> &[u64] {
        &self.offsets
    }

    /// The deduplicated probability table.
    pub fn probs(&self) -> &[f64] {
        &self.probs
    }

    /// Bytes currently resident in RAM: offsets + probability table +
    /// cached chunks (the figure budget probes report as cache pressure).
    pub fn resident_bytes(&self) -> u64 {
        (self.offsets.len() * 8 + self.probs.len() * 8) as u64 + self.store.resident_bytes()
    }

    /// High-water mark of [`DiskEdges::resident_bytes`] across the
    /// store's lifetime (cache peak, not current occupancy).
    pub fn peak_resident_bytes(&self) -> u64 {
        (self.offsets.len() * 8 + self.probs.len() * 8) as u64 + self.store.peak_resident_bytes()
    }

    /// Total payload bytes spilled to chunk files.
    pub fn spilled_bytes(&self) -> u64 {
        self.store.spilled_bytes()
    }

    /// The spill directory holding the chunk files.
    pub fn spill_dir(&self) -> &std::path::Path {
        self.store.dir()
    }

    /// Re-validates every chunk file's frame (magic, length, CRC32C)
    /// against the recorded metadata.
    ///
    /// # Errors
    ///
    /// [`CoreError::CheckpointCorrupt`] naming the first bad chunk — a
    /// torn or bit-flipped spill file is refused, never decoded.
    pub fn verify_chunks(&self) -> Result<(), CoreError> {
        self.store.verify_chunks()
    }
}

impl EdgeStore for DiskEdges {
    fn n_rows(&self) -> usize {
        self.offsets.len() - 1
    }

    fn n_edges(&self) -> u64 {
        self.n_edges
    }

    fn edge_bytes(&self) -> u64 {
        // Total footprint (comparable across tiers): resident side
        // tables plus the spilled stream bytes.
        (self.offsets.len() * 8 + self.probs.len() * 8) as u64 + self.store.spilled_bytes()
    }

    fn kind(&self) -> EdgeStoreKind {
        EdgeStoreKind::Disk
    }

    fn row_iter(&self, i: usize) -> EdgeIter<'_> {
        EdgeIter::Disk(DiskRow {
            cur: self.store.row_cursor(&self.offsets, i),
            probs: &self.probs,
        })
    }

    fn row_is_empty(&self, i: usize) -> bool {
        self.offsets[i] == self.offsets[i + 1]
    }
}

/// Decoding cursor over one disk-tier row: owns a pinned reference to
/// the row's cached chunk, so the cache may rotate underneath it.
#[derive(Debug, Clone)]
pub struct DiskRow<'a> {
    cur: SpillCursor,
    probs: &'a [f64],
}

impl Iterator for DiskRow<'_> {
    type Item = Edge;

    #[inline]
    fn next(&mut self) -> Option<Edge> {
        if self.cur.done() {
            return None;
        }
        Some(Edge {
            to: self.cur.target(),
            movers: self.cur.raw(),
            prob: self.probs[self.cur.raw() as usize],
        })
    }
}

/// Cursor over one row of any tier, yielding decoded [`Edge`]s by
/// value in `(to, movers)` order.
#[derive(Debug, Clone)]
pub enum EdgeIter<'a> {
    /// Slice walk over the flat tier.
    Flat(std::slice::Iter<'a, Edge>),
    /// Varint decode over the compressed tier.
    Compressed(CompressedRow<'a>),
    /// Varint decode over a pinned chunk of the disk tier.
    Disk(DiskRow<'a>),
}

impl Iterator for EdgeIter<'_> {
    type Item = Edge;

    #[inline]
    fn next(&mut self) -> Option<Edge> {
        match self {
            EdgeIter::Flat(it) => it.next().copied(),
            EdgeIter::Compressed(it) => it.next(),
            EdgeIter::Disk(it) => it.next(),
        }
    }
}

/// The per-run edge store of a [`TransitionSystem`](super::TransitionSystem):
/// whichever tier [`ExploreOptions::with_edge_store`](super::ExploreOptions::with_edge_store)
/// selected.
// One instance per run, so the Disk variant's inline size is moot.
#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
pub enum EdgeStorage {
    /// Flat `Csr<Edge>` tier.
    Flat(Csr<Edge>),
    /// Byte-packed compressed tier.
    Compressed(CompressedEdges),
    /// Disk-spilled compressed tier.
    Disk(DiskEdges),
}

impl EdgeStorage {
    /// Row `i` as a slice — **flat tier only**: `None` on the compressed
    /// and disk tiers, whose rows exist only in decoded form (iterate
    /// [`EdgeStore::row_iter`] instead).
    pub fn try_row_slice(&self, i: usize) -> Option<&[Edge]> {
        match self {
            EdgeStorage::Flat(csr) => Some(csr.row(i)),
            EdgeStorage::Compressed(_) | EdgeStorage::Disk(_) => None,
        }
    }

    /// Row `i` as a slice — **flat tier only**.
    ///
    /// # Panics
    ///
    /// Panics on the compressed tier; prefer
    /// [`EdgeStorage::try_row_slice`] (or the typed
    /// `CoreError::FlatStoreRequired` surface of
    /// `TransitionSystem::edges`).
    pub fn row_slice(&self, i: usize) -> &[Edge] {
        self.try_row_slice(i)
            .expect("edge slices exist only on the flat store; use row_iter / edge_iter")
    }

    /// The reverse adjacency as a `Csr<u32>` (row `j` = predecessors of
    /// `j`, ascending with multiplicity), built by decoding the stream
    /// twice on the compressed and disk tiers.
    ///
    /// # Panics
    ///
    /// Panics if the edge count exceeds `u32::MAX` — the reverse CSR is
    /// u32-offset (checked, never silently wrapped).
    pub fn invert_targets(&self) -> Csr<u32> {
        self.invert_targets_budgeted(&Budget::unlimited())
            .expect("unlimited budget cannot be exhausted")
    }

    /// [`EdgeStorage::invert_targets`] under a cooperative [`Budget`]:
    /// the reverse-CSR allocation is probed on the `reverse` stage before
    /// anything is built, and the chunk-blocked decoding passes re-probe
    /// per row block, so an over-budget inversion surfaces as
    /// [`CoreError::BudgetExhausted`] (a `Degraded` study outcome)
    /// instead of an OOM.
    ///
    /// # Errors
    ///
    /// [`CoreError::BudgetExhausted`] when a probe trips.
    pub fn invert_targets_budgeted(&self, budget: &Budget) -> Result<Csr<u32>, CoreError> {
        match self {
            EdgeStorage::Flat(csr) => {
                let full_bytes = csr.n_entries() as u64 * 4 + (Csr::n_rows(csr) as u64 + 1) * 4;
                budget.probe("reverse", full_bytes, Csr::n_rows(csr) as u64)?;
                Ok(csr.invert(|e| e.to))
            }
            EdgeStorage::Compressed(c) => invert_target_rows_budgeted(
                EdgeStore::n_rows(c),
                c.n_edges(),
                |i| c.row_iter(i).map(|e| e.to),
                budget,
            ),
            EdgeStorage::Disk(d) => invert_target_rows_budgeted(
                EdgeStore::n_rows(d),
                d.n_edges(),
                |i| d.row_iter(i).map(|e| e.to),
                budget,
            ),
        }
    }

    /// Bytes currently resident in RAM: equal to
    /// [`EdgeStore::edge_bytes`] on the in-RAM tiers; on the disk tier,
    /// only the offsets, probability table and cached chunks.
    pub fn resident_bytes(&self) -> u64 {
        match self {
            EdgeStorage::Flat(_) | EdgeStorage::Compressed(_) => self.edge_bytes(),
            EdgeStorage::Disk(d) => d.resident_bytes(),
        }
    }

    /// Bytes spilled to chunk files: zero on the in-RAM tiers.
    pub fn spilled_bytes(&self) -> u64 {
        match self {
            EdgeStorage::Flat(_) | EdgeStorage::Compressed(_) => 0,
            EdgeStorage::Disk(d) => d.spilled_bytes(),
        }
    }

    /// High-water mark of [`EdgeStorage::resident_bytes`]: equal to it
    /// on the in-RAM tiers, the cache's peak on the disk tier.
    pub fn peak_resident_bytes(&self) -> u64 {
        match self {
            EdgeStorage::Flat(_) | EdgeStorage::Compressed(_) => self.edge_bytes(),
            EdgeStorage::Disk(d) => d.peak_resident_bytes(),
        }
    }
}

impl EdgeStore for EdgeStorage {
    fn n_rows(&self) -> usize {
        match self {
            EdgeStorage::Flat(c) => EdgeStore::n_rows(c),
            EdgeStorage::Compressed(c) => EdgeStore::n_rows(c),
            EdgeStorage::Disk(d) => EdgeStore::n_rows(d),
        }
    }

    fn n_edges(&self) -> u64 {
        match self {
            EdgeStorage::Flat(c) => EdgeStore::n_edges(c),
            EdgeStorage::Compressed(c) => c.n_edges(),
            EdgeStorage::Disk(d) => d.n_edges(),
        }
    }

    fn edge_bytes(&self) -> u64 {
        match self {
            EdgeStorage::Flat(c) => EdgeStore::edge_bytes(c),
            EdgeStorage::Compressed(c) => c.edge_bytes(),
            EdgeStorage::Disk(d) => EdgeStore::edge_bytes(d),
        }
    }

    fn kind(&self) -> EdgeStoreKind {
        match self {
            EdgeStorage::Flat(_) => EdgeStoreKind::Flat,
            EdgeStorage::Compressed(_) => EdgeStoreKind::Compressed,
            EdgeStorage::Disk(_) => EdgeStoreKind::Disk,
        }
    }

    fn row_iter(&self, i: usize) -> EdgeIter<'_> {
        match self {
            EdgeStorage::Flat(c) => c.row_iter(i),
            EdgeStorage::Compressed(c) => c.row_iter(i),
            EdgeStorage::Disk(d) => d.row_iter(i),
        }
    }

    fn row_is_empty(&self, i: usize) -> bool {
        match self {
            EdgeStorage::Flat(c) => EdgeStore::row_is_empty(c, i),
            EdgeStorage::Compressed(c) => c.row_is_empty(i),
            EdgeStorage::Disk(d) => d.row_is_empty(i),
        }
    }
}

/// Incremental writer for the compressed tier: rows are appended in id
/// order, each item encoded as `(target delta, movers, prob id)` through
/// the shared [`DeltaStreamWriter`].
#[derive(Debug, Default)]
pub struct CompressedEdgesBuilder {
    w: DeltaStreamWriter,
}

impl CompressedEdgesBuilder {
    /// An empty stream.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends the next row (edges sorted by `(to, movers)`, as every
    /// exploration path produces them).
    pub fn push_row(&mut self, edges: &[Edge]) {
        for e in edges {
            self.w.target(e.to);
            self.w.raw(e.movers);
            self.w.prob(e.prob);
        }
        self.w.end_row();
    }

    /// Finalises the stream.
    pub fn finish(self) -> CompressedEdges {
        let (offsets, stream, probs, n_edges) = self.w.into_parts();
        CompressedEdges {
            offsets,
            stream,
            probs,
            n_edges,
        }
    }

    /// The underlying writer (checkpoint snapshot surface).
    pub fn writer(&self) -> &DeltaStreamWriter {
        &self.w
    }

    /// Rebuilds a builder around a restored writer.
    pub fn from_writer(w: DeltaStreamWriter) -> Self {
        CompressedEdgesBuilder { w }
    }
}

/// Incremental writer for the disk tier: identical encoding to
/// [`CompressedEdgesBuilder`], but whenever the pending stream tail
/// reaches the configured chunk size at a row boundary it is drained
/// into a CRC-framed chunk file, so the builder's resident set stays
/// bounded by one chunk regardless of system size.
#[derive(Debug)]
pub struct DiskEdgesBuilder {
    w: DeltaStreamWriter,
    sink: SpillSink,
}

impl DiskEdgesBuilder {
    /// An empty builder spilling per `cfg` (a fresh self-cleaning
    /// temporary directory when `cfg.dir` is `None`).
    pub fn new(cfg: &SpillConfig) -> Self {
        DiskEdgesBuilder {
            w: DeltaStreamWriter::new(),
            sink: SpillSink::create(cfg),
        }
    }

    /// Appends the next row (edges sorted by `(to, movers)`), spilling a
    /// chunk when the pending tail is large enough.
    pub fn push_row(&mut self, edges: &[Edge]) {
        for e in edges {
            self.w.target(e.to);
            self.w.raw(e.movers);
            self.w.prob(e.prob);
        }
        self.w.end_row();
        self.sink.maybe_spill(&mut self.w);
    }

    /// The underlying writer (checkpoint snapshot surface; its pending
    /// tail starts at [`DeltaStreamWriter::pending_base`], earlier bytes
    /// are read back through [`DiskEdgesBuilder::byte_range`]).
    pub fn writer(&self) -> &DeltaStreamWriter {
        &self.w
    }

    /// Rebuilds a builder around a restored writer; the restored stream
    /// bytes are re-spilled as rows keep arriving.
    pub fn from_writer(w: DeltaStreamWriter, cfg: &SpillConfig) -> Self {
        DiskEdgesBuilder {
            w,
            sink: SpillSink::create(cfg),
        }
    }

    /// Copies the global byte range `start..end` of the stream —
    /// re-reading spilled chunks where needed — so checkpoint frames can
    /// snapshot deltas that have already left RAM.
    pub fn byte_range(&self, start: u64, end: u64) -> Vec<u8> {
        self.sink.byte_range(&self.w, start, end)
    }

    /// Finalises: drains the pending tail into a last chunk and seals
    /// the chunk set behind its cache.
    pub fn finish(mut self) -> DiskEdges {
        if self.w.pending_len() > 0 {
            self.sink.spill(&mut self.w);
        }
        let (offsets, _stream, probs, n_edges) = self.w.into_parts();
        DiskEdges {
            offsets,
            probs,
            n_edges,
            store: self.sink.finish(),
        }
    }
}

/// Tier-selected assembly used by the exploration paths: rows (or whole
/// chunks of rows) are appended in id order and the selected store comes
/// out of [`EdgeStorageBuilder::finish`].
#[derive(Debug)]
pub enum EdgeStorageBuilder {
    /// Accumulates per-row counts + flat edges for `Csr::from_counts`.
    Flat {
        /// Per-row edge counts.
        counts: Vec<u32>,
        /// Concatenated row data.
        edges: Vec<Edge>,
    },
    /// Streams rows straight into the compressed encoding.
    Compressed(CompressedEdgesBuilder),
    /// Streams rows into the compressed encoding, spilling chunks to
    /// disk as they fill.
    Disk(DiskEdgesBuilder),
}

impl EdgeStorageBuilder {
    /// An empty builder of the selected tier (the disk tier with its
    /// default [`SpillConfig`]: a self-cleaning temporary directory).
    pub fn new(kind: EdgeStoreKind) -> Self {
        Self::with_spill(kind, &SpillConfig::default())
    }

    /// An empty builder of the selected tier, spilling per `cfg` on the
    /// disk tier (`cfg` is ignored by the in-RAM tiers).
    pub fn with_spill(kind: EdgeStoreKind, cfg: &SpillConfig) -> Self {
        match kind {
            EdgeStoreKind::Flat => EdgeStorageBuilder::Flat {
                counts: Vec::new(),
                edges: Vec::new(),
            },
            EdgeStoreKind::Compressed => {
                EdgeStorageBuilder::Compressed(CompressedEdgesBuilder::new())
            }
            EdgeStoreKind::Disk => EdgeStorageBuilder::Disk(DiskEdgesBuilder::new(cfg)),
        }
    }

    /// Heap bytes currently held by the under-construction store — the
    /// usage an exploration reports at each budget probe. On the disk
    /// tier this is the *resident* set (offsets, probability table and
    /// the pending chunk), not the spilled bytes.
    pub fn bytes_estimate(&self) -> u64 {
        match self {
            EdgeStorageBuilder::Flat { counts, edges } => {
                (edges.len() * std::mem::size_of::<Edge>() + counts.len() * 4) as u64
            }
            EdgeStorageBuilder::Compressed(b) => {
                let (offsets, stream, probs, _) = b.writer().parts();
                // lint: arith-ok(approximate size accounting over resident buffer lengths)
                (stream.len() + offsets.len() * 8 + probs.len() * 8) as u64
            }
            EdgeStorageBuilder::Disk(b) => {
                let (offsets, _, probs, _) = b.writer().parts();
                // lint: arith-ok(approximate size accounting over resident buffer lengths)
                (b.writer().pending_len() + offsets.len() * 8 + probs.len() * 8) as u64
            }
        }
    }

    /// Appends the next row.
    ///
    /// # Panics
    ///
    /// Panics on the flat tier if the row holds more than `u32::MAX`
    /// edges (u32 per-row counts).
    pub fn push_row(&mut self, row: &[Edge]) {
        match self {
            EdgeStorageBuilder::Flat { counts, edges } => {
                counts.push(u32::try_from(row.len()).expect("row length exceeds u32::MAX edges"));
                edges.extend_from_slice(row);
            }
            EdgeStorageBuilder::Compressed(b) => b.push_row(row),
            EdgeStorageBuilder::Disk(b) => b.push_row(row),
        }
    }

    /// Appends a whole chunk of rows (`chunk_counts[i]` edges each,
    /// concatenated in `chunk_edges`) — the bulk path of the parallel
    /// full sweep.
    pub fn push_chunk(&mut self, chunk_counts: &[u32], chunk_edges: &[Edge]) {
        if let EdgeStorageBuilder::Flat { counts, edges } = self {
            counts.extend_from_slice(chunk_counts);
            edges.extend_from_slice(chunk_edges);
            return;
        }
        let mut base = 0usize;
        for &c in chunk_counts {
            // lint: arith-ok(base plus per-chunk counts stays within the slice the counts describe)
            self.push_row(&chunk_edges[base..base + c as usize]);
            // lint: arith-ok(cursor stays within chunk_edges.len, itself a valid usize)
            base += c as usize;
        }
    }

    /// Finalises the selected store.
    ///
    /// # Panics
    ///
    /// Panics on the flat tier past `u32::MAX` total edges
    /// ([`Csr::from_counts`]'s checked offsets) — the compressed tiers
    /// are the supported representations at that scale.
    pub fn finish(self) -> EdgeStorage {
        match self {
            EdgeStorageBuilder::Flat { counts, edges } => {
                EdgeStorage::Flat(Csr::from_counts(&counts, edges))
            }
            EdgeStorageBuilder::Compressed(b) => EdgeStorage::Compressed(b.finish()),
            EdgeStorageBuilder::Disk(b) => EdgeStorage::Disk(b.finish()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn edge(to: u32, movers: u64, prob: f64) -> Edge {
        Edge { to, movers, prob }
    }

    #[test]
    fn vbyte_round_trips_across_widths() {
        let mut buf = Vec::new();
        let values = [0u64, 1, 127, 128, 300, u32::MAX as u64, u64::MAX];
        for &v in &values {
            vbyte::write(&mut buf, v);
        }
        let mut pos = 0;
        for &v in &values {
            assert_eq!(vbyte::read(&buf, &mut pos), v);
        }
        assert_eq!(pos, buf.len());
    }

    #[test]
    fn zigzag_is_a_bijection_on_small_deltas() {
        for v in [-3i64, -2, -1, 0, 1, 2, 3, i64::MIN / 2, i64::MAX / 2] {
            assert_eq!(vbyte::unzigzag(vbyte::zigzag(v)), v);
        }
        // Small magnitudes stay small: one-byte varints for |δ| < 64.
        assert!(vbyte::zigzag(-64) < 128);
        assert!(vbyte::zigzag(63) < 128);
    }

    #[test]
    fn compressed_round_trips_rows() {
        let rows: Vec<Vec<Edge>> = vec![
            vec![edge(0, 0b1, 0.5), edge(2, 0b10, 0.5)],
            vec![],
            vec![edge(0, 0b11, 0.25), edge(1, 0b1, 0.25), edge(1, 0b10, 0.5)],
        ];
        let mut b = CompressedEdgesBuilder::new();
        for r in &rows {
            b.push_row(r);
        }
        let store = b.finish();
        assert_eq!(EdgeStore::n_rows(&store), 3);
        assert_eq!(store.n_edges(), 5);
        // Two distinct probabilities interned.
        assert_eq!(store.prob_table_len(), 2);
        for (i, want) in rows.iter().enumerate() {
            let got: Vec<Edge> = store.row_iter(i).collect();
            assert_eq!(&got, want, "row {i}");
            assert_eq!(store.row_is_empty(i), want.is_empty());
        }
    }

    #[test]
    fn offsets_are_monotone_and_bytes_accounted() {
        let mut b = CompressedEdgesBuilder::new();
        for i in 0..50u32 {
            let row: Vec<Edge> = (0..i % 7)
                .map(|j| edge(i + j, 1 << (j % 8), 0.125))
                .collect();
            b.push_row(&row);
        }
        let store = b.finish();
        for w in store.offsets().windows(2) {
            assert!(w[0] <= w[1], "offsets monotone");
        }
        assert_eq!(
            *store.offsets().last().unwrap() as usize,
            store.edge_bytes() as usize - store.offsets().len() * 8 - store.prob_table_len() * 8
        );
    }

    #[test]
    fn storage_matches_between_tiers() {
        let rows: Vec<Vec<Edge>> = (0..20)
            .map(|i| {
                (0..(i % 5))
                    .map(|j| edge((i * 7 + j * 3) % 20, (1 << j) | 1, 1.0 / (j + 1) as f64))
                    .collect()
            })
            .collect();
        let mut flat = EdgeStorageBuilder::new(EdgeStoreKind::Flat);
        let mut comp = EdgeStorageBuilder::new(EdgeStoreKind::Compressed);
        // Tiny chunks and cache so even this 20-row system spans several
        // spill files, exercises cross-chunk row cursors, and evicts.
        let spill = SpillConfig {
            chunk_bytes: 16,
            cache_bytes: 32,
            ..SpillConfig::default()
        };
        let mut disk = EdgeStorageBuilder::with_spill(EdgeStoreKind::Disk, &spill);
        for r in &rows {
            flat.push_row(r);
            comp.push_row(r);
            disk.push_row(r);
        }
        let flat = flat.finish();
        let comp = comp.finish();
        let disk = disk.finish();
        assert_eq!(flat.kind(), EdgeStoreKind::Flat);
        assert_eq!(comp.kind(), EdgeStoreKind::Compressed);
        assert_eq!(disk.kind(), EdgeStoreKind::Disk);
        assert_eq!(flat.n_edges(), comp.n_edges());
        assert_eq!(flat.n_edges(), disk.n_edges());
        for i in 0..rows.len() {
            let a: Vec<Edge> = flat.row_iter(i).collect();
            let b: Vec<Edge> = comp.row_iter(i).collect();
            let c: Vec<Edge> = disk.row_iter(i).collect();
            assert_eq!(a, b, "row {i}");
            assert_eq!(a, c, "row {i}");
        }
        // The compressed tier beats 24 B/edge even on this tiny system.
        assert!(comp.edge_bytes() < flat.edge_bytes());
        // The disk tier keeps less than the full stream resident.
        assert!(disk.resident_bytes() < disk.edge_bytes());
    }

    #[test]
    fn push_chunk_equals_per_row_pushes() {
        let rows: Vec<Vec<Edge>> = vec![
            vec![edge(1, 1, 0.5)],
            vec![edge(0, 2, 0.25), edge(3, 1, 0.75)],
            vec![],
            vec![edge(2, 4, 1.0)],
        ];
        // lint: cast-ok(four-row test fixture)
        let counts: Vec<u32> = rows.iter().map(|r| r.len() as u32).collect();
        let flat_edges: Vec<Edge> = rows.iter().flatten().copied().collect();
        for kind in [
            EdgeStoreKind::Flat,
            EdgeStoreKind::Compressed,
            EdgeStoreKind::Disk,
        ] {
            let mut by_row = EdgeStorageBuilder::new(kind);
            for r in &rows {
                by_row.push_row(r);
            }
            let mut by_chunk = EdgeStorageBuilder::new(kind);
            by_chunk.push_chunk(&counts, &flat_edges);
            let (a, b) = (by_row.finish(), by_chunk.finish());
            for i in 0..rows.len() {
                let ra: Vec<Edge> = a.row_iter(i).collect();
                let rb: Vec<Edge> = b.row_iter(i).collect();
                assert_eq!(ra, rb);
            }
        }
    }

    #[test]
    fn invert_targets_agrees_between_tiers() {
        let rows: Vec<Vec<Edge>> = vec![
            vec![edge(1, 1, 1.0), edge(2, 2, 1.0)],
            vec![edge(2, 1, 1.0)],
            vec![edge(0, 1, 0.5), edge(2, 2, 0.5)],
        ];
        let mut flat = EdgeStorageBuilder::new(EdgeStoreKind::Flat);
        let mut comp = EdgeStorageBuilder::new(EdgeStoreKind::Compressed);
        let mut disk = EdgeStorageBuilder::new(EdgeStoreKind::Disk);
        for r in &rows {
            flat.push_row(r);
            comp.push_row(r);
            disk.push_row(r);
        }
        let (flat, comp, disk) = (flat.finish(), comp.finish(), disk.finish());
        let (ra, rb, rc) = (
            flat.invert_targets(),
            comp.invert_targets(),
            disk.invert_targets(),
        );
        assert_eq!(ra, rb);
        assert_eq!(ra, rc);
        assert_eq!(rb.row(2), &[0, 1, 2]);
    }

    #[test]
    #[should_panic(expected = "edge slices exist only on the flat store")]
    fn compressed_row_slice_panics() {
        let mut b = EdgeStorageBuilder::new(EdgeStoreKind::Compressed);
        b.push_row(&[edge(0, 1, 1.0)]);
        let store = b.finish();
        let _ = store.row_slice(0);
    }
}
