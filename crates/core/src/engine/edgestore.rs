//! Edge storage for transition systems: the flat [`Csr<Edge>`] tier
//! (24 bytes per edge, slice access) and one byte-packed delta-stream
//! store ([`DeltaStream`]) whose bytes live on one of two backings — a
//! resident buffer (the compressed tier, for 10⁸+-edge systems) or
//! CRC-framed chunk files behind a pinned-budget cache (the disk tier,
//! for 10⁹+-edge systems whose stream itself exceeds RAM; see
//! [`super::spill`]). `stab-markov` stores its transient matrix `Q` in
//! the same stream type.
//!
//! # Why a stream store
//!
//! Reachable-only exploration and symmetry quotients cap the largest
//! checkable instance by *edge memory*, not time: every [`Edge`] costs
//! `size_of::<Edge>()` = 24 bytes in the flat CSR, so Herman N=17
//! (≈ 1.3·10⁸ edges for the full sweep) sits at the RAM ceiling. The
//! stream stores, per row,
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
//! One writer ([`DeltaStreamWriter`]) builds a stream, spilling its
//! pending tail at row boundaries when it has a spill sink; one cursor
//! ([`StreamCursor`]) decodes a row on either backing. [`EdgeStorage`] is
//! the runtime-selected store held by
//! [`TransitionSystem`](super::TransitionSystem), chosen per run with
//! [`ExploreOptions::with_edge_store`](super::ExploreOptions::with_edge_store):
//! its `Stream` variant serves both the compressed and the disk
//! [`EdgeStoreKind`], told apart by the backing. Decoding is
//! allocation-free: [`EdgeIter`] is a cursor over the byte stream (or a
//! slice iterator on the flat tier), which is what Tarjan, the
//! reachability closures and the `Q`-row reads actually need.

use std::borrow::Cow;
use std::sync::Arc;

use super::csr::Csr;
use super::explore::Edge;
use super::ids::{self, U64Map};
use super::resilience::Budget;
use super::spill::{self, SpillConfig, SpillSink, SpillStore};
use crate::error::CoreError;

/// Variable-byte (LEB128) and zig-zag primitives of the delta stream.
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

/// The one writer of a [`DeltaStream`]: u64 byte offsets, zig-zag varint
/// target deltas (base = the row's own index before its first item, then
/// the previous target), and a dedup-interned probability table. Edge
/// rows ([`EdgeStorageBuilder`]) and `stab-markov`'s `Q` rows write their
/// per-item payloads through it, so the subtle parts of the encoding live
/// exactly once.
///
/// A spilling writer ([`DeltaStreamWriter::spilling`]) hands its pending
/// tail to a chunk file whenever the tail reaches the configured chunk
/// size at a row boundary, so its resident set stays bounded by one
/// chunk regardless of stream size.
#[derive(Debug)]
pub struct DeltaStreamWriter {
    offsets: Vec<u64>,
    stream: Vec<u8>,
    probs: Vec<f64>,
    prob_ids: U64Map<u32>,
    n_items: u64,
    prev: i64,
    /// Global byte offset of `stream[0]`: 0 for a resident stream, and
    /// the number of already-spilled bytes on a spilling one. `offsets`
    /// stay global either way.
    base: u64,
    /// The chunk writer of a spilling stream (`None`: all resident).
    sink: Option<SpillSink>,
}

impl Default for DeltaStreamWriter {
    fn default() -> Self {
        Self::new()
    }
}

impl DeltaStreamWriter {
    /// An empty resident stream positioned at row 0.
    pub fn new() -> Self {
        Self::from_parts(vec![0], Vec::new(), Vec::new(), 0, None)
    }

    /// An empty stream spilling per `cfg` (a fresh self-cleaning
    /// temporary directory when `cfg.dir` is `None`).
    pub fn spilling(cfg: &SpillConfig) -> Self {
        Self::from_parts(vec![0], Vec::new(), Vec::new(), 0, Some(cfg))
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
        let pid = *self.prob_ids.entry(prob.to_bits()).or_insert_with(|| {
            let id = ids::id_u32(self.probs.len(), "interned probability ids fit u32");
            self.probs.push(prob);
            id
        });
        vbyte::write(&mut self.stream, pid as u64);
    }

    /// Closes the current row: records its end offset (global, i.e.
    /// including any spilled prefix), re-bases the delta encoding on the
    /// next row's index, and — on a spilling writer — spills the pending
    /// tail once it has reached the chunk size, so chunks always end on
    /// row boundaries.
    pub fn end_row(&mut self) {
        // lint: arith-ok(byte offsets grow by in-memory buffer lengths; u64 outlives addressable memory)
        self.offsets.push(self.base + self.stream.len() as u64);
        self.prev = (self.offsets.len() - 1) as i64;
        if let Some(sink) = &mut self.sink {
            // lint: arith-ok(base advances by a spilled in-memory buffer length; u64 outlives addressable memory)
            self.base += sink.maybe_spill(self.base, &mut self.stream);
        }
    }

    /// Heap bytes held resident: the pending stream tail (the whole
    /// stream when nothing spills), the offsets and the probability
    /// table.
    pub fn resident_bytes(&self) -> u64 {
        // lint: arith-ok(approximate size accounting over resident buffer lengths)
        (self.stream.len() + self.offsets.len() * 8 + self.probs.len() * 8) as u64
    }

    /// Borrowed view of the in-progress stream `(offsets, probs,
    /// n_items)` — the checkpoint snapshot surface (valid only at a row
    /// boundary, i.e. right after [`DeltaStreamWriter::end_row`]); the
    /// stream bytes are read through [`DeltaStreamWriter::byte_range`].
    pub fn parts(&self) -> (&[u64], &[f64], u64) {
        (&self.offsets, &self.probs, self.n_items)
    }

    /// The global byte range `start..end` of the stream — borrowed while
    /// it is resident, re-read from spilled chunks where it has left RAM
    /// — so checkpoint frames can snapshot deltas on either backing.
    pub fn byte_range(&self, start: u64, end: u64) -> Cow<'_, [u8]> {
        spill::byte_range(self.sink.as_ref(), &self.stream, self.base, start, end)
    }

    /// Rebuilds an in-progress writer from checkpointed parts, positioned
    /// at the row boundary the parts were captured at: the prob-intern
    /// map is rebuilt from `probs` (ids are insertion order) and the
    /// delta base is re-derived from the offsets length, exactly as
    /// [`DeltaStreamWriter::end_row`] left it. With `spill`, the restored
    /// bytes re-spill as rows keep arriving.
    ///
    /// # Panics
    ///
    /// Panics if `offsets` is empty (a valid stream always starts with
    /// offset 0).
    pub fn from_parts(
        offsets: Vec<u64>,
        stream: Vec<u8>,
        probs: Vec<f64>,
        n_items: u64,
        spill: Option<&SpillConfig>,
    ) -> Self {
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
            sink: spill.map(SpillSink::create),
        }
    }

    /// Finalises the stream: a spilling writer drains its pending tail
    /// into a last chunk and seals the chunk set behind its cache.
    pub fn finish(mut self) -> DeltaStream {
        let backing = match self.sink.take() {
            Some(mut sink) => {
                sink.spill(self.base, &mut self.stream);
                Backing::Spilled(Box::new(sink.finish()))
            }
            None => Backing::Resident(Arc::new(self.stream)),
        };
        DeltaStream {
            offsets: self.offsets,
            probs: self.probs,
            n_items: self.n_items,
            backing,
        }
    }
}

/// A finished delta stream: per-row byte-packed items delimited by u64
/// offsets, plus the deduplicated probability table, with the stream
/// bytes on one of two backings. The compressed tier keeps them in one
/// resident buffer; the disk tier spills them to CRC-framed chunk files
/// (see [`super::spill`]) and keeps only the offsets, the probability
/// table and a pinned-budget chunk cache resident. Chunks end on row
/// boundaries, so every row decodes from exactly one chunk.
#[derive(Debug)]
pub struct DeltaStream {
    /// Global byte offset of each row's encoding (`n_rows + 1` entries,
    /// monotone).
    offsets: Vec<u64>,
    /// Deduplicated probabilities, indexed by the stream's probability
    /// ids.
    probs: Vec<f64>,
    /// Total items (edges, or `Q` entries) across all rows.
    n_items: u64,
    backing: Backing,
}

/// Where a [`DeltaStream`]'s bytes live.
#[derive(Debug)]
enum Backing {
    /// The whole stream in one buffer, shared with its live cursors.
    Resident(Arc<Vec<u8>>),
    /// Chunk files behind a pinned-budget cache (boxed: the cache state
    /// dwarfs the resident variant's one pointer).
    Spilled(Box<SpillStore>),
}

impl DeltaStream {
    /// Number of rows.
    pub fn n_rows(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Total items across all rows (u64: representable past 2³²).
    pub fn n_items(&self) -> u64 {
        self.n_items
    }

    /// The byte offsets delimiting each row's encoding.
    pub fn offsets(&self) -> &[u64] {
        &self.offsets
    }

    /// The deduplicated probability table.
    pub fn probs(&self) -> &[f64] {
        &self.probs
    }

    /// The tier this backing implements: [`EdgeStoreKind::Compressed`]
    /// when resident, [`EdgeStoreKind::Disk`] when spilled.
    pub fn kind(&self) -> EdgeStoreKind {
        match self.backing {
            Backing::Resident(_) => EdgeStoreKind::Compressed,
            Backing::Spilled(_) => EdgeStoreKind::Disk,
        }
    }

    /// The chunk files and cache of a spilled stream; `None` when
    /// resident.
    pub fn spill_store(&self) -> Option<&SpillStore> {
        match &self.backing {
            Backing::Resident(_) => None,
            Backing::Spilled(store) => Some(store),
        }
    }

    /// Whether row `i` stores no items.
    pub fn row_is_empty(&self, i: usize) -> bool {
        self.offsets[i] == self.offsets[i + 1]
    }

    /// Offsets plus probability table: resident on either backing.
    fn side_bytes(&self) -> u64 {
        (self.offsets.len() * std::mem::size_of::<u64>()
            + self.probs.len() * std::mem::size_of::<f64>()) as u64
    }

    /// Total footprint, comparable across backings: the side tables plus
    /// the stream bytes, resident or spilled.
    pub fn bytes(&self) -> u64 {
        self.side_bytes()
            + match &self.backing {
                Backing::Resident(bytes) => bytes.len() as u64,
                Backing::Spilled(store) => store.spilled_bytes(),
            }
    }

    /// Bytes currently resident in RAM: the side tables plus the whole
    /// buffer, or plus the cached chunks (the figure budget probes
    /// report as cache pressure).
    pub fn resident_bytes(&self) -> u64 {
        self.side_bytes()
            + match &self.backing {
                Backing::Resident(bytes) => bytes.len() as u64,
                Backing::Spilled(store) => store.resident_bytes(),
            }
    }

    /// High-water mark of [`DeltaStream::resident_bytes`] (the cache's
    /// peak, not its current occupancy, when spilled).
    pub fn peak_resident_bytes(&self) -> u64 {
        self.side_bytes()
            + match &self.backing {
                Backing::Resident(bytes) => bytes.len() as u64,
                Backing::Spilled(store) => store.peak_resident_bytes(),
            }
    }

    /// Stream bytes spilled to chunk files: zero when resident.
    pub fn spilled_bytes(&self) -> u64 {
        self.spill_store().map_or(0, SpillStore::spilled_bytes)
    }
}

/// The one row cursor of a [`DeltaStream`], on either backing: a
/// zero-alloc decoder over one row's span that pins the bytes it reads —
/// the resident buffer, or the row's cached chunk — with an [`Arc`], so
/// the chunk cache may rotate underneath it. It holds the rebase /
/// zig-zag-accumulation / prob-table invariants exactly once for edge
/// rows and `stab-markov`'s `Q` rows.
#[derive(Debug, Clone)]
pub struct StreamCursor<'a> {
    bytes: Arc<Vec<u8>>,
    pos: usize,
    end: usize,
    /// Delta base: the row id before the first item, then the previous
    /// target.
    prev: i64,
    probs: &'a [f64],
}

impl<'a> StreamCursor<'a> {
    /// A cursor over row `row` of `stream`, spanning
    /// `offsets[row]..offsets[row + 1]`.
    ///
    /// # Panics
    ///
    /// Panics if the row's spill chunk fails frame validation — a corrupt
    /// chunk is refused, never decoded (use
    /// [`SpillStore::verify_chunks`] for the fallible check).
    #[inline]
    pub fn new(stream: &'a DeltaStream, row: usize) -> Self {
        let (start, end) = (stream.offsets[row], stream.offsets[row + 1]);
        let (bytes, base) = match &stream.backing {
            Backing::Resident(bytes) => (Arc::clone(bytes), 0),
            // An empty row touches no chunk.
            Backing::Spilled(_) if start == end => (Arc::default(), start),
            Backing::Spilled(store) => store.load_containing(start),
        };
        debug_assert!(
            // lint: arith-ok(debug-only bound over a chunk table verified contiguous at load)
            end <= base + bytes.len() as u64,
            "row {row} spans a chunk boundary"
        );
        StreamCursor {
            bytes,
            pos: (start - base) as usize,
            end: (end - base) as usize,
            prev: row as i64,
            probs: &stream.probs,
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
        self.prev += vbyte::unzigzag(vbyte::read(&self.bytes, &mut self.pos));
        ids::delta_target(self.prev, "corrupt delta stream")
    }

    /// Decodes a raw payload varint.
    #[inline]
    pub fn raw(&mut self) -> u64 {
        vbyte::read(&self.bytes, &mut self.pos)
    }

    /// Decodes a probability-table id and resolves it.
    #[inline]
    pub fn prob(&mut self) -> f64 {
        self.probs[vbyte::read(&self.bytes, &mut self.pos) as usize]
    }
}

/// Rows decoded between two budget probes of the inversion passes.
const INVERT_PROBE_STRIDE: usize = 1 << 16;

/// Counting-sort inversion of the stream tier (the flat tier uses
/// [`Csr::invert`]): builds the u32-offset reverse CSR from a per-row
/// target cursor, decoding each row twice, under a cooperative
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

/// Cursor over one row of either tier, yielding decoded [`Edge`]s by
/// value in `(to, movers)` order.
#[derive(Debug, Clone)]
pub enum EdgeIter<'a> {
    /// Slice walk over the flat tier.
    Flat(std::slice::Iter<'a, Edge>),
    /// Varint decode over the delta stream, resident or spilled.
    Stream(StreamCursor<'a>),
}

impl Iterator for EdgeIter<'_> {
    type Item = Edge;

    #[inline]
    fn next(&mut self) -> Option<Edge> {
        match self {
            EdgeIter::Flat(it) => it.next().copied(),
            EdgeIter::Stream(cur) if cur.done() => None,
            EdgeIter::Stream(cur) => Some(Edge {
                to: cur.target(),
                movers: cur.raw(),
                prob: cur.prob(),
            }),
        }
    }
}

/// The per-run edge store of a [`TransitionSystem`](super::TransitionSystem):
/// whichever tier [`ExploreOptions::with_edge_store`](super::ExploreOptions::with_edge_store)
/// selected.
#[derive(Debug)]
pub enum EdgeStorage {
    /// Flat `Csr<Edge>` tier.
    Flat(Csr<Edge>),
    /// The delta stream: the compressed tier when resident, the disk
    /// tier when spilled.
    Stream(DeltaStream),
}

impl EdgeStorage {
    /// Number of rows (explored configurations).
    pub fn n_rows(&self) -> usize {
        match self {
            EdgeStorage::Flat(csr) => csr.n_rows(),
            EdgeStorage::Stream(s) => s.n_rows(),
        }
    }

    /// Total number of stored edges (u64: representable past 2³²).
    pub fn n_edges(&self) -> u64 {
        match self {
            EdgeStorage::Flat(csr) => csr.n_entries() as u64,
            EdgeStorage::Stream(s) => s.n_items(),
        }
    }

    /// Total footprint of the store (offsets + edge data + side tables),
    /// comparable across tiers: on the disk tier, the resident side
    /// tables plus the spilled stream bytes.
    pub fn edge_bytes(&self) -> u64 {
        match self {
            EdgeStorage::Flat(csr) => {
                (csr.n_entries() * std::mem::size_of::<Edge>()
                    + (csr.n_rows() + 1) * std::mem::size_of::<u32>()) as u64
            }
            EdgeStorage::Stream(s) => s.bytes(),
        }
    }

    /// Which tier this store is.
    pub fn kind(&self) -> EdgeStoreKind {
        match self {
            EdgeStorage::Flat(_) => EdgeStoreKind::Flat,
            EdgeStorage::Stream(s) => s.kind(),
        }
    }

    /// Zero-alloc cursor over row `i`'s decoded edges, in `(to, movers)`
    /// order.
    #[inline]
    pub fn row_iter(&self, i: usize) -> EdgeIter<'_> {
        match self {
            EdgeStorage::Flat(csr) => EdgeIter::Flat(csr.row(i).iter()),
            EdgeStorage::Stream(s) => EdgeIter::Stream(StreamCursor::new(s, i)),
        }
    }

    /// Whether row `i` stores no edges (terminal configuration).
    pub fn row_is_empty(&self, i: usize) -> bool {
        match self {
            EdgeStorage::Flat(csr) => csr.row(i).is_empty(),
            EdgeStorage::Stream(s) => s.row_is_empty(i),
        }
    }

    /// Row `i` as a slice — **flat tier only**: `None` on the stream
    /// tiers, whose rows exist only in decoded form (iterate
    /// [`EdgeStorage::row_iter`] instead).
    pub fn try_row_slice(&self, i: usize) -> Option<&[Edge]> {
        match self {
            EdgeStorage::Flat(csr) => Some(csr.row(i)),
            EdgeStorage::Stream(_) => None,
        }
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
                let full_bytes = csr.n_entries() as u64 * 4 + (csr.n_rows() as u64 + 1) * 4;
                budget.probe("reverse", full_bytes, csr.n_rows() as u64)?;
                Ok(csr.invert(|e| e.to))
            }
            EdgeStorage::Stream(s) => invert_target_rows_budgeted(
                s.n_rows(),
                s.n_items(),
                |i| self.row_iter(i).map(|e| e.to),
                budget,
            ),
        }
    }

    /// Bytes currently resident in RAM: equal to
    /// [`EdgeStorage::edge_bytes`] on the in-RAM tiers; on the disk tier,
    /// only the offsets, probability table and cached chunks.
    pub fn resident_bytes(&self) -> u64 {
        match self {
            EdgeStorage::Flat(_) => self.edge_bytes(),
            EdgeStorage::Stream(s) => s.resident_bytes(),
        }
    }

    /// Bytes spilled to chunk files: zero on the in-RAM tiers.
    pub fn spilled_bytes(&self) -> u64 {
        match self {
            EdgeStorage::Flat(_) => 0,
            EdgeStorage::Stream(s) => s.spilled_bytes(),
        }
    }

    /// High-water mark of [`EdgeStorage::resident_bytes`]: equal to it
    /// on the in-RAM tiers, the cache's peak on the disk tier.
    pub fn peak_resident_bytes(&self) -> u64 {
        match self {
            EdgeStorage::Flat(_) => self.edge_bytes(),
            EdgeStorage::Stream(s) => s.peak_resident_bytes(),
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
    /// Streams rows into the delta encoding, each edge as `(target
    /// delta, movers, prob id)` — resident, or spilling chunks to disk as
    /// they fill.
    Stream(DeltaStreamWriter),
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
            EdgeStoreKind::Compressed => EdgeStorageBuilder::Stream(DeltaStreamWriter::new()),
            EdgeStoreKind::Disk => EdgeStorageBuilder::Stream(DeltaStreamWriter::spilling(cfg)),
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
            EdgeStorageBuilder::Stream(w) => w.resident_bytes(),
        }
    }

    /// Appends the next row (edges sorted by `(to, movers)`, as every
    /// exploration path produces them).
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
            EdgeStorageBuilder::Stream(w) => {
                for e in row {
                    w.target(e.to);
                    w.raw(e.movers);
                    w.prob(e.prob);
                }
                w.end_row();
            }
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
    /// ([`Csr::from_counts`]'s checked offsets) — the stream tiers are
    /// the supported representations at that scale.
    pub fn finish(self) -> EdgeStorage {
        match self {
            EdgeStorageBuilder::Flat { counts, edges } => {
                EdgeStorage::Flat(Csr::from_counts(&counts, edges))
            }
            EdgeStorageBuilder::Stream(w) => EdgeStorage::Stream(w.finish()),
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

    fn build(kind: EdgeStoreKind, rows: &[Vec<Edge>]) -> EdgeStorage {
        let mut b = EdgeStorageBuilder::new(kind);
        for r in rows {
            b.push_row(r);
        }
        b.finish()
    }

    fn stream(store: &EdgeStorage) -> &DeltaStream {
        match store {
            EdgeStorage::Stream(s) => s,
            EdgeStorage::Flat(_) => panic!("expected the stream tier"),
        }
    }

    #[test]
    fn compressed_round_trips_rows() {
        let rows: Vec<Vec<Edge>> = vec![
            vec![edge(0, 0b1, 0.5), edge(2, 0b10, 0.5)],
            vec![],
            vec![edge(0, 0b11, 0.25), edge(1, 0b1, 0.25), edge(1, 0b10, 0.5)],
        ];
        let store = build(EdgeStoreKind::Compressed, &rows);
        assert_eq!(store.n_rows(), 3);
        assert_eq!(store.n_edges(), 5);
        // Two distinct probabilities interned, held resident.
        assert_eq!(stream(&store).probs().len(), 2);
        assert!(stream(&store).spill_store().is_none());
        for (i, want) in rows.iter().enumerate() {
            let got: Vec<Edge> = store.row_iter(i).collect();
            assert_eq!(&got, want, "row {i}");
            assert_eq!(store.row_is_empty(i), want.is_empty());
            // Stream rows exist only in decoded form.
            assert!(store.try_row_slice(i).is_none());
        }
    }

    #[test]
    fn offsets_are_monotone_and_bytes_accounted() {
        let rows: Vec<Vec<Edge>> = (0..50u32)
            .map(|i| {
                (0..i % 7)
                    .map(|j| edge(i + j, 1 << (j % 8), 0.125))
                    .collect()
            })
            .collect();
        let store = build(EdgeStoreKind::Compressed, &rows);
        let s = stream(&store);
        for w in s.offsets().windows(2) {
            assert!(w[0] <= w[1], "offsets monotone");
        }
        assert_eq!(
            *s.offsets().last().unwrap() as usize,
            store.edge_bytes() as usize - s.offsets().len() * 8 - s.probs().len() * 8
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
}
