//! The spilled backing of a [`DeltaStream`](super::edgestore::DeltaStream):
//! CRC-framed chunk files behind a pinned-budget cache.
//!
//! A delta stream is sequential-append with u64 row offsets, so a
//! spilling [`DeltaStreamWriter`](super::edgestore::DeltaStreamWriter)
//! cuts it into **chunks at row boundaries** and writes each chunk as one
//! `WSR1` frame (the checkpoint format of [`super::resilience`]: magic +
//! seq + CRC32C, staged to a `.tmp` and atomically renamed), named
//! `chunk-NNNNNN.bin` inside the spill directory. Only the row offsets,
//! the probability table and a bounded set of cached chunks stay
//! resident; every row decodes from exactly one chunk, so row-sequential
//! passes (exploration order, Tarjan's outer loop, `Q`-row sweeps, the
//! external inversion) rotate each chunk through the cache once. The
//! edge store's disk tier and `stab-markov`'s disk-tier `Q` are the same
//! stream on this backing.
//!
//! Integrity follows the checkpoint discipline: a torn or bit-flipped
//! chunk fails its frame validation and is **refused** — fallibly via
//! [`SpillStore::verify_chunks`] (a typed
//! [`CoreError::CheckpointCorrupt`]), or by panic on a cache miss in the
//! middle of an analysis — never decoded into a wrong system. Chunks are
//! working storage, not a durability surface (the checkpoint chain is):
//! re-exploration heals a damaged spill directory from scratch.

use std::borrow::Cow;
use std::collections::HashMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, Weak};

use super::resilience::{crc32c, FrameSink, FRAME_HEADER_LEN, FRAME_MAGIC};
use crate::error::CoreError;

/// Frame-kind byte distinguishing spill chunks from checkpoint frames
/// (0 = delta, 1 = final, 2 = spill chunk).
pub(crate) const CHUNK_KIND: u8 = 2;

/// Default chunk payload size: big enough to amortise frame and syscall
/// overhead, small enough that a handful fit any sane cache budget.
pub const DEFAULT_CHUNK_BYTES: u64 = 8 << 20;

/// Default pinned cache budget (bytes of chunk payload held resident).
pub const DEFAULT_CACHE_BYTES: u64 = 32 << 20;

/// Where and how the disk tier spills.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpillConfig {
    /// Spill directory. `None` (the default) resolves to a fresh
    /// process-unique temporary directory that is removed when the store
    /// is dropped; an explicit directory is left on disk (stale chunk
    /// files in it are pruned on create).
    pub dir: Option<PathBuf>,
    /// Pending-stream bytes that trigger a chunk spill (at the next row
    /// boundary).
    pub chunk_bytes: u64,
    /// Cache budget: decoded chunks resident at once, in payload bytes
    /// (at least one chunk stays resident regardless).
    pub cache_bytes: u64,
}

impl Default for SpillConfig {
    fn default() -> Self {
        SpillConfig {
            dir: None,
            chunk_bytes: DEFAULT_CHUNK_BYTES,
            cache_bytes: DEFAULT_CACHE_BYTES,
        }
    }
}

/// Distinguishes concurrently created temporary spill directories.
static TEMP_SEQ: AtomicU64 = AtomicU64::new(0);

/// Removes a process-owned temporary spill directory on drop
/// (best-effort: an already-gone directory is fine).
#[derive(Debug)]
struct TempDirGuard(PathBuf);

impl Drop for TempDirGuard {
    fn drop(&mut self) {
        // lint: discard-ok(drop-path cleanup is best-effort; a leaked scratch dir is harmless)
        let _ = fs::remove_dir_all(&self.0);
    }
}

/// One spilled chunk: frame `chunk-{seq:06}.bin` holding the stream's
/// global byte range `start .. start + len`.
#[derive(Debug, Clone, Copy)]
struct ChunkMeta {
    seq: u64,
    start: u64,
    len: u64,
}

fn chunk_path(dir: &Path, seq: u64) -> PathBuf {
    dir.join(format!("chunk-{seq:06}.bin"))
}

/// Reads and validates one chunk frame, returning its payload.
fn read_chunk(dir: &Path, meta: &ChunkMeta) -> Result<Vec<u8>, CoreError> {
    let path = chunk_path(dir, meta.seq);
    let corrupt = |detail: String| CoreError::CheckpointCorrupt {
        path: path.display().to_string(),
        detail,
    };
    let bytes = fs::read(&path).map_err(|e| CoreError::CheckpointIo {
        path: path.display().to_string(),
        detail: e.to_string(),
    })?;
    if bytes.len() < FRAME_HEADER_LEN {
        return Err(corrupt(format!("truncated header ({} bytes)", bytes.len())));
    }
    if bytes[0..4] != FRAME_MAGIC {
        return Err(corrupt("bad magic".into()));
    }
    let seq = u64::from_le_bytes(bytes[12..20].try_into().unwrap());
    let kind = bytes[20];
    let payload_len = u64::from_le_bytes(bytes[21..29].try_into().unwrap());
    let crc = u32::from_le_bytes(bytes[29..33].try_into().unwrap());
    if kind != CHUNK_KIND {
        return Err(corrupt(format!("frame kind {kind} is not a spill chunk")));
    }
    if seq != meta.seq {
        return Err(corrupt(format!("sequence {seq} != expected {}", meta.seq)));
    }
    if payload_len != meta.len || bytes.len() != FRAME_HEADER_LEN + meta.len as usize {
        return Err(corrupt(format!(
            "length {} != expected {} (torn write?)",
            bytes.len() - FRAME_HEADER_LEN.min(bytes.len()),
            meta.len
        )));
    }
    let payload = &bytes[FRAME_HEADER_LEN..];
    let actual = crc32c(payload);
    if actual != crc {
        return Err(corrupt(format!(
            "CRC32C mismatch: stored {crc:#010x}, computed {actual:#010x}"
        )));
    }
    let mut payload_vec = bytes;
    payload_vec.drain(..FRAME_HEADER_LEN);
    Ok(payload_vec)
}

/// Write side of the spill: owns the chunk directory while a spilling
/// [`DeltaStreamWriter`](super::edgestore::DeltaStreamWriter) is
/// running, turning its pending tail into chunk frames.
///
/// Spill I/O failures panic with context rather than corrupting the
/// store: there is no meaningful forward progress once the working
/// directory stops accepting writes (the *checkpoint* chain, if any,
/// still allows a resume elsewhere).
#[derive(Debug)]
pub struct SpillSink {
    dir: PathBuf,
    chunk_bytes: u64,
    cache_bytes: u64,
    chunks: Vec<ChunkMeta>,
    spilled: u64,
    next_seq: u64,
    temp: Option<TempDirGuard>,
}

impl SpillSink {
    /// Creates (and prunes) the spill directory per `cfg`.
    pub fn create(cfg: &SpillConfig) -> Self {
        let (dir, temp) = match &cfg.dir {
            Some(d) => (d.clone(), None),
            None => {
                let d = std::env::temp_dir().join(format!(
                    "stab-spill-{}-{:04}",
                    std::process::id(),
                    TEMP_SEQ.fetch_add(1, Ordering::Relaxed)
                ));
                (d.clone(), Some(TempDirGuard(d)))
            }
        };
        fs::create_dir_all(&dir)
            .unwrap_or_else(|e| panic!("cannot create spill dir {}: {e}", dir.display()));
        // Stale chunks (a previous run's, or a killed run's) would
        // collide with this run's sequence numbers: prune them.
        if let Ok(entries) = fs::read_dir(&dir) {
            for entry in entries.flatten() {
                let name = entry.file_name();
                let name = name.to_string_lossy();
                if name.starts_with("chunk-") && (name.ends_with(".bin") || name.ends_with(".tmp"))
                {
                    // lint: discard-ok(stale-chunk sweep is best-effort; leftovers are re-swept next run)
                    let _ = fs::remove_file(entry.path());
                }
            }
        }
        SpillSink {
            dir,
            chunk_bytes: cfg.chunk_bytes.max(1),
            cache_bytes: cfg.cache_bytes,
            chunks: Vec::new(),
            spilled: 0,
            next_seq: 0,
            temp,
        }
    }

    /// Spills `pending` — the stream bytes from global offset `start` —
    /// if it has reached the chunk size, returning the bytes spilled.
    /// Call at row boundaries only.
    pub fn maybe_spill(&mut self, start: u64, pending: &mut Vec<u8>) -> u64 {
        if pending.len() as u64 >= self.chunk_bytes {
            self.spill(start, pending)
        } else {
            0
        }
    }

    /// Unconditionally writes `pending` — the stream bytes from global
    /// offset `start` — as one chunk frame and takes it (releasing its
    /// buffer), returning the bytes spilled. Call at row boundaries only.
    pub fn spill(&mut self, start: u64, pending: &mut Vec<u8>) -> u64 {
        if pending.is_empty() {
            return 0;
        }
        let bytes = std::mem::take(pending);
        let seq = self.next_seq;
        let committed = chunk_path(&self.dir, seq);
        let tmp = committed.with_extension("tmp");
        let mut sink = FrameSink::create_at(tmp, committed.clone(), 0, seq, CHUNK_KIND)
            .unwrap_or_else(|e| panic!("spill chunk create {} failed: {e}", committed.display()));
        sink.raw(&bytes);
        // Chunks are working storage, not the durability surface: skip
        // the fsyncs (`durable: false`) but keep the atomic rename.
        sink.finish(false)
            .unwrap_or_else(|e| panic!("spill chunk write {} failed: {e}", committed.display()));
        let len = bytes.len() as u64;
        self.chunks.push(ChunkMeta { seq, start, len });
        self.spilled += len;
        self.next_seq += 1;
        len
    }

    /// Seals the chunk set behind its read cache (the caller has drained
    /// the writer's tail).
    pub fn finish(self) -> SpillStore {
        SpillStore {
            dir: self.dir,
            chunks: self.chunks,
            spilled: self.spilled,
            cache_bytes: self.cache_bytes,
            cache: Mutex::new(ChunkCache::default()),
            temp: self.temp,
        }
    }
}

/// The global stream range `start..end` of a writer whose pending tail
/// `pending` starts at global offset `pending_base`: borrowed when the
/// range lies in the tail, otherwise copied, re-reading the chunks of
/// `sink` where the range has left RAM — the checkpoint-delta snapshot
/// surface. A writer without a sink has spilled nothing, so its tail
/// starts at 0 and holds every range.
pub(super) fn byte_range<'a>(
    sink: Option<&SpillSink>,
    pending: &'a [u8],
    pending_base: u64,
    start: u64,
    end: u64,
) -> Cow<'a, [u8]> {
    assert!(start <= end, "byte range reversed");
    let tail = |from: u64| &pending[(from - pending_base) as usize..(end - pending_base) as usize];
    let Some(sink) = sink.filter(|_| start < pending_base) else {
        return Cow::Borrowed(tail(start));
    };
    let mut out = Vec::with_capacity((end - start) as usize);
    let mut pos = start;
    while pos < end.min(pending_base) {
        let idx = chunk_index(&sink.chunks, pos);
        let c = &sink.chunks[idx];
        let bytes = read_chunk(&sink.dir, c)
            .unwrap_or_else(|e| panic!("spill chunk read-back failed: {e}"));
        let take_end = end.min(chunk_end(c));
        out.extend_from_slice(&bytes[(pos - c.start) as usize..(take_end - c.start) as usize]);
        pos = take_end;
    }
    if end > pending_base {
        out.extend_from_slice(tail(pos.max(pending_base)));
    }
    Cow::Owned(out)
}

/// Checked end offset of a chunk's global byte range (`start + len`).
/// Chunk metadata is produced by [`SpillSink::spill`] from real byte
/// counts, so an overflowing sum means in-memory corruption — refuse it
/// rather than wrap into a bogus range.
fn chunk_end(c: &ChunkMeta) -> u64 {
    c.start.checked_add(c.len).unwrap_or_else(|| {
        panic!(
            "{}",
            CoreError::OffsetOverflow {
                what: "spill chunk end offset",
                value: c.start as u128 + c.len as u128,
            }
        )
    })
}

/// Index of the chunk whose range contains global byte `pos`.
fn chunk_index(chunks: &[ChunkMeta], pos: u64) -> usize {
    let idx = chunks.partition_point(|c| c.start <= pos);
    assert!(idx > 0, "byte {pos} precedes the first spilled chunk");
    let c = &chunks[idx - 1];
    assert!(
        pos < chunk_end(c),
        "byte {pos} falls in a gap after chunk {}",
        c.seq
    );
    idx - 1
}

#[derive(Debug, Default)]
struct ChunkCache {
    resident: HashMap<usize, Arc<Vec<u8>>>,
    /// Least-recently-used chunk index first.
    lru: Vec<usize>,
    bytes: u64,
    peak: u64,
    hits: u64,
    misses: u64,
    /// Weak handles to evicted payloads still pinned by live cursors.
    /// A cache miss upgrades these before touching the disk: without
    /// this, an access pattern that revisits chunks while old cursors
    /// stay alive (Tarjan holds one cursor per DFS frame) would read a
    /// *fresh copy* of the same chunk on every revisit — each copy
    /// pinned by a different frame — and the resident set would grow
    /// with the DFS depth instead of staying at one payload per chunk.
    evicted: HashMap<usize, Weak<Vec<u8>>>,
}

/// Read side of the spill: the sealed chunk set plus a pinned-budget
/// cache. Row cursors ([`StreamCursor`](super::edgestore::StreamCursor))
/// pin their chunk with an [`Arc`], so eviction under them is safe; the
/// cache keeps at least one chunk resident regardless of budget.
#[derive(Debug)]
pub struct SpillStore {
    dir: PathBuf,
    chunks: Vec<ChunkMeta>,
    spilled: u64,
    cache_bytes: u64,
    cache: Mutex<ChunkCache>,
    /// Held only for its `Drop` (removes a process-owned temp dir).
    #[allow(dead_code)]
    temp: Option<TempDirGuard>,
}

impl SpillStore {
    /// The spill directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Total payload bytes across all chunk files.
    pub fn spilled_bytes(&self) -> u64 {
        self.spilled
    }

    /// Chunk payload bytes currently cached in RAM.
    pub fn resident_bytes(&self) -> u64 {
        self.cache.lock().unwrap().bytes
    }

    /// High-water mark of [`SpillStore::resident_bytes`].
    pub fn peak_resident_bytes(&self) -> u64 {
        self.cache.lock().unwrap().peak
    }

    /// `(hits, misses)` of the chunk cache so far.
    pub fn cache_stats(&self) -> (u64, u64) {
        let c = self.cache.lock().unwrap();
        (c.hits, c.misses)
    }

    /// Loads (through the cache) the chunk containing global byte `pos`,
    /// returning the pinned payload and the chunk's global start offset.
    ///
    /// # Panics
    ///
    /// Panics if the chunk file fails frame validation — a corrupt spill
    /// chunk is refused, never decoded (use
    /// [`SpillStore::verify_chunks`] for the fallible check).
    pub fn load_containing(&self, pos: u64) -> (Arc<Vec<u8>>, u64) {
        let idx = chunk_index(&self.chunks, pos);
        let meta = self.chunks[idx];
        let mut cache = self.cache.lock().unwrap();
        if let Some(bytes) = cache.resident.get(&idx) {
            let bytes = Arc::clone(bytes);
            cache.hits += 1;
            if let Some(p) = cache.lru.iter().position(|&i| i == idx) {
                cache.lru.remove(p);
            }
            cache.lru.push(idx);
            return (bytes, meta.start);
        }
        // An evicted payload still pinned by a live cursor is revived
        // (shared, not re-read): the resident set never holds two copies
        // of one chunk, no matter how many cursors revisit it.
        let bytes = match cache.evicted.remove(&idx).and_then(|w| w.upgrade()) {
            Some(bytes) => {
                cache.hits += 1;
                bytes
            }
            None => {
                cache.misses += 1;
                Arc::new(
                    read_chunk(&self.dir, &meta)
                        .unwrap_or_else(|e| panic!("refusing corrupt spill chunk: {e}")),
                )
            }
        };
        // Pinned-budget eviction: rotate least-recently-used chunks out
        // until the new one fits (always admitting it). Victims stay
        // reachable through `evicted` for as long as cursors pin them.
        while cache.bytes + meta.len > self.cache_bytes && !cache.lru.is_empty() {
            let victim = cache.lru.remove(0);
            if let Some(b) = cache.resident.remove(&victim) {
                cache.bytes -= b.len() as u64;
                cache.evicted.insert(victim, Arc::downgrade(&b));
            }
        }
        cache.resident.insert(idx, Arc::clone(&bytes));
        cache.lru.push(idx);
        cache.bytes += meta.len;
        cache.peak = cache.peak.max(cache.bytes);
        (bytes, meta.start)
    }

    /// Re-validates every chunk frame (magic, kind, sequence, length,
    /// CRC32C) and the contiguity of the recorded byte ranges.
    ///
    /// # Errors
    ///
    /// [`CoreError::CheckpointCorrupt`] naming the first bad chunk.
    pub fn verify_chunks(&self) -> Result<(), CoreError> {
        let mut expected_start = self.chunks.first().map_or(0, |c| c.start);
        for meta in &self.chunks {
            if meta.start != expected_start {
                return Err(CoreError::CheckpointCorrupt {
                    path: chunk_path(&self.dir, meta.seq).display().to_string(),
                    detail: format!(
                        "chunk starts at byte {} but the previous ends at {expected_start}",
                        meta.start
                    ),
                });
            }
            read_chunk(&self.dir, meta)?;
            expected_start = meta
                .start
                .checked_add(meta.len)
                .ok_or(CoreError::OffsetOverflow {
                    what: "spill chunk end offset",
                    value: meta.start as u128 + meta.len as u128,
                })?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::super::edgestore::{vbyte, DeltaStream, DeltaStreamWriter, StreamCursor};
    use super::*;

    fn write_rows(cfg: &SpillConfig, rows: &[Vec<u32>]) -> DeltaStream {
        let mut w = DeltaStreamWriter::spilling(cfg);
        for row in rows {
            for &t in row {
                w.target(t);
            }
            w.end_row();
        }
        w.finish()
    }

    fn decode_row(stream: &DeltaStream, row: usize) -> Vec<u32> {
        let mut cur = StreamCursor::new(stream, row);
        let mut out = Vec::new();
        while !cur.done() {
            out.push(cur.target());
        }
        out
    }

    fn demo_rows(n: usize) -> Vec<Vec<u32>> {
        (0..n)
            // lint: cast-ok(test targets stay below the tiny row count n)
            .map(|i| (0..i % 5).map(|j| ((i * 13 + j * 7) % n) as u32).collect())
            .collect()
    }

    #[test]
    fn round_trips_across_many_small_chunks() {
        let rows = demo_rows(200);
        let cfg = SpillConfig {
            chunk_bytes: 16, // force many chunks
            cache_bytes: 64,
            ..SpillConfig::default()
        };
        let stream = write_rows(&cfg, &rows);
        let store = stream.spill_store().unwrap();
        assert!(store.spilled_bytes() > 0);
        assert!(
            fs::read_dir(store.dir()).unwrap().count() > 3,
            "tiny chunk size must produce several chunk files"
        );
        // Sequential, then deliberately cache-hostile random-ish order.
        for (i, row) in rows.iter().enumerate() {
            assert_eq!(&decode_row(&stream, i), row, "row {i}");
        }
        for i in (0..rows.len()).rev().step_by(3) {
            assert_eq!(decode_row(&stream, i), rows[i], "row {i}");
        }
        let (hits, misses) = store.cache_stats();
        assert!(hits > 0 && misses > 0, "hits {hits} misses {misses}");
        assert!(store.resident_bytes() <= 64 + 16, "cache budget pinned");
        assert!(store.peak_resident_bytes() >= store.resident_bytes());
        store.verify_chunks().unwrap();
    }

    #[test]
    fn pinned_evicted_chunks_are_revived_not_reread() {
        // Tarjan's SCC pass holds one live cursor per DFS frame. With a
        // cache far smaller than the stream, every revisit of an evicted
        // chunk used to read a *fresh* copy from disk while the old
        // cursors kept pinning theirs — the resident set grew with the
        // DFS depth. The `evicted` weak map must cap disk reads at one
        // per chunk for as long as any cursor pins it.
        let rows = demo_rows(200);
        let cfg = SpillConfig {
            chunk_bytes: 16,
            cache_bytes: 16, // room for ~one chunk: constant thrash
            ..SpillConfig::default()
        };
        let stream = write_rows(&cfg, &rows);
        let store = stream.spill_store().unwrap();
        let n_chunks = fs::read_dir(store.dir()).unwrap().count() as u64;
        assert!(n_chunks > 3, "need several chunks to thrash");
        // Two full passes, keeping every cursor alive the whole time.
        let mut pinned = Vec::new();
        for _pass in 0..2 {
            for (row, expected) in rows.iter().enumerate() {
                let mut cur = StreamCursor::new(&stream, row);
                let mut out = Vec::new();
                while !cur.done() {
                    out.push(cur.target());
                }
                assert_eq!(&out, expected, "row {row}");
                pinned.push(cur);
            }
        }
        let (hits, misses) = store.cache_stats();
        assert_eq!(
            misses, n_chunks,
            "each chunk must hit the disk exactly once while pinned \
             (hits {hits}); more means evicted-but-alive payloads were \
             duplicated instead of revived"
        );
        drop(pinned);
    }

    #[test]
    fn byte_range_spans_chunks_and_pending_tail() {
        let mut w = DeltaStreamWriter::spilling(&SpillConfig {
            chunk_bytes: 8,
            ..SpillConfig::default()
        });
        // Mirror the writer's encoding (prev = row id before each row's
        // first item) to get the expected raw stream.
        let mut reference = Vec::new();
        for i in 0..100u32 {
            w.target(i * 3);
            vbyte::write(&mut reference, vbyte::zigzag(i as i64 * 3 - i as i64));
            w.end_row();
        }
        let total = *w.parts().0.last().unwrap();
        let got = w.byte_range(0, total);
        assert_eq!(got, reference);
        for (a, b) in [(0u64, total / 3), (total / 3, total / 2), (1, total - 1)] {
            assert_eq!(*w.byte_range(a, b), got[a as usize..b as usize]);
        }
    }

    #[test]
    fn corrupt_chunk_is_refused_with_a_typed_error() {
        let rows = demo_rows(64);
        let cfg = SpillConfig {
            chunk_bytes: 16,
            ..SpillConfig::default()
        };
        let stream = write_rows(&cfg, &rows);
        let store = stream.spill_store().unwrap();
        store.verify_chunks().unwrap();
        // Flip one payload bit in the second chunk file.
        let victim = chunk_path(store.dir(), 1);
        let mut bytes = fs::read(&victim).unwrap();
        let i = FRAME_HEADER_LEN + bytes.len().saturating_sub(FRAME_HEADER_LEN) / 2;
        bytes[i] ^= 0x40;
        fs::write(&victim, &bytes).unwrap();
        match store.verify_chunks() {
            Err(CoreError::CheckpointCorrupt { path, detail }) => {
                assert_eq!(path, victim.display().to_string());
                assert!(detail.contains("CRC32C"), "{detail}");
            }
            other => panic!("corrupt chunk not refused: {other:?}"),
        }
        // A truncated (torn) chunk is refused too.
        let keep = bytes.len() - 3;
        bytes.truncate(keep);
        fs::write(&victim, &bytes).unwrap();
        assert!(matches!(
            store.verify_chunks(),
            Err(CoreError::CheckpointCorrupt { .. })
        ));
    }

    #[test]
    fn temp_spill_dir_is_removed_on_drop() {
        let rows = demo_rows(16);
        let stream = write_rows(&SpillConfig::default(), &rows);
        let dir = stream.spill_store().unwrap().dir().to_path_buf();
        assert!(dir.exists());
        drop(stream);
        assert!(!dir.exists(), "temporary spill dir must self-clean");
    }

    #[test]
    fn explicit_spill_dir_survives_drop_and_is_pruned_on_reuse() {
        let base = std::env::temp_dir().join(format!(
            "stab-spill-test-{}-{:04}",
            std::process::id(),
            TEMP_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let cfg = SpillConfig {
            dir: Some(base.clone()),
            chunk_bytes: 16,
            ..SpillConfig::default()
        };
        let stream = write_rows(&cfg, &demo_rows(64));
        let n_before = fs::read_dir(&base).unwrap().count();
        assert!(n_before > 1);
        drop(stream);
        assert!(base.exists(), "explicit spill dir is user-owned");
        // Re-creating in the same dir prunes the stale chunks.
        let stream2 = write_rows(&cfg, &demo_rows(8));
        stream2.spill_store().unwrap().verify_chunks().unwrap();
        assert_eq!(decode_row(&stream2, 4), demo_rows(8)[4]);
        drop(stream2);
        let _ = fs::remove_dir_all(&base);
    }
}
