//! Checkpoint/resume, budgets, and deterministic fault injection.
//!
//! Explorations that run for hours (Herman N≥17 sweeps) used to be
//! all-or-nothing: a crash at 99% lost everything, and a blown byte budget
//! was an OOM kill rather than a reported outcome. This module makes the
//! sequential exploration paths resilient:
//!
//! * **Checkpoint frames** — [`CheckpointConfig`] (built via
//!   `ExploreOptions::with_checkpoint`) makes the engine periodically
//!   persist the exploration state as a chain of CRC32C-framed *delta*
//!   frames, each carrying only what changed since the previous frame
//!   (the compressed edge stream is sequential-append with u64 byte
//!   offsets precisely so a byte range of it is a valid delta). Total
//!   write volume over a run is therefore one copy of the final state,
//!   not O(state × frames). Frames are written atomically
//!   (temp file + rename); a torn or bit-flipped frame fails CRC or
//!   length validation and the loader falls back to the longest valid
//!   prefix — never a wrong state. Only the *final* frame is fsynced:
//!   delta frames in the page cache already survive the fault this
//!   machinery defends against (the process dying), a machine crash at
//!   worst tears a suffix the validation discards and a re-run heals,
//!   and skipping the per-frame fsync keeps the measured checkpoint
//!   overhead on a bench-sized sweep under 5% instead of ~90%.
//! * **Budgets** — [`Budget`] carries wall-time / byte / state limits and
//!   is probed cooperatively inside the exploration loops (and by the
//!   checker's Tarjan pass and the Markov Gauss–Seidel solver).
//!   Exhaustion surfaces as [`CoreError::BudgetExhausted`], which the
//!   study pipeline converts into a `Degraded` stage status instead of a
//!   panic or OOM.
//! * **Fault injection** — [`FaultPlan`] deterministically kills a run
//!   right after the k-th durable frame ([`CoreError::Interrupted`]),
//!   trips budget exhaustion at the k-th probe, and provides the
//!   truncate / bit-flip primitives the corruption test campaigns use.
//!
//! # Frame format (`ckpt-NNNNNN.bin`, version `WSR1`)
//!
//! ```text
//! offset  size  field
//! 0       4     magic "WSR1"
//! 4       8     run fingerprint (FNV-1a over algorithm/daemon/options)
//! 12      8     sequence number (0-based, contiguous)
//! 20      1     kind: 0 = delta, 1 = final
//! 21      8     payload length
//! 29      4     CRC32C (Castagnoli) of the payload
//! 33      …     payload (little-endian delta encoding)
//! ```
//!
//! A file whose length is not exactly `33 + payload length`, whose CRC
//! does not match, or whose header fields are inconsistent is rejected,
//! and the chain ends at the previous frame. The chain is complete when
//! its last frame has kind `final`, which additionally records the state
//! identity (dense total or interned table), the symmetry canonicalizer,
//! and the quotient/traversal modes so
//! `TransitionSystem::resume` can reconstruct a bit-identical system.

// This module owns the workspace's only `unsafe` (the SSE 4.2 CRC path);
// unsafe operations inside `unsafe fn` bodies still need their own
// explicitly justified blocks.
#![deny(unsafe_op_in_unsafe_fn)]

use std::cell::Cell;
use std::fs;
use std::io::{Seek as _, SeekFrom, Write as _};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use super::bitset::BitSet;
use super::edgestore::{DeltaStreamWriter, EdgeStorageBuilder, EdgeStoreKind};
use super::explore::{Edge, TransitionSystem};
use super::onthefly::{Quotient, StateIds, StateTable, TraversalMode};
use super::quotient::{GroupCanonicalizer, Strategy};
use super::spill::SpillConfig;
use crate::error::CoreError;

/// Frame magic: **W**eak **S**tabilization **R**esilience, version 1.
const MAGIC: &[u8; 4] = b"WSR1";

/// Frame-format constants shared with [`super::spill`]'s chunk reader.
pub(crate) const FRAME_MAGIC: [u8; 4] = *MAGIC;
pub(crate) const FRAME_HEADER_LEN: usize = HEADER_LEN;
/// Fixed header size preceding every frame payload.
const HEADER_LEN: usize = 33;

// ---------------------------------------------------------------------------
// CRC32C (Castagnoli, polynomial 0x82F63B78). Frame payloads reach
// hundreds of MB (the compressed edge stream rides in them), so the
// checksum is on the checkpoint critical path: the Castagnoli polynomial
// is the one x86 implements in hardware (SSE 4.2 `crc32`, ~20 GB/s), and
// the software fallback is a slice-by-8 table walk (8 bytes per step)
// with bit-identical results.
// ---------------------------------------------------------------------------

/// The Castagnoli polynomial, reflected form — the workspace's single
/// defining site (`stab-lint`'s constant audit holds it to one).
const CRC32C_POLY: u32 = 0x82F6_3B78;

const CRC_TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32; // lint: cast-ok(table index < 256)
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                CRC32C_POLY ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut t = 1;
    while t < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[t - 1][i];
            tables[t][i] = tables[0][(prev & 0xFF) as usize] ^ (prev >> 8);
            i += 1;
        }
        t += 1;
    }
    tables
};

fn crc_update_sw(mut c: u32, data: &[u8]) -> u32 {
    let mut chunks = data.chunks_exact(8);
    for w in &mut chunks {
        let lo = u32::from_le_bytes([w[0], w[1], w[2], w[3]]) ^ c;
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        c = CRC_TABLES[7][(lo & 0xFF) as usize]
            ^ CRC_TABLES[6][((lo >> 8) & 0xFF) as usize]
            ^ CRC_TABLES[5][((lo >> 16) & 0xFF) as usize]
            ^ CRC_TABLES[4][(lo >> 24) as usize]
            ^ CRC_TABLES[3][(hi & 0xFF) as usize]
            ^ CRC_TABLES[2][((hi >> 8) & 0xFF) as usize]
            ^ CRC_TABLES[1][((hi >> 16) & 0xFF) as usize]
            ^ CRC_TABLES[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        // lint: cast-ok(u8 widens losslessly into u32)
        c = CRC_TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c
}

/// Bytes per lane in the 3-way interleaved hardware path. Must stay a
/// power of two: [`CRC_SHIFT_LANE`] is derived from its bit count by
/// repeated squaring.
const CRC_LANE: usize = 8192;

/// GF(2) operator appending `CRC_LANE` zero bytes to a raw (reflected,
/// no pre/post-XOR) CRC32C register state — `mat[i]` is the image of bit
/// `i`. Built by squaring the append-one-zero-bit operator
/// log2(8·CRC_LANE) times.
const CRC_SHIFT_LANE: [u32; 32] = {
    let mut mat = [0u32; 32];
    mat[0] = CRC32C_POLY;
    let mut i = 1;
    while i < 32 {
        mat[i] = 1u32 << (i - 1);
        i += 1;
    }
    let mut k = 0;
    while k < (8 * CRC_LANE).trailing_zeros() {
        // mat ← mat², via mat applied to each of its own rows.
        let mut sq = [0u32; 32];
        let mut r = 0;
        while r < 32 {
            let mut sum = 0u32;
            let mut v = mat[r];
            let mut b = 0;
            while v != 0 {
                if v & 1 != 0 {
                    sum ^= mat[b];
                }
                v >>= 1;
                b += 1;
            }
            sq[r] = sum;
            r += 1;
        }
        mat = sq;
        k += 1;
    }
    mat
};

/// Applies the zero-append operator: the register state that checksums
/// `X` followed by `CRC_LANE` zero bytes, given the state for `X`.
#[inline]
fn crc_shift_lane(c: u32) -> u32 {
    let mut sum = 0u32;
    let mut v = c;
    let mut b = 0;
    while v != 0 {
        if v & 1 != 0 {
            sum ^= CRC_SHIFT_LANE[b];
        }
        v >>= 1;
        b += 1;
    }
    sum
}

/// The SSE 4.2 `crc32` instruction has ~3-cycle latency, so a single
/// dependency chain runs at a third of its throughput; three independent
/// lanes hide the latency, and the per-round states recombine through
/// the linearity of CRC: `state(A‖B, s) = state(B, 0) ⊕ shift(state(A, s))`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse4.2")]
// SAFETY: callers must ensure SSE 4.2 is available — `crc_update` is the
// only caller and runtime-detects it; the pointer reads below stay
// inside `data`.
unsafe fn crc_update_hw(c: u32, data: &[u8]) -> u32 {
    use std::arch::x86_64::{_mm_crc32_u64, _mm_crc32_u8};
    let mut c = c;
    let mut rest = data;
    while rest.len() >= 3 * CRC_LANE {
        let pa = rest.as_ptr() as *const u64;
        let pb = rest[CRC_LANE..].as_ptr() as *const u64;
        let pd = rest[2 * CRC_LANE..].as_ptr() as *const u64;
        let (mut ca, mut cb, mut cd) = (c as u64, 0u64, 0u64);
        for i in 0..CRC_LANE / 8 {
            // SAFETY: lane `i` reads bytes `8i..8i+8` of its CRC_LANE
            // window and `rest` holds ≥ 3·CRC_LANE bytes, so every read
            // is in bounds; `read_unaligned` has no alignment demand,
            // and the intrinsic is available per this function's
            // target-feature contract.
            unsafe {
                ca = _mm_crc32_u64(ca, pa.add(i).read_unaligned());
                cb = _mm_crc32_u64(cb, pb.add(i).read_unaligned());
                cd = _mm_crc32_u64(cd, pd.add(i).read_unaligned());
            }
        }
        // lint: cast-ok(crc32 of a u64 lane occupies the low 32 bits)
        c = cd as u32 ^ crc_shift_lane(cb as u32 ^ crc_shift_lane(ca as u32));
        rest = &rest[3 * CRC_LANE..];
    }
    let mut crc = c as u64;
    let mut chunks = rest.chunks_exact(8);
    for w in &mut chunks {
        let mut word = [0u8; 8];
        word.copy_from_slice(w);
        // Safe call: the intrinsic takes plain values and this function
        // carries the matching #[target_feature].
        crc = _mm_crc32_u64(crc, u64::from_le_bytes(word));
    }
    // lint: cast-ok(crc32 of a u64 lane occupies the low 32 bits)
    let mut c = crc as u32;
    for &b in chunks.remainder() {
        c = _mm_crc32_u8(c, b);
    }
    c
}

/// Folds `data` into a running CRC32C state (`0xFFFF_FFFF` initially;
/// XOR with `0xFFFF_FFFF` to finish). Streaming form so the frame writer
/// can checksum payload sections as it writes them.
fn crc_update(c: u32, data: &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    {
        if is_x86_feature_detected!("sse4.2") {
            // SAFETY: guarded by the runtime feature check above.
            return unsafe { crc_update_hw(c, data) };
        }
    }
    crc_update_sw(c, data)
}

/// CRC32C (Castagnoli, reflected, polynomial `0x82F63B78`) of `data`.
pub fn crc32c(data: &[u8]) -> u32 {
    crc_update(0xFFFF_FFFF, data) ^ 0xFFFF_FFFF
}

// ---------------------------------------------------------------------------
// FNV-1a fingerprinting.
// ---------------------------------------------------------------------------

/// Incremental 64-bit FNV-1a hasher — fingerprints a run's identity so a
/// checkpoint directory is never resumed by a different exploration, and
/// digests a finished system's content for bit-identity assertions.
#[derive(Debug, Clone)]
pub(crate) struct Fnv(u64);

impl Fnv {
    pub(crate) fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub(crate) fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }

    pub(crate) fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    pub(crate) fn finish(&self) -> u64 {
        self.0
    }
}

// ---------------------------------------------------------------------------
// Budgets.
// ---------------------------------------------------------------------------

/// Cooperative resource limits for a study run.
///
/// A `Budget` is probed at natural check-points inside the long loops —
/// exploration batches, Tarjan root visits, Gauss–Seidel sweeps. A probe
/// that finds a limit exhausted returns
/// [`CoreError::BudgetExhausted`], which callers propagate so the study
/// pipeline can record a `Degraded` stage outcome and keep whatever
/// partial results earlier stages produced. The default budget is
/// unlimited and every probe succeeds.
///
/// Wall time is measured from construction, so one budget threaded
/// through all stages enforces a study-wide deadline.
#[derive(Debug, Clone)]
pub struct Budget {
    start: Instant,
    wall_ms: Option<u64>,
    max_bytes: Option<u64>,
    max_states: Option<u64>,
    trip_at_probe: Option<u64>,
    probes: Cell<u64>,
}

impl Default for Budget {
    fn default() -> Self {
        Budget {
            start: Instant::now(),
            wall_ms: None,
            max_bytes: None,
            max_states: None,
            trip_at_probe: None,
            probes: Cell::new(0),
        }
    }
}

impl Budget {
    /// A budget with no limits; every probe succeeds.
    pub fn unlimited() -> Self {
        Budget::default()
    }

    /// Caps wall-clock time, measured from the budget's construction.
    #[must_use]
    pub fn with_wall_time(mut self, limit: Duration) -> Self {
        self.wall_ms = Some(limit.as_millis().min(u64::MAX as u128) as u64);
        self
    }

    /// Caps the bytes a probing stage may hold (as self-reported at each
    /// probe — edge-store bytes for exploration, solver vectors for
    /// Gauss–Seidel).
    #[must_use]
    pub fn with_max_bytes(mut self, limit: u64) -> Self {
        self.max_bytes = Some(limit);
        self
    }

    /// Caps the states processed by a probing stage.
    #[must_use]
    pub fn with_max_states(mut self, limit: u64) -> Self {
        self.max_states = Some(limit);
        self
    }

    /// Fault injection: the k-th probe (1-based, across all stages)
    /// reports exhaustion regardless of actual usage. Wired from
    /// [`FaultPlan::with_budget_trip_at_probe`] by [`RunGuard::new`].
    #[must_use]
    pub fn with_probe_trip(mut self, kth_probe: u64) -> Self {
        self.trip_at_probe = Some(kth_probe);
        self
    }

    /// Whether any limit (or injected trip) is configured.
    pub fn is_limited(&self) -> bool {
        self.wall_ms.is_some()
            || self.max_bytes.is_some()
            || self.max_states.is_some()
            || self.trip_at_probe.is_some()
    }

    /// Number of probes taken so far.
    pub fn probes_seen(&self) -> u64 {
        self.probes.get()
    }

    /// One cooperative check-point: `bytes` and `states` are the caller's
    /// current usage. Fails with [`CoreError::BudgetExhausted`] naming
    /// `stage` when a limit is exhausted (or the fault-injected probe
    /// trip fires).
    pub fn probe(&self, stage: &'static str, bytes: u64, states: u64) -> Result<(), CoreError> {
        let n = self.probes.get() + 1;
        self.probes.set(n);
        if let Some(k) = self.trip_at_probe {
            if n >= k {
                return Err(CoreError::BudgetExhausted {
                    stage,
                    resource: "fault-injected",
                    limit: k,
                    used: n,
                });
            }
        }
        if let Some(limit) = self.wall_ms {
            let used = self.start.elapsed().as_millis().min(u64::MAX as u128) as u64;
            if used >= limit {
                return Err(CoreError::BudgetExhausted {
                    stage,
                    resource: "wall-time-ms",
                    limit,
                    used,
                });
            }
        }
        if let Some(limit) = self.max_bytes {
            if bytes > limit {
                return Err(CoreError::BudgetExhausted {
                    stage,
                    resource: "bytes",
                    limit,
                    used: bytes,
                });
            }
        }
        if let Some(limit) = self.max_states {
            if states > limit {
                return Err(CoreError::BudgetExhausted {
                    stage,
                    resource: "states",
                    limit,
                    used: states,
                });
            }
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Fault injection.
// ---------------------------------------------------------------------------

/// A deterministic fault schedule for resilience testing.
///
/// Two injection points: dying right after the k-th durable checkpoint
/// frame (the frame survives on disk; the run returns
/// [`CoreError::Interrupted`] — a deterministic stand-in for SIGKILL),
/// and tripping budget exhaustion at the k-th probe. [`FaultPlan::seeded`]
/// derives a kill-point from a seed via the vendored `rand` so proptest
/// campaigns can sweep kill-points reproducibly. The associated
/// [`FaultPlan::truncate_file`] / [`FaultPlan::flip_bit`] helpers are the
/// frame-corruption primitives the CRC tests use.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    kill_after_frames: Option<u64>,
    trip_at_probe: Option<u64>,
}

impl FaultPlan {
    /// No injected faults.
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// Derives a kill-point (after frame 1..=8) deterministically from
    /// `seed`.
    pub fn seeded(seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        FaultPlan {
            kill_after_frames: Some(rng.random_range(1u64..9)),
            trip_at_probe: None,
        }
    }

    /// Kill the run right after the `k`-th durable frame (1-based).
    #[must_use]
    pub fn with_kill_after_frames(mut self, k: u64) -> Self {
        self.kill_after_frames = Some(k);
        self
    }

    /// Trip budget exhaustion at the `k`-th probe (1-based).
    #[must_use]
    pub fn with_budget_trip_at_probe(mut self, k: u64) -> Self {
        self.trip_at_probe = Some(k);
        self
    }

    /// The configured kill-point, if any.
    pub fn kill_after_frames(&self) -> Option<u64> {
        self.kill_after_frames
    }

    /// The configured probe trip, if any.
    pub fn budget_trip_at_probe(&self) -> Option<u64> {
        self.trip_at_probe
    }

    /// Whether any fault is scheduled.
    pub fn is_active(&self) -> bool {
        self.kill_after_frames.is_some() || self.trip_at_probe.is_some()
    }

    /// Corruption primitive: truncates `path` to `keep` bytes (a torn
    /// write).
    pub fn truncate_file(path: &Path, keep: u64) -> std::io::Result<()> {
        let f = fs::OpenOptions::new().write(true).open(path)?;
        f.set_len(keep)
    }

    /// Corruption primitive: flips one bit of `path` (bit index taken
    /// modulo the file's bit length).
    pub fn flip_bit(path: &Path, bit: u64) -> std::io::Result<()> {
        let mut data = fs::read(path)?;
        if data.is_empty() {
            return Ok(());
        }
        let byte = (bit as usize / 8) % data.len();
        data[byte] ^= 1 << (bit % 8);
        fs::write(path, data)
    }
}

/// Bundles the [`Budget`] and [`FaultPlan`] guarding one run, passed to
/// `TransitionSystem::explore_guarded`. [`RunGuard::new`] merges the
/// plan's probe trip into the budget so exploration code only probes the
/// budget.
#[derive(Debug, Clone, Default)]
pub struct RunGuard {
    budget: Budget,
    faults: FaultPlan,
}

impl RunGuard {
    /// Combines a budget and a fault plan.
    pub fn new(budget: Budget, faults: FaultPlan) -> Self {
        let budget = match faults.trip_at_probe {
            Some(k) => budget.with_probe_trip(k),
            None => budget,
        };
        RunGuard { budget, faults }
    }

    /// The (possibly trip-armed) budget.
    pub fn budget(&self) -> &Budget {
        &self.budget
    }

    /// The fault plan.
    pub fn faults(&self) -> &FaultPlan {
        &self.faults
    }

    /// Whether the guard constrains the run at all. Guarded runs take the
    /// sequential exploration path so probes and checkpoints see a
    /// deterministic prefix.
    pub fn is_active(&self) -> bool {
        self.budget.is_limited() || self.faults.is_active()
    }

    /// Probes the budget (see [`Budget::probe`]).
    pub fn probe(&self, stage: &'static str, bytes: u64, states: u64) -> Result<(), CoreError> {
        self.budget.probe(stage, bytes, states)
    }
}

// ---------------------------------------------------------------------------
// Checkpoint configuration.
// ---------------------------------------------------------------------------

/// Where and how often to write checkpoint frames (see
/// `ExploreOptions::with_checkpoint`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointConfig {
    /// Directory holding the `ckpt-NNNNNN.bin` frame chain (created if
    /// missing).
    pub dir: PathBuf,
    /// A delta frame is written each time this many further states have
    /// been explored since the last frame (clamped to at least 1).
    pub every_n_states: u64,
}

impl CheckpointConfig {
    /// A checkpoint cadence over `dir`.
    pub fn new(dir: impl Into<PathBuf>, every_n_states: u64) -> Self {
        CheckpointConfig {
            dir: dir.into(),
            every_n_states,
        }
    }
}

/// The checkpoint frame files under `dir`, in sequence order. Empty when
/// the directory does not exist.
pub fn list_frames(dir: &Path) -> Vec<PathBuf> {
    let mut frames: Vec<(u64, PathBuf)> = Vec::new();
    let Ok(entries) = fs::read_dir(dir) else {
        return Vec::new();
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if let Some(seq) = parse_frame_seq(&path) {
            frames.push((seq, path));
        }
    }
    frames.sort_by_key(|(seq, _)| *seq);
    frames.into_iter().map(|(_, p)| p).collect()
}

fn frame_name(seq: u64) -> String {
    format!("ckpt-{seq:06}.bin")
}

/// `Some(seq)` if `path` names a committed frame file.
fn parse_frame_seq(path: &Path) -> Option<u64> {
    let name = path.file_name()?.to_str()?;
    let digits = name.strip_prefix("ckpt-")?.strip_suffix(".bin")?;
    if digits.is_empty() || !digits.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    digits.parse().ok()
}

// ---------------------------------------------------------------------------
// Little-endian payload codec (streaming write side).
// ---------------------------------------------------------------------------

/// Payload sections at or above this size bypass the staging buffer and
/// go straight to the file (the compressed edge stream's byte range is
/// the one such section — tens of MB per frame chain).
const DIRECT_WRITE: usize = 1 << 20;
/// Direct writes are issued in chunks of this size: one giant `write(2)`
/// measures ~2–3× slower than a loop of page-cache-friendly chunks.
const WRITE_CHUNK: usize = 8 << 20;
/// Staging-buffer flush threshold for the small sections.
const SMALL_FLUSH: usize = 1 << 19;

/// Streams one frame's payload straight to its `ckpt-NNNNNN.tmp` file,
/// folding every byte into a running CRC32C, then patches the header's
/// length/CRC fields and renames into place. Never materializes the
/// payload: the alternative (encode to a `Vec`, checksum it, write it)
/// triples the memory traffic on a payload that carries the whole
/// compressed edge stream.
///
/// I/O errors are sticky — encoding methods stay infallible like a plain
/// buffer's and the first error surfaces from [`FrameSink::finish`]. A
/// frame torn before the final header patch still carries the zeroed
/// placeholder length, so the loader's exact-length check rejects it.
///
/// Shared with [`super::spill`], which writes the disk tier's chunk
/// files in the same frame format (kind byte 2).
pub(crate) struct FrameSink {
    tmp: PathBuf,
    committed: PathBuf,
    f: fs::File,
    err: Option<std::io::Error>,
    /// Running CRC32C state over the payload (pre-final-XOR).
    crc: u32,
    /// Payload bytes emitted so far.
    len: u64,
    small: Vec<u8>,
}

impl FrameSink {
    /// Creates the `.tmp` file and writes the header with zeroed
    /// length/CRC placeholders.
    fn create(dir: &Path, seq: u64, fingerprint: u64, kind: u8) -> Result<Self, CoreError> {
        let tmp = dir.join(format!("ckpt-{seq:06}.tmp"));
        let committed = dir.join(frame_name(seq));
        Self::create_at(tmp, committed, fingerprint, seq, kind)
    }

    /// [`FrameSink::create`] for arbitrary staging/committed paths — the
    /// spill tier's chunk files reuse the frame format under their own
    /// naming scheme.
    pub(crate) fn create_at(
        tmp: PathBuf,
        committed: PathBuf,
        fingerprint: u64,
        seq: u64,
        kind: u8,
    ) -> Result<Self, CoreError> {
        let mut header = [0u8; HEADER_LEN];
        header[0..4].copy_from_slice(MAGIC);
        header[4..12].copy_from_slice(&fingerprint.to_le_bytes());
        header[12..20].copy_from_slice(&seq.to_le_bytes());
        header[20] = kind;
        let f = fs::File::create(&tmp)
            .and_then(|mut f| f.write_all(&header).map(|()| f))
            .map_err(|e| io_err(&committed, e))?;
        Ok(FrameSink {
            tmp,
            committed,
            f,
            err: None,
            crc: 0xFFFF_FFFF,
            len: 0,
            small: Vec::with_capacity(SMALL_FLUSH),
        })
    }

    fn flush_small(&mut self) {
        if self.small.is_empty() || self.err.is_some() {
            self.small.clear();
            return;
        }
        self.crc = crc_update(self.crc, &self.small);
        match self.f.write_all(&self.small) {
            Ok(()) => self.len += self.small.len() as u64,
            Err(e) => self.err = Some(e),
        }
        self.small.clear();
    }

    fn u8(&mut self, v: u8) {
        self.raw(&[v]);
    }

    fn u32(&mut self, v: u32) {
        self.raw(&v.to_le_bytes());
    }

    fn u64(&mut self, v: u64) {
        self.raw(&v.to_le_bytes());
    }

    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    pub(crate) fn raw(&mut self, bytes: &[u8]) {
        if bytes.len() >= DIRECT_WRITE {
            self.flush_small();
            if self.err.is_some() {
                return;
            }
            for chunk in bytes.chunks(WRITE_CHUNK) {
                self.crc = crc_update(self.crc, chunk);
                if let Err(e) = self.f.write_all(chunk) {
                    self.err = Some(e);
                    return;
                }
                self.len += chunk.len() as u64;
            }
        } else {
            self.small.extend_from_slice(bytes);
            if self.small.len() >= SMALL_FLUSH {
                self.flush_small();
            }
        }
    }

    /// A bitmap of `len` bits, 8 per byte.
    fn bitmap(&mut self, len: usize, mut bit: impl FnMut(usize) -> bool) {
        let mut packed = vec![0u8; len.div_ceil(8)];
        for (i, byte) in packed.iter_mut().enumerate() {
            for k in 0..8 {
                let idx = i * 8 + k;
                if idx < len && bit(idx) {
                    *byte |= 1 << k;
                }
            }
        }
        self.raw(&packed);
    }

    /// Patches the header's payload-length and CRC32C fields, optionally
    /// fsyncs, and renames the frame into place. `durable` is reserved
    /// for the final frame — see the module docs for the fsync policy.
    ///
    /// A durable commit fsyncs the **containing directory** after the
    /// rename as well: renaming only updates the directory entry, and an
    /// un-synced directory can lose the entry across a crash — the frame
    /// file's own `sync_all` does not cover it.
    pub(crate) fn finish(mut self, durable: bool) -> Result<(), CoreError> {
        self.flush_small();
        let commit = |sink: &mut FrameSink| -> std::io::Result<()> {
            if let Some(e) = sink.err.take() {
                return Err(e);
            }
            let mut tail = [0u8; 12];
            tail[0..8].copy_from_slice(&sink.len.to_le_bytes());
            tail[8..12].copy_from_slice(&(sink.crc ^ 0xFFFF_FFFF).to_le_bytes());
            sink.f.seek(SeekFrom::Start(21))?;
            sink.f.write_all(&tail)?;
            if durable {
                sink.f.sync_all()?;
            }
            fs::rename(&sink.tmp, &sink.committed)?;
            if durable {
                if let Some(dir) = sink.committed.parent() {
                    fs::File::open(dir)?.sync_all()?;
                }
            }
            Ok(())
        };
        commit(&mut self).map_err(|e| io_err(&self.committed, e))
    }
}

/// Fallible little-endian reader over a frame payload. Every read is
/// bounds-checked — a malformed payload yields an error string (wrapped
/// into [`CoreError::CheckpointCorrupt`] by callers), never a panic.
struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Dec { buf, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        if self.remaining() < n {
            return Err(format!(
                "payload truncated at byte {} (wanted {n} more, have {})",
                self.pos,
                self.remaining()
            ));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, String> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, String> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, String> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn f64(&mut self) -> Result<f64, String> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// An element count whose `count × elem_bytes` must fit in the
    /// remaining payload — rejects absurd lengths without allocating.
    fn count(&mut self, elem_bytes: usize) -> Result<usize, String> {
        let n = self.u64()? as usize;
        if n.saturating_mul(elem_bytes) > self.remaining() {
            return Err(format!(
                "element count {n} exceeds remaining payload {}",
                self.remaining()
            ));
        }
        Ok(n)
    }

    fn bitmap(&mut self, len: usize) -> Result<Vec<bool>, String> {
        let packed = self.take(len.div_ceil(8))?;
        Ok((0..len)
            .map(|i| packed[i / 8] >> (i % 8) & 1 == 1)
            .collect())
    }

    fn done(&self) -> Result<(), String> {
        if self.remaining() != 0 {
            return Err(format!("{} trailing bytes after payload", self.remaining()));
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Frame I/O.
// ---------------------------------------------------------------------------

fn io_err(path: &Path, e: std::io::Error) -> CoreError {
    CoreError::CheckpointIo {
        path: path.display().to_string(),
        detail: e.to_string(),
    }
}

/// Reads and validates one frame: magic, exact length, CRC. Errors are
/// strings — the chain loader treats any error as "chain ends here".
fn read_frame(path: &Path) -> Result<(u64, u64, u8, Vec<u8>), String> {
    let buf = fs::read(path).map_err(|e| format!("read failed: {e}"))?;
    if buf.len() < HEADER_LEN {
        return Err(format!(
            "file is {} bytes, shorter than the header",
            buf.len()
        ));
    }
    if &buf[0..4] != MAGIC {
        return Err("bad magic".into());
    }
    let fingerprint = u64::from_le_bytes(buf[4..12].try_into().unwrap());
    let seq = u64::from_le_bytes(buf[12..20].try_into().unwrap());
    let kind = buf[20];
    if kind > 1 {
        return Err(format!("unknown frame kind {kind}"));
    }
    let payload_len = u64::from_le_bytes(buf[21..29].try_into().unwrap());
    if buf.len() as u64 != HEADER_LEN as u64 + payload_len {
        return Err(format!(
            "file is {} bytes but header declares {} payload bytes",
            buf.len(),
            payload_len
        ));
    }
    let want = u32::from_le_bytes(buf[29..33].try_into().unwrap());
    let payload = buf[HEADER_LEN..].to_vec();
    if crc32c(&payload) != want {
        return Err("CRC32C mismatch".into());
    }
    Ok((fingerprint, seq, kind, payload))
}

// ---------------------------------------------------------------------------
// Snapshot source: a borrowed view of in-progress exploration state.
// ---------------------------------------------------------------------------

/// A borrowed view of everything a delta frame snapshots. The exploration
/// loops hand this to [`Checkpointer::tick`] at batch boundaries; the
/// checkpointer's internal watermarks slice out just the delta.
pub(super) struct SnapshotSource<'a> {
    pub(super) builder: &'a EdgeStorageBuilder,
    pub(super) enabled: &'a [u64],
    pub(super) legit: &'a BitSet,
    /// All clear under a growing frontier, whose seeds carry the
    /// initial set.
    pub(super) initial: &'a BitSet,
    pub(super) deterministic: bool,
    pub(super) table: Option<&'a StateTable>,
    pub(super) seeds: &'a [u32],
}

/// The extra metadata a final frame records so `resume` can reconstruct
/// the full `TransitionSystem` identity.
pub(super) struct FinalMeta<'a> {
    /// `Some(total)` for dense (full-sweep, no quotient) state ids;
    /// `None` when the interned table in the delta stream is the state
    /// identity.
    pub(super) dense_total: Option<u64>,
    pub(super) canon: Option<&'a GroupCanonicalizer>,
    pub(super) quotient: Quotient,
    pub(super) traversal: TraversalMode,
}

// ---------------------------------------------------------------------------
// Checkpointer (write side).
// ---------------------------------------------------------------------------

/// Writes the delta-frame chain for one exploration. Opened with the
/// run's fingerprint, it adopts any valid same-fingerprint prefix already
/// on disk (exposing it via [`Checkpointer::take_replay`]) and prunes
/// frames that are stale, torn, or from a different run.
pub(super) struct Checkpointer {
    dir: PathBuf,
    every: u64,
    fingerprint: u64,
    tier: EdgeStoreKind,
    /// Next frame sequence number.
    seq: u64,
    /// Cursor (states explored) at the last frame boundary.
    mark: u64,
    /// Interned-table entries already persisted.
    wm_table: usize,
    /// Flat-tier edges already persisted.
    wm_edges: usize,
    kill_after: Option<u64>,
    replay: Option<Replay>,
}

impl Checkpointer {
    /// Opens `cfg.dir`, loads the longest valid frame prefix, and prunes
    /// everything after it (and everything from a different run or
    /// tier). The adopted prefix, if any, is available once via
    /// [`Checkpointer::take_replay`].
    pub(super) fn open(
        cfg: &CheckpointConfig,
        fingerprint: u64,
        tier: EdgeStoreKind,
        faults: &FaultPlan,
    ) -> Result<Self, CoreError> {
        fs::create_dir_all(&cfg.dir).map_err(|e| io_err(&cfg.dir, e))?;
        let mut ck = Checkpointer {
            dir: cfg.dir.clone(),
            every: cfg.every_n_states.max(1),
            fingerprint,
            tier,
            seq: 0,
            mark: 0,
            wm_table: 0,
            wm_edges: 0,
            kill_after: faults.kill_after_frames(),
            replay: None,
        };
        match load_chain(&cfg.dir) {
            Some((fp, replay)) if fp == fingerprint && replay.tier == tier && replay.frames > 0 => {
                ck.seq = replay.frames;
                ck.mark = replay.cursor;
                ck.wm_table = replay.table.len();
                ck.wm_edges = match &replay.builder {
                    ReplayBuilder::Flat { edges, .. } => edges.len(),
                    ReplayBuilder::Stream { .. } => 0,
                };
                prune_from(&cfg.dir, ck.seq)?;
                ck.replay = Some(replay);
            }
            _ => prune_from(&cfg.dir, 0)?,
        }
        Ok(ck)
    }

    /// The state recovered from disk, if any — taken once by the
    /// exploration loop to fast-forward past already-explored states.
    pub(super) fn take_replay(&mut self) -> Option<Replay> {
        self.replay.take()
    }

    /// Writes a delta frame if at least `every_n_states` states were
    /// explored since the last frame.
    pub(super) fn tick(&mut self, cursor: u64, src: &SnapshotSource) -> Result<(), CoreError> {
        if cursor.saturating_sub(self.mark) >= self.every {
            self.write(cursor, src, None)
        } else {
            Ok(())
        }
    }

    /// Writes the final frame carrying the trailing delta plus the
    /// system-identity metadata.
    pub(super) fn finalize(
        &mut self,
        cursor: u64,
        src: &SnapshotSource,
        meta: FinalMeta,
    ) -> Result<(), CoreError> {
        self.write(cursor, src, Some(meta))
    }

    fn write(
        &mut self,
        cursor: u64,
        src: &SnapshotSource,
        meta: Option<FinalMeta>,
    ) -> Result<(), CoreError> {
        debug_assert!(cursor >= self.mark, "checkpoint cursor went backwards");
        let from = self.mark as usize;
        let to = cursor as usize;
        let rows = to - from;
        let kind = if meta.is_some() { 1u8 } else { 0u8 };
        let mut e = FrameSink::create(&self.dir, self.seq, self.fingerprint, kind)?;
        e.u64(self.mark);
        e.u64(cursor);
        e.u8(match self.tier {
            EdgeStoreKind::Flat => 0,
            EdgeStoreKind::Compressed => 1,
            EdgeStoreKind::Disk => 2,
        });
        e.u8(src.deterministic as u8); // lint: cast-ok(bool is 0 or 1)
                                       // Interned-table delta (the quotient sweep's first frame carries
                                       // the whole pass-1 table; later frames carry nothing; BFS frames
                                       // carry the rows interned since the last frame).
        match src.table {
            Some(t) => {
                let (full_of, orbit) = t.parts();
                e.u64((full_of.len() - self.wm_table) as u64);
                for i in self.wm_table..full_of.len() {
                    e.u64(full_of[i]);
                    e.u64(orbit[i]);
                }
                self.wm_table = full_of.len();
            }
            None => e.u64(0),
        }
        // Seeds, in full every frame (tiny; replay keeps the last copy).
        e.u64(src.seeds.len() as u64);
        for &s in src.seeds {
            e.u32(s);
        }
        // Enabled-mask delta (one u64 per row).
        e.u64(rows as u64);
        for &w in &src.enabled[from..to] {
            e.u64(w);
        }
        // Legitimacy and initial bitmaps for the new rows.
        e.bitmap(rows, |i| src.legit.get(from + i));
        e.bitmap(rows, |i| src.initial.get(from + i));
        // Edge-store delta.
        match src.builder {
            EdgeStorageBuilder::Flat { counts, edges } => {
                debug_assert_eq!(self.tier, EdgeStoreKind::Flat);
                e.u64(rows as u64);
                for &c in &counts[from..to] {
                    e.u32(c);
                }
                e.u64((edges.len() - self.wm_edges) as u64);
                for edge in &edges[self.wm_edges..] {
                    e.u32(edge.to);
                    e.u64(edge.movers);
                    e.f64(edge.prob);
                }
                self.wm_edges = edges.len();
            }
            EdgeStorageBuilder::Stream(w) => {
                debug_assert_ne!(self.tier, EdgeStoreKind::Flat);
                // One layout for both backings — the checkpoint chain,
                // not the spill directory, is the durability surface, so
                // a disk-tier delta's stream bytes are read back from
                // already-spilled chunks where needed.
                let (offsets, probs, n_items) = w.parts();
                e.u64(rows as u64);
                for &o in &offsets[from + 1..to + 1] {
                    e.u64(o);
                }
                let bytes = w.byte_range(offsets[from], offsets[to]);
                e.u64(bytes.len() as u64);
                e.raw(&bytes);
                // The interned-probability table is tiny and append-only
                // in practice, but interning order is not a row-boundary
                // invariant — persist it whole and let replay overwrite.
                e.u64(probs.len() as u64);
                for &p in probs {
                    e.f64(p);
                }
                e.u64(n_items);
            }
        }
        if let Some(m) = meta {
            encode_final_meta(&mut e, &m);
        }
        e.finish(kind == 1)?;
        self.mark = cursor;
        self.seq += 1;
        if let Some(k) = self.kill_after {
            if self.seq >= k {
                return Err(CoreError::Interrupted {
                    after_frames: self.seq,
                });
            }
        }
        Ok(())
    }
}

fn encode_final_meta(e: &mut FrameSink, m: &FinalMeta) {
    match m.dense_total {
        Some(total) => {
            e.u8(0);
            e.u64(total);
        }
        None => e.u8(1),
    }
    match m.canon {
        None => e.u8(0),
        Some(c) => {
            e.u8(1);
            let (pos_weights, pos_radix, node_weights, node_radix, strategy, group_order, gens) =
                c.snapshot_parts();
            e.u64(group_order);
            for vec in [pos_weights, pos_radix, node_weights, node_radix] {
                e.u64(vec.len() as u64);
                for &v in vec {
                    e.u64(v);
                }
            }
            match strategy {
                Strategy::Cycle => e.u8(0),
                Strategy::Dihedral => e.u8(1),
                Strategy::LeafClasses(classes) => {
                    e.u8(2);
                    e.u64(classes.len() as u64);
                    for class in classes {
                        e.u64(class.len() as u64);
                        for &p in class {
                            e.u64(p as u64);
                        }
                    }
                }
                Strategy::Explicit(perms) => {
                    e.u8(3);
                    e.u64(perms.len() as u64);
                    for perm in perms {
                        e.u64(perm.len() as u64);
                        for &p in perm {
                            e.u32(p);
                        }
                    }
                }
            }
            e.u64(gens.len() as u64);
            for g in gens {
                e.u64(g.len() as u64);
                for &p in g {
                    e.u32(p);
                }
            }
        }
    }
    e.u8(match m.quotient {
        Quotient::None => 0,
        Quotient::RingRotation => 1,
        Quotient::RingDihedral => 2,
        Quotient::Automorphism => 3,
    });
    e.u8(match m.traversal {
        TraversalMode::Full => 0,
        TraversalMode::Reachable => 1,
    });
}

// ---------------------------------------------------------------------------
// Replay (read side).
// ---------------------------------------------------------------------------

/// One decoded delta frame.
struct DeltaFrame {
    cursor_before: u64,
    cursor_after: u64,
    tier: EdgeStoreKind,
    deterministic: bool,
    table: Vec<(u64, u64)>,
    seeds: Vec<u32>,
    enabled: Vec<u64>,
    legit: Vec<bool>,
    initial: Vec<bool>,
    builder: BuilderDelta,
    final_meta: Option<ReplayFinal>,
}

enum BuilderDelta {
    Flat {
        counts: Vec<u32>,
        edges: Vec<Edge>,
    },
    Stream {
        offsets: Vec<u64>,
        stream: Vec<u8>,
        probs: Vec<f64>,
        n_items: u64,
    },
}

/// Accumulated edge-store state rebuilt from the frame chain.
pub(super) enum ReplayBuilder {
    Flat {
        counts: Vec<u32>,
        edges: Vec<Edge>,
    },
    Stream {
        offsets: Vec<u64>,
        stream: Vec<u8>,
        probs: Vec<f64>,
        n_items: u64,
    },
}

impl ReplayBuilder {
    fn new(tier: EdgeStoreKind) -> Self {
        match tier {
            EdgeStoreKind::Flat => ReplayBuilder::Flat {
                counts: Vec::new(),
                edges: Vec::new(),
            },
            // Both stream tiers replay through one accumulator — the
            // chain carries the stream bytes; on the disk tier they are
            // re-spilled to chunks as the resumed builder fills back up.
            EdgeStoreKind::Compressed | EdgeStoreKind::Disk => ReplayBuilder::Stream {
                offsets: vec![0],
                stream: Vec::new(),
                probs: Vec::new(),
                n_items: 0,
            },
        }
    }

    /// Converts into the live builder the exploration loop appends to
    /// (`tier`/`spill` make the stream writer spill again when the chain
    /// was a disk-tier run).
    pub(super) fn into_builder(
        self,
        tier: EdgeStoreKind,
        spill: &SpillConfig,
    ) -> EdgeStorageBuilder {
        match self {
            ReplayBuilder::Flat { counts, edges } => EdgeStorageBuilder::Flat { counts, edges },
            ReplayBuilder::Stream {
                offsets,
                stream,
                probs,
                n_items,
            } => EdgeStorageBuilder::Stream(DeltaStreamWriter::from_parts(
                offsets,
                stream,
                probs,
                n_items,
                (tier == EdgeStoreKind::Disk).then_some(spill),
            )),
        }
    }
}

/// Final-frame metadata, owned.
pub(super) struct ReplayFinal {
    pub(super) dense_total: Option<u64>,
    pub(super) canon: Option<GroupCanonicalizer>,
    pub(super) quotient: Quotient,
    pub(super) traversal: TraversalMode,
}

/// Exploration state recovered from a checkpoint directory's longest
/// valid frame prefix.
pub(super) struct Replay {
    /// States explored (== rows committed in the builder).
    pub(super) cursor: u64,
    pub(super) tier: EdgeStoreKind,
    pub(super) deterministic: bool,
    pub(super) table: Vec<(u64, u64)>,
    pub(super) seeds: Vec<u32>,
    pub(super) enabled: Vec<u64>,
    pub(super) legit: Vec<bool>,
    pub(super) initial: Vec<bool>,
    pub(super) builder: ReplayBuilder,
    /// Frames consumed.
    pub(super) frames: u64,
    /// Present when the chain ended with a final frame — the exploration
    /// completed and the system can be reconstructed outright.
    pub(super) complete: Option<ReplayFinal>,
}

impl Replay {
    fn new(tier: EdgeStoreKind) -> Self {
        Replay {
            cursor: 0,
            tier,
            deterministic: true,
            table: Vec::new(),
            seeds: Vec::new(),
            enabled: Vec::new(),
            legit: Vec::new(),
            initial: Vec::new(),
            builder: ReplayBuilder::new(tier),
            frames: 0,
            complete: None,
        }
    }

    /// Checks the delta chains onto the current state; on success the
    /// mutation is unconditional (all validation happens up front so a
    /// rejected frame leaves the replay untouched).
    fn apply(&mut self, d: DeltaFrame) -> Result<(), String> {
        if d.cursor_before != self.cursor {
            return Err(format!(
                "frame resumes at cursor {} but chain is at {}",
                d.cursor_before, self.cursor
            ));
        }
        if d.tier != self.tier {
            return Err("edge-store tier changed mid-chain".into());
        }
        if self.complete.is_some() {
            return Err("frame follows a final frame".into());
        }
        let rows = (d.cursor_after - d.cursor_before) as usize;
        match (&self.builder, &d.builder) {
            (ReplayBuilder::Flat { .. }, BuilderDelta::Flat { counts, edges }) => {
                let total: u64 = counts.iter().map(|&c| c as u64).sum();
                if total != edges.len() as u64 {
                    return Err(format!(
                        "flat delta declares {total} edges but carries {}",
                        edges.len()
                    ));
                }
            }
            (
                ReplayBuilder::Stream {
                    offsets, stream, ..
                },
                BuilderDelta::Stream {
                    offsets: new_offsets,
                    stream: new_stream,
                    ..
                },
            ) => {
                let mut prev = *offsets.last().expect("offsets start non-empty");
                for &o in new_offsets {
                    if o < prev {
                        return Err("stream offsets are not monotonic".into());
                    }
                    prev = o;
                }
                let end = stream.len() as u64 + new_stream.len() as u64;
                if new_offsets.last().copied().unwrap_or(prev) != end
                    && !(new_offsets.is_empty() && new_stream.is_empty())
                {
                    return Err("stream offsets disagree with stream length".into());
                }
            }
            _ => return Err("edge-store delta tier mismatch".into()),
        }
        // Validated — mutate.
        self.deterministic = d.deterministic;
        self.table.extend(d.table);
        self.seeds = d.seeds;
        self.enabled.extend(d.enabled);
        self.legit.extend(d.legit);
        self.initial.extend(d.initial);
        match (&mut self.builder, d.builder) {
            (
                ReplayBuilder::Flat { counts, edges },
                BuilderDelta::Flat {
                    counts: nc,
                    edges: ne,
                },
            ) => {
                counts.extend(nc);
                edges.extend(ne);
            }
            (
                ReplayBuilder::Stream {
                    offsets,
                    stream,
                    probs,
                    n_items,
                },
                BuilderDelta::Stream {
                    offsets: no,
                    stream: ns,
                    probs: np,
                    n_items: nn,
                },
            ) => {
                offsets.extend(no);
                stream.extend(ns);
                *probs = np;
                *n_items = nn;
            }
            _ => unreachable!("tier checked above"),
        }
        debug_assert_eq!(self.enabled.len(), d.cursor_after as usize);
        let _ = rows;
        self.cursor = d.cursor_after;
        self.frames += 1;
        self.complete = d.final_meta;
        Ok(())
    }

    /// Reconstructs the finished [`TransitionSystem`] from a complete
    /// chain. Errors with [`CoreError::CheckpointIncomplete`] when the
    /// chain has no final frame.
    pub(super) fn into_transition_system(self, dir: &Path) -> Result<TransitionSystem, CoreError> {
        let Some(fin) = self.complete else {
            return Err(CoreError::CheckpointIncomplete {
                dir: dir.display().to_string(),
            });
        };
        let spill = SpillConfig {
            dir: Some(dir.join("spill")),
            ..SpillConfig::default()
        };
        let forward = self.builder.into_builder(self.tier, &spill).finish();
        let legit = BitSet::from_bools(&self.legit);
        // A reachable run records its initial set as seeds (its initial
        // bits are all clear); a sweep records bits and no seeds.
        let mut initial = BitSet::from_bools(&self.initial);
        for &s in &self.seeds {
            initial.insert(s as usize);
        }
        let states = match fin.dense_total {
            Some(total) => StateIds::Dense { total },
            None => {
                let (full_of, orbit) = self.table.into_iter().unzip();
                StateIds::Interned(Arc::new(StateTable::from_parts(full_of, orbit)))
            }
        };
        Ok(TransitionSystem::assemble(
            forward,
            self.enabled,
            legit,
            initial,
            self.deterministic,
            states,
            fin.canon,
            fin.quotient,
            fin.traversal,
        ))
    }
}

fn decode_payload(payload: &[u8], kind: u8) -> Result<DeltaFrame, String> {
    let mut d = Dec::new(payload);
    let cursor_before = d.u64()?;
    let cursor_after = d.u64()?;
    if cursor_after < cursor_before {
        return Err("cursor went backwards".into());
    }
    let rows = (cursor_after - cursor_before) as usize;
    let tier = match d.u8()? {
        0 => EdgeStoreKind::Flat,
        1 => EdgeStoreKind::Compressed,
        2 => EdgeStoreKind::Disk,
        t => return Err(format!("unknown edge-store tier {t}")),
    };
    let deterministic = d.u8()? != 0;
    let n_table = d.count(16)?;
    let mut table = Vec::with_capacity(n_table);
    for _ in 0..n_table {
        table.push((d.u64()?, d.u64()?));
    }
    let n_seeds = d.count(4)?;
    let mut seeds = Vec::with_capacity(n_seeds);
    for _ in 0..n_seeds {
        seeds.push(d.u32()?);
    }
    let n_enabled = d.count(8)?;
    if n_enabled != rows {
        return Err(format!(
            "enabled delta has {n_enabled} rows, cursor moved {rows}"
        ));
    }
    let mut enabled = Vec::with_capacity(rows);
    for _ in 0..rows {
        enabled.push(d.u64()?);
    }
    let legit = d.bitmap(rows)?;
    let initial = d.bitmap(rows)?;
    let builder = match tier {
        EdgeStoreKind::Flat => {
            let n_counts = d.count(4)?;
            if n_counts != rows {
                return Err(format!(
                    "flat delta has {n_counts} rows, cursor moved {rows}"
                ));
            }
            let mut counts = Vec::with_capacity(rows);
            for _ in 0..rows {
                counts.push(d.u32()?);
            }
            let n_edges = d.count(20)?;
            let mut edges = Vec::with_capacity(n_edges);
            for _ in 0..n_edges {
                edges.push(Edge {
                    to: d.u32()?,
                    movers: d.u64()?,
                    prob: d.f64()?,
                });
            }
            BuilderDelta::Flat { counts, edges }
        }
        // The disk tier shares the compressed tier's frame layout: the
        // checkpoint chain carries the stream bytes themselves, so a
        // resume never depends on (and re-creates) the spill directory.
        EdgeStoreKind::Compressed | EdgeStoreKind::Disk => {
            let n_offsets = d.count(8)?;
            if n_offsets != rows {
                return Err(format!(
                    "compressed delta has {n_offsets} rows, cursor moved {rows}"
                ));
            }
            let mut offsets = Vec::with_capacity(rows);
            for _ in 0..rows {
                offsets.push(d.u64()?);
            }
            let n_bytes = d.count(1)?;
            let stream = d.take(n_bytes)?.to_vec();
            let n_probs = d.count(8)?;
            let mut probs = Vec::with_capacity(n_probs);
            for _ in 0..n_probs {
                probs.push(d.f64()?);
            }
            let n_items = d.u64()?;
            BuilderDelta::Stream {
                offsets,
                stream,
                probs,
                n_items,
            }
        }
    };
    let final_meta = if kind == 1 {
        Some(decode_final_meta(&mut d)?)
    } else {
        None
    };
    d.done()?;
    Ok(DeltaFrame {
        cursor_before,
        cursor_after,
        tier,
        deterministic,
        table,
        seeds,
        enabled,
        legit,
        initial,
        builder,
        final_meta,
    })
}

fn decode_final_meta(d: &mut Dec) -> Result<ReplayFinal, String> {
    let dense_total = match d.u8()? {
        0 => Some(d.u64()?),
        1 => None,
        t => return Err(format!("unknown states kind {t}")),
    };
    let canon = match d.u8()? {
        0 => None,
        1 => {
            let group_order = d.u64()?;
            let mut vecs: [Vec<u64>; 4] = [Vec::new(), Vec::new(), Vec::new(), Vec::new()];
            for vec in &mut vecs {
                let n = d.count(8)?;
                vec.reserve(n);
                for _ in 0..n {
                    vec.push(d.u64()?);
                }
            }
            let strategy = match d.u8()? {
                0 => Strategy::Cycle,
                1 => Strategy::Dihedral,
                2 => {
                    let n_classes = d.count(8)?;
                    let mut classes = Vec::with_capacity(n_classes);
                    for _ in 0..n_classes {
                        let n = d.count(8)?;
                        let mut class = Vec::with_capacity(n);
                        for _ in 0..n {
                            class.push(d.u64()? as usize);
                        }
                        classes.push(class);
                    }
                    Strategy::LeafClasses(classes)
                }
                3 => {
                    let n_perms = d.count(8)?;
                    let mut perms = Vec::with_capacity(n_perms);
                    for _ in 0..n_perms {
                        let n = d.count(4)?;
                        let mut perm = Vec::with_capacity(n);
                        for _ in 0..n {
                            perm.push(d.u32()?);
                        }
                        perms.push(perm);
                    }
                    Strategy::Explicit(perms)
                }
                t => return Err(format!("unknown strategy tag {t}")),
            };
            let n_gens = d.count(8)?;
            let mut gens = Vec::with_capacity(n_gens);
            for _ in 0..n_gens {
                let n = d.count(4)?;
                let mut g = Vec::with_capacity(n);
                for _ in 0..n {
                    g.push(d.u32()?);
                }
                gens.push(g);
            }
            let [pos_weights, pos_radix, node_weights, node_radix] = vecs;
            Some(GroupCanonicalizer::from_snapshot_parts(
                pos_weights,
                pos_radix,
                node_weights,
                node_radix,
                strategy,
                group_order,
                gens,
            ))
        }
        t => return Err(format!("unknown canonicalizer tag {t}")),
    };
    let quotient = match d.u8()? {
        0 => Quotient::None,
        1 => Quotient::RingRotation,
        2 => Quotient::RingDihedral,
        3 => Quotient::Automorphism,
        t => return Err(format!("unknown quotient tag {t}")),
    };
    let traversal = match d.u8()? {
        0 => TraversalMode::Full,
        1 => TraversalMode::Reachable,
        t => return Err(format!("unknown traversal tag {t}")),
    };
    Ok(ReplayFinal {
        dense_total,
        canon,
        quotient,
        traversal,
    })
}

/// Loads the longest valid frame prefix under `dir`: contiguous sequence
/// numbers from 0, one shared fingerprint, every frame passing CRC and
/// structural validation, every delta chaining onto the previous cursor.
/// Any failure ends the chain at the previous frame — a corrupted frame
/// yields the last good snapshot, never a wrong state. Returns the chain
/// fingerprint and the accumulated replay (`None` if no valid frame 0).
pub(super) fn load_chain(dir: &Path) -> Option<(u64, Replay)> {
    let mut chain_fp: Option<u64> = None;
    let mut replay: Option<Replay> = None;
    for seq in 0u64.. {
        let path = dir.join(frame_name(seq));
        if !path.exists() {
            break;
        }
        let frame = read_frame(&path).and_then(|(fp, fseq, kind, payload)| {
            if fseq != seq {
                return Err("header sequence number disagrees with file name".into());
            }
            if let Some(first) = chain_fp {
                if fp != first {
                    return Err("fingerprint changed mid-chain".into());
                }
            }
            Ok((fp, decode_payload(&payload, kind)?))
        });
        let Ok((fp, delta)) = frame else { break };
        let r = replay.get_or_insert_with(|| Replay::new(delta.tier));
        if r.apply(delta).is_err() {
            break;
        }
        chain_fp = Some(fp);
    }
    let replay = replay?;
    if replay.frames == 0 {
        return None;
    }
    Some((chain_fp?, replay))
}

/// Deletes committed frames with sequence ≥ `from_seq` and every
/// leftover temp file — stale state a shorter resumed run must not see.
fn prune_from(dir: &Path, from_seq: u64) -> Result<(), CoreError> {
    let entries = fs::read_dir(dir).map_err(|e| io_err(dir, e))?;
    for entry in entries.flatten() {
        let path = entry.path();
        let is_tmp = path
            .file_name()
            .and_then(|n| n.to_str())
            .is_some_and(|n| n.starts_with("ckpt-") && n.ends_with(".tmp"));
        let stale = parse_frame_seq(&path).is_some_and(|seq| seq >= from_seq);
        if is_tmp || stale {
            fs::remove_file(&path).map_err(|e| io_err(&path, e))?;
        }
    }
    Ok(())
}

/// Reconstructs a completed exploration from its checkpoint directory
/// (backs `TransitionSystem::resume`).
pub(super) fn resume_from_dir(dir: &Path) -> Result<TransitionSystem, CoreError> {
    match load_chain(dir) {
        Some((_fp, replay)) => replay.into_transition_system(dir),
        None => Err(CoreError::CheckpointIncomplete {
            dir: dir.display().to_string(),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

    fn tmp_dir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!(
            "stab-resilience-{}-{}-{}",
            std::process::id(),
            tag,
            DIR_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn crc32c_matches_reference_vector() {
        // The canonical CRC32C (Castagnoli) check value, e.g. RFC 3720
        // §B.4 — and the software table walk must agree with the
        // hardware path bit for bit.
        assert_eq!(crc32c(b"123456789"), 0xE306_9283);
        assert_eq!(crc32c(b""), 0);
        // Sizes around the 3-lane threshold (3 × CRC_LANE) and with
        // ragged tails, so the interleaved hardware path, its
        // single-chain remainder, and the table walk must all agree.
        for n in [4099usize, 3 * CRC_LANE - 1, 3 * CRC_LANE, 100_003] {
            // lint: cast-ok(test sizes stay far below both id widths)
            let data: Vec<u8> = (0..n as u32).map(|i| (i * 31 % 251) as u8).collect();
            assert_eq!(
                crc_update_sw(0xFFFF_FFFF, &data) ^ 0xFFFF_FFFF,
                crc32c(&data)
            );
        }
    }

    #[test]
    fn budget_unlimited_always_passes() {
        let b = Budget::unlimited();
        for _ in 0..100 {
            b.probe("explore", u64::MAX, u64::MAX).unwrap();
        }
        assert_eq!(b.probes_seen(), 100);
    }

    #[test]
    fn budget_limits_trip_with_typed_error() {
        let b = Budget::unlimited().with_max_bytes(1000);
        b.probe("explore", 1000, 0).unwrap();
        let err = b.probe("explore", 1001, 0).unwrap_err();
        assert_eq!(
            err,
            CoreError::BudgetExhausted {
                stage: "explore",
                resource: "bytes",
                limit: 1000,
                used: 1001,
            }
        );
        let b = Budget::unlimited().with_max_states(5);
        assert!(b.probe("verdicts", 0, 6).is_err());
        let b = Budget::unlimited().with_wall_time(Duration::from_millis(0));
        assert!(matches!(
            b.probe("solver", 0, 0),
            Err(CoreError::BudgetExhausted {
                resource: "wall-time-ms",
                ..
            })
        ));
    }

    #[test]
    fn fault_plan_probe_trip_fires_on_kth_probe() {
        let guard = RunGuard::new(
            Budget::unlimited(),
            FaultPlan::none().with_budget_trip_at_probe(3),
        );
        assert!(guard.is_active());
        guard.probe("explore", 0, 0).unwrap();
        guard.probe("explore", 0, 0).unwrap();
        let err = guard.probe("explore", 0, 0).unwrap_err();
        assert!(matches!(
            err,
            CoreError::BudgetExhausted {
                resource: "fault-injected",
                ..
            }
        ));
    }

    #[test]
    fn seeded_fault_plans_are_deterministic_and_in_range() {
        for seed in 0..50 {
            let a = FaultPlan::seeded(seed);
            let b = FaultPlan::seeded(seed);
            assert_eq!(a, b);
            let k = a.kill_after_frames().unwrap();
            assert!((1..=8).contains(&k), "kill point {k} out of range");
        }
    }

    /// Drives a tiny synthetic flat-tier "exploration" through the
    /// checkpointer: 6 rows, one frame every 2 rows, then a final frame.
    fn write_synthetic_chain(dir: &Path, faults: &FaultPlan) -> Result<(), CoreError> {
        let cfg = CheckpointConfig::new(dir, 2);
        let mut ck = Checkpointer::open(&cfg, 0xFEED, EdgeStoreKind::Flat, faults)?;
        assert!(ck.take_replay().is_none());
        let mut counts = Vec::new();
        let mut edges = Vec::new();
        let mut enabled = Vec::new();
        let mut legit = Vec::new();
        for row in 0u32..6 {
            counts.push(1);
            edges.push(Edge {
                to: (row + 1) % 6,
                movers: 1 << row,
                prob: 1.0,
            });
            enabled.push(u64::from(row) + 10);
            legit.push(row % 2 == 0);
            let builder = EdgeStorageBuilder::Flat {
                counts: counts.clone(),
                edges: edges.clone(),
            };
            let src = SnapshotSource {
                builder: &builder,
                enabled: &enabled,
                legit: &BitSet::from_bools(&legit),
                initial: &BitSet::new(legit.len()),
                deterministic: true,
                table: None,
                seeds: &[],
            };
            let cursor = u64::from(row) + 1;
            if cursor < 6 {
                ck.tick(cursor, &src)?;
            } else {
                ck.finalize(
                    cursor,
                    &src,
                    FinalMeta {
                        dense_total: Some(6),
                        canon: None,
                        quotient: Quotient::None,
                        traversal: TraversalMode::Full,
                    },
                )?;
            }
        }
        Ok(())
    }

    #[test]
    fn frame_chain_roundtrips() {
        let dir = tmp_dir("roundtrip");
        write_synthetic_chain(&dir, &FaultPlan::none()).unwrap();
        // Frames at cursors 2, 4 and the final at 6.
        assert_eq!(list_frames(&dir).len(), 3);
        let (fp, replay) = load_chain(&dir).unwrap();
        assert_eq!(fp, 0xFEED);
        assert_eq!(replay.cursor, 6);
        assert_eq!(replay.frames, 3);
        assert!(replay.complete.is_some());
        assert_eq!(replay.enabled, vec![10, 11, 12, 13, 14, 15]);
        assert_eq!(replay.legit, vec![true, false, true, false, true, false]);
        match &replay.builder {
            ReplayBuilder::Flat { counts, edges } => {
                assert_eq!(counts.len(), 6);
                assert_eq!(edges.len(), 6);
                assert_eq!(edges[5].movers, 1 << 5);
            }
            _ => panic!("expected flat builder"),
        }
        let ts = replay.into_transition_system(&dir).unwrap();
        assert_eq!(ts.n_configs(), 6);
        assert_eq!(ts.n_edges(), 6);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_frame_falls_back_to_previous_snapshot() {
        for bit in [0u64, 40, 170, 260, 400] {
            let dir = tmp_dir("corrupt");
            write_synthetic_chain(&dir, &FaultPlan::none()).unwrap();
            let frames = list_frames(&dir);
            FaultPlan::flip_bit(&frames[2], bit).unwrap();
            // The last frame is now invalid; the chain ends at frame 2.
            let (_, replay) = load_chain(&dir).unwrap();
            assert_eq!(replay.frames, 2);
            assert_eq!(replay.cursor, 4);
            assert!(replay.complete.is_none());
            assert!(matches!(
                resume_from_dir(&dir),
                Err(CoreError::CheckpointIncomplete { .. })
            ));
            fs::remove_dir_all(&dir).unwrap();
        }
    }

    #[test]
    fn truncated_frame_falls_back_to_previous_snapshot() {
        for keep in [0u64, 10, 33, 60] {
            let dir = tmp_dir("truncate");
            write_synthetic_chain(&dir, &FaultPlan::none()).unwrap();
            let frames = list_frames(&dir);
            FaultPlan::truncate_file(&frames[1], keep).unwrap();
            // Frame 1 torn: only frame 0 survives; frame 2 is pruned on
            // the next open, and load_chain alone stops at the break.
            let (_, replay) = load_chain(&dir).unwrap();
            assert_eq!(replay.frames, 1);
            assert_eq!(replay.cursor, 2);
            fs::remove_dir_all(&dir).unwrap();
        }
    }

    #[test]
    fn kill_point_interrupts_after_durable_frame_and_reopen_adopts_prefix() {
        let dir = tmp_dir("kill");
        let err =
            write_synthetic_chain(&dir, &FaultPlan::none().with_kill_after_frames(2)).unwrap_err();
        assert_eq!(err, CoreError::Interrupted { after_frames: 2 });
        // Both frames written before the injected death are durable.
        assert_eq!(list_frames(&dir).len(), 2);
        let cfg = CheckpointConfig::new(&dir, 2);
        let mut ck =
            Checkpointer::open(&cfg, 0xFEED, EdgeStoreKind::Flat, &FaultPlan::none()).unwrap();
        let replay = ck.take_replay().unwrap();
        assert_eq!(replay.cursor, 4);
        assert!(replay.complete.is_none());
        fs::remove_dir_all(&dir).unwrap();
    }

    /// Kill-point battery over *every* frame of the synthetic chain,
    /// including the durable final commit (frame 3): the kill fires
    /// after `FrameSink::finish` returns, i.e. after the fsync → rename
    /// → **directory fsync** sequence, so surviving this battery means
    /// every frame the writer reported durable really is reloadable.
    /// The last arm simulates the pre-fix failure mode — a final-frame
    /// rename lost because the directory entry was never synced — and
    /// asserts the loader degrades to the previous snapshot instead of
    /// resuming a wrong state.
    #[test]
    fn kill_point_battery_covers_durable_rename_and_dir_fsync() {
        for k in 1u64..=3 {
            let dir = tmp_dir("battery");
            let res = write_synthetic_chain(&dir, &FaultPlan::none().with_kill_after_frames(k));
            assert_eq!(res.unwrap_err(), CoreError::Interrupted { after_frames: k });
            assert_eq!(list_frames(&dir).len(), k as usize, "kill at {k}");
            let (fp, replay) = load_chain(&dir).unwrap();
            assert_eq!(fp, 0xFEED);
            assert_eq!(replay.frames, k);
            assert_eq!(replay.cursor, 2 * k);
            if k == 3 {
                // The kill landed *after* the durable final frame: the
                // chain is complete and the run resumes to the full
                // system — the death cost nothing.
                assert!(replay.complete.is_some());
                let ts = replay.into_transition_system(&dir).unwrap();
                assert_eq!(ts.n_configs(), 6);
            } else {
                assert!(replay.complete.is_none());
                assert!(matches!(
                    resume_from_dir(&dir),
                    Err(CoreError::CheckpointIncomplete { .. })
                ));
            }
            fs::remove_dir_all(&dir).unwrap();
        }
        // Lost-rename simulation: without the directory fsync a crash
        // can forget the final frame's directory entry even though the
        // writer reported success. The loader must fall back to the
        // frame-2 prefix, never fabricate a complete chain.
        let dir = tmp_dir("battery-lost");
        write_synthetic_chain(&dir, &FaultPlan::none()).unwrap();
        let frames = list_frames(&dir);
        fs::remove_file(&frames[2]).unwrap();
        let (_, replay) = load_chain(&dir).unwrap();
        assert_eq!(replay.frames, 2);
        assert_eq!(replay.cursor, 4);
        assert!(replay.complete.is_none());
        assert!(matches!(
            resume_from_dir(&dir),
            Err(CoreError::CheckpointIncomplete { .. })
        ));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn fingerprint_mismatch_discards_foreign_chain() {
        let dir = tmp_dir("foreign");
        write_synthetic_chain(&dir, &FaultPlan::none()).unwrap();
        let cfg = CheckpointConfig::new(&dir, 2);
        let mut ck =
            Checkpointer::open(&cfg, 0xBEEF, EdgeStoreKind::Flat, &FaultPlan::none()).unwrap();
        assert!(ck.take_replay().is_none());
        assert!(list_frames(&dir).is_empty(), "foreign frames pruned");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn resume_from_dir_requires_a_final_frame() {
        let dir = tmp_dir("incomplete");
        assert!(matches!(
            resume_from_dir(&dir),
            Err(CoreError::CheckpointIncomplete { .. })
        ));
        fs::remove_dir_all(&dir).ok();
    }
}
