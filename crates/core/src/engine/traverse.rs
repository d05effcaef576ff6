//! The one traversal driver behind [`TransitionSystem::explore_with`].
//!
//! The full sweep, the symmetry-quotient sweep and the reachable-only BFS
//! are one loop: map ids, generate each row (`rowgen`), stream it into
//! the selected edge store, probe the budget and tick the checkpointer at
//! batch boundaries, assemble the system. `explore_guarded` derives the
//! loop's three parameters from [`ExploreOptions`]:
//!
//! * the **id map** ([`IdMap`]) — dense (id = mixed-radix index, rows
//!   enumerated in place by [`ConfigCursor`], edges passed through as
//!   generated, since `RowGen` rows are already sorted and distinct) or
//!   interned ([`StateTable`]; successors are then sorted and merged,
//!   since id mapping can fold distinct successors onto one
//!   `(to, movers)` pair). A fixed frontier's pass 1 canonicalizes every
//!   index once and, while the result fits [`DEFAULT_BYTE_BUDGET`]
//!   ([`orbit_table_bytes`], which the plan reads too), keeps the id of
//!   each index's orbit in a dense `u32` **orbit table**, so a row target
//!   costs one load. Otherwise — a larger space, a resumed run (which
//!   skips pass 1) or a growing frontier — each distinct successor of a
//!   row is canonicalized once (a per-row memo), then looked up (fixed)
//!   or interned (growing);
//! * the **group** — none, or a [`GroupCanonicalizer`] that maps every
//!   index to its orbit representative ([`canonical_count`] tallies the
//!   calls);
//! * the **frontier** ([`Frontier`]) — fixed (`0..total` under dense
//!   ids, or the orbit representatives found by a parallel pass 1) or
//!   growing (the tail of the BFS intern table, seeds interned first).
//!
//! A fixed frontier on the flat tier, with no checkpoint and an inactive
//! guard, fans out across threads via [`parallel::map_chunks`] and merges
//! in chunk order; everything else runs sequential batches, so every
//! budget probe and checkpoint frame sees a deterministic prefix and the
//! compressed tiers stream rows straight into their byte encoding.

use std::collections::HashMap;
use std::ops::Range;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;

use crate::algorithm::Algorithm;
use crate::config::Configuration;
use crate::scheduler::DaemonSpec;
use crate::space::SpaceIndexer;
use crate::spec::Legitimacy;
use crate::CoreError;

use super::bitset::BitSet;
use super::cursor::ConfigCursor;
use super::edgestore::{EdgeStorageBuilder, EdgeStoreKind};
use super::explore::{conflict_masks, Edge, TransitionSystem};
use super::ids;
use super::onthefly::{ExploreMode, ExploreOptions, StateIds, StateTable, TraversalMode};
use super::parallel;
use super::plan::DEFAULT_BYTE_BUDGET;
use super::quotient::{CanonScratch, GroupCanonicalizer};
use super::resilience::{Checkpointer, FinalMeta, Fnv, RunGuard, SnapshotSource};
use super::rowgen::RowGen;
use super::spill::SpillConfig;

/// Rows per sequential batch of a fixed frontier: the granularity of
/// budget probes and checkpoint ticks.
const BATCH: u64 = 2048;

/// Process-wide tally of orbit canonicalizations, added per pass-1 chunk
/// and per row batch.
static CANONICALIZED: AtomicU64 = AtomicU64::new(0);

/// Number of orbit canonicalizations the exploration driver has run in
/// this process so far: one per index in a fixed frontier's pass 1, plus
/// one per distinct target of each row that no orbit table resolves (see
/// the module docs). The seeds a growing frontier interns before its
/// first row are not counted.
pub fn canonical_count() -> u64 {
    CANONICALIZED.load(Ordering::Relaxed)
}

/// The orbit table's size for a `total`-configuration space (one `u32`
/// id per index) and whether a fixed quotient sweep keeps it: only
/// within [`DEFAULT_BYTE_BUDGET`]. The plan's `id_map` decision reads
/// the same answer.
pub(super) fn orbit_table_bytes(total: u64) -> (u64, bool) {
    let bytes = total.saturating_mul(std::mem::size_of::<u32>() as u64);
    (bytes, bytes <= DEFAULT_BYTE_BUDGET)
}

/// How explored ids map to configurations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum IdMap {
    /// id = mixed-radix index.
    Dense,
    /// ids handed out by a [`StateTable`] in frontier order.
    Interned,
}

/// Which rows a traversal explores.
pub(super) enum Frontier<'s, S> {
    /// A set fixed before the row pass: `0..total` under dense ids, the
    /// orbit representatives (ascending index) under interned ids.
    Fixed,
    /// The BFS queue: the intern table's unexplored tail, seeded with
    /// these configurations.
    Growing(&'s [Configuration<S>]),
}

/// Explores `alg` under `daemon` with the given id map, group and
/// frontier (see the module docs); `opts` supplies the edge-store tier,
/// spill, checkpoint and reachable-mode state cap.
#[allow(clippy::too_many_arguments)]
pub(super) fn traverse<A, L>(
    alg: &A,
    ix: &SpaceIndexer<A::State>,
    daemon: DaemonSpec,
    spec: &L,
    opts: &ExploreOptions<A::State>,
    guard: &RunGuard,
    id_map: IdMap,
    canon: Option<GroupCanonicalizer>,
    frontier: Frontier<'_, A::State>,
) -> Result<TransitionSystem, CoreError>
where
    A: Algorithm + Sync,
    A::State: Sync,
    L: Legitimacy<A::State> + Sync,
{
    let growing = matches!(frontier, Frontier::Growing(_));
    // A cap above the id width could never be enforced — interning fails
    // at u32 ids first — so reject it instead of silently clamping.
    if growing && opts.max_states > u32::MAX as u64 {
        return Err(CoreError::StateCapExceedsIdWidth {
            requested: opts.max_states,
            limit: u32::MAX as u64,
        });
    }
    let kind = opts.edge_store;
    let spill = opts.effective_spill();
    let mut ck = match &opts.checkpoint {
        Some(cfg) => Some(Checkpointer::open(
            cfg,
            run_fingerprint(alg, ix, daemon, opts),
            kind,
            guard.faults(),
        )?),
        None => None,
    };
    // A complete chain short-circuits to the recorded system; a partial
    // one restores the accumulator, the intern table (seeds and frontier
    // included) and the cursor, and the traversal continues from there.
    let replay = ck.as_mut().and_then(Checkpointer::take_replay);
    let resumed = replay.is_some();
    let (mut merge, mut table, mut seeds, mut cursor) = match (replay, &opts.checkpoint) {
        (Some(r), Some(cfg)) if r.complete.is_some() => {
            return r.into_transition_system(&cfg.dir);
        }
        (Some(r), _) => {
            let (full_of, orbit) = r.table.iter().copied().unzip();
            let merge = MergeState {
                builder: r.builder.into_builder(kind, &spill),
                enabled: r.enabled,
                legit: BitSet::from_bools(&r.legit),
                initial: BitSet::from_bools(&r.initial),
                deterministic: r.deterministic,
            };
            (
                merge,
                StateTable::from_parts(full_of, orbit),
                r.seeds,
                r.cursor,
            )
        }
        (None, _) => (
            MergeState::new(kind, &spill),
            StateTable::default(),
            Vec::new(),
            0,
        ),
    };
    let rows = Rows {
        alg,
        ix,
        daemon,
        spec,
        conflicts: conflict_masks(alg, daemon),
        canon: canon.as_ref(),
    };
    let mut orbit_ids = None;
    match (frontier, id_map) {
        (Frontier::Fixed, IdMap::Interned) => {
            guard.probe("explore", 0, 0)?;
            // A resumed run skips pass 1 — its first frame carried the
            // whole table — and so resolves targets by lookup.
            if let (false, Some(c)) = (resumed, &canon) {
                let (_, keep) = orbit_table_bytes(ix.total());
                (table, orbit_ids) = representatives(c, ix.total(), keep)?;
            }
            guard.probe("explore", 0, table.len() as u64)?;
        }
        (Frontier::Growing(configs), _) if !resumed => {
            // Seeds are interned first, so they occupy ids
            // 0..#distinct-seeds and form the system's initial set.
            let mut scratch = CanonScratch::default();
            for cfg in configs {
                seeds.push(rows.intern(&mut table, ix.encode(cfg), &mut scratch));
            }
        }
        _ => {}
    }
    let orbit_ids = orbit_ids.as_deref();
    let frontier_len = |table: &StateTable| match id_map {
        IdMap::Dense => ix.total(),
        IdMap::Interned => table.len() as u64,
    };
    let n = frontier_len(&table);
    check_states(n, u32::MAX as u64)?;

    if !growing && kind == EdgeStoreKind::Flat && ck.is_none() && !guard.is_active() {
        let fixed = (id_map == IdMap::Interned).then_some(&table);
        let parts = parallel::map_chunks(n, |range| {
            let mut part = MergeState::new(EdgeStoreKind::Flat, &SpillConfig::default());
            let mut ids = fixed.map(|t| Ids::Fixed(t, orbit_ids));
            let mut scratch = Scratch::default();
            rows.explore(&mut scratch, ids.as_mut(), range, &mut part)?;
            Ok(part)
        })?;
        for part in parts {
            merge.absorb(part);
        }
    } else {
        let mut scratch = Scratch::default();
        let step = if growing { 1 } else { BATCH };
        while cursor < frontier_len(&table) {
            guard.probe("explore", merge.builder.bytes_estimate(), cursor)?;
            let end = (cursor + step).min(frontier_len(&table));
            let mut ids = match (id_map, growing) {
                (IdMap::Dense, _) => None,
                (IdMap::Interned, false) => Some(Ids::Fixed(&table, orbit_ids)),
                (IdMap::Interned, true) => Some(Ids::Growing(&mut table)),
            };
            rows.explore(&mut scratch, ids.as_mut(), cursor..end, &mut merge)?;
            if growing {
                check_states(table.len() as u64, opts.max_states)?;
            }
            cursor = end;
            if let Some(ck) = &mut ck {
                ck.tick(cursor, &merge.snapshot(id_map, &table, &seeds))?;
            }
        }
    }
    let traversal = if growing {
        TraversalMode::Reachable
    } else {
        TraversalMode::Full
    };
    if let Some(ck) = &mut ck {
        ck.finalize(
            cursor,
            &merge.snapshot(id_map, &table, &seeds),
            FinalMeta {
                dense_total: (id_map == IdMap::Dense).then_some(n),
                canon: canon.as_ref(),
                quotient: opts.quotient,
                traversal,
            },
        )?;
    }
    // A growing frontier's initial set is exactly its seeds.
    for &id in &seeds {
        merge.initial.insert(id as usize);
    }
    let states = match id_map {
        IdMap::Dense => StateIds::Dense { total: n },
        IdMap::Interned => StateIds::Interned(Arc::new(table)),
    };
    Ok(TransitionSystem::assemble(
        merge.builder.finish(),
        merge.enabled,
        merge.legit,
        merge.initial,
        merge.deterministic,
        states,
        canon,
        opts.quotient,
        traversal,
    ))
}

/// [`CoreError::StateSpaceTooLarge`] once `states` exceeds `cap`.
fn check_states(states: u64, cap: u64) -> Result<(), CoreError> {
    if states > cap {
        return Err(CoreError::StateSpaceTooLarge {
            total: states as u128,
            cap,
        });
    }
    Ok(())
}

/// FNV-1a fingerprint of a run's identity — algorithm, space, daemon,
/// traversal mode (with seed indices), quotient, and edge-store tier. A
/// checkpoint directory records it in every frame so a resumed run only
/// adopts frames written by the same exploration.
fn run_fingerprint<A: Algorithm>(
    alg: &A,
    ix: &SpaceIndexer<A::State>,
    daemon: DaemonSpec,
    opts: &ExploreOptions<A::State>,
) -> u64 {
    let mut h = Fnv::new();
    h.write(alg.name().as_bytes());
    h.write_u64(alg.n() as u64);
    h.write_u64(ix.total());
    h.write(daemon.name().as_bytes());
    h.write(opts.quotient.label().as_bytes());
    h.write(opts.edge_store.label().as_bytes());
    match &opts.mode {
        ExploreMode::Full => h.write_u64(0),
        ExploreMode::Reachable { seeds } => {
            h.write_u64(1);
            h.write_u64(seeds.len() as u64);
            for cfg in seeds {
                h.write_u64(ix.encode(cfg));
            }
        }
    }
    h.finish()
}

/// How a batch of rows resolves configurations to interned ids.
enum Ids<'t> {
    /// Interned over a fixed frontier: every canonical successor is
    /// already in the table, which worker threads share read-only with
    /// the orbit table when pass 1 kept one.
    Fixed(&'t StateTable, Option<&'t [u32]>),
    /// Interned over a growing frontier: unseen successors join the
    /// table, which doubles as the BFS queue.
    Growing(&'t mut StateTable),
}

impl Ids<'_> {
    /// The full-space index behind frontier row `id`.
    fn full_of(&self, id: u64) -> u64 {
        let table = match self {
            Ids::Fixed(t, _) => &**t,
            Ids::Growing(t) => &**t,
        };
        table.full_of(ids::id_u32_wide(id, "frontier ids fit the u32 id width"))
    }
}

/// Per-worker scratch reused across the rows of a batch.
#[derive(Default)]
struct Scratch {
    gen: RowGen,
    digits: Vec<u32>,
    canon: CanonScratch,
    row: Vec<Edge>,
    /// Per-row memo where no orbit table resolves targets: successors
    /// repeat across activations, and each repeat would otherwise pay a
    /// fresh canonicalization and lookup or intern.
    memo: HashMap<u64, u32>,
}

/// The read-only context every row worker shares.
struct Rows<'a, A: Algorithm, L> {
    alg: &'a A,
    ix: &'a SpaceIndexer<A::State>,
    daemon: DaemonSpec,
    spec: &'a L,
    conflicts: Vec<u64>,
    canon: Option<&'a GroupCanonicalizer>,
}

impl<A, L> Rows<'_, A, L>
where
    A: Algorithm + Sync,
    A::State: Sync,
    L: Legitimacy<A::State> + Sync,
{
    /// Explores frontier rows `range` into `acc`, under dense ids when
    /// `ids` is `None`.
    fn explore(
        &self,
        s: &mut Scratch,
        ids: Option<&mut Ids>,
        range: Range<u64>,
        acc: &mut MergeState,
    ) -> Result<(), CoreError> {
        let (alg, ix, daemon) = (self.alg, self.ix, self.daemon);
        let Some(ids) = ids else {
            let mut cursor = ConfigCursor::new(ix, range.start);
            for id in range.clone() {
                let cfg = cursor.config();
                let (mask, det) =
                    s.gen
                        .generate(alg, ix, daemon, &self.conflicts, cfg, cursor.digits(), id)?;
                s.row.clear();
                s.row.extend(s.gen.row.iter().map(|e| Edge {
                    to: ids::id_u32_wide(e.to, "target config ids fit the u32 id width"),
                    movers: e.movers,
                    prob: e.prob,
                }));
                let (legit, initial) = (self.spec.is_legitimate(cfg), alg.is_initial(cfg));
                acc.push(&s.row, mask, det, legit, initial);
                if id + 1 < range.end {
                    cursor.advance();
                }
            }
            return Ok(());
        };
        // A growing frontier takes its initial set from the seeds, not
        // from `Algorithm::is_initial`.
        let seeded = matches!(ids, Ids::Growing(_));
        let mut canonicalized = 0;
        for id in range {
            let full = ids.full_of(id);
            let cfg = ix.decode(full);
            ix.write_digits(full, &mut s.digits);
            let (mask, det) =
                s.gen
                    .generate(alg, ix, daemon, &self.conflicts, &cfg, &s.digits, full)?;
            s.row.clear();
            s.memo.clear();
            for e in &s.gen.row {
                let to = match ids {
                    Ids::Fixed(_, Some(orbit_ids)) => orbit_ids[e.to as usize],
                    _ => *s.memo.entry(e.to).or_insert_with(|| match ids {
                        Ids::Fixed(table, _) => table
                            .lookup(self.canonical(e.to, &mut s.canon))
                            .expect("canonical successors are representatives"),
                        Ids::Growing(table) => self.intern(table, e.to, &mut s.canon),
                    }),
                };
                s.row.push(Edge {
                    to,
                    movers: e.movers,
                    prob: e.prob,
                });
            }
            canonicalized += s.memo.len() as u64;
            s.row.sort_unstable_by_key(|e| (e.to, e.movers));
            merge_parallel_edges(&mut s.row);
            let initial = !seeded && alg.is_initial(&cfg);
            acc.push(&s.row, mask, det, self.spec.is_legitimate(&cfg), initial);
        }
        // Without a group, `Rows::canonical` is the identity.
        if self.canon.is_some() {
            CANONICALIZED.fetch_add(canonicalized, Ordering::Relaxed);
        }
        Ok(())
    }

    /// The orbit representative of `full` (itself without a group).
    fn canonical(&self, full: u64, scratch: &mut CanonScratch) -> u64 {
        self.canon.map_or(full, |c| c.canonical(full, scratch))
    }

    /// Interns the orbit representative of `full` (computing its orbit
    /// size on first sight) and returns its id.
    fn intern(&self, table: &mut StateTable, full: u64, scratch: &mut CanonScratch) -> u32 {
        let rep = self.canonical(full, scratch);
        table.intern(rep, || self.canon.map_or(1, |c| c.orbit(rep, scratch)))
    }
}

/// Pass 1 of a fixed interned frontier, chunked across threads: every
/// index of `0..total` is canonicalized once, giving the orbit
/// representatives in ascending index order with their orbit sizes and,
/// when `keep_ids`, the orbit table (the id of every index's orbit).
pub(super) fn representatives(
    canon: &GroupCanonicalizer,
    total: u64,
    keep_ids: bool,
) -> Result<(StateTable, Option<Vec<u32>>), CoreError> {
    // Workers store each index's representative in its own slot
    // (`Relaxed`: the scoped join orders every store before the reads
    // below); the same allocation then turns into the ids, so the table
    // peaks at 4 B per index.
    let kept = if keep_ids { total } else { 0 };
    let slots: Vec<AtomicU32> = (0..kept).map(|_| AtomicU32::new(0)).collect();
    let chunks = parallel::map_chunks(total, |range| -> Result<_, CoreError> {
        CANONICALIZED.fetch_add(range.end - range.start, Ordering::Relaxed);
        let mut reps = Vec::new();
        let mut scratch = CanonScratch::default();
        for full in range {
            let rep = canon.canonical(full, &mut scratch);
            if rep == full {
                reps.push((full, canon.orbit(full, &mut scratch)));
            }
            if let Some(slot) = slots.get(full as usize) {
                // lint: cast-ok(a kept table's indices fit u32, see orbit_table_bytes)
                slot.store(rep as u32, Ordering::Relaxed);
            }
        }
        Ok(reps)
    })?;
    let mut table = StateTable::default();
    for (full, orbit) in chunks.into_iter().flatten() {
        table.intern(full, || orbit);
    }
    // Every slot holds a representative, which pass 1 interned.
    let id = |slot: AtomicU32| table.lookup(slot.into_inner().into()).expect("interned");
    let orbit_ids = keep_ids.then(|| slots.into_iter().map(id).collect());
    Ok((table, orbit_ids))
}

/// Merges consecutive equal `(to, movers)` edges of a sorted row, summing
/// probabilities — the orbit multiplicities of quotient folding.
fn merge_parallel_edges(row: &mut Vec<Edge>) {
    if row.len() <= 1 {
        return;
    }
    let mut write = 0;
    for read in 1..row.len() {
        if row[read].to == row[write].to && row[read].movers == row[write].movers {
            row[write].prob += row[read].prob;
        } else {
            write += 1;
            row[write] = row[read];
        }
    }
    row.truncate(write + 1);
}

/// The traversal's accumulator: rows stream into the selected edge store
/// in frontier order, labels into per-row bitsets.
struct MergeState {
    builder: EdgeStorageBuilder,
    enabled: Vec<u64>,
    legit: BitSet,
    initial: BitSet,
    deterministic: bool,
}

impl MergeState {
    fn new(kind: EdgeStoreKind, spill: &SpillConfig) -> Self {
        MergeState {
            builder: EdgeStorageBuilder::with_spill(kind, spill),
            enabled: Vec::new(),
            legit: BitSet::new(0),
            initial: BitSet::new(0),
            deterministic: true,
        }
    }

    /// Appends the next row.
    fn push(
        &mut self,
        row: &[Edge],
        enabled: u64,
        deterministic: bool,
        legit: bool,
        initial: bool,
    ) {
        self.builder.push_row(row);
        self.enabled.push(enabled);
        self.legit.push(legit);
        self.initial.push(initial);
        self.deterministic &= deterministic;
    }

    /// Appends a parallel worker's flat-tier part (merged in chunk order).
    fn absorb(&mut self, part: MergeState) {
        let EdgeStorageBuilder::Flat { counts, edges } = &part.builder else {
            unreachable!("parallel parts are built on the flat tier");
        };
        self.builder.push_chunk(counts, edges);
        self.enabled.extend_from_slice(&part.enabled);
        for i in 0..part.enabled.len() {
            self.legit.push(part.legit.get(i));
            self.initial.push(part.initial.get(i));
        }
        self.deterministic &= part.deterministic;
    }

    /// The checkpoint view of the accumulated state (see
    /// [`SnapshotSource`]); the table is persisted under interned ids.
    fn snapshot<'a>(
        &'a self,
        id_map: IdMap,
        table: &'a StateTable,
        seeds: &'a [u32],
    ) -> SnapshotSource<'a> {
        SnapshotSource {
            builder: &self.builder,
            enabled: &self.enabled,
            legit: &self.legit,
            initial: &self.initial,
            deterministic: self.deterministic,
            table: (id_map == IdMap::Interned).then_some(table),
            seeds,
        }
    }
}
