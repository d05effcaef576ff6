//! Traversal selection: the options that pick one of three exploration
//! modes — the full mixed-radix sweep, the symmetry-quotient sweep, and
//! on-the-fly reachable-only BFS — plus the intern table behind the
//! non-dense modes' ids.
//!
//! The full sweep materialises every configuration, so state-space size —
//! not speed — caps the largest checkable instance. The other two modes
//! push past that cap along independent axes:
//!
//! * the **quotient sweep** stores one representative per orbit of the
//!   selected symmetry group ([`Quotient`]): ≈ `total / N` states on an
//!   `N`-ring under rotations, ≈ `total / 2N` under the dihedral group,
//!   up to `∏ |class|!` less on stars and trees under leaf permutations —
//!   still visiting every index once to find the representatives;
//! * the **reachable BFS** stores only configurations reachable from a
//!   designated initial set, discovered frontier by frontier, with a
//!   `HashMap` interner handing out dense ids in discovery order — the
//!   standard on-the-fly construction of explicit-state model checkers.
//!
//! Both compose: a reachable BFS over canonical representatives explores
//! the quotient of the reachable set. All three modes run through one
//! driver (`traverse`), which the options parameterise by id map (dense
//! or interned `StateTable` ids), group (none or a
//! [`GroupCanonicalizer`](super::GroupCanonicalizer)) and frontier
//! (fixed or growing).

use std::sync::Arc;

use crate::config::Configuration;

use super::edgestore::EdgeStoreKind;
use super::equivariance::Carried;
use super::ids::{self, U64Map};
use super::resilience::CheckpointConfig;
use super::spill::SpillConfig;

/// How to traverse the configuration space.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExploreMode<S> {
    /// Sweep every mixed-radix index (the stabilization default, `I = C`).
    Full,
    /// Breadth-first search from the designated initial configurations;
    /// only reachable configurations are interned and explored, and the
    /// system's initial set is exactly the seeds.
    Reachable {
        /// The designated initial configurations.
        seeds: Vec<Configuration<S>>,
    },
}

/// Symmetry reduction applied to configuration ids: which permutation
/// group of the communication graph the exploration quotients by (one id
/// per group orbit, see [`GroupCanonicalizer`](super::GroupCanonicalizer)).
///
/// Every quotient requires the algorithm to respect the group and the
/// specification to be invariant under it — both are checked once per
/// study by the engine's equivariance gate, which rejects unsound
/// combinations with
/// [`CoreError::QuotientUnsupported`](crate::CoreError::QuotientUnsupported)
/// *per algorithm*, not per topology (e.g. Dijkstra's rooted ring is
/// rejected on the very topology Herman's ring is accepted on).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Quotient {
    /// No reduction: one id per configuration.
    #[default]
    None,
    /// One id per rotation orbit of a uniform ring (cyclic group `C_N`,
    /// up to `N`-fold reduction).
    RingRotation,
    /// One id per rotation-or-reflection orbit of a uniform ring
    /// (dihedral group `D_N`, up to `2N`-fold reduction).
    RingDihedral,
    /// The topology-derived full-automorphism quotient: dihedral on
    /// rings, the leaf-permutation subgroup on stars and trees
    /// (up to `∏ |class|!`-fold reduction).
    Automorphism,
}

impl Quotient {
    /// Stable lower-case label (`"none"` / `"ring-rotation"` /
    /// `"ring-dihedral"` / `"automorphism"`) used by plan records and the
    /// `BENCH_explore.json` schema.
    pub fn label(self) -> &'static str {
        match self {
            Quotient::None => "none",
            Quotient::RingRotation => "ring-rotation",
            Quotient::RingDihedral => "ring-dihedral",
            Quotient::Automorphism => "automorphism",
        }
    }
}

/// Which traversal produced a [`TransitionSystem`](super::TransitionSystem)
/// (for reporting).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraversalMode {
    /// Full sweep (plain or quotient).
    Full,
    /// Reachable-only BFS from designated seeds.
    Reachable,
}

/// Per-run exploration options for
/// [`TransitionSystem::explore_with`](super::TransitionSystem::explore_with).
///
/// ```
/// use stab_core::engine::{ExploreOptions, Quotient};
/// let opts: ExploreOptions<u8> = ExploreOptions::full().with_ring_quotient();
/// assert_eq!(opts.quotient, Quotient::RingRotation);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExploreOptions<S> {
    /// The traversal: full sweep or reachable-only BFS.
    pub mode: ExploreMode<S>,
    /// Optional symmetry reduction.
    pub quotient: Quotient,
    /// Reachable-mode safety valve: the BFS fails with
    /// [`CoreError::StateSpaceTooLarge`](crate::CoreError::StateSpaceTooLarge)
    /// once more states than this are interned (default `u32::MAX`, the
    /// id-width limit; larger caps are rejected with
    /// [`CoreError::StateCapExceedsIdWidth`](crate::CoreError::StateCapExceedsIdWidth)).
    pub max_states: u64,
    /// Which edge-store tier the exploration materialises (default
    /// [`EdgeStoreKind::Flat`]; select [`EdgeStoreKind::Compressed`] for
    /// instances whose 24 B/edge flat store exceeds RAM).
    pub edge_store: EdgeStoreKind,
    /// Periodic checkpointing of exploration state to a frame directory
    /// (default off). With checkpointing the exploration runs
    /// sequentially so every frame snapshots a deterministic prefix; a
    /// re-run with the same options resumes from the frames on disk, and
    /// [`TransitionSystem::resume`](super::TransitionSystem::resume)
    /// reconstructs a completed run.
    pub checkpoint: Option<CheckpointConfig>,
    /// Disk-tier spill placement and budgets (chunk size, pinned cache
    /// bytes); ignored by the in-RAM tiers. With no explicit directory
    /// a checkpointed run spills next to its frames
    /// (`<checkpoint-dir>/spill`) and an unanchored run uses a
    /// self-cleaning temp directory.
    pub spill: SpillConfig,
    /// The equivariance gate's admission when these options come from
    /// [`Plan::options`](super::Plan::options); ignored by equality and by
    /// the checkpoint fingerprint.
    pub(super) admission: Carried,
}

impl<S> ExploreOptions<S> {
    /// The default traversal: full sweep, no quotient, flat edge store.
    pub fn full() -> Self {
        ExploreOptions {
            mode: ExploreMode::Full,
            quotient: Quotient::None,
            max_states: u32::MAX as u64,
            edge_store: EdgeStoreKind::Flat,
            checkpoint: None,
            spill: SpillConfig::default(),
            admission: Carried::default(),
        }
    }

    /// Reachable-only BFS from `seeds`.
    pub fn reachable(seeds: Vec<Configuration<S>>) -> Self {
        ExploreOptions {
            mode: ExploreMode::Reachable { seeds },
            ..Self::full()
        }
    }

    /// Selects the symmetry group the traversal quotients by.
    ///
    /// ```
    /// use stab_core::engine::{ExploreOptions, Quotient};
    /// let opts: ExploreOptions<u8> = ExploreOptions::full().with_quotient(Quotient::RingDihedral);
    /// assert_eq!(opts.quotient, Quotient::RingDihedral);
    /// ```
    #[must_use]
    pub fn with_quotient(mut self, quotient: Quotient) -> Self {
        self.quotient = quotient;
        self
    }

    /// Adds the ring-rotation quotient to the traversal (shorthand for
    /// [`ExploreOptions::with_quotient`]`(Quotient::RingRotation)`).
    #[must_use]
    pub fn with_ring_quotient(self) -> Self {
        self.with_quotient(Quotient::RingRotation)
    }

    /// Caps the number of interned states in reachable mode.
    #[must_use]
    pub fn with_max_states(mut self, max_states: u64) -> Self {
        self.max_states = max_states;
        self
    }

    /// Selects the edge-store tier the exploration materialises.
    ///
    /// ```
    /// use stab_core::engine::{EdgeStoreKind, ExploreOptions};
    /// let opts: ExploreOptions<u8> =
    ///     ExploreOptions::full().with_edge_store(EdgeStoreKind::Compressed);
    /// assert_eq!(opts.edge_store, EdgeStoreKind::Compressed);
    /// ```
    #[must_use]
    pub fn with_edge_store(mut self, edge_store: EdgeStoreKind) -> Self {
        self.edge_store = edge_store;
        self
    }

    /// Checkpoints exploration state under `dir` every `every_n_states`
    /// explored states, as a chain of CRC32-framed delta files written
    /// atomically (temp file + rename). A re-run with the same options
    /// and directory resumes from the longest valid frame prefix instead
    /// of starting over; a corrupted or torn frame falls back to the
    /// previous one. Checkpointed explorations run sequentially so every
    /// frame snapshots a deterministic prefix of the traversal.
    #[must_use]
    pub fn with_checkpoint(
        mut self,
        dir: impl Into<std::path::PathBuf>,
        every_n_states: u64,
    ) -> Self {
        self.checkpoint = Some(CheckpointConfig::new(dir, every_n_states));
        self
    }

    /// Overrides the disk-tier spill configuration (directory, chunk
    /// size, pinned-cache bytes). An explicit directory is treated as
    /// user-owned: stale chunks are pruned on reuse but the directory
    /// itself survives the run.
    #[must_use]
    pub fn with_spill(mut self, spill: SpillConfig) -> Self {
        self.spill = spill;
        self
    }

    /// The spill configuration a run actually uses: an explicit
    /// directory wins; otherwise a checkpointed run anchors its spill
    /// at `<checkpoint-dir>/spill` (so a resumed run re-spills into
    /// the same place
    /// [`TransitionSystem::resume`](super::TransitionSystem::resume)
    /// reads), and an unanchored run gets a per-process self-cleaning
    /// temp dir.
    pub(super) fn effective_spill(&self) -> SpillConfig {
        let mut spill = self.spill.clone();
        if spill.dir.is_none() {
            if let Some(ck) = &self.checkpoint {
                spill.dir = Some(ck.dir.join("spill"));
            }
        }
        spill
    }
}

/// Dense ids for explored states.
#[derive(Debug, Clone)]
pub(super) enum StateIds {
    /// id = mixed-radix index (full sweep without quotient).
    Dense {
        /// Space size (for range checks).
        total: u64,
    },
    /// Hash-interned ids (quotient sweep or reachable BFS), shared with
    /// every [`ExploredIds`](super::ExploredIds) handle of the system.
    Interned(Arc<StateTable>),
}

/// The intern table of a non-dense exploration: dense id ↔ full-space
/// mixed-radix index, plus the group-orbit size per id (1 without
/// quotienting).
#[derive(Debug, Default)]
pub(super) struct StateTable {
    full_of: Vec<u64>,
    ids: U64Map<u32>,
    orbit: Vec<u64>,
}

impl StateTable {
    /// The id of `full`, if interned.
    #[inline]
    pub fn lookup(&self, full: u64) -> Option<u32> {
        self.ids.get(&full).copied()
    }

    /// Interns `full` (computing its orbit size on first sight) and
    /// returns its id.
    #[inline]
    pub(super) fn intern(&mut self, full: u64, orbit: impl FnOnce() -> u64) -> u32 {
        *self.ids.entry(full).or_insert_with(|| {
            let id = ids::id_u32(self.full_of.len(), "interned state ids fit u32");
            self.full_of.push(full);
            self.orbit.push(orbit());
            id
        })
    }

    /// The full-space index behind `id`.
    #[inline]
    pub fn full_of(&self, id: u32) -> u64 {
        self.full_of[id as usize]
    }

    /// The group-orbit size of `id`.
    #[inline]
    pub fn orbit(&self, id: u32) -> u64 {
        self.orbit[id as usize]
    }

    /// Number of interned states.
    pub fn len(&self) -> usize {
        self.full_of.len()
    }

    /// Total concrete configurations represented (Σ orbit sizes).
    pub fn represented(&self) -> u64 {
        self.orbit.iter().sum()
    }

    /// The persisted columns (full-space index and orbit size, in id
    /// order) — the checkpoint snapshot surface.
    pub(super) fn parts(&self) -> (&[u64], &[u64]) {
        (&self.full_of, &self.orbit)
    }

    /// Rebuilds a table from its persisted columns (inverse of
    /// [`StateTable::parts`]); the hash index is rederived, so the result
    /// interns identically to the original.
    pub(super) fn from_parts(full_of: Vec<u64>, orbit: Vec<u64>) -> Self {
        let ids = full_of
            .iter()
            .enumerate()
            .map(|(i, &f)| (f, ids::id_u32(i, "interned state ids fit u32")))
            .collect();
        StateTable {
            full_of,
            ids,
            orbit,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::action::{ActionId, ActionMask};
    use crate::algorithm::Algorithm;
    use crate::engine::{BitSet, CanonScratch, Edge, TransitionSystem};
    use crate::outcome::Outcomes;
    use crate::space::SpaceIndexer;
    use crate::view::View;
    use crate::CoreError;
    use crate::{DaemonSpec, Predicate};
    use stab_graph::{builders, Graph, NodeId};

    /// One-bit anonymous ring algorithm: copy the predecessor when
    /// differing from it. Using the ring *orientation* (not raw port 0,
    /// which is direction-inconsistent under sorted port numbering — the
    /// equivariance gate rejects that variant) makes every node's program
    /// identical up to rotation, hence rotation-equivariant.
    struct CopyRing {
        g: Graph,
        orient: stab_graph::RingOrientation,
    }

    impl CopyRing {
        fn new(n: usize) -> Self {
            let g = builders::ring(n);
            let orient = stab_graph::RingOrientation::canonical(&g).unwrap();
            CopyRing { g, orient }
        }
    }

    impl Algorithm for CopyRing {
        type State = bool;
        fn graph(&self) -> &Graph {
            &self.g
        }
        fn name(&self) -> String {
            "copy-ring".into()
        }
        fn state_space(&self, _v: NodeId) -> Vec<bool> {
            vec![false, true]
        }
        fn enabled_actions<V: View<bool>>(&self, v: &V) -> ActionMask {
            let pred = *v.neighbor(self.orient.pred_port(v.node()));
            ActionMask::when(pred != *v.me(), ActionId::A1)
        }
        fn apply<V: View<bool>>(&self, v: &V, _a: ActionId) -> Outcomes<bool> {
            Outcomes::certain(*v.neighbor(self.orient.pred_port(v.node())))
        }
    }

    fn agreement() -> Predicate<bool> {
        Predicate::new("agreement", |c: &Configuration<bool>| {
            c.states().iter().all(|&b| b) || c.states().iter().all(|&b| !b)
        })
    }

    #[test]
    fn reachable_all_seeds_matches_full_sweep_edge_for_edge() {
        let alg = CopyRing::new(4);
        let ix = SpaceIndexer::new(&alg, 1 << 20).unwrap();
        let spec = agreement();
        for daemon in DaemonSpec::LEGACY {
            let full = TransitionSystem::explore(&alg, &ix, daemon, &spec).unwrap();
            // Seeding with every configuration in index order makes BFS
            // hand out ids equal to mixed-radix indices.
            let seeds: Vec<_> = ix.iter().collect();
            let opts = ExploreOptions::reachable(seeds);
            let reach = TransitionSystem::explore_with(&alg, &ix, daemon, &spec, &opts).unwrap();
            assert_eq!(reach.traversal(), TraversalMode::Reachable);
            assert_eq!(reach.n_configs(), full.n_configs());
            assert_eq!(reach.legit(), full.legit());
            for id in 0..full.n_configs() {
                assert_eq!(reach.full_index_of(id), id as u64);
                assert_eq!(reach.enabled_mask(id), full.enabled_mask(id));
                assert_eq!(
                    reach.edges(id).unwrap(),
                    full.edges(id).unwrap(),
                    "row {id} under {daemon}"
                );
            }
        }
    }

    #[test]
    fn reachable_interns_only_the_reachable_set() {
        let alg = CopyRing::new(4);
        let ix = SpaceIndexer::new(&alg, 1 << 20).unwrap();
        let spec = agreement();
        // From ⟨T,F,F,F⟩ under the central daemon, the copy dynamics can
        // reach only a strict subset of the 16 configurations.
        let seed = Configuration::from_vec(vec![true, false, false, false]);
        let opts = ExploreOptions::reachable(vec![seed.clone()]);
        let ts =
            TransitionSystem::explore_with(&alg, &ix, DaemonSpec::central(), &spec, &opts).unwrap();
        assert!(ts.n_configs() < 16, "strict subset, got {}", ts.n_configs());
        // The seed is the whole initial set and has id 0.
        assert_eq!(ts.initial().count_ones(), 1);
        assert!(ts.is_initial(0));
        assert_eq!(ts.full_index_of(0), ix.encode(&seed));
        // Every explored state is reachable from the seed by construction.
        let mut seeds = BitSet::new(ts.n_configs() as usize);
        seeds.insert(0);
        assert!(ts.forward_closure(&seeds).is_full());
        // Unreached configurations have no id.
        let unreached = ix.encode(&Configuration::from_vec(vec![true, false, true, false]));
        assert_eq!(ts.id_of_full_index(unreached), None);
    }

    #[test]
    fn reachable_mode_respects_the_state_cap() {
        let alg = CopyRing::new(5);
        let ix = SpaceIndexer::new(&alg, 1 << 20).unwrap();
        let spec = agreement();
        let seeds: Vec<_> = ix.iter().collect();
        let opts = ExploreOptions::reachable(seeds).with_max_states(7);
        let err = TransitionSystem::explore_with(&alg, &ix, DaemonSpec::central(), &spec, &opts)
            .unwrap_err();
        assert!(matches!(err, CoreError::StateSpaceTooLarge { cap: 7, .. }));
    }

    #[test]
    fn quotient_sweep_folds_rotations_exactly() {
        let alg = CopyRing::new(5);
        let ix = SpaceIndexer::new(&alg, 1 << 20).unwrap();
        let spec = agreement();
        let opts = ExploreOptions::full().with_ring_quotient();
        let ts =
            TransitionSystem::explore_with(&alg, &ix, DaemonSpec::central(), &spec, &opts).unwrap();
        // 8 binary 5-necklaces; orbits tile the 32-configuration space.
        assert_eq!(ts.n_configs(), 8);
        assert_eq!(ts.represented_configs(), 32);
        assert_eq!(ts.quotient(), Quotient::RingRotation);
        // Representatives are canonical, ids ascend with full index.
        let canon = ts.canonicalizer().unwrap();
        let mut buf = CanonScratch::default();
        let mut prev = None;
        for id in 0..ts.n_configs() {
            let full = ts.full_index_of(id);
            assert_eq!(canon.canonical(full, &mut buf), full);
            assert!(prev < Some(full), "ids ascend with representative index");
            prev = Some(full);
            // Any orbit member resolves to the representative's id.
            assert_eq!(ts.id_of_full_index(full), Some(id));
        }
        // Per-row probability mass stays exactly stochastic after folding.
        for id in 0..ts.n_configs() {
            if ts.is_terminal(id) {
                continue;
            }
            let mass: f64 = ts.edges(id).unwrap().iter().map(|e| e.prob).sum();
            assert!((mass - 1.0).abs() < 1e-9, "row {id} mass {mass}");
        }
        // The two all-equal configurations are terminal representatives.
        assert_eq!(ts.legit_count(), 2);
    }

    #[test]
    fn oversized_state_cap_is_rejected_not_clamped() {
        let alg = CopyRing::new(4);
        let ix = SpaceIndexer::new(&alg, 1 << 20).unwrap();
        let spec = agreement();
        let seeds: Vec<_> = ix.iter().collect();
        let opts = ExploreOptions::reachable(seeds).with_max_states(u32::MAX as u64 + 1);
        let err = TransitionSystem::explore_with(&alg, &ix, DaemonSpec::central(), &spec, &opts)
            .unwrap_err();
        assert!(matches!(
            err,
            CoreError::StateCapExceedsIdWidth {
                requested,
                limit,
            } if requested == u32::MAX as u64 + 1 && limit == u32::MAX as u64
        ));
        // The id-width cap itself is fine.
        let seeds: Vec<_> = ix.iter().collect();
        let opts = ExploreOptions::reachable(seeds).with_max_states(u32::MAX as u64);
        assert!(
            TransitionSystem::explore_with(&alg, &ix, DaemonSpec::central(), &spec, &opts).is_ok()
        );
    }

    #[test]
    fn compressed_store_matches_flat_across_modes() {
        use super::super::edgestore::EdgeStoreKind;
        let alg = CopyRing::new(5);
        let ix = SpaceIndexer::new(&alg, 1 << 20).unwrap();
        let spec = agreement();
        let seeds: Vec<_> = ix.iter().collect();
        let mode_opts: Vec<ExploreOptions<bool>> = vec![
            ExploreOptions::full(),
            ExploreOptions::full().with_ring_quotient(),
            ExploreOptions::reachable(seeds.clone()),
            ExploreOptions::reachable(seeds).with_ring_quotient(),
        ];
        for daemon in DaemonSpec::LEGACY {
            for opts in &mode_opts {
                let flat = TransitionSystem::explore_with(&alg, &ix, daemon, &spec, opts).unwrap();
                for kind in [EdgeStoreKind::Compressed, EdgeStoreKind::Disk] {
                    let comp = TransitionSystem::explore_with(
                        &alg,
                        &ix,
                        daemon,
                        &spec,
                        &opts.clone().with_edge_store(kind),
                    )
                    .unwrap();
                    assert_eq!(comp.edge_store_kind(), kind);
                    assert_eq!(comp.n_configs(), flat.n_configs());
                    assert_eq!(comp.n_edges(), flat.n_edges());
                    assert_eq!(comp.legit(), flat.legit());
                    assert_eq!(comp.initial(), flat.initial());
                    for id in 0..flat.n_configs() {
                        assert_eq!(comp.full_index_of(id), flat.full_index_of(id));
                        assert_eq!(comp.enabled_mask(id), flat.enabled_mask(id));
                        assert_eq!(comp.edge_row_is_empty(id), flat.edge_row_is_empty(id));
                        let a: Vec<Edge> = flat.edge_iter(id).collect();
                        let b: Vec<Edge> = comp.edge_iter(id).collect();
                        assert_eq!(a, b, "row {id} under {daemon} with {:?}", opts.quotient);
                    }
                    // The reverse CSR decodes to the same predecessor
                    // lists.
                    let unlimited = crate::engine::Budget::unlimited();
                    assert_eq!(
                        comp.reverse_budgeted(&unlimited).unwrap(),
                        flat.reverse_budgeted(&unlimited).unwrap()
                    );
                    if kind == EdgeStoreKind::Compressed {
                        // The compressed tier actually compresses.
                        assert!(
                            comp.edge_bytes() < flat.edge_bytes(),
                            "{} vs {} bytes",
                            comp.edge_bytes(),
                            flat.edge_bytes()
                        );
                    }
                }
            }
        }
    }

    mod resilience {
        use super::*;
        use crate::engine::{Budget, EdgeStoreKind, FaultPlan, RunGuard};
        use std::path::PathBuf;
        use std::sync::atomic::{AtomicU64, Ordering};

        static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

        fn tmp_dir(tag: &str) -> PathBuf {
            let d = std::env::temp_dir().join(format!(
                "stab-explore-ckpt-{}-{}-{}",
                std::process::id(),
                tag,
                DIR_SEQ.fetch_add(1, Ordering::Relaxed)
            ));
            std::fs::create_dir_all(&d).unwrap();
            d
        }

        fn variants(ix: &SpaceIndexer<bool>) -> Vec<ExploreOptions<bool>> {
            let seeds: Vec<_> = ix.iter().collect();
            vec![
                ExploreOptions::full(),
                ExploreOptions::full().with_edge_store(EdgeStoreKind::Compressed),
                ExploreOptions::full().with_ring_quotient(),
                ExploreOptions::full()
                    .with_ring_quotient()
                    .with_edge_store(EdgeStoreKind::Compressed),
                ExploreOptions::full().with_edge_store(EdgeStoreKind::Disk),
                ExploreOptions::full()
                    .with_ring_quotient()
                    .with_edge_store(EdgeStoreKind::Disk),
                ExploreOptions::reachable(seeds.clone()),
                ExploreOptions::reachable(vec![seeds[1].clone()])
                    .with_edge_store(EdgeStoreKind::Compressed),
                ExploreOptions::reachable(seeds.clone()).with_edge_store(EdgeStoreKind::Disk),
                ExploreOptions::reachable(seeds).with_ring_quotient(),
            ]
        }

        #[test]
        fn checkpointed_runs_match_plain_runs_and_resume_bit_for_bit() {
            let alg = CopyRing::new(5);
            let ix = SpaceIndexer::new(&alg, 1 << 20).unwrap();
            let spec = agreement();
            for daemon in DaemonSpec::LEGACY {
                for opts in variants(&ix) {
                    let plain =
                        TransitionSystem::explore_with(&alg, &ix, daemon, &spec, &opts).unwrap();
                    let dir = tmp_dir("match");
                    let ck_opts = opts.with_checkpoint(&dir, 4);
                    let ck =
                        TransitionSystem::explore_with(&alg, &ix, daemon, &spec, &ck_opts).unwrap();
                    assert_eq!(
                        ck.content_digest(),
                        plain.content_digest(),
                        "checkpointing changed the system under {daemon}"
                    );
                    // Cold reconstruction from the frames alone.
                    let resumed = TransitionSystem::resume(&dir).unwrap();
                    assert_eq!(resumed.content_digest(), plain.content_digest());
                    // A re-run over the complete chain short-circuits to
                    // the same system (and must not re-explore).
                    let again =
                        TransitionSystem::explore_with(&alg, &ix, daemon, &spec, &ck_opts).unwrap();
                    assert_eq!(again.content_digest(), plain.content_digest());
                    std::fs::remove_dir_all(&dir).unwrap();
                }
            }
        }

        #[test]
        fn resume_after_any_kill_point_matches_the_uninterrupted_run() {
            let alg = CopyRing::new(5);
            let ix = SpaceIndexer::new(&alg, 1 << 20).unwrap();
            let spec = agreement();
            for opts in variants(&ix) {
                let plain =
                    TransitionSystem::explore_with(&alg, &ix, DaemonSpec::central(), &spec, &opts)
                        .unwrap();
                for kill in 1..=4u64 {
                    let dir = tmp_dir("kill");
                    let ck_opts = opts.clone().with_checkpoint(&dir, 2);
                    let guard = RunGuard::new(
                        Budget::unlimited(),
                        FaultPlan::none().with_kill_after_frames(kill),
                    );
                    let first = TransitionSystem::explore_guarded(
                        &alg,
                        &ix,
                        DaemonSpec::central(),
                        &spec,
                        &ck_opts,
                        &guard,
                    );
                    let digest = match first {
                        // Death injected after the kill-th durable frame:
                        // a plain re-run resumes from disk and finishes.
                        Err(CoreError::Interrupted { after_frames }) => {
                            assert_eq!(after_frames, kill);
                            TransitionSystem::explore_with(
                                &alg,
                                &ix,
                                DaemonSpec::central(),
                                &spec,
                                &ck_opts,
                            )
                            .unwrap()
                            .content_digest()
                        }
                        // The run wrote fewer frames than the kill point.
                        Ok(ts) => ts.content_digest(),
                        Err(e) => panic!("unexpected error: {e}"),
                    };
                    assert_eq!(
                        digest,
                        plain.content_digest(),
                        "kill after frame {kill} diverged"
                    );
                    std::fs::remove_dir_all(&dir).unwrap();
                }
            }
        }

        #[test]
        fn corrupted_tail_frame_falls_back_and_reexploration_heals_it() {
            let alg = CopyRing::new(5);
            let ix = SpaceIndexer::new(&alg, 1 << 20).unwrap();
            let spec = agreement();
            let plain = TransitionSystem::explore_with(
                &alg,
                &ix,
                DaemonSpec::central(),
                &spec,
                &ExploreOptions::full(),
            )
            .unwrap();
            let dir = tmp_dir("corrupt");
            let opts: ExploreOptions<bool> = ExploreOptions::full().with_checkpoint(&dir, 2);
            TransitionSystem::explore_with(&alg, &ix, DaemonSpec::central(), &spec, &opts).unwrap();
            let frames = crate::engine::resilience::list_frames(&dir);
            FaultPlan::flip_bit(frames.last().unwrap(), 123).unwrap();
            // The final frame is gone, so cold resume refuses...
            assert!(matches!(
                TransitionSystem::resume(&dir),
                Err(CoreError::CheckpointIncomplete { .. })
            ));
            // ...but re-exploring adopts the valid prefix and heals.
            let healed =
                TransitionSystem::explore_with(&alg, &ix, DaemonSpec::central(), &spec, &opts)
                    .unwrap();
            assert_eq!(healed.content_digest(), plain.content_digest());
            assert_eq!(
                TransitionSystem::resume(&dir).unwrap().content_digest(),
                plain.content_digest()
            );
            std::fs::remove_dir_all(&dir).unwrap();
        }

        #[test]
        fn exhausted_budgets_surface_as_typed_errors_not_panics() {
            let alg = CopyRing::new(5);
            let ix = SpaceIndexer::new(&alg, 1 << 20).unwrap();
            let spec = agreement();
            // State budget: the BFS probes per row.
            let seeds: Vec<_> = ix.iter().collect();
            let guard = RunGuard::new(Budget::unlimited().with_max_states(10), FaultPlan::none());
            let err = TransitionSystem::explore_guarded(
                &alg,
                &ix,
                DaemonSpec::central(),
                &spec,
                &ExploreOptions::reachable(seeds),
                &guard,
            )
            .unwrap_err();
            assert!(matches!(
                err,
                CoreError::BudgetExhausted {
                    stage: "explore",
                    resource: "states",
                    limit: 10,
                    ..
                }
            ));
            // An already-expired wall clock trips the first probe of any
            // traversal.
            for opts in variants(&ix) {
                let guard = RunGuard::new(
                    Budget::unlimited().with_wall_time(std::time::Duration::ZERO),
                    FaultPlan::none(),
                );
                let err = TransitionSystem::explore_guarded(
                    &alg,
                    &ix,
                    DaemonSpec::central(),
                    &spec,
                    &opts,
                    &guard,
                )
                .unwrap_err();
                assert!(matches!(
                    err,
                    CoreError::BudgetExhausted {
                        resource: "wall-time-ms",
                        ..
                    }
                ));
            }
        }
    }

    /// `content_digest` of every mode on `CopyRing(5)`, recorded before
    /// the three traversals became one driver: pins the explored systems
    /// bit for bit (ids, edge order, probability bits, labels) on every
    /// edge-store tier.
    #[test]
    fn golden_digests_pin_every_mode_on_every_tier() {
        use super::super::edgestore::EdgeStoreKind;
        let alg = CopyRing::new(5);
        let ix = SpaceIndexer::new(&alg, 1 << 20).unwrap();
        let spec = agreement();
        let seed = Configuration::from_vec(vec![true, false, true, false, false]);
        let modes: [ExploreOptions<bool>; 4] = [
            ExploreOptions::full(),
            ExploreOptions::full().with_ring_quotient(),
            ExploreOptions::reachable(vec![seed.clone()]),
            ExploreOptions::reachable(vec![seed]).with_ring_quotient(),
        ];
        let golden: [(DaemonSpec, [u64; 4]); 2] = [
            (
                DaemonSpec::central(),
                [
                    0xda98_07ed_7f7c_d316,
                    0xdd3f_b7dd_e209_3239,
                    0xe5e9_9007_b96d_a732,
                    0x8bc1_8108_a1c5_f041,
                ],
            ),
            (
                DaemonSpec::synchronous(),
                [
                    0x4c06_2b5c_864e_2ad3,
                    0x56ad_0beb_3d11_e212,
                    0x3ed8_0046_3ed3_2f5b,
                    0x58f8_825a_83a2_3c38,
                ],
            ),
        ];
        for (daemon, digests) in golden {
            for (opts, want) in modes.iter().zip(digests) {
                for kind in [
                    EdgeStoreKind::Flat,
                    EdgeStoreKind::Compressed,
                    EdgeStoreKind::Disk,
                ] {
                    let opts = opts.clone().with_edge_store(kind);
                    let ts =
                        TransitionSystem::explore_with(&alg, &ix, daemon, &spec, &opts).unwrap();
                    assert_eq!(
                        ts.content_digest(),
                        want,
                        "{daemon} {:?} {:?} on {kind:?}",
                        opts.mode,
                        opts.quotient
                    );
                }
            }
        }
    }

    /// One-bit star algorithm, symmetric under every leaf permutation:
    /// a leaf copies the hub when differing from it, and the hub flips
    /// when every leaf differs from it.
    struct CopyStar {
        g: Graph,
    }

    impl Algorithm for CopyStar {
        type State = bool;
        fn graph(&self) -> &Graph {
            &self.g
        }
        fn name(&self) -> String {
            "copy-star".into()
        }
        fn state_space(&self, _v: NodeId) -> Vec<bool> {
            vec![false, true]
        }
        fn enabled_actions<V: View<bool>>(&self, v: &V) -> ActionMask {
            let differ = (0..v.degree()).all(|p| v.neighbor(p.into()) != v.me());
            ActionMask::when(differ, ActionId::A1)
        }
        fn apply<V: View<bool>>(&self, v: &V, _a: ActionId) -> Outcomes<bool> {
            Outcomes::certain(!*v.me())
        }
    }

    /// `content_digest` of the fixed sweeps under the strategies beyond
    /// ring rotation — the ring-dihedral quotient of `CopyRing(5)` and
    /// the leaf-class automorphism quotient of a six-node `CopyStar` —
    /// recorded while pass 1 still resolved targets by canonicalization
    /// and hash lookup: pins the orbit-table id map bit for bit on every
    /// edge-store tier.
    #[test]
    fn golden_digests_pin_dihedral_and_automorphism_sweeps_on_every_tier() {
        use super::super::edgestore::EdgeStoreKind;
        let ring = CopyRing::new(5);
        let ring_ix = SpaceIndexer::new(&ring, 1 << 20).unwrap();
        let star = CopyStar {
            g: builders::star(6),
        };
        let star_ix = SpaceIndexer::new(&star, 1 << 20).unwrap();
        let spec = agreement();
        let golden: [(DaemonSpec, [u64; 2]); 2] = [
            (
                DaemonSpec::central(),
                [0xfc08_4ca6_bea3_bac3, 0x4ab5_0064_952c_7d7d],
            ),
            (
                DaemonSpec::synchronous(),
                [0x4ab5_46b8_84d1_45cc, 0x9786_a136_c61c_4e40],
            ),
        ];
        for (daemon, [ring_want, star_want]) in golden {
            for kind in [
                EdgeStoreKind::Flat,
                EdgeStoreKind::Compressed,
                EdgeStoreKind::Disk,
            ] {
                let dihedral = ExploreOptions::full()
                    .with_quotient(Quotient::RingDihedral)
                    .with_edge_store(kind);
                let ts = TransitionSystem::explore_with(&ring, &ring_ix, daemon, &spec, &dihedral)
                    .unwrap();
                assert_eq!(ts.content_digest(), ring_want, "ring {daemon} on {kind:?}");
                let automorphism = ExploreOptions::full()
                    .with_quotient(Quotient::Automorphism)
                    .with_edge_store(kind);
                let ts =
                    TransitionSystem::explore_with(&star, &star_ix, daemon, &spec, &automorphism)
                        .unwrap();
                assert_eq!(ts.group_order(), 120, "Sym(5) over the leaves");
                assert_eq!(ts.content_digest(), star_want, "star {daemon} on {kind:?}");
            }
        }
    }

    /// The multi-chunk parallel sweep and the sequential batched sweep
    /// build the same system. A budget that never trips activates the
    /// guard, which forces sequential batches; the plain run fans out
    /// whenever the host has more than one CPU (the full sweep has 8192
    /// rows, the quotient sweep 14602 representatives).
    #[test]
    fn parallel_sweep_matches_sequential_batches() {
        use crate::engine::{Budget, FaultPlan, RunGuard};
        let spec = agreement();
        for (n, opts) in [
            (13, ExploreOptions::full()),
            (18, ExploreOptions::full().with_ring_quotient()),
        ] {
            let alg = CopyRing::new(n);
            let ix = SpaceIndexer::new(&alg, 1 << 20).unwrap();
            for daemon in [DaemonSpec::central(), DaemonSpec::synchronous()] {
                let plain =
                    TransitionSystem::explore_with(&alg, &ix, daemon, &spec, &opts).unwrap();
                assert!(plain.n_configs() >= 8192);
                let guard = RunGuard::new(
                    Budget::unlimited().with_max_states(u64::MAX),
                    FaultPlan::none(),
                );
                assert!(guard.is_active());
                let batched =
                    TransitionSystem::explore_guarded(&alg, &ix, daemon, &spec, &opts, &guard)
                        .unwrap();
                assert_eq!(
                    batched.content_digest(),
                    plain.content_digest(),
                    "ring {n} under {daemon} with {:?}",
                    opts.quotient
                );
            }
        }
    }

    /// A dense sweep past the u32 id width is a typed error, raised before
    /// anything proportional to the space is allocated.
    #[test]
    fn dense_sweep_past_the_id_width_is_a_typed_error() {
        let alg = CopyRing::new(33);
        let ix = SpaceIndexer::new(&alg, 1 << 34).unwrap();
        let err = TransitionSystem::explore_with(
            &alg,
            &ix,
            DaemonSpec::central(),
            &agreement(),
            &ExploreOptions::full(),
        )
        .unwrap_err();
        assert!(matches!(
            err,
            CoreError::StateSpaceTooLarge { total, cap }
                if total == 1 << 33 && cap == u32::MAX as u64
        ));
    }

    #[test]
    fn reachable_quotient_composes() {
        let alg = CopyRing::new(6);
        let ix = SpaceIndexer::new(&alg, 1 << 20).unwrap();
        let spec = agreement();
        let seeds: Vec<_> = ix.iter().collect();
        let quotient_sweep = TransitionSystem::explore_with(
            &alg,
            &ix,
            DaemonSpec::central(),
            &spec,
            &ExploreOptions::full().with_ring_quotient(),
        )
        .unwrap();
        let reach_quotient = TransitionSystem::explore_with(
            &alg,
            &ix,
            DaemonSpec::central(),
            &spec,
            &ExploreOptions::reachable(seeds).with_ring_quotient(),
        )
        .unwrap();
        // Seeding everything makes the reachable quotient cover every
        // orbit: same representative set, possibly different id order.
        assert_eq!(reach_quotient.n_configs(), quotient_sweep.n_configs());
        assert_eq!(
            reach_quotient.represented_configs(),
            quotient_sweep.represented_configs()
        );
        let mut a: Vec<u64> = (0..reach_quotient.n_configs())
            .map(|id| reach_quotient.full_index_of(id))
            .collect();
        let b: Vec<u64> = (0..quotient_sweep.n_configs())
            .map(|id| quotient_sweep.full_index_of(id))
            .collect();
        a.sort_unstable();
        assert_eq!(a, b);
    }
}
