//! The shared transition engine: [`TransitionSystem`] and its queries.
//!
//! [`TransitionSystem::explore`] enumerates the full configuration space of
//! an algorithm under a daemon and materialises the labelled transition
//! graph that both the checker (`stab-checker`) and the Markov builder
//! (`stab-markov`) analyse; [`TransitionSystem::explore_with`] selects one
//! of three modes per run:
//!
//! * **full sweep** ([`ExploreOptions::full`]) — configuration ids equal
//!   mixed-radix indices over `0..total`;
//! * **full sweep over a symmetry quotient**
//!   ([`ExploreOptions::with_quotient`]: ring rotations, ring dihedral, or
//!   the topology-derived automorphism group — leaf permutations on stars
//!   and trees) — only the lexicographically-least orbit member gets an
//!   id, and parallel edges produced by the folding are merged with their
//!   probabilities summed. An equivariance/spec-invariance gate rejects
//!   algorithm–group combinations the quotient is unsound for
//!   ([`CoreError::QuotientUnsupported`]); options from
//!   [`Plan::options`](super::Plan::options) carry the plan's admission,
//!   so a planned run is not gated twice;
//! * **on-the-fly reachable-only BFS** ([`ExploreOptions::reachable`]) —
//!   only configurations reachable from the seeds get ids (discovery
//!   order), so the explored size is bounded by the reachable set, not
//!   the product space. Composes with any quotient.
//!
//! One driver (`traverse`) runs all three: the mode only picks its id map
//! (dense or interned), group (none or a [`GroupCanonicalizer`]) and
//! frontier (fixed or growing). The per-configuration successor
//! computation (outcome sharing, delta-encoding, Gray-code subset walks)
//! is `rowgen`'s. Every edge carries the uniform-randomized-scheduler
//! probability of Definition 6 (`1/#activations ×` the product of outcome
//! probabilities), so the Markov builder reads its `Q` rows straight off
//! the same structure the checker uses possibilistically.
//!
//! Downstream stages read the system forward only: the checker's verdict
//! stage and the chain's absorption check decide reachability over SCC
//! components, sinks first ([`Components::mark_reaching`]), so the
//! lazily built reverse CSR ([`TransitionSystem::reverse_budgeted`])
//! serves benchmarks alone. [`ExploredIds`] hands the id map to
//! consumers that outlive the system without copying it.
//!
//! [`Components::mark_reaching`]: super::Components::mark_reaching
//!
//! ```
//! use stab_core::engine::{ExploreOptions, TransitionSystem};
//! use stab_core::{
//!     ActionId, ActionMask, Algorithm, DaemonSpec, Outcomes, Predicate, SpaceIndexer, View,
//! };
//! use stab_graph::{builders, Graph, NodeId};
//!
//! /// One bit per ring node; a node flips when it differs from *some*
//! /// neighbour (anonymous and uniform, hence rotation-equivariant).
//! struct Flip { g: Graph }
//! impl Algorithm for Flip {
//!     type State = bool;
//!     fn graph(&self) -> &Graph { &self.g }
//!     fn name(&self) -> String { "flip".into() }
//!     fn state_space(&self, _v: NodeId) -> Vec<bool> { vec![false, true] }
//!     fn enabled_actions<V: View<bool>>(&self, v: &V) -> ActionMask {
//!         let differs = (0..v.degree()).any(|p| v.neighbor(p.into()) != v.me());
//!         ActionMask::when(differs, ActionId::A1)
//!     }
//!     fn apply<V: View<bool>>(&self, v: &V, _a: ActionId) -> Outcomes<bool> {
//!         Outcomes::certain(!*v.me())
//!     }
//! }
//!
//! let alg = Flip { g: builders::ring(5) };
//! let ix = SpaceIndexer::new(&alg, 1 << 20).unwrap();
//! let spec = Predicate::new("agreement", |c: &stab_core::Configuration<bool>| {
//!     c.states().iter().all(|&b| b) || c.states().iter().all(|&b| !b)
//! });
//!
//! // Full sweep: 2^5 = 32 configurations.
//! let full = TransitionSystem::explore(&alg, &ix, DaemonSpec::central(), &spec).unwrap();
//! assert_eq!(full.n_configs(), 32);
//!
//! // Rotation quotient: 8 binary necklaces represent all 32.
//! let opts = ExploreOptions::full().with_ring_quotient();
//! let central = DaemonSpec::central();
//! let quot = TransitionSystem::explore_with(&alg, &ix, central, &spec, &opts).unwrap();
//! assert_eq!(quot.n_configs(), 8);
//! assert_eq!(quot.represented_configs(), 32);
//! ```

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

use stab_graph::NodeId;

use crate::algorithm::Algorithm;
use crate::scheduler::{DaemonSpec, Distribution};
use crate::space::SpaceIndexer;
use crate::spec::Legitimacy;
use crate::CoreError;

use super::bitset::BitSet;
use super::csr::Csr;
use super::edgestore::{EdgeIter, EdgeStorage, EdgeStoreKind};
use super::equivariance::{self, Admission};
use super::ids;
use super::onthefly::{ExploreMode, ExploreOptions, Quotient, StateIds, TraversalMode};
use super::quotient::GroupCanonicalizer;
use super::resilience::{self, Budget, Fnv, RunGuard};
use super::traverse::{self, Frontier, IdMap};

/// Process-wide exploration counter, incremented once per
/// [`TransitionSystem::explore_with`] entry.
static EXPLORE_CALLS: AtomicU64 = AtomicU64::new(0);

/// Number of engine explorations performed by this process so far.
/// Exploration is the dominant cost of every pipeline, so pipelines that
/// promise to *share* one exploration across stages (the facade `Study`)
/// pin that promise by asserting this counter advanced exactly once per
/// run.
pub fn explore_count() -> u64 {
    EXPLORE_CALLS.load(Ordering::Relaxed)
}

/// One transition: activating the processes in `movers` (bit `i` =
/// process `Pi`) can lead to configuration `to`, and does so with
/// probability `prob` under the randomized scheduler (Definition 6).
///
/// In a quotient system `to` is the id of the successor's *orbit
/// representative*, and `prob` sums every concrete edge of the row that
/// folds onto the same `(to, movers)` pair, so row probabilities remain
/// exactly stochastic.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Edge {
    /// Successor configuration id.
    pub to: u32,
    /// Bitmask of activated processes.
    pub movers: u64,
    /// `P(activation) × P(outcome)` under the uniform randomized daemon.
    pub prob: f64,
}

/// The explored transition system of `(algorithm, daemon)`: flat CSR
/// edges, per-configuration enabled masks, bit-packed label sets, and the
/// id ↔ configuration mapping of the traversal that built it.
#[derive(Debug)]
pub struct TransitionSystem {
    forward: EdgeStorage,
    reverse: OnceLock<Csr<u32>>,
    /// Bitmask of enabled processes per configuration.
    enabled: Vec<u64>,
    legit: BitSet,
    initial: BitSet,
    deterministic: bool,
    /// id ↔ full-space-index mapping.
    ids: ExploredIds,
    /// Which group the ids quotient by.
    quotient: Quotient,
    traversal: TraversalMode,
}

/// Full-space index → explored id of one exploration, detached from its
/// edges: the id map (dense, or the exploration's own intern table,
/// shared rather than copied) and the quotient canonicalizer. Consumers
/// that outlive the system, such as the Markov chain, keep this handle
/// instead of building a second index.
#[derive(Debug, Clone)]
pub struct ExploredIds {
    states: StateIds,
    /// Present when the system is a symmetry quotient.
    canon: Option<GroupCanonicalizer>,
}

impl ExploredIds {
    /// The id of the configuration with full-space index `full`, if it
    /// was explored. In a quotient system, `full` is canonicalized first,
    /// so any member of an explored orbit resolves.
    pub fn id_of_full_index(&self, full: u64) -> Option<u32> {
        let full = match &self.canon {
            None => full,
            Some(c) => c.canonical_owned(full),
        };
        match &self.states {
            // lint: cast-ok(dense totals are capped at the u32 id width by Plan)
            StateIds::Dense { total } => (full < *total).then_some(full as u32),
            StateIds::Interned(table) => table.lookup(full),
        }
    }
}

impl TransitionSystem {
    /// Explores the full configuration space of `alg` under `daemon` (any
    /// [`DaemonSpec`] lattice point), labelling configurations with `spec`.
    /// `ix` must be the indexer of `alg`'s space. Equivalent to
    /// [`TransitionSystem::explore_with`] under [`ExploreOptions::full`].
    ///
    /// # Errors
    ///
    /// * [`CoreError::TooManyEnabled`] — subset-daemon enumeration past
    ///   [`DISTRIBUTED_ENUM_CAP`](crate::scheduler::DISTRIBUTED_ENUM_CAP)
    ///   simultaneously enabled processes;
    /// * [`CoreError::StateSpaceTooLarge`] — the space has more than
    ///   `u32::MAX` configurations (the id width).
    ///
    /// # Panics
    ///
    /// Panics if the network has more than 64 processes (bitmask
    /// encoding) or the space has more than `i64::MAX` configurations
    /// (delta encoding).
    pub fn explore<A, L>(
        alg: &A,
        ix: &SpaceIndexer<A::State>,
        daemon: DaemonSpec,
        spec: &L,
    ) -> Result<Self, CoreError>
    where
        A: Algorithm + Sync,
        A::State: Sync,
        L: Legitimacy<A::State> + Sync,
    {
        Self::explore_with(alg, ix, daemon, spec, &ExploreOptions::full())
    }

    /// Explores `alg` under `daemon` with an explicit traversal mode and
    /// optional ring-rotation quotient (see the module docs for the three
    /// traversals).
    ///
    /// # Errors
    ///
    /// * [`CoreError::TooManyEnabled`] — subset-daemon enumeration
    ///   past the cap;
    /// * [`CoreError::QuotientUnsupported`] — the requested group does not
    ///   apply to the topology (e.g. a ring quotient on a path), the state
    ///   alphabets break the symmetry, or the equivariance gate (skipped
    ///   when the options carry a plan's admission for this quotient,
    ///   daemon and space) finds the algorithm or the specification not
    ///   to respect the group
    ///   (e.g. Dijkstra's rooted ring under any ring quotient, or the
    ///   oriented token ring under a reflection quotient);
    /// * [`CoreError::StateSpaceTooLarge`] — a reachable-mode BFS interned
    ///   more states than [`ExploreOptions::max_states`], or the explored
    ///   states (the full space for the plain full sweep, the orbit
    ///   representatives for a quotient sweep) exceed the `u32::MAX` id
    ///   width;
    /// * [`CoreError::StateCapExceedsIdWidth`] — a reachable-mode
    ///   [`ExploreOptions::max_states`] above `u32::MAX`.
    ///
    /// # Panics
    ///
    /// Panics if the network has more than 64 processes (bitmask
    /// encoding) or the space has more than `i64::MAX` configurations
    /// (delta encoding).
    pub fn explore_with<A, L>(
        alg: &A,
        ix: &SpaceIndexer<A::State>,
        daemon: DaemonSpec,
        spec: &L,
        opts: &ExploreOptions<A::State>,
    ) -> Result<Self, CoreError>
    where
        A: Algorithm + Sync,
        A::State: Sync,
        L: Legitimacy<A::State> + Sync,
    {
        Self::explore_guarded(alg, ix, daemon, spec, opts, &RunGuard::default())
    }

    /// [`TransitionSystem::explore_with`] under a [`RunGuard`]: the
    /// guard's [`Budget`] is probed cooperatively at batch
    /// boundaries (exhaustion surfaces as
    /// [`CoreError::BudgetExhausted`] instead of an OOM kill), and its
    /// [`FaultPlan`](super::FaultPlan) injects deterministic kill-points
    /// after durable checkpoint frames
    /// ([`CoreError::Interrupted`]). Guarded runs traverse sequentially
    /// so every probe and frame sees a deterministic prefix.
    ///
    /// # Errors
    ///
    /// Those of [`TransitionSystem::explore_with`], plus
    /// [`CoreError::BudgetExhausted`] and [`CoreError::Interrupted`] from
    /// the guard and [`CoreError::CheckpointIo`] from a checkpoint
    /// directory.
    ///
    /// # Panics
    ///
    /// As [`TransitionSystem::explore_with`].
    pub fn explore_guarded<A, L>(
        alg: &A,
        ix: &SpaceIndexer<A::State>,
        daemon: DaemonSpec,
        spec: &L,
        opts: &ExploreOptions<A::State>,
        guard: &RunGuard,
    ) -> Result<Self, CoreError>
    where
        A: Algorithm + Sync,
        A::State: Sync,
        L: Legitimacy<A::State> + Sync,
    {
        EXPLORE_CALLS.fetch_add(1, Ordering::Relaxed);
        let n = alg.n();
        assert!(n <= 64, "bitmask encoding supports at most 64 processes");
        assert!(
            ix.total() <= i64::MAX as u64,
            "mixed-radix indices must fit in i64 for delta encoding"
        );
        let canon = if let Some(admitted) = opts.admission.covering(opts.quotient, daemon, ix) {
            // The plan's gate already decided this quotient for this run.
            Some(admitted)
        } else {
            equivariance::check_quotient_sound(alg, ix, daemon, spec, opts.quotient)?
                .map(Admission::into_canonicalizer)
        };
        let frontier = match &opts.mode {
            ExploreMode::Full => Frontier::Fixed,
            ExploreMode::Reachable { seeds } => Frontier::Growing(seeds),
        };
        let id_map = match (&frontier, &canon) {
            (Frontier::Fixed, None) => IdMap::Dense,
            _ => IdMap::Interned,
        };
        traverse::traverse(alg, ix, daemon, spec, opts, guard, id_map, canon, frontier)
    }

    /// Reconstructs the completed exploration checkpointed under `dir`
    /// (see [`ExploreOptions::with_checkpoint`]) — bit-identical to the
    /// system the original run returned, without re-running the
    /// algorithm.
    ///
    /// # Errors
    ///
    /// * [`CoreError::CheckpointIncomplete`] — the frame chain has no
    ///   final frame (the exploration never finished; re-run it with the
    ///   same checkpoint directory to continue);
    /// * [`CoreError::CheckpointIo`] — the directory is unreadable.
    ///
    /// A torn or corrupted frame simply ends the chain early (CRC32 and
    /// structural validation), which reads as an incomplete chain here —
    /// never as a wrong system.
    pub fn resume(dir: impl AsRef<std::path::Path>) -> Result<Self, CoreError> {
        resilience::resume_from_dir(dir.as_ref())
    }

    /// Assembles a system from its parts (the traversal driver and
    /// checkpoint replay).
    #[allow(clippy::too_many_arguments)]
    pub(super) fn assemble(
        forward: EdgeStorage,
        enabled: Vec<u64>,
        legit: BitSet,
        initial: BitSet,
        deterministic: bool,
        states: StateIds,
        canon: Option<GroupCanonicalizer>,
        quotient: Quotient,
        traversal: TraversalMode,
    ) -> Self {
        TransitionSystem {
            forward,
            reverse: OnceLock::new(),
            enabled,
            legit,
            initial,
            deterministic,
            ids: ExploredIds { states, canon },
            quotient,
            traversal,
        }
    }

    /// Assembles a transition system from raw parts with dense ids.
    /// Exposed for the differential test suites, which build reference
    /// systems through the seed enumeration path and compare analyses;
    /// production code goes through [`TransitionSystem::explore`].
    #[doc(hidden)]
    pub fn from_raw_parts(
        forward: Csr<Edge>,
        enabled: Vec<u64>,
        legit: BitSet,
        initial: BitSet,
        deterministic: bool,
    ) -> Self {
        assert_eq!(forward.n_rows(), enabled.len());
        assert_eq!(forward.n_rows(), legit.len());
        assert_eq!(forward.n_rows(), initial.len());
        let total = forward.n_rows() as u64;
        TransitionSystem {
            forward: EdgeStorage::Flat(forward),
            reverse: OnceLock::new(),
            enabled,
            legit,
            initial,
            deterministic,
            ids: ExploredIds {
                states: StateIds::Dense { total },
                canon: None,
            },
            quotient: Quotient::None,
            traversal: TraversalMode::Full,
        }
    }

    /// Number of explored configurations (orbit representatives in a
    /// quotient system; reached states in a reachable-mode system).
    #[inline]
    pub fn n_configs(&self) -> u32 {
        ids::id_u32(self.forward.n_rows(), "explored rows fit the u32 id width")
    }

    /// Total number of stored edges (u64 — representable past 2³² on the
    /// compressed store).
    #[inline]
    pub fn n_edges(&self) -> u64 {
        self.forward.n_edges()
    }

    /// Which edge-store tier holds the forward edges.
    #[inline]
    pub fn edge_store_kind(&self) -> EdgeStoreKind {
        self.forward.kind()
    }

    /// Heap bytes held by the forward edge store (offsets + edge data +
    /// side tables) — the quantity `BENCH_explore.json` reports as
    /// `edge_bytes`.
    #[inline]
    pub fn edge_bytes(&self) -> u64 {
        self.forward.edge_bytes()
    }

    /// How the system was traversed ([`TraversalMode::Full`] sweep or
    /// [`TraversalMode::Reachable`] BFS).
    #[inline]
    pub fn traversal(&self) -> TraversalMode {
        self.traversal
    }

    /// Which symmetry group the ids quotient by ([`Quotient::None`]
    /// outside quotient mode).
    #[inline]
    pub fn quotient(&self) -> Quotient {
        self.quotient
    }

    /// The order of the quotient group (1 outside quotient mode). Every
    /// orbit size divides it, so
    /// `represented_configs() <= n_configs() × group_order()`.
    #[inline]
    pub fn group_order(&self) -> u64 {
        self.ids.canon.as_ref().map_or(1, |c| c.group_order())
    }

    /// The quotient canonicalizer, when the system is a quotient.
    #[inline]
    pub fn canonicalizer(&self) -> Option<&GroupCanonicalizer> {
        self.ids.canon.as_ref()
    }

    /// The full-space mixed-radix index behind configuration id `id`.
    #[inline]
    pub fn full_index_of(&self, id: u32) -> u64 {
        match &self.ids.states {
            StateIds::Dense { .. } => id as u64,
            StateIds::Interned(table) => table.full_of(id),
        }
    }

    /// The id of the configuration with full-space index `full`, if it was
    /// explored. In a quotient system, `full` is canonicalized first, so
    /// any member of an explored orbit resolves.
    pub fn id_of_full_index(&self, full: u64) -> Option<u32> {
        self.ids.id_of_full_index(full)
    }

    /// A handle on the system's id map that outlives the system (see
    /// [`ExploredIds`]); cloning it shares the intern table.
    pub fn explored_ids(&self) -> ExploredIds {
        self.ids.clone()
    }

    /// The number of concrete configurations id `id` stands for: its
    /// group-orbit size in a quotient system, 1 otherwise.
    #[inline]
    pub fn orbit_size(&self, id: u32) -> u64 {
        match &self.ids.states {
            StateIds::Dense { .. } => 1,
            StateIds::Interned(table) => table.orbit(id),
        }
    }

    /// Total number of concrete configurations represented: the sum of
    /// orbit sizes (equals [`TransitionSystem::n_configs`] outside
    /// quotient mode).
    pub fn represented_configs(&self) -> u64 {
        match &self.ids.states {
            StateIds::Dense { .. } => self.n_configs() as u64,
            StateIds::Interned(table) => table.represented(),
        }
    }

    /// Outgoing edges of configuration `id`, sorted by `(to, movers)`, as
    /// a borrowed slice — **flat store only**.
    ///
    /// # Errors
    ///
    /// [`CoreError::FlatStoreRequired`] on a compressed store, whose rows
    /// exist only in decoded form; iterate
    /// [`TransitionSystem::edge_iter`] instead, which works on both
    /// tiers (every analysis in the checker does).
    #[inline]
    pub fn edges(&self, id: u32) -> Result<&[Edge], CoreError> {
        self.forward
            .try_row_slice(id as usize)
            .ok_or(CoreError::FlatStoreRequired {
                op: "TransitionSystem::edges",
            })
    }

    /// Zero-alloc cursor over the outgoing edges of `id`, in `(to,
    /// movers)` order — works on both store tiers.
    #[inline]
    pub fn edge_iter(&self, id: u32) -> EdgeIter<'_> {
        self.forward.row_iter(id as usize)
    }

    /// Whether configuration `id` stores no outgoing edges.
    #[inline]
    pub fn edge_row_is_empty(&self, id: u32) -> bool {
        self.forward.row_is_empty(id as usize)
    }

    /// The forward edge store itself (whichever tier the run selected).
    #[inline]
    pub fn edge_store(&self) -> &EdgeStorage {
        &self.forward
    }

    /// The reverse CSR: row `j` lists the predecessors of `j` (with
    /// multiplicity, ascending), built once on first use — streamed row
    /// by row on the non-flat tiers, never from a decoded flat copy. No
    /// analysis calls it any more: the verdict stage decides reach-to-`L`
    /// from its one SCC decomposition, sinks first, without a reverse
    /// graph. It stays for benchmarks that time the inversion.
    ///
    /// The build probes stage `"reverse"` with the full materialised
    /// size *before* allocating and again at block strides while
    /// filling, so a too-small byte budget surfaces as
    /// [`CoreError::BudgetExhausted`] before peak memory doubles.
    pub fn reverse_budgeted(&self, budget: &Budget) -> Result<&Csr<u32>, CoreError> {
        if let Some(r) = self.reverse.get() {
            return Ok(r);
        }
        let r = self.forward.invert_targets_budgeted(budget)?;
        Ok(self.reverse.get_or_init(|| r))
    }

    /// Resident-set bytes of the forward store (full footprint on the
    /// in-RAM tiers; offsets + probability table + pinned chunk cache
    /// on the disk tier) — the cache-pressure figure analyses feed
    /// their [`Budget`] probes.
    pub fn resident_edge_bytes(&self) -> u64 {
        self.forward.resident_bytes()
    }

    /// Bytes of the forward store spilled to chunk files — zero on the
    /// in-RAM tiers.
    pub fn spilled_edge_bytes(&self) -> u64 {
        self.forward.spilled_bytes()
    }

    /// High-water mark of [`TransitionSystem::resident_edge_bytes`]:
    /// the figure the out-of-core acceptance gate compares against the
    /// plan's byte budget.
    pub fn peak_resident_edge_bytes(&self) -> u64 {
        self.forward.peak_resident_bytes()
    }

    /// Bitmask of processes enabled in configuration `id`.
    #[inline]
    pub fn enabled_mask(&self, id: u32) -> u64 {
        self.enabled[id as usize]
    }

    /// Whether configuration `id` is terminal (no enabled process).
    #[inline]
    pub fn is_terminal(&self, id: u32) -> bool {
        self.enabled[id as usize] == 0
    }

    /// Whether configuration `id` is legitimate.
    #[inline]
    pub fn is_legit(&self, id: u32) -> bool {
        self.legit.get(id as usize)
    }

    /// Whether configuration `id` is an admissible initial configuration.
    /// In reachable mode, the initial set is exactly the designated seeds.
    #[inline]
    pub fn is_initial(&self, id: u32) -> bool {
        self.initial.get(id as usize)
    }

    /// The legitimate set.
    #[inline]
    pub fn legit(&self) -> &BitSet {
        &self.legit
    }

    /// The initial set.
    #[inline]
    pub fn initial(&self) -> &BitSet {
        &self.initial
    }

    /// Number of legitimate explored configurations (representatives in a
    /// quotient system — weigh by [`TransitionSystem::orbit_size`] for
    /// concrete counts).
    pub fn legit_count(&self) -> u64 {
        self.legit.count_ones()
    }

    /// Whether the algorithm was deterministic on every explored
    /// configuration (mutually exclusive guards and singleton outcomes).
    #[inline]
    pub fn deterministic(&self) -> bool {
        self.deterministic
    }

    /// FNV-1a digest over the system's entire observable content: every
    /// edge (including exact probability bits), enabled mask, label bit,
    /// id ↔ full-index mapping, orbit size, and the quotient/traversal
    /// identity. Two systems with equal digests are bit-identical for
    /// every analysis downstream — the resilience test campaigns pin
    /// "resume equals uninterrupted run" on this.
    pub fn content_digest(&self) -> u64 {
        let mut h = Fnv::new();
        h.write_u64(self.n_configs() as u64);
        h.write_u64(self.n_edges());
        for id in 0..self.n_configs() {
            h.write_u64(self.enabled[id as usize]);
            h.write_u64(self.full_index_of(id));
            h.write_u64(self.orbit_size(id));
            for e in self.edge_iter(id) {
                h.write_u64(e.to as u64);
                h.write_u64(e.movers);
                h.write_u64(e.prob.to_bits());
            }
        }
        for &w in self.legit.words() {
            h.write_u64(w);
        }
        for &w in self.initial.words() {
            h.write_u64(w);
        }
        h.write_u64(self.deterministic as u64);
        h.write(self.quotient.label().as_bytes());
        h.write_u64(self.group_order());
        h.write_u64(matches!(self.traversal, TraversalMode::Reachable) as u64);
        h.finish()
    }

    /// The forward-reachable closure of `seeds`.
    pub fn forward_closure(&self, seeds: &BitSet) -> BitSet {
        let mut seen = seeds.clone();
        let mut stack: Vec<u32> = seeds
            .ones()
            .map(|i| ids::id_u32(i, "seed ids fit the u32 id width"))
            .collect();
        while let Some(id) = stack.pop() {
            for e in self.edge_iter(id) {
                if !seen.get(e.to as usize) {
                    seen.insert(e.to as usize);
                    stack.push(e.to);
                }
            }
        }
        seen
    }
}

/// Bitmask of a node list.
pub fn node_mask(nodes: &[NodeId]) -> u64 {
    nodes.iter().fold(0u64, |m, v| m | (1u64 << v.index()))
}

/// Per-node adjacency bitmasks for the locally-central independence test.
pub(super) fn adjacency_masks<A: Algorithm>(alg: &A) -> Vec<u64> {
    let graph = alg.graph();
    (0..alg.n())
        .map(|v| node_mask(graph.neighbors(NodeId::new(v))))
        .collect()
}

/// Per-node conflict bitmasks for `daemon`'s pairwise-spread constraint:
/// `masks[v]` holds every node within the spec's locality radius of `v`
/// (excluding `v`). Radius 0 yields all-zero masks (no constraint — the
/// distributed point), radius 1 the adjacency masks (locally central),
/// larger radii a bounded BFS ball per node.
pub(super) fn conflict_masks<A: Algorithm>(alg: &A, daemon: DaemonSpec) -> Vec<u64> {
    let radius = match daemon.distribution {
        Distribution::KCentral { radius, .. } => radius,
        Distribution::Synchronous => 0,
    };
    match radius {
        0 => vec![0u64; alg.n()],
        1 => adjacency_masks(alg),
        r => {
            let graph = alg.graph();
            let n = alg.n();
            (0..n)
                .map(|v| {
                    let start = NodeId::new(v);
                    let mut dist = vec![u32::MAX; n];
                    dist[v] = 0;
                    let mut queue = std::collections::VecDeque::from([start]);
                    let mut mask = 0u64;
                    while let Some(u) = queue.pop_front() {
                        let d = dist[u.index()];
                        if d >= r {
                            continue;
                        }
                        for &w in graph.neighbors(u) {
                            if dist[w.index()] == u32::MAX {
                                dist[w.index()] = d + 1;
                                mask |= 1u64 << w.index();
                                queue.push_back(w);
                            }
                        }
                    }
                    mask
                })
                .collect()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithm::test_support::Infection;
    use crate::scheduler::DaemonSpec;
    use crate::{semantics, Predicate};
    use stab_graph::builders;

    fn infection_system(daemon: DaemonSpec) -> (Infection, SpaceIndexer<u8>, TransitionSystem) {
        let alg = Infection {
            g: builders::path(3),
        };
        let ix = SpaceIndexer::new(&alg, 1 << 20).unwrap();
        let spec = Predicate::new("all-ones", |c: &crate::Configuration<u8>| {
            c.states().iter().all(|&s| s == 1)
        });
        let ts = TransitionSystem::explore(&alg, &ix, daemon, &spec).unwrap();
        (alg, ix, ts)
    }

    #[test]
    fn engine_matches_reference_semantics_on_infection() {
        for daemon in DaemonSpec::LEGACY {
            let (alg, ix, ts) = infection_system(daemon);
            assert_eq!(ts.n_configs() as u64, ix.total());
            for idv in 0..ix.total() {
                let cfg = ix.decode(idv);
                // Reference: the seed's per-configuration enumeration.
                let mut expect: Vec<(u32, u64)> = Vec::new();
                for (act, dist) in semantics::all_steps(&alg, daemon, &cfg).unwrap() {
                    let movers = node_mask(act.nodes());
                    for (_, next) in dist {
                        // lint: cast-ok(tiny test space, ids stay below u32)
                        expect.push((ix.encode(&next) as u32, movers));
                    }
                }
                expect.sort_unstable();
                expect.dedup();
                let got: Vec<(u32, u64)> = ts
                    // lint: cast-ok(tiny test space, ids stay below u32)
                    .edges(idv as u32)
                    .unwrap()
                    .iter()
                    .map(|e| (e.to, e.movers))
                    .collect();
                assert_eq!(got, expect, "config {cfg:?} under {daemon}");
                assert_eq!(
                    // lint: cast-ok(tiny test space, ids stay below u32)
                    ts.enabled_mask(idv as u32),
                    node_mask(&alg.enabled_nodes(&cfg)),
                );
            }
        }
    }

    #[test]
    fn edge_probabilities_sum_to_one_per_nonterminal_config() {
        for daemon in DaemonSpec::LEGACY {
            let (_, _, ts) = infection_system(daemon);
            for id in 0..ts.n_configs() {
                if ts.is_terminal(id) {
                    assert!(ts.edges(id).unwrap().is_empty());
                    continue;
                }
                let mass: f64 = ts.edges(id).unwrap().iter().map(|e| e.prob).sum();
                assert!(
                    (mass - 1.0).abs() < 1e-9,
                    "config {id} mass {mass} under {daemon}"
                );
            }
        }
    }

    #[test]
    fn closures_and_labels_are_consistent() {
        let (_, ix, ts) = infection_system(DaemonSpec::central());
        // Legitimate: exactly the all-ones configuration.
        assert_eq!(ts.legit_count(), 1);
        assert!(ts.deterministic());
        let legit_id = ix.encode(&crate::Configuration::from_vec(vec![1, 1, 1]));
        // lint: cast-ok(tiny test space, ids stay below u32)
        assert!(ts.is_legit(legit_id as u32));
        // Everything is initial (I = C).
        assert!(ts.initial().is_full());
        // Forward closure from the all-zero configuration is itself.
        let dead = ix.encode(&crate::Configuration::from_vec(vec![0, 0, 0]));
        let mut seed = BitSet::new(ts.n_configs() as usize);
        seed.insert(dead as usize);
        assert_eq!(ts.forward_closure(&seed).count_ones(), 1);
    }

    #[test]
    fn dense_mapping_is_the_identity() {
        let (_, ix, ts) = infection_system(DaemonSpec::central());
        assert_eq!(ts.traversal(), TraversalMode::Full);
        assert_eq!(ts.quotient(), Quotient::None);
        assert!(ts.canonicalizer().is_none());
        assert_eq!(ts.represented_configs(), ix.total());
        for id in 0..ts.n_configs() {
            assert_eq!(ts.full_index_of(id), id as u64);
            assert_eq!(ts.id_of_full_index(id as u64), Some(id));
            assert_eq!(ts.orbit_size(id), 1);
        }
        assert_eq!(ts.id_of_full_index(ix.total()), None);
    }

    #[test]
    fn locally_central_respects_independence() {
        let (_, _, ts) = infection_system(DaemonSpec::locally_central());
        let g = builders::path(3);
        for id in 0..ts.n_configs() {
            for e in ts.edges(id).unwrap() {
                let nodes: Vec<NodeId> = (0..3)
                    .filter(|i| e.movers & (1 << i) != 0)
                    .map(NodeId::new)
                    .collect();
                for (i, &a) in nodes.iter().enumerate() {
                    for &b in &nodes[i + 1..] {
                        assert!(!g.are_adjacent(a, b), "dependent movers {:b}", e.movers);
                    }
                }
            }
        }
    }

    #[test]
    fn too_many_enabled_is_reported() {
        // 22 always-enabled processes under the distributed daemon.
        struct AllOn {
            g: stab_graph::Graph,
        }
        impl Algorithm for AllOn {
            type State = bool;
            fn graph(&self) -> &stab_graph::Graph {
                &self.g
            }
            fn name(&self) -> String {
                "all-on".into()
            }
            fn state_space(&self, _v: NodeId) -> Vec<bool> {
                vec![false, true]
            }
            fn enabled_actions<V: crate::View<bool>>(&self, _v: &V) -> crate::ActionMask {
                crate::ActionMask::single(crate::ActionId::A1)
            }
            fn apply<V: crate::View<bool>>(
                &self,
                v: &V,
                _a: crate::ActionId,
            ) -> crate::Outcomes<bool> {
                crate::Outcomes::certain(!*v.me())
            }
        }
        let alg = AllOn {
            g: builders::ring(22),
        };
        let ix = SpaceIndexer::new(&alg, 1 << 30).unwrap();
        let spec = Predicate::new("none", |_: &crate::Configuration<bool>| false);
        let err =
            TransitionSystem::explore(&alg, &ix, DaemonSpec::distributed(), &spec).unwrap_err();
        assert!(matches!(err, CoreError::TooManyEnabled { enabled: 22, .. }));
    }
}
