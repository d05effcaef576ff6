//! Building the absorbing Markov chain of a stabilizing system under a
//! randomized scheduler.
//!
//! The underlying exploration is the shared engine
//! (`stab_core::engine::TransitionSystem`): every edge already carries its
//! Definition 6 probability, so the `Q` rows are read straight off the
//! engine output instead of re-running the step semantics with a decode +
//! encode per successor. The chain resolves configurations to states
//! through the exploration's own id map (`ExploredIds`, which shares the
//! intern table rather than copying it), and the almost-sure-absorption
//! check is one sinks-first pass over `Q`'s strongly connected blocks,
//! by the same rule the checker uses for reach-to-`L`. The chain walks
//! `Q` for those blocks once and keeps them: they are also the
//! Gauss–Seidel solver's block order.
//!
//! [`AbsorbingChain::build_with`] accepts the engine's exploration options:
//! over a **symmetry quotient** (ring rotations, ring dihedral, or leaf
//! permutations on stars and trees), the chain runs on one representative
//! per group orbit with folded edges summing their probabilities, so
//! per-state hitting times, absorption probabilities and CDFs coincide
//! with the full space (orbit weights recover uniform-initial averages);
//! in **reachable mode**, the chain covers exactly the configurations
//! reachable from the designated initial set.

use std::sync::OnceLock;

use stab_core::engine::ids;
use stab_core::engine::{BitSet, Components, ExploreOptions, ExploredIds, TransitionSystem};
use stab_core::{Algorithm, Configuration, DaemonSpec, Legitimacy, LocalState, SpaceIndexer};

use crate::error::MarkovError;
use crate::linalg;
use crate::qstore::{QStorage, QStorageBuilder};

/// The flat sparse transient-to-transient matrix `Q` in CSR form: row `i`
/// holds `(j, Q_ij)` entries sorted by `j` (re-exported from
/// [`crate::qstore`]; the chain itself holds a tier-selected
/// [`QStorage`]).
pub use crate::qstore::QMatrix;

/// The absorbing chain: transient states are the illegitimate
/// configurations, the legitimate set `L` is lumped into one absorbing
/// state (sound because `L` is closed under the strong closure property).
///
/// Transition probabilities implement Definition 6: the scheduler draws an
/// activation *uniformly* among those the daemon allows, then the activated
/// processes' outcome distributions multiply.
#[derive(Debug)]
pub struct AbsorbingChain<S> {
    indexer: SpaceIndexer<S>,
    daemon: DaemonSpec,
    /// Transient-state index per *explored* configuration id
    /// (`u32::MAX` = legitimate).
    transient_of: Vec<u32>,
    /// Full-space mixed-radix index per transient index.
    full_of: Vec<u64>,
    /// Concrete configurations per transient state (rotation-orbit sizes
    /// in a quotient chain, all 1 otherwise).
    orbit_of: Vec<u64>,
    /// Full index → explored id: the exploration's own id map.
    ids: ExploredIds,
    /// Number of explored configurations (transient + legitimate).
    n_explored: u32,
    /// Concrete configurations represented by the explored ids.
    represented: u64,
    /// Sparse `Q` rows over transient indices, stored in the tier
    /// matching the exploration's edge store.
    q: QStorage,
    /// One-step absorption probability per transient state.
    absorb: Vec<f64>,
    /// Expected number of process activations in one step from each
    /// transient state (the *moves* reward of the quantitative study).
    step_moves: Vec<f64>,
    /// `Q`'s strongly connected blocks from its one walk, and whether every
    /// transient state reaches absorption with probability 1: `Ok(())` or
    /// the first offending transient index. Computed lazily on the first
    /// [`AbsorbingChain::almost_surely_absorbing`] call or Gauss–Seidel
    /// solve, whichever comes first; the other reuses it.
    absorbing: OnceLock<(Components, Result<(), u32>)>,
}

impl<S: LocalState> AbsorbingChain<S> {
    /// Builds the chain for `alg` under the randomized form of `daemon`,
    /// over the full configuration space.
    ///
    /// # Errors
    ///
    /// Propagates enumeration errors ([`MarkovError::Core`]).
    pub fn build<A, L>(alg: &A, daemon: DaemonSpec, spec: &L, cap: u64) -> Result<Self, MarkovError>
    where
        A: Algorithm<State = S> + Sync,
        L: Legitimacy<S> + Sync,
        S: Sync,
    {
        Self::build_with(alg, daemon, spec, cap, &ExploreOptions::full())
    }

    /// Builds the chain with an explicit traversal mode / quotient (see
    /// [`stab_core::engine::ExploreOptions`] and the module docs).
    ///
    /// # Errors
    ///
    /// Propagates enumeration errors ([`MarkovError::Core`]), including
    /// quotient validation failures.
    ///
    /// ```
    /// use stab_algorithms::HermanRing;
    /// use stab_core::engine::ExploreOptions;
    /// use stab_core::DaemonSpec;
    /// use stab_graph::builders;
    /// use stab_markov::AbsorbingChain;
    ///
    /// let alg = HermanRing::on_ring(&builders::ring(5)).unwrap();
    /// let spec = alg.legitimacy();
    /// let opts = ExploreOptions::full().with_ring_quotient();
    /// let daemon = DaemonSpec::synchronous();
    /// let quotient = AbsorbingChain::build_with(&alg, daemon, &spec, 1 << 20, &opts).unwrap();
    /// // The lumped chain is exactly stochastic and absorbs almost surely.
    /// assert!(quotient.validate_stochastic());
    /// assert!(quotient.almost_surely_absorbing().is_ok());
    /// // 8 necklaces represent all 32 configurations of the 5-ring.
    /// assert_eq!(quotient.n_explored(), 8);
    /// assert_eq!(quotient.represented_configs(), 32);
    /// ```
    pub fn build_with<A, L>(
        alg: &A,
        daemon: DaemonSpec,
        spec: &L,
        cap: u64,
        opts: &ExploreOptions<S>,
    ) -> Result<Self, MarkovError>
    where
        A: Algorithm<State = S> + Sync,
        L: Legitimacy<S> + Sync,
        S: Sync,
    {
        let indexer = SpaceIndexer::new(alg, cap)?;
        let ts = TransitionSystem::explore_with(alg, &indexer, daemon, spec, opts)?;
        Ok(Self::from_transition_system(indexer, daemon, &ts))
    }

    /// Builds the chain from an already-explored transition system — the
    /// sharing constructor of the facade's `Study` pipeline: the checker
    /// (via `ExploredSpace::from_transition_system`) and this chain read
    /// one exploration instead of each paying for their own. The system
    /// is only *borrowed*: the chain copies out its `Q` rows and keeps a
    /// shared handle on the id map ([`TransitionSystem::explored_ids`]),
    /// so the caller can hand the system on to the checker afterwards.
    pub fn from_transition_system(
        indexer: SpaceIndexer<S>,
        daemon: DaemonSpec,
        ts: &TransitionSystem,
    ) -> Self {
        let total = ts.n_configs();
        let mut transient_of = vec![u32::MAX; total as usize];
        let mut full_of = Vec::new();
        let mut orbit_of = Vec::new();
        for id in 0..total {
            if !ts.is_legit(id) {
                transient_of[id as usize] = ids::id_u32(full_of.len(), "transient ids fit u32");
                full_of.push(ts.full_index_of(id));
                orbit_of.push(ts.orbit_size(id));
            }
        }
        let n = full_of.len();
        // The Q store mirrors the exploration's edge-store tier, so a
        // compressed run keeps its memory profile through the chain.
        let mut builder = QStorageBuilder::new(ts.edge_store_kind());
        let mut absorb = Vec::with_capacity(n);
        let mut step_moves = Vec::with_capacity(n);
        let mut row: Vec<(u32, f64)> = Vec::new();
        for id in 0..total {
            if ts.is_legit(id) {
                continue;
            }
            if ts.edge_row_is_empty(id) {
                // Terminal illegitimate configuration: stays put forever.
                builder.push_row(&[(transient_of[id as usize], 1.0)]);
                absorb.push(0.0);
                step_moves.push(0.0);
                continue;
            }
            row.clear();
            let mut absorbed = 0.0;
            let mut moves = 0.0;
            for e in ts.edge_iter(id) {
                moves += e.prob * e.movers.count_ones() as f64;
                let t = transient_of[e.to as usize];
                if t == u32::MAX {
                    absorbed += e.prob;
                } else {
                    // Engine rows are sorted by successor, so equal
                    // targets (reached by different activations) are
                    // consecutive.
                    match row.last_mut() {
                        Some(last) if last.0 == t => last.1 += e.prob,
                        _ => row.push((t, e.prob)),
                    }
                }
            }
            builder.push_row(&row);
            absorb.push(absorbed);
            step_moves.push(moves);
        }
        let q = builder.finish();
        AbsorbingChain {
            indexer,
            daemon,
            transient_of,
            full_of,
            orbit_of,
            // The chain outlives the system (`build_with` drops it right
            // after this call), so it keeps a handle on the system's id
            // map, whose intern table is shared, not copied.
            ids: ts.explored_ids(),
            n_explored: total,
            represented: ts.represented_configs(),
            q,
            absorb,
            step_moves,
            absorbing: OnceLock::new(),
        }
    }

    /// Number of transient (illegitimate) states.
    pub fn n_transient(&self) -> usize {
        self.full_of.len()
    }

    /// Size of the *full* configuration space the indexer spans (not the
    /// explored count — see [`AbsorbingChain::n_explored`] and
    /// [`AbsorbingChain::represented_configs`], which differ from this in
    /// quotient and reachable modes).
    pub fn n_configs(&self) -> u64 {
        self.indexer.total()
    }

    /// Number of explored states (transient + legitimate): orbit
    /// representatives in a quotient chain, reached configurations in a
    /// reachable-mode chain.
    pub fn n_explored(&self) -> u32 {
        self.n_explored
    }

    /// Concrete configurations represented by the explored states (the sum
    /// of orbit sizes).
    pub fn represented_configs(&self) -> u64 {
        self.represented
    }

    /// Concrete configurations per transient state: rotation-orbit sizes
    /// in a quotient chain, all 1 otherwise. Use as weights when averaging
    /// per-state quantities over a uniformly random concrete
    /// configuration.
    pub fn transient_orbits(&self) -> &[u64] {
        &self.orbit_of
    }

    /// The lattice point the chain was built under.
    pub fn daemon(&self) -> DaemonSpec {
        self.daemon
    }

    /// The sparse `Q` store (transient-to-transient probabilities), in
    /// whichever tier the exploration selected. Iterate rows with
    /// [`QStorage::row_iter`]; the solvers take the concrete tier inside
    /// (through the [`crate::qstore::QRows`] trait).
    pub fn q(&self) -> &QStorage {
        &self.q
    }

    /// One-step absorption probabilities.
    pub fn absorb(&self) -> &[f64] {
        &self.absorb
    }

    /// Expected process activations per step, per transient state
    /// (the reward vector of [`AbsorbingChain::expected_moves`]).
    pub fn step_moves(&self) -> &[f64] {
        &self.step_moves
    }

    /// The explored id behind `cfg` (canonicalized in a quotient chain),
    /// or `None` when it was not reached (possible in reachable mode).
    fn explored_id(&self, cfg: &Configuration<S>) -> Option<u32> {
        self.ids.id_of_full_index(self.indexer.encode(cfg))
    }

    /// Whether `cfg` (canonicalized in a quotient chain) was explored.
    /// Always true outside reachable mode.
    pub fn is_explored(&self, cfg: &Configuration<S>) -> bool {
        self.explored_id(cfg).is_some()
    }

    /// The transient index of `cfg`, or `None` if it is legitimate or (in
    /// reachable mode) was not explored — disambiguate the two with
    /// [`AbsorbingChain::is_explored`]. In a quotient chain, `cfg` is
    /// canonicalized first, so any orbit member resolves to its
    /// representative's transient state.
    pub fn transient_index(&self, cfg: &Configuration<S>) -> Option<usize> {
        let id = self.explored_id(cfg)?;
        let t = self.transient_of[id as usize];
        (t != u32::MAX).then_some(t as usize)
    }

    /// Renders the configuration behind a transient index (the orbit
    /// representative, in a quotient chain).
    pub fn render(&self, transient: usize) -> String {
        format!("{:?}", self.indexer.decode(self.full_of[transient]))
    }

    /// Verifies row stochasticity: every transient row plus its absorption
    /// mass sums to 1 (within `1e-9`).
    pub fn validate_stochastic(&self) -> bool {
        (0..self.q.n_rows()).all(|i| {
            let total: f64 = self.q.row_iter(i).map(|(_, p)| p).sum::<f64>() + self.absorb[i];
            (total - 1.0).abs() < 1e-9
        })
    }

    /// Whether every transient state reaches absorption with probability 1
    /// (every stored edge has positive probability, so: whether every
    /// state reaches a row with absorbing mass) — the precondition for
    /// finite expected hitting times. Computed once, lazily; builds that
    /// never ask never pay for it.
    ///
    /// One pass over `Q`'s strongly connected blocks, sinks first, by the
    /// rule the checker's verdict stage uses for reach-to-`L`
    /// ([`Components::mark_reaching`]):
    /// a block reaches absorption iff one of its rows absorbs or steps
    /// into a block already known to. The absorbing state is node `n`,
    /// marked from the start, and a row with absorbing mass steps into
    /// it. These components are the Gauss–Seidel solver's block order:
    /// the chain walks `Q` once for both. No tier materialises the reverse
    /// of `Q`; the state is O(n) `u32`s and one bitset.
    pub fn almost_surely_absorbing(&self) -> Result<(), MarkovError> {
        let (_, absorbing) = self.decomposition();
        absorbing.map_err(|t| MarkovError::NotAbsorbing {
            config: self.render(t as usize),
        })
    }

    /// The chain's one walk of `Q` (the Gauss–Seidel block order) and the
    /// absorption check read off it.
    pub(crate) fn decomposition(&self) -> &(Components, Result<(), u32>) {
        self.absorbing.get_or_init(|| {
            let n = self.n_transient();
            let successors = |i: u32| self.q.row_iter(i as usize).map(|(j, _)| j);
            let blocks = linalg::blocks(n, successors);
            let mut can = BitSet::new(n + 1);
            can.insert(n);
            let absorbed = ids::id_u32(n, "transient ids fit u32");
            blocks.mark_reaching(
                |i| successors(i).chain((self.absorb[i as usize] > 0.0).then_some(absorbed)),
                &mut can,
            );
            let unabsorbed = (0..n).find(|&i| !can.get(i));
            // lint: cast-ok(row indices are bounded by the u32 id width)
            (blocks, unabsorbed.map_or(Ok(()), |t| Err(t as u32)))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stab_algorithms::{HermanRing, TokenCirculation, TwoProcessToggle};
    use stab_core::{DaemonSpec, ProjectedLegitimacy, Transformed};
    use stab_graph::builders;

    #[test]
    fn toggle_under_distributed_daemon() {
        let a = TwoProcessToggle::new();
        let chain =
            AbsorbingChain::build(&a, DaemonSpec::distributed(), &a.legitimacy(), 1 << 12).unwrap();
        assert_eq!(chain.n_configs(), 4);
        assert_eq!(chain.n_transient(), 3);
        assert!(chain.validate_stochastic());
        assert!(chain.almost_surely_absorbing().is_ok());
        // From (F,F): 3 equiprobable activations; only {P0,P1} absorbs.
        let ff = chain
            .transient_index(&Configuration::from_vec(vec![false, false]))
            .unwrap();
        assert!((chain.absorb()[ff] - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn toggle_under_central_daemon_is_not_absorbing() {
        let a = TwoProcessToggle::new();
        let chain =
            AbsorbingChain::build(&a, DaemonSpec::central(), &a.legitimacy(), 1 << 12).unwrap();
        assert!(matches!(
            chain.almost_surely_absorbing(),
            Err(MarkovError::NotAbsorbing { .. })
        ));
    }

    #[test]
    fn transformed_toggle_under_synchronous_is_absorbing() {
        let a = Transformed::new(TwoProcessToggle::new());
        let spec = ProjectedLegitimacy::new(TwoProcessToggle::new().legitimacy());
        let chain = AbsorbingChain::build(&a, DaemonSpec::synchronous(), &spec, 1 << 12).unwrap();
        // 16 coined configurations, 4 of which project to (T,T).
        assert_eq!(chain.n_configs(), 16);
        assert_eq!(chain.n_transient(), 12);
        assert!(chain.validate_stochastic());
        assert!(chain.almost_surely_absorbing().is_ok(), "Theorem 8");
    }

    #[test]
    fn herman_synchronous_chain() {
        let a = HermanRing::on_ring(&builders::ring(3)).unwrap();
        let chain =
            AbsorbingChain::build(&a, DaemonSpec::synchronous(), &a.legitimacy(), 1 << 12).unwrap();
        assert_eq!(chain.n_configs(), 8);
        // Legitimate: exactly one token = 6 configurations (3 positions × 2
        // bit patterns each); transient: the two uniform configurations.
        assert_eq!(chain.n_transient(), 2);
        assert!(chain.validate_stochastic());
        assert!(chain.almost_surely_absorbing().is_ok());
    }

    #[test]
    fn token_ring_under_central_daemon() {
        let a = TokenCirculation::on_ring(&builders::ring(4)).unwrap();
        let chain =
            AbsorbingChain::build(&a, DaemonSpec::central(), &a.legitimacy(), 1 << 20).unwrap();
        assert_eq!(chain.n_configs(), 81); // m=3, N=4
        assert!(chain.validate_stochastic());
        assert!(chain.almost_surely_absorbing().is_ok());
        // Legitimate configurations are not transient.
        let legit = a.legitimate_config(stab_graph::NodeId::new(0));
        assert!(chain.transient_index(&legit).is_none());
    }

    #[test]
    fn q_rows_are_sorted_and_positive() {
        let a = Transformed::new(TwoProcessToggle::new());
        let spec = ProjectedLegitimacy::new(TwoProcessToggle::new().legitimacy());
        let chain = AbsorbingChain::build(&a, DaemonSpec::distributed(), &spec, 1 << 12).unwrap();
        for i in 0..chain.q().n_rows() {
            let row = chain.q().row_vec(i);
            for w in row.windows(2) {
                assert!(w[0].0 < w[1].0, "strictly ascending column indices");
            }
            assert!(row.iter().all(|&(_, p)| p > 0.0));
        }
    }
}
