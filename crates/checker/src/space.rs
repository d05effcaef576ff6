//! Exhaustive exploration of a finite system under a daemon: the labelled
//! transition graph the convergence analyses run on.
//!
//! The exploration itself lives in `stab_core::engine`
//! ([`TransitionSystem`]): an edge store of the planned tier, filled by
//! parallel delta-encoded enumeration and shared with the Markov builder.
//! [`ExploredSpace`] pairs that engine output with the [`SpaceIndexer`]
//! so checker code can still move between ids and configurations.
//!
//! [`ExploredSpace::explore`] sweeps the full configuration space
//! (`I = C` unless the algorithm restricts its initial set);
//! [`ExploredSpace::explore_with`] additionally supports on-the-fly
//! reachable-only BFS from a designated initial set and ring-rotation
//! quotienting ([`ExploreOptions`]). Every analysis in this crate (the
//! forward closure from the initial set, the one SCC decomposition and
//! everything read off it) operates on dense ids and forward edge rows
//! only, so it runs unchanged over quotient and reachable-mode systems
//! and over every edge-store tier; no analysis needs a reverse graph.

use stab_core::engine::{BitSet, EdgeIter, EdgeStorage, ExploreOptions, TransitionSystem};
use stab_core::{Algorithm, Configuration, CoreError, DaemonSpec, Legitimacy, SpaceIndexer};

/// One transition edge of the explored space; re-exported from the engine.
///
/// `to` is reachable in one step by activating the processes in the
/// `movers` bitmask (bit `i` = process `Pi`); `prob` is that edge's
/// probability under the uniform randomized scheduler of Definition 6
/// (ignored by the possibilistic analyses in this crate).
pub use stab_core::engine::Edge;

/// The fully explored transition system of `(algorithm, daemon)` with
/// legitimacy labels: the object all convergence analyses run on.
#[derive(Debug)]
pub struct ExploredSpace<S> {
    indexer: SpaceIndexer<S>,
    daemon: DaemonSpec,
    ts: TransitionSystem,
}

impl<S: stab_core::LocalState> ExploredSpace<S> {
    /// Explores the full configuration space of `alg` under `daemon`,
    /// labelling configurations with `spec`.
    ///
    /// # Errors
    ///
    /// Propagates [`CoreError::StateSpaceTooLarge`] (space bigger than
    /// `cap`) and [`CoreError::TooManyEnabled`] (distributed-daemon
    /// enumeration past 20 simultaneously enabled processes).
    ///
    /// # Panics
    ///
    /// Panics if the network has more than 64 processes (bitmask encoding);
    /// exhaustive checking far below that limit is already intractable.
    pub fn explore<A, L>(alg: &A, daemon: DaemonSpec, spec: &L, cap: u64) -> Result<Self, CoreError>
    where
        A: Algorithm<State = S> + Sync,
        L: Legitimacy<S> + Sync,
        S: Sync,
    {
        Self::explore_with(alg, daemon, spec, cap, &ExploreOptions::full())
    }

    /// Explores `alg` under `daemon` with an explicit traversal mode
    /// (full sweep or on-the-fly reachable BFS from designated seeds) and
    /// optional ring-rotation quotient — see
    /// [`stab_core::engine::ExploreOptions`]. All analyses run unchanged
    /// over the result; in a quotient space, verdict witnesses render
    /// orbit representatives.
    ///
    /// # Errors
    ///
    /// As [`ExploredSpace::explore`], plus
    /// [`CoreError::QuotientUnsupported`] when quotienting a non-ring
    /// system and [`CoreError::StateSpaceTooLarge`] when a reachable BFS
    /// exceeds its state cap.
    ///
    /// ```
    /// use stab_algorithms::HermanRing;
    /// use stab_checker::ExploredSpace;
    /// use stab_core::engine::ExploreOptions;
    /// use stab_core::DaemonSpec;
    /// use stab_graph::builders;
    ///
    /// let alg = HermanRing::on_ring(&builders::ring(7)).unwrap();
    /// let spec = alg.legitimacy();
    /// let opts = ExploreOptions::full().with_ring_quotient();
    /// let daemon = DaemonSpec::synchronous();
    /// let space = ExploredSpace::explore_with(&alg, daemon, &spec, 1 << 20, &opts).unwrap();
    /// // 20 binary 7-necklaces stand in for all 2^7 = 128 configurations.
    /// assert_eq!(space.total(), 20);
    /// assert_eq!(space.represented_configs(), 128);
    /// ```
    pub fn explore_with<A, L>(
        alg: &A,
        daemon: DaemonSpec,
        spec: &L,
        cap: u64,
        opts: &ExploreOptions<S>,
    ) -> Result<Self, CoreError>
    where
        A: Algorithm<State = S> + Sync,
        L: Legitimacy<S> + Sync,
        S: Sync,
    {
        let indexer = SpaceIndexer::new(alg, cap)?;
        let ts = TransitionSystem::explore_with(alg, &indexer, daemon, spec, opts)?;
        Ok(ExploredSpace {
            indexer,
            daemon,
            ts,
        })
    }

    /// Adopts an already-explored transition system together with the
    /// indexer of its full space. This is the sharing constructor of the
    /// facade's `Study` pipeline: one [`TransitionSystem::explore_with`]
    /// feeds the checker analyses through this wrapper *and* the Markov
    /// builder through `AbsorbingChain::from_transition_system`, instead
    /// of each stage re-exploring the same `(algorithm, daemon)` space.
    ///
    /// The system may be any traversal of the indexer's space (full,
    /// quotient, or reachable-only) — id ↔ configuration mapping goes
    /// through the system's own state table.
    pub fn from_transition_system(
        indexer: SpaceIndexer<S>,
        daemon: DaemonSpec,
        ts: TransitionSystem,
    ) -> Self {
        ExploredSpace {
            indexer,
            daemon,
            ts,
        }
    }

    /// Wraps an already-built transition system (differential tests build
    /// reference systems by independent means and compare analyses).
    #[doc(hidden)]
    pub fn from_parts(indexer: SpaceIndexer<S>, daemon: DaemonSpec, ts: TransitionSystem) -> Self {
        assert_eq!(
            indexer.total(),
            ts.n_configs() as u64,
            "indexer/system size mismatch"
        );
        Self::from_transition_system(indexer, daemon, ts)
    }

    /// The underlying engine output.
    pub fn transition_system(&self) -> &TransitionSystem {
        &self.ts
    }

    /// Number of configurations.
    pub fn total(&self) -> u32 {
        self.ts.n_configs()
    }

    /// The lattice point the space was explored under.
    pub fn daemon(&self) -> DaemonSpec {
        self.daemon
    }

    /// Whether the algorithm was deterministic on every configuration
    /// (mutually exclusive guards and singleton outcomes).
    pub fn deterministic(&self) -> bool {
        self.ts.deterministic()
    }

    /// Outgoing edges of configuration `id`, sorted by `(to, movers)`, as
    /// a borrowed slice — **flat edge store only**.
    ///
    /// # Errors
    ///
    /// [`CoreError::FlatStoreRequired`] when the space was explored onto
    /// the compressed edge store
    /// ([`stab_core::engine::EdgeStoreKind::Compressed`]), whose rows
    /// exist only in decoded form; iterate [`ExploredSpace::edge_iter`]
    /// instead, which every analysis in this crate does.
    #[inline]
    pub fn edges(&self, id: u32) -> Result<&[Edge], CoreError> {
        self.ts.edges(id)
    }

    /// Zero-alloc cursor over the outgoing edges of `id`, decoded in
    /// `(to, movers)` order — works on both edge-store tiers.
    #[inline]
    pub fn edge_iter(&self, id: u32) -> EdgeIter<'_> {
        self.ts.edge_iter(id)
    }

    /// The forward edge store of the whole space (whichever tier the run
    /// selected).
    pub fn edge_store(&self) -> &EdgeStorage {
        self.ts.edge_store()
    }

    /// Bitmask of processes enabled in configuration `id`.
    #[inline]
    pub fn enabled_mask(&self, id: u32) -> u64 {
        self.ts.enabled_mask(id)
    }

    /// Whether configuration `id` is legitimate.
    #[inline]
    pub fn is_legit(&self, id: u32) -> bool {
        self.ts.is_legit(id)
    }

    /// Whether configuration `id` is an admissible initial configuration.
    #[inline]
    pub fn is_initial(&self, id: u32) -> bool {
        self.ts.is_initial(id)
    }

    /// Whether configuration `id` is terminal (no enabled process).
    #[inline]
    pub fn is_terminal(&self, id: u32) -> bool {
        self.ts.is_terminal(id)
    }

    /// Number of legitimate configurations.
    pub fn legit_count(&self) -> u64 {
        self.ts.legit_count()
    }

    /// Decodes a configuration id for display (the orbit representative,
    /// in a quotient space).
    pub fn render(&self, id: u32) -> String {
        format!("{:?}", self.config(id))
    }

    /// Decodes a configuration id.
    pub fn config(&self, id: u32) -> Configuration<S> {
        self.indexer.decode(self.ts.full_index_of(id))
    }

    /// The id of `cfg` — in a quotient space, the id of its orbit
    /// representative.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` was not explored (possible in reachable mode); use
    /// [`ExploredSpace::try_id_of`] to probe.
    pub fn id_of(&self, cfg: &Configuration<S>) -> u32 {
        self.try_id_of(cfg)
            .unwrap_or_else(|| panic!("configuration {cfg:?} was not explored"))
    }

    /// The id of `cfg` (canonicalized in a quotient space), or `None` if
    /// it was not reached by the exploration.
    pub fn try_id_of(&self, cfg: &Configuration<S>) -> Option<u32> {
        self.ts.id_of_full_index(self.indexer.encode(cfg))
    }

    /// The number of concrete configurations behind id `id` (its rotation
    /// orbit size in a quotient space, 1 otherwise).
    pub fn orbit_size(&self, id: u32) -> u64 {
        self.ts.orbit_size(id)
    }

    /// Total concrete configurations represented by the explored ids.
    pub fn represented_configs(&self) -> u64 {
        self.ts.represented_configs()
    }

    /// Forward-reachable set from the initial configurations.
    pub fn reachable_from_initial(&self) -> BitSet {
        self.ts.forward_closure(self.ts.initial())
    }

    /// Resident-set bytes of the underlying edge store (the engine's
    /// [`TransitionSystem::resident_edge_bytes`]), which analyses feed
    /// their budget probes as the cache-pressure figure.
    ///
    /// [`TransitionSystem::resident_edge_bytes`]:
    /// stab_core::engine::TransitionSystem::resident_edge_bytes
    pub fn resident_edge_bytes(&self) -> u64 {
        self.ts.resident_edge_bytes()
    }

    /// A shortest edge path from some configuration satisfying `start` to
    /// some configuration satisfying `goal`, as a list of configuration ids
    /// (BFS). Used for counterexample stems.
    pub fn path(
        &self,
        start: impl Fn(u32) -> bool,
        goal: impl Fn(u32) -> bool,
    ) -> Option<Vec<u32>> {
        use std::collections::VecDeque;
        let mut parent: Vec<u32> = vec![u32::MAX; self.total() as usize];
        let mut queue = VecDeque::new();
        for id in 0..self.total() {
            if start(id) {
                parent[id as usize] = id;
                if goal(id) {
                    return Some(vec![id]);
                }
                queue.push_back(id);
            }
        }
        while let Some(id) = queue.pop_front() {
            for e in self.edge_iter(id) {
                if parent[e.to as usize] == u32::MAX {
                    parent[e.to as usize] = id;
                    if goal(e.to) {
                        let mut path = vec![e.to];
                        let mut cur = e.to;
                        while parent[cur as usize] != cur {
                            cur = parent[cur as usize];
                            path.push(cur);
                        }
                        path.reverse();
                        return Some(path);
                    }
                    queue.push_back(e.to);
                }
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stab_algorithms::{TokenCirculation, TwoProcessToggle};
    use stab_core::DaemonSpec;
    use stab_graph::builders;

    #[test]
    fn explores_two_process_toggle_under_distributed() {
        let a = TwoProcessToggle::new();
        let spec = a.legitimacy();
        let space = ExploredSpace::explore(&a, DaemonSpec::distributed(), &spec, 1 << 10).unwrap();
        assert_eq!(space.total(), 4);
        assert!(space.deterministic());
        assert_eq!(space.legit_count(), 1);
        // (T,T) is terminal; (F,F) has 3 activations.
        let tt = space.id_of(&stab_core::Configuration::from_vec(vec![true, true]));
        assert!(space.is_terminal(tt));
        let ff = space.id_of(&stab_core::Configuration::from_vec(vec![false, false]));
        assert_eq!(space.edges(ff).unwrap().len(), 3);
        assert_eq!(space.enabled_mask(ff), 0b11);
        // Each of the three activations is equiprobable under the
        // randomized scheduler.
        for e in space.edges(ff).unwrap() {
            assert!((e.prob - 1.0 / 3.0).abs() < 1e-12);
        }
    }

    #[test]
    fn synchronous_daemon_gives_single_edge_per_config() {
        let a = TwoProcessToggle::new();
        let spec = a.legitimacy();
        let space = ExploredSpace::explore(&a, DaemonSpec::synchronous(), &spec, 1 << 10).unwrap();
        for id in 0..space.total() {
            assert!(
                space.edges(id).unwrap().len() <= 1,
                "deterministic synchronous step"
            );
        }
    }

    #[test]
    fn reachability_sets_are_consistent() {
        let a = TokenCirculation::on_ring(&builders::ring(4)).unwrap();
        let spec = a.legitimacy();
        let space = ExploredSpace::explore(&a, DaemonSpec::central(), &spec, 1 << 20).unwrap();
        // I = C: everything is reachable.
        assert!(space.reachable_from_initial().is_full());
    }

    #[test]
    fn path_finds_short_convergence_route() {
        let a = TwoProcessToggle::new();
        let spec = a.legitimacy();
        let space = ExploredSpace::explore(&a, DaemonSpec::distributed(), &spec, 1 << 10).unwrap();
        let ff = space.id_of(&stab_core::Configuration::from_vec(vec![false, false]));
        let path = space
            .path(|id| id == ff, |id| space.is_legit(id))
            .expect("path to L exists");
        assert_eq!(path.len(), 2, "(F,F) -> (T,T) in one synchronous move");
    }

    #[test]
    fn render_shows_configuration() {
        let a = TwoProcessToggle::new();
        let spec = a.legitimacy();
        let space = ExploredSpace::explore(&a, DaemonSpec::central(), &spec, 1 << 10).unwrap();
        let id = space.id_of(&stab_core::Configuration::from_vec(vec![true, false]));
        assert_eq!(space.render(id), "⟨true, false⟩");
    }
}
