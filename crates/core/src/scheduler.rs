//! Schedulers (daemons): who moves at each step.
//!
//! A scheduler picks a non-empty subset of the enabled processes to execute
//! simultaneously (§2 of the paper). The paper states every separation
//! result *relative to a daemon*, and its four daemons are not isolated
//! constructions: they are points in the composable daemon lattice of the
//! Dubois–Tixeuil taxonomy. A [`DaemonSpec`] names a point of that lattice
//! as a (distribution × fairness × boundedness) triple:
//!
//! * **distribution** ([`Distribution`]) — which subsets of the enabled set
//!   may be activated in one step: *k-central* (at most `k` processes, no
//!   two within graph distance `radius` of each other) or *synchronous*
//!   (always the full enabled set);
//! * **fairness** ([`Fairness`]) — which infinite executions the daemon may
//!   produce: unfair (the paper's "proper" daemon), weakly fair, strongly
//!   fair, or Gouda-fair;
//! * **boundedness** ([`Boundedness`]) — how many steps a continuously
//!   enabled process may be overlooked before it must be activated. This is
//!   a constraint on *executions*, not on single steps, so it never changes
//!   a transition system; it participates in the refinement order and in
//!   reports.
//!
//! The four daemons of the self-stabilization literature used by the paper
//! are named lattice points:
//!
//! * [`DaemonSpec::central`] — exactly one enabled process per step
//!   (Dijkstra): `KCentral { k: Some(1), radius: 0 }`;
//! * [`DaemonSpec::distributed`] — any non-empty subset
//!   (Burns–Gouda–Miller): `KCentral { k: None, radius: 0 }`;
//! * [`DaemonSpec::synchronous`] — every enabled process, every step
//!   (Herman): [`Distribution::Synchronous`];
//! * [`DaemonSpec::locally_central`] — any non-empty subset containing no
//!   two neighbours: `KCentral { k: None, radius: 1 }`.
//!
//! [`DaemonSpec::LEGACY`] lists the four in that order, for sweep-style
//! experiments. The lattice property tests pin their enumeration and
//! seeded sampling bit for bit against an independent reference
//! implementation.
//!
//! Each lattice point exists in two forms: **enumerated**
//! ([`DaemonSpec::activations`]) for exhaustive model checking, and
//! **randomized** ([`DaemonSpec::sample`], or [`DaemonSpec::sample_into`]
//! into a caller's buffer) — the uniform choice of Definition 6
//! (Dasgupta–Ghosh–Xiao) that Theorem 7 proves equivalent to Gouda's
//! strong fairness.
//!
//! # Refinement
//!
//! [`DaemonSpec::refines`] is the lattice's partial order: `a.refines(b)`
//! holds when every execution daemon `a` can produce is also an execution
//! of daemon `b` (componentwise: `a`'s activation sets are contained in
//! `b`'s, `a`'s fairness is at least as strong, `a`'s bound at least as
//! tight). The checker uses it to propagate verdicts: a property holding
//! for *all* executions under `b` holds under every `a` refining `b`, and a
//! counterexample execution found under `a` disproves the property under
//! every `b` that `a` refines.
//!
//! ```
//! use stab_core::DaemonSpec;
//! // central ⊑ locally-central ⊑ distributed
//! assert!(DaemonSpec::central().refines(DaemonSpec::locally_central()));
//! assert!(DaemonSpec::locally_central().refines(DaemonSpec::distributed()));
//! assert!(!DaemonSpec::distributed().refines(DaemonSpec::central()));
//! // synchronous is a sub-daemon of distributed but incomparable to central
//! assert!(DaemonSpec::synchronous().refines(DaemonSpec::distributed()));
//! assert!(!DaemonSpec::synchronous().refines(DaemonSpec::central()));
//! assert!(!DaemonSpec::central().refines(DaemonSpec::synchronous()));
//! ```
//!
//! # Quotients on non-ring topologies
//!
//! Lattice points interact with the symmetry machinery exactly as the four
//! named daemons do: the per-run equivariance gate
//! (`engine::ExploreOptions` with a quotient) re-validates, per
//! `(algorithm, daemon)` pair, that the rows of the generated transition
//! system commute with each group generator. This matters for the grid
//! topology (`stab_graph::builders::grid`), whose automorphism group
//! (row/column flips, plus the transpose on square grids) is discovered by
//! `GroupCanonicalizer::automorphism`: a radius-constrained daemon is
//! distance-invariant and thus automorphism-compatible, so the gate admits
//! grid quotients for anonymous algorithms under every `KCentral` point,
//! and rejects them for algorithms that break the flip symmetry — the same
//! admit/reject behaviour the ring rotation gate shows on Herman vs
//! Dijkstra.

use std::fmt;

use rand::Rng;
use stab_graph::{Graph, NodeId};

use crate::error::CoreError;
use crate::fairness::{Fairness, FairnessSet};

/// Maximum number of enabled processes for which the distributed daemon's
/// `2^k − 1` activations are enumerated.
pub const DISTRIBUTED_ENUM_CAP: usize = 20;

/// A non-empty set of processes activated in one step, sorted ascending.
///
/// ```
/// use stab_core::Activation;
/// use stab_graph::NodeId;
/// let a = Activation::new(vec![NodeId::new(2), NodeId::new(0)]);
/// assert_eq!(a.len(), 2);
/// assert!(a.contains(NodeId::new(0)));
/// assert_eq!(format!("{a}"), "{P0,P2}");
/// ```
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Activation {
    nodes: Box<[NodeId]>,
}

impl Activation {
    /// Creates an activation from a set of nodes (sorted and deduplicated).
    ///
    /// # Panics
    ///
    /// Panics if `nodes` is empty: the paper's steps always activate at
    /// least one process.
    pub fn new(mut nodes: Vec<NodeId>) -> Self {
        assert!(
            !nodes.is_empty(),
            "an activation must contain at least one process"
        );
        nodes.sort_unstable();
        nodes.dedup();
        Activation {
            nodes: nodes.into_boxed_slice(),
        }
    }

    /// An activation of a single process (central daemon steps).
    pub fn singleton(node: NodeId) -> Self {
        Activation {
            nodes: vec![node].into_boxed_slice(),
        }
    }

    /// The activated processes in ascending order.
    #[inline]
    pub fn nodes(&self) -> &[NodeId] {
        &self.nodes
    }

    /// Number of activated processes.
    #[inline]
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Activations are never empty; provided for clippy-completeness.
    #[inline]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Whether `node` is activated.
    pub fn contains(&self, node: NodeId) -> bool {
        self.nodes.binary_search(&node).is_ok()
    }
}

impl fmt::Debug for Activation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

impl fmt::Display for Activation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, v) in self.nodes.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, "}}")
    }
}

/// Which subsets of the enabled set a daemon may activate in one step.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Distribution {
    /// At most `k` enabled processes move per step, no two of them within
    /// graph distance `radius` of each other.
    KCentral {
        /// Maximum activation size; `None` allows any non-empty subset.
        k: Option<u32>,
        /// Activated processes must be pairwise at graph distance
        /// `> radius`: `0` imposes nothing, `1` forbids activating two
        /// neighbours (the locally-central constraint), larger radii spread
        /// the activated set further apart.
        radius: u32,
    },
    /// Every enabled process moves, every step.
    Synchronous,
}

impl Distribution {
    /// Whether every activation set this distribution allows (on any graph
    /// and any enabled set) is also allowed by `other`.
    pub fn refines(self, other: Distribution) -> bool {
        match (self, other) {
            (Distribution::Synchronous, Distribution::Synchronous) => true,
            // The full enabled set is one of the unconstrained subsets, but
            // violates any size or spacing constraint in general.
            (Distribution::Synchronous, Distribution::KCentral { k, radius }) => {
                k.is_none() && radius == 0
            }
            (Distribution::KCentral { .. }, Distribution::Synchronous) => false,
            (
                Distribution::KCentral { k: k1, radius: r1 },
                Distribution::KCentral { k: k2, radius: r2 },
            ) => {
                let k1 = k1.map_or(u64::MAX, u64::from);
                let k2 = k2.map_or(u64::MAX, u64::from);
                // Singleton activations are trivially spread, so at k ≤ 1
                // the radius imposes nothing and any radius is refined.
                k1 <= k2 && (r1 >= r2 || k1 <= 1)
            }
        }
    }
}

/// How long the daemon may overlook a continuously enabled process.
///
/// Boundedness constrains *executions* (no process stays enabled for more
/// than `k` consecutive steps without being activated), not single steps,
/// so it never changes the transition system the engine builds; it
/// participates in [`DaemonSpec::refines`] and in reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Boundedness {
    /// No bound: a process may be overlooked forever (modulo fairness).
    Unbounded,
    /// A continuously enabled process is activated within `k` steps.
    EnabledBounded(u32),
}

impl Boundedness {
    /// Whether every `self`-bounded execution is also `other`-bounded.
    pub fn refines(self, other: Boundedness) -> bool {
        match (self, other) {
            (_, Boundedness::Unbounded) => true,
            (Boundedness::Unbounded, Boundedness::EnabledBounded(_)) => false,
            (Boundedness::EnabledBounded(a), Boundedness::EnabledBounded(b)) => a <= b,
        }
    }
}

/// A point of the daemon lattice: (distribution × fairness × boundedness).
///
/// The paper's four daemons are the named points [`DaemonSpec::central`],
/// [`DaemonSpec::distributed`], [`DaemonSpec::synchronous`] and
/// [`DaemonSpec::locally_central`], listed by [`DaemonSpec::LEGACY`]:
///
/// ```
/// use stab_core::DaemonSpec;
/// let names: Vec<String> = DaemonSpec::LEGACY.iter().map(DaemonSpec::name).collect();
/// assert_eq!(names, ["central", "distributed", "synchronous", "locally-central"]);
/// ```
///
/// Other points compose freely:
///
/// ```
/// use stab_core::{Boundedness, DaemonSpec, Distribution, Fairness};
/// let d = DaemonSpec {
///     distribution: Distribution::KCentral { k: Some(2), radius: 1 },
///     fairness: Fairness::WeaklyFair,
///     bound: Boundedness::EnabledBounded(3),
/// };
/// assert_eq!(d.name(), "2-central-r1+weakly-fair+b3");
/// assert!(d.refines(DaemonSpec::distributed()));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DaemonSpec {
    /// Which activation sets single steps may use.
    pub distribution: Distribution,
    /// Which infinite executions the daemon may produce.
    pub fairness: Fairness,
    /// How long a continuously enabled process may be overlooked.
    pub bound: Boundedness,
}

impl DaemonSpec {
    /// The paper's four daemons as lattice points: central, distributed,
    /// synchronous, locally-central.
    pub const LEGACY: [DaemonSpec; 4] = [
        DaemonSpec::central(),
        DaemonSpec::distributed(),
        DaemonSpec::synchronous(),
        DaemonSpec::locally_central(),
    ];

    /// Exactly one enabled process moves per step (Dijkstra).
    pub const fn central() -> Self {
        DaemonSpec {
            distribution: Distribution::KCentral {
                k: Some(1),
                radius: 0,
            },
            fairness: Fairness::Unfair,
            bound: Boundedness::Unbounded,
        }
    }

    /// Any non-empty subset of enabled processes moves per step
    /// (Burns–Gouda–Miller).
    pub const fn distributed() -> Self {
        DaemonSpec {
            distribution: Distribution::KCentral { k: None, radius: 0 },
            fairness: Fairness::Unfair,
            bound: Boundedness::Unbounded,
        }
    }

    /// Every enabled process moves, every step (Herman).
    pub const fn synchronous() -> Self {
        DaemonSpec {
            distribution: Distribution::Synchronous,
            fairness: Fairness::Unfair,
            bound: Boundedness::Unbounded,
        }
    }

    /// Any non-empty subset of pairwise non-adjacent enabled processes.
    pub const fn locally_central() -> Self {
        DaemonSpec {
            distribution: Distribution::KCentral { k: None, radius: 1 },
            fairness: Fairness::Unfair,
            bound: Boundedness::Unbounded,
        }
    }

    /// This point with a different fairness component.
    #[must_use]
    pub const fn with_fairness(mut self, fairness: Fairness) -> Self {
        self.fairness = fairness;
        self
    }

    /// This point with a different boundedness component.
    #[must_use]
    pub const fn with_bound(mut self, bound: Boundedness) -> Self {
        self.bound = bound;
        self
    }

    /// Stable name for tables, reports and run fingerprints:
    /// `<distribution>[+<fairness>][+b<bound>]`. The four named points
    /// read `"central"`, `"distributed"`, `"synchronous"` and
    /// `"locally-central"`.
    pub fn name(&self) -> String {
        let mut s = match self.distribution {
            Distribution::Synchronous => "synchronous".to_string(),
            Distribution::KCentral {
                k: Some(1),
                radius: _,
            } => "central".to_string(),
            Distribution::KCentral { k: None, radius: 0 } => "distributed".to_string(),
            Distribution::KCentral { k: None, radius: 1 } => "locally-central".to_string(),
            Distribution::KCentral { k: None, radius } => format!("distributed-r{radius}"),
            Distribution::KCentral {
                k: Some(k),
                radius: 0,
            } => format!("{k}-central"),
            Distribution::KCentral { k: Some(k), radius } => format!("{k}-central-r{radius}"),
        };
        if self.fairness != Fairness::Unfair {
            s.push('+');
            s.push_str(self.fairness.name());
        }
        if let Boundedness::EnabledBounded(b) = self.bound {
            s.push_str(&format!("+b{b}"));
        }
        s
    }

    /// The lattice refinement order: whether every execution this daemon
    /// can produce is also an execution of `other`.
    ///
    /// Componentwise: `self`'s activation sets are contained in `other`'s
    /// ([`Distribution::refines`]), `self`'s fairness is at least as strong
    /// ([`Fairness::refines`]) and `self`'s bound at least as tight
    /// ([`Boundedness::refines`]). A property quantified over all
    /// executions that holds under `other` therefore holds under `self`,
    /// and a counterexample under `self` disproves it under `other`.
    pub fn refines(&self, other: DaemonSpec) -> bool {
        self.distribution.refines(other.distribution)
            && self.fairness.refines(other.fairness)
            && self.bound.refines(other.bound)
    }

    /// The fairness assumptions at least as strong as this daemon's own:
    /// the set of self-stabilization verdicts meaningful under it. For the
    /// named points, all unfair, this is every assumption, which is the
    /// checker default.
    pub fn implied_verdicts(&self) -> FairnessSet {
        Fairness::ALL
            .into_iter()
            .filter(|f| f.refines(self.fairness))
            .collect()
    }

    /// Enumerates every activation this lattice point allows given the
    /// enabled set, in ascending subset-mask order.
    ///
    /// Returns an empty vector when `enabled` is empty (terminal
    /// configuration — no step exists).
    ///
    /// # Errors
    ///
    /// [`CoreError::TooManyEnabled`] if a subset-valued distribution would
    /// enumerate more than `2^DISTRIBUTED_ENUM_CAP` subsets.
    pub fn activations(
        &self,
        graph: &Graph,
        enabled: &[NodeId],
    ) -> Result<Vec<Activation>, CoreError> {
        if enabled.is_empty() {
            return Ok(Vec::new());
        }
        match self.distribution {
            Distribution::Synchronous => Ok(vec![Activation::new(enabled.to_vec())]),
            // k = 1: singletons trivially satisfy every spacing constraint,
            // and the direct path has no enumeration cap.
            Distribution::KCentral { k: Some(1), .. } => {
                Ok(enabled.iter().map(|&v| Activation::singleton(v)).collect())
            }
            Distribution::KCentral { k, radius } => subsets(enabled, |nodes| {
                k.is_none_or(|k| nodes.len() as u64 <= u64::from(k))
                    && is_spread(graph, nodes, radius)
            }),
        }
    }

    /// Samples an activation according to the randomized scheduler of
    /// Definition 6: [`DaemonSpec::sample_into`] collected into an
    /// [`Activation`].
    ///
    /// # Panics
    ///
    /// Panics if `enabled` is empty: terminal configurations have no steps.
    pub fn sample<R: Rng + ?Sized>(
        &self,
        graph: &Graph,
        enabled: &[NodeId],
        rng: &mut R,
    ) -> Activation {
        let mut nodes = Vec::new();
        self.sample_into(graph, enabled, rng, &mut nodes);
        Activation::new(nodes)
    }

    /// Samples an activation according to the randomized scheduler of
    /// Definition 6 into `out` (cleared first), in the order of `enabled`,
    /// so a caller that keeps `out` across steps samples without touching
    /// the heap.
    ///
    /// Central, distributed and synchronous sampling is exactly uniform
    /// even for thousands of enabled processes. Constrained points (`k`
    /// finite and above 1, or a positive radius) use rejection sampling
    /// with a singleton fallback after 64 failures; every allowed
    /// activation keeps strictly positive probability, which is all the
    /// probabilistic convergence arguments require. This is the only
    /// sampler, so [`DaemonSpec::sample`] draws the same stream.
    ///
    /// # Panics
    ///
    /// Panics if `enabled` is empty: terminal configurations have no steps.
    pub fn sample_into<R: Rng + ?Sized>(
        &self,
        graph: &Graph,
        enabled: &[NodeId],
        rng: &mut R,
        out: &mut Vec<NodeId>,
    ) {
        assert!(
            !enabled.is_empty(),
            "cannot schedule in a terminal configuration"
        );
        out.clear();
        let mut draw = |out: &mut Vec<NodeId>| {
            out.extend(enabled.iter().copied().filter(|_| rng.random::<bool>()));
        };
        match self.distribution {
            Distribution::Synchronous => out.extend_from_slice(enabled),
            Distribution::KCentral { k: Some(1), .. } => {
                out.push(enabled[rng.random_range(0..enabled.len())]);
            }
            Distribution::KCentral { k: None, radius: 0 } => {
                while out.is_empty() {
                    draw(out);
                }
            }
            Distribution::KCentral { k, radius } => {
                for _ in 0..64 {
                    draw(out);
                    if !out.is_empty()
                        && k.is_none_or(|k| out.len() as u64 <= u64::from(k))
                        && is_spread(graph, out, radius)
                    {
                        return;
                    }
                    out.clear();
                }
                out.push(enabled[rng.random_range(0..enabled.len())]);
            }
        }
    }
}

impl fmt::Display for DaemonSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.name())
    }
}

/// Enumerates the non-empty subsets of `enabled` passing `keep`, in
/// ascending mask order.
fn subsets(
    enabled: &[NodeId],
    keep: impl Fn(&[NodeId]) -> bool,
) -> Result<Vec<Activation>, CoreError> {
    let k = enabled.len();
    if k > DISTRIBUTED_ENUM_CAP {
        return Err(CoreError::TooManyEnabled {
            enabled: k,
            cap: DISTRIBUTED_ENUM_CAP,
        });
    }
    let mut out = Vec::with_capacity((1usize << k) - 1);
    for mask in 1u32..(1u32 << k) {
        let nodes: Vec<NodeId> = (0..k)
            .filter(|i| mask & (1 << i) != 0)
            .map(|i| enabled[i])
            .collect();
        if keep(&nodes) {
            out.push(Activation::new(nodes));
        }
    }
    Ok(out)
}

/// Whether no two of `nodes` are adjacent in `graph`.
fn is_independent(graph: &Graph, nodes: &[NodeId]) -> bool {
    for (i, &a) in nodes.iter().enumerate() {
        for &b in &nodes[i + 1..] {
            if graph.are_adjacent(a, b) {
                return false;
            }
        }
    }
    true
}

/// Whether all of `nodes` are pairwise at graph distance `> radius`.
///
/// `radius == 0` imposes nothing; `radius == 1` is exactly independence.
fn is_spread(graph: &Graph, nodes: &[NodeId], radius: u32) -> bool {
    match radius {
        0 => true,
        1 => is_independent(graph, nodes),
        _ => {
            for (i, &a) in nodes.iter().enumerate() {
                for &b in &nodes[i + 1..] {
                    if within_distance(graph, a, b, radius) {
                        return false;
                    }
                }
            }
            true
        }
    }
}

/// Whether `graph` has a path of length ≤ `radius` between `a` and `b`
/// (bounded BFS from `a`).
fn within_distance(graph: &Graph, a: NodeId, b: NodeId, radius: u32) -> bool {
    if a == b {
        return true;
    }
    let n = graph.n();
    let mut dist = vec![u32::MAX; n];
    dist[a.index()] = 0;
    let mut queue = std::collections::VecDeque::from([a]);
    while let Some(v) = queue.pop_front() {
        let d = dist[v.index()];
        if d >= radius {
            continue;
        }
        for &w in graph.neighbors(v) {
            if dist[w.index()] == u32::MAX {
                dist[w.index()] = d + 1;
                if w == b {
                    return true;
                }
                queue.push_back(w);
            }
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use stab_graph::builders;
    use std::collections::HashSet;

    fn nodes(ids: &[usize]) -> Vec<NodeId> {
        ids.iter().map(|&i| NodeId::new(i)).collect()
    }

    #[test]
    fn activation_sorts_and_dedups() {
        let a = Activation::new(nodes(&[3, 1, 3, 2]));
        assert_eq!(a.nodes(), &nodes(&[1, 2, 3])[..]);
        assert_eq!(a.len(), 3);
    }

    #[test]
    #[should_panic(expected = "at least one process")]
    fn empty_activation_rejected() {
        let _ = Activation::new(Vec::new());
    }

    #[test]
    fn central_daemon_enumerates_singletons() {
        let g = builders::path(4);
        let acts = DaemonSpec::central()
            .activations(&g, &nodes(&[0, 2]))
            .unwrap();
        assert_eq!(acts.len(), 2);
        assert!(acts.iter().all(|a| a.len() == 1));
    }

    #[test]
    fn synchronous_daemon_has_single_choice() {
        let g = builders::path(4);
        let acts = DaemonSpec::synchronous()
            .activations(&g, &nodes(&[0, 1, 3]))
            .unwrap();
        assert_eq!(acts.len(), 1);
        assert_eq!(acts[0].nodes(), &nodes(&[0, 1, 3])[..]);
    }

    #[test]
    fn distributed_daemon_enumerates_all_nonempty_subsets() {
        let g = builders::path(5);
        let acts = DaemonSpec::distributed()
            .activations(&g, &nodes(&[0, 1, 2]))
            .unwrap();
        assert_eq!(acts.len(), 7); // 2^3 - 1
        let unique: HashSet<_> = acts.iter().cloned().collect();
        assert_eq!(unique.len(), 7);
    }

    #[test]
    fn locally_central_excludes_adjacent_pairs() {
        let g = builders::path(3);
        // Nodes 0 and 1 are adjacent; 0 and 2 are not.
        let acts = DaemonSpec::locally_central()
            .activations(&g, &nodes(&[0, 1, 2]))
            .unwrap();
        // Allowed: {0}, {1}, {2}, {0,2}. Forbidden: {0,1}, {1,2}, {0,1,2}.
        assert_eq!(acts.len(), 4);
        assert!(acts.contains(&Activation::new(nodes(&[0, 2]))));
        assert!(!acts.contains(&Activation::new(nodes(&[0, 1]))));
    }

    #[test]
    fn empty_enabled_set_has_no_activations() {
        let g = builders::path(3);
        for d in DaemonSpec::LEGACY {
            assert!(d.activations(&g, &[]).unwrap().is_empty());
        }
    }

    #[test]
    fn distributed_enumeration_cap() {
        let g = builders::ring(30);
        let enabled: Vec<NodeId> = g.nodes().collect();
        let err = DaemonSpec::distributed()
            .activations(&g, &enabled)
            .unwrap_err();
        assert_eq!(
            err,
            CoreError::TooManyEnabled {
                enabled: 30,
                cap: DISTRIBUTED_ENUM_CAP
            }
        );
        // The central point enumerates singletons directly, with no cap.
        assert_eq!(
            DaemonSpec::central()
                .activations(&g, &enabled)
                .unwrap()
                .len(),
            30
        );
    }

    #[test]
    fn sampling_respects_daemon_shape() {
        let g = builders::ring(6);
        let enabled = nodes(&[0, 2, 4]);
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        for _ in 0..100 {
            let central = DaemonSpec::central().sample(&g, &enabled, &mut rng);
            assert_eq!(central.len(), 1);
            let sync = DaemonSpec::synchronous().sample(&g, &enabled, &mut rng);
            assert_eq!(sync.len(), 3);
            let d = DaemonSpec::distributed().sample(&g, &enabled, &mut rng);
            assert!(!d.nodes().is_empty() && d.len() <= 3);
            let lc = DaemonSpec::locally_central().sample(&g, &enabled, &mut rng);
            assert!(is_independent(&g, lc.nodes()));
        }
    }

    #[test]
    fn distributed_sampling_is_roughly_uniform() {
        // 3 enabled processes -> 7 subsets, each with probability 1/7.
        let g = builders::path(6);
        let enabled = nodes(&[0, 2, 4]);
        let mut rng = rand::rngs::StdRng::seed_from_u64(99);
        let mut counts: std::collections::HashMap<Activation, usize> = Default::default();
        let trials = 14_000;
        for _ in 0..trials {
            *counts
                .entry(DaemonSpec::distributed().sample(&g, &enabled, &mut rng))
                .or_default() += 1;
        }
        assert_eq!(counts.len(), 7);
        for (act, c) in &counts {
            let freq = *c as f64 / trials as f64;
            assert!(
                (freq - 1.0 / 7.0).abs() < 0.02,
                "activation {act} frequency {freq}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "terminal configuration")]
    fn sampling_empty_enabled_panics() {
        let g = builders::path(3);
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        let _ = DaemonSpec::central().sample(&g, &[], &mut rng);
    }

    #[test]
    fn daemon_names_are_stable() {
        // Report strings and run fingerprints depend on these names.
        assert_eq!(DaemonSpec::central().to_string(), "central");
        assert_eq!(DaemonSpec::distributed().to_string(), "distributed");
        assert_eq!(DaemonSpec::synchronous().to_string(), "synchronous");
        assert_eq!(DaemonSpec::locally_central().to_string(), "locally-central");
    }

    #[test]
    fn k_central_limits_activation_size() {
        let g = builders::ring(6);
        let enabled = nodes(&[0, 1, 2, 3]);
        let two_central = DaemonSpec {
            distribution: Distribution::KCentral {
                k: Some(2),
                radius: 0,
            },
            ..DaemonSpec::distributed()
        };
        let acts = two_central.activations(&g, &enabled).unwrap();
        // C(4,1) + C(4,2) = 4 + 6.
        assert_eq!(acts.len(), 10);
        assert!(acts.iter().all(|a| a.len() <= 2));
    }

    #[test]
    fn radius_two_spreads_beyond_adjacency() {
        // On an 8-ring, nodes 0 and 2 are at distance 2: allowed by the
        // locally-central constraint (radius 1), rejected at radius 2.
        let g = builders::ring(8);
        let enabled = nodes(&[0, 2, 4]);
        let r2 = DaemonSpec {
            distribution: Distribution::KCentral { k: None, radius: 2 },
            ..DaemonSpec::distributed()
        };
        let acts = r2.activations(&g, &enabled).unwrap();
        assert!(acts.contains(&Activation::new(nodes(&[0, 4]))));
        assert!(!acts.contains(&Activation::new(nodes(&[0, 2]))));
        let r1 = DaemonSpec::locally_central();
        assert!(r1
            .activations(&g, &enabled)
            .unwrap()
            .contains(&Activation::new(nodes(&[0, 2]))));
    }

    #[test]
    fn refinement_chain_of_named_points() {
        let c = DaemonSpec::central();
        let lc = DaemonSpec::locally_central();
        let d = DaemonSpec::distributed();
        let s = DaemonSpec::synchronous();
        assert!(c.refines(lc) && lc.refines(d) && c.refines(d));
        assert!(s.refines(d));
        assert!(!d.refines(c) && !d.refines(lc) && !d.refines(s));
        assert!(!s.refines(c) && !c.refines(s));
        for p in DaemonSpec::LEGACY {
            assert!(p.refines(p), "reflexive at {p}");
        }
    }

    #[test]
    fn fairness_and_bound_participate_in_refinement() {
        let d = DaemonSpec::distributed();
        let weakly = d.with_fairness(Fairness::WeaklyFair);
        assert!(weakly.refines(d));
        assert!(!d.refines(weakly));
        let b3 = d.with_bound(Boundedness::EnabledBounded(3));
        let b5 = d.with_bound(Boundedness::EnabledBounded(5));
        assert!(b3.refines(b5) && b5.refines(d));
        assert!(!d.refines(b5) && !b5.refines(b3));
    }

    #[test]
    fn implied_verdicts_follow_fairness() {
        assert_eq!(
            DaemonSpec::distributed().implied_verdicts(),
            FairnessSet::ALL
        );
        let weakly = DaemonSpec::distributed().with_fairness(Fairness::WeaklyFair);
        let set = weakly.implied_verdicts();
        assert!(!set.contains(Fairness::Unfair));
        assert!(set.contains(Fairness::WeaklyFair));
        assert!(set.contains(Fairness::StronglyFair));
        assert!(set.contains(Fairness::Gouda));
    }

    #[test]
    fn composed_names_are_stable() {
        let two = DaemonSpec {
            distribution: Distribution::KCentral {
                k: Some(2),
                radius: 0,
            },
            ..DaemonSpec::distributed()
        };
        assert_eq!(two.name(), "2-central");
        let spread = DaemonSpec {
            distribution: Distribution::KCentral { k: None, radius: 2 },
            ..DaemonSpec::distributed()
        };
        assert_eq!(spread.name(), "distributed-r2");
        let full = DaemonSpec {
            distribution: Distribution::KCentral {
                k: Some(3),
                radius: 1,
            },
            fairness: Fairness::StronglyFair,
            bound: Boundedness::EnabledBounded(7),
        };
        assert_eq!(full.name(), "3-central-r1+strongly-fair+b7");
        let sync_fair = DaemonSpec::synchronous().with_fairness(Fairness::WeaklyFair);
        assert_eq!(sync_fair.name(), "synchronous+weakly-fair");
    }
}
