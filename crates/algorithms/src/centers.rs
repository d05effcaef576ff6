//! Self-stabilizing tree-center finding: the substrate of the paper's
//! `log N`-bit leader election (§3.2), in the style of
//! Bruell–Ghosh–Karaata–Pemmaraju (SIAM J. Comput. 29(2), 1999).
//!
//! Every process keeps one integer `h_p ∈ [0, ⌈(N−1)/2⌉]`. The target value
//! of `p` is
//!
//! ```text
//! target(p) = 0                                   if Δ_p ≤ 1
//!           = 1 + max2{ h_q : q ∈ Neig_p }         otherwise (clamped)
//! ```
//!
//! where `max2` is the *second largest* neighbour value (with multiplicity).
//! The single action rewrites `h_p` to its target. At the unique fixpoint,
//! `h` increases strictly along every path towards the centers, the centers
//! carry the maximum, and the local predicate
//!
//! ```text
//! Center(p) ≡ h_p ≥ h_q for every neighbour q
//! ```
//!
//! holds exactly at the tree's centers (validated exhaustively against the
//! BFS definition over every labelled tree with ≤ 8 nodes in this module's
//! tests — see also the checker crate for convergence verdicts).

use stab_core::{ActionId, ActionMask, Algorithm, Configuration, Legitimacy, Outcomes, View};
use stab_graph::{metrics, Graph, GraphError, NodeId, PortId};

/// The height bound `⌈(N−1)/2⌉`: no tree center value exceeds the radius.
pub fn height_bound(n: usize) -> u8 {
    u8::try_from(n.saturating_sub(1).div_ceil(2)).expect("trees this large are not enumerable")
}

/// Self-stabilizing center finding on an anonymous tree.
#[derive(Debug, Clone)]
pub struct CenterFinding {
    g: Graph,
    bound: u8,
}

impl CenterFinding {
    /// Instantiates center finding on a tree.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::NotATree`] if `g` is not a tree.
    pub fn on_tree(g: &Graph) -> Result<Self, GraphError> {
        if !g.is_tree() {
            return Err(GraphError::NotATree);
        }
        let bound = height_bound(g.n());
        Ok(CenterFinding {
            g: g.clone(),
            bound,
        })
    }

    /// The clamp bound on `h` values.
    pub fn bound(&self) -> u8 {
        self.bound
    }

    /// `target(p)` as seen from a view (pure function of the neighbourhood).
    pub fn target<V: View<u8>>(&self, view: &V) -> u8 {
        if view.degree() <= 1 {
            return 0;
        }
        let (mut max1, mut max2) = (0u8, 0u8);
        for i in 0..view.degree() {
            let h = *view.neighbor(PortId::new(i));
            if h >= max1 {
                max2 = max1;
                max1 = h;
            } else if h > max2 {
                max2 = h;
            }
        }
        (1 + max2).min(self.bound)
    }

    /// The local center predicate `Center(p)`: `h_p` dominates all
    /// neighbours. Meaningful at the fixpoint (terminal configuration).
    pub fn is_center<V: View<u8>>(&self, view: &V) -> bool {
        let me = *view.me();
        (0..view.degree()).all(|i| *view.neighbor(PortId::new(i)) <= me)
    }

    /// The processes satisfying `Center` in `cfg`.
    pub fn centers(&self, cfg: &Configuration<u8>) -> Vec<NodeId> {
        self.g
            .nodes()
            .filter(|&v| self.is_center(&self.view(cfg, v)))
            .collect()
    }

    /// The unique fixpoint configuration, computed by synchronous iteration
    /// from all-zero (converges in at most `N` rounds since targets
    /// propagate from the leaves inward). Used as ground truth by tests and
    /// the experiment harness.
    pub fn fixpoint(&self) -> Configuration<u8> {
        let mut cfg = Configuration::from_vec(vec![0u8; self.g.n()]);
        for _ in 0..=self.g.n() {
            let next = Configuration::from_vec(
                self.g
                    .nodes()
                    .map(|v| self.target(&self.view(&cfg, v)))
                    .collect(),
            );
            if next == cfg {
                return cfg;
            }
            cfg = next;
        }
        panic!("fixpoint iteration must converge within N rounds on a tree");
    }

    /// Legitimacy: the configuration is the fixpoint (equivalently terminal)
    /// and the `Center` predicate marks exactly the true graph centers.
    pub fn legitimacy(&self) -> CentersCorrect {
        CentersCorrect {
            alg: self.clone(),
            expected: metrics::tree_centers(&self.g),
        }
    }
}

impl Algorithm for CenterFinding {
    type State = u8;

    fn graph(&self) -> &Graph {
        &self.g
    }

    fn name(&self) -> String {
        format!("center-finding(N={})", self.g.n())
    }

    fn state_space(&self, _node: NodeId) -> Vec<u8> {
        (0..=self.bound).collect()
    }

    fn enabled_actions<V: View<u8>>(&self, view: &V) -> ActionMask {
        ActionMask::when(*view.me() != self.target(view), ActionId::A1)
    }

    fn apply<V: View<u8>>(&self, view: &V, _action: ActionId) -> Outcomes<u8> {
        Outcomes::certain(self.target(view))
    }
}

/// Legitimacy of center finding: fixpoint reached and `Center` = the true
/// centers of the tree.
#[derive(Debug, Clone)]
pub struct CentersCorrect {
    alg: CenterFinding,
    expected: Vec<NodeId>,
}

impl Legitimacy<u8> for CentersCorrect {
    fn name(&self) -> String {
        "centers-correct".into()
    }

    fn is_legitimate(&self, cfg: &Configuration<u8>) -> bool {
        self.alg.is_terminal(cfg) && self.alg.centers(cfg) == self.expected
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stab_core::{semantics, Activation, DaemonSpec};
    use stab_graph::{builders, trees};

    fn cf(g: &Graph) -> CenterFinding {
        CenterFinding::on_tree(g).unwrap()
    }

    #[test]
    fn rejects_non_trees() {
        assert!(CenterFinding::on_tree(&builders::ring(5)).is_err());
    }

    #[test]
    fn fixpoint_on_path5_is_pyramid() {
        let a = cf(&builders::path(5));
        assert_eq!(a.fixpoint().states(), &[0, 1, 2, 1, 0]);
    }

    #[test]
    fn fixpoint_on_star_peaks_at_hub() {
        let a = cf(&builders::star(6));
        assert_eq!(a.fixpoint().states(), &[1, 0, 0, 0, 0, 0]);
    }

    /// At the fixpoint the local `Center` predicate equals the true graph
    /// centers, on every labelled tree with up to 8 nodes (exhaustive, via
    /// Prüfer enumeration; ~300k trees across sizes).
    #[test]
    fn center_predicate_matches_bfs_centers_exhaustively() {
        for n in 1..=8usize {
            for g in trees::all_labelled_trees(n) {
                let a = cf(&g);
                let fix = a.fixpoint();
                assert!(a.is_terminal(&fix), "fixpoint must be terminal on {g:?}");
                assert_eq!(
                    a.centers(&fix),
                    metrics::tree_centers(&g),
                    "center mismatch on {g:?} with fixpoint {fix:?}"
                );
            }
        }
    }

    /// The h-values strictly increase along any path towards the nearest
    /// center — the structural fact the leader-election tie-breaker relies
    /// on (only the two centers can be an equal-h adjacent pair).
    #[test]
    fn equal_h_adjacent_pairs_are_exactly_the_center_pairs() {
        for n in 2..=8usize {
            for g in trees::all_labelled_trees(n) {
                let a = cf(&g);
                let fix = a.fixpoint();
                let centers = metrics::tree_centers(&g);
                for (u, v) in g.edges() {
                    let equal = fix.get(u) == fix.get(v);
                    let both_centers = centers.contains(&u) && centers.contains(&v);
                    assert_eq!(
                        equal, both_centers,
                        "edge {u}-{v} on {g:?}: fixpoint {fix:?}"
                    );
                }
            }
        }
    }

    /// Under the central daemon, center finding converges from arbitrary
    /// configurations: simulate every configuration of small trees with a
    /// greedy "first enabled" schedule and verify termination at the
    /// fixpoint.
    #[test]
    fn converges_under_sequential_schedules() {
        for g in [
            builders::path(4),
            builders::star(5),
            builders::binary_tree(6),
        ] {
            let a = cf(&g);
            let fix = a.fixpoint();
            let ix = stab_core::SpaceIndexer::new(&a, 1 << 22).unwrap();
            for cfg0 in ix.iter() {
                let mut cfg = cfg0.clone();
                let mut moves = 0usize;
                while let Some(&v) = a.enabled_nodes(&cfg).first() {
                    cfg = semantics::deterministic_successor(&a, &cfg, &Activation::singleton(v));
                    moves += 1;
                    assert!(
                        moves <= 4 * ix.total() as usize,
                        "no convergence from {cfg0:?} on {g:?}"
                    );
                }
                assert_eq!(cfg, fix, "wrong terminal from {cfg0:?} on {g:?}");
            }
        }
    }

    #[test]
    fn legitimacy_is_fixpoint_with_correct_centers() {
        let g = builders::path(6);
        let a = cf(&g);
        let spec = a.legitimacy();
        assert!(spec.is_legitimate(&a.fixpoint()));
        assert!(!spec.is_legitimate(&Configuration::from_vec(vec![0u8; 6])));
    }

    #[test]
    fn bound_clamps_targets() {
        let a = cf(&builders::path(4));
        assert_eq!(a.bound(), 2);
        // All values at the bound: targets stay within domain.
        let cfg = Configuration::from_vec(vec![2u8; 4]);
        for v in a.graph().nodes() {
            assert!(a.target(&a.view(&cfg, v)) <= a.bound());
        }
    }

    #[test]
    fn daemon_steps_preserve_state_space() {
        let a = cf(&builders::binary_tree(5));
        let ix = stab_core::SpaceIndexer::new(&a, 1 << 22).unwrap();
        for idx in (0..ix.total()).step_by(11) {
            let cfg = ix.decode(idx);
            for (_, dist) in semantics::all_steps(&a, DaemonSpec::distributed(), &cfg).unwrap() {
                for (_, next) in dist {
                    // encode() panics if any state leaves the declared space.
                    let _ = ix.encode(&next);
                }
            }
        }
    }

    #[test]
    fn single_node_tree_is_its_own_center() {
        let a = cf(&builders::path(1));
        let fix = a.fixpoint();
        assert_eq!(fix.states(), &[0]);
        assert_eq!(a.centers(&fix), vec![NodeId::new(0)]);
        assert!(a.legitimacy().is_legitimate(&fix));
    }
}
