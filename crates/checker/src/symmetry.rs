//! Symmetry machinery for Theorem 3: graph automorphisms, equivariance of
//! deterministic algorithms, and closure of symmetric configuration sets
//! under synchronous steps.
//!
//! The paper's Theorem 3 argument: on the 4-chain, the set
//! `X = {⟨a,b,b,a⟩}` of mirror-symmetric configurations is closed under
//! synchronous steps of *any* deterministic anonymous algorithm, and no
//! configuration of `X` distinguishes a leader — hence no deterministic
//! self-stabilizing leader election exists under the distributed (strongly
//! fair) scheduler. This module machine-checks each ingredient for concrete
//! algorithms: anonymity is *checked* (equivariance), not assumed. The
//! check is the engine's one local-equivariance routine
//! ([`stab_core::engine::locally_equivariant`], which the quotient gate
//! also runs): exhaustive over every node's closed-neighbourhood views,
//! with the automorphism's state map (e.g. [`state_maps::parent_port`]).

use stab_core::engine::{locally_equivariant, ConfigCursor};
use stab_core::{semantics, Algorithm, Configuration, CoreError, Legitimacy, SpaceIndexer};
use stab_graph::trees::leaf_classes;
use stab_graph::{Graph, NodeId, PortId, RingRotations};

/// A graph automorphism: a node permutation preserving adjacency (and hence
/// inducing a port mapping at every node).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Automorphism {
    perm: Vec<NodeId>,
}

impl Automorphism {
    /// Wraps a permutation after validating it is an automorphism of `g`.
    ///
    /// Returns `None` if `perm` has the wrong size, is not a permutation,
    /// or does not preserve adjacency.
    pub fn new(g: &Graph, perm: Vec<NodeId>) -> Option<Self> {
        if perm.len() != g.n() {
            return None;
        }
        let mut seen = vec![false; g.n()];
        for &v in &perm {
            if v.index() >= g.n() || seen[v.index()] {
                return None;
            }
            seen[v.index()] = true;
        }
        for (u, v) in g.edges() {
            if !g.are_adjacent(perm[u.index()], perm[v.index()]) {
                return None;
            }
        }
        Some(Automorphism { perm })
    }

    /// All automorphisms of `g`, via topology-aware construction where the
    /// shape is recognised and brute-force permutation search otherwise:
    ///
    /// * **rings** — the dihedral group `D_N` (`2N` elements) is built
    ///   directly from the rotation/reflection generators in O(N²) total,
    ///   so arbitrary ring sizes work (the old factorial search panicked
    ///   at `N ≥ 10`);
    /// * **stars** (one hub, all other nodes pendant) — the `k!` leaf
    ///   permutations are enumerated directly over the `k` leaves instead
    ///   of searching `(k+1)!` node orders;
    /// * anything else — brute-force search, still capped at 9 nodes.
    ///
    /// # Errors
    ///
    /// [`CoreError::SymmetryGroupTooLarge`] when the group itself is
    /// impractically large (a star with more than 9 leaves) or an
    /// unrecognised topology has more than 9 nodes (this used to panic).
    pub fn all(g: &Graph) -> Result<Vec<Automorphism>, CoreError> {
        const CAP: usize = 9;
        if let Ok(rot) = RingRotations::of(g) {
            let n = g.n();
            let refl = rot.reflection();
            let mut out = Vec::with_capacity(2 * n);
            for k in 0..n {
                let r = rot.permutation(k);
                let composed: Vec<NodeId> = (0..n).map(|v| r[refl[v].index()]).collect();
                out.push(Automorphism { perm: r });
                out.push(Automorphism { perm: composed });
            }
            debug_assert!(out
                .iter()
                .all(|a| Automorphism::new(g, a.perm.clone()).is_some()));
            return Ok(out);
        }
        if let Some((_, leaves)) = star_shape(g) {
            if leaves.len() > CAP {
                return Err(CoreError::SymmetryGroupTooLarge {
                    size: leaves.len(),
                    cap: CAP,
                });
            }
            let mut out = Vec::new();
            let mut arrangement = leaves.clone();
            permute(&mut arrangement, 0, &mut |p| {
                let mut perm: Vec<NodeId> = g.nodes().collect();
                for (i, &img) in p.iter().enumerate() {
                    perm[leaves[i].index()] = img;
                }
                out.push(Automorphism { perm });
            });
            debug_assert!(out
                .iter()
                .all(|a| Automorphism::new(g, a.perm.clone()).is_some()));
            return Ok(out);
        }
        if g.n() > CAP {
            return Err(CoreError::SymmetryGroupTooLarge {
                size: g.n(),
                cap: CAP,
            });
        }
        let mut out = Vec::new();
        let mut perm: Vec<NodeId> = g.nodes().collect();
        permute(&mut perm, 0, &mut |p| {
            if let Some(a) = Automorphism::new(g, p.to_vec()) {
                out.push(a);
            }
        });
        Ok(out)
    }

    /// The image of a node.
    pub fn node_image(&self, v: NodeId) -> NodeId {
        self.perm[v.index()]
    }

    /// The induced port mapping: port `i` of `v` (leading to neighbour `q`)
    /// maps to the port of `π(v)` leading to `π(q)`.
    pub fn port_image(&self, g: &Graph, v: NodeId, port: PortId) -> PortId {
        let q = g.neighbor(v, port);
        g.port_of(self.node_image(v), self.node_image(q))
            .expect("automorphisms preserve adjacency")
    }

    /// Whether the automorphism is the identity.
    pub fn is_identity(&self) -> bool {
        self.perm.iter().enumerate().all(|(i, v)| v.index() == i)
    }

    /// Whether it is an involution (`π² = id`).
    pub fn is_involution(&self) -> bool {
        self.perm
            .iter()
            .enumerate()
            .all(|(i, v)| self.perm[v.index()].index() == i)
    }

    /// Whether some node is fixed (`π(v) = v`). Leader election in a
    /// fixed-point-free symmetric configuration is impossible: the leader
    /// would have to be its own mirror image.
    pub fn has_fixed_point(&self) -> bool {
        self.perm.iter().enumerate().any(|(i, v)| v.index() == i)
    }

    /// Whether the induced port mapping is the identity at every node:
    /// port `i` of `v` maps to port `i` of `π(v)`.
    ///
    /// This is the *adversarial port labeling* condition of the rigorous
    /// (Angluin-style) form of Theorem 3: algorithms that break ties by
    /// local port order (like Algorithm 2's `min≺` and `+1 mod Δ`) are
    /// only guaranteed to behave symmetrically under port-preserving
    /// automorphisms. The paper's 4-chain argument implicitly assumes such
    /// a labeling; [`symmetric_path4`] provides one.
    pub fn is_port_preserving(&self, g: &Graph) -> bool {
        g.nodes().all(|v| {
            (0..g.degree(v)).all(|i| {
                let port = PortId::new(i);
                self.port_image(g, v, port) == port
            })
        })
    }

    /// Applies the automorphism to a configuration: the state of `π(v)` in
    /// the image is `map_state(v, state(v))`, where `map_state` rewrites
    /// node-local references (e.g. parent ports) through the automorphism.
    pub fn apply_config<S: Clone>(
        &self,
        g: &Graph,
        cfg: &Configuration<S>,
        map_state: &impl Fn(&Automorphism, &Graph, NodeId, &S) -> S,
    ) -> Configuration<S> {
        let mut states: Vec<Option<S>> = vec![None; g.n()];
        for (v, s) in cfg.iter() {
            states[self.node_image(v).index()] = Some(map_state(self, g, v, s));
        }
        Configuration::from_vec(
            states
                .into_iter()
                .map(|s| s.expect("permutation is total"))
                .collect(),
        )
    }
}

/// Star-shape recognition via the shared leaf grouping: a star is exactly
/// a graph whose single interchangeable-leaf class covers every node but
/// the hub. Returns the hub and the leaves.
fn star_shape(g: &Graph) -> Option<(NodeId, Vec<NodeId>)> {
    if g.n() < 3 {
        return None;
    }
    let mut classes = leaf_classes(g);
    let class = (classes.len() == 1).then(|| classes.pop().expect("one class"))?;
    (class.len() == g.n() - 1).then(|| (g.neighbors(class[0])[0], class))
}

fn permute(perm: &mut Vec<NodeId>, k: usize, visit: &mut impl FnMut(&[NodeId])) {
    if k == perm.len() {
        visit(perm);
        return;
    }
    for i in k..perm.len() {
        perm.swap(k, i);
        permute(perm, k + 1, visit);
        perm.swap(k, i);
    }
}

/// The 4-chain of Theorem 3 with the *adversarial node numbering*
/// `P2 − P0 − P1 − P3` (edges `{0,1}, {0,2}, {1,3}`), chosen so that the
/// mirror automorphism `0↔1, 2↔3` is **port-preserving** under the canonical
/// sorted-port labeling. On this network every deterministic anonymous
/// algorithm — including port-order-breaking ones like Algorithm 2 — is
/// equivariant, which is what the paper's closed-set argument needs.
pub fn symmetric_path4() -> (Graph, Automorphism) {
    let g = Graph::from_edges(4, &[(0, 1), (0, 2), (1, 3)]).expect("relabeled 4-chain is valid");
    let mirror = Automorphism::new(
        &g,
        vec![
            NodeId::new(1),
            NodeId::new(0),
            NodeId::new(3),
            NodeId::new(2),
        ],
    )
    .expect("mirror is an automorphism");
    debug_assert!(mirror.is_port_preserving(&g));
    (g, mirror)
}

/// State rewriting helpers for [`Automorphism::apply_config`].
pub mod state_maps {
    use super::*;

    /// States carry no node-local references (counters, booleans, colors):
    /// the identity rewrite.
    pub fn value<S: Clone>() -> impl Fn(&Automorphism, &Graph, NodeId, &S) -> S {
        |_, _, _, s| s.clone()
    }

    /// Parent-pointer states (`Option<PortId>`): remap the port through the
    /// induced port mapping.
    pub fn parent_port() -> impl Fn(&Automorphism, &Graph, NodeId, &Option<PortId>) -> Option<PortId>
    {
        |auto, g, v, s| s.map(|port| auto.port_image(g, v, port))
    }
}

/// The outcome of the Theorem 3 analysis for one (algorithm, spec,
/// automorphism) triple.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SymmetryVerdict {
    /// Whether the algorithm commutes with the automorphism on every local
    /// view ([`locally_equivariant`] with the analysis' state map), and
    /// hence every synchronous step commutes with it on every
    /// configuration: the machine-checked form of "the algorithm is
    /// anonymous and deterministic".
    pub equivariant: bool,
    /// Number of symmetric configurations (`|X|`).
    pub symmetric_configs: u64,
    /// Whether `X` is closed under synchronous steps.
    pub closed: bool,
    /// Whether some symmetric configuration is legitimate.
    pub intersects_legitimate: bool,
}

impl SymmetryVerdict {
    /// Whether the triple witnesses the Theorem 3 impossibility: a
    /// non-empty symmetric set, closed under synchronous execution,
    /// disjoint from `L` — so no execution from `X` ever converges, under
    /// any scheduler that admits synchronous steps.
    pub fn implies_impossibility(&self) -> bool {
        self.equivariant && self.symmetric_configs > 0 && self.closed && !self.intersects_legitimate
    }
}

/// Runs the Theorem 3 analysis: checks equivariance of the (deterministic)
/// algorithm under `auto` on every local view, and computes the symmetric
/// set `X`, its closure under synchronous steps, and its intersection
/// with `L` in one sweep of the space, which also audits determinism.
///
/// # Errors
///
/// Propagates [`CoreError`] from state-space enumeration, returns
/// [`CoreError::NotAnAutomorphism`] if `auto` is not an automorphism of
/// `alg`'s graph (e.g. one built for another graph), and returns
/// [`CoreError::DeterminismRequired`] if the algorithm is probabilistic on
/// some configuration — Theorem 3 concerns deterministic systems.
pub fn check_synchronous_symmetry<A, L, F>(
    alg: &A,
    spec: &L,
    auto: &Automorphism,
    map_state: F,
    cap: u64,
) -> Result<SymmetryVerdict, CoreError>
where
    A: Algorithm,
    L: Legitimacy<A::State>,
    F: Fn(&Automorphism, &Graph, NodeId, &A::State) -> A::State,
{
    let g = alg.graph();
    if Automorphism::new(g, auto.perm.clone()).is_none() {
        let (nodes, graph_nodes) = (auto.perm.len(), g.n());
        return Err(CoreError::NotAnAutomorphism { nodes, graph_nodes });
    }
    let ix = SpaceIndexer::new(alg, cap)?;
    let mut symmetric = 0u64;
    let mut closed = true;
    let mut intersects = false;
    // Enumerate via the engine's in-place cursor: no per-configuration
    // decode allocation.
    let mut cursor = ConfigCursor::new(&ix, 0);
    loop {
        let cfg = cursor.config();
        if !semantics::is_deterministic_at(alg, cfg) {
            return Err(CoreError::DeterminismRequired {
                context: "the Theorem 3 synchronous-symmetry analysis",
            });
        }
        if &auto.apply_config(g, cfg, &map_state) == cfg {
            symmetric += 1;
            intersects |= spec.is_legitimate(cfg);
            for (_, next) in semantics::synchronous_step(alg, cfg).into_iter().flatten() {
                closed &= auto.apply_config(g, &next, &map_state) == next;
            }
        }
        if !cursor.advance() {
            break;
        }
    }
    // lint: cast-ok(node indices are bounded by the node count, far below u32)
    let perm: Vec<u32> = auto.perm.iter().map(|v| v.index() as u32).collect();
    Ok(SymmetryVerdict {
        equivariant: locally_equivariant(alg, &perm, |v, s| map_state(auto, g, v, s)),
        symmetric_configs: symmetric,
        closed,
        intersects_legitimate: intersects,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use stab_algorithms::leader_tree::ParentLeader;
    use stab_algorithms::GreedyColoring;
    use stab_graph::builders;

    #[test]
    fn path4_has_mirror_automorphism() {
        let g = builders::path(4);
        let autos = Automorphism::all(&g).unwrap();
        // Identity and the reversal.
        assert_eq!(autos.len(), 2);
        let mirror = autos.iter().find(|a| !a.is_identity()).unwrap();
        assert!(mirror.is_involution());
        assert!(!mirror.has_fixed_point());
        assert_eq!(mirror.node_image(NodeId::new(0)), NodeId::new(3));
        assert_eq!(mirror.node_image(NodeId::new(1)), NodeId::new(2));
    }

    #[test]
    fn ring_automorphism_count_is_dihedral() {
        let g = builders::ring(5);
        let autos = Automorphism::all(&g).unwrap();
        assert_eq!(autos.len(), 10); // dihedral group D5
                                     // The construction is direct now; every element must still be a
                                     // distinct valid automorphism.
        let mut seen = std::collections::HashSet::new();
        for a in &autos {
            assert!(Automorphism::new(&g, a.perm.clone()).is_some());
            assert!(seen.insert(a.perm.clone()), "duplicate {:?}", a.perm);
        }
    }

    /// Regression for the factorial enumeration: `all` on rings of 10+
    /// nodes used to panic ("capped at 9 nodes"); the topology-aware
    /// construction returns the dihedral group directly.
    #[test]
    fn large_ring_automorphisms_no_longer_factorial() {
        for n in [10usize, 12, 17, 40] {
            let g = builders::ring(n);
            let autos = Automorphism::all(&g).unwrap();
            assert_eq!(autos.len(), 2 * n, "D_{n} on ring({n})");
            let mut seen = std::collections::HashSet::new();
            for a in &autos {
                assert!(seen.insert(a.perm.clone()));
            }
        }
    }

    #[test]
    fn star_automorphisms_permute_leaves() {
        let g = builders::star(4);
        assert_eq!(Automorphism::all(&g).unwrap().len(), 6); // 3! leaf permutations
                                                             // Direct leaf enumeration scales past the old 9-node search cap.
        let g = builders::star(10);
        let autos = Automorphism::all(&g).unwrap();
        assert_eq!(autos.len(), 362_880); // 9! leaf permutations
        assert!(autos
            .iter()
            .all(|a| a.node_image(NodeId::new(0)) == NodeId::new(0)));
    }

    /// The old panics are now typed errors: oversized groups report
    /// [`CoreError::SymmetryGroupTooLarge`], probabilistic algorithms
    /// [`CoreError::DeterminismRequired`].
    #[test]
    fn oversized_groups_and_probabilistic_algorithms_yield_typed_errors() {
        // An 11-leaf star's automorphism group has 11! elements; `all`
        // must refuse rather than enumerate it.
        let wide = builders::star(12);
        assert!(matches!(
            Automorphism::all(&wide),
            Err(CoreError::SymmetryGroupTooLarge { size: 11, cap: 9 })
        ));
        // Probabilistic algorithm under the Theorem 3 analysis.
        let g = builders::ring(3);
        let alg = stab_algorithms::HermanRing::on_ring(&g).unwrap();
        let spec = alg.legitimacy();
        let mirror = Automorphism::all(&g)
            .unwrap()
            .into_iter()
            .find(|a| !a.is_identity())
            .unwrap();
        assert!(matches!(
            check_synchronous_symmetry(&alg, &spec, &mirror, state_maps::value(), 1 << 20),
            Err(CoreError::DeterminismRequired { .. })
        ));
    }

    /// An automorphism of another graph is a typed error, not a panic:
    /// the `path(4)` mirror on `path(5)` used to index out of bounds in
    /// `apply_config`, and a `ring(4)` rotation on `path(4)` (same size,
    /// but it breaks an edge) used to hit the `expect` in `port_image`.
    #[test]
    fn foreign_automorphisms_are_typed_errors() {
        let mirror4 = Automorphism::all(&builders::path(4))
            .unwrap()
            .into_iter()
            .find(|a| !a.is_identity())
            .unwrap();
        let coloring = GreedyColoring::new(&builders::path(5)).unwrap();
        let err = check_synchronous_symmetry(
            &coloring,
            &coloring.legitimacy(),
            &mirror4,
            state_maps::value(),
            1 << 20,
        )
        .unwrap_err();
        assert!(
            matches!(
                &err,
                CoreError::NotAnAutomorphism {
                    nodes: 4,
                    graph_nodes: 5
                }
            ),
            "{err}"
        );
        let rotation = Automorphism::all(&builders::ring(4))
            .unwrap()
            .into_iter()
            .find(|a| !a.is_identity() && !a.is_involution())
            .unwrap();
        let leader = ParentLeader::on_tree(&builders::path(4)).unwrap();
        let err = check_synchronous_symmetry(
            &leader,
            &leader.legitimacy(),
            &rotation,
            state_maps::parent_port(),
            1 << 20,
        )
        .unwrap_err();
        assert!(
            matches!(
                &err,
                CoreError::NotAnAutomorphism {
                    nodes: 4,
                    graph_nodes: 4
                }
            ),
            "{err}"
        );
    }

    #[test]
    fn port_image_is_consistent() {
        let g = builders::path(4);
        let mirror = Automorphism::all(&g)
            .unwrap()
            .into_iter()
            .find(|a| !a.is_identity())
            .unwrap();
        // Node 1's port to node 2 maps to node 2's port to node 1.
        let p = g.port_of(NodeId::new(1), NodeId::new(2)).unwrap();
        let q = mirror.port_image(&g, NodeId::new(1), p);
        assert_eq!(g.neighbor(NodeId::new(2), q), NodeId::new(1));
    }

    #[test]
    fn invalid_permutations_rejected() {
        let g = builders::path(3);
        // Swapping an endpoint with the middle breaks adjacency.
        assert!(
            Automorphism::new(&g, vec![NodeId::new(1), NodeId::new(0), NodeId::new(2)]).is_none()
        );
        // Not a permutation.
        assert!(Automorphism::new(&g, vec![NodeId::new(0); 3]).is_none());
    }

    /// Theorem 3, machine-checked for Algorithm 2 on the adversarially
    /// labeled 4-chain: the mirror is port-preserving, so the algorithm is
    /// equivariant, the mirror-symmetric set is non-empty and closed under
    /// synchronous steps, and contains no legitimate configuration — the
    /// full impossibility witness.
    #[test]
    fn theorem3_for_algorithm2_on_symmetric_path4() {
        let (g, mirror) = symmetric_path4();
        assert!(g.is_tree());
        assert!(mirror.is_port_preserving(&g));
        assert!(!mirror.has_fixed_point());
        let alg = ParentLeader::on_tree(&g).unwrap();
        let spec = alg.legitimacy();
        let verdict =
            check_synchronous_symmetry(&alg, &spec, &mirror, state_maps::parent_port(), 1 << 20)
                .unwrap();
        assert!(verdict.equivariant, "port-preserving mirror ⇒ equivariance");
        assert!(verdict.symmetric_configs > 0);
        assert!(verdict.closed, "X is closed under synchronous steps");
        assert!(!verdict.intersects_legitimate, "no symmetric leader");
        assert!(verdict.implies_impossibility());
    }

    /// On the *canonically* labeled 4-chain the mirror reverses the port
    /// order of the interior nodes, and Algorithm 2's port-order
    /// tie-breaking (`min≺`, `+1 mod Δ`) is then **not** equivariant — a
    /// subtlety the paper's informal proof glosses over. The impossibility
    /// still holds (Figure 3's oscillation), but the closed-set argument
    /// needs the adversarial labeling of [`symmetric_path4`].
    #[test]
    fn canonical_path4_mirror_is_not_port_preserving() {
        let g = builders::path(4);
        let mirror = Automorphism::all(&g)
            .unwrap()
            .into_iter()
            .find(|a| !a.is_identity())
            .unwrap();
        assert!(!mirror.is_port_preserving(&g));
        let alg = ParentLeader::on_tree(&g).unwrap();
        let spec = alg.legitimacy();
        let verdict =
            check_synchronous_symmetry(&alg, &spec, &mirror, state_maps::parent_port(), 1 << 20)
                .unwrap();
        assert!(
            !verdict.equivariant,
            "min-port tie-breaking is asymmetric under order-reversing mirrors"
        );
    }

    /// On the 3-chain, mirror-symmetric configurations ⟨a,b,a⟩ *can* be
    /// properly colored (e.g. ⟨0,1,0⟩): coloring escapes the Theorem 3
    /// obstruction there, unlike leader election.
    #[test]
    fn coloring_escapes_the_obstruction_on_path3() {
        let g = builders::path(3);
        let alg = GreedyColoring::new(&g).unwrap();
        let spec = alg.legitimacy();
        let mirror = Automorphism::all(&g)
            .unwrap()
            .into_iter()
            .find(|a| !a.is_identity())
            .unwrap();
        let verdict =
            check_synchronous_symmetry(&alg, &spec, &mirror, state_maps::value(), 1 << 20).unwrap();
        assert!(verdict.equivariant);
        assert!(verdict.closed);
        assert!(
            verdict.intersects_legitimate,
            "⟨0,1,0⟩ is symmetric and properly colored"
        );
        assert!(!verdict.implies_impossibility());
    }

    /// On the 4-chain even coloring suffers the obstruction: a symmetric
    /// ⟨a,b,b,a⟩ coloring has a monochromatic middle edge, so no symmetric
    /// configuration is legitimate — anonymous deterministic coloring is
    /// impossible under schedulers admitting synchronous runs.
    #[test]
    fn coloring_is_obstructed_on_path4() {
        let g = builders::path(4);
        let alg = GreedyColoring::new(&g).unwrap();
        let spec = alg.legitimacy();
        let mirror = Automorphism::all(&g)
            .unwrap()
            .into_iter()
            .find(|a| !a.is_identity())
            .unwrap();
        let verdict =
            check_synchronous_symmetry(&alg, &spec, &mirror, state_maps::value(), 1 << 20).unwrap();
        assert!(verdict.implies_impossibility());
    }
}
