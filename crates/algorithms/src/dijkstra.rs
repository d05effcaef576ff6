//! Dijkstra's K-state token ring (CACM 1974): the classic *deterministic
//! self-stabilizing* baseline the paper's reference \[10\] introduced.
//!
//! Unlike the paper's anonymous Algorithm 1, Dijkstra's ring is *rooted*:
//! one distinguished process behaves differently, which is exactly what
//! breaks the Herman/Angluin symmetry obstruction and makes deterministic
//! self-stabilization possible. Having it in the zoo lets the experiments
//! contrast the three stabilization classes on the same topology:
//!
//! ```text
//! root    :: x_r = x_Pred(r) → x_r ← (x_r + 1) mod K
//! non-root:: x_p ≠ x_Pred(p) → x_p ← x_Pred(p)
//! ```
//!
//! A process is *privileged* (holds the token) iff its guard holds; the
//! legitimate configurations are those with exactly one privilege. With
//! `K ≥ N` the protocol self-stabilizes under the central daemon (and the
//! checker verifies what happens under the others).

use stab_core::{ActionId, ActionMask, Algorithm, Configuration, Legitimacy, Outcomes, View};
use stab_graph::{Graph, GraphError, NodeId, RingOrientation};

/// Dijkstra's K-state protocol on an oriented ring with root process 0.
#[derive(Debug, Clone)]
pub struct DijkstraRing {
    g: Graph,
    orient: RingOrientation,
    k: u8,
    root: NodeId,
}

impl DijkstraRing {
    /// Instantiates the protocol with `K = N` states (the minimum for
    /// Dijkstra's theorem) and root `P0`.
    ///
    /// Note: the root breaks anonymity, so — unlike
    /// [`TokenCirculation`](crate::TokenCirculation) and Herman's ring —
    /// Dijkstra's protocol is *not*
    /// rotation-equivariant and must not be explored under the engine's
    /// ring-rotation quotient.
    ///
    /// ```
    /// use stab_algorithms::DijkstraRing;
    /// use stab_core::{Algorithm, DaemonSpec};
    /// use stab_graph::builders;
    ///
    /// let alg = DijkstraRing::on_ring(&builders::ring(4)).unwrap();
    /// assert_eq!(alg.n(), 4);
    /// assert!(DijkstraRing::on_ring(&builders::path(4)).is_err());
    /// ```
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::NotARing`] if `g` is not a ring.
    pub fn on_ring(g: &Graph) -> Result<Self, GraphError> {
        // lint: cast-ok(counter values are u8 by protocol; rings beyond 255 nodes are out of scope)
        Self::with_k(g, g.n() as u8)
    }

    /// Instantiates the protocol with an explicit `K`.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::NotARing`] if `g` is not a ring.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn with_k(g: &Graph, k: u8) -> Result<Self, GraphError> {
        assert!(k > 0, "K must be positive");
        let orient = RingOrientation::canonical(g)?;
        Ok(DijkstraRing {
            g: g.clone(),
            orient,
            k,
            root: NodeId::new(0),
        })
    }

    /// The state modulus `K`.
    pub fn k(&self) -> u8 {
        self.k
    }

    /// The distinguished root process.
    pub fn root(&self) -> NodeId {
        self.root
    }

    /// The privileged processes (enabled ones) of `cfg`.
    pub fn privileged(&self, cfg: &Configuration<u8>) -> Vec<NodeId> {
        self.enabled_nodes(cfg)
    }

    /// Legitimacy: exactly one privilege.
    pub fn legitimacy(&self) -> SinglePrivilege {
        SinglePrivilege { alg: self.clone() }
    }
}

impl Algorithm for DijkstraRing {
    type State = u8;

    fn graph(&self) -> &Graph {
        &self.g
    }

    fn name(&self) -> String {
        format!("dijkstra-k-state(N={}, K={})", self.g.n(), self.k)
    }

    fn state_space(&self, _node: NodeId) -> Vec<u8> {
        (0..self.k).collect()
    }

    fn enabled_actions<V: View<u8>>(&self, view: &V) -> ActionMask {
        let pred = *view.neighbor(self.orient.pred_port(view.node()));
        let me = *view.me();
        if view.node() == self.root {
            ActionMask::when(me == pred, ActionId::A1)
        } else {
            ActionMask::when(me != pred, ActionId::A1)
        }
    }

    fn apply<V: View<u8>>(&self, view: &V, _action: ActionId) -> Outcomes<u8> {
        let pred = *view.neighbor(self.orient.pred_port(view.node()));
        if view.node() == self.root {
            Outcomes::certain((*view.me() + 1) % self.k)
        } else {
            Outcomes::certain(pred)
        }
    }
}

/// Exactly one privileged process.
#[derive(Debug, Clone)]
pub struct SinglePrivilege {
    alg: DijkstraRing,
}

impl Legitimacy<u8> for SinglePrivilege {
    fn name(&self) -> String {
        "single-privilege".into()
    }

    fn is_legitimate(&self, cfg: &Configuration<u8>) -> bool {
        let mut count = 0;
        for v in self.alg.g.nodes() {
            if self.alg.is_enabled(cfg, v) {
                count += 1;
                if count > 1 {
                    return false;
                }
            }
        }
        count == 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stab_core::{semantics, Activation, SpaceIndexer};
    use stab_graph::builders;

    fn alg(n: usize) -> DijkstraRing {
        DijkstraRing::on_ring(&builders::ring(n)).unwrap()
    }

    #[test]
    fn uniform_configuration_privileges_only_root() {
        let a = alg(5);
        let cfg = Configuration::from_vec(vec![2u8; 5]);
        assert_eq!(a.privileged(&cfg), vec![a.root()]);
        assert!(a.legitimacy().is_legitimate(&cfg));
    }

    /// Dijkstra's invariant: at least one process is always privileged.
    #[test]
    fn no_deadlock_anywhere() {
        let a = alg(4);
        let ix = SpaceIndexer::new(&a, 1 << 22).unwrap();
        for cfg in ix.iter() {
            assert!(
                !a.privileged(&cfg).is_empty(),
                "deadlocked configuration {cfg:?}"
            );
        }
    }

    /// Central-daemon self-stabilization on a small ring, by brute force:
    /// from every configuration, every greedy sequential execution reaches a
    /// single-privilege configuration within a bounded number of moves
    /// (a smoke test; the checker proves the general verdicts).
    #[test]
    fn sequential_runs_converge() {
        let a = alg(4);
        let spec = a.legitimacy();
        let ix = SpaceIndexer::new(&a, 1 << 22).unwrap();
        for cfg0 in ix.iter() {
            let mut cfg = cfg0.clone();
            let mut moves = 0usize;
            while !spec.is_legitimate(&cfg) {
                let v = *a.enabled_nodes(&cfg).last().expect("no deadlock");
                cfg = semantics::deterministic_successor(&a, &cfg, &Activation::singleton(v));
                moves += 1;
                assert!(moves < 1000, "no convergence from {cfg0:?}");
            }
        }
    }

    /// Closure: legitimate configurations stay legitimate and the privilege
    /// circulates.
    #[test]
    fn closure_and_circulation() {
        let a = alg(5);
        let spec = a.legitimacy();
        let mut cfg = Configuration::from_vec(vec![0u8; 5]);
        let mut seen_privileged = std::collections::HashSet::new();
        for _ in 0..25 {
            assert!(spec.is_legitimate(&cfg));
            let p = a.privileged(&cfg)[0];
            seen_privileged.insert(p);
            cfg = semantics::deterministic_successor(&a, &cfg, &Activation::singleton(p));
        }
        assert_eq!(seen_privileged.len(), 5, "every process gets the privilege");
    }

    #[test]
    fn k_parameter_validated() {
        assert!(DijkstraRing::with_k(&builders::ring(3), 5).is_ok());
        assert!(DijkstraRing::on_ring(&builders::path(3)).is_err());
    }

    #[test]
    fn name_mentions_parameters() {
        assert_eq!(alg(4).name(), "dijkstra-k-state(N=4, K=4)");
    }
}
