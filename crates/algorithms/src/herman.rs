//! Herman's probabilistic token ring (IPL 35(2), 1990): the classic
//! *probabilistically self-stabilizing* baseline, reference \[16\] of the
//! paper — the same paper whose impossibility result (no deterministic
//! self-stabilizing token circulation in anonymous rings) motivates §3.1.
//!
//! On a ring of **odd** size, each process holds one bit `x_p` and holds a
//! token iff `x_p = x_Pred(p)`. Under the synchronous scheduler:
//!
//! ```text
//! A1 :: x_p = x_Pred(p) → x_p ← Rand(0, 1)     (token: keep or pass)
//! A2 :: x_p ≠ x_Pred(p) → x_p ← x_Pred(p)      (no token: copy)
//! ```
//!
//! Every process is always enabled (exactly one guard holds), tokens
//! perform merging random walks, and the expected convergence time to a
//! single token is Θ(N²). Oddness guarantees the token count is odd, hence
//! never zero.

use stab_core::{ActionId, ActionMask, Algorithm, Configuration, Legitimacy, Outcomes, View};
use stab_graph::{Graph, GraphError, NodeId, RingOrientation};

/// Herman's protocol on an oriented odd ring.
#[derive(Debug, Clone)]
pub struct HermanRing {
    g: Graph,
    orient: RingOrientation,
}

impl HermanRing {
    /// Instantiates Herman's protocol.
    ///
    /// ```
    /// use stab_algorithms::HermanRing;
    /// use stab_core::Configuration;
    /// use stab_graph::builders;
    ///
    /// let alg = HermanRing::on_ring(&builders::ring(5)).unwrap();
    /// // All-equal bits: every process holds a token (5 tokens).
    /// let cfg = Configuration::from_vec(vec![true; 5]);
    /// assert_eq!(alg.token_holders(&cfg).len(), 5);
    /// // Even rings are rejected (the token count must stay odd).
    /// assert!(HermanRing::on_ring(&builders::ring(4)).is_err());
    /// ```
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::NotARing`] if `g` is not a ring of odd size
    /// (even rings admit tokenless configurations, breaking the protocol).
    pub fn on_ring(g: &Graph) -> Result<Self, GraphError> {
        if g.n().is_multiple_of(2) {
            return Err(GraphError::NotARing);
        }
        let orient = RingOrientation::canonical(g)?;
        Ok(HermanRing {
            g: g.clone(),
            orient,
        })
    }

    /// Whether `node` holds a token (`x_p = x_Pred(p)`).
    pub fn has_token(&self, cfg: &Configuration<bool>, node: NodeId) -> bool {
        let pred = self.orient.predecessor(&self.g, node);
        cfg.get(node) == cfg.get(pred)
    }

    /// All token holders.
    pub fn token_holders(&self, cfg: &Configuration<bool>) -> Vec<NodeId> {
        self.g.nodes().filter(|&v| self.has_token(cfg, v)).collect()
    }

    /// Legitimacy: exactly one token.
    pub fn legitimacy(&self) -> SingleHermanToken {
        SingleHermanToken { alg: self.clone() }
    }
}

impl Algorithm for HermanRing {
    type State = bool;

    fn graph(&self) -> &Graph {
        &self.g
    }

    fn name(&self) -> String {
        format!("herman(N={})", self.g.n())
    }

    fn state_space(&self, _node: NodeId) -> Vec<bool> {
        vec![false, true]
    }

    fn enabled_actions<V: View<bool>>(&self, view: &V) -> ActionMask {
        let pred = *view.neighbor(self.orient.pred_port(view.node()));
        if *view.me() == pred {
            ActionMask::single(ActionId::A1)
        } else {
            ActionMask::single(ActionId::A2)
        }
    }

    fn apply<V: View<bool>>(&self, view: &V, action: ActionId) -> Outcomes<bool> {
        let pred = *view.neighbor(self.orient.pred_port(view.node()));
        match action {
            ActionId::A1 => Outcomes::fair_coin(true, false),
            ActionId::A2 => Outcomes::certain(pred),
            other => unreachable!("Herman has no action {other}"),
        }
    }

    fn is_probabilistic(&self) -> bool {
        true
    }
}

/// Exactly one token (`x` has exactly one equal-to-predecessor position).
#[derive(Debug, Clone)]
pub struct SingleHermanToken {
    alg: HermanRing,
}

impl Legitimacy<bool> for SingleHermanToken {
    fn name(&self) -> String {
        "single-herman-token".into()
    }

    fn is_legitimate(&self, cfg: &Configuration<bool>) -> bool {
        let mut count = 0;
        for v in self.alg.g.nodes() {
            if self.alg.has_token(cfg, v) {
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
    use rand::SeedableRng;
    use stab_core::SpaceIndexer;
    use stab_graph::builders;

    fn alg(n: usize) -> HermanRing {
        HermanRing::on_ring(&builders::ring(n)).unwrap()
    }

    /// One sampled synchronous step: every process moves (all are always
    /// enabled), reading the pre-configuration.
    fn sync_step(
        a: &HermanRing,
        cfg: &Configuration<bool>,
        rng: &mut impl rand::Rng,
    ) -> Configuration<bool> {
        let mut next = cfg.clone();
        for v in a.enabled_nodes(cfg) {
            let view = a.view(cfg, v);
            let action = a.enabled_actions(&view).selected().unwrap();
            next.set(v, *a.apply(&view, action).sample(rng));
        }
        next
    }

    #[test]
    fn even_rings_rejected() {
        assert!(HermanRing::on_ring(&builders::ring(4)).is_err());
        assert!(HermanRing::on_ring(&builders::ring(5)).is_ok());
    }

    /// On odd rings the token count is odd — never zero.
    #[test]
    fn token_count_is_odd_everywhere() {
        let a = alg(5);
        let ix = SpaceIndexer::new(&a, 1 << 22).unwrap();
        for cfg in ix.iter() {
            let count = a.token_holders(&cfg).len();
            assert_eq!(count % 2, 1, "even token count in {cfg:?}");
        }
    }

    #[test]
    fn every_process_is_always_enabled() {
        let a = alg(7);
        let ix = SpaceIndexer::new(&a, 1 << 22).unwrap();
        for idx in (0..ix.total()).step_by(5) {
            let cfg = ix.decode(idx);
            assert_eq!(a.enabled_nodes(&cfg).len(), 7);
        }
    }

    /// Synchronous runs converge to a single token quickly on small rings.
    #[test]
    fn synchronous_sampling_converges() {
        let a = alg(7);
        let spec = a.legitimacy();
        let mut rng = rand::rngs::StdRng::seed_from_u64(2024);
        for seed_cfg in 0..10u64 {
            let ix = SpaceIndexer::new(&a, 1 << 22).unwrap();
            let mut cfg = ix.decode(seed_cfg * 11 % ix.total());
            let mut steps = 0usize;
            while !spec.is_legitimate(&cfg) {
                cfg = sync_step(&a, &cfg, &mut rng);
                steps += 1;
                assert!(steps < 100_000, "no convergence from index {seed_cfg}");
            }
            // Closure: remains single-token afterwards.
            for _ in 0..20 {
                cfg = sync_step(&a, &cfg, &mut rng);
                assert!(spec.is_legitimate(&cfg), "closure violated");
            }
        }
    }

    #[test]
    fn token_guard_matches_predicate() {
        let a = alg(3);
        let cfg = Configuration::from_vec(vec![true, true, false]);
        // Canonical orientation on ring(3): successor of 0 is 1 → pred of
        // node v is the previous in cycle order 0,1,2.
        let holders = a.token_holders(&cfg);
        assert_eq!(holders.len(), 1, "{holders:?}");
        for v in a.graph().nodes() {
            assert_eq!(
                a.has_token(&cfg, v),
                a.selected_action(&cfg, v) == Some(ActionId::A1)
            );
        }
    }

    #[test]
    fn probabilistic_flag_set() {
        assert!(alg(3).is_probabilistic());
    }
}
