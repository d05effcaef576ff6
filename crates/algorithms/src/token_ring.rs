//! **Algorithm 1** of the paper: deterministic weak-stabilizing token
//! circulation on anonymous unidirectional rings (§3.1).
//!
//! Every process `p` holds one counter `dt_p ∈ [0 .. m_N − 1]`, where `m_N`
//! is the smallest integer that does not divide the ring size `N`. Process
//! `p` *holds a token* iff
//!
//! ```text
//! Token(p) ≡ dt_p ≠ (dt_Pred(p) + 1) mod m_N
//! ```
//!
//! and its single action passes the token to its successor:
//!
//! ```text
//! A :: Token(p) → dt_p ← (dt_Pred(p) + 1) mod m_N
//! ```
//!
//! Because `m_N` does not divide `N`, at least one token always exists
//! (Lemma 4). The legitimate configurations are those with *exactly one*
//! token (`LCSET`, Definition 9); from them the unique token circulates
//! forever (Lemma 6). Theorem 2 states the protocol is deterministically
//! weak-stabilizing under the distributed strongly fair scheduler — and
//! Theorem 6 exhibits two alternating tokens on a 6-ring showing it is *not*
//! deterministically self-stabilizing, even under strong fairness.

use stab_core::{ActionId, ActionMask, Algorithm, Configuration, Legitimacy, Outcomes, View};
use stab_graph::ring::smallest_non_divisor;
use stab_graph::{Graph, GraphError, NodeId, RingOrientation};

/// Algorithm 1: `dt`-counter token circulation on an oriented ring.
#[derive(Debug, Clone)]
pub struct TokenCirculation {
    g: Graph,
    orient: RingOrientation,
    m: u8,
}

impl TokenCirculation {
    /// Instantiates Algorithm 1 on a ring graph with the canonical
    /// orientation and the paper's modulus `m_N`.
    ///
    /// ```
    /// use stab_algorithms::TokenCirculation;
    /// use stab_graph::builders;
    ///
    /// // Figure 1 of the paper: N = 6, counter modulus m_N = 4.
    /// let alg = TokenCirculation::on_ring(&builders::ring(6)).unwrap();
    /// assert_eq!(alg.modulus(), 4);
    /// // Non-rings are rejected.
    /// assert!(TokenCirculation::on_ring(&builders::path(4)).is_err());
    /// ```
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::NotARing`] if `g` is not a ring.
    pub fn on_ring(g: &Graph) -> Result<Self, GraphError> {
        let orient = RingOrientation::canonical(g)?;
        Ok(Self::with_orientation(g.clone(), orient))
    }

    /// Instantiates Algorithm 1 with an explicit orientation (e.g. the
    /// reverse direction) and the modulus `m_N`.
    ///
    /// # Panics
    ///
    /// Panics if `m_N` exceeds 255 — unreachable for any practical ring,
    /// since `m_N ≤ 9` already for all `N < 2520`.
    pub fn with_orientation(g: Graph, orient: RingOrientation) -> Self {
        let m = smallest_non_divisor(g.n() as u64);
        let m = u8::try_from(m).expect("m_N fits in u8 for any practical ring size");
        TokenCirculation { g, orient, m }
    }

    /// The counter modulus `m_N`.
    pub fn modulus(&self) -> u8 {
        self.m
    }

    /// The ring orientation (constant `Pred` pointers).
    pub fn orientation(&self) -> &RingOrientation {
        &self.orient
    }

    /// Whether `node` holds a token in `cfg` (`Token(p)` of the paper).
    pub fn has_token(&self, cfg: &Configuration<u8>, node: NodeId) -> bool {
        let pred = self.orient.predecessor(&self.g, node);
        *cfg.get(node) != (*cfg.get(pred) + 1) % self.m
    }

    /// All token holders of `cfg` (`TokenHolders(γ)`, Definition 8).
    pub fn token_holders(&self, cfg: &Configuration<u8>) -> Vec<NodeId> {
        self.g.nodes().filter(|&v| self.has_token(cfg, v)).collect()
    }

    /// The legitimacy predicate `LCSET`: exactly one token.
    pub fn legitimacy(&self) -> SingleToken {
        SingleToken { alg: self.clone() }
    }

    /// A canonical legitimate configuration with the token at `holder`:
    /// counters increase by 1 along the successor direction starting from
    /// `holder` (which gets 0). Because `m_N ∤ N` the wrap-around mismatch
    /// lands exactly at `holder`.
    pub fn legitimate_config(&self, holder: NodeId) -> Configuration<u8> {
        let mut states = vec![0u8; self.g.n()];
        let mut v = holder;
        for i in 0..self.g.n() {
            // lint: cast-ok(value is reduced mod m, and m is u8-valued by construction)
            states[v.index()] = (i % self.m as usize) as u8;
            v = self.orient.successor(&self.g, v);
        }
        let cfg = Configuration::from_vec(states);
        debug_assert_eq!(self.token_holders(&cfg), vec![holder]);
        cfg
    }
}

impl Algorithm for TokenCirculation {
    type State = u8;

    fn graph(&self) -> &Graph {
        &self.g
    }

    fn name(&self) -> String {
        format!("token-circulation(N={}, m={})", self.g.n(), self.m)
    }

    fn state_space(&self, _node: NodeId) -> Vec<u8> {
        (0..self.m).collect()
    }

    fn enabled_actions<V: View<u8>>(&self, view: &V) -> ActionMask {
        let pred = *view.neighbor(self.orient.pred_port(view.node()));
        let token = *view.me() != (pred + 1) % self.m;
        ActionMask::when(token, ActionId::A1)
    }

    fn apply<V: View<u8>>(&self, view: &V, _action: ActionId) -> Outcomes<u8> {
        let pred = *view.neighbor(self.orient.pred_port(view.node()));
        Outcomes::certain((pred + 1) % self.m)
    }
}

/// `LCSET` (Definition 9): configurations with exactly one token holder.
#[derive(Debug, Clone)]
pub struct SingleToken {
    alg: TokenCirculation,
}

impl Legitimacy<u8> for SingleToken {
    fn name(&self) -> String {
        "single-token".into()
    }

    fn is_legitimate(&self, cfg: &Configuration<u8>) -> bool {
        let mut holders = 0usize;
        for v in self.alg.g.nodes() {
            if self.alg.has_token(cfg, v) {
                holders += 1;
                if holders > 1 {
                    return false;
                }
            }
        }
        holders == 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stab_core::{semantics, Activation, DaemonSpec, SpaceIndexer};
    use stab_graph::builders;

    fn alg(n: usize) -> TokenCirculation {
        TokenCirculation::on_ring(&builders::ring(n)).unwrap()
    }

    #[test]
    fn figure1_parameters() {
        let a = alg(6);
        assert_eq!(a.modulus(), 4);
        assert_eq!(a.state_space(NodeId::new(0)), vec![0, 1, 2, 3]);
        assert_eq!(a.name(), "token-circulation(N=6, m=4)");
    }

    #[test]
    fn rejects_non_rings() {
        let g = builders::path(4);
        assert!(TokenCirculation::on_ring(&g).is_err());
    }

    /// Lemma 4: every configuration has at least one token, because
    /// `m_N` does not divide `N`. Checked exhaustively on small rings.
    #[test]
    fn lemma4_at_least_one_token_everywhere() {
        for n in [3usize, 4, 5, 6] {
            let a = alg(n);
            let ix = SpaceIndexer::new(&a, 1 << 22).unwrap();
            for cfg in ix.iter() {
                assert!(
                    !a.token_holders(&cfg).is_empty(),
                    "tokenless configuration {cfg:?} on ring {n}"
                );
            }
        }
    }

    /// Lemma 6 (strong closure): from a single-token configuration, the
    /// only enabled process is the holder, and its move passes the token to
    /// its successor.
    #[test]
    fn lemma6_token_moves_to_successor() {
        let a = alg(6);
        let spec = a.legitimacy();
        for holder in a.graph().nodes() {
            let cfg = a.legitimate_config(holder);
            assert!(spec.is_legitimate(&cfg));
            assert_eq!(a.enabled_nodes(&cfg), vec![holder]);
            let next = semantics::deterministic_successor(&a, &cfg, &Activation::singleton(holder));
            assert!(spec.is_legitimate(&next));
            let succ = a.orientation().successor(a.graph(), holder);
            assert_eq!(a.token_holders(&next), vec![succ]);
        }
    }

    /// Exhaustive closure of LCSET under every daemon on the Figure 1 ring:
    /// every step from a legitimate configuration stays legitimate.
    #[test]
    fn lcset_is_closed_under_all_daemons() {
        let a = alg(5);
        let spec = a.legitimacy();
        let ix = SpaceIndexer::new(&a, 1 << 22).unwrap();
        for cfg in ix.iter().filter(|c| spec.is_legitimate(c)) {
            for daemon in DaemonSpec::LEGACY {
                for (_, dist) in semantics::all_steps(&a, daemon, &cfg).unwrap() {
                    for (_, next) in dist {
                        assert!(spec.is_legitimate(&next));
                    }
                }
            }
        }
    }

    /// Token count never increases under any activation (the merging
    /// monotonicity behind possible convergence), checked exhaustively on a
    /// 4-ring under the distributed daemon.
    #[test]
    fn token_count_never_increases() {
        let a = alg(4);
        let ix = SpaceIndexer::new(&a, 1 << 22).unwrap();
        for cfg in ix.iter() {
            let before = a.token_holders(&cfg).len();
            for (_, dist) in semantics::all_steps(&a, DaemonSpec::distributed(), &cfg).unwrap() {
                for (_, next) in dist {
                    let after = a.token_holders(&next).len();
                    assert!(
                        after <= before,
                        "tokens increased {before} -> {after}: {cfg:?} -> {next:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn legitimate_config_has_single_token_everywhere() {
        for n in 3..=9 {
            let a = alg(n);
            for holder in a.graph().nodes() {
                let cfg = a.legitimate_config(holder);
                assert_eq!(a.token_holders(&cfg), vec![holder], "ring {n}");
            }
        }
    }

    /// The paper's memory claim: `log(m_N)` bits per process. The state
    /// space has exactly `m_N` values regardless of `N`.
    #[test]
    fn memory_is_m_values() {
        for n in [3usize, 6, 12, 60] {
            let a = alg(n);
            assert_eq!(
                a.state_space(NodeId::new(0)).len() as u64,
                smallest_non_divisor(n as u64)
            );
        }
    }

    /// Theorem 6's counterexample setup: two tokens at distance 3 on the
    /// 6-ring, alternating moves keep two tokens forever. Verify one round
    /// of the alternation returns to a two-token configuration of the same
    /// shape (the checker proves the full lasso in its own crate).
    #[test]
    fn theorem6_alternating_tokens_persist() {
        let a = alg(6);
        // Build a two-token configuration: tokens at nodes 0 and 3.
        // Counters follow +1 chains from each holder.
        let order = a.orientation().cycle_order(a.graph());
        let mut states = vec![0u8; 6];
        // Positions 0..2 form one chain, 3..5 the other; chain values chosen
        // so that mismatches occur exactly at positions 0 and 3.
        let vals = [0u8, 1, 2, 0, 1, 2];
        for (pos, &v) in order.iter().zip(vals.iter()) {
            states[pos.index()] = v;
        }
        let cfg = Configuration::from_vec(states);
        let holders = a.token_holders(&cfg);
        assert_eq!(holders.len(), 2, "setup must have two tokens: {holders:?}");
        // Alternate: move the first holder, then the second; both moves keep
        // exactly two tokens.
        let mid = semantics::deterministic_successor(&a, &cfg, &Activation::singleton(holders[0]));
        assert_eq!(a.token_holders(&mid).len(), 2);
        let holders_mid = a.token_holders(&mid);
        let other = holders_mid
            .iter()
            .copied()
            .find(|&v| v != holders[0])
            .unwrap();
        let end = semantics::deterministic_successor(&a, &mid, &Activation::singleton(other));
        assert_eq!(a.token_holders(&end).len(), 2);
    }

    #[test]
    fn determinism_audit_on_samples() {
        let a = alg(6);
        let ix = SpaceIndexer::new(&a, 1 << 22).unwrap();
        for idx in (0..ix.total()).step_by(97) {
            assert!(semantics::is_deterministic_at(&a, &ix.decode(idx)));
        }
    }

    /// `Trans(A)` returns a certain inner statement as an inline biased
    /// coin: the same two entries, in the same order, as the weighted
    /// list `[(p, heads), (1 − p, unchanged)]` it replaces.
    #[test]
    fn transformed_certain_statement_is_the_weighted_coin_toss() {
        use stab_core::{Coined, Outcomes, Transformed};
        for p in [0.5, 0.3] {
            let t = Transformed::with_bias(alg(4), p);
            let ix = SpaceIndexer::new(&t, 1 << 16).unwrap();
            let mut checked = 0;
            for cfg in ix.iter() {
                for v in cfg.iter().map(|(v, _)| v) {
                    let Some(action) = t.selected_action(&cfg, v) else {
                        continue;
                    };
                    let inner = Transformed::<TokenCirculation>::project(&cfg);
                    let next = t.inner().apply(&t.inner().view(&inner, v), action);
                    let weighted = Outcomes::weighted(vec![
                        (p, Coined::new(next.into_certain(), true)),
                        (1.0 - p, Coined::new(*inner.get(v), false)),
                    ]);
                    let applied = t.apply(&t.view(&cfg, v), action);
                    assert_eq!(applied.entries(), weighted.entries(), "{cfg:?} at {v}");
                    checked += 1;
                }
            }
            assert!(checked > 0);
        }
    }
}
