//! **Algorithm 3** of the paper (§4): the two-process toggle whose
//! convergence *requires* a simultaneous step.
//!
//! Two neighbouring processes `p, q` each hold a boolean `B`:
//!
//! ```text
//! A1 :: ¬B_i ∧ ¬B_j → B_i ← true
//! A2 ::  B_i ∧ ¬B_j → B_i ← false
//! ```
//!
//! The specification is `B_p ∧ B_q` (a terminal configuration). From
//! `(false, false)` the system converges **only** if both processes move in
//! the same step; every central-daemon execution oscillates forever between
//! `(T,F)/(F,T)` and `(F,F)`. This is the paper's witness that a
//! transformer simulating a randomized scheduler must keep synchronous
//! steps possible — which `Trans` does, since all coins may come up heads
//! together.

use stab_core::{ActionId, ActionMask, Algorithm, Configuration, Legitimacy, Outcomes, View};
use stab_graph::{builders, Graph, NodeId, PortId};

/// Algorithm 3 on the two-process network.
#[derive(Debug, Clone)]
pub struct TwoProcessToggle {
    g: Graph,
}

impl TwoProcessToggle {
    /// Instantiates the toggle on the unique two-process network.
    ///
    /// ```
    /// use stab_algorithms::TwoProcessToggle;
    /// use stab_core::{Algorithm, Configuration, Legitimacy};
    ///
    /// let alg = TwoProcessToggle::new();
    /// assert_eq!(alg.n(), 2);
    /// let spec = alg.legitimacy();
    /// assert!(spec.is_legitimate(&Configuration::from_vec(vec![true, true])));
    /// assert!(!spec.is_legitimate(&Configuration::from_vec(vec![true, false])));
    /// ```
    pub fn new() -> Self {
        TwoProcessToggle {
            g: builders::path(2),
        }
    }

    /// Legitimacy: both booleans true.
    pub fn legitimacy(&self) -> BothTrue {
        BothTrue
    }
}

impl Default for TwoProcessToggle {
    fn default() -> Self {
        Self::new()
    }
}

impl Algorithm for TwoProcessToggle {
    type State = bool;

    fn graph(&self) -> &Graph {
        &self.g
    }

    fn name(&self) -> String {
        "two-process-toggle".into()
    }

    fn state_space(&self, _node: NodeId) -> Vec<bool> {
        vec![false, true]
    }

    fn enabled_actions<V: View<bool>>(&self, view: &V) -> ActionMask {
        let me = *view.me();
        let other = *view.neighbor(PortId::new(0));
        ActionMask::when(!me && !other, ActionId::A1)
            .union(ActionMask::when(me && !other, ActionId::A2))
    }

    fn apply<V: View<bool>>(&self, view: &V, action: ActionId) -> Outcomes<bool> {
        let _ = view;
        match action {
            ActionId::A1 => Outcomes::certain(true),
            ActionId::A2 => Outcomes::certain(false),
            other => unreachable!("Algorithm 3 has no action {other}"),
        }
    }
}

/// The specification `B_p ∧ B_q`.
#[derive(Debug, Clone, Copy)]
pub struct BothTrue;

impl Legitimacy<bool> for BothTrue {
    fn name(&self) -> String {
        "both-true".into()
    }

    fn is_legitimate(&self, cfg: &Configuration<bool>) -> bool {
        cfg.states().iter().all(|&b| b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stab_core::{semantics, Activation, DaemonSpec};

    fn cfg(p: bool, q: bool) -> Configuration<bool> {
        Configuration::from_vec(vec![p, q])
    }

    #[test]
    fn target_configuration_is_terminal() {
        let a = TwoProcessToggle::new();
        assert!(a.is_terminal(&cfg(true, true)));
        assert!(a.legitimacy().is_legitimate(&cfg(true, true)));
    }

    #[test]
    fn enabled_sets_match_the_paper_case_analysis() {
        let a = TwoProcessToggle::new();
        // (F,F): both enabled with A1.
        let c = cfg(false, false);
        assert_eq!(a.enabled_nodes(&c).len(), 2);
        assert_eq!(a.selected_action(&c, NodeId::new(0)), Some(ActionId::A1));
        // (T,F): P0 enabled with A2, P1 disabled (neighbour is true).
        let c = cfg(true, false);
        assert_eq!(a.enabled_nodes(&c), vec![NodeId::new(0)]);
        assert_eq!(a.selected_action(&c, NodeId::new(0)), Some(ActionId::A2));
        // (F,T): symmetric.
        let c = cfg(false, true);
        assert_eq!(a.enabled_nodes(&c), vec![NodeId::new(1)]);
    }

    /// The paper's three-way case analysis from (F,F): only the
    /// simultaneous step converges.
    #[test]
    fn only_synchronous_step_converges_from_false_false() {
        let a = TwoProcessToggle::new();
        let c = cfg(false, false);
        let steps = semantics::all_steps(&a, DaemonSpec::distributed(), &c).unwrap();
        assert_eq!(steps.len(), 3);
        for (act, dist) in steps {
            let next = &dist[0].1;
            if act.len() == 2 {
                assert_eq!(next, &cfg(true, true));
            } else {
                assert!(
                    next == &cfg(true, false) || next == &cfg(false, true),
                    "solo move yields a half-raised configuration"
                );
            }
        }
    }

    /// Central-daemon executions cycle: (T,F) -> (F,F) -> (T,F)/(F,T) -> …
    #[test]
    fn central_daemon_oscillates_forever() {
        let a = TwoProcessToggle::new();
        let from_tf = semantics::deterministic_successor(
            &a,
            &cfg(true, false),
            &Activation::singleton(NodeId::new(0)),
        );
        assert_eq!(from_tf, cfg(false, false));
        let back = semantics::deterministic_successor(
            &a,
            &cfg(false, false),
            &Activation::singleton(NodeId::new(0)),
        );
        assert_eq!(back, cfg(true, false));
    }

    #[test]
    fn both_true_spec() {
        let spec = BothTrue;
        assert!(spec.is_legitimate(&cfg(true, true)));
        assert!(!spec.is_legitimate(&cfg(true, false)));
        assert!(!spec.is_legitimate(&cfg(false, false)));
        assert_eq!(spec.name(), "both-true");
    }
}
