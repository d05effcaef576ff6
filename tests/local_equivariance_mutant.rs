//! The quotient gate's strict pass is an exhaustive local proof: a token
//! circulation whose statement is wrong at one node on exactly one local
//! view is not strictly equivariant under the ring rotation, and the plan
//! a study computes ([`Plan::compute`]) no longer admits the rotation as
//! `strict`.
//!
//! Token circulation on a ring of 12 has counter modulus 5, so the bad
//! view (`me = pred = succ = 3` at node 0) occurs in one configuration
//! out of 125. A pass that compares 96 stride-sampled global rows per
//! generator misses it and admits the rotation strictly (as it does 8 of
//! the 100 enabled single-view mutants of node 0 under the central
//! daemon); the local check visits every view.

use weak_stabilization::prelude::*;

use stab_algorithms::TokenCirculation;
use stab_core::engine::{locally_equivariant, GroupCanonicalizer, Plan, PlanRequest};
use stab_core::{ActionId, ActionMask, Legitimacy, Outcomes, SpaceIndexer, View};

/// Token circulation with one corrupted statement: on the view
/// `me = pred = succ = 3`, node 0 writes 0 instead of `pred + 1 = 4`.
struct Mutant(TokenCirculation);

impl Algorithm for Mutant {
    type State = u8;

    fn graph(&self) -> &Graph {
        self.0.graph()
    }

    fn name(&self) -> String {
        format!("mutant-{}", self.0.name())
    }

    fn state_space(&self, v: NodeId) -> Vec<u8> {
        self.0.state_space(v)
    }

    fn enabled_actions<V: View<u8>>(&self, view: &V) -> ActionMask {
        self.0.enabled_actions(view)
    }

    fn apply<V: View<u8>>(&self, view: &V, action: ActionId) -> Outcomes<u8> {
        let threes = (0..view.degree()).all(|p| *view.neighbor(PortId::new(p)) == 3);
        if view.node() == NodeId::new(0) && *view.me() == 3 && threes {
            Outcomes::certain(0)
        } else {
            self.0.apply(view, action)
        }
    }
}

/// The quotient decision of the plan a study of `alg` under the central
/// daemon computes before it explores.
fn quotient_reason<A, L>(alg: &A, spec: &L) -> String
where
    A: Algorithm,
    L: Legitimacy<A::State>,
{
    let ix = SpaceIndexer::new(alg, u64::from(u32::MAX)).unwrap();
    let plan = Plan::compute(
        alg,
        &ix,
        DaemonSpec::central(),
        spec,
        &PlanRequest::default(),
    );
    let plan = plan.unwrap();
    let decision = plan.decisions.iter().find(|d| d.setting == "quotient");
    decision.expect("a quotient decision").reason.clone()
}

#[test]
fn one_corrupted_view_breaks_strict_equivariance() {
    let g = builders::ring(12);
    let tokens = TokenCirculation::on_ring(&g).unwrap();
    assert_eq!(tokens.modulus(), 5);
    let mutant = Mutant(tokens.clone());
    let ix = SpaceIndexer::new(&tokens, u64::from(u32::MAX)).unwrap();
    let canon = GroupCanonicalizer::ring_rotation(&g, &ix).unwrap();
    let rotation = &canon.generators()[0];
    let same = |_: NodeId, s: &u8| *s;
    assert!(locally_equivariant(&tokens, rotation, same));
    assert!(!locally_equivariant(&mutant, rotation, same));

    let spec = tokens.legitimacy();
    let reason = quotient_reason(&tokens, &spec);
    assert!(
        reason.contains("(generator 0: strict)"),
        "the sound ring admits its rotation strictly: {reason}"
    );
    let reason = quotient_reason(&mutant, &spec);
    assert!(
        !reason.contains("generator 0: strict"),
        "the mutant's rotation must not pass strictly: {reason}"
    );
}
