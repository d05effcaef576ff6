//! Theorems 8 and 9: `Trans(·)` turns every deterministic weak-stabilizing
//! finite system into a probabilistically self-stabilizing one, under the
//! synchronous scheduler (Theorem 8) and the distributed randomized
//! scheduler (Theorem 9). Definition 7 (projected legitimacy) and the
//! structural lemmas back them.

use weak_stabilization::prelude::*;

use stab_algorithms::{GreedyColoring, ParentLeader, TokenCirculation, TwoProcessToggle};
use stab_checker::analyze;
use stab_core::{semantics, ProjectedLegitimacy, SpaceIndexer};
use stab_markov::AbsorbingChain;

const CAP: u64 = 1 << 22;

/// Applies the paper's pipeline to one weak-stabilizing input and asserts
/// the transformed classification under both covered schedulers.
fn transformer_pipeline<A>(
    make: impl Fn() -> A,
    spec_of: impl Fn(&A) -> Box<dyn Legitimacy<A::State> + Sync>,
) where
    A: Algorithm + Sync,
    A::State: Sync,
{
    let base = make();
    let spec = spec_of(&base);
    let base_report = analyze(&base, DaemonSpec::distributed(), &spec, CAP).unwrap();
    assert!(
        base_report.is_weak_stabilizing(),
        "input must be weak-stabilizing"
    );

    let trans = Transformed::new(make());
    let tspec = ProjectedLegitimacy::new(spec_of(&base));
    for daemon in [DaemonSpec::synchronous(), DaemonSpec::distributed()] {
        let report = analyze(&trans, daemon, &tspec, CAP).unwrap();
        assert!(
            report.is_probabilistically_self_stabilizing(),
            "Trans({}) must be probabilistically self-stabilizing under {daemon}",
            base.name()
        );
        assert!(!report.deterministic, "Trans adds P-variables");
        assert!(report.closure.holds(), "Lemma 1: strong closure lifts");
        assert!(report.weak.holds(), "Lemma 2: possible convergence lifts");
    }
}

#[test]
fn transformer_on_algorithm1() {
    transformer_pipeline(
        || TokenCirculation::on_ring(&builders::ring(4)).unwrap(),
        |a| Box::new(a.legitimacy()),
    );
}

#[test]
fn transformer_on_algorithm2() {
    transformer_pipeline(
        || ParentLeader::on_tree(&builders::path(4)).unwrap(),
        |a| Box::new(a.legitimacy()),
    );
}

#[test]
fn transformer_on_algorithm3() {
    transformer_pipeline(TwoProcessToggle::new, |a| Box::new(a.legitimacy()));
}

#[test]
fn transformer_on_coloring() {
    transformer_pipeline(
        || GreedyColoring::new(&builders::path(3)).unwrap(),
        |a| Box::new(a.legitimacy()),
    );
}

/// Lemma 1's mechanism: a transformed step either fires the inner statement
/// (heads) or leaves the projection unchanged (tails) — checked on every
/// configuration and activation of a small instance.
#[test]
fn projection_of_every_step_is_inner_step_or_stutter() {
    let base = TokenCirculation::on_ring(&builders::ring(3)).unwrap();
    let trans = Transformed::new(TokenCirculation::on_ring(&builders::ring(3)).unwrap());
    let ix = SpaceIndexer::new(&trans, CAP).unwrap();
    for cfg in ix.iter() {
        let proj = Transformed::<TokenCirculation>::project(&cfg);
        for (act, dist) in semantics::all_steps(&trans, DaemonSpec::distributed(), &cfg).unwrap() {
            for (_, next) in dist {
                let nproj = Transformed::<TokenCirculation>::project(&next);
                // Every process either stuttered or took its inner action.
                for v in trans.graph().nodes() {
                    if !act.contains(v) {
                        assert_eq!(nproj.get(v), proj.get(v), "non-movers are untouched");
                        continue;
                    }
                    let stutter = nproj.get(v) == proj.get(v) && !next.get(v).coin;
                    let fired = next.get(v).coin && {
                        let view = base.view(&proj, v);
                        let action = base.enabled_actions(&view).selected().expect("enabled");
                        base.apply(&view, action).into_certain() == *nproj.get(v)
                    };
                    assert!(
                        stutter || fired,
                        "step at {v} is neither stutter nor inner action"
                    );
                }
            }
        }
    }
}

/// Theorem 8's quantitative content: finite expected stabilization time
/// under the synchronous scheduler, for every transformed system checked.
#[test]
fn transformed_systems_have_finite_expected_times() {
    let trans = Transformed::new(ParentLeader::on_tree(&builders::star(4)).unwrap());
    let spec = ProjectedLegitimacy::new(
        ParentLeader::on_tree(&builders::star(4))
            .unwrap()
            .legitimacy(),
    );
    for daemon in [DaemonSpec::synchronous(), DaemonSpec::distributed()] {
        let chain = AbsorbingChain::build(&trans, daemon, &spec, CAP).unwrap();
        let times = chain.expected_steps().expect("almost-sure absorption");
        assert!(times.worst_case().is_finite());
        assert!(times.worst_case() > 0.0);
    }
}

/// The biased transformer keeps both theorems for any 0 < p < 1.
#[test]
fn biased_coins_also_work() {
    for p in [0.1, 0.9] {
        let trans = Transformed::with_bias(TwoProcessToggle::new(), p);
        let spec = ProjectedLegitimacy::new(TwoProcessToggle::new().legitimacy());
        let report = analyze(&trans, DaemonSpec::synchronous(), &spec, CAP).unwrap();
        assert!(report.is_probabilistically_self_stabilizing(), "bias {p}");
    }
}
