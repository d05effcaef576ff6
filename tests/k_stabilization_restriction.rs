//! The k-stabilization hook (§1 of the paper): restricting the admissible
//! initial configurations can turn an unsolvable self-stabilization problem
//! into a solvable one — and the checker's verdicts honour the restriction.

use weak_stabilization::prelude::*;

use stab_algorithms::TokenCirculation;
use stab_checker::analyze;
use stab_core::Restricted;

const CAP: u64 = 1 << 22;

#[test]
fn unrestricted_token_ring_fails_self_stabilization() {
    let alg = TokenCirculation::on_ring(&builders::ring(6)).unwrap();
    let report = analyze(&alg, DaemonSpec::distributed(), &alg.legitimacy(), CAP).unwrap();
    assert!(!report.is_self_stabilizing(Fairness::StronglyFair));
}

#[test]
fn two_token_initial_set_still_fails() {
    // The paper's Theorem 6 lasso uses exactly two tokens, so restricting
    // the initial set to ≤ 2 tokens does not help: the adversarial
    // alternation is still reachable.
    let base = TokenCirculation::on_ring(&builders::ring(6)).unwrap();
    let probe = TokenCirculation::on_ring(&builders::ring(6)).unwrap();
    let restricted = Restricted::new(base, "≤2 tokens", move |cfg| {
        probe.token_holders(cfg).len() <= 2
    });
    let spec = TokenCirculation::on_ring(&builders::ring(6))
        .unwrap()
        .legitimacy();
    let report = analyze(&restricted, DaemonSpec::distributed(), &spec, CAP).unwrap();
    assert!(report.weak.holds());
    assert!(!report.is_self_stabilizing(Fairness::StronglyFair));
    assert!(report.algorithm.contains("≤2 tokens"));
}

#[test]
fn single_token_initial_set_trivializes() {
    // k = 0 faults: starting legitimate, the system is vacuously
    // self-stabilizing under every fairness level — and the checker's
    // reachability honours that the legitimate set is closed.
    let base = TokenCirculation::on_ring(&builders::ring(6)).unwrap();
    let probe = TokenCirculation::on_ring(&builders::ring(6)).unwrap();
    let restricted = Restricted::new(base, "single token", move |cfg| {
        probe.token_holders(cfg).len() == 1
    });
    let spec = TokenCirculation::on_ring(&builders::ring(6))
        .unwrap()
        .legitimacy();
    let report = analyze(&restricted, DaemonSpec::distributed(), &spec, CAP).unwrap();
    for f in Fairness::ALL {
        assert!(report.is_self_stabilizing(f), "restricted start under {f}");
    }
    assert!(report.is_probabilistically_self_stabilizing());
}

#[test]
fn restriction_interacts_with_reachability_not_just_membership() {
    // Initial configurations with ≤ 2 tokens can still *reach* nothing
    // outside the ≤2-token region (token count never increases), so the
    // checker's reachable set is a strict subset of the full space.
    let base = TokenCirculation::on_ring(&builders::ring(5)).unwrap();
    let probe = TokenCirculation::on_ring(&builders::ring(5)).unwrap();
    let restricted = Restricted::new(base, "≤2 tokens", move |cfg| {
        probe.token_holders(cfg).len() <= 2
    });
    let spec = TokenCirculation::on_ring(&builders::ring(5))
        .unwrap()
        .legitimacy();
    let space =
        stab_checker::ExploredSpace::explore(&restricted, DaemonSpec::distributed(), &spec, CAP)
            .unwrap();
    let reachable = space.reachable_from_initial();
    let reached = reachable.count_ones();
    assert!(
        reached < space.total() as u64,
        "5-token configurations are unreachable"
    );
    // And every reachable configuration still has ≤ 2 tokens.
    let check = TokenCirculation::on_ring(&builders::ring(5)).unwrap();
    for id in reachable.ones() {
        assert!(check.token_holders(&space.config(id as u32)).len() <= 2);
    }
}
