//! Theorems 5, 6 and 7: the fairness hierarchy.
//!
//! * Theorem 5 (Gouda): finite weak-stabilizing systems self-stabilize
//!   under Gouda's strong fairness.
//! * Theorem 6: Gouda fairness is *strictly* stronger than classical strong
//!   fairness (the 6-ring two-token alternation separates them).
//! * Theorem 7: Gouda-self-stabilization ≡ probabilistic
//!   self-stabilization under the randomized scheduler.

use weak_stabilization::prelude::*;

use stab_algorithms::{
    DijkstraRing, GreedyColoring, ParentLeader, TokenCirculation, TwoProcessToggle,
};
use stab_checker::theorems::{theorem5_and_7_agree, theorem6_separation};
use stab_checker::{analyze, StabilizationReport};

const CAP: u64 = 1 << 22;

fn zoo_reports() -> Vec<StabilizationReport> {
    let mut out = Vec::new();
    for daemon in [
        DaemonSpec::central(),
        DaemonSpec::distributed(),
        DaemonSpec::synchronous(),
    ] {
        let alg = TokenCirculation::on_ring(&builders::ring(5)).unwrap();
        out.push(analyze(&alg, daemon, &alg.legitimacy(), CAP).unwrap());
        let alg = ParentLeader::on_tree(&builders::path(4)).unwrap();
        out.push(analyze(&alg, daemon, &alg.legitimacy(), CAP).unwrap());
        let alg = TwoProcessToggle::new();
        out.push(analyze(&alg, daemon, &alg.legitimacy(), CAP).unwrap());
        let alg = GreedyColoring::new(&builders::path(3)).unwrap();
        out.push(analyze(&alg, daemon, &alg.legitimacy(), CAP).unwrap());
        let alg = DijkstraRing::on_ring(&builders::ring(4)).unwrap();
        out.push(analyze(&alg, daemon, &alg.legitimacy(), CAP).unwrap());
    }
    out
}

#[test]
fn theorem5_weak_implies_gouda_self() {
    for r in zoo_reports() {
        if r.closure.holds() && r.weak.holds() {
            assert!(
                r.self_under(Fairness::Gouda).holds(),
                "Theorem 5 violated: {} under {}",
                r.algorithm,
                r.daemon
            );
        }
    }
}

#[test]
fn theorem7_gouda_equals_probabilistic_everywhere() {
    for r in zoo_reports() {
        assert!(
            theorem5_and_7_agree(&r),
            "Theorem 7 violated: {} under {}",
            r.algorithm,
            r.daemon
        );
    }
}

#[test]
fn theorem6_strict_separation_on_the_6_ring() {
    let alg = TokenCirculation::on_ring(&builders::ring(6)).unwrap();
    let r = analyze(&alg, DaemonSpec::distributed(), &alg.legitimacy(), CAP).unwrap();
    assert!(
        theorem6_separation(&r),
        "Gouda holds, strong fairness fails"
    );
    // The separation also appears under the *central* scheduler — the
    // paper's counterexample explicitly uses the central strongly fair
    // scheduler.
    let rc = analyze(&alg, DaemonSpec::central(), &alg.legitimacy(), CAP).unwrap();
    assert!(theorem6_separation(&rc));
}

#[test]
fn fairness_ladder_is_monotone_on_every_report() {
    for r in zoo_reports() {
        let ladder: Vec<bool> = Fairness::ALL
            .iter()
            .map(|&f| r.self_under(f).holds())
            .collect();
        for w in ladder.windows(2) {
            assert!(
                !w[0] || w[1],
                "stronger fairness lost convergence: {} under {}",
                r.algorithm,
                r.daemon
            );
        }
    }
}

#[test]
fn gouda_failures_produce_closed_component_witnesses() {
    // For systems that are not even weak-stabilizing (toggle under the
    // central daemon), the Gouda verdict fails and the probabilistic
    // verdict agrees (both report unreachability of L).
    let alg = TwoProcessToggle::new();
    let r = analyze(&alg, DaemonSpec::central(), &alg.legitimacy(), CAP).unwrap();
    assert!(!r.weak.holds());
    assert!(!r.self_under(Fairness::Gouda).holds());
    assert!(!r.probabilistic.holds());
}
