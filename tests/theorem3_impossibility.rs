//! Theorem 3: no deterministic self-stabilizing leader election exists on
//! anonymous trees under the distributed strongly fair scheduler.
//!
//! The machine-checked form: on the (adversarially port-labeled) 4-chain,
//! the mirror-symmetric configuration set is non-empty, closed under
//! synchronous steps, and disjoint from every leader-election legitimate
//! set — so the synchronous schedule (a legal distributed strongly-fair
//! behaviour) never converges.

use weak_stabilization::prelude::*;

use stab_algorithms::{CenterLeader, ParentLeader};
use stab_checker::analyze;
use stab_checker::symmetry::{
    check_synchronous_symmetry, state_maps, symmetric_path4, Automorphism,
};

const CAP: u64 = 1 << 22;

#[test]
fn algorithm2_impossibility_witness() {
    let (g, mirror) = symmetric_path4();
    let alg = ParentLeader::on_tree(&g).unwrap();
    let v = check_synchronous_symmetry(
        &alg,
        &alg.legitimacy(),
        &mirror,
        state_maps::parent_port(),
        CAP,
    )
    .unwrap();
    assert!(v.equivariant);
    assert!(v.symmetric_configs > 0);
    assert!(v.closed);
    assert!(!v.intersects_legitimate);
    assert!(v.implies_impossibility());
}

#[test]
fn center_leader_impossibility_witness() {
    let (g, mirror) = symmetric_path4();
    let alg = CenterLeader::on_tree(&g).unwrap();
    let v = check_synchronous_symmetry(&alg, &alg.legitimacy(), &mirror, state_maps::value(), CAP)
        .unwrap();
    assert!(v.implies_impossibility());
}

#[test]
fn consequently_no_self_stabilization_under_distributed() {
    // The checker's direct verdicts concur with the symmetry argument.
    let (g, _) = symmetric_path4();
    for report in [
        {
            let alg = ParentLeader::on_tree(&g).unwrap();
            analyze(&alg, DaemonSpec::distributed(), &alg.legitimacy(), CAP).unwrap()
        },
        {
            let alg = CenterLeader::on_tree(&g).unwrap();
            analyze(&alg, DaemonSpec::distributed(), &alg.legitimacy(), CAP).unwrap()
        },
    ] {
        assert!(
            !report.is_self_stabilizing(Fairness::StronglyFair),
            "{} must not self-stabilize",
            report.algorithm
        );
        assert!(
            report.is_weak_stabilizing(),
            "{} is weak-stabilizing",
            report.algorithm
        );
    }
}

#[test]
fn fixed_point_free_mirror_is_essential() {
    // The 4-chain mirror swaps both pairs; a symmetric configuration can
    // have no distinguished process. On the 3-chain the mirror fixes the
    // middle node — and indeed leader election there escapes the argument:
    // the middle is a legitimate symmetric leader.
    let (_, mirror4) = symmetric_path4();
    assert!(!mirror4.has_fixed_point());

    let g3 = builders::path(3);
    let mirror3 = Automorphism::all(&g3)
        .unwrap()
        .into_iter()
        .find(|a| !a.is_identity())
        .unwrap();
    assert!(mirror3.has_fixed_point());
    let alg = ParentLeader::on_tree(&g3).unwrap();
    let v = check_synchronous_symmetry(
        &alg,
        &alg.legitimacy(),
        &mirror3,
        state_maps::parent_port(),
        CAP,
    )
    .unwrap();
    // A symmetric legitimate configuration exists: both endpoints point at
    // the fixed middle process, which is the leader.
    assert!(v.intersects_legitimate);
    assert!(!v.implies_impossibility());
}

#[test]
fn port_labeling_subtlety_is_documented_by_the_checker() {
    // On the canonical 4-chain the mirror reverses interior port order and
    // Algorithm 2's min-port tie-breaking stops being equivariant: the
    // closed-set argument needs the adversarial labeling. (The paper's
    // informal proof skips this; the reproduction surfaces it.)
    let g = builders::path(4);
    let mirror = Automorphism::all(&g)
        .unwrap()
        .into_iter()
        .find(|a| !a.is_identity())
        .unwrap();
    assert!(!mirror.is_port_preserving(&g));
    let alg = ParentLeader::on_tree(&g).unwrap();
    let v = check_synchronous_symmetry(
        &alg,
        &alg.legitimacy(),
        &mirror,
        state_maps::parent_port(),
        CAP,
    )
    .unwrap();
    assert!(!v.equivariant);
}
