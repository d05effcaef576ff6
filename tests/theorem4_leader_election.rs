//! Theorem 4 (+ Lemmas 7–10, Figures 2–3): Algorithm 2 is a deterministic
//! weak-stabilizing leader election on anonymous trees under the
//! distributed strongly fair scheduler; so is the `log N`-bit center-based
//! election.

use weak_stabilization::prelude::*;

use stab_algorithms::leader_tree::{figure2_initial, figure2_schedule, figure3_initial};
use stab_algorithms::{CenterLeader, ParentLeader};
use stab_checker::analyze;
use stab_core::{semantics, SpaceIndexer};
use stab_graph::trees;

const CAP: u64 = 1 << 22;

#[test]
fn weak_stabilizing_on_every_labelled_tree_up_to_5() {
    for n in 2..=5usize {
        for g in trees::all_labelled_trees(n) {
            let alg = ParentLeader::on_tree(&g).unwrap();
            let report = analyze(&alg, DaemonSpec::distributed(), &alg.legitimacy(), CAP).unwrap();
            assert!(report.is_weak_stabilizing(), "Theorem 4 fails on {g:?}");
            assert!(report.probabilistic.holds(), "Theorem 7 on {g:?}");
        }
    }
}

#[test]
fn center_leader_weak_stabilizing_on_small_trees() {
    for g in [builders::path(4), builders::star(4), builders::path(5)] {
        let alg = CenterLeader::on_tree(&g).unwrap();
        let report = analyze(&alg, DaemonSpec::distributed(), &alg.legitimacy(), CAP).unwrap();
        assert!(report.is_weak_stabilizing(), "center leader on {g:?}");
    }
    // The tie-break chase exists exactly on *two-center* trees: the even
    // path oscillates (both centers flip together forever), while
    // unique-center trees (star, odd path) need no tie-break and turn out
    // fully self-stabilizing — a finding the checker surfaces.
    let two_centers = CenterLeader::on_tree(&builders::path(4)).unwrap();
    let r = analyze(
        &two_centers,
        DaemonSpec::distributed(),
        &two_centers.legitimacy(),
        CAP,
    )
    .unwrap();
    assert!(
        !r.is_self_stabilizing(Fairness::StronglyFair),
        "two-center trees admit the eternal double flip"
    );
    let unique_center = CenterLeader::on_tree(&builders::star(4)).unwrap();
    let r = analyze(
        &unique_center,
        DaemonSpec::distributed(),
        &unique_center.legitimacy(),
        CAP,
    )
    .unwrap();
    assert!(
        r.is_self_stabilizing(Fairness::WeaklyFair),
        "with a unique center, weak fairness suffices: ties only involve stale heights"
    );
    assert!(
        !r.is_self_stabilizing(Fairness::Unfair),
        "an unfair scheduler can starve a stale equal-height leaf and flip the hub forever"
    );
}

#[test]
fn lemma10_terminal_iff_lc_on_figure2_tree() {
    let g = builders::figure2_tree();
    let alg = ParentLeader::on_tree(&g).unwrap();
    let spec = alg.legitimacy();
    let ix = SpaceIndexer::new(&alg, CAP).unwrap();
    for cfg in ix.iter() {
        assert_eq!(alg.is_terminal(&cfg), spec.is_legitimate(&cfg));
    }
}

#[test]
fn figure2_execution_elects_p5() {
    let g = builders::figure2_tree();
    let alg = ParentLeader::on_tree(&g).unwrap();
    let mut cfg = figure2_initial();
    for movers in figure2_schedule() {
        cfg = semantics::deterministic_successor(&alg, &cfg, &Activation::new(movers));
    }
    assert!(alg.legitimacy().is_legitimate(&cfg));
    assert!(alg.is_leader(&cfg, NodeId::new(4)));
}

#[test]
fn figure3_oscillation_and_its_escape() {
    let (g, cfg0) = figure3_initial();
    let alg = ParentLeader::on_tree(&g).unwrap();
    // Synchronous: period-2 oscillation.
    let s1 = semantics::synchronous_step(&alg, &cfg0)
        .unwrap()
        .remove(0)
        .1;
    let s2 = semantics::synchronous_step(&alg, &s1).unwrap().remove(0).1;
    assert_eq!(cfg0, s2);
    // Escape: let only one side move — convergence follows. Move P1 alone
    // (A1: all its neighbours point at it), then let the greedy sequence
    // finish.
    let mut cfg =
        semantics::deterministic_successor(&alg, &cfg0, &Activation::singleton(NodeId::new(0)));
    let spec = alg.legitimacy();
    let mut guard = 0;
    while !spec.is_legitimate(&cfg) {
        let v = alg.enabled_nodes(&cfg)[0];
        cfg = semantics::deterministic_successor(&alg, &cfg, &Activation::singleton(v));
        guard += 1;
        assert!(guard < 200, "greedy escape must converge");
    }
}

#[test]
fn elected_leader_can_be_any_process() {
    // Weak stabilization picks *some* leader; over all terminal
    // configurations of the path-4, every process appears as leader in
    // some legitimate configuration (anonymity: no position is special).
    let g = builders::path(4);
    let alg = ParentLeader::on_tree(&g).unwrap();
    let spec = alg.legitimacy();
    let ix = SpaceIndexer::new(&alg, CAP).unwrap();
    let mut leaders = std::collections::HashSet::new();
    for cfg in ix.iter().filter(|c| spec.is_legitimate(c)) {
        for v in g.nodes() {
            if alg.is_leader(&cfg, v) {
                leaders.insert(v);
            }
        }
    }
    assert_eq!(leaders.len(), 4, "every process is electable: {leaders:?}");
}
