//! The symmetry admission table of the zoo: for each of the 11 members on
//! its perfbench zoo-lattice topology, under each of the four legacy
//! daemons, whether a forced exploration admits or rejects the
//! ring-rotation, ring-dihedral and automorphism quotients, and which
//! quotient the auto-planner picks (with its group order and whether the
//! equivariance gate passed it).
//!
//! Every cell is a behaviour of the equivariance gate or of structural
//! validation, so a refactor of how the gate is run (once per study,
//! carried from the plan to the exploration) must leave the table
//! unchanged.

use stab_algorithms::{
    CenterFinding, CenterLeader, DijkstraFourState, DijkstraRing, DijkstraThreeState,
    FairnessGadget, GreedyColoring, HermanRing, ParentLeader, TokenCirculation, TwoProcessToggle,
};
use stab_core::engine::{ExploreOptions, Plan, PlanRequest, Quotient, TransitionSystem};
use stab_core::{Algorithm, CoreError, DaemonSpec, Legitimacy, SpaceIndexer};
use stab_graph::builders;

const CAP: u64 = 1 << 22;

/// The table pinned from the gate as it stood before the plan started
/// handing its admission to the exploration.
const PINNED: &str = "\
fairness-gadget/fixed/central ring-rotation=rejected ring-dihedral=rejected automorphism=rejected plan=none order=1 gate=none-sound
fairness-gadget/fixed/distributed ring-rotation=rejected ring-dihedral=rejected automorphism=rejected plan=none order=1 gate=none-sound
fairness-gadget/fixed/synchronous ring-rotation=rejected ring-dihedral=rejected automorphism=rejected plan=none order=1 gate=none-sound
fairness-gadget/fixed/locally-central ring-rotation=rejected ring-dihedral=rejected automorphism=rejected plan=none order=1 gate=none-sound
two-process-toggle/fixed/central ring-rotation=rejected ring-dihedral=rejected automorphism=admitted plan=automorphism order=2 gate=passed
two-process-toggle/fixed/distributed ring-rotation=rejected ring-dihedral=rejected automorphism=admitted plan=automorphism order=2 gate=passed
two-process-toggle/fixed/synchronous ring-rotation=rejected ring-dihedral=rejected automorphism=admitted plan=automorphism order=2 gate=passed
two-process-toggle/fixed/locally-central ring-rotation=rejected ring-dihedral=rejected automorphism=admitted plan=automorphism order=2 gate=passed
herman(N=5)/ring(5)/central ring-rotation=admitted ring-dihedral=admitted automorphism=admitted plan=automorphism order=10 gate=passed
herman(N=5)/ring(5)/distributed ring-rotation=admitted ring-dihedral=admitted automorphism=admitted plan=automorphism order=10 gate=passed
herman(N=5)/ring(5)/synchronous ring-rotation=admitted ring-dihedral=admitted automorphism=admitted plan=automorphism order=10 gate=passed
herman(N=5)/ring(5)/locally-central ring-rotation=admitted ring-dihedral=admitted automorphism=admitted plan=automorphism order=10 gate=passed
dijkstra-k-state(N=4, K=4)/ring(4)/central ring-rotation=rejected ring-dihedral=rejected automorphism=rejected plan=none order=1 gate=none-sound
dijkstra-k-state(N=4, K=4)/ring(4)/distributed ring-rotation=rejected ring-dihedral=rejected automorphism=rejected plan=none order=1 gate=none-sound
dijkstra-k-state(N=4, K=4)/ring(4)/synchronous ring-rotation=rejected ring-dihedral=rejected automorphism=rejected plan=none order=1 gate=none-sound
dijkstra-k-state(N=4, K=4)/ring(4)/locally-central ring-rotation=rejected ring-dihedral=rejected automorphism=rejected plan=none order=1 gate=none-sound
dijkstra-three-state(N=5)/ring(5)/central ring-rotation=rejected ring-dihedral=rejected automorphism=rejected plan=none order=1 gate=none-sound
dijkstra-three-state(N=5)/ring(5)/distributed ring-rotation=rejected ring-dihedral=rejected automorphism=rejected plan=none order=1 gate=none-sound
dijkstra-three-state(N=5)/ring(5)/synchronous ring-rotation=rejected ring-dihedral=rejected automorphism=rejected plan=none order=1 gate=none-sound
dijkstra-three-state(N=5)/ring(5)/locally-central ring-rotation=rejected ring-dihedral=rejected automorphism=rejected plan=none order=1 gate=none-sound
dijkstra-four-state(N=4)/path(4)/central ring-rotation=rejected ring-dihedral=rejected automorphism=rejected plan=none order=1 gate=none-sound
dijkstra-four-state(N=4)/path(4)/distributed ring-rotation=rejected ring-dihedral=rejected automorphism=rejected plan=none order=1 gate=none-sound
dijkstra-four-state(N=4)/path(4)/synchronous ring-rotation=rejected ring-dihedral=rejected automorphism=rejected plan=none order=1 gate=none-sound
dijkstra-four-state(N=4)/path(4)/locally-central ring-rotation=rejected ring-dihedral=rejected automorphism=rejected plan=none order=1 gate=none-sound
token-circulation(N=5, m=2)/ring(5)/central ring-rotation=admitted ring-dihedral=admitted automorphism=admitted plan=automorphism order=10 gate=passed
token-circulation(N=5, m=2)/ring(5)/distributed ring-rotation=admitted ring-dihedral=admitted automorphism=admitted plan=automorphism order=10 gate=passed
token-circulation(N=5, m=2)/ring(5)/synchronous ring-rotation=admitted ring-dihedral=admitted automorphism=admitted plan=automorphism order=10 gate=passed
token-circulation(N=5, m=2)/ring(5)/locally-central ring-rotation=admitted ring-dihedral=admitted automorphism=admitted plan=automorphism order=10 gate=passed
greedy-coloring(N=4, Δ=2)/path(4)/central ring-rotation=rejected ring-dihedral=rejected automorphism=admitted plan=automorphism order=2 gate=passed
greedy-coloring(N=4, Δ=2)/path(4)/distributed ring-rotation=rejected ring-dihedral=rejected automorphism=admitted plan=automorphism order=2 gate=passed
greedy-coloring(N=4, Δ=2)/path(4)/synchronous ring-rotation=rejected ring-dihedral=rejected automorphism=admitted plan=automorphism order=2 gate=passed
greedy-coloring(N=4, Δ=2)/path(4)/locally-central ring-rotation=rejected ring-dihedral=rejected automorphism=admitted plan=automorphism order=2 gate=passed
center-finding(N=5)/path(5)/central ring-rotation=rejected ring-dihedral=rejected automorphism=admitted plan=automorphism order=2 gate=passed
center-finding(N=5)/path(5)/distributed ring-rotation=rejected ring-dihedral=rejected automorphism=admitted plan=automorphism order=2 gate=passed
center-finding(N=5)/path(5)/synchronous ring-rotation=rejected ring-dihedral=rejected automorphism=admitted plan=automorphism order=2 gate=passed
center-finding(N=5)/path(5)/locally-central ring-rotation=rejected ring-dihedral=rejected automorphism=admitted plan=automorphism order=2 gate=passed
center-leader(N=5, Δ=2)/path(5)/central ring-rotation=rejected ring-dihedral=rejected automorphism=admitted plan=automorphism order=2 gate=passed
center-leader(N=5, Δ=2)/path(5)/distributed ring-rotation=rejected ring-dihedral=rejected automorphism=admitted plan=automorphism order=2 gate=passed
center-leader(N=5, Δ=2)/path(5)/synchronous ring-rotation=rejected ring-dihedral=rejected automorphism=admitted plan=automorphism order=2 gate=passed
center-leader(N=5, Δ=2)/path(5)/locally-central ring-rotation=rejected ring-dihedral=rejected automorphism=admitted plan=automorphism order=2 gate=passed
parent-leader(N=5, Δ=2)/path(5)/central ring-rotation=rejected ring-dihedral=rejected automorphism=rejected plan=none order=1 gate=none-sound
parent-leader(N=5, Δ=2)/path(5)/distributed ring-rotation=rejected ring-dihedral=rejected automorphism=rejected plan=none order=1 gate=none-sound
parent-leader(N=5, Δ=2)/path(5)/synchronous ring-rotation=rejected ring-dihedral=rejected automorphism=rejected plan=none order=1 gate=none-sound
parent-leader(N=5, Δ=2)/path(5)/locally-central ring-rotation=rejected ring-dihedral=rejected automorphism=rejected plan=none order=1 gate=none-sound
";

/// Appends one row per legacy daemon for `alg` on `topology`.
fn rows<A, L>(table: &mut String, topology: &str, alg: &A, spec: &L)
where
    A: Algorithm + Sync,
    A::State: Sync,
    L: Legitimacy<A::State> + Sync,
{
    let ix = SpaceIndexer::new(alg, CAP).unwrap();
    for daemon in DaemonSpec::LEGACY {
        let mut cells = Vec::new();
        for q in [
            Quotient::RingRotation,
            Quotient::RingDihedral,
            Quotient::Automorphism,
        ] {
            let opts = ExploreOptions::full().with_quotient(q);
            let cell = match TransitionSystem::explore_with(alg, &ix, daemon, spec, &opts) {
                Ok(_) => "admitted",
                Err(CoreError::QuotientUnsupported { .. }) => "rejected",
                Err(e) => panic!("{} under {daemon} with {}: {e}", alg.name(), q.label()),
            };
            cells.push(format!("{}={cell}", q.label()));
        }
        let plan = Plan::compute(alg, &ix, daemon, spec, &PlanRequest::default()).unwrap();
        let decision = plan
            .decisions
            .iter()
            .find(|d| d.setting == "quotient")
            .unwrap();
        let gate = if decision.reason.starts_with("no sound symmetry group") {
            "none-sound"
        } else {
            assert!(decision.reason.contains("passed the equivariance gate"));
            "passed"
        };
        table.push_str(&format!(
            "{}/{topology}/{} {} plan={} order={} gate={gate}\n",
            alg.name(),
            daemon.name(),
            cells.join(" "),
            plan.quotient.label(),
            plan.group_order,
        ));
    }
}

#[test]
fn zoo_admission_table_is_pinned() {
    let mut t = String::new();
    let a = FairnessGadget::new();
    rows(&mut t, "fixed", &a, &a.legitimacy());
    let a = TwoProcessToggle::new();
    rows(&mut t, "fixed", &a, &a.legitimacy());
    let a = HermanRing::on_ring(&builders::ring(5)).unwrap();
    rows(&mut t, "ring(5)", &a, &a.legitimacy());
    let a = DijkstraRing::on_ring(&builders::ring(4)).unwrap();
    rows(&mut t, "ring(4)", &a, &a.legitimacy());
    let a = DijkstraThreeState::on_ring(&builders::ring(5)).unwrap();
    rows(&mut t, "ring(5)", &a, &a.legitimacy());
    let a = DijkstraFourState::on_path(&builders::path(4)).unwrap();
    rows(&mut t, "path(4)", &a, &a.legitimacy());
    let a = TokenCirculation::on_ring(&builders::ring(5)).unwrap();
    rows(&mut t, "ring(5)", &a, &a.legitimacy());
    let a = GreedyColoring::new(&builders::path(4)).unwrap();
    rows(&mut t, "path(4)", &a, &a.legitimacy());
    let a = CenterFinding::on_tree(&builders::path(5)).unwrap();
    rows(&mut t, "path(5)", &a, &a.legitimacy());
    let a = CenterLeader::on_tree(&builders::path(5)).unwrap();
    rows(&mut t, "path(5)", &a, &a.legitimacy());
    let a = ParentLeader::on_tree(&builders::path(5)).unwrap();
    rows(&mut t, "path(5)", &a, &a.legitimacy());
    assert_eq!(t, PINNED, "admission table drifted; actual:\n{t}");
}
