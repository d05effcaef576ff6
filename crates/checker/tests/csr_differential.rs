//! Differential tests of the CSR transition engine against the seed
//! exploration path.
//!
//! The reference system is built exactly the way the seed `ExploredSpace`
//! did it: `decode` every configuration, enumerate `semantics::all_steps`,
//! `encode` every successor, and collect nested `Vec` rows. The engine
//! must produce an edge-for-edge identical transition system — same
//! `(to, movers)` edges in the same order, same probabilities (within
//! floating-point association slack), same enabled masks and label sets —
//! and the stabilization analysis over both systems must yield identical
//! reports, across the algorithm zoo under all daemons.

use stab_algorithms::{
    DijkstraRing, GreedyColoring, HermanRing, ParentLeader, TokenCirculation, TwoProcessToggle,
};
use stab_checker::analysis::analyze_space;
use stab_checker::space::Edge;
use stab_checker::ExploredSpace;
use stab_core::engine::{node_mask, BitSet, Csr, TransitionSystem};
use stab_core::{
    semantics, Algorithm, DaemonSpec, Legitimacy, LocalState, ProjectedLegitimacy, SpaceIndexer,
    Transformed,
};
use stab_graph::builders;

const CAP: u64 = 1 << 22;

/// Seed-style exploration: nested rows, full decode/encode per step.
fn reference_system<A, L>(
    alg: &A,
    daemon: DaemonSpec,
    spec: &L,
    ix: &SpaceIndexer<A::State>,
) -> TransitionSystem
where
    A: Algorithm,
    A::State: LocalState,
    L: Legitimacy<A::State>,
{
    let total = ix.total();
    let mut rows: Vec<Vec<Edge>> = Vec::with_capacity(total as usize);
    let mut enabled = Vec::with_capacity(total as usize);
    let mut legit = BitSet::new(total as usize);
    let mut initial = BitSet::new(total as usize);
    let mut deterministic = true;
    for id in 0..total {
        let cfg = ix.decode(id);
        if spec.is_legitimate(&cfg) {
            legit.insert(id as usize);
        }
        if alg.is_initial(&cfg) {
            initial.insert(id as usize);
        }
        if deterministic && !semantics::is_deterministic_at(alg, &cfg) {
            deterministic = false;
        }
        enabled.push(node_mask(&alg.enabled_nodes(&cfg)));
        let steps = semantics::all_steps(alg, daemon, &cfg).expect("reference enumeration");
        let act_prob = if steps.is_empty() {
            0.0
        } else {
            1.0 / steps.len() as f64
        };
        let mut out: Vec<Edge> = Vec::new();
        for (activation, dist) in steps {
            let movers = node_mask(activation.nodes());
            for (p, next) in dist {
                out.push(Edge {
                    to: ix.encode(&next) as u32,
                    movers,
                    prob: act_prob * p,
                });
            }
        }
        out.sort_by_key(|e| (e.to, e.movers));
        // Merge equal (to, movers) pairs, summing probabilities — the seed
        // checker deduplicated them, the seed Markov builder summed them.
        let mut merged: Vec<Edge> = Vec::with_capacity(out.len());
        for e in out {
            match merged.last_mut() {
                Some(last) if last.to == e.to && last.movers == e.movers => last.prob += e.prob,
                _ => merged.push(e),
            }
        }
        rows.push(merged);
    }
    TransitionSystem::from_raw_parts(Csr::from_rows(rows), enabled, legit, initial, deterministic)
}

/// Asserts the two systems are edge-for-edge identical.
fn assert_systems_equal(engine: &TransitionSystem, reference: &TransitionSystem, label: &str) {
    assert_eq!(
        engine.n_configs(),
        reference.n_configs(),
        "{label}: config count"
    );
    assert_eq!(
        engine.deterministic(),
        reference.deterministic(),
        "{label}: determinism audit"
    );
    assert_eq!(engine.legit(), reference.legit(), "{label}: legitimate set");
    assert_eq!(
        engine.initial(),
        reference.initial(),
        "{label}: initial set"
    );
    for id in 0..engine.n_configs() {
        assert_eq!(
            engine.enabled_mask(id),
            reference.enabled_mask(id),
            "{label}: enabled mask of {id}"
        );
        let got = engine.edges(id).unwrap();
        let want = reference.edges(id).unwrap();
        assert_eq!(got.len(), want.len(), "{label}: edge count of {id}");
        for (g, w) in got.iter().zip(want) {
            assert_eq!((g.to, g.movers), (w.to, w.movers), "{label}: edge of {id}");
            assert!(
                (g.prob - w.prob).abs() < 1e-12,
                "{label}: edge probability of {id}: {} vs {}",
                g.prob,
                w.prob
            );
        }
    }
}

/// Runs the full differential (system + stabilization report) for one
/// algorithm under every daemon.
fn differential<A, L>(alg: &A, spec: &L)
where
    A: Algorithm + Sync,
    A::State: Sync,
    L: Legitimacy<A::State> + Sync,
{
    for daemon in DaemonSpec::LEGACY {
        let label = format!("{} under {daemon}", alg.name());
        let space = ExploredSpace::explore(alg, daemon, spec, CAP).expect("engine explore");
        let ix = SpaceIndexer::new(alg, CAP).unwrap();
        let reference = reference_system(alg, daemon, spec, &ix);
        assert_systems_equal(space.transition_system(), &reference, &label);

        // The stabilization analysis over the independently-built systems
        // must agree verdict for verdict.
        let engine_report = analyze_space(&space, alg.name(), spec.name());
        let ref_space = ExploredSpace::from_parts(ix, daemon, reference);
        let ref_report = analyze_space(&ref_space, alg.name(), spec.name());
        assert_eq!(engine_report.states, ref_report.states, "{label}");
        assert_eq!(engine_report.legitimate, ref_report.legitimate, "{label}");
        assert_eq!(
            engine_report.deterministic, ref_report.deterministic,
            "{label}"
        );
        assert_eq!(
            engine_report.closure, ref_report.closure,
            "{label}: closure"
        );
        assert_eq!(engine_report.weak, ref_report.weak, "{label}: weak");
        assert_eq!(
            engine_report.self_unfair, ref_report.self_unfair,
            "{label}: unfair"
        );
        assert_eq!(
            engine_report.self_weakly_fair, ref_report.self_weakly_fair,
            "{label}: weakly fair"
        );
        assert_eq!(
            engine_report.self_strongly_fair, ref_report.self_strongly_fair,
            "{label}: strongly fair"
        );
        assert_eq!(
            engine_report.self_gouda, ref_report.self_gouda,
            "{label}: Gouda"
        );
        assert_eq!(
            engine_report.probabilistic, ref_report.probabilistic,
            "{label}: probabilistic"
        );
    }
}

#[test]
fn token_circulation_matches_reference() {
    for n in [3, 4, 5] {
        let alg = TokenCirculation::on_ring(&builders::ring(n)).unwrap();
        differential(&alg, &alg.legitimacy());
    }
}

#[test]
fn two_process_toggle_matches_reference() {
    let alg = TwoProcessToggle::new();
    differential(&alg, &alg.legitimacy());
}

#[test]
fn greedy_coloring_matches_reference() {
    let g = builders::path(4);
    let alg = GreedyColoring::new(&g).unwrap();
    differential(&alg, &alg.legitimacy());
}

#[test]
fn dijkstra_ring_matches_reference() {
    let alg = DijkstraRing::on_ring(&builders::ring(3)).unwrap();
    differential(&alg, &alg.legitimacy());
}

#[test]
fn herman_ring_matches_reference() {
    // Probabilistic: exercises the branch-product merging.
    let alg = HermanRing::on_ring(&builders::ring(3)).unwrap();
    differential(&alg, &alg.legitimacy());
}

#[test]
fn parent_leader_matches_reference() {
    let g = builders::path(4);
    let alg = ParentLeader::on_tree(&g).unwrap();
    differential(&alg, &alg.legitimacy());
}

#[test]
fn transformed_toggle_matches_reference() {
    // The transformer adds a coin to every process: probabilistic branches
    // on every activation subset.
    let alg = Transformed::new(TwoProcessToggle::new());
    let spec = ProjectedLegitimacy::new(TwoProcessToggle::new().legitimacy());
    differential(&alg, &spec);
}
