//! Differential tests of the compressed and disk edge stores against the
//! flat store: for every algorithm in the zoo, under every daemon, and
//! across the exploration modes (full sweep, rotation quotient,
//! reachable-only BFS), the system explored onto the compressed byte
//! stream — in RAM or spilled to `WSR1` chunk files — must decode to
//! exactly the flat system — labels, enabled masks, edges, reverse CSR —
//! and every stabilization verdict must coincide.

use stab_algorithms::{
    DijkstraRing, GreedyColoring, HermanRing, TokenCirculation, TwoProcessToggle,
};
use stab_checker::analysis::{analyze_space, StabilizationReport};
use stab_checker::ExploredSpace;
use stab_core::engine::{EdgeStoreKind, ExploreOptions};
use stab_core::{Algorithm, DaemonSpec, Legitimacy, LocalState};
use stab_graph::builders;

const CAP: u64 = 1 << 22;

fn assert_reports_equal(a: &StabilizationReport, b: &StabilizationReport, label: &str) {
    assert_eq!(a.states, b.states, "{label}: states");
    assert_eq!(a.legitimate, b.legitimate, "{label}: legitimate");
    assert_eq!(a.deterministic, b.deterministic, "{label}: determinism");
    for (pa, pb, name) in [
        (&a.closure, &b.closure, "closure"),
        (&a.weak, &b.weak, "weak"),
        (&a.self_unfair, &b.self_unfair, "unfair"),
        (&a.self_weakly_fair, &b.self_weakly_fair, "weakly fair"),
        (
            &a.self_strongly_fair,
            &b.self_strongly_fair,
            "strongly fair",
        ),
        (&a.self_gouda, &b.self_gouda, "Gouda"),
        (&a.probabilistic, &b.probabilistic, "probabilistic"),
    ] {
        assert_eq!(pa.holds(), pb.holds(), "{label}: {name}");
    }
}

/// Explores `alg` under both edge stores with the given options and pins
/// the compressed system statewise to the flat one.
fn store_differential<A, L>(alg: &A, spec: &L, opts: &ExploreOptions<A::State>, what: &str)
where
    A: Algorithm + Sync,
    A::State: LocalState + Sync,
    L: Legitimacy<A::State> + Sync,
{
    for daemon in DaemonSpec::LEGACY {
        let flat = ExploredSpace::explore_with(alg, daemon, spec, CAP, opts).expect("flat explore");
        let fr = analyze_space(&flat, alg.name(), spec.name());
        for kind in [EdgeStoreKind::Compressed, EdgeStoreKind::Disk] {
            let label = format!("{} under {daemon} ({what}, {})", alg.name(), kind.label());
            let copts = opts.clone().with_edge_store(kind);
            let comp =
                ExploredSpace::explore_with(alg, daemon, spec, CAP, &copts).expect("explore");

            assert_eq!(comp.edge_store().kind(), kind, "{label}: kind");
            assert_eq!(comp.total(), flat.total(), "{label}: states");
            assert_eq!(
                comp.edge_store().n_edges(),
                flat.edge_store().n_edges(),
                "{label}: edges"
            );
            if kind == EdgeStoreKind::Compressed {
                assert!(
                    comp.edge_store().edge_bytes() < flat.edge_store().edge_bytes(),
                    "{label}: compression"
                );
            }
            for id in 0..flat.total() {
                assert_eq!(comp.is_legit(id), flat.is_legit(id), "{label}: legit {id}");
                assert_eq!(
                    comp.is_initial(id),
                    flat.is_initial(id),
                    "{label}: initial {id}"
                );
                assert_eq!(
                    comp.enabled_mask(id),
                    flat.enabled_mask(id),
                    "{label}: enabled {id}"
                );
                let a: Vec<_> = flat.edge_iter(id).collect();
                let b: Vec<_> = comp.edge_iter(id).collect();
                assert_eq!(a, b, "{label}: row {id}");
            }

            // Every analysis (Tarjan, closures, fair cycles) runs over
            // the decoded cursors — chunk-cached on the disk tier: the
            // verdict sheets must be identical.
            let cr = analyze_space(&comp, alg.name(), spec.name());
            assert_reports_equal(&fr, &cr, &label);
        }
    }
}

fn full_and_reachable<A, L>(alg: &A, spec: &L)
where
    A: Algorithm + Sync,
    A::State: LocalState + Sync,
    L: Legitimacy<A::State> + Sync,
{
    store_differential(alg, spec, &ExploreOptions::full(), "full");
    // Reachable-only BFS from the algorithm's own legitimate seeds plus
    // the zero configuration exercises the streaming row-at-a-time path.
    let ix = stab_core::SpaceIndexer::new(alg, CAP).unwrap();
    let seeds: Vec<_> = ix.iter().step_by(3).collect();
    store_differential(alg, spec, &ExploreOptions::reachable(seeds), "reachable");
}

#[test]
fn token_circulation_matches_across_stores() {
    let alg = TokenCirculation::on_ring(&builders::ring(4)).unwrap();
    let spec = alg.legitimacy();
    full_and_reachable(&alg, &spec);
    store_differential(
        &alg,
        &spec,
        &ExploreOptions::full().with_ring_quotient(),
        "rotation quotient",
    );
}

#[test]
fn herman_matches_across_stores() {
    let alg = HermanRing::on_ring(&builders::ring(5)).unwrap();
    let spec = alg.legitimacy();
    full_and_reachable(&alg, &spec);
    store_differential(
        &alg,
        &spec,
        &ExploreOptions::full().with_ring_quotient(),
        "rotation quotient",
    );
}

#[test]
fn dijkstra_matches_across_stores() {
    let alg = DijkstraRing::on_ring(&builders::ring(4)).unwrap();
    let spec = alg.legitimacy();
    full_and_reachable(&alg, &spec);
}

#[test]
fn coloring_matches_across_stores() {
    let alg = GreedyColoring::new(&builders::path(4)).unwrap();
    let spec = alg.legitimacy();
    full_and_reachable(&alg, &spec);
}

#[test]
fn toggle_matches_across_stores() {
    let alg = TwoProcessToggle::new();
    let spec = alg.legitimacy();
    full_and_reachable(&alg, &spec);
}
