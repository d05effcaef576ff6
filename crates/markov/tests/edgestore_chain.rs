//! Differential tests of the compressed and disk `Q` stores against the
//! flat store: chains built over the compressed or spilled edge tier
//! must produce bit-identical structure (transient sets, `Q` rows,
//! absorption vectors) and numerically identical quantitative results —
//! expected hitting times, absorption probabilities, and
//! stabilization-time CDFs — across the zoo, including quotient and
//! reachable modes.

use stab_algorithms::{DijkstraRing, HermanRing, TokenCirculation, TwoProcessToggle};
use stab_core::engine::{EdgeStoreKind, ExploreOptions};
use stab_core::{Algorithm, DaemonSpec, Legitimacy, LocalState, ProjectedLegitimacy, Transformed};
use stab_graph::builders;
use stab_markov::AbsorbingChain;

const CAP: u64 = 1 << 22;

/// Builds the chain under both tiers and pins structure + quantitative
/// results of the compressed one to the flat one.
fn chain_differential<A, L>(alg: &A, daemon: DaemonSpec, spec: &L, opts: &ExploreOptions<A::State>)
where
    A: Algorithm + Sync,
    A::State: LocalState + Sync,
    L: Legitimacy<A::State> + Sync,
{
    let flat = AbsorbingChain::build_with(alg, daemon, spec, CAP, opts).expect("flat chain");
    for kind in [EdgeStoreKind::Compressed, EdgeStoreKind::Disk] {
        let label = format!("{} under {daemon} ({})", alg.name(), kind.label());
        let copts = opts.clone().with_edge_store(kind);
        let comp = AbsorbingChain::build_with(alg, daemon, spec, CAP, &copts).expect("chain");
        tier_differential(&flat, &comp, kind, &label);
    }
}

/// Pins one non-flat chain statewise and numerically to the flat one.
fn tier_differential<S: LocalState>(
    flat: &AbsorbingChain<S>,
    comp: &AbsorbingChain<S>,
    kind: EdgeStoreKind,
    label: &str,
) {
    assert_eq!(comp.q().kind(), kind, "{label}: tier");
    assert_eq!(comp.n_transient(), flat.n_transient(), "{label}: transient");
    assert_eq!(comp.n_explored(), flat.n_explored(), "{label}: explored");
    assert_eq!(
        comp.represented_configs(),
        flat.represented_configs(),
        "{label}: represented"
    );
    assert_eq!(comp.q().n_entries(), flat.q().n_entries(), "{label}: nnz");
    if kind == EdgeStoreKind::Compressed {
        assert!(
            comp.q().q_bytes() < flat.q().q_bytes() || flat.q().n_entries() < 8,
            "{label}: Q compression ({} vs {} bytes)",
            comp.q().q_bytes(),
            flat.q().q_bytes()
        );
    } else {
        // The spilled rows are not part of the resident figure.
        assert!(
            comp.q().resident_q_bytes() <= comp.q().q_bytes(),
            "{label}: Q residency"
        );
    }
    // Q decodes row-for-row to the flat entries (probabilities are
    // interned exactly, by bit pattern, so this is equality — not
    // approximation).
    for i in 0..flat.n_transient() {
        assert_eq!(comp.q().row_vec(i), flat.q().row_vec(i), "{label}: row {i}");
    }
    assert_eq!(comp.absorb(), flat.absorb(), "{label}: absorption vector");
    assert_eq!(comp.step_moves(), flat.step_moves(), "{label}: step moves");
    assert_eq!(comp.transient_orbits(), flat.transient_orbits());
    assert!(comp.validate_stochastic(), "{label}: stochastic");

    // Quantitative agreement through the solvers (Gauss–Seidel decodes
    // the stream every sweep on the compressed tier).
    assert_eq!(
        flat.almost_surely_absorbing().is_ok(),
        comp.almost_surely_absorbing().is_ok(),
        "{label}: absorption check"
    );
    let fp = flat.absorption_probabilities().expect("flat solve");
    let cp = comp.absorption_probabilities().expect("compressed solve");
    for (i, (a, b)) in fp.iter().zip(&cp).enumerate() {
        assert!((a - b).abs() < 1e-12, "{label}: absorption {i}: {a} vs {b}");
    }
    if flat.almost_surely_absorbing().is_ok() {
        let ft = flat.expected_steps().expect("flat times");
        let ct = comp.expected_steps().expect("compressed times");
        for i in 0..flat.n_transient() {
            assert!(
                (ft.of_transient(i) - ct.of_transient(i)).abs() < 1e-9,
                "{label}: hitting time {i}"
            );
        }
        let fm = flat.expected_moves().expect("flat moves");
        let cm = comp.expected_moves().expect("compressed moves");
        for i in 0..flat.n_transient() {
            assert!(
                (fm.of_transient(i) - cm.of_transient(i)).abs() < 1e-9,
                "{label}: moves {i}"
            );
        }
    }
    let fc = flat.hitting_cdf_uniform(64);
    let cc = comp.hitting_cdf_uniform(64);
    for (k, (a, b)) in fc.iter().zip(&cc).enumerate() {
        assert!((a - b).abs() < 1e-12, "{label}: CDF[{k}]: {a} vs {b}");
    }
}

#[test]
fn herman_chain_matches_across_stores() {
    let alg = HermanRing::on_ring(&builders::ring(5)).unwrap();
    let spec = alg.legitimacy();
    chain_differential(
        &alg,
        DaemonSpec::synchronous(),
        &spec,
        &ExploreOptions::full(),
    );
    chain_differential(
        &alg,
        DaemonSpec::synchronous(),
        &spec,
        &ExploreOptions::full().with_ring_quotient(),
    );
}

#[test]
fn dijkstra_chain_matches_across_stores() {
    let alg = DijkstraRing::on_ring(&builders::ring(4)).unwrap();
    let spec = alg.legitimacy();
    chain_differential(&alg, DaemonSpec::central(), &spec, &ExploreOptions::full());
}

#[test]
fn transformed_toggle_chain_matches_across_stores() {
    let alg = Transformed::new(TwoProcessToggle::new());
    let spec = ProjectedLegitimacy::new(TwoProcessToggle::new().legitimacy());
    for daemon in [
        DaemonSpec::synchronous(),
        DaemonSpec::distributed(),
        DaemonSpec::central(),
    ] {
        chain_differential(&alg, daemon, &spec, &ExploreOptions::full());
    }
}

#[test]
fn token_ring_reachable_chain_matches_across_stores() {
    let alg = TokenCirculation::on_ring(&builders::ring(4)).unwrap();
    let spec = alg.legitimacy();
    chain_differential(&alg, DaemonSpec::central(), &spec, &ExploreOptions::full());
    let ix = stab_core::SpaceIndexer::new(&alg, CAP).unwrap();
    let seeds: Vec<_> = ix.iter().step_by(5).collect();
    chain_differential(
        &alg,
        DaemonSpec::central(),
        &spec,
        &ExploreOptions::reachable(seeds),
    );
}
