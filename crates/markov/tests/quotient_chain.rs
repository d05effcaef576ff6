//! Differential tests of quotient and reachable-mode absorbing chains
//! against the full-space chain.
//!
//! A symmetry quotient (rotation, dihedral, leaf permutation) runs the
//! Definition 6 chain on one representative per group orbit. For every
//! admitted algorithm the quotient chain must reproduce — state for
//! state — the full chain's expected hitting times (every concrete
//! configuration's time equals its representative's), absorption
//! probabilities, hitting-time CDFs, and the uniform-initial average
//! (orbit-weighted on the quotient side). The dihedral quotient must
//! additionally agree with the rotation quotient's lumping state for
//! state — the half-size chain loses no precision.

use stab_algorithms::{GreedyColoring, HermanRing, TokenCirculation};
use stab_core::engine::{ExploreOptions, Quotient};
use stab_core::{
    Algorithm, DaemonSpec, Legitimacy, ProjectedLegitimacy, SpaceIndexer, Transformed,
};
use stab_graph::builders;
use stab_markov::AbsorbingChain;

const CAP: u64 = 1 << 22;

/// Solver agreement slack: dense elimination vs possibly different
/// pivoting on the lumped system.
const TOL: f64 = 1e-8;

fn hitting_time_differential_with<A, L>(alg: &A, daemon: DaemonSpec, spec: &L, quotient: Quotient)
where
    A: Algorithm + Sync,
    A::State: Sync,
    L: Legitimacy<A::State> + Sync,
{
    let label = format!("{} under {daemon} ({quotient:?})", alg.name());
    let full = AbsorbingChain::build(alg, daemon, spec, CAP).expect("full chain");
    let opts = ExploreOptions::full().with_quotient(quotient);
    let quot = AbsorbingChain::build_with(alg, daemon, spec, CAP, &opts).expect("quotient chain");

    assert!(full.validate_stochastic(), "{label}: full stochastic");
    assert!(quot.validate_stochastic(), "{label}: quotient stochastic");
    assert_eq!(
        full.almost_surely_absorbing().is_ok(),
        quot.almost_surely_absorbing().is_ok(),
        "{label}: absorption verdict"
    );
    assert_eq!(
        quot.represented_configs(),
        full.n_configs(),
        "{label}: orbits tile the space"
    );
    if full.almost_surely_absorbing().is_err() {
        return;
    }

    let full_times = full.expected_steps().expect("full solve");
    let quot_times = quot.expected_steps().expect("quotient solve");

    // Per-configuration agreement: every concrete configuration's hitting
    // time equals its orbit representative's.
    let ix = SpaceIndexer::new(alg, CAP).unwrap();
    for cfg in ix.iter() {
        let t_full = full.expected_from(&full_times, &cfg);
        let t_quot = quot.expected_from(&quot_times, &cfg);
        assert!(
            (t_full - t_quot).abs() < TOL,
            "{label}: {cfg:?}: full {t_full} vs quotient {t_quot}"
        );
    }

    // The orbit-weighted quotient average is the full uniform average.
    let avg_full = full_times.average_uniform(full.n_configs());
    let avg_quot = quot_times.average_weighted(quot.transient_orbits(), quot.represented_configs());
    assert!(
        (avg_full - avg_quot).abs() < TOL,
        "{label}: uniform average {avg_full} vs weighted {avg_quot}"
    );

    // Expected moves (work) lump identically: the per-step activation-size
    // reward is rotation-invariant.
    let full_moves = full.expected_moves().expect("full moves");
    let quot_moves = quot.expected_moves().expect("quotient moves");
    for cfg in ix.iter() {
        let m_full = full.expected_from(&full_moves, &cfg);
        let m_quot = quot.expected_from(&quot_moves, &cfg);
        assert!(
            (m_full - m_quot).abs() < TOL,
            "{label}: moves at {cfg:?}: {m_full} vs {m_quot}"
        );
    }

    // Absorption probabilities agree (all 1 when almost surely absorbing).
    let p_full = full.absorption_probabilities().expect("full absorption");
    let p_quot = quot
        .absorption_probabilities()
        .expect("quotient absorption");
    for (i, p) in p_quot.iter().enumerate() {
        assert!((p - 1.0).abs() < TOL, "{label}: quotient absorption {p}");
        let _ = i;
    }
    for p in &p_full {
        assert!((p - 1.0).abs() < TOL, "{label}: full absorption {p}");
    }
}

fn hitting_time_differential<A, L>(alg: &A, daemon: DaemonSpec, spec: &L)
where
    A: Algorithm + Sync,
    A::State: Sync,
    L: Legitimacy<A::State> + Sync,
{
    hitting_time_differential_with(alg, daemon, spec, Quotient::RingRotation);
}

#[test]
fn herman_quotient_hitting_times_match_full() {
    for n in [3, 5, 7] {
        let alg = HermanRing::on_ring(&builders::ring(n)).unwrap();
        hitting_time_differential(&alg, DaemonSpec::synchronous(), &alg.legitimacy());
    }
}

/// Herman under the dihedral quotient: hitting times, moves, absorption
/// probabilities and averages all coincide with the full space — even
/// though Herman's single steps are not reflection-equivariant, its
/// absorption law is reversal-invariant, which is exactly what the
/// engine's lumped gate certifies on samples and this suite pins in full.
#[test]
fn herman_dihedral_hitting_times_match_full() {
    for n in [3, 5, 7] {
        let alg = HermanRing::on_ring(&builders::ring(n)).unwrap();
        hitting_time_differential_with(
            &alg,
            DaemonSpec::synchronous(),
            &alg.legitimacy(),
            Quotient::RingDihedral,
        );
    }
}

/// The dihedral quotient agrees with the rotation quotient's lumping
/// state for state: every concrete configuration gets the same expected
/// hitting time from both, from ≈ half the states.
#[test]
fn herman_dihedral_matches_rotation_quotient_statewise() {
    let alg = HermanRing::on_ring(&builders::ring(7)).unwrap();
    let spec = alg.legitimacy();
    let rot = AbsorbingChain::build_with(
        &alg,
        DaemonSpec::synchronous(),
        &spec,
        CAP,
        &ExploreOptions::full().with_quotient(Quotient::RingRotation),
    )
    .unwrap();
    let dih = AbsorbingChain::build_with(
        &alg,
        DaemonSpec::synchronous(),
        &spec,
        CAP,
        &ExploreOptions::full().with_quotient(Quotient::RingDihedral),
    )
    .unwrap();
    assert!(dih.n_explored() <= rot.n_explored());
    assert_eq!(dih.represented_configs(), rot.represented_configs());
    let t_rot = rot.expected_steps().unwrap();
    let t_dih = dih.expected_steps().unwrap();
    let ix = SpaceIndexer::new(&alg, CAP).unwrap();
    for cfg in ix.iter() {
        assert!(
            (rot.expected_from(&t_rot, &cfg) - dih.expected_from(&t_dih, &cfg)).abs() < TOL,
            "{cfg:?}"
        );
    }
    // Orbit-weighted averages agree too.
    let avg_rot = t_rot.average_weighted(rot.transient_orbits(), rot.represented_configs());
    let avg_dih = t_dih.average_weighted(dih.transient_orbits(), dih.represented_configs());
    assert!((avg_rot - avg_dih).abs() < TOL);
}

/// Greedy coloring on a star under the leaf-permutation quotient: the
/// central-daemon chain absorbs almost surely and the lumped hitting
/// times match the full space on every concrete configuration.
#[test]
fn coloring_leaf_quotient_hitting_times_match_full() {
    let g = builders::star(5);
    let alg = GreedyColoring::new(&g).unwrap();
    hitting_time_differential_with(
        &alg,
        DaemonSpec::central(),
        &alg.legitimacy(),
        Quotient::Automorphism,
    );
}

#[test]
fn transformed_token_ring_quotient_times_match_full() {
    for daemon in [DaemonSpec::synchronous(), DaemonSpec::distributed()] {
        let base = TokenCirculation::on_ring(&builders::ring(4)).unwrap();
        let alg = Transformed::new(TokenCirculation::on_ring(&builders::ring(4)).unwrap());
        let spec = ProjectedLegitimacy::new(base.legitimacy());
        hitting_time_differential(&alg, daemon, &spec);
    }
}

/// A reachable-mode chain seeded with every configuration reproduces the
/// full chain's times exactly (same states, BFS ids).
#[test]
fn reachable_chain_with_all_seeds_matches_full() {
    let alg = HermanRing::on_ring(&builders::ring(5)).unwrap();
    let spec = alg.legitimacy();
    let ix = SpaceIndexer::new(&alg, CAP).unwrap();
    let full = AbsorbingChain::build(&alg, DaemonSpec::synchronous(), &spec, CAP).unwrap();
    let opts = ExploreOptions::reachable(ix.iter().collect());
    let reach =
        AbsorbingChain::build_with(&alg, DaemonSpec::synchronous(), &spec, CAP, &opts).unwrap();
    assert_eq!(reach.n_transient(), full.n_transient());
    assert!(reach.validate_stochastic());
    let t_full = full.expected_steps().unwrap();
    let t_reach = reach.expected_steps().unwrap();
    for cfg in ix.iter() {
        assert!(
            (full.expected_from(&t_full, &cfg) - reach.expected_from(&t_reach, &cfg)).abs() < TOL,
            "{cfg:?}"
        );
    }
}

/// A reachable-mode chain from a strict seed set: `transient_index`
/// reports unexplored configurations as `None`, and the explored times
/// match the full chain (hitting times only depend on the forward
/// closure).
#[test]
fn reachable_chain_from_strict_seeds() {
    let alg = Transformed::new(TokenCirculation::on_ring(&builders::ring(3)).unwrap());
    let base = TokenCirculation::on_ring(&builders::ring(3)).unwrap();
    let spec = ProjectedLegitimacy::new(base.legitimacy());
    let seed = Transformed::<TokenCirculation>::lift(
        &stab_core::Configuration::from_vec(vec![1u8, 1, 0]),
        false,
    );
    let opts = ExploreOptions::reachable(vec![seed.clone()]);
    let reach =
        AbsorbingChain::build_with(&alg, DaemonSpec::distributed(), &spec, CAP, &opts).unwrap();
    let full = AbsorbingChain::build(&alg, DaemonSpec::distributed(), &spec, CAP).unwrap();
    assert!(reach.n_explored() as u64 <= full.n_configs());
    assert!(reach.validate_stochastic());
    let t_reach = reach.expected_steps().unwrap();
    let t_full = full.expected_steps().unwrap();
    assert!(
        (reach.expected_from(&t_reach, &seed) - full.expected_from(&t_full, &seed)).abs() < TOL,
        "seed hitting time"
    );
}

/// The uniform-initial hitting-time CDF of a quotient chain matches the
/// full chain's pointwise: orbit weights make the lumped distribution
/// evolve exactly like the concrete uniform one — for the rotation *and*
/// the dihedral group.
#[test]
fn quotient_cdf_matches_full() {
    let alg = HermanRing::on_ring(&builders::ring(5)).unwrap();
    let spec = alg.legitimacy();
    let full = AbsorbingChain::build(&alg, DaemonSpec::synchronous(), &spec, CAP).unwrap();
    let cdf_full = full.hitting_cdf_uniform(60);
    // Herman(5): 10 of the 32 configurations are legitimate, so the
    // initially absorbed mass is exactly 10/32 on both sides.
    assert!((cdf_full[0] - 10.0 / 32.0).abs() < 1e-12);
    for quotient in [Quotient::RingRotation, Quotient::RingDihedral] {
        let opts = ExploreOptions::full().with_quotient(quotient);
        let quot =
            AbsorbingChain::build_with(&alg, DaemonSpec::synchronous(), &spec, CAP, &opts).unwrap();
        let cdf_quot = quot.hitting_cdf_uniform(60);
        for (k, (a, b)) in cdf_full.iter().zip(&cdf_quot).enumerate() {
            assert!(
                (a - b).abs() < 1e-9,
                "cdf[{k}] ({quotient:?}): full {a} vs quotient {b}"
            );
        }
        assert!((cdf_quot.last().unwrap() - 1.0).abs() < 1e-6);
    }
}

/// Reachable-mode chains refuse to report a (meaningless) expected time
/// for configurations outside the explored set.
#[test]
fn unexplored_configuration_is_reported_not_zeroed() {
    let alg = TokenCirculation::on_ring(&builders::ring(4)).unwrap();
    let spec = alg.legitimacy();
    // The all-zero configuration is terminal-free but from it the chain
    // cannot reach every configuration.
    let seed = stab_core::Configuration::from_vec(vec![0u8, 0, 0, 0]);
    let opts = ExploreOptions::reachable(vec![seed.clone()]);
    let chain = AbsorbingChain::build_with(&alg, DaemonSpec::central(), &spec, CAP, &opts).unwrap();
    assert!(chain.is_explored(&seed));
    // Find some unexplored configuration.
    let ix = SpaceIndexer::new(&alg, CAP).unwrap();
    let unexplored = ix
        .iter()
        .find(|cfg| !chain.is_explored(cfg))
        .expect("the reachable set is strict");
    assert_eq!(chain.transient_index(&unexplored), None);
    let times = chain.expected_steps().unwrap();
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        chain.expected_from(&times, &unexplored)
    }));
    assert!(result.is_err(), "expected_from must panic, not return 0");
}

/// Quotient + reachable compose for the chain as well.
#[test]
fn reachable_quotient_chain_matches_full() {
    let alg = HermanRing::on_ring(&builders::ring(5)).unwrap();
    let spec = alg.legitimacy();
    let ix = SpaceIndexer::new(&alg, CAP).unwrap();
    let full = AbsorbingChain::build(&alg, DaemonSpec::synchronous(), &spec, CAP).unwrap();
    let opts = ExploreOptions::reachable(ix.iter().collect()).with_ring_quotient();
    let quot =
        AbsorbingChain::build_with(&alg, DaemonSpec::synchronous(), &spec, CAP, &opts).unwrap();
    assert_eq!(quot.represented_configs(), full.n_configs());
    let t_full = full.expected_steps().unwrap();
    let t_quot = quot.expected_steps().unwrap();
    for cfg in ix.iter() {
        assert!(
            (full.expected_from(&t_full, &cfg) - quot.expected_from(&t_quot, &cfg)).abs() < TOL,
            "{cfg:?}"
        );
    }
}
