//! The fused solve against the one-side solves: one
//! `expected_steps_and_absorption_with` call must return exactly what
//! `expected_steps_with` and `absorption_probabilities_with` return when
//! run separately, bit for bit, on every `Q` tier and on both solver
//! paths (dense elimination and Gauss–Seidel).

use stab_algorithms::{HermanRing, TwoProcessToggle};
use stab_core::engine::{Budget, EdgeStoreKind, ExploreOptions, Quotient};
use stab_core::{Algorithm, Daemon, Legitimacy, LocalState};
use stab_graph::builders;
use stab_markov::{AbsorbingChain, MarkovError};

const CAP: u64 = 1 << 22;

/// Transient counts above this take the Gauss–Seidel path (the solver's
/// dense limit).
const DENSE_LIMIT: usize = 600;

const TIERS: [EdgeStoreKind; 3] = [
    EdgeStoreKind::Flat,
    EdgeStoreKind::Compressed,
    EdgeStoreKind::Disk,
];

fn bits(x: &[f64]) -> Vec<u64> {
    x.iter().map(|v| v.to_bits()).collect()
}

/// Builds the chain on every tier and pins the fused solve to the two
/// separate ones; returns the transient count.
fn fused_equals_separate<A, L>(
    alg: &A,
    daemon: Daemon,
    spec: &L,
    opts: ExploreOptions<A::State>,
) -> usize
where
    A: Algorithm + Sync,
    A::State: LocalState + Sync,
    L: Legitimacy<A::State> + Sync,
{
    let mut n = 0;
    for kind in TIERS {
        let label = format!("{} under {daemon} ({})", alg.name(), kind.label());
        let opts = opts.clone().with_edge_store(kind);
        let chain = AbsorbingChain::build_with(alg, daemon, spec, CAP, &opts).expect("chain");
        assert_eq!(chain.q().kind(), kind, "{label}: tier");
        let budget = Budget::unlimited();
        let (times, absorption) = chain
            .expected_steps_and_absorption_with(&budget)
            .expect("fused solve");
        let solo_times = chain.expected_steps_with(&budget).expect("expected times");
        let solo_absorption = chain
            .absorption_probabilities_with(&budget)
            .expect("absorption probabilities");
        assert_eq!(
            bits(times.as_slice()),
            bits(solo_times.as_slice()),
            "{label}: times"
        );
        assert_eq!(
            bits(&absorption),
            bits(&solo_absorption),
            "{label}: absorption"
        );
        n = chain.n_transient();
    }
    n
}

#[test]
fn fused_solve_is_bit_identical_on_the_dense_path() {
    let alg = HermanRing::on_ring(&builders::ring(7)).unwrap();
    let n = fused_equals_separate(
        &alg,
        Daemon::Synchronous,
        &alg.legitimacy(),
        ExploreOptions::full(),
    );
    assert!(
        n > 0 && n <= DENSE_LIMIT,
        "dense path: {n} transient states"
    );
}

#[test]
fn fused_solve_is_bit_identical_on_the_gauss_seidel_path() {
    // Herman N=13 on the rotation quotient: over 600 transient necklaces.
    let alg = HermanRing::on_ring(&builders::ring(13)).unwrap();
    let opts = ExploreOptions::full().with_quotient(Quotient::RingRotation);
    let n = fused_equals_separate(&alg, Daemon::Synchronous, &alg.legitimacy(), opts);
    assert!(n > DENSE_LIMIT, "Gauss–Seidel path: {n} transient states");
}

#[test]
fn fused_solve_refuses_a_non_absorbing_chain_before_solving() {
    // Algorithm 3 under the central daemon never leaves ⟨false, false⟩.
    let alg = TwoProcessToggle::new();
    for kind in TIERS {
        let opts = ExploreOptions::full().with_edge_store(kind);
        let chain =
            AbsorbingChain::build_with(&alg, Daemon::Central, &alg.legitimacy(), CAP, &opts)
                .unwrap();
        // An exhausted budget would trip the first solver probe, so a
        // `NotAbsorbing` answer shows no solve was attempted.
        let expired = Budget::unlimited().with_wall_time(std::time::Duration::ZERO);
        let err = chain
            .expected_steps_and_absorption_with(&expired)
            .unwrap_err();
        assert!(matches!(err, MarkovError::NotAbsorbing { .. }), "{err}");
        assert_eq!(err, chain.expected_steps().unwrap_err());
        assert_eq!(expired.probes_seen(), 0, "no solver probe was taken");
    }
}
