//! The residual of the fused block solve: for both right-hand sides of
//! `expected_steps_and_absorption_with` (`1` for expected times, the
//! one-step absorption vector for absorption probabilities),
//! ‖b − (I − Q) x‖∞ stays at or below 1e-11 on the Gauss–Seidel chains
//! of synchronous Herman rings, whichever row source each block was swept
//! from — the store or the solver's decoded scratch — and on the
//! compressed tier as on the flat one.

use stab_algorithms::HermanRing;
use stab_core::engine::{Budget, EdgeStoreKind, ExploreOptions, Quotient};
use stab_core::DaemonSpec;
use stab_graph::builders;
use stab_markov::AbsorbingChain;

const CAP: u64 = 1 << 22;

/// Transient counts above this take the Gauss–Seidel path (the solver's
/// dense limit).
const DENSE_LIMIT: usize = 600;

/// The largest residual accepted on either side.
const MAX_RESIDUAL: f64 = 1e-11;

/// ‖b − (I − Q) x‖∞ over the chain's transient rows.
fn residual(chain: &AbsorbingChain<bool>, b: &[f64], x: &[f64]) -> f64 {
    (0..chain.n_transient())
        .map(|i| {
            let qx: f64 = chain.q().row_iter(i).map(|(j, p)| p * x[j as usize]).sum();
            (b[i] - x[i] + qx).abs()
        })
        .fold(0.0, f64::max)
}

fn assert_small_residuals(n: usize, quotient: Quotient) {
    let alg = HermanRing::on_ring(&builders::ring(n)).unwrap();
    for kind in [EdgeStoreKind::Flat, EdgeStoreKind::Compressed] {
        let label = format!("Herman N={n} {quotient:?} ({})", kind.label());
        let opts = ExploreOptions::full()
            .with_quotient(quotient)
            .with_edge_store(kind);
        let daemon = DaemonSpec::synchronous();
        let chain =
            AbsorbingChain::build_with(&alg, daemon, &alg.legitimacy(), CAP, &opts).expect("chain");
        assert!(
            chain.n_transient() > DENSE_LIMIT,
            "{label}: {} transient states take the dense path",
            chain.n_transient()
        );
        let (times, absorption) = chain
            .expected_steps_and_absorption_with(&Budget::unlimited())
            .expect("fused solve");
        let ones = vec![1.0; chain.n_transient()];
        let r_times = residual(&chain, &ones, times.as_slice());
        let r_absorb = residual(&chain, chain.absorb(), &absorption);
        assert!(
            r_times <= MAX_RESIDUAL,
            "{label}: times residual {r_times:e}"
        );
        assert!(
            r_absorb <= MAX_RESIDUAL,
            "{label}: absorption residual {r_absorb:e}"
        );
    }
}

#[test]
fn herman11_full_sweep_residual_is_small() {
    assert_small_residuals(11, Quotient::None);
}

#[test]
fn herman13_rotation_residual_is_small() {
    assert_small_residuals(13, Quotient::RingRotation);
}

#[test]
fn herman15_dihedral_residual_is_small() {
    assert_small_residuals(15, Quotient::RingDihedral);
}
