//! The quantitative study end to end: exact absorbing-chain analysis and
//! Monte-Carlo simulation must agree wherever both apply — the
//! cross-validation that makes the "future work" numbers trustworthy.

use weak_stabilization::prelude::*;

use stab_algorithms::{DijkstraRing, HermanRing, TokenCirculation, TwoProcessToggle};
use stab_core::ProjectedLegitimacy;
use stab_markov::AbsorbingChain;
use stab_sim::montecarlo::{estimate, BatchSettings};

const CAP: u64 = 1 << 22;

fn settings(runs: u64, seed: u64) -> BatchSettings {
    BatchSettings {
        runs,
        max_steps: 5_000_000,
        seed,
        threads: 4,
    }
}

#[test]
fn exact_vs_simulated_transformed_token_ring() {
    for daemon in [
        DaemonSpec::central(),
        DaemonSpec::synchronous(),
        DaemonSpec::distributed(),
    ] {
        let alg = Transformed::new(TokenCirculation::on_ring(&builders::ring(4)).unwrap());
        let spec = ProjectedLegitimacy::new(
            TokenCirculation::on_ring(&builders::ring(4))
                .unwrap()
                .legitimacy(),
        );
        let chain = AbsorbingChain::build(&alg, daemon, &spec, CAP).unwrap();
        let exact = chain
            .expected_steps()
            .unwrap()
            .average_uniform(chain.n_configs());
        let batch = estimate(&alg, daemon, &spec, &settings(8_000, 7));
        assert_eq!(batch.failures, 0);
        assert!(
            batch.steps.covers(exact, 3.0),
            "{daemon}: exact {exact} vs simulated {}",
            batch.steps
        );
    }
}

#[test]
fn exact_vs_simulated_herman() {
    let alg = HermanRing::on_ring(&builders::ring(7)).unwrap();
    let spec = alg.legitimacy();
    let chain = AbsorbingChain::build(&alg, DaemonSpec::synchronous(), &spec, CAP).unwrap();
    let exact = chain
        .expected_steps()
        .unwrap()
        .average_uniform(chain.n_configs());
    let batch = estimate(&alg, DaemonSpec::synchronous(), &spec, &settings(8_000, 21));
    assert_eq!(batch.failures, 0);
    assert!(batch.steps.covers(exact, 3.0));
}

#[test]
fn exact_vs_simulated_dijkstra() {
    let alg = DijkstraRing::on_ring(&builders::ring(5)).unwrap();
    let spec = alg.legitimacy();
    let chain = AbsorbingChain::build(&alg, DaemonSpec::central(), &spec, CAP).unwrap();
    let exact = chain
        .expected_steps()
        .unwrap()
        .average_uniform(chain.n_configs());
    let batch = estimate(&alg, DaemonSpec::central(), &spec, &settings(8_000, 13));
    assert_eq!(batch.failures, 0);
    assert!(batch.steps.covers(exact, 3.0));
}

#[test]
fn cdf_median_is_consistent_with_simulation() {
    let alg = Transformed::new(TwoProcessToggle::new());
    let spec = ProjectedLegitimacy::new(TwoProcessToggle::new().legitimacy());
    let chain = AbsorbingChain::build(&alg, DaemonSpec::synchronous(), &spec, CAP).unwrap();
    let cdf = chain.hitting_cdf_uniform(500);
    // Empirical fraction of runs finishing within k steps must track the CDF.
    let batch = estimate(&alg, DaemonSpec::synchronous(), &spec, &settings(4_000, 3));
    assert_eq!(batch.failures, 0);
    let _k = 10usize;
    // Count simulated runs with steps <= k by re-deriving from the mean is
    // not possible; instead check the CDF brackets the simulated mean:
    // P(T <= mean) should be sizable and CDF is 1 at the horizon.
    let mean = batch.steps.mean.round() as usize;
    assert!(cdf[mean.min(500)] > 0.4);
    assert!((cdf[500] - 1.0).abs() < 1e-6);
}

#[test]
fn worst_case_dominates_every_start() {
    let alg = Transformed::new(TokenCirculation::on_ring(&builders::ring(4)).unwrap());
    let spec = ProjectedLegitimacy::new(
        TokenCirculation::on_ring(&builders::ring(4))
            .unwrap()
            .legitimacy(),
    );
    let chain = AbsorbingChain::build(&alg, DaemonSpec::central(), &spec, CAP).unwrap();
    let times = chain.expected_steps().unwrap();
    let worst = times.worst_case();
    for i in 0..chain.n_transient() {
        assert!(times.of_transient(i) <= worst + 1e-12);
    }
    assert!(times.average_uniform(chain.n_configs()) <= worst);
}
