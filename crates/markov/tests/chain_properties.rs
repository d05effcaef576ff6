//! Property-based tests of the quantitative engine: solver agreement,
//! reward linearity, and stochasticity of generated chains.

use proptest::prelude::*;

use stab_algorithms::{HermanRing, TokenCirculation};
use stab_core::{DaemonSpec, ProjectedLegitimacy, Transformed};
use stab_graph::builders;
use stab_markov::{linalg, AbsorbingChain, QMatrix};

/// Random substochastic sparse rows with guaranteed leakage ≥ 5% per row.
fn chain_strategy() -> impl Strategy<Value = Vec<Vec<(u32, f64)>>> {
    (2usize..12).prop_flat_map(|n| {
        proptest::collection::vec(
            proptest::collection::vec((0u32..n as u32, 1u32..100), 1..4),
            n..=n,
        )
        .prop_map(|raw| {
            raw.into_iter()
                .map(|entries| {
                    let total: u32 = entries.iter().map(|(_, w)| w).sum();
                    // Scale so the row sums to at most 0.95.
                    entries
                        .into_iter()
                        .map(|(j, w)| (j, 0.95 * w as f64 / total as f64))
                        .collect::<Vec<_>>()
                })
                .collect()
        })
    })
}

proptest! {
    /// Gauss–Seidel agrees with dense elimination on random substochastic
    /// systems.
    #[test]
    fn solvers_agree(rows in chain_strategy()) {
        let n = rows.len();
        let b = vec![1.0; n];
        let q = QMatrix::from_rows(rows);
        let gs = linalg::gauss_seidel(&q, &b, 1e-13, 1_000_000).unwrap();
        let mut a = vec![vec![0.0; n]; n];
        for (i, row) in q.rows().enumerate() {
            a[i][i] += 1.0;
            for &(j, q) in row {
                a[i][j as usize] -= q;
            }
        }
        let dense = linalg::solve_dense(a, b).unwrap();
        for i in 0..n {
            prop_assert!((gs[i] - dense[i]).abs() < 1e-7, "state {}: {} vs {}", i, gs[i], dense[i]);
        }
    }

    /// Hitting solutions are positive and at least 1 for a unit reward
    /// (every transient state needs at least one step).
    #[test]
    fn unit_reward_solutions_exceed_one(rows in chain_strategy()) {
        let n = rows.len();
        let x = linalg::gauss_seidel(&QMatrix::from_rows(rows), &vec![1.0; n], 1e-12, 1_000_000).unwrap();
        for (i, v) in x.iter().enumerate() {
            prop_assert!(*v >= 1.0 - 1e-9, "state {}: {}", i, v);
        }
    }

    /// Linearity of the solve: solution(r1) + solution(r2) =
    /// solution(r1 + r2).
    #[test]
    fn reward_linearity(rows in chain_strategy(), r1 in proptest::collection::vec(0.0f64..5.0, 2..12), r2 in proptest::collection::vec(0.0f64..5.0, 2..12)) {
        let n = rows.len();
        prop_assume!(r1.len() >= n && r2.len() >= n);
        let q = QMatrix::from_rows(rows);
        let a = linalg::gauss_seidel(&q, &r1[..n], 1e-13, 1_000_000).unwrap();
        let b = linalg::gauss_seidel(&q, &r2[..n], 1e-13, 1_000_000).unwrap();
        let sum: Vec<f64> = r1[..n].iter().zip(&r2[..n]).map(|(x, y)| x + y).collect();
        let c = linalg::gauss_seidel(&q, &sum, 1e-13, 1_000_000).unwrap();
        for i in 0..n {
            prop_assert!((a[i] + b[i] - c[i]).abs() < 1e-6);
        }
    }

    /// Chains generated from ring algorithms are row-stochastic and have
    /// non-negative finite expected times whenever absorbing, for random
    /// ring sizes and daemons.
    #[test]
    fn generated_chains_are_stochastic(n in 3usize..6, daemon_pick in 0usize..3) {
        let daemon = DaemonSpec::LEGACY[daemon_pick];
        let alg = Transformed::new(TokenCirculation::on_ring(&builders::ring(n)).unwrap());
        let spec = ProjectedLegitimacy::new(
            TokenCirculation::on_ring(&builders::ring(n)).unwrap().legitimacy(),
        );
        let chain = AbsorbingChain::build(&alg, daemon, &spec, 1 << 22).unwrap();
        prop_assert!(chain.validate_stochastic());
        let times = chain.expected_steps().unwrap();
        for i in 0..chain.n_transient() {
            let t = times.of_transient(i);
            prop_assert!(t.is_finite() && t >= 1.0 - 1e-9);
        }
    }

    /// Herman's expected times grow monotonically in worst case over odd
    /// ring sizes (sampled pairs).
    #[test]
    fn herman_worst_case_monotone(k in 1usize..3) {
        let small = 2 * k + 1;
        let large = 2 * (k + 1) + 1;
        let worst = |n: usize| {
            let alg = HermanRing::on_ring(&builders::ring(n)).unwrap();
            let chain =
                AbsorbingChain::build(&alg, DaemonSpec::synchronous(), &alg.legitimacy(), 1 << 22)
                    .unwrap();
            chain.expected_steps().unwrap().worst_case()
        };
        prop_assert!(worst(large) > worst(small));
    }
}
