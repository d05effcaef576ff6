//! Property-based tests of the simulator: determinism, accounting
//! invariants, and daemon-shape consequences on run costs.

use proptest::prelude::*;
use rand::SeedableRng;

use stab_algorithms::{HermanRing, TokenCirculation};
use stab_core::{DaemonSpec, ProjectedLegitimacy, Transformed};
use stab_graph::builders;
use stab_sim::montecarlo::{estimate, BatchSettings};
use stab_sim::{init, run_once, stats::Accumulator};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// A run is a pure function of (algorithm, daemon, initial, seed).
    #[test]
    fn runs_are_deterministic(n in 3usize..8, seed in 0u64..1_000) {
        let alg = Transformed::new(TokenCirculation::on_ring(&builders::ring(n)).unwrap());
        let spec = ProjectedLegitimacy::new(
            TokenCirculation::on_ring(&builders::ring(n)).unwrap().legitimacy(),
        );
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let initial = init::uniform_random(&alg, &mut rng);
        for daemon in DaemonSpec::LEGACY.into_iter().take(3) {
            let r1 = run_once(&alg, daemon, &spec,
                &initial, &mut rand::rngs::StdRng::seed_from_u64(seed), 1_000_000);
            let r2 = run_once(&alg, daemon, &spec,
                &initial, &mut rand::rngs::StdRng::seed_from_u64(seed), 1_000_000);
            prop_assert_eq!(r1, r2);
        }
    }

    /// Accounting invariants: central moves = steps; synchronous rounds =
    /// steps; rounds ≤ steps always; moves ≥ steps always.
    #[test]
    fn cost_accounting_invariants(n in 3usize..8, seed in 0u64..500) {
        let alg = Transformed::new(TokenCirculation::on_ring(&builders::ring(n)).unwrap());
        let spec = ProjectedLegitimacy::new(
            TokenCirculation::on_ring(&builders::ring(n)).unwrap().legitimacy(),
        );
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let initial = init::uniform_random(&alg, &mut rng);
        let central = run_once(&alg, DaemonSpec::central(), &spec, &initial, &mut rng, 1_000_000);
        prop_assert!(central.converged);
        prop_assert_eq!(central.moves, central.steps);
        prop_assert!(central.rounds <= central.steps);
        let sync = run_once(&alg, DaemonSpec::synchronous(), &spec, &initial, &mut rng, 1_000_000);
        prop_assert!(sync.converged);
        prop_assert_eq!(sync.rounds, sync.steps);
        prop_assert!(sync.moves >= sync.steps);
    }

    /// Batches are reproducible regardless of thread count.
    #[test]
    fn batches_thread_invariant(seed in 0u64..100) {
        let alg = HermanRing::on_ring(&builders::ring(7)).unwrap();
        let spec = alg.legitimacy();
        let one = estimate(&alg, DaemonSpec::synchronous(), &spec,
            &BatchSettings { runs: 60, max_steps: 1_000_000, seed, threads: 1 });
        let four = estimate(&alg, DaemonSpec::synchronous(), &spec,
            &BatchSettings { runs: 60, max_steps: 1_000_000, seed, threads: 4 });
        prop_assert!((one.steps.mean - four.steps.mean).abs() < 1e-9);
        prop_assert_eq!(one.failures, four.failures);
    }

    /// Welford merging is order-insensitive.
    #[test]
    fn accumulator_merge_commutes(xs in proptest::collection::vec(0.0f64..100.0, 2..40), split in 1usize..39) {
        prop_assume!(split < xs.len());
        let mut a = Accumulator::new();
        let mut b = Accumulator::new();
        for &x in &xs[..split] { a.push(x); }
        for &x in &xs[split..] { b.push(x); }
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        let (ea, eb) = (ab.estimate(), ba.estimate());
        prop_assert!((ea.mean - eb.mean).abs() < 1e-9);
        prop_assert!((ea.std_dev - eb.std_dev).abs() < 1e-9);
    }
}
