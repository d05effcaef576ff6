//! Batched, parallel, deterministic Monte-Carlo estimation.

use rand::rngs::StdRng;
use rand::SeedableRng;

use stab_core::engine::parallel;
use stab_core::{Algorithm, DaemonSpec, Legitimacy};

use crate::init;
use crate::run::Kernel;
use crate::stats::{Accumulator, Estimate};

/// Batch parameters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchSettings {
    /// Number of runs.
    pub runs: u64,
    /// Per-run step budget; runs exceeding it count as failures.
    pub max_steps: u64,
    /// Base seed; the batch is deterministic in (settings, algorithm).
    pub seed: u64,
    /// The batch's own worker threads (1 = sequential, on the calling
    /// thread). A study that overlaps the batch with its exact pipeline
    /// calls it from one more thread, beside that pipeline.
    pub threads: usize,
}

impl Default for BatchSettings {
    fn default() -> Self {
        BatchSettings {
            runs: 1_000,
            max_steps: 1_000_000,
            seed: 0xC0FFEE,
            threads: 1,
        }
    }
}

/// Aggregated batch outcome. Estimates cover *converged* runs only;
/// `failures` counts budget exhaustions (or illegitimate deadlocks).
#[derive(Debug, Clone)]
pub struct BatchResult {
    /// Steps-to-stabilization estimate.
    pub steps: Estimate,
    /// Moves (total activations) estimate.
    pub moves: Estimate,
    /// Rounds estimate.
    pub rounds: Estimate,
    /// Runs that did not converge within the budget.
    pub failures: u64,
    /// Total runs.
    pub runs: u64,
}

/// Runs `settings.runs` independent simulations from uniformly random
/// initial configurations ([`init::uniform`], one sampler per batch) and
/// aggregates their costs.
///
/// Parallel and deterministic: run `i` always uses the RNG stream
/// `seed ⊕ i`, whatever the thread count. One worker runs on the calling
/// thread; more are scoped threads ([`parallel::map_ranges`]), each over
/// a contiguous slice of `runs.div_ceil(threads)` runs
/// ([`parallel::partition`]) with its own step buffers.
///
/// # Panics
///
/// Panics if `settings.runs` is zero or no run converges within
/// `settings.max_steps` ([`estimate_with`] returns `None` instead).
pub fn estimate<A, L>(
    alg: &A,
    daemon: DaemonSpec,
    spec: &L,
    settings: &BatchSettings,
) -> BatchResult
where
    A: Algorithm + Sync,
    A::State: Sync,
    L: Legitimacy<A::State> + Sync,
{
    assert!(settings.runs > 0, "at least one run required");
    estimate_with(alg, daemon, spec, settings, init::uniform(alg))
    .expect("no run converged; raise max_steps or check the system is probabilistically self-stabilizing")
}

/// Like [`estimate`], but with a custom initial-configuration sampler
/// (e.g. worst-case starts, or conditioned on illegitimacy), and `None`
/// instead of a panic when no run converges within `settings.max_steps`
/// (zero runs included): there is no cost to estimate.
pub fn estimate_with<A, L, F>(
    alg: &A,
    daemon: DaemonSpec,
    spec: &L,
    settings: &BatchSettings,
    make_initial: F,
) -> Option<BatchResult>
where
    A: Algorithm + Sync,
    L: Legitimacy<A::State> + Sync,
    F: Fn(&A, &mut StdRng) -> stab_core::Configuration<A::State> + Sync,
{
    let max_steps = settings.max_steps;
    let ranges = parallel::partition(settings.runs, settings.threads);
    // Runs one range on one kernel, whose step buffers serve every run;
    // returns the (steps, moves, rounds) accumulators and the failures.
    let partials = parallel::map_ranges(ranges, |runs| {
        let mut kernel = Kernel::new();
        let mut costs = [Accumulator::new(), Accumulator::new(), Accumulator::new()];
        let mut failures = 0u64;
        for i in runs {
            let mut rng =
                StdRng::seed_from_u64(settings.seed ^ (i.wrapping_mul(0x9E37_79B9_7F4A_7C15)));
            let initial = make_initial(alg, &mut rng);
            let r = kernel.run(alg, daemon, spec, initial, &mut rng, max_steps, |_, _| {});
            if r.converged {
                for (acc, x) in costs.iter_mut().zip([r.steps, r.moves, r.rounds]) {
                    acc.push(x as f64);
                }
            } else {
                failures += 1;
            }
        }
        (costs, failures)
    });
    let ([steps, moves, rounds], failures) =
        partials.into_iter().reduce(|(mut costs, f), (more, g)| {
            for (acc, other) in costs.iter_mut().zip(&more) {
                acc.merge(other);
            }
            (costs, f + g)
        })?;
    (steps.count() > 0).then(|| BatchResult {
        steps: steps.estimate(),
        moves: moves.estimate(),
        rounds: rounds.estimate(),
        failures,
        runs: settings.runs,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use stab_algorithms::{HermanRing, TokenCirculation, TwoProcessToggle};
    use stab_core::{Configuration, DaemonSpec, ProjectedLegitimacy, Transformed};
    use stab_graph::builders;
    use stab_markov::AbsorbingChain;

    #[test]
    fn parallel_equals_sequential() {
        let alg = Transformed::new(TwoProcessToggle::new());
        let spec = ProjectedLegitimacy::new(TwoProcessToggle::new().legitimacy());
        let base = BatchSettings {
            runs: 400,
            max_steps: 100_000,
            seed: 11,
            threads: 1,
        };
        let seq = estimate(&alg, DaemonSpec::synchronous(), &spec, &base);
        let par = estimate(
            &alg,
            DaemonSpec::synchronous(),
            &spec,
            &BatchSettings { threads: 4, ..base },
        );
        assert_eq!(seq.failures, par.failures);
        assert!((seq.steps.mean - par.steps.mean).abs() < 1e-9);
        assert!((seq.rounds.mean - par.rounds.mean).abs() < 1e-9);
    }

    /// Cross-validation of the two halves of the quantitative study: the
    /// Monte-Carlo estimate of the uniform-initial expected stabilization
    /// time must cover the exact Markov value.
    #[test]
    fn monte_carlo_matches_exact_markov() {
        let alg = Transformed::new(TwoProcessToggle::new());
        let spec = ProjectedLegitimacy::new(TwoProcessToggle::new().legitimacy());
        let chain = AbsorbingChain::build(&alg, DaemonSpec::synchronous(), &spec, 1 << 12).unwrap();
        let exact = chain
            .expected_steps()
            .unwrap()
            .average_uniform(chain.n_configs());
        let batch = estimate(
            &alg,
            DaemonSpec::synchronous(),
            &spec,
            &BatchSettings {
                runs: 20_000,
                max_steps: 100_000,
                seed: 123,
                threads: 4,
            },
        );
        assert_eq!(batch.failures, 0);
        assert!(
            batch.steps.covers(exact, 3.0),
            "exact {exact} outside CI {} ± {}",
            batch.steps.mean,
            batch.steps.ci95()
        );
    }

    #[test]
    fn token_ring_trans_converges_under_distributed() {
        let base = TokenCirculation::on_ring(&builders::ring(8)).unwrap();
        let spec = ProjectedLegitimacy::new(base.legitimacy());
        let alg = Transformed::new(TokenCirculation::on_ring(&builders::ring(8)).unwrap());
        let batch = estimate(
            &alg,
            DaemonSpec::distributed(),
            &spec,
            &BatchSettings {
                runs: 300,
                max_steps: 1_000_000,
                seed: 5,
                threads: 4,
            },
        );
        assert_eq!(batch.failures, 0, "Theorem 9: probability-1 convergence");
        assert!(batch.steps.mean > 0.0);
        assert!(batch.moves.mean >= batch.steps.mean);
        assert!(batch.rounds.mean <= batch.steps.mean + 1.0);
    }

    #[test]
    fn herman_scaling_sanity() {
        // Expected convergence time grows with ring size.
        let mut means = Vec::new();
        for n in [5usize, 11] {
            let alg = HermanRing::on_ring(&builders::ring(n)).unwrap();
            let spec = alg.legitimacy();
            let batch = estimate(
                &alg,
                DaemonSpec::synchronous(),
                &spec,
                &BatchSettings {
                    runs: 400,
                    max_steps: 1_000_000,
                    seed: 9,
                    threads: 4,
                },
            );
            assert_eq!(batch.failures, 0);
            means.push(batch.steps.mean);
        }
        assert!(means[1] > means[0], "Herman time grows with N: {means:?}");
    }

    #[test]
    fn custom_initial_sampler_is_used() {
        let alg = TokenCirculation::on_ring(&builders::ring(5)).unwrap();
        let spec = alg.legitimacy();
        // Start from a legitimate configuration: zero steps always.
        let batch = estimate_with(
            &alg,
            DaemonSpec::central(),
            &spec,
            &BatchSettings {
                runs: 50,
                max_steps: 10,
                seed: 1,
                threads: 2,
            },
            |a, _| a.legitimate_config(stab_graph::NodeId::new(0)),
        )
        .expect("legitimate starts converge at once");
        assert_eq!(batch.failures, 0);
        assert_eq!(batch.steps.mean, 0.0);
        assert_eq!(batch.steps.max, 0.0);
    }

    #[test]
    fn no_converged_run_is_none_instead_of_a_panic() {
        // Algorithm 3 under the central daemon never leaves ⟨false, false⟩.
        let alg = TwoProcessToggle::new();
        let spec = alg.legitimacy();
        let stuck = Configuration::from_vec(vec![false, false]);
        let settings = BatchSettings {
            runs: 20,
            max_steps: 50,
            seed: 3,
            threads: 2,
        };
        let batch = estimate_with(&alg, DaemonSpec::central(), &spec, &settings, |_, _| {
            stuck.clone()
        });
        assert!(batch.is_none());
        let zero = BatchSettings {
            runs: 0,
            ..settings
        };
        let none = estimate_with(&alg, DaemonSpec::central(), &spec, &zero, |_, _| {
            stuck.clone()
        });
        assert!(none.is_none());
    }

    #[test]
    #[should_panic(expected = "at least one run")]
    fn zero_runs_rejected() {
        let alg = TwoProcessToggle::new();
        let spec = alg.legitimacy();
        let _ = estimate(
            &alg,
            DaemonSpec::synchronous(),
            &spec,
            &BatchSettings {
                runs: 0,
                ..Default::default()
            },
        );
    }
}
