//! Initial-configuration samplers.

use rand::Rng;
use stab_core::{Algorithm, Configuration};

/// Samples a configuration uniformly from the full configuration space
/// (every process state drawn uniformly from its state space) — the
/// "arbitrary initial configuration" of the stabilization definitions.
///
/// Builds the state-space table on every call; a batch should build one
/// sampler with [`uniform`] instead (same draws, same order).
pub fn uniform_random<A, R>(alg: &A, rng: &mut R) -> Configuration<A::State>
where
    A: Algorithm,
    R: Rng + ?Sized,
{
    uniform(alg)(alg, rng)
}

/// The sampler of [`uniform_random`] with `alg`'s per-node state spaces
/// read once: each call draws one `random_range` per process, in node
/// order, and allocates only the returned configuration.
///
/// # Panics
///
/// Panics if some node has an empty state space.
pub fn uniform<A, R>(alg: &A) -> impl Fn(&A, &mut R) -> Configuration<A::State>
where
    A: Algorithm,
    R: Rng + ?Sized,
{
    let table: Vec<Vec<A::State>> = alg.graph().nodes().map(|v| alg.state_space(v)).collect();
    if let Some(v) = table.iter().position(Vec::is_empty) {
        panic!("node {v} has an empty state space");
    }
    move |_, rng| {
        let states = table
            .iter()
            .map(|space| space[rng.random_range(0..space.len())].clone());
        Configuration::from_vec(states.collect())
    }
}

/// A sampler drawing uniformly from a *designated initial set* — the
/// simulation-side counterpart of the engine's reachable-only exploration
/// (`stab_core::engine::ExploreOptions::reachable`), for cross-validating
/// reachable-mode chains by Monte Carlo.
///
/// The sampler plugs straight into
/// [`montecarlo::estimate_with`](crate::montecarlo::estimate_with):
///
/// ```
/// use stab_algorithms::TokenCirculation;
/// use stab_core::DaemonSpec;
/// use stab_graph::builders;
/// use stab_sim::montecarlo::{estimate_with, BatchSettings};
///
/// let alg = TokenCirculation::on_ring(&builders::ring(4)).unwrap();
/// let spec = alg.legitimacy();
/// // Start every run from the same designated (legitimate) configuration.
/// let seeds = vec![alg.legitimate_config(stab_graph::NodeId::new(0))];
/// let batch = estimate_with(
///     &alg,
///     DaemonSpec::central(),
///     &spec,
///     &BatchSettings { runs: 20, max_steps: 10, seed: 1, threads: 1 },
///     stab_sim::init::from_seeds(seeds),
/// )
/// .expect("a legitimate start converges at once");
/// assert_eq!(batch.failures, 0);
/// assert_eq!(batch.steps.mean, 0.0);
/// ```
///
/// # Panics
///
/// The returned sampler panics if `seeds` is empty.
pub fn from_seeds<A, R>(
    seeds: Vec<Configuration<A::State>>,
) -> impl Fn(&A, &mut R) -> Configuration<A::State>
where
    A: Algorithm,
    R: Rng,
{
    move |_alg, rng| {
        assert!(!seeds.is_empty(), "designated initial set is empty");
        seeds[rng.random_range(0..seeds.len())].clone()
    }
}

/// Samples uniformly but rejects configurations accepted by `reject`
/// (e.g. already-legitimate ones, for conditional estimates). Gives up and
/// returns the last sample after 10 000 rejections.
pub fn uniform_random_where<A, R>(
    alg: &A,
    rng: &mut R,
    mut reject: impl FnMut(&Configuration<A::State>) -> bool,
) -> Configuration<A::State>
where
    A: Algorithm,
    R: Rng + ?Sized,
{
    let mut cfg = uniform_random(alg, rng);
    for _ in 0..10_000 {
        if !reject(&cfg) {
            break;
        }
        cfg = uniform_random(alg, rng);
    }
    cfg
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use stab_algorithms::TokenCirculation;
    use stab_graph::builders;

    #[test]
    fn uniform_samples_stay_in_state_space() {
        let a = TokenCirculation::on_ring(&builders::ring(6)).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        for _ in 0..100 {
            let cfg = uniform_random(&a, &mut rng);
            assert_eq!(cfg.len(), 6);
            for (_, &s) in cfg.iter() {
                assert!(s < a.modulus());
            }
        }
    }

    #[test]
    fn uniform_hits_every_state_value() {
        let a = TokenCirculation::on_ring(&builders::ring(3)).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..200 {
            let cfg = uniform_random(&a, &mut rng);
            seen.insert(cfg);
        }
        // m=2, N=3: only 8 configurations; 200 draws see them all.
        assert_eq!(seen.len(), 8);
    }

    #[test]
    fn seed_sampler_draws_only_designated_configurations() {
        let a = TokenCirculation::on_ring(&builders::ring(4)).unwrap();
        let seeds = vec![
            stab_core::Configuration::from_vec(vec![0u8, 0, 0, 0]),
            stab_core::Configuration::from_vec(vec![1u8, 2, 0, 1]),
        ];
        let sampler = from_seeds(seeds.clone());
        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..100 {
            let cfg = sampler(&a, &mut rng);
            assert!(seeds.contains(&cfg));
            seen.insert(cfg);
        }
        assert_eq!(seen.len(), 2, "both seeds get drawn");
    }

    #[test]
    fn rejection_sampler_avoids_rejected_set() {
        let a = TokenCirculation::on_ring(&builders::ring(4)).unwrap();
        let spec = a.legitimacy();
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        use stab_core::Legitimacy;
        for _ in 0..50 {
            let cfg = uniform_random_where(&a, &mut rng, |c| spec.is_legitimate(c));
            assert!(!spec.is_legitimate(&cfg));
        }
    }
}
