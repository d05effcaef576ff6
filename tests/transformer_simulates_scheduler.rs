//! The mechanism behind Theorems 8–9, checked as an exact identity: under
//! the *synchronous* scheduler, `Trans(A)`'s projected behaviour equals
//! `A` driven by a scheduler that activates every enabled process
//! independently with probability ½ — i.e. the uniform distribution over
//! *all* subsets of the enabled set (including the empty "stutter").
//!
//! Conditioned on non-emptiness that is exactly the randomized distributed
//! scheduler of Definition 6, which is why the paper says the transformer
//! "simulates a randomized distributed scheduler when the system behaves in
//! a synchronous way".

use std::collections::HashMap;

use weak_stabilization::prelude::*;

use stab_algorithms::{TokenCirculation, TwoProcessToggle};
use stab_core::{semantics, Coined, ProjectedLegitimacy, SpaceIndexer};
use stab_markov::AbsorbingChain;

/// The projected one-step distribution of `Trans(alg)` under the
/// synchronous scheduler, from the all-tails lift of `cfg`.
fn transformed_sync_projection<A>(
    trans: &Transformed<A>,
    cfg: &stab_core::Configuration<A::State>,
) -> HashMap<stab_core::Configuration<A::State>, f64>
where
    A: Algorithm,
{
    let lifted = Transformed::<A>::lift(cfg, false);
    let mut out = HashMap::new();
    match semantics::synchronous_step(trans, &lifted) {
        None => {
            out.insert(cfg.clone(), 1.0);
        }
        Some(dist) => {
            for (p, next) in dist {
                *out.entry(Transformed::<A>::project(&next)).or_insert(0.0) += p;
            }
        }
    }
    out
}

/// The one-step distribution of `alg` under the "independent ½ coins over
/// the enabled set" scheduler, built directly from the base semantics.
fn half_coin_scheduler<A>(
    alg: &A,
    cfg: &stab_core::Configuration<A::State>,
) -> HashMap<stab_core::Configuration<A::State>, f64>
where
    A: Algorithm,
{
    let enabled = alg.enabled_nodes(cfg);
    let mut out = HashMap::new();
    let k = enabled.len() as u32;
    if k == 0 {
        out.insert(cfg.clone(), 1.0);
        return out;
    }
    let subset_prob = 0.5f64.powi(k as i32);
    // The empty subset stutters.
    *out.entry(cfg.clone()).or_insert(0.0) += subset_prob;
    for mask in 1u32..(1 << k) {
        let nodes: Vec<NodeId> = (0..k)
            .filter(|i| mask & (1 << i) != 0)
            .map(|i| enabled[i as usize])
            .collect();
        let act = Activation::new(nodes);
        for (p, next) in semantics::successor_distribution(alg, cfg, &act) {
            *out.entry(next).or_insert(0.0) += subset_prob * p;
        }
    }
    out
}

fn distributions_equal<S: stab_core::LocalState>(
    a: &HashMap<stab_core::Configuration<S>, f64>,
    b: &HashMap<stab_core::Configuration<S>, f64>,
) -> bool {
    a.len() == b.len()
        && a.iter()
            .all(|(k, p)| b.get(k).map(|q| (p - q).abs() < 1e-12).unwrap_or(false))
}

#[test]
fn projected_transformed_sync_equals_half_coin_scheduler_token_ring() {
    let base = TokenCirculation::on_ring(&builders::ring(4)).unwrap();
    let trans = Transformed::new(TokenCirculation::on_ring(&builders::ring(4)).unwrap());
    let ix = SpaceIndexer::new(&base, 1 << 20).unwrap();
    for cfg in ix.iter() {
        let lhs = transformed_sync_projection(&trans, &cfg);
        let rhs = half_coin_scheduler(&base, &cfg);
        assert!(
            distributions_equal(&lhs, &rhs),
            "distribution mismatch from {cfg:?}:\n  trans-sync: {lhs:?}\n  ½-coins:   {rhs:?}"
        );
    }
}

#[test]
fn projected_transformed_sync_equals_half_coin_scheduler_toggle() {
    let base = TwoProcessToggle::new();
    let trans = Transformed::new(TwoProcessToggle::new());
    let ix = SpaceIndexer::new(&base, 1 << 10).unwrap();
    for cfg in ix.iter() {
        let lhs = transformed_sync_projection(&trans, &cfg);
        let rhs = half_coin_scheduler(&base, &cfg);
        assert!(distributions_equal(&lhs, &rhs), "mismatch from {cfg:?}");
    }
}

/// Lumpability: the transformed chain's transition structure depends only
/// on the projection (coins are write-only), so lifting with any coin
/// pattern yields the same projected distribution.
#[test]
fn coin_values_do_not_affect_projected_behaviour() {
    let trans = Transformed::new(TwoProcessToggle::new());
    let base = TwoProcessToggle::new();
    let ix = SpaceIndexer::new(&base, 1 << 10).unwrap();
    for cfg in ix.iter() {
        let mut reference: Option<HashMap<_, f64>> = None;
        for coins in 0..4u8 {
            let mut lifted = Transformed::<TwoProcessToggle>::lift(&cfg, false);
            for v in 0..2usize {
                let s = lifted.get(NodeId::new(v)).base;
                lifted.set(NodeId::new(v), Coined::new(s, coins & (1 << v) != 0));
            }
            let mut dist: HashMap<stab_core::Configuration<bool>, f64> = HashMap::new();
            match semantics::synchronous_step(&trans, &lifted) {
                None => {
                    dist.insert(cfg.clone(), 1.0);
                }
                Some(d) => {
                    for (p, next) in d {
                        *dist
                            .entry(Transformed::<TwoProcessToggle>::project(&next))
                            .or_insert(0.0) += p;
                    }
                }
            }
            match &reference {
                None => reference = Some(dist),
                Some(r) => assert!(distributions_equal(r, &dist)),
            }
        }
    }
}

/// Consequence for the quantitative study: exact expected *moves* from the
/// Markov engine match the simulator's moves estimate.
#[test]
fn exact_moves_match_simulated_moves() {
    use stab_sim::montecarlo::{estimate, BatchSettings};
    let trans = Transformed::new(TokenCirculation::on_ring(&builders::ring(4)).unwrap());
    let spec = ProjectedLegitimacy::new(
        TokenCirculation::on_ring(&builders::ring(4))
            .unwrap()
            .legitimacy(),
    );
    let chain = AbsorbingChain::build(&trans, DaemonSpec::synchronous(), &spec, 1 << 22).unwrap();
    let exact_moves = chain
        .expected_moves()
        .unwrap()
        .average_uniform(chain.n_configs());
    let batch = estimate(
        &trans,
        DaemonSpec::synchronous(),
        &spec,
        &BatchSettings {
            runs: 8_000,
            max_steps: 1_000_000,
            seed: 99,
            threads: 4,
        },
    );
    assert_eq!(batch.failures, 0);
    assert!(
        batch.moves.covers(exact_moves, 3.0),
        "exact {exact_moves} vs simulated {}",
        batch.moves
    );
}
