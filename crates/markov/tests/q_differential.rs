//! Differential test of the engine-backed `Q`-row construction against the
//! seed Markov builder.
//!
//! The reference builds the absorbing chain the way the seed did:
//! re-enumerate `semantics::all_steps` per illegitimate configuration,
//! `encode` every successor, and accumulate a `HashMap` row. The
//! engine-backed [`AbsorbingChain`] must produce identical transient
//! indexing, `Q` entries, absorption masses and step-move rewards.

use std::collections::HashMap;

use stab_algorithms::{DijkstraRing, HermanRing, TokenCirculation, TwoProcessToggle};
use stab_core::{
    semantics, Algorithm, DaemonSpec, Legitimacy, ProjectedLegitimacy, SpaceIndexer, Transformed,
};
use stab_graph::builders;
use stab_markov::AbsorbingChain;

const CAP: u64 = 1 << 22;

/// Seed-style chain data: `(rows, absorb, step_moves)` over transient
/// indices in ascending configuration-id order.
type ReferenceChain = (Vec<Vec<(u32, f64)>>, Vec<f64>, Vec<f64>);

fn reference_chain<A, L>(alg: &A, daemon: DaemonSpec, spec: &L) -> ReferenceChain
where
    A: Algorithm,
    L: Legitimacy<A::State>,
{
    let indexer = SpaceIndexer::new(alg, CAP).unwrap();
    let total = indexer.total();
    let mut transient_of = vec![u32::MAX; total as usize];
    let mut config_of = Vec::new();
    for id in 0..total {
        let cfg = indexer.decode(id);
        if !spec.is_legitimate(&cfg) {
            transient_of[id as usize] = config_of.len() as u32;
            config_of.push(id);
        }
    }
    let mut rows = Vec::with_capacity(config_of.len());
    let mut absorb = Vec::with_capacity(config_of.len());
    let mut step_moves = Vec::with_capacity(config_of.len());
    for &id in &config_of {
        let cfg = indexer.decode(id);
        let steps = semantics::all_steps(alg, daemon, &cfg).expect("reference enumeration");
        let mut row: HashMap<u32, f64> = HashMap::new();
        let mut absorbed = 0.0;
        if steps.is_empty() {
            rows.push(vec![(transient_of[id as usize], 1.0)]);
            absorb.push(0.0);
            step_moves.push(0.0);
            continue;
        }
        let act_prob = 1.0 / steps.len() as f64;
        let mut moves = 0.0;
        for (activation, dist) in steps {
            moves += act_prob * activation.len() as f64;
            for (p, next) in dist {
                let next_id = indexer.encode(&next);
                let t = transient_of[next_id as usize];
                if t == u32::MAX {
                    absorbed += act_prob * p;
                } else {
                    *row.entry(t).or_insert(0.0) += act_prob * p;
                }
            }
        }
        let mut row: Vec<(u32, f64)> = row.into_iter().collect();
        row.sort_unstable_by_key(|&(j, _)| j);
        rows.push(row);
        absorb.push(absorbed);
        step_moves.push(moves);
    }
    (rows, absorb, step_moves)
}

fn differential<A, L>(alg: &A, spec: &L)
where
    A: Algorithm + Sync,
    A::State: Sync,
    L: Legitimacy<A::State> + Sync,
{
    for daemon in DaemonSpec::LEGACY {
        let label = format!("{} under {daemon}", alg.name());
        let chain = AbsorbingChain::build(alg, daemon, spec, CAP).expect("engine chain");
        let (rows, absorb, step_moves) = reference_chain(alg, daemon, spec);
        assert_eq!(chain.n_transient(), rows.len(), "{label}: transient count");
        for (i, want) in rows.iter().enumerate() {
            let got = chain.q().row_vec(i);
            assert_eq!(got.len(), want.len(), "{label}: row {i} length");
            for (&(gj, gp), &(wj, wp)) in got.iter().zip(want) {
                assert_eq!(gj, wj, "{label}: row {i} column");
                assert!(
                    (gp - wp).abs() < 1e-12,
                    "{label}: row {i} prob {gp} vs {wp}"
                );
            }
            assert!(
                (chain.absorb()[i] - absorb[i]).abs() < 1e-12,
                "{label}: absorb {i}: {} vs {}",
                chain.absorb()[i],
                absorb[i]
            );
            assert!(
                (chain.step_moves()[i] - step_moves[i]).abs() < 1e-12,
                "{label}: moves {i}: {} vs {}",
                chain.step_moves()[i],
                step_moves[i]
            );
        }
    }
}

#[test]
fn toggle_chain_matches_reference() {
    let alg = TwoProcessToggle::new();
    differential(&alg, &alg.legitimacy());
}

#[test]
fn token_ring_chain_matches_reference() {
    for n in [3, 4] {
        let alg = TokenCirculation::on_ring(&builders::ring(n)).unwrap();
        differential(&alg, &alg.legitimacy());
    }
}

#[test]
fn dijkstra_chain_matches_reference() {
    let alg = DijkstraRing::on_ring(&builders::ring(3)).unwrap();
    differential(&alg, &alg.legitimacy());
}

#[test]
fn herman_chain_matches_reference() {
    let alg = HermanRing::on_ring(&builders::ring(5)).unwrap();
    differential(&alg, &alg.legitimacy());
}

#[test]
fn transformed_toggle_chain_matches_reference() {
    let alg = Transformed::new(TwoProcessToggle::new());
    let spec = ProjectedLegitimacy::new(TwoProcessToggle::new().legitimacy());
    differential(&alg, &spec);
}
