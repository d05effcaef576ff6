//! Leader election on anonymous trees: the paper's §3.2 as a scenario.
//!
//! ```bash
//! cargo run --release --example leader_election
//! ```
//!
//! * Replays the Figure 2 execution of Algorithm 2 on its 8-process tree.
//! * Shows the Figure 3 synchronous oscillation (why it is *weak*-only).
//! * Machine-checks the Theorem 3 impossibility on the adversarially
//!   labeled 4-chain.
//! * Runs the `log N`-bit center-based election on a random 30-node tree
//!   (transformed, under the distributed randomized scheduler).

use rand::SeedableRng;
use weak_stabilization::prelude::*;

use stab_algorithms::leader_tree::{figure2_initial, figure2_schedule};
use stab_algorithms::{CenterLeader, ParentLeader};
use stab_checker::symmetry::{check_synchronous_symmetry, state_maps, symmetric_path4};
use stab_core::{semantics, ProjectedLegitimacy};
use stab_sim::{init, run_once};

fn main() {
    // --- Figure 2: possible convergence. ---
    let tree = builders::figure2_tree();
    let alg = ParentLeader::on_tree(&tree).expect("a tree");
    let mut cfg = figure2_initial();
    for movers in figure2_schedule() {
        cfg = semantics::deterministic_successor(&alg, &cfg, &Activation::new(movers));
    }
    let leader = tree
        .nodes()
        .find(|&v| alg.is_leader(&cfg, v))
        .expect("a unique leader");
    println!(
        "Figure 2 replay: leader elected at P{} in 4 steps ✓",
        leader.index() + 1
    );

    // --- Figure 3: the synchronous oscillation. ---
    let (chain4, osc) = stab_algorithms::leader_tree::figure3_initial();
    let alg4 = ParentLeader::on_tree(&chain4).expect("a tree");
    let step1 = semantics::synchronous_step(&alg4, &osc)
        .unwrap()
        .remove(0)
        .1;
    let step2 = semantics::synchronous_step(&alg4, &step1)
        .unwrap()
        .remove(0)
        .1;
    assert_eq!(osc, step2);
    println!("Figure 3 replay: synchronous execution has period 2, never converges ✓");

    // --- Theorem 3: impossibility witness. ---
    let (sg, mirror) = symmetric_path4();
    let alg_sym = ParentLeader::on_tree(&sg).expect("a tree");
    let verdict = check_synchronous_symmetry(
        &alg_sym,
        &alg_sym.legitimacy(),
        &mirror,
        state_maps::parent_port(),
        1 << 20,
    )
    .expect("small space");
    assert!(verdict.implies_impossibility());
    println!(
        "Theorem 3 witness: {} symmetric configurations, closed, none legitimate ✓",
        verdict.symmetric_configs
    );

    // --- Center-based election at scale (transformed). ---
    let mut rng = rand::rngs::StdRng::seed_from_u64(33);
    let big = stab_graph::builders::random_tree(30, &mut rng);
    let celect = Transformed::new(CenterLeader::on_tree(&big).expect("a tree"));
    let cspec = ProjectedLegitimacy::new(CenterLeader::on_tree(&big).unwrap().legitimacy());
    let initial = init::uniform_random(&celect, &mut rng);
    let run = run_once(
        &celect,
        DaemonSpec::distributed(),
        &cspec,
        &initial,
        &mut rng,
        10_000_000,
    );
    assert!(run.converged, "Theorem 9: probability-1 convergence");
    println!(
        "center-based election on a random 30-node tree: converged in {} steps / {} rounds ✓",
        run.steps, run.rounds
    );
    let centers = stab_graph::metrics::tree_centers(&big);
    println!("tree centers: {centers:?} (leader is one of these by construction)");
}
