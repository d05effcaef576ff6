//! The paper's three figures, replayed as integration tests through the
//! public API (the `fig*` binaries render the same traces for humans).

use weak_stabilization::prelude::*;

use stab_algorithms::leader_tree::{figure2_initial, figure2_schedule, figure3_initial};
use stab_algorithms::{ParentLeader, TokenCirculation};
use stab_core::semantics;

#[test]
fn figure1_token_circulates_from_legitimate_start() {
    let alg = TokenCirculation::on_ring(&builders::ring(6)).unwrap();
    assert_eq!(alg.modulus(), 4, "N = 6 gives m_N = 4");
    let mut cfg = alg.legitimate_config(NodeId::new(1));
    let mut holder = NodeId::new(1);
    for _ in 0..12 {
        assert_eq!(alg.token_holders(&cfg), vec![holder]);
        assert_eq!(
            alg.enabled_nodes(&cfg),
            vec![holder],
            "only the holder moves"
        );
        cfg = semantics::deterministic_successor(&alg, &cfg, &Activation::singleton(holder));
        holder = alg.orientation().successor(alg.graph(), holder);
    }
    assert_eq!(holder, NodeId::new(1), "two full laps return the token");
}

#[test]
fn figure2_full_annotation_check() {
    let g = builders::figure2_tree();
    let alg = ParentLeader::on_tree(&g).unwrap();
    let mut cfg = figure2_initial();

    // (i): A1 at P1,P2,P7,P8; A2 at P3,P5,P6; P4 stable.
    let expect = |cfg: &stab_core::Configuration<Option<PortId>>,
                  a1: &[usize],
                  a2: &[usize],
                  a3: &[usize]| {
        for i in 0..8 {
            let got = alg.selected_action(cfg, NodeId::new(i));
            let want = if a1.contains(&i) {
                Some(ActionId::A1)
            } else if a2.contains(&i) {
                Some(ActionId::A2)
            } else if a3.contains(&i) {
                Some(ActionId::A3)
            } else {
                None
            };
            assert_eq!(got, want, "P{} in {cfg:?}", i + 1);
        }
    };
    expect(&cfg, &[0, 1, 6, 7], &[2, 4, 5], &[]);

    let schedule = figure2_schedule();
    // (ii): A1 at P1,P2,P7; A2 at P3,P5,P6; A3 at P8.
    cfg = semantics::deterministic_successor(&alg, &cfg, &Activation::new(schedule[0].clone()));
    expect(&cfg, &[0, 1, 6], &[2, 4, 5], &[7]);
    // (iii): A1 at P1; A2 at P3,P5.
    cfg = semantics::deterministic_successor(&alg, &cfg, &Activation::new(schedule[1].clone()));
    expect(&cfg, &[0], &[2, 4], &[]);
    // (iv): A1 at P5; A2 at P3; A3 at P2.
    cfg = semantics::deterministic_successor(&alg, &cfg, &Activation::new(schedule[2].clone()));
    expect(&cfg, &[4], &[2], &[1]);
    // (v): terminal.
    cfg = semantics::deterministic_successor(&alg, &cfg, &Activation::new(schedule[3].clone()));
    expect(&cfg, &[], &[], &[]);
    assert!(alg.legitimacy().is_legitimate(&cfg));
}

#[test]
fn figure3_recorded_synchronous_trace() {
    let (g, cfg0) = figure3_initial();
    let alg = ParentLeader::on_tree(&g).unwrap();
    // Record via the simulator: the synchronous daemon is deterministic
    // here, so the sampled run is the unique synchronous execution.
    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(0);
    let (result, trace) = stab_sim::run_recorded(
        &alg,
        DaemonSpec::synchronous(),
        &alg.legitimacy(),
        &cfg0,
        &mut rng,
        50,
    );
    assert!(!result.converged, "Figure 3 never converges");
    assert_eq!(result.steps, 50);
    // Period 2: even-indexed configurations equal (i), odd ones equal (ii).
    for i in (0..=50).step_by(2) {
        assert_eq!(trace.config(i), &cfg0);
    }
    for i in (1..=49).step_by(2) {
        assert_eq!(trace.config(i), trace.config(1));
    }
}
