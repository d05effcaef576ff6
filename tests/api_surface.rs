//! Facade and error-path coverage: the public API a downstream user sees,
//! including the failure modes (caps, invalid inputs) that a production
//! library must surface as typed errors rather than panics.

use weak_stabilization::prelude::*;

use stab_algorithms::TokenCirculation;
use stab_checker::analyze;
use stab_core::{CoreError, SpaceIndexer};
use stab_graph::GraphError;
use stab_markov::{AbsorbingChain, MarkovError};

#[test]
fn prelude_reexports_are_usable() {
    // Types from every crate are reachable through the prelude.
    let _: DaemonSpec = DaemonSpec::central();
    let _: Fairness = Fairness::Gouda;
    let g: Graph = builders::ring(4);
    let v: NodeId = NodeId::new(0);
    let p: PortId = PortId::new(1);
    assert_eq!(g.neighbor(v, p).index(), 3);
    let cfg: Configuration<u8> = Configuration::from_vec(vec![0; 4]);
    assert_eq!(cfg.len(), 4);
    let act = Activation::singleton(v);
    assert_eq!(act.len(), 1);
    let o = Outcomes::certain(1u8);
    assert!(o.is_certain());
    let m = ActionMask::single(ActionId::A1);
    assert_eq!(m.selected(), Some(ActionId::A1));
    let mut t: Trace<u8> = Trace::new(cfg);
    assert_eq!(t.steps(), 0);
    t.push(act, Configuration::from_vec(vec![1, 0, 0, 0]));
    assert_eq!(t.steps(), 1);
}

#[test]
fn graph_errors_are_typed() {
    assert!(matches!(Graph::from_edges(0, &[]), Err(GraphError::Empty)));
    assert!(matches!(
        Graph::from_edges(2, &[(0, 0)]),
        Err(GraphError::SelfLoop { node: 0 })
    ));
    assert!(matches!(
        TokenCirculation::on_ring(&builders::path(3)),
        Err(GraphError::NotARing)
    ));
}

#[test]
fn state_space_cap_is_a_typed_error() {
    let alg = TokenCirculation::on_ring(&builders::ring(12)).unwrap();
    // m_12 = 5, so 5^12 ≈ 2.4e8 configurations exceed a 1M cap.
    let err = SpaceIndexer::new(&alg, 1 << 20).unwrap_err();
    assert!(matches!(err, CoreError::StateSpaceTooLarge { .. }));
    let err = analyze(&alg, DaemonSpec::central(), &alg.legitimacy(), 1 << 20).unwrap_err();
    assert!(matches!(err, CoreError::StateSpaceTooLarge { .. }));
}

#[test]
fn distributed_enumeration_cap_is_a_typed_error() {
    // Herman on a 21-ring has every process enabled: 2^21 subsets exceed
    // the enumeration cap, reported as TooManyEnabled.
    let alg = stab_algorithms::HermanRing::on_ring(&builders::ring(21)).unwrap();
    let err = analyze(&alg, DaemonSpec::distributed(), &alg.legitimacy(), 1 << 22).unwrap_err();
    assert!(matches!(err, CoreError::TooManyEnabled { enabled: 21, .. }));
}

#[test]
fn markov_errors_are_typed_and_sourced() {
    let alg = stab_algorithms::TwoProcessToggle::new();
    let chain =
        AbsorbingChain::build(&alg, DaemonSpec::central(), &alg.legitimacy(), 1 << 10).unwrap();
    let err = chain.expected_steps().unwrap_err();
    assert!(matches!(err, MarkovError::NotAbsorbing { .. }));
    assert!(err.to_string().contains("not almost sure"));
    // Core errors convert into Markov errors.
    let big = TokenCirculation::on_ring(&builders::ring(12)).unwrap();
    let err =
        AbsorbingChain::build(&big, DaemonSpec::central(), &big.legitimacy(), 1 << 20).unwrap_err();
    assert!(matches!(
        err,
        MarkovError::Core(CoreError::StateSpaceTooLarge { .. })
    ));
    assert!(std::error::Error::source(&err).is_some());
}

#[test]
fn reports_render_for_humans() {
    let alg = TokenCirculation::on_ring(&builders::ring(4)).unwrap();
    let report = analyze(&alg, DaemonSpec::central(), &alg.legitimacy(), 1 << 22).unwrap();
    let shown = report.to_string();
    for needle in [
        "closure",
        "weak",
        "Gouda",
        "randomized",
        "token-circulation",
    ] {
        assert!(shown.contains(needle), "missing {needle} in {shown}");
    }
    let row = report.table_row();
    assert_eq!(row.matches('|').count(), 11, "ten columns: {row}");
}
