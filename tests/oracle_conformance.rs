//! Oracle conformance: the checker's verdicts against published proofs.
//!
//! Dijkstra's three 1974 machines (K-state, three-state, four-state) have
//! hand-proved central-daemon verdicts — deterministic self-stabilization
//! with strong closure of the single-privilege predicate. They pin the
//! checker from the *outside*: any regression in exploration, guard
//! evaluation or fairness analysis shows up as a disagreement with a
//! fifty-year-old proof.
//!
//! The second half re-expresses the paper's four daemons as points of the
//! daemon lattice ([`DaemonSpec`]) and replays Theorems 2, 5, 6 and 7 of
//! Devismes–Tixeuil–Yamashita through them: identical verdict sheets under
//! a bounded re-expression of each point, and the published
//! token-ring/Herman verdicts unchanged.

use weak_stabilization::prelude::*;

use stab_algorithms::{
    DijkstraFourState, DijkstraRing, DijkstraThreeState, HermanRing, TokenCirculation,
};
use stab_checker::lattice::{Implied, VerdictPropagator};
use stab_checker::theorems::{theorem5_and_7_agree, theorem6_separation};
use stab_checker::{analyze, StabilizationReport};
use stab_core::engine::{EdgeStoreKind, ExploreOptions, Quotient};
use stab_core::{Boundedness, DaemonSpec};

const CAP: u64 = 1 << 22;

/// The four paper daemons as `(named point, re-expressed point)` pairs:
/// a step bound constrains executions, never single steps, so it must
/// not move a verdict.
const LATTICE_POINTS: [(DaemonSpec, DaemonSpec); 4] = [
    reexpressed(DaemonSpec::central()),
    reexpressed(DaemonSpec::distributed()),
    reexpressed(DaemonSpec::synchronous()),
    reexpressed(DaemonSpec::locally_central()),
];

const fn reexpressed(point: DaemonSpec) -> (DaemonSpec, DaemonSpec) {
    (point, point.with_bound(Boundedness::EnabledBounded(3)))
}

fn assert_same_sheet(a: &StabilizationReport, b: &StabilizationReport, label: &str) {
    assert_eq!(a.states, b.states, "{label}: states");
    assert_eq!(a.legitimate, b.legitimate, "{label}: legitimate");
    assert_eq!(a.deterministic, b.deterministic, "{label}: determinism");
    assert_eq!(a.closure.holds(), b.closure.holds(), "{label}: closure");
    assert_eq!(a.weak.holds(), b.weak.holds(), "{label}: weak");
    assert_eq!(
        a.probabilistic.holds(),
        b.probabilistic.holds(),
        "{label}: probabilistic"
    );
    for f in Fairness::ALL {
        assert_eq!(
            a.self_under(f).holds(),
            b.self_under(f).holds(),
            "{label}: self @ {f}"
        );
    }
}

// ---------------------------------------------------------------------
// Dijkstra's machines under the central daemon (CACM 1974)
// ---------------------------------------------------------------------

/// First solution: K states per machine on a unidirectional ring.
#[test]
fn k_state_oracle_self_stabilizes_under_the_central_daemon() {
    for n in [3usize, 4, 5] {
        let alg = DijkstraRing::on_ring(&builders::ring(n)).unwrap();
        let r = analyze(&alg, DaemonSpec::central(), &alg.legitimacy(), CAP).unwrap();
        assert!(r.deterministic, "N={n}: deterministic protocol");
        assert!(r.closure.holds(), "N={n}: strong closure of the privilege");
        assert!(
            r.is_self_stabilizing(Fairness::Unfair),
            "N={n}: Dijkstra's first theorem"
        );
        assert_eq!(r.daemon, DaemonSpec::central(), "N={n}: lattice point");
        assert_eq!(r.daemon.name(), "central", "N={n}: legacy name preserved");
    }
}

/// Second solution: three states per machine on a bidirectional ring,
/// independent of `N`.
#[test]
fn three_state_oracle_self_stabilizes_under_the_central_daemon() {
    for n in [3usize, 4, 5] {
        let alg = DijkstraThreeState::on_ring(&builders::ring(n)).unwrap();
        let r = analyze(&alg, DaemonSpec::central(), &alg.legitimacy(), CAP).unwrap();
        assert_eq!(r.states, 3u64.pow(n as u32), "N={n}: full space explored");
        assert!(r.deterministic, "N={n}: deterministic protocol");
        assert!(r.closure.holds(), "N={n}: strong closure of the privilege");
        assert!(
            r.is_self_stabilizing(Fairness::Unfair),
            "N={n}: Dijkstra's second theorem"
        );
        // No deadlock anywhere: certain convergence subsumes it, but the
        // legitimate count being positive and strictly below the space
        // size is the cheap sanity half.
        assert!(0 < r.legitimate && r.legitimate < r.states, "N={n}");
    }
}

/// Third solution: four states per machine on a line (two at the ends).
#[test]
fn four_state_oracle_self_stabilizes_under_the_central_daemon() {
    for n in [2usize, 3, 4, 5] {
        let alg = DijkstraFourState::on_path(&builders::path(n)).unwrap();
        let r = analyze(&alg, DaemonSpec::central(), &alg.legitimacy(), CAP).unwrap();
        assert_eq!(
            r.states,
            4 * 4u64.pow(n as u32 - 2),
            "N={n}: 2·4^(N−2)·2 configurations"
        );
        assert!(r.deterministic, "N={n}: deterministic protocol");
        assert!(r.closure.holds(), "N={n}: strong closure of the privilege");
        assert!(
            r.is_self_stabilizing(Fairness::Unfair),
            "N={n}: Dijkstra's third theorem"
        );
    }
}

/// The oracle verdicts are stable across the whole fairness ladder:
/// unfair self-stabilization is the strongest claim, so every fairness
/// assumption (and the probabilistic reading) must agree.
#[test]
fn oracle_verdicts_hold_up_the_entire_ladder() {
    let three = DijkstraThreeState::on_ring(&builders::ring(4)).unwrap();
    let four = DijkstraFourState::on_path(&builders::path(4)).unwrap();
    let reports = [
        analyze(&three, DaemonSpec::central(), &three.legitimacy(), CAP).unwrap(),
        analyze(&four, DaemonSpec::central(), &four.legitimacy(), CAP).unwrap(),
    ];
    for r in &reports {
        for f in Fairness::ALL {
            assert!(r.self_under(f).holds(), "{}: self @ {f}", r.algorithm);
        }
        assert!(r.weak.holds(), "{}: weak", r.algorithm);
        assert!(r.probabilistic.holds(), "{}: probabilistic", r.algorithm);
        assert!(theorem5_and_7_agree(r), "{}", r.algorithm);
    }
}

/// Oracle verdicts at other lattice points must stay consistent with the
/// refinement order: whatever `analyze` reports under the distributed
/// point, propagating it through [`VerdictPropagator`] must never
/// contradict the directly computed central verdict, and vice versa.
#[test]
fn oracle_verdicts_respect_the_refinement_order() {
    let three = DijkstraThreeState::on_ring(&builders::ring(4)).unwrap();
    let four = DijkstraFourState::on_path(&builders::path(3)).unwrap();
    let spec3 = three.legitimacy();
    let spec4 = four.legitimacy();
    let sheets: Vec<(String, Vec<(DaemonSpec, StabilizationReport)>)> = vec![
        (
            three.name(),
            LATTICE_POINTS
                .iter()
                .map(|&(d, _)| (d, analyze(&three, d, &spec3, CAP).unwrap()))
                .collect(),
        ),
        (
            four.name(),
            LATTICE_POINTS
                .iter()
                .map(|&(d, _)| (d, analyze(&four, d, &spec4, CAP).unwrap()))
                .collect(),
        ),
    ];
    for (name, sheet) in &sheets {
        for f in Fairness::ALL {
            let mut prop = VerdictPropagator::new();
            for (d, r) in sheet {
                prop.record(*d, r.self_under(f).holds());
            }
            assert!(prop.is_consistent(), "{name} @ {f}: order violated");
            for (d, r) in sheet {
                match prop.implied(*d) {
                    Implied::Holds => assert!(r.self_under(f).holds(), "{name} @ {f} @ {d:?}"),
                    Implied::Fails => assert!(!r.self_under(f).holds(), "{name} @ {f} @ {d:?}"),
                    Implied::Unknown => unreachable!("observed points are decided"),
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// Theorems 2/5/6/7 through the re-expressed lattice points
// ---------------------------------------------------------------------

/// Every named point's verdict sheet equals the sheet of its bounded
/// re-expression, and the Theorem 5/7 invariants hold on each.
#[test]
fn token_ring_sheets_survive_lattice_reexpression() {
    for n in [4usize, 5] {
        let alg = TokenCirculation::on_ring(&builders::ring(n)).unwrap();
        let spec = alg.legitimacy();
        for (point, reexpressed) in LATTICE_POINTS {
            let label = format!("{} under {}", alg.name(), point.name());
            let a = analyze(&alg, point, &spec, CAP).unwrap();
            let b = analyze(&alg, reexpressed, &spec, CAP).unwrap();
            assert_same_sheet(&a, &b, &label);
            // Theorem 5: closure + possible convergence ⇒ Gouda self.
            if a.closure.holds() && a.weak.holds() {
                assert!(a.self_under(Fairness::Gouda).holds(), "{label}: Theorem 5");
            }
            // Theorem 7: Gouda ≡ probabilistic, at every point.
            assert!(theorem5_and_7_agree(&a), "{label}: Theorem 7");
        }
    }
}

/// Theorem 2 at the distributed point: weak-stabilizing token circulation
/// that is *not* deterministically self-stabilizing, and Theorem 6's
/// strict separation on the 6-ring — all through `DaemonSpec`.
#[test]
fn theorem2_and_theorem6_at_the_distributed_point() {
    for n in 3..=6usize {
        let alg = TokenCirculation::on_ring(&builders::ring(n)).unwrap();
        let r = analyze(&alg, DaemonSpec::distributed(), &alg.legitimacy(), CAP).unwrap();
        assert!(r.is_weak_stabilizing(), "Theorem 2 on the {n}-ring");
        assert!(
            !r.is_self_stabilizing(Fairness::StronglyFair),
            "Herman/Angluin impossibility on the anonymous {n}-ring"
        );
    }
    let alg = TokenCirculation::on_ring(&builders::ring(6)).unwrap();
    for point in [DaemonSpec::distributed(), DaemonSpec::central()] {
        let r = analyze(&alg, point, &alg.legitimacy(), CAP).unwrap();
        assert!(
            theorem6_separation(&r),
            "Theorem 6 separation under {}",
            point.name()
        );
    }
}

/// Herman's ring at the synchronous point: probabilistically but not
/// deterministically self-stabilizing (Theorem 7's positive side).
#[test]
fn herman_at_the_synchronous_point() {
    let alg = HermanRing::on_ring(&builders::ring(7)).unwrap();
    let r = analyze(&alg, DaemonSpec::synchronous(), &alg.legitimacy(), CAP).unwrap();
    assert!(r.is_probabilistically_self_stabilizing(), "Herman 1990");
    assert!(
        !r.is_self_stabilizing(Fairness::StronglyFair),
        "coin flips can stall forever: no certain convergence"
    );
    assert!(theorem5_and_7_agree(&r), "Theorem 7");
    let (_, bounded) = reexpressed(DaemonSpec::synchronous());
    let b = analyze(&alg, bounded, &alg.legitimacy(), CAP).unwrap();
    assert_same_sheet(&r, &b, "herman(7) under synchronous");
}

// ---------------------------------------------------------------------
// Herman's ring: McIver–Morgan's worst-case expected stabilization time
// ---------------------------------------------------------------------

/// McIver and Morgan's closed form for Herman's synchronous ring of odd
/// size `n`: the worst case over all configurations is three tokens at
/// gaps `a + b + c = n`, with expected time `4abc / n`, maximised over
/// the gaps.
fn herman_worst_case(n: usize) -> f64 {
    let mut best = 0.0f64;
    for a in 1..n {
        for b in 1..n - a {
            let c = n - a - b;
            best = best.max((4 * a * b * c) as f64 / n as f64);
        }
    }
    best
}

/// Pins the closed form as the `Study` worst case of Herman's ring of
/// size `n` on the given quotient, on each of the given edge tiers.
fn assert_herman_worst_case(n: usize, quotient: Quotient, tiers: &[EdgeStoreKind]) {
    let alg = HermanRing::on_ring(&builders::ring(n)).unwrap();
    let spec = alg.legitimacy();
    for &tier in tiers {
        let label = format!("N={n} {} {}", quotient.label(), tier.label());
        let opts = ExploreOptions::full()
            .with_quotient(quotient)
            .with_edge_store(tier);
        let report = Study::of(&alg)
            .daemon(DaemonSpec::synchronous())
            .spec(&spec)
            .expected_times()
            .options(opts)
            .run()
            .unwrap();
        assert_eq!(report.plan.edge_store, tier.label(), "{label}: tier");
        let solved = report.expected_times.as_ref().unwrap().solved().unwrap();
        assert!(
            (solved.worst_case - herman_worst_case(n)).abs() < 1e-9,
            "{label}: worst case {} vs 4abc/N {}",
            solved.worst_case,
            herman_worst_case(n)
        );
        assert!(
            (solved.min_absorption - 1.0).abs() < 1e-9,
            "{label}: absorbs almost surely"
        );
    }
}

const ALL_TIERS: [EdgeStoreKind; 3] = [
    EdgeStoreKind::Flat,
    EdgeStoreKind::Compressed,
    EdgeStoreKind::Disk,
];

#[test]
fn herman_closed_form_values() {
    for (n, value) in [
        (11, 17.454_545_454_5),
        (13, 24.615_384_615_4),
        (15, 33.333_333_333_3),
    ] {
        assert!((herman_worst_case(n) - value).abs() < 1e-9, "N={n}");
    }
}

/// N = 11: the full sweep and both quotients, every tier (the full
/// sweep's 2^11 configurations take the Gauss–Seidel path).
#[test]
fn herman11_worst_case_matches_mciver_morgan() {
    for quotient in [
        Quotient::None,
        Quotient::RingRotation,
        Quotient::RingDihedral,
    ] {
        assert_herman_worst_case(11, quotient, &ALL_TIERS);
    }
}

/// N = 13 on both quotients, every tier (the rotation quotient's
/// necklaces take the Gauss–Seidel path, the dihedral quotient's
/// bracelets the dense one).
#[test]
fn herman13_worst_case_matches_mciver_morgan() {
    for quotient in [Quotient::RingRotation, Quotient::RingDihedral] {
        assert_herman_worst_case(13, quotient, &ALL_TIERS);
    }
}

/// N = 15 on the benchmark showcase's configuration: the dihedral
/// quotient on the compressed tier.
#[test]
fn herman15_worst_case_matches_mciver_morgan() {
    assert_herman_worst_case(15, Quotient::RingDihedral, &[EdgeStoreKind::Compressed]);
}
