//! Differential suite for daemon encodings: each of the paper's four
//! daemons must give **bit-for-bit** identical results under a second,
//! distinct encoding of the same behaviour, through every analysis in the
//! workspace — checker verdicts with their witnesses, exact hitting-time
//! summaries, CDFs, absorption probabilities, and seeded Monte-Carlo
//! estimates — across the algorithm zoo.
//!
//! Fairness and boundedness never change the transition system, so every
//! named point dressed as `+gouda+b3` must reproduce its numbers; and
//! `k = 1` makes every spacing radius vacuous (singletons are trivially
//! spread), so `1-central-r2` must reproduce the central daemon's.

use stab_algorithms::{
    DijkstraFourState, DijkstraRing, DijkstraThreeState, GreedyColoring, HermanRing,
    TokenCirculation, TwoProcessToggle,
};
use stab_checker::{analyze, StabilizationReport};
use stab_core::{Algorithm, Boundedness, DaemonSpec, Distribution, Fairness, Legitimacy};
use stab_graph::builders;
use stab_markov::AbsorbingChain;
use stab_sim::montecarlo::{estimate, BatchSettings};

const CAP: u64 = 1 << 22;
const CDF_HORIZON: usize = 40;

fn assert_bits_equal(a: f64, b: f64, label: &str) {
    assert_eq!(a.to_bits(), b.to_bits(), "{label}: {a} vs {b}");
}

fn assert_reports_identical(a: &StabilizationReport, b: &StabilizationReport, label: &str) {
    assert_eq!(a.states, b.states, "{label}: states");
    assert_eq!(a.legitimate, b.legitimate, "{label}: legitimate");
    assert_eq!(a.deterministic, b.deterministic, "{label}: determinism");
    assert_eq!(a.closure, b.closure, "{label}: closure");
    assert_eq!(a.weak, b.weak, "{label}: weak");
    assert_eq!(a.probabilistic, b.probabilistic, "{label}: probabilistic");
    for f in Fairness::ALL {
        assert_eq!(a.self_under(f), b.self_under(f), "{label}: self @ {f}");
    }
}

/// Runs the full pipeline under two encodings of one daemon and demands
/// identical bits everywhere.
fn differential<A, L>(alg: &A, spec: &L, via: DaemonSpec, baseline: DaemonSpec)
where
    A: Algorithm + Sync,
    A::State: Sync,
    L: Legitimacy<A::State> + Sync,
{
    assert_ne!(via, baseline, "distinct encodings");
    let label = format!("{} via {} vs {}", alg.name(), via.name(), baseline.name());

    // ---- Checker -----------------------------------------------------
    let a = analyze(alg, via, spec, CAP).unwrap();
    let b = analyze(alg, baseline, spec, CAP).unwrap();
    assert_reports_identical(&a, &b, &label);

    // ---- Exact Markov numbers ----------------------------------------
    let ca = AbsorbingChain::build(alg, via, spec, CAP).unwrap();
    let cb = AbsorbingChain::build(alg, baseline, spec, CAP).unwrap();
    assert_eq!(ca.n_transient(), cb.n_transient(), "{label}: transient");
    match (ca.expected_steps(), cb.expected_steps()) {
        (Ok(ta), Ok(tb)) => {
            assert_bits_equal(ta.worst_case(), tb.worst_case(), &format!("{label}: worst"));
            assert_bits_equal(
                ta.average_uniform(ca.n_configs()),
                tb.average_uniform(cb.n_configs()),
                &format!("{label}: average"),
            );
            let pa = ca.absorption_probabilities().unwrap();
            let pb = cb.absorption_probabilities().unwrap();
            assert_eq!(pa.len(), pb.len(), "{label}: absorption length");
            for (k, (x, y)) in pa.iter().zip(&pb).enumerate() {
                assert_bits_equal(*x, *y, &format!("{label}: absorption[{k}]"));
            }
            let fa = ca.hitting_cdf_uniform(CDF_HORIZON);
            let fb = cb.hitting_cdf_uniform(CDF_HORIZON);
            for (k, (x, y)) in fa.iter().zip(&fb).enumerate() {
                assert_bits_equal(*x, *y, &format!("{label}: cdf[{k}]"));
            }
        }
        (Err(ea), Err(eb)) => {
            assert_eq!(ea.to_string(), eb.to_string(), "{label}: unsolvable reason");
        }
        (a, b) => panic!("{label}: solvability diverged ({a:?} vs {b:?})"),
    }

    // ---- Seeded Monte-Carlo ------------------------------------------
    // Small budget: the zoo instances converge in far fewer steps, and
    // the never-converging cases (toggle under central) burn the whole
    // budget on every run — identically on both sides.
    let settings = BatchSettings {
        runs: 200,
        max_steps: 4_000,
        seed: 0xD1FF,
        threads: 2,
    };
    let ma = estimate(alg, via, spec, &settings);
    let mb = estimate(alg, baseline, spec, &settings);
    assert_eq!(ma.failures, mb.failures, "{label}: mc failures");
    assert_eq!(ma.runs, mb.runs, "{label}: mc runs");
    assert_eq!(ma.steps, mb.steps, "{label}: mc steps estimate");
    assert_eq!(ma.moves, mb.moves, "{label}: mc moves estimate");
    assert_eq!(ma.rounds, mb.rounds, "{label}: mc rounds estimate");
}

/// `k = 1` at a positive radius: the central daemon in other clothes.
const CENTRAL_R2: DaemonSpec = DaemonSpec {
    distribution: Distribution::KCentral {
        k: Some(1),
        radius: 2,
    },
    ..DaemonSpec::central()
};

/// A named point dressed with Gouda fairness and a step bound of 3.
fn dressed(d: DaemonSpec) -> DaemonSpec {
    d.with_fairness(Fairness::Gouda)
        .with_bound(Boundedness::EnabledBounded(3))
}

/// Each of the four named points ≡ its dressing for one algorithm, and
/// central ≡ `1-central-r2`.
fn zoo_case<A, L>(alg: &A, spec: &L)
where
    A: Algorithm + Sync,
    A::State: Sync,
    L: Legitimacy<A::State> + Sync,
{
    for d in DaemonSpec::LEGACY {
        differential(alg, spec, dressed(d), d);
    }
    differential(alg, spec, CENTRAL_R2, DaemonSpec::central());
}

#[test]
fn token_circulation_enum_equals_lattice() {
    let alg = TokenCirculation::on_ring(&builders::ring(4)).unwrap();
    zoo_case(&alg, &alg.legitimacy());
}

#[test]
fn two_process_toggle_enum_equals_lattice() {
    let alg = TwoProcessToggle::new();
    zoo_case(&alg, &alg.legitimacy());
}

#[test]
fn coloring_enum_equals_lattice() {
    let alg = GreedyColoring::new(&builders::path(3)).unwrap();
    zoo_case(&alg, &alg.legitimacy());
}

#[test]
fn dijkstra_k_state_enum_equals_lattice() {
    let alg = DijkstraRing::on_ring(&builders::ring(4)).unwrap();
    zoo_case(&alg, &alg.legitimacy());
}

#[test]
fn dijkstra_three_state_enum_equals_lattice() {
    let alg = DijkstraThreeState::on_ring(&builders::ring(4)).unwrap();
    zoo_case(&alg, &alg.legitimacy());
}

#[test]
fn dijkstra_four_state_enum_equals_lattice() {
    let alg = DijkstraFourState::on_path(&builders::path(4)).unwrap();
    zoo_case(&alg, &alg.legitimacy());
}

#[test]
fn herman_enum_equals_lattice() {
    let alg = HermanRing::on_ring(&builders::ring(5)).unwrap();
    zoo_case(&alg, &alg.legitimacy());
}

/// `k = 1` with a positive radius is the central daemon in different
/// clothes: singleton activations are trivially spread, so the entire
/// pipeline must reproduce the central numbers bit for bit (the encoding
/// is distinct from `DaemonSpec::central()`, so nothing short-circuits on
/// the name).
#[test]
fn one_central_with_radius_equals_central() {
    let alg = DijkstraRing::on_ring(&builders::ring(4)).unwrap();
    differential(&alg, &alg.legitimacy(), CENTRAL_R2, DaemonSpec::central());
    let alg = TokenCirculation::on_ring(&builders::ring(4)).unwrap();
    differential(&alg, &alg.legitimacy(), CENTRAL_R2, DaemonSpec::central());
}

/// Fairness and boundedness are execution-level constraints: they never
/// change the transition system, so any dressing of a named point's
/// distribution must leave every exact number untouched (only the
/// *verdict selection*, not the verdicts themselves, may differ).
#[test]
fn fairness_and_bound_components_do_not_move_the_numbers() {
    let alg = TokenCirculation::on_ring(&builders::ring(4)).unwrap();
    let spec = alg.legitimacy();
    let distributed = DaemonSpec::distributed();
    differential(&alg, &spec, dressed(distributed), distributed);
}
