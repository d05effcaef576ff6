//! The `Study` contract the whole redesign exists for: **one**
//! `Study::run()` performs exactly one engine exploration, shared by the
//! checker, Markov and Monte-Carlo stages — and the auto-planner's
//! choices on a large instance (Herman N=13: symmetry quotient plus
//! compressed edge store, both chosen automatically) reproduce the
//! hand-tuned PR 4 pipeline's exact expected times bit for bit.
//!
//! The exploration counter is process-wide, and libtest runs the tests
//! of this binary on parallel threads: every counter window below holds
//! [`COUNTER_LOCK`] so a sibling test's explorations can never land
//! inside it (living in a separate integration-test binary isolates us
//! from the rest of the suite, but not from ourselves).

use std::sync::Mutex;

use weak_stabilization::study::{Outcome, Study};

use stab_algorithms::{HermanRing, TokenCirculation};
use stab_core::engine::{
    canonical_count, explore_count, gate_count, tarjan_count, Budget, EdgeStoreKind,
    ExploreOptions, Plan, PlanRequest, Quotient, TransitionSystem, DEFAULT_BYTE_BUDGET,
};
use stab_core::{DaemonSpec, FairnessSet, SpaceIndexer};
use stab_graph::builders;
use stab_markov::AbsorbingChain;

/// Serializes the `explore_count()` before/after windows across this
/// binary's parallel test threads.
static COUNTER_LOCK: Mutex<()> = Mutex::new(());

/// All three stages on one exploration: the counter advances exactly
/// once per `run()`. (The legacy pipeline paid three explorations for
/// the same report — one per stage.)
#[test]
fn one_run_is_one_exploration() {
    let _window = COUNTER_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let alg = TokenCirculation::on_ring(&builders::ring(4)).unwrap();
    let spec = alg.legitimacy();

    let before = explore_count();
    let report = Study::of(&alg)
        .daemon(DaemonSpec::distributed())
        .spec(&spec)
        .cap(1 << 22)
        .verdicts(FairnessSet::ALL)
        .expected_times()
        .monte_carlo(weak_stabilization::study::McConfig {
            runs: 50,
            max_steps: 100_000,
            seed: 7,
            threads: 1,
        })
        .options(ExploreOptions::full())
        .run()
        .unwrap();
    let after = explore_count();

    assert_eq!(
        after - before,
        1,
        "checker, Markov and sim stages must share ONE exploration"
    );
    assert!(report.verdicts.is_some());
    assert!(report.expected_times.is_some());
    assert!(report.monte_carlo.is_some());
}

/// Auto-planned runs pay one extra *gate* consultation but still exactly
/// one exploration.
#[test]
fn auto_planned_run_is_one_exploration() {
    let _window = COUNTER_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let alg = HermanRing::on_ring(&builders::ring(7)).unwrap();
    let spec = alg.legitimacy();

    let before = explore_count();
    let report = Study::of(&alg)
        .daemon(DaemonSpec::synchronous())
        .spec(&spec)
        .verdicts(FairnessSet::of(&[stab_core::Fairness::Gouda]))
        .expected_times()
        .run()
        .unwrap();
    let after = explore_count();

    assert_eq!(after - before, 1, "planning must not explore");
    assert!(report.plan.planned, "no overrides: fully auto");
    // The equivariance gate admits Herman's full dihedral group.
    assert_eq!(report.plan.quotient, "automorphism");
    assert_eq!(report.plan.group_order, 14);
    assert_eq!(report.space.as_ref().unwrap().represented, 1 << 7);
}

/// The acceptance case: Herman N=13 under the default byte budget. The
/// planner must pick the quotient *and* the compressed tier on its own
/// (3^13 estimated edges ≈ 38 MB flat > the 32 MiB default budget), and
/// the resulting expected times must equal the hand-tuned PR 4 pipeline
/// (same options through `AbsorbingChain::build_with`) bit for bit —
/// plus the PR 4 rotation-quotient flat-tier arm up to solver tolerance.
#[test]
fn herman13_auto_plan_picks_quotient_and_compressed_and_matches_pr4() {
    // This test opens no counter window, but its explorations must not
    // land inside a sibling's.
    let _window = COUNTER_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let alg = HermanRing::on_ring(&builders::ring(13)).unwrap();
    let spec = alg.legitimacy();

    let report = Study::of(&alg)
        .daemon(DaemonSpec::synchronous())
        .spec(&spec)
        .expected_times()
        .run()
        .unwrap();

    // Both decisions were automatic, and both picked the scaling option.
    assert!(report.plan.planned);
    assert_eq!(report.plan.byte_budget, DEFAULT_BYTE_BUDGET);
    assert_eq!(report.plan.quotient, "automorphism", "dihedral on rings");
    assert_eq!(report.plan.group_order, 26);
    assert_eq!(report.plan.edge_store, "compressed");
    assert!(
        report.plan.est_full_flat_bytes > DEFAULT_BYTE_BUDGET,
        "the estimate is what forces the compressed tier: {} bytes",
        report.plan.est_full_flat_bytes
    );
    for decision in &report.plan.decisions {
        assert!(decision.auto, "unexpected forced decision: {decision:?}");
    }
    let space = report.space.as_ref().unwrap();
    assert_eq!(space.represented, 1 << 13);
    assert!(space.configs < (1 << 13) / 2);

    // Bit-for-bit against the expert pipeline on the same (auto-chosen)
    // options: shared-exploration refactor changed no value.
    let opts = ExploreOptions::full()
        .with_quotient(Quotient::Automorphism)
        .with_edge_store(EdgeStoreKind::Compressed);
    let chain =
        AbsorbingChain::build_with(&alg, DaemonSpec::synchronous(), &spec, 1 << 22, &opts).unwrap();
    let times = chain.expected_steps().unwrap();
    let solved = report.expected_times.as_ref().unwrap().solved().unwrap();
    assert_eq!(solved.n_transient, chain.n_transient() as u64);
    assert_eq!(
        solved.worst_case.to_bits(),
        times.worst_case().to_bits(),
        "worst case must be bit-for-bit"
    );
    assert_eq!(
        solved.average.to_bits(),
        times
            .average_weighted(chain.transient_orbits(), chain.represented_configs())
            .to_bits(),
        "uniform average must be bit-for-bit"
    );

    // And against PR 4's committed exp_expected_time arm (rotation
    // quotient, flat tier) up to solver tolerance: a different
    // representative set and solver path, same chain semantics.
    let pr4_opts = ExploreOptions::full()
        .with_ring_quotient()
        .with_edge_store(EdgeStoreKind::Flat);
    let pr4_chain =
        AbsorbingChain::build_with(&alg, DaemonSpec::synchronous(), &spec, 1 << 22, &pr4_opts)
            .unwrap();
    let pr4_times = pr4_chain.expected_steps().unwrap();
    let pr4_avg = pr4_times.average_weighted(
        pr4_chain.transient_orbits(),
        pr4_chain.represented_configs(),
    );
    assert!(
        (solved.worst_case - pr4_times.worst_case()).abs() < 1e-6,
        "{} vs PR4 {}",
        solved.worst_case,
        pr4_times.worst_case()
    );
    assert!(
        (solved.average - pr4_avg).abs() < 1e-6,
        "{} vs PR4 {}",
        solved.average,
        pr4_avg
    );
}

/// Two strongly-connected-components walks per study: the verdict
/// stage's walk of the illegitimate region, and the chain's one walk of
/// `Q`, which decides almost-sure absorption and orders the block solve.
/// Herman N=13 on ring rotations has 630 transient necklaces, above the
/// solver's dense limit (600), so the expected times take the block
/// Gauss–Seidel path.
#[test]
fn verdicts_and_expected_times_walk_twice() {
    let _window = COUNTER_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let alg = HermanRing::on_ring(&builders::ring(13)).unwrap();
    let spec = alg.legitimacy();
    let before = tarjan_count();
    let report = Study::of(&alg)
        .daemon(DaemonSpec::synchronous())
        .spec(&spec)
        .verdicts(FairnessSet::ALL)
        .expected_times()
        .options(ExploreOptions::full().with_quotient(Quotient::RingRotation))
        .run()
        .unwrap();
    assert_eq!(tarjan_count() - before, 2);
    assert!(report.verdicts.is_some());
    let section = report.expected_times.expect("expected times requested");
    assert_eq!(section.solved().expect("absorbing").n_transient, 630);
}

/// Runs `f` and returns how many equivariance-gate runs and explorations
/// it performed, with its result. Callers hold [`COUNTER_LOCK`].
fn counted<T>(f: impl FnOnce() -> T) -> (u64, u64, T) {
    let (gates, explores) = (gate_count(), explore_count());
    let out = f();
    (gate_count() - gates, explore_count() - explores, out)
}

/// Symmetry is decided once per study: an auto-planned run gates each
/// structurally valid candidate once, in the plan, and the exploration
/// reuses the plan's admission instead of gating again.
#[test]
fn auto_planned_study_gates_once_per_candidate() {
    let _window = COUNTER_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let herman = HermanRing::on_ring(&builders::ring(7)).unwrap();
    let spec = herman.legitimacy();
    let (gates, explores, report) = counted(|| {
        Study::of(&herman)
            .daemon(DaemonSpec::synchronous())
            .spec(&spec)
            .run()
            .unwrap()
    });
    assert_eq!((gates, explores), (1, 1), "Automorphism admitted first");
    assert_eq!(report.plan.quotient, "automorphism");
    assert_eq!(
        report.plan.decisions[0].reason,
        "group of order 14 passed the equivariance gate \
         (generator 0: strict; generator 1: lumped)"
    );

    // Oriented token circulation on an even ring: the gate rejects the
    // dihedral group, then admits the rotations — two gate runs, and
    // still none in the exploration.
    let tokens = TokenCirculation::on_ring(&builders::ring(4)).unwrap();
    let spec = tokens.legitimacy();
    let (gates, explores, report) = counted(|| {
        Study::of(&tokens)
            .daemon(DaemonSpec::distributed())
            .spec(&spec)
            .run()
            .unwrap()
    });
    assert_eq!((gates, explores), (2, 1));
    assert_eq!(report.plan.quotient, "ring-rotation");
}

/// A caller-forced quotient is gated exactly once, by the exploration;
/// no quotient is never gated.
#[test]
fn forced_quotient_gates_once_and_no_quotient_never() {
    let _window = COUNTER_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let alg = HermanRing::on_ring(&builders::ring(7)).unwrap();
    let spec = alg.legitimacy();
    for (quotient, expected) in [(Quotient::RingDihedral, 1), (Quotient::None, 0)] {
        let (gates, explores, _) = counted(|| {
            Study::of(&alg)
                .daemon(DaemonSpec::synchronous())
                .spec(&spec)
                .options(ExploreOptions::full().with_quotient(quotient))
                .run()
                .unwrap()
        });
        assert_eq!((gates, explores), (expected, 1), "{quotient:?}");
    }
}

/// The plan's admission covers only the run it was decided for: options
/// reused under another daemon, or with another quotient, gate again.
#[test]
fn plan_options_gate_again_under_another_daemon() {
    let _window = COUNTER_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let alg = HermanRing::on_ring(&builders::ring(7)).unwrap();
    let spec = alg.legitimacy();
    let ix = SpaceIndexer::new(&alg, 1 << 20).unwrap();
    let sync = DaemonSpec::synchronous();
    let plan = Plan::compute(&alg, &ix, sync, &spec, &PlanRequest::default()).unwrap();
    let opts = plan.options();
    let explore = |daemon, opts: &ExploreOptions<_>| {
        counted(|| TransitionSystem::explore_with(&alg, &ix, daemon, &spec, opts).unwrap()).0
    };
    assert_eq!(
        explore(sync, &opts),
        0,
        "the planned run reuses the admission"
    );
    assert_eq!(explore(DaemonSpec::central(), &opts), 1);
    let rotated = opts.clone().with_quotient(Quotient::RingRotation);
    assert_eq!(explore(sync, &rotated), 1);
}

/// A fixed quotient sweep whose orbit table fits canonicalizes each index
/// once, in pass 1, and resolves every row target through the table:
/// Herman N=13 under the dihedral group costs exactly `ix.total()`
/// canonicalizations (the row pass used to add one per distinct target
/// of each row). A reachable quotient run has no table and canonicalizes
/// its row targets.
#[test]
fn orbit_table_sweep_canonicalizes_each_index_once() {
    let _window = COUNTER_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let alg = HermanRing::on_ring(&builders::ring(13)).unwrap();
    let spec = alg.legitimacy();
    let ix = SpaceIndexer::new(&alg, 1 << 20).unwrap();
    let sync = DaemonSpec::synchronous();
    let dihedral = ExploreOptions::full().with_quotient(Quotient::RingDihedral);
    let before = canonical_count();
    let ts = TransitionSystem::explore_with(&alg, &ix, sync, &spec, &dihedral).unwrap();
    assert_eq!(ix.total(), 8192);
    assert_eq!(canonical_count() - before, ix.total());
    assert_eq!(ts.n_configs(), 380);

    let seed = ix.decode(ix.total() - 1);
    let reachable = ExploreOptions::reachable(vec![seed]).with_ring_quotient();
    let before = canonical_count();
    TransitionSystem::explore_with(&alg, &ix, sync, &spec, &reachable).unwrap();
    assert!(
        canonical_count() > before,
        "reachable quotient rows canonicalize"
    );
}

/// The plan records the id map the traversal will use, by the
/// traversal's own rule: Herman N=15's 32,768 configurations need a
/// 131,072-byte orbit table, well inside the 32 MiB bound, and a sweep
/// without a quotient keeps dense ids.
#[test]
fn plan_records_the_id_map() {
    let _window = COUNTER_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let alg = HermanRing::on_ring(&builders::ring(15)).unwrap();
    let spec = alg.legitimacy();
    let ix = SpaceIndexer::new(&alg, 1 << 20).unwrap();
    let sync = DaemonSpec::synchronous();
    let id_map = |req: &PlanRequest| {
        let plan = Plan::compute(&alg, &ix, sync, &spec, req).unwrap();
        let d = plan
            .decisions
            .iter()
            .find(|d| d.setting == "id_map")
            .unwrap();
        assert!(d.auto, "{d}");
        (plan.fully_auto(), d.choice.clone(), d.reason.clone())
    };
    let (fully_auto, choice, reason) = id_map(&PlanRequest::default());
    assert!(fully_auto);
    assert_eq!(choice, "orbit-table");
    assert_eq!(
        reason,
        format!("131072-byte orbit table against the {DEFAULT_BYTE_BUDGET}-byte bound")
    );
    let (_, choice, _) = id_map(&PlanRequest::default().with_quotient(Quotient::None));
    assert_eq!(choice, "dense");
}

/// A states budget below the orbit count degrades before pass 1: every
/// orbit has at most |G| members, so a fixed quotient sweep probes
/// ⌈total/|G|⌉ representatives first. Token circulation on ring(12)
/// (m = 5, 5^12 configurations, planned onto the rotation quotient)
/// under `max_states(8)` used to canonicalize the whole space before
/// degrading.
#[test]
fn states_budget_degrades_before_pass_one() {
    let _window = COUNTER_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let alg = TokenCirculation::on_ring(&builders::ring(12)).unwrap();
    assert_eq!(alg.modulus(), 5);
    let spec = alg.legitimacy();
    let before = canonical_count();
    let report = Study::of(&alg)
        .daemon(DaemonSpec::central())
        .spec(&spec)
        .cap(1 << 40)
        .budget(Budget::unlimited().with_max_states(8))
        .run()
        .unwrap();
    assert_eq!(canonical_count(), before, "pass 1 never ran");
    assert_eq!(report.plan.quotient, "ring-rotation");
    match &report.status.explore {
        Outcome::Degraded { reason } => {
            assert!(reason.contains("states"), "reason: {reason}");
            // ⌈5^12 / 12⌉ representatives at least.
            assert!(reason.contains("20345053"), "reason: {reason}");
        }
        other => panic!("expected a degraded explore, got {other:?}"),
    }
    assert!(report.space.is_none());
}
