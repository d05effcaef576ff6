//! Differential suite for the `Study` pipeline: one `Study::run()` over a
//! shared exploration must reproduce the legacy three-call pipeline
//! (`stab_checker::analyze`, `AbsorbingChain::build`,
//! `stab_sim::montecarlo::estimate`) **bit for bit** — verdicts with their
//! witnesses, hitting-time summaries, CDFs, and Monte-Carlo estimates —
//! across the algorithm zoo under every daemon. Every report is also
//! pushed through its JSON serialization and back.

use weak_stabilization::study::{
    EstimateRecord, ExpectedSection, McConfig, McSection, Study, StudyReport,
};

use stab_algorithms::{
    DijkstraRing, GreedyColoring, HermanRing, TokenCirculation, TwoProcessToggle,
};
use stab_checker::{analyze, StabilizationReport, Verdict};
use stab_core::engine::{parallel, ExploreOptions, FaultPlan, Quotient};
use stab_core::{
    Algorithm, Configuration, CoreError, DaemonSpec, Fairness, FairnessSet, Legitimacy, Predicate,
    ProjectedLegitimacy, SpaceIndexer, Transformed,
};
use stab_graph::builders;
use stab_markov::AbsorbingChain;
use stab_sim::init;
use stab_sim::montecarlo::{estimate, estimate_with, BatchSettings};
use std::sync::atomic::{AtomicU64, Ordering};

const CAP: u64 = 1 << 22;
const CDF_HORIZON: usize = 60;

fn assert_verdict_matches(
    study: &weak_stabilization::study::VerdictRecord,
    legacy: &Verdict,
    label: &str,
) {
    assert_eq!(study.holds, legacy.holds(), "{label}: holds");
    assert_eq!(
        study.witness,
        legacy.witness().map(|w| w.to_string()),
        "{label}: witness"
    );
}

fn assert_bits_equal(a: f64, b: f64, label: &str) {
    assert_eq!(a.to_bits(), b.to_bits(), "{label}: {a} vs {b}");
}

fn roundtrip(report: &StudyReport, label: &str) {
    let text = report.to_json_string();
    let back = StudyReport::from_json_str(&text)
        .unwrap_or_else(|e| panic!("{label}: JSON parse failed: {e}"));
    assert_eq!(&back, report, "{label}: JSON round trip");
    assert_eq!(back.to_json_string(), text, "{label}: render fixed point");
}

/// The full differential for one `(algorithm, spec, daemon)` triple, on
/// the legacy pipeline's own exploration shape (explicit full sweep, so
/// value equality is bit-for-bit by construction sharing).
fn differential<A, L>(alg: &A, spec: &L, daemon: DaemonSpec)
where
    A: Algorithm + Sync,
    A::State: Sync,
    L: Legitimacy<A::State> + Sync,
{
    let label = format!("{} under {daemon}", alg.name());

    let report = Study::of(alg)
        .daemon(daemon)
        .spec(spec)
        .cap(CAP)
        .verdicts(FairnessSet::ALL)
        .hitting_cdf(CDF_HORIZON)
        .options(ExploreOptions::full())
        .run()
        .unwrap_or_else(|e| panic!("{label}: study failed: {e}"));
    assert!(!report.plan.planned, "{label}: explicit options ≠ planned");
    roundtrip(&report, &label);

    // ---- Checker stage vs stab_checker::analyze ----------------------
    let legacy: StabilizationReport = analyze(alg, daemon, spec, CAP).unwrap();
    let space = report.space.as_ref().expect("explore stage completed");
    assert_eq!(space.configs, legacy.states, "{label}: states");
    assert_eq!(space.legitimate, legacy.legitimate, "{label}: legitimate");
    assert_eq!(
        space.deterministic, legacy.deterministic,
        "{label}: determinism audit"
    );
    let verdicts = report.verdicts.as_ref().expect("verdict stage ran");
    assert_verdict_matches(&verdicts.closure, &legacy.closure, &label);
    assert_verdict_matches(&verdicts.weak, &legacy.weak, &label);
    assert_verdict_matches(&verdicts.probabilistic, &legacy.probabilistic, &label);
    for fairness in Fairness::ALL {
        assert_verdict_matches(
            verdicts.self_under(fairness).unwrap(),
            legacy.self_under(fairness),
            &format!("{label} @ {fairness}"),
        );
    }

    // ---- Markov stage vs AbsorbingChain::build -----------------------
    let chain = AbsorbingChain::build(alg, daemon, spec, CAP).unwrap();
    let expected = report.expected_times.as_ref().expect("expected stage ran");
    match chain.expected_steps() {
        Ok(times) => {
            let solved = expected
                .solved()
                .unwrap_or_else(|| panic!("{label}: legacy solved, study did not"));
            assert_eq!(
                solved.n_transient,
                chain.n_transient() as u64,
                "{label}: transient count"
            );
            assert_bits_equal(
                solved.worst_case,
                times.worst_case(),
                &format!("{label}: worst case"),
            );
            assert_bits_equal(
                solved.average,
                times.average_uniform(chain.n_configs()),
                &format!("{label}: uniform average"),
            );
            let min_absorb = chain
                .absorption_probabilities()
                .unwrap()
                .into_iter()
                .fold(1.0f64, f64::min);
            assert_bits_equal(
                solved.min_absorption,
                min_absorb,
                &format!("{label}: min absorption"),
            );
            let cdf = solved.cdf.as_ref().expect("cdf requested");
            let legacy_cdf = chain.hitting_cdf_uniform(CDF_HORIZON);
            assert_eq!(cdf.len(), legacy_cdf.len(), "{label}: cdf length");
            for (k, (a, b)) in cdf.iter().zip(&legacy_cdf).enumerate() {
                assert_bits_equal(*a, *b, &format!("{label}: cdf[{k}]"));
            }
        }
        Err(e) => match expected {
            ExpectedSection::Unsolvable { error } => {
                assert_eq!(error, &e.to_string(), "{label}: unsolvable reason");
            }
            ExpectedSection::Solved(_) => {
                panic!("{label}: legacy chain unsolvable ({e}), study solved")
            }
        },
    }
}

#[test]
fn token_circulation_matches_legacy_under_every_daemon() {
    let alg = TokenCirculation::on_ring(&builders::ring(4)).unwrap();
    let spec = alg.legitimacy();
    for daemon in DaemonSpec::LEGACY {
        differential(&alg, &spec, daemon);
    }
}

#[test]
fn two_process_toggle_matches_legacy_under_every_daemon() {
    let alg = TwoProcessToggle::new();
    let spec = alg.legitimacy();
    for daemon in DaemonSpec::LEGACY {
        // Includes the central-daemon case, where absorption fails and the
        // study must report the same typed reason the legacy solver does.
        differential(&alg, &spec, daemon);
    }
}

#[test]
fn coloring_matches_legacy_under_every_daemon() {
    let g = builders::path(3);
    let alg = GreedyColoring::new(&g).unwrap();
    let spec = alg.legitimacy();
    for daemon in DaemonSpec::LEGACY {
        differential(&alg, &spec, daemon);
    }
}

#[test]
fn herman_matches_legacy_under_synchronous() {
    let alg = HermanRing::on_ring(&builders::ring(7)).unwrap();
    let spec = alg.legitimacy();
    differential(&alg, &spec, DaemonSpec::synchronous());
}

#[test]
fn dijkstra_matches_legacy_under_central() {
    let alg = DijkstraRing::on_ring(&builders::ring(4)).unwrap();
    let spec = alg.legitimacy();
    differential(&alg, &spec, DaemonSpec::central());
}

#[test]
fn transformed_toggle_matches_legacy_under_synchronous() {
    let alg = Transformed::new(TwoProcessToggle::new());
    let spec = ProjectedLegitimacy::new(TwoProcessToggle::new().legitimacy());
    differential(&alg, &spec, DaemonSpec::synchronous());
}

/// The Monte-Carlo stage is the same seeded batch the legacy call runs:
/// identical settings must give identical estimates, not just close ones.
#[test]
fn monte_carlo_stage_matches_legacy_estimate_bit_for_bit() {
    let alg = Transformed::new(TwoProcessToggle::new());
    let spec = ProjectedLegitimacy::new(TwoProcessToggle::new().legitimacy());
    // A seed above 2^53 doubles as the integer-fidelity probe: it must
    // survive the JSON round trip exactly (u64 fields never route
    // through f64).
    let config = McConfig {
        runs: 500,
        max_steps: 100_000,
        seed: (1 << 60) + 3,
        threads: 2,
    };
    let report = Study::of(&alg)
        .daemon(DaemonSpec::synchronous())
        .spec(&spec)
        .cap(CAP)
        .monte_carlo(config.clone())
        .run()
        .unwrap();
    let mc = report.monte_carlo.as_ref().expect("mc stage ran");
    let legacy = estimate(
        &alg,
        DaemonSpec::synchronous(),
        &spec,
        &BatchSettings {
            runs: config.runs,
            max_steps: config.max_steps,
            seed: config.seed,
            threads: config.threads,
        },
    );
    assert_eq!(mc.runs, legacy.runs);
    assert_eq!(mc.failures, legacy.failures);
    assert_bits_equal(mc.steps.mean, legacy.steps.mean, "steps mean");
    assert_bits_equal(mc.steps.std_err, legacy.steps.std_err, "steps stderr");
    assert_bits_equal(mc.moves.mean, legacy.moves.mean, "moves mean");
    assert_bits_equal(mc.rounds.mean, legacy.rounds.mean, "rounds mean");
    assert_eq!(mc.seed, (1 << 60) + 3, "u64 seed recorded exactly");
    roundtrip(&report, "mc stage");
}

/// A stage that was not requested contributes nothing: no section, no
/// timing — and the report still serializes.
#[test]
fn unrequested_stages_are_absent() {
    let alg = TwoProcessToggle::new();
    let spec = alg.legitimacy();
    let report = Study::of(&alg)
        .daemon(DaemonSpec::distributed())
        .spec(&spec)
        .cap(CAP)
        .run()
        .unwrap();
    assert!(report.verdicts.is_none());
    assert!(report.expected_times.is_none());
    assert!(report.monte_carlo.is_none());
    assert!(report.timings_ms.verdicts.is_none());
    assert!(report.timings_ms.chain_build.is_none());
    assert!(report.timings_ms.expected_solve.is_none());
    assert!(report.timings_ms.monte_carlo.is_none());
    assert!(report.space.as_ref().unwrap().configs > 0);
    roundtrip(&report, "counters-only study");
}

/// Narrowed verdict sets report exactly the requested fairness rows.
#[test]
fn verdict_set_selects_fairness_rows() {
    let alg = TokenCirculation::on_ring(&builders::ring(4)).unwrap();
    let spec = alg.legitimacy();
    let report = Study::of(&alg)
        .daemon(DaemonSpec::distributed())
        .spec(&spec)
        .cap(CAP)
        .verdicts(FairnessSet::of(&[Fairness::StronglyFair, Fairness::Gouda]))
        .run()
        .unwrap();
    let verdicts = report.verdicts.as_ref().unwrap();
    assert_eq!(verdicts.self_stabilizing.len(), 2);
    assert!(verdicts.self_under(Fairness::Unfair).is_none());
    assert!(verdicts.self_under(Fairness::StronglyFair).is_some());
    assert!(verdicts.self_under(Fairness::Gouda).is_some());
    roundtrip(&report, "narrowed verdicts");
}

/// Malformed and wrong-schema documents are typed parse errors.
#[test]
fn parse_rejects_wrong_schema_and_garbage() {
    assert!(StudyReport::from_json_str("not json").is_err());
    assert!(StudyReport::from_json_str("{}").is_err());
    let err = StudyReport::from_json_str(r#"{"schema": "study_report/v0"}"#).unwrap_err();
    assert!(err.contains("study_report/v0"), "{err}");
}

/// A k-central daemon with `k = 0` allows no activation, so it is a parse
/// error naming the field rather than a daemon under which every
/// configuration is terminal.
#[test]
fn parse_rejects_zero_k_central_daemon() {
    let alg = TwoProcessToggle::new();
    let spec = alg.legitimacy();
    let report = Study::of(&alg)
        .daemon(DaemonSpec::central())
        .spec(&spec)
        .run()
        .unwrap();
    let text = report.to_json_string();
    let zero_k = text.replacen("\"k\": 1", "\"k\": 0", 1);
    assert_ne!(zero_k, text, "the central daemon serializes `k`");
    let err = StudyReport::from_json_str(&zero_k).unwrap_err();
    assert!(err.contains("`k`"), "{err}");
}

/// Pins the premise of the overlap tests: on a host with two or more
/// CPUs, a study of `alg` forks and runs its Monte-Carlo batch beside
/// plan, explore, verdicts, chain and solve (Herman N=13 has 8,192
/// configurations, two 4,096-id chunks).
fn assert_study_forks<A: Algorithm>(alg: &A) {
    let total = SpaceIndexer::new(alg, CAP).unwrap().total();
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    assert_eq!(
        parallel::thread_count(total) > 1,
        cpus > 1,
        "{}: {total} configurations",
        alg.name()
    );
}

/// The overlapped batch is the batch `estimate_with` runs alone: same
/// draws, same section, bit for bit, beside a full exact pipeline.
#[test]
fn overlapped_monte_carlo_stage_is_the_solo_batch_bit_for_bit() {
    let alg = HermanRing::on_ring(&builders::ring(13)).unwrap();
    let spec = alg.legitimacy();
    let config = McConfig {
        runs: 300,
        max_steps: 100_000,
        seed: 0x5EED,
        threads: 2,
    };
    assert_study_forks(&alg);
    let report = Study::of(&alg)
        .daemon(DaemonSpec::synchronous())
        .spec(&spec)
        .verdicts(FairnessSet::ALL)
        .expected_times()
        .monte_carlo(config.clone())
        .run()
        .unwrap();
    assert!(matches!(
        report.expected_times,
        Some(ExpectedSection::Solved(_))
    ));
    assert!(report.verdicts.is_some());

    let solo = estimate_with(
        &alg,
        DaemonSpec::synchronous(),
        &spec,
        &config,
        init::uniform(&alg),
    )
    .expect("herman converges");
    let expected = McSection {
        runs: solo.runs,
        failures: solo.failures,
        seed: config.seed,
        max_steps: config.max_steps,
        steps: EstimateRecord::from(&solo.steps),
        moves: EstimateRecord::from(&solo.moves),
        rounds: EstimateRecord::from(&solo.rounds),
    };
    let mc = report.monte_carlo.as_ref().expect("mc stage ran");
    assert_eq!(mc, &expected);
    for (a, b, what) in [
        (&mc.steps, &expected.steps, "steps"),
        (&mc.moves, &expected.moves, "moves"),
        (&mc.rounds, &expected.rounds, "rounds"),
    ] {
        assert_bits_equal(a.mean, b.mean, what);
        assert_bits_equal(a.std_dev, b.std_dev, what);
    }
    let t = &report.timings_ms;
    assert!(t.monte_carlo.is_some_and(|ms| ms <= t.total), "{t:?}");
}

/// An error of the exact pipeline still reaches the caller when the batch
/// ran beside it: an injected kill and a forced unsupported quotient
/// each return their `CoreError` once the batch has joined.
#[test]
fn exact_stage_errors_survive_the_overlapped_batch() {
    let config = McConfig {
        runs: 64,
        max_steps: 100_000,
        seed: 3,
        threads: 1,
    };
    let alg = HermanRing::on_ring(&builders::ring(13)).unwrap();
    let spec = alg.legitimacy();
    assert_study_forks(&alg);
    let dir = std::env::temp_dir().join(format!("study-overlap-kill-{}", std::process::id()));
    let killed = Study::of(&alg)
        .daemon(DaemonSpec::synchronous())
        .spec(&spec)
        .expected_times()
        .monte_carlo(config.clone())
        .checkpoint(&dir, 64)
        .faults(FaultPlan::none().with_kill_after_frames(2))
        .run();
    let _ = std::fs::remove_dir_all(&dir);
    match killed {
        Err(CoreError::Interrupted { after_frames }) => assert_eq!(after_frames, 2),
        other => panic!("expected an injected kill, got {other:?}"),
    }

    // Dijkstra's K-state ring has a distinguished process, so ring
    // rotations are no symmetry of it; ring(6) has 6^6 = 46,656
    // configurations, enough to fork.
    let alg = DijkstraRing::on_ring(&builders::ring(6)).unwrap();
    let spec = alg.legitimacy();
    assert_study_forks(&alg);
    let rejected = Study::of(&alg)
        .daemon(DaemonSpec::central())
        .spec(&spec)
        .verdicts(FairnessSet::ALL)
        .monte_carlo(config)
        .options(ExploreOptions::full().with_quotient(Quotient::RingRotation))
        .run();
    match rejected {
        Err(CoreError::QuotientUnsupported { .. }) => {}
        other => panic!("expected a rejected quotient, got {other:?}"),
    }

    // Below the fork rule the batch would run after the failed exact
    // stages; it does not run at all. Herman ring(11) has 2,048
    // configurations. Every Monte-Carlo run checks legitimacy at least
    // once, so a batch would add at least `runs` checks.
    let alg = HermanRing::on_ring(&builders::ring(11)).unwrap();
    let total = SpaceIndexer::new(&alg, CAP).unwrap().total();
    assert_eq!(parallel::thread_count(total), 1);
    let herman = alg.legitimacy();
    let checks = AtomicU64::new(0);
    let spec = Predicate::new("counted", |c: &Configuration<_>| {
        checks.fetch_add(1, Ordering::Relaxed);
        herman.is_legitimate(c)
    });
    let big = McConfig {
        runs: 10_000,
        ..McConfig::default()
    };
    let mut counts = Vec::new();
    for batch in [None, Some(big)] {
        let dir = std::env::temp_dir().join(format!("study-serial-kill-{}", std::process::id()));
        checks.store(0, Ordering::Relaxed);
        let mut study = Study::of(&alg)
            .daemon(DaemonSpec::synchronous())
            .spec(&spec)
            .checkpoint(&dir, 64)
            .faults(FaultPlan::none().with_kill_after_frames(2));
        if let Some(config) = batch {
            study = study.monte_carlo(config);
        }
        let killed = study.run();
        let _ = std::fs::remove_dir_all(&dir);
        assert!(
            matches!(killed, Err(CoreError::Interrupted { after_frames: 2 })),
            "expected an injected kill, got {killed:?}"
        );
        counts.push(checks.load(Ordering::Relaxed));
    }
    assert_eq!(
        counts[0], counts[1],
        "legitimacy checks without, with a batch"
    );
}
