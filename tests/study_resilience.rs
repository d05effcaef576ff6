//! Study-level resilience: an exhausted budget degrades the report
//! (exit 0, `study_report/v4` status section) instead of failing, and an
//! interrupted-then-resumed checkpointed study reproduces the
//! uninterrupted report bit-for-bit.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use stab_algorithms::{HermanRing, TokenCirculation};
use stab_core::engine::{Budget, FaultPlan};
use stab_core::{CoreError, DaemonSpec, FairnessSet};
use stab_graph::builders;
use weak_stabilization::study::{ExpectedSection, McConfig, Outcome, Study, StudyReport, Timings};

fn tmp_dir(tag: &str) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "study-resilience-{tag}-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Wall-clock noise is the one part of a report two runs can never
/// share; everything else must be bit-identical.
fn strip_timings(mut report: StudyReport) -> StudyReport {
    report.timings_ms = Timings {
        plan: 0.0,
        explore: 0.0,
        verdicts: None,
        chain_build: None,
        expected_solve: None,
        monte_carlo: None,
        total: 0.0,
    };
    report
}

/// The acceptance case: a study under an already-exhausted wall-time
/// budget exits 0 with a `Degraded` explore status — no panic, no OOM —
/// and the v2 report round-trips with that status intact.
#[test]
fn exhausted_budget_degrades_the_study_instead_of_failing_it() {
    let alg = TokenCirculation::on_ring(&builders::ring(4)).unwrap();
    let spec = alg.legitimacy();
    let report = Study::of(&alg)
        .daemon(DaemonSpec::distributed())
        .spec(&spec)
        .verdicts(FairnessSet::ALL)
        .expected_times()
        .monte_carlo(McConfig {
            runs: 16,
            max_steps: 100_000,
            seed: 7,
            threads: 1,
        })
        .budget(Budget::unlimited().with_wall_time(Duration::ZERO))
        .run()
        .expect("a starved study still exits cleanly");

    assert!(report.status.explore.is_degraded(), "{:?}", report.status);
    assert!(report.status.any_degraded());
    assert!(report.space.is_none(), "no counters without an exploration");
    assert!(report.verdicts.is_none());
    assert!(report.expected_times.is_none());
    assert_eq!(report.status.verdicts, Outcome::Skipped);
    assert_eq!(report.status.chain_build, Outcome::Skipped);
    assert_eq!(report.status.expected_solve, Outcome::Skipped);
    // Monte-Carlo needs no exploration, so the starved study still
    // delivers its estimates.
    assert_eq!(report.status.monte_carlo, Outcome::Complete);
    assert!(report.monte_carlo.is_some());

    let text = report.to_json_string();
    assert!(text.contains("study_report/v4"));
    assert!(text.contains("degraded"));
    assert_eq!(StudyReport::from_json_str(&text).unwrap(), report);
}

/// A typed states cap degrades the same way, with the resource named in
/// the reason.
#[test]
fn states_cap_names_the_exhausted_resource() {
    let alg = TokenCirculation::on_ring(&builders::ring(4)).unwrap();
    let spec = alg.legitimacy();
    let report = Study::of(&alg)
        .daemon(DaemonSpec::distributed())
        .spec(&spec)
        .budget(Budget::unlimited().with_max_states(8))
        .run()
        .unwrap();
    match &report.status.explore {
        Outcome::Degraded { reason } => {
            assert!(reason.contains("states"), "reason: {reason}");
        }
        other => panic!("expected a degraded explore, got {other:?}"),
    }
}

/// An unconstrained study reports every run stage `Complete` and every
/// unrequested stage `Skipped` — the v2 status section is not noise on
/// the happy path.
#[test]
fn unbudgeted_studies_report_complete_stages() {
    let alg = TokenCirculation::on_ring(&builders::ring(4)).unwrap();
    let spec = alg.legitimacy();
    let report = Study::of(&alg)
        .daemon(DaemonSpec::distributed())
        .spec(&spec)
        .verdicts(FairnessSet::ALL)
        .run()
        .unwrap();
    assert_eq!(report.status.plan, Outcome::Complete);
    assert_eq!(report.status.explore, Outcome::Complete);
    assert_eq!(report.status.verdicts, Outcome::Complete);
    assert_eq!(report.status.chain_build, Outcome::Skipped);
    assert_eq!(report.status.expected_solve, Outcome::Skipped);
    assert_eq!(report.status.monte_carlo, Outcome::Skipped);
    assert!(!report.status.any_degraded());
    assert!(report.space.is_some());
}

/// The ISSUE's differential acceptance case: a checkpointed Herman N=13
/// study killed mid-explore, then resumed from the frame chain, must
/// produce the same report (timings aside) as one uninterrupted run.
#[test]
fn interrupted_then_resumed_herman13_study_matches_uninterrupted() {
    let alg = HermanRing::on_ring(&builders::ring(13)).unwrap();
    let spec = alg.legitimacy();
    let study = |alg| {
        Study::of(alg)
            .daemon(DaemonSpec::synchronous())
            .spec(&spec)
            .verdicts(FairnessSet::ALL)
            .expected_times()
    };

    let uninterrupted = study(&alg).run().unwrap();
    assert_eq!(uninterrupted.status.explore, Outcome::Complete);

    // Fault-injected death after two durable frames: the study dies with
    // the real error a SIGKILL would leave behind — no report at all.
    let dir = tmp_dir("herman13");
    let killed = study(&alg)
        .checkpoint(&dir, 64)
        .faults(FaultPlan::none().with_kill_after_frames(2))
        .run();
    match killed {
        Err(CoreError::Interrupted { after_frames }) => assert_eq!(after_frames, 2),
        other => panic!("expected an injected kill, got {other:?}"),
    }

    // Same study, same directory, no faults: exploration adopts the
    // surviving frames and the finished report is bit-identical.
    let resumed = study(&alg).checkpoint(&dir, 64).run().unwrap();
    assert_eq!(
        strip_timings(resumed),
        strip_timings(uninterrupted),
        "resumed study diverged from the uninterrupted run"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// A zero-run Monte-Carlo request is valid: the stage degrades with a
/// reason and no section instead of panicking inside the simulator, and
/// every other stage is unaffected.
#[test]
fn zero_run_monte_carlo_degrades_instead_of_panicking() {
    let alg = HermanRing::on_ring(&builders::ring(5)).unwrap();
    let spec = alg.legitimacy();
    let report = Study::of(&alg)
        .daemon(DaemonSpec::synchronous())
        .spec(&spec)
        .expected_times()
        .monte_carlo(McConfig {
            runs: 0,
            ..McConfig::default()
        })
        .run()
        .unwrap();
    assert!(report.monte_carlo.is_none());
    assert!(report.timings_ms.monte_carlo.is_none());
    match &report.status.monte_carlo {
        Outcome::Degraded { reason } => assert!(reason.contains("zero"), "{reason}"),
        other => panic!("expected a degraded Monte-Carlo stage, got {other:?}"),
    }
    assert_eq!(report.status.expected_solve, Outcome::Complete);
    assert!(report.expected_times.unwrap().solved().is_some());
}

/// A Monte-Carlo request whose runs all miss the legitimate set within
/// `max_steps` degrades the stage instead of panicking in the simulator.
/// With `max_steps: 0` only legitimate starts converge, and seed 1 draws
/// ten illegitimate Herman N=11 starts.
#[test]
fn unconverged_monte_carlo_degrades_instead_of_panicking() {
    let alg = HermanRing::on_ring(&builders::ring(11)).unwrap();
    let spec = alg.legitimacy();
    let report = Study::of(&alg)
        .daemon(DaemonSpec::synchronous())
        .spec(&spec)
        .expected_times()
        .monte_carlo(McConfig {
            runs: 10,
            max_steps: 0,
            seed: 2,
            threads: 1,
        })
        .run()
        .unwrap();
    assert!(report.monte_carlo.is_none());
    match &report.status.monte_carlo {
        Outcome::Degraded { reason } => assert_eq!(
            reason, "no Monte-Carlo run converged within 0 steps",
            "{reason}"
        ),
        other => panic!("expected a degraded Monte-Carlo stage, got {other:?}"),
    }
    assert_eq!(report.status.expected_solve, Outcome::Complete);
    assert!(report.expected_times.unwrap().solved().is_some());
}

/// A non-absorbing chain is refused before any solve: the report records
/// the `NotAbsorbing` finding as `Unsolvable`, with the same text as the
/// chain's own error.
#[test]
fn non_absorbing_chain_is_unsolvable_with_the_not_absorbing_text() {
    use stab_algorithms::TwoProcessToggle;
    use stab_markov::AbsorbingChain;
    let alg = TwoProcessToggle::new();
    let spec = alg.legitimacy();
    let report = Study::of(&alg)
        .daemon(DaemonSpec::central())
        .spec(&spec)
        .expected_times()
        .run()
        .unwrap();
    assert_eq!(report.status.expected_solve, Outcome::Complete);
    let Some(ExpectedSection::Unsolvable { error }) = report.expected_times else {
        panic!("expected an unsolvable section");
    };
    assert_eq!(
        error,
        "absorption is not almost sure: ⟨false, false⟩ cannot reach the legitimate set"
    );
    let chain = AbsorbingChain::build(&alg, DaemonSpec::central(), &spec, 1 << 12).unwrap();
    assert_eq!(error, chain.expected_steps().unwrap_err().to_string());
}
