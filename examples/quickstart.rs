//! Quickstart: the paper's story on one ring, as ONE study.
//!
//! ```bash
//! cargo run --release --example quickstart
//! ```
//!
//! 1. Build Algorithm 1 (weak-stabilizing token circulation) on a 5-ring.
//! 2. Run a `Study`: one planned exploration shared by the checker
//!    (which stabilization classes hold — Theorems 2, 5/6, 7), the exact
//!    Markov solver, and the seeded Monte-Carlo cross-check.
//! 3. Do the same for the paper's transformer `Trans(·)` (§4), whose
//!    expected stabilization time is the quantitative study the paper
//!    lists as future work.

use weak_stabilization::prelude::*;

use stab_algorithms::TokenCirculation;
use stab_core::ProjectedLegitimacy;

fn main() {
    // 1. Algorithm 1 on an anonymous unidirectional 5-ring (m_N = 2).
    let ring = builders::ring(5);
    let alg = TokenCirculation::on_ring(&ring).expect("a ring");
    let spec = alg.legitimacy();
    println!(
        "algorithm: {}   modulus m_N = {}",
        alg.name(),
        alg.modulus()
    );

    // 2. One study under the distributed scheduler: verdicts for every
    //    fairness assumption off one shared exploration. The planner's
    //    choices (symmetry quotient? edge-store tier?) are recorded in
    //    the report.
    let report = Study::of(&alg)
        .daemon(DaemonSpec::distributed())
        .spec(&spec)
        .verdicts(FairnessSet::ALL)
        .run()
        .expect("small space");
    for decision in &report.plan.decisions {
        println!(
            "plan: {} = {} — {}",
            decision.setting, decision.choice, decision.reason
        );
    }
    let verdicts = report.verdicts.as_ref().unwrap();
    assert!(verdicts.closure.holds && verdicts.weak.holds, "Theorem 2");
    assert!(
        !verdicts.self_under(Fairness::StronglyFair).unwrap().holds,
        "Theorem 6"
    );
    assert!(
        verdicts.self_under(Fairness::Gouda).unwrap().holds,
        "Theorem 5"
    );
    assert!(verdicts.probabilistic.holds, "Theorem 7");
    println!(
        "\nweak ✓   self@strongly-fair ✗   self@Gouda ✓   probabilistic ✓   ({} states)",
        report.space.as_ref().expect("explored").configs
    );

    // 3. The transformer of §4: guard → coin toss; one more study gives
    //    the exact expected stabilization time AND the Monte-Carlo
    //    cross-check from the same exploration.
    let transformed = Transformed::new(TokenCirculation::on_ring(&ring).expect("a ring"));
    let tspec = ProjectedLegitimacy::new(alg.legitimacy());
    println!("\ntransformed: {}", transformed.name());
    let quantitative = Study::of(&transformed)
        .daemon(DaemonSpec::synchronous())
        .spec(&tspec)
        .expected_times()
        .monte_carlo(McConfig {
            runs: 10_000,
            max_steps: 1_000_000,
            seed: 2024,
            threads: 4,
        })
        .run()
        .expect("chain");
    let exact = quantitative
        .expected_times
        .as_ref()
        .unwrap()
        .solved()
        .expect("Theorem 8: almost-sure absorption");
    println!(
        "exact expected steps (uniform start):  {:.4}",
        exact.average
    );
    println!(
        "exact worst-case expected steps:       {:.4}",
        exact.worst_case
    );

    let mc = quantitative.monte_carlo.as_ref().unwrap();
    println!(
        "simulated expected steps:              {:.3} ± {:.3} (n={})",
        mc.steps.mean,
        1.96 * mc.steps.std_err,
        mc.steps.n
    );
    assert_eq!(mc.failures, 0);
    assert!(
        (mc.steps.mean - exact.average).abs() <= 3.0 * 1.96 * mc.steps.std_err,
        "simulation must agree with the exact chain"
    );
    println!("\nexact and simulated times agree ✓");

    // The whole run is one versioned, serializable record.
    let json = quantitative.to_json_string();
    println!(
        "\nStudyReport round-trips through {} bytes of study_report/v4 JSON ✓",
        json.len()
    );
    assert_eq!(
        weak_stabilization::study::StudyReport::from_json_str(&json).unwrap(),
        quantitative
    );
}
