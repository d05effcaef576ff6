//! A tour of the fairness hierarchy: one system, four fairness notions,
//! four different verdicts — the conceptual heart of the paper.
//!
//! ```bash
//! cargo run --release --example fairness_zoo
//! ```
//!
//! Algorithm 1 on the 6-ring (the paper's Theorem 6 instance) is analyzed
//! under the distributed scheduler. The run prints, for each fairness
//! level, whether certain convergence holds and (when it fails) the
//! counterexample lasso the checker constructs.

use weak_stabilization::prelude::*;

use stab_algorithms::TokenCirculation;
use stab_checker::analyze;

fn main() {
    let ring = builders::ring(6);
    let alg = TokenCirculation::on_ring(&ring).expect("a ring");
    let spec = alg.legitimacy();
    let report = analyze(&alg, DaemonSpec::distributed(), &spec, 1 << 22).expect("small space");

    println!(
        "system: {} over {} configurations ({} legitimate)\n",
        report.algorithm, report.states, report.legitimate
    );
    println!("weak (possible convergence): {}\n", report.weak.mark());

    for fairness in Fairness::ALL {
        let verdict = report.self_under(fairness);
        println!(
            "certain convergence under {fairness:>14}: {}",
            verdict.mark()
        );
        if let Some(w) = verdict.witness() {
            let text = w.to_string();
            let shown: String = text.chars().take(160).collect();
            println!("    {} …", shown);
        }
    }
    println!(
        "\nprobabilistic convergence (randomized scheduler): {}",
        report.probabilistic.mark()
    );

    // The paper's hierarchy, as inequalities between verdicts:
    // unfair ⇒ weakly-fair ⇒ strongly-fair ⇒ Gouda (as scheduler
    // constraints get stronger, convergence gets easier).
    let ladder: Vec<bool> = Fairness::ALL
        .iter()
        .map(|&f| report.self_under(f).holds())
        .collect();
    for w in ladder.windows(2) {
        assert!(!w[0] || w[1], "stronger fairness can only help convergence");
    }
    // And Theorem 7: the top of the ladder coincides with probability-1
    // convergence.
    assert_eq!(
        report.self_under(Fairness::Gouda).holds(),
        report.probabilistic.holds(),
        "Theorem 7"
    );
    println!("\nfairness ladder is monotone and Gouda ≡ randomized ✓ (Theorems 6 & 7)");
}
