//! **E6 — Theorem 6**: Gouda's strong fairness is strictly stronger than
//! classical strong fairness.
//!
//! On the 6-ring, Algorithm 1 admits the paper's counterexample: two tokens
//! at distance 3 moving alternately — a *strongly fair* execution (both
//! tokens' holders move infinitely often) that never converges. Under Gouda
//! fairness the same system converges: the two-token components are not
//! closed (some transition always leads towards a merge), so no Gouda-fair
//! execution can stay in them.

use stab_algorithms::TokenCirculation;
use stab_checker::{analyze, theorems, Witness};
use stab_core::{DaemonSpec, Fairness};
use stab_graph::builders;

fn main() {
    println!("# E6 — Theorem 6: strongly-fair lasso vs. Gouda convergence (Algorithm 1, N=6)");
    println!();
    let alg = TokenCirculation::on_ring(&builders::ring(6)).unwrap();
    let spec = alg.legitimacy();
    let report = analyze(&alg, DaemonSpec::distributed(), &spec, 1 << 22).unwrap();

    println!("{report}");
    println!();

    assert!(!report.self_under(Fairness::StronglyFair).holds());
    assert!(report.self_under(Fairness::Gouda).holds());
    assert!(theorems::theorem6_separation(&report));
    assert!(theorems::theorem5_and_7_agree(&report));

    let Some(Witness::Lasso { stem, cycle }) = report.self_under(Fairness::StronglyFair).witness()
    else {
        panic!("expected a lasso witness");
    };
    println!("## The strongly-fair non-converging lasso");
    println!();
    println!(
        "stem ({} steps to reach the recurrent component):",
        stem.len().saturating_sub(1)
    );
    for (i, c) in stem.iter().enumerate() {
        println!("  stem[{i}] = {c}");
    }
    println!();
    println!("cycle (length {}):", cycle.len());
    for (i, c) in cycle.iter().enumerate().take(12) {
        println!("  cycle[{i}] = {c}");
    }
    if cycle.len() > 12 {
        println!("  … {} more", cycle.len() - 12);
    }
    println!();
    println!("every process enabled in the component moves within the cycle (strong fairness ✓),");
    println!("yet two tokens persist forever — while the Gouda verdict is convergence ✓.");
}
