//! Explicit-state stabilization checker for the *Weak vs. Self vs.
//! Probabilistic Stabilization* reproduction.
//!
//! The paper's Definitions 1–3 classify a system + specification pair by
//! which convergence guarantee holds. For finite systems (the premise of
//! Theorems 5 and 7–9) all three classes are *decidable* by exhaustive
//! exploration, and this crate decides them:
//!
//! | Property | Method |
//! |---|---|
//! | Strong closure of `L` | check every step from every legitimate configuration |
//! | Possible convergence (weak stabilization) | backward reachability from `L` |
//! | Certain convergence under unfair / weakly fair / strongly fair schedulers | fair-cycle detection: SCC analysis with generalized-Büchi (weak) and Streett-style recursive refinement (strong) |
//! | Certain convergence under Gouda's strong fairness | bottom-SCC analysis (a Gouda-fair execution must make its recurrent set closed under *all* transitions) |
//! | Probabilistic convergence under the randomized scheduler | "from every reachable configuration, `L` is reachable" — the standard a.s.-reachability criterion for finite Markov chains |
//!
//! Theorem 7 of the paper asserts the last two rows coincide for finite
//! deterministic systems; the two verdicts are computed by *independent*
//! code paths, so `report.self_gouda == report.probabilistic` is a
//! machine-check of Theorem 7 on every system analyzed.
//!
//! Every analysis runs on dense state ids, so it applies unchanged to the
//! engine's cheaper traversals: [`analyze_with`] /
//! [`ExploredSpace::explore_with`] accept
//! `stab_core::engine::ExploreOptions` to check rotation quotients of
//! uniform rings and reachable-only spaces from designated initial sets —
//! pushing rings several sizes past what full enumeration reaches (the
//! quotient differential suite pins those verdicts to the full space).
//!
//! # Example: Theorem 2 + Theorem 6 on Algorithm 1
//!
//! ```
//! use stab_algorithms::TokenCirculation;
//! use stab_core::{DaemonSpec, Fairness};
//! use stab_graph::builders;
//!
//! let alg = TokenCirculation::on_ring(&builders::ring(5)).unwrap();
//! let spec = alg.legitimacy();
//! let report = stab_checker::analyze(&alg, DaemonSpec::distributed(), &spec, 1 << 22).unwrap();
//! assert!(report.closure.holds());
//! assert!(report.weak.holds(), "Theorem 2: weak-stabilizing");
//! assert!(!report.self_under(Fairness::StronglyFair).holds(),
//!         "Theorem 6: not self-stabilizing under strong fairness");
//! assert!(report.self_under(Fairness::Gouda).holds(), "Theorem 5 applies");
//! assert!(report.probabilistic.holds(), "Theorem 7");
//! ```

pub mod analysis;
pub mod lattice;
pub mod scc;
pub mod space;
pub mod structure;
pub mod symmetry;
pub mod theorems;
pub mod verdict;

pub use analysis::{
    analyze, analyze_space, analyze_space_budgeted, analyze_with, StabilizationReport,
};
pub use lattice::{Implied, VerdictPropagator};
pub use space::ExploredSpace;
pub use structure::{scc_summary, SccSummary};
pub use symmetry::{Automorphism, SymmetryVerdict};
pub use verdict::{Verdict, Witness};
