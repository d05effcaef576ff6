//! # weak-stabilization
//!
//! A full reproduction of **“Weak vs. Self vs. Probabilistic
//! Stabilization”** (Stéphane Devismes, Sébastien Tixeuil, Masafumi
//! Yamashita; ICDCS 2008 / INRIA RR-6366) as a Rust workspace:
//!
//! * [`graph`] — topology substrate (rings, trees, ports, centers, `m_N`);
//! * [`core`] — the guarded-command kernel: configurations, local views,
//!   daemons, fairness, step semantics, the `Trans(A)` transformer, and
//!   the shared CSR exploration engine (full sweep, on-the-fly
//!   reachable-only BFS, symmetry-group quotients — ring rotation,
//!   ring dihedral, star/tree leaf permutations);
//! * [`algorithms`] — the paper's Algorithms 1–3, the center-based leader
//!   election, and classic baselines (Dijkstra's K-state ring, Herman's
//!   probabilistic ring, greedy coloring);
//! * [`checker`] — explicit-state verification of weak / self /
//!   probabilistic stabilization under unfair, weakly fair, strongly fair
//!   and Gouda-fair schedulers;
//! * [`markov`] — exact expected stabilization times via absorbing Markov
//!   chains (the quantitative study the paper lists as future work);
//! * [`sim`] — seeded Monte-Carlo simulation with confidence intervals.
//!
//! This facade crate re-exports all sub-crates under one name, hosts the
//! scenario-level [`study`] pipeline (one planned exploration driving
//! checker, Markov and Monte-Carlo, returning a serializable
//! [`StudyReport`](study::StudyReport)), the runnable examples
//! (`examples/`) and cross-crate integration tests (`tests/`).
//!
//! ## Quickstart
//!
//! The paper's weak-vs-self-vs-probabilistic comparison is **one
//! study** — one exploration, every verdict, a versioned JSON record:
//!
//! ```
//! use weak_stabilization::prelude::*;
//!
//! // Algorithm 1 of the paper on the ring of Figure 1 (N = 6, m_N = 4).
//! let ring = stab_graph::builders::ring(6);
//! let alg = stab_algorithms::token_ring::TokenCirculation::on_ring(&ring).unwrap();
//! let spec = alg.legitimacy();
//!
//! // It is weak-stabilizing but not self-stabilizing under the
//! // distributed strongly fair scheduler (Theorem 2 + Theorem 6).
//! let report = Study::of(&alg)
//!     .daemon(DaemonSpec::distributed())
//!     .spec(&spec)
//!     .verdicts(FairnessSet::ALL)
//!     .run()
//!     .unwrap();
//! let verdicts = report.verdicts.as_ref().unwrap();
//! assert!(verdicts.closure.holds);
//! assert!(verdicts.weak.holds);
//! assert!(!verdicts.self_under(Fairness::StronglyFair).unwrap().holds);
//! assert!(verdicts.self_under(Fairness::Gouda).unwrap().holds);
//! assert!(verdicts.probabilistic.holds);
//!
//! // The report serializes and parses back, bit for bit.
//! let text = report.to_json_string();
//! assert_eq!(StudyReport::from_json_str(&text).unwrap(), report);
//! ```
//!
//! The per-layer entry points (`stab_checker::analyze`,
//! `AbsorbingChain::build`, `stab_sim::montecarlo::estimate`) remain
//! available for single-stage work.

pub use stab_algorithms as algorithms;
pub use stab_checker as checker;
pub use stab_core as core;
pub use stab_graph as graph;
pub use stab_markov as markov;
pub use stab_sim as sim;

pub mod study;

/// Convenient single-import surface for examples and downstream users.
pub mod prelude {
    pub use crate::study::{McConfig, Outcome, StatusSection, Study, StudyReport};
    pub use stab_algorithms;
    pub use stab_checker;
    pub use stab_core::engine::{Budget, FaultPlan};
    pub use stab_core::{
        ActionId, ActionMask, Activation, Algorithm, Configuration, DaemonSpec, Fairness,
        FairnessSet, Legitimacy, Outcomes, Trace, Transformed, View,
    };
    pub use stab_graph::{self, builders, Graph, NodeId, PortId};
    pub use stab_markov;
    pub use stab_sim;
}
