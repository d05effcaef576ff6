//! Guarded-command kernel for the *Weak vs. Self vs. Probabilistic
//! Stabilization* reproduction (Devismes–Tixeuil–Yamashita, ICDCS 2008).
//!
//! This crate implements §2 of the paper as a library:
//!
//! * **Local algorithms** ([`Algorithm`]) are finite sets of guarded actions
//!   `⟨label⟩ :: ⟨guard⟩ → ⟨statement⟩`. Guards may only read the process's
//!   own state and its neighbours' states — enforced syntactically by the
//!   [`View`] abstraction, which is the only state access an algorithm gets.
//! * **Configurations** ([`Configuration`]) are instances of all process
//!   states; steps activate a non-empty subset of enabled processes
//!   ([`Activation`]), all of which read the *pre*-configuration and write
//!   atomically ([`semantics`]).
//! * **Schedulers** (a.k.a. daemons, [`DaemonSpec`]) are points of the
//!   composable (distribution × fairness × boundedness) lattice of the
//!   Dubois–Tixeuil taxonomy; the paper's four daemons — central,
//!   distributed, synchronous, locally central — are named points
//!   ([`DaemonSpec::LEGACY`]). Each point has an
//!   enumerated form (for exhaustive checking) and the *randomized* form of
//!   Definition 6 (uniform choice, for Markov analysis and simulation).
//! * **Fairness** ([`Fairness`]) ranges over unfair (the paper's "proper"),
//!   weakly fair, strongly fair and Gouda-fair.
//! * **Specifications** are legitimate-configuration predicates
//!   ([`Legitimacy`]); Definitions 1–3 of the paper (self, probabilistic and
//!   weak stabilization) are decided by the `stab-checker` crate on top of
//!   these.
//! * **The transformer** ([`Transformed`]) is the paper's §4 construction
//!   `Trans(A) :: guard → B ← Rand(true,false); if B then S_A`, which turns a
//!   deterministic weak-stabilizing system into a probabilistic
//!   self-stabilizing one (Theorems 8 and 9).
//! * **The exploration engine** ([`engine`]) materialises the labelled
//!   transition system of an `(algorithm, daemon)` pair as flat CSR
//!   storage shared by the checker and the Markov builder, with three
//!   traversals selectable per run ([`engine::ExploreOptions`]): the full
//!   mixed-radix sweep, on-the-fly reachable-only BFS from a designated
//!   initial set, and ring-rotation quotienting.
//!
//! # Example: a one-bit algorithm
//!
//! ```
//! use stab_core::{ActionId, ActionMask, Algorithm, Configuration, Outcomes, View};
//! use stab_graph::{builders, Graph, NodeId};
//!
//! /// Each process raises its flag iff its flag is down and some
//! /// neighbour's flag is down.
//! struct Flags { g: Graph }
//!
//! impl Algorithm for Flags {
//!     type State = bool;
//!     fn graph(&self) -> &Graph { &self.g }
//!     fn name(&self) -> String { "flags".into() }
//!     fn state_space(&self, _n: NodeId) -> Vec<bool> { vec![false, true] }
//!     fn enabled_actions<V: View<bool>>(&self, v: &V) -> ActionMask {
//!         let lonely = (0..v.degree()).any(|p| !v.neighbor(p.into()));
//!         if !*v.me() && lonely { ActionMask::single(ActionId::A1) } else { ActionMask::empty() }
//!     }
//!     fn apply<V: View<bool>>(&self, _v: &V, _a: ActionId) -> Outcomes<bool> {
//!         Outcomes::certain(true)
//!     }
//! }
//!
//! let alg = Flags { g: builders::path(3) };
//! let cfg = Configuration::from_vec(vec![false, false, true]);
//! assert_eq!(alg.enabled_nodes(&cfg), vec![NodeId::new(0), NodeId::new(1)]);
//! ```

pub mod action;
pub mod algorithm;
pub mod config;
pub mod engine;
pub mod error;
pub mod exec;
pub mod fairness;
pub mod outcome;
pub mod restricted;
pub mod scheduler;
pub mod semantics;
pub mod space;
pub mod spec;
pub mod transformer;
pub mod view;

pub use action::{ActionId, ActionMask};
pub use algorithm::{Algorithm, LocalState};
pub use config::Configuration;
pub use error::CoreError;
pub use exec::Trace;
pub use fairness::{Fairness, FairnessSet};
pub use outcome::Outcomes;
pub use restricted::Restricted;
pub use scheduler::{Activation, Boundedness, DaemonSpec, Distribution};
pub use space::SpaceIndexer;
pub use spec::{Legitimacy, Predicate};
pub use transformer::{Coined, ProjectedLegitimacy, Transformed};
pub use view::{ConfigView, View};
