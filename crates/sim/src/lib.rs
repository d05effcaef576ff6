//! Monte-Carlo simulation of stabilizing systems under randomized
//! schedulers — the sampling half of the paper's "quantitative study of
//! weak-stabilization" (its exact half lives in `stab-markov`).
//!
//! A *run* starts from an initial configuration, repeatedly samples an
//! activation from the randomized scheduler of Definition 6 and the
//! activated processes' outcomes, and stops when the configuration becomes
//! legitimate (or a step budget is exhausted). Runs report three standard
//! cost measures:
//!
//! * **steps** — scheduler steps until the first legitimate configuration;
//! * **moves** — total process activations (work);
//! * **rounds** — asynchronous rounds: a round completes when every process
//!   enabled at its start has since been activated or disabled.
//!
//! One step kernel ([`run`]) drives every run. It keeps its buffers across
//! the runs of a batch, so a step whose processes draw from one- or
//! two-point outcome distributions touches no heap, and it
//! re-evaluates one guard per node of N\[activation\] per step.
//! [`montecarlo`] batches seeded runs (in parallel, deterministically) and
//! aggregates them into mean / 95%-confidence-interval estimates, which the
//! experiment harness cross-validates against the exact Markov solutions.
//! Initial configurations come from [`init`]: uniform over the full space,
//! conditioned (rejection) sampling, or uniform over a *designated initial
//! set* ([`init::from_seeds`]) — the sampling counterpart of the engine's
//! reachable-only exploration.
//!
//! # Example
//!
//! ```
//! use stab_algorithms::TwoProcessToggle;
//! use stab_core::{DaemonSpec, ProjectedLegitimacy, Transformed};
//! use stab_sim::montecarlo::{self, BatchSettings};
//!
//! let alg = Transformed::new(TwoProcessToggle::new());
//! let spec = ProjectedLegitimacy::new(TwoProcessToggle::new().legitimacy());
//! let batch = montecarlo::estimate(
//!     &alg,
//!     DaemonSpec::synchronous(),
//!     &spec,
//!     &BatchSettings { runs: 2_000, max_steps: 100_000, seed: 7, threads: 2 },
//! );
//! assert_eq!(batch.failures, 0);
//! // Exact expected worst-case time is 10 (see stab-markov); the uniform
//! // initial average lies below it.
//! assert!(batch.steps.mean < 10.0);
//! ```

pub mod init;
pub mod montecarlo;
pub mod run;
pub mod stats;

pub use montecarlo::{estimate, BatchResult, BatchSettings};
pub use run::{run_once, run_recorded, RunResult};
pub use stats::Estimate;
