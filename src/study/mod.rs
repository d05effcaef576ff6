//! One planned exploration driving checker, Markov and Monte-Carlo: the
//! scenario-level entry point of the library.
//!
//! The paper's central contribution is a *comparison* — weak vs. self vs.
//! probabilistic stabilization of one algorithm under one scheduler — yet
//! running that comparison through the layer APIs takes three separate
//! calls (`stab_checker::analyze`, `AbsorbingChain::build`,
//! `stab_sim::montecarlo::estimate`), each re-exploring the same
//! `(algorithm, daemon)` space and each wanting hand-tuned
//! [`ExploreOptions`]. [`Study`] replaces that with one typed builder:
//!
//! ```
//! use weak_stabilization::study::Study;
//! use stab_algorithms::TokenCirculation;
//! use stab_core::{DaemonSpec, Fairness, FairnessSet};
//! use stab_graph::builders;
//!
//! // Theorems 2 + 5/6 as ONE study: Algorithm 1 on the paper's ring.
//! let alg = TokenCirculation::on_ring(&builders::ring(5)).unwrap();
//! let spec = alg.legitimacy();
//! let report = Study::of(&alg)
//!     .daemon(DaemonSpec::distributed())
//!     .spec(&spec)
//!     .verdicts(FairnessSet::ALL)
//!     .run()
//!     .unwrap();
//! let verdicts = report.verdicts.as_ref().unwrap();
//! assert!(verdicts.weak.holds, "Theorem 2: weak-stabilizing");
//! assert!(
//!     !verdicts.self_under(Fairness::StronglyFair).unwrap().holds,
//!     "Theorem 6: not self-stabilizing even under strong fairness"
//! );
//! assert!(verdicts.self_under(Fairness::Gouda).unwrap().holds, "Theorem 5");
//! assert!(verdicts.probabilistic.holds, "Theorem 7");
//! // The report serializes; CI and bench bins consume the same object.
//! let text = report.to_json_string();
//! assert!(text.contains("study_report/v4"));
//! ```
//!
//! # What `run()` does
//!
//! 1. **Plan** — estimate the space from the algorithm's alphabet and
//!    topology, consult the engine's equivariance gate to pick the best
//!    sound symmetry quotient (or none), and pick the edge-store tier
//!    under a byte budget ([`stab_core::engine::Plan`]). Symmetry is
//!    decided once: the plan's admission travels to the exploration,
//!    which does not gate again (pinned by
//!    `stab_core::engine::gate_count`). Every decision is recorded in the
//!    report; [`Study::options`] overrides the planner wholesale (a
//!    forced quotient is then gated once, by the exploration),
//!    [`Study::byte_budget`] just moves the budget.
//! 2. **Explore once** — a single
//!    [`stab_core::engine::TransitionSystem`]
//!    materialises the space; the checker borrows it through
//!    [`ExploredSpace::from_transition_system`] and the Markov stage
//!    through [`AbsorbingChain::from_transition_system`]. No stage
//!    re-explores (pinned by `stab_core::engine::explore_count`).
//! 3. **Stages** — each chained stage ([`Study::verdicts`],
//!    [`Study::expected_times`], [`Study::monte_carlo`]) contributes a
//!    section to the [`StudyReport`]; unrequested stages cost nothing.
//! 4. **Overlap** — the Monte-Carlo batch (stage 5) reads nothing the
//!    exploration produces, so it runs beside stages 0–4 (plan, explore,
//!    verdicts, chain, solve) through `stab_core::engine::parallel::join`
//!    whenever the exploration's fork rule holds
//!    (`parallel::thread_count(total) > 1`: at least 8,192
//!    configurations on a host with two or more CPUs). Otherwise it runs
//!    last on the calling thread. Draws do not depend on the thread
//!    (run `i` uses the RNG stream `seed ⊕ i`), so the report is the same
//!    either way apart from [`Timings`]. A plan or explore error
//!    discards the batch: a batch that has not started (always, when
//!    nothing forks) does not run, and an overlapped one runs to its end
//!    before the error returns. The overlap was measured on one 2-vCPU
//!    host only (README, "Scaling past full enumeration"); on wider hosts the batch's
//!    workers and the exploration's share the CPUs.
//!
//! The report is versioned (`study_report/v4`) and round-trips through
//! JSON bit-for-bit, so the bench binaries and CI validate exactly the
//! object users see.
//!
//! # Resilience
//!
//! Three builders make a study survive hostile environments (see the
//! engine's `resilience` module for the machinery):
//!
//! * [`Study::budget`] threads a [`Budget`] through exploration, the
//!   checker's Tarjan/verdict analyses and the Gauss–Seidel solver.
//!   Exhaustion does **not** fail the run: the starved stage records
//!   [`Outcome::Degraded`] in the report's [`StatusSection`], downstream
//!   stages that needed its output record [`Outcome::Skipped`], and
//!   `run()` still returns `Ok` — "the space was too big for the budget"
//!   is a finding, not a crash.
//! * [`Study::checkpoint`] persists exploration progress as a CRC-framed
//!   delta-frame chain, so a killed process loses at most one frame
//!   interval of work ([`TransitionSystem::resume`] rebuilds the system
//!   bit-for-bit).
//! * [`Study::faults`] injects deterministic kill-points and budget
//!   trips (test/bench harness; a triggered kill surfaces as the real
//!   [`CoreError::Interrupted`] a SIGKILL would leave behind).

mod json;
mod report;

pub use json::Json;
pub use report::{
    DecisionRecord, EstimateRecord, ExpectedSection, ExpectedTimes, FairnessVerdict, McSection,
    Outcome, PlanSection, SpaceSection, StatusSection, StudyReport, Timings, VerdictRecord,
    VerdictsSection, SCHEMA,
};

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

use stab_checker::{analyze_space_budgeted, ExploredSpace, Verdict};
use stab_core::engine::{
    parallel, Budget, ExploreMode, ExploreOptions, FaultPlan, Plan, PlanRequest, RunGuard,
    TransitionSystem,
};
use stab_core::{Algorithm, CoreError, DaemonSpec, FairnessSet, Legitimacy, SpaceIndexer};
use stab_markov::{AbsorbingChain, MarkovError};
use stab_sim::init;
use stab_sim::montecarlo::{estimate_with, BatchSettings};

/// Default configuration-space cap: the engine's u32 id width (larger
/// spaces cannot be fully explored anyway).
pub const DEFAULT_CAP: u64 = u32::MAX as u64;

/// Marker for a [`Study`] whose specification has not been supplied yet;
/// `run()` only exists after [`Study::spec`] replaces it.
#[derive(Debug, Clone, Copy)]
pub struct NoSpec;

/// Seeded Monte-Carlo stage configuration: the simulator's batch
/// settings (runs, per-run step budget, base seed, worker threads). The
/// batch is deterministic in (config, algorithm).
pub type McConfig = BatchSettings;

/// A planned, staged study of one `(algorithm, daemon, specification)`
/// triple — see the [module docs](self) for the full pipeline.
///
/// Built with [`Study::of`]; the `Sp` parameter is [`NoSpec`] until
/// [`Study::spec`] supplies a specification, which is what makes
/// [`Study::run`] available (the builder is *typed*: an unspecified study
/// does not compile into a run).
#[derive(Debug, Clone)]
pub struct Study<'a, A: Algorithm, Sp = NoSpec> {
    alg: &'a A,
    spec: Sp,
    daemon: DaemonSpec,
    cap: u64,
    verdicts: Option<FairnessSet>,
    expected: bool,
    chain_only: bool,
    cdf_horizon: Option<usize>,
    monte_carlo: Option<McConfig>,
    options: Option<ExploreOptions<A::State>>,
    plan_req: PlanRequest,
    budget: Budget,
    checkpoint: Option<(PathBuf, u64)>,
    faults: FaultPlan,
}

impl<'a, A: Algorithm> Study<'a, A, NoSpec> {
    /// Starts a study of `alg` (distributed daemon by default — the
    /// paper's weakest scheduling assumption).
    pub fn of(alg: &'a A) -> Self {
        Study {
            alg,
            spec: NoSpec,
            daemon: DaemonSpec::distributed(),
            cap: DEFAULT_CAP,
            verdicts: None,
            expected: false,
            chain_only: false,
            cdf_horizon: None,
            monte_carlo: None,
            options: None,
            plan_req: PlanRequest::default(),
            budget: Budget::unlimited(),
            checkpoint: None,
            faults: FaultPlan::none(),
        }
    }
}

impl<'a, A: Algorithm, Sp> Study<'a, A, Sp> {
    /// Selects the scheduler — any point of the daemon lattice, such as
    /// one of the paper's four named points ([`DaemonSpec::LEGACY`]).
    #[must_use]
    pub fn daemon(mut self, daemon: DaemonSpec) -> Self {
        self.daemon = daemon;
        self
    }

    /// Supplies the legitimacy specification, making [`Study::run`]
    /// available.
    pub fn spec<L>(self, spec: &'a L) -> Study<'a, A, &'a L>
    where
        L: Legitimacy<A::State>,
    {
        Study {
            alg: self.alg,
            spec,
            daemon: self.daemon,
            cap: self.cap,
            verdicts: self.verdicts,
            expected: self.expected,
            chain_only: self.chain_only,
            cdf_horizon: self.cdf_horizon,
            monte_carlo: self.monte_carlo,
            options: self.options,
            plan_req: self.plan_req,
            budget: self.budget,
            checkpoint: self.checkpoint,
            faults: self.faults,
        }
    }

    /// Caps the configuration-space size (default: the u32 id width).
    #[must_use]
    pub fn cap(mut self, cap: u64) -> Self {
        self.cap = cap;
        self
    }

    /// Enables the checker stage: closure, weak and probabilistic
    /// convergence always, plus the self-stabilization verdict under each
    /// fairness assumption in `set`.
    #[must_use]
    pub fn verdicts(mut self, set: FairnessSet) -> Self {
        self.verdicts = Some(set);
        self
    }

    /// Enables the exact expected-stabilization-time stage (absorbing
    /// Markov chain over the shared exploration).
    #[must_use]
    pub fn expected_times(mut self) -> Self {
        self.expected = true;
        self
    }

    /// Also records the hitting-time CDF up to `horizon` steps (implies
    /// [`Study::expected_times`]).
    #[must_use]
    pub fn hitting_cdf(mut self, horizon: usize) -> Self {
        self.expected = true;
        self.cdf_horizon = Some(horizon);
        self
    }

    /// Builds the absorbing chain off the shared exploration — recording
    /// its `Q`-extraction cost in the report's `chain_build` timing —
    /// *without* solving for expected times. The bench smoke uses this to
    /// time the Markov stage on instances whose solves would dominate the
    /// wall clock; implied by (and subsumed under)
    /// [`Study::expected_times`].
    #[must_use]
    pub fn chain_build(mut self) -> Self {
        self.chain_only = true;
        self
    }

    /// Enables the seeded Monte-Carlo cross-check stage.
    #[must_use]
    pub fn monte_carlo(mut self, config: McConfig) -> Self {
        self.monte_carlo = Some(config);
        self
    }

    /// Replaces the auto-planner's choices wholesale with explicit engine
    /// options (the expert escape hatch). The plan section still records
    /// the estimates, with `planned = false`.
    #[must_use]
    pub fn options(mut self, options: ExploreOptions<A::State>) -> Self {
        self.options = Some(options);
        self
    }

    /// Moves the planner's flat-store byte budget (default
    /// [`stab_core::engine::DEFAULT_BYTE_BUDGET`]): estimated full-sweep
    /// flat stores above it select the compressed tier.
    #[must_use]
    pub fn byte_budget(mut self, bytes: u64) -> Self {
        self.plan_req = self.plan_req.with_byte_budget(bytes);
        self
    }

    /// Caps the run's resources (wall time, bytes, states). Exhaustion
    /// degrades the starved stage in the report's [`StatusSection`]
    /// instead of failing the run — see the [module docs](self).
    ///
    /// A limited budget (like a checkpoint or an active fault plan)
    /// routes exploration through the engine's sequential path, so
    /// budgeted runs trade the parallel sweep for interruptibility.
    ///
    /// A wall-time limit counts from the budget's construction and is
    /// probed only by stages 0–4. When the Monte-Carlo batch overlaps
    /// them (see the [module docs](self)), its threads compete with those
    /// stages for the CPUs, so a deadline met by the sequential order can
    /// degrade an exact stage.
    #[must_use]
    pub fn budget(mut self, budget: Budget) -> Self {
        self.budget = budget;
        self
    }

    /// Writes a checkpoint frame into `dir` every `every_n_states`
    /// explored states; a killed run resumes via
    /// [`TransitionSystem::resume`] (or by re-running the study with the
    /// same directory — exploration restarts, but the frame chain is
    /// replaced atomically, never torn).
    #[must_use]
    pub fn checkpoint(mut self, dir: impl Into<PathBuf>, every_n_states: u64) -> Self {
        self.checkpoint = Some((dir.into(), every_n_states));
        self
    }

    /// Installs a deterministic fault plan (kill after N checkpoint
    /// frames, budget trip at the k-th probe) — the test/bench harness
    /// for the resilience machinery.
    #[must_use]
    pub fn faults(mut self, plan: FaultPlan) -> Self {
        self.faults = plan;
        self
    }
}

fn ms(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}

fn record(verdict: &Verdict) -> VerdictRecord {
    VerdictRecord {
        holds: verdict.holds(),
        witness: verdict.witness().map(|w| w.to_string()),
    }
}

impl<'a, A, L> Study<'a, A, &'a L>
where
    A: Algorithm + Sync,
    A::State: Sync,
    L: Legitimacy<A::State> + Sync,
{
    /// Plans, explores **once**, runs the requested stages against the
    /// shared exploration, and returns the structured report.
    ///
    /// # Errors
    ///
    /// Propagates [`CoreError`] from planning and exploration (space cap,
    /// enabled-set enumeration, forced-quotient validation), including
    /// [`CoreError::Interrupted`] from an injected kill — a killed
    /// process has no report. Two failure families are *not* errors:
    ///
    /// * Markov-stage findings (absorption not almost sure, solver
    ///   divergence) are recorded in the report's
    ///   [`ExpectedSection::Unsolvable`], because "expected time is
    ///   infinite" is a finding, not a crash.
    /// * [`CoreError::BudgetExhausted`] from a [`Study::budget`] is
    ///   recorded as [`Outcome::Degraded`] for the starved stage in the
    ///   report's [`StatusSection`] ([`Outcome::Skipped`] for stages it
    ///   starved downstream), because a resource-capped run must exit
    ///   cleanly with whatever it finished.
    ///
    /// A Monte-Carlo request with zero runs, or whose runs all miss the
    /// legitimate set within `max_steps`, records [`Outcome::Degraded`]
    /// for that stage and no Monte-Carlo section.
    ///
    /// The batch overlaps stages 0–4 when the exploration forks (module
    /// docs, step 4). An error from stages 0–4 then returns only after the
    /// running batch ends, and a [`Study::budget`] wall-time limit shares
    /// the CPUs with the batch's threads.
    pub fn run(&self) -> Result<StudyReport, CoreError> {
        let total_start = Instant::now();
        let ix = SpaceIndexer::new(self.alg, self.cap)?;
        // ---- Stage 5: seeded Monte-Carlo. It reads nothing stages 0–4
        // produce (so it runs even when the explore stage degraded), and
        // it runs beside them when the exploration would fork.
        let mc = self.monte_carlo.as_ref().filter(|c| c.runs > 0);
        let fork_total = if mc.is_some() { ix.total() } else { 0 };
        let (alg, daemon, spec) = (self.alg, self.daemon, self.spec);
        // Set when stages 0–4 fail: their error discards the batch, so a
        // batch that has not started yet (always, when nothing forks) is
        // not run at all.
        let failed = AtomicBool::new(false);
        let (report, (monte_carlo, monte_carlo_ms)) = parallel::join(
            fork_total,
            || {
                self.exact_stages(ix)
                    .inspect_err(|_| failed.store(true, Ordering::Relaxed))
            },
            || {
                let Some(config) = mc.filter(|_| !failed.load(Ordering::Relaxed)) else {
                    return (None, None);
                };
                let start = Instant::now();
                let batch = estimate_with(alg, daemon, spec, config, init::uniform(alg));
                let section = batch.map(|batch| McSection {
                    runs: batch.runs,
                    failures: batch.failures,
                    seed: config.seed,
                    max_steps: config.max_steps,
                    steps: EstimateRecord::from(&batch.steps),
                    moves: EstimateRecord::from(&batch.moves),
                    rounds: EstimateRecord::from(&batch.rounds),
                });
                (section, Some(ms(start)))
            },
        );
        let mut report = report?;
        report.status.monte_carlo = match (&self.monte_carlo, &monte_carlo) {
            (_, Some(_)) => Outcome::Complete,
            (Some(c), None) if c.runs == 0 => Outcome::degraded("zero Monte-Carlo runs requested"),
            (Some(c), None) => Outcome::degraded(format!(
                "no Monte-Carlo run converged within {} steps",
                c.max_steps
            )),
            (None, None) => Outcome::Skipped,
        };
        report.monte_carlo = monte_carlo;
        report.timings_ms.monte_carlo = monte_carlo_ms;
        report.timings_ms.total = ms(total_start);
        Ok(report)
    }

    /// Stages 0–4 of [`Study::run`]: the report without its Monte-Carlo
    /// section, status and timing, and without its total time.
    fn exact_stages(&self, ix: SpaceIndexer<A::State>) -> Result<StudyReport, CoreError> {
        // ---- Stage 0: plan -------------------------------------------
        let plan_start = Instant::now();
        let mut req = self.plan_req.clone();
        if let Some(o) = &self.options {
            // Explicit options: the planner still estimates (the report
            // should say what the run was up against), but every choice
            // is forced from the supplied options.
            req = req.with_quotient(o.quotient).with_edge_store(o.edge_store);
        }
        let plan = Plan::compute(self.alg, &ix, self.daemon, self.spec, &req)?;
        let opts = self.options.clone().unwrap_or_else(|| plan.options());
        let mut decisions: Vec<DecisionRecord> = plan
            .decisions
            .iter()
            .map(|d| DecisionRecord {
                setting: d.setting.to_string(),
                choice: d.choice.clone(),
                auto: d.auto,
                reason: d.reason.clone(),
            })
            .collect();
        if self.options.is_some() {
            decisions.push(DecisionRecord {
                setting: "options".to_string(),
                choice: match &opts.mode {
                    ExploreMode::Full => "explicit-full".to_string(),
                    ExploreMode::Reachable { seeds } => {
                        format!("explicit-reachable({} seeds)", seeds.len())
                    }
                },
                auto: false,
                reason: "ExploreOptions supplied by caller; planner estimates are advisory"
                    .to_string(),
            });
        }
        let planned = self.options.is_none() && plan.fully_auto();
        let plan_section = PlanSection {
            planned,
            total_configs: plan.total_configs,
            sampled_rows: plan.sampled_rows,
            est_edges_per_config: plan.est_edges_per_config,
            est_full_edges: plan.est_full_edges,
            est_full_flat_bytes: plan.est_full_flat_bytes,
            est_analysis_flat_bytes: plan.est_analysis_flat_bytes,
            est_analysis_compressed_bytes: plan.est_analysis_compressed_bytes,
            byte_budget: plan.byte_budget,
            disk_byte_budget: plan.disk_byte_budget,
            quotient: opts.quotient.label().to_string(),
            group_order: plan.group_order,
            edge_store: opts.edge_store.label().to_string(),
            decisions,
        };
        let plan_ms = ms(plan_start);

        // ---- Stage 1: the one exploration ----------------------------
        let guard = RunGuard::new(self.budget.clone(), self.faults.clone());
        let opts = match &self.checkpoint {
            Some((dir, every)) => opts.with_checkpoint(dir, *every),
            None => opts,
        };
        let explore_start = Instant::now();
        let explored =
            TransitionSystem::explore_guarded(self.alg, &ix, self.daemon, self.spec, &opts, &guard);
        let explored = match explored {
            Ok(ts) => Ok(ts),
            Err(e @ CoreError::BudgetExhausted { .. }) => Err(e.to_string()),
            Err(e) => return Err(e),
        };
        let explore_ms = ms(explore_start);
        let (space_section, explore_outcome) = match &explored {
            Ok(ts) => (
                Some(SpaceSection {
                    configs: ts.n_configs() as u64,
                    represented: ts.represented_configs(),
                    group_order: ts.group_order(),
                    edges: ts.n_edges(),
                    edge_bytes: ts.edge_bytes(),
                    resident_bytes: ts.resident_edge_bytes(),
                    spilled_bytes: ts.spilled_edge_bytes(),
                    legitimate: ts.legit_count(),
                    deterministic: ts.deterministic(),
                }),
                Outcome::Complete,
            ),
            Err(reason) => (None, Outcome::degraded(reason)),
        };

        let mut chain_build_ms = None;
        let mut verdicts_ms = None;
        let mut expected_solve_ms = None;
        let mut verdicts = None;
        let mut expected_times = None;
        // A degraded exploration starves everything that needed the
        // shared system; those stages stay `Skipped`.
        let mut chain_build_outcome = Outcome::Skipped;
        let mut verdicts_outcome = Outcome::Skipped;
        let mut expected_outcome = Outcome::Skipped;

        if let Ok(ts) = explored {
            // ---- Stage 2: Markov Q extraction (borrows the system) ---
            let chain = if self.expected || self.chain_only {
                let start = Instant::now();
                let chain = AbsorbingChain::from_transition_system(ix.clone(), self.daemon, &ts);
                chain_build_ms = Some(ms(start));
                chain_build_outcome = Outcome::Complete;
                Some(chain)
            } else {
                None
            };

            // ---- Stage 3: checker verdicts (adopts the system) -------
            let space = ExploredSpace::from_transition_system(ix, self.daemon, ts);
            if let Some(set) = self.verdicts {
                let start = Instant::now();
                match analyze_space_budgeted(
                    &space,
                    self.alg.name(),
                    self.spec.name(),
                    guard.budget(),
                ) {
                    Ok(report) => {
                        verdicts = Some(VerdictsSection {
                            closure: record(&report.closure),
                            weak: record(&report.weak),
                            probabilistic: record(&report.probabilistic),
                            self_stabilizing: set
                                .iter()
                                .map(|f| FairnessVerdict {
                                    fairness: f.name().to_string(),
                                    verdict: record(report.self_under(f)),
                                })
                                .collect(),
                        });
                        verdicts_outcome = Outcome::Complete;
                    }
                    Err(e @ CoreError::BudgetExhausted { .. }) => {
                        verdicts_outcome = Outcome::degraded(e);
                    }
                    Err(e) => return Err(e),
                }
                verdicts_ms = Some(ms(start));
            }

            // ---- Stage 4: exact expected times -----------------------
            if let Some(chain) = chain.filter(|_| self.expected) {
                let start = Instant::now();
                match chain.expected_steps_and_absorption_with(guard.budget()) {
                    Ok((times, probs)) => {
                        let min_absorption = probs.into_iter().fold(1.0f64, f64::min);
                        expected_times = Some(ExpectedSection::Solved(ExpectedTimes {
                            n_transient: chain.n_transient() as u64,
                            worst_case: times.worst_case(),
                            average: times.average_weighted(
                                chain.transient_orbits(),
                                chain.represented_configs(),
                            ),
                            min_absorption,
                            cdf: self.cdf_horizon.map(|h| chain.hitting_cdf_uniform(h)),
                        }));
                        expected_outcome = Outcome::Complete;
                    }
                    Err(MarkovError::Core(e @ CoreError::BudgetExhausted { .. })) => {
                        expected_outcome = Outcome::degraded(e);
                    }
                    Err(e) => {
                        // "No finite expected time" is itself a result.
                        expected_times = Some(ExpectedSection::Unsolvable {
                            error: e.to_string(),
                        });
                        expected_outcome = Outcome::Complete;
                    }
                }
                expected_solve_ms = Some(ms(start));
            }
        }

        Ok(StudyReport {
            algorithm: self.alg.name(),
            spec: self.spec.name(),
            daemon: self.daemon,
            plan: plan_section,
            status: StatusSection {
                plan: Outcome::Complete,
                explore: explore_outcome,
                verdicts: verdicts_outcome,
                chain_build: chain_build_outcome,
                expected_solve: expected_outcome,
                monte_carlo: Outcome::Skipped,
            },
            space: space_section,
            verdicts,
            expected_times,
            monte_carlo: None,
            timings_ms: Timings {
                plan: plan_ms,
                explore: explore_ms,
                verdicts: verdicts_ms,
                chain_build: chain_build_ms,
                expected_solve: expected_solve_ms,
                monte_carlo: None,
                total: 0.0,
            },
        })
    }
}
