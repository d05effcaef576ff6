//! One benchmark op: a fully configured `Study` of one algorithm under one
//! daemon, runnable plainly (`Study::run`) or traced (the same layer calls
//! in `Study::run`'s order, each timed from here).

use stab_checker::{analyze_space_budgeted, ExploredSpace, Verdict};
use stab_core::engine::{
    Budget, EdgeStoreKind, ExploreOptions, FaultPlan, GroupCanonicalizer, Plan, PlanRequest,
    Quotient, RunGuard, TransitionSystem,
};
use stab_core::{Algorithm, CoreError, DaemonSpec, FairnessSet, Legitimacy, SpaceIndexer};
use stab_markov::AbsorbingChain;
use stab_sim::montecarlo::{estimate, BatchSettings};
use weak_stabilization::study::{
    ExpectedSection, ExpectedTimes, FairnessVerdict, McConfig, Study, StudyReport, VerdictRecord,
    VerdictsSection, DEFAULT_CAP,
};

use crate::trace::{LayerSample, Tracer};

/// A workload-specific assertion every op's report must pass.
pub type Claim = fn(&StudyReport) -> Result<(), String>;

/// What the traced run returns for one op.
pub struct Traced {
    pub verdicts: Option<VerdictsSection>,
    pub expected: Option<ExpectedSection>,
    pub layers: LayerSample,
    /// Wall time of the op's `Study::run`-order calls (the two
    /// diagnostic re-computations run after it and are not included).
    pub op_s: f64,
    /// The op's root span.
    pub root: usize,
}

/// An op the benchmark can run, independent of the algorithm's type.
pub trait Point {
    fn label(&self) -> &str;
    fn claim(&self) -> Option<Claim>;
    fn set_monte_carlo(&mut self, mc: McConfig);
    /// One `Study::run`.
    fn run(&self) -> Result<StudyReport, CoreError>;
    /// The same study through the layer calls, each recorded as a span
    /// of op `op`.
    fn run_traced(&self, tracer: &mut Tracer, op: u64) -> Result<Traced, String>;
}

pub struct StudyPoint<A: Algorithm, L> {
    label: String,
    alg: A,
    spec: L,
    daemon: DaemonSpec,
    expected: bool,
    chain_only: bool,
    mc: Option<McConfig>,
    options: Option<ExploreOptions<A::State>>,
    claim: Option<Claim>,
}

impl<A, L> StudyPoint<A, L>
where
    A: Algorithm + Sync,
    A::State: Sync,
    L: Legitimacy<A::State> + Sync,
{
    /// A study with `verdicts(FairnessSet::ALL)`; builds the algorithm's
    /// `SpaceIndexer` once to check the space fits.
    pub fn new(label: String, alg: A, spec: L, daemon: DaemonSpec) -> Result<Self, String> {
        SpaceIndexer::new(&alg, DEFAULT_CAP).map_err(|e| format!("{label}: {e}"))?;
        Ok(StudyPoint {
            label,
            alg,
            spec,
            daemon,
            expected: false,
            chain_only: false,
            mc: None,
            options: None,
            claim: None,
        })
    }

    pub fn expected_times(mut self) -> Self {
        self.expected = true;
        self
    }

    pub fn chain_build(mut self) -> Self {
        self.chain_only = true;
        self
    }

    pub fn options(mut self, options: ExploreOptions<A::State>) -> Self {
        self.options = Some(options);
        self
    }

    pub fn claim(mut self, claim: Claim) -> Self {
        self.claim = Some(claim);
        self
    }
}

fn record(verdict: &Verdict) -> VerdictRecord {
    VerdictRecord {
        holds: verdict.holds(),
        witness: verdict.witness().map(|w| w.to_string()),
    }
}

impl<A, L> Point for StudyPoint<A, L>
where
    A: Algorithm + Sync,
    A::State: Sync,
    L: Legitimacy<A::State> + Sync,
{
    fn label(&self) -> &str {
        &self.label
    }

    fn claim(&self) -> Option<Claim> {
        self.claim
    }

    fn set_monte_carlo(&mut self, mc: McConfig) {
        self.mc = Some(mc);
    }

    fn run(&self) -> Result<StudyReport, CoreError> {
        let mut study = Study::of(&self.alg)
            .daemon(self.daemon)
            .spec(&self.spec)
            .verdicts(FairnessSet::ALL);
        if self.expected {
            study = study.expected_times();
        }
        if self.chain_only {
            study = study.chain_build();
        }
        if let Some(mc) = &self.mc {
            study = study.monte_carlo(mc.clone());
        }
        if let Some(o) = &self.options {
            study = study.options(o.clone());
        }
        study.run()
    }

    fn run_traced(&self, tr: &mut Tracer, op: u64) -> Result<Traced, String> {
        let err = |e: &dyn std::fmt::Display| format!("{}: {e}", self.label);
        let mut l = LayerSample::default();
        let root = tr.begin("op", op, None);

        let s = tr.begin("index", op, Some(root));
        let ix = SpaceIndexer::new(&self.alg, DEFAULT_CAP).map_err(|e| err(&e))?;
        tr.end(s);

        // Plan, with the request `Study::run` would build.
        let req = match &self.options {
            None => PlanRequest::default(),
            Some(o) => PlanRequest::default()
                .with_quotient(o.quotient)
                .with_edge_store(o.edge_store),
        };
        let s = tr.begin("plan", op, Some(root));
        let plan =
            Plan::compute(&self.alg, &ix, self.daemon, &self.spec, &req).map_err(|e| err(&e))?;
        l.plan_s = tr.end(s);
        l.sampled_rows = plan.sampled_rows as f64;
        tr.count(s, "sampled_rows", l.sampled_rows);
        let opts = match &self.options {
            Some(o) => o.clone(),
            None => plan.options(),
        };

        let guard = RunGuard::new(Budget::unlimited(), FaultPlan::none());
        let budget = guard.budget();
        let s = tr.begin("explore", op, Some(root));
        let ts = TransitionSystem::explore_guarded(
            &self.alg,
            &ix,
            self.daemon,
            &self.spec,
            &opts,
            &guard,
        )
        .map_err(|e| err(&e))?;
        l.explore_s = tr.end(s);
        l.configs = f64::from(ts.n_configs());
        l.edges = ts.n_edges() as f64;
        l.edge_bytes = ts.edge_bytes() as f64;
        l.est_edges = plan.est_edges_per_config * l.configs;
        l.resident_bytes = ts.resident_edge_bytes() as f64;
        l.spilled_bytes = ts.spilled_edge_bytes() as f64;
        for (k, v) in [
            ("configs", l.configs),
            ("edges", l.edges),
            ("edge_bytes", l.edge_bytes),
            ("resident_bytes", l.resident_bytes),
            ("spilled_bytes", l.spilled_bytes),
        ] {
            tr.count(s, k, v);
        }

        // Q extraction comes before the checker, as in `Study::run`.
        let s = tr.begin("markov.chain", op, Some(root));
        let chain = (self.expected || self.chain_only)
            .then(|| AbsorbingChain::from_transition_system(ix.clone(), self.daemon, &ts));
        l.chain_s = tr.end(s);
        if let Some(c) = &chain {
            l.n_transient = c.n_transient() as f64;
            tr.count(s, "n_transient", l.n_transient);
        }

        // The checker builds the reverse CSR lazily for its backward
        // closure; building it first separates inversion from the verdict
        // passes. On the disk tier the closure re-sweeps the forward
        // chunks instead and nothing is inverted, so the span stays empty.
        let s = tr.begin("reverse", op, Some(root));
        if ts.edge_store_kind() != EdgeStoreKind::Disk {
            ts.reverse_budgeted(budget).map_err(|e| err(&e))?;
        }
        l.reverse_s = tr.end(s);

        let space = ExploredSpace::from_transition_system(ix.clone(), self.daemon, ts);
        let s = tr.begin("checker", op, Some(root));
        let report = analyze_space_budgeted(&space, self.alg.name(), self.spec.name(), budget)
            .map_err(|e| err(&e))?;
        l.checker_s = tr.end(s);
        // The verdict passes fault chunks back in: the store's high-water
        // mark is read once they are done.
        l.peak_resident_bytes = space.transition_system().peak_resident_edge_bytes() as f64;
        tr.count(s, "peak_resident_bytes", l.peak_resident_bytes);
        let verdicts = Some(VerdictsSection {
            closure: record(&report.closure),
            weak: record(&report.weak),
            probabilistic: record(&report.probabilistic),
            self_stabilizing: FairnessSet::ALL
                .iter()
                .map(|f| FairnessVerdict {
                    fairness: f.name().to_string(),
                    verdict: record(report.self_under(f)),
                })
                .collect(),
        });

        let chain = chain.filter(|_| self.expected);
        let s = tr.begin("markov.solve", op, Some(root));
        let times = chain.as_ref().map(|c| c.expected_steps_with(budget));
        l.solve_s = tr.end(s);
        let s = tr.begin("markov.absorb", op, Some(root));
        let probs = chain
            .as_ref()
            .map(|c| c.absorption_probabilities_with(budget));
        l.absorb_s = tr.end(s);
        let expected = match (chain, times, probs) {
            (Some(chain), Some(Ok(times)), Some(Ok(probs))) => {
                Some(ExpectedSection::Solved(ExpectedTimes {
                    n_transient: chain.n_transient() as u64,
                    worst_case: times.worst_case(),
                    average: times
                        .average_weighted(chain.transient_orbits(), chain.represented_configs()),
                    min_absorption: probs.into_iter().fold(1.0f64, f64::min),
                    cdf: None,
                }))
            }
            // "No finite expected time" is a result, as in `Study::run`.
            (_, Some(Err(e)), _) | (_, _, Some(Err(e))) => Some(ExpectedSection::Unsolvable {
                error: e.to_string(),
            }),
            _ => None,
        };

        let s = tr.begin("sim", op, Some(root));
        let batch = self.mc.as_ref().map(|mc| {
            estimate(
                &self.alg,
                self.daemon,
                &self.spec,
                &BatchSettings {
                    runs: mc.runs,
                    max_steps: mc.max_steps,
                    seed: mc.seed,
                    threads: mc.threads,
                },
            )
        });
        l.sim_s = tr.end(s);
        if let Some(b) = &batch {
            l.sim_steps = b.steps.n as f64 * b.steps.mean;
            tr.count(s, "steps", l.sim_steps);
        }
        let op_s = tr.end(root);

        // Diagnostics outside the op's window: the plan with its choices
        // forced (isolating the equivariance gate) and the chosen
        // quotient's canonicalizer on its own.
        let probe = tr.begin("probe", op, None);
        let forced = req
            .clone()
            .with_quotient(plan.quotient)
            .with_edge_store(plan.edge_store);
        let s = tr.begin("plan.forced", op, Some(probe));
        Plan::compute(&self.alg, &ix, self.daemon, &self.spec, &forced).map_err(|e| err(&e))?;
        l.plan_forced_s = tr.end(s);
        let s = tr.begin("quotient.build", op, Some(probe));
        let g = self.alg.graph();
        let canon = match plan.quotient {
            Quotient::None => None,
            Quotient::RingRotation => Some(GroupCanonicalizer::ring_rotation(g, &ix)),
            Quotient::RingDihedral => Some(GroupCanonicalizer::ring_dihedral(g, &ix)),
            Quotient::Automorphism => Some(GroupCanonicalizer::automorphism(g, &ix)),
        };
        l.quotient_build_s = tr.end(s);
        l.group_order = match canon {
            Some(c) => c.map_err(|e| err(&e))?.group_order() as f64,
            None => 1.0,
        };
        tr.count(s, "group_order", l.group_order);
        tr.end(probe);

        Ok(Traced {
            verdicts,
            expected,
            layers: l,
            op_s,
            root,
        })
    }
}
