//! Single simulation runs with step / move / round accounting.

use rand::Rng;
use stab_core::{ActionId, Activation, Algorithm, Configuration, DaemonSpec, Legitimacy};
use stab_graph::NodeId;

/// Outcome of one run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunResult {
    /// Whether a legitimate configuration was reached within the budget.
    pub converged: bool,
    /// Scheduler steps until the first legitimate configuration.
    pub steps: u64,
    /// Total process activations.
    pub moves: u64,
    /// Completed asynchronous rounds (see module docs of [`crate`]).
    pub rounds: u64,
}

/// Runs the system from `initial` under the randomized form of `daemon`
/// until `spec` holds or `max_steps` is exhausted.
///
/// Enabledness is maintained incrementally: after a step only the activated
/// processes and their neighbours can change status, so each step evaluates
/// one guard per node of N\[activation\] (the activated processes and their
/// neighbours, each once), whatever the overlap of their neighbourhoods.
/// That evaluation also stores the node's selected action, which the step
/// that activates it executes without evaluating its guard again.
/// A single run allocates its step buffers once; a Monte-Carlo batch
/// ([`crate::montecarlo`]) keeps them across its runs.
pub fn run_once<A, L, R>(
    alg: &A,
    daemon: DaemonSpec,
    spec: &L,
    initial: &Configuration<A::State>,
    rng: &mut R,
    max_steps: u64,
) -> RunResult
where
    A: Algorithm,
    L: Legitimacy<A::State>,
    R: Rng + ?Sized,
{
    Kernel::new().run(
        alg,
        daemon,
        spec,
        initial.clone(),
        rng,
        max_steps,
        |_, _| {},
    )
}

/// Like [`run_once`] but records the full execution as a
/// [`Trace`](stab_core::Trace) —
/// convenient for rendering small runs in the style of the paper's figures.
/// The run is [`run_once`]'s, draw for draw, so the result is the one
/// [`run_once`] returns for the same seed, `rounds` included.
/// The step budget is capped at 100 000 to keep traces displayable.
///
/// # Panics
///
/// Panics if `max_steps > 100_000`.
pub fn run_recorded<A, L, R>(
    alg: &A,
    daemon: DaemonSpec,
    spec: &L,
    initial: &Configuration<A::State>,
    rng: &mut R,
    max_steps: u64,
) -> (RunResult, stab_core::Trace<A::State>)
where
    A: Algorithm,
    L: Legitimacy<A::State>,
    R: Rng + ?Sized,
{
    assert!(
        max_steps <= 100_000,
        "recorded runs are capped at 100k steps"
    );
    let mut trace = stab_core::Trace::new(initial.clone());
    let result = Kernel::new().run(
        alg,
        daemon,
        spec,
        initial.clone(),
        rng,
        max_steps,
        |act, cfg| {
            trace.push(Activation::new(act.to_vec()), cfg.clone());
        },
    );
    (result, trace)
}

/// The simulation kernel: the step loop behind [`run_once`],
/// [`run_recorded`] and the Monte-Carlo batches, with its step buffers.
/// Reusing one kernel across runs keeps every step off the heap.
pub(crate) struct Kernel<S> {
    /// Each node's selected action in the current configuration (`None`:
    /// disabled), refreshed with its guard.
    selected: Vec<Option<ActionId>>,
    enabled: Vec<NodeId>,
    /// Round accounting: processes enabled at round start that have
    /// neither moved nor been observed disabled since.
    pending: Vec<bool>,
    activation: Vec<NodeId>,
    writes: Vec<S>,
    /// `stamp[v] == epoch` once `v`'s guard was re-evaluated this step.
    stamp: Vec<u64>,
    epoch: u64,
}

impl<S: Clone> Kernel<S> {
    pub(crate) fn new() -> Self {
        Kernel {
            selected: Vec::new(),
            enabled: Vec::new(),
            pending: Vec::new(),
            activation: Vec::new(),
            writes: Vec::new(),
            stamp: Vec::new(),
            epoch: 0,
        }
    }

    /// One run from `cfg`; `observe` sees every step's activation and the
    /// configuration it produced.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn run<A, L, R>(
        &mut self,
        alg: &A,
        daemon: DaemonSpec,
        spec: &L,
        mut cfg: Configuration<S>,
        rng: &mut R,
        max_steps: u64,
        mut observe: impl FnMut(&[NodeId], &Configuration<S>),
    ) -> RunResult
    where
        A: Algorithm<State = S>,
        L: Legitimacy<S>,
        R: Rng + ?Sized,
    {
        let g = alg.graph();
        let n = g.n();
        self.selected.clear();
        self.selected
            .extend((0..n).map(|v| alg.selected_action(&cfg, NodeId::new(v))));
        self.collect_enabled();
        self.pending.clear();
        self.pending
            .extend(self.selected.iter().map(Option::is_some));
        // Stamps of earlier runs are all below the next epoch.
        self.stamp.resize(n, 0);

        let mut steps = 0u64;
        let mut moves = 0u64;
        let mut rounds = 0u64;
        loop {
            let converged = spec.is_legitimate(&cfg);
            if converged || self.enabled.is_empty() || steps >= max_steps {
                // Legitimate, terminal illegitimate, or out of budget.
                return RunResult {
                    converged,
                    steps,
                    moves,
                    rounds,
                };
            }
            daemon.sample_into(g, &self.enabled, rng, &mut self.activation);
            // All activated processes read the pre-configuration.
            self.writes.clear();
            for &v in &self.activation {
                let action =
                    self.selected[v.index()].expect("daemon activates only enabled processes");
                let outcomes = alg.apply(&alg.view(&cfg, v), action);
                self.writes.push(outcomes.sample(rng).clone());
            }
            for (&v, s) in self.activation.iter().zip(self.writes.drain(..)) {
                cfg.set(v, s);
            }
            steps += 1;
            moves += self.activation.len() as u64;
            observe(&self.activation, &cfg);

            // Incremental enabledness update: only N[activation] may have
            // changed, and each of its nodes is re-evaluated once.
            self.epoch += 1;
            for &v in &self.activation {
                for u in std::iter::once(v).chain(g.neighbors(v).iter().copied()) {
                    if self.stamp[u.index()] != self.epoch {
                        self.stamp[u.index()] = self.epoch;
                        self.selected[u.index()] = alg.selected_action(&cfg, u);
                    }
                }
            }
            self.collect_enabled();

            // Round bookkeeping: drop moved and now-disabled processes; the
            // round completes when none is left.
            for &v in &self.activation {
                self.pending[v.index()] = false;
            }
            for (p, on) in self.pending.iter_mut().zip(&self.selected) {
                *p &= on.is_some();
            }
            if !self.pending.contains(&true) {
                rounds += 1;
                // Nothing is pending: the new round holds the enabled.
                self.enabled
                    .iter()
                    .for_each(|v| self.pending[v.index()] = true);
            }
        }
    }

    fn collect_enabled(&mut self) {
        self.enabled.clear();
        let flags = &self.selected;
        let enabled = (0..flags.len()).filter(|&v| flags[v].is_some());
        self.enabled.extend(enabled.map(NodeId::new));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use stab_algorithms::{HermanRing, TokenCirculation, TwoProcessToggle};
    use stab_core::{DaemonSpec, ProjectedLegitimacy, Transformed};
    use stab_graph::builders;

    fn rng(seed: u64) -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(seed)
    }

    #[test]
    fn legitimate_initial_converges_in_zero_steps() {
        let a = TokenCirculation::on_ring(&builders::ring(5)).unwrap();
        let cfg = a.legitimate_config(NodeId::new(2));
        let r = run_once(
            &a,
            DaemonSpec::central(),
            &a.legitimacy(),
            &cfg,
            &mut rng(0),
            1000,
        );
        assert!(r.converged);
        assert_eq!(r.steps, 0);
        assert_eq!(r.moves, 0);
        assert_eq!(r.rounds, 0);
    }

    #[test]
    fn transformed_toggle_converges_synchronously() {
        let a = Transformed::new(TwoProcessToggle::new());
        let spec = ProjectedLegitimacy::new(TwoProcessToggle::new().legitimacy());
        let initial = Transformed::<TwoProcessToggle>::lift(
            &Configuration::from_vec(vec![false, false]),
            false,
        );
        let r = run_once(
            &a,
            DaemonSpec::synchronous(),
            &spec,
            &initial,
            &mut rng(42),
            100_000,
        );
        assert!(r.converged, "Theorem 8: convergence with probability 1");
        assert!(r.steps >= 1);
        // Synchronous moves: every enabled process moves each step, so
        // moves >= steps.
        assert!(r.moves >= r.steps);
    }

    #[test]
    fn untransformed_toggle_never_converges_under_central() {
        let a = TwoProcessToggle::new();
        let initial = Configuration::from_vec(vec![false, false]);
        let r = run_once(
            &a,
            DaemonSpec::central(),
            &a.legitimacy(),
            &initial,
            &mut rng(1),
            5_000,
        );
        assert!(!r.converged, "no central execution converges from (F,F)");
        assert_eq!(r.steps, 5_000);
    }

    #[test]
    fn herman_converges_from_worst_configuration() {
        let a = HermanRing::on_ring(&builders::ring(9)).unwrap();
        let initial = Configuration::from_vec(vec![false; 9]);
        let r = run_once(
            &a,
            DaemonSpec::synchronous(),
            &a.legitimacy(),
            &initial,
            &mut rng(3),
            1_000_000,
        );
        assert!(r.converged);
        assert!(r.steps > 0);
    }

    #[test]
    fn deadlocked_illegitimate_run_reports_failure_early() {
        // Infection-style: all-zero is terminal but the spec wants all-one.
        use stab_core::{ActionId, ActionMask, Outcomes, Predicate, View};
        use stab_graph::Graph;
        struct Stuck {
            g: Graph,
        }
        impl Algorithm for Stuck {
            type State = u8;
            fn graph(&self) -> &Graph {
                &self.g
            }
            fn name(&self) -> String {
                "stuck".into()
            }
            fn state_space(&self, _n: NodeId) -> Vec<u8> {
                vec![0, 1]
            }
            fn enabled_actions<V: View<u8>>(&self, v: &V) -> ActionMask {
                let neighbor_one = v.count_neighbors(|&s| s == 1) > 0;
                ActionMask::when(*v.me() == 0 && neighbor_one, ActionId::A1)
            }
            fn apply<V: View<u8>>(&self, _v: &V, _a: ActionId) -> Outcomes<u8> {
                Outcomes::certain(1)
            }
        }
        let a = Stuck {
            g: builders::path(3),
        };
        let spec = Predicate::new("all-one", |c: &Configuration<u8>| {
            c.states().iter().all(|&s| s == 1)
        });
        let r = run_once(
            &a,
            DaemonSpec::central(),
            &spec,
            &Configuration::from_vec(vec![0, 0, 0]),
            &mut rng(0),
            1000,
        );
        assert!(!r.converged);
        assert_eq!(r.steps, 0, "terminal immediately");
    }

    #[test]
    fn rounds_lag_steps_under_central_daemon() {
        // Under the central daemon a round needs up to |enabled| steps, so
        // rounds <= steps always, with equality only in degenerate cases.
        let a = Transformed::new(TokenCirculation::on_ring(&builders::ring(6)).unwrap());
        let spec = ProjectedLegitimacy::new(
            TokenCirculation::on_ring(&builders::ring(6))
                .unwrap()
                .legitimacy(),
        );
        let base = TokenCirculation::on_ring(&builders::ring(6)).unwrap();
        let initial = Transformed::<TokenCirculation>::lift(
            &Configuration::from_vec(vec![0, 0, 0, 0, 0, 0]),
            false,
        );
        let _ = base;
        let r = run_once(
            &a,
            DaemonSpec::central(),
            &spec,
            &initial,
            &mut rng(5),
            1_000_000,
        );
        assert!(r.converged);
        assert!(r.rounds <= r.steps);
        // Central daemon: exactly one move per step.
        assert_eq!(r.moves, r.steps);
    }

    #[test]
    fn recorded_run_matches_result() {
        let a = Transformed::new(TwoProcessToggle::new());
        let spec = ProjectedLegitimacy::new(TwoProcessToggle::new().legitimacy());
        let initial = Transformed::<TwoProcessToggle>::lift(
            &Configuration::from_vec(vec![false, false]),
            false,
        );
        let (result, trace) = super::run_recorded(
            &a,
            DaemonSpec::synchronous(),
            &spec,
            &initial,
            &mut rng(7),
            100_000,
        );
        assert!(result.converged);
        assert_eq!(trace.steps() as u64, result.steps);
        assert_eq!(trace.first(), &initial);
        assert!(spec.is_legitimate(trace.last()));
        // Moves equal the sum of activation sizes along the trace.
        let total: u64 = (0..trace.steps())
            .map(|i| trace.activation(i).len() as u64)
            .sum();
        assert_eq!(total, result.moves);
    }

    #[test]
    fn recorded_run_is_run_once_with_a_trace() {
        let base = TokenCirculation::on_ring(&builders::ring(6)).unwrap();
        let a = Transformed::new(TokenCirculation::on_ring(&builders::ring(6)).unwrap());
        let spec = ProjectedLegitimacy::new(base.legitimacy());
        let initial = Transformed::<TokenCirculation>::lift(
            &Configuration::from_vec(vec![0, 3, 1, 4, 2, 5]),
            false,
        );
        for daemon in DaemonSpec::LEGACY {
            let once = run_once(&a, daemon, &spec, &initial, &mut rng(17), 100_000);
            let (recorded, trace) =
                super::run_recorded(&a, daemon, &spec, &initial, &mut rng(17), 100_000);
            assert_eq!(recorded, once, "{daemon}");
            assert!(once.rounds > 0, "{daemon}: rounds are counted");
            assert_eq!(trace.steps() as u64, once.steps);
        }
    }

    /// Counts guard evaluations (`enabled_actions` calls) of the wrapped
    /// algorithm.
    struct Counted<A> {
        inner: A,
        guards: std::cell::Cell<u64>,
    }

    impl<A: Algorithm> Algorithm for Counted<A> {
        type State = A::State;
        fn graph(&self) -> &stab_graph::Graph {
            self.inner.graph()
        }
        fn name(&self) -> String {
            self.inner.name()
        }
        fn state_space(&self, v: NodeId) -> Vec<A::State> {
            self.inner.state_space(v)
        }
        fn enabled_actions<V: stab_core::View<A::State>>(&self, v: &V) -> stab_core::ActionMask {
            self.guards.set(self.guards.get() + 1);
            self.inner.enabled_actions(v)
        }
        fn apply<V: stab_core::View<A::State>>(
            &self,
            v: &V,
            action: stab_core::ActionId,
        ) -> stab_core::Outcomes<A::State> {
            self.inner.apply(v, action)
        }
    }

    #[test]
    fn each_step_evaluates_one_guard_per_node_of_the_closed_neighbourhood() {
        // Synchronous Herman N=15 activates every process, so N[activation]
        // is the whole ring: 15 refreshes per step, plus the 15 initial
        // evaluations. The activated processes execute the action their
        // last refresh selected, without a second guard evaluation.
        let herman = HermanRing::on_ring(&builders::ring(15)).unwrap();
        let spec = herman.legitimacy();
        let a = Counted {
            inner: herman,
            guards: std::cell::Cell::new(0),
        };
        let initial = Configuration::from_vec(vec![false; 15]);
        let r = run_once(
            &a,
            DaemonSpec::synchronous(),
            &spec,
            &initial,
            &mut rng(4),
            1_000_000,
        );
        assert!(r.converged && r.steps > 0);
        assert_eq!(a.guards.get(), 15 + 15 * r.steps);
    }

    #[test]
    #[should_panic(expected = "capped at 100k")]
    fn recorded_run_budget_cap() {
        let a = TwoProcessToggle::new();
        let spec = a.legitimacy();
        let initial = Configuration::from_vec(vec![false, false]);
        let _ = super::run_recorded(
            &a,
            DaemonSpec::central(),
            &spec,
            &initial,
            &mut rng(0),
            200_000,
        );
    }

    #[test]
    fn same_seed_same_run() {
        let a = Transformed::new(TwoProcessToggle::new());
        let spec = ProjectedLegitimacy::new(TwoProcessToggle::new().legitimacy());
        let initial = Transformed::<TwoProcessToggle>::lift(
            &Configuration::from_vec(vec![false, false]),
            true,
        );
        let r1 = run_once(
            &a,
            DaemonSpec::distributed(),
            &spec,
            &initial,
            &mut rng(99),
            100_000,
        );
        let r2 = run_once(
            &a,
            DaemonSpec::distributed(),
            &spec,
            &initial,
            &mut rng(99),
            100_000,
        );
        assert_eq!(r1, r2);
    }
}
