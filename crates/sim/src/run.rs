//! Single simulation runs with step / move / round accounting.

use rand::Rng;
use stab_core::{Algorithm, Configuration, DaemonSpec, Legitimacy};
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
/// processes and their neighbours can change status, so large networks
/// simulate in `O(|activation| · Δ)` guard evaluations per step.
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
    let g = alg.graph();
    let n = g.n();
    let mut cfg = initial.clone();
    let mut enabled_flags: Vec<bool> = (0..n)
        .map(|v| alg.is_enabled(&cfg, NodeId::new(v)))
        .collect();
    let mut enabled: Vec<NodeId> = (0..n)
        .map(NodeId::new)
        .filter(|&v| enabled_flags[v.index()])
        .collect();

    let mut steps = 0u64;
    let mut moves = 0u64;
    let mut rounds = 0u64;
    // Round accounting: processes enabled at round start that have neither
    // moved nor been observed disabled since.
    let mut pending: Vec<bool> = enabled_flags.clone();
    let mut pending_count = enabled.len();

    loop {
        if spec.is_legitimate(&cfg) {
            return RunResult {
                converged: true,
                steps,
                moves,
                rounds,
            };
        }
        if enabled.is_empty() || steps >= max_steps {
            // Terminal illegitimate configuration or budget exhausted.
            return RunResult {
                converged: false,
                steps,
                moves,
                rounds,
            };
        }
        let activation = daemon.sample(g, &enabled, rng);
        // All activated processes read the pre-configuration.
        let mut writes: Vec<(NodeId, A::State)> = Vec::with_capacity(activation.len());
        for &v in activation.nodes() {
            let view = alg.view(&cfg, v);
            let action = alg
                .enabled_actions(&view)
                .selected()
                .expect("daemon activates only enabled processes");
            let outcome = alg.apply(&view, action);
            writes.push((v, outcome.sample(rng).clone()));
        }
        for (v, s) in writes {
            cfg.set(v, s);
        }
        steps += 1;
        moves += activation.len() as u64;

        // Incremental enabledness update: only activated nodes and their
        // neighbours may have changed.
        for &v in activation.nodes() {
            refresh(alg, &cfg, v, &mut enabled_flags);
            for &u in g.neighbors(v) {
                refresh(alg, &cfg, u, &mut enabled_flags);
            }
        }
        enabled.clear();
        enabled.extend(
            (0..n)
                .map(NodeId::new)
                .filter(|&v| enabled_flags[v.index()]),
        );

        // Round bookkeeping: drop moved and now-disabled processes.
        for &v in activation.nodes() {
            if pending[v.index()] {
                pending[v.index()] = false;
                pending_count -= 1;
            }
        }
        for v in 0..n {
            if pending[v] && !enabled_flags[v] {
                pending[v] = false;
                pending_count -= 1;
            }
        }
        if pending_count == 0 {
            rounds += 1;
            pending.copy_from_slice(&enabled_flags);
            pending_count = enabled.len();
        }
    }
}

fn refresh<A: Algorithm>(alg: &A, cfg: &Configuration<A::State>, v: NodeId, flags: &mut [bool]) {
    flags[v.index()] = alg.is_enabled(cfg, v);
}

/// Like [`run_once`] but records the full execution as a
/// [`Trace`](stab_core::Trace) —
/// convenient for rendering small runs in the style of the paper's figures.
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
    let mut cfg = initial.clone();
    let mut steps = 0u64;
    let mut moves = 0u64;
    loop {
        if spec.is_legitimate(&cfg) {
            return (
                RunResult {
                    converged: true,
                    steps,
                    moves,
                    rounds: 0,
                },
                trace,
            );
        }
        if steps >= max_steps {
            return (
                RunResult {
                    converged: false,
                    steps,
                    moves,
                    rounds: 0,
                },
                trace,
            );
        }
        match stab_core::semantics::sample_step(alg, daemon, &cfg, rng) {
            None => {
                return (
                    RunResult {
                        converged: false,
                        steps,
                        moves,
                        rounds: 0,
                    },
                    trace,
                )
            }
            Some((act, next)) => {
                moves += act.len() as u64;
                steps += 1;
                trace.push(act, next.clone());
                cfg = next;
            }
        }
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
