//! The stabilization analyses: closure, weak/possible convergence, certain
//! convergence under each fairness assumption, and probabilistic
//! convergence — Definitions 1–3 of the paper, decided exhaustively.

use std::fmt;

use stab_core::engine::{BitSet, Budget};
use stab_core::{Algorithm, CoreError, DaemonSpec, Fairness, Legitimacy, LocalState};

use crate::scc;
use crate::space::ExploredSpace;
use crate::verdict::{Verdict, Witness};

/// Explores `alg` under `daemon` and decides every stabilization property
/// against `spec`.
///
/// # Errors
///
/// Propagates [`CoreError`] from exploration (state space or enabled-set
/// enumeration too large for `cap`).
pub fn analyze<A, L>(
    alg: &A,
    daemon: DaemonSpec,
    spec: &L,
    cap: u64,
) -> Result<StabilizationReport, CoreError>
where
    A: Algorithm + Sync,
    A::State: Sync,
    L: Legitimacy<A::State> + Sync,
{
    analyze_with(
        alg,
        daemon,
        spec,
        cap,
        &stab_core::engine::ExploreOptions::full(),
    )
}

/// Like [`analyze`], but with an explicit traversal mode / quotient
/// ([`stab_core::engine::ExploreOptions`]): reachable-only exploration
/// decides the properties relative to the designated initial set, and the
/// ring-rotation quotient decides them on one representative per rotation
/// orbit (sound for rotation-equivariant algorithms with
/// rotation-invariant specifications — see the quotient differential
/// suite).
///
/// # Errors
///
/// Propagates [`CoreError`] from exploration, including
/// [`CoreError::QuotientUnsupported`] for non-ring quotient requests.
pub fn analyze_with<A, L>(
    alg: &A,
    daemon: DaemonSpec,
    spec: &L,
    cap: u64,
    opts: &stab_core::engine::ExploreOptions<A::State>,
) -> Result<StabilizationReport, CoreError>
where
    A: Algorithm + Sync,
    A::State: Sync,
    L: Legitimacy<A::State> + Sync,
{
    let space = ExploredSpace::explore_with(alg, daemon, spec, cap, opts)?;
    Ok(analyze_space(&space, alg.name(), spec.name()))
}

/// Runs every analysis on an already-explored space.
pub fn analyze_space<S: LocalState>(
    space: &ExploredSpace<S>,
    algorithm: String,
    spec: String,
) -> StabilizationReport {
    analyze_space_budgeted(space, algorithm, spec, &Budget::unlimited())
        .expect("unlimited budget cannot be exhausted")
}

/// [`analyze_space`] under a cooperative [`Budget`]: the reachability
/// closures and every Tarjan walk probe the `verdicts` stage, so an
/// exhausted wall-clock or state budget yields a typed
/// [`CoreError::BudgetExhausted`] instead of an unbounded analysis.
///
/// # Errors
///
/// [`CoreError::BudgetExhausted`] when a probe trips; no partial report is
/// produced (the facade's `Study` records the stage as degraded instead).
pub fn analyze_space_budgeted<S: LocalState>(
    space: &ExploredSpace<S>,
    algorithm: String,
    spec: String,
    budget: &Budget,
) -> Result<StabilizationReport, CoreError> {
    let states = u64::from(space.total());
    budget.probe("verdicts", space.resident_edge_bytes(), 0)?;
    let reachable = space.reachable_from_initial();
    budget.probe("verdicts", space.resident_edge_bytes(), states)?;
    let can_reach = space.can_reach_legit_budgeted(budget)?;
    budget.probe("verdicts", space.resident_edge_bytes(), states)?;

    let closure = check_closure(space);
    let weak = check_weak(space, &can_reach);
    let deadlock = find_deadlock(space, &reachable);

    // Fair-cycle analyses run on the reachable illegitimate subgraph: a
    // non-converging execution never enters L (it would stay by closure),
    // so its recurrent behaviour lives entirely outside L.
    let alive = reachable.and_not(space.transition_system().legit());

    let self_unfair = fairness_verdict(space, &alive, &deadlock, FairKind::Unfair, budget)?;
    let self_weakly_fair = fairness_verdict(space, &alive, &deadlock, FairKind::Weak, budget)?;
    let self_strongly_fair = fairness_verdict(space, &alive, &deadlock, FairKind::Strong, budget)?;
    let self_gouda = fairness_verdict(space, &alive, &deadlock, FairKind::Gouda, budget)?;

    // Probabilistic convergence via the independent a.s.-reachability
    // criterion: from every reachable configuration, L is reachable.
    let probabilistic = check_probabilistic(space, &reachable, &can_reach);

    Ok(StabilizationReport {
        algorithm,
        spec,
        daemon: space.daemon(),
        states: space.total() as u64,
        legitimate: space.legit_count(),
        deterministic: space.deterministic(),
        closure,
        weak,
        self_unfair,
        self_weakly_fair,
        self_strongly_fair,
        self_gouda,
        probabilistic,
    })
}

/// Strong closure: every step from `L` stays in `L`.
fn check_closure<S: LocalState>(space: &ExploredSpace<S>) -> Verdict {
    for id in 0..space.total() {
        if !space.is_legit(id) {
            continue;
        }
        for e in space.edge_iter(id) {
            if !space.is_legit(e.to) {
                return Verdict::fail(Witness::EscapesLegitimate {
                    from: space.render(id),
                    to: space.render(e.to),
                });
            }
        }
    }
    Verdict::pass()
}

/// Possible convergence: every initial configuration has an execution
/// reaching `L`.
fn check_weak<S: LocalState>(space: &ExploredSpace<S>, can_reach: &BitSet) -> Verdict {
    for id in 0..space.total() {
        if space.is_initial(id) && !can_reach.get(id as usize) {
            return Verdict::fail(Witness::NoPathToLegitimate {
                config: space.render(id),
            });
        }
    }
    Verdict::pass()
}

/// Probabilistic convergence under the randomized scheduler: from every
/// configuration reachable from the initial set, `L` remains reachable
/// (a.s. absorption in finite Markov chains).
fn check_probabilistic<S: LocalState>(
    space: &ExploredSpace<S>,
    reachable: &BitSet,
    can_reach: &BitSet,
) -> Verdict {
    match reachable.and_not(can_reach).ones().next() {
        Some(id) => Verdict::fail(Witness::NoPathToLegitimate {
            // lint: cast-ok(bitset bits are bounded by the u32 config count)
            config: space.render(id as u32),
        }),
        None => Verdict::pass(),
    }
}

/// A reachable terminal configuration outside `L`, if any.
fn find_deadlock<S: LocalState>(space: &ExploredSpace<S>, reachable: &BitSet) -> Option<u32> {
    (0..space.total())
        .find(|&id| reachable.get(id as usize) && !space.is_legit(id) && space.is_terminal(id))
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum FairKind {
    Unfair,
    Weak,
    Strong,
    Gouda,
}

/// Certain convergence under a fairness assumption: fails on a reachable
/// deadlock outside `L` or a reachable fairness-compatible cycle outside
/// `L`.
fn fairness_verdict<S: LocalState>(
    space: &ExploredSpace<S>,
    alive: &BitSet,
    deadlock: &Option<u32>,
    kind: FairKind,
    budget: &Budget,
) -> Result<Verdict, CoreError> {
    if let Some(id) = *deadlock {
        return Ok(Verdict::fail(Witness::DeadlockOutsideLegitimate {
            config: space.render(id),
        }));
    }
    let comp = match kind {
        FairKind::Unfair => find_any_cycle_component(space, alive, budget)?,
        FairKind::Weak => find_weakly_fair_component(space, alive, budget)?,
        FairKind::Strong => find_strongly_fair_component(space, alive, budget)?,
        FairKind::Gouda => find_closed_component(space, alive, budget)?,
    };
    Ok(match comp {
        None => Verdict::pass(),
        Some(comp) => {
            let in_comp = scc::membership(space.total(), comp.as_slice());
            let stem = space
                .path(|id| space.is_initial(id), |id| in_comp.get(id as usize))
                .unwrap_or_default();
            let cycle = scc::some_cycle(space, &comp, alive);
            Verdict::fail(Witness::Lasso {
                stem: stem.into_iter().map(|id| space.render(id)).collect(),
                cycle: cycle.into_iter().map(|id| space.render(id)).collect(),
            })
        }
    })
}

/// Any SCC with an internal edge: an (unfair) infinite execution.
fn find_any_cycle_component<S: LocalState>(
    space: &ExploredSpace<S>,
    alive: &BitSet,
    budget: &Budget,
) -> Result<Option<Vec<u32>>, CoreError> {
    Ok(scc::sccs_budgeted(space, alive, budget)?
        .into_iter()
        .find(|comp| scc::has_internal_edge(space, comp, alive)))
}

/// Generalized-Büchi check for weak fairness: a component supports a
/// weakly-fair infinite execution iff every process is either disabled at
/// some configuration of the component or activated on some internal edge
/// (the cycle can then be stitched to visit all these witnesses).
fn find_weakly_fair_component<S: LocalState>(
    space: &ExploredSpace<S>,
    alive: &BitSet,
    budget: &Budget,
) -> Result<Option<Vec<u32>>, CoreError> {
    Ok(scc::sccs_budgeted(space, alive, budget)?
        .into_iter()
        .find(|comp| {
            if !scc::has_internal_edge(space, comp, alive) {
                return false;
            }
            let in_comp = scc::membership(space.total(), comp);
            let mut always_enabled = u64::MAX;
            let mut moved = 0u64;
            for &v in comp {
                always_enabled &= space.enabled_mask(v);
                for e in space.edge_iter(v) {
                    if in_comp.get(e.to as usize) {
                        moved |= e.movers;
                    }
                }
            }
            always_enabled & !moved == 0
        }))
}

/// Streett-style recursive refinement for strong fairness: a component is
/// strongly-fair iff every process enabled somewhere in it is activated on
/// some internal edge; otherwise remove the configurations where a
/// violating process is enabled and recurse into the sub-components.
fn find_strongly_fair_component<S: LocalState>(
    space: &ExploredSpace<S>,
    alive: &BitSet,
    budget: &Budget,
) -> Result<Option<Vec<u32>>, CoreError> {
    for comp in scc::sccs_budgeted(space, alive, budget)? {
        if !scc::has_internal_edge(space, &comp, alive) {
            continue;
        }
        let in_comp = scc::membership(space.total(), &comp);
        let mut enabled_union = 0u64;
        let mut moved = 0u64;
        for &v in &comp {
            enabled_union |= space.enabled_mask(v);
            for e in space.edge_iter(v) {
                if in_comp.get(e.to as usize) {
                    moved |= e.movers;
                }
            }
        }
        let bad = enabled_union & !moved;
        if bad == 0 {
            return Ok(Some(comp));
        }
        // An execution confined to this component that starves a `bad`
        // process must avoid the configurations where it is enabled.
        let mut refined = BitSet::new(space.total() as usize);
        let mut shrunk = false;
        for &v in &comp {
            if space.enabled_mask(v) & bad == 0 {
                refined.insert(v as usize);
            } else {
                shrunk = true;
            }
        }
        debug_assert!(
            shrunk,
            "a bad process is enabled somewhere in the component"
        );
        if let Some(found) = find_strongly_fair_component(space, &refined, budget)? {
            return Ok(Some(found));
        }
    }
    Ok(None)
}

/// Gouda fairness: a non-converging Gouda-fair execution requires a
/// *closed* recurrent set — a bottom SCC (no edge leaves it at all).
fn find_closed_component<S: LocalState>(
    space: &ExploredSpace<S>,
    alive: &BitSet,
    budget: &Budget,
) -> Result<Option<Vec<u32>>, CoreError> {
    Ok(scc::sccs_budgeted(space, alive, budget)?
        .into_iter()
        .find(|comp| {
            if !scc::has_internal_edge(space, comp, alive) {
                return false;
            }
            let in_comp = scc::membership(space.total(), comp);
            comp.iter()
                .all(|&v| space.edge_iter(v).all(|e| in_comp.get(e.to as usize)))
        }))
}

/// The full verdict sheet of one `(algorithm, daemon, specification)`
/// triple.
#[derive(Debug, Clone)]
pub struct StabilizationReport {
    /// Algorithm name.
    pub algorithm: String,
    /// Specification name.
    pub spec: String,
    /// Scheduler the space was explored under (a lattice point; the
    /// paper's four daemons are the named points).
    pub daemon: DaemonSpec,
    /// Number of configurations.
    pub states: u64,
    /// Number of legitimate configurations.
    pub legitimate: u64,
    /// Whether the determinism audit passed everywhere.
    pub deterministic: bool,
    /// Strong closure of `L`.
    pub closure: Verdict,
    /// Possible convergence (Definition 3).
    pub weak: Verdict,
    /// Certain convergence under the unfair ("proper") scheduler.
    pub self_unfair: Verdict,
    /// Certain convergence under the weakly fair scheduler.
    pub self_weakly_fair: Verdict,
    /// Certain convergence under the strongly fair scheduler.
    pub self_strongly_fair: Verdict,
    /// Certain convergence under Gouda's strong fairness (Theorem 5).
    pub self_gouda: Verdict,
    /// Probabilistic convergence under the randomized scheduler
    /// (Definition 2 + Definition 6).
    pub probabilistic: Verdict,
}

impl StabilizationReport {
    /// The certain-convergence verdict under `fairness`.
    pub fn self_under(&self, fairness: Fairness) -> &Verdict {
        match fairness {
            Fairness::Unfair => &self.self_unfair,
            Fairness::WeaklyFair => &self.self_weakly_fair,
            Fairness::StronglyFair => &self.self_strongly_fair,
            Fairness::Gouda => &self.self_gouda,
        }
    }

    /// Whether the system is deterministically self-stabilizing under
    /// `fairness` (closure + certain convergence, Definition 1).
    pub fn is_self_stabilizing(&self, fairness: Fairness) -> bool {
        self.closure.holds() && self.self_under(fairness).holds()
    }

    /// Whether the system is deterministically weak-stabilizing
    /// (closure + possible convergence, Definition 3).
    pub fn is_weak_stabilizing(&self) -> bool {
        self.closure.holds() && self.weak.holds()
    }

    /// Whether the system is probabilistically self-stabilizing under the
    /// randomized daemon (closure + probabilistic convergence,
    /// Definition 2).
    pub fn is_probabilistically_self_stabilizing(&self) -> bool {
        self.closure.holds() && self.probabilistic.holds()
    }

    /// Markdown table header matching [`StabilizationReport::table_row`].
    pub fn table_header() -> String {
        "| algorithm | daemon | states | closure | weak | self(unfair) | self(weak-fair) | self(strong-fair) | self(Gouda) | prob(randomized) |\n|---|---|---|---|---|---|---|---|---|---|".to_string()
    }

    /// One markdown row of ✓/✗ verdicts.
    pub fn table_row(&self) -> String {
        format!(
            "| {} | {} | {} | {} | {} | {} | {} | {} | {} | {} |",
            self.algorithm,
            self.daemon,
            self.states,
            self.closure.mark(),
            self.weak.mark(),
            self.self_unfair.mark(),
            self.self_weakly_fair.mark(),
            self.self_strongly_fair.mark(),
            self.self_gouda.mark(),
            self.probabilistic.mark(),
        )
    }
}

impl fmt::Display for StabilizationReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{} / {} under {} daemon: {} states ({} legitimate), {}",
            self.algorithm,
            self.spec,
            self.daemon,
            self.states,
            self.legitimate,
            if self.deterministic {
                "deterministic"
            } else {
                "probabilistic"
            }
        )?;
        writeln!(f, "  closure:            {}", self.closure)?;
        writeln!(f, "  weak (possible):    {}", self.weak)?;
        writeln!(f, "  self @ unfair:      {}", self.self_unfair)?;
        writeln!(f, "  self @ weakly-fair: {}", self.self_weakly_fair)?;
        writeln!(f, "  self @ strongly:    {}", self.self_strongly_fair)?;
        writeln!(f, "  self @ Gouda:       {}", self.self_gouda)?;
        write!(f, "  prob @ randomized:  {}", self.probabilistic)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stab_algorithms::{DijkstraRing, GreedyColoring, TokenCirculation, TwoProcessToggle};
    use stab_core::DaemonSpec;
    use stab_graph::builders;

    const CAP: u64 = 1 << 22;

    /// Theorem 2 + Theorem 6 on Algorithm 1 over a 6-ring (the paper's own
    /// counterexample size): weak ✓, strong-fair self ✗, Gouda ✓, prob ✓.
    #[test]
    fn algorithm1_classification_on_figure1_ring() {
        let alg = TokenCirculation::on_ring(&builders::ring(6)).unwrap();
        let spec = alg.legitimacy();
        let r = analyze(&alg, DaemonSpec::distributed(), &spec, CAP).unwrap();
        assert!(r.deterministic);
        assert!(r.closure.holds());
        assert!(r.weak.holds(), "Theorem 2");
        assert!(!r.self_unfair.holds());
        assert!(!r.self_weakly_fair.holds());
        assert!(!r.self_strongly_fair.holds(), "Theorem 6");
        assert!(r.self_gouda.holds(), "Theorem 5");
        assert!(r.probabilistic.holds(), "Theorem 7");
        // The strong-fairness counterexample is a genuine lasso.
        assert!(matches!(
            r.self_strongly_fair.witness(),
            Some(Witness::Lasso { .. })
        ));
    }

    /// Dijkstra's K-state ring is deterministically self-stabilizing under
    /// the central daemon — even unfair (Dijkstra's original claim).
    #[test]
    fn dijkstra_is_self_stabilizing_under_central() {
        let alg = DijkstraRing::on_ring(&builders::ring(4)).unwrap();
        let spec = alg.legitimacy();
        let r = analyze(&alg, DaemonSpec::central(), &spec, CAP).unwrap();
        assert!(r.closure.holds());
        assert!(r.weak.holds());
        assert!(r.self_unfair.holds());
        assert!(r.self_strongly_fair.holds());
        assert!(r.self_gouda.holds());
        assert!(r.probabilistic.holds());
    }

    /// Algorithm 3: weak-stabilizing under the distributed daemon, but not
    /// self-stabilizing under any classical fairness (the central-daemon
    /// oscillation is even weakly fair); under Gouda fairness it converges.
    #[test]
    fn two_process_toggle_classification() {
        let alg = TwoProcessToggle::new();
        let spec = alg.legitimacy();
        let r = analyze(&alg, DaemonSpec::distributed(), &spec, CAP).unwrap();
        assert!(r.closure.holds());
        assert!(r.weak.holds());
        assert!(!r.self_unfair.holds());
        assert!(!r.self_weakly_fair.holds());
        assert!(!r.self_strongly_fair.holds());
        assert!(r.self_gouda.holds());
        assert!(r.probabilistic.holds());
    }

    /// Under the *central* daemon Algorithm 3 cannot converge at all from
    /// (F,F): weak stabilization itself fails (the simultaneous step is the
    /// only route to (T,T)).
    #[test]
    fn two_process_toggle_needs_simultaneity() {
        let alg = TwoProcessToggle::new();
        let spec = alg.legitimacy();
        let r = analyze(&alg, DaemonSpec::central(), &spec, CAP).unwrap();
        assert!(
            !r.weak.holds(),
            "no central-daemon path from (F,F) to (T,T)"
        );
        assert!(!r.probabilistic.holds());
        assert!(matches!(
            r.weak.witness(),
            Some(Witness::NoPathToLegitimate { .. })
        ));
    }

    /// Greedy coloring: self-stabilizing under the central daemon (the
    /// conflict count strictly decreases), weak-but-not-self under the
    /// distributed daemon (adjacent twins can echo forever).
    #[test]
    fn coloring_contrast_between_daemons() {
        let g = builders::path(3);
        let alg = GreedyColoring::new(&g).unwrap();
        let spec = alg.legitimacy();
        let central = analyze(&alg, DaemonSpec::central(), &spec, CAP).unwrap();
        assert!(central.is_self_stabilizing(Fairness::Unfair));
        let dist = analyze(&alg, DaemonSpec::distributed(), &spec, CAP).unwrap();
        assert!(dist.is_weak_stabilizing());
        assert!(!dist.is_self_stabilizing(Fairness::StronglyFair));
        assert!(dist.is_probabilistically_self_stabilizing());
    }

    /// Theorem 7 as a cross-check: the Gouda verdict and the probabilistic
    /// verdict agree on every system in the zoo (they are computed by
    /// independent code paths).
    #[test]
    fn theorem7_gouda_equals_probabilistic_across_zoo() {
        let ring = builders::ring(4);
        let path = builders::path(3);
        let reports = vec![
            analyze(
                &TokenCirculation::on_ring(&ring).unwrap(),
                DaemonSpec::distributed(),
                &TokenCirculation::on_ring(&ring).unwrap().legitimacy(),
                CAP,
            )
            .unwrap(),
            analyze(
                &TwoProcessToggle::new(),
                DaemonSpec::central(),
                &TwoProcessToggle::new().legitimacy(),
                CAP,
            )
            .unwrap(),
            analyze(
                &GreedyColoring::new(&path).unwrap(),
                DaemonSpec::synchronous(),
                &GreedyColoring::new(&path).unwrap().legitimacy(),
                CAP,
            )
            .unwrap(),
        ];
        for r in reports {
            assert_eq!(
                r.self_gouda.holds(),
                r.probabilistic.holds(),
                "Theorem 7 violated for {} under {}",
                r.algorithm,
                r.daemon
            );
        }
    }

    #[test]
    fn budgeted_analysis_degrades_instead_of_running_unbounded() {
        let alg = TwoProcessToggle::new();
        let spec = alg.legitimacy();
        let space = ExploredSpace::explore(&alg, DaemonSpec::distributed(), &spec, CAP).unwrap();
        let expired = Budget::unlimited().with_wall_time(std::time::Duration::ZERO);
        let err = analyze_space_budgeted(&space, "toggle".into(), "all-true".into(), &expired)
            .unwrap_err();
        assert!(matches!(
            err,
            CoreError::BudgetExhausted {
                stage: "verdicts",
                ..
            }
        ));
        // An unlimited budget reproduces the plain analysis verbatim.
        let plain = analyze_space(&space, "toggle".into(), "all-true".into());
        let budgeted = analyze_space_budgeted(
            &space,
            "toggle".into(),
            "all-true".into(),
            &Budget::unlimited(),
        )
        .unwrap();
        assert_eq!(plain.table_row(), budgeted.table_row());
    }

    #[test]
    fn report_accessors_and_table() {
        let alg = TwoProcessToggle::new();
        let spec = alg.legitimacy();
        let r = analyze(&alg, DaemonSpec::distributed(), &spec, CAP).unwrap();
        assert_eq!(r.self_under(Fairness::Gouda), &r.self_gouda);
        assert!(r.table_row().contains("two-process-toggle"));
        assert!(StabilizationReport::table_header().contains("self(Gouda)"));
        let shown = format!("{r}");
        assert!(shown.contains("closure"));
        assert!(shown.contains("Gouda"));
    }
}
