//! The stabilization analyses: closure, weak/possible convergence, certain
//! convergence under each fairness assumption, and probabilistic
//! convergence — Definitions 1–3 of the paper, decided exhaustively.
//!
//! The verdict stage decomposes the reachable illegitimate region once
//! ([`Decomposition`]: one Tarjan walk, on every edge-store tier alike).
//! Reach-to-`L`, which the weak and probabilistic verdicts read, is
//! marked over its components sinks first, by the rule the Markov chain's
//! absorption check also uses; the four fairness verdicts are predicates
//! over the same components in the same order, and their lasso witnesses
//! are drawn once per distinct component. Only strong fairness decomposes
//! again, and only the subsets it refines.

use std::fmt;

use stab_core::engine::{BitSet, Budget};
use stab_core::{Algorithm, CoreError, DaemonSpec, Fairness, Legitimacy, LocalState};

use crate::scc::{ComponentFacts, Decomposition};
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

/// [`analyze_space`] under a cooperative [`Budget`]: the forward closure
/// and the one Tarjan walk probe the `verdicts` stage, so an exhausted
/// wall-clock or state budget yields a typed
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

    // Every verdict below reads one decomposition of the reachable
    // illegitimate region. A non-converging execution never enters L (it
    // would stay by closure), so its recurrent behaviour lives entirely
    // outside L; and a reachable configuration's paths stay reachable, so
    // whether it can reach L is decided component by component, sinks
    // first.
    let legit = space.transition_system().legit();
    let decomp = Decomposition::of(space, &reachable.and_not(legit), budget)?;
    let mut can_reach = legit.clone();
    decomp.mark_reaching(space, &mut can_reach);

    let closure = check_closure(space);
    let weak = check_weak(space, &can_reach);
    // Certain convergence under a fairness assumption fails on a
    // reachable deadlock outside L, or else on a reachable
    // fairness-compatible cycle outside L.
    let [self_unfair, self_weakly_fair, self_strongly_fair, self_gouda] =
        match find_deadlock(space, &reachable) {
            Some(id) => [(); 4].map(|()| {
                Verdict::fail(Witness::DeadlockOutsideLegitimate {
                    config: space.render(id),
                })
            }),
            None => {
                let first = |fair: fn(&ComponentFacts) -> bool| {
                    let found = (0..decomp.len()).find(|&c| fair(&decomp.facts(c)));
                    found.map(FairComponent::Top)
                };
                let mut lassos = Lassos {
                    space,
                    decomp: &decomp,
                    drawn: Vec::new(),
                };
                [
                    // Unfair: any recurrent component.
                    lassos.verdict(first(|f| f.recurrent)),
                    // Weak fairness (generalized Büchi): every process is
                    // disabled somewhere or moved on an internal edge, so
                    // a cycle can be stitched through all these witnesses.
                    lassos.verdict(first(|f| f.recurrent && f.always_enabled & !f.moved == 0)),
                    lassos.verdict(find_strongly_fair(space, &decomp, budget)?),
                    // Gouda fairness: a Gouda-fair execution's recurrent
                    // set is closed under all transitions.
                    lassos.verdict(first(|f| f.recurrent && f.closed)),
                ]
            }
        };

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

/// A component supporting a fair infinite execution outside `L`:
/// component `c` of the stage's decomposition, or of a sub-decomposition
/// strong fairness refined.
enum FairComponent {
    Top(usize),
    Refined(Decomposition, usize),
}

/// The lasso witnesses of the fairness verdicts. The stem and cycle of a
/// stage component are drawn once, however many verdicts it fails.
struct Lassos<'a, S> {
    space: &'a ExploredSpace<S>,
    decomp: &'a Decomposition,
    drawn: Vec<(usize, Witness)>,
}

impl<S: LocalState> Lassos<'_, S> {
    fn verdict(&mut self, found: Option<FairComponent>) -> Verdict {
        let witness = match found {
            None => return Verdict::pass(),
            Some(FairComponent::Top(c)) => match self.drawn.iter().find(|(d, _)| *d == c) {
                Some((_, w)) => w.clone(),
                None => {
                    let w = lasso(self.space, self.decomp, c);
                    self.drawn.push((c, w.clone()));
                    w
                }
            },
            Some(FairComponent::Refined(sub, c)) => lasso(self.space, &sub, c),
        };
        Verdict::fail(witness)
    }
}

/// A shortest stem from the initial set into component `c`, and a cycle
/// inside it.
fn lasso<S: LocalState>(space: &ExploredSpace<S>, decomp: &Decomposition, c: usize) -> Witness {
    let stem = space
        .path(|id| space.is_initial(id), |id| decomp.contains(c, id))
        .unwrap_or_default();
    let cycle = decomp.some_cycle(space, c);
    Witness::Lasso {
        stem: stem.into_iter().map(|id| space.render(id)).collect(),
        cycle: cycle.into_iter().map(|id| space.render(id)).collect(),
    }
}

/// Streett-style recursive refinement for strong fairness: a recurrent
/// component is strongly fair iff every process enabled somewhere in it
/// is activated on some internal edge; otherwise remove the
/// configurations where a violating process is enabled and recurse into
/// the sub-components — the only sets decomposed again.
fn find_strongly_fair<S: LocalState>(
    space: &ExploredSpace<S>,
    decomp: &Decomposition,
    budget: &Budget,
) -> Result<Option<FairComponent>, CoreError> {
    for c in 0..decomp.len() {
        let f = decomp.facts(c);
        if !f.recurrent {
            continue;
        }
        let bad = f.sometimes_enabled & !f.moved;
        if bad == 0 {
            return Ok(Some(FairComponent::Top(c)));
        }
        // An execution confined to this component that starves a `bad`
        // process must avoid the configurations where it is enabled.
        let mut refined = BitSet::new(space.total() as usize);
        for &v in decomp.members(c) {
            if space.enabled_mask(v) & bad == 0 {
                refined.insert(v as usize);
            }
        }
        debug_assert!(
            refined.count_ones() < decomp.members(c).len() as u64,
            "a bad process is enabled somewhere in the component"
        );
        let sub = Decomposition::of(space, &refined, budget)?;
        if let Some(found) = find_strongly_fair(space, &sub, budget)? {
            return Ok(Some(match found {
                FairComponent::Top(c) => FairComponent::Refined(sub, c),
                deeper => deeper,
            }));
        }
    }
    Ok(None)
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
    /// different predicates over the decomposition).
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
