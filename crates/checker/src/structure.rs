//! State-space structure census: how the illegitimate region decomposes
//! into strongly connected components.
//!
//! The census explains *why* systems land in different stabilization
//! classes: deterministically self-stabilizing systems have an acyclic
//! illegitimate region (no recurrent component at all), weak-only systems
//! have recurrent components that some fairness notion can escape, and
//! non-converging systems have *closed* (bottom) components — the paper's
//! Gouda/probabilistic failure witnesses. It counts over the verdict
//! stage's own [`Decomposition`], so the census and the verdicts read
//! the same components.

use std::fmt;

use stab_core::engine::Budget;
use stab_core::{Algorithm, ConfigView, Configuration, LocalState, Outcomes, View};
use stab_graph::NodeId;

use crate::scc::Decomposition;
use crate::space::ExploredSpace;

/// Census of the illegitimate region's SCC structure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SccSummary {
    /// Number of configurations outside `L` reachable from the initial set.
    pub illegitimate_reachable: u64,
    /// Number of SCCs in that region.
    pub components: u64,
    /// SCCs with an internal edge (recurrent: support an infinite
    /// execution avoiding `L`).
    pub recurrent_components: u64,
    /// Size of the largest recurrent component.
    pub largest_recurrent: u64,
    /// Recurrent components that are *closed* (no edge leaves them):
    /// non-zero exactly when Gouda/probabilistic convergence fails.
    pub closed_components: u64,
    /// Reachable terminal configurations outside `L` (deadlocks).
    pub deadlocks: u64,
}

/// Computes the census over the reachable illegitimate subgraph, from the
/// same decomposition, read in the same order, as the verdict stage's.
pub fn scc_summary<S: LocalState>(space: &ExploredSpace<S>) -> SccSummary {
    let reachable = space.reachable_from_initial();
    let alive = reachable.and_not(space.transition_system().legit());
    let decomp = Decomposition::of(space, &alive, &Budget::unlimited())
        .expect("unlimited budget cannot be exhausted");
    let recurrent: Vec<usize> = (0..decomp.len())
        .filter(|&c| decomp.facts(c).recurrent)
        .collect();
    let deadlocks = alive
        .ones()
        // lint: cast-ok(bitset bits are bounded by the u32 config count)
        .filter(|&id| space.is_terminal(id as u32))
        .count() as u64;
    SccSummary {
        illegitimate_reachable: alive.count_ones(),
        components: decomp.len() as u64,
        recurrent_components: recurrent.len() as u64,
        largest_recurrent: recurrent
            .iter()
            .map(|&c| decomp.members(c).len() as u64)
            .max()
            .unwrap_or(0),
        closed_components: recurrent
            .iter()
            .filter(|&&c| decomp.facts(c).closed)
            .count() as u64,
        deadlocks,
    }
}

// ---------------------------------------------------------------------
// Spec well-formedness audit (pre-exploration static analysis).
// ---------------------------------------------------------------------

/// One defect found by [`audit_spec`].
///
/// Configurations are rendered as their state slice (`{:?}`), so a
/// finding is reproducible by hand: rebuild the configuration, evaluate
/// the guards, apply the named actions.
#[derive(Debug, Clone, PartialEq)]
pub enum SpecFinding {
    /// Two actions enabled simultaneously at one process with *different*
    /// outcome distributions. Both write the same local state, so the
    /// spec silently relies on the engine's lowest-label priority — the
    /// dijkstra3/dijkstra4 determinization subtlety this pass pins.
    GuardOverlap {
        /// The process with overlapping guards.
        node: usize,
        /// The two enabled action indices.
        actions: (usize, usize),
        /// The configuration's state slice, `{:?}`-rendered.
        config: String,
    },
    /// An action's outcome probabilities do not sum to 1 within the ulp
    /// bound `4·ε·#entries` — tighter than the construction-time `1e-9`
    /// tolerance, so accumulated drift is caught before it skews a chain.
    BadProbabilityRow {
        /// The process executing the action.
        node: usize,
        /// The action index.
        action: usize,
        /// The observed probability sum.
        sum: f64,
        /// The configuration's state slice, `{:?}`-rendered.
        config: String,
    },
    /// An enabled action whose every outcome equals the current local
    /// state: a silent stutter move that burns a scheduler step without
    /// writing (enabled ⇒ must be able to change something).
    SilentStutter {
        /// The process with the stuttering action.
        node: usize,
        /// The action index.
        action: usize,
        /// The configuration's state slice, `{:?}`-rendered.
        config: String,
    },
    /// Guard or outcome changed when a **non-neighbour's** state was
    /// perturbed: the spec reads outside its declared neighbourhood
    /// (e.g. through smuggled shared state), breaking the locality the
    /// `View` discipline promises.
    ReadLeak {
        /// The process whose guards/outcomes leaked.
        node: usize,
        /// The perturbed non-neighbour.
        perturbed: usize,
        /// The configuration's state slice, `{:?}`-rendered.
        config: String,
    },
    /// Two evaluations of the same guard on the same view disagreed:
    /// the guard is impure (interior mutability, randomness), so no
    /// exploration over it is reproducible.
    ImpureGuard {
        /// The process with the impure guard.
        node: usize,
        /// The configuration's state slice, `{:?}`-rendered.
        config: String,
    },
}

impl SpecFinding {
    /// Stable kind label (used by `stab-lint --specs` output and tests).
    pub fn kind(&self) -> &'static str {
        match self {
            SpecFinding::GuardOverlap { .. } => "guard-overlap",
            SpecFinding::BadProbabilityRow { .. } => "bad-probability-row",
            SpecFinding::SilentStutter { .. } => "silent-stutter",
            SpecFinding::ReadLeak { .. } => "read-leak",
            SpecFinding::ImpureGuard { .. } => "impure-guard",
        }
    }
}

impl fmt::Display for SpecFinding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpecFinding::GuardOverlap {
                node,
                actions,
                config,
            } => write!(
                f,
                "guard-overlap at node {node}: actions A{} and A{} both enabled with \
                 different outcomes in {config}",
                actions.0 + 1,
                actions.1 + 1
            ),
            SpecFinding::BadProbabilityRow {
                node,
                action,
                sum,
                config,
            } => write!(
                f,
                "bad-probability-row at node {node}, action A{}: probabilities sum to \
                 {sum:.17} in {config}",
                action + 1
            ),
            SpecFinding::SilentStutter {
                node,
                action,
                config,
            } => write!(
                f,
                "silent-stutter at node {node}, action A{}: enabled but every outcome \
                 equals the current state in {config}",
                action + 1
            ),
            SpecFinding::ReadLeak {
                node,
                perturbed,
                config,
            } => write!(
                f,
                "read-leak at node {node}: behaviour changed when non-neighbour \
                 {perturbed} was perturbed in {config}"
            ),
            SpecFinding::ImpureGuard { node, config } => write!(
                f,
                "impure-guard at node {node}: two evaluations on the same view \
                 disagreed in {config}"
            ),
        }
    }
}

/// The result of auditing one algorithm spec.
#[derive(Debug, Clone)]
pub struct SpecAudit {
    /// The audited algorithm's [`Algorithm::name`].
    pub algorithm: String,
    /// Size of the full configuration space (saturating).
    pub total_configs: u128,
    /// Configurations actually evaluated (all of them below the cap,
    /// an even-stride sample above it).
    pub configs_sampled: u64,
    /// The defects found, at most [`MAX_FINDINGS_PER_KIND`] per kind.
    pub findings: Vec<SpecFinding>,
    /// Findings beyond the per-kind cap (counted, not stored).
    pub suppressed: u64,
}

impl SpecAudit {
    /// Whether the spec audited clean.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }
}

/// Per-kind cap on stored findings: a broken spec fails on the first
/// finding anyway; the cap keeps reports readable and memory flat.
pub const MAX_FINDINGS_PER_KIND: usize = 8;

/// Probability-distribution equality tolerance for guard-overlap and
/// read-leak comparisons.
const DIST_EPS: f64 = 1e-12;

/// Statically audits an [`Algorithm`] spec for well-formedness, without
/// exploring: guard determinism, probability-row sums, no silent
/// stutters, read-closure within the declared neighbourhood, and guard
/// purity — each checked on up to `max_samples` configurations (the
/// full space when it fits, an even-stride mixed-radix sample
/// otherwise; sampling is deterministic, so re-runs agree).
///
/// This is the pre-exploration half of the paper's discipline: prove
/// structural properties of the guarded-command system *before* running
/// it. `stab-lint --specs` applies it to the whole algorithm zoo.
pub fn audit_spec<A: Algorithm>(algo: &A, max_samples: u64) -> SpecAudit {
    let g = algo.graph();
    let n = g.n();
    let spaces: Vec<Vec<A::State>> = g.nodes().map(|v| algo.state_space(v)).collect();
    let radices: Vec<usize> = spaces.iter().map(Vec::len).collect();
    let mut total: u128 = 1;
    for &r in &radices {
        total = total.saturating_mul(r.max(1) as u128);
    }
    let samples = total.min(max_samples.max(1) as u128);
    let stride = (total / samples).max(1);

    // Per-node non-neighbour pick for the read-closure perturbation:
    // the lowest node that is neither `v` nor adjacent to it.
    let non_neighbor: Vec<Option<NodeId>> = g
        .nodes()
        .map(|v| {
            let adjacent: Vec<NodeId> = (0..g.degree(v))
                .map(|p| g.neighbor(v, stab_graph::PortId::new(p)))
                .collect();
            g.nodes().find(|&w| w != v && !adjacent.contains(&w))
        })
        .collect();

    let mut findings: Vec<SpecFinding> = Vec::new();
    let mut suppressed = 0u64;
    let mut kind_counts: std::collections::BTreeMap<&'static str, usize> = Default::default();
    let push = |f: SpecFinding,
                findings: &mut Vec<SpecFinding>,
                suppressed: &mut u64,
                kind_counts: &mut std::collections::BTreeMap<&'static str, usize>| {
        let c = kind_counts.entry(f.kind()).or_insert(0);
        if *c < MAX_FINDINGS_PER_KIND {
            *c += 1;
            findings.push(f);
        } else {
            *suppressed += 1;
        }
    };

    let mut sampled = 0u64;
    for i in 0..samples {
        let mut idx = i * stride;
        let mut states: Vec<A::State> = Vec::with_capacity(n);
        for (node, space) in spaces.iter().enumerate() {
            let r = radices[node] as u128;
            states.push(space[(idx % r) as usize].clone());
            idx /= r;
        }
        let cfg = Configuration::from_vec(states);
        sampled += 1;
        for v in g.nodes() {
            let view = ConfigView::new(g, &cfg, v);
            let mask = algo.enabled_actions(&view);
            if algo.enabled_actions(&view) != mask {
                push(
                    SpecFinding::ImpureGuard {
                        node: v.index(),
                        config: format!("{:?}", cfg.states()),
                    },
                    &mut findings,
                    &mut suppressed,
                    &mut kind_counts,
                );
                continue;
            }
            let enabled: Vec<_> = mask.iter().collect();
            let mut outs: Vec<Outcomes<A::State>> = Vec::with_capacity(enabled.len());
            for &a in &enabled {
                let out = algo.apply(&view, a);
                let sum: f64 = out.entries().iter().map(|(p, _)| p).sum();
                let tol = 4.0 * f64::EPSILON * out.entries().len() as f64;
                if (sum - 1.0).abs() > tol {
                    push(
                        SpecFinding::BadProbabilityRow {
                            node: v.index(),
                            action: a.index(),
                            sum,
                            config: format!("{:?}", cfg.states()),
                        },
                        &mut findings,
                        &mut suppressed,
                        &mut kind_counts,
                    );
                }
                if out.entries().iter().all(|(_, s)| s == view.me()) {
                    push(
                        SpecFinding::SilentStutter {
                            node: v.index(),
                            action: a.index(),
                            config: format!("{:?}", cfg.states()),
                        },
                        &mut findings,
                        &mut suppressed,
                        &mut kind_counts,
                    );
                }
                outs.push(out);
            }
            // Guard determinism: overlapping guards must agree on the
            // write, else the spec depends on action priority.
            for x in 0..outs.len() {
                for y in (x + 1)..outs.len() {
                    if !same_distribution(&outs[x], &outs[y]) {
                        push(
                            SpecFinding::GuardOverlap {
                                node: v.index(),
                                actions: (enabled[x].index(), enabled[y].index()),
                                config: format!("{:?}", cfg.states()),
                            },
                            &mut findings,
                            &mut suppressed,
                            &mut kind_counts,
                        );
                    }
                }
            }
            // Read closure: perturb one non-neighbour; nothing at `v`
            // may change.
            if let Some(w) = non_neighbor[v.index()] {
                let space_w = &spaces[w.index()];
                if let Some(alt) = space_w.iter().find(|s| *s != cfg.get(w)) {
                    let cfg2 = cfg.with_state(w, alt.clone());
                    let view2 = ConfigView::new(g, &cfg2, v);
                    let mask2 = algo.enabled_actions(&view2);
                    let leak = mask2 != mask
                        || enabled
                            .iter()
                            .zip(&outs)
                            .any(|(&a, out)| !same_distribution(&algo.apply(&view2, a), out));
                    if leak {
                        push(
                            SpecFinding::ReadLeak {
                                node: v.index(),
                                perturbed: w.index(),
                                config: format!("{:?}", cfg.states()),
                            },
                            &mut findings,
                            &mut suppressed,
                            &mut kind_counts,
                        );
                    }
                }
            }
        }
    }

    SpecAudit {
        algorithm: algo.name(),
        total_configs: total,
        configs_sampled: sampled,
        findings,
        suppressed,
    }
}

/// Distribution equality up to entry order and [`DIST_EPS`].
fn same_distribution<S: LocalState>(a: &Outcomes<S>, b: &Outcomes<S>) -> bool {
    if a.entries().len() != b.entries().len() {
        return false;
    }
    let mut ea: Vec<(&S, f64)> = a.entries().iter().map(|(p, s)| (s, *p)).collect();
    let mut eb: Vec<(&S, f64)> = b.entries().iter().map(|(p, s)| (s, *p)).collect();
    ea.sort_by(|x, y| x.0.cmp(y.0));
    eb.sort_by(|x, y| x.0.cmp(y.0));
    ea.iter()
        .zip(&eb)
        .all(|((sa, pa), (sb, pb))| sa == sb && (pa - pb).abs() <= DIST_EPS)
}

#[cfg(test)]
mod tests {
    use super::*;
    use stab_algorithms::{DijkstraRing, TokenCirculation, TwoProcessToggle};
    use stab_core::DaemonSpec;
    use stab_graph::builders;

    #[test]
    fn dijkstra_illegitimate_region_is_acyclic() {
        // Deterministic self-stabilization under every fairness level
        // means no recurrent component survives outside L.
        let alg = DijkstraRing::on_ring(&builders::ring(4)).unwrap();
        let space = ExploredSpace::explore(&alg, DaemonSpec::central(), &alg.legitimacy(), 1 << 22)
            .unwrap();
        let s = scc_summary(&space);
        assert_eq!(s.recurrent_components, 0, "{s:?}");
        assert_eq!(s.closed_components, 0);
        assert_eq!(s.deadlocks, 0);
        assert!(s.illegitimate_reachable > 0);
    }

    #[test]
    fn token_ring_has_recurrent_but_open_components() {
        // Weak-but-not-self: recurrent traps exist (the multi-token
        // cycles), but none is closed — every trap has an exit, which is
        // exactly possible convergence.
        let alg = TokenCirculation::on_ring(&builders::ring(5)).unwrap();
        let space =
            ExploredSpace::explore(&alg, DaemonSpec::distributed(), &alg.legitimacy(), 1 << 22)
                .unwrap();
        let s = scc_summary(&space);
        assert!(s.recurrent_components > 0, "{s:?}");
        assert_eq!(
            s.closed_components, 0,
            "weak stabilization = no closed trap"
        );
        assert_eq!(s.deadlocks, 0);
    }

    #[test]
    fn toggle_under_central_has_a_closed_trap() {
        // Not even weak-stabilizing: the illegitimate region is one closed
        // recurrent component.
        let alg = TwoProcessToggle::new();
        let space = ExploredSpace::explore(&alg, DaemonSpec::central(), &alg.legitimacy(), 1 << 10)
            .unwrap();
        let s = scc_summary(&space);
        assert_eq!(s.closed_components, 1, "{s:?}");
        assert_eq!(s.largest_recurrent, 3);
    }
}
