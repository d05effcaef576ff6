//! Behavioural soundness gate for symmetry quotients: decides
//! `QuotientUnsupported` **per algorithm**, not per topology, once per
//! study. [`check_quotient_sound`] is the one entry point; it returns an
//! [`Admission`] naming the quotient, canonicalizer and daemon it
//! admitted and how each generator passed (strict or lumped). A plan
//! hands its admission to the exploration through [`Carried`], and the
//! exploration gates only when no carried admission covers its run.
//!
//! A group quotient is sound when the algorithm respects the group and the
//! specification is invariant under it. Structural validation (ring shape,
//! equal alphabets) lives in [`super::quotient`]; this module checks the
//! *behaviour*:
//!
//! 1. **Spec invariance** — `spec(γ) = spec(π·γ)` for every generator `π`
//!    on a deterministic stride sample (exhaustive on small spaces).
//!    Catches Dijkstra's rooted ring (privileges count differently after
//!    rotating away from the root) and the `m ≥ 3` oriented token ring
//!    under reflection (token count is direction-sensitive).
//! 2. **Strict equivariance** — [`locally_equivariant`] with the identity
//!    state map: an exhaustive check over every node's closed-neighbourhood
//!    views, not a sample. Guards and statements read only `N[v]`, and every
//!    daemon's choice depends only on the enabled set and graph distances,
//!    so a generator that passes commutes with every successor row
//!    (targets, mover masks, probabilities). Holds for undirected/anonymous
//!    protocols (coloring, leaf programs) and for oriented rings under
//!    rotations.
//! 3. **Lumped fallback** — generators that fail strict equivariance (an
//!    oriented ring under reflection maps the protocol to its
//!    mirror-image) are still sound when the *absorption dynamics* are
//!    direction-blind: the gate compares the step-`k` absorbed-mass series
//!    of `γ` and `π·γ` under the Definition 6 kernel, budget-bounded.
//!    Herman's ring passes — its hitting-time law is invariant under
//!    reversal even though single steps are not — while asymmetric
//!    protocols diverge within a step or two.
//!
//! Pass 2 is a proof; passes 1 and 3 are sampled filters. In particular
//! the lumped fallback certifies the *absorption law* (hitting times,
//! absorption probabilities, CDFs); for possibilistic analyses over a
//! lumped-admitted quotient (Herman's reachability sets fold exactly,
//! one-step supports do not) agreement is pinned empirically by the
//! quotient differential suites (`quotient_differential.rs`,
//! `quotient_chain.rs`, `group_canonicalizer_props.rs`) across the zoo
//! under all four daemons rather than guaranteed a priori — strictly
//! equivariant algorithms need no such caveat.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use stab_graph::NodeId;

use crate::algorithm::Algorithm;
use crate::scheduler::DaemonSpec;
use crate::space::SpaceIndexer;
use crate::spec::Legitimacy;
use crate::{Configuration, CoreError, LocalState};

use super::explore::conflict_masks;
use super::ids::U64Map;
use super::onthefly::Quotient;
use super::quotient::GroupCanonicalizer;
use super::rowgen::RowGen;

/// Process-wide gate counter, incremented once per
/// [`check_quotient_sound`] entry.
static GATE_CALLS: AtomicU64 = AtomicU64::new(0);

/// Number of equivariance-gate runs performed by this process so far.
/// The gate is the planner's dominant cost, so pipelines that promise to
/// decide symmetry *once* per study (the plan gates, the exploration
/// reuses its admission) pin that promise by asserting this counter.
pub fn gate_count() -> u64 {
    GATE_CALLS.load(Ordering::Relaxed)
}

/// What the equivariance gate admitted: the quotient and its
/// canonicalizer, the daemon the gate ran under, and how each generator
/// passed. Only [`check_quotient_sound`] creates one.
#[derive(Debug)]
pub(super) struct Admission {
    quotient: Quotient,
    canon: GroupCanonicalizer,
    daemon: DaemonSpec,
    /// `generator 0: strict; generator 1: lumped; …`
    outcomes: String,
}

impl Admission {
    /// Order of the admitted group.
    pub(super) fn group_order(&self) -> u64 {
        self.canon.group_order()
    }

    /// The admitted canonicalizer.
    pub(super) fn into_canonicalizer(self) -> GroupCanonicalizer {
        self.canon
    }

    /// How each generator passed, e.g. `generator 0: strict; generator
    /// 1: lumped`.
    pub(super) fn outcomes(&self) -> &str {
        &self.outcomes
    }
}

/// An admission carried from a plan to its exploration options: shared
/// behind an `Arc` so option clones stay cheap, and equal to every other
/// carrier so it never changes how options or plans compare.
#[derive(Debug, Clone, Default)]
pub(super) struct Carried(pub(super) Option<Arc<Admission>>);

impl Carried {
    /// The carried canonicalizer, if the admission was decided for
    /// `quotient` under `daemon` on a space with `ix`'s alphabets.
    pub(super) fn covering<S: LocalState>(
        &self,
        quotient: Quotient,
        daemon: DaemonSpec,
        ix: &SpaceIndexer<S>,
    ) -> Option<GroupCanonicalizer> {
        let a = self.0.as_deref()?;
        let covers = a.quotient == quotient && a.daemon == daemon && a.canon.fits(ix);
        covers.then(|| a.canon.clone())
    }
}

impl PartialEq for Carried {
    fn eq(&self, _: &Self) -> bool {
        true
    }
}

impl Eq for Carried {}

/// A cached kernel row: the enabled mask and the successor distribution
/// aggregated by target.
type KernelRow = (u64, Vec<(u64, f64)>);

/// Stride-sample size for the (cheap) spec-invariance pass.
const SPEC_SAMPLES: u64 = 2048;
/// Stride-sample size for the lumped absorption-dynamics fallback.
const LUMPED_SAMPLES: u64 = 16;
/// Longest absorbed-mass series compared by the lumped fallback.
const LUMPED_MAX_STEPS: usize = 12;
/// Distribution-support cap per evolution step (the series is truncated,
/// never approximated, when branching exceeds it).
const LUMPED_SUPPORT_CAP: usize = 512;
/// Successor-row generations each absorbed-series evolution may spend
/// (per sample, so later samples are never starved into a vacuous
/// comparison; divergence between an algorithm and its mirror image
/// shows within a step or two, and the cap keeps the gate a vanishing
/// fraction of the explore it guards).
const LUMPED_WORK_BUDGET: usize = 400;
/// Probability comparison tolerance.
const PROB_TOL: f64 = 1e-9;

/// A deterministic stride sample of `0..total` with at most `count`
/// entries (exhaustive when `total <= count`).
fn samples(total: u64, count: u64) -> impl Iterator<Item = u64> {
    let count = count.min(total);
    let stride = (total / count).max(1);
    (0..count).map(move |i| i * stride)
}

/// Resolves `quotient` on `alg`'s graph and checks that quotienting `alg`
/// under `daemon` and `spec` by the group is behaviourally sound, per the
/// module docs; returns what it admitted (`None` for [`Quotient::None`]).
/// Only a group that passes structural validation counts as a gate run.
///
/// # Errors
///
/// [`CoreError::QuotientUnsupported`] from structural validation or
/// naming the first witness of a violated condition;
/// [`CoreError::TooManyEnabled`] propagated from the lumped fallback's
/// row generation.
pub(super) fn check_quotient_sound<A, L>(
    alg: &A,
    ix: &SpaceIndexer<A::State>,
    daemon: DaemonSpec,
    spec: &L,
    quotient: Quotient,
) -> Result<Option<Admission>, CoreError>
where
    A: Algorithm,
    L: Legitimacy<A::State>,
{
    let Some(canon) = GroupCanonicalizer::for_quotient(quotient, alg.graph(), ix)? else {
        return Ok(None);
    };
    GATE_CALLS.fetch_add(1, Ordering::Relaxed);
    let total = ix.total();

    // Pass 1: spec invariance under every generator.
    for perm in canon.generators() {
        for full in samples(total, SPEC_SAMPLES) {
            let image = canon.apply_perm(full, perm);
            if spec.is_legitimate(&ix.decode(full)) != spec.is_legitimate(&ix.decode(image)) {
                return Err(CoreError::QuotientUnsupported {
                    reason: format!(
                        "specification '{}' is not invariant under the quotient group: \
                         {:?} and its symmetric image {:?} disagree",
                        spec.name(),
                        ix.decode(full),
                        ix.decode(image),
                    ),
                });
            }
        }
    }

    // Pass 2 (+3): local equivariance per generator, with the lumped
    // absorption-dynamics fallback for generators that conjugate the
    // algorithm into its mirror image.
    let mut kernel = Kernel::new(alg, ix, daemon, spec);
    let mut outcomes = Vec::new();
    for (i, perm) in canon.generators().iter().enumerate() {
        let strict = locally_equivariant(alg, perm, |_, s| s.clone());
        if !strict {
            lumped_generator_soundness(&mut kernel, &canon, perm)?;
        }
        let tier = if strict { "strict" } else { "lumped" };
        outcomes.push(format!("generator {i}: {tier}"));
    }
    let outcomes = outcomes.join("; ");
    Ok(Some(Admission {
        quotient,
        canon,
        daemon,
        outcomes,
    }))
}

/// Whether `alg` commutes with the node permutation `perm`, an
/// automorphism of its graph (as every [`GroupCanonicalizer::generators`]
/// entry is), on every local view. The image of a configuration holds `map_state(u, s)` at `perm[u]`
/// for the state `s` of each node `u`. For every node `v` and every
/// assignment of states to its closed neighbourhood `N[v]` (every other
/// node keeps a fixed state, which no view of `v` reads), `v` must be
/// enabled iff `perm[v]` is enabled on the image, and the selected
/// action's outcome distribution at `v`, mapped through `map_state(v, ·)`,
/// must equal the one at `perm[v]` as a set of entries, probabilities
/// within 1e-9 (action ids may differ).
///
/// Guards and statements see only a [`View`](crate::View) of `N[v]`, and
/// every daemon's choice depends only on the enabled set and graph
/// distances, which an automorphism preserves. So `true` proves that
/// every successor row commutes with `perm` — the strict equivariance of
/// the quotient gate and of Theorem 3 — after `Σ_v Π_{u∈N[v]} |S_u|`
/// views (120 on Herman's ring of 15).
pub fn locally_equivariant<A: Algorithm>(
    alg: &A,
    perm: &[u32],
    map_state: impl Fn(NodeId, &A::State) -> A::State,
) -> bool {
    let g = alg.graph();
    let spaces: Vec<Vec<A::State>> = g.nodes().map(|u| alg.state_space(u)).collect();
    let image = |u: NodeId| NodeId::new(perm[u.index()] as usize);
    // An empty state space leaves no configuration to disagree on.
    let Some(first) = spaces.iter().map(|s| s.first().cloned()).collect() else {
        return true;
    };
    let mut cfg = Configuration::from_vec(first);
    let mut img = cfg.clone();
    let mut digits = Vec::new();
    for v in g.nodes() {
        let hood = || std::iter::once(v).chain(g.neighbors(v).iter().copied());
        digits.clear();
        digits.resize(hood().count(), 0usize);
        let mut changed = digits.len();
        loop {
            for (u, &d) in hood().zip(&digits).take(changed) {
                let s = &spaces[u.index()][d];
                img.set(image(u), map_state(u, s));
                cfg.set(u, s.clone());
            }
            let w = image(v);
            match (alg.selected_action(&cfg, v), alg.selected_action(&img, w)) {
                (None, None) => {}
                (Some(a), Some(b)) => {
                    let mine = alg.apply(&alg.view(&cfg, v), a).map(|s| map_state(v, &s));
                    let theirs = alg.apply(&alg.view(&img, w), b);
                    let (mine, theirs) = (mine.entries(), theirs.entries());
                    let found = |(p, s): &(f64, A::State)| {
                        theirs
                            .iter()
                            .any(|(q, t)| t == s && (p - q).abs() <= PROB_TOL)
                    };
                    if mine.len() != theirs.len() || !mine.iter().all(found) {
                        return false;
                    }
                }
                _ => return false,
            }
            // Next assignment of N[v], in mixed radix.
            let Some(i) = hood()
                .zip(&digits)
                .position(|(u, &d)| d + 1 < spaces[u.index()].len())
            else {
                break;
            };
            digits[i] += 1;
            digits[..i].fill(0);
            changed = i + 1;
        }
    }
    true
}

/// Fallback acceptance for a strictly non-equivariant generator: the
/// absorbed-mass series (`P(T_L <= k)` for `k = 0, 1, …`) of sampled
/// configurations and their images must coincide, and so must their
/// enabled-process counts (terminality in particular).
fn lumped_generator_soundness<A, L>(
    kernel: &mut Kernel<'_, A, L>,
    canon: &GroupCanonicalizer,
    perm: &[u32],
) -> Result<(), CoreError>
where
    A: Algorithm,
    L: Legitimacy<A::State>,
{
    let total = kernel.ix.total();
    for full in samples(total, LUMPED_SAMPLES) {
        let image = canon.apply_perm(full, perm);
        let mask_x = kernel.row(full)?.0;
        let mask_img = kernel.row(image)?.0;
        if mask_x.count_ones() != mask_img.count_ones() {
            return Err(CoreError::QuotientUnsupported {
                reason: format!(
                    "algorithm does not respect the quotient group: {:?} has {} enabled \
                     processes but its symmetric image {:?} has {}",
                    kernel.ix.decode(full),
                    mask_x.count_ones(),
                    kernel.ix.decode(image),
                    mask_img.count_ones(),
                ),
            });
        }
        let series_x = kernel.absorbed_series(full)?;
        let series_img = kernel.absorbed_series(image)?;
        let horizon = series_x.len().min(series_img.len());
        for k in 0..horizon {
            if (series_x[k] - series_img[k]).abs() > PROB_TOL {
                return Err(CoreError::QuotientUnsupported {
                    reason: format!(
                        "algorithm does not respect the quotient group: the absorption \
                         dynamics of {:?} and its symmetric image {:?} diverge at step {k} \
                         (P(T<=k) = {} vs {})",
                        kernel.ix.decode(full),
                        kernel.ix.decode(image),
                        series_x[k],
                        series_img[k],
                    ),
                });
            }
        }
    }
    Ok(())
}

/// The legitimacy of `full`, cached in `cache`.
fn cached_legit<S: LocalState, L: Legitimacy<S>>(
    cache: &mut U64Map<bool>,
    spec: &L,
    ix: &SpaceIndexer<S>,
    full: u64,
) -> bool {
    *cache
        .entry(full)
        .or_insert_with(|| spec.is_legitimate(&ix.decode(full)))
}

/// Cached Definition 6 kernel rows over full-space indices; `work` counts
/// row generations so each lumped-fallback evolution can budget itself.
struct Kernel<'a, A: Algorithm, L> {
    alg: &'a A,
    ix: &'a SpaceIndexer<A::State>,
    daemon: DaemonSpec,
    spec: &'a L,
    conflicts: Vec<u64>,
    gen: RowGen,
    /// full index → (enabled mask, successor distribution aggregated by
    /// target).
    rows: U64Map<KernelRow>,
    /// full index → legitimacy (far cheaper than a row; successors only
    /// need this).
    legit: U64Map<bool>,
    /// Total row generations spent (read per-sample by
    /// [`Kernel::absorbed_series`] for its budget).
    work: usize,
}

impl<'a, A, L> Kernel<'a, A, L>
where
    A: Algorithm,
    L: Legitimacy<A::State>,
{
    /// An empty kernel of `alg` under `daemon`.
    fn new(alg: &'a A, ix: &'a SpaceIndexer<A::State>, daemon: DaemonSpec, spec: &'a L) -> Self {
        Kernel {
            alg,
            ix,
            daemon,
            spec,
            conflicts: conflict_masks(alg, daemon),
            gen: RowGen::default(),
            rows: U64Map::default(),
            legit: U64Map::default(),
            work: 0,
        }
    }

    /// The cached kernel row of `full` (distribution aggregated by
    /// target), counting one unit of work on a cache miss.
    fn row(&mut self, full: u64) -> Result<&KernelRow, CoreError> {
        if !self.rows.contains_key(&full) {
            self.work += 1;
            let cfg = self.ix.decode(full);
            let mut digits = Vec::new();
            self.ix.write_digits(full, &mut digits);
            let (alg, ix, daemon) = (self.alg, self.ix, self.daemon);
            let (mask, _) =
                self.gen
                    .generate(alg, ix, daemon, &self.conflicts, &cfg, &digits, full)?;
            // Movers are irrelevant to absorption dynamics: aggregate by
            // target (rows are already sorted by target first).
            let mut dist: Vec<(u64, f64)> = Vec::new();
            for e in &self.gen.row {
                match dist.last_mut() {
                    Some(last) if last.0 == e.to => last.1 += e.prob,
                    _ => dist.push((e.to, e.prob)),
                }
            }
            self.rows.insert(full, (mask, dist));
        }
        Ok(&self.rows[&full])
    }

    /// The absorbed-mass series `P(T_L <= k)` for `k = 0..`, evolved until
    /// [`LUMPED_MAX_STEPS`], the support cap, or this call's (per-sample)
    /// work budget truncates it — the first step is always completed, so
    /// every sample pair is compared at horizon `u_1` at least.
    fn absorbed_series(&mut self, start: u64) -> Result<Vec<f64>, CoreError> {
        let work_at_entry = self.work;
        let mut series = Vec::new();
        // The support in ascending full index: every kernel sums the
        // series in the same order.
        let mut dist: Vec<(u64, f64)> = Vec::new();
        let mut absorbed = 0.0f64;
        if cached_legit(&mut self.legit, self.spec, self.ix, start) {
            absorbed = 1.0;
        } else {
            dist.push((start, 1.0));
        }
        series.push(absorbed);
        let mut next: U64Map<f64> = U64Map::default();
        for step in 0..LUMPED_MAX_STEPS {
            let spent = self.work - work_at_entry;
            if dist.is_empty()
                || dist.len() > LUMPED_SUPPORT_CAP
                || (step > 0 && spent > LUMPED_WORK_BUDGET)
            {
                break;
            }
            next.clear();
            for &(state, p) in &dist {
                self.row(state)?;
                let (mask, row) = &self.rows[&state];
                if *mask == 0 {
                    // Terminal illegitimate configuration: mass stays put.
                    *next.entry(state).or_insert(0.0) += p;
                    continue;
                }
                for &(to, q) in row {
                    if cached_legit(&mut self.legit, self.spec, self.ix, to) {
                        absorbed += p * q;
                    } else {
                        *next.entry(to).or_insert(0.0) += p * q;
                    }
                }
            }
            dist.clear();
            dist.extend(next.drain());
            dist.sort_unstable_by_key(|&(full, _)| full);
            series.push(absorbed);
        }
        Ok(series)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ActionId, ActionMask, Outcomes, Predicate, View};
    use stab_graph::{builders, Graph, RingOrientation};

    /// Herman's ring: a token (`x = x_pred`) tosses a coin showing
    /// `true` with probability `heads`, every other process copies its
    /// predecessor.
    struct Herman {
        g: Graph,
        orient: RingOrientation,
        heads: f64,
    }

    impl Algorithm for Herman {
        type State = bool;
        fn graph(&self) -> &Graph {
            &self.g
        }
        fn name(&self) -> String {
            "herman".into()
        }
        fn state_space(&self, _v: NodeId) -> Vec<bool> {
            vec![false, true]
        }
        fn enabled_actions<V: View<bool>>(&self, _view: &V) -> ActionMask {
            ActionMask::single(ActionId::A1)
        }
        fn apply<V: View<bool>>(&self, view: &V, _a: ActionId) -> Outcomes<bool> {
            let pred = *view.neighbor(self.orient.pred_port(view.node()));
            if *view.me() == pred {
                Outcomes::biased_coin(self.heads, true, false)
            } else {
                Outcomes::certain(pred)
            }
        }
    }

    /// The lumped fallback's series are a function of the kernel, not of
    /// its hash seeds: two fresh kernels give bit-identical series on
    /// every reflection sample of Herman's ring of 13. A fair coin's
    /// masses are dyadic and sum exactly in any order; a biased one's
    /// are not.
    #[test]
    fn absorbed_series_is_deterministic_across_kernels() {
        for heads in [0.5, 0.3] {
            series_agree_across_kernels(heads);
        }
    }

    fn series_agree_across_kernels(heads: f64) {
        let g = builders::ring(13);
        let orient = RingOrientation::canonical(&g).unwrap();
        let alg = Herman { g, orient, heads };
        let orient = &alg.orient;
        let one_token = Predicate::new("one-token", |c: &Configuration<bool>| {
            let g = alg.graph();
            g.nodes()
                .filter(|&v| c.get(v) == c.get(orient.predecessor(g, v)))
                .count()
                == 1
        });
        let ix = SpaceIndexer::new(&alg, 1 << 20).unwrap();
        let daemon = DaemonSpec::synchronous();
        let canon = GroupCanonicalizer::ring_dihedral(alg.graph(), &ix).unwrap();
        let reflection = &canon.generators()[1];
        assert!(!locally_equivariant(&alg, reflection, |_, s| *s));
        let mut first = Kernel::new(&alg, &ix, daemon, &one_token);
        let mut second = Kernel::new(&alg, &ix, daemon, &one_token);
        for full in samples(ix.total(), LUMPED_SAMPLES) {
            for x in [full, canon.apply_perm(full, reflection)] {
                let a = first.absorbed_series(x).unwrap();
                let b = second.absorbed_series(x).unwrap();
                let bits = |s: &[f64]| s.iter().map(|p| p.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&a), bits(&b), "series of {x}, heads {heads}");
                assert!(a.len() > 1, "the series of {x} evolves");
            }
        }
    }
}
