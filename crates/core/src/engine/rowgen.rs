//! Per-configuration successor-row generation, shared by every exploration
//! mode (full mixed-radix sweep, rotation-quotient sweep, on-the-fly BFS).
//!
//! [`RowGen::generate`] evaluates each enabled process's guard and outcome
//! distribution **once** per configuration (outcome sharing), then expands
//! the daemon's activations into successor edges by delta-encoding —
//! `successor = id + Σ_{v moved} (digit'(v) − digit(v)) · weight(v)` — with
//! a Gray-code subset walk for deterministic systems. The emitted
//! [`RawEdge`]s address successors by their *full-space* mixed-radix index;
//! the caller maps those to dense ids (identity for the full sweep,
//! canonicalize-and-intern for the quotient and reachable modes).
//!
//! Rows come out sorted by `(to, movers)` without a merge. An activation's
//! product of outcomes is built in successor order: movers are taken in
//! ascending node order (ascending mixed-radix weight), each mover's
//! outcome deltas sorted by digit, and the new mover is the outer loop
//! over the branches built so far, which span less than its weight. So a
//! synchronous row — one activation, up to `2^k` successors on a coin
//! per process — is strictly ascending as built and skips the sort; the
//! other distributions' rows are narrow and are sorted once.

use stab_graph::NodeId;

use crate::algorithm::Algorithm;
use crate::config::Configuration;
use crate::scheduler::{DaemonSpec, Distribution, DISTRIBUTED_ENUM_CAP};
use crate::space::SpaceIndexer;
use crate::CoreError;

/// One successor edge in full-space coordinates, before id mapping.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(super) struct RawEdge {
    /// Mixed-radix index of the successor configuration.
    pub to: u64,
    /// Bitmask of activated processes.
    pub movers: u64,
    /// `P(activation) × P(outcome)` under the uniform randomized daemon.
    pub prob: f64,
}

/// Reusable per-thread scratch: nothing here is allocated per
/// configuration once the buffers have grown to their working sizes.
#[derive(Default)]
pub(super) struct RowGen {
    /// Enabled nodes of the current configuration, ascending.
    enabled_nodes: Vec<NodeId>,
    /// Per enabled node (same order), its span in `deltas`.
    delta_spans: Vec<(u32, u32)>,
    /// Flat `(id delta, probability)` outcome entries.
    deltas: Vec<(i64, f64)>,
    /// Activation masks over *global* node bits.
    activations: Vec<u64>,
    /// Successor accumulation (double-buffered product construction).
    branches: Vec<(i64, f64)>,
    branches_next: Vec<(i64, f64)>,
    /// The assembled row, sorted by `(to, movers)` (see the module docs).
    /// Distinct raw edges are distinct pairs by construction; only id
    /// *mapping* (quotienting) can introduce duplicates, which the mapping
    /// stage merges.
    pub row: Vec<RawEdge>,
}

impl RowGen {
    /// Fills `self.row` with the successor edges of the configuration
    /// `cfg` (mixed-radix index `id`, digits `digits`) under the lattice
    /// point `spec`, and returns `(enabled bitmask, deterministic here)`.
    ///
    /// `conflicts[v]` must be the bitmask of nodes within the spec's
    /// locality radius of `v` (all-zero for radius 0, the adjacency mask
    /// for radius 1 — see `explore::conflict_masks`); two activated
    /// processes "conflict" when one lies in the other's mask, which is
    /// exactly the pairwise-spread constraint of
    /// [`Distribution::KCentral`].
    ///
    /// # Errors
    ///
    /// [`CoreError::TooManyEnabled`] from subset-daemon enumeration past
    /// [`DISTRIBUTED_ENUM_CAP`] simultaneously enabled processes.
    #[allow(clippy::too_many_arguments)]
    pub fn generate<A>(
        &mut self,
        alg: &A,
        ix: &SpaceIndexer<A::State>,
        spec: DaemonSpec,
        conflicts: &[u64],
        cfg: &Configuration<A::State>,
        digits: &[u32],
        id: u64,
    ) -> Result<(u64, bool), CoreError>
    where
        A: Algorithm,
    {
        let id = id as i64;
        let total = ix.total();
        let mut deterministic = true;

        // One pass over the processes: guards, determinism audit, and the
        // delta-encoded outcome distribution of every enabled process. All
        // activations read the *pre* configuration, so one evaluation per
        // process serves every activation below.
        self.enabled_nodes.clear();
        self.delta_spans.clear();
        self.deltas.clear();
        let mut enabled_mask = 0u64;
        for v in alg.graph().nodes() {
            let view = alg.view(cfg, v);
            let mask = alg.enabled_actions(&view);
            if mask.len() > 1 {
                deterministic = false;
            }
            let Some(action) = mask.selected() else {
                continue;
            };
            enabled_mask |= 1u64 << v.index();
            self.enabled_nodes.push(v);
            let outcomes = alg.apply(&view, action);
            if !outcomes.is_certain() {
                deterministic = false;
            }
            let weight = ix.weight(v) as i64;
            let digit = digits[v.index()] as i64;
            let start = super::ids::id_u32(self.deltas.len(), "per-row delta spans fit u32");
            for (p, state) in outcomes.entries() {
                let delta = (ix.digit_of(v, state) as i64 - digit) * weight;
                self.deltas.push((delta, *p));
            }
            // Outcome states are distinct, so their deltas are too.
            self.deltas[start as usize..].sort_unstable_by_key(|&(delta, _)| delta);
            self.delta_spans.push((
                start,
                super::ids::id_u32(self.deltas.len(), "per-row delta spans fit u32"),
            ));
        }

        self.row.clear();
        let k = self.enabled_nodes.len();
        if k == 0 {
            return Ok((0, deterministic));
        }
        // Whether every enabled process is deterministic here (singleton
        // outcome): unlocks the O(1)-per-activation Gray-code subset walk.
        let all_certain = self.delta_spans.iter().all(|&(lo, hi)| hi - lo == 1);

        match spec.distribution {
            // k = 1: single-mover activations regardless of radius (a
            // singleton is trivially spread). Outcome states are pairwise
            // distinct, so successors need no merging.
            Distribution::KCentral { k: Some(1), .. } => {
                let act_prob = 1.0 / k as f64;
                for (i, &v) in self.enabled_nodes.iter().enumerate() {
                    let movers = 1u64 << v.index();
                    let (lo, hi) = self.delta_spans[i];
                    for &(delta, p) in &self.deltas[lo as usize..hi as usize] {
                        push_edge(&mut self.row, total, id + delta, movers, act_prob * p);
                    }
                }
            }
            Distribution::Synchronous => {
                let movers = enabled_mask;
                self.product_branches(id, movers);
                for bi in 0..self.branches.len() {
                    let (to, p) = self.branches[bi];
                    push_edge(&mut self.row, total, to, movers, p);
                }
                // One activation, built in successor order: no sort.
                debug_assert!(self.row.windows(2).all(|w| w[0].to < w[1].to));
                return Ok((enabled_mask, deterministic));
            }
            Distribution::KCentral { k: k_max, .. } => {
                if k > DISTRIBUTED_ENUM_CAP {
                    return Err(CoreError::TooManyEnabled {
                        enabled: k,
                        cap: DISTRIBUTED_ENUM_CAP,
                    });
                }
                if all_certain {
                    // Gray-code subset walk: toggling one process in or out
                    // updates the successor id, the mover mask, the subset
                    // size and the radius-conflict count in O(1) per subset.
                    let mut movers = 0u64;
                    let mut delta = 0i64;
                    let mut conflict_count = 0i64;
                    let mut size = 0u32;
                    for g in 1u64..(1u64 << k) {
                        let i = g.trailing_zeros() as usize;
                        let v = self.enabled_nodes[i];
                        let bit = 1u64 << v.index();
                        let d = self.deltas[self.delta_spans[i].0 as usize].0;
                        if movers & bit == 0 {
                            conflict_count += (conflicts[v.index()] & movers).count_ones() as i64;
                            movers |= bit;
                            delta += d;
                            size += 1;
                        } else {
                            movers &= !bit;
                            delta -= d;
                            size -= 1;
                            conflict_count -= (conflicts[v.index()] & movers).count_ones() as i64;
                        }
                        if conflict_count > 0 || k_max.is_some_and(|m| size > m) {
                            continue;
                        }
                        push_edge(&mut self.row, total, id + delta, movers, 1.0);
                    }
                    // The uniform activation probability is only known once
                    // the allowed subsets are counted.
                    let act_prob = 1.0 / self.row.len() as f64;
                    for e in &mut self.row {
                        e.prob = act_prob;
                    }
                } else {
                    enumerate_activations(
                        k_max,
                        &self.enabled_nodes,
                        conflicts,
                        &mut self.activations,
                    )?;
                    let act_prob = 1.0 / self.activations.len() as f64;
                    for ai in 0..self.activations.len() {
                        let movers = self.activations[ai];
                        self.product_branches(id, movers);
                        for bi in 0..self.branches.len() {
                            let (to, p) = self.branches[bi];
                            push_edge(&mut self.row, total, to, movers, act_prob * p);
                        }
                    }
                }
            }
        }
        self.row.sort_unstable_by_key(|e| (e.to, e.movers));
        Ok((enabled_mask, deterministic))
    }

    /// Computes the successor distribution of one activation into
    /// `self.branches`, strictly ascending by successor id: the product of
    /// the movers' outcome deltas (see the module docs), each probability
    /// multiplied in ascending node order.
    fn product_branches(&mut self, id: i64, movers: u64) {
        self.branches.clear();
        self.branches.push((id, 1.0));
        for (i, &v) in self.enabled_nodes.iter().enumerate() {
            if movers & (1u64 << v.index()) == 0 {
                continue;
            }
            let (lo, hi) = self.delta_spans[i];
            let outcomes = &self.deltas[lo as usize..hi as usize];
            if let [(delta, _)] = outcomes {
                // Certain outcome: shift every branch.
                for b in &mut self.branches {
                    b.0 += delta;
                }
                continue;
            }
            // The branches so far differ only in lower-weight digits, so
            // each block below is ascending and lies below the next.
            self.branches_next.clear();
            for &(delta, q) in outcomes {
                for &(base, p) in &self.branches {
                    // lint: arith-ok(delta-composed targets are range-checked by ids::delta_target at materialization)
                    self.branches_next.push((base + delta, p * q));
                }
            }
            std::mem::swap(&mut self.branches, &mut self.branches_next);
        }
    }
}

/// Appends one delta-encoded edge.
#[inline]
fn push_edge(row: &mut Vec<RawEdge>, total: u64, to: i64, movers: u64, prob: f64) {
    debug_assert!(to >= 0 && (to as u64) < total, "delta-encoded id in range");
    let _ = total;
    row.push(RawEdge {
        to: to as u64,
        movers,
        prob,
    });
}

/// Enumerates the subset-valued activations over `enabled` (at most
/// `k_max` members, pairwise conflict-free under the radius masks) as
/// global node bitmasks, into `out` (cleared first). Matches
/// [`DaemonSpec::activations`] up to representation. Single-mover and
/// synchronous distributions never reach here — `generate` routes them to
/// their dedicated paths.
fn enumerate_activations(
    k_max: Option<u32>,
    enabled: &[NodeId],
    conflicts: &[u64],
    out: &mut Vec<u64>,
) -> Result<(), CoreError> {
    out.clear();
    let k = enabled.len();
    if k == 0 {
        return Ok(());
    }
    if k > DISTRIBUTED_ENUM_CAP {
        return Err(CoreError::TooManyEnabled {
            enabled: k,
            cap: DISTRIBUTED_ENUM_CAP,
        });
    }
    'subset: for local in 1u64..(1u64 << k) {
        if k_max.is_some_and(|m| local.count_ones() > m) {
            continue;
        }
        let mut movers = 0u64;
        let mut rest = local;
        while rest != 0 {
            let i = rest.trailing_zeros() as usize;
            rest &= rest - 1;
            let v = enabled[i];
            if conflicts[v.index()] & movers != 0 {
                continue 'subset;
            }
            movers |= 1u64 << v.index();
        }
        // The incremental conflict test above only checks each new member
        // against *earlier* members, which is exactly the pairwise
        // constraint.
        out.push(movers);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::explore::conflict_masks;
    use crate::{ActionId, ActionMask, Outcomes, View};
    use proptest::prelude::*;
    use stab_graph::{builders, Graph};

    /// A random test algorithm: whether a process is
    /// enabled, and which distribution it draws from (certain, fair coin,
    /// biased coin p = 0.3, or three outcomes), is a hash of its node, its
    /// state and how many neighbours hold state 1. Outcome entries are
    /// listed out of digit order on purpose.
    struct Table {
        g: Graph,
        radix: Vec<u8>,
        seed: u64,
    }

    impl Table {
        fn hash<V: View<u8>>(&self, view: &V) -> u64 {
            let key = (view.node().index() as u64) << 16
                | u64::from(*view.me()) << 8
                | view.count_neighbors(|s| *s == 1) as u64;
            let mut h = (self.seed ^ key).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            h ^= h >> 29;
            h.wrapping_mul(0xBF58_476D_1CE4_E5B9)
        }
    }

    impl Algorithm for Table {
        type State = u8;
        fn graph(&self) -> &Graph {
            &self.g
        }
        fn name(&self) -> String {
            "table".into()
        }
        fn state_space(&self, v: NodeId) -> Vec<u8> {
            (0..self.radix[v.index()]).collect()
        }
        fn enabled_actions<V: View<u8>>(&self, view: &V) -> ActionMask {
            ActionMask::when(!self.hash(view).is_multiple_of(4), ActionId::A1)
        }
        fn apply<V: View<u8>>(&self, view: &V, _a: ActionId) -> Outcomes<u8> {
            let h = self.hash(view) >> 8;
            let r = self.radix[view.node().index()];
            let a = *view.me();
            let b = (a + 1 + u8::try_from(h % u64::from(r - 1)).unwrap()) % r;
            match (h >> 8) % 4 {
                0 => Outcomes::certain(b),
                1 => Outcomes::fair_coin(b, a),
                2 => Outcomes::biased_coin(0.3, b, a),
                _ if r >= 3 => {
                    let c = (0..r).find(|&c| c != a && c != b).unwrap();
                    Outcomes::weighted(vec![(0.2, c), (0.3, b), (0.5, a)])
                }
                _ => Outcomes::biased_coin(0.3, a, b),
            }
        }
        fn is_probabilistic(&self) -> bool {
            true
        }
    }

    fn table_strategy() -> impl Strategy<Value = Table> {
        (2usize..6, any::<bool>(), any::<u64>()).prop_flat_map(|(n, ring, seed)| {
            proptest::collection::vec(2u8..4, n).prop_map(move |radix| Table {
                g: if ring && n >= 3 {
                    builders::ring(n)
                } else {
                    builders::path(n)
                },
                radix,
                seed,
            })
        })
    }

    /// The distribution axis of the daemon lattice.
    const DISTRIBUTIONS: [Distribution; 6] = [
        Distribution::KCentral {
            k: Some(1),
            radius: 0,
        },
        Distribution::KCentral { k: None, radius: 0 },
        Distribution::KCentral { k: None, radius: 1 },
        Distribution::KCentral {
            k: Some(2),
            radius: 0,
        },
        Distribution::KCentral {
            k: Some(2),
            radius: 1,
        },
        Distribution::Synchronous,
    ];

    /// The row of `cfg` by full enumeration: every activation, times the
    /// product of its movers' outcomes (multiplied in ascending node
    /// order), then sorted by `(to, movers)` and merged.
    fn reference_row(
        alg: &Table,
        ix: &SpaceIndexer<u8>,
        spec: DaemonSpec,
        cfg: &Configuration<u8>,
    ) -> Vec<RawEdge> {
        let enabled: Vec<NodeId> = alg
            .graph()
            .nodes()
            .filter(|&v| alg.selected_action(cfg, v).is_some())
            .collect();
        let activations = spec.activations(alg.graph(), &enabled).unwrap();
        let act_prob = 1.0 / activations.len() as f64;
        let mut row = Vec::new();
        for act in &activations {
            let movers: u64 = act.nodes().iter().map(|v| 1u64 << v.index()).sum();
            let outcomes: Vec<Outcomes<u8>> = act
                .nodes()
                .iter()
                .map(|&v| alg.apply(&alg.view(cfg, v), ActionId::A1))
                .collect();
            let mut choice = vec![0usize; outcomes.len()];
            loop {
                let mut next = cfg.clone();
                let mut p = 1.0;
                for ((&v, o), &c) in act.nodes().iter().zip(&outcomes).zip(&choice) {
                    let (q, s) = o.entries()[c];
                    next.set(v, s);
                    p *= q;
                }
                row.push(RawEdge {
                    to: ix.encode(&next),
                    movers,
                    prob: act_prob * p,
                });
                let Some(i) =
                    (0..choice.len()).find(|&i| choice[i] + 1 < outcomes[i].entries().len())
                else {
                    break;
                };
                choice[i] += 1;
                choice[..i].fill(0);
            }
        }
        row.sort_by_key(|e| (e.to, e.movers));
        row.dedup_by(|later, kept| {
            let same = later.to == kept.to && later.movers == kept.movers;
            if same {
                kept.prob += later.prob;
            }
            same
        });
        row
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// `generate`'s row equals the full-enumeration reference bit for
        /// bit at every distribution, and a synchronous row is strictly
        /// ascending by successor as built (it is never sorted).
        #[test]
        fn rows_match_full_enumeration(alg in table_strategy()) {
            let ix = SpaceIndexer::new(&alg, 1 << 12).unwrap();
            let mut gen = RowGen::default();
            let mut digits = Vec::new();
            for distribution in DISTRIBUTIONS {
                let spec = DaemonSpec { distribution, ..DaemonSpec::central() };
                let conflicts = conflict_masks(&alg, spec);
                for full in 0..ix.total() {
                    let cfg = ix.decode(full);
                    ix.write_digits(full, &mut digits);
                    gen.generate(&alg, &ix, spec, &conflicts, &cfg, &digits, full).unwrap();
                    let expected = reference_row(&alg, &ix, spec, &cfg);
                    let bits = |row: &[RawEdge]| -> Vec<(u64, u64, u64)> {
                        row.iter().map(|e| (e.to, e.movers, e.prob.to_bits())).collect()
                    };
                    prop_assert_eq!(bits(&gen.row), bits(&expected), "{:?} at {}", distribution, full);
                    if distribution == Distribution::Synchronous {
                        prop_assert!(gen.row.windows(2).all(|w| w[0].to < w[1].to));
                    }
                }
            }
        }
    }
}
