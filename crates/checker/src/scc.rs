//! The SCC decomposition every verdict reads: the strongly connected
//! components of a configuration set, each with the facts the fairness
//! verdicts ask about.
//!
//! The components come from one walk of the engine's Tarjan pass
//! ([`stab_core::engine::tarjan`], kept as [`Components`]), fed the edge
//! store's zero-alloc row cursors ([`EdgeIter`](stab_core::engine::EdgeIter))
//! — one live cursor per DFS frame — so it runs unchanged over the flat
//! CSR, the compressed byte-stream, and the disk-spilled chunk tiers (a
//! disk-tier cursor pins its chunk in the cache for the frame's
//! lifetime). One more pass over the members' rows, in row order so a
//! spilled store is read front to back, records per component whether it
//! is recurrent or closed and which processes it enables and moves
//! ([`ComponentFacts`]); a `u32` component id per configuration answers
//! membership. Reach-to-`L` is read off the same
//! components sinks first ([`Decomposition::mark_reaching`]).

use std::collections::HashMap;

use stab_core::engine::{ids, BitSet, Budget, Components};
use stab_core::{CoreError, LocalState};

use crate::space::ExploredSpace;

/// Component id of a configuration outside the decomposed set.
const OUTSIDE: u32 = u32::MAX;

/// What one component's edges say about the executions it supports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ComponentFacts {
    /// Some member has an edge back into the component (a self-loop
    /// counts): the component supports an infinite execution.
    pub recurrent: bool,
    /// No member has an edge leaving the component.
    pub closed: bool,
    /// Processes enabled at every member.
    pub always_enabled: u64,
    /// Processes enabled at some member.
    pub sometimes_enabled: u64,
    /// Processes activated on some internal edge.
    pub moved: u64,
}

/// The strongly connected components of the subgraph a configuration set
/// induces, in Tarjan emission order (sinks first), with their facts.
/// Single configurations without a self-loop are singleton components.
#[derive(Debug)]
pub struct Decomposition {
    comps: Components,
    /// Component id per configuration id ([`OUTSIDE`] off the set).
    comp_of: Vec<u32>,
    facts: Vec<ComponentFacts>,
}

impl Decomposition {
    /// Decomposes the subgraph induced by `alive` with one Tarjan walk,
    /// then reads the members' rows once more, in row order, for the
    /// components' facts. The walk
    /// probes the `verdicts` stage at entry and every
    /// [`PROBE_STRIDE`](stab_core::engine::scc::PROBE_STRIDE) discovered
    /// nodes, each probe carrying the store's resident-set bytes (the
    /// disk tier's cache-pressure figure).
    ///
    /// # Errors
    ///
    /// [`CoreError::BudgetExhausted`] when a probe trips.
    pub fn of<S: LocalState>(
        space: &ExploredSpace<S>,
        alive: &BitSet,
        budget: &Budget,
    ) -> Result<Self, CoreError> {
        let n = space.total();
        debug_assert_eq!(alive.len(), n as usize);
        budget.probe("verdicts", space.resident_edge_bytes(), 0)?;
        let comps = Components::walk(
            n as usize,
            (0..n).filter(|&v| alive.get(v as usize)),
            |v| {
                let edges = space.edge_iter(v).map(|e| e.to);
                edges.filter(|&w| alive.get(w as usize))
            },
            |seen| budget.probe("verdicts", space.resident_edge_bytes(), u64::from(seen)),
            // Stack pop order, the DFS root last: `some_cycle` and the
            // lasso witnesses start from the first recurrent member.
            |comp| comp.reverse(),
        )?;
        let mut comp_of = vec![OUTSIDE; n as usize];
        for (c, members) in comps.iter().enumerate() {
            let c = ids::id_u32(c, "component ids fit the u32 id width");
            members.iter().for_each(|&v| comp_of[v as usize] = c);
        }
        // One sweep in row order (the stream order of the spilled tiers,
        // so the chunk cache is read front to back); the facts are
        // order-free folds.
        let mut facts = vec![
            ComponentFacts {
                recurrent: false,
                closed: true,
                always_enabled: u64::MAX,
                sometimes_enabled: 0,
                moved: 0,
            };
            comps.len()
        ];
        for v in (0..n).filter(|&v| alive.get(v as usize)) {
            let c = comp_of[v as usize];
            let f = &mut facts[c as usize];
            f.always_enabled &= space.enabled_mask(v);
            f.sometimes_enabled |= space.enabled_mask(v);
            for e in space.edge_iter(v) {
                if comp_of[e.to as usize] == c {
                    f.recurrent = true;
                    f.moved |= e.movers;
                } else {
                    f.closed = false;
                }
            }
        }
        Ok(Decomposition {
            comps,
            comp_of,
            facts,
        })
    }

    /// Number of components.
    pub fn len(&self) -> usize {
        self.comps.len()
    }

    /// Whether the decomposed set was empty.
    pub fn is_empty(&self) -> bool {
        self.comps.is_empty()
    }

    /// The members of component `c`, in Tarjan stack pop order.
    pub fn members(&self, c: usize) -> &[u32] {
        self.comps.get(c)
    }

    /// The facts of component `c`.
    pub fn facts(&self, c: usize) -> ComponentFacts {
        self.facts[c]
    }

    /// Whether configuration `id` belongs to component `c`.
    pub fn contains(&self, c: usize, id: u32) -> bool {
        self.comp_of[id as usize] as usize == c
    }

    /// Marks every decomposed configuration with some execution into
    /// `marked` (the targets on entry). Every edge leaving the
    /// decomposed set must end in a target — true of the reachable
    /// region outside `L`, whose edges stay reachable — so one sinks-first
    /// pass over the components decides them
    /// ([`Components::mark_reaching`]).
    pub fn mark_reaching<S: LocalState>(&self, space: &ExploredSpace<S>, marked: &mut BitSet) {
        let row = |v| space.edge_iter(v).map(|e| e.to);
        self.comps.mark_reaching(row, marked);
    }

    /// Some cycle inside the recurrent component `c` (for lasso display):
    /// from its first member with an internal edge, follows the first
    /// internal edge of each configuration until one repeats.
    ///
    /// # Panics
    ///
    /// Panics if `c` is not recurrent.
    pub fn some_cycle<S: LocalState>(&self, space: &ExploredSpace<S>, c: usize) -> Vec<u32> {
        let inside = |v: u32| self.contains(c, v);
        let start = self
            .members(c)
            .iter()
            .copied()
            .find(|&v| space.edge_iter(v).any(|e| inside(e.to)))
            .expect("a recurrent component has an internal edge");
        let mut seen_at = HashMap::new();
        let mut path = vec![start];
        seen_at.insert(start, 0usize);
        let mut cur = start;
        loop {
            let next = space
                .edge_iter(cur)
                .find(|e| inside(e.to))
                .expect("strongly connected component keeps internal edges")
                .to;
            if let Some(&i) = seen_at.get(&next) {
                return path[i..].to_vec();
            }
            seen_at.insert(next, path.len());
            path.push(next);
            cur = next;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stab_algorithms::TwoProcessToggle;
    use stab_core::{Configuration, DaemonSpec};

    fn toggle_space() -> ExploredSpace<bool> {
        let a = TwoProcessToggle::new();
        let spec = a.legitimacy();
        ExploredSpace::explore(&a, DaemonSpec::central(), &spec, 1 << 10).unwrap()
    }

    fn decompose(space: &ExploredSpace<bool>, alive: &BitSet) -> Decomposition {
        Decomposition::of(space, alive, &Budget::unlimited()).unwrap()
    }

    #[test]
    fn central_toggle_has_one_nontrivial_scc() {
        // Under the central daemon: (F,F) <-> (T,F) and (F,F) <-> (F,T)
        // form one SCC; (T,T) is a terminal singleton.
        let space = toggle_space();
        let alive = BitSet::full(space.total() as usize);
        let d = decompose(&space, &alive);
        assert_eq!(d.len(), 2);
        let big = (0..2)
            .find(|&c| d.members(c).len() == 3)
            .expect("3-config SCC");
        assert!(d.facts(big).recurrent);
        assert!(d.facts(big).closed, "no central step reaches (T,T)");
        let single = 1 - big;
        assert!(!d.facts(single).recurrent);
        assert!(d.facts(single).closed);
        let tt = space.id_of(&Configuration::from_vec(vec![true, true]));
        assert_eq!(d.members(single), [tt]);
        assert!(d.contains(single, tt));
        assert!(!d.contains(big, tt));
    }

    #[test]
    fn filtering_splits_components() {
        let space = toggle_space();
        let mut alive = BitSet::full(space.total() as usize);
        // Remove (F,F): the remaining illegitimate configurations cannot
        // reach each other.
        let ff = space.id_of(&Configuration::from_vec(vec![false, false]));
        alive.remove(ff as usize);
        let d = decompose(&space, &alive);
        assert_eq!(d.len(), 3);
        assert!((0..3).all(|c| !d.facts(c).recurrent));
        assert!((0..3).all(|c| !d.contains(c, ff)));
    }

    #[test]
    fn reach_is_marked_sinks_first() {
        // Only the synchronous step (F,F) -> (T,T) reaches L: the central
        // daemon's closed 3-config SCC stays unmarked, the distributed
        // daemon's is marked whole.
        let a = TwoProcessToggle::new();
        for (daemon, reaches) in [
            (DaemonSpec::central(), false),
            (DaemonSpec::distributed(), true),
        ] {
            let space = ExploredSpace::explore(&a, daemon, &a.legitimacy(), 1 << 10).unwrap();
            let legit = space.transition_system().legit();
            let d = decompose(&space, &BitSet::full(space.total() as usize).and_not(legit));
            let mut marked = legit.clone();
            d.mark_reaching(&space, &mut marked);
            assert_eq!(marked.is_full(), reaches, "{daemon}");
            assert_eq!(marked.count_ones(), if reaches { 4 } else { 1 }, "{daemon}");
        }
    }

    #[test]
    fn exhausted_budget_stops_tarjan_with_typed_error() {
        let space = toggle_space();
        let alive = BitSet::full(space.total() as usize);
        let budget = Budget::unlimited().with_wall_time(std::time::Duration::ZERO);
        assert!(matches!(
            Decomposition::of(&space, &alive, &budget),
            Err(CoreError::BudgetExhausted {
                stage: "verdicts",
                resource: "wall-time-ms",
                ..
            })
        ));
    }

    #[test]
    fn some_cycle_returns_a_loop() {
        let space = toggle_space();
        let alive = BitSet::full(space.total() as usize);
        let d = decompose(&space, &alive);
        let big = (0..d.len()).find(|&c| d.facts(c).recurrent).unwrap();
        let cycle = d.some_cycle(&space, big);
        assert!(cycle.len() >= 2);
        // The cycle's successive elements are connected by edges.
        for i in 0..cycle.len() {
            let from = cycle[i];
            let to = cycle[(i + 1) % cycle.len()];
            assert!(
                space.edges(from).unwrap().iter().any(|e| e.to == to),
                "cycle edge {from}->{to} missing"
            );
        }
    }
}
