//! Strongly connected components over configuration subgraphs, and the
//! fairness-filtered fair-cycle searches built on them.
//!
//! The components come from the engine's one Tarjan pass
//! ([`stab_core::engine::tarjan`]), fed the edge store's zero-alloc row
//! cursors ([`EdgeIter`](stab_core::engine::EdgeIter)) — one live cursor
//! per DFS frame — so it runs unchanged over the flat CSR, the compressed
//! byte-stream, and the disk-spilled chunk tiers (a disk-tier cursor pins
//! its chunk in the cache for the frame's lifetime); the `alive` masks
//! are bit-packed [`BitSet`]s, matching the engine's label sets.

use stab_core::engine::{tarjan, BitSet, Budget};
use stab_core::{CoreError, LocalState};

use crate::space::ExploredSpace;

/// Iterative Tarjan SCC over the subgraph induced by `alive`. Returns the
/// components (each a list of configuration ids); single nodes without a
/// self-loop are included as singleton components.
pub fn sccs<S: LocalState>(space: &ExploredSpace<S>, alive: &BitSet) -> Vec<Vec<u32>> {
    sccs_budgeted(space, alive, &Budget::unlimited()).expect("unlimited budget cannot be exhausted")
}

/// [`sccs`] under a cooperative [`Budget`]: probes the `verdicts` stage at
/// entry and every [`PROBE_STRIDE`](stab_core::engine::scc::PROBE_STRIDE)
/// discovered nodes — each probe carrying the store's resident-set bytes
/// (the disk tier's cache-pressure figure) — so an exhausted wall-clock,
/// byte, or state budget surfaces as [`CoreError::BudgetExhausted`]
/// instead of an unbounded walk.
///
/// # Errors
///
/// [`CoreError::BudgetExhausted`] when a probe trips; the partially built
/// component list is discarded.
pub fn sccs_budgeted<S: LocalState>(
    space: &ExploredSpace<S>,
    alive: &BitSet,
    budget: &Budget,
) -> Result<Vec<Vec<u32>>, CoreError> {
    let n = space.total();
    budget.probe("verdicts", space.resident_edge_bytes(), 0)?;
    debug_assert_eq!(alive.len(), n as usize);
    let mut out: Vec<Vec<u32>> = Vec::new();
    tarjan(
        n as usize,
        (0..n).filter(|&v| alive.get(v as usize)),
        |v| {
            let edges = space.edge_iter(v).map(|e| e.to);
            edges.filter(|&w| alive.get(w as usize))
        },
        |seen| budget.probe("verdicts", space.resident_edge_bytes(), u64::from(seen)),
        // Stack pop order, the DFS root last: `some_cycle` and the lasso
        // witnesses start from the first member with an internal edge.
        |comp| out.push(comp.iter().rev().copied().collect()),
    )?;
    Ok(out)
}

/// Whether a component contains at least one internal edge (including
/// self-loops) — i.e. supports an infinite execution.
pub fn has_internal_edge<S: LocalState>(
    space: &ExploredSpace<S>,
    comp: &[u32],
    alive: &BitSet,
) -> bool {
    let in_comp = membership(space.total(), comp);
    comp.iter().any(|&v| {
        space
            .edge_iter(v)
            .any(|e| alive.get(e.to as usize) && in_comp.get(e.to as usize))
    })
}

/// Membership mask of a component.
pub fn membership(total: u32, comp: &[u32]) -> BitSet {
    let mut mask = BitSet::new(total as usize);
    for &v in comp {
        mask.insert(v as usize);
    }
    mask
}

/// Extracts some cycle within a component (used for lasso display): walks
/// internal edges from `start` until a repeat.
pub fn some_cycle<S: LocalState>(
    space: &ExploredSpace<S>,
    comp: &[u32],
    alive: &BitSet,
) -> Vec<u32> {
    let in_comp = membership(space.total(), comp);
    let start = comp
        .iter()
        .copied()
        .find(|&v| {
            space
                .edge_iter(v)
                .any(|e| alive.get(e.to as usize) && in_comp.get(e.to as usize))
        })
        .expect("component has an internal edge");
    let mut seen_at = std::collections::HashMap::new();
    let mut path = vec![start];
    seen_at.insert(start, 0usize);
    let mut cur = start;
    loop {
        let next = space
            .edge_iter(cur)
            .find(|e| alive.get(e.to as usize) && in_comp.get(e.to as usize))
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

    #[test]
    fn central_toggle_has_one_nontrivial_scc() {
        // Under the central daemon: (F,F) <-> (T,F) and (F,F) <-> (F,T)
        // form one SCC; (T,T) is a terminal singleton.
        let space = toggle_space();
        let alive = BitSet::full(space.total() as usize);
        let comps = sccs(&space, &alive);
        assert_eq!(comps.len(), 2);
        let big = comps.iter().find(|c| c.len() == 3).expect("3-config SCC");
        assert!(has_internal_edge(&space, big, &alive));
        let single = comps.iter().find(|c| c.len() == 1).unwrap();
        assert!(!has_internal_edge(&space, single, &alive));
        let tt = space.id_of(&Configuration::from_vec(vec![true, true]));
        assert_eq!(single[0], tt);
    }

    #[test]
    fn filtering_splits_components() {
        let space = toggle_space();
        let mut alive = BitSet::full(space.total() as usize);
        // Remove (F,F): the remaining illegitimate configurations cannot
        // reach each other.
        let ff = space.id_of(&Configuration::from_vec(vec![false, false]));
        alive.remove(ff as usize);
        let comps = sccs(&space, &alive);
        assert_eq!(comps.len(), 3);
        assert!(comps.iter().all(|c| !has_internal_edge(&space, c, &alive)));
    }

    #[test]
    fn exhausted_budget_stops_tarjan_with_typed_error() {
        let space = toggle_space();
        let alive = BitSet::full(space.total() as usize);
        let budget = Budget::unlimited().with_wall_time(std::time::Duration::ZERO);
        assert!(matches!(
            sccs_budgeted(&space, &alive, &budget),
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
        let comps = sccs(&space, &alive);
        let big = comps.iter().find(|c| c.len() == 3).unwrap();
        let cycle = some_cycle(&space, big, &alive);
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
