//! Property tests of the sinks-first reachability rule
//! (`stab_core::engine::scc::Components::mark_reaching`): on random
//! digraphs, marking the components of the non-target nodes in
//! emission order finds exactly the nodes a naive backward BFS from the
//! targets finds.
//!
//! The digraphs are drawn to cover self-loops (a self-looping node must
//! not count as reaching anything by itself), singleton sinks (nodes with
//! no successor) and multi-block chains (a chain of cycles feeding one
//! another, so a mark has to travel through several components).

use std::collections::VecDeque;

use proptest::collection::vec;
use proptest::prelude::*;

use stab_core::engine::scc::Components;
use stab_core::engine::BitSet;

/// A digraph on `n` nodes as successor lists, plus a target set.
#[derive(Debug, Clone)]
struct Case {
    succ: Vec<Vec<u32>>,
    targets: Vec<bool>,
}

/// The marks computed the way the checker's verdict stage computes
/// them: Tarjan over the non-target nodes (edges into targets dropped),
/// then one sinks-first pass over the unfiltered rows.
fn sinks_first(case: &Case) -> BitSet {
    let n = case.succ.len();
    let alive = |v: u32| !case.targets[v as usize];
    let comps = Components::walk(
        n,
        (0..n as u32).filter(|&v| alive(v)),
        |v| {
            let row = case.succ[v as usize].iter().copied();
            row.filter(move |&w| alive(w))
        },
        |_| Ok::<(), ()>(()),
        |_| {},
    )
    .unwrap();
    let mut marked = BitSet::new(n);
    for (v, _) in case.targets.iter().enumerate().filter(|(_, &t)| t) {
        marked.insert(v);
    }
    comps.mark_reaching(|v| case.succ[v as usize].iter().copied(), &mut marked);
    marked
}

/// Test-local reference: backward BFS from the targets over the
/// explicitly reversed graph.
fn naive(case: &Case) -> BitSet {
    let n = case.succ.len();
    let mut pred: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (v, row) in case.succ.iter().enumerate() {
        for &w in row {
            pred[w as usize].push(v);
        }
    }
    let mut seen = BitSet::new(n);
    let mut queue: VecDeque<usize> = (0..n).filter(|&v| case.targets[v]).collect();
    queue.iter().for_each(|&v| seen.insert(v));
    while let Some(w) = queue.pop_front() {
        for &v in &pred[w] {
            if !seen.get(v) {
                seen.insert(v);
                queue.push_back(v);
            }
        }
    }
    seen
}

/// Arbitrary sparse digraphs: up to 40 nodes, 0–3 successors each
/// (self-loops and nodes without successors included), about one node
/// in six a target.
fn random_case() -> impl Strategy<Value = Case> {
    (1usize..40).prop_flat_map(|n| {
        let bound = n as u32;
        (vec(vec(0..bound, 0..4), n..n + 1), vec(0u32..6, n..n + 1)).prop_map(|(succ, t)| Case {
            succ,
            targets: t.into_iter().map(|x| x == 0).collect(),
        })
    })
}

/// Chains of blocks: `k` cycles of length `len`, cycle `b` feeding cycle
/// `b - 1` from its first node, optional self-loops, and the target (if
/// any) hung off one cycle, so exactly the cycles at or above it reach
/// it.
fn chain_case() -> impl Strategy<Value = Case> {
    (1usize..8, 1usize..5, 0usize..9, any::<bool>()).prop_map(|(k, len, hook, loops)| {
        let n = k * len + 1;
        let target = n - 1;
        let mut succ: Vec<Vec<u32>> = vec![Vec::new(); n];
        for b in 0..k {
            for i in 0..len {
                let v = b * len + i;
                succ[v].push((b * len + (i + 1) % len) as u32);
                if loops {
                    succ[v].push(v as u32);
                }
            }
            if b > 0 {
                succ[b * len].push(((b - 1) * len) as u32);
            }
        }
        // `hook >= k` leaves the target unreachable: every block fails.
        if hook < k {
            succ[hook * len].push(target as u32);
        }
        let mut targets = vec![false; n];
        targets[target] = true;
        Case { succ, targets }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn random_digraphs_match_backward_bfs(case in random_case()) {
        prop_assert_eq!(sinks_first(&case), naive(&case));
    }

    #[test]
    fn block_chains_match_backward_bfs(case in chain_case()) {
        prop_assert_eq!(sinks_first(&case), naive(&case));
    }
}

/// The three shapes named above, pinned by hand.
#[test]
fn self_loops_sinks_and_chains() {
    let case = Case {
        // 0 ↺ (self-loop only); 1 → 2 (a singleton sink, no target);
        // 3 ↔ 4 → 5 ↔ 6 → 7 (target): a two-block chain.
        succ: vec![
            vec![0],
            vec![2],
            vec![],
            vec![4],
            vec![3, 5],
            vec![6],
            vec![5, 7],
            vec![],
        ],
        targets: vec![false, false, false, false, false, false, false, true],
    };
    let marked = sinks_first(&case);
    assert_eq!(marked, naive(&case));
    assert_eq!(marked.ones().collect::<Vec<_>>(), vec![3, 4, 5, 6, 7]);
}
