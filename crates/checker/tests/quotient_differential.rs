//! Differential tests of the symmetry-quotient (rotation, dihedral, leaf
//! permutation) and reachable-only exploration modes against the full
//! sweep.
//!
//! For every group-respecting algorithm in the zoo, under every daemon,
//! the stabilization verdicts decided over the quotient (one
//! lexicographically-least representative per group orbit) must equal the
//! verdicts decided over the full space, the orbits must tile the space
//! exactly, and each representative's verdict-relevant labels must agree
//! with its whole orbit. Combinations the engine's equivariance gate must
//! *reject* — Dijkstra's rooted ring under any ring quotient, the
//! `m ≥ 3` oriented token ring under reflections, stars whose leaf
//! programs differ — are pinned as negative tests. Reachable-mode
//! exploration seeded with the entire space must reproduce the full
//! system edge for edge, and reachable-mode exploration from a strict
//! seed set must agree with the full space on what the seeds can reach.

use stab_algorithms::{DijkstraRing, GreedyColoring, HermanRing, TokenCirculation};
use stab_checker::analysis::{analyze_space, StabilizationReport};
use stab_checker::ExploredSpace;
use stab_core::engine::{ExploreOptions, Quotient};
use stab_core::{Algorithm, Configuration, DaemonSpec, Legitimacy, SpaceIndexer};
use stab_graph::builders;

const CAP: u64 = 1 << 22;

/// Asserts every property verdict (not the state counts, which legitimately
/// differ) coincides between the two reports.
fn assert_verdicts_equal(a: &StabilizationReport, b: &StabilizationReport, label: &str) {
    assert_eq!(a.deterministic, b.deterministic, "{label}: determinism");
    assert_eq!(a.closure.holds(), b.closure.holds(), "{label}: closure");
    assert_eq!(a.weak.holds(), b.weak.holds(), "{label}: weak");
    assert_eq!(
        a.self_unfair.holds(),
        b.self_unfair.holds(),
        "{label}: unfair"
    );
    assert_eq!(
        a.self_weakly_fair.holds(),
        b.self_weakly_fair.holds(),
        "{label}: weakly fair"
    );
    assert_eq!(
        a.self_strongly_fair.holds(),
        b.self_strongly_fair.holds(),
        "{label}: strongly fair"
    );
    assert_eq!(a.self_gouda.holds(), b.self_gouda.holds(), "{label}: Gouda");
    assert_eq!(
        a.probabilistic.holds(),
        b.probabilistic.holds(),
        "{label}: probabilistic"
    );
}

/// Full-vs-quotient differential for one algorithm under every daemon,
/// for any quotient group.
fn quotient_differential_with<A, L>(alg: &A, spec: &L, quotient: Quotient, group_order: u64)
where
    A: Algorithm + Sync,
    A::State: Sync,
    L: Legitimacy<A::State> + Sync,
{
    for daemon in DaemonSpec::LEGACY {
        let label = format!("{} under {daemon} ({quotient:?})", alg.name());
        let full = ExploredSpace::explore(alg, daemon, spec, CAP).expect("full explore");
        let opts = ExploreOptions::full().with_quotient(quotient);
        let quot =
            ExploredSpace::explore_with(alg, daemon, spec, CAP, &opts).expect("quotient explore");

        // Orbit bookkeeping: the orbits tile the space, shrink it by at
        // most the group order, and weigh the legitimate set consistently.
        assert_eq!(
            quot.transition_system().group_order(),
            group_order,
            "{label}: group order"
        );
        assert_eq!(
            quot.represented_configs(),
            full.total() as u64,
            "{label}: orbits tile the space"
        );
        assert!(quot.total() <= full.total());
        assert!(
            (quot.total() as u64) >= full.total() as u64 / group_order,
            "{label}: at most group-order-fold shrinkage"
        );
        let legit_weighted: u64 = (0..quot.total())
            .filter(|&id| quot.is_legit(id))
            .map(|id| quot.orbit_size(id))
            .sum();
        assert_eq!(
            legit_weighted,
            full.legit_count(),
            "{label}: legitimate orbit weights"
        );

        // Label coherence: every concrete configuration resolves to a
        // representative with the same legitimacy / enabled-count /
        // terminality profile (enabled *masks* rotate; their popcount and
        // the decided labels must not).
        for id in 0..full.total() {
            let cfg = full.config(id);
            let rep = quot.try_id_of(&cfg).expect("every orbit is explored");
            assert_eq!(
                full.is_legit(id),
                quot.is_legit(rep),
                "{label}: legitimacy of {cfg:?}"
            );
            assert_eq!(
                full.is_terminal(id),
                quot.is_terminal(rep),
                "{label}: terminality of {cfg:?}"
            );
            assert_eq!(
                full.enabled_mask(id).count_ones(),
                quot.enabled_mask(rep).count_ones(),
                "{label}: enabled count of {cfg:?}"
            );
        }

        // The quotient rows stay exactly stochastic after folding.
        for id in 0..quot.total() {
            if quot.is_terminal(id) {
                continue;
            }
            let mass: f64 = quot.edges(id).unwrap().iter().map(|e| e.prob).sum();
            assert!((mass - 1.0).abs() < 1e-9, "{label}: row {id} mass {mass}");
        }

        // Verdict agreement across every stabilization property.
        let full_report = analyze_space(&full, alg.name(), spec.name());
        let quot_report = analyze_space(&quot, alg.name(), spec.name());
        assert_verdicts_equal(&full_report, &quot_report, &label);
    }
}

/// The PR 2 rotation differential, unchanged in contract.
fn quotient_differential<A, L>(alg: &A, spec: &L)
where
    A: Algorithm + Sync,
    A::State: Sync,
    L: Legitimacy<A::State> + Sync,
{
    quotient_differential_with(alg, spec, Quotient::RingRotation, alg.n() as u64);
}

#[test]
fn token_circulation_quotient_matches_full() {
    for n in [3, 4, 5] {
        let alg = TokenCirculation::on_ring(&builders::ring(n)).unwrap();
        quotient_differential(&alg, &alg.legitimacy());
    }
}

#[test]
fn herman_quotient_matches_full() {
    for n in [3, 5] {
        let alg = HermanRing::on_ring(&builders::ring(n)).unwrap();
        quotient_differential(&alg, &alg.legitimacy());
    }
}

#[test]
fn ring_coloring_quotient_matches_full() {
    let g = builders::ring(4);
    let alg = GreedyColoring::new(&g).unwrap();
    quotient_differential(&alg, &alg.legitimacy());
}

#[test]
fn transformed_token_ring_quotient_matches_full() {
    // The §4 transformer preserves uniformity (every process gains the
    // same coin), so the transformed ring is still rotation-equivariant.
    use stab_core::{ProjectedLegitimacy, Transformed};
    let base = TokenCirculation::on_ring(&builders::ring(3)).unwrap();
    let alg = Transformed::new(TokenCirculation::on_ring(&builders::ring(3)).unwrap());
    let spec = ProjectedLegitimacy::new(base.legitimacy());
    quotient_differential(&alg, &spec);
}

// ---- Dihedral quotients -------------------------------------------------

/// Herman's ring under the dihedral group: single steps are *not*
/// reflection-equivariant (the protocol reads its predecessor), but its
/// absorption dynamics and verdicts are direction-blind, so the engine's
/// lumped gate admits it and every verdict must still match the full
/// space from ≈ half the rotation quotient's states.
#[test]
fn herman_dihedral_quotient_matches_full() {
    for n in [3usize, 5] {
        let alg = HermanRing::on_ring(&builders::ring(n)).unwrap();
        quotient_differential_with(
            &alg,
            &alg.legitimacy(),
            Quotient::RingDihedral,
            2 * n as u64,
        );
    }
}

/// The odd (`m_N = 2`) oriented token ring is Herman-shaped — token iff
/// equal to the predecessor — and its reflection-conjugate has identical
/// absorption dynamics, so the dihedral quotient is admitted and exact.
#[test]
fn odd_token_circulation_dihedral_quotient_matches_full() {
    for n in [3usize, 5] {
        let alg = TokenCirculation::on_ring(&builders::ring(n)).unwrap();
        quotient_differential_with(
            &alg,
            &alg.legitimacy(),
            Quotient::RingDihedral,
            2 * n as u64,
        );
    }
}

/// Greedy coloring reads its neighbourhood as a multiset, so it is
/// *strictly* reflection-equivariant — the strict tier of the gate admits
/// it without the lumped fallback.
#[test]
fn ring_coloring_dihedral_quotient_matches_full() {
    let g = builders::ring(4);
    let alg = GreedyColoring::new(&g).unwrap();
    quotient_differential_with(&alg, &alg.legitimacy(), Quotient::RingDihedral, 8);
}

/// On a ring, `Quotient::Automorphism` resolves to the dihedral group.
#[test]
fn automorphism_quotient_on_rings_is_dihedral() {
    let alg = HermanRing::on_ring(&builders::ring(5)).unwrap();
    let spec = alg.legitimacy();
    let dihedral = ExploredSpace::explore_with(
        &alg,
        DaemonSpec::synchronous(),
        &spec,
        CAP,
        &ExploreOptions::full().with_quotient(Quotient::RingDihedral),
    )
    .unwrap();
    let auto = ExploredSpace::explore_with(
        &alg,
        DaemonSpec::synchronous(),
        &spec,
        CAP,
        &ExploreOptions::full().with_quotient(Quotient::Automorphism),
    )
    .unwrap();
    assert_eq!(auto.total(), dihedral.total());
    assert_eq!(auto.transition_system().group_order(), 10);
    for id in 0..auto.total() {
        assert_eq!(auto.config(id), dihedral.config(id));
        assert_eq!(auto.edges(id).unwrap(), dihedral.edges(id).unwrap());
    }
}

// ---- Leaf-permutation quotients ----------------------------------------

/// Greedy coloring on stars and trees under the leaf-permutation
/// (automorphism) quotient: anonymous leaf programs are strictly
/// equivariant under sibling swaps, and all verdicts must match the full
/// space.
#[test]
fn coloring_leaf_quotient_matches_full_on_star_and_tree() {
    for (g, group_order) in [
        (builders::star(5), 24),       // 4! leaf orders
        (builders::binary_tree(7), 4), // two sibling pairs: 2! × 2!
        (builders::caterpillar(2, 2), 4),
    ] {
        let alg = GreedyColoring::new(&g).unwrap();
        quotient_differential_with(&alg, &alg.legitimacy(), Quotient::Automorphism, group_order);
    }
}

// ---- Negative tests: the gate must reject unsound quotients -------------

/// Dijkstra's rooted ring breaks anonymity: the root's privilege rule
/// makes neither the spec nor the dynamics rotation- or
/// reflection-invariant. Both ring quotients must be rejected *on the
/// very topology the anonymous protocols are accepted on*.
#[test]
fn dijkstra_rejected_for_rotation_and_reflection_quotients() {
    let alg = DijkstraRing::on_ring(&builders::ring(4)).unwrap();
    let spec = alg.legitimacy();
    for quotient in [
        Quotient::RingRotation,
        Quotient::RingDihedral,
        Quotient::Automorphism,
    ] {
        for daemon in [DaemonSpec::central(), DaemonSpec::distributed()] {
            let opts = ExploreOptions::full().with_quotient(quotient);
            let err = ExploredSpace::explore_with(&alg, daemon, &spec, CAP, &opts).unwrap_err();
            assert!(
                matches!(err, stab_core::CoreError::QuotientUnsupported { .. }),
                "dijkstra {quotient:?} under {daemon}: {err}"
            );
        }
    }
}

/// The oriented token ring with `m_N ≥ 3` (even `N`) counts tokens
/// direction-sensitively: reflecting a configuration changes its token
/// count, so the spec-invariance tier rejects the dihedral quotient —
/// while the *rotation* quotient of the same instance stays accepted.
#[test]
fn oriented_token_ring_rejected_for_reflection_quotients() {
    for n in [4usize, 6] {
        let alg = TokenCirculation::on_ring(&builders::ring(n)).unwrap();
        let spec = alg.legitimacy();
        let opts = ExploreOptions::full().with_quotient(Quotient::RingDihedral);
        let err = ExploredSpace::explore_with(&alg, DaemonSpec::central(), &spec, CAP, &opts)
            .unwrap_err();
        assert!(
            matches!(err, stab_core::CoreError::QuotientUnsupported { .. }),
            "token ring N={n} reflection: {err}"
        );
        // Rotations remain sound for the same instance.
        let rot = ExploreOptions::full().with_quotient(Quotient::RingRotation);
        assert!(ExploredSpace::explore_with(&alg, DaemonSpec::central(), &spec, CAP, &rot).is_ok());
    }
}

/// A star whose leaf programs differ (leaves branch on their node id) is
/// not leaf-permutation-equivariant even though all leaf alphabets agree;
/// the behavioural gate must reject it.
#[test]
fn differing_leaf_programs_rejected_for_leaf_quotients() {
    use stab_core::{ActionId, ActionMask, Outcomes, Predicate, View};
    use stab_graph::{Graph, NodeId};

    /// Even-indexed leaves raise their bit; odd-indexed leaves are inert;
    /// the hub is inert.
    struct LopsidedLeaves {
        g: Graph,
    }
    impl Algorithm for LopsidedLeaves {
        type State = bool;
        fn graph(&self) -> &Graph {
            &self.g
        }
        fn name(&self) -> String {
            "lopsided-leaves".into()
        }
        fn state_space(&self, _v: NodeId) -> Vec<bool> {
            vec![false, true]
        }
        fn enabled_actions<V: View<bool>>(&self, v: &V) -> ActionMask {
            let node = v.node().index();
            ActionMask::when(node > 0 && node % 2 == 0 && !*v.me(), ActionId::A1)
        }
        fn apply<V: View<bool>>(&self, _v: &V, _a: ActionId) -> Outcomes<bool> {
            Outcomes::certain(true)
        }
    }

    let alg = LopsidedLeaves {
        g: builders::star(5),
    };
    // The spec is permutation-invariant; only the dynamics betray the
    // asymmetry, so rejection must come from the behavioural tiers.
    let spec = Predicate::new("all-leaves-up", |c: &Configuration<bool>| {
        c.states()[1..].iter().all(|&b| b)
    });
    let opts = ExploreOptions::full().with_quotient(Quotient::Automorphism);
    let err =
        ExploredSpace::explore_with(&alg, DaemonSpec::central(), &spec, CAP, &opts).unwrap_err();
    assert!(
        matches!(err, stab_core::CoreError::QuotientUnsupported { .. }),
        "{err}"
    );
    assert!(
        err.to_string().contains("does not respect"),
        "rejection is behavioural, not structural: {err}"
    );
}

#[test]
fn quotient_rejects_non_ring_topologies() {
    let g = builders::path(4);
    let alg = GreedyColoring::new(&g).unwrap();
    let spec = alg.legitimacy();
    let opts = ExploreOptions::full().with_ring_quotient();
    let err =
        ExploredSpace::explore_with(&alg, DaemonSpec::central(), &spec, CAP, &opts).unwrap_err();
    assert!(matches!(
        err,
        stab_core::CoreError::QuotientUnsupported { .. }
    ));
}

/// Reachable mode seeded with the whole space reproduces the full system
/// edge for edge (ids coincide because seeds are interned in index order),
/// and the stabilization report coincides verdict for verdict.
#[test]
fn reachable_with_all_seeds_equals_full() {
    let alg = TokenCirculation::on_ring(&builders::ring(4)).unwrap();
    let spec = alg.legitimacy();
    let ix = SpaceIndexer::new(&alg, CAP).unwrap();
    for daemon in DaemonSpec::LEGACY {
        let label = format!("token ring under {daemon}");
        let full = ExploredSpace::explore(&alg, daemon, &spec, CAP).unwrap();
        let seeds: Vec<Configuration<u8>> = ix.iter().collect();
        let opts = ExploreOptions::reachable(seeds);
        let reach = ExploredSpace::explore_with(&alg, daemon, &spec, CAP, &opts).unwrap();
        assert_eq!(reach.total(), full.total(), "{label}");
        for id in 0..full.total() {
            assert_eq!(reach.config(id), full.config(id), "{label}: config {id}");
            assert_eq!(
                reach.edges(id).unwrap(),
                full.edges(id).unwrap(),
                "{label}: row {id}"
            );
            assert_eq!(
                reach.enabled_mask(id),
                full.enabled_mask(id),
                "{label}: mask {id}"
            );
        }
        let full_report = analyze_space(&full, alg.name(), spec.name());
        let reach_report = analyze_space(&reach, alg.name(), spec.name());
        assert_verdicts_equal(&full_report, &reach_report, &label);
    }
}

/// Reachable mode from a strict seed set agrees with the full space about
/// what those seeds can reach, and decides `weak` relative to the
/// designated initial set.
#[test]
fn reachable_from_strict_seeds_matches_full_reachability() {
    let alg = TokenCirculation::on_ring(&builders::ring(5)).unwrap();
    let spec = alg.legitimacy();
    let seed = Configuration::from_vec(vec![1u8, 0, 1, 0, 1]);
    let opts = ExploreOptions::reachable(vec![seed.clone()]);
    let reach =
        ExploredSpace::explore_with(&alg, DaemonSpec::distributed(), &spec, CAP, &opts).unwrap();
    let full = ExploredSpace::explore(&alg, DaemonSpec::distributed(), &spec, CAP).unwrap();

    // The explored set is exactly the full-space forward closure of the
    // seed.
    let mut seed_set = stab_core::engine::BitSet::new(full.total() as usize);
    seed_set.insert(full.id_of(&seed) as usize);
    let closure = full.transition_system().forward_closure(&seed_set);
    assert_eq!(reach.total() as u64, closure.count_ones());
    for id in 0..reach.total() {
        let cfg = reach.config(id);
        assert!(
            closure.get(full.id_of(&cfg) as usize),
            "{cfg:?} not actually reachable"
        );
    }
    // Algorithm 1 is weak-stabilizing: from the seed, L stays reachable,
    // and the reachable-mode analysis agrees.
    let report = analyze_space(&reach, alg.name(), spec.name());
    assert!(report.closure.holds());
    assert!(report.weak.holds());
    assert!(report.probabilistic.holds());
}

// ---- Fold order ---------------------------------------------------------

/// Quotient folding sums the probabilities of the raw successors that
/// land on one `(orbit id, movers)` pair. With a biased coin and the
/// distributed daemon those sums have three or more unequal terms, so
/// their bits depend on the order they are added in. A fixed rotation
/// sweep resolves targets through its orbit table; a killed run resumed
/// from its checkpoint skips pass 1 and resolves the rest of its rows
/// through the per-row memo. Both sum each pair in raw successor order,
/// so the two systems are bit-identical, on every edge-store tier.
///
/// ring(5) has 208 representatives, fewer than one 2048-row batch, so
/// its first frame is the whole sweep and its resumed run only replays
/// frames; ring(7) has 2344, so its resumed run explores the last 296
/// rows through the memo. The pinned digests are the systems this
/// order gives.
#[test]
fn orbit_table_and_resumed_sweeps_fold_alike() {
    use stab_core::engine::{Budget, EdgeStoreKind, FaultPlan, RunGuard, TransitionSystem};
    use stab_core::{CoreError, ProjectedLegitimacy, Transformed};

    let daemon = DaemonSpec::distributed();
    for (n, reps, want) in [
        (5, 208, 0xe06c_de7d_fd3a_a9a7_u64),
        (7, 2344, 0xfbbb_0ca1_3de9_0371),
    ] {
        let base = TokenCirculation::on_ring(&builders::ring(n)).unwrap();
        let spec = ProjectedLegitimacy::new(base.legitimacy());
        let alg = Transformed::with_bias(base, 0.3);
        let ix = SpaceIndexer::new(&alg, CAP).unwrap();
        for kind in [
            EdgeStoreKind::Flat,
            EdgeStoreKind::Compressed,
            EdgeStoreKind::Disk,
        ] {
            let label = format!("ring({n}) on {kind:?}");
            let opts = ExploreOptions::full()
                .with_quotient(Quotient::RingRotation)
                .with_edge_store(kind);
            let table = TransitionSystem::explore_with(&alg, &ix, daemon, &spec, &opts).unwrap();
            assert_eq!(table.n_configs(), reps, "{label}");
            assert_eq!(table.content_digest(), want, "{label}: orbit-table sweep");

            let dir = std::env::temp_dir().join(format!(
                "stab-fold-order-{}-{n}-{kind:?}",
                std::process::id()
            ));
            let _ = std::fs::remove_dir_all(&dir);
            let ck = opts.with_checkpoint(&dir, 1);
            let guard = RunGuard::new(
                Budget::unlimited(),
                FaultPlan::none().with_kill_after_frames(1),
            );
            let killed = TransitionSystem::explore_guarded(&alg, &ix, daemon, &spec, &ck, &guard);
            assert!(
                matches!(killed, Err(CoreError::Interrupted { after_frames: 1 })),
                "{label}: the first run dies after its first frame"
            );
            let resumed = TransitionSystem::explore_with(&alg, &ix, daemon, &spec, &ck).unwrap();
            assert_eq!(resumed.content_digest(), want, "{label}: resumed sweep");
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }
}
