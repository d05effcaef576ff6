//! Property-based tests of the algorithm zoo, including the paper's
//! numbered lemmas on randomly sampled instances far beyond the exhaustive
//! sizes.

use proptest::prelude::*;
use rand::SeedableRng;

use stab_algorithms::{
    CenterFinding, DijkstraRing, GreedyColoring, HermanRing, ParentLeader, TokenCirculation,
};
use stab_core::{semantics, Activation, Algorithm, Configuration, DaemonSpec, Legitimacy};
use stab_graph::{builders, metrics, trees, NodeId, PortId};

/// Random ring size and a random configuration over `[0, m_N)`.
fn ring_cfg_strategy() -> impl Strategy<Value = (usize, Vec<u8>)> {
    (3usize..20).prop_flat_map(|n| {
        let m = stab_graph::ring::smallest_non_divisor(n as u64) as u8;
        (Just(n), proptest::collection::vec(0..m, n))
    })
}

/// A random labelled tree (Prüfer) with a random parent-pointer state.
fn tree_par_strategy() -> impl Strategy<Value = (stab_graph::Graph, Vec<Option<usize>>)> {
    (3usize..12)
        .prop_flat_map(|n| proptest::collection::vec(0..n, n - 2))
        .prop_flat_map(|seq| {
            let g = trees::tree_from_pruefer(&seq);
            let degs: Vec<usize> = g.nodes().map(|v| g.degree(v)).collect();
            let fields: Vec<_> = degs
                .into_iter()
                .map(|d| proptest::option::of(0..d))
                .collect();
            (Just(g), fields)
        })
}

/// Like [`tree_par_strategy`] but every pointer is set (leaderless
/// configurations, the premise of Lemma 7).
fn tree_leaderless_strategy() -> impl Strategy<Value = (stab_graph::Graph, Vec<usize>)> {
    (3usize..12)
        .prop_flat_map(|n| proptest::collection::vec(0..n, n - 2))
        .prop_flat_map(|seq| {
            let g = trees::tree_from_pruefer(&seq);
            let degs: Vec<usize> = g.nodes().map(|v| g.degree(v)).collect();
            let fields: Vec<_> = degs.into_iter().map(|d| 0..d).collect();
            (Just(g), fields)
        })
}

proptest! {
    /// Lemma 4 on random rings up to N=19: `m_N ∤ N` forces a token.
    #[test]
    fn lemma4_random_rings((n, states) in ring_cfg_strategy()) {
        let alg = TokenCirculation::on_ring(&builders::ring(n)).unwrap();
        let cfg = Configuration::from_vec(states);
        prop_assert!(!alg.token_holders(&cfg).is_empty());
    }

    /// Token count never increases under any sampled distributed
    /// activation.
    #[test]
    fn token_count_monotone((n, states) in ring_cfg_strategy(), seed in 0u64..500) {
        let alg = TokenCirculation::on_ring(&builders::ring(n)).unwrap();
        let cfg = Configuration::from_vec(states);
        let enabled = alg.enabled_nodes(&cfg);
        prop_assume!(!enabled.is_empty());
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let act = DaemonSpec::distributed().sample(alg.graph(), &enabled, &mut rng);
        let next = semantics::deterministic_successor(&alg, &cfg, &act);
        prop_assert!(alg.token_holders(&next).len() <= alg.token_holders(&cfg).len());
    }

    /// Lemma 7 of the paper, sampled: in any configuration of Algorithm 2
    /// where no process is a leader, some process has A1 enabled.
    #[test]
    fn lemma7_leaderless_configs_enable_a1((g, pars) in tree_leaderless_strategy()) {
        let alg = ParentLeader::on_tree(&g).unwrap();
        let cfg: Configuration<Option<PortId>> =
            Configuration::from_vec(pars.iter().map(|&p| Some(PortId::new(p))).collect());
        let a1_somewhere = g.nodes().any(|v| {
            alg.selected_action(&cfg, v) == Some(stab_core::ActionId::A1)
        });
        prop_assert!(a1_somewhere, "Lemma 7 violated on {:?} at {:?}", g, cfg);
    }

    /// Lemma 10 (terminal ⟺ LC) on random trees and configurations.
    #[test]
    fn lemma10_random_trees((g, pars) in tree_par_strategy()) {
        let alg = ParentLeader::on_tree(&g).unwrap();
        let cfg: Configuration<Option<PortId>> =
            Configuration::from_vec(pars.iter().map(|p| p.map(PortId::new)).collect());
        prop_assert_eq!(alg.is_terminal(&cfg), alg.legitimacy().is_legitimate(&cfg));
    }

    /// Center finding: the synchronous fixpoint marks exactly the BFS
    /// centers on random trees up to 24 nodes (exhaustively proven ≤ 8).
    #[test]
    fn center_fixpoint_random_trees(seq in (3usize..25).prop_flat_map(|n| proptest::collection::vec(0..n, n - 2))) {
        let g = trees::tree_from_pruefer(&seq);
        let alg = CenterFinding::on_tree(&g).unwrap();
        let fix = alg.fixpoint();
        prop_assert!(alg.is_terminal(&fix));
        prop_assert_eq!(alg.centers(&fix), metrics::tree_centers(&g));
    }

    /// At the fixpoint, equal-h adjacent pairs are exactly the two-center
    /// pairs (the structural basis of the tie-break).
    #[test]
    fn equal_h_pairs_random_trees(seq in (3usize..25).prop_flat_map(|n| proptest::collection::vec(0..n, n - 2))) {
        let g = trees::tree_from_pruefer(&seq);
        let alg = CenterFinding::on_tree(&g).unwrap();
        let fix = alg.fixpoint();
        let centers = metrics::tree_centers(&g);
        for (u, v) in g.edges() {
            let equal = fix.get(u) == fix.get(v);
            let both = centers.contains(&u) && centers.contains(&v);
            prop_assert_eq!(equal, both);
        }
    }

    /// Herman: the token count is odd in every configuration of every odd
    /// ring.
    #[test]
    fn herman_token_parity(n_half in 1usize..10, bits in proptest::collection::vec(any::<bool>(), 3..21)) {
        let n = 2 * n_half + 1;
        prop_assume!(bits.len() >= n);
        let alg = HermanRing::on_ring(&builders::ring(n)).unwrap();
        let cfg = Configuration::from_vec(bits[..n].to_vec());
        prop_assert_eq!(alg.token_holders(&cfg).len() % 2, 1);
    }

    /// Dijkstra: at least one privilege in every configuration (no
    /// deadlock), for random K ≥ N.
    #[test]
    fn dijkstra_no_deadlock(n in 3usize..12, extra in 0u8..4, states in proptest::collection::vec(0u8..16, 3..12)) {
        prop_assume!(states.len() >= n);
        let k = n as u8 + extra;
        let alg = DijkstraRing::with_k(&builders::ring(n), k).unwrap();
        let cfg = Configuration::from_vec(states[..n].iter().map(|s| s % k).collect());
        prop_assert!(!alg.privileged(&cfg).is_empty());
    }

    /// Coloring: every single move strictly decreases the conflict count
    /// on random rings.
    #[test]
    fn coloring_moves_decrease_conflicts(n in 3usize..12, colors in proptest::collection::vec(0u8..3, 3..12), seed in 0u64..100) {
        prop_assume!(colors.len() >= n);
        let g = builders::ring(n);
        let alg = GreedyColoring::new(&g).unwrap();
        let cfg = Configuration::from_vec(colors[..n].to_vec());
        let enabled = alg.enabled_nodes(&cfg);
        prop_assume!(!enabled.is_empty());
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let v = enabled[(seed as usize) % enabled.len()];
        let _ = &mut rng;
        let next = semantics::deterministic_successor(&alg, &cfg, &Activation::singleton(v));
        prop_assert!(alg.conflict_edges(&next) < alg.conflict_edges(&cfg));
    }

    /// Algorithm 1's legitimate constructor puts the token exactly where
    /// asked, on random rings and positions.
    #[test]
    fn legitimate_config_places_token(n in 3usize..30, pos in 0usize..30) {
        let alg = TokenCirculation::on_ring(&builders::ring(n)).unwrap();
        let holder = NodeId::new(pos % n);
        let cfg = alg.legitimate_config(holder);
        prop_assert_eq!(alg.token_holders(&cfg), vec![holder]);
        prop_assert!(alg.legitimacy().is_legitimate(&cfg));
    }

    /// Root computation never leaves the tree and is idempotent on the
    /// returned process when it is a leader.
    #[test]
    fn root_stays_in_graph((g, pars) in tree_par_strategy()) {
        let alg = ParentLeader::on_tree(&g).unwrap();
        let cfg: Configuration<Option<PortId>> =
            Configuration::from_vec(pars.iter().map(|p| p.map(PortId::new)).collect());
        for v in g.nodes() {
            let r = alg.root(&cfg, v);
            prop_assert!(r.index() < g.n());
            if cfg.get(r).is_none() {
                prop_assert_eq!(alg.root(&cfg, r), r, "⊥-roots are fixed points");
            }
        }
    }
}
