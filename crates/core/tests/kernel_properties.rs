//! Property-based tests of the guarded-command kernel.

use proptest::prelude::*;
use rand::SeedableRng;

use stab_core::{
    semantics, ActionId, ActionMask, Activation, Algorithm, Configuration, DaemonSpec, Outcomes,
    SpaceIndexer, Transformed, View,
};
use stab_graph::{builders, Graph, NodeId};

// ---------------------------------------------------------------------
// A configurable probabilistic test algorithm: every process is enabled
// whenever its value is below its cap and moves to a uniform value.
// ---------------------------------------------------------------------
#[derive(Debug, Clone)]
struct Dice {
    g: Graph,
    caps: Vec<u8>,
}

impl Algorithm for Dice {
    type State = u8;

    fn graph(&self) -> &Graph {
        &self.g
    }

    fn name(&self) -> String {
        "dice".into()
    }

    fn state_space(&self, node: NodeId) -> Vec<u8> {
        (0..=self.caps[node.index()]).collect()
    }

    fn enabled_actions<V: View<u8>>(&self, v: &V) -> ActionMask {
        ActionMask::when(*v.me() < self.caps[v.node().index()], ActionId::A1)
    }

    fn apply<V: View<u8>>(&self, v: &V, _a: ActionId) -> Outcomes<u8> {
        Outcomes::uniform((0..=self.caps[v.node().index()]).collect())
    }

    fn is_probabilistic(&self) -> bool {
        true
    }
}

fn dice_strategy() -> impl Strategy<Value = Dice> {
    (2usize..6).prop_flat_map(|n| {
        proptest::collection::vec(1u8..4, n).prop_map(move |caps| Dice {
            g: builders::path(caps.len()),
            caps,
        })
    })
}

proptest! {
    /// Weighted outcome distributions always carry total mass 1 and merge
    /// duplicate states.
    #[test]
    fn outcomes_mass_is_one(weights in proptest::collection::vec(1u32..100, 1..8)) {
        let total: u32 = weights.iter().sum();
        let entries: Vec<(f64, u8)> = weights
            .iter()
            .enumerate()
            .map(|(i, &w)| (w as f64 / total as f64, (i % 3) as u8))
            .collect();
        let o = Outcomes::weighted(entries);
        let mass: f64 = o.entries().iter().map(|(p, _)| p).sum();
        prop_assert!((mass - 1.0).abs() < 1e-9);
        prop_assert!(o.entries().len() <= 3, "duplicates merged");
        for (p, _) in o.entries() {
            prop_assert!(*p > 0.0);
        }
    }

    /// Activations sort and deduplicate their nodes.
    #[test]
    fn activation_canonical_form(ids in proptest::collection::vec(0usize..20, 1..15)) {
        let act = Activation::new(ids.iter().map(|&i| NodeId::new(i)).collect());
        let nodes = act.nodes();
        for w in nodes.windows(2) {
            prop_assert!(w[0] < w[1], "sorted and unique");
        }
        for &i in &ids {
            prop_assert!(act.contains(NodeId::new(i)));
        }
    }

    /// Enumerated activation counts match the daemon's combinatorics.
    #[test]
    fn daemon_activation_counts(k in 1usize..8) {
        let g = builders::complete(10);
        let enabled: Vec<NodeId> = (0..k).map(NodeId::new).collect();
        let central = DaemonSpec::central().activations(&g, &enabled).unwrap();
        prop_assert_eq!(central.len(), k);
        let sync = DaemonSpec::synchronous().activations(&g, &enabled).unwrap();
        prop_assert_eq!(sync.len(), 1);
        let dist = DaemonSpec::distributed().activations(&g, &enabled).unwrap();
        prop_assert_eq!(dist.len(), (1usize << k) - 1);
        // On a complete graph, locally-central = central (all adjacent).
        let lc = DaemonSpec::locally_central().activations(&g, &enabled).unwrap();
        prop_assert_eq!(lc.len(), k);
    }

    /// Sampled activations are always non-empty subsets of the enabled set
    /// with the daemon's cardinality constraints.
    #[test]
    fn daemon_samples_are_wellformed(k in 1usize..12, seed in 0u64..1000) {
        let g = builders::ring(16);
        let enabled: Vec<NodeId> = (0..k).map(NodeId::new).collect();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        for daemon in DaemonSpec::LEGACY {
            let act = daemon.sample(&g, &enabled, &mut rng);
            prop_assert!(!act.is_empty());
            for v in act.nodes() {
                prop_assert!(enabled.contains(v));
            }
            if daemon == DaemonSpec::central() {
                prop_assert_eq!(act.len(), 1);
            } else if daemon == DaemonSpec::synchronous() {
                prop_assert_eq!(act.len(), k);
            }
        }
    }

    /// SpaceIndexer bijection on random mixed-radix spaces.
    #[test]
    fn space_indexer_bijects(alg in dice_strategy()) {
        let ix = SpaceIndexer::new(&alg, 1 << 20).unwrap();
        let expected: u64 = alg.caps.iter().map(|&c| c as u64 + 1).product();
        prop_assert_eq!(ix.total(), expected);
        for i in 0..ix.total() {
            let cfg = ix.decode(i);
            prop_assert_eq!(ix.encode(&cfg), i);
        }
    }

    /// Delta-encoding equals full re-encoding: for any configuration and
    /// any set of single-node rewrites,
    /// `encode(γ') = encode(γ) + Σ_v (digit'(v) − digit(v)) · weight(v)` —
    /// the identity the CSR engine's successor computation relies on.
    #[test]
    fn delta_encode_equals_full_encode(
        alg in dice_strategy(),
        idx in 0u64..10_000,
        rewrites in proptest::collection::vec((0usize..6, 0u8..4), 1..6),
    ) {
        let ix = SpaceIndexer::new(&alg, 1 << 20).unwrap();
        let cfg = ix.decode(idx % ix.total());
        let mut delta_id = ix.encode(&cfg) as i64;
        let mut rewritten = cfg.clone();
        for &(v, s) in &rewrites {
            let node = NodeId::new(v % alg.n());
            let state = s % (alg.caps[node.index()] + 1);
            let old_digit = ix.digit_of(node, rewritten.get(node)) as i64;
            let new_digit = ix.digit_of(node, &state) as i64;
            delta_id += (new_digit - old_digit) * ix.weight(node) as i64;
            rewritten.set(node, state);
        }
        prop_assert_eq!(ix.encode(&rewritten), delta_id as u64);
        // And the digit/weight accessors are consistent with decode.
        let mut digits = Vec::new();
        ix.write_digits(ix.encode(&rewritten), &mut digits);
        for (v, &digit) in digits.iter().enumerate() {
            let node = NodeId::new(v);
            prop_assert_eq!(digit as usize, ix.digit_of(node, rewritten.get(node)));
            prop_assert_eq!(ix.state_at(node, digit as usize), rewritten.get(node));
        }
    }

    /// The engine's in-place cursor visits exactly the decode sequence.
    #[test]
    fn cursor_walk_matches_decode(alg in dice_strategy(), start in 0u64..10_000) {
        let ix = SpaceIndexer::new(&alg, 1 << 20).unwrap();
        let start = start % ix.total();
        let mut cursor = stab_core::engine::ConfigCursor::new(&ix, start);
        for id in start..ix.total() {
            prop_assert_eq!(cursor.id(), id);
            prop_assert_eq!(cursor.config(), &ix.decode(id));
            let advanced = cursor.advance();
            prop_assert_eq!(advanced, id + 1 < ix.total());
        }
    }

    /// Successor distributions carry total mass 1 and branch at most
    /// `Π |state_space|` ways for any activation of the probabilistic dice.
    #[test]
    fn successor_distribution_mass(alg in dice_strategy(), seed in 0u64..100) {
        let cfg = Configuration::from_vec(vec![0u8; alg.n()]);
        let enabled = alg.enabled_nodes(&cfg);
        prop_assume!(!enabled.is_empty());
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let act = DaemonSpec::distributed().sample(alg.graph(), &enabled, &mut rng);
        let dist = semantics::successor_distribution(&alg, &cfg, &act);
        let mass: f64 = dist.iter().map(|(p, _)| p).sum();
        prop_assert!((mass - 1.0).abs() < 1e-9, "mass {}", mass);
        // All successors are distinct after merging.
        for i in 0..dist.len() {
            for j in i + 1..dist.len() {
                prop_assert_ne!(&dist[i].1, &dist[j].1);
            }
        }
    }

    /// The transformer never changes guards: enabled sets of `Trans(A)`
    /// equal those of `A` on every projection, for any coin pattern.
    #[test]
    fn transformer_preserves_guards(alg in dice_strategy(), coins in proptest::collection::vec(any::<bool>(), 6), idx in 0u64..500) {
        let trans = Transformed::new(alg.clone());
        let ix = SpaceIndexer::new(&alg, 1 << 20).unwrap();
        let cfg = ix.decode(idx % ix.total());
        let mut lifted = Transformed::<Dice>::lift(&cfg, false);
        for v in 0..alg.n() {
            let s = *lifted.get(NodeId::new(v));
            lifted.set(NodeId::new(v), stab_core::Coined::new(s.base, coins[v % coins.len()]));
        }
        prop_assert_eq!(alg.enabled_nodes(&cfg), trans.enabled_nodes(&lifted));
    }

    /// Transformer state spaces double, exactly.
    #[test]
    fn transformer_doubles_state_space(alg in dice_strategy()) {
        let trans = Transformed::new(alg.clone());
        for v in 0..alg.n() {
            prop_assert_eq!(
                trans.state_space(NodeId::new(v)).len(),
                2 * alg.state_space(NodeId::new(v)).len()
            );
        }
    }

    /// `deterministic_successor` and `successor_distribution` agree on
    /// deterministic systems (the infection test algorithm).
    #[test]
    fn deterministic_paths_agree(n in 3usize..7, infected in proptest::collection::vec(any::<bool>(), 3..7)) {
        #[derive(Debug)]
        struct Infect { g: Graph }
        impl Algorithm for Infect {
            type State = u8;
            fn graph(&self) -> &Graph { &self.g }
            fn name(&self) -> String { "infect".into() }
            fn state_space(&self, _n: NodeId) -> Vec<u8> { vec![0, 1] }
            fn enabled_actions<V: View<u8>>(&self, v: &V) -> ActionMask {
                ActionMask::when(*v.me() == 0 && v.count_neighbors(|&s| s == 1) > 0, ActionId::A1)
            }
            fn apply<V: View<u8>>(&self, _v: &V, _a: ActionId) -> Outcomes<u8> {
                Outcomes::certain(1)
            }
        }
        let alg = Infect { g: builders::ring(n) };
        let states: Vec<u8> = (0..n).map(|i| infected[i % infected.len()] as u8).collect();
        let cfg = Configuration::from_vec(states);
        let enabled = alg.enabled_nodes(&cfg);
        prop_assume!(!enabled.is_empty());
        let act = Activation::new(enabled);
        let det = semantics::deterministic_successor(&alg, &cfg, &act);
        let dist = semantics::successor_distribution(&alg, &cfg, &act);
        prop_assert_eq!(dist.len(), 1);
        prop_assert_eq!(&dist[0].1, &det);
    }
}
