//! Property-test battery for the daemon lattice (`stab_core::DaemonSpec`):
//! enumeration/sampling agreement, refinement-order laws, semantic
//! soundness of refinement (activation inclusion) on randomly drawn
//! lattice points, graphs and enabled sets — and, on the paper's four
//! named points, agreement with an independent pre-lattice reference
//! implementation of their enumeration and sampling. Also the premise of
//! the engine's local equivariance proof: every lattice point commutes
//! with graph automorphisms.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use std::collections::HashSet;

use stab_core::engine::GroupCanonicalizer;
use stab_core::{
    ActionId, ActionMask, Activation, Algorithm, Boundedness, DaemonSpec, Distribution, Fairness,
    Outcomes, SpaceIndexer, View,
};
use stab_graph::{builders, Graph, NodeId};

/// Random lattice point: any distribution × fairness × boundedness
/// (`k = 0` encodes an unconstrained size, `bound = 0` no bound).
fn any_spec() -> impl Strategy<Value = DaemonSpec> {
    (0usize..5, 0u32..5, 0u32..3, 0usize..4, 0u32..5).prop_map(
        |(shape, k, radius, fairness, bound)| DaemonSpec {
            distribution: if shape == 0 {
                Distribution::Synchronous
            } else {
                Distribution::KCentral {
                    k: (k > 0).then_some(k),
                    radius,
                }
            },
            fairness: Fairness::ALL[fairness],
            bound: if bound == 0 {
                Boundedness::Unbounded
            } else {
                Boundedness::EnabledBounded(bound)
            },
        },
    )
}

/// Random small test graph (ring, path or star) with `n ≥ 3` nodes.
fn any_graph() -> impl Strategy<Value = Graph> {
    (3usize..7, 0usize..3).prop_map(|(n, shape)| match shape {
        0 => builders::ring(n),
        1 => builders::path(n),
        _ => builders::star(n),
    })
}

/// A non-empty enabled set drawn from `g`'s nodes.
fn enabled_in(g: &Graph) -> Vec<NodeId> {
    g.nodes().collect()
}

/// Selects a sub-slice of `all` by bitmask, never empty (falls back to
/// the full set).
fn subset(all: &[NodeId], mask: usize) -> Vec<NodeId> {
    let picked: Vec<NodeId> = all
        .iter()
        .copied()
        .enumerate()
        .filter(|(i, _)| mask >> i & 1 == 1)
        .map(|(_, v)| v)
        .collect();
    if picked.is_empty() {
        all.to_vec()
    } else {
        picked
    }
}

/// The distribution's step-level predicate, written independently of the
/// enumeration code: size bound and pairwise spreading via BFS distance.
fn allowed(d: Distribution, g: &Graph, enabled: &[NodeId], act: &Activation) -> bool {
    match d {
        Distribution::Synchronous => act.nodes() == enabled,
        Distribution::KCentral { k, radius } => {
            let within_k = k.is_none_or(|k| act.len() as u64 <= u64::from(k));
            let spread = act.nodes().iter().enumerate().all(|(i, &a)| {
                act.nodes()
                    .iter()
                    .skip(i + 1)
                    .all(|&b| bfs_distance(g, a, b) > usize::try_from(radius).unwrap())
            });
            within_k && spread && !act.is_empty()
        }
    }
}

fn bfs_distance(g: &Graph, a: NodeId, b: NodeId) -> usize {
    let mut dist = vec![usize::MAX; g.n()];
    let mut queue = std::collections::VecDeque::from([a]);
    dist[a.index()] = 0;
    while let Some(v) = queue.pop_front() {
        if v == b {
            return dist[v.index()];
        }
        for &w in g.neighbors(v) {
            if dist[w.index()] == usize::MAX {
                dist[w.index()] = dist[v.index()] + 1;
                queue.push_back(w);
            }
        }
    }
    usize::MAX
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `activations()` is exactly the brute-force filter of all non-empty
    /// enabled subsets by the distribution's independently written
    /// predicate.
    #[test]
    fn enumeration_matches_the_predicate(
        spec in any_spec(),
        g in any_graph(),
        mask in 1usize..64,
    ) {
        let enabled = subset(&enabled_in(&g), mask);
        let acts = spec.activations(&g, &enabled).unwrap();
        // Exactly the allowed subsets, each exactly once.
        let mut seen = std::collections::HashSet::new();
        for a in &acts {
            prop_assert!(allowed(spec.distribution, &g, &enabled, a), "{a:?} not allowed");
            prop_assert!(seen.insert(a.nodes().to_vec()), "{a:?} enumerated twice");
        }
        let total = 1usize << enabled.len();
        for m in 1..total {
            let cand = Activation::new(
                enabled.iter().copied().enumerate()
                    .filter(|(i, _)| m >> i & 1 == 1)
                    .map(|(_, v)| v)
                    .collect(),
            );
            prop_assert_eq!(
                seen.contains(cand.nodes()),
                allowed(spec.distribution, &g, &enabled, &cand),
                "membership mismatch for {:?}", cand
            );
        }
    }

    /// Every sampled activation is one of the enumerated ones, and on
    /// small enabled sets seeded sampling reaches every enumerated
    /// activation: the supports coincide.
    #[test]
    fn sample_support_equals_activation_support(
        spec in any_spec(),
        g in any_graph(),
        mask in 1usize..8,
        seed in 0u64..1 << 48,
    ) {
        let enabled = subset(&enabled_in(&g)[..3], mask % 8);
        let acts: std::collections::HashSet<Vec<NodeId>> = spec
            .activations(&g, &enabled)
            .unwrap()
            .into_iter()
            .map(|a| a.nodes().to_vec())
            .collect();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut hit = std::collections::HashSet::new();
        for _ in 0..600 {
            let a = spec.sample(&g, &enabled, &mut rng);
            prop_assert!(
                acts.contains(a.nodes()),
                "sampled {:?} outside the enumerated support", a
            );
            hit.insert(a.nodes().to_vec());
        }
        // ≤ 7 activations, each with probability ≥ 2^-3·(1/64 rejection
        // floor): 600 draws miss one with negligible (and, seeded,
        // reproducible) probability.
        prop_assert_eq!(hit, acts, "sampling missed part of the support");
    }

    /// The refinement order is reflexive and transitive on random points
    /// (antisymmetry fails by design: distinct encodings can be
    /// behaviourally equal, e.g. `k = Some(1)` at different radii).
    #[test]
    fn refines_is_a_preorder(
        a in any_spec(),
        b in any_spec(),
        c in any_spec(),
    ) {
        prop_assert!(a.refines(a), "reflexive at {a:?}");
        if a.refines(b) && b.refines(c) {
            prop_assert!(a.refines(c), "transitivity: {a:?} ⊑ {b:?} ⊑ {c:?}");
        }
    }

    /// Semantic soundness of the distribution component: if `a` refines
    /// `b`, every activation `a` allows is an activation `b` allows — on
    /// every graph and enabled set (execution inclusion, one step at a
    /// time).
    #[test]
    fn refinement_implies_activation_inclusion(
        a in any_spec(),
        b in any_spec(),
        g in any_graph(),
        mask in 1usize..64,
    ) {
        prop_assume!(a.refines(b));
        let enabled = subset(&enabled_in(&g), mask);
        let allowed_by_b: std::collections::HashSet<Vec<NodeId>> = b
            .activations(&g, &enabled)
            .unwrap()
            .into_iter()
            .map(|x| x.nodes().to_vec())
            .collect();
        for act in a.activations(&g, &enabled).unwrap() {
            prop_assert!(
                allowed_by_b.contains(act.nodes()),
                "{:?} allowed by {:?} but not by the coarser {:?}", act, a, b
            );
        }
    }

    /// Fairness and boundedness refinement agree with the implied-verdict
    /// set: a point's meaningful verdicts are exactly the fairness
    /// assumptions at least as strong as its own.
    #[test]
    fn implied_verdicts_track_fairness_refinement(spec in any_spec()) {
        let implied = spec.implied_verdicts();
        for f in Fairness::ALL {
            prop_assert_eq!(
                implied.contains(f),
                f.refines(spec.fairness),
                "{:?} @ {:?}", spec, f
            );
        }
    }
}

// ---------------------------------------------------------------------
// The premise of the local equivariance proof
// ---------------------------------------------------------------------

/// A two-state algorithm that is never enabled: it only gives the
/// canonicalizer a space to be built for.
struct Bits(Graph);

impl Algorithm for Bits {
    type State = bool;
    fn graph(&self) -> &Graph {
        &self.0
    }
    fn name(&self) -> String {
        "bits".into()
    }
    fn state_space(&self, _v: NodeId) -> Vec<bool> {
        vec![false, true]
    }
    fn enabled_actions<V: View<bool>>(&self, _v: &V) -> ActionMask {
        ActionMask::empty()
    }
    fn apply<V: View<bool>>(&self, _v: &V, _a: ActionId) -> Outcomes<bool> {
        unreachable!("never enabled")
    }
}

/// The image of `nodes` under the node permutation `perm`.
fn image(perm: &[u32], nodes: &[NodeId]) -> Vec<NodeId> {
    nodes
        .iter()
        .map(|v| NodeId::new(perm[v.index()] as usize))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every lattice point's daemon commutes with graph automorphisms:
    /// `activations(g, π·E) = π·activations(g, E)` as sets, for every
    /// generator `π` of the topology's automorphism group on rings, stars
    /// and grids. `stab_core::engine::locally_equivariant` rests on this:
    /// with it, an algorithm that commutes with `π` on every local view
    /// commutes with `π` on every successor row.
    #[test]
    fn activations_commute_with_automorphisms(
        spec in any_spec(),
        shape in 0usize..3,
        n in 3usize..7,
        mask in 1usize..1 << 12,
    ) {
        let g = match shape {
            0 => builders::ring(n),
            1 => builders::star(n),
            _ => builders::grid(2 + n % 2, n - 1),
        };
        let ix = SpaceIndexer::new(&Bits(g.clone()), 1 << 20).unwrap();
        let canon = GroupCanonicalizer::automorphism(&g, &ix).unwrap();
        let enabled = subset(&enabled_in(&g), mask);
        let acts = spec.activations(&g, &enabled).unwrap();
        for perm in canon.generators() {
            let mut moved = image(perm, &enabled);
            moved.sort_unstable();
            let of_image: HashSet<Activation> =
                spec.activations(&g, &moved).unwrap().into_iter().collect();
            let image_of: HashSet<Activation> =
                acts.iter().map(|a| Activation::new(image(perm, a.nodes()))).collect();
            prop_assert_eq!(of_image, image_of, "{:?} under {:?} on E = {:?}", spec, perm, enabled);
        }
    }
}

// ---------------------------------------------------------------------
// The four named points (deterministic, not property-based)
// ---------------------------------------------------------------------

/// The paper's four daemons as they were written before the lattice:
/// the independent reference that [`DaemonSpec`]'s enumeration and
/// sampling must reproduce on the named points.
#[derive(Clone, Copy, Debug)]
enum Daemon {
    Central,
    Distributed,
    Synchronous,
    LocallyCentral,
}

/// Each reference daemon next to the lattice point that names it.
const NAMED: [(Daemon, DaemonSpec); 4] = [
    (Daemon::Central, DaemonSpec::central()),
    (Daemon::Distributed, DaemonSpec::distributed()),
    (Daemon::Synchronous, DaemonSpec::synchronous()),
    (Daemon::LocallyCentral, DaemonSpec::locally_central()),
];

/// Whether no two of `nodes` are adjacent in `g`.
fn independent(g: &Graph, nodes: &[NodeId]) -> bool {
    nodes
        .iter()
        .enumerate()
        .all(|(i, &a)| nodes[i + 1..].iter().all(|&b| !g.are_adjacent(a, b)))
}

/// Reference enumeration: every activation `d` allows, in ascending
/// subset-mask order.
fn reference_activations(d: Daemon, g: &Graph, enabled: &[NodeId]) -> Vec<Activation> {
    if enabled.is_empty() {
        return Vec::new();
    }
    let subsets = |keep: &dyn Fn(&[NodeId]) -> bool| -> Vec<Activation> {
        (1usize..1 << enabled.len())
            .map(|m| subset(enabled, m))
            .filter(|nodes| keep(nodes))
            .map(Activation::new)
            .collect()
    };
    match d {
        Daemon::Central => enabled.iter().map(|&v| Activation::singleton(v)).collect(),
        Daemon::Synchronous => vec![Activation::new(enabled.to_vec())],
        Daemon::Distributed => subsets(&|_| true),
        Daemon::LocallyCentral => subsets(&|nodes| independent(g, nodes)),
    }
}

/// Reference sampler (Definition 6): uniform singletons, uniform
/// non-empty subsets by per-process coin flips, the full enabled set, and
/// rejection sampling of independent subsets with a singleton fallback
/// after 64 failures.
fn reference_sample(d: Daemon, g: &Graph, enabled: &[NodeId], rng: &mut StdRng) -> Activation {
    let coin_subset = |rng: &mut StdRng| -> Vec<NodeId> {
        enabled
            .iter()
            .copied()
            .filter(|_| rng.random::<bool>())
            .collect()
    };
    match d {
        Daemon::Central => Activation::singleton(enabled[rng.random_range(0..enabled.len())]),
        Daemon::Synchronous => Activation::new(enabled.to_vec()),
        Daemon::Distributed => loop {
            let nodes = coin_subset(rng);
            if !nodes.is_empty() {
                return Activation::new(nodes);
            }
        },
        Daemon::LocallyCentral => {
            for _ in 0..64 {
                let nodes = coin_subset(rng);
                if !nodes.is_empty() && independent(g, &nodes) {
                    return Activation::new(nodes);
                }
            }
            Activation::singleton(enabled[rng.random_range(0..enabled.len())])
        }
    }
}

/// The named points keep the names that report strings and run
/// fingerprints are built from, and are pairwise distinct lattice points.
#[test]
fn named_points_keep_their_names() {
    let names: Vec<String> = DaemonSpec::LEGACY.iter().map(DaemonSpec::name).collect();
    assert_eq!(
        names,
        ["central", "distributed", "synchronous", "locally-central"]
    );
    for (i, a) in DaemonSpec::LEGACY.iter().enumerate() {
        for b in &DaemonSpec::LEGACY[i + 1..] {
            assert_ne!(a, b, "named points are distinct");
        }
    }
    assert_eq!(DaemonSpec::LEGACY, NAMED.map(|(_, spec)| spec));
}

/// On the named points, the lattice enumeration reproduces the reference
/// enumeration exactly — same activations in the same order — and seeded
/// sampling consumes the random stream identically, draw after draw.
#[test]
fn legacy_points_enumerate_and_sample_identically() {
    for g in [builders::ring(5), builders::path(4), builders::star(5)] {
        let all: Vec<NodeId> = g.nodes().collect();
        for (d, spec) in NAMED {
            assert!(spec.activations(&g, &[]).unwrap().is_empty());
            for mask in 1usize..1 << all.len().min(5) {
                let enabled = subset(&all, mask);
                assert_same_activations_and_stream(d, spec, &g, &enabled);
            }
        }
    }
    // On K12 with every process enabled only 12 of the 4095 subsets are
    // independent, so most locally-central draws end in the singleton
    // fallback, which the small graphs above almost never reach.
    let k12 = builders::complete(12);
    let all: Vec<NodeId> = k12.nodes().collect();
    for (d, spec) in NAMED {
        assert_same_activations_and_stream(d, spec, &k12, &all);
    }
}

fn assert_same_activations_and_stream(d: Daemon, spec: DaemonSpec, g: &Graph, enabled: &[NodeId]) {
    assert_eq!(
        spec.activations(g, enabled).unwrap(),
        reference_activations(d, g, enabled),
        "{spec} activations on {enabled:?}"
    );
    for seed in 0..8u64 {
        let mut r1 = StdRng::seed_from_u64(seed);
        let mut r2 = StdRng::seed_from_u64(seed);
        for draw in 0..25 {
            assert_eq!(
                spec.sample(g, enabled, &mut r1),
                reference_sample(d, g, enabled, &mut r2),
                "{spec} draw {draw} @ seed {seed} on {enabled:?}"
            );
        }
    }
}

/// The named constructors match the refinement structure the paper uses:
/// central ⊑ locally-central ⊑ distributed, synchronous ⊑ distributed,
/// and the synchronous/central pair is incomparable.
#[test]
fn legacy_lattice_shape() {
    let c = DaemonSpec::central();
    let lc = DaemonSpec::locally_central();
    let d = DaemonSpec::distributed();
    let s = DaemonSpec::synchronous();
    assert!(c.refines(lc) && lc.refines(d) && c.refines(d));
    assert!(s.refines(d));
    assert!(!s.refines(c) && !c.refines(s));
    assert!(!d.refines(c) && !d.refines(lc) && !d.refines(s));
}
