//! Property-test battery pinning the symmetry-group quotient engine
//! (`stab_core::engine::quotient`): orbit invariance, idempotence,
//! least-in-orbit minimality, Booth-vs-naive least rotation, and orbit
//! tiling, across all four canonicalization strategies on randomly drawn
//! spaces.

use proptest::collection::vec;
use proptest::prelude::*;

use stab_core::engine::{least_rotation, CanonScratch, GroupCanonicalizer};
use stab_core::{ActionId, ActionMask, Algorithm, Configuration, Outcomes, SpaceIndexer, View};
use stab_graph::{builders, Graph, NodeId, RingRotations};

/// A trivial algorithm carrying only a state space (never enabled).
struct States {
    g: Graph,
    radix: u8,
}

impl Algorithm for States {
    type State = u8;
    fn graph(&self) -> &Graph {
        &self.g
    }
    fn name(&self) -> String {
        "states".into()
    }
    fn state_space(&self, _v: NodeId) -> Vec<u8> {
        (0..self.radix).collect()
    }
    fn enabled_actions<V: View<u8>>(&self, _v: &V) -> ActionMask {
        ActionMask::empty()
    }
    fn apply<V: View<u8>>(&self, _v: &V, _a: ActionId) -> Outcomes<u8> {
        unreachable!("never enabled")
    }
}

fn indexer(g: Graph, radix: u8) -> SpaceIndexer<u8> {
    SpaceIndexer::new(&States { g, radix }, 1 << 40).unwrap()
}

/// Applies a random word over the group generators to `full` — a random
/// group element, since the generators generate the group.
fn random_element(canon: &GroupCanonicalizer, full: u64, word: &[usize]) -> u64 {
    word.iter().fold(full, |x, &i| {
        let gens = canon.generators();
        canon.apply_perm(x, &gens[i % gens.len()])
    })
}

/// The four strategies on a common ring/star pair, for strategy-generic
/// properties.
fn canonicalizers(n: usize, radix: u8) -> Vec<(String, SpaceIndexer<u8>, GroupCanonicalizer)> {
    let ring = builders::ring(n);
    let ring_ix = indexer(ring.clone(), radix);
    let star = builders::star(n + 1);
    let star_ix = indexer(star.clone(), radix);
    let rot = RingRotations::of(&ring).unwrap();
    vec![
        (
            "rotation".into(),
            ring_ix.clone(),
            GroupCanonicalizer::ring_rotation(&ring, &ring_ix).unwrap(),
        ),
        (
            "dihedral".into(),
            ring_ix.clone(),
            GroupCanonicalizer::ring_dihedral(&ring, &ring_ix).unwrap(),
        ),
        (
            "leaf".into(),
            star_ix.clone(),
            GroupCanonicalizer::leaf_permutation(&star, &star_ix).unwrap(),
        ),
        (
            "explicit-dihedral".into(),
            ring_ix.clone(),
            GroupCanonicalizer::from_permutations(
                &ring_ix,
                &[rot.permutation(1), rot.reflection()],
            )
            .unwrap(),
        ),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Booth's O(N) least rotation picks exactly the sequence the naive
    /// N-rotation sweep picks, on random alphabets and lengths.
    #[test]
    fn booth_equals_naive_sweep(seq in (1usize..24).prop_flat_map(|n| vec(0u32..5, n..=n))) {
        let n = seq.len();
        let k = least_rotation(&seq);
        prop_assert!(k < n, "rotation index in range");
        let booth: Vec<u32> = (0..n).map(|j| seq[(j + k) % n]).collect();
        let naive = (0..n)
            .map(|r| (0..n).map(|j| seq[(j + r) % n]).collect::<Vec<u32>>())
            .min()
            .unwrap();
        prop_assert_eq!(booth, naive, "sequence {:?}", seq);
    }

    /// `canon(g·x) = canon(x)` for random group elements `g` (random words
    /// over the generators), on every strategy.
    #[test]
    fn canonical_is_orbit_invariant(
        (n, radix) in (3usize..7, 2u8..4),
        x_frac in 0.0f64..1.0,
        word in vec(0usize..4, 0..6),
    ) {
        for (label, ix, canon) in canonicalizers(n, radix) {
            let full = (x_frac * ix.total() as f64) as u64 % ix.total();
            let image = random_element(&canon, full, &word);
            let mut s = CanonScratch::default();
            prop_assert_eq!(
                canon.canonical(full, &mut s),
                canon.canonical(image, &mut s),
                "{} at {} via {:?}", label, full, word
            );
        }
    }

    /// Canonicalization is idempotent and the canonical form is in the
    /// argument's orbit, on every strategy.
    #[test]
    fn canonical_is_idempotent_and_in_orbit(
        (n, radix) in (3usize..7, 2u8..4),
        x_frac in 0.0f64..1.0,
    ) {
        for (label, ix, canon) in canonicalizers(n, radix) {
            let full = (x_frac * ix.total() as f64) as u64 % ix.total();
            let mut s = CanonScratch::default();
            let c = canon.canonical(full, &mut s);
            prop_assert_eq!(canon.canonical(c, &mut s), c, "{} idempotent at {}", label, full);
            // Membership: the canonical form is reachable by generator
            // words, i.e. the exhaustive closure of `full` contains it.
            let orbit = generator_closure(&canon, full);
            prop_assert!(orbit.contains(&c), "{}: {} not in orbit of {}", label, c, full);
            // And it is the *least* member of that orbit in digit order:
            // digit order with position weights ascending is index order
            // restricted per position, so compare decoded digit strings.
            let least = orbit
                .iter()
                .map(|&idx| ix.decode(idx).states().to_vec())
                .min()
                .unwrap();
            prop_assert_eq!(
                ix.decode(c).states().to_vec(),
                least,
                "{}: canonical not least in orbit of {}", label, full
            );
            // Orbit size agrees with the exhaustive enumeration and
            // divides the group order.
            prop_assert_eq!(canon.orbit(full, &mut s), orbit.len() as u64, "{} orbit", label);
            prop_assert_eq!(canon.group_order() % orbit.len() as u64, 0);
        }
    }

    /// Orbit sizes of the representatives tile the space exactly
    /// (Burnside-style check), on every strategy.
    #[test]
    fn orbits_tile_the_space((n, radix) in (3usize..6, 2u8..=3)) {
        for (label, ix, canon) in canonicalizers(n, radix) {
            let mut s = CanonScratch::default();
            let mut covered = 0u64;
            for full in 0..ix.total() {
                if canon.canonical(full, &mut s) == full {
                    covered += canon.orbit(full, &mut s);
                }
            }
            prop_assert_eq!(covered, ix.total(), "{} tiles", label);
        }
    }
}

/// Exhaustive orbit of `full` under the canonicalizer's generators
/// (fixed-point closure).
fn generator_closure(canon: &GroupCanonicalizer, full: u64) -> Vec<u64> {
    let mut seen = vec![full];
    let mut stack = vec![full];
    while let Some(x) = stack.pop() {
        for perm in canon.generators() {
            let y = canon.apply_perm(x, perm);
            if !seen.contains(&y) {
                seen.push(y);
                stack.push(y);
            }
        }
    }
    seen
}

/// The dihedral canonical form on *cycle order* digits coincides with the
/// explicit enumeration of all 2N images — a directed check that the lazy
/// Booth-of-both-directions comparison picks the true minimum (the
/// property suite above reaches it via the explicit strategy; this pins
/// the pair on a larger deterministic sweep).
#[test]
fn dihedral_booth_matches_explicit_on_a_full_space() {
    let g = builders::ring(7);
    let ix = indexer(g.clone(), 2);
    let dih = GroupCanonicalizer::ring_dihedral(&g, &ix).unwrap();
    let rot = RingRotations::of(&g).unwrap();
    let explicit =
        GroupCanonicalizer::from_permutations(&ix, &[rot.permutation(1), rot.reflection()])
            .unwrap();
    let mut s1 = CanonScratch::default();
    let mut s2 = CanonScratch::default();
    for full in 0..ix.total() {
        assert_eq!(
            dih.canonical(full, &mut s1),
            explicit.canonical(full, &mut s2),
            "at {full}"
        );
        assert_eq!(dih.orbit(full, &mut s1), explicit.orbit(full, &mut s2));
    }
}

/// Leaf-class canonicalization on a caterpillar: classes sort
/// independently, non-leaf digits are fixed, orbits are multinomials.
#[test]
fn caterpillar_leaf_canonicalization_is_classwise() {
    let g = builders::caterpillar(2, 2); // spine 0-1, legs {2,3} and {4,5}
    let ix = indexer(g.clone(), 3);
    let canon = GroupCanonicalizer::leaf_permutation(&g, &ix).unwrap();
    assert_eq!(canon.group_order(), 4); // 2! × 2!
    let mut s = CanonScratch::default();
    let full = ix.encode(&Configuration::from_vec(vec![2u8, 1, 2, 0, 1, 0]));
    let c = canon.canonical(full, &mut s);
    assert_eq!(ix.decode(c).states(), &[2u8, 1, 0, 2, 0, 1]);
    assert_eq!(canon.orbit(full, &mut s), 4);
    // A configuration with equal digits inside each class is fixed.
    let fixed = ix.encode(&Configuration::from_vec(vec![0u8, 2, 1, 1, 2, 2]));
    assert_eq!(canon.canonical(fixed, &mut s), fixed);
    assert_eq!(canon.orbit(fixed, &mut s), 1);
}
