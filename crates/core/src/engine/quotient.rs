//! Symmetry-group quotienting: orbit canonicalization of mixed-radix
//! configuration indices under a permutation group of the communication
//! graph.
//!
//! The paper's Definition 6 lumping argument is valid for *any*
//! automorphism group of the graph, not just ring rotations: the group
//! partitions the configuration space into orbits, and every analysis —
//! possibilistic (closure, reachability, fair cycles) and probabilistic
//! (the Definition 6 Markov chain) — can run on one representative per
//! orbit whenever the algorithm and the legitimacy predicate respect the
//! symmetry (checked once per study by the engine's equivariance gate).
//!
//! [`GroupCanonicalizer`] picks the representative: the orbit member whose
//! digit sequence, read in canonical position order, is
//! **lexicographically least**. Four group strategies are supported, each
//! with a canonicalization specialised to its structure:
//!
//! | group                          | canonicalization            | cost   |
//! |--------------------------------|-----------------------------|--------|
//! | ring rotations `C_N`           | Booth's least rotation      | O(N)   |
//! | ring dihedral `D_N`            | Booth, both directions      | O(N)   |
//! | leaf permutations `∏ Sym(cᵢ)`  | sort digits within classes  | O(N log N) |
//! | explicit permutation set       | least image over the group  | O(N·\|G\|) |
//!
//! Canonicalization works directly on mixed-radix indices (no
//! configuration allocation). A fixed quotient sweep runs it once per
//! index, in its first pass, and keeps the resulting orbit ids in a dense
//! table while the table fits the plan's byte budget, so each successor
//! edge then costs one table load. Above that bound, on a resumed sweep
//! and in reachable-mode BFS it runs once per distinct successor of a
//! row. [`least_rotation`] (Booth's algorithm) is exported so the
//! property-test battery can pin it against the naive N-rotation sweep.

use std::collections::HashSet;

use stab_graph::trees::leaf_classes;
use stab_graph::{builders, Graph, NodeId, RingRotations};

use crate::space::SpaceIndexer;
use crate::{CoreError, LocalState};

use super::onthefly::Quotient;

/// Booth's algorithm: the index `k` (in `0..seq.len()`) such that the
/// rotation `seq[(j + k) mod n]` is lexicographically least among all `n`
/// rotations, in O(N) time and O(N) scratch.
///
/// ```
/// use stab_core::engine::quotient::least_rotation;
/// let k = least_rotation(&[2, 1, 0, 1]);
/// assert_eq!(k, 2); // ⟨0, 1, 2, 1⟩ is the least rotation
/// assert_eq!(least_rotation(&[0, 0, 0]), 0);
/// ```
pub fn least_rotation(seq: &[u32]) -> usize {
    let mut seq2 = seq.to_vec();
    seq2.extend_from_slice(seq);
    least_rotation_doubled(&seq2, &mut Vec::new())
}

/// Booth over a pre-doubled sequence (`seq2 = seq ++ seq`, length `2N`)
/// with caller-provided scratch for the failure function — the engine's
/// hot path: allocation-free once grown, and no modulo per access.
fn least_rotation_doubled(seq2: &[u32], f: &mut Vec<i64>) -> usize {
    let nn = seq2.len();
    let n = nn / 2;
    if n <= 1 {
        return 0;
    }
    f.clear();
    f.resize(nn, -1);
    let mut k: usize = 0;
    for j in 1..nn {
        let sj = seq2[j];
        let mut i = f[j - k - 1];
        while i != -1 && sj != seq2[k + i as usize + 1] {
            if sj < seq2[k + i as usize + 1] {
                k = j - i as usize - 1;
            }
            i = f[i as usize];
        }
        if i == -1 && sj != seq2[k] {
            if sj < seq2[k] {
                k = j;
            }
            f[j - k] = -1;
        } else {
            f[j - k] = i + 1;
        }
    }
    k % n
}

/// Reusable scratch for [`GroupCanonicalizer`] calls: nothing is allocated
/// per call once the buffers have grown to the working size.
#[derive(Debug, Default, Clone)]
pub struct CanonScratch {
    /// Digits of the argument in position order.
    digits: Vec<u32>,
    /// Second sequence (reversal, permutation images).
    alt: Vec<u32>,
    /// Best image so far (explicit strategy) / sort area (leaf classes).
    best: Vec<u32>,
    /// Orbit enumeration area (explicit strategy).
    orbit_ids: Vec<u64>,
    /// Booth failure-function area.
    booth: Vec<i64>,
}

/// The group structure a [`GroupCanonicalizer`] exploits.
#[derive(Debug, Clone)]
pub(super) enum Strategy {
    /// Cyclic rotations of a ring (positions in cycle order).
    Cycle,
    /// Rotations and reflections of a ring (positions in cycle order).
    Dihedral,
    /// Products of symmetric groups over interchangeable-leaf classes
    /// (positions = node indices; each entry lists class positions
    /// ascending).
    LeafClasses(Vec<Vec<usize>>),
    /// An explicit, composition-closed permutation list over positions
    /// (positions = node indices; `perm[v]` = image position of `v`).
    Explicit(Vec<Vec<u32>>),
}

/// Maps mixed-radix configuration indices to the index of the
/// lexicographically-least member of their orbit under a permutation group
/// of the nodes.
///
/// Built by [`GroupCanonicalizer::ring_rotation`],
/// [`GroupCanonicalizer::ring_dihedral`],
/// [`GroupCanonicalizer::leaf_permutation`] (topology-derived groups) or
/// [`GroupCanonicalizer::from_permutations`] (an explicit permutation
/// set). Construction validates what is checkable structurally — group
/// applicability to the topology and equal state alphabets along every
/// node orbit — and records the group's generators
/// ([`GroupCanonicalizer::generators`]), the one generator set the engine
/// keeps. Behavioural soundness (equivariance of the algorithm, invariance
/// of the specification) is decided over those generators by the engine's
/// equivariance gate, once per study: an auto-planned study's plan hands
/// the gate's admission to the exploration, and any other run gates when
/// it explores.
#[derive(Debug, Clone)]
pub struct GroupCanonicalizer {
    /// Mixed-radix weight of the node at position `j`.
    pos_weights: Vec<u64>,
    /// Alphabet size of the node at position `j`.
    pos_radix: Vec<u64>,
    /// Node-indexed weights (for applying node permutations).
    node_weights: Vec<u64>,
    /// Node-indexed radixes.
    node_radix: Vec<u64>,
    strategy: Strategy,
    /// Order of the quotient group.
    group_order: u64,
    /// Node-space generator permutations (`perm[v]` = image node of `v`),
    /// consumed by the per-run equivariance gate.
    generators: Vec<Vec<u32>>,
}

/// Validates that `a` and `b` have identical state alphabets.
fn require_equal_alphabets<S: LocalState>(
    ix: &SpaceIndexer<S>,
    a: NodeId,
    b: NodeId,
) -> Result<(), CoreError> {
    if ix.states_of(a) != ix.states_of(b) {
        return Err(CoreError::QuotientUnsupported {
            reason: format!(
                "state alphabets differ between symmetric nodes (node {a} has {}, {b} has {})",
                ix.states_of(a).len(),
                ix.states_of(b).len()
            ),
        });
    }
    Ok(())
}

impl GroupCanonicalizer {
    /// The cyclic rotation group `C_N` of a uniform ring (the PR 2
    /// quotient, now Booth-accelerated).
    ///
    /// # Errors
    ///
    /// [`CoreError::QuotientUnsupported`] if `g` is not a ring (including
    /// all graphs with fewer than 3 nodes) or its nodes have unequal state
    /// alphabets.
    pub fn ring_rotation<S: LocalState>(
        g: &Graph,
        ix: &SpaceIndexer<S>,
    ) -> Result<Self, CoreError> {
        Self::ring(g, ix, false)
    }

    /// The full dihedral group `D_N` (rotations and reflections) of a
    /// uniform ring: up to `2N`-fold state reduction, at the same O(N)
    /// per-canonicalization cost as the rotation quotient.
    ///
    /// # Errors
    ///
    /// As [`GroupCanonicalizer::ring_rotation`].
    pub fn ring_dihedral<S: LocalState>(
        g: &Graph,
        ix: &SpaceIndexer<S>,
    ) -> Result<Self, CoreError> {
        Self::ring(g, ix, true)
    }

    fn ring<S: LocalState>(
        g: &Graph,
        ix: &SpaceIndexer<S>,
        dihedral: bool,
    ) -> Result<Self, CoreError> {
        let rot = RingRotations::of(g).map_err(|_| CoreError::QuotientUnsupported {
            reason: format!("the {}-node topology is not a ring", g.n()),
        })?;
        let order = rot.order();
        for &v in &order[1..] {
            require_equal_alphabets(ix, order[0], v)?;
        }
        let n = order.len();
        let radix = ix.states_of(order[0]).len() as u64;
        let mut generators = vec![node_perm(&rot.permutation(1))];
        if dihedral {
            generators.push(node_perm(&rot.reflection()));
        }
        Ok(GroupCanonicalizer {
            pos_weights: order.iter().map(|&v| ix.weight(v)).collect(),
            pos_radix: vec![radix; n],
            node_weights: (0..n).map(|v| ix.weight(NodeId::new(v))).collect(),
            node_radix: (0..n).map(|v| ix.radix(NodeId::new(v)) as u64).collect(),
            strategy: if dihedral {
                Strategy::Dihedral
            } else {
                Strategy::Cycle
            },
            group_order: if dihedral { 2 * n as u64 } else { n as u64 },
            generators,
        })
    }

    /// The leaf-permutation group `∏_c Sym(c)` over the
    /// interchangeable-leaf classes of a star or tree
    /// ([`stab_graph::trees::leaf_classes`]): up to `∏ |c|!`-fold reduction
    /// without ever materialising the (factorially large) group.
    ///
    /// # Errors
    ///
    /// [`CoreError::QuotientUnsupported`] if `g` has no class of at least
    /// two same-parent leaves, if class alphabets are unequal, or if the
    /// group order overflows `u64`.
    pub fn leaf_permutation<S: LocalState>(
        g: &Graph,
        ix: &SpaceIndexer<S>,
    ) -> Result<Self, CoreError> {
        let classes = leaf_classes(g);
        if classes.is_empty() {
            return Err(CoreError::QuotientUnsupported {
                reason: format!(
                    "the {}-node topology has no class of two or more same-parent leaves",
                    g.n()
                ),
            });
        }
        let mut group_order: u64 = 1;
        let mut generators = Vec::new();
        for class in &classes {
            for &v in &class[1..] {
                require_equal_alphabets(ix, class[0], v)?;
            }
            // One transposition and one k-cycle generate Sym(k); for
            // k = 2 they coincide.
            generators.push(cycle(g.n(), &class[..2]));
            if class.len() > 2 {
                generators.push(cycle(g.n(), class));
            }
            group_order = (1..=class.len() as u64)
                .try_fold(group_order, |acc, k| acc.checked_mul(k))
                .ok_or_else(|| CoreError::QuotientUnsupported {
                    reason: "leaf-permutation group order overflows u64".into(),
                })?;
        }
        let n = g.n();
        Ok(GroupCanonicalizer {
            pos_weights: (0..n).map(|v| ix.weight(NodeId::new(v))).collect(),
            pos_radix: (0..n).map(|v| ix.radix(NodeId::new(v)) as u64).collect(),
            node_weights: (0..n).map(|v| ix.weight(NodeId::new(v))).collect(),
            node_radix: (0..n).map(|v| ix.radix(NodeId::new(v)) as u64).collect(),
            strategy: Strategy::LeafClasses(
                classes
                    .iter()
                    .map(|c| c.iter().map(|v| v.index()).collect())
                    .collect(),
            ),
            group_order,
            generators,
        })
    }

    /// The topology-derived full-automorphism quotient: the dihedral group
    /// on rings (`Aut(ring) = D_N` exactly), the reflection group on
    /// builder-labelled grids (`Aut(grid) = C₂ × C₂`, or `D₄` when
    /// square), and the leaf-permutation subgroup on stars and trees (for
    /// stars the full `Sym(leaves) = Aut`, for trees the sound subgroup
    /// generated by same-parent leaf swaps).
    ///
    /// # Errors
    ///
    /// [`CoreError::QuotientUnsupported`] if the topology is neither a
    /// ring, a grid with a nontrivial reflection, nor a graph with
    /// interchangeable leaves, or alphabets break the symmetry.
    pub fn automorphism<S: LocalState>(g: &Graph, ix: &SpaceIndexer<S>) -> Result<Self, CoreError> {
        if g.is_ring() {
            return Self::ring_dihedral(g, ix);
        }
        // Grids before leaf classes: a 1 × n grid is a path, whose leaves
        // have distinct parents, so only the reflection group applies.
        if let Some((rows, cols)) = builders::grid_dims(g) {
            if rows * cols > 1 {
                return Self::grid_reflections(ix, rows, cols);
            }
        }
        Self::leaf_permutation(g, ix).map_err(|e| CoreError::QuotientUnsupported {
            reason: format!(
                "no topology-derived automorphism group for the {}-node graph \
                 (not a ring or grid; {e})",
                g.n()
            ),
        })
    }

    /// The reflection group of a row-major `rows × cols` grid
    /// ([`stab_graph::builders::grid`]): the row flip, the column flip,
    /// and — when the grid is square — the transpose, closed under
    /// composition (order 4 for proper rectangles, 8 for squares, 2 for
    /// degenerate `1 × n` paths).
    ///
    /// # Errors
    ///
    /// [`CoreError::QuotientUnsupported`] if the dimensions do not match
    /// the space, the grid is `1 × 1` (no nontrivial reflection), or
    /// reflected nodes have unequal state alphabets.
    pub fn grid_reflections<S: LocalState>(
        ix: &SpaceIndexer<S>,
        rows: usize,
        cols: usize,
    ) -> Result<Self, CoreError> {
        let n = rows * cols;
        if n != ix.n() {
            return Err(CoreError::QuotientUnsupported {
                reason: format!(
                    "{rows}×{cols} grid dimensions do not match the {}-node space",
                    ix.n()
                ),
            });
        }
        if n <= 1 {
            return Err(CoreError::QuotientUnsupported {
                reason: "a 1×1 grid has no nontrivial reflection".into(),
            });
        }
        let at = |r: usize, c: usize| NodeId::new(r * cols + c);
        let mut perms: Vec<Vec<NodeId>> = Vec::new();
        if rows > 1 {
            perms.push((0..n).map(|v| at(rows - 1 - v / cols, v % cols)).collect());
        }
        if cols > 1 {
            perms.push((0..n).map(|v| at(v / cols, cols - 1 - v % cols)).collect());
        }
        if rows == cols && rows > 1 {
            perms.push((0..n).map(|v| at(v % cols, v / cols)).collect());
        }
        Self::from_permutations(ix, &perms)
    }

    /// An explicit permutation set (a hand-picked generator list or whole
    /// group, e.g. the elements of `stab_checker::Automorphism::all`),
    /// closed under composition internally; the given permutations become
    /// the [`GroupCanonicalizer::generators`]. Canonicalization costs
    /// O(N·|G|) per call, so prefer the structured constructors when the
    /// group is a known ring or leaf symmetry.
    ///
    /// # Errors
    ///
    /// [`CoreError::QuotientUnsupported`] if some entry is not a
    /// permutation of the space's nodes, maps between nodes with unequal
    /// alphabets, or the composition closure exceeds
    /// [`GroupCanonicalizer::EXPLICIT_GROUP_CAP`] elements.
    pub fn from_permutations<S: LocalState>(
        ix: &SpaceIndexer<S>,
        perms: &[Vec<NodeId>],
    ) -> Result<Self, CoreError> {
        let n = ix.n();
        let mut generators: Vec<Vec<u32>> = Vec::new();
        for perm in perms {
            if perm.len() != n {
                return Err(CoreError::QuotientUnsupported {
                    reason: format!(
                        "permutation over {} nodes does not match the {n}-node space",
                        perm.len()
                    ),
                });
            }
            let mut seen = vec![false; n];
            for (v, &img) in perm.iter().enumerate() {
                if img.index() >= n || seen[img.index()] {
                    return Err(CoreError::QuotientUnsupported {
                        reason: "group entry is not a permutation of the nodes".into(),
                    });
                }
                seen[img.index()] = true;
                require_equal_alphabets(ix, NodeId::new(v), img)?;
            }
            generators.push(node_perm(perm));
        }
        let group = close_under_composition(n, &generators)?;
        Ok(GroupCanonicalizer {
            pos_weights: (0..n).map(|v| ix.weight(NodeId::new(v))).collect(),
            pos_radix: (0..n).map(|v| ix.radix(NodeId::new(v)) as u64).collect(),
            node_weights: (0..n).map(|v| ix.weight(NodeId::new(v))).collect(),
            node_radix: (0..n).map(|v| ix.radix(NodeId::new(v)) as u64).collect(),
            group_order: group.len() as u64,
            strategy: Strategy::Explicit(group),
            generators,
        })
    }

    /// Closure cap for [`GroupCanonicalizer::from_permutations`].
    pub const EXPLICIT_GROUP_CAP: usize = 1 << 16;

    /// Number of processes.
    #[inline]
    pub fn n(&self) -> usize {
        self.pos_weights.len()
    }

    /// Order of the quotient group (`N`, `2N`, `∏|c|!`, or the explicit
    /// group size). Every orbit size divides it.
    #[inline]
    pub fn group_order(&self) -> u64 {
        self.group_order
    }

    /// The node-space generator permutations of the group
    /// (`perm[v]` = image node of `v`): the engine's one generator set,
    /// over which the equivariance gate decides soundness.
    pub fn generators(&self) -> &[Vec<u32>] {
        &self.generators
    }

    /// The canonicalizer a [`Quotient`] resolves to on `g` (`None` for
    /// [`Quotient::None`]): the one place the engine maps a quotient
    /// choice to its group.
    ///
    /// # Errors
    ///
    /// [`CoreError::QuotientUnsupported`] from the resolved constructor's
    /// structural validation.
    pub(super) fn for_quotient<S: LocalState>(
        quotient: Quotient,
        g: &Graph,
        ix: &SpaceIndexer<S>,
    ) -> Result<Option<Self>, CoreError> {
        match quotient {
            Quotient::None => Ok(None),
            Quotient::RingRotation => Self::ring_rotation(g, ix).map(Some),
            Quotient::RingDihedral => Self::ring_dihedral(g, ix).map(Some),
            Quotient::Automorphism => Self::automorphism(g, ix).map(Some),
        }
    }

    /// Whether the canonicalizer was built for a space with `ix`'s
    /// alphabet sizes.
    pub(super) fn fits(&self, ix: &SpaceIndexer<impl LocalState>) -> bool {
        let radices = (0..ix.n()).map(|v| ix.radix(NodeId::new(v)) as u64);
        self.node_radix.iter().copied().eq(radices)
    }

    /// Borrowed view of every field — the checkpoint snapshot surface
    /// (the canonicalizer is pure data, so a final frame can embed it and
    /// [`resume`](super::TransitionSystem::resume) can reconstruct
    /// quotient systems without re-deriving the group).
    #[allow(clippy::type_complexity)]
    pub(super) fn snapshot_parts(
        &self,
    ) -> (&[u64], &[u64], &[u64], &[u64], &Strategy, u64, &[Vec<u32>]) {
        (
            &self.pos_weights,
            &self.pos_radix,
            &self.node_weights,
            &self.node_radix,
            &self.strategy,
            self.group_order,
            &self.generators,
        )
    }

    /// Reassembles a canonicalizer from checkpointed parts (inverse of
    /// [`GroupCanonicalizer::snapshot_parts`]).
    #[allow(clippy::too_many_arguments)]
    pub(super) fn from_snapshot_parts(
        pos_weights: Vec<u64>,
        pos_radix: Vec<u64>,
        node_weights: Vec<u64>,
        node_radix: Vec<u64>,
        strategy: Strategy,
        group_order: u64,
        generators: Vec<Vec<u32>>,
    ) -> Self {
        GroupCanonicalizer {
            pos_weights,
            pos_radix,
            node_weights,
            node_radix,
            strategy,
            group_order,
            generators,
        }
    }

    /// Applies a node permutation to a configuration index:
    /// the resulting configuration holds `x`'s state of node `v` at node
    /// `perm[v]`.
    pub fn apply_perm(&self, full: u64, perm: &[u32]) -> u64 {
        debug_assert_eq!(perm.len(), self.n());
        let mut out = 0u64;
        for (v, &img) in perm.iter().enumerate() {
            let digit = (full / self.node_weights[v]) % self.node_radix[v];
            out += digit * self.node_weights[img as usize];
        }
        out
    }

    /// Writes the digits of `full` in position order into `buf`.
    fn position_digits(&self, full: u64, buf: &mut Vec<u32>) {
        buf.clear();
        buf.extend(
            self.pos_weights
                .iter()
                .zip(&self.pos_radix)
                // lint: cast-ok(a digit is strictly below its radix, which fits u32)
                .map(|(&w, &r)| ((full / w) % r) as u32),
        );
    }

    /// Writes the digits of `full` in position order into `buf`,
    /// **doubled** (`d ++ d`, length `2N`) so rotation reads and Booth
    /// need no modulo — the ring strategies' hot-path layout.
    fn ring_digits_doubled(&self, full: u64, buf: &mut Vec<u32>) {
        self.position_digits(full, buf);
        buf.extend_from_within(..);
    }

    /// The index encoded by position digits `d`.
    fn index_of_digits(&self, d: &[u32]) -> u64 {
        d.iter()
            .zip(&self.pos_weights)
            .map(|(&digit, &w)| digit as u64 * w)
            .sum()
    }

    /// The index of the lexicographically-least orbit member of `full`.
    /// `scratch` is caller-provided (no allocation per call once grown).
    pub fn canonical(&self, full: u64, scratch: &mut CanonScratch) -> u64 {
        match &self.strategy {
            Strategy::Cycle => {
                self.ring_digits_doubled(full, &mut scratch.digits);
                let k = least_rotation_doubled(&scratch.digits, &mut scratch.booth);
                if k == 0 {
                    return full;
                }
                let d = &scratch.digits;
                let n = d.len() / 2;
                (0..n).map(|j| d[j + k] as u64 * self.pos_weights[j]).sum()
            }
            Strategy::Dihedral => {
                self.ring_digits_doubled(full, &mut scratch.digits);
                let n = scratch.digits.len() / 2;
                scratch.alt.clear();
                scratch.alt.extend(scratch.digits[..n].iter().rev());
                scratch.alt.extend_from_within(..);
                let kd = least_rotation_doubled(&scratch.digits, &mut scratch.booth);
                let ke = least_rotation_doubled(&scratch.alt, &mut scratch.booth);
                let (d, e) = (&scratch.digits, &scratch.alt);
                // Lazily compare the two candidate canonical sequences.
                let mut reversed = false;
                for j in 0..n {
                    let (a, b) = (d[j + kd], e[j + ke]);
                    if a != b {
                        reversed = b < a;
                        break;
                    }
                }
                let (seq, k) = if reversed { (e, ke) } else { (d, kd) };
                (0..n)
                    .map(|j| seq[j + k] as u64 * self.pos_weights[j])
                    .sum()
            }
            Strategy::LeafClasses(classes) => {
                self.position_digits(full, &mut scratch.digits);
                for class in classes {
                    scratch.best.clear();
                    scratch
                        .best
                        .extend(class.iter().map(|&p| scratch.digits[p]));
                    scratch.best.sort_unstable();
                    for (&p, &digit) in class.iter().zip(&scratch.best) {
                        scratch.digits[p] = digit;
                    }
                }
                self.index_of_digits(&scratch.digits)
            }
            Strategy::Explicit(group) => {
                self.position_digits(full, &mut scratch.digits);
                let d = &scratch.digits;
                let n = d.len();
                scratch.best.clear();
                scratch.best.extend_from_slice(d);
                for perm in group {
                    // Image digits: state of position v lands at perm[v].
                    scratch.alt.resize(n, 0);
                    for v in 0..n {
                        scratch.alt[perm[v] as usize] = d[v];
                    }
                    if scratch.alt < scratch.best {
                        std::mem::swap(&mut scratch.best, &mut scratch.alt);
                    }
                }
                self.index_of_digits(&scratch.best)
            }
        }
    }

    /// Like [`GroupCanonicalizer::canonical`] without caller-provided
    /// scratch — convenient for `&self` lookup paths (id resolution,
    /// chain queries) that have nowhere to keep scratch. Allocation-free
    /// after the first call on a thread (thread-local scratch).
    pub fn canonical_owned(&self, full: u64) -> u64 {
        thread_local! {
            static SCRATCH: std::cell::RefCell<CanonScratch> =
                std::cell::RefCell::new(CanonScratch::default());
        }
        SCRATCH.with(|s| self.canonical(full, &mut s.borrow_mut()))
    }

    /// The orbit size of `full`: the number of *distinct* configurations
    /// the group maps it to. Always divides
    /// [`GroupCanonicalizer::group_order`].
    pub fn orbit(&self, full: u64, scratch: &mut CanonScratch) -> u64 {
        match &self.strategy {
            Strategy::Cycle => {
                self.position_digits(full, &mut scratch.digits);
                period(&scratch.digits) as u64
            }
            Strategy::Dihedral => {
                self.ring_digits_doubled(full, &mut scratch.digits);
                let n = scratch.digits.len() / 2;
                let p = period(&scratch.digits[..n]) as u64;
                scratch.alt.clear();
                scratch.alt.extend(scratch.digits[..n].iter().rev());
                scratch.alt.extend_from_within(..);
                let kd = least_rotation_doubled(&scratch.digits, &mut scratch.booth);
                let ke = least_rotation_doubled(&scratch.alt, &mut scratch.booth);
                let (d, e) = (&scratch.digits, &scratch.alt);
                // Achiral (some rotation of the reversal equals the
                // sequence): the reflections contribute no new members.
                let achiral = (0..n).all(|j| d[j + kd] == e[j + ke]);
                if achiral {
                    p
                } else {
                    2 * p
                }
            }
            Strategy::LeafClasses(classes) => {
                self.position_digits(full, &mut scratch.digits);
                let mut orbit: u128 = 1;
                for class in classes {
                    scratch.best.clear();
                    scratch
                        .best
                        .extend(class.iter().map(|&p| scratch.digits[p]));
                    scratch.best.sort_unstable();
                    // Multinomial |class|! / ∏ multiplicity! — the number
                    // of distinct arrangements of the class digits.
                    let mut numer: u128 = 1;
                    for k in 1..=class.len() as u128 {
                        numer *= k;
                    }
                    let mut run = 1u128;
                    let mut denom: u128 = 1;
                    for w in scratch.best.windows(2) {
                        if w[0] == w[1] {
                            run += 1;
                            denom *= run;
                        } else {
                            run = 1;
                        }
                    }
                    orbit *= numer / denom;
                }
                u64::try_from(orbit).expect("orbit size fits u64 (<= group order)")
            }
            Strategy::Explicit(group) => {
                self.position_digits(full, &mut scratch.digits);
                let d = &scratch.digits;
                let n = d.len();
                scratch.orbit_ids.clear();
                for perm in group {
                    scratch.alt.resize(n, 0);
                    for v in 0..n {
                        scratch.alt[perm[v] as usize] = d[v];
                    }
                    scratch.orbit_ids.push(self.index_of_digits(&scratch.alt));
                }
                scratch.orbit_ids.sort_unstable();
                scratch.orbit_ids.dedup();
                scratch.orbit_ids.len() as u64
            }
        }
    }
}

/// The smallest period of `d` (always divides `d.len()`).
fn period(d: &[u32]) -> usize {
    let n = d.len();
    for p in 1..=n {
        if !n.is_multiple_of(p) {
            continue;
        }
        if (0..n).all(|j| d[(j + p) % n] == d[j]) {
            return p;
        }
    }
    unreachable!("p = n always fixes the sequence")
}

/// Node-space permutation as `u32` images.
fn node_perm(perm: &[NodeId]) -> Vec<u32> {
    // lint: cast-ok(node indices are bounded by the node count, far below u32)
    perm.iter().map(|v| v.index() as u32).collect()
}

/// The permutation of `0..n` that moves `class[i]` to `class[i + 1]`
/// (the last to the first) and fixes every other node.
fn cycle(n: usize, class: &[NodeId]) -> Vec<u32> {
    // lint: cast-ok(node counts stay far below u32)
    let mut perm: Vec<u32> = (0..n as u32).collect();
    for (from, to) in class.iter().zip(class.iter().cycle().skip(1)) {
        // lint: cast-ok(node counts stay far below u32)
        perm[from.index()] = to.index() as u32;
    }
    perm
}

/// BFS closure of `generators` under composition (identity included).
fn close_under_composition(n: usize, generators: &[Vec<u32>]) -> Result<Vec<Vec<u32>>, CoreError> {
    // lint: cast-ok(node counts stay far below u32)
    let identity: Vec<u32> = (0..n as u32).collect();
    let mut seen: HashSet<Vec<u32>> = HashSet::new();
    let mut group: Vec<Vec<u32>> = Vec::new();
    let mut queue: Vec<Vec<u32>> = vec![identity];
    while let Some(p) = queue.pop() {
        if !seen.insert(p.clone()) {
            continue;
        }
        if seen.len() > GroupCanonicalizer::EXPLICIT_GROUP_CAP {
            return Err(CoreError::QuotientUnsupported {
                reason: format!(
                    "composition closure of the permutation set exceeds {} elements",
                    GroupCanonicalizer::EXPLICIT_GROUP_CAP
                ),
            });
        }
        for g in generators {
            let composed: Vec<u32> = (0..n).map(|v| g[p[v] as usize]).collect();
            if !seen.contains(&composed) {
                queue.push(composed);
            }
        }
        group.push(p);
    }
    Ok(group)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::action::{ActionId, ActionMask};
    use crate::algorithm::Algorithm;
    use crate::outcome::Outcomes;
    use crate::view::View;
    use stab_graph::{builders, NodeId};

    /// A trivial algorithm with `radix` states per node (never enabled;
    /// only the space matters here).
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

    fn space(g: Graph, radix: u8) -> (Graph, SpaceIndexer<u8>) {
        let alg = States { g, radix };
        let ix = SpaceIndexer::new(&alg, 1 << 40).unwrap();
        (alg.g, ix)
    }

    fn ring_canon(n: usize, radix: u8, dihedral: bool) -> (SpaceIndexer<u8>, GroupCanonicalizer) {
        let (g, ix) = space(builders::ring(n), radix);
        let canon = if dihedral {
            GroupCanonicalizer::ring_dihedral(&g, &ix).unwrap()
        } else {
            GroupCanonicalizer::ring_rotation(&g, &ix).unwrap()
        };
        (ix, canon)
    }

    #[test]
    fn booth_matches_naive_least_rotation() {
        // Deterministic small sweep; the property suite covers random
        // alphabets and lengths.
        for seq in [
            vec![0u32],
            vec![1, 0],
            vec![2, 1, 0, 1],
            vec![1, 1, 1, 1],
            vec![0, 1, 0, 1, 1],
            vec![3, 0, 3, 0, 2, 1],
        ] {
            let n = seq.len();
            let k = least_rotation(&seq);
            let booth: Vec<u32> = (0..n).map(|j| seq[(j + k) % n]).collect();
            let naive = (0..n)
                .map(|r| (0..n).map(|j| seq[(j + r) % n]).collect::<Vec<u32>>())
                .min()
                .unwrap();
            assert_eq!(booth, naive, "sequence {seq:?}");
        }
    }

    #[test]
    fn rotation_canonical_is_idempotent_and_minimal_in_orbit() {
        let (ix, canon) = ring_canon(5, 3, false);
        let mut scratch = CanonScratch::default();
        for full in 0..ix.total() {
            let c = canon.canonical(full, &mut scratch);
            assert_eq!(canon.canonical(c, &mut scratch), c, "idempotent at {full}");
            // The representative is the minimum *lexicographic* rotation;
            // verify against a brute-force rotation of the decoded config.
            let cfg = ix.decode(full);
            let n = cfg.len();
            let states: Vec<u8> = cfg.states().to_vec();
            let min_seq = (0..n)
                .map(|k| (0..n).map(|j| states[(j + k) % n]).collect::<Vec<u8>>())
                .min()
                .unwrap();
            let min_full = ix.encode(&crate::Configuration::from_vec(min_seq));
            assert_eq!(c, min_full, "orbit minimum of {full}");
        }
    }

    #[test]
    fn dihedral_canonical_is_least_over_rotations_and_reflections() {
        let (ix, canon) = ring_canon(6, 2, true);
        let mut scratch = CanonScratch::default();
        assert_eq!(canon.group_order(), 12);
        for full in 0..ix.total() {
            let c = canon.canonical(full, &mut scratch);
            assert_eq!(canon.canonical(c, &mut scratch), c, "idempotent at {full}");
            let states: Vec<u8> = ix.decode(full).states().to_vec();
            let n = states.len();
            let mut images = Vec::new();
            for k in 0..n {
                let rot: Vec<u8> = (0..n).map(|j| states[(j + k) % n]).collect();
                images.push(rot.iter().rev().copied().collect::<Vec<u8>>());
                images.push(rot);
            }
            let min_seq = images.into_iter().min().unwrap();
            let min_full = ix.encode(&crate::Configuration::from_vec(min_seq));
            assert_eq!(c, min_full, "dihedral orbit minimum of {full}");
        }
    }

    #[test]
    fn dihedral_orbits_tile_the_space() {
        for (n, radix) in [(3usize, 2u8), (5, 2), (4, 3), (6, 2)] {
            let (ix, canon) = ring_canon(n, radix, true);
            let mut scratch = CanonScratch::default();
            let mut covered = 0u64;
            let mut reps = 0u64;
            for full in 0..ix.total() {
                if canon.canonical(full, &mut scratch) == full {
                    reps += 1;
                    let orbit = canon.orbit(full, &mut scratch);
                    assert!(
                        canon.group_order().is_multiple_of(orbit),
                        "orbit {orbit} divides group order (N={n})"
                    );
                    covered += orbit;
                }
            }
            assert_eq!(covered, ix.total(), "dihedral orbits tile (N={n})");
            assert!(reps >= ix.total() / (2 * n as u64));
        }
    }

    #[test]
    fn chiral_necklaces_have_doubled_orbits() {
        // ⟨0,0,1,0,1,1⟩ on the 6-ring is chiral: its reversal is not a
        // rotation of it, so the dihedral orbit is twice the rotation one.
        let (ix, rot) = ring_canon(6, 2, false);
        let (_, dih) = ring_canon(6, 2, true);
        let mut scratch = CanonScratch::default();
        let chiral = ix.encode(&crate::Configuration::from_vec(vec![0u8, 0, 1, 0, 1, 1]));
        assert_eq!(rot.orbit(chiral, &mut scratch), 6);
        assert_eq!(dih.orbit(chiral, &mut scratch), 12);
        // An achiral (palindromic) necklace keeps its rotation orbit.
        let achiral = ix.encode(&crate::Configuration::from_vec(vec![0u8, 0, 1, 0, 0, 1]));
        assert_eq!(
            dih.orbit(achiral, &mut scratch),
            rot.orbit(achiral, &mut scratch)
        );
    }

    #[test]
    fn leaf_permutation_sorts_class_digits() {
        let (g, ix) = space(builders::star(5), 3);
        let canon = GroupCanonicalizer::leaf_permutation(&g, &ix).unwrap();
        assert_eq!(canon.group_order(), 24); // 4! leaf orders
        let mut scratch = CanonScratch::default();
        // Hub state is untouched; leaf digits sort ascending.
        let full = ix.encode(&crate::Configuration::from_vec(vec![2u8, 1, 0, 2, 0]));
        let c = canon.canonical(full, &mut scratch);
        assert_eq!(
            ix.decode(c).states(),
            &[2u8, 0, 0, 1, 2],
            "leaves sorted, hub fixed"
        );
        // Orbit = multinomial over the leaf digit multiset {0,0,1,2}.
        assert_eq!(canon.orbit(full, &mut scratch), 12);
        // Orbits tile the space.
        let mut covered = 0u64;
        for full in 0..ix.total() {
            if canon.canonical(full, &mut scratch) == full {
                covered += canon.orbit(full, &mut scratch);
            }
        }
        assert_eq!(covered, ix.total());
    }

    #[test]
    fn leaf_classes_have_two_generators_that_generate_sym() {
        for (leaves, generators) in [(2, 1), (3, 2), (5, 2)] {
            let (g, ix) = space(builders::star(leaves + 1), 2);
            let canon = GroupCanonicalizer::leaf_permutation(&g, &ix).unwrap();
            assert_eq!(
                canon.generators().len(),
                generators,
                "star of {leaves} leaves"
            );
            let group = close_under_composition(g.n(), canon.generators()).unwrap();
            assert_eq!(group.len() as u64, canon.group_order(), "Sym({leaves})");
        }
    }

    #[test]
    fn explicit_group_matches_dihedral_on_rings() {
        // Feeding the dihedral generators as an explicit permutation set
        // must canonicalize identically to the structured strategy.
        let (g, ix) = space(builders::ring(5), 2);
        let dih = GroupCanonicalizer::ring_dihedral(&g, &ix).unwrap();
        let rot = RingRotations::of(&g).unwrap();
        let explicit =
            GroupCanonicalizer::from_permutations(&ix, &[rot.permutation(1), rot.reflection()])
                .unwrap();
        assert_eq!(explicit.group_order(), 10);
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

    #[test]
    fn apply_perm_round_trips_through_generators() {
        let (ix, canon) = ring_canon(5, 3, true);
        let mut scratch = CanonScratch::default();
        for full in (0..ix.total()).step_by(7) {
            for perm in canon.generators() {
                let image = canon.apply_perm(full, perm);
                assert_eq!(
                    canon.canonical(image, &mut scratch),
                    canon.canonical(full, &mut scratch),
                    "orbit-invariant at {full}"
                );
            }
        }
    }

    #[test]
    fn grid_reflections_tile_the_space() {
        // 2×3 rectangle: C₂ × C₂, order 4.
        let (g, ix) = space(builders::grid(2, 3), 2);
        let canon = GroupCanonicalizer::automorphism(&g, &ix).unwrap();
        assert_eq!(canon.group_order(), 4);
        let mut scratch = CanonScratch::default();
        let mut covered = 0u64;
        for full in 0..ix.total() {
            if canon.canonical(full, &mut scratch) == full {
                let orbit = canon.orbit(full, &mut scratch);
                assert!(canon.group_order().is_multiple_of(orbit));
                covered += orbit;
            }
        }
        assert_eq!(covered, ix.total(), "grid reflection orbits tile");
        // 2×2 is a ring in grid labelling? No — grid labelling differs
        // from ring labelling, but the *graph* is still a 4-cycle, so the
        // dihedral strategy handles it.
        let (g, ix) = space(builders::grid(2, 2), 2);
        assert!(g.is_ring());
        assert!(GroupCanonicalizer::automorphism(&g, &ix).is_ok());
        // 3×3 square gains the transpose: D₄, order 8.
        let (g, ix) = space(builders::grid(3, 3), 2);
        let canon = GroupCanonicalizer::automorphism(&g, &ix).unwrap();
        assert_eq!(canon.group_order(), 8);
    }

    #[test]
    fn grid_canonical_is_least_over_reflections() {
        let (g, ix) = space(builders::grid(2, 3), 2);
        let canon = GroupCanonicalizer::automorphism(&g, &ix).unwrap();
        let mut scratch = CanonScratch::default();
        // Brute-force the four images of each configuration.
        let reflect = |states: &[u8], fr: bool, fc: bool| -> Vec<u8> {
            (0..6)
                .map(|v| {
                    let (mut r, mut c) = (v / 3, v % 3);
                    if fr {
                        r = 1 - r;
                    }
                    if fc {
                        c = 2 - c;
                    }
                    states[r * 3 + c]
                })
                .collect()
        };
        for full in 0..ix.total() {
            let c = canon.canonical(full, &mut scratch);
            let states: Vec<u8> = ix.decode(full).states().to_vec();
            let min = [(false, false), (true, false), (false, true), (true, true)]
                .into_iter()
                .map(|(fr, fc)| reflect(&states, fr, fc))
                .min()
                .unwrap();
            let min_full = ix.encode(&crate::Configuration::from_vec(min));
            assert_eq!(c, min_full, "reflection-orbit minimum of {full}");
        }
    }

    #[test]
    fn degenerate_grid_path_gets_the_reflection() {
        let (g, ix) = space(builders::path(4), 2);
        let canon = GroupCanonicalizer::automorphism(&g, &ix).unwrap();
        assert_eq!(canon.group_order(), 2);
        let mut scratch = CanonScratch::default();
        let flip = ix.encode(&crate::Configuration::from_vec(vec![1u8, 0, 0, 0]));
        let kept = ix.encode(&crate::Configuration::from_vec(vec![0u8, 0, 0, 1]));
        assert_eq!(canon.canonical(flip, &mut scratch), kept);
    }

    #[test]
    fn non_rings_are_rejected_cleanly() {
        for g in [
            builders::path(1),
            builders::path(2),
            builders::path(4),
            builders::star(5),
        ] {
            let (g, ix) = space(g, 2);
            for dihedral in [false, true] {
                let err = GroupCanonicalizer::ring(&g, &ix, dihedral).unwrap_err();
                assert!(
                    matches!(err, CoreError::QuotientUnsupported { .. }),
                    "{err}"
                );
                assert!(err.to_string().contains("not a ring"));
            }
        }
    }

    #[test]
    fn leafless_graphs_are_rejected_for_leaf_quotients() {
        let (g, ix) = space(builders::ring(5), 2);
        let err = GroupCanonicalizer::leaf_permutation(&g, &ix).unwrap_err();
        assert!(err.to_string().contains("same-parent leaves"));
        let (g, ix) = space(builders::path(4), 2);
        let err = GroupCanonicalizer::leaf_permutation(&g, &ix).unwrap_err();
        assert!(matches!(err, CoreError::QuotientUnsupported { .. }));
    }

    #[test]
    fn unequal_alphabets_are_rejected() {
        struct Lopsided {
            g: Graph,
        }
        impl Algorithm for Lopsided {
            type State = u8;
            fn graph(&self) -> &Graph {
                &self.g
            }
            fn name(&self) -> String {
                "lopsided".into()
            }
            fn state_space(&self, v: NodeId) -> Vec<u8> {
                if v.index() == 1 {
                    vec![0, 1, 2]
                } else {
                    vec![0, 1]
                }
            }
            fn enabled_actions<V: View<u8>>(&self, _v: &V) -> ActionMask {
                ActionMask::empty()
            }
            fn apply<V: View<u8>>(&self, _v: &V, _a: ActionId) -> Outcomes<u8> {
                unreachable!("never enabled")
            }
        }
        let alg = Lopsided {
            g: builders::ring(4),
        };
        let ix = SpaceIndexer::new(&alg, 1 << 20).unwrap();
        for build in [
            GroupCanonicalizer::ring_rotation(alg.graph(), &ix),
            GroupCanonicalizer::ring_dihedral(alg.graph(), &ix),
        ] {
            assert!(build.unwrap_err().to_string().contains("alphabets differ"));
        }
        // Leaf classes with unequal leaf alphabets are rejected too.
        struct LopsidedStar {
            g: Graph,
        }
        impl Algorithm for LopsidedStar {
            type State = u8;
            fn graph(&self) -> &Graph {
                &self.g
            }
            fn name(&self) -> String {
                "lopsided-star".into()
            }
            fn state_space(&self, v: NodeId) -> Vec<u8> {
                if v.index() == 2 {
                    vec![0, 1, 2]
                } else {
                    vec![0, 1]
                }
            }
            fn enabled_actions<V: View<u8>>(&self, _v: &V) -> ActionMask {
                ActionMask::empty()
            }
            fn apply<V: View<u8>>(&self, _v: &V, _a: ActionId) -> Outcomes<u8> {
                unreachable!("never enabled")
            }
        }
        let alg = LopsidedStar {
            g: builders::star(4),
        };
        let ix = SpaceIndexer::new(&alg, 1 << 20).unwrap();
        let err = GroupCanonicalizer::leaf_permutation(alg.graph(), &ix).unwrap_err();
        assert!(err.to_string().contains("alphabets differ"));
    }

    #[test]
    fn explicit_closure_is_capped() {
        // A 16-node star's leaf transpositions generate 15! ≫ the cap.
        let (g, ix) = space(builders::star(16), 2);
        let perms: Vec<Vec<NodeId>> = (1..15)
            .map(|i| {
                let mut p: Vec<NodeId> = (0..16).map(NodeId::new).collect();
                p.swap(i, i + 1);
                p
            })
            .collect();
        let _ = g;
        let err = GroupCanonicalizer::from_permutations(&ix, &perms).unwrap_err();
        assert!(err.to_string().contains("closure"));
    }

    /// Checks pass 1's orbit table against canonicalize-then-lookup on
    /// `total` indices: every index maps to the id of its canonical form,
    /// ids ascend with the representative index, the orbit sizes sum to
    /// `total`, and the table-less pass yields the same representatives.
    /// Returns the orbit sizes in id order.
    fn check_orbit_table(canon: &GroupCanonicalizer, total: u64) -> Vec<u64> {
        use super::super::traverse::representatives;
        let (table, ids) = representatives(canon, total, true).unwrap();
        let ids = ids.expect("the table is kept on request");
        assert_eq!(ids.len() as u64, total);
        let mut scratch = CanonScratch::default();
        for full in 0..total {
            let rep = canon.canonical(full, &mut scratch);
            assert_eq!(table.lookup(rep), Some(ids[full as usize]), "index {full}");
        }
        let (reps, orbits) = table.parts();
        assert!(reps.windows(2).all(|w| w[0] < w[1]), "ids ascend");
        assert_eq!(orbits.iter().sum::<u64>(), total);
        let (bare, none) = representatives(canon, total, false).unwrap();
        assert!(none.is_none());
        assert_eq!(bare.parts(), table.parts());
        orbits.to_vec()
    }

    /// The four strategies on random small spaces: rotations and the
    /// dihedral group of a ring, leaf classes of a caterpillar, and the
    /// explicit reflection group of a grid.
    mod orbit_table_props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(24))]

            #[test]
            fn orbit_table_equals_canonicalize_then_lookup(
                (n, radix) in (3usize..9, 2u8..4),
                legs in 1usize..4,
                rows in 1usize..4,
            ) {
                let (g, ix) = space(builders::ring(n), radix);
                for canon in [
                    GroupCanonicalizer::ring_rotation(&g, &ix).unwrap(),
                    GroupCanonicalizer::ring_dihedral(&g, &ix).unwrap(),
                ] {
                    check_orbit_table(&canon, ix.total());
                }
                let (g, ix) = space(builders::caterpillar(2, legs + 1), radix);
                let canon = GroupCanonicalizer::leaf_permutation(&g, &ix).unwrap();
                check_orbit_table(&canon, ix.total());
                let (g, ix) = space(builders::grid(rows, 3), 2);
                let canon = GroupCanonicalizer::automorphism(&g, &ix).unwrap();
                prop_assert!(matches!(canon.strategy, crate::engine::quotient::Strategy::Explicit(_)));
                check_orbit_table(&canon, ix.total());
            }
        }
    }

    /// The dihedral table on binary necklaces of length 6, which hold
    /// both a chiral orbit (`001011` and its mirror: all 12 images
    /// distinct) and non-uniform periodic ones (`010101`: 2 images), and
    /// on a 14-node ring, whose 16,384 indices split across worker
    /// chunks.
    #[test]
    fn dihedral_orbit_table_covers_chiral_periodic_and_chunked_spaces() {
        let (ix, canon) = ring_canon(6, 2, true);
        let orbits = check_orbit_table(&canon, ix.total());
        assert!(orbits.contains(&12), "a chiral orbit");
        assert!(orbits.contains(&2), "a periodic orbit");
        let (ix, canon) = ring_canon(14, 2, true);
        assert_eq!(ix.total(), 1 << 14);
        check_orbit_table(&canon, ix.total());
    }
}
