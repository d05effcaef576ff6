//! Linear solvers for the fundamental-matrix equation `(I − Q) x = b`:
//! dense Gaussian elimination with partial pivoting for small systems, and
//! sparse Gauss–Seidel for large ones (convergent because `Q` is
//! substochastic with almost-sure absorption).
//!
//! Both solvers take `K` right-hand sides at once (the chain solves
//! `b = 1` for expected times and `b = absorb` for absorption
//! probabilities together), and the one-side entry points are the `K = 1`
//! case of the same code. Each column of a `K`-side solve is bit-identical
//! to its one-side solve: elimination pivots depend only on `A`, and a
//! Gauss–Seidel side freezes, block by block, at the sweep its own
//! max-update over the block falls below the tolerance.
//!
//! Gauss–Seidel solves one strongly connected block of `Q` at a time, in
//! the order the engine's Tarjan pass emits them: sinks first, so every
//! value a block reads from outside itself is already final. A block
//! converges at its own rate instead of being re-swept until the slowest
//! block settles — Herman's token count never rises, so its `Q` is
//! block-triangular, and on the N=15 dihedral quotient this cuts the
//! decoded entries of the fused solve from 87.3 M (273 whole-chain
//! sweeps) to 5.4 M, the Tarjan walk included. A chain whose transient
//! rows form one block runs the plain whole-chain iteration, bit for bit.
//!
//! The sparse solver is generic over [`QRows`], so it runs unchanged
//! over the flat [`QMatrix`] and over the delta stream
//! that holds the compressed and disk tiers
//! ([`DeltaStream`](stab_core::engine::DeltaStream), resident or
//! spilled). The block order costs one decode of `Q` (the Tarjan walk)
//! and O(n) `u32`s. A chain walks its `Q` once: the same blocks decide
//! its almost-sure absorption check and order its solves.
//!
//! Each block of more than one row is then decoded once into a flat
//! [`QMatrix`] — its `(column, probability)` entries and row ends — and
//! its sweeps read that scratch (one per solve, cleared per block with
//! its capacity kept): on the compressed and disk tiers, where the
//! varint decode is most of a sweep's cost, that decode is paid once
//! per block instead of once per sweep. The scratch obeys the
//! byte-budget rule the engine's orbit table keeps to: the decode stops
//! at the first row that takes the scratch past its bound, and such a
//! block is swept straight from the store, decoding its rows once per
//! sweep, which is what lets 10⁸-entry chains fit. The chain's solves
//! bound the scratch by [`DEFAULT_BYTE_BUDGET`] on the compressed and
//! disk tiers and by 0 on a flat `Q`, whose rows are flat already, so a
//! copy would buy nothing; [`gauss_seidel_multi`] uses the budget on any
//! store. A singleton block is swept once, so it is read from the store
//! too. Both row sources hand a sweep the same entries in the same
//! order, so the iterates are bit-identical either way.

use std::convert::Infallible;

use stab_core::engine::{Budget, Components, DEFAULT_BYTE_BUDGET};

use crate::error::MarkovError;
use crate::qstore::{QMatrix, QRows};

/// Solves the dense system `A x = b` by Gaussian elimination with partial
/// pivoting, consuming the inputs (the one-side case of
/// [`solve_dense_multi`]).
///
/// # Errors
///
/// [`MarkovError::Singular`] on a vanishing pivot.
pub fn solve_dense(a: Vec<Vec<f64>>, b: Vec<f64>) -> Result<Vec<f64>, MarkovError> {
    solve_dense_multi(a, [b]).map(|[x]| x)
}

/// Solves `A X = B` for `K` right-hand-side columns with one elimination:
/// the row swaps and multipliers are applied to every column, and each
/// column is then back-substituted on its own, so column `k` is
/// bit-identical to `solve_dense(a, bs[k])`.
///
/// # Errors
///
/// [`MarkovError::Singular`] on a vanishing pivot.
///
/// # Panics
///
/// Panics if `a` is not square or a column's length differs from it.
pub fn solve_dense_multi<const K: usize>(
    mut a: Vec<Vec<f64>>,
    mut bs: [Vec<f64>; K],
) -> Result<[Vec<f64>; K], MarkovError> {
    let n = a.len();
    assert!(a.iter().all(|row| row.len() == n), "matrix must be square");
    assert!(bs.iter().all(|b| b.len() == n), "dimension mismatch");
    for col in 0..n {
        // Partial pivot.
        let pivot = (col..n)
            .max_by(|&i, &j| a[i][col].abs().total_cmp(&a[j][col].abs()))
            .expect("non-empty range");
        if a[pivot][col].abs() < 1e-300 {
            return Err(MarkovError::Singular);
        }
        a.swap(col, pivot);
        bs.iter_mut().for_each(|b| b.swap(col, pivot));
        let (top, rest) = a[col..].split_first_mut().expect("col < n");
        let inv = 1.0 / top[col];
        for (row, below) in rest.iter_mut().zip(col + 1..) {
            let factor = row[col] * inv;
            if factor == 0.0 {
                continue;
            }
            let updates = row[col..].iter_mut().zip(&top[col..]);
            updates.for_each(|(x, &t)| *x -= factor * t);
            bs.iter_mut().for_each(|b| b[below] -= factor * b[col]);
        }
    }
    // Back substitution, column by column.
    Ok(bs.map(|b| {
        let mut x = vec![0.0; n];
        for row in (0..n).rev() {
            let tail = a[row][row + 1..].iter().zip(&x[row + 1..]);
            let acc = tail.fold(b[row], |acc, (&a_rk, &x_k)| acc - a_rk * x_k);
            x[row] = acc / a[row][row];
        }
        x
    }))
}

/// Solves `(I − Q) x = b` by Gauss–Seidel iteration, where row `i` of the
/// CSR matrix `q` holds the sparse entries `(j, Q_ij)` of the
/// substochastic matrix `Q` (the one-side case of [`gauss_seidel_multi`],
/// unbudgeted).
///
/// The iteration `x_i ← b_i + Σ_j Q_ij x_j` converges whenever every state
/// eventually absorbs (spectral radius of `Q` below 1).
///
/// # Errors
///
/// [`MarkovError::SolverDiverged`] if the max-update falls below `tol`
/// within `max_iter` sweeps.
pub fn gauss_seidel<M: QRows>(
    q: &M,
    b: &[f64],
    tol: f64,
    max_iter: usize,
) -> Result<Vec<f64>, MarkovError> {
    gauss_seidel_multi(q, [b], tol, max_iter, &Budget::unlimited()).map(|[x]| x)
}

/// Gauss–Seidel over `K` right-hand sides at once, one strongly
/// connected block of `q` at a time: one walk of `q` orders the blocks,
/// and each block is decoded once into a flat scratch when that fits the
/// byte budget (see the module docs).
///
/// The blocks of `q`'s off-diagonal graph come from the engine's Tarjan
/// pass ([`Components::walk`]), which emits a block only
/// after every block it reaches, so each block is solved with its
/// successors' values already final. Rows are swept in ascending index
/// order within a block. A block converges when every side's max-update
/// over it falls below `tol`; a singleton block is solved by one exact
/// pass, since its first value is already the fixed point. A chain whose
/// rows form one block therefore runs the plain whole-chain iteration.
///
/// Every sweep reads each row of its block once and updates every side
/// that is still live in the block. A side freezes in a block once its
/// own max-update falls below `tol`, so its iterates, sweep counts and
/// result are bit-identical to a one-side solve.
///
/// The `budget` is probed once per sweep with the running sweep
/// count, so an exhausted wall-clock budget interrupts a slowly
/// converging iteration with a typed error instead of spinning to
/// `max_iter`. The probe carries [`QRows::resident_bytes`] — the disk
/// tier's cache-pressure figure — plus the block scratch, so a byte
/// budget observes the cache and the decoded block, not the spilled
/// stream.
///
/// # Errors
///
/// [`MarkovError::SolverDiverged`] carrying the first unconverged side's
/// own residual in the first block still live after `max_iter` sweeps,
/// and [`MarkovError::Core`]`(`[`CoreError::BudgetExhausted`]`)` when a
/// probe trips.
///
/// # Panics
///
/// Panics if a side's length differs from `q`'s row count.
///
/// [`CoreError::BudgetExhausted`]: stab_core::CoreError::BudgetExhausted
pub fn gauss_seidel_multi<M: QRows, const K: usize>(
    q: &M,
    bs: [&[f64]; K],
    tol: f64,
    max_iter: usize,
    budget: &Budget,
) -> Result<[Vec<f64>; K], MarkovError> {
    let blocks = blocks(q.n_rows(), |i| q.row_iter(i as usize).map(|(j, _)| j));
    gauss_seidel_blocks(q, &blocks, bs, tol, max_iter, budget, DEFAULT_BYTE_BUDGET)
}

/// [`gauss_seidel_multi`] over blocks already walked (the chain's one
/// decomposition of its `Q`, which also decided its absorption check),
/// decoding a block of more than one row once while it fits `bound`
/// bytes ([`decode_into`]) and sweeping any other block from `q`.
///
/// # Errors
///
/// As [`gauss_seidel_multi`].
///
/// # Panics
///
/// As [`gauss_seidel_multi`], and on a block row outside `q`: `blocks`
/// must come from a walk of `q` ([`blocks`]).
pub(crate) fn gauss_seidel_blocks<M: QRows, const K: usize>(
    q: &M,
    blocks: &Components,
    bs: [&[f64]; K],
    tol: f64,
    max_iter: usize,
    budget: &Budget,
    bound: u64,
) -> Result<[Vec<f64>; K], MarkovError> {
    let n = q.n_rows();
    assert!(bs.iter().all(|b| b.len() == n), "dimension mismatch");
    let (mut xs, mut sweep) = (bs.map(<[f64]>::to_vec), 0u64);
    let mut scratch = QMatrix::default();
    for block in blocks.iter() {
        let decoded =
            (block.len() > 1 && decode_into(q, block, bound, &mut scratch)).then_some(&scratch);
        // lint: cast-ok(usize fits u64 on every supported target)
        let held = 16 * decoded.as_ref().map_or(0, |d| d.n_entries() + d.n_rows()) as u64;
        let (mut live, mut residual) = ([true; K], [f64::INFINITY; K]);
        for _ in 0..max_iter {
            if !live.contains(&true) {
                break;
            }
            budget.probe("solver", q.resident_bytes() + held, sweep)?;
            sweep += 1;
            residual = match &decoded {
                Some(d) => sweep_block(block, bs, &mut xs, live, |k, _| d.row_iter(k))?,
                None => sweep_block(block, bs, &mut xs, live, |_, i| q.row_iter(i))?,
            };
            live = std::array::from_fn(|s| live[s] && residual[s] >= tol && block.len() > 1);
        }
        if let Some(s) = live.iter().position(|&l| l) {
            return Err(MarkovError::SolverDiverged {
                iterations: max_iter,
                residual: residual[s],
            });
        }
    }
    Ok(xs)
}

/// One sweep of `block`, rows in ascending index order, updating the
/// `live` sides; returns each side's max-update. `row(k, i)` yields row
/// `i`, the block's `k`-th, from the block's scratch or from the store:
/// the same entries in the same order, so the iterates are
/// bit-identical. Generic over the row source, so each source gets its
/// own copy of the loop.
fn sweep_block<I: Iterator<Item = (u32, f64)>, const K: usize>(
    block: &[u32],
    bs: [&[f64]; K],
    xs: &mut [Vec<f64>; K],
    live: [bool; K],
    row: impl Fn(usize, usize) -> I,
) -> Result<[f64; K], MarkovError> {
    let mut residual = [0.0f64; K];
    for (k, &i) in block.iter().enumerate() {
        let i = i as usize;
        let mut acc: [f64; K] = std::array::from_fn(|s| bs[s][i]);
        let mut diag = 0.0;
        for (j, p) in row(k, i) {
            if j as usize == i {
                diag += p;
            } else {
                (0..K).for_each(|s| acc[s] += p * xs[s][j as usize]);
            }
        }
        // Self-loop mass folds into the diagonal: (1 − Q_ii) x_i = acc.
        let denom = 1.0 - diag;
        if denom.abs() < 1e-300 {
            // A transient state that never leaves itself: hitting
            // times diverge (callers rule this out via absorption
            // checks).
            return Err(MarkovError::SolverDiverged {
                iterations: 0,
                residual: f64::INFINITY,
            });
        }
        for s in (0..K).filter(|&s| live[s]) {
            let next = acc[s] / denom;
            residual[s] = residual[s].max((next - xs[s][i]).abs());
            xs[s][i] = next;
        }
    }
    Ok(residual)
}

/// Reads `block`'s rows once from `q` into `scratch`, row `k` the
/// block's `k`-th, and returns whether they fit `bound` bytes, counting
/// 16 per row and per `(column, probability)` entry; if not, its sweeps
/// read `q`. The decode stops at the first row past the bound, so an
/// oversized block costs one bounded partial decode. One scratch serves
/// every block of a solve: it is cleared per block and keeps its
/// capacity, which may run ahead of its length, but the pages past the
/// longest decode are never written.
fn decode_into<M: QRows>(q: &M, block: &[u32], bound: u64, scratch: &mut QMatrix) -> bool {
    // lint: cast-ok(usize fits u64 on every supported target)
    let limit = (bound / 16).saturating_sub(block.len() as u64);
    scratch.clear();
    block.iter().all(|&i| {
        // lint: cast-ok(usize fits u64 on every supported target)
        scratch.push_row(q.row_iter(i as usize)).is_ok() && limit >= scratch.n_entries() as u64
    })
}

/// The rows `0..n` grouped by strongly connected block of the graph with
/// successors `row(i)`, blocks sinks first and rows ascending within a
/// block. Self-loops do not change the blocks, so `Q`'s rows can be
/// walked as stored.
pub(crate) fn blocks<I: Iterator<Item = u32>>(n: usize, row: impl FnMut(u32) -> I) -> Components {
    let Ok(blocks) = Components::walk(
        n,
        // lint: cast-ok(Q columns are u32, so row indices fit u32)
        0..n as u32,
        row,
        |_| Ok::<(), Infallible>(()),
        |block| block.sort_unstable(),
    );
    blocks
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dense_solves_identity() {
        let a = vec![vec![1.0, 0.0], vec![0.0, 1.0]];
        let x = solve_dense(a, vec![3.0, 4.0]).unwrap();
        assert_eq!(x, vec![3.0, 4.0]);
    }

    #[test]
    fn dense_solves_2x2() {
        // [2 1; 1 3] x = [5; 10] -> x = [1; 3]
        let a = vec![vec![2.0, 1.0], vec![1.0, 3.0]];
        let x = solve_dense(a, vec![5.0, 10.0]).unwrap();
        assert!((x[0] - 1.0).abs() < 1e-12);
        assert!((x[1] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn dense_needs_pivoting() {
        // Zero on the initial diagonal; pivoting must handle it.
        let a = vec![vec![0.0, 1.0], vec![1.0, 0.0]];
        let x = solve_dense(a, vec![7.0, 9.0]).unwrap();
        assert!((x[0] - 9.0).abs() < 1e-12);
        assert!((x[1] - 7.0).abs() < 1e-12);
    }

    #[test]
    fn dense_detects_singular() {
        let a = vec![vec![1.0, 2.0], vec![2.0, 4.0]];
        assert_eq!(
            solve_dense(a, vec![1.0, 2.0]).unwrap_err(),
            MarkovError::Singular
        );
    }

    #[test]
    fn gauss_seidel_geometric_chain() {
        // Single transient state with self-loop 1/2: (1 - 1/2) t = 1 -> t=2.
        let q = QMatrix::from_rows(vec![vec![(0u32, 0.5)]]);
        let x = gauss_seidel(&q, &[1.0], 1e-12, 10_000).unwrap();
        assert!((x[0] - 2.0).abs() < 1e-9);
    }

    #[test]
    fn gauss_seidel_matches_dense_on_random_chain() {
        // A 4-state substochastic matrix with leakage.
        let q = QMatrix::from_rows(vec![
            vec![(1u32, 0.5), (2, 0.25)],
            vec![(0u32, 0.3), (3, 0.3)],
            vec![(2u32, 0.6), (0, 0.2)],
            vec![(1u32, 0.9)],
        ]);
        let b = vec![1.0; 4];
        let gs = gauss_seidel(&q, &b, 1e-13, 100_000).unwrap();
        // Dense version of (I - Q).
        let mut a = vec![vec![0.0; 4]; 4];
        for (i, row) in q.rows().enumerate() {
            a[i][i] += 1.0;
            for &(j, p) in row {
                a[i][j as usize] -= p;
            }
        }
        let dense = solve_dense(a, b).unwrap();
        for i in 0..4 {
            assert!(
                (gs[i] - dense[i]).abs() < 1e-8,
                "state {i}: {} vs {}",
                gs[i],
                dense[i]
            );
        }
    }

    #[test]
    fn gauss_seidel_budget_trips_as_typed_core_error() {
        let q = QMatrix::from_rows(vec![vec![(0u32, 0.5)]]);
        let expired = Budget::unlimited().with_wall_time(std::time::Duration::ZERO);
        let err = gauss_seidel_multi(&q, [&[1.0]], 1e-12, 10_000, &expired).unwrap_err();
        assert!(matches!(
            err,
            MarkovError::Core(stab_core::CoreError::BudgetExhausted {
                stage: "solver",
                ..
            })
        ));
    }

    #[test]
    fn gauss_seidel_reports_divergence() {
        // Stochastic row with no leakage anywhere: no absorption, the
        // iteration cannot settle.
        let q = QMatrix::from_rows(vec![vec![(0u32, 1.0)]]);
        let err = gauss_seidel(&q, &[1.0], 1e-12, 50).unwrap_err();
        assert!(matches!(err, MarkovError::SolverDiverged { .. }));
    }

    fn bits(x: &[f64]) -> Vec<u64> {
        x.iter().map(|v| v.to_bits()).collect()
    }

    /// The 4-state leaky chain of `gauss_seidel_matches_dense_on_random_chain`.
    fn leaky4() -> QMatrix {
        QMatrix::from_rows(vec![
            vec![(1u32, 0.5), (2, 0.25)],
            vec![(0u32, 0.3), (3, 0.3)],
            vec![(2u32, 0.6), (0, 0.2)],
            vec![(1u32, 0.9)],
        ])
    }

    /// The smallest sweep cap under which a one-side solve converges.
    fn sweeps_to_converge(q: &QMatrix, b: &[f64], tol: f64) -> usize {
        (1..10_000)
            .find(|&m| gauss_seidel(q, b, tol, m).is_ok())
            .expect("converges")
    }

    #[test]
    fn dense_columns_are_bit_identical_to_one_side_solves() {
        // Zero leading diagonal forces a row swap; the third column is
        // all zeros, so its multipliers meet exact zeros throughout.
        let a = vec![
            vec![0.0, 2.0, 1.0, 0.5],
            vec![3.0, -1.0, 0.25, 0.0],
            vec![1.0, 1.0 / 3.0, 4.0, -2.0],
            vec![0.1, 0.0, 0.7, 5.0],
        ];
        let bs = [vec![1.0; 4], vec![0.3, -7.0, 1.0 / 7.0, 2.5], vec![0.0; 4]];
        let multi = solve_dense_multi(a.clone(), bs.clone()).unwrap();
        for (b, x) in bs.into_iter().zip(&multi) {
            assert_eq!(bits(&solve_dense(a.clone(), b).unwrap()), bits(x));
        }
        let singular = vec![vec![1.0, 2.0], vec![2.0, 4.0]];
        assert_eq!(
            solve_dense_multi(singular, [vec![1.0, 2.0], vec![0.0, 1.0]]).unwrap_err(),
            MarkovError::Singular
        );
    }

    #[test]
    fn gauss_seidel_sides_are_bit_identical_and_freeze_at_their_own_sweep() {
        let q = leaky4();
        let tol = 1e-13;
        // Tolerances are absolute, so the scaled-down side converges in
        // fewer sweeps than the unit side.
        let ones = [1.0; 4];
        let absorb = [0.25, 0.4, 0.2, 0.1];
        let tiny = [1e-9, 0.0, 3e-9, 0.0];
        let counts = [&ones, &absorb, &tiny].map(|b| sweeps_to_converge(&q, b, tol));
        assert!(
            counts[2] < counts[0] && counts[2] < counts[1],
            "sides must converge at different sweeps: {counts:?}"
        );
        let unlimited = Budget::unlimited();
        let multi =
            gauss_seidel_multi(&q, [&ones[..], &absorb, &tiny], tol, 10_000, &unlimited).unwrap();
        for (b, x) in [&ones[..], &absorb, &tiny].into_iter().zip(&multi) {
            assert_eq!(bits(&gauss_seidel(&q, b, tol, 10_000).unwrap()), bits(x));
        }
        // A cap between the sweep counts: the early side converged, the
        // others did not, and the error carries the first live side's own
        // residual.
        let cap = counts[2];
        let err =
            gauss_seidel_multi(&q, [&tiny[..], &ones, &absorb], tol, cap, &unlimited).unwrap_err();
        assert_eq!(err, gauss_seidel(&q, &ones, tol, cap).unwrap_err());
    }

    #[test]
    fn a_side_that_cannot_converge_reports_its_own_residual() {
        // Two states swapping with no leakage: the zero side stays at its
        // fixed point, the unit side grows by one per sweep forever.
        let q = QMatrix::from_rows(vec![vec![(1u32, 1.0)], vec![(0u32, 1.0)]]);
        let zero = [0.0; 2];
        let ones = [1.0; 2];
        let solo = gauss_seidel(&q, &ones, 1e-12, 50).unwrap_err();
        assert!(matches!(
            solo,
            MarkovError::SolverDiverged { iterations: 50, residual } if residual >= 1.0
        ));
        let unlimited = Budget::unlimited();
        for sides in [[&zero[..], &ones], [&ones[..], &zero]] {
            let err = gauss_seidel_multi(&q, sides, 1e-12, 50, &unlimited).unwrap_err();
            assert_eq!(err, solo);
        }
        // Two failing sides: the first one's residual is reported.
        let threes = [3.0; 2];
        let err = gauss_seidel_multi(&q, [&threes[..], &ones], 1e-12, 50, &unlimited);
        assert_eq!(
            err.unwrap_err(),
            gauss_seidel(&q, &threes, 1e-12, 50).unwrap_err()
        );
        assert_ne!(
            gauss_seidel(&q, &threes, 1e-12, 50).unwrap_err(),
            solo,
            "the two sides' residuals differ"
        );
    }

    #[test]
    fn multi_side_budget_probes_once_per_sweep() {
        // Budget states are the sweep index: a limit of 3 admits sweeps
        // 0..=3 and trips on the fifth, however many sides there are.
        let q = leaky4();
        let b = [1.0; 4];
        let budget = Budget::unlimited().with_max_states(3);
        let err = gauss_seidel_multi(&q, [&b[..], &b], 1e-13, 100, &budget).unwrap_err();
        assert!(matches!(
            err,
            MarkovError::Core(stab_core::CoreError::BudgetExhausted { used: 4, .. })
        ));
        assert_eq!(budget.probes_seen(), 5);
    }

    /// Dense `(I − Q)` of a flat `Q`.
    fn i_minus(q: &QMatrix) -> Vec<Vec<f64>> {
        let n = q.n_rows();
        let mut a = vec![vec![0.0; n]; n];
        for (i, row) in q.rows().enumerate() {
            a[i][i] += 1.0;
            for &(j, p) in row {
                a[i][j as usize] -= p;
            }
        }
        a
    }

    /// Four blocks, interleaved in index order: the leaking cycle
    /// {1, 4} (the sink), {0, 2} above it (2 with a self-loop), and the
    /// singletons 3 (self-loop) and 5 above those.
    fn multi_block() -> QMatrix {
        QMatrix::from_rows(vec![
            vec![(1u32, 0.2), (2, 0.5)],
            vec![(4u32, 0.6)],
            vec![(0u32, 0.4), (2, 0.1), (4, 0.3)],
            vec![(0u32, 0.3), (3, 0.5), (4, 0.1)],
            vec![(1u32, 0.5)],
            vec![(3u32, 0.9)],
        ])
    }

    fn walk(q: &QMatrix) -> Components {
        blocks(q.n_rows(), |i| q.row(i as usize).iter().map(|e| e.0))
    }

    #[test]
    fn blocks_come_sinks_first_rows_ascending() {
        let of = |q: &QMatrix| walk(q).iter().map(<[u32]>::to_vec).collect::<Vec<_>>();
        assert_eq!(
            of(&multi_block()),
            [vec![1, 4], vec![0, 2], vec![3], vec![5]]
        );
        assert_eq!(of(&leaky4()), [vec![0, 1, 2, 3]]);
    }

    /// Two rows, each other's successor: row 0 repeats one entry `.0`
    /// times, row 1 holds one.
    struct Wide(usize);

    impl QRows for Wide {
        type Row<'a> = std::iter::RepeatN<(u32, f64)>;

        fn n_rows(&self) -> usize {
            2
        }

        fn row_iter(&self, i: usize) -> Self::Row<'_> {
            let (to, len) = if i == 0 { (1, self.0) } else { (0, 1) };
            std::iter::repeat_n((to, 1e-9), len)
        }
    }

    /// [`decode_into`] a fresh scratch: the block's rows, or `None` if
    /// they take more than `bound` bytes.
    fn decode<M: QRows>(q: &M, block: &[u32], bound: u64) -> Option<QMatrix> {
        let mut scratch = QMatrix::default();
        decode_into(q, block, bound, &mut scratch).then_some(scratch)
    }

    /// A scratch that held a larger block, or stopped part way through
    /// one, decodes the next block as a fresh one does.
    #[test]
    fn a_reused_block_scratch_decodes_like_a_fresh_one() {
        let q = multi_block();
        let mut scratch = QMatrix::default();
        for (block, bound) in [([0u32, 2], 112), ([1, 4], 64), ([0, 2], 111), ([1, 4], 64)] {
            let fresh = decode(&q, &block, bound);
            let fits = decode_into(&q, &block, bound, &mut scratch);
            assert_eq!(
                fits.then_some(&scratch),
                fresh.as_ref(),
                "{block:?} in {bound} B"
            );
        }
    }

    /// A block decodes while its rows and entries, 16 bytes each, fit
    /// the byte budget, and one entry more is swept from the store: the
    /// two-row block whose 2^21 − 2 entries fill the 32 MiB budget
    /// exactly decodes. A bound below a block's first row stops the
    /// decode there.
    #[test]
    fn block_scratch_bound_is_the_byte_budget() {
        let fits = DEFAULT_BYTE_BUDGET as usize / 16 - 2;
        let decoded = decode(&Wide(fits - 1), &[0, 1], DEFAULT_BYTE_BUDGET).unwrap();
        assert_eq!((decoded.n_rows(), decoded.n_entries()), (2, fits));
        assert_eq!(decoded.row_iter(1).collect::<Vec<_>>(), [(0, 1e-9)]);
        drop(decoded);
        assert!(decode(&Wide(fits), &[0, 1], DEFAULT_BYTE_BUDGET).is_none());
        // multi_block's cycle {0, 2} stores 5 entries: 112 bytes.
        let q = multi_block();
        let decoded = decode(&q, &[0, 2], 112).unwrap();
        assert_eq!(decoded.row(1), q.row(2));
        assert!(decode(&q, &[0, 2], 111).is_none());
        assert!(decode(&q, &[0, 2], 0).is_none());
    }

    #[test]
    fn decoded_blocks_are_bit_identical_to_streamed_ones() {
        let q = multi_block();
        let blocks = walk(&q);
        let ones = [1.0; 6];
        let absorb: Vec<f64> = q
            .rows()
            .map(|r| 1.0 - r.iter().map(|e| e.1).sum::<f64>())
            .collect();
        // The cycle {1, 4} takes 64 scratch bytes and {0, 2} 112: an
        // unbounded solve decodes both, a 64-byte bound only the first, a
        // zero bound neither.
        let solve = |bound| {
            let budget = Budget::unlimited();
            let sides = [&ones[..], &absorb];
            let x = gauss_seidel_blocks(&q, &blocks, sides, 1e-13, 10_000, &budget, bound);
            (x.unwrap(), budget.probes_seen())
        };
        let (streamed, streamed_sweeps) = solve(0);
        for bound in [64, u64::MAX] {
            let (decoded, decoded_sweeps) = solve(bound);
            assert_eq!(decoded_sweeps, streamed_sweeps);
            for (d, s) in decoded.iter().zip(&streamed) {
                assert_eq!(bits(d), bits(s));
            }
        }
        // The production rule decodes both cycles of this chain.
        let multi = gauss_seidel_multi(
            &q,
            [&ones[..], &absorb],
            1e-13,
            10_000,
            &Budget::unlimited(),
        );
        for (m, s) in multi.unwrap().iter().zip(&streamed) {
            assert_eq!(bits(m), bits(s));
        }
    }

    #[test]
    fn multi_block_chain_matches_dense() {
        let q = multi_block();
        let b = [1.0, 0.4, 0.2, 0.1, 0.5, 0.1];
        let gs = gauss_seidel(&q, &b, 1e-13, 100_000).unwrap();
        let dense = solve_dense(i_minus(&q), b.to_vec()).unwrap();
        for (i, (g, d)) in gs.iter().zip(&dense).enumerate() {
            assert!((g - d).abs() < 1e-12, "state {i}: {g} vs {d}");
        }
    }

    #[test]
    fn a_chain_of_singletons_takes_one_probe_per_block() {
        // A DAG: every row only reaches rows already solved.
        let q = QMatrix::from_rows(vec![
            vec![(1u32, 0.5)],
            vec![(1u32, 0.25), (2, 0.5)],
            vec![],
            vec![(0u32, 0.3), (2, 0.3)],
            vec![(3u32, 1.0)],
        ]);
        let b = [1.0; 5];
        let budget = Budget::unlimited();
        let [gs, twice] = gauss_seidel_multi(&q, [&b[..], &b], 1e-13, 100, &budget).unwrap();
        assert_eq!(budget.probes_seen(), 5);
        assert_eq!(bits(&gs), bits(&twice));
        let dense = solve_dense(i_minus(&q), b.to_vec()).unwrap();
        for (g, d) in gs.iter().zip(&dense) {
            assert!((g - d).abs() < 1e-12, "{g} vs {d}");
        }
    }

    #[test]
    fn a_non_leaking_downstream_block_reports_its_own_residual() {
        // Row 0 leaks into the swap {1, 2}, which never leaks: the swap
        // is solved first and fails exactly as it does on its own.
        let q = QMatrix::from_rows(vec![
            vec![(1u32, 0.5)],
            vec![(2u32, 1.0)],
            vec![(1u32, 1.0)],
        ]);
        let swap = QMatrix::from_rows(vec![vec![(1u32, 1.0)], vec![(0u32, 1.0)]]);
        let solo = gauss_seidel(&swap, &[1.0; 2], 1e-12, 50).unwrap_err();
        assert_eq!(gauss_seidel(&q, &[1.0; 3], 1e-12, 50).unwrap_err(), solo);
        let (zero, ones) = ([0.0; 3], [1.0; 3]);
        let err = gauss_seidel_multi(&q, [&zero[..], &ones], 1e-12, 50, &Budget::unlimited());
        assert_eq!(err.unwrap_err(), solo);
    }

    #[test]
    fn multi_block_sides_are_bit_identical_to_one_side_solves() {
        let q = multi_block();
        let tol = 1e-13;
        let ones = [1.0; 6];
        let absorb: Vec<f64> = q
            .rows()
            .map(|r| 1.0 - r.iter().map(|e| e.1).sum::<f64>())
            .collect();
        let tiny = [1e-9, 0.0, 3e-9, 0.0, 2e-9, 0.0];
        let sides = [&ones[..], &absorb, &tiny];
        let multi = gauss_seidel_multi(&q, sides, tol, 10_000, &Budget::unlimited()).unwrap();
        for (b, x) in sides.into_iter().zip(&multi) {
            assert_eq!(bits(&gauss_seidel(&q, b, tol, 10_000).unwrap()), bits(x));
        }
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn dimension_mismatch_panics() {
        let _ = gauss_seidel(&QMatrix::from_rows(vec![vec![]]), &[1.0, 2.0], 1e-9, 10);
    }
}
