//! The fused solve against the one-side solves: one
//! `expected_steps_and_absorption_with` call must return exactly what
//! `expected_steps_with` and `absorption_probabilities_with` return when
//! run separately, bit for bit, on every `Q` tier and on both solver
//! paths (dense elimination and Gauss–Seidel) — and the Gauss–Seidel
//! path's work, counted in decoded `Q` entries, is pinned.

use std::cell::Cell;

use stab_algorithms::{HermanRing, TwoProcessToggle};
use stab_core::engine::{Budget, EdgeStoreKind, ExploreOptions, Quotient};
use stab_core::{Algorithm, DaemonSpec, Legitimacy, LocalState};
use stab_graph::builders;
use stab_markov::{linalg, AbsorbingChain, MarkovError, QRows, QStorage};

const CAP: u64 = 1 << 22;

/// Transient counts above this take the Gauss–Seidel path (the solver's
/// dense limit).
const DENSE_LIMIT: usize = 600;

const TIERS: [EdgeStoreKind; 3] = [
    EdgeStoreKind::Flat,
    EdgeStoreKind::Compressed,
    EdgeStoreKind::Disk,
];

fn bits(x: &[f64]) -> Vec<u64> {
    x.iter().map(|v| v.to_bits()).collect()
}

/// Builds the chain on every tier and pins the fused solve to the two
/// separate ones; returns the transient count.
fn fused_equals_separate<A, L>(
    alg: &A,
    daemon: DaemonSpec,
    spec: &L,
    opts: ExploreOptions<A::State>,
) -> usize
where
    A: Algorithm + Sync,
    A::State: LocalState + Sync,
    L: Legitimacy<A::State> + Sync,
{
    let mut n = 0;
    for kind in TIERS {
        let label = format!("{} under {daemon} ({})", alg.name(), kind.label());
        let opts = opts.clone().with_edge_store(kind);
        let chain = AbsorbingChain::build_with(alg, daemon, spec, CAP, &opts).expect("chain");
        assert_eq!(chain.q().kind(), kind, "{label}: tier");
        let budget = Budget::unlimited();
        let (times, absorption) = chain
            .expected_steps_and_absorption_with(&budget)
            .expect("fused solve");
        let solo_times = chain.expected_steps_with(&budget).expect("expected times");
        let solo_absorption = chain
            .absorption_probabilities_with(&budget)
            .expect("absorption probabilities");
        assert_eq!(
            bits(times.as_slice()),
            bits(solo_times.as_slice()),
            "{label}: times"
        );
        assert_eq!(
            bits(&absorption),
            bits(&solo_absorption),
            "{label}: absorption"
        );
        n = chain.n_transient();
    }
    n
}

#[test]
fn fused_solve_is_bit_identical_on_the_dense_path() {
    let alg = HermanRing::on_ring(&builders::ring(7)).unwrap();
    let n = fused_equals_separate(
        &alg,
        DaemonSpec::synchronous(),
        &alg.legitimacy(),
        ExploreOptions::full(),
    );
    assert!(
        n > 0 && n <= DENSE_LIMIT,
        "dense path: {n} transient states"
    );
}

#[test]
fn fused_solve_is_bit_identical_on_the_gauss_seidel_path() {
    // Herman N=13 on the rotation quotient: over 600 transient necklaces.
    let alg = HermanRing::on_ring(&builders::ring(13)).unwrap();
    let opts = ExploreOptions::full().with_quotient(Quotient::RingRotation);
    let n = fused_equals_separate(&alg, DaemonSpec::synchronous(), &alg.legitimacy(), opts);
    assert!(n > DENSE_LIMIT, "Gauss–Seidel path: {n} transient states");
}

#[test]
fn fused_solve_refuses_a_non_absorbing_chain_before_solving() {
    // Algorithm 3 under the central daemon never leaves ⟨false, false⟩.
    let alg = TwoProcessToggle::new();
    for kind in TIERS {
        let opts = ExploreOptions::full().with_edge_store(kind);
        let chain =
            AbsorbingChain::build_with(&alg, DaemonSpec::central(), &alg.legitimacy(), CAP, &opts)
                .unwrap();
        // An exhausted budget would trip the first solver probe, so a
        // `NotAbsorbing` answer shows no solve was attempted.
        let expired = Budget::unlimited().with_wall_time(std::time::Duration::ZERO);
        let err = chain
            .expected_steps_and_absorption_with(&expired)
            .unwrap_err();
        assert!(matches!(err, MarkovError::NotAbsorbing { .. }), "{err}");
        assert_eq!(err, chain.expected_steps().unwrap_err());
        assert_eq!(expired.probes_seen(), 0, "no solver probe was taken");
    }
}

/// A `Q` tier that counts every entry its row cursors decode.
struct Counting<'a, M> {
    q: &'a M,
    decoded: Cell<u64>,
}

struct CountingRow<'a, R> {
    row: R,
    decoded: &'a Cell<u64>,
}

impl<R: Iterator<Item = (u32, f64)>> Iterator for CountingRow<'_, R> {
    type Item = (u32, f64);

    fn next(&mut self) -> Option<(u32, f64)> {
        let entry = self.row.next()?;
        self.decoded.set(self.decoded.get() + 1);
        Some(entry)
    }
}

impl<M: QRows> QRows for Counting<'_, M> {
    type Row<'b>
        = CountingRow<'b, M::Row<'b>>
    where
        Self: 'b;

    fn n_rows(&self) -> usize {
        self.q.n_rows()
    }

    fn row_iter(&self, i: usize) -> Self::Row<'_> {
        CountingRow {
            row: self.q.row_iter(i),
            decoded: &self.decoded,
        }
    }
}

/// Decoded `Q` entries of the fused Herman N=13 rotation-quotient solve
/// when the solver swept the whole chain each time: 212 sweeps of all
/// 88,828 entries.
const WHOLE_CHAIN_DECODED: u64 = 18_831_536;

/// The same solve, one strongly connected block at a time: one Tarjan
/// pass over `Q`, then each block decoded once into the solver's scratch
/// and swept there until it converges — two reads of the 88,828 entries.
/// Sweeping each block from the store read 1,681,644.
const BLOCK_DECODED: u64 = 177_656;

#[test]
fn fused_solve_work_is_pinned_in_decoded_entries() {
    let alg = HermanRing::on_ring(&builders::ring(13)).unwrap();
    let opts = ExploreOptions::full().with_quotient(Quotient::RingRotation);
    let chain = AbsorbingChain::build_with(
        &alg,
        DaemonSpec::synchronous(),
        &alg.legitimacy(),
        CAP,
        &opts,
    )
    .unwrap();
    let QStorage::Flat(q) = chain.q() else {
        panic!("the default tier is flat");
    };
    let counting = Counting {
        q,
        decoded: Cell::new(0),
    };
    let ones = vec![1.0; chain.n_transient()];
    let budget = Budget::unlimited();
    let [times, absorption] = linalg::gauss_seidel_multi(
        &counting,
        [&ones, chain.absorb()],
        1e-12,
        1_000_000,
        &budget,
    )
    .unwrap();
    // It is the chain's own fused solve, bit for bit.
    let (fused_times, fused_absorption) =
        chain.expected_steps_and_absorption_with(&budget).unwrap();
    assert_eq!(bits(&times), bits(fused_times.as_slice()));
    assert_eq!(bits(&absorption), bits(&fused_absorption));
    assert_eq!(counting.decoded.get(), BLOCK_DECODED);
    const { assert!(BLOCK_DECODED * 10 <= WHOLE_CHAIN_DECODED) };
}
