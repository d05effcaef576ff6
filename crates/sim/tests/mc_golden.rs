//! Golden Monte-Carlo digests: seeded batches pinned bit for bit.
//!
//! Each point pins the failure count and the `to_bits()` of the steps,
//! moves and rounds means of one seeded `estimate_with` batch. The
//! values were generated before the step kernel was made heap-free, so a
//! kernel change that reorders a random draw (activation sampling, the
//! 64-try rejection loop and its fallback, outcome sampling) or miscounts
//! a step, move or round moves a digest. The points cover:
//!
//! * Herman N=11 under the synchronous daemon (fair-coin outcomes);
//! * token circulation on ring(5) under the distributed daemon (the
//!   uniform-subset draw);
//! * Dijkstra on ring(4) under the locally-central daemon (rejection
//!   sampling);
//! * Herman N=11 under the 2-central radius-1 daemon (rejection sampling
//!   and, on about one step in six, its singleton fallback);
//! * `Transformed<TwoProcessToggle>` under the synchronous daemon (the
//!   `Outcomes::weighted` path).

use stab_algorithms::{DijkstraRing, HermanRing, TokenCirculation, TwoProcessToggle};
use stab_core::{
    Algorithm, DaemonSpec, Distribution, Legitimacy, ProjectedLegitimacy, Transformed,
};
use stab_graph::builders;
use stab_sim::init::uniform_random;
use stab_sim::montecarlo::{estimate_with, BatchSettings};

/// `(failures, steps.mean, moves.mean, rounds.mean)`, means as bits.
type Digest = (u64, u64, u64, u64);

fn digest<A, L>(alg: &A, daemon: DaemonSpec, spec: &L, threads: usize) -> Digest
where
    A: Algorithm + Sync,
    L: Legitimacy<A::State> + Sync,
{
    let settings = BatchSettings {
        runs: 400,
        max_steps: 5_000,
        seed: 0x5EED,
        threads,
    };
    let batch =
        estimate_with(alg, daemon, spec, &settings, uniform_random).expect("some run converges");
    (
        batch.failures,
        batch.steps.mean.to_bits(),
        batch.moves.mean.to_bits(),
        batch.rounds.mean.to_bits(),
    )
}

/// Checks the one-worker and the two-worker digest: the batch is
/// partitioned by worker, so the two reduce in different orders.
fn check<A, L>(name: &str, alg: &A, daemon: DaemonSpec, spec: &L, want: [Digest; 2])
where
    A: Algorithm + Sync,
    L: Legitimacy<A::State> + Sync,
{
    for (threads, want) in [1, 2].into_iter().zip(want) {
        let got = digest(alg, daemon, spec, threads);
        assert_eq!(
            got,
            want,
            "{name} ({threads} threads): steps {} moves {} rounds {}",
            f64::from_bits(got.1),
            f64::from_bits(got.2),
            f64::from_bits(got.3)
        );
    }
}

#[test]
fn monte_carlo_digests_are_pinned() {
    let herman = HermanRing::on_ring(&builders::ring(11)).unwrap();
    check(
        "herman N=11 synchronous",
        &herman,
        DaemonSpec::synchronous(),
        &herman.legitimacy(),
        [
            (
                0,
                4622937980621396371,
                4638843515828804002,
                4622937980621396371,
            ),
            (
                0,
                4622937980621396380,
                4638843515828803994,
                4622937980621396380,
            ),
        ],
    );

    let token = TokenCirculation::on_ring(&builders::ring(5)).unwrap();
    check(
        "token circulation ring(5) distributed",
        &token,
        DaemonSpec::distributed(),
        &token.legitimacy(),
        [
            (
                0,
                4609884578576439710,
                4613526864775075591,
                4605290906956521801,
            ),
            (
                0,
                4609884578576439703,
                4613526864775075596,
                4605290906956521800,
            ),
        ],
    );

    let dijkstra = DijkstraRing::on_ring(&builders::ring(4)).unwrap();
    check(
        "dijkstra ring(4) locally-central",
        &dijkstra,
        DaemonSpec::locally_central(),
        &dijkstra.legitimacy(),
        [
            (
                0,
                4609085189642581443,
                4610436269530792585,
                4598400399526644945,
            ),
            (
                0,
                4609085189642581442,
                4610436269530792592,
                4598400399526644938,
            ),
        ],
    );

    // k = 2 and radius 1 with all 11 processes enabled: a draw is kept
    // with probability 56/2048, so about one step in six exhausts the 64
    // tries and takes the singleton fallback.
    let two_central = DaemonSpec {
        distribution: Distribution::KCentral {
            k: Some(2),
            radius: 1,
        },
        ..DaemonSpec::central()
    };
    check(
        "herman N=11 2-central-r1",
        &herman,
        two_central,
        &herman.legitimacy(),
        [
            (
                0,
                4648553083111368292,
                4652081657817459583,
                4629323240468077606,
            ),
            (
                0,
                4648553083111368290,
                4652081657817459592,
                4629323240468077608,
            ),
        ],
    );

    let toggle = Transformed::new(TwoProcessToggle::new());
    check(
        "transformed toggle synchronous",
        &toggle,
        DaemonSpec::synchronous(),
        &ProjectedLegitimacy::new(TwoProcessToggle::new().legitimacy()),
        [
            (
                0,
                4619195770806028204,
                4621572826984349694,
                4619195770806028204,
            ),
            (
                0,
                4619195770806028206,
                4621572826984349696,
                4619195770806028206,
            ),
        ],
    );
}
