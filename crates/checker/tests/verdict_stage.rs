//! The verdict stage pinned end to end: a digest of every rendered
//! [`StabilizationReport`] of the zoo, and the number of Tarjan walks one
//! analysis makes.
//!
//! Each digest covers `holds` and the witness text of all seven verdicts,
//! for the 11 zoo members on their zoo-lattice topologies under the four
//! legacy daemons, over the full sweep, a reachable-only BFS from three
//! seeds, and the quotient the planner admits (when it admits one). Every
//! edge-store tier (flat, compressed, disk) must render the same digest,
//! so a change to how the verdicts are computed cannot move a verdict or
//! a witness on any tier.

use std::sync::Mutex;

use stab_algorithms::{
    CenterFinding, CenterLeader, DijkstraFourState, DijkstraRing, DijkstraThreeState,
    FairnessGadget, GreedyColoring, HermanRing, ParentLeader, TokenCirculation, TwoProcessToggle,
};
use stab_checker::{analyze_space, ExploredSpace, StabilizationReport};
use stab_core::engine::{
    scc::PROBE_STRIDE, tarjan_count, Budget, EdgeStoreKind, ExploreOptions, Plan, PlanRequest,
    Quotient, TransitionSystem,
};
use stab_core::{Algorithm, DaemonSpec, Legitimacy, SpaceIndexer};
use stab_graph::builders;

const CAP: u64 = 1 << 22;

/// Serialises the tests of this file around the process-wide walk
/// counter.
static COUNTER_LOCK: Mutex<()> = Mutex::new(());

/// The digests, generated before the verdict stage shared one
/// decomposition across its verdicts.
const PINNED: &str = "\
fairness-gadget/fixed/central/full cd7c36e833c4fad5
fairness-gadget/fixed/central/reachable cd7c36e833c4fad5
fairness-gadget/fixed/distributed/full cd7c36e833c4fad5
fairness-gadget/fixed/distributed/reachable cd7c36e833c4fad5
fairness-gadget/fixed/synchronous/full 2318559b5bc695b1
fairness-gadget/fixed/synchronous/reachable 2318559b5bc695b1
fairness-gadget/fixed/locally-central/full cd7c36e833c4fad5
fairness-gadget/fixed/locally-central/reachable cd7c36e833c4fad5
two-process-toggle/fixed/central/full 4802f5500bfb5035
two-process-toggle/fixed/central/reachable 8dba20a09ce83995
two-process-toggle/fixed/central/automorphism 339fb8d52164e255
two-process-toggle/fixed/distributed/full 99292d8fab1ac85e
two-process-toggle/fixed/distributed/reachable 1739c6a2e049ddce
two-process-toggle/fixed/distributed/automorphism 1795de9e7abc931a
two-process-toggle/fixed/synchronous/full 2318559b5bc695b1
two-process-toggle/fixed/synchronous/reachable 2318559b5bc695b1
two-process-toggle/fixed/synchronous/automorphism 2318559b5bc695b1
two-process-toggle/fixed/locally-central/full 4802f5500bfb5035
two-process-toggle/fixed/locally-central/reachable 8dba20a09ce83995
two-process-toggle/fixed/locally-central/automorphism 339fb8d52164e255
herman(N=5)/ring(5)/central/full 6e6acc72e8295b9f
herman(N=5)/ring(5)/central/reachable c8a39676e08be352
herman(N=5)/ring(5)/central/automorphism 3c6651ea8342fce7
herman(N=5)/ring(5)/distributed/full 2ef72c3cacbb2986
herman(N=5)/ring(5)/distributed/reachable 2ef72c3cacbb2986
herman(N=5)/ring(5)/distributed/automorphism b9b6cc7032bd872e
herman(N=5)/ring(5)/synchronous/full 5cbf42cbd9c066e5
herman(N=5)/ring(5)/synchronous/reachable 5cbf42cbd9c066e5
herman(N=5)/ring(5)/synchronous/automorphism 39ce75dd7afd898d
herman(N=5)/ring(5)/locally-central/full 2ef72c3cacbb2986
herman(N=5)/ring(5)/locally-central/reachable 2ef72c3cacbb2986
herman(N=5)/ring(5)/locally-central/automorphism b9b6cc7032bd872e
dijkstra-k-state(N=4, K=4)/ring(4)/central/full 2318559b5bc695b1
dijkstra-k-state(N=4, K=4)/ring(4)/central/reachable 2318559b5bc695b1
dijkstra-k-state(N=4, K=4)/ring(4)/distributed/full 2318559b5bc695b1
dijkstra-k-state(N=4, K=4)/ring(4)/distributed/reachable 2318559b5bc695b1
dijkstra-k-state(N=4, K=4)/ring(4)/synchronous/full 2318559b5bc695b1
dijkstra-k-state(N=4, K=4)/ring(4)/synchronous/reachable 2318559b5bc695b1
dijkstra-k-state(N=4, K=4)/ring(4)/locally-central/full 2318559b5bc695b1
dijkstra-k-state(N=4, K=4)/ring(4)/locally-central/reachable 2318559b5bc695b1
dijkstra-three-state(N=5)/ring(5)/central/full 2318559b5bc695b1
dijkstra-three-state(N=5)/ring(5)/central/reachable 2318559b5bc695b1
dijkstra-three-state(N=5)/ring(5)/distributed/full 2318559b5bc695b1
dijkstra-three-state(N=5)/ring(5)/distributed/reachable 2318559b5bc695b1
dijkstra-three-state(N=5)/ring(5)/synchronous/full 2318559b5bc695b1
dijkstra-three-state(N=5)/ring(5)/synchronous/reachable 2318559b5bc695b1
dijkstra-three-state(N=5)/ring(5)/locally-central/full 2318559b5bc695b1
dijkstra-three-state(N=5)/ring(5)/locally-central/reachable 2318559b5bc695b1
dijkstra-four-state(N=4)/path(4)/central/full 2318559b5bc695b1
dijkstra-four-state(N=4)/path(4)/central/reachable 2318559b5bc695b1
dijkstra-four-state(N=4)/path(4)/distributed/full 2318559b5bc695b1
dijkstra-four-state(N=4)/path(4)/distributed/reachable 2318559b5bc695b1
dijkstra-four-state(N=4)/path(4)/synchronous/full 2318559b5bc695b1
dijkstra-four-state(N=4)/path(4)/synchronous/reachable 2318559b5bc695b1
dijkstra-four-state(N=4)/path(4)/locally-central/full 2318559b5bc695b1
dijkstra-four-state(N=4)/path(4)/locally-central/reachable 2318559b5bc695b1
token-circulation(N=5, m=2)/ring(5)/central/full 1cff159bc57d9649
token-circulation(N=5, m=2)/ring(5)/central/reachable 5c95f2ae581e5789
token-circulation(N=5, m=2)/ring(5)/central/automorphism 082ff386572709fe
token-circulation(N=5, m=2)/ring(5)/distributed/full a0e72f55f1211ce9
token-circulation(N=5, m=2)/ring(5)/distributed/reachable 6598b41cfb85e4a9
token-circulation(N=5, m=2)/ring(5)/distributed/automorphism ebdef15b4e0ae3d6
token-circulation(N=5, m=2)/ring(5)/synchronous/full 1eb322e863f640ad
token-circulation(N=5, m=2)/ring(5)/synchronous/reachable 1eb322e863f640ad
token-circulation(N=5, m=2)/ring(5)/synchronous/automorphism 1eb322e863f640ad
token-circulation(N=5, m=2)/ring(5)/locally-central/full 5c95f2ae581e5789
token-circulation(N=5, m=2)/ring(5)/locally-central/reachable 5c95f2ae581e5789
token-circulation(N=5, m=2)/ring(5)/locally-central/automorphism 082ff386572709fe
greedy-coloring(N=4, Δ=2)/path(4)/central/full 2318559b5bc695b1
greedy-coloring(N=4, Δ=2)/path(4)/central/reachable 2318559b5bc695b1
greedy-coloring(N=4, Δ=2)/path(4)/central/automorphism 2318559b5bc695b1
greedy-coloring(N=4, Δ=2)/path(4)/distributed/full 4c857f4303602251
greedy-coloring(N=4, Δ=2)/path(4)/distributed/reachable 31764b210d5c36b5
greedy-coloring(N=4, Δ=2)/path(4)/distributed/automorphism ed972e117c58b1f7
greedy-coloring(N=4, Δ=2)/path(4)/synchronous/full c21292c83ebf1069
greedy-coloring(N=4, Δ=2)/path(4)/synchronous/reachable c21292c83ebf1069
greedy-coloring(N=4, Δ=2)/path(4)/synchronous/automorphism c21292c83ebf1069
greedy-coloring(N=4, Δ=2)/path(4)/locally-central/full 2318559b5bc695b1
greedy-coloring(N=4, Δ=2)/path(4)/locally-central/reachable 2318559b5bc695b1
greedy-coloring(N=4, Δ=2)/path(4)/locally-central/automorphism 2318559b5bc695b1
center-finding(N=5)/path(5)/central/full 2318559b5bc695b1
center-finding(N=5)/path(5)/central/reachable 2318559b5bc695b1
center-finding(N=5)/path(5)/central/automorphism 2318559b5bc695b1
center-finding(N=5)/path(5)/distributed/full 2318559b5bc695b1
center-finding(N=5)/path(5)/distributed/reachable 2318559b5bc695b1
center-finding(N=5)/path(5)/distributed/automorphism 2318559b5bc695b1
center-finding(N=5)/path(5)/synchronous/full 2318559b5bc695b1
center-finding(N=5)/path(5)/synchronous/reachable 2318559b5bc695b1
center-finding(N=5)/path(5)/synchronous/automorphism 2318559b5bc695b1
center-finding(N=5)/path(5)/locally-central/full 2318559b5bc695b1
center-finding(N=5)/path(5)/locally-central/reachable 2318559b5bc695b1
center-finding(N=5)/path(5)/locally-central/automorphism 2318559b5bc695b1
center-leader(N=5, Δ=2)/path(5)/central/full 39608213d0a7e6cc
center-leader(N=5, Δ=2)/path(5)/central/reachable 18a478f08a5da9d1
center-leader(N=5, Δ=2)/path(5)/central/automorphism 6827eac1b3b4961e
center-leader(N=5, Δ=2)/path(5)/distributed/full c6c68809a4875f63
center-leader(N=5, Δ=2)/path(5)/distributed/reachable 0418d803e8d3c578
center-leader(N=5, Δ=2)/path(5)/distributed/automorphism 6ec299750c430b79
center-leader(N=5, Δ=2)/path(5)/synchronous/full 2318559b5bc695b1
center-leader(N=5, Δ=2)/path(5)/synchronous/reachable 2318559b5bc695b1
center-leader(N=5, Δ=2)/path(5)/synchronous/automorphism 2318559b5bc695b1
center-leader(N=5, Δ=2)/path(5)/locally-central/full 39608213d0a7e6cc
center-leader(N=5, Δ=2)/path(5)/locally-central/reachable f1082e281d07b64e
center-leader(N=5, Δ=2)/path(5)/locally-central/automorphism 6827eac1b3b4961e
parent-leader(N=5, Δ=2)/path(5)/central/full 63dc1bdb8c1efad9
parent-leader(N=5, Δ=2)/path(5)/central/reachable e8ef1c9549f8eab5
parent-leader(N=5, Δ=2)/path(5)/distributed/full 4fa9447df68d23a0
parent-leader(N=5, Δ=2)/path(5)/distributed/reachable 10491a95b9e83e97
parent-leader(N=5, Δ=2)/path(5)/synchronous/full 8aac9232c6352689
parent-leader(N=5, Δ=2)/path(5)/synchronous/reachable 4f251c0a50fbf571
parent-leader(N=5, Δ=2)/path(5)/locally-central/full 63dc1bdb8c1efad9
parent-leader(N=5, Δ=2)/path(5)/locally-central/reachable b3766af73e8054d5
";

/// FNV-1a over the seven rendered verdicts, one per line.
fn digest(r: &StabilizationReport) -> u64 {
    let text = [
        &r.closure,
        &r.weak,
        &r.self_unfair,
        &r.self_weakly_fair,
        &r.self_strongly_fair,
        &r.self_gouda,
        &r.probabilistic,
    ]
    .map(|v| v.to_string())
    .join("\n");
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Appends one row per (legacy daemon, mode) for `alg` on `topology`,
/// after checking that the three edge-store tiers agree on it.
fn rows<A, L>(table: &mut String, topology: &str, alg: &A, spec: &L)
where
    A: Algorithm + Sync,
    A::State: Sync,
    L: Legitimacy<A::State> + Sync,
{
    let ix = SpaceIndexer::new(alg, CAP).unwrap();
    let seeds = [0, ix.total() / 2, ix.total() - 1].map(|i| ix.decode(i));
    for daemon in DaemonSpec::LEGACY {
        let plan = Plan::compute(alg, &ix, daemon, spec, &PlanRequest::default()).unwrap();
        let mut modes = vec![
            ("full", ExploreOptions::full()),
            ("reachable", ExploreOptions::reachable(seeds.to_vec())),
        ];
        if plan.quotient != Quotient::None {
            modes.push((
                plan.quotient.label(),
                ExploreOptions::full().with_quotient(plan.quotient),
            ));
        }
        for (mode, opts) in modes {
            let digests = [
                EdgeStoreKind::Flat,
                EdgeStoreKind::Compressed,
                EdgeStoreKind::Disk,
            ]
            .map(|kind| {
                let opts = opts.clone().with_edge_store(kind);
                let ts = TransitionSystem::explore_with(alg, &ix, daemon, spec, &opts).unwrap();
                assert_eq!(ts.edge_store_kind(), kind);
                let space = ExploredSpace::from_transition_system(ix.clone(), daemon, ts);
                digest(&analyze_space(&space, alg.name(), spec.name()))
            });
            let label = format!("{}/{topology}/{}/{mode}", alg.name(), daemon.name());
            assert!(
                digests.iter().all(|&d| d == digests[0]),
                "{label}: tiers disagree {digests:x?}"
            );
            table.push_str(&format!("{label} {:016x}\n", digests[0]));
        }
    }
}

#[test]
fn zoo_verdict_digests_are_pinned() {
    let _window = COUNTER_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let mut t = String::new();
    let a = FairnessGadget::new();
    rows(&mut t, "fixed", &a, &a.legitimacy());
    let a = TwoProcessToggle::new();
    rows(&mut t, "fixed", &a, &a.legitimacy());
    let a = HermanRing::on_ring(&builders::ring(5)).unwrap();
    rows(&mut t, "ring(5)", &a, &a.legitimacy());
    let a = DijkstraRing::on_ring(&builders::ring(4)).unwrap();
    rows(&mut t, "ring(4)", &a, &a.legitimacy());
    let a = DijkstraThreeState::on_ring(&builders::ring(5)).unwrap();
    rows(&mut t, "ring(5)", &a, &a.legitimacy());
    let a = DijkstraFourState::on_path(&builders::path(4)).unwrap();
    rows(&mut t, "path(4)", &a, &a.legitimacy());
    let a = TokenCirculation::on_ring(&builders::ring(5)).unwrap();
    rows(&mut t, "ring(5)", &a, &a.legitimacy());
    let a = GreedyColoring::new(&builders::path(4)).unwrap();
    rows(&mut t, "path(4)", &a, &a.legitimacy());
    let a = CenterFinding::on_tree(&builders::path(5)).unwrap();
    rows(&mut t, "path(5)", &a, &a.legitimacy());
    let a = CenterLeader::on_tree(&builders::path(5)).unwrap();
    rows(&mut t, "path(5)", &a, &a.legitimacy());
    let a = ParentLeader::on_tree(&builders::path(5)).unwrap();
    rows(&mut t, "path(5)", &a, &a.legitimacy());
    assert_eq!(t, PINNED, "verdict digests drifted; actual:\n{t}");
}

/// The verdict stage decomposes the reachable illegitimate region once:
/// on the Herman N=13 synchronous full sweep (the herman-disk geometry),
/// one analysis makes exactly one Tarjan walk on every tier. Its budget
/// probes are exactly the stage's two, the walk's entry probe and one per
/// [`PROBE_STRIDE`] discovered configurations, so no other pass (a
/// reverse-CSR build, a backward closure) probes on the side.
#[test]
fn herman13_verdict_stage_walks_once() {
    let _window = COUNTER_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let alg = HermanRing::on_ring(&builders::ring(13)).unwrap();
    let spec = alg.legitimacy();
    let ix = SpaceIndexer::new(&alg, CAP).unwrap();
    let sync = DaemonSpec::synchronous();
    for kind in [
        EdgeStoreKind::Flat,
        EdgeStoreKind::Compressed,
        EdgeStoreKind::Disk,
    ] {
        let opts = ExploreOptions::full().with_edge_store(kind);
        let ts = TransitionSystem::explore_with(&alg, &ix, sync, &spec, &opts).unwrap();
        let alive = u64::from(ts.n_configs()) - ts.legit_count();
        let space = ExploredSpace::from_transition_system(ix.clone(), sync, ts);
        let budget = Budget::unlimited();
        let before = tarjan_count();
        let report =
            stab_checker::analyze_space_budgeted(&space, alg.name(), spec.name(), &budget).unwrap();
        assert_eq!(tarjan_count() - before, 1, "{}", kind.label());
        assert_eq!(
            budget.probes_seen(),
            3 + alive / u64::from(PROBE_STRIDE),
            "{}",
            kind.label()
        );
        assert!(report.probabilistic.holds());
    }
}
