//! **E7 — the paper's future work, exact half**: expected stabilization
//! times of the transformed algorithms (and baselines) via absorbing
//! Markov chains under randomized schedulers.
//!
//! For each system × scheduler: worst-case expected steps over initial
//! configurations, the uniform-initial average, and the numeric absorption
//! check (`min absorption probability`, which Theorems 7–9 predict to be 1).
//!
//! Since PR 5 every row is one `Study::run()` — a single shared
//! exploration feeding the chain, with the hitting-time summaries read
//! off the serializable `StudyReport` instead of hand-assembled from
//! `AbsorbingChain` calls. The large-N arms force the PR 2–4 expert
//! options (rotation quotient, compressed tier) through
//! `Study::options`; the small rows force the plain full sweep so the
//! table stays comparable across PRs.

use stab_algorithms::{
    CenterLeader, DijkstraRing, GreedyColoring, HermanRing, ParentLeader, TokenCirculation,
    TwoProcessToggle,
};
use stab_bench::{fmt3, Table};
use stab_core::engine::{EdgeStoreKind, ExploreOptions};
use stab_core::{Algorithm, DaemonSpec, Legitimacy, LocalState, ProjectedLegitimacy, Transformed};
use stab_graph::builders;
use weak_stabilization::study::Study;

const CAP: u64 = 1 << 22;

fn row<A, L>(table: &mut Table, alg: &A, daemon: DaemonSpec, spec: &L)
where
    A: Algorithm + Sync,
    A::State: LocalState + Sync,
    L: Legitimacy<A::State> + Sync,
{
    let report = Study::of(alg)
        .daemon(daemon)
        .spec(spec)
        .cap(CAP)
        .expected_times()
        .options(ExploreOptions::full())
        .run()
        .expect("study run");
    let times = report
        .expected_times
        .as_ref()
        .and_then(|e| e.solved())
        .expect("almost-sure absorption");
    table.row(vec![
        alg.name(),
        daemon.to_string(),
        report.plan.total_configs.to_string(),
        times.n_transient.to_string(),
        fmt3(times.worst_case),
        fmt3(times.average),
        fmt3(times.min_absorption),
    ]);
    assert!(
        (times.min_absorption - 1.0).abs() < 1e-9,
        "absorption must be almost sure for {}",
        alg.name()
    );
}

fn main() {
    println!("# E7 — exact expected stabilization times (absorbing-chain analysis)");
    println!();
    println!("`worst` = max over initial configurations of the expected steps to L;");
    println!("`avg` = expectation from a uniformly random initial configuration;");
    println!("`min P(absorb)` re-verifies probability-1 convergence numerically.");
    println!();

    let mut t = Table::new(vec![
        "system",
        "scheduler",
        "configs",
        "transient",
        "worst",
        "avg",
        "min P(absorb)",
    ]);

    // Trans(Algorithm 1) across ring sizes and schedulers.
    for n in 3..=6usize {
        let mk = || Transformed::new(TokenCirculation::on_ring(&builders::ring(n)).unwrap());
        let spec = ProjectedLegitimacy::new(
            TokenCirculation::on_ring(&builders::ring(n))
                .unwrap()
                .legitimacy(),
        );
        row(&mut t, &mk(), DaemonSpec::central(), &spec);
        row(&mut t, &mk(), DaemonSpec::synchronous(), &spec);
        if n <= 5 {
            row(&mut t, &mk(), DaemonSpec::distributed(), &spec);
        }
    }

    // Trans(Algorithm 2) on small trees.
    for (g, _) in [
        (builders::path(3), "path3"),
        (builders::path(4), "path4"),
        (builders::star(4), "star4"),
    ] {
        let alg = Transformed::new(ParentLeader::on_tree(&g).unwrap());
        let spec = ProjectedLegitimacy::new(ParentLeader::on_tree(&g).unwrap().legitimacy());
        for d in [
            DaemonSpec::central(),
            DaemonSpec::distributed(),
            DaemonSpec::synchronous(),
        ] {
            row(&mut t, &alg, d, &spec);
        }
    }

    // Trans(Algorithm 3).
    let toggle = Transformed::new(TwoProcessToggle::new());
    let tspec = ProjectedLegitimacy::new(TwoProcessToggle::new().legitimacy());
    for d in [DaemonSpec::distributed(), DaemonSpec::synchronous()] {
        row(&mut t, &toggle, d, &tspec);
    }

    // Trans(center leader) and Trans(coloring) on the 4-chain.
    let g = builders::path(4);
    let clead = Transformed::new(CenterLeader::on_tree(&g).unwrap());
    let cspec = ProjectedLegitimacy::new(CenterLeader::on_tree(&g).unwrap().legitimacy());
    for d in [DaemonSpec::distributed(), DaemonSpec::synchronous()] {
        row(&mut t, &clead, d, &cspec);
    }
    let col = Transformed::new(GreedyColoring::new(&g).unwrap());
    let colspec = ProjectedLegitimacy::new(GreedyColoring::new(&g).unwrap().legitimacy());
    for d in [DaemonSpec::distributed(), DaemonSpec::synchronous()] {
        row(&mut t, &col, d, &colspec);
    }

    // Baselines (untransformed): Herman (synchronous, its native model) and
    // Dijkstra (central randomized).
    for n in [3usize, 5, 7] {
        let alg = HermanRing::on_ring(&builders::ring(n)).unwrap();
        let spec = alg.legitimacy();
        row(&mut t, &alg, DaemonSpec::synchronous(), &spec);
    }
    for n in [3usize, 4, 5] {
        let alg = DijkstraRing::on_ring(&builders::ring(n)).unwrap();
        let spec = alg.legitimacy();
        row(&mut t, &alg, DaemonSpec::central(), &spec);
    }

    print!("{}", t.to_markdown());
    println!();

    // ---- Beyond the full-sweep cutoff: quotient chains (large-N arms) ----
    //
    // The rows above stop where full enumeration stops (token rings N ≤ 6,
    // Herman N ≤ 7). The engine's rotation quotient extends the exact
    // curves: per-state hitting times coincide with the full space, and
    // the orbit-weighted average recovers the uniform-initial expectation
    // (which is exactly what the study's `average` reports on a quotient
    // chain). The largest arm runs on the compressed edge store, so both
    // tiers stay exercised in this binary.
    println!("## Beyond the full sweep: rotation-quotient chains");
    println!();
    let mut tq = Table::new(vec![
        "system",
        "scheduler",
        "N",
        "explored",
        "represented",
        "store",
        "worst",
        "avg (orbit-weighted)",
        "min P(absorb)",
    ]);
    let mut quotient_row = |alg: &HermanRing, n: usize, kind: EdgeStoreKind| {
        let spec = alg.legitimacy();
        let opts = ExploreOptions::full()
            .with_ring_quotient()
            .with_edge_store(kind);
        let report = Study::of(alg)
            .daemon(DaemonSpec::synchronous())
            .spec(&spec)
            .cap(CAP)
            .expected_times()
            .options(opts)
            .run()
            .expect("quotient study");
        let times = report
            .expected_times
            .as_ref()
            .and_then(|e| e.solved())
            .expect("almost-sure absorption");
        assert!(
            (times.min_absorption - 1.0).abs() < 1e-9,
            "Herman absorbs almost surely at N={n}"
        );
        tq.row(vec![
            alg.name(),
            "synchronous".into(),
            n.to_string(),
            report.space.as_ref().expect("explored").configs.to_string(),
            report
                .space
                .as_ref()
                .expect("explored")
                .represented
                .to_string(),
            report.plan.edge_store.clone(),
            fmt3(times.worst_case),
            fmt3(times.average),
            fmt3(times.min_absorption),
        ]);
    };
    for n in [9usize, 11, 13] {
        let alg = HermanRing::on_ring(&builders::ring(n)).unwrap();
        quotient_row(&alg, n, EdgeStoreKind::Flat);
    }
    // N=15 (3^15 edges before folding) on the compressed tier.
    let herman15 = HermanRing::on_ring(&builders::ring(15)).unwrap();
    quotient_row(&herman15, 15, EdgeStoreKind::Compressed);
    print!("{}", tq.to_markdown());
    println!();
    println!("Shapes: expected times grow with N; counted in scheduler *steps*, the");
    println!("synchronous coin-toss scheduler converges fastest (every enabled process");
    println!("tosses each step) and central-randomized slowest (one move per step) —");
    println!("in *moves* the ordering reverses. Algorithm 3 converges only when joint");
    println!("moves are possible. Dijkstra (deterministic, rooted) and Herman (native");
    println!("probabilistic) beat the transformed anonymous token ring at equal N —");
    println!("the price of anonymity plus coin-halting.");
}
