//! **E8 — the paper's future work, sampling half**: Monte-Carlo scaling of
//! expected stabilization time with network size, beyond exhaustive reach.
//!
//! Reports mean steps and rounds (± 95% CI) from uniformly random initial
//! configurations, and the log-log growth exponent per series.

use stab_algorithms::{DijkstraRing, HermanRing, TokenCirculation};
use stab_bench::{fmt3, fmt_ci, log_log_slope, Table};
use stab_core::engine::ExploreOptions;
use stab_core::{DaemonSpec, ProjectedLegitimacy, Transformed};
use stab_graph::builders;
use stab_markov::AbsorbingChain;
use stab_sim::montecarlo::{estimate, BatchSettings};

fn settings(runs: u64, seed: u64) -> BatchSettings {
    BatchSettings {
        runs,
        max_steps: 20_000_000,
        seed,
        threads: 8,
    }
}

fn main() {
    println!("# E8 — Monte-Carlo scaling of stabilization time");
    println!();

    let mut table = Table::new(vec![
        "system",
        "scheduler",
        "N",
        "runs",
        "steps (mean ± ci95)",
        "rounds (mean ± ci95)",
    ]);
    let mut slopes: Vec<(String, f64)> = Vec::new();

    // Trans(Algorithm 1) under central-randomized and synchronous.
    for daemon in [
        DaemonSpec::central(),
        DaemonSpec::synchronous(),
        DaemonSpec::distributed(),
    ] {
        let mut pts = Vec::new();
        for n in [4usize, 8, 16, 32] {
            let alg = Transformed::new(TokenCirculation::on_ring(&builders::ring(n)).unwrap());
            let spec = ProjectedLegitimacy::new(
                TokenCirculation::on_ring(&builders::ring(n))
                    .unwrap()
                    .legitimacy(),
            );
            let runs = if n >= 32 { 120 } else { 300 };
            let b = estimate(&alg, daemon, &spec, &settings(runs, 42 + n as u64));
            assert_eq!(b.failures, 0, "Theorem 9: all runs converge");
            table.row(vec![
                format!("Trans(token-circulation)"),
                daemon.to_string(),
                n.to_string(),
                b.runs.to_string(),
                fmt_ci(b.steps.mean, b.steps.ci95()),
                fmt_ci(b.rounds.mean, b.rounds.ci95()),
            ]);
            pts.push((n as f64, b.steps.mean));
        }
        let slope = log_log_slope(&pts);
        slopes.push((format!("Trans(token) @ {daemon}"), slope));
    }

    // Herman's ring (synchronous): Θ(N²) expected steps. Where the
    // engine's rotation-quotient chain is feasible (N ≤ 15 — far past the
    // full-sweep cutoff of N ≈ 7), the Monte-Carlo mean is cross-checked
    // against the *exact* orbit-weighted expectation (ROADMAP open item 2:
    // the large-N arms drive `ExploreOptions` rather than the full sweep).
    let mut pts = Vec::new();
    let mut exact = Table::new(vec!["N", "explored states", "exact avg steps", "MC mean"]);
    for n in [5usize, 11, 21, 41] {
        let alg = HermanRing::on_ring(&builders::ring(n)).unwrap();
        let spec = alg.legitimacy();
        let b = estimate(
            &alg,
            DaemonSpec::synchronous(),
            &spec,
            &settings(300, 7 + n as u64),
        );
        assert_eq!(b.failures, 0);
        table.row(vec![
            "herman".into(),
            "synchronous".into(),
            n.to_string(),
            b.runs.to_string(),
            fmt_ci(b.steps.mean, b.steps.ci95()),
            fmt_ci(b.rounds.mean, b.rounds.ci95()),
        ]);
        pts.push((n as f64, b.steps.mean));
        if n <= 15 {
            let opts = ExploreOptions::full().with_ring_quotient();
            let chain =
                AbsorbingChain::build_with(&alg, DaemonSpec::synchronous(), &spec, 1 << 26, &opts)
                    .expect("quotient chain");
            let times = chain.expected_steps().expect("Herman absorbs a.s.");
            let avg = times.average_weighted(chain.transient_orbits(), chain.represented_configs());
            assert!(
                (b.steps.mean - avg).abs() <= 6.0 * b.steps.ci95().max(1e-3),
                "MC mean {} deviates from exact {} at N={n}",
                b.steps.mean,
                avg
            );
            exact.row(vec![
                n.to_string(),
                chain.n_explored().to_string(),
                fmt3(avg),
                fmt3(b.steps.mean),
            ]);
        }
    }
    // Exact quotient arms past the Monte-Carlo grid's overlap, extending
    // the exact curve to N=13/15 where the full sweep is long infeasible.
    for n in [13usize, 15] {
        let alg = HermanRing::on_ring(&builders::ring(n)).unwrap();
        let spec = alg.legitimacy();
        let opts = ExploreOptions::full().with_ring_quotient();
        let chain =
            AbsorbingChain::build_with(&alg, DaemonSpec::synchronous(), &spec, 1 << 26, &opts)
                .expect("quotient chain");
        let times = chain.expected_steps().expect("Herman absorbs a.s.");
        let avg = times.average_weighted(chain.transient_orbits(), chain.represented_configs());
        exact.row(vec![
            n.to_string(),
            chain.n_explored().to_string(),
            fmt3(avg),
            "—".into(),
        ]);
    }
    slopes.push(("herman @ synchronous".into(), log_log_slope(&pts)));

    // Dijkstra K-state under central-randomized.
    let mut pts = Vec::new();
    for n in [4usize, 8, 16, 32] {
        let alg = DijkstraRing::on_ring(&builders::ring(n)).unwrap();
        let spec = alg.legitimacy();
        let b = estimate(
            &alg,
            DaemonSpec::central(),
            &spec,
            &settings(300, 1000 + n as u64),
        );
        assert_eq!(b.failures, 0);
        table.row(vec![
            "dijkstra-k-state".into(),
            "central".into(),
            n.to_string(),
            b.runs.to_string(),
            fmt_ci(b.steps.mean, b.steps.ci95()),
            fmt_ci(b.rounds.mean, b.rounds.ci95()),
        ]);
        pts.push((n as f64, b.steps.mean));
    }
    slopes.push(("dijkstra @ central".into(), log_log_slope(&pts)));

    print!("{}", table.to_markdown());
    println!();
    println!("## Herman: exact rotation-quotient expectations vs Monte-Carlo");
    println!();
    print!("{}", exact.to_markdown());
    println!();
    println!("## Growth exponents (log-log slope of mean steps vs N)");
    println!();
    let mut st = Table::new(vec!["series", "exponent"]);
    for (name, s) in &slopes {
        st.row(vec![name.clone(), format!("{s:.2}")]);
    }
    print!("{}", st.to_markdown());
    println!();
    println!("Shape check: every series grows ≈ N² in steps (token random walks merge in");
    println!("quadratic time). The transformed anonymous ring pays a constant factor over");
    println!("rooted Dijkstra and native Herman at equal N (coin-halting + anonymity);");
    println!("in steps the synchronous scheduler is fastest (all enabled processes toss");
    println!("each step; one round = one step), while central needs ≈ |enabled| steps");
    println!("per round.");
}
