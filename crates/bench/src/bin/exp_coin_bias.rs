//! **E9 — transformer ablation**: how the coin bias `P(B = true) = p` of
//! `Trans(A)` affects the exact expected stabilization time.
//!
//! The paper fixes a fair coin; its proofs only need `0 < p < 1`. This
//! sweep shows the trade-off the fair coin balances: high `p` approaches
//! the raw (possibly diverging) synchronous behaviour — for symmetric
//! deadlocks like Algorithm 3 it *helps* (both processes likely fire
//! together), while for conflict-prone systems like coloring twins it
//! hurts; low `p` throttles progress everywhere.

use stab_algorithms::{GreedyColoring, TokenCirculation, TwoProcessToggle};
use stab_bench::{fmt3, Table};
use stab_core::{DaemonSpec, ProjectedLegitimacy, Transformed};
use stab_graph::builders;
use stab_markov::AbsorbingChain;

const CAP: u64 = 1 << 22;

fn sweep<F>(label: &str, daemon: DaemonSpec, table: &mut Table, build: F) -> (f64, f64)
where
    F: Fn(f64) -> (f64, f64),
{
    let mut best = (f64::INFINITY, 0.0);
    for pct in (5..=95).step_by(10) {
        let p = pct as f64 / 100.0;
        let (worst, avg) = build(p);
        table.row(vec![
            label.into(),
            daemon.to_string(),
            format!("{p:.2}"),
            fmt3(worst),
            fmt3(avg),
        ]);
        if worst < best.0 {
            best = (worst, p);
        }
    }
    best
}

fn main() {
    println!("# E9 — coin-bias ablation of the transformer (exact expected steps)");
    println!();
    let mut table = Table::new(vec!["system", "scheduler", "p(heads)", "worst", "avg"]);

    // Trans(Algorithm 3) under the synchronous scheduler.
    let toggle_best = sweep(
        "Trans(two-process-toggle)",
        DaemonSpec::synchronous(),
        &mut table,
        |p| {
            let alg = Transformed::with_bias(TwoProcessToggle::new(), p);
            let spec = ProjectedLegitimacy::new(TwoProcessToggle::new().legitimacy());
            let chain = AbsorbingChain::build(&alg, DaemonSpec::synchronous(), &spec, CAP).unwrap();
            let t = chain.expected_steps().unwrap();
            (t.worst_case(), t.average_uniform(chain.n_configs()))
        },
    );

    // Trans(Algorithm 1) on the 4-ring under the synchronous scheduler.
    let token_best = sweep(
        "Trans(token-circulation N=4)",
        DaemonSpec::synchronous(),
        &mut table,
        |p| {
            let alg =
                Transformed::with_bias(TokenCirculation::on_ring(&builders::ring(4)).unwrap(), p);
            let spec = ProjectedLegitimacy::new(
                TokenCirculation::on_ring(&builders::ring(4))
                    .unwrap()
                    .legitimacy(),
            );
            let chain = AbsorbingChain::build(&alg, DaemonSpec::synchronous(), &spec, CAP).unwrap();
            let t = chain.expected_steps().unwrap();
            (t.worst_case(), t.average_uniform(chain.n_configs()))
        },
    );

    // Trans(coloring) on the 2-chain (the twin-conflict core) under the
    // synchronous scheduler: symmetric conflicts need the coin to
    // *disagree*, so intermediate p is forced.
    let twins_best = sweep(
        "Trans(coloring twins)",
        DaemonSpec::synchronous(),
        &mut table,
        |p| {
            let alg = Transformed::with_bias(GreedyColoring::new(&builders::path(2)).unwrap(), p);
            let spec = ProjectedLegitimacy::new(
                GreedyColoring::new(&builders::path(2))
                    .unwrap()
                    .legitimacy(),
            );
            let chain = AbsorbingChain::build(&alg, DaemonSpec::synchronous(), &spec, CAP).unwrap();
            let t = chain.expected_steps().unwrap();
            (t.worst_case(), t.average_uniform(chain.n_configs()))
        },
    );

    print!("{}", table.to_markdown());
    println!();
    println!("## Optima (worst-case criterion)");
    println!();
    println!(
        "- Trans(Algorithm 3): best p = {:.2} (worst {});",
        toggle_best.1,
        fmt3(toggle_best.0)
    );
    println!(
        "- Trans(Algorithm 1, N=4): best p = {:.2} (worst {});",
        token_best.1,
        fmt3(token_best.0)
    );
    println!(
        "- Trans(coloring twins): best p = {:.2} (worst {}).",
        twins_best.1,
        fmt3(twins_best.0)
    );
    println!();
    println!("Reading: Algorithm 3 wants *high* p (it needs joint heads);");
    println!("symmetric conflicts want p near ½ (the coin is the tie-breaker);");
    println!("the paper's fair coin is a reasonable universal compromise.");

    // Sanity: symmetric-conflict twins are fastest strictly inside (0,1).
    assert!(twins_best.1 > 0.05 && twins_best.1 < 0.95);
}
