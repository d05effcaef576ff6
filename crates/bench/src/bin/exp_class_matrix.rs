//! **E4 — the stabilization-class matrix** (Theorems 1, 2, 4, 5, 6, 7):
//! every algorithm of the zoo, under every tractable scheduler, classified
//! by exhaustive checking into the paper's three stabilization classes and
//! the four fairness levels.
//!
//! Machine-checked paper claims, asserted at the bottom:
//! * Algorithm 1 and Algorithm 2 are weak- but not self-stabilizing under
//!   the distributed strongly fair scheduler (Theorems 2, 4, 6);
//! * they *are* self-stabilizing under Gouda fairness (Theorem 5) and
//!   probabilistically self-stabilizing under the randomized scheduler
//!   (Theorem 7) — and the two verdicts agree on **every** row;
//! * under the synchronous scheduler, weak ⇔ self for every deterministic
//!   row (Theorem 1);
//! * transformed systems are probabilistically self-stabilizing under the
//!   synchronous and distributed randomized schedulers (Theorems 8, 9).

use stab_algorithms::{
    CenterFinding, CenterLeader, DijkstraRing, FairnessGadget, GreedyColoring, HermanRing,
    ParentLeader, TokenCirculation, TwoProcessToggle,
};
use stab_bench::Table;
use stab_checker::{analyze, StabilizationReport};
use stab_core::{DaemonSpec, Fairness, ProjectedLegitimacy, Transformed};
use stab_graph::builders;

const CAP: u64 = 1 << 22;

fn push(rows: &mut Vec<StabilizationReport>, r: StabilizationReport) {
    rows.push(r);
}

fn main() {
    let mut rows: Vec<StabilizationReport> = Vec::new();
    let daemons = [
        DaemonSpec::central(),
        DaemonSpec::distributed(),
        DaemonSpec::synchronous(),
    ];

    // Algorithm 1 on rings 3..=6.
    for n in 3..=6usize {
        let alg = TokenCirculation::on_ring(&builders::ring(n)).unwrap();
        let spec = alg.legitimacy();
        for d in daemons {
            push(&mut rows, analyze(&alg, d, &spec, CAP).unwrap());
        }
    }

    // Algorithm 2 on the 4-chain, the 4-star and the Figure 2 tree.
    for g in [
        builders::path(4),
        builders::star(4),
        builders::figure2_tree(),
    ] {
        let alg = ParentLeader::on_tree(&g).unwrap();
        let spec = alg.legitimacy();
        for d in daemons {
            push(&mut rows, analyze(&alg, d, &spec, CAP).unwrap());
        }
    }

    // Center finding + center-based leader election on the 4-chain.
    let g = builders::path(4);
    let cf = CenterFinding::on_tree(&g).unwrap();
    for d in daemons {
        push(&mut rows, analyze(&cf, d, &cf.legitimacy(), CAP).unwrap());
    }
    let clead = CenterLeader::on_tree(&g).unwrap();
    for d in daemons {
        push(
            &mut rows,
            analyze(&clead, d, &clead.legitimacy(), CAP).unwrap(),
        );
    }

    // Algorithm 3.
    let toggle = TwoProcessToggle::new();
    for d in daemons {
        push(
            &mut rows,
            analyze(&toggle, d, &toggle.legitimacy(), CAP).unwrap(),
        );
    }

    // The weak-vs-strong fairness separation gadget.
    let gadget = FairnessGadget::new();
    for d in daemons {
        push(
            &mut rows,
            analyze(&gadget, d, &gadget.legitimacy(), CAP).unwrap(),
        );
    }

    // Baselines: Dijkstra, Herman, coloring.
    for n in [3usize, 4] {
        let alg = DijkstraRing::on_ring(&builders::ring(n)).unwrap();
        let spec = alg.legitimacy();
        for d in daemons {
            push(&mut rows, analyze(&alg, d, &spec, CAP).unwrap());
        }
    }
    for n in [3usize, 5] {
        let alg = HermanRing::on_ring(&builders::ring(n)).unwrap();
        let spec = alg.legitimacy();
        push(
            &mut rows,
            analyze(&alg, DaemonSpec::synchronous(), &spec, CAP).unwrap(),
        );
        push(
            &mut rows,
            analyze(&alg, DaemonSpec::distributed(), &spec, CAP).unwrap(),
        );
    }
    for g in [builders::path(3), builders::path(4), builders::ring(4)] {
        let alg = GreedyColoring::new(&g).unwrap();
        let spec = alg.legitimacy();
        for d in daemons {
            push(&mut rows, analyze(&alg, d, &spec, CAP).unwrap());
        }
    }

    // Transformed systems (Theorems 8–9).
    for n in [3usize, 4] {
        let alg = Transformed::new(TokenCirculation::on_ring(&builders::ring(n)).unwrap());
        let spec = ProjectedLegitimacy::new(
            TokenCirculation::on_ring(&builders::ring(n))
                .unwrap()
                .legitimacy(),
        );
        for d in [DaemonSpec::distributed(), DaemonSpec::synchronous()] {
            push(&mut rows, analyze(&alg, d, &spec, CAP).unwrap());
        }
    }
    let talg = Transformed::new(TwoProcessToggle::new());
    let tspec = ProjectedLegitimacy::new(TwoProcessToggle::new().legitimacy());
    for d in daemons {
        push(&mut rows, analyze(&talg, d, &tspec, CAP).unwrap());
    }
    let calg = Transformed::new(GreedyColoring::new(&builders::path(4)).unwrap());
    let cspec = ProjectedLegitimacy::new(
        GreedyColoring::new(&builders::path(4))
            .unwrap()
            .legitimacy(),
    );
    for d in [DaemonSpec::distributed(), DaemonSpec::synchronous()] {
        push(&mut rows, analyze(&calg, d, &cspec, CAP).unwrap());
    }

    // Print the matrix.
    println!(
        "# E4 — stabilization-class matrix (exhaustive, {} rows)",
        rows.len()
    );
    println!();
    let mut table = Table::new(vec![
        "algorithm",
        "daemon",
        "states",
        "closure",
        "weak",
        "self(unfair)",
        "self(weakly)",
        "self(strongly)",
        "self(Gouda)",
        "prob(randomized)",
    ]);
    for r in &rows {
        table.row(vec![
            r.algorithm.clone(),
            r.daemon.to_string(),
            r.states.to_string(),
            r.closure.mark().into(),
            r.weak.mark().into(),
            r.self_unfair.mark().into(),
            r.self_weakly_fair.mark().into(),
            r.self_strongly_fair.mark().into(),
            r.self_gouda.mark().into(),
            r.probabilistic.mark().into(),
        ]);
    }
    print!("{}", table.to_markdown());
    println!();

    // ---- Machine-checked paper claims. ----
    let mut checks: Vec<(&str, bool)> = Vec::new();

    // Theorem 7 on every row: Gouda ≡ probabilistic.
    checks.push((
        "Theorem 7: self(Gouda) == prob(randomized) on all rows",
        rows.iter()
            .all(|r| r.self_gouda.holds() == r.probabilistic.holds()),
    ));
    // Theorem 5 corollary: weak ⇒ Gouda-self for closed specs (finite).
    checks.push((
        "Theorem 5: weak ⇒ self(Gouda) whenever closure holds",
        rows.iter()
            .filter(|r| r.closure.holds() && r.weak.holds())
            .all(|r| r.self_gouda.holds()),
    ));
    // Theorem 1: synchronous rows of deterministic systems have weak == self.
    checks.push((
        "Theorem 1: weak == self(unfair) on synchronous deterministic rows",
        rows.iter()
            .filter(|r| r.daemon == DaemonSpec::synchronous() && r.deterministic)
            .all(|r| r.weak.holds() == r.self_unfair.holds()),
    ));
    // Theorems 2 + 6 on Algorithm 1 (distributed rows).
    checks.push((
        "Theorems 2+6: Algorithm 1 weak ✓ / self(strongly-fair) ✗ under distributed",
        rows.iter()
            .filter(|r| {
                r.algorithm.starts_with("token-circulation")
                    && r.daemon == DaemonSpec::distributed()
            })
            .all(|r| r.is_weak_stabilizing() && !r.self_under(Fairness::StronglyFair).holds()),
    ));
    // Theorem 4 on Algorithm 2 (distributed rows).
    checks.push((
        "Theorem 4: Algorithm 2 weak ✓ / self(strongly-fair) ✗ under distributed",
        rows.iter()
            .filter(|r| {
                r.algorithm.starts_with("parent-leader") && r.daemon == DaemonSpec::distributed()
            })
            .all(|r| r.is_weak_stabilizing() && !r.self_under(Fairness::StronglyFair).holds()),
    ));
    // Theorems 8–9: transformed rows are probabilistically self-stabilizing.
    checks.push((
        "Theorems 8+9: Trans(·) prob ✓ under synchronous & distributed",
        rows.iter()
            .filter(|r| {
                r.algorithm.starts_with("Trans(")
                    && (r.daemon == DaemonSpec::synchronous()
                        || r.daemon == DaemonSpec::distributed())
            })
            .all(|r| r.is_probabilistically_self_stabilizing()),
    ));
    // Baseline sanity: Dijkstra self-stabilizes under the central daemon.
    checks.push((
        "Dijkstra: self(strongly-fair) ✓ under central",
        rows.iter()
            .filter(|r| r.algorithm.starts_with("dijkstra") && r.daemon == DaemonSpec::central())
            .all(|r| r.is_self_stabilizing(Fairness::StronglyFair)),
    ));
    // Herman: probabilistically self-stabilizing under the synchronous daemon.
    checks.push((
        "Herman: prob ✓ under synchronous",
        rows.iter()
            .filter(|r| r.algorithm.starts_with("herman") && r.daemon == DaemonSpec::synchronous())
            .all(|r| r.is_probabilistically_self_stabilizing()),
    ));
    // Hierarchy strictness: the matrix itself witnesses a strict step at
    // every fairness boundary.
    checks.push((
        "Hierarchy: weakly-fair ✗ / strongly-fair ✓ exists (gadget)",
        rows.iter().any(|r| {
            !r.self_under(Fairness::WeaklyFair).holds()
                && r.self_under(Fairness::StronglyFair).holds()
        }),
    ));
    checks.push((
        "Hierarchy: unfair ✗ / weakly-fair ✓ exists",
        rows.iter().any(|r| {
            !r.self_under(Fairness::Unfair).holds() && r.self_under(Fairness::WeaklyFair).holds()
        }),
    ));
    checks.push((
        "Hierarchy: strongly-fair ✗ / Gouda ✓ exists (Theorem 6)",
        rows.iter().any(|r| {
            !r.self_under(Fairness::StronglyFair).holds() && r.self_under(Fairness::Gouda).holds()
        }),
    ));
    // Coloring: self under central, weak-only under distributed.
    checks.push((
        "Coloring: self ✓ @ central, weak-not-self @ distributed",
        rows.iter()
            .filter(|r| r.algorithm.starts_with("greedy-coloring"))
            .all(|r| {
                if r.daemon == DaemonSpec::central() {
                    r.is_self_stabilizing(Fairness::Unfair)
                } else if r.daemon == DaemonSpec::distributed() {
                    r.is_weak_stabilizing() && !r.self_under(Fairness::StronglyFair).holds()
                } else {
                    true
                }
            }),
    ));

    println!("## Machine-checked claims");
    println!();
    let mut all_ok = true;
    for (name, ok) in &checks {
        println!("- [{}] {}", if *ok { "PASS" } else { "FAIL" }, name);
        all_ok &= ok;
    }
    assert!(all_ok, "a machine-checked paper claim failed");
    println!();
    println!(
        "all {} claims PASS across {} matrix rows",
        checks.len(),
        rows.len()
    );
}
