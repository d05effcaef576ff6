//! **E10 — memory budgets**, in two parts.
//!
//! Part 1 (the paper's §3 claims): Algorithm 1 needs `log m_N` bits per
//! process (`m_N` = smallest non-divisor of `N`, proven minimal in \[3\]);
//! Algorithm 2 needs `log Δ` bits; the center-based election needs `log N`
//! bits. This tabulates the three budgets across network sizes.
//!
//! Part 2 (the engine's budgets): measured bytes of the **edge store**
//! across exploration modes and store tiers — the flat `Csr<Edge>` at
//! 24 B/edge against the compressed zig-zag-varint stream (PR 4's
//! two-tier store), which is what decides the largest checkable instance
//! now that reachable/quotient modes cap states. Run in CI as a smoke
//! check that reachable mode and both tiers stay exercised outside
//! `exp_explore`.

use stab_algorithms::{HermanRing, TokenCirculation};
use stab_bench::Table;
use stab_checker::ExploredSpace;
use stab_core::engine::{EdgeStoreKind, ExploreOptions};
use stab_core::{Algorithm, Configuration, DaemonSpec, Legitimacy, LocalState};
use stab_graph::builders;
use stab_graph::ring::smallest_non_divisor;
use stab_markov::AbsorbingChain;

const CAP: u64 = 1 << 26;

fn bits(x: u64) -> u32 {
    // Bits to store a value in [0, x): ceil(log2(x)).
    // lint: cast-ok(a u64 bit count is at most 64)
    (64 - (x - 1).leading_zeros() as u64).max(1) as u32
}

/// One engine-memory row per store tier: explores `alg` under both tiers
/// with identical options and reports edge + `Q` bytes.
fn store_rows<A, L>(
    table: &mut Table,
    name: &str,
    alg: &A,
    daemon: DaemonSpec,
    spec: &L,
    opts: &ExploreOptions<A::State>,
    mode: &str,
) -> (u64, u64)
where
    A: Algorithm + Sync,
    A::State: LocalState + Sync,
    L: Legitimacy<A::State> + Sync,
{
    let mut per_store = Vec::new();
    for kind in [EdgeStoreKind::Flat, EdgeStoreKind::Compressed] {
        let kopts = opts.clone().with_edge_store(kind);
        let space =
            ExploredSpace::explore_with(alg, daemon, spec, CAP, &kopts).expect("engine explore");
        let chain =
            AbsorbingChain::build_with(alg, daemon, spec, CAP, &kopts).expect("engine chain");
        let edges = space.edge_store().n_edges();
        let bytes = space.edge_store().edge_bytes();
        table.row(vec![
            name.to_string(),
            mode.to_string(),
            kind.label().to_string(),
            space.total().to_string(),
            edges.to_string(),
            bytes.to_string(),
            format!("{:.2}", bytes as f64 / edges.max(1) as f64),
            chain.q().q_bytes().to_string(),
        ]);
        per_store.push(bytes);
    }
    (per_store[0], per_store[1])
}

fn main() {
    println!("# E10 — per-process memory budgets of the paper's algorithms");
    println!();
    let mut t = Table::new(vec![
        "N",
        "m_N",
        "Alg 1: log m_N bits",
        "Alg 2 (ring Δ=2): log(Δ+1) bits",
        "centers: log N bits",
    ]);
    for n in [3u64, 4, 5, 6, 7, 8, 12, 16, 24, 60, 120, 420, 840, 1024] {
        let m = smallest_non_divisor(n);
        t.row(vec![
            n.to_string(),
            m.to_string(),
            bits(m).to_string(),
            bits(3).to_string(),
            bits(n).to_string(),
        ]);
    }
    print!("{}", t.to_markdown());
    println!();
    println!("`m_N` grows only at highly divisible N (m_840 = 9): Algorithm 1's counter");
    println!("stays 2–4 bits for every N ≤ 1024 while the center-based election pays");
    println!("the full log N — the space separation the paper highlights, with [3]");
    println!("proving log m_N minimal for probabilistic token circulation.");
    println!();

    // ---- Part 2: engine edge-store memory across modes and tiers --------

    println!("# E10b — engine edge-store memory (flat 24 B/edge vs compressed stream)");
    println!();
    let mut t = Table::new(vec![
        "case",
        "mode",
        "store",
        "configs",
        "edges",
        "edge bytes",
        "B/edge",
        "Q bytes",
    ]);

    // Full sweep, ≥10^6 edges: Herman N=13 (3^13 ≈ 1.59·10^6 edges).
    let herman13 = HermanRing::on_ring(&builders::ring(13)).unwrap();
    let (flat_full, comp_full) = store_rows(
        &mut t,
        "herman/N=13/synchronous",
        &herman13,
        DaemonSpec::synchronous(),
        &herman13.legitimacy(),
        &ExploreOptions::full(),
        "full",
    );

    // Rotation quotient on Herman N=15 (≈ 7.3·10^5 folded edges).
    let herman15 = HermanRing::on_ring(&builders::ring(15)).unwrap();
    let (flat_quot, comp_quot) = store_rows(
        &mut t,
        "herman/N=15/synchronous",
        &herman15,
        DaemonSpec::synchronous(),
        &herman15.legitimacy(),
        &ExploreOptions::full().with_ring_quotient(),
        "full+rot",
    );

    // Reachable-only BFS: token ring N=10 from a scrambled seed — the
    // row-at-a-time streaming path of the compressed tier.
    let tr10 = TokenCirculation::on_ring(&builders::ring(10)).unwrap();
    let seed = Configuration::from_vec(vec![0u8, 2, 1, 0, 2, 1, 0, 2, 1, 0]);
    let (flat_reach, comp_reach) = store_rows(
        &mut t,
        "token_ring/N=10/central",
        &tr10,
        DaemonSpec::central(),
        &tr10.legitimacy(),
        &ExploreOptions::reachable(vec![seed]),
        "reachable",
    );

    print!("{}", t.to_markdown());
    println!();
    for (label, flat, comp) in [
        ("full sweep", flat_full, comp_full),
        ("rotation quotient", flat_quot, comp_quot),
        ("reachable", flat_reach, comp_reach),
    ] {
        assert!(
            comp < flat,
            "compressed store must beat flat on the {label} case ({comp} vs {flat} bytes)"
        );
        println!(
            "{label}: compressed = {:.1}% of flat ({:.1}× reduction)",
            100.0 * comp as f64 / flat as f64,
            flat as f64 / comp as f64
        );
    }
    println!();
    println!("The flat tier pays 24 B/edge plus u32 offsets; the compressed tier packs");
    println!("zig-zag varint successor deltas, varint activation masks and interned");
    println!("probability ids behind u64 offsets — the measured 3–6 B/edge is what");
    println!("moves the RAM ceiling from Herman N=15 (full) / N=17 (quotient) to the");
    println!("N=17 full sweep and beyond (see BENCH_explore.json, schema v7).");
}
