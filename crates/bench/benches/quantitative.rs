//! B4 — quantitative-engine benchmarks: absorbing-chain construction and
//! the two linear solvers (dense elimination vs. sparse Gauss–Seidel).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use stab_algorithms::{DijkstraRing, TokenCirculation};
use stab_core::{Daemon, ProjectedLegitimacy, Transformed};
use stab_graph::builders;
use stab_markov::{linalg, AbsorbingChain, QStorage};

fn bench_chain_build(c: &mut Criterion) {
    let mut group = c.benchmark_group("chain_build");
    group.sample_size(10);
    for n in [4usize, 5] {
        let alg = Transformed::new(TokenCirculation::on_ring(&builders::ring(n)).unwrap());
        let spec = ProjectedLegitimacy::new(
            TokenCirculation::on_ring(&builders::ring(n))
                .unwrap()
                .legitimacy(),
        );
        group.bench_with_input(BenchmarkId::new("trans_token/central", n), &n, |b, _| {
            b.iter(|| {
                black_box(AbsorbingChain::build(&alg, Daemon::Central, &spec, 1 << 22).unwrap())
            })
        });
    }
    group.finish();
}

fn bench_solvers(c: &mut Criterion) {
    let mut group = c.benchmark_group("solvers");
    group.sample_size(10);
    // Dijkstra N=5 has 3040 transient states: a meaningful solve.
    let alg = DijkstraRing::on_ring(&builders::ring(5)).unwrap();
    let chain = AbsorbingChain::build(&alg, Daemon::Central, &alg.legitimacy(), 1 << 22).unwrap();
    let n = chain.n_transient();
    let QStorage::Flat(q) = chain.q() else {
        unreachable!("a default build stores Q flat")
    };
    group.bench_function("gauss_seidel/dijkstra_N5", |b| {
        b.iter(|| black_box(linalg::gauss_seidel(q, &vec![1.0; n], 1e-12, 1_000_000)))
    });
    // Dense solve on the N=4 chain (216 transient states).
    let alg4 = DijkstraRing::on_ring(&builders::ring(4)).unwrap();
    let chain4 =
        AbsorbingChain::build(&alg4, Daemon::Central, &alg4.legitimacy(), 1 << 22).unwrap();
    let m = chain4.n_transient();
    group.bench_function("dense_elimination/dijkstra_N4", |b| {
        b.iter(|| {
            let mut a = vec![vec![0.0; m]; m];
            for (i, row) in a.iter_mut().enumerate() {
                row[i] = 1.0;
                for (j, q) in chain4.q().row_iter(i) {
                    row[j as usize] -= q;
                }
            }
            black_box(linalg::solve_dense(a, vec![1.0; m]).unwrap())
        })
    });
    group.bench_function("expected_steps/dijkstra_N5", |b| {
        b.iter(|| black_box(chain.expected_steps().unwrap()))
    });
    group.finish();
}

criterion_group!(benches, bench_chain_build, bench_solvers);
criterion_main!(benches);
