//! Criterion micro-benchmarks of the bit-vector solver: a small
//! factorization query that needs SAT search, and the slow-query corpus of
//! real full-program queries (`crates/bench/data/slow_queries.tsv`) replayed
//! cold.

use bitsmt::{Solver, TermPool};
use bpf_equiv::{check_equivalence, EquivOptions};
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

fn find_factorization(width: u32) -> bool {
    let mut pool = TermPool::new();
    let x = pool.var("x", width);
    let y = pool.var("y", width);
    let prod = pool.mul(x, y);
    let c = pool.constant(221, width); // 13 * 17
    let goal = pool.eq(prod, c);
    let one = pool.constant(1, width);
    let xgt = pool.ugt(x, one);
    let ygt = pool.ugt(y, one);
    let conj1 = pool.and(goal, xgt);
    let conj = pool.and(conj1, ygt);
    let mut solver = Solver::new(&mut pool);
    solver.assert(conj);
    solver.check().is_sat()
}

fn bench_solver(c: &mut Criterion) {
    let mut group = c.benchmark_group("bitsmt");
    group.sample_size(10);
    group.bench_function("factor_221_16", |b| {
        b.iter(|| black_box(find_factorization(16)))
    });
    group.finish();
}

/// Each corpus query through the full-program checker with no window and
/// no cache: encoding, bit-blasting and one SAT solve.
fn bench_slow_queries(c: &mut Criterion) {
    let mut group = c.benchmark_group("slow_queries");
    group.sample_size(10);
    for (i, query) in k2_bench::slow_queries().into_iter().enumerate() {
        let id = format!("{i}_{}_{}", query.benchmark, query.equivalent);
        group.bench_function(id, |b| {
            b.iter(|| {
                let (outcome, _) =
                    check_equivalence(&query.source, &query.candidate, &EquivOptions::default());
                assert_eq!(outcome.is_equivalent(), query.equivalent);
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_solver, bench_slow_queries);
criterion_main!(benches);
