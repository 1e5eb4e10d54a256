//! Criterion micro-benchmarks of equivalence checking: full-program checks
//! with the paper's optimizations on and off (the timing data behind
//! Table 4), and window-based verification.

use bpf_bench_suite::by_name;
use bpf_equiv::{check_equivalence, check_window, EquivOptions, Window};
use bpf_isa::asm;
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

fn bench_equivalence(c: &mut Criterion) {
    let mut group = c.benchmark_group("equivalence");
    group.sample_size(10);

    let bench = by_name("xdp_pktcntr").expect("benchmark exists");
    let (_, optimized) = k2_baseline::best_baseline(&bench.prog);

    group.bench_function("pktcntr_all_optimizations", |b| {
        b.iter(|| {
            black_box(check_equivalence(
                &bench.prog,
                &optimized,
                &EquivOptions::default(),
            ))
        })
    });
    group.bench_function("pktcntr_no_optimizations", |b| {
        b.iter(|| {
            black_box(check_equivalence(
                &bench.prog,
                &optimized,
                &EquivOptions::none(),
            ))
        })
    });

    let window = Window { start: 1, end: 3 };
    let replacement = asm::assemble("stdw [r10-8], 0\nnop").unwrap();
    group.bench_function("pktcntr_window_check", |b| {
        b.iter(|| black_box(check_window(&bench.prog, window, &replacement)))
    });
    group.finish();
}

criterion_group!(benches, bench_equivalence);
criterion_main!(benches);
