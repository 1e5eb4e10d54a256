//! Criterion micro-benchmarks of the execution backends: interpreter vs
//! native JIT throughput on bench-suite programs, plus a straight-line ALU
//! workload (where the JIT runs fully native) and a `table1`-style
//! mini-compression run under `K2_BACKEND=jit` confirming identical results.
//!
//! Beyond the on-screen numbers, the harness records the measured speedups
//! in `BENCH_jit.json` at the repository root so the gain is tracked in-tree.
//! Its `per_candidate` section times what the search does per candidate —
//! build the executor with `backend_for`, then run the 16-test corpus — and
//! is the record of why `BackendKind::Auto` resolves to the interpreter.

use bpf_interp::{ExecBackend, InputGenerator, InterpBackend, ProgramInput};
use bpf_isa::{asm, Program, ProgramType};
use bpf_jit::JitProgram;
use criterion::{criterion_group, criterion_main, Criterion};
use k2_core::proposals::RuleProbabilities;
use k2_core::{BackendKind, ProposalGenerator, SearchParams};
use k2_netsim::{TrafficGenerator, WorkloadConfig};
use std::hint::black_box;
use std::time::Instant;

/// A straight-line ALU-heavy program (no memory, no helpers): the workload
/// where translated code pays no callback cost at all.
fn alu_workload() -> Program {
    let mut text = String::from("mov64 r0, 7\nmov64 r2, 1\nmov64 r3, -3\n");
    for i in 0..40 {
        text.push_str(&format!(
            "add64 r0, r2\nmul64 r0, 3\nxor64 r0, {i}\nrsh64 r0, 1\nadd32 r2, r3\nor64 r0, r2\n"
        ));
    }
    text.push_str("exit\n");
    Program::new(ProgramType::Xdp, asm::assemble(&text).unwrap())
}

/// Mean seconds per corpus sweep for a backend.
fn measure(backend: &dyn ExecBackend, inputs: &[ProgramInput], reps: usize) -> f64 {
    // Warm-up.
    for input in inputs {
        let _ = black_box(backend.run(input));
    }
    let start = Instant::now();
    for _ in 0..reps {
        for input in inputs {
            let _ = black_box(backend.run(input));
        }
    }
    start.elapsed().as_secs_f64() / reps as f64
}

/// Proposals graded per program in the per-candidate sweep.
const CANDIDATES: usize = 2000;

/// Mean seconds to grade one candidate the way the cost function does:
/// build its executor with `backend_for`, run it on every test, drop it.
fn grade(kind: BackendKind, cands: &[Program], tests: &[ProgramInput]) -> f64 {
    let start = Instant::now();
    for cand in cands {
        let exec = bpf_jit::backend_for(cand, kind);
        for input in tests {
            let _ = black_box(exec.run(input));
        }
    }
    start.elapsed().as_secs_f64() / cands.len() as f64
}

/// Per-candidate cost of each backend over `ProposalGenerator` candidates
/// of a benchmark's best baseline, on the search's 16-test corpus. Returns
/// one JSON row; the median of five alternating rounds damps host drift.
fn per_candidate_row(name: &str) -> String {
    let bench = bpf_bench_suite::by_name(name).expect("benchmark exists");
    let (_, src) = k2_baseline::best_baseline(&bench.prog);
    let tests = InputGenerator::new(1).generate_suite(&src, 16);
    let mut generator = ProposalGenerator::new(&src, RuleProbabilities::default(), 1);
    let cands: Vec<Program> = (0..CANDIDATES)
        .map(|_| src.with_insns(generator.propose(&src.insns).0))
        .collect();
    let median = |mut v: Vec<f64>| {
        v.sort_by(f64::total_cmp);
        v[v.len() / 2]
    };
    let (mut interp, mut jit, mut compile) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..5 {
        interp.push(grade(BackendKind::Interp, &cands, &tests));
        jit.push(grade(BackendKind::Jit, &cands, &tests));
        compile.push(grade(BackendKind::Jit, &cands, &[]));
    }
    let (interp_us, jit_us, compile_us) = (
        median(interp) * 1e6,
        median(jit) * 1e6,
        median(compile) * 1e6,
    );
    let ratio = jit_us / interp_us;
    println!(
        "  {name} per candidate: interp {interp_us:.2}us  jit {jit_us:.2}us \
         (compile+unmap {compile_us:.2}us)  jit/interp {ratio:.2}"
    );
    format!(
        "    {{\"program\": \"{name}\", \"candidates\": {CANDIDATES}, \"tests\": {}, \"interp_us\": {interp_us:.3}, \"jit_us\": {jit_us:.3}, \"jit_compile_us\": {compile_us:.3}, \"jit_over_interp\": {ratio:.2}}}",
        tests.len()
    )
}

fn bench_backends(c: &mut Criterion) {
    let mut group = c.benchmark_group("exec_backend");
    group.sample_size(20);

    let mut rows = Vec::new();
    let mut cases: Vec<(String, Program)> = vec![("straightline_alu".into(), alu_workload())];
    for name in ["xdp_pktcntr", "xdp1_kern/xdp1", "xdp_fwd"] {
        let bench = bpf_bench_suite::by_name(name).expect("benchmark exists");
        cases.push((name.replace('/', "_"), bench.prog));
    }

    for (name, prog) in &cases {
        let mut generator = TrafficGenerator::new(WorkloadConfig::default());
        let packets = generator.packets(64);
        let interp = InterpBackend::new(prog.clone());
        group.bench_function(format!("{name}/interp"), |b| {
            b.iter(|| {
                for input in &packets {
                    let _ = black_box(interp.run(input));
                }
            })
        });
        if bpf_jit::jit_available() {
            let jit = JitProgram::compile(prog).expect("bench program must translate");
            group.bench_function(format!("{name}/jit"), |b| {
                b.iter(|| {
                    for input in &packets {
                        let _ = black_box(jit.run(input));
                    }
                })
            });
            // An independent steady-state measurement for the JSON record.
            let t_interp = measure(&interp, &packets, 30);
            let t_jit = measure(&jit, &packets, 30);
            let speedup = t_interp / t_jit;
            println!("  {name}: interp {t_interp:.2e}s  jit {t_jit:.2e}s  speedup {speedup:.1}x");
            rows.push(format!(
                "    {{\"program\": \"{name}\", \"interp_s\": {t_interp:.6e}, \"jit_s\": {t_jit:.6e}, \"speedup\": {speedup:.2}}}"
            ));
        }
    }
    group.finish();

    if !rows.is_empty() {
        let per_candidate: Vec<String> = ["xdp_pktcntr", "socket/0", "xdp1_kern/xdp1"]
            .into_iter()
            .map(per_candidate_row)
            .collect();
        let json = format!(
            "{{\n  \"bench\": \"jit_bench\",\n  \"cores\": {},\n  \"unit\": \"seconds per corpus sweep\",\n  \"results\": [\n{}\n  ],\n  \"per_candidate_unit\": \"microseconds per candidate: backend_for + 16 tests\",\n  \"per_candidate\": [\n{}\n  ]\n}}\n",
            std::thread::available_parallelism().map_or(1, |n| n.get()),
            rows.join(",\n"),
            per_candidate.join(",\n")
        );
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_jit.json");
        if let Err(e) = std::fs::write(path, json) {
            eprintln!("could not write BENCH_jit.json: {e}");
        } else {
            println!("wrote {path}");
        }
    }
}

/// `table1`-style check: the search must produce identical compression under
/// both backends (it does, because candidate evaluation is bit-identical).
fn bench_table1_style_jit(c: &mut Criterion) {
    let mut group = c.benchmark_group("table1_style");
    group.sample_size(2);
    let bench = bpf_bench_suite::by_name("xdp_pktcntr").expect("benchmark exists");
    let params: Vec<SearchParams> = SearchParams::table8().into_iter().take(2).collect();
    let mut results = Vec::new();
    for backend in [BackendKind::Interp, BackendKind::Jit] {
        group.bench_function(backend.name(), |b| {
            b.iter(|| {
                let row = k2_bench_compress(&bench, 600, params.clone(), backend);
                results.push((backend, row));
            })
        });
    }
    group.finish();
    // Every run — whichever backend — must land on the same compression.
    let lens: Vec<usize> = results.iter().map(|(_, len)| *len).collect();
    assert!(
        lens.windows(2).all(|w| w[0] == w[1]),
        "backends disagree on table1-style compression: {results:?}"
    );
}

/// One compression run with an explicit backend; returns the K2 output size.
fn k2_bench_compress(
    bench: &bpf_bench_suite::Benchmark,
    iterations: u64,
    params: Vec<SearchParams>,
    backend: BackendKind,
) -> usize {
    use k2_core::{optimize_with, CompilerOptions, OptimizationGoal};
    let (_, best_clang) = k2_baseline::best_baseline(&bench.prog);
    let options = CompilerOptions {
        goal: OptimizationGoal::InstructionCount,
        iterations,
        params,
        num_tests: 16,
        seed: 0x6b32 + bench.row as u64,
        top_k: 1,
        parallel: true,
        backend,
        ..CompilerOptions::default()
    };
    optimize_with(&options, &best_clang).best.real_len()
}

criterion_group!(benches, bench_backends, bench_table1_style_jit);
criterion_main!(benches);
