//! Integration tests of the epoch-based search engine: determinism with all
//! cross-chain sharing enabled, counterexample propagation between chains,
//! convergence/time-budget early exit, and the batch API.

use bpf_isa::{asm, Program, ProgramType};
use k2_core::engine::SearchContext;
use k2_core::{
    optimize_with, ChainStats, CompilerOptions, CostFunction, CostSettings, EngineConfig, K2Result,
    OptimizationGoal, SearchParams,
};
use std::sync::Arc;

fn xdp(text: &str) -> Program {
    Program::new(ProgramType::Xdp, asm::assemble(text).unwrap())
}

fn test_program() -> Program {
    xdp("mov64 r2, 0\nmov64 r3, 7\nadd64 r2, r3\nmov64 r4, r2\nmov64 r0, r4\nadd64 r0, 0\nexit")
}

/// All sharing features on, multiple epochs — the configuration whose
/// determinism is the interesting one.
fn sharing_engine() -> EngineConfig {
    EngineConfig {
        num_epochs: 4,
        shared_cache: true,
        exchange_counterexamples: true,
        restart_from_best: true,
        ..EngineConfig::default()
    }
}

fn optimize(seed: u64, parallel: bool, engine: EngineConfig) -> K2Result {
    let options = CompilerOptions {
        iterations: 400,
        num_tests: 8,
        seed,
        parallel,
        engine,
        ..CompilerOptions::default()
    };
    optimize_with(&options, &test_program())
}

/// `ChainStats` minus wall-clock time, which legitimately differs run-to-run.
fn logical_stats(stats: &ChainStats) -> ChainStats {
    ChainStats {
        time_us: 0,
        ..*stats
    }
}

fn assert_identical(a: &K2Result, b: &K2Result) {
    assert_eq!(a.best.insns, b.best.insns, "best programs differ");
    assert_eq!(a.best_cost, b.best_cost, "best costs differ");
    assert_eq!(a.improved, b.improved);
    for ((ida, costa, sa), (idb, costb, sb)) in a.chains.iter().zip(&b.chains) {
        assert_eq!(ida, idb);
        assert_eq!(costa, costb, "per-chain best costs differ (chain {ida})");
        assert_eq!(
            logical_stats(sa),
            logical_stats(sb),
            "per-chain statistics differ (chain {ida})"
        );
    }
    // The exchange itself must be deterministic, not just the outcome.
    assert_eq!(a.report.epochs_run, b.report.epochs_run);
    assert_eq!(a.report.equiv.queries, b.report.equiv.queries);
    assert_eq!(a.report.equiv.cache_hits, b.report.equiv.cache_hits);
    assert_eq!(
        a.report.equiv.shared_cache_hits,
        b.report.equiv.shared_cache_hits
    );
    assert_eq!(a.report.shared_cache_entries, b.report.shared_cache_entries);
    assert_eq!(a.report.counterexample_pool, b.report.counterexample_pool);
    assert_eq!(
        a.report.counterexamples_exchanged,
        b.report.counterexamples_exchanged
    );
}

#[test]
fn shared_state_engine_is_deterministic_sequential_parallel_and_rerun() {
    let sequential = optimize(0x6b32, false, sharing_engine());
    let parallel = optimize(0x6b32, true, sharing_engine());
    let rerun = optimize(0x6b32, true, sharing_engine());
    assert_identical(&sequential, &parallel);
    assert_identical(&parallel, &rerun);
}

#[test]
fn counterexamples_propagate_between_chains_through_the_context() {
    // A source whose behaviour depends on packet bytes the random test suite
    // rarely pins down: the constant-return candidate passes every generated
    // test for suitably small suites, so only the formal check can refute it
    // — producing a counterexample.
    let src = xdp("ldxdw r2, [r1+0]\nldxdw r3, [r1+8]\nmov64 r0, r3\nsub64 r0, r2\nexit");
    let cand = xdp("mov64 r0, 64\nexit");

    let mut ctx = SearchContext::new();
    let mut chain_a = CostFunction::with_shared_cache(
        &src,
        CostSettings::default(),
        OptimizationGoal::InstructionCount,
        4,
        1,
        Some(Arc::clone(ctx.cache())),
    );
    let mut chain_b = CostFunction::with_shared_cache(
        &src,
        CostSettings::default(),
        OptimizationGoal::InstructionCount,
        4,
        2, // different seed — different initial test suite
        Some(Arc::clone(ctx.cache())),
    );

    // Chain A refutes the candidate and hands its counterexample in at the
    // barrier.
    let v = chain_a.evaluate(&cand);
    assert!(!v.equivalent);
    let fresh = chain_a.take_counterexamples();
    assert!(!fresh.is_empty(), "refutation must yield a counterexample");
    assert_eq!(ctx.merge_counterexamples(fresh), 1);
    chain_a.publish_cache();

    // Chain B absorbs the pool: its test suite grows by the counterexample
    // it never discovered itself...
    let before = chain_b.num_tests();
    assert_eq!(chain_b.add_tests(ctx.pool()), 1);
    assert_eq!(chain_b.num_tests(), before + 1);
    // ...and chain A, which already holds the input, adds nothing.
    assert_eq!(chain_a.add_tests(ctx.pool()), 0);

    // The exchanged test now refutes the candidate in chain B by test
    // execution alone — no solver query, no second counterexample hunt.
    let queries_before = chain_b.equiv_stats().queries;
    let v = chain_b.evaluate(&cand);
    assert!(!v.equivalent);
    assert!(v.error > 0.0, "exchanged test must catch the candidate");
    assert_eq!(chain_b.equiv_stats().queries, queries_before);
}

#[test]
fn early_exit_honors_the_best_so_far_invariant() {
    // Nothing beats `mov64 r0, 2; exit`, so the stall criterion fires after
    // one epoch without improvement.
    let src = xdp("mov64 r0, 2\nexit");
    let options = CompilerOptions {
        iterations: 600,
        num_tests: 8,
        engine: EngineConfig {
            num_epochs: 6,
            stall_epochs: Some(1),
            ..EngineConfig::default()
        },
        ..CompilerOptions::default()
    };
    let result = optimize_with(&options, &src);
    assert!(result.report.early_exit);
    assert!(result.report.epochs_run < result.report.epochs_planned);
    // Best-so-far invariant: early exit still returns a program no worse
    // than the source.
    assert_eq!(result.best.insns, src.insns);
    assert!(result.best_cost <= src.real_len() as f64);
}

#[test]
fn time_budget_stops_the_search_and_keeps_the_best_so_far() {
    let src = test_program();
    let options = CompilerOptions {
        iterations: 2_000,
        num_tests: 8,
        engine: EngineConfig {
            num_epochs: 8,
            time_budget_ms: Some(0), // expires at the first barrier
            ..EngineConfig::default()
        },
        ..CompilerOptions::default()
    };
    let result = optimize_with(&options, &src);
    assert!(result.report.time_budget_hit);
    assert_eq!(result.report.epochs_run, 1);
    // The chains only ran the first epoch's slice of the budget. (Computed
    // from `epochs_planned` rather than hard-coded so the assertion is
    // robust to a different configured epoch count.)
    let planned = result.report.epochs_planned;
    let first_epoch = 2_000 / planned + u64::from(2_000 % planned > 0);
    for (_, _, stats) in &result.chains {
        assert_eq!(stats.iterations, first_epoch);
    }
    // Best-so-far invariant under the budget cut.
    assert!(result.best_cost <= src.real_len() as f64);
}

#[test]
fn batch_api_matches_individual_compilations() {
    let programs = [
        test_program(),
        xdp("mov64 r0, 5\nadd64 r0, 7\nadd64 r0, 0\nexit"),
        xdp("mov64 r0, 1\nexit"),
    ];
    let options = CompilerOptions {
        iterations: 300,
        num_tests: 8,
        params: SearchParams::table8().into_iter().take(2).collect(),
        ..CompilerOptions::default()
    };
    let jobs: Vec<k2_core::BatchJob> = programs
        .iter()
        .map(|program| k2_core::BatchJob {
            program: program.clone(),
            options: options.clone(),
        })
        .collect();
    let batched = k2_core::engine::run_batch(jobs, options.engine.batch_workers);
    assert_eq!(batched.len(), programs.len());
    for (program, from_batch) in programs.iter().zip(&batched) {
        let from_batch = from_batch.as_ref().expect("no job panics");
        let solo = optimize_with(&options, program);
        assert_eq!(solo.best.insns, from_batch.best.insns);
        assert_eq!(solo.best_cost, from_batch.best_cost);
        assert_eq!(solo.report.equiv.queries, from_batch.report.equiv.queries);
    }
}

#[test]
fn solve_memo_keeps_parallel_and_sequential_runs_identical() {
    // Chains of one compilation share the solve memo live, not at barriers,
    // so a parallel run decides different queries from the memo than a
    // sequential one. Nothing else may differ.
    let bench = bpf_bench_suite::by_name("xdp_devmap_xmit").expect("suite program");
    let run = |parallel| {
        let options = CompilerOptions {
            iterations: if cfg!(debug_assertions) { 120 } else { 400 },
            num_tests: 16,
            seed: 7,
            parallel,
            telemetry: k2_core::TelemetryRef::collector(),
            ..CompilerOptions::default()
        };
        optimize_with(&options, &bench.prog)
    };
    let sequential = run(false);
    let parallel = run(true);
    assert!(
        sequential.report.equiv.memo_hits > 0,
        "no formula repeated: {:?}",
        sequential.report.equiv
    );
    assert_identical(&sequential, &parallel);
    // Counts leave out times and which chain's solve filled a memo entry
    // first.
    assert_eq!(
        sequential.report.equiv.counts_only(),
        parallel.report.equiv.counts_only()
    );
    assert_eq!(
        sequential.report.telemetry.counts_only(),
        parallel.report.telemetry.counts_only()
    );
    assert_eq!(
        sequential.report.solve_memo_bytes,
        parallel.report.solve_memo_bytes
    );
    assert!(sequential.report.solve_memo_bytes > 0);
}
