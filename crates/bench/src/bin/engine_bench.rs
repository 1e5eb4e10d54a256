//! Engine evaluation: shared-state epoch engine vs. fully isolated chains.
//!
//! Runs a table1-style compression sweep twice at equal iteration budgets —
//! once with the epoch engine's cross-chain cache + counterexample exchange
//! (the default `EngineConfig`), once with every chain isolated
//! (`EngineConfig::isolated()`, the pre-engine behaviour) — and reports, per
//! benchmark and in aggregate: compression, total solver queries, verdict
//! cache hit rates (including the shared layer's cross-chain hit rate), and
//! time-to-best. A same-seed re-run of the shared configuration checks
//! reproducibility, and ablation sweeps isolate each solver-pipeline stage:
//! windows off (optimization IV) and a cold configuration with pre-SMT
//! refutation off — every cache miss then pays a full-program query. The run
//! asserts that windows change no result bit, that solver queries do not
//! increase with windows on, and — via a per-benchmark
//! proposal-stream replay — that concrete-execution refutation never flips a
//! verdict against the solver-only checker (CI gates on this run). The
//! numbers — window-hit rate, refutation counts, and the solver-time deltas
//! of each stage — land in `BENCH_engine.json` at the repository root so the
//! gains are tracked in-tree, together with each benchmark's candidate
//! grading (evaluations, test runs, evaluation-memo hits, early rejections,
//! the memo's peak bytes) and its compilation wall time. The file records
//! one budget, `K2_ITERS=400`; a run at any other budget prints its sweep and
//! leaves the record alone.

use bpf_bench_suite::Benchmark;
use bpf_equiv::{CacheStats, EquivChecker, EquivOptions, Refuter, Window};
use bpf_interp::BackendKind;
use bpf_isa::Program;
use k2_api::CountingSink;
use k2_bench::{batch_workers, bench_options, default_iterations, render_table};
use k2_core::engine::{run_batch, BatchJob};
use k2_core::proposals::RuleProbabilities;
use k2_core::{
    CostStats, EngineConfig, EngineReport, EventSinkRef, K2Result, ProposalGenerator, SearchParams,
    TelemetryRef,
};
use std::sync::Arc;

/// The iteration budget `BENCH_engine.json` records.
const RECORDED_ITERATIONS: u64 = 400;

struct ConfigRun {
    rows: Vec<K2Result>,
}

/// Which solver-pipeline stages a configuration runs with.
#[derive(Clone, Copy)]
struct Pipeline {
    windows: bool,
    refute: bool,
}

impl Pipeline {
    fn full() -> Pipeline {
        Pipeline {
            windows: true,
            refute: true,
        }
    }
}

fn run_config(
    engine: EngineConfig,
    pipeline: Pipeline,
    iterations: u64,
    benches: &[Benchmark],
    baselines: &[Program],
    sink: &Arc<CountingSink>,
    telemetry: &TelemetryRef,
) -> ConfigRun {
    let params: Vec<SearchParams> = SearchParams::table8();
    let jobs: Vec<BatchJob> = benches
        .iter()
        .zip(baselines)
        .map(|(bench, baseline)| {
            let mut options = bench_options(bench, iterations, params.clone());
            options.engine = engine;
            options.window_verification = pipeline.windows;
            options.refute_inputs = if pipeline.refute { 64 } else { 0 };
            // One shared counting sink observes every job of the sweep: the
            // streamed event totals land in the summary below.
            options.sink = EventSinkRef::new(sink.clone());
            // Telemetry is always on for the bench: each job's report gains
            // the solver-time breakdown, and the shared recorder accumulates
            // the sweep-wide totals. A pure observer — the reproducibility
            // and window-purity assertions below run with it attached.
            options.telemetry = telemetry.clone();
            BatchJob {
                program: baseline.clone(),
                options,
            }
        })
        .collect();
    ConfigRun {
        rows: run_batch(jobs, batch_workers())
            .into_iter()
            .map(|result| result.expect("benchmark compilation panicked"))
            .collect(),
    }
}

/// Seconds spent in one named telemetry timer of a compilation.
fn timer_s(report: &EngineReport, name: &str) -> f64 {
    report
        .telemetry
        .timer(name)
        .map_or(0.0, |t| t.total_us as f64 / 1e6)
}

/// p99 latency of one full equivalence check (encode + solve), microseconds.
fn p99_query_us(report: &EngineReport) -> u64 {
    report
        .telemetry
        .timer("equiv.check")
        .map_or(0, |t| t.p99_us())
}

/// The three proposal rules this compilation spent the most evaluation time
/// on, most expensive first, as `rule_a,rule_b,rule_c`.
fn top_rules(report: &EngineReport) -> String {
    let mut rules: Vec<(&str, u64)> = report
        .telemetry
        .timers
        .iter()
        .filter_map(|(name, t)| {
            name.strip_prefix("core.rule.")
                .and_then(|rest| rest.strip_suffix(".eval"))
                .map(|rule| (rule, t.total_us))
        })
        .collect();
    rules.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
    rules.truncate(3);
    rules
        .iter()
        .map(|(rule, _)| *rule)
        .collect::<Vec<_>>()
        .join(",")
}

fn mean_compression(run: &ConfigRun, baselines: &[Program]) -> f64 {
    let mut total = 0.0;
    for (baseline, result) in baselines.iter().zip(&run.rows) {
        let base = baseline.real_len();
        let k2 = result.best.real_len().min(base);
        total += 100.0 * (base as f64 - k2 as f64) / base as f64;
    }
    total / baselines.len().max(1) as f64
}

fn total_queries(run: &ConfigRun) -> u64 {
    run.rows.iter().map(|r| r.report.equiv.queries).sum()
}

fn total_window_hits(run: &ConfigRun) -> u64 {
    run.rows.iter().map(|r| r.report.equiv.window_hits).sum()
}

fn total_window_fallbacks(run: &ConfigRun) -> u64 {
    run.rows
        .iter()
        .map(|r| r.report.equiv.window_fallbacks)
        .sum()
}

fn total_window_time_s(run: &ConfigRun) -> f64 {
    run.rows
        .iter()
        .map(|r| r.report.equiv.window_time_us)
        .sum::<u64>() as f64
        / 1e6
}

fn total_solver_time_s(run: &ConfigRun) -> f64 {
    run.rows
        .iter()
        .map(|r| r.report.equiv.total_time_us)
        .sum::<u64>() as f64
        / 1e6
}

fn total_refuted(run: &ConfigRun) -> u64 {
    run.rows
        .iter()
        .map(|r| r.report.equiv.refuted_by_testing)
        .sum()
}

fn total_escalations(run: &ConfigRun) -> u64 {
    run.rows
        .iter()
        .map(|r| r.report.equiv.smt_escalations)
        .sum()
}

fn total_refute_time_s(run: &ConfigRun) -> f64 {
    run.rows
        .iter()
        .map(|r| r.report.equiv.refute_time_us)
        .sum::<u64>() as f64
        / 1e6
}

/// The refutation gate: replay one proposal stream per benchmark through a
/// refuting checker and a solver-only checker and require identical verdicts
/// candidate by candidate. Refutation answers from concrete execution, so a
/// flip here is exactly the bug class where the interpreter/JIT's view of a
/// program disagrees with the SMT encoding's. Returns the refuted/escalated
/// totals of the refuting side so the summary can show the gate had teeth.
fn assert_refutation_verdict_parity(benches: &[Benchmark], baselines: &[Program]) -> (u64, u64) {
    let mut refuted = 0u64;
    let mut escalated = 0u64;
    for (bench, baseline) in benches.iter().zip(baselines) {
        let mut generator = ProposalGenerator::new(
            baseline,
            RuleProbabilities::default(),
            0x5eed + bench.row as u64,
        );
        let opts = EquivOptions {
            enable_cache: false,
            ..EquivOptions::default()
        };
        let mut refuting = EquivChecker::new(opts);
        refuting.set_refuter(Refuter::new(
            baseline,
            BackendKind::Auto,
            64,
            0xbead + bench.row as u64,
        ));
        let mut solver_only = EquivChecker::new(opts);
        let mut current = baseline.insns.clone();
        for step in 0..16 {
            let (proposal, _rule, region) = generator.propose(&current);
            let cand = baseline.with_insns(proposal.clone());
            let window = Some(Window {
                start: region.start,
                end: region.end,
            });
            let a = refuting.check_in_window(baseline, &cand, window);
            let b = solver_only.check_in_window(baseline, &cand, window);
            assert_eq!(
                a.is_equivalent(),
                b.is_equivalent(),
                "refutation flipped a verdict on {} step {step}: {a:?} vs solver-only {b:?}",
                bench.name
            );
            if step % 3 == 0 {
                current = proposal;
            }
        }
        refuted += refuting.stats.refuted_by_testing;
        escalated += refuting.stats.smt_escalations;
    }
    (refuted, escalated)
}

fn window_hit_rate_pct(run: &ConfigRun) -> f64 {
    let hits = total_window_hits(run);
    let total = hits + total_window_fallbacks(run);
    if total == 0 {
        0.0
    } else {
        100.0 * hits as f64 / total as f64
    }
}

fn fold_stats(run: &ConfigRun, pick: impl Fn(&K2Result) -> CacheStats) -> CacheStats {
    run.rows.iter().fold(CacheStats::default(), |mut acc, r| {
        let s = pick(r);
        acc.hits += s.hits;
        acc.misses += s.misses;
        acc
    })
}

fn cache_hit_rate(run: &ConfigRun) -> f64 {
    100.0 * fold_stats(run, |r| r.report.cache).hit_rate()
}

fn shared_hit_rate(run: &ConfigRun) -> f64 {
    100.0 * fold_stats(run, |r| r.report.shared_cache).hit_rate()
}

fn mean_time_to_best_s(run: &ConfigRun) -> f64 {
    let total: u64 = run.rows.iter().map(|r| r.report.time_to_best_us).sum();
    total as f64 / 1e6 / run.rows.len().max(1) as f64
}

fn main() {
    let iterations = default_iterations();
    let benches = bpf_bench_suite::all();
    println!(
        "Engine evaluation over {} benchmarks, {iterations} iterations per chain\n",
        benches.len()
    );

    let baselines: Vec<Program> = benches
        .iter()
        .map(|b| k2_baseline::best_baseline(&b.prog).1)
        .collect();
    // The refutation verdict-parity gate runs first: it is cheap, and a flip
    // means every refuting sweep below would be optimizing against a lie.
    let (replay_refuted, replay_escalated) = assert_refutation_verdict_parity(&benches, &baselines);

    let events = Arc::new(CountingSink::new());
    let telemetry = TelemetryRef::collector();
    let shared = run_config(
        EngineConfig::default(),
        Pipeline::full(),
        iterations,
        &benches,
        &baselines,
        &events,
        &telemetry,
    );
    let isolated = run_config(
        EngineConfig::isolated(),
        Pipeline::full(),
        iterations,
        &benches,
        &baselines,
        &events,
        &telemetry,
    );
    // Same-seed reproducibility of the shared-state engine.
    let rerun = run_config(
        EngineConfig::default(),
        Pipeline::full(),
        iterations,
        &benches,
        &baselines,
        &events,
        &telemetry,
    );
    // Optimization IV ablation: identical configuration, windows off.
    let nowin = run_config(
        EngineConfig::default(),
        Pipeline {
            windows: false,
            ..Pipeline::full()
        },
        iterations,
        &benches,
        &baselines,
        &events,
        &telemetry,
    );
    // Cold configuration: refutation off — the pre-pipeline solver cost,
    // kept in the sweep so BENCH_engine.json tracks the before/after of the
    // pre-SMT stage.
    let cold = run_config(
        EngineConfig::default(),
        Pipeline {
            refute: false,
            ..Pipeline::full()
        },
        iterations,
        &benches,
        &baselines,
        &events,
        &telemetry,
    );
    let reproducible = shared
        .rows
        .iter()
        .zip(&rerun.rows)
        .all(|(a, b)| a.best.insns == b.best.insns && a.best_cost == b.best_cost);

    // Window verification must be a pure solver-work optimization: same
    // seed, windows on vs. off, bit-identical results — and with windows on,
    // full-program solver queries must not increase (CI gates on this run).
    for ((bench, s), n) in benches.iter().zip(&shared.rows).zip(&nowin.rows) {
        assert_eq!(
            s.best.insns, n.best.insns,
            "windows changed the result on {}",
            bench.name
        );
        assert_eq!(
            s.best_cost, n.best_cost,
            "windows changed the cost on {}",
            bench.name
        );
        assert!(
            s.report.equiv.queries <= n.report.equiv.queries,
            "windows increased solver queries on {}: {} > {}",
            bench.name,
            s.report.equiv.queries,
            n.report.equiv.queries
        );
        // Trajectory-level purity, not just the final program: the same
        // counterexamples must flow and every chain must accept the same
        // moves. A window verdict that diverges from the full check shows
        // up here long before it corrupts a best program.
        assert_eq!(
            s.report.counterexamples_exchanged, n.report.counterexamples_exchanged,
            "windows changed the counterexample flow on {}",
            bench.name
        );
        assert_eq!(
            s.report.equiv.cache_misses, n.report.equiv.cache_misses,
            "windows changed the verdict-cache behaviour on {}",
            bench.name
        );
        for ((id_s, cost_s, st_s), (id_n, cost_n, st_n)) in s.chains.iter().zip(&n.chains) {
            assert_eq!(id_s, id_n);
            assert_eq!(
                (cost_s, st_s.iterations, st_s.accepted, st_s.best_found_at),
                (cost_n, st_n.iterations, st_n.accepted, st_n.best_found_at),
                "windows changed chain {id_s}'s trajectory on {}",
                bench.name
            );
        }
    }
    assert!(
        total_queries(&shared) <= total_queries(&nowin),
        "windows must not increase total solver queries ({} > {})",
        total_queries(&shared),
        total_queries(&nowin)
    );

    // The cold configuration must not have run either pre-SMT stage.
    for (bench, c) in benches.iter().zip(&cold.rows) {
        assert_eq!(
            (
                c.report.equiv.refuted_by_testing,
                c.report.equiv.smt_escalations
            ),
            (0, 0),
            "the refutation stage ran in the cold configuration on {}",
            bench.name
        );
    }

    let mut table = Vec::new();
    for (((bench, s), i), n) in benches
        .iter()
        .zip(&shared.rows)
        .zip(&isolated.rows)
        .zip(&nowin.rows)
    {
        table.push(vec![
            bench.name.to_string(),
            s.best.real_len().to_string(),
            i.best.real_len().to_string(),
            s.report.equiv.queries.to_string(),
            n.report.equiv.queries.to_string(),
            i.report.equiv.queries.to_string(),
            format!("{:.0}%", 100.0 * s.report.cache.hit_rate()),
            s.report.equiv.window_hits.to_string(),
            s.report.equiv.refuted_by_testing.to_string(),
            s.report.shared_cache.hits.to_string(),
            s.report.counterexamples_exchanged.to_string(),
        ]);
    }
    println!(
        "{}",
        render_table(
            &[
                "benchmark",
                "K2(shared)",
                "K2(isolated)",
                "queries",
                "queries(no-win)",
                "queries(isolated)",
                "hit rate",
                "win hits",
                "refuted",
                "x-chain hits",
                "cex exchanged"
            ],
            &table
        )
    );

    // Solver-time attribution per benchmark (shared configuration), from
    // the per-compilation telemetry snapshot: where the solver seconds went
    // (encoding vs. SAT solving), tail query latency, how many queries the
    // solve memo answered and the CNF bytes it retained, and which proposal
    // rules cost the most evaluation time.
    let mut attribution = Vec::new();
    for (bench, s) in benches.iter().zip(&shared.rows) {
        attribution.push(vec![
            bench.name.to_string(),
            format!("{:.3}", timer_s(&s.report, "equiv.encode")),
            format!("{:.3}", timer_s(&s.report, "bitsmt.solve")),
            p99_query_us(&s.report).to_string(),
            s.report.equiv.memo_hits.to_string(),
            format!("{:.1}", s.report.solve_memo_bytes as f64 / 1e6),
            top_rules(&s.report),
        ]);
    }
    println!(
        "{}",
        render_table(
            &[
                "benchmark",
                "encode s",
                "solve s",
                "p99 query us",
                "memo hits",
                "memo MB",
                "top rules by eval time"
            ],
            &attribution
        )
    );

    // Candidate grading per benchmark (shared configuration): evaluations,
    // the test runs they cost, how many reused the evaluation memo or
    // stopped early, the memo's peak size, and the compilation's wall time.
    let mut grading = Vec::new();
    for (bench, s) in benches.iter().zip(&shared.rows) {
        let cost = &s.report.cost;
        grading.push(vec![
            bench.name.to_string(),
            cost.evaluations.to_string(),
            cost.test_runs.to_string(),
            cost.eval_memo_hits.to_string(),
            cost.early_rejects.to_string(),
            format!("{:.1}", s.report.eval_memo_peak_bytes as f64 / 1e6),
            format!("{:.3}", s.report.wall_time_us as f64 / 1e6),
        ]);
    }
    println!(
        "{}",
        render_table(
            &[
                "benchmark",
                "evaluations",
                "test runs",
                "memo hits",
                "early rejects",
                "eval memo MB",
                "wall s"
            ],
            &grading
        )
    );

    let summary = [
        (
            "mean compression %",
            mean_compression(&shared, &baselines),
            mean_compression(&isolated, &baselines),
        ),
        (
            "total solver queries",
            total_queries(&shared) as f64,
            total_queries(&isolated) as f64,
        ),
        (
            "cache hit rate %",
            cache_hit_rate(&shared),
            cache_hit_rate(&isolated),
        ),
        (
            "mean time-to-best s",
            mean_time_to_best_s(&shared),
            mean_time_to_best_s(&isolated),
        ),
    ];
    for (name, s, i) in &summary {
        println!("{name:22} shared: {s:10.2}  isolated: {i:10.2}");
    }
    println!(
        "cross-chain shared-layer hit rate: {:.1}%  |  same-seed reproducible: {reproducible}",
        shared_hit_rate(&shared)
    );
    println!(
        "window verification: {} hits / {} fallbacks ({:.1}% hit rate), \
         solver queries {} with windows vs {} without ({} saved, results identical)",
        total_window_hits(&shared),
        total_window_fallbacks(&shared),
        window_hit_rate_pct(&shared),
        total_queries(&shared),
        total_queries(&nowin),
        total_queries(&nowin) - total_queries(&shared),
    );
    println!(
        "window solve time: {:.2}s on top of {:.2}s full-check time (windows on) \
         vs {:.2}s full-check time (windows off)",
        total_window_time_s(&shared),
        total_solver_time_s(&shared),
        total_solver_time_s(&nowin),
    );
    println!(
        "pre-SMT refutation: {} refuted / {} escalated in {:.2}s of concrete execution \
         (replay gate: {replay_refuted} refuted / {replay_escalated} escalated, no verdict flips)",
        total_refuted(&shared),
        total_escalations(&shared),
        total_refute_time_s(&shared),
    );
    println!(
        "solver pipeline: {:.2}s full-check time vs {:.2}s cold (refutation off)",
        total_solver_time_s(&shared),
        total_solver_time_s(&cold),
    );
    println!(
        "solve memo: {} of {} solver queries answered from an identical formula, \
         {:.1} MB of CNF retained at most (one compilation)",
        shared
            .rows
            .iter()
            .map(|r| r.report.equiv.memo_hits)
            .sum::<u64>(),
        total_queries(&shared),
        shared
            .rows
            .iter()
            .map(|r| r.report.solve_memo_bytes)
            .max()
            .unwrap_or(0) as f64
            / 1e6,
    );
    let grading: CostStats = shared.rows.iter().fold(CostStats::default(), |mut acc, r| {
        acc.absorb(&r.report.cost);
        acc
    });
    println!(
        "candidate grading: {} test runs for {} evaluations; {} reused the evaluation memo, \
         {} stopped before the last test",
        grading.test_runs, grading.evaluations, grading.eval_memo_hits, grading.early_rejects,
    );
    let counts = events.counts();
    println!(
        "streamed events: {} runs, {} epoch barriers, {} new global bests, {} solver-stat frames",
        counts.started, counts.epoch_barriers, counts.new_global_best, counts.solver_stats
    );

    // Record the run in BENCH_engine.json at the repository root.
    let mut rows_json = Vec::new();
    for (((bench, s), i), n) in benches
        .iter()
        .zip(&shared.rows)
        .zip(&isolated.rows)
        .zip(&nowin.rows)
    {
        rows_json.push(format!(
            "    {{\"benchmark\": \"{}\", \"k2_shared\": {}, \"k2_isolated\": {}, \
             \"queries_shared\": {}, \"queries_window_off\": {}, \"queries_isolated\": {}, \
             \"cache_hit_rate_pct\": {:.2}, \"window_hits\": {}, \"window_fallbacks\": {}, \
             \"refuted_by_testing\": {}, \"smt_escalations\": {}, \
             \"shared_layer_hits\": {}, \"cex_exchanged\": {}, \"time_to_best_s\": {:.3}, \
             \"encode_s\": {:.3}, \"solve_s\": {:.3}, \"p99_query_us\": {}, \
             \"solve_memo_hits\": {}, \"solve_memo_bytes\": {}, \"top_rules\": \"{}\", \
             \"evaluations\": {}, \"test_runs\": {}, \"eval_memo_hits\": {}, \
             \"early_rejects\": {}, \"eval_memo_peak_bytes\": {}, \"wall_s\": {:.3}}}",
            bench.name,
            s.best.real_len(),
            i.best.real_len(),
            s.report.equiv.queries,
            n.report.equiv.queries,
            i.report.equiv.queries,
            100.0 * s.report.cache.hit_rate(),
            s.report.equiv.window_hits,
            s.report.equiv.window_fallbacks,
            s.report.equiv.refuted_by_testing,
            s.report.equiv.smt_escalations,
            s.report.shared_cache.hits,
            s.report.counterexamples_exchanged,
            s.report.time_to_best_us as f64 / 1e6,
            timer_s(&s.report, "equiv.encode"),
            timer_s(&s.report, "bitsmt.solve"),
            p99_query_us(&s.report),
            s.report.equiv.memo_hits,
            s.report.solve_memo_bytes,
            top_rules(&s.report),
            s.report.cost.evaluations,
            s.report.cost.test_runs,
            s.report.cost.eval_memo_hits,
            s.report.cost.early_rejects,
            s.report.eval_memo_peak_bytes,
            s.report.wall_time_us as f64 / 1e6,
        ));
    }
    let json = format!(
        "{{\n  \"bench\": \"engine_bench\",\n  \"iterations_per_chain\": {iterations},\n  \
         \"mean_compression_shared_pct\": {:.2},\n  \"mean_compression_isolated_pct\": {:.2},\n  \
         \"mean_compression_window_off_pct\": {:.2},\n  \
         \"total_solver_queries_shared\": {},\n  \"total_solver_queries_window_off\": {},\n  \
         \"total_solver_queries_isolated\": {},\n  \
         \"window_hits\": {},\n  \"window_fallbacks\": {},\n  \
         \"window_hit_rate_pct\": {:.2},\n  \"solver_queries_saved_by_windows\": {},\n  \
         \"window_time_s\": {:.3},\n  \"solver_time_shared_s\": {:.3},\n  \
         \"solver_time_window_off_s\": {:.3},\n  \
         \"solver_time_cold_s\": {:.3},\n  \
         \"mean_compression_cold_pct\": {:.2},\n  \
         \"refuted_by_testing\": {},\n  \"smt_escalations\": {},\n  \
         \"refute_time_s\": {:.3},\n  \"refute_verdict_parity\": true,\n  \
         \"cache_hit_rate_shared_pct\": {:.2},\n  \"cache_hit_rate_isolated_pct\": {:.2},\n  \
         \"cross_chain_shared_layer_hit_rate_pct\": {:.2},\n  \
         \"mean_time_to_best_shared_s\": {:.3},\n  \"mean_time_to_best_isolated_s\": {:.3},\n  \
         \"same_seed_reproducible\": {reproducible},\n  \
         \"evaluations_shared\": {},\n  \"test_runs_shared\": {},\n  \
         \"eval_memo_hits_shared\": {},\n  \"early_rejects_shared\": {},\n  \
         \"results\": [\n{}\n  ]\n}}\n",
        mean_compression(&shared, &baselines),
        mean_compression(&isolated, &baselines),
        mean_compression(&nowin, &baselines),
        total_queries(&shared),
        total_queries(&nowin),
        total_queries(&isolated),
        total_window_hits(&shared),
        total_window_fallbacks(&shared),
        window_hit_rate_pct(&shared),
        total_queries(&nowin) - total_queries(&shared),
        total_window_time_s(&shared),
        total_solver_time_s(&shared),
        total_solver_time_s(&nowin),
        total_solver_time_s(&cold),
        mean_compression(&cold, &baselines),
        total_refuted(&shared),
        total_escalations(&shared),
        total_refute_time_s(&shared),
        cache_hit_rate(&shared),
        cache_hit_rate(&isolated),
        shared_hit_rate(&shared),
        mean_time_to_best_s(&shared),
        mean_time_to_best_s(&isolated),
        grading.evaluations,
        grading.test_runs,
        grading.eval_memo_hits,
        grading.early_rejects,
        rows_json.join(",\n")
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_engine.json");
    if iterations != RECORDED_ITERATIONS {
        println!(
            "left {path} alone: it records K2_ITERS={RECORDED_ITERATIONS}, this run used {iterations}"
        );
    } else {
        match std::fs::write(path, json) {
            Ok(()) => println!("wrote {path}"),
            Err(e) => eprintln!("could not write BENCH_engine.json: {e}"),
        }
    }

    // Sweep-wide telemetry: every job of all five configurations folded into
    // one snapshot, printed as the standard stats table and optionally
    // dumped as JSON to the configured `telemetry_json` path
    // (K2_TELEMETRY_JSON=<path>).
    if let Some(snapshot) = telemetry.snapshot() {
        println!("\nsweep telemetry (all five configurations):");
        println!("{}", snapshot.render_table());
        if let Some(path) = k2_api::K2Config::resolve()
            .ok()
            .and_then(|config| config.telemetry_json)
        {
            match std::fs::write(&path, snapshot.to_json_string()) {
                Ok(()) => println!("wrote telemetry to {path}"),
                Err(e) => eprintln!("could not write telemetry dump {path}: {e}"),
            }
        }
    }
}
