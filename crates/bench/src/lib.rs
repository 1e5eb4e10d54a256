//! # k2-bench
//!
//! Harnesses that regenerate every table and figure of the K2 paper's
//! evaluation, plus Criterion micro-benchmarks for the substrates.
//!
//! Each table has a binary (`cargo run --release -p k2-bench --bin table1`,
//! ... `table10`, `figure_load_sweep`, `discovered_opts`). The binaries print
//! the same rows/series the paper reports and, where useful, a JSON blob for
//! further processing.
//!
//! The search budgets default to laptop-scale values so the whole suite runs
//! in minutes rather than the paper's multi-hour cluster runs; set the
//! `K2_ITERS` environment variable (iterations per Markov chain) and
//! `K2_ALL_BENCHMARKS=1` (include the largest programs) to scale up. All
//! environment knobs are read through the audited `k2_api::env` module and
//! the `K2Session` configuration layering — never via raw `std::env::var`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use bpf_bench_suite::Benchmark;
use bpf_equiv::CacheStats;
use bpf_isa::Program;
use k2_api::K2Session;
use k2_baseline::{best_baseline, OptLevel};
use k2_core::engine::{run_batch, BatchJob};
use k2_core::{
    CompilerOptions, EngineReport, EventSinkRef, K2Result, OptimizationGoal, SearchParams,
};

/// Iterations per Markov chain used by the table harnesses (override with
/// `K2_ITERS`).
pub fn default_iterations() -> u64 {
    k2_api::env::u64("K2_ITERS").unwrap_or(2_000)
}

/// Whether to include the largest benchmarks in the sweeps (override with
/// `K2_ALL_BENCHMARKS=1`).
pub fn include_all_benchmarks() -> bool {
    k2_api::env::flag("K2_ALL_BENCHMARKS").unwrap_or(false)
}

/// The benchmarks a harness should iterate over: all 19 when requested, a
/// representative small/medium subset otherwise.
pub fn selected_benchmarks() -> Vec<Benchmark> {
    let all = bpf_bench_suite::all();
    if include_all_benchmarks() {
        all
    } else {
        all.into_iter()
            .filter(|b| b.prog.real_len() <= 60)
            .collect()
    }
}

/// Result of compiling one benchmark with the baseline and with K2.
#[derive(Debug, Clone)]
pub struct CompressionRow {
    /// Benchmark name.
    pub name: String,
    /// Instruction count of the unoptimized (-O0-like) program.
    pub o0: usize,
    /// Instruction count of the `-O1` baseline.
    pub o1: usize,
    /// Instruction count of the best baseline (`-O2/-O3/-Os`).
    pub best_clang: usize,
    /// Which baseline level produced `best_clang`.
    pub best_level: OptLevel,
    /// Instruction count of K2's output.
    pub k2: usize,
    /// Compression relative to the best baseline, in percent.
    pub compression_pct: f64,
    /// Wall-clock seconds spent searching.
    pub time_s: f64,
    /// Iterations at which the best program was found (across chains).
    pub iterations: u64,
    /// The K2 output program.
    pub k2_prog: Program,
    /// The best baseline program.
    pub baseline_prog: Program,
    /// Engine statistics of the compilation (epochs, solver queries, cache
    /// hit rates, counterexample exchange, time-to-best).
    pub report: EngineReport,
}

/// The session a table harness compiles one benchmark with: K2 starts from
/// the best clang output with a per-benchmark seed, as in the paper's
/// methodology. Built through the `K2Session` builder so the full
/// configuration layering applies — `K2_*` engine/backend knobs
/// (`K2_EPOCHS`, `K2_BACKEND`, ...) and a `K2_CONFIG` file reshape a table
/// run without a rebuild, while the harness pins goal/seed/iterations as
/// explicit builder overrides.
pub fn bench_session(bench: &Benchmark, iterations: u64, params: Vec<SearchParams>) -> K2Session {
    K2Session::builder()
        .goal(OptimizationGoal::InstructionCount)
        .iterations(iterations)
        .num_tests(16)
        .seed(0x6b32 + bench.row as u64)
        .top_k(1)
        .parallel(true)
        .params(params)
        .build()
        .expect("bench session configuration resolves")
}

/// The [`CompilerOptions`] of [`bench_session`], for harnesses that feed the
/// engine-level batch API directly.
pub fn bench_options(
    bench: &Benchmark,
    iterations: u64,
    params: Vec<SearchParams>,
) -> CompilerOptions {
    bench_session(bench, iterations, params).options()
}

fn row_from_result(
    bench: &Benchmark,
    baseline: &(OptLevel, Program),
    result: &K2Result,
    time_s: f64,
) -> CompressionRow {
    let o1 = k2_baseline::optimize(&bench.prog, OptLevel::O1);
    let (best_level, best_clang) = baseline.clone();
    let k2_len = result.best.real_len().min(best_clang.real_len());
    let compression_pct =
        100.0 * (best_clang.real_len() as f64 - k2_len as f64) / best_clang.real_len() as f64;
    CompressionRow {
        name: bench.name.to_string(),
        o0: bench.prog.real_len(),
        o1: o1.real_len(),
        best_clang: best_clang.real_len(),
        best_level,
        k2: k2_len,
        compression_pct,
        time_s,
        iterations: best_found_iteration(result),
        k2_prog: if result.best.real_len() <= best_clang.real_len() {
            result.best.clone()
        } else {
            best_clang.clone()
        },
        baseline_prog: best_clang,
        report: result.report.clone(),
    }
}

/// The batch worker count after configuration layering (`K2_BATCH_WORKERS`,
/// `K2_CONFIG`; `0` = one worker per CPU).
pub fn batch_workers() -> usize {
    match k2_api::K2Config::resolve() {
        Ok(config) => config.engine.batch_workers,
        Err(e) => {
            eprintln!("k2-bench: {e}; using default worker count");
            k2_api::K2Config::default().engine.batch_workers
        }
    }
}

/// Run the baseline and K2 (instruction-count goal) on one benchmark.
pub fn compress_benchmark(
    bench: &Benchmark,
    iterations: u64,
    params: Vec<SearchParams>,
) -> CompressionRow {
    let baseline = best_baseline(&bench.prog);
    let start = std::time::Instant::now();
    let result = bench_session(bench, iterations, params).optimize_program(&baseline.1);
    row_from_result(bench, &baseline, &result, start.elapsed().as_secs_f64())
}

/// Compress a whole benchmark suite through the batch API: one job per
/// benchmark over a bounded worker pool (`K2_BATCH_WORKERS`, default one
/// worker per CPU). Rows come back in input order and are identical to what
/// per-benchmark [`compress_benchmark`] calls produce — only the wall-clock
/// fields differ, since jobs share the machine.
pub fn compress_benchmarks(
    benches: &[Benchmark],
    iterations: u64,
    params: &[SearchParams],
) -> Vec<CompressionRow> {
    compress_benchmarks_observed(benches, iterations, params, EventSinkRef::none())
}

/// [`compress_benchmarks`] with a streaming [`k2_core::EventSink`] attached
/// to every job: one sink observes the interleaved `SearchEvent`s of the
/// whole sweep (the harnesses report the totals instead of printing progress
/// themselves).
pub fn compress_benchmarks_observed(
    benches: &[Benchmark],
    iterations: u64,
    params: &[SearchParams],
    sink: EventSinkRef,
) -> Vec<CompressionRow> {
    let baselines: Vec<(OptLevel, Program)> =
        benches.iter().map(|b| best_baseline(&b.prog)).collect();
    let jobs: Vec<BatchJob> = benches
        .iter()
        .zip(&baselines)
        .map(|(bench, baseline)| {
            let mut options = bench_options(bench, iterations, params.to_vec());
            options.sink = sink.clone();
            BatchJob {
                program: baseline.1.clone(),
                options,
            }
        })
        .collect();
    let results: Vec<K2Result> = run_batch(jobs, batch_workers())
        .into_iter()
        .map(|result| result.expect("benchmark compilation panicked"))
        .collect();
    benches
        .iter()
        .zip(&baselines)
        .zip(&results)
        .map(|((bench, baseline), result)| {
            row_from_result(
                bench,
                baseline,
                result,
                result.report.wall_time_us as f64 / 1e6,
            )
        })
        .collect()
}

/// Iteration at which the best program was found, summed over chains (the
/// paper reports the per-benchmark iteration count of the winning chain).
pub fn best_found_iteration(result: &K2Result) -> u64 {
    result
        .chains
        .iter()
        .map(|(_, _, stats)| stats.best_found_at)
        .max()
        .unwrap_or(0)
}

/// One-line summary of the engine statistics accumulated over a set of
/// compression rows: solver load, verdict-cache effectiveness (overall and
/// the cross-chain shared layer alone), and counterexample exchange.
pub fn engine_summary(rows: &[CompressionRow]) -> String {
    let mut queries = 0u64;
    let mut exchanged = 0u64;
    let mut time_to_best_us = 0u64;
    let mut cache = CacheStats::default();
    let mut shared = CacheStats::default();
    for row in rows {
        let r = &row.report;
        queries += r.equiv.queries;
        cache.hits += r.cache.hits;
        cache.misses += r.cache.misses;
        shared.hits += r.shared_cache.hits;
        shared.misses += r.shared_cache.misses;
        exchanged += r.counterexamples_exchanged;
        time_to_best_us += r.time_to_best_us;
    }
    format!(
        "engine: {queries} solver queries, cache hit rate {:.1}% ({} hits), \
         cross-chain shared layer {:.1}% ({} hits), {exchanged} counterexamples exchanged, \
         mean time-to-best {:.2}s",
        100.0 * cache.hit_rate(),
        cache.hits,
        100.0 * shared.hit_rate(),
        shared.hits,
        time_to_best_us as f64 / 1e6 / rows.len().max(1) as f64,
    )
}

/// One recorded slow full-program equivalence query: a benchmark's
/// [`best_baseline`] as the source, a candidate the search proposed, and the
/// verdict the solver reached (`data/slow_queries.tsv`).
#[derive(Debug, Clone)]
pub struct SlowQuery {
    /// The benchmark the query came from.
    pub benchmark: String,
    /// The source program: the benchmark's best baseline.
    pub source: Program,
    /// The candidate program.
    pub candidate: Program,
    /// Whether the candidate is equivalent to the source.
    pub equivalent: bool,
}

/// The slow-query corpus: the slowest distinct full-program queries of an
/// engine_bench sweep, for replaying through the solver cold.
pub fn slow_queries() -> Vec<SlowQuery> {
    include_str!("../data/slow_queries.tsv")
        .lines()
        .filter(|line| !line.starts_with('#') && !line.trim().is_empty())
        .map(|line| {
            let fields: Vec<&str> = line.split('\t').collect();
            let [benchmark, verdict, hex] = fields[..] else {
                panic!("slow-query line without three fields: {line}");
            };
            let bench = bpf_bench_suite::by_name(benchmark)
                .unwrap_or_else(|| panic!("unknown benchmark {benchmark}"));
            let source = best_baseline(&bench.prog).1;
            let bytes: Vec<u8> = (0..hex.len())
                .step_by(2)
                .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).expect("hex byte"))
                .collect();
            let insns = bpf_isa::wire::decode_bytes(&bytes).expect("well-formed instructions");
            SlowQuery {
                benchmark: benchmark.to_string(),
                candidate: source.with_insns(insns),
                source,
                equivalent: match verdict {
                    "equivalent" => true,
                    "not_equivalent" => false,
                    _ => panic!("unknown verdict {verdict}"),
                },
            }
        })
        .collect()
}

/// Render a simple aligned text table.
pub fn render_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: &[String], widths: &[usize]| -> String {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:width$}", c, width = widths.get(i).copied().unwrap_or(8)))
            .collect::<Vec<_>>()
            .join("  ")
    };
    let header_cells: Vec<String> = headers.iter().map(|s| s.to_string()).collect();
    out.push_str(&fmt_row(&header_cells, &widths));
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * widths.len()));
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row, &widths));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn selected_benchmarks_is_nonempty_subset() {
        let selected = selected_benchmarks();
        assert!(!selected.is_empty());
        assert!(selected.len() <= 19);
    }

    #[test]
    fn render_table_aligns_columns() {
        let table = render_table(
            &["name", "value"],
            &[
                vec!["a".into(), "1".into()],
                vec!["longer".into(), "2".into()],
            ],
        );
        assert!(table.contains("longer"));
        assert!(table.lines().count() >= 4);
    }

    #[test]
    fn compression_row_on_a_small_benchmark() {
        let bench = bpf_bench_suite::by_name("xdp_pktcntr").unwrap();
        let row = compress_benchmark(
            &bench,
            1_500,
            SearchParams::table8().into_iter().take(2).collect(),
        );
        assert!(row.k2 <= row.best_clang);
        assert!(row.best_clang <= row.o0);
        assert!(row.compression_pct >= 0.0);
    }
}
