//! Table 1: program compactness — instruction counts of the baseline
//! (`-O1`, `-O2/-O3/-Os`) and of K2, with compression percentages and the
//! time/iterations at which the smallest program was found.

use k2_api::CountingSink;
use k2_bench::{compress_benchmarks_observed, default_iterations, engine_summary, render_table};
use k2_core::{EventSinkRef, SearchParams, TelemetrySnapshot};
use std::sync::Arc;

fn main() {
    let iterations = default_iterations();
    let params: Vec<SearchParams> = SearchParams::table8();
    println!(
        "Table 1: program compactness ({iterations} iterations per chain, {} chains)\n",
        params.len()
    );

    let mut rows = Vec::new();
    let mut total_compression = 0.0;
    let benches = bpf_bench_suite::all();
    // One batch job per benchmark over a bounded worker pool
    // (K2_BATCH_WORKERS; default one worker per CPU), with one counting sink
    // observing every job's streamed search events.
    let events = Arc::new(CountingSink::new());
    let compressed = compress_benchmarks_observed(
        &benches,
        iterations,
        &params,
        EventSinkRef::new(events.clone()),
    );
    for (bench, row) in benches.iter().zip(&compressed) {
        total_compression += row.compression_pct;
        rows.push(vec![
            format!("({})", bench.row),
            row.name.clone(),
            row.o0.to_string(),
            row.o1.to_string(),
            row.best_clang.to_string(),
            row.k2.to_string(),
            format!("{:.2}%", row.compression_pct),
            format!("{:.1}", row.time_s),
            row.iterations.to_string(),
        ]);
    }
    println!(
        "{}",
        render_table(
            &[
                "#",
                "benchmark",
                "-O0",
                "-O1",
                "-O2/-O3",
                "K2",
                "compression",
                "time(s)",
                "iters"
            ],
            &rows
        )
    );
    println!(
        "Average compression over {} benchmarks: {:.2}%",
        benches.len(),
        total_compression / benches.len() as f64
    );
    println!("{}", engine_summary(&compressed));
    let counts = events.counts();
    println!(
        "events: {} compilations, {} epoch barriers, {} new global bests",
        counts.started, counts.epoch_barriers, counts.new_global_best
    );
    // Solver-time attribution over the whole sweep: each row's report
    // carries the per-compilation telemetry snapshot when K2_TELEMETRY=1
    // (or another telemetry config key) was set; fold them into one table.
    let mut telemetry = TelemetrySnapshot::default();
    for row in &compressed {
        telemetry.absorb(&row.report.telemetry);
    }
    if !telemetry.is_empty() {
        println!("\ntelemetry (aggregated over all benchmarks):");
        println!("{}", telemetry.render_table());
    }
    println!("(paper: 6–26% per benchmark, 13.95% mean; set K2_ITERS to scale up)");
}
