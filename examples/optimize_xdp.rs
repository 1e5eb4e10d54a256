//! Optimize one of the paper's benchmark programs end to end: rule-based
//! baseline first, then K2, and report the compression the way Table 1 does.
//!
//! ```text
//! cargo run --release --example optimize_xdp [benchmark-name]
//! ```

use k2::api::{K2Config, K2Session, Knob};
use k2::core::OptimizationGoal;
use k2_baseline::best_baseline;

fn main() {
    let name = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "xdp_pktcntr".to_string());
    let bench = bpf_bench_suite::by_name(&name).unwrap_or_else(|| {
        eprintln!("unknown benchmark '{name}'; available:");
        for b in bpf_bench_suite::all() {
            eprintln!("  {}", b.name);
        }
        std::process::exit(1);
    });

    println!(
        "benchmark {} ({}): {}",
        bench.name, bench.prog.prog_type, bench.description
    );
    println!("  unoptimized: {} instructions", bench.prog.real_len());

    let (level, baseline) = best_baseline(&bench.prog);
    println!(
        "  best rule-based baseline ({}): {} instructions",
        level.name(),
        baseline.real_len()
    );

    // `K2_ITERS` replaces this example's 5,000 iterations when the knob
    // table accepts it (a refused value warns and keeps 5,000); the session
    // builder layers the remaining `K2_*` knobs and an optional `K2_CONFIG`
    // file.
    let mut defaults = K2Config {
        iterations: 5_000,
        ..K2Config::default()
    };
    Knob::by_key("iterations").unwrap().apply_env(&mut defaults);
    let session = K2Session::builder()
        .goal(OptimizationGoal::InstructionCount)
        .iterations(defaults.iterations)
        .num_tests(16)
        .seed(7)
        .top_k(1)
        .parallel(true)
        .build()
        .expect("configuration resolves");
    let result = session.optimize_program(&baseline);
    let k2_len = result.best.real_len().min(baseline.real_len());
    println!("  K2:          {} instructions", k2_len);
    let report = &result.report;
    println!(
        "  solver:      {} queries, {} answered by the solve memo ({:.1} MB retained)",
        report.equiv.queries,
        report.equiv.memo_hits,
        report.solve_memo_bytes as f64 / 1e6
    );
    println!(
        "  compression over best baseline: {:.2}%",
        100.0 * (baseline.real_len() as f64 - k2_len as f64) / baseline.real_len() as f64
    );
    if result.improved {
        println!("\noptimized program:\n{}", result.best);
    }
}
