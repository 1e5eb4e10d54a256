//! Table 7 (Appendix E): improvements in the *estimated* program latency —
//! the compiler-internal cost-model runtime — of K2 relative to the best
//! baseline, together with when the lowest-cost program was found.

use bpf_interp::static_latency;
use k2_api::K2Session;
use k2_bench::{best_found_iteration, default_iterations, render_table};
use k2_core::{OptimizationGoal, SearchParams};

fn main() {
    let iterations = default_iterations();
    println!("Table 7: estimated latency (cost-model cycles) improvements\n");
    let mut rows = Vec::new();
    for bench in bpf_bench_suite::all() {
        let o1 = k2_baseline::optimize(&bench.prog, k2_baseline::OptLevel::O1);
        let (_, best_clang) = k2_baseline::best_baseline(&bench.prog);
        let start = std::time::Instant::now();
        let session = K2Session::builder()
            .goal(OptimizationGoal::Latency)
            .iterations(iterations)
            .params(SearchParams::table8())
            .num_tests(16)
            .seed(0x7ab7e + bench.row as u64)
            .top_k(5)
            .parallel(true)
            .build()
            .expect("bench session configuration resolves");
        let result = session.optimize_program(&best_clang);
        let secs = start.elapsed().as_secs_f64();
        let base_cost = static_latency(&best_clang);
        let k2_cost = static_latency(&result.best).min(base_cost);
        let gain = 100.0 * (base_cost as f64 - k2_cost as f64) / base_cost as f64;
        rows.push(vec![
            bench.name.to_string(),
            static_latency(&o1).to_string(),
            base_cost.to_string(),
            k2_cost.to_string(),
            format!("{:.2}%", gain),
            format!("{:.1}", secs),
            best_found_iteration(&result).to_string(),
        ]);
    }
    println!(
        "{}",
        render_table(
            &[
                "benchmark",
                "-O1",
                "-O2/-O3",
                "K2",
                "gain",
                "time(s)",
                "iters"
            ],
            &rows
        )
    );
    println!("(paper: 2.4%–15.2% estimated-latency gains, 6.19% average)");
}
