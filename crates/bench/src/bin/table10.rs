//! Table 10 (Appendix F.4): ablation of the domain-specific rewrite rules —
//! memory exchange type 1 / type 2 and contiguous-instruction replacement —
//! and their effect on the smallest program found.

use k2_api::K2Session;
use k2_bench::{default_iterations, render_table};
use k2_core::proposals::RuleProbabilities;
use k2_core::{OptimizationGoal, SearchParams};

fn main() {
    let iterations = default_iterations();
    println!("Table 10: domain-specific rewrite-rule ablation ({iterations} iterations)\n");
    let configs: Vec<(&str, RuleProbabilities)> = vec![
        (
            "MEM1+CONT",
            RuleProbabilities::with_rules(true, false, true),
        ),
        (
            "MEM2+CONT",
            RuleProbabilities::with_rules(false, true, true),
        ),
        (
            "MEM1 only",
            RuleProbabilities::with_rules(true, false, false),
        ),
        (
            "CONT only",
            RuleProbabilities::with_rules(false, false, true),
        ),
        ("none", RuleProbabilities::with_rules(false, false, false)),
    ];

    let mut rows = Vec::new();
    for bench in bpf_bench_suite::all().into_iter().take(8) {
        let (_, baseline) = k2_baseline::best_baseline(&bench.prog);
        let mut cells = vec![bench.name.to_string(), baseline.real_len().to_string()];
        let mut best_overall = usize::MAX;
        let mut sizes = Vec::new();
        for (idx, (_, rules)) in configs.iter().enumerate() {
            let mut params = SearchParams::table8();
            params.truncate(2);
            for p in &mut params {
                p.rules = *rules;
            }
            let session = K2Session::builder()
                .goal(OptimizationGoal::InstructionCount)
                .iterations(iterations)
                .params(params)
                .num_tests(16)
                .seed(0xab1a + bench.row as u64 * 31 + idx as u64)
                .top_k(1)
                .parallel(true)
                .build()
                .expect("bench session configuration resolves");
            let size = session
                .optimize_program(&baseline)
                .best
                .real_len()
                .min(baseline.real_len());
            best_overall = best_overall.min(size);
            sizes.push(size);
        }
        for size in sizes {
            let marker = if size == best_overall { "*" } else { "" };
            cells.push(format!("{size}{marker}"));
        }
        rows.push(cells);
    }
    let headers: Vec<&str> = std::iter::once("benchmark")
        .chain(std::iter::once("-O2/-O3"))
        .chain(configs.iter().map(|(n, _)| *n))
        .collect();
    println!("{}", render_table(&headers, &rows));
    println!("(* marks the best size; the paper finds every domain-specific rule necessary for some benchmark)");
}
