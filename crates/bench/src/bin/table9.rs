//! Table 9 (Appendix F.1): program size found under each of the five
//! parameter settings individually — which settings find the smallest
//! program for which benchmark.

use k2_bench::{compress_benchmark, default_iterations, render_table};
use k2_core::SearchParams;

fn main() {
    let iterations = default_iterations();
    println!("Table 9: instruction counts per parameter setting ({iterations} iterations)\n");
    let settings = SearchParams::table8();
    let mut rows = Vec::new();
    for bench in bpf_bench_suite::all().into_iter().take(8) {
        let mut cells = vec![bench.name.to_string()];
        let mut sizes = Vec::new();
        for setting in &settings {
            let row = compress_benchmark(&bench, iterations, vec![*setting]);
            sizes.push(row.k2);
            cells.push(row.k2.to_string());
        }
        let best = *sizes.iter().min().unwrap();
        let winners = sizes.iter().filter(|&&s| s == best).count();
        cells.push(best.to_string());
        cells.push(format!("{}%", 100 * winners / settings.len()));
        rows.push(cells);
    }
    println!(
        "{}",
        render_table(
            &[
                "benchmark",
                "set1",
                "set2",
                "set3",
                "set4",
                "set5",
                "best",
                "% settings at best"
            ],
            &rows
        )
    );
    println!("(paper: some settings reach the best program far more often than others)");
}
