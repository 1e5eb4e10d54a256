//! Table 4: equivalence-checking time as the optimizations of §5 are turned
//! off progressively — (III) memory offset, then (I) memory type
//! concretization. (II), map concretization, cannot be turned off: the
//! encoder only accepts map helpers on statically known maps, so its map
//! tables are always per map.
//!
//! The checked pairs are the slow-query corpus (`data/slow_queries.tsv`):
//! a benchmark's best baseline against a candidate the search proposed.
//! Each pair is checked cold (one-shot solve, no window, cache or memo)
//! under every setting, its recorded verdict is asserted, and the time and
//! SAT conflicts are printed.

use bpf_equiv::{EquivChecker, EquivOptions};
use k2_bench::{render_table, slow_queries};

fn main() {
    println!("Table 4: equivalence-checking time (microseconds) and SAT conflicts under ablated");
    println!("optimizations, over the slow-query corpus\n");
    let configs: Vec<(&str, EquivOptions)> = vec![
        ("I,II,III", EquivOptions::default()),
        (
            "I,II",
            EquivOptions {
                offset_concretization: false,
                ..EquivOptions::default()
            },
        ),
        ("none", EquivOptions::none()),
    ];

    let mut rows = Vec::new();
    let mut totals = vec![(0u64, 0u64); configs.len()];
    for (i, query) in slow_queries().iter().enumerate() {
        let verdict = if query.equivalent { "equal" } else { "differ" };
        let mut cells = vec![i.to_string(), query.benchmark.clone(), verdict.to_string()];
        for ((name, opts), total) in configs.iter().zip(&mut totals) {
            let mut checker = EquivChecker::new(*opts);
            let outcome = checker.check_uncached(&query.source, &query.candidate);
            assert_eq!(
                outcome.is_equivalent(),
                query.equivalent,
                "slow query {i} ({}) changed its verdict under {name}",
                query.benchmark
            );
            let (us, conflicts) = (checker.last_time_us, checker.last_solve.conflicts);
            total.0 += us;
            total.1 += conflicts;
            cells.push(format!("{us} / {conflicts}"));
        }
        rows.push(cells);
    }
    let mut sum = vec!["sum".to_string(), String::new(), String::new()];
    sum.extend(
        totals
            .iter()
            .map(|(us, conflicts)| format!("{us} / {conflicts}")),
    );
    rows.push(sum);
    let headers: Vec<String> = ["query", "benchmark", "verdict"]
        .into_iter()
        .map(String::from)
        .chain(
            configs
                .iter()
                .map(|(name, _)| format!("{name} (us / confl.)")),
        )
        .collect();
    let headers: Vec<&str> = headers.iter().map(String::as_str).collect();
    println!("{}", render_table(&headers, &rows));
    println!("(no \"I\" column: map helpers must name a statically known map, so map tables are");
    println!(" always per map (II), and \"none\" keeps them too)");
    println!(
        "(paper: turning the optimizations off costs 2–7 orders of magnitude on its Z3 queries."
    );
    println!(" Here conflicts agree under every setting: the encoder's addresses are fixed region");
    println!(" bases plus offsets, so the term pool folds the address comparisons I and III would");
    println!(" decide and the formulas come out the same; times differ by noise)");
}
