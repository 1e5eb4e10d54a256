//! Table 4: equivalence-checking time and SAT conflicts over the slow-query
//! corpus (`data/slow_queries.tsv`): a benchmark's best baseline against a
//! candidate the search proposed.
//!
//! The paper's Table 4 turns its optimizations I–III off one by one. Here
//! they have no switch: the encoder keeps one table per memory region (I)
//! and one per map (II), and its addresses are constant region bases plus
//! offsets, so the term pool folds every address comparison offset
//! concretization (III) would decide. Each pair is checked cold once
//! (one-shot solve, no window, cache or memo), its recorded verdict is
//! asserted, and the time and SAT conflicts are printed.

use bpf_equiv::{EquivChecker, EquivOptions};
use k2_bench::{render_table, slow_queries};

fn main() {
    println!("Table 4: equivalence-checking time (microseconds) and SAT conflicts, cold, over the");
    println!("slow-query corpus\n");
    let mut rows = Vec::new();
    let (mut total_us, mut total_conflicts) = (0u64, 0u64);
    for (i, query) in slow_queries().iter().enumerate() {
        let mut checker = EquivChecker::new(EquivOptions::none());
        let outcome = checker.check_uncached(&query.source, &query.candidate);
        assert_eq!(
            outcome.is_equivalent(),
            query.equivalent,
            "slow query {i} ({}) changed its verdict",
            query.benchmark
        );
        let (us, conflicts) = (checker.last_time_us, checker.last_solve.conflicts);
        total_us += us;
        total_conflicts += conflicts;
        let verdict = if query.equivalent { "equal" } else { "differ" };
        rows.push(vec![
            i.to_string(),
            query.benchmark.clone(),
            verdict.to_string(),
            us.to_string(),
            conflicts.to_string(),
        ]);
    }
    rows.push(vec![
        "sum".to_string(),
        String::new(),
        String::new(),
        total_us.to_string(),
        total_conflicts.to_string(),
    ]);
    let headers = ["query", "benchmark", "verdict", "time (us)", "conflicts"];
    println!("{}", render_table(&headers, &rows));
    println!("(no ablation columns: tables are per memory region (I) and per map (II) by");
    println!(" construction, and the term pool folds the constant address comparisons that");
    println!(" offset concretization (III) would decide, so switching I or III off changed no");
    println!(" formula and the switches were removed. paper: turning the optimizations off costs");
    println!(" 2–7 orders of magnitude on its Z3 queries)");
}
