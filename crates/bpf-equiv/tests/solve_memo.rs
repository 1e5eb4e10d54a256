//! The solve memo on real proposal streams: checkers that share one
//! [`SolveMemo`] must return exactly what memo-less checkers return —
//! verdicts and counterexample inputs alike — while deciding repeated
//! formulas from the memo.

use bpf_equiv::{EquivChecker, EquivOptions, SolveMemo};
use k2_core::proposals::RuleProbabilities;
use k2_core::ProposalGenerator;
use std::sync::Arc;

#[test]
fn shared_memo_checkers_match_memo_less_checkers_on_xdp_devmap_xmit() {
    let bench = bpf_bench_suite::by_name("xdp_devmap_xmit").expect("suite program");
    let src = &bench.prog;
    let steps = if cfg!(debug_assertions) { 8 } else { 24 };
    // Every candidate goes to the solver: no verdict cache, no windows.
    let opts = EquivOptions {
        enable_cache: false,
        window_verification: false,
        ..EquivOptions::default()
    };
    let memo = Arc::new(SolveMemo::new());
    let mut hits = 0;
    let mut queries = 0;
    // Two chains with their own proposal streams, as in one compilation.
    for seed in [0x5eed, 0xfeed] {
        let mut memoized = EquivChecker::new(opts);
        memoized.set_solve_memo(Arc::clone(&memo));
        let mut plain = EquivChecker::new(opts);
        let mut generator = ProposalGenerator::new(src, RuleProbabilities::default(), seed);
        let mut current = src.insns.clone();
        for step in 0..steps {
            let (proposal, _rule, _region) = generator.propose(&current);
            let cand = src.with_insns(proposal.clone());
            let with_memo = memoized.check(src, &cand);
            let without = plain.check(src, &cand);
            assert_eq!(with_memo, without, "seed {seed:#x} step {step}");
            if step % 3 == 0 {
                current = proposal;
            }
        }
        assert_eq!(memoized.stats.queries, plain.stats.queries);
        assert_eq!(plain.stats.memo_hits, 0);
        hits += memoized.stats.memo_hits;
        queries += memoized.stats.queries;
    }
    assert!(hits > 0, "no formula repeated across {queries} queries");
    // Each solve stores one entry; queries the encoder settles never solve.
    assert!(memo.len() as u64 + hits <= queries);
}
