//! Every query of the slow-query corpus still gets its recorded verdict when
//! replayed cold through the full-program checker (no window, no cache).

use bpf_equiv::{check_equivalence, EquivChecker, EquivOptions, EquivOutcome};
use bpf_interp::run;

#[test]
fn a_masked_wide_load_and_a_narrow_load_need_no_conflicts() {
    // Queries 0 and 2 widen header loads (`ldxb`/`ldxh` to `ldxh`/`ldxdw`)
    // of which the program then keeps only the low bits (`and64 r5, 15`,
    // `be16 r5`). The term pool turns the mask and the byte swap's low half
    // into slices of the load's byte concatenation, so both sides hold the
    // same terms and the miter folds away before the SAT search.
    let queries = k2_bench::slow_queries();
    for i in [0, 2] {
        let mut checker = EquivChecker::new(EquivOptions::default());
        let outcome = checker.check_uncached(&queries[i].source, &queries[i].candidate);
        assert!(
            outcome.is_equivalent(),
            "slow query {i} is recorded equivalent"
        );
        assert_eq!(checker.last_solve.conflicts, 0, "slow query {i}");
    }
}

#[test]
fn slow_queries_keep_their_recorded_verdicts() {
    let queries = k2_bench::slow_queries();
    assert_eq!(queries.len(), 17);
    for (i, query) in queries.iter().enumerate() {
        let (outcome, _) =
            check_equivalence(&query.source, &query.candidate, &EquivOptions::default());
        match outcome {
            EquivOutcome::Equivalent if query.equivalent => {}
            EquivOutcome::NotEquivalent(Some(input)) if !query.equivalent => {
                // The model must be a real counterexample.
                let source = run(&query.source, &input).map(|r| r.output);
                let candidate = run(&query.candidate, &input).map(|r| r.output);
                assert_ne!(source.ok(), candidate.ok(), "slow query {i}");
            }
            other => panic!(
                "slow query {i} ({}) was recorded {}: {other:?}",
                query.benchmark,
                if query.equivalent {
                    "equivalent"
                } else {
                    "not equivalent"
                }
            ),
        }
    }
}
