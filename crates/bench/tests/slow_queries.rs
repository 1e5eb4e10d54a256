//! Every query of the slow-query corpus still gets its recorded verdict when
//! replayed cold through the full-program checker (no window, no cache).

use bpf_equiv::{check_equivalence, EquivOptions, EquivOutcome};
use bpf_interp::run;

#[test]
fn slow_queries_keep_their_recorded_verdicts() {
    let queries = k2_bench::slow_queries();
    assert_eq!(queries.len(), 8);
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
