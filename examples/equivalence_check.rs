//! Formally compare two BPF programs: prove them equivalent or produce a
//! counterexample input, and confirm the counterexample with the interpreter.
//!
//! ```text
//! cargo run --release --example equivalence_check
//! ```

use bpf_equiv::{check_equivalence, EquivChecker, EquivOptions, EquivOutcome};
use bpf_interp::run;
use bpf_isa::{asm, Program, ProgramType};

fn program(text: &str) -> Program {
    Program::new(ProgramType::Xdp, asm::assemble(text).unwrap())
}

fn main() {
    // A correct rewrite: multiply-by-four vs shift-left-by-two over the
    // packet length.
    let src = program(
        "ldxdw r2, [r1+0]\nldxdw r3, [r1+8]\nmov64 r0, r3\nsub64 r0, r2\nmul64 r0, 4\nexit",
    );
    let good = program(
        "ldxdw r2, [r1+0]\nldxdw r3, [r1+8]\nmov64 r0, r3\nsub64 r0, r2\nlsh64 r0, 2\nexit",
    );
    let (outcome, micros) = check_equivalence(&src, &good, &EquivOptions::default());
    println!("mul-vs-shift rewrite: {outcome:?} ({micros} us)");

    // A subtly wrong rewrite: shift by 3 instead of 2.
    let bad = program(
        "ldxdw r2, [r1+0]\nldxdw r3, [r1+8]\nmov64 r0, r3\nsub64 r0, r2\nlsh64 r0, 3\nexit",
    );
    let mut checker = EquivChecker::new(EquivOptions::default());
    match checker.check(&src, &bad) {
        EquivOutcome::NotEquivalent(Some(counterexample)) => {
            println!(
                "wrong rewrite rejected; counterexample packet length = {} bytes",
                counterexample.packet.len()
            );
            let a = run(&src, &counterexample).expect("source runs");
            let b = run(&bad, &counterexample).expect("candidate runs");
            println!(
                "  source returns {}, candidate returns {} on that input",
                a.output.ret, b.output.ret
            );
        }
        other => println!("unexpected outcome for the wrong rewrite: {other:?}"),
    }
    println!(
        "solver statistics: {} queries, {} us total, last formula {} clauses",
        checker.stats.queries, checker.stats.total_time_us, checker.last_solve.cnf_clauses
    );
}
