//! Cross-crate agreement between the formal equivalence checker and the
//! interpreter: programs proven equivalent must agree on every generated
//! input, and counterexamples for non-equivalent pairs must reproduce in the
//! interpreter.

use bpf_equiv::{check_equivalence, EquivChecker, EquivOptions, EquivOutcome};
use bpf_interp::{run, InputGenerator, ProgramInput};
use bpf_isa::{asm, Program, ProgramType};
use bpf_safety::{SafetyChecker, SafetyConfig};

fn xdp(text: &str) -> Program {
    Program::new(ProgramType::Xdp, asm::assemble(text).unwrap())
}

/// Pairs of programs that must be equivalent, drawn from the rewrite classes
/// of the paper's §9 and Appendix G.
fn equivalent_pairs() -> Vec<(&'static str, Program, Program)> {
    vec![
        (
            "constant folding",
            xdp("mov64 r0, 5\nadd64 r0, 7\nmul64 r0, 3\nexit"),
            xdp("mov64 r0, 36\nexit"),
        ),
        (
            "store coalescing",
            xdp("mov64 r1, 0\nstxw [r10-4], r1\nstxw [r10-8], r1\nldxdw r0, [r10-8]\nexit"),
            xdp("stdw [r10-8], 0\nldxdw r0, [r10-8]\nexit"),
        ),
        (
            "dead code elimination",
            xdp("mov64 r3, 9\nmov64 r4, r3\nmov64 r0, 1\nexit"),
            xdp("mov64 r0, 1\nexit"),
        ),
        (
            "strength reduction over packet length",
            xdp("ldxdw r2, [r1+0]\nldxdw r3, [r1+8]\nmov64 r0, r3\nsub64 r0, r2\nmul64 r0, 8\nexit"),
            xdp("ldxdw r2, [r1+0]\nldxdw r3, [r1+8]\nmov64 r0, r3\nsub64 r0, r2\nlsh64 r0, 3\nexit"),
        ),
        (
            "branch restructuring",
            xdp("ldxdw r2, [r1+0]\nldxdw r3, [r1+8]\nmov64 r0, 2\njne r2, r3, +1\nmov64 r0, 1\nexit"),
            xdp("ldxdw r2, [r1+0]\nldxdw r3, [r1+8]\nmov64 r0, 1\njeq r2, r3, +1\nmov64 r0, 2\nexit"),
        ),
    ]
}

/// Pairs that must *not* be equivalent.
fn different_pairs() -> Vec<(&'static str, Program, Program)> {
    vec![
        (
            "different constants",
            xdp("mov64 r0, 5\nexit"),
            xdp("mov64 r0, 6\nexit"),
        ),
        (
            "wrong shift amount",
            xdp(
                "ldxdw r2, [r1+0]\nldxdw r3, [r1+8]\nmov64 r0, r3\nsub64 r0, r2\nmul64 r0, 8\nexit",
            ),
            xdp(
                "ldxdw r2, [r1+0]\nldxdw r3, [r1+8]\nmov64 r0, r3\nsub64 r0, r2\nlsh64 r0, 2\nexit",
            ),
        ),
        (
            "32-bit truncation",
            xdp("lddw r2, 0x100000001\nmov64 r0, r2\nexit"),
            xdp("lddw r2, 0x100000001\nmov32 r0, r2\nexit"),
        ),
    ]
}

#[test]
fn equivalent_pairs_are_proven_and_agree_in_the_interpreter() {
    for (label, a, b) in equivalent_pairs() {
        let mut checker = EquivChecker::new(EquivOptions::default());
        assert!(
            checker.check(&a, &b).is_equivalent(),
            "{label} not proven equivalent"
        );
        let mut generator = InputGenerator::new(7);
        for input in generator.generate_suite(&a, 10) {
            let ra = run(&a, &input).expect("a runs");
            let rb = run(&b, &input).expect("b runs");
            assert_eq!(
                ra.output, rb.output,
                "{label}: interpreter disagrees with the prover"
            );
        }
    }
}

#[test]
fn different_pairs_produce_reproducible_counterexamples() {
    for (label, a, b) in different_pairs() {
        let mut checker = EquivChecker::new(EquivOptions::default());
        match checker.check(&a, &b) {
            EquivOutcome::NotEquivalent(Some(input)) => {
                let ra = run(&a, &input).expect("a runs");
                let rb = run(&b, &input).expect("b runs");
                assert_ne!(
                    ra.output, rb.output,
                    "{label}: counterexample does not reproduce"
                );
            }
            EquivOutcome::NotEquivalent(None) => {}
            other => panic!("{label}: expected non-equivalence, got {other:?}"),
        }
    }
}

#[test]
fn optimization_settings_agree_on_verdicts() {
    // Windows and the verdict cache change solving time, never verdicts.
    let (label, a, b) = &equivalent_pairs()[1];
    let (_, wrong_a, wrong_b) = &different_pairs()[0];
    for opts in [EquivOptions::default(), EquivOptions::none()] {
        let mut checker = EquivChecker::new(opts);
        assert!(
            checker.check(a, b).is_equivalent(),
            "{label} under {opts:?}"
        );
        assert!(
            !checker.check(wrong_a, wrong_b).is_equivalent(),
            "wrong pair under {opts:?}"
        );
    }
}

#[test]
fn baseline_outputs_are_always_equivalent_to_their_sources() {
    for bench in bpf_bench_suite::all() {
        if bench.prog.real_len() > 60 {
            continue; // keep the suite fast; large programs are covered elsewhere
        }
        let (_, optimized) = k2_baseline::best_baseline(&bench.prog);
        let mut checker = EquivChecker::new(EquivOptions::default());
        assert!(
            checker.check(&bench.prog, &optimized).is_equivalent(),
            "baseline broke {}",
            bench.name
        );
    }
}

#[test]
fn moving_the_packet_head_is_never_proven_equivalent() {
    // The source reads packet byte 0 and then moves the head 14 bytes into
    // the headroom; the candidate moves the head first and reads byte 0 of
    // the moved packet. The encoder does not model the move, so it must not
    // prove the pair: on a 64-byte 0xab packet the interpreter returns 171
    // and 0, and the safety walker accepts both.
    let src = xdp(
        "mov64 r6, r1\nmov64 r7, 0\nldxdw r2, [r1+0]\nldxdw r3, [r1+8]\nmov64 r4, r2\n\
         add64 r4, 1\njgt r4, r3, +1\nldxb r7, [r2+0]\nmov64 r1, r6\nmov64 r2, -14\n\
         call xdp_adjust_head\nmov64 r0, r7\nexit",
    );
    let cand = xdp(
        "mov64 r6, r1\nmov64 r2, -14\ncall xdp_adjust_head\nldxdw r2, [r6+0]\n\
         ldxdw r3, [r6+8]\nmov64 r4, r2\nadd64 r4, 1\nmov64 r0, 0\njgt r4, r3, +1\n\
         ldxb r0, [r2+0]\nexit",
    );
    let mut walker = SafetyChecker::new(SafetyConfig::default());
    assert!(walker.check(&src).is_ok() && walker.check(&cand).is_ok());
    let input = ProgramInput {
        packet: vec![0xab; 64],
        ..ProgramInput::default()
    };
    assert_eq!(run(&src, &input).unwrap().output.ret, 171);
    assert_eq!(run(&cand, &input).unwrap().output.ret, 0);
    let mut checker = EquivChecker::new(EquivOptions::default());
    assert!(!checker.check(&src, &cand).is_equivalent());
    let (cold, _) = check_equivalence(&src, &cand, &EquivOptions::default());
    assert!(!cold.is_equivalent(), "{cold:?}");
}

#[test]
fn every_baseline_checked_against_itself_needs_no_conflicts() {
    // A program against itself shares every initial read, so each output
    // pair is the same term and the miter folds away before the SAT search:
    // a cold one-shot solve must decide it without a single conflict.
    for bench in bpf_bench_suite::all() {
        let (_, prog) = k2_baseline::best_baseline(&bench.prog);
        let mut checker = EquivChecker::new(EquivOptions::default());
        assert!(
            checker.check_uncached(&prog, &prog).is_equivalent(),
            "{} is not equivalent to itself",
            bench.name
        );
        assert_eq!(checker.last_solve.conflicts, 0, "{}", bench.name);
    }
}
