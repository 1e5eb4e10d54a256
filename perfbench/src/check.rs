//! Independent checks of every compiled output, run outside the timed
//! section. None of them trusts a verdict the compiler reached: the kernel
//! model re-loads the program, the interpreter compares it with its source
//! on inputs from a seed the compiler never sees, and a cold one-shot
//! solver query re-proves equivalence with no cache, window, incremental
//! context or static facts.

use bpf_equiv::{check_equivalence, EquivOptions, EquivOutcome};
use bpf_interp::{InputGenerator, ProgramInput, ProgramOutput};
use bpf_isa::{AluOp, Insn, Program, Reg};
use bpf_safety::LinuxVerifier;

/// Fresh inputs per output for the interpreter comparison.
const FRESH_INPUTS: usize = 64;

fn output(prog: &Program, input: &ProgramInput) -> Option<ProgramOutput> {
    bpf_interp::run(prog, input).ok().map(|r| r.output)
}

/// Check one compiled program against the program it was compiled from.
pub fn check_output(src: &Program, out: &Program, input_seed: u64) -> Result<(), String> {
    if !LinuxVerifier::default().accepts(out) {
        return Err("rejected by the kernel-checker model".into());
    }
    let inputs = InputGenerator::new(input_seed).generate_suite(src, FRESH_INPUTS);
    if let Some(at) = inputs.iter().position(|i| output(src, i) != output(out, i)) {
        return Err(format!(
            "output differs from the source on fresh input {at}"
        ));
    }
    let cold = EquivOptions {
        window_verification: false,
        enable_cache: false,
        incremental_solving: false,
        static_analysis: false,
        ..EquivOptions::default()
    };
    match check_equivalence(src, out, &cold).0 {
        EquivOutcome::Equivalent => Ok(()),
        other => Err(format!("cold re-proof failed: {other:?}")),
    }
}

/// `src` with every `exit` routed through a trailing `xor64 r0, 1`. The
/// return value differs on every path, so the pair is known not to be
/// equivalent. No other instruction moves, so no jump needs rewriting.
pub fn different_program(src: &Program) -> Program {
    let tail = src.insns.len();
    let mut insns: Vec<Insn> = src
        .insns
        .iter()
        .enumerate()
        .map(|(pc, insn)| match insn {
            Insn::Exit => Insn::Ja {
                off: i16::try_from(tail - pc - 1).expect("suite programs are short"),
            },
            other => *other,
        })
        .collect();
    insns.push(Insn::alu64_imm(AluOp::Xor, Reg::R0, 1));
    insns.push(Insn::Exit);
    src.with_insns(insns)
}

/// Confirm a known-different verdict with a concrete input: the solver's
/// counterexample when it gave one, else the fresh inputs.
pub fn confirm_different(
    src: &Program,
    other: &Program,
    verdict: &EquivOutcome,
    input_seed: u64,
) -> Result<(), String> {
    let EquivOutcome::NotEquivalent(counterexample) = verdict else {
        return Err(format!("known-different pair verified as {verdict:?}"));
    };
    let fresh = InputGenerator::new(input_seed).generate_suite(src, FRESH_INPUTS);
    let mut inputs = counterexample.iter().map(|c| &**c).chain(&fresh);
    if inputs.any(|i| output(src, i) != output(other, i)) {
        Ok(())
    } else {
        Err("no concrete input separates a known-different pair".into())
    }
}
