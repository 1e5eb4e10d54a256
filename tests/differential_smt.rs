//! Differential test between the two execution semantics in the workspace:
//! the `bpf-interp` interpreter and the `bitsmt` bit-vector encoding produced
//! by `bpf-equiv`'s [`Encoder`].
//!
//! For randomly generated straight-line ALU programs — which read no packet,
//! context or map state, so their result is fully determined by their
//! immediates — the symbolic return term must evaluate (via the reference
//! term evaluator, with every free variable defaulted) to exactly the value
//! the interpreter computes. Any divergence between how an opcode is
//! *executed* and how it is *encoded* shows up here immediately, long before
//! it would surface as a miscompiled program out of the search loop.
//!
//! Packet, stack and map state are covered on real proposal streams instead:
//! every verdict of a cold full-program check must agree with the
//! interpreter. The context is covered slot by slot, for every program type's
//! declared layout.

use bitsmt::{eval::eval, Assignment, TermPool};
use bpf_equiv::encode::{EncodeOptions, Encoder};
use bpf_equiv::{check_equivalence, EquivChecker, EquivOptions, EquivOutcome};
use bpf_interp::{run, InputGenerator, ProgramInput};
use bpf_isa::{asm, AluOp, CtxField, Insn, MemSize, Program, ProgramType, Reg};
use k2_core::proposals::RuleProbabilities;
use k2_core::ProposalGenerator;
use proptest::prelude::*;

fn arb_alu_op() -> impl Strategy<Value = AluOp> {
    prop::sample::select(AluOp::ALL.to_vec())
}

/// A random straight-line computation over r0, r2..r5, seeded from random
/// immediates so every register is initialized before use.
fn arb_program() -> impl Strategy<Value = Program> {
    let regs = [Reg::R0, Reg::R2, Reg::R3, Reg::R4, Reg::R5];
    let step = (
        arb_alu_op(),
        0usize..regs.len(),
        0usize..regs.len(),
        any::<i32>(),
        any::<bool>(),
        any::<bool>(),
    )
        .prop_map(move |(op, d, s, imm, use_imm, narrow)| {
            let (dst, src_reg) = (regs[d], regs[s]);
            match (use_imm || op == AluOp::Neg, narrow) {
                (true, false) => Insn::alu64_imm(op, dst, imm),
                (true, true) => Insn::alu32_imm(op, dst, imm),
                (false, false) => Insn::alu64(op, dst, src_reg),
                (false, true) => Insn::alu32(op, dst, src_reg),
            }
        });
    (
        prop::collection::vec(any::<i32>(), 5),
        prop::collection::vec(step, 1..24),
    )
        .prop_map(move |(seeds, body)| {
            let mut insns: Vec<Insn> = regs
                .iter()
                .zip(&seeds)
                .map(|(&r, &imm)| Insn::mov64_imm(r, imm))
                .collect();
            insns.extend(body);
            insns.push(Insn::Exit);
            Program::new(ProgramType::Xdp, insns)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Interpreter and SMT encoding agree on the return value of
    /// input-independent programs.
    #[test]
    fn interpreter_and_smt_encoding_agree(prog in arb_program()) {
        let interp_ret = run(&prog, &ProgramInput::default())
            .expect("straight-line ALU cannot trap")
            .output
            .ret;

        let mut pool = TermPool::new();
        let mut encoder = Encoder::new(&mut pool, EncodeOptions);
        let encoding = encoder
            .encode_program(&prog, 0)
            .expect("straight-line ALU must be encodable");
        // The program reads no inputs, so the default (all-zero) assignment
        // pins nothing that could influence the result.
        let smt_ret = eval(&pool, &Assignment::new(), encoding.ret);

        prop_assert_eq!(
            smt_ret,
            interp_ret,
            "encode/exec divergence on:\n{}",
            prog
        );
    }
}

#[test]
fn memory_and_map_verdicts_agree_with_the_interpreter_on_proposal_streams() {
    // Each benchmark baseline's proposal stream goes through a cold checker
    // (no window, no cache, no refuter), so every verdict comes from the
    // full-program encoding of packet, stack, context and map state. A proof
    // must hold on fresh inputs wherever both programs run; a counterexample
    // must make the interpreter tell the programs apart.
    const STEPS: usize = 16;
    const INPUTS: usize = 64;
    let opts = EquivOptions {
        window_verification: false,
        enable_cache: false,
        ..EquivOptions::default()
    };
    let (mut proofs, mut counterexamples, mut silent) = (0, 0, Vec::new());
    for bench in bpf_bench_suite::all() {
        let (_, baseline) = k2::baseline::best_baseline(&bench.prog);
        let mut generator = ProposalGenerator::new(
            &baseline,
            RuleProbabilities::default(),
            0xd1ff + bench.row as u64,
        );
        let mut inputs = InputGenerator::new(0x5eed + bench.row as u64);
        let mut checker = EquivChecker::new(opts);
        let mut current = baseline.insns.clone();
        for step in 0..STEPS {
            let (proposal, _, _) = generator.propose(&current);
            let cand = baseline.with_insns(proposal.clone());
            match checker.check(&baseline, &cand) {
                EquivOutcome::Equivalent => {
                    proofs += 1;
                    for input in inputs.generate_suite(&baseline, INPUTS) {
                        if let (Ok(a), Ok(b)) = (run(&baseline, &input), run(&cand, &input)) {
                            assert_eq!(
                                a.output, b.output,
                                "{} step {step}: proven equivalent, but the interpreter \
                                 disagrees on {input:?}",
                                bench.name
                            );
                        }
                    }
                }
                EquivOutcome::NotEquivalent(Some(input)) => {
                    counterexamples += 1;
                    let a = run(&baseline, &input).map(|r| r.output);
                    let b = run(&cand, &input).map(|r| r.output);
                    if a.ok() == b.ok() {
                        silent.push(format!("{} step {step}", bench.name));
                    }
                }
                EquivOutcome::NotEquivalent(None) | EquivOutcome::Unknown(_) => {}
            }
            if step % 3 == 0 {
                current = proposal;
            }
        }
    }
    assert!(
        proofs > 0 && counterexamples > 0,
        "{proofs} proofs, {counterexamples} counterexamples"
    );
    // Counterexample inputs are reconstructed best-effort from the model,
    // but every input the formula reads (packet and context bytes, map
    // entries the model says are present) lands in the input, so each one
    // must tell the programs apart.
    assert!(
        silent.is_empty(),
        "{} of {counterexamples} counterexamples do not distinguish: {silent:?}",
        silent.len()
    );
}

#[test]
fn every_context_slot_agrees_with_the_interpreter() {
    // For every program type, slot of its context layout and load width
    // that fits the slot, `ldx r0, [r1+off]` against `mov64 r0, 0`. An input
    // slot holds a free input, so the pair is never equivalent; a pointer
    // slot may be constant in part (the low byte of `data`). Every
    // counterexample must make the interpreter tell the programs apart, and
    // every proof must hold on generated inputs.
    let mut inputs = InputGenerator::new(0xc7);
    for prog_type in [
        ProgramType::Xdp,
        ProgramType::SocketFilter,
        ProgramType::SchedCls,
        ProgramType::Tracepoint,
    ] {
        let zero = Program::new(prog_type, vec![Insn::mov64_imm(Reg::R0, 0), Insn::Exit]);
        for &(offset, width, field) in prog_type.ctx_layout() {
            for size in MemSize::ALL.into_iter().filter(|s| s.bytes() <= width) {
                let off = offset as i16;
                let load = Program::new(
                    prog_type,
                    vec![Insn::load(size, Reg::R0, Reg::R1, off), Insn::Exit],
                );
                let case = format!("{prog_type}: {}", load.insns[0]);
                match check_equivalence(&load, &zero, &EquivOptions::default()).0 {
                    EquivOutcome::NotEquivalent(Some(input)) => {
                        let a = run(&load, &input).expect("load runs").output;
                        let b = run(&zero, &input).expect("mov runs").output;
                        assert_ne!(a, b, "{case}: {input:?} does not distinguish");
                    }
                    EquivOutcome::Equivalent => {
                        assert!(
                            !matches!(field, CtxField::Input(_)),
                            "{case}: an input slot proven constant"
                        );
                        for input in inputs.generate_suite(&load, 16) {
                            let a = run(&load, &input).expect("load runs").output;
                            assert_eq!(a.ret, 0, "{case}: proven 0, but not on {input:?}");
                        }
                    }
                    other => panic!("{case}: {other:?}"),
                }
            }
        }
    }
}

#[test]
fn tracepoint_arguments_are_inputs_not_packet_pointers() {
    // 0x100100 is where the packet data pointer lies; a tracepoint's first
    // argument is a free input, so loading it is not that constant.
    let tp = |text: &str| Program::new(ProgramType::Tracepoint, asm::assemble(text).unwrap());
    let src = tp("ldxdw r0, [r1+0]\nexit");
    let cand = tp("lddw r0, 0x100100\nexit");
    match check_equivalence(&src, &cand, &EquivOptions::default()).0 {
        EquivOutcome::NotEquivalent(Some(input)) => {
            let a = run(&src, &input).expect("source runs").output;
            let b = run(&cand, &input).expect("candidate runs").output;
            assert_ne!(a, b, "{input:?} does not distinguish");
        }
        other => panic!("expected a counterexample, got {other:?}"),
    }
}
