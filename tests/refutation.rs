//! Integration tests of the solver pipeline: concrete-execution refutation
//! and the one-shot SAT path's buffer reuse.
//!
//! Both are *pure* solver-work optimizations. A refuter may answer
//! NotEquivalent before a formula is ever built, and the SAT solver reuses
//! its buffers across a thread's queries, but neither may ever flip a
//! verdict (or change a counterexample) relative to a fresh full-program
//! solve. The tests here enforce that candidate by candidate, on real
//! benchmark proposal streams and on randomly generated program pairs.

use bpf_equiv::{EquivChecker, EquivOptions, Refuter, Window};
use bpf_interp::BackendKind;
use bpf_isa::{AluOp, Insn, Program, ProgramType, Reg};
use k2_core::proposals::RuleProbabilities;
use k2_core::ProposalGenerator;
use proptest::prelude::*;

#[test]
fn refutation_never_flips_a_verdict_on_benchmark_proposal_streams() {
    // Replay the same proposal stream on every benchmark baseline through a
    // refuting checker and a solver-only checker, and require identical
    // verdicts on every candidate. A flip here is exactly the bug class
    // where the refuter's view of execution disagrees with the SMT
    // encoding's (e.g. treating a candidate trap as a divergence).
    let steps = if cfg!(debug_assertions) { 4 } else { 16 };
    let mut refuted_total = 0u64;
    let mut escalated_total = 0u64;
    for bench in bpf_bench_suite::all() {
        let (_, baseline) = k2::baseline::best_baseline(&bench.prog);
        let mut generator = ProposalGenerator::new(
            &baseline,
            RuleProbabilities::default(),
            0x5eed + bench.row as u64,
        );
        let opts = EquivOptions {
            enable_cache: false,
            ..EquivOptions::default()
        };
        let mut refuting = EquivChecker::new(opts);
        refuting.set_refuter(Refuter::new(
            &baseline,
            BackendKind::Auto,
            64,
            0xbead + bench.row as u64,
        ));
        let mut solver_only = EquivChecker::new(opts);
        let mut current = baseline.insns.clone();
        for step in 0..steps {
            let (proposal, _rule, region) = generator.propose(&current);
            let cand = baseline.with_insns(proposal.clone());
            let window = Some(Window {
                start: region.start,
                end: region.end,
            });
            let a = refuting.check_in_window(&baseline, &cand, window);
            let b = solver_only.check_in_window(&baseline, &cand, window);
            assert_eq!(
                a.is_equivalent(),
                b.is_equivalent(),
                "verdict flip on {} step {step}: refuting {a:?} vs solver-only {b:?}",
                bench.name
            );
            // Walk to diversify the candidates the stream produces.
            if step % 3 == 0 {
                current = proposal;
            }
        }
        refuted_total += refuting.stats.refuted_by_testing;
        escalated_total += refuting.stats.smt_escalations;
        assert_eq!(solver_only.stats.refuted_by_testing, 0);
    }
    assert!(
        refuted_total > 0,
        "the refutation stage never refuted anything (escalated {escalated_total})"
    );
}

fn arb_alu_op() -> impl Strategy<Value = AluOp> {
    prop::sample::select(AluOp::ALL.to_vec())
}

/// A random straight-line computation over r0, r2..r5 (same shape as the
/// `differential_smt` sweep) with `body` ALU steps, paired with a
/// one-instruction mutation of it — sometimes equivalent (the mutation lands
/// on dead code), usually not.
fn arb_pair(body: std::ops::Range<usize>) -> impl Strategy<Value = (Program, Program)> {
    let regs = [Reg::R0, Reg::R2, Reg::R3, Reg::R4, Reg::R5];
    let step = (
        arb_alu_op(),
        0usize..regs.len(),
        0usize..regs.len(),
        any::<i32>(),
        any::<bool>(),
    )
        .prop_map(move |(op, d, s, imm, use_imm)| {
            if use_imm || op == AluOp::Neg {
                Insn::alu64_imm(op, regs[d], imm)
            } else {
                Insn::alu64(op, regs[d], regs[s])
            }
        });
    (
        prop::collection::vec(any::<i32>(), 5),
        prop::collection::vec(step, body),
        any::<u8>(),
        0usize..regs.len(),
        any::<i32>(),
    )
        .prop_map(move |(seeds, body, pos, mreg, mimm)| {
            let mut insns: Vec<Insn> = regs
                .iter()
                .zip(&seeds)
                .map(|(&r, &imm)| Insn::mov64_imm(r, imm))
                .collect();
            insns.extend(body);
            insns.push(Insn::Exit);
            let prog = Program::new(ProgramType::Xdp, insns);
            let mut cand = prog.clone();
            // Mutate one non-exit instruction into a fresh mov.
            let idx = pos as usize % (cand.insns.len() - 1);
            cand.insns[idx] = Insn::mov64_imm(regs[mreg], mimm);
            (prog, cand)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// One checker answers interleaved queries of two sources — the larger
    /// one first, so the smaller ones run on grown, reused solver buffers —
    /// and every outcome, counterexample included, equals that of a fresh
    /// checker on a fresh thread (whose solver has never run).
    #[test]
    fn reused_solver_buffers_match_fresh_threads(
        big in arb_pair(8..16),
        small in arb_pair(1..6),
    ) {
        let opts = EquivOptions {
            enable_cache: false,
            window_verification: false,
            ..EquivOptions::default()
        };
        let mut reused = EquivChecker::new(opts);
        for (prog, cand) in [&big, &small, &big, &small] {
            let got = reused.check(prog, cand);
            let (p, c) = (prog.clone(), cand.clone());
            let fresh = std::thread::spawn(move || EquivChecker::new(opts).check(&p, &c))
                .join()
                .expect("fresh checker");
            prop_assert_eq!(
                &got, &fresh,
                "reused/fresh divergence on:\n{}\nvs\n{}", prog, cand
            );
        }
    }
}
