//! # k2-baseline
//!
//! A rule-based BPF optimizer standing in for clang's `-O1/-O2/-Os` pipeline
//! in the evaluation. K2's claim is relative: a synthesis-based search finds
//! rewrites that a rule-based pass pipeline misses (invalid-under-the-checker
//! phase orderings, context-dependent rewrites, memory coalescing). This
//! crate provides the rule-based comparator: classic dataflow-driven
//! optimizations that always respect the kernel checker's constraints.
//!
//! Passes:
//!
//! * constant propagation and folding (via the [`bpf_analysis::types`]
//!   abstract interpretation),
//! * redundant-move elimination (`mov rX, rX`),
//! * dead-code elimination and unreachable-code removal,
//! * jump threading for `ja +0`-style no-op jumps.
//!
//! The passes deliberately do **not** perform the checker-sensitive
//! optimizations of the paper's §2.2 examples (store coalescing, immediate
//! stores through pointers), mirroring how clang's BPF backend avoids them.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use bpf_analysis::{canonicalize, AbsVal, Cfg, Types};
use bpf_isa::{AluOp, Insn, Program, Src};

/// Optimization level of the baseline compiler, mirroring the clang flags the
/// paper compares against.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OptLevel {
    /// No optimization: the program as written.
    O0,
    /// Dead-code and unreachable-code elimination only.
    O1,
    /// O1 plus constant propagation/folding and redundant-move elimination.
    O2,
    /// Same pipeline as O2 (clang's `-Os` emits the same code as `-O2` for
    /// most of the paper's benchmarks; Table 1 shows identical sizes).
    Os,
}

impl OptLevel {
    /// All levels, in increasing order of effort.
    pub const ALL: [OptLevel; 4] = [OptLevel::O0, OptLevel::O1, OptLevel::O2, OptLevel::Os];

    /// Display name matching the paper's tables.
    pub fn name(self) -> &'static str {
        match self {
            OptLevel::O0 => "-O0",
            OptLevel::O1 => "-O1",
            OptLevel::O2 => "-O2/-O3",
            OptLevel::Os => "-Os",
        }
    }
}

/// Optimize a program at the given level.
pub fn optimize(prog: &Program, level: OptLevel) -> Program {
    match level {
        OptLevel::O0 => prog.clone(),
        OptLevel::O1 => prog.with_insns(canonicalize(&prog.insns)),
        OptLevel::O2 | OptLevel::Os => {
            let mut insns = prog.insns.clone();
            // Iterate the pass pipeline to a fixed point (bounded).
            for _ in 0..4 {
                let folded = fold_constants(&prog.with_insns(insns.clone()));
                let cleaned = canonicalize(&remove_redundant_moves(&folded));
                if cleaned == insns {
                    break;
                }
                insns = cleaned;
            }
            prog.with_insns(insns)
        }
    }
}

/// Optimize at every level and return the smallest result (the "best clang
/// variant" used as the comparison point throughout the paper's evaluation).
pub fn best_baseline(prog: &Program) -> (OptLevel, Program) {
    let mut best = (OptLevel::O0, prog.clone());
    for level in [OptLevel::O1, OptLevel::O2, OptLevel::Os] {
        let candidate = optimize(prog, level);
        if candidate.real_len() < best.1.real_len() {
            best = (level, candidate);
        }
    }
    best
}

/// Replace ALU computations whose result is statically known by immediate
/// moves, and immediate-operand rewrites where one operand is known.
fn fold_constants(prog: &Program) -> Vec<Insn> {
    let Ok(cfg) = Cfg::build(&prog.insns) else {
        return prog.insns.clone();
    };
    let types = Types::analyze(&prog.insns, &cfg, prog.prog_type);
    let mut out = prog.insns.clone();
    for (idx, insn) in prog.insns.iter().enumerate() {
        if !types.reachable[idx] {
            continue;
        }
        match *insn {
            Insn::Alu64 { op, dst, src } | Insn::Alu32 { op, dst, src } => {
                let is64 = matches!(insn, Insn::Alu64 { .. });
                let d = types.reg_before(idx, dst);
                let s = match src {
                    Src::Reg(r) => types.reg_before(idx, r),
                    Src::Imm(i) => AbsVal::Const(i as i64 as u64),
                };
                // Full fold: both operands known and the result fits a
                // 32-bit immediate move.
                if let (Some(a), Some(b)) = (d.as_const(), s.as_const()) {
                    if op != AluOp::Mov || !matches!(src, Src::Imm(_)) {
                        let result = if is64 {
                            op.eval64(a, b)
                        } else {
                            op.eval32(a as u32, b as u32) as u64
                        };
                        if (result as i64) >= i32::MIN as i64 && (result as i64) <= i32::MAX as i64
                        {
                            out[idx] = if is64 {
                                Insn::mov64_imm(dst, result as i32)
                            } else {
                                Insn::mov32_imm(dst, result as i32)
                            };
                            continue;
                        }
                    }
                }
                // Operand fold: a register source with a known small value
                // becomes an immediate operand (helps later passes).
                if let (Src::Reg(_), Some(b)) = (src, s.as_const()) {
                    if op != AluOp::Mov
                        && (b as i64) >= i32::MIN as i64
                        && (b as i64) <= i32::MAX as i64
                    {
                        out[idx] = if is64 {
                            Insn::alu64_imm(op, dst, b as i32)
                        } else {
                            Insn::alu32_imm(op, dst, b as i32)
                        };
                    }
                }
            }
            _ => {}
        }
    }
    out
}

/// Remove `mov rX, rX` (both widths) which some frontends emit.
fn remove_redundant_moves(insns: &[Insn]) -> Vec<Insn> {
    insns
        .iter()
        .map(|insn| match insn {
            Insn::Alu64 {
                op: AluOp::Mov,
                dst,
                src: Src::Reg(r),
            } if dst == r => Insn::Nop,
            other => *other,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use bpf_interp::{run, InputGenerator};
    use bpf_isa::{asm, ProgramType};

    fn xdp(text: &str) -> Program {
        Program::new(ProgramType::Xdp, asm::assemble(text).unwrap())
    }

    /// The baseline must preserve behaviour; check with random testing.
    fn assert_same_behaviour(src: &Program, opt: &Program) {
        let mut generator = InputGenerator::new(42);
        for input in generator.generate_suite(src, 16) {
            let a = run(src, &input);
            let b = run(opt, &input);
            match (a, b) {
                (Ok(x), Ok(y)) => assert_eq!(x.output, y.output),
                (Err(_), Err(_)) => {}
                (x, y) => panic!("behaviour diverged: {x:?} vs {y:?}"),
            }
        }
    }

    #[test]
    fn o0_is_identity() {
        let p = xdp("mov64 r3, 1\nmov64 r0, 2\nexit");
        assert_eq!(optimize(&p, OptLevel::O0), p);
    }

    #[test]
    fn o1_removes_dead_code() {
        let p = xdp("mov64 r3, 1\nmov64 r0, 2\nexit");
        let o1 = optimize(&p, OptLevel::O1);
        assert_eq!(o1.insns, asm::assemble("mov64 r0, 2\nexit").unwrap());
        assert_same_behaviour(&p, &o1);
    }

    #[test]
    fn o2_folds_constants() {
        let p = xdp("mov64 r2, 5\nadd64 r2, 7\nlsh64 r2, 1\nmov64 r0, r2\nexit");
        let o2 = optimize(&p, OptLevel::O2);
        assert!(o2.real_len() < p.real_len());
        assert_same_behaviour(&p, &o2);
        // The final result must still compute 24.
        let out = run(&o2, &bpf_interp::ProgramInput::default()).unwrap();
        assert_eq!(out.output.ret, 24);
    }

    #[test]
    fn o2_removes_redundant_moves() {
        let p = xdp("mov64 r1, r1\nmov64 r0, 3\nexit");
        let o2 = optimize(&p, OptLevel::O2);
        assert_eq!(o2.insns, asm::assemble("mov64 r0, 3\nexit").unwrap());
    }

    #[test]
    fn o2_does_not_break_branches() {
        let p = xdp(r"
            ldxdw r2, [r1+0]
            ldxdw r3, [r1+8]
            mov64 r0, 1
            jeq r2, r3, +1
            mov64 r0, 2
            exit
        ");
        let o2 = optimize(&p, OptLevel::O2);
        assert_same_behaviour(&p, &o2);
    }

    #[test]
    fn best_baseline_picks_smallest() {
        let p = xdp("mov64 r4, 9\nmov64 r2, 5\nadd64 r2, 7\nmov64 r0, r2\nexit");
        let (level, best) = best_baseline(&p);
        assert!(best.real_len() <= optimize(&p, OptLevel::O1).real_len());
        assert!(matches!(level, OptLevel::O1 | OptLevel::O2 | OptLevel::Os));
        assert_same_behaviour(&p, &best);
    }

    #[test]
    fn folding_respects_32bit_semantics() {
        let p = xdp("mov64 r2, -1\nadd32 r2, 1\nmov64 r0, r2\nexit");
        let o2 = optimize(&p, OptLevel::O2);
        assert_same_behaviour(&p, &o2);
    }

    #[test]
    fn map_programs_survive_optimization() {
        let p = Program::with_maps(
            ProgramType::Xdp,
            asm::assemble(
                r"
                mov64 r1, 0
                stxw [r10-4], r1
                ld_map_fd r1, 0
                mov64 r2, r10
                add64 r2, -4
                call map_lookup_elem
                jeq r0, 0, +1
                ldxdw r0, [r0+0]
                exit
            ",
            )
            .unwrap(),
            vec![bpf_isa::MapDef::array(0, 8, 4)],
        );
        let o2 = optimize(&p, OptLevel::O2);
        assert_same_behaviour(&p, &o2);
    }
}
