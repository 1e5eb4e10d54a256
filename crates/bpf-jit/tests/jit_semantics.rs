//! JIT vs interpreter: exact observable-semantics agreement on the
//! interpreter's own test-suite programs, including every trap class.
//!
//! Each case runs the same program on the same input through both backends
//! and asserts the full `Result<ExecResult, Trap>` values are identical —
//! return value, final packet, final maps, step count, cost accounting, and
//! trap payloads.

#![cfg(all(target_arch = "x86_64", target_os = "linux"))]

use bpf_interp::{run, ExecBackend, ProgramInput, Trap};
use bpf_isa::{asm, Insn, JmpOp, MapDef, Program, ProgramType, Reg};
use bpf_jit::JitProgram;

fn xdp(insns: Vec<Insn>, maps: Vec<MapDef>) -> Program {
    Program::with_maps(ProgramType::Xdp, insns, maps)
}

fn xdp_asm(text: &str) -> Program {
    Program::new(ProgramType::Xdp, asm::assemble(text).unwrap())
}

/// Run through both backends and assert identical results; returns the
/// interpreter's result for additional case-specific assertions.
#[track_caller]
fn differential(prog: &Program, input: &ProgramInput) -> Result<bpf_interp::ExecResult, Trap> {
    let interp = run(prog, input);
    let jit = JitProgram::compile(prog).expect("program must translate");
    let jitted = jit.run(input);
    assert_eq!(jitted, interp, "jit/interp divergence on:\n{prog}");
    interp
}

#[test]
fn trivial_return() {
    let prog = xdp(vec![Insn::mov64_imm(Reg::R0, 2), Insn::Exit], vec![]);
    let res = differential(&prog, &ProgramInput::default()).unwrap();
    assert_eq!(res.output.ret, 2);
    assert_eq!(res.steps, 2);
}

#[test]
fn arithmetic_chain() {
    let prog = xdp_asm("mov64 r0, 5\nadd64 r0, 7\nmul64 r0, 3\nrsh64 r0, 1\nexit");
    let res = differential(&prog, &ProgramInput::default()).unwrap();
    assert_eq!(res.output.ret, 18);
}

#[test]
fn every_alu_op_both_widths() {
    for op in [
        "add", "sub", "mul", "div", "or", "and", "lsh", "rsh", "mod", "xor", "arsh",
    ] {
        for w in ["64", "32"] {
            let text = format!(
                "lddw r1, 0xfedcba9876543210\nmov64 r2, 13\nmov64 r0, r1\n{op}{w} r0, r2\nexit"
            );
            differential(&xdp_asm(&text), &ProgramInput::default()).unwrap();
            let text_imm = format!("lddw r0, 0x80000000ffffffff\n{op}{w} r0, -7\nexit");
            differential(&xdp_asm(&text_imm), &ProgramInput::default()).unwrap();
        }
    }
    differential(
        &xdp_asm("mov64 r0, -9\nneg64 r0\nexit"),
        &ProgramInput::default(),
    )
    .unwrap();
    differential(
        &xdp_asm("mov64 r0, -9\nneg32 r0\nexit"),
        &ProgramInput::default(),
    )
    .unwrap();
    differential(
        &xdp_asm("lddw r1, 0xffffffff00000001\nmov32 r0, r1\nadd32 r0, 1\nexit"),
        &ProgramInput::default(),
    )
    .unwrap();
}

#[test]
fn div_and_mod_by_zero_convention() {
    for (text, expect) in [
        ("mov64 r0, 42\nmov64 r1, 0\ndiv64 r0, r1\nexit", 0),
        ("mov64 r0, 42\nmov64 r1, 0\nmod64 r0, r1\nexit", 42),
        ("mov64 r0, 42\ndiv32 r0, 0\nexit", 0),
        ("mov64 r0, 42\nmod32 r0, 0\nexit", 42),
    ] {
        let res = differential(&xdp_asm(text), &ProgramInput::default()).unwrap();
        assert_eq!(res.output.ret, expect, "{text}");
    }
    // 32-bit mod-by-zero must zero-extend (take only the low half of dst).
    let res = differential(
        &xdp_asm("lddw r0, 0xaaaaaaaabbbbbbbb\nmod32 r0, 0\nexit"),
        &ProgramInput::default(),
    )
    .unwrap();
    assert_eq!(res.output.ret, 0xbbbb_bbbb);
}

#[test]
fn shift_amounts_are_masked() {
    for text in [
        "mov64 r0, 1\nlsh64 r0, 64\nexit",
        "mov64 r0, 1\nlsh64 r0, 65\nexit",
        "mov64 r0, 1\nmov64 r1, 70\nlsh64 r0, r1\nexit",
        "mov64 r0, 1\nlsh32 r0, 32\nexit",
        "mov64 r0, -1\narsh32 r0, 8\nexit",
        "mov64 r0, -1\narsh64 r0, 8\nexit",
    ] {
        differential(&xdp_asm(text), &ProgramInput::default()).unwrap();
    }
}

#[test]
fn byte_swaps() {
    for text in [
        "lddw r0, 0x1122334455667788\nbe16 r0\nexit",
        "lddw r0, 0x1122334455667788\nbe32 r0\nexit",
        "lddw r0, 0x1122334455667788\nbe64 r0\nexit",
        "lddw r0, 0x1122334455667788\nle16 r0\nexit",
        "lddw r0, 0x1122334455667788\nle32 r0\nexit",
        "lddw r0, 0x1122334455667788\nle64 r0\nexit",
    ] {
        differential(&xdp_asm(text), &ProgramInput::default()).unwrap();
    }
}

#[test]
fn branches_taken_and_not_taken() {
    // Exercise every jump condition in both 64- and 32-bit width against
    // operands that land on both sides of the comparison.
    let ops = [
        JmpOp::Eq,
        JmpOp::Gt,
        JmpOp::Ge,
        JmpOp::Set,
        JmpOp::Ne,
        JmpOp::Sgt,
        JmpOp::Sge,
        JmpOp::Lt,
        JmpOp::Le,
        JmpOp::Slt,
        JmpOp::Sle,
    ];
    let operands: [(i32, i32); 6] = [(0, 0), (1, 2), (-1, 1), (5, 5), (-3, -7), (7, -2)];
    for op in ops {
        for (a, b) in operands {
            for wide in [true, false] {
                let jmp = if wide {
                    Insn::Jmp {
                        op,
                        dst: Reg::R1,
                        src: bpf_isa::Src::Reg(Reg::R2),
                        off: 1,
                    }
                } else {
                    Insn::Jmp32 {
                        op,
                        dst: Reg::R1,
                        src: bpf_isa::Src::Imm(b),
                        off: 1,
                    }
                };
                let prog = xdp(
                    vec![
                        Insn::mov64_imm(Reg::R1, a),
                        Insn::mov64_imm(Reg::R2, b),
                        Insn::mov64_imm(Reg::R0, 100),
                        jmp,
                        Insn::mov64_imm(Reg::R0, 200),
                        Insn::Exit,
                    ],
                    vec![],
                );
                differential(&prog, &ProgramInput::default()).unwrap();
            }
        }
    }
}

#[test]
fn packet_read_and_bounds_check_pattern() {
    let text = r"
        ldxdw r2, [r1+0]
        ldxdw r3, [r1+8]
        mov64 r4, r2
        add64 r4, 1
        mov64 r0, 1
        jgt r4, r3, +2
        ldxb r0, [r2+0]
        add64 r0, 0
        exit
    ";
    let prog = xdp_asm(text);
    let mut input = ProgramInput::with_packet(vec![0x5a; 64]);
    assert_eq!(differential(&prog, &input).unwrap().output.ret, 0x5a);
    input.packet = vec![];
    assert_eq!(differential(&prog, &input).unwrap().output.ret, 1);
}

#[test]
fn unchecked_packet_read_traps_identically() {
    let prog = xdp_asm("ldxdw r2, [r1+0]\nldxdw r0, [r2+100]\nexit");
    let input = ProgramInput::with_packet(vec![0; 32]);
    assert!(matches!(
        differential(&prog, &input),
        Err(Trap::OutOfBounds { .. })
    ));
}

#[test]
fn stack_spill_reload_and_partial_init() {
    let prog = xdp_asm("mov64 r1, 0x1234\nstxdw [r10-8], r1\nldxdw r0, [r10-8]\nexit");
    assert_eq!(
        differential(&prog, &ProgramInput::default())
            .unwrap()
            .output
            .ret,
        0x1234
    );
    // Reading 8 bytes when only 4 were initialized traps in both backends.
    let partial = xdp_asm("mov64 r1, 1\nstxw [r10-16], r1\nldxdw r0, [r10-16]\nexit");
    assert!(matches!(
        differential(&partial, &ProgramInput::default()),
        Err(Trap::UninitStackRead { .. })
    ));
}

#[test]
fn store_imm_and_partial_loads() {
    let text = r"
        stdw [r10-8], 0
        sth [r10-16], 0x1234
        ldxh r0, [r10-16]
        ldxdw r1, [r10-8]
        add64 r0, r1
        exit
    ";
    assert_eq!(
        differential(&xdp_asm(text), &ProgramInput::default())
            .unwrap()
            .output
            .ret,
        0x1234
    );
}

#[test]
fn packet_write_persists_and_byte_swap_on_packet_field() {
    let text = r"
        ldxdw r2, [r1+0]
        ldxdw r3, [r1+8]
        mov64 r4, r2
        add64 r4, 2
        mov64 r0, 0
        jgt r4, r3, +4
        ldxh r0, [r2+0]
        be16 r0
        stxh [r2+0], r0
        add64 r0, 0
        exit
    ";
    let mut packet = vec![0u8; 64];
    packet[0] = 0x12;
    packet[1] = 0x34;
    let res = differential(&xdp_asm(text), &ProgramInput::with_packet(packet)).unwrap();
    assert_eq!(res.output.ret, 0x1234);
    // The swapped value is stored back little-endian.
    assert_eq!(&res.output.packet[..2], &[0x34, 0x12]);
}

#[test]
fn uninitialized_register_and_r0_traps() {
    let prog = xdp(vec![Insn::mov64(Reg::R0, Reg::R5), Insn::Exit], vec![]);
    assert!(matches!(
        differential(&prog, &ProgramInput::default()),
        Err(Trap::UninitRegister {
            reg: Reg::R5,
            pc: 0
        })
    ));
    let exit_only = xdp(vec![Insn::Exit], vec![]);
    assert!(matches!(
        differential(&exit_only, &ProgramInput::default()),
        Err(Trap::UninitRegister {
            reg: Reg::R0,
            pc: 0
        })
    ));
}

#[test]
fn frame_pointer_writes_trap() {
    for insns in [
        vec![Insn::mov64_imm(Reg::R10, 0), Insn::Exit],
        vec![Insn::add64_imm(Reg::R10, 8), Insn::Exit],
        vec![
            Insn::LoadImm64 {
                dst: Reg::R10,
                imm: 1,
            },
            Insn::Exit,
        ],
        vec![
            Insn::mov64_imm(Reg::R1, 1),
            Insn::alu32(bpf_isa::AluOp::Add, Reg::R10, Reg::R1),
            Insn::Exit,
        ],
    ] {
        let prog = xdp(insns, vec![]);
        assert!(matches!(
            differential(&prog, &ProgramInput::default()),
            Err(Trap::FramePointerWrite { .. })
        ));
    }
}

#[test]
fn neg_with_uninitialized_source_operand_traps() {
    // The interpreter evaluates the (unused) source operand of `neg`
    // unconditionally, so an uninitialized source register traps even
    // though `Insn::uses()` does not list it. Regression test for the
    // translator's matching re-check.
    for insn in [
        Insn::alu64(bpf_isa::AluOp::Neg, Reg::R0, Reg::R5),
        Insn::alu32(bpf_isa::AluOp::Neg, Reg::R0, Reg::R5),
    ] {
        let prog = xdp(vec![Insn::mov64_imm(Reg::R0, 3), insn, Insn::Exit], vec![]);
        assert!(matches!(
            differential(&prog, &ProgramInput::default()),
            Err(Trap::UninitRegister {
                reg: Reg::R5,
                pc: 1
            })
        ));
    }
    // ... and the check precedes the frame-pointer-write trap.
    let prog = xdp(
        vec![
            Insn::alu64(bpf_isa::AluOp::Neg, Reg::R10, Reg::R5),
            Insn::Exit,
        ],
        vec![],
    );
    assert!(matches!(
        differential(&prog, &ProgramInput::default()),
        Err(Trap::UninitRegister {
            reg: Reg::R5,
            pc: 0
        })
    ));
}

#[test]
fn infinite_loop_hits_step_limit() {
    let prog = xdp(
        vec![
            Insn::mov64_imm(Reg::R0, 0),
            Insn::Ja { off: -2 },
            Insn::Exit,
        ],
        vec![],
    );
    assert!(matches!(
        differential(&prog, &ProgramInput::default()),
        Err(Trap::StepLimitExceeded { .. })
    ));
}

#[test]
fn explicit_step_limits_agree() {
    let prog = xdp_asm("mov64 r0, 0\nadd64 r0, 1\nadd64 r0, 1\nexit");
    let jit = JitProgram::compile(&prog).unwrap();
    for limit in 0..6 {
        let interp = bpf_interp::run_with_limit(
            &prog,
            &ProgramInput::default(),
            limit,
            &bpf_interp::CostModel::default(),
        );
        assert_eq!(jit.run_with_limit(&ProgramInput::default(), limit), interp);
    }
}

#[test]
fn running_off_the_end_traps() {
    let prog = Program::new(ProgramType::Xdp, vec![Insn::mov64_imm(Reg::R0, 0)]);
    assert!(matches!(
        differential(&prog, &ProgramInput::default()),
        Err(Trap::ControlFlowEscape { target: 1 })
    ));
    // Jump past the end and before the start.
    let past = xdp(vec![Insn::Ja { off: 5 }, Insn::Exit], vec![]);
    assert!(matches!(
        differential(&past, &ProgramInput::default()),
        Err(Trap::ControlFlowEscape { target: 6 })
    ));
    let before = xdp(
        vec![
            Insn::mov64_imm(Reg::R0, 0),
            Insn::jmp_imm(JmpOp::Eq, Reg::R0, 0, -5),
            Insn::Exit,
        ],
        vec![],
    );
    assert!(matches!(
        differential(&before, &ProgramInput::default()),
        Err(Trap::ControlFlowEscape { target: -3 })
    ));
}

#[test]
fn jump_to_exactly_len_escapes_after_step_check() {
    // Jumping to one-past-the-end is legal control flow until the fetch
    // fails; both backends must report the escape with target == len.
    let prog = xdp(
        vec![Insn::mov64_imm(Reg::R0, 0), Insn::Ja { off: 0 }],
        vec![],
    );
    assert!(matches!(
        differential(&prog, &ProgramInput::default()),
        Err(Trap::ControlFlowEscape { target: 2 })
    ));
}

#[test]
fn helper_clobbers_and_callee_saved() {
    let bad = xdp_asm("mov64 r6, 9\ncall ktime_get_ns\nmov64 r0, r1\nexit");
    assert!(matches!(
        differential(&bad, &ProgramInput::default()),
        Err(Trap::UninitRegister { reg: Reg::R1, .. })
    ));
    let good = xdp_asm("mov64 r6, 9\ncall ktime_get_ns\nmov64 r0, r6\nexit");
    assert_eq!(
        differential(&good, &ProgramInput::default())
            .unwrap()
            .output
            .ret,
        9
    );
}

#[test]
fn input_derived_helpers() {
    let input = ProgramInput {
        time_ns: 777,
        cpu_id: 5,
        pid_tgid: 0x1234_5678_9abc_def0,
        ..ProgramInput::default()
    };
    for (text, expect) in [
        ("call ktime_get_ns\nexit", 777u64),
        ("call get_smp_processor_id\nexit", 5),
        ("call get_current_pid_tgid\nexit", 0x1234_5678_9abc_def0),
    ] {
        assert_eq!(
            differential(&xdp_asm(text), &input).unwrap().output.ret,
            expect
        );
    }
    // The prandom stream is seeded by the input and must match exactly.
    let rand_prog =
        xdp_asm("call get_prandom_u32\nmov64 r6, r0\ncall get_prandom_u32\nadd64 r0, r6\nexit");
    differential(&rand_prog, &input).unwrap();
}

#[test]
fn map_lookup_update_flow() {
    let text = r"
        mov64 r1, 0
        stxw [r10-4], r1
        ld_map_fd r1, 0
        mov64 r2, r10
        add64 r2, -4
        call map_lookup_elem
        jeq r0, 0, +3
        mov64 r1, 1
        xadddw [r0+0], r1
        ja +0
        mov64 r0, 2
        exit
    ";
    let prog = Program::with_maps(
        ProgramType::Xdp,
        asm::assemble(text).unwrap(),
        vec![MapDef::array(0, 8, 4)],
    );
    let mut input = ProgramInput::default();
    input.maps.insert(
        (0, 0u32.to_le_bytes().to_vec()),
        41u64.to_le_bytes().to_vec(),
    );
    let res = differential(&prog, &input).unwrap();
    assert_eq!(res.output.ret, 2);
    assert_eq!(
        res.output.maps.to_map_state()[&(0, 0u32.to_le_bytes().to_vec())],
        42u64.to_le_bytes().to_vec()
    );
}

#[test]
fn undeclared_map_fd_traps() {
    let prog = xdp(
        vec![
            Insn::LoadMapFd {
                dst: Reg::R1,
                map_id: 9,
            },
            Insn::mov64_imm(Reg::R0, 0),
            Insn::Exit,
        ],
        vec![],
    );
    assert!(matches!(
        differential(&prog, &ProgramInput::default()),
        Err(Trap::BadHelperArgument { .. })
    ));
}

#[test]
fn adjust_head_grows_packet() {
    let text = r"
        mov64 r6, r1
        mov64 r2, -8
        call xdp_adjust_head
        jne r0, 0, +4
        ldxdw r2, [r6+0]
        ldxdw r3, [r6+8]
        mov64 r0, r3
        sub64 r0, r2
        exit
    ";
    let res = differential(&xdp_asm(text), &ProgramInput::with_packet(vec![0; 64])).unwrap();
    assert_eq!(res.output.ret, 72);
    assert_eq!(res.output.packet.len(), 72);
}

#[test]
fn unknown_helper_traps() {
    let prog = xdp(
        vec![
            Insn::mov64_imm(Reg::R1, 0),
            Insn::mov64_imm(Reg::R2, 0),
            Insn::mov64_imm(Reg::R3, 0),
            Insn::mov64_imm(Reg::R4, 0),
            Insn::mov64_imm(Reg::R5, 0),
            Insn::Call {
                helper: bpf_isa::HelperId::Unknown(200),
            },
            Insn::Exit,
        ],
        vec![],
    );
    assert!(matches!(
        differential(&prog, &ProgramInput::default()),
        Err(Trap::UnmodeledHelper { number: 200, .. })
    ));
}

#[test]
fn nops_execute_and_count() {
    let prog = xdp(
        vec![
            Insn::Nop,
            Insn::mov64_imm(Reg::R0, 3),
            Insn::Nop,
            Insn::Exit,
        ],
        vec![],
    );
    let res = differential(&prog, &ProgramInput::default()).unwrap();
    assert_eq!(res.steps, 4);
    assert_eq!(res.output.ret, 3);
}

#[test]
fn empty_program_escapes_immediately() {
    let prog = Program::new(ProgramType::Xdp, vec![]);
    assert!(matches!(
        differential(&prog, &ProgramInput::default()),
        Err(Trap::ControlFlowEscape { target: 0 })
    ));
}

#[test]
fn cost_accounting_matches() {
    let text = r"
        mov64 r1, 7
        stxdw [r10-8], r1
        ldxdw r0, [r10-8]
        jeq r0, 7, +0
        exit
    ";
    let res = differential(&xdp_asm(text), &ProgramInput::default()).unwrap();
    assert!(res.cost > res.steps as u64); // memory ops cost more than 1
}

#[test]
fn bench_suite_programs_agree_on_generated_inputs() {
    // Every program in the paper's benchmark suite, on a spread of
    // generated inputs: the strongest end-to-end agreement check.
    let mut generator = bpf_interp::InputGenerator::new(0xd1ff);
    for bench in bpf_bench_suite::all() {
        let jit = JitProgram::compile(&bench.prog).expect("bench program must translate");
        for input in generator.generate_suite(&bench.prog, 8) {
            let interp = run(&bench.prog, &input);
            assert_eq!(jit.run(&input), interp, "divergence on {}", bench.name);
        }
    }
}
