//! The interpreter: big-step execution of a program on one input.

use crate::cost::CostModel;
use crate::error::Trap;
use crate::input::{ProgramInput, ProgramOutput};
use crate::layout::map_handle_id;
use crate::machine::MachineState;
use bpf_isa::{HelperId, Insn, MapId, MemSize, Program, ProgramType, Reg, Src};

/// Default bound on executed instructions. Any well-formed (loop-free) BPF
/// program terminates well below this; exceeding it indicates a loop that the
/// safety checker would reject.
pub const DEFAULT_STEP_LIMIT: usize = 100_000;

/// The result of a successful execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExecResult {
    /// Observable output (exit code, packet, maps).
    pub output: ProgramOutput,
    /// Number of instructions executed.
    pub steps: usize,
    /// Total cost of the executed instructions under the default cost model
    /// (a proxy for dynamic latency).
    pub cost: u64,
}

/// Run a program on an input with the default step limit and cost model.
pub fn run(prog: &Program, input: &ProgramInput) -> Result<ExecResult, Trap> {
    run_with_limit(prog, input, DEFAULT_STEP_LIMIT, &CostModel::default())
}

/// Run a program with an explicit step limit and cost model.
pub fn run_with_limit(
    prog: &Program,
    input: &ProgramInput,
    limit: usize,
    cost_model: &CostModel,
) -> Result<ExecResult, Trap> {
    let mut machine = MachineState::new(prog, input);
    let mut pc: usize = 0;
    let mut steps: usize = 0;
    let mut cost: u64 = 0;

    loop {
        if steps >= limit {
            return Err(Trap::StepLimitExceeded { limit });
        }
        let insn = match prog.insns.get(pc) {
            Some(i) => *i,
            None => return Err(Trap::ControlFlowEscape { target: pc as i64 }),
        };
        steps += 1;
        cost += cost_model.insn_cost(&insn);

        // Uninitialized-register uses trap before any side effect.
        for r in insn.uses() {
            machine.reg(r, pc)?;
        }

        let mut next_pc = pc as i64 + 1;
        match insn {
            Insn::Alu64 { op, dst, src } => {
                let d = if op.reads_dst() {
                    machine.reg(dst, pc)?
                } else {
                    0
                };
                let s = operand64(&machine, src, pc)?;
                machine.set_reg(dst, op.eval64(d, s), pc)?;
            }
            Insn::Alu32 { op, dst, src } => {
                let d = if op.reads_dst() {
                    machine.reg(dst, pc)? as u32
                } else {
                    0
                };
                let s = operand64(&machine, src, pc)? as u32;
                machine.set_reg(dst, op.eval32(d, s) as u64, pc)?;
            }
            Insn::Endian { order, width, dst } => {
                let v = machine.reg(dst, pc)?;
                machine.set_reg(dst, order.apply(v, width), pc)?;
            }
            Insn::Load {
                size,
                dst,
                base,
                off,
            } => {
                let addr = machine.reg(base, pc)?.wrapping_add(off as i64 as u64);
                let value = machine.read_mem(addr, size, pc)?;
                machine.set_reg(dst, value, pc)?;
            }
            Insn::Store {
                size,
                base,
                off,
                src,
            } => {
                let addr = machine.reg(base, pc)?.wrapping_add(off as i64 as u64);
                let value = machine.reg(src, pc)?;
                machine.write_mem(addr, size, value, pc)?;
            }
            Insn::StoreImm {
                size,
                base,
                off,
                imm,
            } => {
                let addr = machine.reg(base, pc)?.wrapping_add(off as i64 as u64);
                machine.write_mem(addr, size, imm as i64 as u64, pc)?;
            }
            Insn::AtomicAdd {
                size,
                base,
                off,
                src,
            } => {
                let addr = machine.reg(base, pc)?.wrapping_add(off as i64 as u64);
                let addend = machine.reg(src, pc)?;
                let old = machine.read_mem_for_atomic(addr, size, pc)?;
                let new = match size {
                    MemSize::Word => (old as u32).wrapping_add(addend as u32) as u64,
                    _ => old.wrapping_add(addend),
                };
                machine.write_mem(addr, size, new, pc)?;
            }
            Insn::LoadImm64 { dst, imm } => {
                machine.set_reg(dst, imm as u64, pc)?;
            }
            Insn::LoadMapFd { dst, map_id } => {
                if prog.map(MapId(map_id)).is_none() {
                    return Err(Trap::BadHelperArgument {
                        what: "undeclared map id",
                        pc,
                    });
                }
                machine.set_reg(dst, machine.map_handle(map_id), pc)?;
            }
            Insn::Ja { off } => {
                next_pc = pc as i64 + 1 + off as i64;
            }
            Insn::Jmp { op, dst, src, off } => {
                let d = machine.reg(dst, pc)?;
                let s = operand64(&machine, src, pc)?;
                if op.eval64(d, s) {
                    next_pc = pc as i64 + 1 + off as i64;
                }
            }
            Insn::Jmp32 { op, dst, src, off } => {
                let d = machine.reg(dst, pc)? as u32;
                let s = operand64(&machine, src, pc)? as u32;
                if op.eval32(d, s) {
                    next_pc = pc as i64 + 1 + off as i64;
                }
            }
            Insn::Call { helper } => {
                call_helper(&mut machine, prog, helper, pc)?;
            }
            Insn::Exit => {
                let ret = machine.reg(Reg::R0, pc)?;
                return Ok(ExecResult {
                    output: machine.output(ret),
                    steps,
                    cost,
                });
            }
            Insn::Nop => {}
        }

        if next_pc < 0 || next_pc as usize > prog.insns.len() {
            return Err(Trap::ControlFlowEscape { target: next_pc });
        }
        pc = next_pc as usize;
    }
}

fn operand64(machine: &MachineState, src: Src, pc: usize) -> Result<u64, Trap> {
    match src {
        Src::Reg(r) => machine.reg(r, pc),
        Src::Imm(i) => Ok(i as i64 as u64),
    }
}

impl MachineState {
    /// Atomic-add reads are allowed on map values and stack/packet memory
    /// even when the destination was not previously initialized byte-by-byte
    /// is *not* relaxed: we reuse the normal read path so read-before-write
    /// on the stack still traps, matching the checker.
    fn read_mem_for_atomic(&self, addr: u64, size: MemSize, pc: usize) -> Result<u64, Trap> {
        self.read_mem(addr, size, pc)
    }
}

/// Execute a helper call: validate arguments, perform the effect, set `r0`,
/// and clobber the caller-saved registers.
///
/// Public so alternative execution backends (the `bpf-jit` crate) can
/// dispatch helper calls through the exact same implementation: helper
/// semantics exist once, and every backend shares them.
pub fn call_helper(
    machine: &mut MachineState,
    prog: &Program,
    helper: HelperId,
    pc: usize,
) -> Result<(), Trap> {
    let arg = |machine: &MachineState, r: Reg| machine.reg(r, pc);
    if !machine.prog_type.offers(helper) {
        return Err(Trap::BadHelperArgument {
            what: "helper not offered to this program type",
            pc,
        });
    }

    let ret: u64 = match helper {
        HelperId::MapLookup => {
            let map_id = map_arg(machine, pc)?;
            let def = prog.map(map_id).ok_or(Trap::BadHelperArgument {
                what: "unknown map",
                pc,
            })?;
            let key_ptr = arg(machine, Reg::R2)?;
            let key = machine.read_bytes(key_ptr, def.key_size as usize, pc)?;
            let inst = machine.maps.get(map_id).ok_or(Trap::BadHelperArgument {
                what: "unknown map",
                pc,
            })?;
            match inst.lookup(&key) {
                Some(cell) => machine.maps.cell_addr(map_id, cell),
                None => 0,
            }
        }
        HelperId::MapUpdate => {
            let map_id = map_arg(machine, pc)?;
            let def = prog.map(map_id).ok_or(Trap::BadHelperArgument {
                what: "unknown map",
                pc,
            })?;
            let key = machine.read_bytes(arg(machine, Reg::R2)?, def.key_size as usize, pc)?;
            let value = machine.read_bytes(arg(machine, Reg::R3)?, def.value_size as usize, pc)?;
            let inst = machine
                .maps
                .get_mut(map_id)
                .ok_or(Trap::BadHelperArgument {
                    what: "unknown map",
                    pc,
                })?;
            match inst.update(&key, &value) {
                Some(_) => 0,
                None => (-1i64) as u64,
            }
        }
        HelperId::MapDelete => {
            let map_id = map_arg(machine, pc)?;
            let def = prog.map(map_id).ok_or(Trap::BadHelperArgument {
                what: "unknown map",
                pc,
            })?;
            let key = machine.read_bytes(arg(machine, Reg::R2)?, def.key_size as usize, pc)?;
            let inst = machine
                .maps
                .get_mut(map_id)
                .ok_or(Trap::BadHelperArgument {
                    what: "unknown map",
                    pc,
                })?;
            if inst.delete(&key) {
                0
            } else {
                (-2i64) as u64 // -ENOENT
            }
        }
        HelperId::KtimeGetNs => machine.time_ns,
        HelperId::GetPrandomU32 => machine.next_prandom() as u64,
        HelperId::GetSmpProcessorId => machine.cpu_id as u64,
        HelperId::GetCurrentPidTgid => machine.pid_tgid,
        HelperId::XdpAdjustHead => {
            let delta = arg(machine, Reg::R2)? as i64;
            if machine.adjust_head(delta) {
                0
            } else {
                (-1i64) as u64
            }
        }
        HelperId::RedirectMap => {
            let _ = map_arg(machine, pc)?;
            let _ = arg(machine, Reg::R2)?;
            ProgramType::XDP_REDIRECT
        }
        HelperId::PerfEventOutput => 0,
        HelperId::CsumDiff => {
            let from_ptr = arg(machine, Reg::R1)?;
            let from_size = arg(machine, Reg::R2)? as usize;
            let to_ptr = arg(machine, Reg::R3)?;
            let to_size = arg(machine, Reg::R4)? as usize;
            let seed = arg(machine, Reg::R5)? as u32;
            if !from_size.is_multiple_of(4)
                || !to_size.is_multiple_of(4)
                || from_size > 512
                || to_size > 512
            {
                return Err(Trap::BadHelperArgument {
                    what: "csum_diff sizes",
                    pc,
                });
            }
            let mut sum = seed as u64;
            if to_size > 0 {
                for chunk in machine.read_bytes(to_ptr, to_size, pc)?.chunks_exact(4) {
                    sum = sum.wrapping_add(u32::from_le_bytes(chunk.try_into().expect("4")) as u64);
                }
            }
            if from_size > 0 {
                for chunk in machine.read_bytes(from_ptr, from_size, pc)?.chunks_exact(4) {
                    sum = sum.wrapping_sub(u32::from_le_bytes(chunk.try_into().expect("4")) as u64);
                }
            }
            // Fold to 32 bits, ones-complement style.
            ((sum & 0xffff_ffff) as u32).wrapping_add((sum >> 32) as u32) as u64
        }
        HelperId::Unknown(number) => return Err(Trap::UnmodeledHelper { number, pc }),
    };

    // Helper calls clobber r1-r5 and define r0.
    for r in [Reg::R1, Reg::R2, Reg::R3, Reg::R4, Reg::R5] {
        machine.clobber_reg(r);
    }
    machine.set_reg(Reg::R0, ret, pc)?;
    Ok(())
}

/// Interpret `r1` as a map handle and return the map id.
fn map_arg(machine: &MachineState, pc: usize) -> Result<MapId, Trap> {
    let handle = machine.reg(Reg::R1, pc)?;
    map_handle_id(handle)
        .map(MapId)
        .ok_or(Trap::BadHelperArgument {
            what: "r1 is not a map handle",
            pc,
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use bpf_isa::{asm, JmpOp, MapDef};

    fn xdp(insns: Vec<Insn>, maps: Vec<MapDef>) -> Program {
        Program::with_maps(ProgramType::Xdp, insns, maps)
    }

    fn run_ok(prog: &Program, input: &ProgramInput) -> ExecResult {
        run(prog, input).expect("program should not trap")
    }

    #[test]
    fn trivial_return() {
        let prog = xdp(vec![Insn::mov64_imm(Reg::R0, 2), Insn::Exit], vec![]);
        let res = run_ok(&prog, &ProgramInput::default());
        assert_eq!(res.output.ret, 2);
        assert_eq!(res.steps, 2);
    }

    #[test]
    fn arithmetic_chain() {
        // r0 = ((5 + 7) * 3) >> 1 = 18
        let prog = xdp(
            asm::assemble("mov64 r0, 5\nadd64 r0, 7\nmul64 r0, 3\nrsh64 r0, 1\nexit").unwrap(),
            vec![],
        );
        assert_eq!(run_ok(&prog, &ProgramInput::default()).output.ret, 18);
    }

    #[test]
    fn alu32_zero_extends() {
        let prog = xdp(
            asm::assemble("lddw r1, 0xffffffff00000001\nmov32 r0, r1\nadd32 r0, 1\nexit").unwrap(),
            vec![],
        );
        assert_eq!(run_ok(&prog, &ProgramInput::default()).output.ret, 2);
    }

    #[test]
    fn branch_taken_and_not_taken() {
        let text = "mov64 r0, 1\njeq r1, 0, +1\nmov64 r0, 7\nexit";
        let mut insns = asm::assemble(text).unwrap();
        // r1 is the ctx pointer (nonzero), so the branch is not taken: r0 = 7.
        let prog = xdp(insns.clone(), vec![]);
        assert_eq!(run_ok(&prog, &ProgramInput::default()).output.ret, 7);
        // Compare a jump that is always taken.
        insns[1] = Insn::jmp(JmpOp::Eq, Reg::R1, Reg::R1, 1);
        let prog2 = xdp(insns, vec![]);
        assert_eq!(run_ok(&prog2, &ProgramInput::default()).output.ret, 1);
    }

    #[test]
    fn packet_read_and_bounds_check_pattern() {
        // The canonical XDP pattern: load data/data_end, check bounds, read a
        // byte, return it.
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
        let prog = xdp(asm::assemble(text).unwrap(), vec![]);
        let mut input = ProgramInput::with_packet(vec![0x5a; 64]);
        assert_eq!(run_ok(&prog, &input).output.ret, 0x5a);
        // Empty packet: the bounds check fails and we return 1 (XDP_DROP).
        input.packet = vec![];
        assert_eq!(run_ok(&prog, &input).output.ret, 1);
    }

    #[test]
    fn unchecked_packet_read_traps() {
        let text = "ldxdw r2, [r1+0]\nldxdw r0, [r2+100]\nexit";
        let prog = xdp(asm::assemble(text).unwrap(), vec![]);
        let input = ProgramInput::with_packet(vec![0; 32]);
        assert!(matches!(run(&prog, &input), Err(Trap::OutOfBounds { .. })));
    }

    #[test]
    fn stack_spill_and_reload() {
        let text = r"
            mov64 r1, 0x1234
            stxdw [r10-8], r1
            ldxdw r0, [r10-8]
            exit
        ";
        let prog = xdp(asm::assemble(text).unwrap(), vec![]);
        assert_eq!(run_ok(&prog, &ProgramInput::default()).output.ret, 0x1234);
    }

    #[test]
    fn uninitialized_register_use_traps() {
        let prog = xdp(vec![Insn::mov64(Reg::R0, Reg::R5), Insn::Exit], vec![]);
        assert!(matches!(
            run(&prog, &ProgramInput::default()),
            Err(Trap::UninitRegister { reg: Reg::R5, .. })
        ));
    }

    #[test]
    fn exit_with_uninitialized_r0_traps() {
        let prog = xdp(vec![Insn::Exit], vec![]);
        assert!(matches!(
            run(&prog, &ProgramInput::default()),
            Err(Trap::UninitRegister { reg: Reg::R0, .. })
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
            run(&prog, &ProgramInput::default()),
            Err(Trap::StepLimitExceeded { .. })
        ));
    }

    #[test]
    fn running_off_the_end_traps() {
        let prog = Program::new(ProgramType::Xdp, vec![Insn::mov64_imm(Reg::R0, 0)]);
        assert!(matches!(
            run(&prog, &ProgramInput::default()),
            Err(Trap::ControlFlowEscape { .. })
        ));
    }

    #[test]
    fn helper_clobbers_caller_saved_registers() {
        let text = r"
            mov64 r6, 9
            call ktime_get_ns
            mov64 r0, r1
            exit
        ";
        let prog = xdp(asm::assemble(text).unwrap(), vec![]);
        assert!(matches!(
            run(&prog, &ProgramInput::default()),
            Err(Trap::UninitRegister { reg: Reg::R1, .. })
        ));
        // Callee-saved registers survive.
        let text2 = "mov64 r6, 9\ncall ktime_get_ns\nmov64 r0, r6\nexit";
        let prog2 = xdp(asm::assemble(text2).unwrap(), vec![]);
        assert_eq!(run_ok(&prog2, &ProgramInput::default()).output.ret, 9);
    }

    #[test]
    fn ktime_and_cpu_and_pid_come_from_input() {
        let text = "call ktime_get_ns\nexit";
        let prog = xdp(asm::assemble(text).unwrap(), vec![]);
        let input = ProgramInput {
            time_ns: 777,
            ..ProgramInput::default()
        };
        assert_eq!(run_ok(&prog, &input).output.ret, 777);

        let prog2 = xdp(
            asm::assemble("call get_smp_processor_id\nexit").unwrap(),
            vec![],
        );
        let input2 = ProgramInput {
            cpu_id: 5,
            ..ProgramInput::default()
        };
        assert_eq!(run_ok(&prog2, &input2).output.ret, 5);
    }

    #[test]
    fn map_lookup_update_flow() {
        // Store key 0 on the stack, look it up, and if present add 1 to the
        // value in place (the packet-counter idiom).
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
        let prog = xdp(asm::assemble(text).unwrap(), vec![MapDef::array(0, 8, 4)]);
        let mut input = ProgramInput::default();
        input.maps.insert(
            (0, 0u32.to_le_bytes().to_vec()),
            41u64.to_le_bytes().to_vec(),
        );
        let res = run_ok(&prog, &input);
        assert_eq!(res.output.ret, 2);
        assert_eq!(
            res.output.maps.to_map_state()[&(0, 0u32.to_le_bytes().to_vec())],
            42u64.to_le_bytes().to_vec()
        );
    }

    #[test]
    fn map_lookup_returns_stable_cell_address() {
        // xdp1's counter map: 256 eight-byte cells. A candidate that returns
        // the looked-up pointer exposes the cell address, so it must stay
        // `MAP_VALUE_BASE + index * 256`.
        let text = r"
            mov64 r1, 255
            stxw [r10-4], r1
            ld_map_fd r1, 0
            mov64 r2, r10
            add64 r2, -4
            call map_lookup_elem
            exit
        ";
        let prog = xdp(asm::assemble(text).unwrap(), vec![MapDef::array(0, 8, 256)]);
        let res = run_ok(&prog, &ProgramInput::default());
        assert_eq!(res.output.ret, crate::layout::MAP_VALUE_BASE + 255 * 256);
    }

    #[test]
    fn map_lookup_miss_returns_null() {
        let text = r"
            mov64 r1, 99
            stxw [r10-4], r1
            ld_map_fd r1, 0
            mov64 r2, r10
            add64 r2, -4
            call map_lookup_elem
            mov64 r0, 0
            jeq r0, 0, +0
            exit
        ";
        // Key 99 is out of range for a 4-entry array map: lookup misses.
        let prog = xdp(asm::assemble(text).unwrap(), vec![MapDef::array(0, 8, 4)]);
        let res = run_ok(&prog, &ProgramInput::default());
        assert_eq!(res.output.ret, 0);
    }

    #[test]
    fn lookup_with_bad_map_register_traps() {
        let text = r"
            mov64 r1, 12345
            mov64 r2, r10
            add64 r2, -4
            stxw [r10-4], r1
            call map_lookup_elem
            exit
        ";
        let prog = xdp(asm::assemble(text).unwrap(), vec![MapDef::array(0, 8, 4)]);
        assert!(matches!(
            run(&prog, &ProgramInput::default()),
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
        let prog = xdp(asm::assemble(text).unwrap(), vec![]);
        let res = run_ok(&prog, &ProgramInput::with_packet(vec![0; 64]));
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
                    helper: HelperId::Unknown(200),
                },
                Insn::Exit,
            ],
            vec![],
        );
        assert!(matches!(
            run(&prog, &ProgramInput::default()),
            Err(Trap::UnmodeledHelper { number: 200, .. })
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
        let prog = xdp(asm::assemble(text).unwrap(), vec![]);
        assert_eq!(run_ok(&prog, &ProgramInput::default()).output.ret, 0x1234);
    }

    #[test]
    fn byte_swap_on_packet_field() {
        let text = r"
            ldxdw r2, [r1+0]
            ldxdw r3, [r1+8]
            mov64 r4, r2
            add64 r4, 2
            mov64 r0, 0
            jgt r4, r3, +3
            ldxh r0, [r2+0]
            be16 r0
            add64 r0, 0
            exit
        ";
        let prog = xdp(asm::assemble(text).unwrap(), vec![]);
        let mut packet = vec![0u8; 64];
        packet[0] = 0x12;
        packet[1] = 0x34;
        let res = run_ok(&prog, &ProgramInput::with_packet(packet));
        assert_eq!(res.output.ret, 0x1234);
    }

    #[test]
    fn cost_accumulates_per_instruction() {
        let prog = xdp(vec![Insn::mov64_imm(Reg::R0, 0), Insn::Exit], vec![]);
        let res = run_ok(&prog, &ProgramInput::default());
        assert!(res.cost >= 2);
        let prog2 = xdp(
            vec![
                Insn::mov64_imm(Reg::R0, 0),
                Insn::mov64_imm(Reg::R1, 0),
                Insn::mov64_imm(Reg::R2, 0),
                Insn::Exit,
            ],
            vec![],
        );
        assert!(run_ok(&prog2, &ProgramInput::default()).cost > res.cost);
    }
}
