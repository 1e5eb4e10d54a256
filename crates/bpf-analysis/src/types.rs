//! Pointer-type, constant-offset and map-id inference.
//!
//! A forward abstract interpretation over the CFG that tracks, for every
//! program point, what each register holds:
//!
//! * a scalar (possibly a known constant),
//! * a pointer into a specific memory region (stack, packet, packet end,
//!   context, map value), possibly at a statically known offset from the
//!   region's base,
//! * a map handle loaded by `ld_map_fd`,
//! * or nothing known at all.
//!
//! This single analysis powers three of the paper's equivalence-checking
//! optimizations — memory **type** concretization, memory **offset**
//! concretization, and **map** concretization (§5.I–III) — as well as the
//! safety checker's bounds/alignment reasoning and the window-based
//! verifier's concrete-valuation preconditions.
//!
//! The analysis is sound but deliberately simple: whenever two abstract
//! values disagree at a join point, or an operation is not understood, the
//! result degrades toward [`AbsVal::Unknown`]. Degrading never causes K2 to
//! emit wrong code — only to fall back to the slower, fully symbolic
//! encodings.

use crate::cfg::Cfg;
use bpf_isa::{AluOp, CtxLoad, HelperId, Insn, ProgramType, Reg, Src, NUM_REGS};

/// The memory region a pointer refers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemRegion {
    /// The 512-byte program stack; offsets are relative to `r10` (so
    /// in `-512..=0`).
    Stack,
    /// The packet payload; offsets are relative to the `data` pointer.
    Packet,
    /// The packet end pointer (`data_end`); never dereferenceable.
    PacketEnd,
    /// The program context; offsets are relative to the context base.
    Context,
    /// A value cell returned by `bpf_map_lookup_elem` on the given map id
    /// (`None` when the map could not be determined statically).
    MapValue(Option<u32>),
}

impl MemRegion {
    /// Whether a load or store through a pointer of this region is ever
    /// permitted (the packet-end pointer is comparison-only).
    pub fn dereferenceable(self) -> bool {
        !matches!(self, MemRegion::PacketEnd)
    }

    /// A pointer into this region at a known offset.
    pub fn at(self, offset: i64) -> AbsVal {
        AbsVal::Ptr {
            region: self,
            offset: Some(offset),
        }
    }
}

/// The abstract value of one register at one program point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AbsVal {
    /// The register has not been written on any path reaching this point.
    Uninit,
    /// A scalar with statically known value.
    Const(u64),
    /// A scalar with unknown value (definitely not a pointer).
    Scalar,
    /// A pointer into `region`; `offset` is the signed byte offset from the
    /// region's base when statically known.
    Ptr {
        /// Which memory region.
        region: MemRegion,
        /// Statically known offset from the region base, if any.
        offset: Option<i64>,
    },
    /// A map handle produced by `ld_map_fd` (`None` if ambiguous).
    MapHandle(Option<u32>),
    /// Nothing is known (could be a pointer or a scalar).
    Unknown,
}

impl AbsVal {
    /// Join (least upper bound) of two abstract values from different paths.
    pub fn join(self, other: AbsVal) -> AbsVal {
        use AbsVal::*;
        match (self, other) {
            (a, b) if a == b => a,
            (Uninit, x) | (x, Uninit) => x,
            (Const(_), Const(_)) | (Const(_), Scalar) | (Scalar, Const(_)) => Scalar,
            (
                Ptr {
                    region: r1,
                    offset: o1,
                },
                Ptr {
                    region: r2,
                    offset: o2,
                },
            ) if region_join(r1, r2).is_some() => AbsVal::Ptr {
                region: region_join(r1, r2).expect("checked"),
                offset: if o1 == o2 { o1 } else { None },
            },
            (MapHandle(a), MapHandle(b)) => MapHandle(if a == b { a } else { None }),
            _ => Unknown,
        }
    }

    /// Whether the value is known to be a pointer.
    pub fn is_pointer(self) -> bool {
        matches!(self, AbsVal::Ptr { .. })
    }

    /// The known constant, if any.
    pub fn as_const(self) -> Option<u64> {
        match self {
            AbsVal::Const(c) => Some(c),
            _ => None,
        }
    }
}

fn region_join(a: MemRegion, b: MemRegion) -> Option<MemRegion> {
    if a == b {
        return Some(a);
    }
    match (a, b) {
        (MemRegion::MapValue(x), MemRegion::MapValue(y)) => {
            Some(MemRegion::MapValue(if x == y { x } else { None }))
        }
        _ => None,
    }
}

/// Abstract register file at one program point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TypeState {
    /// One abstract value per register.
    pub regs: [AbsVal; NUM_REGS],
}

impl TypeState {
    /// The entry state: `r1` points at the context, `r10` at the top of the
    /// stack, everything else is uninitialized.
    pub fn entry() -> TypeState {
        let mut regs = [AbsVal::Uninit; NUM_REGS];
        regs[Reg::R1.index()] = MemRegion::Context.at(0);
        regs[Reg::R10.index()] = MemRegion::Stack.at(0);
        TypeState { regs }
    }

    /// A state where nothing is known (used for unreachable code).
    pub fn bottom() -> TypeState {
        TypeState {
            regs: [AbsVal::Uninit; NUM_REGS],
        }
    }

    /// Abstract value of a register.
    pub fn get(&self, r: Reg) -> AbsVal {
        self.regs[r.index()]
    }

    /// Set the abstract value of a register.
    pub fn set(&mut self, r: Reg, v: AbsVal) {
        self.regs[r.index()] = v;
    }

    /// Pointwise join.
    pub fn join(&self, other: &TypeState) -> TypeState {
        let mut out = *self;
        for i in 0..NUM_REGS {
            out.regs[i] = out.regs[i].join(other.regs[i]);
        }
        out
    }
}

/// Result of the type analysis.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Types {
    /// `before[i]` — abstract register state immediately before instruction
    /// `i` executes (meaningless for unreachable instructions).
    pub before: Vec<TypeState>,
    /// Whether instruction `i` is reachable from the entry.
    pub reachable: Vec<bool>,
}

impl Types {
    /// Run the analysis over the instructions and CFG of a program of type
    /// `prog_type` (which fixes what context loads yield).
    pub fn analyze(insns: &[Insn], cfg: &Cfg, prog_type: ProgramType) -> Types {
        let n = insns.len();
        let mut before = vec![TypeState::bottom(); n];
        let mut reachable_insn = vec![false; n];
        let block_reach = cfg.reachable();

        // Per-block input states.
        let mut block_in: Vec<Option<TypeState>> = vec![None; cfg.blocks.len()];
        block_in[0] = Some(TypeState::entry());

        // Iterate to fixpoint (few iterations in practice; programs are small
        // and loop-free).
        for _ in 0..cfg.blocks.len() + 2 {
            let mut changed = false;
            for (bi, block) in cfg.blocks.iter().enumerate() {
                if !block_reach[bi] {
                    continue;
                }
                let Some(mut state) = block_in[bi] else {
                    continue;
                };
                for idx in block.range() {
                    reachable_insn[idx] = true;
                    if before[idx] != state {
                        before[idx] = state;
                    }
                    state = transfer(&state, &insns[idx], prog_type);
                }
                for &succ in &block.succs {
                    let merged = match &block_in[succ] {
                        Some(existing) => existing.join(&state),
                        None => state,
                    };
                    if block_in[succ].as_ref() != Some(&merged) {
                        block_in[succ] = Some(merged);
                        changed = true;
                    }
                }
            }
            if !changed {
                break;
            }
        }

        Types {
            before,
            reachable: reachable_insn,
        }
    }

    /// The abstract value of `reg` immediately before instruction `idx`.
    pub fn reg_before(&self, idx: usize, reg: Reg) -> AbsVal {
        self.before[idx].get(reg)
    }

    /// For a memory instruction at `idx`, the region and (if known) concrete
    /// offset of the accessed address — the concretization the equivalence
    /// checker and safety checker consume.
    pub fn mem_access(&self, idx: usize, insn: &Insn) -> Option<(MemRegion, Option<i64>)> {
        let (base, off) = insn.mem_addr()?;
        match self.reg_before(idx, base) {
            AbsVal::Ptr { region, offset } => Some((region, offset.map(|o| o + off as i64))),
            _ => None,
        }
    }

    /// For a `call map_lookup/update/delete` at `idx`, the statically known
    /// id of the map in `r1`, if any (map concretization, §5.II).
    pub fn map_id_at_call(&self, idx: usize) -> Option<u32> {
        match self.reg_before(idx, Reg::R1) {
            AbsVal::MapHandle(id) => id,
            _ => None,
        }
    }
}

/// Abstract transfer function of one instruction.
fn transfer(state: &TypeState, insn: &Insn, prog_type: ProgramType) -> TypeState {
    let mut out = *state;
    match *insn {
        Insn::Alu64 { op, dst, src } => {
            let d = state.get(dst);
            let s = operand(state, src);
            out.set(dst, alu_abs(op, d, s, /*is64=*/ true));
        }
        Insn::Alu32 { op, dst, src } => {
            let d = state.get(dst);
            let s = operand(state, src);
            // 32-bit ops truncate: pointers do not survive.
            let v = match alu_abs(op, d, s, false) {
                AbsVal::Ptr { .. } | AbsVal::MapHandle(_) => AbsVal::Scalar,
                other => other,
            };
            out.set(dst, v);
        }
        Insn::Endian { dst, .. } => {
            let v = match state.get(dst) {
                AbsVal::Const(_) | AbsVal::Scalar => AbsVal::Scalar,
                _ => AbsVal::Scalar,
            };
            out.set(dst, v);
        }
        Insn::Load {
            size,
            dst,
            base,
            off,
        } => {
            // Loading the packet pointers out of the context is the idiom
            // every packet program starts with; type them as the context
            // layout declares.
            let v = match state.get(base) {
                AbsVal::Ptr {
                    region: MemRegion::Context,
                    offset: Some(c),
                } => match prog_type.ctx_load(c + off as i64, size) {
                    CtxLoad::Packet => MemRegion::Packet.at(0),
                    CtxLoad::PacketEnd => MemRegion::PacketEnd.at(0),
                    CtxLoad::Scalar => AbsVal::Scalar,
                },
                _ => AbsVal::Scalar,
            };
            out.set(dst, v);
        }
        Insn::Store { .. } | Insn::StoreImm { .. } | Insn::AtomicAdd { .. } => {}
        Insn::LoadImm64 { dst, imm } => out.set(dst, AbsVal::Const(imm as u64)),
        Insn::LoadMapFd { dst, map_id } => out.set(dst, AbsVal::MapHandle(Some(map_id))),
        Insn::Ja { .. } | Insn::Jmp { .. } | Insn::Jmp32 { .. } | Insn::Nop | Insn::Exit => {}
        Insn::Call { helper } => {
            let ret = match helper {
                HelperId::MapLookup => {
                    let map = match state.get(Reg::R1) {
                        AbsVal::MapHandle(id) => id,
                        _ => None,
                    };
                    MemRegion::MapValue(map).at(0)
                }
                _ => AbsVal::Scalar,
            };
            out.set(Reg::R0, ret);
            for r in [Reg::R1, Reg::R2, Reg::R3, Reg::R4, Reg::R5] {
                out.set(r, AbsVal::Unknown);
            }
        }
    }
    out
}

fn operand(state: &TypeState, src: Src) -> AbsVal {
    match src {
        Src::Reg(r) => state.get(r),
        Src::Imm(i) => AbsVal::Const(i as i64 as u64),
    }
}

/// Abstract ALU semantics. Pointer arithmetic (`ptr ± const`) keeps the
/// pointer type and updates the offset; everything else degrades safely.
fn alu_abs(op: AluOp, dst: AbsVal, src: AbsVal, is64: bool) -> AbsVal {
    use AbsVal::*;
    match op {
        AluOp::Mov => src,
        AluOp::Add => match (dst, src) {
            (Const(a), Const(b)) => {
                if is64 {
                    Const(a.wrapping_add(b))
                } else {
                    Const((a as u32).wrapping_add(b as u32) as u64)
                }
            }
            (Ptr { region, offset }, Const(c)) => Ptr {
                region,
                offset: offset.map(|o| o.wrapping_add(c as i64)),
            },
            (Const(c), Ptr { region, offset }) => Ptr {
                region,
                offset: offset.map(|o| o.wrapping_add(c as i64)),
            },
            (Ptr { region, .. }, _) | (_, Ptr { region, .. }) => Ptr {
                region,
                offset: None,
            },
            (Scalar | Const(_), Scalar | Const(_)) => Scalar,
            _ => Unknown,
        },
        AluOp::Sub => match (dst, src) {
            (Const(a), Const(b)) => {
                if is64 {
                    Const(a.wrapping_sub(b))
                } else {
                    Const((a as u32).wrapping_sub(b as u32) as u64)
                }
            }
            (Ptr { region, offset }, Const(c)) => Ptr {
                region,
                offset: offset.map(|o| o.wrapping_sub(c as i64)),
            },
            // ptr - ptr is a scalar (a length / distance), whatever the regions.
            (Ptr { .. }, Ptr { .. }) => Scalar,
            (Ptr { region, .. }, _) => Ptr {
                region,
                offset: None,
            },
            (Scalar | Const(_), Scalar | Const(_)) => Scalar,
            _ => Unknown,
        },
        AluOp::Neg => match dst {
            Const(a) => {
                if is64 {
                    Const((a as i64).wrapping_neg() as u64)
                } else {
                    Const(((a as i32).wrapping_neg() as u32) as u64)
                }
            }
            Scalar => Scalar,
            _ => Unknown,
        },
        // Other arithmetic on two known constants stays constant; anything
        // involving a pointer loses pointer-ness (the checker forbids it
        // anyway, see bpf-safety).
        _ => match (dst, src) {
            (Const(a), Const(b)) => {
                if is64 {
                    Const(op.eval64(a, b))
                } else {
                    Const(op.eval32(a as u32, b as u32) as u64)
                }
            }
            (Ptr { .. }, _) | (_, Ptr { .. }) | (MapHandle(_), _) | (_, MapHandle(_)) => Unknown,
            (Uninit, _) | (_, Uninit) => Unknown,
            _ => Scalar,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bpf_isa::asm;

    fn analyze(text: &str) -> (Vec<Insn>, Types) {
        let insns = asm::assemble(text).unwrap();
        let cfg = Cfg::build(&insns).unwrap();
        let types = Types::analyze(&insns, &cfg, ProgramType::Xdp);
        (insns, types)
    }

    #[test]
    fn entry_state_types() {
        let (_, t) = analyze("mov64 r0, 0\nexit");
        assert_eq!(
            t.reg_before(0, Reg::R1),
            AbsVal::Ptr {
                region: MemRegion::Context,
                offset: Some(0)
            }
        );
        assert_eq!(
            t.reg_before(0, Reg::R10),
            AbsVal::Ptr {
                region: MemRegion::Stack,
                offset: Some(0)
            }
        );
        assert_eq!(t.reg_before(0, Reg::R5), AbsVal::Uninit);
    }

    #[test]
    fn stack_pointer_arithmetic_tracks_offset() {
        let text = r"
            mov64 r2, r10
            add64 r2, -4
            mov64 r3, r2
            sub64 r3, 8
            stxw [r3+2], r1
            exit
        ";
        let (insns, t) = analyze(text);
        assert_eq!(
            t.reg_before(4, Reg::R3),
            AbsVal::Ptr {
                region: MemRegion::Stack,
                offset: Some(-12)
            }
        );
        // The store accesses stack offset -12 + 2 = -10.
        assert_eq!(
            t.mem_access(4, &insns[4]),
            Some((MemRegion::Stack, Some(-10)))
        );
    }

    #[test]
    fn packet_pointers_from_context() {
        let text = r"
            ldxdw r2, [r1+0]
            ldxdw r3, [r1+8]
            mov64 r4, r2
            add64 r4, 14
            ldxb r0, [r4+0]
            exit
        ";
        let (insns, t) = analyze(text);
        assert_eq!(
            t.reg_before(2, Reg::R2),
            AbsVal::Ptr {
                region: MemRegion::Packet,
                offset: Some(0)
            }
        );
        assert_eq!(
            t.reg_before(2, Reg::R3),
            AbsVal::Ptr {
                region: MemRegion::PacketEnd,
                offset: Some(0)
            }
        );
        assert_eq!(
            t.mem_access(4, &insns[4]),
            Some((MemRegion::Packet, Some(14)))
        );
    }

    #[test]
    fn context_loads_are_typed_by_the_program_types_layout() {
        // A narrow load of an XDP pointer slot and any tracepoint argument
        // are scalars, as the safety walker types them.
        for (prog_type, text) in [
            (ProgramType::Xdp, "ldxw r2, [r1+0]\nexit"),
            (ProgramType::Xdp, "ldxdw r2, [r1+24]\nexit"),
            (ProgramType::Tracepoint, "ldxdw r2, [r1+0]\nexit"),
            (ProgramType::Tracepoint, "ldxdw r2, [r1+8]\nexit"),
        ] {
            let insns = asm::assemble(text).unwrap();
            let cfg = Cfg::build(&insns).unwrap();
            let t = Types::analyze(&insns, &cfg, prog_type);
            assert_eq!(
                t.reg_before(1, Reg::R2),
                AbsVal::Scalar,
                "{prog_type}: {text}"
            );
        }
        let (_, t) = analyze("ldxdw r2, [r1+16]\nexit");
        assert_eq!(t.reg_before(1, Reg::R2), MemRegion::Packet.at(0));
    }

    #[test]
    fn constants_fold_through_alu() {
        let text = r"
            mov64 r2, 6
            lsh64 r2, 2
            add64 r2, 1
            mov64 r0, r2
            exit
        ";
        let (_, t) = analyze(text);
        assert_eq!(t.reg_before(3, Reg::R2), AbsVal::Const(25));
    }

    #[test]
    fn join_of_different_constants_is_scalar() {
        let text = r"
            jeq r1, 0, +2
            mov64 r2, 1
            ja +1
            mov64 r2, 2
            mov64 r0, r2
            exit
        ";
        let (_, t) = analyze(text);
        assert_eq!(t.reg_before(4, Reg::R2), AbsVal::Scalar);
    }

    #[test]
    fn join_of_same_constant_stays_constant() {
        let text = r"
            jeq r1, 0, +2
            mov64 r2, 5
            ja +1
            mov64 r2, 5
            mov64 r0, r2
            exit
        ";
        let (_, t) = analyze(text);
        assert_eq!(t.reg_before(4, Reg::R2), AbsVal::Const(5));
    }

    #[test]
    fn map_handle_and_lookup_value() {
        let text = r"
            ld_map_fd r1, 3
            mov64 r2, r10
            add64 r2, -4
            stxw [r10-4], r0
            call map_lookup_elem
            jeq r0, 0, +1
            ldxdw r0, [r0+0]
            exit
        ";
        let (insns, t) = analyze(text);
        assert_eq!(t.reg_before(4, Reg::R1), AbsVal::MapHandle(Some(3)));
        assert_eq!(t.map_id_at_call(4), Some(3));
        assert_eq!(
            t.reg_before(6, Reg::R0),
            AbsVal::Ptr {
                region: MemRegion::MapValue(Some(3)),
                offset: Some(0)
            }
        );
        assert_eq!(
            t.mem_access(6, &insns[6]),
            Some((MemRegion::MapValue(Some(3)), Some(0)))
        );
    }

    #[test]
    fn helper_call_clobbers_argument_types() {
        let text = r"
            mov64 r6, r10
            call ktime_get_ns
            mov64 r2, r1
            exit
        ";
        let (_, t) = analyze(text);
        assert_eq!(t.reg_before(2, Reg::R1), AbsVal::Unknown);
        assert_eq!(t.reg_before(2, Reg::R0), AbsVal::Scalar);
        assert_eq!(
            t.reg_before(2, Reg::R6),
            AbsVal::Ptr {
                region: MemRegion::Stack,
                offset: Some(0)
            }
        );
    }

    #[test]
    fn alu32_destroys_pointerness() {
        let text = "mov64 r2, r10\nadd32 r2, 0\nexit";
        let (_, t) = analyze(text);
        assert_eq!(t.reg_before(2, Reg::R2), AbsVal::Scalar);
    }

    #[test]
    fn mul_on_pointer_is_unknown() {
        let text = "mov64 r2, r10\nmul64 r2, 4\nexit";
        let (_, t) = analyze(text);
        assert_eq!(t.reg_before(2, Reg::R2), AbsVal::Unknown);
    }

    #[test]
    fn unreachable_code_is_flagged() {
        let text = "mov64 r0, 0\nexit\nmov64 r0, 1\nexit";
        let (_, t) = analyze(text);
        assert!(t.reachable[0]);
        assert!(t.reachable[1]);
        assert!(!t.reachable[2]);
        assert!(!t.reachable[3]);
    }

    #[test]
    fn ptr_minus_ptr_is_scalar() {
        let text = r"
            ldxdw r2, [r1+0]
            ldxdw r3, [r1+8]
            sub64 r3, r2
            mov64 r0, r3
            exit
        ";
        let (_, t) = analyze(text);
        // packet_end - packet: both Packet-family regions but distinct kinds,
        // so the conservative answer (Unknown or Scalar) must not be a pointer.
        assert!(!t.reg_before(3, Reg::R3).is_pointer());
    }
}
