//! The path walker: the one safety analysis behind both the K2 safety
//! checker and the Linux kernel-checker model.

use bpf_analysis::cfg::Cfg;
use bpf_isa::{AluOp, CtxField, CtxLoad, HelperId, Insn, JmpOp, MapId, MemSize, Program, Reg, Src};
use std::collections::VecDeque;
use std::fmt;

/// Why a program was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VerifierError {
    /// The program contains a loop (back edge in the CFG).
    Loop,
    /// A jump targets an instruction outside the program.
    JumpOutOfRange {
        /// Index of the jump.
        at: usize,
    },
    /// An instruction can never be reached from the entry.
    UnreachableCode {
        /// Index of the unreachable instruction.
        at: usize,
    },
    /// Control can fall off the end of the program without `exit`.
    FallOffEnd,
    /// A register is read before ever being written (including `r1`–`r5`
    /// after a helper call).
    UninitRegister {
        /// The register.
        reg: Reg,
        /// Instruction index.
        at: usize,
    },
    /// The frame pointer `r10` is written.
    FramePointerWrite {
        /// Instruction index.
        at: usize,
    },
    /// A stack access is outside the 512-byte frame.
    StackOutOfBounds {
        /// Offset relative to `r10`.
        off: i64,
        /// Instruction index.
        at: usize,
    },
    /// A stack slot is read before it is written.
    StackReadBeforeWrite {
        /// Offset relative to `r10`.
        off: i64,
        /// Instruction index.
        at: usize,
    },
    /// A stack access is not aligned to its size.
    Misaligned {
        /// Offset relative to `r10`.
        off: i64,
        /// Access size in bytes.
        size: usize,
        /// Instruction index.
        at: usize,
    },
    /// A packet access is not covered by a preceding bounds check.
    PacketOutOfBounds {
        /// Instruction index.
        at: usize,
    },
    /// A context access is outside the context structure.
    CtxOutOfBounds {
        /// Instruction index.
        at: usize,
    },
    /// A context load that crosses a slot boundary or reads part of a
    /// pointer slot.
    CtxFieldAccess {
        /// Context offset of the access.
        off: i64,
        /// Access width in bytes.
        size: usize,
        /// Instruction index.
        at: usize,
    },
    /// An immediate store through a context pointer (rejected by the kernel).
    CtxStoreImm {
        /// Instruction index.
        at: usize,
    },
    /// Any store through a context pointer (the context is read-only here).
    CtxWrite {
        /// Instruction index.
        at: usize,
    },
    /// A map-value access beyond the declared value size.
    MapValueOutOfBounds {
        /// Instruction index.
        at: usize,
    },
    /// A map-lookup result is dereferenced without a null check.
    PossibleNullDeref {
        /// Instruction index.
        at: usize,
    },
    /// Arithmetic other than `add`/`sub` with a scalar is applied to a
    /// pointer (or 32-bit arithmetic touches a pointer).
    PointerArithmetic {
        /// Instruction index.
        at: usize,
    },
    /// A load or store through a register not known to be a valid pointer.
    UnknownPointerDeref {
        /// Instruction index.
        at: usize,
    },
    /// A helper was called with a bad argument (e.g. `r1` is not a map).
    BadHelperArgument {
        /// Instruction index.
        at: usize,
        /// Description.
        what: &'static str,
    },
    /// A `neg` carries a source operand other than the immediate 0: the
    /// kernel rejects `BPF_NEG` with a register source or a non-zero
    /// immediate as using reserved fields.
    NegReservedFields {
        /// Instruction index.
        at: usize,
    },
    /// A helper this model does not know, or one the program type does not
    /// offer (the kernel reports both as an unknown function).
    UnknownHelper {
        /// Instruction index.
        at: usize,
    },
    /// The program exceeds the instruction-count limit.
    TooManyInstructions {
        /// Actual length in wire slots.
        len: usize,
        /// The limit.
        limit: usize,
    },
    /// The verifier's complexity budget (instructions examined across all
    /// paths) is exhausted.
    ComplexityExceeded {
        /// The limit.
        limit: usize,
    },
}

impl fmt::Display for VerifierError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VerifierError::Loop => write!(f, "back-edge detected (program may loop)"),
            VerifierError::JumpOutOfRange { at } => write!(f, "jump out of range at {at}"),
            VerifierError::UnreachableCode { at } => write!(f, "unreachable instruction at {at}"),
            VerifierError::FallOffEnd => write!(f, "control may fall off the end of the program"),
            VerifierError::UninitRegister { reg, at } => {
                write!(f, "read of uninitialized {reg} at {at}")
            }
            VerifierError::FramePointerWrite { at } => write!(f, "write to r10 at {at}"),
            VerifierError::StackOutOfBounds { off, at } => {
                write!(f, "stack access at offset {off} out of bounds (insn {at})")
            }
            VerifierError::StackReadBeforeWrite { off, at } => {
                write!(f, "stack offset {off} read before write (insn {at})")
            }
            VerifierError::Misaligned { off, size, at } => {
                write!(
                    f,
                    "misaligned {size}-byte stack access at offset {off} (insn {at})"
                )
            }
            VerifierError::PacketOutOfBounds { at } => {
                write!(f, "packet access not covered by a bounds check (insn {at})")
            }
            VerifierError::CtxOutOfBounds { at } => {
                write!(f, "context access out of bounds at {at}")
            }
            VerifierError::CtxFieldAccess { off, size, at } => {
                write!(f, "invalid context access off={off} size={size} at {at}")
            }
            VerifierError::CtxStoreImm { at } => {
                write!(f, "immediate store into PTR_TO_CTX at {at}")
            }
            VerifierError::CtxWrite { at } => write!(f, "store into read-only context at {at}"),
            VerifierError::MapValueOutOfBounds { at } => {
                write!(f, "map value access out of bounds at {at}")
            }
            VerifierError::PossibleNullDeref { at } => {
                write!(f, "possible NULL dereference of map value at {at}")
            }
            VerifierError::PointerArithmetic { at } => {
                write!(f, "disallowed arithmetic on a pointer at {at}")
            }
            VerifierError::UnknownPointerDeref { at } => {
                write!(f, "dereference of a non-pointer value at {at}")
            }
            VerifierError::BadHelperArgument { at, what } => {
                write!(f, "bad helper argument at {at}: {what}")
            }
            VerifierError::NegReservedFields { at } => {
                write!(f, "BPF_NEG uses reserved fields at {at}")
            }
            VerifierError::UnknownHelper { at } => write!(f, "unknown helper at {at}"),
            VerifierError::TooManyInstructions { len, limit } => {
                write!(f, "program has {len} instructions, limit is {limit}")
            }
            VerifierError::ComplexityExceeded { limit } => {
                write!(
                    f,
                    "verifier complexity limit of {limit} examined instructions exceeded"
                )
            }
        }
    }
}

impl std::error::Error for VerifierError {}

/// Verdict of a verification run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verdict {
    /// The program is accepted.
    Accept,
    /// The program is rejected with the first error found.
    Reject(VerifierError),
}

impl Verdict {
    /// Whether the program was accepted.
    pub fn is_accept(&self) -> bool {
        matches!(self, Verdict::Accept)
    }
}

/// Statistics of a verification run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct VerifierStats {
    /// Instructions examined across all explored paths (the quantity the
    /// kernel's 1M-instruction complexity limit counts).
    pub insns_examined: usize,
    /// Number of complete paths explored.
    pub paths: usize,
}

/// Configuration of the core engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VerifierConfig {
    /// Maximum program length in wire slots.
    pub max_insns: usize,
    /// Budget of instructions examined across all paths.
    pub complexity_limit: usize,
    /// Enforce size-aligned stack accesses.
    pub enforce_stack_alignment: bool,
    /// Reject immediate stores through context pointers.
    pub forbid_ctx_store_imm: bool,
    /// Reject arithmetic (other than add/sub of scalars) on pointers.
    pub forbid_pointer_alu: bool,
    /// Reject programs containing unreachable instructions.
    pub forbid_unreachable: bool,
}

impl Default for VerifierConfig {
    fn default() -> Self {
        VerifierConfig {
            max_insns: 4096,
            complexity_limit: 1_000_000,
            enforce_stack_alignment: true,
            forbid_ctx_store_imm: true,
            forbid_pointer_alu: true,
            forbid_unreachable: true,
        }
    }
}

/// No-op alias of [`verify`], kept so existing callers keep compiling: the
/// path walk is the only safety analysis, and `_state_budget` is ignored.
pub fn screen(
    prog: &Program,
    config: &VerifierConfig,
    _state_budget: usize,
) -> (Verdict, VerifierStats) {
    verify(prog, config)
}

/// Abstract value of a register.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RV {
    Uninit,
    Scalar,
    Const(u64),
    PtrStack(i64),
    PtrCtx(i64),
    PtrPacket(Option<i64>),
    PtrPacketEnd,
    PtrMapValueOrNull { map: u32, off: i64 },
    PtrMapValue { map: u32, off: i64 },
    MapHandle(u32),
}

impl RV {
    fn is_pointer(self) -> bool {
        matches!(
            self,
            RV::PtrStack(_)
                | RV::PtrCtx(_)
                | RV::PtrPacket(_)
                | RV::PtrPacketEnd
                | RV::PtrMapValueOrNull { .. }
                | RV::PtrMapValue { .. }
        )
    }
}

/// One path-exploration state.
#[derive(Debug, Clone)]
struct PathState {
    pc: usize,
    regs: [RV; 11],
    stack_init: [bool; 512],
    /// Number of packet bytes proven readable by bounds checks on this path.
    verified_pkt: i64,
}

impl PathState {
    fn entry() -> PathState {
        let mut regs = [RV::Uninit; 11];
        regs[Reg::R1.index()] = RV::PtrCtx(0);
        regs[Reg::R10.index()] = RV::PtrStack(0);
        PathState {
            pc: 0,
            regs,
            stack_init: [false; 512],
            verified_pkt: 0,
        }
    }
}

/// Run the engine over a program.
pub fn verify(prog: &Program, config: &VerifierConfig) -> (Verdict, VerifierStats) {
    let mut stats = VerifierStats::default();
    match verify_inner(prog, config, &mut stats) {
        Ok(()) => (Verdict::Accept, stats),
        Err(e) => (Verdict::Reject(e), stats),
    }
}

fn verify_inner(
    prog: &Program,
    config: &VerifierConfig,
    stats: &mut VerifierStats,
) -> Result<(), VerifierError> {
    if prog.insns.is_empty() {
        return Err(VerifierError::FallOffEnd);
    }
    if prog.slot_len() > config.max_insns {
        return Err(VerifierError::TooManyInstructions {
            len: prog.slot_len(),
            limit: config.max_insns,
        });
    }
    // Structural checks via the CFG.
    let cfg = match Cfg::build(&prog.insns) {
        Ok(c) => c,
        Err(bpf_analysis::cfg::CfgError::JumpOutOfRange { at, .. }) => {
            return Err(VerifierError::JumpOutOfRange { at })
        }
        Err(_) => return Err(VerifierError::FallOffEnd),
    };
    if cfg.has_loop() {
        return Err(VerifierError::Loop);
    }
    if config.forbid_unreachable {
        let reach = cfg.reachable();
        for (idx, insn) in prog.insns.iter().enumerate() {
            if !reach[cfg.block_of_insn[idx]] && !matches!(insn, Insn::Nop) {
                return Err(VerifierError::UnreachableCode { at: idx });
            }
        }
    }

    // Path-by-path walk.
    let mut work: VecDeque<PathState> = VecDeque::new();
    work.push_back(PathState::entry());
    while let Some(mut state) = work.pop_front() {
        loop {
            if stats.insns_examined >= config.complexity_limit {
                return Err(VerifierError::ComplexityExceeded {
                    limit: config.complexity_limit,
                });
            }
            let at = state.pc;
            let insn = match prog.insns.get(at) {
                Some(i) => *i,
                None => return Err(VerifierError::FallOffEnd),
            };
            stats.insns_examined += 1;

            // Uninitialized-use check.
            for r in insn.uses() {
                if state.regs[r.index()] == RV::Uninit {
                    return Err(VerifierError::UninitRegister { reg: r, at });
                }
            }
            // Frame pointer is read-only.
            if insn.def() == Some(Reg::R10) {
                return Err(VerifierError::FramePointerWrite { at });
            }

            match insn {
                Insn::Exit => {
                    stats.paths += 1;
                    break;
                }
                Insn::Ja { .. } => {
                    state.pc = insn.jump_target(at).expect("ja target") as usize;
                }
                Insn::Jmp { op, dst, src, .. } | Insn::Jmp32 { op, dst, src, .. } => {
                    let taken_pc = insn.jump_target(at).expect("jmp target") as usize;
                    let fall_pc = at + 1;
                    let (taken_state, fall_state) =
                        branch_refine(&state, op, dst, src, matches!(insn, Insn::Jmp32 { .. }));
                    let mut t = taken_state;
                    t.pc = taken_pc;
                    work.push_back(t);
                    state = fall_state;
                    state.pc = fall_pc;
                }
                _ => {
                    step(&mut state, &insn, at, prog, config)?;
                    state.pc = at + 1;
                }
            }
            if matches!(insn, Insn::Exit) {
                break;
            }
        }
    }
    Ok(())
}

/// Refine register state along the taken and fall-through edges of a branch.
fn branch_refine(
    state: &PathState,
    op: JmpOp,
    dst: Reg,
    src: Src,
    _is32: bool,
) -> (PathState, PathState) {
    let mut taken = state.clone();
    let mut fall = state.clone();
    let d = state.regs[dst.index()];

    // NULL-check refinement for map-lookup results.
    if let RV::PtrMapValueOrNull { map, off } = d {
        if let Src::Imm(0) = src {
            match op {
                JmpOp::Eq => {
                    // taken: pointer is NULL; fall-through: non-null.
                    taken.regs[dst.index()] = RV::Scalar;
                    fall.regs[dst.index()] = RV::PtrMapValue { map, off };
                }
                JmpOp::Ne => {
                    taken.regs[dst.index()] = RV::PtrMapValue { map, off };
                    fall.regs[dst.index()] = RV::Scalar;
                }
                _ => {}
            }
        }
    }

    // Packet bounds-check refinement: compare a packet pointer at a known
    // offset against the packet end pointer.
    if let (RV::PtrPacket(Some(k)), Src::Reg(s)) = (d, src) {
        if state.regs[s.index()] == RV::PtrPacketEnd {
            match op {
                // if (data + k > data_end) goto ...: fall-through proves k bytes.
                JmpOp::Gt => fall.verified_pkt = fall.verified_pkt.max(k),
                // if (data + k >= data_end): fall-through proves k (conservative).
                JmpOp::Ge => fall.verified_pkt = fall.verified_pkt.max(k),
                // if (data + k <= data_end) goto ...: taken proves k bytes.
                JmpOp::Le | JmpOp::Lt => taken.verified_pkt = taken.verified_pkt.max(k),
                _ => {}
            }
        }
    }
    // Symmetric form: data_end compared against the packet pointer.
    if let (RV::PtrPacketEnd, Src::Reg(s)) = (d, src) {
        if let RV::PtrPacket(Some(k)) = state.regs[s.index()] {
            match op {
                // if (data_end < data + k) goto ...: fall-through proves k bytes.
                JmpOp::Lt | JmpOp::Le => fall.verified_pkt = fall.verified_pkt.max(k),
                // if (data_end >= data + k) goto ...: taken proves k bytes.
                JmpOp::Ge | JmpOp::Gt => taken.verified_pkt = taken.verified_pkt.max(k),
                _ => {}
            }
        }
    }

    (taken, fall)
}

fn operand(state: &PathState, src: Src) -> RV {
    match src {
        Src::Reg(r) => state.regs[r.index()],
        Src::Imm(i) => RV::Const(i as i64 as u64),
    }
}

#[allow(clippy::too_many_lines)]
fn step(
    state: &mut PathState,
    insn: &Insn,
    at: usize,
    prog: &Program,
    config: &VerifierConfig,
) -> Result<(), VerifierError> {
    match *insn {
        Insn::Alu64 {
            op: AluOp::Neg,
            src,
            ..
        }
        | Insn::Alu32 {
            op: AluOp::Neg,
            src,
            ..
        } if src != Src::Imm(0) => {
            return Err(VerifierError::NegReservedFields { at });
        }
        Insn::Alu64 { op, dst, src } => {
            let d = state.regs[dst.index()];
            let s = operand(state, src);
            state.regs[dst.index()] = alu64_abs(op, d, s, at, config)?;
        }
        Insn::Alu32 { op, dst, src } => {
            let d = state.regs[dst.index()];
            let s = operand(state, src);
            if config.forbid_pointer_alu && (d.is_pointer() || s.is_pointer()) {
                return Err(VerifierError::PointerArithmetic { at });
            }
            state.regs[dst.index()] = match (op, d, s) {
                (_, RV::Const(a), RV::Const(b)) => RV::Const(op.eval32(a as u32, b as u32) as u64),
                (AluOp::Mov, _, RV::Const(b)) => RV::Const(b as u32 as u64),
                _ => RV::Scalar,
            };
        }
        Insn::Endian { dst, .. } => {
            if config.forbid_pointer_alu && state.regs[dst.index()].is_pointer() {
                return Err(VerifierError::PointerArithmetic { at });
            }
            state.regs[dst.index()] = RV::Scalar;
        }
        Insn::Load {
            size,
            dst,
            base,
            off,
        } => {
            let value = check_mem_access(state, base, off, size, at, prog, config, Access::Load)?;
            state.regs[dst.index()] = value;
        }
        Insn::Store {
            size, base, off, ..
        } => {
            check_mem_access(state, base, off, size, at, prog, config, Access::Store)?;
        }
        Insn::StoreImm {
            size, base, off, ..
        } => {
            if config.forbid_ctx_store_imm && matches!(state.regs[base.index()], RV::PtrCtx(_)) {
                return Err(VerifierError::CtxStoreImm { at });
            }
            check_mem_access(state, base, off, size, at, prog, config, Access::Store)?;
        }
        Insn::AtomicAdd {
            size, base, off, ..
        } => {
            check_mem_access(state, base, off, size, at, prog, config, Access::Atomic)?;
        }
        Insn::LoadImm64 { dst, imm } => {
            state.regs[dst.index()] = RV::Const(imm as u64);
        }
        Insn::LoadMapFd { dst, map_id } => {
            if prog.map(MapId(map_id)).is_none() {
                return Err(VerifierError::BadHelperArgument {
                    at,
                    what: "undeclared map id",
                });
            }
            state.regs[dst.index()] = RV::MapHandle(map_id);
        }
        Insn::Call { helper } => {
            check_helper_call(state, helper, at, prog)?;
        }
        Insn::Nop | Insn::Ja { .. } | Insn::Jmp { .. } | Insn::Jmp32 { .. } | Insn::Exit => {}
    }
    Ok(())
}

fn alu64_abs(
    op: AluOp,
    d: RV,
    s: RV,
    at: usize,
    config: &VerifierConfig,
) -> Result<RV, VerifierError> {
    let ptr_add = |p: RV, delta: RV, sign: i64| -> Result<RV, VerifierError> {
        let k = match delta {
            RV::Const(c) => Some((c as i64) * sign),
            RV::Scalar => None,
            _ => return Err(VerifierError::PointerArithmetic { at }),
        };
        Ok(match (p, k) {
            (RV::PtrStack(o), Some(k)) => RV::PtrStack(o + k),
            (RV::PtrCtx(o), Some(k)) => RV::PtrCtx(o + k),
            (RV::PtrPacket(Some(o)), Some(k)) => RV::PtrPacket(Some(o + k)),
            (RV::PtrPacket(_), _) => RV::PtrPacket(None),
            (RV::PtrMapValue { map, off }, Some(k)) => RV::PtrMapValue { map, off: off + k },
            (RV::PtrMapValueOrNull { .. }, _) => {
                return Err(VerifierError::PossibleNullDeref { at })
            }
            (RV::PtrPacketEnd, _) => RV::PtrPacketEnd,
            (RV::PtrStack(_) | RV::PtrCtx(_) | RV::PtrMapValue { .. }, None) => {
                // Pointer plus unknown scalar: lose the offset but keep enough
                // information to reject later dereferences.
                RV::PtrPacket(None)
            }
            _ => RV::Scalar,
        })
    };

    match op {
        AluOp::Mov => Ok(s),
        AluOp::Add => {
            if d.is_pointer() && s.is_pointer() {
                return Err(VerifierError::PointerArithmetic { at });
            }
            if d.is_pointer() {
                ptr_add(d, s, 1)
            } else if s.is_pointer() {
                ptr_add(s, d, 1)
            } else {
                Ok(scalar_fold(op, d, s))
            }
        }
        AluOp::Sub => {
            if d.is_pointer() && s.is_pointer() {
                // ptr - ptr yields a scalar length (allowed for packet maths).
                return Ok(RV::Scalar);
            }
            if d.is_pointer() {
                ptr_add(d, s, -1)
            } else if s.is_pointer() {
                Err(VerifierError::PointerArithmetic { at })
            } else {
                Ok(scalar_fold(op, d, s))
            }
        }
        _ => {
            if config.forbid_pointer_alu && (d.is_pointer() || s.is_pointer()) {
                return Err(VerifierError::PointerArithmetic { at });
            }
            Ok(scalar_fold(op, d, s))
        }
    }
}

fn scalar_fold(op: AluOp, d: RV, s: RV) -> RV {
    match (d, s) {
        (RV::Const(a), RV::Const(b)) => RV::Const(op.eval64(a, b)),
        (RV::Const(a), _) if op == AluOp::Neg => RV::Const(op.eval64(a, 0)),
        _ => RV::Scalar,
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Access {
    Load,
    Store,
    Atomic,
}

#[allow(clippy::too_many_arguments)]
fn check_mem_access(
    state: &mut PathState,
    base: Reg,
    off: i16,
    size: MemSize,
    at: usize,
    prog: &Program,
    config: &VerifierConfig,
    access: Access,
) -> Result<RV, VerifierError> {
    let b = state.regs[base.index()];
    let nbytes = size.bytes() as i64;
    match b {
        RV::PtrStack(reg_off) => {
            let start = reg_off + off as i64;
            if start < -512 || start + nbytes > 0 {
                return Err(VerifierError::StackOutOfBounds { off: start, at });
            }
            if config.enforce_stack_alignment && start.rem_euclid(nbytes) != 0 {
                return Err(VerifierError::Misaligned {
                    off: start,
                    size: size.bytes(),
                    at,
                });
            }
            let lo = (512 + start) as usize;
            match access {
                Access::Load | Access::Atomic => {
                    for i in lo..lo + size.bytes() {
                        if !state.stack_init[i] {
                            return Err(VerifierError::StackReadBeforeWrite { off: start, at });
                        }
                    }
                }
                Access::Store => {}
            }
            if matches!(access, Access::Store | Access::Atomic) {
                for i in lo..lo + size.bytes() {
                    state.stack_init[i] = true;
                }
            }
            Ok(RV::Scalar)
        }
        RV::PtrCtx(reg_off) => {
            if matches!(access, Access::Store | Access::Atomic) {
                return Err(VerifierError::CtxWrite { at });
            }
            let start = reg_off + off as i64;
            if start < 0 || start + nbytes > prog.prog_type.ctx_size() as i64 {
                return Err(VerifierError::CtxOutOfBounds { at });
            }
            // A load reads within one slot, and a pointer slot only whole.
            let within_a_slot = match prog.prog_type.ctx_slot(start, size) {
                Some((_, _, CtxField::Input(_))) => true,
                Some((slot, width, _)) => slot as i64 == start && width as i64 == nbytes,
                None => false,
            };
            if !within_a_slot {
                return Err(VerifierError::CtxFieldAccess {
                    off: start,
                    size: size.bytes(),
                    at,
                });
            }
            Ok(match prog.prog_type.ctx_load(start, size) {
                CtxLoad::Packet => RV::PtrPacket(Some(0)),
                CtxLoad::PacketEnd => RV::PtrPacketEnd,
                CtxLoad::Scalar => RV::Scalar,
            })
        }
        RV::PtrPacket(Some(reg_off)) => {
            let start = reg_off + off as i64;
            if start < 0 || start + nbytes > state.verified_pkt {
                return Err(VerifierError::PacketOutOfBounds { at });
            }
            Ok(RV::Scalar)
        }
        RV::PtrPacket(None) | RV::PtrPacketEnd => Err(VerifierError::PacketOutOfBounds { at }),
        RV::PtrMapValue { map, off: reg_off } => {
            check_map_value_range(prog, map, reg_off + off as i64, nbytes, at)?;
            Ok(RV::Scalar)
        }
        RV::PtrMapValueOrNull { .. } => Err(VerifierError::PossibleNullDeref { at }),
        RV::Uninit => Err(VerifierError::UninitRegister { reg: base, at }),
        RV::Scalar | RV::Const(_) | RV::MapHandle(_) => {
            Err(VerifierError::UnknownPointerDeref { at })
        }
    }
}

/// `len` bytes at offset `start` must lie inside one value of `map`.
fn check_map_value_range(
    prog: &Program,
    map: u32,
    start: i64,
    len: i64,
    at: usize,
) -> Result<(), VerifierError> {
    let def = prog
        .map(MapId(map))
        .ok_or(VerifierError::BadHelperArgument {
            at,
            what: "undeclared map",
        })?;
    if start < 0 || start + len > def.value_size as i64 {
        return Err(VerifierError::MapValueOutOfBounds { at });
    }
    Ok(())
}

fn check_helper_call(
    state: &mut PathState,
    helper: HelperId,
    at: usize,
    prog: &Program,
) -> Result<(), VerifierError> {
    if !prog.prog_type.offers(helper) {
        return Err(VerifierError::UnknownHelper { at });
    }
    let ret = match helper {
        HelperId::MapLookup | HelperId::MapUpdate | HelperId::MapDelete => {
            let map = match state.regs[Reg::R1.index()] {
                RV::MapHandle(m) => m,
                _ => {
                    return Err(VerifierError::BadHelperArgument {
                        at,
                        what: "r1 is not a map",
                    })
                }
            };
            let def = prog
                .map(MapId(map))
                .ok_or(VerifierError::BadHelperArgument {
                    at,
                    what: "undeclared map",
                })?;
            // The key pointer must cover key_size initialized bytes.
            check_buffer_arg(state, Reg::R2, def.key_size as i64, at, prog)?;
            if helper == HelperId::MapUpdate {
                check_buffer_arg(state, Reg::R3, def.value_size as i64, at, prog)?;
            }
            if helper == HelperId::MapLookup {
                RV::PtrMapValueOrNull { map, off: 0 }
            } else {
                RV::Scalar
            }
        }
        HelperId::KtimeGetNs
        | HelperId::GetPrandomU32
        | HelperId::GetSmpProcessorId
        | HelperId::GetCurrentPidTgid
        | HelperId::PerfEventOutput
        | HelperId::CsumDiff => RV::Scalar,
        HelperId::XdpAdjustHead => {
            if !matches!(state.regs[Reg::R1.index()], RV::PtrCtx(_)) {
                return Err(VerifierError::BadHelperArgument {
                    at,
                    what: "r1 is not the context",
                });
            }
            // Adjusting the head invalidates previously derived packet
            // pointers; conservatively drop all proven packet bytes.
            state.verified_pkt = 0;
            for rv in state.regs.iter_mut() {
                if matches!(rv, RV::PtrPacket(_) | RV::PtrPacketEnd) {
                    *rv = RV::Scalar;
                }
            }
            RV::Scalar
        }
        HelperId::RedirectMap => {
            if !matches!(state.regs[Reg::R1.index()], RV::MapHandle(_)) {
                return Err(VerifierError::BadHelperArgument {
                    at,
                    what: "r1 is not a map",
                });
            }
            RV::Scalar
        }
        HelperId::Unknown(_) => return Err(VerifierError::UnknownHelper { at }),
    };
    state.regs[Reg::R0.index()] = ret;
    for r in [Reg::R1, Reg::R2, Reg::R3, Reg::R4, Reg::R5] {
        state.regs[r.index()] = RV::Uninit;
    }
    Ok(())
}

/// A helper buffer argument (key or value pointer) must point to `len`
/// readable, initialized bytes of the stack, the packet or a map value.
fn check_buffer_arg(
    state: &PathState,
    reg: Reg,
    len: i64,
    at: usize,
    prog: &Program,
) -> Result<(), VerifierError> {
    match state.regs[reg.index()] {
        RV::PtrStack(off) => {
            if off < -512 || off + len > 0 {
                return Err(VerifierError::StackOutOfBounds { off, at });
            }
            for i in 0..len {
                if !state.stack_init[(512 + off + i) as usize] {
                    return Err(VerifierError::StackReadBeforeWrite { off: off + i, at });
                }
            }
            Ok(())
        }
        RV::PtrPacket(Some(off)) => {
            if off < 0 || off + len > state.verified_pkt {
                return Err(VerifierError::PacketOutOfBounds { at });
            }
            Ok(())
        }
        RV::PtrMapValue { map, off } => check_map_value_range(prog, map, off, len, at),
        RV::PtrCtx(_) => Err(VerifierError::BadHelperArgument {
            at,
            what: "buffer argument points into the context",
        }),
        RV::Uninit => Err(VerifierError::UninitRegister { reg, at }),
        _ => Err(VerifierError::BadHelperArgument {
            at,
            what: "buffer argument is not a pointer",
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bpf_isa::{asm, MapDef, ProgramType};

    fn xdp(text: &str) -> Program {
        Program::new(ProgramType::Xdp, asm::assemble(text).unwrap())
    }

    fn xdp_maps(text: &str, maps: Vec<MapDef>) -> Program {
        Program::with_maps(ProgramType::Xdp, asm::assemble(text).unwrap(), maps)
    }

    fn accept(prog: &Program) -> bool {
        verify(prog, &VerifierConfig::default()).0.is_accept()
    }

    fn reject_with(prog: &Program) -> VerifierError {
        match verify(prog, &VerifierConfig::default()).0 {
            Verdict::Accept => panic!("expected rejection"),
            Verdict::Reject(e) => e,
        }
    }

    #[test]
    fn trivial_program_accepted() {
        assert!(accept(&xdp("mov64 r0, 2\nexit")));
    }

    #[test]
    fn uninitialized_register_rejected() {
        let e = reject_with(&xdp("mov64 r0, r5\nexit"));
        assert!(matches!(
            e,
            VerifierError::UninitRegister { reg: Reg::R5, .. }
        ));
        let e2 = reject_with(&xdp("exit"));
        assert!(matches!(
            e2,
            VerifierError::UninitRegister { reg: Reg::R0, .. }
        ));
    }

    #[test]
    fn loops_rejected() {
        let prog = Program::new(
            ProgramType::Xdp,
            vec![
                Insn::mov64_imm(Reg::R0, 0),
                Insn::Ja { off: -2 },
                Insn::Exit,
            ],
        );
        assert_eq!(reject_with(&prog), VerifierError::Loop);
    }

    #[test]
    fn fall_off_end_rejected() {
        let prog = Program::new(ProgramType::Xdp, vec![Insn::mov64_imm(Reg::R0, 0)]);
        assert_eq!(reject_with(&prog), VerifierError::FallOffEnd);
    }

    #[test]
    fn unreachable_code_rejected() {
        let e = reject_with(&xdp("mov64 r0, 0\nexit\nmov64 r0, 1\nexit"));
        assert!(matches!(e, VerifierError::UnreachableCode { at: 2 }));
    }

    #[test]
    fn frame_pointer_write_rejected() {
        let e = reject_with(&xdp("mov64 r10, 0\nmov64 r0, 0\nexit"));
        assert!(matches!(e, VerifierError::FramePointerWrite { at: 0 }));
    }

    #[test]
    fn stack_read_before_write_rejected() {
        let e = reject_with(&xdp("ldxdw r0, [r10-8]\nexit"));
        assert!(matches!(
            e,
            VerifierError::StackReadBeforeWrite { off: -8, .. }
        ));
        assert!(accept(&xdp("stdw [r10-8], 1\nldxdw r0, [r10-8]\nexit")));
    }

    #[test]
    fn stack_bounds_and_alignment() {
        let e = reject_with(&xdp("stdw [r10-520], 1\nmov64 r0, 0\nexit"));
        assert!(matches!(e, VerifierError::StackOutOfBounds { .. }));
        // 8-byte store at a non-8-aligned offset.
        let e2 = reject_with(&xdp("stdw [r10-12], 1\nmov64 r0, 0\nexit"));
        assert!(matches!(e2, VerifierError::Misaligned { .. }));
        // An 8-byte store at -4 also overruns the top of the frame.
        let e2b = reject_with(&xdp("stdw [r10-4], 1\nmov64 r0, 0\nexit"));
        assert!(matches!(e2b, VerifierError::StackOutOfBounds { .. }));
        // Positive offsets above r10 are out of bounds too.
        let e3 = reject_with(&xdp("stdw [r10+8], 1\nmov64 r0, 0\nexit"));
        assert!(matches!(e3, VerifierError::StackOutOfBounds { .. }));
    }

    #[test]
    fn packet_access_requires_bounds_check() {
        let unchecked = xdp("ldxdw r2, [r1+0]\nldxb r0, [r2+0]\nexit");
        assert!(matches!(
            reject_with(&unchecked),
            VerifierError::PacketOutOfBounds { .. }
        ));

        let checked = xdp(r"
            ldxdw r2, [r1+0]
            ldxdw r3, [r1+8]
            mov64 r4, r2
            add64 r4, 14
            mov64 r0, 1
            jgt r4, r3, +2
            ldxb r0, [r2+13]
            mov64 r0, 2
            exit
        ");
        assert!(accept(&checked));

        // Reading beyond what the check proved is still rejected.
        let overread = xdp(r"
            ldxdw r2, [r1+0]
            ldxdw r3, [r1+8]
            mov64 r4, r2
            add64 r4, 14
            mov64 r0, 1
            jgt r4, r3, +2
            ldxb r0, [r2+20]
            mov64 r0, 2
            exit
        ");
        assert!(matches!(
            reject_with(&overread),
            VerifierError::PacketOutOfBounds { .. }
        ));
    }

    #[test]
    fn context_is_read_only_and_bounded() {
        let e = reject_with(&xdp("stdw [r1+0], 1\nmov64 r0, 0\nexit"));
        assert!(matches!(
            e,
            VerifierError::CtxStoreImm { .. } | VerifierError::CtxWrite { .. }
        ));
        let e2 = reject_with(&xdp("ldxdw r0, [r1+64]\nexit"));
        assert!(matches!(e2, VerifierError::CtxOutOfBounds { .. }));
        assert!(accept(&xdp("ldxw r0, [r1+24]\nexit")));
    }

    #[test]
    fn context_loads_read_within_one_slot() {
        // Input slots may be read in part; pointer slots only whole.
        assert!(accept(&xdp("ldxb r0, [r1+25]\nexit")));
        assert!(accept(&xdp("ldxh r0, [r1+30]\nexit")));
        let tracepoint = Program::new(
            ProgramType::Tracepoint,
            asm::assemble("ldxw r0, [r1+12]\nexit").unwrap(),
        );
        assert!(accept(&tracepoint));
        assert_eq!(
            reject_with(&xdp("ldxh r0, [r1+22]\nexit")),
            VerifierError::CtxFieldAccess {
                off: 22,
                size: 2,
                at: 0
            }
        );
        assert!(matches!(
            reject_with(&xdp("ldxw r0, [r1+26]\nexit")),
            VerifierError::CtxFieldAccess { .. }
        ));
    }

    #[test]
    fn map_lookup_requires_null_check() {
        let maps = vec![MapDef::array(0, 8, 4)];
        let unchecked = xdp_maps(
            r"
            mov64 r1, 0
            stxw [r10-4], r1
            ld_map_fd r1, 0
            mov64 r2, r10
            add64 r2, -4
            call map_lookup_elem
            ldxdw r0, [r0+0]
            exit
        ",
            maps.clone(),
        );
        assert!(matches!(
            reject_with(&unchecked),
            VerifierError::PossibleNullDeref { .. }
        ));

        let checked = xdp_maps(
            r"
            mov64 r1, 0
            stxw [r10-4], r1
            ld_map_fd r1, 0
            mov64 r2, r10
            add64 r2, -4
            call map_lookup_elem
            jeq r0, 0, +1
            ldxdw r0, [r0+0]
            mov64 r0, 2
            exit
        ",
            maps.clone(),
        );
        assert!(accept(&checked));

        // Reading past the declared value size is rejected even after the
        // null check.
        let oob = xdp_maps(
            r"
            mov64 r1, 0
            stxw [r10-4], r1
            ld_map_fd r1, 0
            mov64 r2, r10
            add64 r2, -4
            call map_lookup_elem
            jeq r0, 0, +1
            ldxdw r0, [r0+8]
            mov64 r0, 2
            exit
        ",
            maps,
        );
        assert!(matches!(
            reject_with(&oob),
            VerifierError::MapValueOutOfBounds { .. }
        ));
    }

    #[test]
    fn helper_key_must_be_initialized() {
        let maps = vec![MapDef::array(0, 8, 4)];
        let bad = xdp_maps(
            "ld_map_fd r1, 0\nmov64 r2, r10\nadd64 r2, -4\ncall map_lookup_elem\nmov64 r0, 0\nexit",
            maps,
        );
        assert!(matches!(
            reject_with(&bad),
            VerifierError::StackReadBeforeWrite { .. }
        ));
    }

    #[test]
    fn helper_buffers_must_lie_in_the_stack_packet_or_map_value() {
        let maps = vec![MapDef::array(0, 8, 4)];
        // The context is no key buffer, whatever the offset.
        let ctx_key = xdp_maps(
            "mov64 r2, r1\nadd64 r2, -4\nld_map_fd r1, 0\ncall map_lookup_elem\nmov64 r0, 0\nexit",
            maps.clone(),
        );
        assert!(matches!(
            reject_with(&ctx_key),
            VerifierError::BadHelperArgument { at: 3, .. }
        ));
        // A map value is a key buffer only within its declared size.
        let lookup = r"
            mov64 r1, 0
            stxw [r10-4], r1
            ld_map_fd r1, 0
            mov64 r2, r10
            add64 r2, -4
            call map_lookup_elem
            jeq r0, 0, +4
            mov64 r2, r0
            add64 r2, OFF
            ld_map_fd r1, 0
            call map_lookup_elem
            mov64 r0, 0
            exit
        ";
        let at = |off: &str| xdp_maps(&lookup.replace("OFF", off), maps.clone());
        assert!(accept(&at("4")));
        assert!(matches!(
            reject_with(&at("6")),
            VerifierError::MapValueOutOfBounds { at: 10 }
        ));
        assert!(matches!(
            reject_with(&at("-4")),
            VerifierError::MapValueOutOfBounds { at: 10 }
        ));
    }

    #[test]
    fn neg_takes_no_source_operand() {
        assert!(accept(&xdp("mov64 r0, 3\nneg64 r0\nexit")));
        for src in [Src::Reg(Reg::R5), Src::Reg(Reg::R0), Src::Imm(1)] {
            for insn in [
                Insn::Alu64 {
                    op: AluOp::Neg,
                    dst: Reg::R0,
                    src,
                },
                Insn::Alu32 {
                    op: AluOp::Neg,
                    dst: Reg::R0,
                    src,
                },
            ] {
                let prog = Program::new(
                    ProgramType::Xdp,
                    vec![Insn::mov64_imm(Reg::R0, 3), insn, Insn::Exit],
                );
                assert_eq!(
                    reject_with(&prog),
                    VerifierError::NegReservedFields { at: 1 }
                );
            }
        }
    }

    #[test]
    fn caller_saved_registers_unreadable_after_call() {
        let e = reject_with(&xdp("call ktime_get_ns\nmov64 r0, r1\nexit"));
        assert!(matches!(
            e,
            VerifierError::UninitRegister { reg: Reg::R1, .. }
        ));
        assert!(accept(&xdp(
            "mov64 r6, 5\ncall ktime_get_ns\nmov64 r0, r6\nexit"
        )));
    }

    #[test]
    fn pointer_arithmetic_restrictions() {
        let e = reject_with(&xdp("mov64 r2, r10\nmul64 r2, 4\nmov64 r0, 0\nexit"));
        assert!(matches!(e, VerifierError::PointerArithmetic { .. }));
        let e2 = reject_with(&xdp("add32 r1, 4\nmov64 r0, 0\nexit"));
        assert!(matches!(e2, VerifierError::PointerArithmetic { .. }));
        // add/sub with constants is fine.
        assert!(accept(&xdp(
            "mov64 r2, r10\nadd64 r2, -8\nstdw [r2+0], 1\nmov64 r0, 0\nexit"
        )));
    }

    #[test]
    fn unknown_pointer_dereference_rejected() {
        let e = reject_with(&xdp("lddw r2, 0xdeadbeef\nldxdw r0, [r2+0]\nexit"));
        assert!(matches!(e, VerifierError::UnknownPointerDeref { .. }));
    }

    #[test]
    fn unknown_helper_rejected() {
        let prog = xdp("mov64 r1, 0\nmov64 r2, 0\nmov64 r3, 0\nmov64 r4, 0\nmov64 r5, 0\ncall helper_999\nmov64 r0, 0\nexit");
        assert!(matches!(
            reject_with(&prog),
            VerifierError::UnknownHelper { .. }
        ));
    }

    #[test]
    fn program_size_limit_enforced() {
        let mut text = String::new();
        for _ in 0..5000 {
            text.push_str("mov64 r0, 1\n");
        }
        text.push_str("exit");
        let prog = xdp(&text);
        let config = VerifierConfig::default();
        let (verdict, _) = verify(&prog, &config);
        assert!(matches!(
            verdict,
            Verdict::Reject(VerifierError::TooManyInstructions { .. })
        ));
    }

    #[test]
    fn complexity_limit_enforced() {
        // 18 consecutive branches -> 2^18 paths, far beyond a tiny budget.
        let mut text = String::new();
        text.push_str("mov64 r0, 0\n");
        for _ in 0..18 {
            text.push_str("jeq r0, 1, +0\n");
        }
        text.push_str("exit");
        let prog = xdp(&text);
        let config = VerifierConfig {
            complexity_limit: 1000,
            ..VerifierConfig::default()
        };
        let (verdict, stats) = verify(&prog, &config);
        assert!(matches!(
            verdict,
            Verdict::Reject(VerifierError::ComplexityExceeded { .. })
        ));
        assert!(stats.insns_examined >= 1000);
    }

    #[test]
    fn stats_count_paths() {
        let prog = xdp("mov64 r0, 1\njeq r0, 1, +1\nmov64 r0, 2\nexit");
        let (verdict, stats) = verify(&prog, &VerifierConfig::default());
        assert!(verdict.is_accept());
        assert_eq!(stats.paths, 2);
        assert!(stats.insns_examined >= 4);
    }

    #[test]
    fn adjust_head_invalidates_packet_pointers() {
        let prog = xdp(r"
            ldxdw r6, [r1+0]
            ldxdw r3, [r1+8]
            mov64 r4, r6
            add64 r4, 2
            mov64 r0, 1
            jgt r4, r3, +4
            mov64 r2, -8
            call xdp_adjust_head
            ldxb r0, [r6+0]
            mov64 r0, 2
            exit
        ");
        // After adjust_head the old packet pointer r6 must not be usable.
        let e = reject_with(&prog);
        assert!(matches!(
            e,
            VerifierError::PacketOutOfBounds { .. } | VerifierError::UnknownPointerDeref { .. }
        ));
    }
}
