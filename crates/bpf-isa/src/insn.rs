//! The structured instruction representation.

use crate::{AluOp, ByteOrder, HelperId, JmpOp, MemSize, Reg};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Source operand of an ALU or conditional-jump instruction: either a
/// register or a 32-bit immediate (sign-extended to 64 bits where the
/// operation requires it).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Src {
    /// Register operand.
    Reg(Reg),
    /// Immediate operand.
    Imm(i32),
}

impl Src {
    /// The register, if this operand is a register.
    pub fn reg(self) -> Option<Reg> {
        match self {
            Src::Reg(r) => Some(r),
            Src::Imm(_) => None,
        }
    }

    /// The immediate, if this operand is an immediate.
    pub fn imm(self) -> Option<i32> {
        match self {
            Src::Reg(_) => None,
            Src::Imm(i) => Some(i),
        }
    }
}

/// The registers an instruction reads, in operand order, returned by
/// [`Insn::uses`].
///
/// Stored inline (no instruction reads more than five registers: a helper
/// call's `r1`–`r5`), so the per-instruction register checks of the
/// interpreter and the analyses never touch the heap. Dereferences to a
/// `[Reg]` slice and iterates by value.
#[derive(Debug, Clone, Copy)]
pub struct RegList {
    regs: [Reg; 5],
    len: u8,
}

impl RegList {
    const EMPTY: RegList = RegList {
        regs: [Reg::R0; 5],
        len: 0,
    };

    fn push(&mut self, r: Reg) {
        self.regs[self.len as usize] = r;
        self.len += 1;
    }
}

impl std::ops::Deref for RegList {
    type Target = [Reg];

    fn deref(&self) -> &[Reg] {
        &self.regs[..self.len as usize]
    }
}

impl IntoIterator for RegList {
    type Item = Reg;
    type IntoIter = std::iter::Take<std::array::IntoIter<Reg, 5>>;

    fn into_iter(self) -> Self::IntoIter {
        self.regs.into_iter().take(self.len as usize)
    }
}

impl fmt::Display for Src {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Src::Reg(r) => write!(f, "{r}"),
            Src::Imm(i) => write!(f, "{i}"),
        }
    }
}

impl From<Reg> for Src {
    fn from(r: Reg) -> Src {
        Src::Reg(r)
    }
}

impl From<i32> for Src {
    fn from(i: i32) -> Src {
        Src::Imm(i)
    }
}

/// A single eBPF instruction.
///
/// Jump offsets follow the kernel convention: an offset of `off` transfers
/// control to the instruction at index `pc + 1 + off`, i.e. `off == 0` falls
/// through. In this structured representation a two-slot `lddw` counts as a
/// *single* instruction; [`crate::wire`] expands it to two slots and
/// [`Insn::slot_len`] reports how many wire slots an instruction occupies so
/// that analyses which must match kernel program-length limits can account
/// for it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Insn {
    /// 64-bit ALU operation: `dst = dst <op> src` (or `dst = -dst` for `neg`,
    /// `dst = src` for `mov`).
    Alu64 {
        /// Operation.
        op: AluOp,
        /// Destination (and usually first source) register.
        dst: Reg,
        /// Second operand.
        src: Src,
    },
    /// 32-bit ALU operation on the low halves; the 64-bit result is
    /// zero-extended.
    Alu32 {
        /// Operation.
        op: AluOp,
        /// Destination (and usually first source) register.
        dst: Reg,
        /// Second operand.
        src: Src,
    },
    /// Byte-swap instruction (`BPF_END`): reinterpret the low `width` bits of
    /// `dst` in the given byte order and zero the rest.
    Endian {
        /// Target byte order.
        order: ByteOrder,
        /// Width in bits: 16, 32 or 64.
        width: u32,
        /// Register operated on in place.
        dst: Reg,
    },
    /// Register load: `dst = *(size *)(base + off)`.
    Load {
        /// Access width.
        size: MemSize,
        /// Destination register.
        dst: Reg,
        /// Base address register.
        base: Reg,
        /// Signed byte offset from the base.
        off: i16,
    },
    /// Register store: `*(size *)(base + off) = src`.
    Store {
        /// Access width.
        size: MemSize,
        /// Base address register.
        base: Reg,
        /// Signed byte offset from the base.
        off: i16,
        /// Source register holding the value to store.
        src: Reg,
    },
    /// Immediate store: `*(size *)(base + off) = imm`.
    StoreImm {
        /// Access width.
        size: MemSize,
        /// Base address register.
        base: Reg,
        /// Signed byte offset from the base.
        off: i16,
        /// Value stored (truncated to the access width).
        imm: i32,
    },
    /// Atomic add (`BPF_XADD`): `*(size *)(base + off) += src`.
    /// Only word and double-word widths are legal.
    AtomicAdd {
        /// Access width (`Word` or `Dword`).
        size: MemSize,
        /// Base address register.
        base: Reg,
        /// Signed byte offset from the base.
        off: i16,
        /// Register holding the addend.
        src: Reg,
    },
    /// 64-bit immediate load (`lddw`, two wire slots): `dst = imm`.
    LoadImm64 {
        /// Destination register.
        dst: Reg,
        /// Full 64-bit immediate.
        imm: i64,
    },
    /// Map-fd load (`lddw` with `src_reg == BPF_PSEUDO_MAP_FD`): `dst` becomes
    /// a pointer/handle to the map with the given id.
    LoadMapFd {
        /// Destination register.
        dst: Reg,
        /// Map id (file descriptor at load time; resolved by relocation).
        map_id: u32,
    },
    /// Unconditional jump.
    Ja {
        /// Relative offset (kernel convention, see type docs).
        off: i16,
    },
    /// Conditional jump comparing full 64-bit values.
    Jmp {
        /// Condition.
        op: JmpOp,
        /// Left operand register.
        dst: Reg,
        /// Right operand.
        src: Src,
        /// Relative offset taken when the condition holds.
        off: i16,
    },
    /// Conditional jump comparing the low 32 bits.
    Jmp32 {
        /// Condition.
        op: JmpOp,
        /// Left operand register.
        dst: Reg,
        /// Right operand.
        src: Src,
        /// Relative offset taken when the condition holds.
        off: i16,
    },
    /// Call a kernel helper function. Arguments are passed in `r1`–`r5`,
    /// the result is returned in `r0`, and `r1`–`r5` are clobbered.
    Call {
        /// Which helper to call.
        helper: HelperId,
    },
    /// Return from the program with the value in `r0`.
    Exit,
    /// No operation. Used by the synthesizer to shrink programs; materialized
    /// as `ja +0` in the wire encoding and removed entirely on output.
    Nop,
}

impl Insn {
    // ----- convenience constructors (used heavily by tests and benchmarks) --

    /// `dst = src` (64-bit register move).
    pub fn mov64(dst: Reg, src: Reg) -> Insn {
        Insn::Alu64 {
            op: AluOp::Mov,
            dst,
            src: Src::Reg(src),
        }
    }
    /// `dst = imm` (64-bit move of a sign-extended 32-bit immediate).
    pub fn mov64_imm(dst: Reg, imm: i32) -> Insn {
        Insn::Alu64 {
            op: AluOp::Mov,
            dst,
            src: Src::Imm(imm),
        }
    }
    /// `dst = src` (32-bit move, zero-extending).
    pub fn mov32(dst: Reg, src: Reg) -> Insn {
        Insn::Alu32 {
            op: AluOp::Mov,
            dst,
            src: Src::Reg(src),
        }
    }
    /// `dst = imm` (32-bit move, zero-extending).
    pub fn mov32_imm(dst: Reg, imm: i32) -> Insn {
        Insn::Alu32 {
            op: AluOp::Mov,
            dst,
            src: Src::Imm(imm),
        }
    }
    /// `dst += src` (64-bit).
    pub fn add64(dst: Reg, src: Reg) -> Insn {
        Insn::Alu64 {
            op: AluOp::Add,
            dst,
            src: Src::Reg(src),
        }
    }
    /// `dst += imm` (64-bit).
    pub fn add64_imm(dst: Reg, imm: i32) -> Insn {
        Insn::Alu64 {
            op: AluOp::Add,
            dst,
            src: Src::Imm(imm),
        }
    }
    /// Generic 64-bit ALU with register operand.
    pub fn alu64(op: AluOp, dst: Reg, src: Reg) -> Insn {
        Insn::Alu64 {
            op,
            dst,
            src: Src::Reg(src),
        }
    }
    /// Generic 64-bit ALU with immediate operand.
    pub fn alu64_imm(op: AluOp, dst: Reg, imm: i32) -> Insn {
        Insn::Alu64 {
            op,
            dst,
            src: Src::Imm(imm),
        }
    }
    /// Generic 32-bit ALU with register operand.
    pub fn alu32(op: AluOp, dst: Reg, src: Reg) -> Insn {
        Insn::Alu32 {
            op,
            dst,
            src: Src::Reg(src),
        }
    }
    /// Generic 32-bit ALU with immediate operand.
    pub fn alu32_imm(op: AluOp, dst: Reg, imm: i32) -> Insn {
        Insn::Alu32 {
            op,
            dst,
            src: Src::Imm(imm),
        }
    }
    /// `dst = *(size*)(base + off)`.
    pub fn load(size: MemSize, dst: Reg, base: Reg, off: i16) -> Insn {
        Insn::Load {
            size,
            dst,
            base,
            off,
        }
    }
    /// `*(size*)(base + off) = src`.
    pub fn store(size: MemSize, base: Reg, off: i16, src: Reg) -> Insn {
        Insn::Store {
            size,
            base,
            off,
            src,
        }
    }
    /// `*(size*)(base + off) = imm`.
    pub fn store_imm(size: MemSize, base: Reg, off: i16, imm: i32) -> Insn {
        Insn::StoreImm {
            size,
            base,
            off,
            imm,
        }
    }
    /// Conditional 64-bit jump against a register.
    pub fn jmp(op: JmpOp, dst: Reg, src: Reg, off: i16) -> Insn {
        Insn::Jmp {
            op,
            dst,
            src: Src::Reg(src),
            off,
        }
    }
    /// Conditional 64-bit jump against an immediate.
    pub fn jmp_imm(op: JmpOp, dst: Reg, imm: i32, off: i16) -> Insn {
        Insn::Jmp {
            op,
            dst,
            src: Src::Imm(imm),
            off,
        }
    }
    /// Call a helper.
    pub fn call(helper: HelperId) -> Insn {
        Insn::Call { helper }
    }

    // ----- structural queries -----------------------------------------------

    /// Number of 8-byte wire slots this instruction occupies (2 for `lddw`
    /// forms, 1 for everything else).
    pub fn slot_len(&self) -> usize {
        match self {
            Insn::LoadImm64 { .. } | Insn::LoadMapFd { .. } => 2,
            _ => 1,
        }
    }

    /// The register written by this instruction, if any.
    ///
    /// Helper calls report `r0` (their return register); the additional
    /// clobbering of `r1`–`r5` is exposed via [`Insn::clobbers`].
    pub fn def(&self) -> Option<Reg> {
        match *self {
            Insn::Alu64 { dst, .. } | Insn::Alu32 { dst, .. } => Some(dst),
            Insn::Endian { dst, .. } => Some(dst),
            Insn::Load { dst, .. } => Some(dst),
            Insn::LoadImm64 { dst, .. } | Insn::LoadMapFd { dst, .. } => Some(dst),
            Insn::Call { .. } => Some(Reg::R0),
            Insn::Store { .. }
            | Insn::StoreImm { .. }
            | Insn::AtomicAdd { .. }
            | Insn::Ja { .. }
            | Insn::Jmp { .. }
            | Insn::Jmp32 { .. }
            | Insn::Exit
            | Insn::Nop => None,
        }
    }

    /// Registers additionally clobbered (written with unspecified values)
    /// beyond [`Insn::def`]. Only helper calls clobber: `r1`–`r5`.
    pub fn clobbers(&self) -> &'static [Reg] {
        match self {
            Insn::Call { .. } => &[Reg::R1, Reg::R2, Reg::R3, Reg::R4, Reg::R5],
            _ => &[],
        }
    }

    /// Registers read by this instruction.
    pub fn uses(&self) -> RegList {
        let mut out = RegList::EMPTY;
        match *self {
            Insn::Alu64 { op, dst, src } | Insn::Alu32 { op, dst, src } => {
                if op.reads_dst() {
                    out.push(dst);
                }
                if op.uses_src() {
                    if let Src::Reg(r) = src {
                        out.push(r);
                    }
                }
            }
            Insn::Endian { dst, .. } => out.push(dst),
            Insn::Load { base, .. } => out.push(base),
            Insn::Store { base, src, .. } => {
                out.push(base);
                out.push(src);
            }
            Insn::StoreImm { base, .. } => out.push(base),
            Insn::AtomicAdd { base, src, .. } => {
                out.push(base);
                out.push(src);
            }
            Insn::LoadImm64 { .. } | Insn::LoadMapFd { .. } => {}
            Insn::Ja { .. } | Insn::Nop => {}
            Insn::Jmp { dst, src, .. } | Insn::Jmp32 { dst, src, .. } => {
                out.push(dst);
                if let Src::Reg(r) = src {
                    out.push(r);
                }
            }
            Insn::Call { helper } => {
                out = RegList {
                    regs: [Reg::R1, Reg::R2, Reg::R3, Reg::R4, Reg::R5],
                    len: helper.num_args().min(5) as u8,
                };
            }
            Insn::Exit => out.push(Reg::R0),
        }
        out
    }

    /// Whether this instruction can transfer control anywhere other than the
    /// next instruction.
    pub fn is_branch(&self) -> bool {
        matches!(
            self,
            Insn::Ja { .. } | Insn::Jmp { .. } | Insn::Jmp32 { .. } | Insn::Exit
        )
    }

    /// Whether control never falls through to the following instruction.
    pub fn is_unconditional_exit_or_jump(&self) -> bool {
        matches!(self, Insn::Ja { .. } | Insn::Exit)
    }

    /// For a (conditional or unconditional) jump at index `pc`, the absolute
    /// target index. Returns `None` for non-jumps and for `exit`.
    pub fn jump_target(&self, pc: usize) -> Option<i64> {
        let off = match self {
            Insn::Ja { off } => *off,
            Insn::Jmp { off, .. } | Insn::Jmp32 { off, .. } => *off,
            _ => return None,
        };
        Some(pc as i64 + 1 + off as i64)
    }

    /// Overwrite the jump offset of a branch instruction. No-op on non-jumps.
    pub fn set_jump_off(&mut self, new_off: i16) {
        match self {
            Insn::Ja { off } => *off = new_off,
            Insn::Jmp { off, .. } | Insn::Jmp32 { off, .. } => *off = new_off,
            _ => {}
        }
    }

    /// Whether the instruction performs a memory access (load, store or
    /// atomic), the key classification used by K2's "memory exchange"
    /// proposal rules.
    pub fn is_memory_access(&self) -> bool {
        matches!(
            self,
            Insn::Load { .. } | Insn::Store { .. } | Insn::StoreImm { .. } | Insn::AtomicAdd { .. }
        )
    }

    /// The memory access width, if this is a memory instruction.
    pub fn mem_size(&self) -> Option<MemSize> {
        match self {
            Insn::Load { size, .. }
            | Insn::Store { size, .. }
            | Insn::StoreImm { size, .. }
            | Insn::AtomicAdd { size, .. } => Some(*size),
            _ => None,
        }
    }

    /// The memory base register and offset, if this is a memory instruction.
    pub fn mem_addr(&self) -> Option<(Reg, i16)> {
        match self {
            Insn::Load { base, off, .. }
            | Insn::Store { base, off, .. }
            | Insn::StoreImm { base, off, .. }
            | Insn::AtomicAdd { base, off, .. } => Some((*base, *off)),
            _ => None,
        }
    }
}

impl fmt::Display for Insn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Insn::Alu64 {
                op: AluOp::Neg,
                dst,
                ..
            } => write!(f, "neg64 {dst}"),
            Insn::Alu32 {
                op: AluOp::Neg,
                dst,
                ..
            } => write!(f, "neg32 {dst}"),
            Insn::Alu64 { op, dst, src } => write!(f, "{}64 {dst}, {src}", op.mnemonic()),
            Insn::Alu32 { op, dst, src } => write!(f, "{}32 {dst}, {src}", op.mnemonic()),
            Insn::Endian { order, width, dst } => {
                let o = match order {
                    ByteOrder::Little => "le",
                    ByteOrder::Big => "be",
                };
                write!(f, "{o}{width} {dst}")
            }
            Insn::Load {
                size,
                dst,
                base,
                off,
            } => {
                write!(f, "ldx{size} {dst}, [{base}{off:+}]")
            }
            Insn::Store {
                size,
                base,
                off,
                src,
            } => {
                write!(f, "stx{size} [{base}{off:+}], {src}")
            }
            Insn::StoreImm {
                size,
                base,
                off,
                imm,
            } => {
                write!(f, "st{size} [{base}{off:+}], {imm}")
            }
            Insn::AtomicAdd {
                size,
                base,
                off,
                src,
            } => {
                write!(f, "xadd{size} [{base}{off:+}], {src}")
            }
            Insn::LoadImm64 { dst, imm } => write!(f, "lddw {dst}, {imm:#x}"),
            Insn::LoadMapFd { dst, map_id } => write!(f, "ld_map_fd {dst}, {map_id}"),
            Insn::Ja { off } => write!(f, "ja {off:+}"),
            Insn::Jmp { op, dst, src, off } => {
                write!(f, "{} {dst}, {src}, {off:+}", op.mnemonic())
            }
            Insn::Jmp32 { op, dst, src, off } => {
                write!(f, "{}32 {dst}, {src}, {off:+}", op.mnemonic())
            }
            Insn::Call { helper } => write!(f, "call {helper}"),
            Insn::Exit => write!(f, "exit"),
            Insn::Nop => write!(f, "nop"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defs_and_uses() {
        let add = Insn::add64(Reg::R1, Reg::R2);
        assert_eq!(add.def(), Some(Reg::R1));
        assert_eq!(add.uses()[..], [Reg::R1, Reg::R2]);

        let mov = Insn::mov64(Reg::R3, Reg::R4);
        assert_eq!(mov.def(), Some(Reg::R3));
        assert_eq!(mov.uses()[..], [Reg::R4]);

        let st = Insn::store(MemSize::Word, Reg::R10, -4, Reg::R1);
        assert_eq!(st.def(), None);
        assert_eq!(st.uses()[..], [Reg::R10, Reg::R1]);

        let call = Insn::call(HelperId::MapLookup);
        assert_eq!(call.def(), Some(Reg::R0));
        assert_eq!(call.uses()[..], [Reg::R1, Reg::R2]);
        assert_eq!(call.clobbers().len(), 5);
        let csum = Insn::call(HelperId::CsumDiff);
        assert_eq!(csum.uses()[..], *csum.clobbers());
        assert_eq!(csum.uses().into_iter().collect::<Vec<_>>(), csum.clobbers());

        assert_eq!(Insn::Exit.uses()[..], [Reg::R0]);
        assert!(Insn::Nop.uses().is_empty());
    }

    #[test]
    fn neg_reads_dst_only() {
        let neg = Insn::alu64_imm(AluOp::Neg, Reg::R5, 0);
        assert_eq!(neg.uses()[..], [Reg::R5]);
        assert_eq!(neg.def(), Some(Reg::R5));
    }

    #[test]
    fn jump_targets() {
        let j = Insn::jmp_imm(JmpOp::Eq, Reg::R1, 0, 3);
        assert_eq!(j.jump_target(5), Some(9));
        let ja = Insn::Ja { off: -2 };
        assert_eq!(ja.jump_target(5), Some(4));
        assert_eq!(Insn::Exit.jump_target(5), None);
        assert_eq!(Insn::Nop.jump_target(5), None);
    }

    #[test]
    fn slot_lengths() {
        assert_eq!(
            Insn::LoadImm64 {
                dst: Reg::R1,
                imm: 7
            }
            .slot_len(),
            2
        );
        assert_eq!(
            Insn::LoadMapFd {
                dst: Reg::R1,
                map_id: 3
            }
            .slot_len(),
            2
        );
        assert_eq!(Insn::Exit.slot_len(), 1);
    }

    #[test]
    fn memory_classification() {
        assert!(Insn::load(MemSize::Byte, Reg::R1, Reg::R2, 0).is_memory_access());
        assert!(Insn::store_imm(MemSize::Half, Reg::R10, -2, 9).is_memory_access());
        assert!(!Insn::mov64(Reg::R1, Reg::R2).is_memory_access());
        assert_eq!(
            Insn::load(MemSize::Word, Reg::R1, Reg::R2, 8).mem_addr(),
            Some((Reg::R2, 8))
        );
    }

    #[test]
    fn display_round() {
        assert_eq!(Insn::mov64_imm(Reg::R0, 1).to_string(), "mov64 r0, 1");
        assert_eq!(
            Insn::load(MemSize::Word, Reg::R1, Reg::R2, -4).to_string(),
            "ldxw r1, [r2-4]"
        );
        assert_eq!(Insn::Exit.to_string(), "exit");
        assert_eq!(
            Insn::Jmp32 {
                op: JmpOp::Lt,
                dst: Reg::R3,
                src: Src::Imm(7),
                off: 2
            }
            .to_string(),
            "jlt32 r3, 7, +2"
        );
    }

    #[test]
    fn set_jump_off_only_touches_jumps() {
        let mut j = Insn::Ja { off: 1 };
        j.set_jump_off(9);
        assert_eq!(j, Insn::Ja { off: 9 });
        let mut m = Insn::mov64_imm(Reg::R0, 0);
        m.set_jump_off(9);
        assert_eq!(m, Insn::mov64_imm(Reg::R0, 0));
    }
}
