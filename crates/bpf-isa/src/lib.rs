//! # bpf-isa
//!
//! A model of the extended Berkeley Packet Filter (eBPF) instruction set, as
//! used by the K2 synthesizing compiler.
//!
//! The crate provides:
//!
//! * [`Reg`] — the eleven 64-bit general purpose registers `r0`–`r10`,
//! * [`Insn`] — a structured instruction representation covering 32/64-bit
//!   arithmetic and logic, byte swaps, 1/2/4/8-byte loads and stores, atomic
//!   adds, conditional and unconditional jumps, helper calls, map-fd loads,
//!   wide immediate loads and `exit`,
//! * [`wire`] — the 8-byte kernel wire encoding (`struct bpf_insn`) with
//!   round-trip encode/decode, including the two-slot `lddw` form,
//! * [`asm`] — a small text assembler/disassembler used by tests, examples
//!   and the benchmark suite,
//! * [`Program`] — a container tying instructions to a program type
//!   (XDP, socket filter, ...) and its map definitions.
//!
//! The representation is deliberately higher level than the raw wire format:
//! every instruction is a self-describing enum variant so that the stochastic
//! search in `k2-core` can mutate opcodes and operands without bit fiddling,
//! while [`wire`] preserves compatibility with the kernel encoding.
//!
//! ## Quick example
//!
//! ```
//! use bpf_isa::{Insn, Program, ProgramType, Reg, asm};
//!
//! // r0 = r1 + 4; exit
//! let insns = vec![
//!     Insn::mov64(Reg::R0, Reg::R1),
//!     Insn::add64_imm(Reg::R0, 4),
//!     Insn::Exit,
//! ];
//! let prog = Program::new(ProgramType::SocketFilter, insns);
//! let text = asm::disassemble(&prog.insns);
//! let parsed = asm::assemble(&text).unwrap();
//! assert_eq!(parsed, prog.insns);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod asm;
pub mod error;
pub mod helper;
pub mod insn;
pub mod opcode;
pub mod program;
pub mod reg;
pub mod wire;

pub use error::IsaError;
pub use helper::HelperId;
pub use insn::{Insn, RegList, Src};
pub use opcode::{AluOp, ByteOrder, JmpOp, MemSize};
pub use program::{CtxField, CtxLoad, CtxSlot, MapDef, MapId, MapKind, Program, ProgramType};
pub use reg::Reg;

/// The number of general purpose registers (`r0` through `r10`).
pub const NUM_REGS: usize = 11;

/// The size of the BPF program stack in bytes, fixed by the kernel ABI.
pub const STACK_SIZE: usize = 512;
