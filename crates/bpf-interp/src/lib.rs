//! # bpf-interp
//!
//! A reference interpreter for the BPF instruction set modelled by
//! [`bpf_isa`], together with everything K2 needs around it:
//!
//! * a deterministic **machine state** ([`machine::MachineState`]) with the
//!   eleven registers, the 512-byte stack, packet memory, the program
//!   context, and the BPF map store,
//! * implementations of the modelled **helper functions** (map
//!   lookup/update/delete, timestamps, random numbers, packet headroom
//!   adjustment, ...),
//! * **trap-on-unsafety** execution: any out-of-bounds access, read of
//!   uninitialized stack or registers, write through a bad pointer, or
//!   control-flow violation aborts the run with a descriptive [`Trap`] —
//!   this is how test cases prune unsafe candidates cheaply during search,
//! * a **test-case generator** ([`input::InputGenerator`]) producing random
//!   program inputs (packets, context, map contents),
//! * the **per-opcode cost model** ([`cost`]) used by K2's latency cost
//!   function.
//!
//! The interpreter mirrors the semantics functions in `bpf_isa::opcode`
//! exactly; the equivalence checker (`bpf-equiv`) builds its formulas from
//! the same functions' structure, keeping executable and formal semantics in
//! lock step (the paper's §7 design).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod backend;
pub mod cost;
pub mod error;
pub mod exec;
pub mod input;
pub mod layout;
pub mod machine;
pub mod maps;

pub use backend::{BackendKind, ExecBackend, InterpBackend};
pub use cost::{static_latency, CostModel};
pub use error::Trap;
pub use exec::{call_helper, run, run_with_limit, ExecResult, DEFAULT_STEP_LIMIT};
pub use input::{InputGenerator, MapContents, MapState, ProgramInput, ProgramOutput};
pub use layout::{MemKind, CTX_BASE, MAP_HANDLE_BASE, PACKET_BASE, PACKET_HEADROOM, STACK_BASE};
pub use machine::{MachineState, MemoryView};
pub use maps::MapStore;
