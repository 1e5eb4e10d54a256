//! # bpf-analysis
//!
//! Static analyses over BPF programs, shared by the equivalence checker
//! (`bpf-equiv`), the safety checker (`bpf-safety`), the rule-based baseline
//! optimizer (`k2-baseline`) and the K2 search itself (`k2-core`):
//!
//! * [`mod@cfg`] — control-flow graph over basic blocks, reachability,
//!   topological order, back-edge (loop) detection, and dominators,
//! * [`liveness`] — per-instruction live register sets and live stack slots,
//!   used for dead-code elimination and for K2's window-based verification
//!   pre/postconditions,
//! * [`types`] — a forward abstract interpretation tracking, for every
//!   program point, whether each register holds a scalar, a known constant,
//!   or a pointer into a specific memory region at a statically known offset.
//!   It supplies the window checker's entry constants, type-sharpened
//!   liveness and the baseline's constant folding,
//! * [`dce`] — nop stripping, unreachable-code removal, dead-code
//!   elimination and program canonicalization (used by the equivalence-cache
//!   and to clean up synthesized outputs).
//!
//! The safety verdict itself is not computed here: `bpf-safety`'s path
//! walker is the one safety analysis, and it uses only [`mod@cfg`] from this
//! crate.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cfg;
pub mod dce;
pub mod liveness;
pub mod types;

pub use cfg::{BasicBlock, Cfg, CfgError};
pub use dce::{canonicalize, dead_code_elim, strip_nops};
pub use liveness::{LiveMap, Liveness, RegSet};
pub use types::{AbsVal, MemRegion, TypeState, Types};
