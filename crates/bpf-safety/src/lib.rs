//! # bpf-safety
//!
//! Safety checking for BPF programs (paper §6) and a model of the Linux
//! kernel checker used for K2's post-processing pass.
//!
//! Two entry points share one engine:
//!
//! * [`SafetyChecker`] — the checks K2 applies to every candidate inside the
//!   stochastic search: control-flow safety (no loops, no out-of-bounds
//!   jumps, no unreachable blocks), memory accesses within bounds for every
//!   memory region, stack read-before-write, access alignment, and the
//!   kernel-checker-specific restrictions the paper lists (no ALU on
//!   pointers, no immediate stores through context pointers, `r1`–`r5`
//!   unreadable after a helper call, `r10` read-only).
//! * [`LinuxVerifier`] — the same engine configured like the in-kernel
//!   checker: a path-by-path symbolic walk with a complexity budget
//!   (instructions examined) and a program-size limit, used to reproduce the
//!   paper's Table 5 ("all K2 outputs pass the kernel checker").
//!
//! The engine ([`verifier`]) is a path-sensitive walk and the crate's one
//! safety analysis: it walks every program path (programs are loop-free and
//! small), tracking for each register whether it holds a scalar, a known
//! constant, a map handle, or a pointer with a known region and offset, plus
//! which stack bytes have been initialized, and which packet length has been
//! proven by bounds checks. Nothing screens ahead of it; both entry points
//! call [`verifier::verify`] directly.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod linux;
pub mod safety;
pub mod verifier;

pub use linux::{LinuxVerifier, LinuxVerifierConfig};
pub use safety::{SafetyChecker, SafetyConfig, SafetyStats};
pub use verifier::{Verdict, VerifierError, VerifierStats};
