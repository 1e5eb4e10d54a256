//! # bpf-equiv
//!
//! Formal equivalence checking of BPF programs — the inner loop of the K2
//! compiler (paper §4 and §5).
//!
//! Given two programs attached to the same hook, the checker builds a
//! first-order formula in the theory of bit vectors stating "some input makes
//! the observable outputs differ" and discharges it to the [`bitsmt`] solver.
//! UNSAT means the programs are equivalent; SAT yields a counterexample input
//! that is fed back into K2's test suite.
//!
//! Observable outputs follow the interpreter's definition
//! ([`bpf_interp::ProgramOutput`]): the `r0` exit value, the final packet
//! bytes, and the final map contents.
//!
//! ## Encoding
//!
//! * Each program is symbolically executed block-by-block in topological
//!   order ([`encode`]). Registers are 64-bit terms; at join points they are
//!   merged with if-then-else over the incoming edge conditions; every block
//!   carries a path condition.
//! * Memory is encoded with read/write tables (paper §4.2): every access is
//!   expanded into byte accesses, loads are resolved against earlier stores
//!   via an ITE chain guarded by path conditions, and falls back to shared
//!   "initial memory" variables with pairwise aliasing constraints so both
//!   programs see the same input memory.
//! * BPF maps get the two-level treatment of §4.3 / Appendix B: lookups and
//!   updates are resolved by *key* (not by pointer value), deletions write a
//!   null pointer, and the initial map state is shared between the programs.
//! * Helper functions without full semantics are handled as uninterpreted
//!   calls: both programs must perform the same calls with the same
//!   arguments in the same order, and corresponding calls return the same
//!   (unconstrained) values.
//!
//! ## Optimizations (paper §5)
//!
//! [`EquivOptions`] exposes the paper's optimizations I–V individually so the
//! Table 4 / Table 6 ablations can be reproduced:
//!
//! 1. memory type concretization — separate tables per memory region,
//! 2. map concretization — separate tables per map,
//! 3. memory offset concretization — compile-time resolution of address
//!    comparisons when the pointer offsets are statically known,
//! 4. modular (window) verification — [`window::check_window`],
//! 5. caching — [`cache::EquivCache`] keyed by canonicalized programs.
//!
//! On top of these, the checker runs a pre-SMT refutation stage
//! ([`refute::Refuter`]): cache-miss candidates are first blasted with a
//! deterministic batch of concrete inputs on the fast execution backend, and
//! only the survivors escalate to the solver. See [`check::EquivChecker`]
//! for the full verdict pipeline (cache → window → refute → SMT).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod check;
pub mod counterexample;
pub mod encode;
pub mod refute;
pub mod window;

pub use bitsmt::SolveMemo;
pub use cache::{CacheStats, CachedVerdict, EquivCache};
pub use check::{check_equivalence, EquivChecker, EquivOptions, EquivOutcome, EquivStats};
pub use encode::{EncodeError, Encoder, ProgramEncoding};
pub use refute::Refuter;
pub use window::{check_window, check_window_with, Window, WindowContext};
