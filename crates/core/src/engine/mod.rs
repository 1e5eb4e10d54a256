//! The shared-state, epoch-based search engine.
//!
//! K2's throughput comes from running many Metropolis–Hastings chains with
//! different parameter settings (paper §3.3) and from aggressively reusing
//! equivalence-checking work: verdict caching with >90% hit rates (§5,
//! Table 6) and counterexample-driven test-suite growth. This module turns
//! the formerly independent chains into one cooperating search:
//!
//! * [`context::SearchContext`] holds the state chains share — the
//!   cross-chain [`bpf_equiv::EquivCache`], the [`bpf_equiv::SolveMemo`] of
//!   solved formulas, the merged counterexample pool, and the global best
//!   program;
//! * [`orchestrator::run_search`] runs the chains in epochs with
//!   deterministic exchange barriers between them (publish cache deltas,
//!   merge and redistribute counterexamples, track the global best, restart
//!   stragglers, convergence and wall-clock budgets);
//! * [`batch::run_batch`] compiles many programs concurrently over a
//!   bounded worker pool.
//!
//! Determinism: all cross-chain state flows through the barriers, in
//! chain-index order over data that is sorted and deduplicated first, and
//! the shared cache is frozen (read-only) while chains are running. A
//! sequential run, a parallel run, and a re-run with the same seed are
//! therefore bit-identical — the property `tests/engine.rs` locks in. The
//! memo of solved formulas is shared live rather than at barriers; it decides
//! which chain pays for a solve, never what the solve returns. The
//! only intentional exception is the wall-clock budget
//! ([`crate::EngineConfig::time_budget_ms`]), which trades determinism for
//! punctuality.

pub mod batch;
pub mod context;
pub mod events;
pub mod orchestrator;

pub use batch::{run_batch, BatchJob, JobPanic};
pub use context::SearchContext;
pub use events::{EventSink, EventSinkRef, SearchEvent, StopReason};
pub use orchestrator::{run_search, ChainOutcome, EngineOutcome, EngineReport};
