//! # k2-core
//!
//! The K2 compiler: stochastic synthesis of safe, efficient BPF bytecode
//! (paper §3), built on the substrates in this workspace:
//!
//! * proposal generation with the paper's six rewrite rules
//!   ([`proposals`]),
//! * the cost function combining correctness (test cases + formal
//!   equivalence), performance (instruction count or estimated latency) and
//!   safety ([`cost`]),
//! * Metropolis–Hastings acceptance and the Markov-chain search loop
//!   ([`search`]),
//! * the epoch-based multi-chain search engine with cross-chain verdict
//!   caching, counterexample exchange, and batch compilation ([`engine`]),
//! * the user-facing compiler driver that runs the engine and
//!   post-processes the winners through the kernel-checker model
//!   ([`compiler`]),
//! * the canonical parameter settings of the paper's Table 8 and the
//!   engine knobs ([`params`]).
//!
//! ```no_run
//! use bpf_isa::{asm, Program, ProgramType};
//! use k2_core::{compiler::optimize_with, CompilerOptions, OptimizationGoal};
//!
//! let prog = Program::new(
//!     ProgramType::Xdp,
//!     asm::assemble("mov64 r1, 0\nstxw [r10-4], r1\nstxw [r10-8], r1\nmov64 r0, 2\nexit").unwrap(),
//! );
//! let options = CompilerOptions {
//!     goal: OptimizationGoal::InstructionCount,
//!     iterations: 20_000,
//!     ..CompilerOptions::default()
//! };
//! let result = optimize_with(&options, &prog);
//! println!("{} -> {} instructions", prog.real_len(), result.best.real_len());
//! ```
//!
//! User-facing code should prefer the `k2::api` session layer, which adds
//! configuration layering (config file, `K2_*` environment, builder
//! overrides), streaming [`engine::SearchEvent`]s, and the versioned
//! request/response types.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod compiler;
pub mod cost;
pub mod engine;
pub mod params;
pub mod proposals;
pub mod search;

pub use bpf_interp::BackendKind;
pub use compiler::{optimize_with, CompilerOptions, K2Result, OptimizationGoal};
pub use cost::{
    CostFunction, CostSettings, CostStats, CostValue, DiffMetric, ErrorNormalization, TestCountMode,
};
pub use engine::{
    BatchJob, ChainOutcome, EngineOutcome, EngineReport, EventSink, EventSinkRef, JobPanic,
    SearchContext, SearchEvent, StopReason,
};
pub use k2_telemetry::{Recorder, Telemetry, TelemetryRef, TelemetrySnapshot};
pub use params::{EngineConfig, SearchParams};
pub use proposals::{ProposalGenerator, RewriteRegion, RewriteRule};
pub use search::{ChainStats, MarkovChain};
