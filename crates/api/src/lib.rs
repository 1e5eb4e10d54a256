//! # k2-api
//!
//! The stable public surface of the K2 compiler-as-a-service pipeline
//! (re-exported as `k2::api`): the one supported way to configure and drive
//! an optimization.
//!
//! * [`K2Config`] — every knob in one struct, resolved through four explicit
//!   layers: `defaults → config file → K2_* environment → builder
//!   overrides`. The [`mod@env`] module is the **only** place in the workspace
//!   that reads `K2_*` variables, and it warns on malformed values instead
//!   of silently ignoring them.
//! * [`K2Session`] — built once via [`K2Session::builder`], then serves
//!   typed in-process calls ([`K2Session::optimize_program`],
//!   [`K2Session::verify_equivalence`]) and the versioned request/response
//!   protocol ([`K2Session::optimize`], [`K2Session::optimize_batch`]).
//! * [`OptimizeRequest`] / [`OptimizeResponse`] — the schema-`v: 1` JSONL
//!   protocol spoken by the `k2c` service binary; (de)serialized by the
//!   dependency-free [`json`] module (the build is offline — see `shims/`).
//! * [`sink`] — ready-made [`EventSink`] implementations consuming the
//!   engine's streaming [`SearchEvent`]s (collecting, counting, stderr
//!   progress).
//!
//! ## Quickstart
//!
//! ```
//! use k2_api::{K2Session, OptimizeRequest};
//!
//! let session = K2Session::builder()
//!     .iterations(300)
//!     .seed(42)
//!     .build()
//!     .expect("config layers resolve");
//! let request = OptimizeRequest::from_asm(
//!     "mov64 r1, 0\nstxw [r10-4], r1\nstxw [r10-8], r1\nmov64 r0, 2\nexit",
//! );
//! let response = session.optimize(&request);
//! assert!(response.ok);
//! assert!(response.insns_after <= response.insns_before);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod env;
pub mod json;
pub mod proto;
pub mod session;
pub mod sink;

pub use config::{goal_name, parse_goal, ConfigError, K2Config, MAX_ITERATIONS, MAX_NUM_TESTS};
pub use json::{Json, JsonError};
pub use proto::{
    ChainSummary, OptimizeRequest, OptimizeResponse, ProgramSource, ProtoError, RankedProgram,
    ReportSummary, PROTOCOL_VERSION,
};
pub use session::{K2Session, K2SessionBuilder};
pub use sink::{CollectingSink, CountingSink, SinkCounts, StderrProgress};

// The engine-level types a session hands back, re-exported so `k2::api` is
// self-sufficient for typical callers.
pub use bpf_equiv::EquivOutcome;
pub use bpf_interp::BackendKind;
pub use k2_core::{
    EngineConfig, EngineReport, EventSink, K2Result, OptimizationGoal, SearchEvent, SearchParams,
    StopReason,
};
