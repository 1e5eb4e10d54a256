//! Pluggable execution backends.
//!
//! K2's search loop executes every candidate program once per test input, so
//! "how a program is executed" is a hot-path policy decision. This module
//! defines the [`ExecBackend`] trait that abstracts it: the reference
//! interpreter implements it here ([`InterpBackend`]), and the `bpf-jit`
//! crate implements it with translated native x86-64 code. Both backends are
//! observationally identical — same [`ExecResult`] (including step and cost
//! accounting) and same [`Trap`] values on aborting executions — which the
//! root differential suite (`tests/differential_jit.rs`) enforces on random
//! programs.
//!
//! Backend selection is a [`BackendKind`]: `Interp`, `Jit`, or `Auto` (the
//! backend measured fastest for search grading, currently the interpreter).
//! The `K2_BACKEND` environment variable still lets any harness
//! switch backends without a rebuild, but it is read in exactly one place —
//! the `k2::api` configuration layering — and arrives here already resolved
//! into the configured kind.

use crate::cost::CostModel;
use crate::error::Trap;
use crate::exec::{run_with_limit, ExecResult, DEFAULT_STEP_LIMIT};
use crate::input::ProgramInput;
use bpf_isa::Program;
use serde::{Deserialize, Serialize};

/// An execution engine bound to one program.
///
/// A backend is constructed once per candidate program and then run once per
/// test input, which lets expensive per-program work (e.g. JIT translation)
/// amortize across the whole test corpus.
pub trait ExecBackend: Send + Sync {
    /// Short name for diagnostics ("interp" or "jit").
    fn name(&self) -> &'static str;

    /// Execute the program on one input with an explicit step limit.
    fn run_with_limit(&self, input: &ProgramInput, limit: usize) -> Result<ExecResult, Trap>;

    /// Execute the program on one input with the default step limit.
    fn run(&self, input: &ProgramInput) -> Result<ExecResult, Trap> {
        self.run_with_limit(input, DEFAULT_STEP_LIMIT)
    }
}

/// The reference interpreter as an [`ExecBackend`].
#[derive(Debug, Clone)]
pub struct InterpBackend {
    prog: Program,
    cost_model: CostModel,
}

impl InterpBackend {
    /// Wrap a program for interpreted execution under the default cost model.
    pub fn new(prog: Program) -> InterpBackend {
        InterpBackend {
            prog,
            cost_model: CostModel::default(),
        }
    }

    /// The wrapped program.
    pub fn program(&self) -> &Program {
        &self.prog
    }
}

impl ExecBackend for InterpBackend {
    fn name(&self) -> &'static str {
        "interp"
    }

    fn run_with_limit(&self, input: &ProgramInput, limit: usize) -> Result<ExecResult, Trap> {
        run_with_limit(&self.prog, input, limit, &self.cost_model)
    }
}

/// Which execution backend to use for candidate evaluation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum BackendKind {
    /// Always the tree-walking interpreter.
    Interp,
    /// The native JIT; falls back to the interpreter per-program when a
    /// program cannot be translated (and entirely on unsupported targets).
    Jit,
    /// The backend measured fastest for search grading: the interpreter.
    /// Each candidate runs on only ~16 inputs, too few to repay the JIT's
    /// per-program code-page syscalls.
    #[default]
    Auto,
}

impl BackendKind {
    /// Parse a backend name as accepted by the `K2_BACKEND` environment
    /// variable: `interp`, `jit`, or `auto` (case-insensitive).
    pub fn parse(s: &str) -> Option<BackendKind> {
        match s.to_ascii_lowercase().as_str() {
            "interp" | "interpreter" => Some(BackendKind::Interp),
            "jit" => Some(BackendKind::Jit),
            "auto" => Some(BackendKind::Auto),
            _ => None,
        }
    }

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            BackendKind::Interp => "interp",
            BackendKind::Jit => "jit",
            BackendKind::Auto => "auto",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bpf_isa::{asm, ProgramType};

    #[test]
    fn interp_backend_matches_free_function() {
        let prog = Program::new(
            ProgramType::Xdp,
            asm::assemble("mov64 r0, 5\nadd64 r0, 7\nexit").unwrap(),
        );
        let input = ProgramInput::default();
        let direct = crate::exec::run(&prog, &input);
        let backend = InterpBackend::new(prog);
        assert_eq!(backend.run(&input), direct);
        assert_eq!(backend.name(), "interp");
    }

    #[test]
    fn backend_kind_parses_names() {
        assert_eq!(BackendKind::parse("interp"), Some(BackendKind::Interp));
        assert_eq!(BackendKind::parse("JIT"), Some(BackendKind::Jit));
        assert_eq!(BackendKind::parse("Auto"), Some(BackendKind::Auto));
        assert_eq!(BackendKind::parse("turbo"), None);
        assert_eq!(BackendKind::default(), BackendKind::Auto);
    }

    #[test]
    fn step_limit_is_respected_through_the_trait() {
        let prog = Program::new(
            ProgramType::Xdp,
            asm::assemble("mov64 r0, 0\nadd64 r0, 1\nexit").unwrap(),
        );
        let backend = InterpBackend::new(prog);
        assert!(matches!(
            backend.run_with_limit(&ProgramInput::default(), 1),
            Err(Trap::StepLimitExceeded { limit: 1 })
        ));
        assert!(backend.run(&ProgramInput::default()).is_ok());
    }
}
