//! # bpf-jit
//!
//! A native x86-64 JIT execution backend for the K2 hot path.
//!
//! K2's stochastic search spends nearly all of its time concretely executing
//! candidate programs against the test-case corpus — every
//! `MarkovChain::step` interprets the candidate once per test input. This
//! crate replaces that tree-walking interpretation with translated machine
//! code, the same interpreter-vs-JIT gap that motivates the kernel's own
//! eBPF JITs:
//!
//! * [`JitProgram::compile`] translates a [`Program`] into an `mmap`-ed
//!   **W^X** code page (emitted writable, flipped to read+execute before the
//!   first run; see [`page`]) using direct syscalls (see [`sys`]) — the
//!   build environment has no registry access, so there is no `libc` crate;
//! * ALU32/ALU64 (including the checked div/mod-by-zero convention),
//!   MOV/LD_IMM64, byte swaps, conditional and unconditional jumps, and
//!   EXIT run as straight native code;
//! * stack/packet/context/map loads and stores, atomic adds, `ld_map_fd`
//!   and helper calls dispatch through a function-pointer table into the
//!   *same* `MachineState` implementation the interpreter uses, so the
//!   `layout.rs` bounds checks, stack-initialization tracking and helper
//!   semantics exist exactly once;
//! * trap behavior (uninitialized registers, frame-pointer writes,
//!   out-of-bounds accesses, step limits, control-flow escapes) is
//!   bit-identical to the interpreter — the root `tests/differential_jit.rs`
//!   suite enforces `ExecResult`/`Trap` equality on thousands of random
//!   programs.
//!
//! The search grades each candidate on a corpus of only ~16 inputs, too few
//! to repay the per-program code-page syscalls, so [`backend_for`] gives the
//! interpreter for `BackendKind::Auto`; the JIT runs only when asked for
//! with `BackendKind::Jit`.
//!
//! On targets other than `x86_64-unknown-linux-*` the crate still compiles:
//! [`JitProgram::compile`] reports [`JitError::UnsupportedTarget`] and
//! [`backend_for`] transparently falls back to the interpreter, as it also
//! does per-program when translation fails.

#![warn(missing_docs)]
#![warn(unsafe_op_in_unsafe_fn)]

use bpf_interp::{BackendKind, ExecBackend, ExecResult, InterpBackend, ProgramInput, Trap};
use bpf_isa::Program;

/// Whether this build target supports native JIT execution.
pub const NATIVE: bool = cfg!(all(target_arch = "x86_64", target_os = "linux"));

/// Whether the JIT can execute programs in this process.
pub fn jit_available() -> bool {
    NATIVE
}

#[cfg(all(target_arch = "x86_64", target_os = "linux"))]
pub mod emit;
#[cfg(all(target_arch = "x86_64", target_os = "linux"))]
pub mod env;
#[cfg(all(target_arch = "x86_64", target_os = "linux"))]
pub mod page;
#[cfg(all(target_arch = "x86_64", target_os = "linux"))]
pub mod sys;
#[cfg(all(target_arch = "x86_64", target_os = "linux"))]
pub mod translate;
#[cfg(all(target_arch = "x86_64", target_os = "linux"))]
pub use translate::TranslateError;

/// Why a program could not be compiled to native code.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JitError {
    /// The build target has no JIT (everything except x86-64 Linux).
    UnsupportedTarget,
    /// Translation failed (program too large / unsupported instruction).
    Translate(String),
    /// No code was produced (empty program bodies still emit an epilogue,
    /// so this indicates an emitter bug).
    EmptyCode,
    /// `mmap` failed with the given errno.
    Mmap(i64),
    /// `mprotect` failed with the given errno.
    Mprotect(i64),
}

impl std::fmt::Display for JitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JitError::UnsupportedTarget => write!(f, "jit unavailable on this target"),
            JitError::Translate(e) => write!(f, "translation failed: {e}"),
            JitError::EmptyCode => write!(f, "no code emitted"),
            JitError::Mmap(e) => write!(f, "mmap failed (errno {e})"),
            JitError::Mprotect(e) => write!(f, "mprotect failed (errno {e})"),
        }
    }
}

impl std::error::Error for JitError {}

/// A program compiled to native code, ready to run on many inputs.
///
/// Compilation happens once; each [`ExecBackend::run`] call builds a fresh
/// `MachineState` (registers, stack, packet, maps) for one input and invokes
/// the code page, so the translation cost amortizes across a whole test
/// corpus.
#[derive(Debug)]
pub struct JitProgram {
    prog: Program,
    #[cfg(all(target_arch = "x86_64", target_os = "linux"))]
    page: page::ExecPage,
}

impl JitProgram {
    /// Translate and map a program. Fails (rather than panicking) whenever
    /// native execution is impossible; callers are expected to fall back to
    /// the interpreter.
    #[cfg(all(target_arch = "x86_64", target_os = "linux"))]
    pub fn compile(prog: &Program) -> Result<JitProgram, JitError> {
        let code = translate::translate(prog, &bpf_interp::CostModel::default())
            .map_err(|e| JitError::Translate(e.to_string()))?;
        let page = page::ExecPage::new(&code)?;
        Ok(JitProgram {
            prog: prog.clone(),
            page,
        })
    }

    /// Translate and map a program (unsupported target: always fails).
    #[cfg(not(all(target_arch = "x86_64", target_os = "linux")))]
    pub fn compile(prog: &Program) -> Result<JitProgram, JitError> {
        let _ = prog;
        Err(JitError::UnsupportedTarget)
    }

    /// The compiled program.
    pub fn program(&self) -> &Program {
        &self.prog
    }

    /// Size of the emitted code mapping in bytes (0 on fallback targets).
    pub fn code_len(&self) -> usize {
        #[cfg(all(target_arch = "x86_64", target_os = "linux"))]
        {
            self.page.len()
        }
        #[cfg(not(all(target_arch = "x86_64", target_os = "linux")))]
        {
            0
        }
    }
}

impl ExecBackend for JitProgram {
    fn name(&self) -> &'static str {
        "jit"
    }

    #[cfg(all(target_arch = "x86_64", target_os = "linux"))]
    fn run_with_limit(&self, input: &ProgramInput, limit: usize) -> Result<ExecResult, Trap> {
        let mut machine = bpf_interp::MachineState::new(&self.prog, input);
        let mut env = env::JitEnv::new(&mut machine, &self.prog, limit);
        // Safety: the page holds a complete function emitted by `translate`
        // for exactly this env layout; `env` and `machine` outlive the call,
        // and `machine` does not move while `env` holds pointers into its
        // inline stack.
        let status = unsafe {
            let entry: unsafe extern "C" fn(*mut env::JitEnv) -> u64 =
                core::mem::transmute(self.page.entry());
            entry(&mut env)
        };
        if status == 0 {
            let ret = env.regs[bpf_isa::Reg::R0.index()];
            Ok(ExecResult {
                output: machine.output(ret),
                steps: env.steps as usize,
                cost: env.cost,
            })
        } else {
            Err(env.take_trap())
        }
    }

    #[cfg(not(all(target_arch = "x86_64", target_os = "linux")))]
    fn run_with_limit(&self, input: &ProgramInput, limit: usize) -> Result<ExecResult, Trap> {
        // Unreachable in practice (compile() fails on these targets), but
        // keep the backend total: interpret.
        bpf_interp::run_with_limit(&self.prog, input, limit, &bpf_interp::CostModel::default())
    }
}

/// Build the execution backend for a program under the given selection
/// policy.
///
/// `Auto` and `Interp` give the interpreter: the search builds one executor
/// per candidate and runs it on a corpus of about 16 inputs, and at that
/// size the JIT's per-program `mmap`/`mprotect`/`munmap` costs more than its
/// faster runs save (the `per_candidate` section of `BENCH_jit.json`).
/// `Jit` opts into native code, falling back to the interpreter whenever the
/// JIT is unavailable or translation fails.
///
/// The kind is taken exactly as given. The `K2_BACKEND` environment override
/// is resolved once by the `k2::api` configuration layering, not here — hot
/// paths construct one executor per candidate and must not re-read the
/// environment per evaluation.
pub fn backend_for(prog: &Program, kind: BackendKind) -> Box<dyn ExecBackend> {
    match kind {
        BackendKind::Interp | BackendKind::Auto => Box::new(InterpBackend::new(prog.clone())),
        BackendKind::Jit => match JitProgram::compile(prog) {
            Ok(jit) => Box::new(jit),
            Err(_) => Box::new(InterpBackend::new(prog.clone())),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bpf_isa::{asm, ProgramType};

    fn xdp(text: &str) -> Program {
        Program::new(ProgramType::Xdp, asm::assemble(text).unwrap())
    }

    #[test]
    fn backend_for_respects_interp_kind() {
        // The configured kind is authoritative: environment variables are
        // resolved by the api layer, never consulted down here.
        let prog = xdp("mov64 r0, 1\nexit");
        let backend = backend_for(&prog, BackendKind::Interp);
        assert_eq!(backend.name(), "interp");
    }

    #[test]
    fn backend_for_auto_uses_interp_and_jit_is_opt_in() {
        let prog = xdp("mov64 r0, 1\nexit");
        let auto = backend_for(&prog, BackendKind::Auto);
        assert_eq!(auto.name(), "interp");
        let jit = backend_for(&prog, BackendKind::Jit);
        if jit_available() {
            assert_eq!(jit.name(), "jit");
        } else {
            assert_eq!(jit.name(), "interp");
        }
        for backend in [auto, jit] {
            assert_eq!(backend.run(&ProgramInput::default()).unwrap().output.ret, 1);
        }
    }
}
