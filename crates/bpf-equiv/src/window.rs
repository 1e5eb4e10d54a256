//! Modular (window-based) verification — the paper's optimization IV (§5,
//! Appendix C.2).
//!
//! Instead of checking two whole programs, K2 checks that a *window* (a
//! straight-line run of instructions inside one basic block) of the candidate
//! is equivalent to the corresponding window of the source program, under
//! stronger preconditions (registers known to hold specific constants before
//! the window, inferred by static analysis of the full program) and a weaker
//! postcondition (only registers *live out* of the window, plus memory
//! effects, must agree).

use crate::check::EquivOutcome;
use crate::encode::{EncodeOptions, Encoder, STACK_TOP};
use bitsmt::{CheckResult, Solver, TermId, TermPool};
use bpf_analysis::{AbsVal, Cfg, LiveMap, Liveness, MemRegion, Types};
use bpf_isa::{Insn, Program, Reg, NUM_REGS};
use std::time::Instant;

/// A window: the half-open instruction index range `[start, end)` of the
/// source program being rewritten.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Window {
    /// Index of the first instruction in the window.
    pub start: usize,
    /// One past the last instruction in the window.
    pub end: usize,
}

impl Window {
    /// Number of instructions in the window.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// Whether the window is empty.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }
}

/// Precomputed static analysis of one source program, reusable across many
/// [`check_window_with`] calls against the same source.
///
/// Window verification derives its precondition (register constants entering
/// the window) from [`Types`] and its postcondition (registers and stack
/// bytes live out of the window) from [`Liveness`] — both are whole-program
/// analyses that do not depend on the window, so a checker bound to one
/// source program computes them once instead of per proposal.
#[derive(Debug, Clone)]
pub struct WindowContext {
    types: Types,
    live: LiveMap,
}

impl WindowContext {
    /// Analyze a source program. Returns `None` when no CFG can be built
    /// (malformed control flow), in which case window verification does not
    /// apply and callers should use the full check.
    pub fn new(src: &Program) -> Option<WindowContext> {
        let cfg = Cfg::build(&src.insns).ok()?;
        let types = Types::analyze(&src.insns, &cfg, src.prog_type);
        // Type-sharpened liveness: loads through pointers provably outside
        // the stack do not make the frame live, while helper calls and
        // unknown pointer loads conservatively keep every byte live.
        let live = Liveness::new().analyze_with_types(&src.insns, &cfg, &types, &src.maps);
        Some(WindowContext { types, live })
    }
}

/// Check whether replacing `window` of `src` with `replacement` preserves
/// behaviour, using window-local reasoning.
///
/// Returns `Equivalent` only when the replacement is provably safe to splice
/// in: it may be (and often is) more conservative than a full-program check.
/// The windows must be straight-line code (no jumps, calls are allowed). An
/// empty window with an empty replacement is a no-op rewrite and
/// short-circuits to `Equivalent` without touching the solver.
///
/// This convenience wrapper analyzes `src` on every call; the search hot
/// path builds a [`WindowContext`] once and uses [`check_window_with`].
pub fn check_window(
    src: &Program,
    window: Window,
    replacement: &[Insn],
    options: &EncodeOptions,
) -> (EquivOutcome, u64) {
    let start_time = Instant::now();
    match WindowContext::new(src) {
        Some(ctx) => {
            let (outcome, _) = check_window_with(&ctx, src, window, replacement, options);
            (outcome, start_time.elapsed().as_micros() as u64)
        }
        None => (
            EquivOutcome::Unknown("source has no CFG".into()),
            start_time.elapsed().as_micros() as u64,
        ),
    }
}

/// [`check_window`] with a precomputed [`WindowContext`] for the source
/// program (which must be the program the context was built from).
///
/// Returns the outcome and the wall-clock microseconds spent.
pub fn check_window_with(
    ctx: &WindowContext,
    src: &Program,
    window: Window,
    replacement: &[Insn],
    options: &EncodeOptions,
) -> (EquivOutcome, u64) {
    let start_time = Instant::now();
    let elapsed = |t: Instant| t.elapsed().as_micros() as u64;

    if window.end > src.insns.len() {
        return (
            EquivOutcome::Unknown("out-of-range window".into()),
            elapsed(start_time),
        );
    }
    if window.is_empty() {
        // A no-op rewrite region: splicing nothing for nothing cannot change
        // behaviour, so there is nothing to ask the solver.
        return if replacement.is_empty() {
            (EquivOutcome::Equivalent, elapsed(start_time))
        } else {
            (
                EquivOutcome::Unknown("empty window with a non-empty replacement".into()),
                elapsed(start_time),
            )
        };
    }
    let src_window = &src.insns[window.start..window.end];
    if src_window.iter().any(Insn::is_branch) || replacement.iter().any(Insn::is_branch) {
        return (
            EquivOutcome::Unknown("windows must be straight-line code".into()),
            elapsed(start_time),
        );
    }

    // Static analysis of the full source program: concrete register values
    // entering the window (stronger precondition) and registers live out of
    // the window (weaker postcondition).
    let types = &ctx.types;
    let live = &ctx.live;
    let live_out: Vec<Reg> = if window.end < src.insns.len() {
        live.live_in[window.end].iter().collect()
    } else {
        vec![Reg::R0]
    };
    // Stack bytes the code after the window may still read.
    let live_stack_out: Vec<i16> = live.stack_live_out[window.end - 1].clone();

    let mut pool = TermPool::new();
    let mut encoder = Encoder::new(&mut pool, *options);

    // Shared register state entering both windows. Registers with statically
    // known constants become those constants (precondition); the frame
    // pointer becomes its concrete value so stack offsets concretize; other
    // registers are free shared variables.
    let mut start_regs: [TermId; NUM_REGS] = [encoder.packet_len; NUM_REGS];
    let mut prov_hints: [Option<i64>; NUM_REGS] = [None; NUM_REGS];
    for r in Reg::ALL {
        let abs = if types.reachable[window.start] {
            types.reg_before(window.start, r)
        } else {
            AbsVal::Unknown
        };
        let term = match (r, abs) {
            (Reg::R10, _) => {
                prov_hints[r.index()] = Some(0);
                encoder.pool().constant(STACK_TOP, 64)
            }
            (_, AbsVal::Const(c)) => encoder.pool().constant(c, 64),
            (
                _,
                AbsVal::Ptr {
                    region: MemRegion::Stack,
                    offset: Some(o),
                },
            ) => {
                prov_hints[r.index()] = Some(o);
                encoder
                    .pool()
                    .constant(STACK_TOP.wrapping_add(o as u64), 64)
            }
            _ => encoder.pool().var(format!("win_in_r{}", r.index()), 64),
        };
        start_regs[r.index()] = term;
    }

    let enc_src = match encoder.encode_window(src_window, &src.maps, start_regs, prov_hints, 0) {
        Ok(e) => e,
        Err(e) => return (EquivOutcome::Unknown(e.to_string()), elapsed(start_time)),
    };
    let enc_cand = match encoder.encode_window(replacement, &src.maps, start_regs, prov_hints, 1) {
        Ok(e) => e,
        Err(e) => return (EquivOutcome::Unknown(e.to_string()), elapsed(start_time)),
    };

    let call_compat = match encoder.call_logs_compatible(&enc_src, &enc_cand) {
        Some(c) => c,
        None => return (EquivOutcome::NotEquivalent(None), elapsed(start_time)),
    };
    let out_diff =
        encoder.window_output_difference(&enc_src, &enc_cand, &live_out, &live_stack_out);
    let calls_differ = {
        let p = encoder.pool();
        p.not(call_compat)
    };
    let differ = {
        let p = encoder.pool();
        p.or(out_diff, calls_differ)
    };
    let constraints = encoder.constraints.clone();

    let mut solver = Solver::new(encoder.pool());
    for c in &constraints {
        solver.assert(*c);
    }
    solver.assert(differ);
    let outcome = match solver.check() {
        CheckResult::Unsat => EquivOutcome::Equivalent,
        CheckResult::Sat(_) => EquivOutcome::NotEquivalent(None),
    };
    (outcome, elapsed(start_time))
}

#[cfg(test)]
mod tests {
    use super::*;
    use bpf_isa::{asm, ProgramType};

    fn xdp(text: &str) -> Program {
        Program::new(ProgramType::Xdp, asm::assemble(text).unwrap())
    }

    fn opts() -> EncodeOptions {
        EncodeOptions::default()
    }

    #[test]
    fn window_accepts_strength_reduction_with_known_operand() {
        // r3 is known to be 4 entering the window, so r1 *= r3 can become
        // r1 <<= 2 — the context-dependent rewrite from the paper's §5.IV.
        let src = xdp("mov64 r3, 4\nmov64 r1, 10\nmul64 r1, r3\nmov64 r0, r1\nexit");
        let window = Window { start: 2, end: 3 };
        let replacement = asm::assemble("lsh64 r1, 2").unwrap();
        let (outcome, _) = check_window(&src, window, &replacement, &opts());
        assert!(outcome.is_equivalent(), "{outcome:?}");
    }

    #[test]
    fn window_rejects_rewrite_invalid_without_precondition() {
        // Without the known value of r3 the rewrite is wrong: here r3 == 3.
        let src = xdp("mov64 r3, 3\nmov64 r1, 10\nmul64 r1, r3\nmov64 r0, r1\nexit");
        let window = Window { start: 2, end: 3 };
        let replacement = asm::assemble("lsh64 r1, 2").unwrap();
        let (outcome, _) = check_window(&src, window, &replacement, &opts());
        assert!(!outcome.is_equivalent());
    }

    #[test]
    fn window_uses_liveness_for_postcondition() {
        // The window computes r2 and r3, but only r2 is read afterwards; a
        // replacement that skips the dead r3 computation is accepted.
        let src = xdp("mov64 r2, 1\nmov64 r3, 2\nadd64 r2, 5\nmov64 r0, r2\nexit");
        let window = Window { start: 0, end: 3 };
        let replacement = asm::assemble("mov64 r2, 6\nmov64 r3, 99").unwrap();
        // r3 differs (99 vs 2) but is dead after the window.
        let (outcome, _) = check_window(&src, window, &replacement, &opts());
        assert!(outcome.is_equivalent(), "{outcome:?}");
        // If r3 were live out, the same replacement must be rejected.
        let src_live = xdp("mov64 r2, 1\nmov64 r3, 2\nadd64 r2, 5\nmov64 r0, r3\nexit");
        let (outcome2, _) = check_window(&src_live, window, &replacement, &opts());
        assert!(!outcome2.is_equivalent());
    }

    #[test]
    fn window_memory_effects_are_compared() {
        let src = xdp("mov64 r1, 0\nstxw [r10-4], r1\nstxw [r10-8], r1\nldxdw r0, [r10-8]\nexit");
        let window = Window { start: 0, end: 3 };
        let good = asm::assemble("stdw [r10-8], 0\nmov64 r1, 0").unwrap();
        let (outcome, _) = check_window(&src, window, &good, &opts());
        assert!(outcome.is_equivalent(), "{outcome:?}");
        let bad = asm::assemble("stdw [r10-8], 1\nmov64 r1, 0").unwrap();
        let (outcome2, _) = check_window(&src, window, &bad, &opts());
        assert!(!outcome2.is_equivalent());
    }

    #[test]
    fn empty_window_is_a_noop_and_skips_the_solver() {
        // Regression: an empty rewrite region (no-op proposal) used to come
        // back `Unknown`, forcing a full-program solver query. Splicing
        // nothing for nothing is trivially behaviour-preserving.
        let src = xdp("mov64 r0, 5\nadd64 r0, 7\nexit");
        for start in 0..=src.insns.len() {
            let window = Window { start, end: start };
            let (outcome, _) = check_window(&src, window, &[], &opts());
            assert!(outcome.is_equivalent(), "start {start}: {outcome:?}");
        }
        // An empty window with a non-empty replacement is an insertion, not
        // a rewrite this checker reasons about: stay conservative.
        let insertion = asm::assemble("mov64 r1, 0").unwrap();
        let (outcome, _) = check_window(&src, Window { start: 1, end: 1 }, &insertion, &opts());
        assert!(matches!(outcome, EquivOutcome::Unknown(_)));
        // Out-of-range windows are still rejected, even empty ones.
        let far = src.insns.len() + 1;
        let (outcome, _) = check_window(
            &src,
            Window {
                start: far,
                end: far,
            },
            &[],
            &opts(),
        );
        assert!(matches!(outcome, EquivOutcome::Unknown(_)));
    }

    #[test]
    fn reused_context_matches_fresh_analysis() {
        let src = xdp("mov64 r3, 4\nmov64 r1, 10\nmul64 r1, r3\nmov64 r0, r1\nexit");
        let ctx = WindowContext::new(&src).expect("source has a CFG");
        let window = Window { start: 2, end: 3 };
        let good = asm::assemble("lsh64 r1, 2").unwrap();
        let bad = asm::assemble("lsh64 r1, 3").unwrap();
        let (fresh_good, _) = check_window(&src, window, &good, &opts());
        let (ctx_good, _) = check_window_with(&ctx, &src, window, &good, &opts());
        assert_eq!(fresh_good, ctx_good);
        assert!(ctx_good.is_equivalent());
        let (fresh_bad, _) = check_window(&src, window, &bad, &opts());
        let (ctx_bad, _) = check_window_with(&ctx, &src, window, &bad, &opts());
        assert_eq!(fresh_bad, ctx_bad);
        assert!(!ctx_bad.is_equivalent());
    }

    #[test]
    fn branching_window_is_rejected() {
        let src = xdp("mov64 r0, 0\njeq r0, 0, +0\nexit");
        let window = Window { start: 1, end: 2 };
        let replacement = asm::assemble("mov64 r1, 0").unwrap();
        let (outcome, _) = check_window(&src, window, &replacement, &opts());
        assert!(matches!(outcome, EquivOutcome::Unknown(_)));
    }

    #[test]
    fn smaller_windows_produce_smaller_formulas_than_full_programs() {
        // Sanity check that window checking completes quickly on a program
        // whose full encoding would involve many more constraints.
        let src = xdp(
            "mov64 r2, 1\nmov64 r3, 2\nmov64 r4, 3\nmov64 r5, 4\nadd64 r2, r3\nadd64 r2, r4\nadd64 r2, r5\nmov64 r0, r2\nexit",
        );
        let window = Window { start: 4, end: 7 };
        let replacement = asm::assemble("add64 r2, r3\nadd64 r2, r4\nadd64 r2, r5").unwrap();
        let (outcome, micros) = check_window(&src, window, &replacement, &opts());
        assert!(outcome.is_equivalent());
        assert!(micros > 0);
    }
}
