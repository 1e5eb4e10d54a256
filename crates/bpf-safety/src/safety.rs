//! The K2-side safety checker used inside the stochastic search (paper §6).

use crate::verifier::{verify, Verdict, VerifierConfig, VerifierError, VerifierStats};
use bpf_isa::Program;

/// Configuration of the K2 safety checker.
///
/// K2 evaluates a candidate at every search step, so its complexity budget is
/// lower than the kernel's: an exploding candidate should be given up on
/// quickly (it would be rejected by the kernel anyway).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SafetyConfig {
    /// Budget of instructions examined across all paths.
    pub complexity_limit: usize,
    /// Maximum program length (wire slots).
    pub max_insns: usize,
    /// Enforce size-aligned stack accesses.
    pub enforce_stack_alignment: bool,
    /// No effect: the path walk is the only safety analysis. Kept so
    /// existing callers keep compiling.
    pub state_budget: usize,
}

impl Default for SafetyConfig {
    fn default() -> Self {
        SafetyConfig {
            complexity_limit: 100_000,
            max_insns: 4096,
            enforce_stack_alignment: true,
            state_budget: 16_384,
        }
    }
}

/// The K2 safety checker: control-flow safety, memory safety, and the
/// kernel-checker-specific constraints, evaluated on every candidate program.
#[derive(Debug, Clone, Default)]
pub struct SafetyChecker {
    /// Configuration in effect.
    pub config: SafetyConfig,
    /// Accumulated statistics.
    pub stats: SafetyStats,
    /// Engine configuration, resolved once at construction and reused for
    /// every check (the checker itself is constructed once per chain).
    engine_config: VerifierConfig,
}

k2_telemetry::counters! {
    /// Accumulated statistics of a [`SafetyChecker`]. Each count is also
    /// the telemetry counter `safety.<field>` of a compilation.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct SafetyStats("safety") {
        /// Candidates checked.
        checked,
        /// Candidates found safe.
        safe,
        /// Candidates found unsafe.
        unsafe_found,
        /// Total instructions examined by the underlying verifier.
        insns_examined,
    }
    uncounted {
        /// Always 0: nothing screens ahead of the path walk any more. Kept so
        /// existing readers keep compiling.
        screens,
        /// Always 0, like [`SafetyStats::screens`].
        screen_rejects,
    }
}

impl SafetyChecker {
    /// Create a checker with the given configuration.
    pub fn new(config: SafetyConfig) -> SafetyChecker {
        SafetyChecker {
            config,
            stats: SafetyStats::default(),
            engine_config: VerifierConfig {
                max_insns: config.max_insns,
                complexity_limit: config.complexity_limit,
                enforce_stack_alignment: config.enforce_stack_alignment,
                forbid_ctx_store_imm: true,
                forbid_pointer_alu: true,
                forbid_unreachable: true,
            },
        }
    }

    /// Check one candidate. `Ok(())` means safe; `Err` carries the first
    /// violated property (which the search turns into the `ERR_MAX` safety
    /// cost of §3.2).
    pub fn check(&mut self, prog: &Program) -> Result<VerifierStats, VerifierError> {
        self.stats.checked += 1;
        let (verdict, stats) = verify(prog, &self.engine_config);
        self.stats.insns_examined += stats.insns_examined as u64;
        match verdict {
            Verdict::Accept => {
                self.stats.safe += 1;
                Ok(stats)
            }
            Verdict::Reject(e) => {
                self.stats.unsafe_found += 1;
                Err(e)
            }
        }
    }

    /// Convenience: just the boolean verdict.
    pub fn is_safe(&mut self, prog: &Program) -> bool {
        self.check(prog).is_ok()
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
    fn stats_accumulate() {
        let mut checker = SafetyChecker::new(SafetyConfig::default());
        let safe = xdp("mov64 r0, 0\nexit");
        let unsafe_p = xdp("ldxdw r0, [r10-8]\nexit");
        assert!(checker.is_safe(&safe));
        assert!(!checker.is_safe(&unsafe_p));
        assert_eq!(checker.stats.checked, 2);
        assert_eq!(checker.stats.safe, 1);
        assert_eq!(checker.stats.unsafe_found, 1);
        assert!(checker.stats.insns_examined > 0);
        assert_eq!(checker.stats.screens, 0);
        assert_eq!(checker.stats.screen_rejects, 0);
    }

    #[test]
    fn default_config_matches_paper_constraints() {
        let cfg = SafetyConfig::default();
        assert_eq!(cfg.max_insns, 4096);
        assert!(cfg.enforce_stack_alignment);
    }
}
