//! A model of the Linux in-kernel BPF checker, used for K2's post-processing
//! pass: every program K2 wants to emit is "loaded" into this verifier and
//! dropped if rejected (paper §6, Table 5).

use crate::verifier::{verify, Verdict, VerifierConfig, VerifierStats};
use bpf_isa::Program;

/// Configuration mirroring the kernel limits the paper discusses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinuxVerifierConfig {
    /// Instruction limit for unprivileged program types (4096) — privileged
    /// programs on modern kernels only face the complexity limit.
    pub max_insns: usize,
    /// The 1-million-instruction complexity limit of kernels ≥ 5.2.
    pub complexity_limit: usize,
}

impl Default for LinuxVerifierConfig {
    fn default() -> Self {
        LinuxVerifierConfig {
            max_insns: 4096,
            complexity_limit: 1_000_000,
        }
    }
}

/// The kernel-checker model.
#[derive(Debug, Clone, Default)]
pub struct LinuxVerifier {
    /// Configuration in effect.
    pub config: LinuxVerifierConfig,
}

impl LinuxVerifier {
    /// Create a verifier with the given configuration.
    pub fn new(config: LinuxVerifierConfig) -> LinuxVerifier {
        LinuxVerifier { config }
    }

    /// Attempt to "load" a program: returns the verdict and the verifier
    /// statistics (instructions examined, paths explored).
    pub fn load(&self, prog: &Program) -> (Verdict, VerifierStats) {
        let config = VerifierConfig {
            max_insns: self.config.max_insns,
            complexity_limit: self.config.complexity_limit,
            enforce_stack_alignment: true,
            forbid_ctx_store_imm: true,
            forbid_pointer_alu: true,
            forbid_unreachable: true,
        };
        verify(prog, &config)
    }

    /// Whether the kernel checker would accept the program.
    pub fn accepts(&self, prog: &Program) -> bool {
        self.load(prog).0.is_accept()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bpf_isa::{asm, MapDef, ProgramType};

    #[test]
    fn accepts_well_formed_xdp_program() {
        let prog = Program::with_maps(
            ProgramType::Xdp,
            asm::assemble(
                r"
                mov64 r1, 0
                stxw [r10-4], r1
                ld_map_fd r1, 0
                mov64 r2, r10
                add64 r2, -4
                call map_lookup_elem
                jeq r0, 0, +2
                mov64 r1, 1
                xadddw [r0+0], r1
                mov64 r0, 2
                exit
            ",
            )
            .unwrap(),
            vec![MapDef::array(0, 8, 4)],
        );
        let v = LinuxVerifier::default();
        assert!(v.accepts(&prog));
    }

    #[test]
    fn rejects_unsafe_program() {
        let prog = Program::new(
            ProgramType::Xdp,
            asm::assemble("ldxdw r2, [r1+0]\nldxdw r0, [r2+0]\nexit").unwrap(),
        );
        assert!(!LinuxVerifier::default().accepts(&prog));
    }

    #[test]
    fn reports_examined_instruction_counts() {
        let prog = Program::new(
            ProgramType::Xdp,
            asm::assemble("mov64 r0, 1\njeq r0, 1, +1\nmov64 r0, 2\nexit").unwrap(),
        );
        let (verdict, stats) = LinuxVerifier::default().load(&prog);
        assert!(verdict.is_accept());
        assert!(stats.insns_examined >= 4);
        assert_eq!(stats.paths, 2);
    }
}
