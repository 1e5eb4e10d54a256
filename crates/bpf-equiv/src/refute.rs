//! Pre-SMT refutation by concrete execution.
//!
//! MCMC rejects the overwhelming majority of proposals, so most SMT queries
//! exist only to *discover a counterexample* — an input the fast execution
//! backends can find a thousand times cheaper than a bit-blasted solve. The
//! [`Refuter`] holds a deterministic batch of random inputs together with
//! the source program's outputs on them (computed once, on the configured
//! execution backend); a candidate that disagrees on any of them is
//! refuted in microseconds without ever building a formula, and the
//! divergent input flows into the search's counterexample pool exactly like
//! an SMT model would.
//!
//! The refuter is deliberately conservative: it only refutes when **both**
//! programs execute successfully and their observable outputs differ.
//! Inputs on which the source itself traps are skipped (there is no output
//! to compare), and a *candidate* trap is left for the solver to judge —
//! the SMT encoding's view of aborting executions may legitimately differ
//! from the interpreter's, and refutation must never flip a verdict the
//! solver would have reached (the root `tests/refutation.rs` differential
//! enforces this across the benchmark suite).
//!
//! Note the pooled counterexamples need no replay here: the search's cost
//! function already gates every candidate through the shared test suite
//! (which absorbs pool entries) before the equivalence checker runs, so the
//! refuter's batch adds only fresh random inputs to that screen.

use bpf_interp::{BackendKind, InputGenerator, ProgramInput, ProgramOutput};
use bpf_isa::Program;

/// A pre-SMT refutation stage bound to one source program.
pub struct Refuter {
    backend: BackendKind,
    /// The deterministic input batch, paired with the source's output on
    /// each input (`None` where the source trapped).
    batch: Vec<(ProgramInput, Option<ProgramOutput>)>,
}

impl std::fmt::Debug for Refuter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Refuter")
            .field("backend", &self.backend)
            .field("inputs", &self.batch.len())
            .finish()
    }
}

impl Refuter {
    /// Build a refuter for `src`: generate `count` inputs from `seed`
    /// (deterministically — the caller draws the seed from the chain's RNG
    /// stream so same-seed runs stay bit-identical) and record the source's
    /// outputs on them using the `backend` execution policy.
    pub fn new(src: &Program, backend: BackendKind, count: usize, seed: u64) -> Refuter {
        // Cycle through a spread of packet lengths: the search's test suite
        // uses a fixed length, so length-dependent behaviour (e.g. programs
        // branching on `data_end - data`) is exactly the blind spot a
        // refutation batch can cover cheaply.
        const PACKET_LENS: [usize; 8] = [64, 1, 14, 34, 60, 128, 256, 18];
        let mut generator = InputGenerator::new(seed);
        let inputs: Vec<ProgramInput> = (0..count)
            .map(|i| {
                generator.packet_len = PACKET_LENS[i % PACKET_LENS.len()];
                generator.generate(src)
            })
            .collect();
        let src_exec = bpf_jit::backend_for(src, backend);
        let batch = inputs
            .into_iter()
            .map(|input| {
                let expected = src_exec.run(&input).ok().map(|r| r.output);
                (input, expected)
            })
            .collect();
        Refuter { backend, batch }
    }

    /// Try to refute `cand` by concrete execution: returns the first input
    /// on which both programs run successfully but produce different
    /// observable outputs, or `None` when the batch is inconclusive and the
    /// candidate must go to the solver.
    pub fn refute(&self, cand: &Program) -> Option<ProgramInput> {
        let cand_exec = bpf_jit::backend_for(cand, self.backend);
        for (input, expected) in &self.batch {
            let Some(expected) = expected else { continue };
            if let Ok(result) = cand_exec.run(input) {
                if result.output != *expected {
                    return Some(input.clone());
                }
            }
        }
        None
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
    fn refutes_an_input_dependent_divergence() {
        let src = xdp("ldxdw r2, [r1+0]\nldxdw r3, [r1+8]\nmov64 r0, r3\nsub64 r0, r2\nexit");
        let cand = xdp("mov64 r0, 64\nexit");
        let refuter = Refuter::new(&src, BackendKind::Auto, 32, 0xfeed);
        let input = refuter.refute(&cand).expect("differ on random inputs");
        // The witness really distinguishes the programs.
        let a = bpf_interp::run(&src, &input).expect("src runs");
        let b = bpf_interp::run(&cand, &input).expect("cand runs");
        assert_ne!(a.output, b.output);
    }

    #[test]
    fn does_not_refute_an_equivalent_rewrite() {
        let src = xdp("mov64 r0, 5\nadd64 r0, 7\nexit");
        let cand = xdp("mov64 r0, 12\nexit");
        let refuter = Refuter::new(&src, BackendKind::Auto, 64, 1);
        assert!(refuter.refute(&cand).is_none());
    }

    #[test]
    fn batches_are_seed_deterministic() {
        let src = xdp("ldxdw r0, [r1+0]\nexit");
        let a = Refuter::new(&src, BackendKind::Interp, 16, 42);
        let b = Refuter::new(&src, BackendKind::Interp, 16, 42);
        assert_eq!(a.batch.len(), b.batch.len());
        for ((ia, oa), (ib, ob)) in a.batch.iter().zip(&b.batch) {
            assert_eq!(ia, ib);
            assert_eq!(oa, ob);
        }
        let c = Refuter::new(&src, BackendKind::Interp, 16, 43);
        assert!(a
            .batch
            .iter()
            .zip(&c.batch)
            .any(|((ia, _), (ic, _))| ia != ic));
    }

    #[test]
    fn trapping_candidates_are_left_to_the_solver() {
        // The candidate always traps (out-of-bounds stack read). The refuter
        // must not treat a trap as a divergence — SMT semantics for aborting
        // executions may differ from the interpreter's, and refutation must
        // never flip a verdict the solver would have reached.
        let src = xdp("mov64 r0, 0\nexit");
        let cand = xdp("ldxdw r0, [r10+8]\nmov64 r0, 0\nexit");
        assert!(
            bpf_interp::run(&cand, &ProgramInput::default()).is_err(),
            "candidate should trap"
        );
        let refuter = Refuter::new(&src, BackendKind::Interp, 32, 7);
        assert!(refuter.refute(&cand).is_none());
    }
}
