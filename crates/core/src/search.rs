//! The Metropolis–Hastings search loop (§3.3).

use crate::cost::{AcceptanceTest, CostFunction, CostValue};
use crate::proposals::{ProposalGenerator, RewriteRule};
use bpf_analysis::canonicalize;
use bpf_isa::{Insn, Program};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Static telemetry keys for one rewrite rule: `(eval timer, accepted
/// counter, rejected counter)`. A table of literals so the hot path never
/// formats a key.
fn rule_keys(rule: RewriteRule) -> (&'static str, &'static str, &'static str) {
    match rule {
        RewriteRule::ReplaceInstruction => (
            "core.rule.replace_instruction.eval",
            "core.rule.replace_instruction.accepted",
            "core.rule.replace_instruction.rejected",
        ),
        RewriteRule::ReplaceOperand => (
            "core.rule.replace_operand.eval",
            "core.rule.replace_operand.accepted",
            "core.rule.replace_operand.rejected",
        ),
        RewriteRule::ReplaceByNop => (
            "core.rule.replace_by_nop.eval",
            "core.rule.replace_by_nop.accepted",
            "core.rule.replace_by_nop.rejected",
        ),
        RewriteRule::MemExchangeType1 => (
            "core.rule.mem_exchange_type1.eval",
            "core.rule.mem_exchange_type1.accepted",
            "core.rule.mem_exchange_type1.rejected",
        ),
        RewriteRule::MemExchangeType2 => (
            "core.rule.mem_exchange_type2.eval",
            "core.rule.mem_exchange_type2.accepted",
            "core.rule.mem_exchange_type2.rejected",
        ),
        RewriteRule::ReplaceContiguous => (
            "core.rule.replace_contiguous.eval",
            "core.rule.replace_contiguous.accepted",
            "core.rule.replace_contiguous.rejected",
        ),
    }
}

/// Statistics of one Markov chain run.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ChainStats {
    /// Iterations executed.
    pub iterations: u64,
    /// Proposals accepted.
    pub accepted: u64,
    /// Distinct equivalent-and-safe programs discovered.
    pub candidates_found: u64,
    /// Iteration at which the best program was first found.
    pub best_found_at: u64,
    /// Wall-clock microseconds spent.
    pub time_us: u64,
}

/// One Markov chain: a current program, a proposal generator, the cost
/// function, and the best equivalent-and-safe programs seen so far.
pub struct MarkovChain {
    /// The inverse-temperature used in the acceptance probability.
    pub temperature_beta: f64,
    generator: ProposalGenerator,
    cost: CostFunction,
    rng: StdRng,
    current: Vec<Insn>,
    current_cost: CostValue,
    best: Option<(Program, f64)>,
    /// Statistics of the run so far.
    pub stats: ChainStats,
}

impl MarkovChain {
    /// Create a chain starting from the source program of `cost`.
    pub fn new(cost: CostFunction, generator: ProposalGenerator, seed: u64) -> MarkovChain {
        let mut cost = cost;
        let mut rng = StdRng::seed_from_u64(seed ^ 0x9e3779b97f4a7c15);
        // The refutation batch is seeded from the chain's own RNG stream so
        // same-seed runs stay bit-identical. The draw happens only when the
        // stage is enabled: with `refute_inputs = 0` the acceptance-decision
        // stream is exactly the pre-refuter one.
        if cost.settings.refute_inputs > 0 {
            let refute_seed = rng.gen::<u64>();
            cost.install_refuter(refute_seed);
        }
        let src = cost.source().clone();
        let current_cost = cost.evaluate(&src);
        let src_perf = cost.perf_cost(&src);
        MarkovChain {
            temperature_beta: 1.0,
            generator,
            cost,
            rng,
            current: src.insns.clone(),
            current_cost,
            best: Some((src, src_perf)),
            stats: ChainStats::default(),
        }
    }

    /// The best equivalent-and-safe program found so far and its performance
    /// cost.
    pub fn best(&self) -> Option<&(Program, f64)> {
        self.best.as_ref()
    }

    /// Access the cost function (test-suite size, statistics).
    pub fn cost_function(&self) -> &CostFunction {
        &self.cost
    }

    /// Mutable access to the cost function, used by the search engine at
    /// epoch barriers to publish cache deltas and exchange counterexamples.
    pub fn cost_function_mut(&mut self) -> &mut CostFunction {
        &mut self.cost
    }

    /// Performance cost of the best program found so far.
    pub fn best_cost(&self) -> Option<f64> {
        self.best.as_ref().map(|(_, c)| *c)
    }

    /// Re-evaluate the current program, refreshing the cached cost. The
    /// engine calls this after growing the test suite at a barrier so the
    /// next acceptance decision compares costs under the same suite.
    pub fn refresh_current(&mut self) {
        let current = self.cost.source().with_insns(self.current.clone());
        self.current_cost = self.cost.evaluate(&current);
    }

    /// Restart the walk from the given program (the engine's
    /// restart-from-best move). The best-so-far record is left untouched.
    pub fn restart_from(&mut self, prog: &Program) {
        self.current = prog.insns.clone();
        let current = self.cost.source().with_insns(self.current.clone());
        self.current_cost = self.cost.evaluate(&current);
    }

    /// Run the chain for `iterations` steps.
    pub fn run(&mut self, iterations: u64) -> ChainStats {
        // One `core.chain_epoch` span per (chain, epoch): the engine calls
        // `run` once per epoch, so the span count is chains × epochs.
        let telemetry = self.cost.telemetry().clone();
        let span = telemetry.span("core.chain_epoch");
        let start = std::time::Instant::now();
        for _ in 0..iterations {
            self.step();
        }
        self.stats.time_us += start.elapsed().as_micros() as u64;
        span.finish();
        telemetry.count("core.steps", iterations);
        self.stats
    }

    /// One Metropolis–Hastings step.
    ///
    /// The candidate is graded against the acceptance test this step will
    /// apply: the uniform draw is peeked from a clone of the chain's RNG
    /// (grading never touches it), so the cost function can stop running
    /// tests once rejection is certain. The draw is then consumed exactly
    /// as a full grading would, so decisions and the RNG stream are
    /// unchanged.
    pub fn step(&mut self) {
        self.stats.iterations += 1;
        let telemetry = self.cost.telemetry().clone();
        let (proposal, rule, region) = self.generator.propose(&self.current);
        let (eval_key, accepted_key, rejected_key) = rule_keys(rule);
        let cand = self.cost.source().with_insns(proposal.clone());
        let test = AcceptanceTest {
            current: self.current_cost.total,
            beta: self.temperature_beta,
            u: self.rng.clone().gen::<f64>(),
        };
        let eval_span = telemetry.span(eval_key);
        let cand_cost = self.cost.evaluate_or_reject(&cand, Some(region), &test);
        eval_span.finish();
        let Some(cand_cost) = cand_cost else {
            // Rejected at a positive cost difference: the full grading would
            // have drawn `u` and lost.
            self.rng.gen::<f64>();
            telemetry.count(rejected_key, 1);
            return;
        };

        // Track the best equivalent & safe program (by performance cost).
        if cand_cost.equivalent && cand_cost.safe {
            let perf = self.cost.perf_cost(&cand);
            let improved = match &self.best {
                Some((_, best_perf)) => perf < *best_perf,
                None => true,
            };
            if improved {
                // Emit the canonicalized program (nops and dead code removed).
                let cleaned = self.cost.source().with_insns(canonicalize(&cand.insns));
                let cleaned_perf = self.cost.perf_cost(&cleaned);
                self.best = Some((cleaned, cleaned_perf.min(perf)));
                self.stats.candidates_found += 1;
                self.stats.best_found_at = self.stats.iterations;
            }
        }

        // Accept or reject.
        let delta = cand_cost.total - self.current_cost.total;
        let accept = if delta <= 0.0 {
            true
        } else {
            let p = (-self.temperature_beta * delta).exp();
            self.rng.gen::<f64>() < p
        };
        if accept {
            self.current = proposal;
            self.current_cost = cand_cost;
            self.stats.accepted += 1;
            telemetry.count(accepted_key, 1);
        } else {
            telemetry.count(rejected_key, 1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compiler::OptimizationGoal;
    use crate::cost::CostSettings;
    use crate::proposals::RuleProbabilities;
    use bpf_interp::{run, InputGenerator};
    use bpf_isa::{asm, ProgramType};

    fn chain_for(src: &Program, seed: u64) -> MarkovChain {
        let cost = CostFunction::new(
            src,
            CostSettings::default(),
            OptimizationGoal::InstructionCount,
            8,
            seed,
        );
        let generator = ProposalGenerator::new(src, RuleProbabilities::default(), seed);
        MarkovChain::new(cost, generator, seed)
    }

    impl MarkovChain {
        /// The step as it was before grading could stop early: the
        /// reference test loop grades every candidate in full, then the
        /// acceptance test runs.
        fn reference_step(&mut self) {
            self.stats.iterations += 1;
            let (proposal, _rule, region) = self.generator.propose(&self.current);
            let cand = self.cost.source().with_insns(proposal.clone());
            let cand_cost = self.cost.evaluate_reference(&cand, Some(region));
            if cand_cost.equivalent && cand_cost.safe {
                let perf = self.cost.perf_cost(&cand);
                let improved = match &self.best {
                    Some((_, best_perf)) => perf < *best_perf,
                    None => true,
                };
                if improved {
                    let cleaned = self.cost.source().with_insns(canonicalize(&cand.insns));
                    let cleaned_perf = self.cost.perf_cost(&cleaned);
                    self.best = Some((cleaned, cleaned_perf.min(perf)));
                    self.stats.candidates_found += 1;
                    self.stats.best_found_at = self.stats.iterations;
                }
            }
            let delta = cand_cost.total - self.current_cost.total;
            let accept = if delta <= 0.0 {
                true
            } else {
                let p = (-self.temperature_beta * delta).exp();
                self.rng.gen::<f64>() < p
            };
            if accept {
                self.current = proposal;
                self.current_cost = cand_cost;
                self.stats.accepted += 1;
            }
        }
    }

    /// The bits of every field of a cost value.
    fn cost_bits(v: &CostValue) -> (u64, u64, u64, u64, bool, bool) {
        (
            v.error.to_bits(),
            v.perf.to_bits(),
            v.safety.to_bits(),
            v.total.to_bits(),
            v.equivalent,
            v.safe,
        )
    }

    /// The counters a full grading moves; the memo and early-rejection
    /// counters are zeroed.
    fn graded_counts(stats: &crate::cost::CostStats) -> crate::cost::CostStats {
        crate::cost::CostStats {
            test_runs: 0,
            eval_memo_hits: 0,
            early_rejects: 0,
            ..*stats
        }
    }

    /// Step a memoized, early-rejecting chain and a reference twin with the
    /// same seed through `STEPS` steps of every program in `benches` under
    /// every Table-8 setting, and require identical decisions, current cost
    /// bits, RNG streams, best programs and grading counters. Both twins
    /// share one solve memo, so the reference side's solver queries cost no
    /// second solve. Returns (test runs, reference test runs, early
    /// rejections) over the sweep.
    fn assert_lazy_steps_match_reference(
        benches: &[bpf_bench_suite::Benchmark],
    ) -> (u64, u64, u64) {
        const STEPS: u64 = 1500;
        let settings = crate::params::SearchParams::table8();
        let totals: Vec<(u64, u64, u64)> = std::thread::scope(|scope| {
            let workers: Vec<_> = settings
                .iter()
                .map(|params| {
                    scope.spawn(move || {
                        let mut totals = (0, 0, 0);
                        for bench in benches {
                            let src = &bench.prog;
                            let seed = 0x6b32 ^ (bench.row as u64) << 8 ^ params.id as u64;
                            let memo = std::sync::Arc::new(bpf_equiv::SolveMemo::default());
                            let chain = || {
                                let mut cost = CostFunction::new(
                                    src,
                                    params.cost,
                                    OptimizationGoal::InstructionCount,
                                    16,
                                    seed,
                                );
                                cost.set_solve_memo(memo.clone());
                                let generator = ProposalGenerator::new(src, params.rules, seed);
                                MarkovChain::new(cost, generator, seed)
                            };
                            let (mut lazy, mut reference) = (chain(), chain());
                            for step in 0..STEPS {
                                lazy.step();
                                reference.reference_step();
                                let at =
                                    || format!("{} setting {} step {step}", bench.name, params.id);
                                assert_eq!(lazy.stats, reference.stats, "{}", at());
                                assert_eq!(
                                    cost_bits(&lazy.current_cost),
                                    cost_bits(&reference.current_cost),
                                    "{}",
                                    at()
                                );
                                assert_eq!(lazy.current, reference.current, "{}", at());
                                assert_eq!(
                                    lazy.rng.clone().gen::<u64>(),
                                    reference.rng.clone().gen::<u64>(),
                                    "{}",
                                    at()
                                );
                            }
                            let at = format!("{} setting {}", bench.name, params.id);
                            assert_eq!(
                                lazy.best.as_ref().map(|(p, c)| (&p.insns, c.to_bits())),
                                reference
                                    .best
                                    .as_ref()
                                    .map(|(p, c)| (&p.insns, c.to_bits())),
                                "{at}"
                            );
                            let (a, b) = (&lazy.cost.stats, &reference.cost.stats);
                            assert_eq!(graded_counts(a), graded_counts(b), "{at}");
                            assert!(a.test_runs <= b.test_runs, "{at}");
                            totals.0 += a.test_runs;
                            totals.1 += b.test_runs;
                            totals.2 += a.early_rejects;
                        }
                        totals
                    })
                })
                .collect();
            workers.into_iter().map(|w| w.join().unwrap()).collect()
        });
        totals
            .iter()
            .fold((0, 0, 0), |acc, t| (acc.0 + t.0, acc.1 + t.1, acc.2 + t.2))
    }

    #[test]
    fn lazy_memoized_steps_match_the_reference_steps_bit_for_bit() {
        // The whole suite in an optimized build (CI runs this test with
        // `--release`); an unoptimized build, where the largest programs'
        // solver queries take minutes, sweeps the programs with cheap ones.
        let benches: Vec<_> = bpf_bench_suite::all()
            .into_iter()
            .filter(|b| {
                !cfg!(debug_assertions)
                    || [
                        "socket/0",
                        "socket/1",
                        "xdp_fw",
                        "xdp_pktcntr",
                        "xdp_exception",
                    ]
                    .contains(&b.name)
            })
            .collect();
        let (runs, reference_runs, rejects) = assert_lazy_steps_match_reference(&benches);
        // Not vacuous: steps stop early, and memo hits and early stops
        // together run well under half the reference's tests.
        assert!(rejects > 0, "no step stopped early");
        assert!(
            2 * runs < reference_runs,
            "{runs} test runs vs {reference_runs}"
        );
    }

    #[test]
    fn chain_starts_with_the_source_as_best() {
        let src = Program::new(
            ProgramType::Xdp,
            asm::assemble("mov64 r0, 5\nadd64 r0, 7\nexit").unwrap(),
        );
        let chain = chain_for(&src, 1);
        let (best, perf) = chain.best().unwrap().clone();
        assert_eq!(best.real_len(), 3);
        assert_eq!(perf, 3.0);
    }

    #[test]
    fn search_shrinks_a_padded_constant_computation() {
        // mov/add/add chain that folds to a single mov; the search should
        // find a strictly smaller equivalent program within a modest budget.
        let src = Program::new(
            ProgramType::Xdp,
            asm::assemble("mov64 r0, 5\nadd64 r0, 7\nadd64 r0, 0\nmov64 r3, 9\nexit").unwrap(),
        );
        let mut chain = chain_for(&src, 42);
        chain.run(3000);
        let (best, _) = chain.best().unwrap();
        assert!(
            best.real_len() < src.real_len(),
            "no improvement found: {best}"
        );
        // The optimized program must agree with the source on random inputs.
        let mut generator = InputGenerator::new(7);
        for input in generator.generate_suite(&src, 10) {
            assert_eq!(
                run(&src, &input).unwrap().output.ret,
                run(best, &input).unwrap().output.ret
            );
        }
    }

    #[test]
    fn search_removes_dead_stores() {
        let src = Program::new(
            ProgramType::Xdp,
            asm::assemble("mov64 r1, 0\nstxw [r10-4], r1\nstxw [r10-8], r1\nmov64 r0, 2\nexit")
                .unwrap(),
        );
        let mut chain = chain_for(&src, 11);
        chain.run(4000);
        let (best, _) = chain.best().unwrap();
        assert!(
            best.real_len() < src.real_len(),
            "no improvement found: {best}"
        );
    }

    #[test]
    fn accepted_moves_are_counted() {
        let src = Program::new(
            ProgramType::Xdp,
            asm::assemble("mov64 r0, 1\nmov64 r2, 2\nexit").unwrap(),
        );
        let mut chain = chain_for(&src, 3);
        let stats = chain.run(500);
        assert_eq!(stats.iterations, 500);
        assert!(stats.accepted > 0);
        assert!(stats.accepted <= stats.iterations);
    }

    #[test]
    fn best_program_is_always_safe_and_equivalent() {
        let src = Program::new(
            ProgramType::Xdp,
            asm::assemble("mov64 r4, 1\nmov64 r0, 7\nadd64 r0, r4\nexit").unwrap(),
        );
        let mut chain = chain_for(&src, 5);
        chain.run(2000);
        let (best, _) = chain.best().unwrap().clone();
        // Verify with the chain's own safety checker (constructed once per
        // chain and reused — not a fresh instance) and the equivalence
        // checker.
        assert!(chain
            .cost_function_mut()
            .safety_checker_mut()
            .is_safe(&best));
        let (outcome, _) =
            bpf_equiv::check_equivalence(&src, &best, &bpf_equiv::EquivOptions::default());
        assert!(outcome.is_equivalent());
    }
}
