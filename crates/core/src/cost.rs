//! The cost function of §3.2: error cost (tests + formal equivalence),
//! performance cost (instruction count or estimated latency), and safety
//! cost.

use crate::compiler::OptimizationGoal;
use bpf_equiv::{
    CacheStats, EquivCache, EquivChecker, EquivOptions, EquivOutcome, EquivStats, Refuter,
    SolveMemo,
};
use bpf_interp::{
    BackendKind, CostModel, ExecBackend, InputGenerator, ProgramInput, ProgramOutput,
};
use bpf_isa::{Insn, Program};
use bpf_safety::{SafetyChecker, SafetyConfig};
use k2_telemetry::TelemetryRef;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::Arc;

/// Safety cost assigned to unsafe candidates (`ERR_MAX` in the paper): large
/// enough that unsafe programs are almost never accepted, small enough that
/// the chain can still pass through them occasionally.
pub const ERR_MAX: f64 = 100.0;

/// The semantic distance between two outputs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DiffMetric {
    /// Number of differing bits (`diff_pop`).
    Popcount,
    /// Absolute numeric difference (`diff_abs`).
    Abs,
}

/// How per-test-case errors are weighted.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ErrorNormalization {
    /// Each test contributes its full error (`c = 1`).
    Full,
    /// Errors are averaged over the test suite (`c = 1/|T|`).
    Average,
}

/// Which test count is added to the error cost.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TestCountMode {
    /// The number of failed test cases (STOKE's variant).
    Failed,
    /// The number of passed test cases (distinguishes "passes all tests" from
    /// "formally equivalent").
    Passed,
}

/// Error-cost variant plus the weights combining the three components.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CostSettings {
    /// Semantic distance.
    pub diff: DiffMetric,
    /// Per-test weighting.
    pub normalization: ErrorNormalization,
    /// Which count is added.
    pub test_count: TestCountMode,
    /// Weight of the error cost (α).
    pub alpha: f64,
    /// Weight of the performance cost (β).
    pub beta: f64,
    /// Weight of the safety cost (γ).
    pub gamma: f64,
    /// Which execution backend evaluates candidates on the test suite
    /// (`Auto` is the interpreter; `Jit` opts into native code). The `K2_BACKEND`
    /// environment override is resolved by the `k2::api` configuration
    /// layering before options reach the engine.
    pub backend: BackendKind,
    /// Window-based (modular) equivalence verification — the paper's
    /// optimization IV. When on, candidates whose deviation from the source
    /// is a straight-line span are first checked window-locally; the full
    /// program pair is only encoded when the window is inconclusive. Pure
    /// optimization: verdicts and search trajectories are identical either
    /// way. The `K2_WINDOW` environment override is resolved by the
    /// `k2::api` configuration layering.
    pub window_verification: bool,
    /// Size of the pre-SMT refutation batch: cache-miss candidates are first
    /// run on this many deterministic random inputs (on the configured
    /// backend) and refuted without a solver query when any output
    /// diverges. `0` disables the stage. Refutation is conservative — it
    /// never flips a verdict the solver would have reached — and the batch
    /// seed is drawn from the chain's RNG stream so same-seed runs stay
    /// bit-identical. The `K2_REFUTE_INPUTS` environment override is
    /// resolved by the `k2::api` configuration layering.
    pub refute_inputs: usize,
}

impl Default for CostSettings {
    fn default() -> Self {
        CostSettings {
            diff: DiffMetric::Abs,
            normalization: ErrorNormalization::Full,
            test_count: TestCountMode::Failed,
            alpha: 0.5,
            beta: 5.0,
            gamma: 1.0,
            backend: BackendKind::Auto,
            window_verification: true,
            refute_inputs: 64,
        }
    }
}

/// The evaluated cost of one candidate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostValue {
    /// Error component (0 iff formally equivalent).
    pub error: f64,
    /// Performance component.
    pub perf: f64,
    /// Safety component (0 or [`ERR_MAX`]).
    pub safety: f64,
    /// Weighted total.
    pub total: f64,
    /// Whether the candidate is formally equivalent to the source.
    pub equivalent: bool,
    /// Whether the candidate passed the safety checker.
    pub safe: bool,
}

k2_telemetry::counters! {
    /// Statistics of cost evaluation. Each count is also the telemetry
    /// counter `cost.<field>` of a compilation.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct CostStats("cost") {
        /// Candidates evaluated.
        evaluations,
        /// Candidates that failed at least one test case.
        failed_tests,
        /// Formal equivalence queries issued (i.e. candidates passing all
        /// tests).
        equivalence_checks,
        /// Counterexamples added to the test suite.
        counterexamples,
        /// Candidates rejected as unsafe.
        unsafe_candidates,
        /// Executions of the *source* program. The source's expected outputs
        /// are precomputed once at construction and reused for every
        /// candidate; afterwards the source only runs again to grade a fresh
        /// counterexample. Regression guard for an easy-to-reintroduce
        /// inefficiency: re-running the unchanged source per candidate
        /// inside `evaluate`.
        src_executions,
        /// Candidate executions on test inputs. Each (candidate, test) pair
        /// runs at most once while the candidate stays in the evaluation
        /// memo.
        test_runs,
        /// Evaluations whose candidate was already in the evaluation memo:
        /// its safety verdict and stored test outcomes were reused.
        eval_memo_hits,
        /// Evaluations stopped before the last test because the acceptance
        /// test they were graded for had to reject the candidate.
        early_rejects,
    }
}

/// The Metropolis–Hastings acceptance test a cost is computed for: a
/// candidate whose total cost exceeds `current` by `delta > 0` is accepted
/// iff `u < exp(-beta * delta)`, where `u` is the step's uniform draw.
#[derive(Debug, Clone, Copy)]
pub(crate) struct AcceptanceTest {
    /// Total cost of the chain's current program.
    pub current: f64,
    /// The chain's inverse temperature.
    pub beta: f64,
    /// The uniform draw in `[0, 1)` the step will compare against.
    pub u: f64,
}

impl AcceptanceTest {
    /// Whether a candidate whose total cost is at least `lower` must be
    /// rejected. A larger cost only lowers the acceptance probability, so
    /// this holds for the candidate's exact cost too; the `1e-9` margin
    /// absorbs the rounding of `exp`, which need not be monotone to the ulp.
    pub(crate) fn must_reject(&self, lower: f64) -> bool {
        let delta = lower - self.current;
        delta > 0.0 && (-self.beta * delta).exp() <= self.u * (1.0 - 1e-9)
    }
}

/// Bytes one chain's evaluation memo may hold before it is cleared. Chains
/// revisit a neighbourhood of recent programs, so a bounded memo keeps
/// nearly all of its hits. The bound is on bytes, not entries, because an
/// entry grows with the program: 16 MiB is ~20,000 candidates of a
/// 20-instruction socket filter but only ~1,000 of a 1,000-instruction one.
const EVAL_MEMO_BYTES: u64 = 16 << 20;

/// One test's outcome for one candidate, in the test loop's terms.
#[derive(Debug, Clone, Copy, PartialEq)]
enum TestOutcome {
    /// Same output as the source.
    Pass,
    /// Different output, at this (positive) distance.
    Fail(f64),
    /// The candidate trapped.
    Trap,
    /// The source traps on this input, so the test is not graded.
    Skipped,
}

/// What the evaluation memo keeps for one candidate: its safety verdict
/// and the outcomes of a prefix of the test suite, in suite order. The suite
/// only ever grows at its end, so a stored prefix stays valid.
#[derive(Debug)]
struct Graded {
    safe: bool,
    outcomes: Vec<TestOutcome>,
}

/// The cost function: owns the test suite, the equivalence checker, the
/// safety checker, and the source program's reference outputs.
pub struct CostFunction {
    /// Settings in effect.
    pub settings: CostSettings,
    /// Optimization goal (instruction count vs estimated latency).
    pub goal: OptimizationGoal,
    src: Program,
    tests: Vec<ProgramInput>,
    expected: Vec<Option<ProgramOutput>>,
    equiv: EquivChecker,
    safety: SafetyChecker,
    cost_model: CostModel,
    src_perf: f64,
    /// Backend selection policy in effect, fixed for the lifetime of this
    /// cost function.
    backend: BackendKind,
    /// The prepared executor for the source program, built once at
    /// construction (for the JIT backend this holds the compiled code page)
    /// and reused whenever a counterexample must be graded.
    src_exec: Box<dyn ExecBackend>,
    /// Counterexamples discovered since the last [`Self::take_counterexamples`]
    /// call, in discovery order — the outbox of the cross-chain exchange.
    pending_cex: Vec<ProgramInput>,
    /// Per-candidate safety verdicts and test outcomes, keyed by the
    /// candidate's instructions.
    memo: HashMap<Vec<Insn>, Graded>,
    /// Bytes the memo holds now, and the most it held.
    memo_bytes: u64,
    memo_peak_bytes: u64,
    /// Statistics.
    pub stats: CostStats,
    /// Telemetry recorder handle (no-op by default); also threaded into the
    /// equivalence checker and, through it, the SMT solver.
    telemetry: TelemetryRef,
}

impl CostFunction {
    /// Build the cost function for a source program: generate the initial
    /// test suite and record the source outputs.
    pub fn new(
        src: &Program,
        settings: CostSettings,
        goal: OptimizationGoal,
        num_tests: usize,
        seed: u64,
    ) -> CostFunction {
        Self::with_shared_cache(src, settings, goal, num_tests, seed, None)
    }

    /// Like [`CostFunction::new`], but the equivalence checker additionally
    /// reads verdicts from a shared cross-chain cache (the search engine's
    /// [`crate::engine::SearchContext`]). The shared layer must be keyed to
    /// the same source program.
    pub fn with_shared_cache(
        src: &Program,
        settings: CostSettings,
        goal: OptimizationGoal,
        num_tests: usize,
        seed: u64,
        shared_cache: Option<Arc<EquivCache>>,
    ) -> CostFunction {
        let mut generator = InputGenerator::new(seed);
        let tests = generator.generate_suite(src, num_tests.max(1));
        // Prepare the source executor a single time: its expected outputs
        // are computed here and never re-derived per candidate.
        let backend = settings.backend;
        let src_exec = bpf_jit::backend_for(src, backend);
        let mut stats = CostStats::default();
        let expected: Vec<Option<ProgramOutput>> = tests
            .iter()
            .map(|t| {
                stats.src_executions += 1;
                src_exec.run(t).ok().map(|r| r.output)
            })
            .collect();
        let cost_model = CostModel::default();
        let src_perf = match goal {
            OptimizationGoal::InstructionCount => src.real_len() as f64,
            OptimizationGoal::Latency => cost_model.program_cost(src) as f64,
        };
        let equiv_options = EquivOptions {
            window_verification: settings.window_verification,
            ..EquivOptions::default()
        };
        let equiv = match shared_cache {
            Some(shared) => EquivChecker::with_shared_cache(equiv_options, shared),
            None => EquivChecker::new(equiv_options),
        };
        CostFunction {
            settings,
            goal,
            src: src.clone(),
            tests,
            expected,
            equiv,
            safety: SafetyChecker::new(SafetyConfig::default()),
            cost_model,
            src_perf,
            backend,
            src_exec,
            pending_cex: Vec::new(),
            memo: HashMap::new(),
            memo_bytes: 0,
            memo_peak_bytes: 0,
            stats,
            telemetry: TelemetryRef::none(),
        }
    }

    /// Attach a telemetry recorder and thread it into the equivalence
    /// checker (and through it, the SMT solver). Recording is write-only:
    /// costs and verdicts are identical with or without a recorder.
    pub fn set_telemetry(&mut self, telemetry: TelemetryRef) {
        self.equiv.set_telemetry(telemetry.clone());
        self.telemetry = telemetry;
    }

    /// Decide the equivalence checker's solver queries through the
    /// compilation's memo of solved formulas
    /// ([`EquivChecker::set_solve_memo`]). Costs and verdicts are identical
    /// with or without it.
    pub fn set_solve_memo(&mut self, memo: Arc<SolveMemo>) {
        self.equiv.set_solve_memo(memo);
    }

    /// The telemetry handle in effect (the no-op handle by default).
    pub fn telemetry(&self) -> &TelemetryRef {
        &self.telemetry
    }

    /// Install the pre-SMT refutation stage: build a batch of
    /// [`CostSettings::refute_inputs`] deterministic inputs from `seed`
    /// (drawn by the caller from the chain's RNG stream) together with the
    /// source's outputs on them, and hand it to the equivalence checker.
    /// No-op when `refute_inputs` is zero.
    pub fn install_refuter(&mut self, seed: u64) {
        if self.settings.refute_inputs == 0 {
            return;
        }
        let refuter = Refuter::new(&self.src, self.backend, self.settings.refute_inputs, seed);
        self.equiv.set_refuter(refuter);
    }

    /// The backend selection policy this cost function was built with.
    pub fn backend(&self) -> BackendKind {
        self.backend
    }

    /// Name of the executor grading candidates ("interp" or "jit").
    pub fn backend_name(&self) -> &'static str {
        self.src_exec.name()
    }

    /// The source program this cost function compares against.
    pub fn source(&self) -> &Program {
        &self.src
    }

    /// Number of test cases currently in the suite.
    pub fn num_tests(&self) -> usize {
        self.tests.len()
    }

    /// Accumulated statistics of the per-chain safety checker.
    pub fn safety_stats(&self) -> bpf_safety::SafetyStats {
        self.safety.stats
    }

    /// Mutable access to the per-chain safety checker. The checker is
    /// constructed once with the cost function and reused for every
    /// candidate — callers wanting a safety verdict should borrow it here
    /// rather than constructing a fresh one.
    pub fn safety_checker_mut(&mut self) -> &mut SafetyChecker {
        &mut self.safety
    }

    /// Accumulated equivalence-checker statistics (solver queries, cache
    /// hits per layer, solver time).
    pub fn equiv_stats(&self) -> EquivStats {
        self.equiv.stats
    }

    /// Hit/miss statistics of the checker's private cache layer.
    pub fn cache_stats(&self) -> CacheStats {
        self.equiv.cache().stats()
    }

    /// Publish the private equivalence-cache delta into the shared
    /// cross-chain layer (no-op without one). Returns the entries moved.
    /// Call only at the engine's epoch barriers.
    pub fn publish_cache(&mut self) -> usize {
        self.equiv.publish_cache()
    }

    /// Drain the counterexamples discovered since the last call (the outbox
    /// of the cross-chain exchange), in discovery order.
    pub fn take_counterexamples(&mut self) -> Vec<ProgramInput> {
        std::mem::take(&mut self.pending_cex)
    }

    /// Add one test case to the suite unless an identical input is already
    /// present. The expected output is graded with the cached source
    /// executor. Returns whether the suite grew.
    pub fn add_test(&mut self, input: &ProgramInput) -> bool {
        if self.tests.contains(input) {
            return false;
        }
        self.stats.src_executions += 1;
        let expected = self.src_exec.run(input).ok().map(|r| r.output);
        self.tests.push(input.clone());
        self.expected.push(expected);
        true
    }

    /// Add every input of a (merged, deduplicated) counterexample pool that
    /// is not yet in the suite. Returns how many tests were added.
    pub fn add_tests(&mut self, inputs: &[ProgramInput]) -> usize {
        inputs.iter().filter(|i| self.add_test(i)).count()
    }

    /// Performance cost of a candidate (absolute, not relative to the
    /// source; the relative formulation only shifts every candidate by the
    /// same constant and does not change the search).
    pub fn perf_cost(&self, cand: &Program) -> f64 {
        match self.goal {
            OptimizationGoal::InstructionCount => cand.real_len() as f64,
            OptimizationGoal::Latency => self.cost_model.program_cost(cand) as f64,
        }
    }

    /// Performance cost of the source program.
    pub fn src_perf_cost(&self) -> f64 {
        self.src_perf
    }

    /// Evaluate the full cost of a candidate.
    ///
    /// A candidate is the source program with other instructions
    /// ([`Program::with_insns`] on [`CostFunction::source`]): its safety
    /// verdict and test outcomes are memoized by instruction sequence, so a
    /// repeated candidate runs only the tests added to the suite since it
    /// was last graded. Costs are bit-identical to a fresh evaluation.
    pub fn evaluate(&mut self, cand: &Program) -> CostValue {
        self.evaluate_with_region(cand, None)
    }

    /// [`CostFunction::evaluate`] for a candidate produced by a localized
    /// rewrite: `region` is the instruction span the proposal touched
    /// ([`crate::proposals::RewriteRegion`]). When window verification is
    /// enabled, the equivalence check first tries the window-local formula
    /// over the candidate's actual deviation from the source and only falls
    /// back to the full program pair when that is inconclusive. Costs are
    /// identical to [`CostFunction::evaluate`] — only solver work differs.
    pub fn evaluate_with_region(
        &mut self,
        cand: &Program,
        region: Option<crate::proposals::RewriteRegion>,
    ) -> CostValue {
        self.grade(cand, region, None)
            .expect("grading without an acceptance test never rejects")
    }

    /// [`CostFunction::evaluate_with_region`] for a Metropolis–Hastings
    /// step that will apply `test` to the cost. Returns `None` as soon as
    /// the tests graded so far make rejection certain; the remaining tests
    /// are not run. That happens only after a failed test, so a candidate
    /// that would reach the equivalence check is always graded in full, and
    /// every counter moves exactly as under a full evaluation.
    pub(crate) fn evaluate_or_reject(
        &mut self,
        cand: &Program,
        region: Option<crate::proposals::RewriteRegion>,
        test: &AcceptanceTest,
    ) -> Option<CostValue> {
        self.grade(cand, region, Some(test))
    }

    /// The error component: `c` weighs the summed distance, `unequal` is 1
    /// unless the candidate is proven equivalent. Nondecreasing in every
    /// argument, which the early-rejection bound relies on.
    fn error_cost(c: f64, total_diff: f64, unequal: f64, count_term: f64) -> f64 {
        c * total_diff + unequal * count_term + unequal
    }

    /// The weighted total of the three components.
    fn total_cost(settings: &CostSettings, error: f64, perf: f64, safety: f64) -> f64 {
        settings.alpha * error + settings.beta * perf + settings.gamma * safety
    }

    fn grade(
        &mut self,
        cand: &Program,
        region: Option<crate::proposals::RewriteRegion>,
        test: Option<&AcceptanceTest>,
    ) -> Option<CostValue> {
        debug_assert!(
            cand.prog_type == self.src.prog_type && cand.maps == self.src.maps,
            "candidates share the source's type and maps"
        );
        self.stats.evaluations += 1;
        let perf = self.perf_cost(cand);

        // Safety first: unsafe candidates get the ERR_MAX safety cost but we
        // still compute an error estimate from the test cases so the chain
        // has a gradient to follow. A memoized candidate keeps its verdict.
        let safe = match self.memo.get(&cand.insns) {
            Some(graded) => {
                self.stats.eval_memo_hits += 1;
                graded.safe
            }
            None => {
                let safe = self.safety.is_safe(cand);
                if self.memo_bytes >= EVAL_MEMO_BYTES {
                    self.memo.clear();
                    self.memo_bytes = 0;
                }
                self.memo_bytes += (std::mem::size_of::<(Vec<Insn>, Graded)>()
                    + cand.insns.len() * std::mem::size_of::<Insn>())
                    as u64;
                self.memo.insert(
                    cand.insns.clone(),
                    Graded {
                        safe,
                        outcomes: Vec::new(),
                    },
                );
                safe
            }
        };
        if !safe {
            self.stats.unsafe_candidates += 1;
        }
        let safety = if safe { 0.0 } else { ERR_MAX };
        let c = match self.settings.normalization {
            ErrorNormalization::Full => 1.0,
            ErrorNormalization::Average => 1.0 / self.tests.len().max(1) as f64,
        };
        // Early rejection needs every term of the total to grow with the
        // error, i.e. a nonnegative error weight.
        let test = test.filter(|_| self.settings.alpha >= 0.0);

        // Test-case execution, in suite order: stored outcomes first, then
        // the tests this candidate has not run yet. The candidate's executor
        // is prepared only when a test must run, once for the rest of the
        // corpus, so under the JIT backend the translation cost amortizes
        // across those inputs.
        let graded = self
            .memo
            .get_mut(&cand.insns)
            .expect("the candidate was memoized above");
        let mut cand_exec: Option<Box<dyn ExecBackend>> = None;
        let mut eval_span = None;
        let mut total_diff = 0.0f64;
        let mut failed = 0usize;
        let mut passed = 0usize;
        let mut rejected = false;
        for (i, (input, expected)) in self.tests.iter().zip(&self.expected).enumerate() {
            let outcome = match graded.outcomes.get(i) {
                Some(&outcome) => outcome,
                None => {
                    let outcome = match expected {
                        None => TestOutcome::Skipped,
                        Some(expected) => {
                            let exec = cand_exec.get_or_insert_with(|| {
                                eval_span = Some(self.telemetry.span(match self.src_exec.name() {
                                    "jit" => "core.eval.jit",
                                    _ => "core.eval.interp",
                                }));
                                bpf_jit::backend_for(cand, self.backend)
                            });
                            self.stats.test_runs += 1;
                            match exec.run(input) {
                                Ok(result) => {
                                    let diff = match self.settings.diff {
                                        DiffMetric::Popcount => {
                                            result.output.diff_popcount(expected) as f64
                                        }
                                        DiffMetric::Abs => result.output.diff_abs(expected) as f64,
                                    };
                                    if diff == 0.0 {
                                        TestOutcome::Pass
                                    } else {
                                        TestOutcome::Fail(diff)
                                    }
                                }
                                Err(_) => TestOutcome::Trap,
                            }
                        }
                    };
                    graded.outcomes.push(outcome);
                    self.memo_bytes += std::mem::size_of::<TestOutcome>() as u64;
                    outcome
                }
            };
            let diff = match outcome {
                TestOutcome::Pass => {
                    passed += 1;
                    continue;
                }
                TestOutcome::Skipped => continue,
                TestOutcome::Fail(diff) => diff,
                TestOutcome::Trap => 64.0,
            };
            failed += 1;
            total_diff += diff;
            // Once a test has failed the candidate is not equivalent, and
            // the cost of the partial sums is a lower bound on its total:
            // further tests only add to the distance and the count.
            if let Some(test) = test {
                let count_term = match self.settings.test_count {
                    TestCountMode::Failed => failed as f64,
                    TestCountMode::Passed => passed as f64,
                };
                let error = Self::error_cost(c, total_diff, 1.0, count_term);
                if test.must_reject(Self::total_cost(&self.settings, error, perf, safety)) {
                    rejected = true;
                    break;
                }
            }
        }
        if let Some(span) = eval_span {
            span.finish();
        }
        self.memo_peak_bytes = self.memo_peak_bytes.max(self.memo_bytes);
        if rejected {
            self.stats.failed_tests += 1;
            self.stats.early_rejects += 1;
            return None;
        }

        // Formal equivalence only when every test passes (it is expensive).
        let mut equivalent = false;
        let unequal = if failed == 0 {
            self.stats.equivalence_checks += 1;
            let window = region.map(bpf_equiv::Window::from);
            match self.equiv.check_in_window(&self.src, cand, window) {
                EquivOutcome::Equivalent => {
                    equivalent = true;
                    0.0
                }
                EquivOutcome::NotEquivalent(Some(counterexample)) => {
                    // Feed the counterexample back into the test suite,
                    // grading it with the cached source executor (the only
                    // post-construction source execution).
                    self.stats.src_executions += 1;
                    if let Ok(expected) = self.src_exec.run(&counterexample) {
                        self.pending_cex.push((*counterexample).clone());
                        self.tests.push(*counterexample);
                        self.expected.push(Some(expected.output));
                        self.stats.counterexamples += 1;
                    }
                    1.0
                }
                EquivOutcome::NotEquivalent(None) | EquivOutcome::Unknown(_) => 1.0,
            }
        } else {
            self.stats.failed_tests += 1;
            1.0
        };

        let count_term = match self.settings.test_count {
            TestCountMode::Failed => failed as f64,
            TestCountMode::Passed => {
                if equivalent {
                    0.0
                } else {
                    passed as f64
                }
            }
        };
        let error = Self::error_cost(c, total_diff, unequal, count_term);
        let total = Self::total_cost(&self.settings, error, perf, safety);
        Some(CostValue {
            error,
            perf,
            safety,
            total,
            equivalent,
            safe,
        })
    }

    /// Most bytes the evaluation memo held at once: instructions and test
    /// outcomes plus a fixed per-entry overhead.
    pub fn eval_memo_peak_bytes(&self) -> u64 {
        self.memo_peak_bytes
    }

    /// The test loop as it was before evaluations were memoized and could
    /// stop early: every test on every evaluation, and a fresh safety walk.
    /// The exactness tests hold the memoized, lazy grading to it.
    #[cfg(test)]
    pub(crate) fn evaluate_reference(
        &mut self,
        cand: &Program,
        region: Option<crate::proposals::RewriteRegion>,
    ) -> CostValue {
        self.stats.evaluations += 1;
        let perf = self.perf_cost(cand);

        // Safety first: unsafe candidates get the ERR_MAX safety cost but we
        // still compute an error estimate from the test cases so the chain
        // has a gradient to follow.
        let safe = self.safety.is_safe(cand);
        if !safe {
            self.stats.unsafe_candidates += 1;
        }

        // Test-case execution. The candidate's executor is prepared once and
        // reused for the whole corpus, so under the JIT backend the
        // translation cost amortizes across all test inputs.
        let telemetry = self.telemetry.clone();
        let eval_span = telemetry.span(match self.src_exec.name() {
            "jit" => "core.eval.jit",
            _ => "core.eval.interp",
        });
        let cand_exec = bpf_jit::backend_for(cand, self.backend);
        let mut total_diff = 0.0f64;
        let mut failed = 0usize;
        let mut passed = 0usize;
        for (input, expected) in self.tests.iter().zip(&self.expected) {
            let Some(expected) = expected else { continue };
            self.stats.test_runs += 1;
            match cand_exec.run(input) {
                Ok(result) => {
                    let diff = match self.settings.diff {
                        DiffMetric::Popcount => result.output.diff_popcount(expected) as f64,
                        DiffMetric::Abs => result.output.diff_abs(expected) as f64,
                    };
                    if diff == 0.0 {
                        passed += 1;
                    } else {
                        failed += 1;
                        total_diff += diff;
                    }
                }
                Err(_) => {
                    failed += 1;
                    total_diff += 64.0;
                }
            }
        }
        eval_span.finish();

        let c = match self.settings.normalization {
            ErrorNormalization::Full => 1.0,
            ErrorNormalization::Average => 1.0 / self.tests.len().max(1) as f64,
        };

        // Formal equivalence only when every test passes (it is expensive).
        let mut equivalent = false;
        let unequal = if failed == 0 {
            self.stats.equivalence_checks += 1;
            let window = region.map(bpf_equiv::Window::from);
            match self.equiv.check_in_window(&self.src, cand, window) {
                EquivOutcome::Equivalent => {
                    equivalent = true;
                    0.0
                }
                EquivOutcome::NotEquivalent(Some(counterexample)) => {
                    // Feed the counterexample back into the test suite,
                    // grading it with the cached source executor (the only
                    // post-construction source execution).
                    self.stats.src_executions += 1;
                    if let Ok(expected) = self.src_exec.run(&counterexample) {
                        self.pending_cex.push((*counterexample).clone());
                        self.tests.push(*counterexample);
                        self.expected.push(Some(expected.output));
                        self.stats.counterexamples += 1;
                    }
                    1.0
                }
                EquivOutcome::NotEquivalent(None) | EquivOutcome::Unknown(_) => 1.0,
            }
        } else {
            self.stats.failed_tests += 1;
            1.0
        };

        let count_term = match self.settings.test_count {
            TestCountMode::Failed => failed as f64,
            TestCountMode::Passed => {
                if equivalent {
                    0.0
                } else {
                    passed as f64
                }
            }
        };
        let error = c * total_diff + unequal * count_term + unequal;
        let safety = if safe { 0.0 } else { ERR_MAX };
        let total =
            self.settings.alpha * error + self.settings.beta * perf + self.settings.gamma * safety;
        CostValue {
            error,
            perf,
            safety,
            total,
            equivalent,
            safe,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bpf_isa::{asm, ProgramType};

    fn xdp(text: &str) -> Program {
        Program::new(ProgramType::Xdp, asm::assemble(text).unwrap())
    }

    fn cost_fn(src: &Program) -> CostFunction {
        CostFunction::new(
            src,
            CostSettings::default(),
            OptimizationGoal::InstructionCount,
            8,
            1,
        )
    }

    #[test]
    fn source_program_costs_zero_error() {
        let src = xdp("mov64 r0, 5\nadd64 r0, 7\nexit");
        let mut f = cost_fn(&src);
        let v = f.evaluate(&src);
        assert_eq!(v.error, 0.0);
        assert!(v.equivalent);
        assert!(v.safe);
        assert_eq!(v.perf, 3.0);
    }

    #[test]
    fn equivalent_smaller_program_has_lower_total_cost() {
        let src = xdp("mov64 r0, 5\nadd64 r0, 7\nexit");
        let cand = xdp("mov64 r0, 12\nexit");
        let mut f = cost_fn(&src);
        let v_src = f.evaluate(&src);
        let v_cand = f.evaluate(&cand);
        assert!(v_cand.equivalent);
        assert!(v_cand.total < v_src.total);
    }

    #[test]
    fn wrong_program_pays_error_cost() {
        let src = xdp("mov64 r0, 5\nexit");
        let wrong = xdp("mov64 r0, 6\nexit");
        let mut f = cost_fn(&src);
        let v = f.evaluate(&wrong);
        assert!(v.error > 0.0);
        assert!(!v.equivalent);
    }

    #[test]
    fn unsafe_program_pays_safety_cost() {
        let src = xdp("mov64 r0, 5\nexit");
        let unsafe_p = xdp("ldxdw r0, [r10-8]\nexit");
        let mut f = cost_fn(&src);
        let v = f.evaluate(&unsafe_p);
        assert!(!v.safe);
        assert_eq!(v.safety, ERR_MAX);
        assert!(v.total >= ERR_MAX * f.settings.gamma);
    }

    #[test]
    fn counterexamples_grow_the_test_suite() {
        // A candidate that agrees with the source on every generated test
        // (which use 64-byte packets) but differs on other packet lengths:
        // the formal check must find the difference and add a test.
        let src = xdp("ldxdw r2, [r1+0]\nldxdw r3, [r1+8]\nmov64 r0, r3\nsub64 r0, r2\nexit");
        let cand = xdp("mov64 r0, 64\nexit");
        let mut f = cost_fn(&src);
        let before = f.num_tests();
        let v = f.evaluate(&cand);
        assert!(!v.equivalent);
        assert!(f.num_tests() > before || v.error > 0.0);
    }

    #[test]
    fn refuter_counterexamples_feed_the_test_suite_without_solver_queries() {
        // The candidate agrees with the source on every generated test (the
        // suite uses fixed 64-byte packets) but not on other packet lengths.
        // With a refuter installed the divergence is found by execution: the
        // verdict is NotEquivalent, the witness grows the suite, and the
        // solver is never consulted.
        let src = xdp("ldxdw r2, [r1+0]\nldxdw r3, [r1+8]\nmov64 r0, r3\nsub64 r0, r2\nexit");
        let cand = xdp("mov64 r0, 64\nexit");
        let mut f = cost_fn(&src);
        f.install_refuter(0xbeef);
        let before = f.num_tests();
        let v = f.evaluate(&cand);
        assert!(!v.equivalent);
        let stats = f.equiv_stats();
        assert_eq!(stats.refuted_by_testing, 1);
        assert_eq!(stats.smt_escalations, 0);
        assert_eq!(stats.queries, 0, "refuted without a solver query");
        assert_eq!(f.num_tests(), before + 1, "witness joined the suite");
        assert_eq!(f.stats.counterexamples, 1);
    }

    #[test]
    fn latency_goal_uses_cost_model() {
        let src = xdp("stdw [r10-8], 0\nldxdw r0, [r10-8]\nexit");
        let f = CostFunction::new(
            &src,
            CostSettings::default(),
            OptimizationGoal::Latency,
            4,
            1,
        );
        // Memory operations cost more than 1 each under the latency model.
        assert!(f.src_perf_cost() > 3.0);
    }

    #[test]
    fn source_outputs_are_computed_once_not_per_candidate() {
        let src = xdp("mov64 r0, 5\nadd64 r0, 7\nexit");
        let mut f = cost_fn(&src);
        let after_construction = f.stats.src_executions;
        assert_eq!(after_construction, f.num_tests() as u64);
        // Ten candidate evaluations that add no counterexamples: the source
        // must not run again — its expected outputs were cached up front.
        for imm in 0..10 {
            let _ = f.evaluate(&xdp(&format!("mov64 r0, {imm}\nexit")));
        }
        assert_eq!(
            f.stats.src_executions,
            after_construction + f.stats.counterexamples
        );
    }

    #[test]
    fn counterexamples_are_graded_with_the_cached_source_executor() {
        // A candidate that agrees on every generated test but not formally:
        // the counterexample path must account exactly one source execution.
        let src = xdp("ldxdw r2, [r1+0]\nldxdw r3, [r1+8]\nmov64 r0, r3\nsub64 r0, r2\nexit");
        let cand = xdp("mov64 r0, 64\nexit");
        let mut f = cost_fn(&src);
        let base = f.stats.src_executions;
        let _ = f.evaluate(&cand);
        assert_eq!(f.stats.src_executions, base + f.stats.counterexamples);
    }

    #[test]
    fn backends_produce_identical_costs() {
        let src = xdp("mov64 r0, 5\nadd64 r0, 7\nadd64 r0, 0\nexit");
        let candidates = [
            xdp("mov64 r0, 12\nexit"),
            xdp("mov64 r0, 11\nexit"),
            xdp("ldxdw r0, [r10-8]\nexit"),
            xdp("mov64 r0, 5\nadd64 r0, 7\nexit"),
        ];
        let mut settings = CostSettings {
            backend: BackendKind::Interp,
            ..CostSettings::default()
        };
        let mut interp_fn =
            CostFunction::new(&src, settings, OptimizationGoal::InstructionCount, 8, 1);
        settings.backend = BackendKind::Jit;
        let mut jit_fn =
            CostFunction::new(&src, settings, OptimizationGoal::InstructionCount, 8, 1);
        for cand in &candidates {
            assert_eq!(interp_fn.evaluate(cand), jit_fn.evaluate(cand));
        }
        // The configured kind is authoritative: no environment override can
        // change which executor a constructed cost function uses.
        assert_eq!(interp_fn.backend_name(), "interp");
        if bpf_jit::jit_available() {
            assert_eq!(jit_fn.backend_name(), "jit");
        }
    }

    #[test]
    fn default_settings_grade_candidates_on_the_interpreter() {
        let f = cost_fn(&xdp("mov64 r0, 5\nexit"));
        assert_eq!(f.backend(), BackendKind::Auto);
        assert_eq!(f.backend_name(), "interp");
    }

    #[test]
    fn the_reject_predicate_matches_the_acceptance_draw() {
        let test = |current, beta, u| AcceptanceTest { current, beta, u };
        // A cost that is not higher is always accepted, whatever the draw
        // and the sign of the inverse temperature.
        for u in [0.0, 0.5, 1.0 - f64::EPSILON] {
            for beta in [1.0, -1.0] {
                assert!(!test(10.0, beta, u).must_reject(10.0));
                assert!(!test(10.0, beta, u).must_reject(3.0));
            }
        }
        // u = 0 is accepted while exp(-beta * delta) is positive, and the
        // full test rejects it once the probability underflows to zero.
        assert!(!test(0.0, 1.0, 0.0).must_reject(1.0));
        assert!(!test(0.0, 1.0, 0.0).must_reject(700.0));
        assert!(test(0.0, 1.0, 0.0).must_reject(1e6));
        // A huge difference rejects any positive draw.
        assert!(test(0.0, 1.0, 1e-300).must_reject(1e6));
        assert!(test(0.0, 1.0, 0.5).must_reject(f64::MAX));
        // A zero or negative inverse temperature accepts everything.
        assert!(!test(0.0, 0.0, 0.999).must_reject(1e6));
        assert!(!test(0.0, -1.0, 0.999).must_reject(1e6));
        // Around the acceptance probability p: the full test accepts
        // u < p. One ulp above p the margin still holds the bound back;
        // a draw clear of p by more than the margin rejects.
        let delta = 2.5f64;
        let p = (-delta).exp();
        let next_up = f64::from_bits(p.to_bits() + 1);
        let next_down = f64::from_bits(p.to_bits() - 1);
        assert!(!test(0.0, 1.0, next_down).must_reject(delta));
        assert!(!test(0.0, 1.0, p).must_reject(delta));
        assert!(!test(0.0, 1.0, next_up).must_reject(delta));
        assert!(test(0.0, 1.0, p * (1.0 + 1e-8)).must_reject(delta));
        // Never rejects a draw the full test would accept.
        for u in [next_down, p, next_up, p * (1.0 + 1e-8)] {
            if test(0.0, 1.0, u).must_reject(delta) {
                assert!(u >= p);
            }
        }
    }

    /// Lazy grading stops only where the step would reject: `cost` was
    /// graded in full under the same suite, and the step compares it to
    /// `test.current` with draw `test.u`.
    fn step_rejects(test: &AcceptanceTest, cost: &CostValue) -> bool {
        let delta = cost.total - test.current;
        !(delta <= 0.0 || test.u < (-test.beta * delta).exp())
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(24))]
        #[test]
        fn memoized_costs_equal_a_fresh_cost_functions(
            setting in 0usize..5,
            socket in proptest::prelude::any::<bool>(),
            ops in proptest::collection::vec(
                (0u8..4, proptest::prelude::any::<u64>()),
                1..48,
            ),
        ) {
            // Candidates come from a short proposal walk, so the pool holds
            // near-copies of the source that pass some tests and fail others,
            // and the ops revisit them: plain evaluations, evaluations for
            // a step (which may stop early), and suite growth in between.
            let name = if socket { "socket/0" } else { "xdp_pktcntr" };
            let src = bpf_bench_suite::by_name(name).unwrap().prog;
            let params = crate::params::SearchParams::table8()[setting];
            let goal = OptimizationGoal::InstructionCount;
            let mut proposals = crate::ProposalGenerator::new(&src, params.rules, 3);
            let mut pool = vec![src.clone()];
            for i in 0..12 {
                // Alternate between one and two rewrites of the source.
                let base = if i % 2 == 0 { &src } else { pool.last().unwrap() };
                let cand = src.with_insns(proposals.propose(&base.insns).0);
                pool.push(cand);
            }
            let mut f = CostFunction::new(&src, params.cost, goal, 8, 5);
            for (op, x) in ops {
                if op == 3 {
                    let extra = InputGenerator::new(x).generate_suite(&src, 1 + (x % 3) as usize);
                    f.add_tests(&extra);
                    continue;
                }
                // A fresh cost function over the same suite.
                let mut fresh = CostFunction::new(&src, params.cost, goal, 8, 5);
                let base = fresh.num_tests();
                fresh.add_tests(&f.tests[base..]);
                assert_eq!(fresh.tests, f.tests);
                let cand = &pool[(x % pool.len() as u64) as usize];
                let want = fresh.evaluate(cand);
                if op == 2 {
                    // The current cost sits below or above the candidate's
                    // by a gap between 2^-3 and 2^36.
                    let gap = ((x >> 8) % 40) as f64;
                    let gap = if x & 1 == 0 { gap.exp2() / 8.0 } else { -gap.exp2() / 8.0 };
                    let test = AcceptanceTest {
                        current: want.total - gap,
                        beta: 1.0,
                        u: (x >> 11) as f64 / (1u64 << 53) as f64,
                    };
                    match f.evaluate_or_reject(cand, None, &test) {
                        Some(got) => assert_eq!(got, want),
                        None => assert!(step_rejects(&test, &want), "{test:?} {want:?}"),
                    }
                } else {
                    assert_eq!(f.evaluate(cand), want);
                }
            }
        }
    }

    #[test]
    fn stats_are_tracked() {
        let src = xdp("mov64 r0, 5\nexit");
        let mut f = cost_fn(&src);
        let _ = f.evaluate(&src);
        let _ = f.evaluate(&xdp("mov64 r0, 9\nexit"));
        assert_eq!(f.stats.evaluations, 2);
        assert!(f.stats.equivalence_checks >= 1);
        assert!(f.stats.failed_tests >= 1);
    }
}
