//! The traced run: one chain's per-candidate call sequence, rebuilt from
//! each layer's public functions and timed from outside around every call.
//!
//! For every program of a workload, a seeded stream is drawn from
//! `ProposalGenerator::propose` under a fixed acceptance rule: a candidate
//! becomes the current program when it is safe and proven equivalent. Each
//! candidate goes through the calls `CostFunction::evaluate_with_region`
//! makes, in its order: the safety check, test execution, and
//! `check_in_window` for candidates that pass every test. Test execution
//! runs on both backends. The JIT runs form a second pass over the same
//! candidates, so the process sys time of exactly that pass can be read.
//!
//! The two passes make up `replay.wall_s`. The layer times inside them are
//! disjoint, so they and the unattributed remainder add up to it. Three
//! timings sit outside that sum because they repeat work the sequence
//! already did: the abstract-interpretation screen and the path walk timed
//! on their own, and each query the checker escalated to the solver,
//! re-issued cold through `Encoder` and `bitsmt::Solver`.

use crate::stats::derive;
use crate::sys::CpuTimes;
use bitsmt::{Solver, TermPool};
use bpf_equiv::encode::EncodeOptions;
use bpf_equiv::{
    Encoder, EquivCache, EquivChecker, EquivOptions, EquivOutcome, EquivStats, Refuter, Window,
};
use bpf_interp::{BackendKind, InputGenerator, ProgramInput, ProgramOutput};
use bpf_isa::Program;
use bpf_safety::verifier::{screen, verify, VerifierConfig};
use bpf_safety::{SafetyChecker, SafetyConfig};
use k2_core::{CostFunction, OptimizationGoal, ProposalGenerator, SearchParams};
use std::sync::Arc;
use std::time::Instant;

/// Tests per program, as the engine generates them (`num_tests`).
const NUM_TESTS: usize = 16;
/// Refutation batch size, as the engine installs it (`refute_inputs`).
const REFUTE_INPUTS: usize = 64;

/// Calls into one layer and the wall time they took.
#[derive(Debug, Default, Clone, Copy)]
pub struct Span {
    pub calls: u64,
    pub s: f64,
}

impl Span {
    fn time<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.s += start.elapsed().as_secs_f64();
        self.calls += 1;
        out
    }
}

/// Per-layer totals of a replay, summed over a workload's programs.
#[derive(Debug, Default)]
pub struct Layers {
    // Inside `wall_s`, disjoint.
    pub proposals: Span,
    pub safety: Span,
    pub interp: Span,
    pub equiv: Span,
    pub jit_compile: Span,
    pub jit_run: Span,
    pub wall_s: f64,
    /// Process sys time during the JIT pass.
    pub jit_sys_s: f64,
    // Outside `wall_s`.
    pub cost_setup: Span,
    pub screen: Span,
    pub walk: Span,
    pub encode: Span,
    pub solve_ms: Vec<f64>,
    pub cnf_clauses: u64,
    // Counts.
    pub unsafe_found: u64,
    pub screens: u64,
    pub screen_rejects: u64,
    pub passed_tests: u64,
    pub interp_runs: u64,
    pub jit_runs: u64,
    /// Candidates whose JIT outputs differ from the interpreter's.
    pub jit_mismatches: u64,
    pub equiv_stats: EquivStats,
}

impl Layers {
    /// Sum of the disjoint layer times inside `wall_s`.
    pub fn attributed_s(&self) -> f64 {
        [
            self.proposals,
            self.safety,
            self.interp,
            self.equiv,
            self.jit_compile,
            self.jit_run,
        ]
        .iter()
        .map(|span| span.s)
        .sum()
    }

    /// The call counts that must repeat exactly at a fixed seed.
    pub fn fingerprint(&self) -> String {
        let e = &self.equiv_stats;
        format!(
            "replay proposals={} safety={} unsafe={} screen_rejects={} passed={} interp_runs={} \
             equiv={} window_hits={} refuted={} escalations={} jit={} jit_runs={} \
             jit_mismatches={} bitsmt={} cnf_clauses={}\n",
            self.proposals.calls,
            self.safety.calls,
            self.unsafe_found,
            self.screen_rejects,
            self.passed_tests,
            self.interp_runs,
            self.equiv.calls,
            e.window_hits,
            e.refuted_by_testing,
            e.smt_escalations,
            self.jit_compile.calls,
            self.jit_runs,
            self.jit_mismatches,
            self.solve_ms.len(),
            self.cnf_clauses,
        )
    }
}

fn interp_output(prog: &Program, input: &ProgramInput) -> Option<ProgramOutput> {
    bpf_interp::run(prog, input).ok().map(|r| r.output)
}

/// Replay `steps` proposals against `src` and add their layer times.
pub fn replay_program(src: &Program, steps: usize, seed: u64, layers: &mut Layers) {
    let params = SearchParams::table8()
        .into_iter()
        .next()
        .expect("table 8 lists settings");
    let refute_seed = derive(seed, 1);

    // A chain's cost-function construction, built the way the engine builds
    // it and timed on its own.
    layers.cost_setup.time(|| {
        let mut cost = CostFunction::with_shared_cache(
            src,
            params.cost,
            OptimizationGoal::InstructionCount,
            NUM_TESTS,
            seed,
            Some(Arc::new(EquivCache::new())),
        );
        cost.install_refuter(refute_seed);
        cost
    });

    let mut tests = InputGenerator::new(seed).generate_suite(src, NUM_TESTS);
    let mut expected: Vec<Option<ProgramOutput>> =
        tests.iter().map(|t| interp_output(src, t)).collect();
    let safety_config = SafetyConfig::default();
    let mut safety = SafetyChecker::new(safety_config);
    let mut equiv = EquivChecker::new(EquivOptions::default());
    equiv.set_refuter(Refuter::new(
        src,
        BackendKind::Auto,
        REFUTE_INPUTS,
        refute_seed,
    ));
    let mut generator = ProposalGenerator::new(src, params.rules, seed);
    let mut current = src.insns.clone();
    // Per candidate: the tests it ran on and its interpreter outputs.
    let mut trail: Vec<(Program, usize, Vec<Option<ProgramOutput>>)> = Vec::with_capacity(steps);
    let mut escalated = Vec::new();

    let start = Instant::now();
    for _ in 0..steps {
        let (cand, region) = layers.proposals.time(|| {
            let (insns, _rule, region) = generator.propose(&current);
            (src.with_insns(insns), region)
        });
        let safe = layers.safety.time(|| safety.check(&cand).is_ok());
        // Grading the outputs is part of test execution, as in the cost
        // function's test loop.
        let (outputs, passes) = layers.interp.time(|| {
            let exec = bpf_jit::backend_for(&cand, BackendKind::Interp);
            let outputs: Vec<_> = tests
                .iter()
                .map(|t| exec.run(t).ok().map(|r| r.output))
                .collect();
            let passes = outputs
                .iter()
                .zip(&expected)
                .all(|(got, want)| want.is_none() || got == want);
            (outputs, passes)
        });
        layers.interp_runs += tests.len() as u64;
        let mut equivalent = false;
        if passes {
            layers.passed_tests += 1;
            let escalations = equiv.stats.smt_escalations;
            let verdict = layers
                .equiv
                .time(|| equiv.check_in_window(src, &cand, Some(Window::from(region))));
            if equiv.stats.smt_escalations > escalations {
                escalated.push(cand.clone());
            }
            match verdict {
                EquivOutcome::Equivalent => equivalent = true,
                EquivOutcome::NotEquivalent(Some(counterexample)) => {
                    // The cost function grades a counterexample with the
                    // source and grows its test suite.
                    let want = layers.interp.time(|| interp_output(src, &counterexample));
                    layers.interp_runs += 1;
                    if want.is_some() {
                        tests.push(*counterexample);
                        expected.push(want);
                    }
                }
                EquivOutcome::NotEquivalent(None) | EquivOutcome::Unknown(_) => {}
            }
        }
        if safe && equivalent {
            current.clone_from(&cand.insns);
        }
        trail.push((cand, outputs.len(), outputs));
    }
    layers.wall_s += start.elapsed().as_secs_f64();

    let tests = &tests;
    let cpu_before = CpuTimes::now();
    let start = Instant::now();
    for (cand, n, outputs) in &trail {
        let exec = layers
            .jit_compile
            .time(|| bpf_jit::backend_for(cand, BackendKind::Jit));
        // Dropping the executor unmaps its code: part of running it. The
        // outputs are graded against the interpreter's in the same span.
        let agrees = layers.jit_run.time(move || {
            tests[..*n]
                .iter()
                .zip(outputs)
                .all(|(t, want)| exec.run(t).ok().map(|r| r.output) == *want)
        });
        layers.jit_runs += *n as u64;
        if !agrees {
            layers.jit_mismatches += 1;
        }
    }
    layers.wall_s += start.elapsed().as_secs_f64();
    layers.jit_sys_s += CpuTimes::now().since(cpu_before).sys_s;

    layers.unsafe_found += safety.stats.unsafe_found;
    layers.screens += safety.stats.screens;
    layers.screen_rejects += safety.stats.screen_rejects;
    layers.equiv_stats.absorb(&equiv.stats);

    // The two halves of the safety check, each timed on its own, under the
    // configuration `SafetyChecker` derives from `SafetyConfig`.
    let engine = VerifierConfig {
        max_insns: safety_config.max_insns,
        complexity_limit: safety_config.complexity_limit,
        enforce_stack_alignment: safety_config.enforce_stack_alignment,
        forbid_ctx_store_imm: true,
        forbid_pointer_alu: true,
        forbid_unreachable: true,
    };
    for (cand, _, _) in &trail {
        layers
            .screen
            .time(|| screen(cand, &engine, safety_config.state_budget));
        layers.walk.time(|| verify(cand, &engine));
    }
    for cand in &escalated {
        reissue_cold(src, cand, layers);
    }
}

/// One escalated equivalence query, encoded and solved the cold way.
fn reissue_cold(src: &Program, cand: &Program, layers: &mut Layers) {
    let mut pool = TermPool::new();
    let mut encoder = Encoder::new(&mut pool, EncodeOptions::default());
    let (goal, constraints) = layers.encode.time(|| {
        let goal = (|| {
            let a = encoder.encode_program(src, 0).ok()?;
            let b = encoder.encode_program(cand, 1).ok()?;
            let calls_match = encoder.call_logs_compatible(&a, &b)?;
            let outputs_differ = encoder.output_difference(&a, &b);
            let pool = encoder.pool();
            let calls_differ = pool.not(calls_match);
            Some(pool.or(outputs_differ, calls_differ))
        })();
        (goal, encoder.constraints.clone())
    });
    // An encoding failure or a call-log mismatch is decided without a
    // solver query.
    let Some(goal) = goal else {
        return;
    };
    let start = Instant::now();
    let mut solver = Solver::new(encoder.pool());
    for c in constraints {
        solver.assert(c);
    }
    solver.assert(goal);
    std::hint::black_box(solver.check());
    layers.solve_ms.push(start.elapsed().as_secs_f64() * 1e3);
    layers.cnf_clauses += solver.stats.cnf_clauses;
}
