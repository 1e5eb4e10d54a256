//! The user-facing solver façade: assert 1-bit terms, check satisfiability,
//! extract models.
//!
//! Every [`Solver::check`] is one-shot: the assertions are bit-blasted into a
//! fresh CNF and decided from scratch, so a query's result (its model
//! included) depends on nothing but its own assertions. The SAT solver's
//! buffers are reused across the checks of one thread, and a solver given a
//! [`SolveMemo`] decides a CNF the memo already holds without solving it.

use crate::bitblast::BitBlaster;
use crate::eval::Assignment;
use crate::memo::{SolveMemo, Solved};
use crate::sat::{SatResult, SatSolver};
use crate::term::{TermId, TermPool};
use k2_telemetry::TelemetryRef;
use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

thread_local! {
    /// The SAT solver of this thread's checks, reset for each one.
    static SAT: RefCell<SatSolver> = RefCell::new(SatSolver::new());
}

/// A model: concrete values for the formula's free variables.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Model {
    values: HashMap<String, u64>,
}

impl Model {
    /// The value of a variable, if it appears in the model.
    pub fn value(&self, name: &str) -> Option<u64> {
        self.values.get(name).copied()
    }

    /// The value of a variable, defaulting to 0 (an unconstrained variable
    /// may legitimately be absent).
    pub fn value_or_zero(&self, name: &str) -> u64 {
        self.value(name).unwrap_or(0)
    }

    /// Convert to an [`Assignment`] usable with the term evaluator.
    pub fn to_assignment(&self) -> Assignment {
        let mut a = Assignment::new();
        for (k, v) in &self.values {
            a.set(k.clone(), *v);
        }
        a
    }

    /// Iterate over all (variable, value) pairs.
    pub fn iter(&self) -> impl Iterator<Item = (&String, &u64)> {
        self.values.iter()
    }
}

/// Outcome of a satisfiability check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckResult {
    /// Satisfiable, with a model.
    Sat(Model),
    /// Unsatisfiable.
    Unsat,
}

impl CheckResult {
    /// Whether the result is SAT.
    pub fn is_sat(&self) -> bool {
        matches!(self, CheckResult::Sat(_))
    }

    /// Extract the model, panicking on UNSAT. Convenient in tests.
    pub fn expect_sat(self) -> Model {
        match self {
            CheckResult::Sat(m) => m,
            CheckResult::Unsat => panic!("expected SAT, got UNSAT"),
        }
    }
}

/// Statistics from the last `check()` call.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SolverStats {
    /// CNF variables after bit-blasting.
    pub cnf_vars: u64,
    /// CNF clauses after bit-blasting.
    pub cnf_clauses: u64,
    /// SAT conflicts.
    pub conflicts: u64,
    /// SAT decisions.
    pub decisions: u64,
    /// SAT unit propagations.
    pub propagations: u64,
    /// Total wall-clock time of the check, in microseconds.
    pub time_us: u64,
    /// Whether the result came from the [`SolveMemo`] rather than a solve;
    /// the SAT counts are then those of the solve that filled the entry.
    pub memo_hit: bool,
}

/// The solver: collects assertions over a [`TermPool`] and decides them.
///
/// A solver is cheap to construct; K2 creates a fresh one per equivalence or
/// safety query.
#[derive(Debug)]
pub struct Solver<'p> {
    pool: &'p mut TermPool,
    assertions: Vec<TermId>,
    /// Statistics from the most recent `check()`.
    pub stats: SolverStats,
    telemetry: TelemetryRef,
    memo: Option<Arc<SolveMemo>>,
}

impl<'p> Solver<'p> {
    /// Create a solver over a term pool.
    pub fn new(pool: &'p mut TermPool) -> Solver<'p> {
        Solver {
            pool,
            assertions: Vec::new(),
            stats: SolverStats::default(),
            telemetry: TelemetryRef::none(),
            memo: None,
        }
    }

    /// Decide through a memo of earlier solves: `check()` then returns the
    /// stored result of an identical CNF instead of solving it, and stores
    /// the result of every CNF it does solve. Results, models, SAT counts
    /// and telemetry are identical with or without a memo.
    pub fn set_memo(&mut self, memo: Arc<SolveMemo>) {
        self.memo = Some(memo);
    }

    /// Attach a telemetry recorder. `check()` then records the bit-blast
    /// and SAT-solve phase timings (`bitsmt.bitblast` / `bitsmt.solve`)
    /// and the conflict/decision/propagation counters. Recording is
    /// write-only: results are identical with or without a recorder.
    pub fn set_telemetry(&mut self, telemetry: TelemetryRef) {
        self.telemetry = telemetry;
    }

    /// Access the underlying pool (e.g. to build more terms between asserts).
    pub fn pool(&mut self) -> &mut TermPool {
        self.pool
    }

    /// Assert that a 1-bit term must be true.
    pub fn assert(&mut self, term: TermId) {
        assert_eq!(self.pool.width(term), 1, "assertions must be 1-bit terms");
        self.assertions.push(term);
    }

    /// Decide the conjunction of all assertions.
    pub fn check(&mut self) -> CheckResult {
        let start = Instant::now();
        let blast_span = self.telemetry.span("bitsmt.bitblast");
        let mut blaster = BitBlaster::new();
        for &a in &self.assertions {
            blaster.assert_true(self.pool, a);
        }
        self.stats.cnf_vars = blaster.cnf.num_vars as u64;
        self.stats.cnf_clauses = blaster.cnf.num_clauses() as u64;
        blast_span.finish();

        let solve_span = self.telemetry.span("bitsmt.solve");
        let memoized = self.memo.as_ref().and_then(|memo| memo.get(&blaster.cnf));
        self.stats.memo_hit = memoized.is_some();
        let solved = memoized.unwrap_or_else(|| {
            let solved = Arc::new(SAT.with(|sat| {
                let mut sat = sat.borrow_mut();
                sat.load(&blaster.cnf);
                let result = sat.solve();
                Solved {
                    result,
                    conflicts: sat.conflicts,
                    decisions: sat.decisions,
                    propagations: sat.propagations,
                }
            }));
            if let Some(memo) = &self.memo {
                memo.insert(std::mem::take(&mut blaster.cnf), Arc::clone(&solved));
            }
            solved
        });
        self.stats.conflicts = solved.conflicts;
        self.stats.decisions = solved.decisions;
        self.stats.propagations = solved.propagations;
        solve_span.finish();
        self.stats.time_us = start.elapsed().as_micros() as u64;
        if self.telemetry.is_enabled() {
            self.telemetry.count("bitsmt.queries", 1);
            self.telemetry.count("bitsmt.cnf_vars", self.stats.cnf_vars);
            self.telemetry
                .count("bitsmt.cnf_clauses", self.stats.cnf_clauses);
            self.telemetry
                .count("bitsmt.conflicts", self.stats.conflicts);
            self.telemetry
                .count("bitsmt.decisions", self.stats.decisions);
            self.telemetry
                .count("bitsmt.propagations", self.stats.propagations);
        }

        match &solved.result {
            SatResult::Unsat => CheckResult::Unsat,
            SatResult::Sat(assignment) => {
                let mut model = Model::default();
                for (name, bits) in &blaster.var_bits {
                    let mut value = 0u64;
                    for (i, &lit) in bits.iter().enumerate() {
                        if assignment[lit.unsigned_abs() as usize] {
                            value |= 1 << i;
                        }
                    }
                    model.values.insert(name.clone(), value);
                }
                CheckResult::Sat(model)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::eval;

    #[test]
    fn model_satisfies_all_assertions() {
        let mut pool = TermPool::new();
        let x = pool.var("x", 64);
        let y = pool.var("y", 64);
        let three = pool.constant(3, 64);
        let hundred = pool.constant(100, 64);
        let xy = pool.mul(x, three);
        let a1 = pool.eq(xy, y);
        let a2 = pool.ult(y, hundred);
        let zero = pool.constant(0, 64);
        let a3 = pool.ne(x, zero);

        let mut solver = Solver::new(&mut pool);
        solver.assert(a1);
        solver.assert(a2);
        solver.assert(a3);
        let model = solver.check().expect_sat();
        let assignment = model.to_assignment();
        assert_eq!(eval(&pool, &assignment, a1), 1);
        assert_eq!(eval(&pool, &assignment, a2), 1);
        assert_eq!(eval(&pool, &assignment, a3), 1);
    }

    #[test]
    fn unsat_range_conflict() {
        let mut pool = TermPool::new();
        let x = pool.var("x", 32);
        let ten = pool.constant(10, 32);
        let five = pool.constant(5, 32);
        let a1 = pool.ult(x, five);
        let a2 = pool.ugt(x, ten);
        let mut solver = Solver::new(&mut pool);
        solver.assert(a1);
        solver.assert(a2);
        assert_eq!(solver.check(), CheckResult::Unsat);
    }

    #[test]
    fn equivalence_of_two_formulations() {
        // (x * 4) == (x << 2) for all 64-bit x: assert the negation is UNSAT.
        let mut pool = TermPool::new();
        let x = pool.var("x", 64);
        let four = pool.constant(4, 64);
        let two = pool.constant(2, 64);
        let lhs = pool.mul(x, four);
        let rhs = pool.shl(x, two);
        let differ = pool.ne(lhs, rhs);
        let mut solver = Solver::new(&mut pool);
        solver.assert(differ);
        assert_eq!(solver.check(), CheckResult::Unsat);
    }

    #[test]
    fn non_equivalence_produces_counterexample() {
        // (x * 3) == (x << 2) is NOT an identity; the model must witness it.
        let mut pool = TermPool::new();
        let x = pool.var("x", 16);
        let three = pool.constant(3, 16);
        let two = pool.constant(2, 16);
        let lhs = pool.mul(x, three);
        let rhs = pool.shl(x, two);
        let differ = pool.ne(lhs, rhs);
        let mut solver = Solver::new(&mut pool);
        solver.assert(differ);
        let model = solver.check().expect_sat();
        let xv = model.value_or_zero("x") & 0xffff;
        assert_ne!((xv.wrapping_mul(3)) & 0xffff, (xv << 2) & 0xffff);
    }

    #[test]
    fn stats_are_populated() {
        let mut pool = TermPool::new();
        let x = pool.var("x", 32);
        let y = pool.var("y", 32);
        let s = pool.add(x, y);
        let c = pool.constant(12345, 32);
        let a = pool.eq(s, c);
        let mut solver = Solver::new(&mut pool);
        solver.assert(a);
        let _ = solver.check();
        assert!(solver.stats.cnf_vars > 0);
        assert!(solver.stats.cnf_clauses > 0);
    }

    #[test]
    fn telemetry_records_phase_spans_and_sat_counters() {
        use k2_telemetry::{Recorder, Telemetry};
        use std::sync::Arc;
        let recorder = Arc::new(Telemetry::new());
        let mut pool = TermPool::new();
        let x = pool.var("x", 32);
        let five = pool.constant(5, 32);
        let a = pool.eq(x, five);
        let mut solver = Solver::new(&mut pool);
        solver.set_telemetry(TelemetryRef::new(recorder.clone()));
        solver.assert(a);
        assert!(solver.check().is_sat());
        let snap = recorder.snapshot();
        assert_eq!(snap.counter("bitsmt.queries"), 1);
        assert!(snap.counter("bitsmt.cnf_vars") > 0);
        assert!(snap.counter("bitsmt.cnf_clauses") > 0);
        assert_eq!(snap.timer("bitsmt.bitblast").unwrap().count, 1);
        assert_eq!(snap.timer("bitsmt.solve").unwrap().count, 1);
        assert_eq!(
            snap.counter("bitsmt.propagations"),
            solver.stats.propagations
        );
    }

    /// `x * k == y`, `y < 100`, `x != 0` over 32-bit variables named `x`
    /// and `y`: SAT, with a model the solver has to search for.
    fn scaled(pool: &mut TermPool, x: &str, y: &str, k: u64) -> Vec<TermId> {
        let x = pool.var(x, 32);
        let y = pool.var(y, 32);
        let k = pool.constant(k, 32);
        let hundred = pool.constant(100, 32);
        let zero = pool.constant(0, 32);
        let xk = pool.mul(x, k);
        vec![pool.eq(xk, y), pool.ult(y, hundred), pool.ne(x, zero)]
    }

    /// `x * 4 != x << 2` over a 32-bit `x`: UNSAT.
    fn shift_identity(pool: &mut TermPool) -> Vec<TermId> {
        let x = pool.var("x", 32);
        let four = pool.constant(4, 32);
        let two = pool.constant(2, 32);
        let lhs = pool.mul(x, four);
        let rhs = pool.shl(x, two);
        vec![pool.ne(lhs, rhs)]
    }

    /// Check the assertions `build` makes, through `memo` when given.
    fn check_with(
        memo: Option<&Arc<SolveMemo>>,
        build: impl FnOnce(&mut TermPool) -> Vec<TermId>,
    ) -> (CheckResult, SolverStats) {
        let mut pool = TermPool::new();
        let assertions = build(&mut pool);
        let mut solver = Solver::new(&mut pool);
        if let Some(memo) = memo {
            solver.set_memo(Arc::clone(memo));
        }
        for a in assertions {
            solver.assert(a);
        }
        let result = solver.check();
        (result, solver.stats)
    }

    /// The fields of [`SolverStats`] that describe the formula and its
    /// solve (everything but the time and the memo flag).
    fn work(stats: &SolverStats) -> [u64; 5] {
        [
            stats.cnf_vars,
            stats.cnf_clauses,
            stats.conflicts,
            stats.decisions,
            stats.propagations,
        ]
    }

    #[test]
    fn memo_hits_return_the_fresh_solve_result_and_counts() {
        let sat = |pool: &mut TermPool| scaled(pool, "x", "y", 3);
        for build in [
            &sat as &dyn Fn(&mut TermPool) -> Vec<TermId>,
            &shift_identity,
        ] {
            let (fresh, fresh_stats) = check_with(None, build);
            let memo = Arc::new(SolveMemo::new());
            let (miss, miss_stats) = check_with(Some(&memo), build);
            let (hit, hit_stats) = check_with(Some(&memo), build);
            assert!(!miss_stats.memo_hit);
            assert!(hit_stats.memo_hit);
            assert_eq!(memo.len(), 1);
            assert!(memo.bytes() > 0);
            assert_eq!(miss, fresh);
            assert_eq!(hit, fresh);
            assert_eq!(work(&miss_stats), work(&fresh_stats));
            assert_eq!(work(&hit_stats), work(&fresh_stats));
        }
        assert!(check_with(None, sat).0.is_sat());
        assert_eq!(check_with(None, shift_identity).0, CheckResult::Unsat);
    }

    #[test]
    fn renamed_variables_hit_the_memo_and_get_their_own_model() {
        let memo = Arc::new(SolveMemo::new());
        let (first, _) = check_with(Some(&memo), |pool| scaled(pool, "x", "y", 3));
        let (renamed, stats) = check_with(Some(&memo), |pool| scaled(pool, "a", "b", 3));
        let (fresh, _) = check_with(None, |pool| scaled(pool, "a", "b", 3));
        assert!(stats.memo_hit, "a renamed copy must hit the memo");
        assert_eq!(renamed, fresh);
        let (first, renamed) = (first.expect_sat(), renamed.expect_sat());
        assert_eq!(renamed.value("a"), first.value("x"));
        assert_eq!(renamed.value("b"), first.value("y"));
        assert_eq!(renamed.value("x"), None);
    }

    #[test]
    fn formulas_differing_in_one_constant_never_share_an_entry() {
        let memo = Arc::new(SolveMemo::new());
        let (three, _) = check_with(Some(&memo), |pool| scaled(pool, "x", "y", 3));
        let (five, stats) = check_with(Some(&memo), |pool| scaled(pool, "x", "y", 5));
        assert!(!stats.memo_hit);
        assert_eq!(memo.len(), 2);
        assert_eq!(five, check_with(None, |pool| scaled(pool, "x", "y", 5)).0);
        for (result, k) in [(three, 3), (five, 5)] {
            let model = result.expect_sat();
            let (x, y) = (model.value_or_zero("x"), model.value_or_zero("y"));
            assert_eq!(x.wrapping_mul(k) & 0xffff_ffff, y, "model of x * {k} == y");
        }
        // An UNSAT formula one constant away from a SAT one stays UNSAT.
        let range = |lo: u64| {
            move |pool: &mut TermPool| {
                let x = pool.var("x", 32);
                let lo = pool.constant(lo, 32);
                let five = pool.constant(5, 32);
                vec![pool.ult(x, five), pool.ugt(x, lo)]
            }
        };
        assert!(check_with(Some(&memo), range(3)).0.is_sat());
        assert_eq!(check_with(Some(&memo), range(10)).0, CheckResult::Unsat);
        assert_eq!(memo.len(), 4);
    }

    #[test]
    fn trivial_true_assertion_is_sat_with_empty_model() {
        let mut pool = TermPool::new();
        let t = pool.tt();
        let mut solver = Solver::new(&mut pool);
        solver.assert(t);
        assert!(solver.check().is_sat());
    }

    #[test]
    fn trivial_false_assertion_is_unsat() {
        let mut pool = TermPool::new();
        let f = pool.ff();
        let mut solver = Solver::new(&mut pool);
        solver.assert(f);
        assert_eq!(solver.check(), CheckResult::Unsat);
    }
}
