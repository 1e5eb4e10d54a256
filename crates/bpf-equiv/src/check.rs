//! The equivalence checker façade used by the K2 search loop.

use crate::cache::{CacheStats, CachedVerdict, EquivCache};
use crate::counterexample::input_from_model;
use crate::encode::{EncodeError, EncodeOptions, Encoder};
use crate::refute::Refuter;
use crate::window::{check_window_with, Window, WindowContext};
use bitsmt::{CheckResult, SolveMemo, Solver, SolverStats, TermPool};
use bpf_interp::ProgramInput;
use bpf_isa::Program;
use k2_telemetry::TelemetryRef;
use std::sync::Arc;
use std::time::Instant;

/// Options controlling the equivalence checker: the paper's optimizations
/// I–V (IV, modular verification, engages on [`EquivChecker::check_in_window`]
/// calls).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EquivOptions {
    /// Optimization I: per-memory-region read/write tables. (Optimization
    /// II, per-map tables, is always on: map helpers must name a statically
    /// known map.)
    pub memory_type_concretization: bool,
    /// Optimization III: compile-time resolution of concrete address
    /// comparisons.
    pub offset_concretization: bool,
    /// Optimization IV: modular (window-based) verification. When a
    /// candidate differs from the source only inside a straight-line span,
    /// [`EquivChecker::check_in_window`] first tries the much smaller
    /// window-local formula ([`crate::window`]) and falls back to the full
    /// program pair only when the window verdict is inconclusive. A pure
    /// optimization: verdicts (and therefore search trajectories) are
    /// identical with it on or off.
    pub window_verification: bool,
    /// Optimization V: cache verdicts keyed by canonicalized candidates.
    pub enable_cache: bool,
    /// No effect. Escalated queries are always decided by a one-shot solve;
    /// the field remains so existing struct literals keep compiling.
    pub incremental_solving: bool,
    /// No effect: window preconditions come from the type analysis alone.
    /// The field remains so existing struct literals keep compiling.
    pub static_analysis: bool,
}

impl Default for EquivOptions {
    fn default() -> Self {
        EquivOptions {
            memory_type_concretization: true,
            offset_concretization: true,
            window_verification: true,
            enable_cache: true,
            incremental_solving: false,
            static_analysis: true,
        }
    }
}

impl EquivOptions {
    /// Every optimization that can be turned off is off (the paper's "None"
    /// column in Table 4; map tables stay per map).
    pub fn none() -> EquivOptions {
        EquivOptions {
            memory_type_concretization: false,
            offset_concretization: false,
            window_verification: false,
            enable_cache: false,
            incremental_solving: false,
            static_analysis: false,
        }
    }

    fn encode_options(&self) -> EncodeOptions {
        EncodeOptions {
            memory_type_concretization: self.memory_type_concretization,
            offset_concretization: self.offset_concretization,
        }
    }
}

/// Outcome of an equivalence check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EquivOutcome {
    /// The two programs have identical observable behaviour on every input.
    Equivalent,
    /// The programs differ; when available, a counterexample input on which
    /// they produce different outputs.
    NotEquivalent(Option<Box<ProgramInput>>),
    /// The candidate could not be encoded (unsupported pattern, loop, ...).
    /// The search treats this like "not equivalent".
    Unknown(String),
}

impl EquivOutcome {
    /// Whether the verdict is `Equivalent`.
    pub fn is_equivalent(&self) -> bool {
        matches!(self, EquivOutcome::Equivalent)
    }
}

k2_telemetry::counters! {
    /// Accumulated statistics of a checker instance. Each count is also the
    /// telemetry counter `equiv.<field>` of a compilation.
    #[derive(Debug, Clone, Copy, Default, PartialEq)]
    pub struct EquivStats("equiv") {
        /// Number of solver queries issued.
        queries,
        /// Cached checks answered by this checker's private cache layer.
        cache_hits,
        /// Cached checks answered by the cross-chain shared cache layer.
        shared_cache_hits,
        /// Checks that missed both cache layers and went to the solver.
        cache_misses,
        /// Checks answered by the window-local fast path (optimization IV):
        /// each one is a full-program solver query that never had to be built.
        window_hits,
        /// Checks where the windowed fast path ran but was inconclusive and
        /// the full-program check was performed after all.
        window_fallbacks,
        /// Checks refuted by the pre-SMT concrete-execution stage: a
        /// divergent input was found in microseconds, so no solver query was
        /// built.
        refuted_by_testing,
        /// Checks the refutation stage could not decide, escalated to the SMT
        /// solver (only counted while a refuter is installed).
        smt_escalations,
        /// Checks whose verdict was [`EquivOutcome::Equivalent`].
        equivalent_verdicts,
        /// Checks whose verdict was [`EquivOutcome::NotEquivalent`].
        not_equivalent_verdicts,
        /// Checks whose verdict was [`EquivOutcome::Unknown`].
        unknown_verdicts,
    }
    uncounted {
        /// Microseconds spent inside window-local checks (hits and
        /// fallbacks).
        window_time_us,
        /// Microseconds spent inside the pre-SMT refutation stage.
        refute_time_us,
        /// Total time spent building formulas and solving, in microseconds.
        total_time_us,
        /// Solver queries answered by the compilation's [`SolveMemo`]
        /// because an identical formula had been solved before. Like the
        /// times, this depends on scheduling: two chains can race on the
        /// same formula.
        memo_hits,
    }
}

impl EquivStats {
    /// Both verdict-cache layers as one: hits through either layer vs.
    /// checks that missed both.
    pub fn cache_stats(&self) -> CacheStats {
        let (hits, misses) = (self.cache_hits + self.shared_cache_hits, self.cache_misses);
        CacheStats { hits, misses }
    }

    /// Fraction of window-attempted checks the window-local fast path
    /// resolved (zero when the windowed path never ran).
    pub fn window_hit_rate(&self) -> f64 {
        let (hits, misses) = (self.window_hits, self.window_fallbacks);
        CacheStats { hits, misses }.hit_rate()
    }
}

/// Check the equivalence of two programs once, without caching.
///
/// Returns the outcome and the wall-clock microseconds spent. This is a thin
/// convenience wrapper around [`EquivChecker::check_uncached`].
pub fn check_equivalence(
    src: &Program,
    cand: &Program,
    options: &EquivOptions,
) -> (EquivOutcome, u64) {
    let mut checker = EquivChecker::new(EquivOptions {
        enable_cache: false,
        ..*options
    });
    let outcome = checker.check_uncached(src, cand);
    (outcome, checker.last_time_us)
}

fn outcome_of_error(e: EncodeError) -> EquivOutcome {
    EquivOutcome::Unknown(e.to_string())
}

/// Fingerprint of a source program's instructions, used to key the
/// per-source window analysis so it is rebuilt exactly when the source
/// changes.
fn fingerprint_of(insns: &[bpf_isa::Insn]) -> u64 {
    use std::hash::{Hash, Hasher};
    let mut hasher = std::collections::hash_map::DefaultHasher::new();
    insns.hash(&mut hasher);
    hasher.finish()
}

/// A stateful checker bound to one source program: caches verdicts for the
/// candidates it sees and accumulates statistics. This is the object the K2
/// search loop holds for the duration of one compilation.
///
/// The cache is layered. Every checker owns a *private* delta that absorbs
/// new verdicts; optionally it also reads from a *shared* cross-chain
/// [`EquivCache`] (see [`EquivChecker::with_shared_cache`]). The shared layer
/// is never written during a search epoch — the engine publishes each
/// chain's private delta into it only at deterministic barriers via
/// [`EquivChecker::publish_cache`], which keeps same-seed searches
/// schedule-independent even though the shared layer is read concurrently.
#[derive(Debug)]
pub struct EquivChecker {
    /// Options in effect.
    pub options: EquivOptions,
    cache: EquivCache,
    shared: Option<Arc<EquivCache>>,
    /// Lazily computed static analysis of the source program for window
    /// verification, keyed by a fingerprint of the source instructions.
    /// `None` = not computed yet; `Some((_, None))` = that source has no CFG
    /// and windows never apply. Unlike the verdict cache — which simply
    /// documents its single-source assumption — a stale analysis here could
    /// panic or misprove a window, so the fingerprint is checked on every
    /// use and the context rebuilt when the source changes.
    window_ctx: Option<(u64, Option<WindowContext>)>,
    /// Pre-SMT refutation stage (see [`Refuter`]). Installed by the search
    /// loop via [`EquivChecker::set_refuter`] with a seed drawn from the
    /// chain's RNG stream; absent by default so plain checkers behave
    /// exactly as before.
    refuter: Option<Refuter>,
    /// The compilation's memo of solved formulas (see
    /// [`EquivChecker::set_solve_memo`]); absent by default.
    memo: Option<Arc<SolveMemo>>,
    /// Statistics accumulated across `check` calls.
    pub stats: EquivStats,
    /// Microseconds spent in the most recent solver query.
    pub last_time_us: u64,
    /// Solver statistics (CNF size, conflicts, ...) of the most recent
    /// solver query.
    pub last_solve: SolverStats,
    telemetry: TelemetryRef,
}

impl EquivChecker {
    /// Create a checker with the given options.
    pub fn new(options: EquivOptions) -> EquivChecker {
        EquivChecker {
            options,
            cache: EquivCache::new(),
            shared: None,
            window_ctx: None,
            refuter: None,
            memo: None,
            stats: EquivStats::default(),
            last_time_us: 0,
            last_solve: SolverStats::default(),
            telemetry: TelemetryRef::none(),
        }
    }

    /// Install a pre-SMT refutation stage: cache-miss candidates that the
    /// windowed path cannot resolve are first blasted with the refuter's
    /// concrete input batch, and only the survivors escalate to the solver.
    /// Divergent inputs are returned as counterexamples exactly like SMT
    /// models. Refutation never flips a verdict (the refuter only refutes
    /// when both programs run successfully and observably differ — such a
    /// candidate could never be proven equivalent).
    pub fn set_refuter(&mut self, refuter: Refuter) {
        self.refuter = Some(refuter);
    }

    /// The installed refutation stage, if any.
    pub fn refuter(&self) -> Option<&Refuter> {
        self.refuter.as_ref()
    }

    /// Attach a telemetry recorder. Every [`EquivChecker::check_in_window`]
    /// call then records a per-check span (`equiv.check`) and the distinct
    /// query fingerprints seen (paths and verdicts are counted in `stats`);
    /// the recorder is also threaded into the underlying [`Solver`].
    /// Recording is write-only — verdicts are identical with or without it.
    pub fn set_telemetry(&mut self, telemetry: TelemetryRef) {
        self.telemetry = telemetry;
    }

    /// Decide full-program queries through `memo`, shared with the other
    /// checkers of the same compilation: a query whose CNF equals one
    /// already solved takes the stored result. Verdicts, counterexamples
    /// and every count except [`EquivStats::memo_hits`] are identical with
    /// or without it; window checks never use it.
    pub fn set_solve_memo(&mut self, memo: Arc<SolveMemo>) {
        self.memo = Some(memo);
    }

    /// Create a checker that additionally reads verdicts from a shared
    /// cross-chain cache. All checkers sharing the cache must be bound to the
    /// same source program: verdicts are facts about (source, candidate).
    pub fn with_shared_cache(options: EquivOptions, shared: Arc<EquivCache>) -> EquivChecker {
        EquivChecker {
            shared: Some(shared),
            ..EquivChecker::new(options)
        }
    }

    /// Access the private verdict cache (for reporting hit rates, Table 6).
    pub fn cache(&self) -> &EquivCache {
        &self.cache
    }

    /// The shared cross-chain layer, when one was attached.
    pub fn shared_cache(&self) -> Option<&Arc<EquivCache>> {
        self.shared.as_ref()
    }

    /// Publish the private cache delta into the shared layer and clear it.
    /// Returns the number of entries moved; a no-op without a shared layer.
    ///
    /// Call this only at points where no other checker is concurrently
    /// *reading* a deterministic snapshot of the shared layer — i.e. at the
    /// engine's epoch barriers.
    pub fn publish_cache(&mut self) -> usize {
        let Some(shared) = &self.shared else {
            return 0;
        };
        let entries = self.cache.drain_entries();
        shared.merge_entries(&entries);
        entries.len()
    }

    /// Check a candidate against the source program.
    pub fn check(&mut self, src: &Program, cand: &Program) -> EquivOutcome {
        self.check_in_window(src, cand, None)
    }

    /// Check a candidate that came out of a rewrite of `region` (the span
    /// the proposal touched, as reported by the proposal generator).
    ///
    /// This is [`EquivChecker::check`] plus the paper's optimization IV:
    /// when a region is given and the candidate differs from the source only
    /// inside a straight-line span, the checker first discharges the much
    /// smaller window-local formula — preconditions from the source's
    /// type/liveness analysis, postcondition restricted to live-out state —
    /// and only falls back to the full program pair when the window verdict
    /// is inconclusive. Window `Equivalent` verdicts are sound for the whole
    /// program (the precondition is what actually holds at window entry, the
    /// postcondition covers everything later code can observe), so they
    /// enter the same layered verdict cache; anything weaker falls through,
    /// which keeps verdicts — and search trajectories — bit-identical with
    /// windows on or off.
    ///
    /// `Some(region)` is a *provenance gate*: it says "this candidate came
    /// from a localized rewrite, try the windowed path". The span itself is
    /// advisory — a chain's current program accumulates rewrites against the
    /// source, so the checker recomputes the candidate's true minimal
    /// deviation and windows that, never trusting the caller's bounds.
    pub fn check_in_window(
        &mut self,
        src: &Program,
        cand: &Program,
        region: Option<Window>,
    ) -> EquivOutcome {
        let outcome = if self.telemetry.is_enabled() {
            let telemetry = self.telemetry.clone();
            let span = telemetry.span("equiv.check");
            let outcome = self.check_in_window_impl(src, cand, region);
            span.finish();
            // The fingerprint is the verdict cache key: counting distinct
            // values sizes the repeat-query share.
            telemetry.observe_distinct("equiv.fingerprint", EquivCache::key_of(&cand.insns));
            outcome
        } else {
            self.check_in_window_impl(src, cand, region)
        };
        *match &outcome {
            EquivOutcome::Equivalent => &mut self.stats.equivalent_verdicts,
            EquivOutcome::NotEquivalent(_) => &mut self.stats.not_equivalent_verdicts,
            EquivOutcome::Unknown(_) => &mut self.stats.unknown_verdicts,
        } += 1;
        outcome
    }

    fn check_in_window_impl(
        &mut self,
        src: &Program,
        cand: &Program,
        region: Option<Window>,
    ) -> EquivOutcome {
        let key = if self.options.enable_cache {
            let key = EquivCache::key_of(&cand.insns);
            if let Some(verdict) = self.cache.lookup_key(key) {
                self.stats.cache_hits += 1;
                return Self::cached_outcome(verdict);
            }
            if let Some(shared) = &self.shared {
                if let Some(verdict) = shared.lookup_key(key) {
                    self.stats.shared_cache_hits += 1;
                    return Self::cached_outcome(verdict);
                }
            }
            self.stats.cache_misses += 1;
            Some(key)
        } else {
            None
        };
        if self.options.window_verification && region.is_some() {
            if let Some(outcome) = self.try_window(src, cand) {
                // Window verdicts are whole-program facts; record them in
                // the same layered cache as full-check verdicts.
                if let Some(key) = key {
                    self.cache.insert_key(key, CachedVerdict::Equivalent);
                }
                return outcome;
            }
        }
        // Pre-SMT refutation: try to dismiss the candidate by concrete
        // execution before paying for a solver query. A divergent input is
        // a whole-program counterexample, cached and returned exactly like
        // an SMT model (refuted checks bypass `finish`, so `queries` and
        // `total_time_us` keep meaning "solver work").
        if let Some(refuter) = &self.refuter {
            let refute_start = Instant::now();
            let divergent = refuter.refute(cand);
            let us = refute_start.elapsed().as_micros() as u64;
            self.stats.refute_time_us += us;
            self.telemetry.time_us("equiv.refute", us);
            if let Some(input) = divergent {
                self.stats.refuted_by_testing += 1;
                if let Some(key) = key {
                    self.cache.insert_key(key, CachedVerdict::NotEquivalent);
                }
                return EquivOutcome::NotEquivalent(Some(Box::new(input)));
            }
            self.stats.smt_escalations += 1;
        }
        let outcome = self.check_uncached(src, cand);
        if let Some(key) = key {
            let verdict = match &outcome {
                EquivOutcome::Equivalent => CachedVerdict::Equivalent,
                EquivOutcome::NotEquivalent(_) => CachedVerdict::NotEquivalent,
                EquivOutcome::Unknown(_) => CachedVerdict::Unknown,
            };
            self.cache.insert_key(key, verdict);
        }
        outcome
    }

    /// Attempt the window-local fast path. Returns `Some(Equivalent)` when
    /// the candidate's deviation from the source is a straight-line span the
    /// window checker proves splice-safe; `None` means "use the full check"
    /// (the span is not windowable, or the window verdict was inconclusive).
    fn try_window(&mut self, src: &Program, cand: &Program) -> Option<EquivOutcome> {
        // The window is the minimal span of differing instructions — the
        // proposal region only says where the *last* rewrite landed, while
        // the chain's current program accumulates rewrites against the
        // source, so the actual deviation is recomputed here.
        if src.insns.len() != cand.insns.len() {
            return None;
        }
        let differs = |idx: &usize| src.insns[*idx] != cand.insns[*idx];
        let window = match (0..src.insns.len()).find(differs) {
            // Identical programs: an empty window, which the window checker
            // resolves as a no-op without a solver query.
            None => Window { start: 0, end: 0 },
            Some(lo) => Window {
                start: lo,
                end: (lo..src.insns.len()).rfind(differs).unwrap_or(lo) + 1,
            },
        };
        // Windowable spans are straight-line (no jumps, no exits) ...
        let straight = |insns: &[bpf_isa::Insn]| {
            !insns[window.start..window.end]
                .iter()
                .any(|i| i.is_branch())
        };
        if !straight(&src.insns) || !straight(&cand.insns) {
            return None;
        }
        // ... and nothing outside the window may jump into its interior:
        // entry at `window.start` is covered by the precondition analysis
        // (a join over all predecessors), a landing pad past it is not.
        let jumps_inside = cand.insns.iter().enumerate().any(|(idx, insn)| {
            if (window.start..window.end).contains(&idx) {
                return false;
            }
            insn.jump_target(idx)
                .is_some_and(|t| t > window.start as i64 && t < window.end as i64)
        });
        if jumps_inside {
            return None;
        }
        let fingerprint = fingerprint_of(&src.insns);
        if !matches!(&self.window_ctx, Some((fp, _)) if *fp == fingerprint) {
            self.window_ctx = Some((fingerprint, WindowContext::new(src)));
        }
        let ctx = self
            .window_ctx
            .as_ref()
            .expect("just inserted")
            .1
            .as_ref()?;
        let (outcome, us) = check_window_with(
            ctx,
            src,
            window,
            &cand.insns[window.start..window.end],
            &self.options.encode_options(),
        );
        self.stats.window_time_us += us;
        self.telemetry.time_us("equiv.window", us);
        match outcome {
            EquivOutcome::Equivalent => {
                self.stats.window_hits += 1;
                Some(EquivOutcome::Equivalent)
            }
            // A window mismatch is *not* a whole-program verdict: the
            // window's free entry state over-approximates what actually
            // reaches it, so only the full check may conclude NotEquivalent
            // (and produce a counterexample input).
            _ => {
                self.stats.window_fallbacks += 1;
                None
            }
        }
    }

    fn cached_outcome(verdict: CachedVerdict) -> EquivOutcome {
        match verdict {
            CachedVerdict::Equivalent => EquivOutcome::Equivalent,
            CachedVerdict::NotEquivalent => EquivOutcome::NotEquivalent(None),
            CachedVerdict::Unknown => EquivOutcome::Unknown("cached".into()),
        }
    }

    /// Check without consulting the cache (used directly by benchmarks): a
    /// one-shot solve over a fresh term pool, whose SAT model is the
    /// counterexample.
    pub fn check_uncached(&mut self, src: &Program, cand: &Program) -> EquivOutcome {
        let start = Instant::now();
        let telemetry = self.telemetry.clone();
        let mut pool = TermPool::new();
        let mut encoder = Encoder::new(&mut pool, self.options.encode_options());

        // The encode span covers formula construction up to (but not
        // including) bit-blasting; an encode failure still records the
        // time spent failing (the span drops on the early return).
        let encode_span = telemetry.span("equiv.encode");
        let enc_src = match encoder.encode_program(src, 0) {
            Ok(e) => e,
            Err(e) => return self.finish(outcome_of_error(e), start),
        };
        let enc_cand = match encoder.encode_program(cand, 1) {
            Ok(e) => e,
            Err(e) => return self.finish(outcome_of_error(e), start),
        };
        let call_compat = match encoder.call_logs_compatible(&enc_src, &enc_cand) {
            Some(c) => c,
            None => return self.finish(EquivOutcome::NotEquivalent(None), start),
        };
        let out_diff = encoder.output_difference(&enc_src, &enc_cand);
        let calls_differ = {
            let p = encoder.pool();
            p.not(call_compat)
        };
        let differ = {
            let p = encoder.pool();
            p.or(out_diff, calls_differ)
        };
        let constraints = encoder.constraints.clone();
        encode_span.finish();

        // Solve. The solver needs the pool mutably, so run it in a scope that
        // does not touch the encoder, then use the model with the encoder's
        // read-only metadata for counterexample extraction.
        let (result, solver_stats) = {
            let mut solver = Solver::new(encoder.pool());
            solver.set_telemetry(telemetry.clone());
            if let Some(memo) = &self.memo {
                solver.set_memo(Arc::clone(memo));
            }
            for c in &constraints {
                solver.assert(*c);
            }
            solver.assert(differ);
            (solver.check(), solver.stats)
        };
        self.stats.memo_hits += u64::from(solver_stats.memo_hit);
        self.last_solve = solver_stats;

        let outcome = match result {
            CheckResult::Unsat => EquivOutcome::Equivalent,
            CheckResult::Sat(model) => {
                let input = input_from_model(&encoder, &model, src);
                EquivOutcome::NotEquivalent(Some(Box::new(input)))
            }
        };
        self.finish(outcome, start)
    }

    fn finish(&mut self, outcome: EquivOutcome, start: Instant) -> EquivOutcome {
        let us = start.elapsed().as_micros() as u64;
        self.stats.queries += 1;
        self.stats.total_time_us += us;
        self.last_time_us = us;
        outcome
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bpf_interp::run;
    use bpf_isa::{asm, ProgramType};

    fn xdp(text: &str) -> Program {
        Program::new(ProgramType::Xdp, asm::assemble(text).unwrap())
    }

    #[test]
    fn checker_accepts_equivalent_rewrite() {
        let src = xdp("mov64 r0, 5\nadd64 r0, 7\nexit");
        let cand = xdp("mov64 r0, 12\nexit");
        let mut checker = EquivChecker::new(EquivOptions::default());
        assert!(checker.check(&src, &cand).is_equivalent());
        assert_eq!(checker.stats.queries, 1);
        assert!(checker.last_solve.cnf_clauses > 0 || checker.last_solve.cnf_vars == 0);
    }

    #[test]
    fn checker_rejects_wrong_rewrite_with_counterexample() {
        let src = xdp("ldxdw r2, [r1+0]\nldxdw r3, [r1+8]\nmov64 r0, r3\nsub64 r0, r2\nexit");
        let cand = xdp("mov64 r0, 64\nexit");
        let mut checker = EquivChecker::new(EquivOptions::default());
        match checker.check(&src, &cand) {
            EquivOutcome::NotEquivalent(Some(input)) => {
                // The counterexample must actually distinguish the programs.
                let a = run(&src, &input).expect("src runs");
                let b = run(&cand, &input).expect("cand runs");
                assert_ne!(a.output.ret, b.output.ret);
            }
            other => panic!("expected a counterexample, got {other:?}"),
        }
    }

    #[test]
    fn cache_short_circuits_repeat_queries() {
        let src = xdp("mov64 r0, 3\nexit");
        let cand = xdp("mov64 r0, 3\nexit");
        let mut checker = EquivChecker::new(EquivOptions::default());
        assert!(checker.check(&src, &cand).is_equivalent());
        assert!(checker.check(&src, &cand).is_equivalent());
        // Only the first check reached the solver.
        assert_eq!(checker.stats.queries, 1);
        assert_eq!(checker.cache().stats().hits, 1);
    }

    #[test]
    fn shared_cache_layer_answers_after_publication() {
        let src = xdp("mov64 r0, 3\nexit");
        let cand = xdp("mov64 r0, 1\nadd64 r0, 2\nexit");
        let shared = Arc::new(EquivCache::new());
        let mut a = EquivChecker::with_shared_cache(EquivOptions::default(), Arc::clone(&shared));
        let mut b = EquivChecker::with_shared_cache(EquivOptions::default(), Arc::clone(&shared));

        // Chain A solves the query and publishes at the barrier.
        assert!(a.check(&src, &cand).is_equivalent());
        assert_eq!(a.stats.cache_misses, 1);
        assert!(a.publish_cache() >= 1);
        assert!(a.cache().is_empty(), "publication drains the private delta");

        // Chain B is answered by the shared layer without a solver query.
        assert!(b.check(&src, &cand).is_equivalent());
        assert_eq!(b.stats.queries, 0);
        assert_eq!(b.stats.shared_cache_hits, 1);
        assert!((b.stats.cache_stats().hit_rate() - 1.0).abs() < 1e-9);
        assert_eq!(shared.stats().hits, 1);

        // A's next check of the same candidate also hits the shared layer
        // (its private delta was drained).
        assert!(a.check(&src, &cand).is_equivalent());
        assert_eq!(a.stats.shared_cache_hits, 1);
        assert_eq!(a.stats.queries, 1);
    }

    #[test]
    fn windowed_check_resolves_straight_line_rewrites_without_full_queries() {
        // r3 is known to be 4 entering the window, so the context-dependent
        // mul -> shift rewrite is provable window-locally (§5.IV).
        let src = xdp("mov64 r3, 4\nmov64 r1, 10\nmul64 r1, r3\nmov64 r0, r1\nexit");
        let cand = xdp("mov64 r3, 4\nmov64 r1, 10\nlsh64 r1, 2\nmov64 r0, r1\nexit");
        let region = Some(Window { start: 2, end: 3 });
        let mut checker = EquivChecker::new(EquivOptions::default());
        assert!(checker.check_in_window(&src, &cand, region).is_equivalent());
        assert_eq!(checker.stats.window_hits, 1);
        assert_eq!(checker.stats.window_fallbacks, 0);
        assert_eq!(checker.stats.queries, 0, "no full-program query was built");
        // The window verdict entered the layered cache.
        assert!(checker.check(&src, &cand).is_equivalent());
        assert_eq!(checker.stats.cache_hits, 1);
        assert_eq!(checker.stats.queries, 0);
    }

    #[test]
    fn windowed_check_falls_back_and_still_finds_counterexamples() {
        // The rewrite is wrong (r3 == 3, not 4): the window refutes it, and
        // the full check must still run and produce a counterexample.
        let src = xdp("ldxdw r2, [r1+0]\nldxdw r3, [r1+8]\nmov64 r0, r3\nsub64 r0, r2\nexit");
        let cand = xdp("ldxdw r2, [r1+0]\nldxdw r3, [r1+8]\nmov64 r0, r3\nadd64 r0, r2\nexit");
        let region = Some(Window { start: 3, end: 4 });
        let mut checker = EquivChecker::new(EquivOptions::default());
        match checker.check_in_window(&src, &cand, region) {
            EquivOutcome::NotEquivalent(Some(_)) => {}
            other => panic!("expected a counterexample, got {other:?}"),
        }
        assert_eq!(checker.stats.window_hits, 0);
        assert_eq!(checker.stats.window_fallbacks, 1);
        assert_eq!(
            checker.stats.queries, 1,
            "full check ran after the fallback"
        );
    }

    #[test]
    fn windowed_and_full_checks_agree_on_verdicts() {
        // The windowed path is a pure optimization: across a spread of
        // single-instruction rewrites, verdicts match the full check exactly.
        let src =
            xdp("mov64 r3, 4\nmov64 r1, 10\nmul64 r1, r3\nstxdw [r10-8], r1\nmov64 r0, r1\nexit");
        let rewrites: &[(usize, &str)] = &[
            (2, "lsh64 r1, 2"),      // valid under the r3 == 4 precondition
            (2, "lsh64 r1, 3"),      // wrong
            (1, "mov64 r1, 10"),     // identity
            (3, "stxw [r10-8], r1"), // narrower store: changes live memory
        ];
        for &(idx, text) in rewrites {
            let mut insns = src.insns.clone();
            insns[idx] = bpf_isa::asm::assemble(text).unwrap()[0];
            let cand = src.with_insns(insns);
            let region = Some(Window {
                start: idx,
                end: idx + 1,
            });
            let mut with = EquivChecker::new(EquivOptions::default());
            let mut without = EquivChecker::new(EquivOptions {
                window_verification: false,
                ..EquivOptions::default()
            });
            let a = with.check_in_window(&src, &cand, region).is_equivalent();
            let b = without.check_in_window(&src, &cand, region).is_equivalent();
            assert_eq!(a, b, "verdict drift on rewrite {text:?} at {idx}");
            assert_eq!(without.stats.window_hits, 0);
            assert_eq!(without.stats.window_fallbacks, 0);
        }
    }

    #[test]
    fn window_context_rebinds_when_the_source_changes() {
        // The lazily built window analysis is fingerprinted: reusing one
        // checker against a different source must rebuild it, not apply the
        // old program's preconditions (r3 == 4 below) to the new one
        // (r3 == 3), and must not index a shorter program's analysis.
        let opts = EquivOptions {
            enable_cache: false,
            ..EquivOptions::default()
        };
        let mut checker = EquivChecker::new(opts);
        let src_a = xdp("mov64 r3, 4\nmov64 r1, 10\nmul64 r1, r3\nmov64 r0, r1\nexit");
        let mut cand_a = src_a.insns.clone();
        cand_a[2] = asm::assemble("lsh64 r1, 2").unwrap()[0];
        let cand_a = src_a.with_insns(cand_a);
        let region = Some(Window { start: 2, end: 3 });
        assert!(checker
            .check_in_window(&src_a, &cand_a, region)
            .is_equivalent());
        assert_eq!(checker.stats.window_hits, 1);

        // Same rewrite against a source where it is wrong (r3 == 3): a stale
        // context would window-prove it with r3 == 4 as the precondition.
        let src_b = xdp("mov64 r3, 3\nmov64 r1, 10\nmul64 r1, r3\nmov64 r0, r1\nexit");
        let mut cand_b = src_b.insns.clone();
        cand_b[2] = asm::assemble("lsh64 r1, 2").unwrap()[0];
        let cand_b = src_b.with_insns(cand_b);
        assert!(!checker
            .check_in_window(&src_b, &cand_b, region)
            .is_equivalent());

        // A shorter source with a rewrite near its end: a stale longer
        // analysis would be indexed out of bounds without the rebind.
        let src_c = xdp("mov64 r0, 5\nadd64 r0, 7\nexit");
        let cand_c = xdp("mov64 r0, 5\nadd64 r0, 7\nexit");
        let region_c = Some(Window { start: 1, end: 2 });
        assert!(checker
            .check_in_window(&src_c, &cand_c, region_c)
            .is_equivalent());
    }

    #[test]
    fn window_does_not_trust_helper_read_stack_bytes() {
        // Regression for the stack-liveness soundness hole: the map key at
        // [r10-4] is read by map_lookup_elem through the r2 pointer, and the
        // lookup result is observable. Rewriting *which register* is stored
        // as the key (r7 = 1 vs r6 = 2) changes behaviour, so the windowed
        // path must refute or fall back — never return Equivalent.
        let text = "mov64 r7, 1\nmov64 r6, 2\nstxw [r10-4], r7\nmov64 r2, r10\n\
                    add64 r2, -4\nld_map_fd r1, 1\ncall map_lookup_elem\n\
                    jeq r0, 0, +1\nldxdw r0, [r0+0]\nexit";
        let mut src = Program::new(bpf_isa::ProgramType::Xdp, asm::assemble(text).unwrap());
        src.maps = vec![bpf_isa::MapDef {
            id: bpf_isa::MapId(1),
            kind: bpf_isa::MapKind::Hash,
            key_size: 4,
            value_size: 8,
            max_entries: 4,
        }];
        let mut cand_insns = src.insns.clone();
        cand_insns[2] = asm::assemble("stxw [r10-4], r6").unwrap()[0];
        let cand = src.with_insns(cand_insns);
        let region = Some(Window { start: 2, end: 3 });
        let mut with = EquivChecker::new(EquivOptions {
            enable_cache: false,
            ..EquivOptions::default()
        });
        let windowed = with.check_in_window(&src, &cand, region);
        let mut without = EquivChecker::new(EquivOptions {
            enable_cache: false,
            window_verification: false,
            ..EquivOptions::default()
        });
        let full = without.check(&src, &cand);
        assert!(
            !full.is_equivalent(),
            "keys 1 and 2 look up different values"
        );
        assert!(
            !windowed.is_equivalent(),
            "window accepted a rewrite of a helper-read key byte"
        );
        assert_eq!(with.stats.window_hits, 0);
    }

    #[test]
    fn window_path_requires_a_region_and_skips_branchy_spans() {
        let src = xdp("mov64 r0, 5\nadd64 r0, 7\nexit");
        let cand = xdp("mov64 r0, 12\nadd64 r0, 0\nexit");
        let mut checker = EquivChecker::new(EquivOptions::default());
        // Plain check (no region): the windowed path must not engage.
        assert!(checker.check(&src, &cand).is_equivalent());
        assert_eq!(
            checker.stats.window_hits + checker.stats.window_fallbacks,
            0
        );
        assert_eq!(checker.stats.queries, 1);

        // A rewrite that replaces a jump is not straight-line: full check.
        let src_j = xdp("mov64 r0, 1\njeq r0, 0, +0\nmov64 r2, 2\nexit");
        let cand_j = xdp("mov64 r0, 1\nmov64 r3, 3\nmov64 r2, 2\nexit");
        let mut checker_j = EquivChecker::new(EquivOptions::default());
        let region = Some(Window { start: 1, end: 2 });
        let outcome = checker_j.check_in_window(&src_j, &cand_j, region);
        assert!(outcome.is_equivalent(), "{outcome:?}");
        assert_eq!(checker_j.stats.window_hits, 0);
        assert_eq!(checker_j.stats.queries, 1);
    }

    #[test]
    fn stats_count_resolution_paths_and_verdicts_and_telemetry_times_checks() {
        use k2_telemetry::{Recorder, Telemetry};
        let recorder = Arc::new(Telemetry::new());
        let mut checker = EquivChecker::new(EquivOptions::default());
        checker.set_telemetry(TelemetryRef::new(recorder.clone()));
        let src = xdp("mov64 r0, 5\nadd64 r0, 7\nexit");
        let good = xdp("mov64 r0, 12\nexit");
        let bad = xdp("mov64 r0, 13\nexit");
        assert!(checker.check(&src, &good).is_equivalent());
        assert!(checker.check(&src, &good).is_equivalent()); // private cache hit
        assert!(!checker.check(&src, &bad).is_equivalent());
        assert_eq!(checker.stats.queries, 2);
        assert_eq!(checker.stats.cache_hits, 1);
        assert_eq!(checker.stats.equivalent_verdicts, 2);
        assert_eq!(checker.stats.not_equivalent_verdicts, 1);
        assert_eq!(checker.stats.unknown_verdicts, 0);
        let snap = recorder.snapshot();
        assert_eq!(snap.timer("equiv.check").unwrap().count, 3);
        // Two cache misses reach the solver: one encode and one solve each.
        assert_eq!(snap.timer("equiv.encode").unwrap().count, 2);
        assert_eq!(snap.timer("bitsmt.solve").unwrap().count, 2);
        assert!(snap.counter("bitsmt.cnf_clauses") > 0);
        assert_eq!(snap.distinct, vec![("equiv.fingerprint".to_string(), 2)]);

        // The windowed fast path counts as a window hit.
        let wsrc = xdp("mov64 r3, 4\nmov64 r1, 10\nmul64 r1, r3\nmov64 r0, r1\nexit");
        let wcand = xdp("mov64 r3, 4\nmov64 r1, 10\nlsh64 r1, 2\nmov64 r0, r1\nexit");
        let mut windowed = EquivChecker::new(EquivOptions::default());
        windowed.set_telemetry(TelemetryRef::new(recorder.clone()));
        let region = Some(Window { start: 2, end: 3 });
        assert!(windowed
            .check_in_window(&wsrc, &wcand, region)
            .is_equivalent());
        assert_eq!(windowed.stats.window_hits, 1);
        assert_eq!(windowed.stats.equivalent_verdicts, 1);
        let snap = recorder.snapshot();
        assert_eq!(snap.timer("equiv.window").unwrap().count, 1);
    }

    #[test]
    fn optimizations_do_not_change_verdicts() {
        let src = xdp("mov64 r6, 7\nstxdw [r10-8], r6\nldxdw r0, [r10-8]\nadd64 r0, 1\nexit");
        let good = xdp("mov64 r0, 8\nexit");
        let bad = xdp("mov64 r0, 9\nexit");
        for opts in [
            EquivOptions::default(),
            EquivOptions {
                offset_concretization: false,
                ..EquivOptions::default()
            },
            EquivOptions {
                memory_type_concretization: false,
                offset_concretization: false,
                ..EquivOptions::default()
            },
            EquivOptions::none(),
        ] {
            let mut checker = EquivChecker::new(opts);
            assert!(checker.check(&src, &good).is_equivalent(), "{opts:?}");
            assert!(!checker.check(&src, &bad).is_equivalent(), "{opts:?}");
        }
    }

    #[test]
    fn helper_sequence_mismatch_is_not_equivalent() {
        let src = xdp("mov64 r1, r1\nmov64 r2, -2\ncall perf_event_output\nmov64 r0, 0\nexit");
        let cand = xdp("mov64 r0, 0\nexit");
        let mut checker = EquivChecker::new(EquivOptions::default());
        assert!(!checker.check(&src, &cand).is_equivalent());
    }

    #[test]
    fn moving_the_packet_head_is_not_encoded() {
        let src = xdp("mov64 r2, -2\ncall xdp_adjust_head\nmov64 r0, 0\nexit");
        let mut checker = EquivChecker::new(EquivOptions::default());
        assert!(matches!(
            checker.check_uncached(&src, &src),
            EquivOutcome::Unknown(_)
        ));
    }

    #[test]
    fn loops_report_unknown() {
        let src = xdp("mov64 r0, 0\nexit");
        let cand = Program::new(
            ProgramType::Xdp,
            vec![
                bpf_isa::Insn::mov64_imm(bpf_isa::Reg::R0, 0),
                bpf_isa::Insn::Ja { off: -2 },
                bpf_isa::Insn::Exit,
            ],
        );
        let mut checker = EquivChecker::new(EquivOptions::default());
        assert!(matches!(
            checker.check(&src, &cand),
            EquivOutcome::Unknown(_)
        ));
    }

    #[test]
    fn refuter_short_circuits_not_equivalent_candidates() {
        use crate::refute::Refuter;
        // The source computes the packet length (data_end - data); the
        // candidate hard-codes 64. The refuter's varied-length batch
        // refutes this in microseconds — no solver query is built.
        let src = xdp("ldxdw r2, [r1+0]\nldxdw r3, [r1+8]\nmov64 r0, r3\nsub64 r0, r2\nexit");
        let cand = xdp("mov64 r0, 64\nexit");
        let mut checker = EquivChecker::new(EquivOptions::default());
        checker.set_refuter(Refuter::new(
            &src,
            bpf_interp::BackendKind::Auto,
            32,
            0xbeef,
        ));
        match checker.check(&src, &cand) {
            EquivOutcome::NotEquivalent(Some(input)) => {
                let a = run(&src, &input).expect("src runs");
                let b = run(&cand, &input).expect("cand runs");
                assert_ne!(a.output, b.output, "witness must distinguish");
            }
            other => panic!("expected a refutation counterexample, got {other:?}"),
        }
        assert_eq!(checker.stats.refuted_by_testing, 1);
        assert_eq!(checker.stats.smt_escalations, 0);
        assert_eq!(checker.stats.queries, 0, "no solver query was built");
        // The refuted verdict entered the layered cache like any other.
        assert!(!checker.check(&src, &cand).is_equivalent());
        assert_eq!(checker.stats.cache_hits, 1);

        // A candidate the batch cannot refute escalates to the solver.
        let subtle = xdp(
            "ldxdw r2, [r1+0]\nldxdw r3, [r1+8]\nmov64 r0, r3\nsub64 r0, r2\nadd64 r0, 0\nexit",
        );
        assert!(checker.check(&src, &subtle).is_equivalent());
        assert_eq!(checker.stats.smt_escalations, 1);
        assert_eq!(checker.stats.queries, 1);
    }

    #[test]
    fn free_function_agrees_with_checker() {
        let src = xdp("mov64 r0, 4\nexit");
        let cand = xdp("mov64 r0, 2\nadd64 r0, 2\nexit");
        let (outcome, us) = check_equivalence(&src, &cand, &EquivOptions::default());
        assert!(outcome.is_equivalent());
        assert!(us > 0);
    }
}
