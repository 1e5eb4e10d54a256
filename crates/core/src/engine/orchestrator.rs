//! The epoch-based chain orchestrator.
//!
//! Chains run in epochs (`iterations / num_epochs` steps each) and meet at a
//! deterministic barrier after every epoch, where — in chain-index order —
//! they publish their private equivalence-cache deltas into the shared
//! cross-chain cache, deposit the counterexamples they discovered, absorb
//! the merged (sorted, deduplicated) pool into their test suites, and update
//! the global best. Because every exchange happens only at barriers and the
//! merged data is schedule-independent, a sequential run, a parallel run,
//! and a re-run with the same seed all walk identical trajectories.

use crate::compiler::CompilerOptions;
use crate::cost::{CostFunction, CostStats};
use crate::params::EngineConfig;
use crate::proposals::ProposalGenerator;
use crate::search::{ChainStats, MarkovChain};
use bpf_equiv::{CacheStats, EquivStats};
use bpf_interp::BackendKind;
use bpf_isa::Program;
use k2_telemetry::{TelemetryRef, TelemetrySnapshot};
use std::sync::Arc;
use std::time::Instant;

use super::context::SearchContext;
use super::events::{SearchEvent, StopReason};

/// What one chain contributes to the engine outcome.
#[derive(Debug, Clone)]
pub struct ChainOutcome {
    /// The parameter-setting id the chain ran with.
    pub param_id: usize,
    /// Best equivalent-and-safe program found and its performance cost.
    pub best: Option<(Program, f64)>,
    /// Run statistics.
    pub stats: ChainStats,
    /// Final test-suite size (initial tests + own and exchanged
    /// counterexamples).
    pub tests: usize,
}

/// Aggregated engine-level statistics of one compilation.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EngineReport {
    /// Epochs the schedule planned.
    pub epochs_planned: u64,
    /// Epochs actually run (smaller on early exit).
    pub epochs_run: u64,
    /// Whether the stall-epochs convergence criterion stopped the search.
    pub early_exit: bool,
    /// Whether the wall-clock budget (`K2_TIME_BUDGET_MS`) stopped it.
    pub time_budget_hit: bool,
    /// Whether the cross-chain cache was shared.
    pub shared_cache_enabled: bool,
    /// Whether counterexamples were exchanged at barriers.
    pub exchange_enabled: bool,
    /// Equivalence statistics summed over all chains (solver queries, cache
    /// hits per layer, solver time).
    pub equiv: EquivStats,
    /// Safety-checker statistics summed over all chains (candidates walked,
    /// found safe and unsafe, instructions examined). A candidate still in
    /// its chain's evaluation memo keeps its verdict and is not walked again.
    pub safety: bpf_safety::SafetyStats,
    /// Combined verdict-cache statistics: hits through either layer vs.
    /// checks that had to query the solver.
    pub cache: CacheStats,
    /// The shared layer's own lookup statistics — its hit count is exactly
    /// the number of solver queries some chain saved because *another* chain
    /// (or an earlier epoch) had already proved the verdict.
    pub shared_cache: CacheStats,
    /// Cost-function statistics summed over all chains: evaluations, test
    /// runs, evaluation-memo hits and early rejections.
    pub cost: CostStats,
    /// Sum over chains of the most bytes each chain's evaluation memo held
    /// ([`CostFunction::eval_memo_peak_bytes`]). Deterministic for a fixed
    /// seed.
    pub eval_memo_peak_bytes: u64,
    /// Entries in the shared cache at the end of the run.
    pub shared_cache_entries: usize,
    /// CNF bytes the compilation's solve memo retained at the end of the
    /// run. Each distinct formula is stored once, so this is deterministic
    /// for a fixed seed (unlike [`EquivStats::memo_hits`]).
    pub solve_memo_bytes: u64,
    /// Counterexamples in the merged cross-chain pool.
    pub counterexample_pool: usize,
    /// Test cases chains imported from other chains' counterexamples.
    pub counterexamples_exchanged: u64,
    /// Wall-clock time of the whole engine run, in microseconds.
    pub wall_time_us: u64,
    /// Wall-clock time (from engine start, barrier granularity) at which the
    /// global best last improved; zero when the search never beat the source
    /// program (the best was available at t = 0).
    pub time_to_best_us: u64,
    /// Time this compilation waited in [`super::run_batch`]'s queue before a
    /// worker picked it up, in microseconds. Zero for direct
    /// [`run_search`]/[`crate::optimize_with`] calls; filled by `run_batch`.
    pub queue_wait_us: u64,
    /// Per-compilation telemetry snapshot: solver-phase timing, per-rule
    /// accept/reject counters, the `equiv.*`/`safety.*`/`cost.*` counts of
    /// the summed statistics above, query fingerprints. Empty
    /// unless a recorder is attached ([`crate::CompilerOptions::telemetry`]).
    /// Count-valued fields are deterministic for a fixed seed; wall-clock
    /// fields are not (mask with [`TelemetrySnapshot::counts_only`] before
    /// comparing runs).
    pub telemetry: TelemetrySnapshot,
}

/// The outcome of one engine run: per-chain results plus the report.
#[derive(Debug, Clone)]
pub struct EngineOutcome {
    /// One outcome per configured chain, in parameter order.
    pub chains: Vec<ChainOutcome>,
    /// Aggregated statistics.
    pub report: EngineReport,
}

/// Split `iterations` into `epochs` slices whose sum is exactly
/// `iterations` (earlier epochs absorb the remainder).
fn epoch_schedule(iterations: u64, epochs: u64) -> Vec<u64> {
    let epochs = epochs.clamp(1, iterations.max(1));
    let base = iterations / epochs;
    let rem = iterations % epochs;
    (0..epochs).map(|e| base + u64::from(e < rem)).collect()
}

/// Run one epoch: every chain advances `steps` iterations, on its own thread
/// when parallelism is requested. Chains derive their randomness from
/// per-chain RNG streams and only read the (frozen) shared cache, so the
/// parallel and sequential paths are interchangeable.
fn run_epoch(chains: &mut [MarkovChain], steps: u64, parallel: bool) {
    if steps == 0 {
        return;
    }
    if parallel && chains.len() > 1 {
        std::thread::scope(|scope| {
            for chain in chains.iter_mut() {
                scope.spawn(move || {
                    chain.run(steps);
                });
            }
        });
    } else {
        for chain in chains.iter_mut() {
            chain.run(steps);
        }
    }
}

/// Run the epoch-based multi-chain search for one source program.
///
/// The configuration is taken exactly as given: environment overrides are a
/// concern of the `k2::api` layer, which resolves them *before* building the
/// options. Progress is streamed to `opts.sink` as [`SearchEvent`]s.
pub fn run_search(src: &Program, opts: &CompilerOptions) -> EngineOutcome {
    let cfg: EngineConfig = opts.engine;
    let sink = &opts.sink;
    let start = Instant::now();
    let mut ctx = SearchContext::new();

    // Per-compilation telemetry collector. A local collector (rather than
    // recording straight into `opts.telemetry`) keeps the snapshot scoped to
    // this run even when one recorder is shared across batch jobs; the local
    // totals are folded into the caller's recorder at the end.
    let telemetry = if opts.telemetry.is_enabled() {
        TelemetryRef::collector()
    } else {
        TelemetryRef::none()
    };

    // Build the chains in parameter order; each derives its own seed from
    // the base seed exactly as the pre-engine driver did.
    let mut param_ids = Vec::with_capacity(opts.params.len());
    let mut chains: Vec<MarkovChain> = opts
        .params
        .iter()
        .enumerate()
        .map(|(idx, params)| {
            let seed = opts
                .seed
                .wrapping_add(0x9e37_79b9_7f4a_7c15u64.wrapping_mul(idx as u64 + 1));
            let mut cost_settings = params.cost;
            if opts.backend != BackendKind::Auto {
                cost_settings.backend = opts.backend;
            }
            cost_settings.window_verification = opts.window_verification;
            cost_settings.refute_inputs = opts.refute_inputs;
            let shared = cfg.shared_cache.then(|| Arc::clone(ctx.cache()));
            let mut cost = CostFunction::with_shared_cache(
                src,
                cost_settings,
                opts.goal,
                opts.num_tests,
                seed,
                shared,
            );
            cost.set_telemetry(telemetry.clone());
            cost.set_solve_memo(Arc::clone(ctx.solve_memo()));
            let generator = ProposalGenerator::new(src, params.rules, seed);
            param_ids.push(params.id);
            MarkovChain::new(cost, generator, seed)
        })
        .collect();

    let schedule = epoch_schedule(opts.iterations, cfg.num_epochs);
    let mut report = EngineReport {
        epochs_planned: schedule.len() as u64,
        shared_cache_enabled: cfg.shared_cache,
        exchange_enabled: cfg.exchange_counterexamples,
        ..EngineReport::default()
    };

    // Seed the global best with the source program so "improvement" means
    // strictly beating it (each chain also starts from the source).
    if let Some(first) = chains.first() {
        let src_perf = first.cost_function().src_perf_cost();
        ctx.observe_best(src, src_perf);
    }

    sink.emit(SearchEvent::Started {
        chains: chains.len(),
        epochs_planned: report.epochs_planned,
        iterations: opts.iterations,
    });

    let mut stall = 0u64;
    let mut ever_improved = false;
    for (epoch_idx, steps) in schedule.iter().enumerate() {
        let epoch = epoch_idx as u64 + 1;
        let epoch_span = telemetry.span("core.epoch");
        run_epoch(&mut chains, *steps, opts.parallel);
        epoch_span.finish();
        report.epochs_run += 1;

        // --- barrier: all exchanges happen here, in chain-index order ---

        // 1. Publish cache deltas (a no-op per chain unless the shared
        //    layer is enabled) and, when exchanging, pool the fresh
        //    counterexamples — skipping the collect/sort/dedup entirely
        //    otherwise, so disabled exchange costs nothing.
        let mut fresh = Vec::new();
        for chain in chains.iter_mut() {
            let cost = chain.cost_function_mut();
            cost.publish_cache();
            if cfg.exchange_counterexamples {
                fresh.extend(cost.take_counterexamples());
            }
        }
        ctx.merge_counterexamples(fresh);

        // 2. Grow every chain's test suite from the merged pool; a chain
        //    whose suite grew re-evaluates its current program so the next
        //    acceptance decision compares costs under the same suite.
        if cfg.exchange_counterexamples && !ctx.pool().is_empty() {
            for chain in chains.iter_mut() {
                let added = chain.cost_function_mut().add_tests(ctx.pool());
                if added > 0 {
                    report.counterexamples_exchanged += added as u64;
                    chain.refresh_current();
                }
            }
        }

        // 3. Update the global best (chain order ⇒ deterministic ties).
        let mut improved = false;
        for chain in chains.iter() {
            if let Some((prog, cost)) = chain.best() {
                improved |= ctx.observe_best(prog, *cost);
            }
        }
        if improved {
            report.time_to_best_us = start.elapsed().as_micros() as u64;
            stall = 0;
            ever_improved = true;
        } else {
            stall += 1;
        }

        // Stream the barrier to observers: new-best first (if any), then the
        // aggregated solver/cache counters, then the barrier marker itself.
        // All payloads are barrier-synchronized state, so the sequence is
        // deterministic for a fixed seed.
        let (best_cost, best_insns) = ctx
            .best()
            .map(|(prog, cost)| (*cost, prog.real_len()))
            .unwrap_or((f64::INFINITY, 0));
        if improved {
            sink.emit(SearchEvent::NewGlobalBest {
                epoch,
                cost: best_cost,
                insns: best_insns,
            });
        }
        if sink.is_set() {
            let mut equiv = EquivStats::default();
            for chain in chains.iter() {
                equiv.absorb(&chain.cost_function().equiv_stats());
            }
            sink.emit(SearchEvent::SolverStats {
                epoch,
                equiv: equiv.counts_only(),
                shared_cache_entries: ctx.cache().len(),
                counterexample_pool: ctx.pool().len(),
            });
        }
        sink.emit(SearchEvent::EpochBarrier {
            epoch,
            steps: *steps,
            best_cost,
            best_insns,
            improved,
        });

        // 4. Optionally restart stragglers from the global best.
        if cfg.restart_from_best {
            if let Some((best_prog, best_cost)) = ctx.best().cloned() {
                for chain in chains.iter_mut() {
                    if chain.best_cost().is_none_or(|c| c > best_cost) {
                        chain.restart_from(&best_prog);
                    }
                }
            }
        }

        // 5. Convergence and wall-clock budget, checked between epochs.
        let is_last = epoch_idx + 1 == schedule.len();
        if !is_last {
            if let Some(n) = cfg.stall_epochs {
                if stall >= n.max(1) {
                    report.early_exit = true;
                    sink.emit(SearchEvent::BudgetExhausted {
                        epoch,
                        reason: StopReason::StallEpochs,
                    });
                    break;
                }
            }
            if let Some(ms) = cfg.time_budget_ms {
                if start.elapsed().as_millis() as u64 >= ms {
                    report.time_budget_hit = true;
                    sink.emit(SearchEvent::BudgetExhausted {
                        epoch,
                        reason: StopReason::TimeBudget,
                    });
                    break;
                }
            }
        }
    }

    // Sum the per-chain statistics.
    for chain in chains.iter() {
        let cost = chain.cost_function();
        report.equiv.absorb(&cost.equiv_stats());
        report.safety.absorb(&cost.safety_stats());
        report.cost.absorb(&cost.stats);
        report.eval_memo_peak_bytes += cost.eval_memo_peak_bytes();
    }

    // Surface the run's telemetry, with the summed counts folded in as
    // counters: the counts-only projection goes out as an event (so it
    // stays deterministic like every other event), the full snapshot —
    // timings included — lands on the report and is folded into the
    // caller's recorder.
    let counts = report.equiv.counts().chain(report.safety.counts());
    for (name, value) in counts.chain(report.cost.counts()) {
        telemetry.count(name, value);
    }
    if let Some(snapshot) = telemetry.snapshot() {
        sink.emit(SearchEvent::Telemetry {
            counts: snapshot.counts_only(),
        });
        opts.telemetry.absorb(&snapshot);
        report.telemetry = snapshot;
    }

    sink.emit(SearchEvent::Finished {
        epochs_run: report.epochs_run,
        improved: ever_improved,
    });

    let outcomes: Vec<ChainOutcome> = chains
        .into_iter()
        .zip(param_ids)
        .map(|(chain, param_id)| ChainOutcome {
            param_id,
            best: chain.best().cloned(),
            stats: chain.stats,
            tests: chain.cost_function().num_tests(),
        })
        .collect();
    report.cache = report.equiv.cache_stats();
    report.shared_cache = ctx.cache().stats();
    report.shared_cache_entries = ctx.cache().len();
    report.solve_memo_bytes = ctx.solve_memo().bytes();
    report.counterexample_pool = ctx.pool().len();
    report.wall_time_us = start.elapsed().as_micros() as u64;

    EngineOutcome {
        chains: outcomes,
        report,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::SearchParams;
    use bpf_isa::{asm, ProgramType};

    fn xdp(text: &str) -> Program {
        Program::new(ProgramType::Xdp, asm::assemble(text).unwrap())
    }

    fn options(iterations: u64, engine: EngineConfig) -> CompilerOptions {
        CompilerOptions {
            iterations,
            params: SearchParams::table8().into_iter().take(2).collect(),
            num_tests: 8,
            engine,
            ..CompilerOptions::default()
        }
    }

    #[test]
    fn schedule_preserves_the_iteration_budget() {
        for (iters, epochs) in [(200, 4), (7, 3), (1, 4), (0, 4), (10, 1), (3, 8)] {
            let schedule = epoch_schedule(iters, epochs);
            assert_eq!(schedule.iter().sum::<u64>(), iters, "{iters}/{epochs}");
            assert!(!schedule.is_empty());
            assert!(schedule.len() as u64 <= epochs.max(1));
        }
    }

    #[test]
    fn chains_run_the_full_budget_across_epochs() {
        let src = xdp("mov64 r0, 5\nadd64 r0, 7\nadd64 r0, 0\nexit");
        let outcome = run_search(&src, &options(203, EngineConfig::default()));
        assert_eq!(outcome.report.epochs_run, 4);
        for chain in &outcome.chains {
            assert_eq!(chain.stats.iterations, 203);
        }
    }

    #[test]
    fn shared_cache_collects_entries_and_lookups() {
        let src = xdp("mov64 r0, 5\nadd64 r0, 7\nadd64 r0, 0\nmov64 r3, 1\nexit");
        let outcome = run_search(&src, &options(1200, EngineConfig::default()));
        let report = outcome.report;
        assert!(report.shared_cache_enabled);
        assert!(
            report.shared_cache_entries > 0,
            "chains never published verdicts: {report:?}"
        );
        // The second epoch onwards, re-proposed candidates must be answered
        // by the shared layer.
        assert!(
            report.equiv.shared_cache_hits > 0,
            "no cross-epoch/cross-chain hits: {report:?}"
        );
        assert_eq!(
            report.cache.hits,
            report.equiv.cache_hits + report.equiv.shared_cache_hits
        );
    }

    #[test]
    fn stall_convergence_exits_early_on_a_minimal_program() {
        // Nothing beats two instructions, so no epoch ever improves the
        // global best and the stall criterion fires immediately.
        let src = xdp("mov64 r0, 2\nexit");
        let engine = EngineConfig {
            num_epochs: 6,
            stall_epochs: Some(1),
            ..EngineConfig::default()
        };
        let outcome = run_search(&src, &options(600, engine));
        assert!(outcome.report.early_exit);
        assert!(outcome.report.epochs_run < outcome.report.epochs_planned);
        // Best-so-far invariant: every chain still reports a best no worse
        // than the source.
        for chain in &outcome.chains {
            assert!(chain.best.as_ref().unwrap().1 <= 2.0);
        }
    }

    #[test]
    fn zero_time_budget_stops_after_the_first_barrier() {
        let src = xdp("mov64 r0, 5\nadd64 r0, 7\nexit");
        let engine = EngineConfig {
            num_epochs: 8,
            time_budget_ms: Some(0),
            ..EngineConfig::default()
        };
        let outcome = run_search(&src, &options(800, engine));
        assert!(outcome.report.time_budget_hit);
        assert_eq!(outcome.report.epochs_run, 1);
        let best = outcome.chains[0].best.as_ref().unwrap();
        assert!(best.1 <= 3.0, "best-so-far invariant violated");
    }

    #[test]
    fn restart_from_best_is_deterministic() {
        let src = xdp("mov64 r0, 5\nadd64 r0, 7\nadd64 r0, 0\nmov64 r3, 1\nexit");
        let engine = EngineConfig {
            restart_from_best: true,
            ..EngineConfig::default()
        };
        let a = run_search(&src, &options(900, engine));
        let b = run_search(&src, &options(900, engine));
        for (ca, cb) in a.chains.iter().zip(&b.chains) {
            assert_eq!(
                ca.best.as_ref().map(|(p, _)| &p.insns),
                cb.best.as_ref().map(|(p, _)| &p.insns)
            );
            assert_eq!(ca.stats.accepted, cb.stats.accepted);
        }
    }
}
