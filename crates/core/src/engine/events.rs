//! Streaming search events: the pull-based observer interface of the engine.
//!
//! Historically progress reporting was pushed through `println!` calls in the
//! harnesses; the engine now *emits* structured [`SearchEvent`]s at every
//! deterministic point of the run (start, epoch barriers, budget exhaustion,
//! finish) and any number of observers consume them through the [`EventSink`]
//! trait. `k2::api` re-exports the trait and ships ready-made sinks (a
//! collecting sink for tests, a stderr progress printer for the harnesses).
//!
//! Determinism: every event except the run timing is derived from
//! barrier-synchronized state, so with a fixed seed the exact event sequence
//! is reproducible across reruns and identical between sequential and
//! parallel execution. Events deliberately carry no wall-clock fields —
//! timing lives in [`super::EngineReport`].

use std::fmt;
use std::sync::Arc;

/// Why the engine stopped before running every planned epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopReason {
    /// The stall-epochs convergence criterion fired
    /// ([`crate::EngineConfig::stall_epochs`]).
    StallEpochs,
    /// The wall-clock budget was exhausted
    /// ([`crate::EngineConfig::time_budget_ms`]).
    TimeBudget,
}

/// One observable moment of an engine run.
///
/// Events are emitted in a fixed order: one [`SearchEvent::Started`], then
/// per epoch barrier — [`SearchEvent::NewGlobalBest`] (only when the barrier
/// improved the global best), [`SearchEvent::SolverStats`],
/// [`SearchEvent::EpochBarrier`] — optionally one
/// [`SearchEvent::BudgetExhausted`], then one [`SearchEvent::Telemetry`]
/// (only when a telemetry recorder is attached), and finally one
/// [`SearchEvent::Finished`].
#[derive(Debug, Clone, PartialEq)]
pub enum SearchEvent {
    /// The engine is about to run the first epoch.
    Started {
        /// Number of Markov chains.
        chains: usize,
        /// Epochs the schedule plans.
        epochs_planned: u64,
        /// Total iterations per chain.
        iterations: u64,
    },
    /// An epoch barrier strictly improved the global best.
    NewGlobalBest {
        /// 1-based epoch index.
        epoch: u64,
        /// Performance cost of the new global best.
        cost: f64,
        /// Instruction count (`real_len`) of the new global best.
        insns: usize,
    },
    /// Aggregated solver and verdict-cache counters at an epoch barrier.
    SolverStats {
        /// 1-based epoch index.
        epoch: u64,
        /// Solver queries issued so far, summed over chains.
        queries: u64,
        /// Private-layer verdict-cache hits so far.
        cache_hits: u64,
        /// Cross-chain shared-layer hits so far.
        shared_cache_hits: u64,
        /// Checks that missed both cache layers so far.
        cache_misses: u64,
        /// Checks resolved by the window-local fast path so far
        /// (optimization IV: full-program queries that were never built).
        window_hits: u64,
        /// Windowed checks that fell back to the full program pair so far.
        window_fallbacks: u64,
        /// Cache-miss candidates refuted by concrete execution so far (the
        /// pre-SMT refutation stage: no solver query was built for them).
        refuted_by_testing: u64,
        /// Cache-miss candidates the refutation batch could not decide, so
        /// they escalated to the SMT solver.
        smt_escalations: u64,
        /// Entries in the shared cache after the barrier's publish step.
        shared_cache_entries: usize,
        /// Counterexamples in the merged cross-chain pool.
        counterexample_pool: usize,
    },
    /// An epoch completed and its barrier exchanges ran.
    EpochBarrier {
        /// 1-based epoch index.
        epoch: u64,
        /// Iterations each chain ran this epoch.
        steps: u64,
        /// Performance cost of the global best after the barrier.
        best_cost: f64,
        /// Instruction count of the global best after the barrier.
        best_insns: usize,
        /// Whether this barrier improved the global best.
        improved: bool,
    },
    /// The engine is stopping before the full schedule.
    BudgetExhausted {
        /// 1-based index of the last epoch that ran.
        epoch: u64,
        /// Which budget stopped the search.
        reason: StopReason,
    },
    /// Count-valued telemetry totals of the whole run. Emitted once, just
    /// before [`SearchEvent::Finished`], and only when a telemetry recorder
    /// is attached ([`crate::CompilerOptions::telemetry`]). The snapshot is
    /// the [`k2_telemetry::TelemetrySnapshot::counts_only`] projection —
    /// wall-clock fields are masked — so, like every other event, it is
    /// deterministic for a fixed seed.
    Telemetry {
        /// Counts-only telemetry snapshot of the run.
        counts: k2_telemetry::TelemetrySnapshot,
    },
    /// The run is over; per-chain results are being aggregated.
    Finished {
        /// Epochs actually run.
        epochs_run: u64,
        /// Whether any barrier improved on the source program.
        improved: bool,
    },
}

/// An observer of [`SearchEvent`]s.
///
/// Implementations must be `Send + Sync`: the engine may emit from whatever
/// thread drives the orchestrator, and one sink may be shared by concurrent
/// batch jobs. All events of a single compilation are emitted from one
/// thread, in order.
pub trait EventSink: Send + Sync {
    /// Observe one event.
    fn on_event(&self, event: &SearchEvent);
}

/// A cloneable, optional handle to an [`EventSink`], embedded in
/// [`crate::CompilerOptions`]. The default is "no sink", which costs nothing
/// on the hot path.
#[derive(Clone, Default)]
pub struct EventSinkRef(Option<Arc<dyn EventSink>>);

impl EventSinkRef {
    /// Wrap a sink.
    pub fn new(sink: Arc<dyn EventSink>) -> EventSinkRef {
        EventSinkRef(Some(sink))
    }

    /// The no-op handle.
    pub fn none() -> EventSinkRef {
        EventSinkRef(None)
    }

    /// Whether a sink is attached.
    pub fn is_set(&self) -> bool {
        self.0.is_some()
    }

    /// Deliver an event to the sink, if any.
    pub fn emit(&self, event: SearchEvent) {
        if let Some(sink) = &self.0 {
            sink.on_event(&event);
        }
    }
}

impl fmt::Debug for EventSinkRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(if self.0.is_some() {
            "EventSinkRef(set)"
        } else {
            "EventSinkRef(none)"
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    struct Collect(Mutex<Vec<SearchEvent>>);
    impl EventSink for Collect {
        fn on_event(&self, event: &SearchEvent) {
            self.0.lock().unwrap().push(event.clone());
        }
    }

    #[test]
    fn sink_ref_delivers_and_default_is_noop() {
        let sink = Arc::new(Collect(Mutex::new(Vec::new())));
        let on = EventSinkRef::new(sink.clone());
        assert!(on.is_set());
        on.emit(SearchEvent::Finished {
            epochs_run: 1,
            improved: false,
        });
        assert_eq!(sink.0.lock().unwrap().len(), 1);

        let off = EventSinkRef::default();
        assert!(!off.is_set());
        off.emit(SearchEvent::Finished {
            epochs_run: 1,
            improved: false,
        }); // must not panic
        assert_eq!(format!("{off:?}"), "EventSinkRef(none)");
    }
}
