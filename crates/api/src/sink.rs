//! Ready-made [`EventSink`] implementations.
//!
//! The engine streams [`SearchEvent`]s at every deterministic point of a run
//! (see `k2_core::engine::events`); these sinks cover the common consumers:
//! [`CollectingSink`] records the exact sequence for tests and golden
//! comparisons, [`CountingSink`] keeps per-variant tallies that are safe to
//! share across concurrent batch jobs, and [`StderrProgress`] prints a
//! compact human-readable progress line per event for interactive harnesses.

use k2_core::{EventSink, SearchEvent};
use std::fmt::Write as _;
use std::io::Write as _;
use std::sync::Mutex;

/// Records every event in order. Intended for tests: with a fixed seed the
/// collected sequence is identical across reruns and between sequential and
/// parallel execution.
#[derive(Debug, Default)]
pub struct CollectingSink {
    events: Mutex<Vec<SearchEvent>>,
}

impl CollectingSink {
    /// An empty sink.
    pub fn new() -> CollectingSink {
        CollectingSink::default()
    }

    /// A copy of the events observed so far.
    pub fn snapshot(&self) -> Vec<SearchEvent> {
        self.events.lock().expect("sink lock poisoned").clone()
    }

    /// Drain the observed events.
    pub fn take(&self) -> Vec<SearchEvent> {
        std::mem::take(&mut *self.events.lock().expect("sink lock poisoned"))
    }
}

impl EventSink for CollectingSink {
    fn on_event(&self, event: &SearchEvent) {
        self.events
            .lock()
            .expect("sink lock poisoned")
            .push(event.clone());
    }
}

/// Per-variant event tallies accumulated by a [`CountingSink`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SinkCounts {
    /// `Started` events (= compilations observed).
    pub started: u64,
    /// `NewGlobalBest` events.
    pub new_global_best: u64,
    /// `SolverStats` events.
    pub solver_stats: u64,
    /// `EpochBarrier` events.
    pub epoch_barriers: u64,
    /// `BudgetExhausted` events.
    pub budget_exhausted: u64,
    /// `Telemetry` events.
    pub telemetry: u64,
    /// `Finished` events.
    pub finished: u64,
}

/// Counts events. Safe to share across the concurrent jobs of a
/// `run_batch` pool, where one sink observes many interleaved compilations.
#[derive(Debug, Default)]
pub struct CountingSink {
    counts: Mutex<SinkCounts>,
}

impl CountingSink {
    /// A zeroed sink.
    pub fn new() -> CountingSink {
        CountingSink::default()
    }

    /// The tallies so far.
    pub fn counts(&self) -> SinkCounts {
        *self.counts.lock().expect("sink lock poisoned")
    }
}

impl EventSink for CountingSink {
    fn on_event(&self, event: &SearchEvent) {
        let mut counts = self.counts.lock().expect("sink lock poisoned");
        *match event {
            SearchEvent::Started { .. } => &mut counts.started,
            SearchEvent::NewGlobalBest { .. } => &mut counts.new_global_best,
            SearchEvent::SolverStats { .. } => &mut counts.solver_stats,
            SearchEvent::EpochBarrier { .. } => &mut counts.epoch_barriers,
            SearchEvent::BudgetExhausted { .. } => &mut counts.budget_exhausted,
            SearchEvent::Telemetry { .. } => &mut counts.telemetry,
            SearchEvent::Finished { .. } => &mut counts.finished,
        } += 1;
    }
}

/// Prints one compact line per event to stderr, optionally prefixed with a
/// label — the interactive replacement for the `println!` progress reporting
/// the harnesses used to hard-code.
///
/// Lines are buffered and written out in one `write_all` per epoch (at the
/// barrier, budget-exhaustion, and finish events) rather than one unbuffered
/// write per event: a search emits several events per barrier, and per-event
/// `eprintln!` calls each take the stderr lock and issue their own syscall,
/// which interleaves badly when concurrent batch jobs share one sink.
#[derive(Debug, Default)]
pub struct StderrProgress {
    label: Option<String>,
    buffer: Mutex<String>,
}

impl StderrProgress {
    /// A progress printer with no label.
    pub fn new() -> StderrProgress {
        StderrProgress::default()
    }

    /// A progress printer whose lines are prefixed with `label`.
    pub fn labeled(label: impl Into<String>) -> StderrProgress {
        StderrProgress {
            label: Some(label.into()),
            buffer: Mutex::new(String::new()),
        }
    }

    fn prefix(&self) -> String {
        match &self.label {
            Some(label) => format!("k2[{label}]"),
            None => "k2".to_string(),
        }
    }

    fn flush(&self, buffer: &mut String) {
        if buffer.is_empty() {
            return;
        }
        let mut stderr = std::io::stderr().lock();
        let _ = stderr.write_all(buffer.as_bytes());
        let _ = stderr.flush();
        buffer.clear();
    }
}

impl Drop for StderrProgress {
    fn drop(&mut self) {
        let mut buffer = std::mem::take(self.buffer.get_mut().expect("progress lock poisoned"));
        self.flush(&mut buffer);
    }
}

impl EventSink for StderrProgress {
    fn on_event(&self, event: &SearchEvent) {
        let p = self.prefix();
        let mut buffer = self.buffer.lock().expect("progress lock poisoned");
        let out = &mut *buffer;
        match event {
            SearchEvent::Started {
                chains,
                epochs_planned,
                iterations,
            } => {
                let _ = writeln!(
                    out,
                    "{p}: search started: {chains} chains x {iterations} iterations, \
                     {epochs_planned} epochs"
                );
            }
            SearchEvent::NewGlobalBest { epoch, cost, insns } => {
                let _ = writeln!(
                    out,
                    "{p}: epoch {epoch}: new global best: {insns} insns, cost {cost}"
                );
            }
            SearchEvent::SolverStats { epoch, equiv, .. } => {
                let _ = write!(out, "{p}: epoch {epoch}:");
                for (name, value) in equiv.counts() {
                    let _ = write!(out, " {name}={value}");
                }
                out.push('\n');
            }
            SearchEvent::EpochBarrier {
                epoch,
                best_insns,
                improved,
                ..
            } => {
                let _ = writeln!(
                    out,
                    "{p}: epoch {epoch} barrier: best {best_insns} insns{}",
                    if *improved { " (improved)" } else { "" }
                );
                self.flush(out);
            }
            SearchEvent::BudgetExhausted { epoch, reason } => {
                let _ = writeln!(out, "{p}: stopping after epoch {epoch}: {reason:?}");
                self.flush(out);
            }
            SearchEvent::Telemetry { counts } => {
                let _ = writeln!(
                    out,
                    "{p}: telemetry: {} solver queries, {} steps",
                    counts.counter("bitsmt.queries"),
                    counts.counter("core.steps")
                );
            }
            SearchEvent::Finished {
                epochs_run,
                improved,
            } => {
                let _ = writeln!(
                    out,
                    "{p}: finished after {epochs_run} epochs, improved: {improved}"
                );
                self.flush(out);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use k2_core::StopReason;

    fn sample_events() -> Vec<SearchEvent> {
        vec![
            SearchEvent::Started {
                chains: 2,
                epochs_planned: 2,
                iterations: 100,
            },
            SearchEvent::NewGlobalBest {
                epoch: 1,
                cost: 3.0,
                insns: 3,
            },
            SearchEvent::EpochBarrier {
                epoch: 1,
                steps: 50,
                best_cost: 3.0,
                best_insns: 3,
                improved: true,
            },
            SearchEvent::BudgetExhausted {
                epoch: 1,
                reason: StopReason::TimeBudget,
            },
            SearchEvent::Telemetry {
                counts: k2_core::TelemetrySnapshot::default(),
            },
            SearchEvent::Finished {
                epochs_run: 1,
                improved: true,
            },
        ]
    }

    #[test]
    fn collecting_sink_preserves_order() {
        let sink = CollectingSink::new();
        for event in sample_events() {
            sink.on_event(&event);
        }
        assert_eq!(sink.snapshot(), sample_events());
        assert_eq!(sink.take(), sample_events());
        assert!(sink.snapshot().is_empty());
    }

    #[test]
    fn counting_sink_tallies_variants() {
        let sink = CountingSink::new();
        for event in sample_events() {
            sink.on_event(&event);
        }
        let counts = sink.counts();
        assert_eq!(counts.started, 1);
        assert_eq!(counts.new_global_best, 1);
        assert_eq!(counts.epoch_barriers, 1);
        assert_eq!(counts.budget_exhausted, 1);
        assert_eq!(counts.telemetry, 1);
        assert_eq!(counts.finished, 1);
        assert_eq!(counts.solver_stats, 0);
    }
}
