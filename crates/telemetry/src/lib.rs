//! Offline, dependency-free metrics and tracing for the K2 stack.
//!
//! The stack's hot paths (the MCMC step loop, the equivalence checker, the
//! bit-blasting SMT solver) record into this layer through a cheap
//! [`TelemetryRef`] handle — an optional, shared [`Recorder`]. The default
//! handle is *no recorder*: every recording call is a single `Option`
//! branch and no timestamps are taken, so a telemetry-off build does no
//! observable work.
//!
//! Three metric kinds:
//!
//! - **counters** — monotonic `u64` totals (solver conflicts, per-rule
//!   accept/reject tallies, cache-layer hits). Counter values depend only
//!   on the deterministic search trajectory, so same-seed runs produce
//!   identical counters — they double as a reproducibility oracle.
//! - **gauges** — last/max of an instantaneous level (queue depth,
//!   in-flight requests). Gauges reflect scheduling, not the search, and
//!   are excluded from determinism comparisons.
//! - **timers** — log-bucketed latency histograms (p50/p90/p99/max) fed by
//!   [`Span`] RAII timers or explicit [`TelemetryRef::time_us`] calls. The
//!   observation *count* of a timer is deterministic; the recorded times
//!   are wall clock and are masked by [`TelemetrySnapshot::counts_only`].
//!
//! A fourth, niche kind — **distinct** tallies — counts unique `u64`
//! observations (e.g. equivalence-query fingerprints), which size the share
//! of repeated queries.
//!
//! Determinism contract: telemetry never feeds back into search decisions.
//! Recording is write-only from the engine's point of view; snapshots are
//! taken after the run. Same-seed runs are bit-identical with telemetry
//! on, off, or dumping.
//!
//! The search's statistics structs are declared with [`counters!`], which
//! names each of their counts once for the structs and the snapshot alike.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Declare a statistics struct whose fields are the one declaration of its
/// counters.
///
/// Every field is a `pub u64`. Besides the struct, the macro generates:
///
/// - `absorb(&mut self, other)`, which adds each field of `other`;
/// - `counts()`, the deterministic counts as `("prefix.field", value)`
///   pairs in declaration order, under the names they take in a telemetry
///   snapshot;
/// - `counts_only()`, a copy with every field outside `counts()` zeroed.
///
/// Fields under `uncounted` are summed by `absorb` but are not
/// deterministic counts (wall-clock times, tallies that depend on
/// scheduling), so `counts()` leaves them out. Adding a counter is one
/// line: a field in the first list.
///
/// ```
/// k2_telemetry::counters! {
///     /// Work done by a demo stage.
///     #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
///     pub struct DemoStats("demo") { items, }
///     uncounted { time_us, }
/// }
/// let mut total = DemoStats { items: 2, time_us: 7 };
/// total.absorb(&DemoStats { items: 1, time_us: 5 });
/// assert_eq!(total.counts().collect::<Vec<_>>(), [("demo.items", 3)]);
/// assert_eq!(total.counts_only(), DemoStats { items: 3, time_us: 0 });
/// ```
#[macro_export]
macro_rules! counters {
    (
        $(#[$attr:meta])*
        $vis:vis struct $name:ident($prefix:literal) {
            $( $(#[$count_attr:meta])* $count:ident, )*
        }
        $( uncounted {
            $( $(#[$sum_attr:meta])* $sum:ident, )*
        } )?
    ) => {
        $(#[$attr])*
        $vis struct $name {
            $( $(#[$count_attr])* pub $count: u64, )*
            $($( $(#[$sum_attr])* pub $sum: u64, )*)?
        }

        impl $name {
            /// Add every field of `other` to this one.
            pub fn absorb(&mut self, other: &$name) {
                $( self.$count += other.$count; )*
                $($( self.$sum += other.$sum; )*)?
            }

            /// The deterministic counts, named `prefix.field` as in a
            /// telemetry snapshot, in declaration order.
            pub fn counts(&self) -> impl Iterator<Item = (&'static str, u64)> {
                [$( (concat!($prefix, ".", stringify!($count)), self.$count) ),*].into_iter()
            }

            /// A copy holding only the counts: every other field is 0.
            pub fn counts_only(&self) -> $name {
                $name {
                    $( $count: self.$count, )*
                    $($( $sum: 0, )*)?
                }
            }
        }
    };
}

/// Number of histogram buckets. The scale is log-linear: buckets `0..16`
/// hold the exact microsecond values `0..16`, and every power-of-two octave
/// `[2^e, 2^(e+1))` past that is split into 8 equal sub-buckets, so
/// quantile estimates stay within ~12.5% of the true value across the whole
/// `u64` range — multi-second solver queries included (a pure log2 scale
/// would report an 8.2 s query as "somewhere in [4.2 s, 8.4 s)").
const BUCKETS: usize = 16 + 60 * 8;

/// A metrics consumer. Implementations must be `Send + Sync`: parallel
/// Markov chains and concurrent batch jobs record into one shared recorder.
///
/// All operations commute (counter adds, set inserts, histogram
/// increments), so the count-valued parts of a snapshot are deterministic
/// even when chains interleave arbitrarily.
pub trait Recorder: Send + Sync {
    /// Add `delta` to the monotonic counter `name`.
    fn count(&self, name: &'static str, delta: u64);
    /// Record one observation of `value` under `name`; the snapshot
    /// reports the number of *distinct* values seen.
    fn observe_distinct(&self, name: &'static str, value: u64);
    /// Set the gauge `name` to `value` (the snapshot keeps last and max).
    fn gauge(&self, name: &'static str, value: u64);
    /// Record a duration of `us` microseconds into the histogram `name`.
    fn time_us(&self, name: &'static str, us: u64);
    /// Fold a finished sub-snapshot into this recorder (used to roll
    /// per-compilation telemetry up into a service-global recorder).
    fn absorb(&self, snapshot: &TelemetrySnapshot) {
        let _ = snapshot;
    }
    /// Materialize the current state.
    fn snapshot(&self) -> TelemetrySnapshot {
        TelemetrySnapshot::default()
    }
}

/// A recorder that drops everything. [`TelemetryRef::none`] is cheaper
/// still (no virtual call at all); this exists for code that needs a
/// concrete `Arc<dyn Recorder>`.
#[derive(Debug, Default, Clone, Copy)]
pub struct NoopRecorder;

impl Recorder for NoopRecorder {
    fn count(&self, _: &'static str, _: u64) {}
    fn observe_distinct(&self, _: &'static str, _: u64) {}
    fn gauge(&self, _: &'static str, _: u64) {}
    fn time_us(&self, _: &'static str, _: u64) {}
}

#[derive(Debug, Default, Clone, Copy)]
struct GaugeState {
    last: u64,
    max: u64,
}

#[derive(Debug, Clone)]
struct Histogram {
    count: u64,
    total_us: u64,
    max_us: u64,
    buckets: [u64; BUCKETS],
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram {
            count: 0,
            total_us: 0,
            max_us: 0,
            buckets: [0; BUCKETS],
        }
    }
}

impl Histogram {
    fn record(&mut self, us: u64) {
        self.count += 1;
        self.total_us = self.total_us.saturating_add(us);
        self.max_us = self.max_us.max(us);
        self.buckets[bucket_of(us)] += 1;
    }
}

/// Bucket index for a microsecond value on the log-linear scale: values
/// below 16 map to themselves; a larger value with top set bit `2^e` lands
/// in one of 8 sub-buckets selected by its next three bits.
fn bucket_of(us: u64) -> usize {
    if us < 16 {
        return us as usize;
    }
    let e = (63 - us.leading_zeros()) as usize; // >= 4
    let sub = ((us >> (e - 3)) & 7) as usize;
    16 + (e - 4) * 8 + sub
}

/// Inclusive upper bound of a bucket, i.e. the largest value it can hold.
fn bucket_upper_bound(bucket: usize) -> u64 {
    if bucket < 16 {
        return bucket as u64;
    }
    let k = bucket - 16;
    let (e, sub) = (k / 8 + 4, (k % 8) as u128);
    // The last sub-bucket of the top octave would overflow u64 by one.
    let bound = (1u128 << e) + (sub + 1) * (1u128 << (e - 3)) - 1;
    bound.min(u64::MAX as u128) as u64
}

#[derive(Debug, Default)]
struct TelemetryState {
    counters: BTreeMap<&'static str, u64>,
    distinct: BTreeMap<&'static str, BTreeSet<u64>>,
    gauges: BTreeMap<&'static str, GaugeState>,
    timers: BTreeMap<&'static str, Histogram>,
    /// Distinct tallies folded in through [`Recorder::absorb`] lose their
    /// underlying sets; their counts accumulate here.
    absorbed_distinct: BTreeMap<&'static str, u64>,
}

/// The standard recorder: one mutex-guarded map per metric kind. Lock
/// traffic is negligible next to the work being measured (an MCMC step
/// evaluates a candidate program; a solver query bit-blasts a formula).
#[derive(Debug, Default)]
pub struct Telemetry {
    state: Mutex<TelemetryState>,
}

impl Telemetry {
    /// An empty recorder.
    pub fn new() -> Telemetry {
        Telemetry::default()
    }
}

impl Recorder for Telemetry {
    fn count(&self, name: &'static str, delta: u64) {
        let mut state = self.state.lock().unwrap();
        *state.counters.entry(name).or_insert(0) += delta;
    }

    fn observe_distinct(&self, name: &'static str, value: u64) {
        let mut state = self.state.lock().unwrap();
        state.distinct.entry(name).or_default().insert(value);
    }

    fn gauge(&self, name: &'static str, value: u64) {
        let mut state = self.state.lock().unwrap();
        let gauge = state.gauges.entry(name).or_default();
        gauge.last = value;
        gauge.max = gauge.max.max(value);
    }

    fn time_us(&self, name: &'static str, us: u64) {
        let mut state = self.state.lock().unwrap();
        state.timers.entry(name).or_default().record(us);
    }

    fn absorb(&self, snapshot: &TelemetrySnapshot) {
        let mut state = self.state.lock().unwrap();
        for (name, value) in &snapshot.counters {
            *state.counters.entry(leak_name(name)).or_insert(0) += value;
        }
        for (name, value) in &snapshot.distinct {
            *state.absorbed_distinct.entry(leak_name(name)).or_insert(0) += value;
        }
        for (name, gauge) in &snapshot.gauges {
            let entry = state.gauges.entry(leak_name(name)).or_default();
            entry.last = gauge.last;
            entry.max = entry.max.max(gauge.max);
        }
        for (name, timer) in &snapshot.timers {
            let hist = state.timers.entry(leak_name(name)).or_default();
            hist.count += timer.count;
            hist.total_us = hist.total_us.saturating_add(timer.total_us);
            hist.max_us = hist.max_us.max(timer.max_us);
            for &(bucket, count) in &timer.buckets {
                hist.buckets[(bucket as usize).min(BUCKETS - 1)] += count;
            }
        }
    }

    fn snapshot(&self) -> TelemetrySnapshot {
        let state = self.state.lock().unwrap();
        let mut distinct: Vec<(String, u64)> = state
            .distinct
            .iter()
            .map(|(name, set)| (name.to_string(), set.len() as u64))
            .collect();
        for (name, count) in &state.absorbed_distinct {
            match distinct.iter_mut().find(|(n, _)| n == name) {
                Some((_, value)) => *value += count,
                None => distinct.push((name.to_string(), *count)),
            }
        }
        distinct.sort();
        TelemetrySnapshot {
            counters: state
                .counters
                .iter()
                .map(|(name, value)| (name.to_string(), *value))
                .collect(),
            distinct,
            gauges: state
                .gauges
                .iter()
                .map(|(name, gauge)| {
                    (
                        name.to_string(),
                        GaugeSummary {
                            last: gauge.last,
                            max: gauge.max,
                        },
                    )
                })
                .collect(),
            timers: state
                .timers
                .iter()
                .map(|(name, hist)| {
                    (
                        name.to_string(),
                        TimerSummary {
                            count: hist.count,
                            total_us: hist.total_us,
                            max_us: hist.max_us,
                            buckets: hist
                                .buckets
                                .iter()
                                .enumerate()
                                .filter(|(_, count)| **count > 0)
                                .map(|(bucket, count)| (bucket as u16, *count))
                                .collect(),
                        },
                    )
                })
                .collect(),
        }
    }
}

/// Snapshot metric names arrive as `String`s but the live maps key on
/// `&'static str` (so the hot path never allocates). Absorbed names come
/// from this crate's fixed, small schema, so interning by leaking is
/// bounded in practice.
fn leak_name(name: &str) -> &'static str {
    Box::leak(name.to_string().into_boxed_str())
}

/// A cloneable, optional handle to a [`Recorder`], embedded in
/// `CompilerOptions` and threaded down to the solver. The default is "no
/// recorder": every call is one branch and no timestamps are taken.
#[derive(Clone, Default)]
pub struct TelemetryRef(Option<Arc<dyn Recorder>>);

impl TelemetryRef {
    /// Wrap a recorder.
    pub fn new(recorder: Arc<dyn Recorder>) -> TelemetryRef {
        TelemetryRef(Some(recorder))
    }

    /// The no-op handle.
    pub fn none() -> TelemetryRef {
        TelemetryRef(None)
    }

    /// A handle over a fresh [`Telemetry`] collector.
    pub fn collector() -> TelemetryRef {
        TelemetryRef::new(Arc::new(Telemetry::new()))
    }

    /// Whether a recorder is attached.
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Add to a counter.
    pub fn count(&self, name: &'static str, delta: u64) {
        if let Some(recorder) = &self.0 {
            recorder.count(name, delta);
        }
    }

    /// Record a distinct-value observation.
    pub fn observe_distinct(&self, name: &'static str, value: u64) {
        if let Some(recorder) = &self.0 {
            recorder.observe_distinct(name, value);
        }
    }

    /// Set a gauge.
    pub fn gauge(&self, name: &'static str, value: u64) {
        if let Some(recorder) = &self.0 {
            recorder.gauge(name, value);
        }
    }

    /// Record a duration in microseconds.
    pub fn time_us(&self, name: &'static str, us: u64) {
        if let Some(recorder) = &self.0 {
            recorder.time_us(name, us);
        }
    }

    /// Start an RAII span timer; its duration is recorded into the
    /// histogram `name` when the span drops. With no recorder attached the
    /// span takes no timestamp and drops for free.
    pub fn span(&self, name: &'static str) -> Span<'_> {
        Span {
            telemetry: self,
            name,
            start: self.0.as_ref().map(|_| Instant::now()),
        }
    }

    /// Fold a finished sub-snapshot into the recorder.
    pub fn absorb(&self, snapshot: &TelemetrySnapshot) {
        if let Some(recorder) = &self.0 {
            recorder.absorb(snapshot);
        }
    }

    /// Snapshot the recorder, if one is attached.
    pub fn snapshot(&self) -> Option<TelemetrySnapshot> {
        self.0.as_ref().map(|recorder| recorder.snapshot())
    }
}

impl fmt::Debug for TelemetryRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(if self.0.is_some() {
            "TelemetryRef(set)"
        } else {
            "TelemetryRef(none)"
        })
    }
}

/// An RAII span timer: created by [`TelemetryRef::span`], records its
/// elapsed time on drop.
#[must_use = "a span records on drop; binding it to `_` drops immediately"]
pub struct Span<'a> {
    telemetry: &'a TelemetryRef,
    name: &'static str,
    start: Option<Instant>,
}

impl Span<'_> {
    /// End the span now (equivalent to dropping it).
    pub fn finish(self) {}
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        if let Some(start) = self.start.take() {
            self.telemetry
                .time_us(self.name, start.elapsed().as_micros() as u64);
        }
    }
}

/// Last and maximum observed value of a gauge.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GaugeSummary {
    /// Most recently set value.
    pub last: u64,
    /// Largest value ever set.
    pub max: u64,
}

/// Summary of one latency histogram. `count` is count-valued
/// (deterministic); everything else is wall clock.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TimerSummary {
    /// Number of recorded observations.
    pub count: u64,
    /// Sum of all observations, microseconds.
    pub total_us: u64,
    /// Largest observation, microseconds.
    pub max_us: u64,
    /// Sparse log-linear buckets: `(bucket index, observations)`. Buckets
    /// `0..16` hold the exact microsecond values `0..16`; past that each
    /// power-of-two octave `[2^e, 2^(e+1))` µs splits into 8 equal
    /// sub-buckets, keeping quantile estimates within ~12.5% all the way up
    /// through multi-second observations.
    pub buckets: Vec<(u16, u64)>,
}

impl TimerSummary {
    /// Estimated quantile (upper bound of the bucket holding the rank), in
    /// microseconds. `q` is clamped to `[0, 1]`.
    pub fn quantile_us(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cumulative = 0u64;
        for &(bucket, count) in &self.buckets {
            cumulative += count;
            if cumulative >= rank {
                return bucket_upper_bound(bucket as usize).min(self.max_us);
            }
        }
        self.max_us
    }

    /// Median estimate, microseconds.
    pub fn p50_us(&self) -> u64 {
        self.quantile_us(0.50)
    }

    /// 90th-percentile estimate, microseconds.
    pub fn p90_us(&self) -> u64 {
        self.quantile_us(0.90)
    }

    /// 99th-percentile estimate, microseconds.
    pub fn p99_us(&self) -> u64 {
        self.quantile_us(0.99)
    }
}

/// A materialized view of a recorder: what [`Recorder::snapshot`] returns,
/// what `EngineReport` carries, and what the JSON dump serializes. All
/// entry lists are sorted by name.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TelemetrySnapshot {
    /// Monotonic counters (count-valued: deterministic for a fixed seed).
    pub counters: Vec<(String, u64)>,
    /// Distinct-value tallies (count-valued).
    pub distinct: Vec<(String, u64)>,
    /// Gauges (load signals; excluded from determinism comparisons).
    pub gauges: Vec<(String, GaugeSummary)>,
    /// Latency histograms (`count` is deterministic, times are not).
    pub timers: Vec<(String, TimerSummary)>,
}

impl TelemetrySnapshot {
    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty()
            && self.distinct.is_empty()
            && self.gauges.is_empty()
            && self.timers.is_empty()
    }

    /// Look up a counter by name.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0, |(_, value)| *value)
    }

    /// Look up a timer by name.
    pub fn timer(&self, name: &str) -> Option<&TimerSummary> {
        self.timers
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, timer)| timer)
    }

    /// The deterministic projection: counters and distinct tallies kept,
    /// timer *counts* kept with every wall-clock field zeroed, gauges
    /// dropped (they reflect scheduling). Two same-seed runs must produce
    /// equal `counts_only()` snapshots — this is the reproducibility
    /// oracle the determinism tests compare.
    pub fn counts_only(&self) -> TelemetrySnapshot {
        TelemetrySnapshot {
            counters: self.counters.clone(),
            distinct: self.distinct.clone(),
            gauges: Vec::new(),
            timers: self
                .timers
                .iter()
                .map(|(name, timer)| {
                    (
                        name.clone(),
                        TimerSummary {
                            count: timer.count,
                            ..TimerSummary::default()
                        },
                    )
                })
                .collect(),
        }
    }

    /// Merge another snapshot into this one: counters, distinct tallies,
    /// timer histograms add; gauges keep the other's `last` and the max of
    /// both `max`es. Used to aggregate per-benchmark snapshots into a
    /// sweep total.
    pub fn absorb(&mut self, other: &TelemetrySnapshot) {
        fn merge<T, F: Fn(&mut T, &T)>(into: &mut Vec<(String, T)>, from: &[(String, T)], fold: F)
        where
            T: Clone,
        {
            for (name, value) in from {
                match into.iter_mut().find(|(n, _)| n == name) {
                    Some((_, existing)) => fold(existing, value),
                    None => into.push((name.clone(), value.clone())),
                }
            }
            into.sort_by(|a, b| a.0.cmp(&b.0));
        }
        merge(&mut self.counters, &other.counters, |a, b| *a += *b);
        merge(&mut self.distinct, &other.distinct, |a, b| *a += *b);
        merge(&mut self.gauges, &other.gauges, |a, b| {
            a.last = b.last;
            a.max = a.max.max(b.max);
        });
        merge(&mut self.timers, &other.timers, |a, b| {
            a.count += b.count;
            a.total_us = a.total_us.saturating_add(b.total_us);
            a.max_us = a.max_us.max(b.max_us);
            for &(bucket, count) in &b.buckets {
                match a
                    .buckets
                    .iter_mut()
                    .find(|(existing, _)| *existing == bucket)
                {
                    Some((_, existing)) => *existing += count,
                    None => a.buckets.push((bucket, count)),
                }
            }
            a.buckets.sort();
        });
    }

    /// Serialize as JSON (the `K2_TELEMETRY_JSON` dump format). Timers are
    /// summarized as `count/total_us/p50_us/p90_us/p99_us/max_us`.
    pub fn to_json_string(&self) -> String {
        let mut out = String::from("{\n  \"counters\": {");
        write_entries(&mut out, &self.counters, |out, value| {
            out.push_str(&value.to_string());
        });
        out.push_str("},\n  \"distinct\": {");
        write_entries(&mut out, &self.distinct, |out, value| {
            out.push_str(&value.to_string());
        });
        out.push_str("},\n  \"gauges\": {");
        write_entries(&mut out, &self.gauges, |out, gauge| {
            out.push_str(&format!(
                "{{\"last\": {}, \"max\": {}}}",
                gauge.last, gauge.max
            ));
        });
        out.push_str("},\n  \"timers\": {");
        write_entries(&mut out, &self.timers, |out, timer| {
            out.push_str(&format!(
                "{{\"count\": {}, \"total_us\": {}, \"p50_us\": {}, \"p90_us\": {}, \
                 \"p99_us\": {}, \"max_us\": {}}}",
                timer.count,
                timer.total_us,
                timer.p50_us(),
                timer.p90_us(),
                timer.p99_us(),
                timer.max_us
            ));
        });
        out.push_str("}\n}\n");
        out
    }

    /// Render the human-readable stats table printed by the harnesses.
    pub fn render_table(&self) -> String {
        let name_width = self
            .counters
            .iter()
            .map(|(n, _)| n.len())
            .chain(self.distinct.iter().map(|(n, _)| n.len() + 11))
            .chain(self.gauges.iter().map(|(n, _)| n.len()))
            .chain(self.timers.iter().map(|(n, _)| n.len()))
            .max()
            .unwrap_or(8)
            .max(8);
        let mut out = String::new();
        if !self.counters.is_empty() || !self.distinct.is_empty() {
            out.push_str(&format!("  {:<name_width$}  {:>12}\n", "counter", "value"));
            for (name, value) in &self.counters {
                out.push_str(&format!("  {name:<name_width$}  {value:>12}\n"));
            }
            for (name, value) in &self.distinct {
                let label = format!("{name} (distinct)");
                out.push_str(&format!("  {label:<name_width$}  {value:>12}\n"));
            }
        }
        if !self.gauges.is_empty() {
            out.push_str(&format!(
                "  {:<name_width$}  {:>12}  {:>12}\n",
                "gauge", "last", "max"
            ));
            for (name, gauge) in &self.gauges {
                out.push_str(&format!(
                    "  {name:<name_width$}  {:>12}  {:>12}\n",
                    gauge.last, gauge.max
                ));
            }
        }
        if !self.timers.is_empty() {
            out.push_str(&format!(
                "  {:<name_width$}  {:>10}  {:>12}  {:>9}  {:>9}  {:>9}  {:>9}\n",
                "timer", "count", "total_ms", "p50_us", "p90_us", "p99_us", "max_us"
            ));
            for (name, timer) in &self.timers {
                out.push_str(&format!(
                    "  {name:<name_width$}  {:>10}  {:>12.3}  {:>9}  {:>9}  {:>9}  {:>9}\n",
                    timer.count,
                    timer.total_us as f64 / 1000.0,
                    timer.p50_us(),
                    timer.p90_us(),
                    timer.p99_us(),
                    timer.max_us
                ));
            }
        }
        out
    }
}

/// Write `"name": <value>` JSON map entries with 4-space indentation.
fn write_entries<T>(
    out: &mut String,
    entries: &[(String, T)],
    write_value: impl Fn(&mut String, &T),
) {
    for (index, (name, value)) in entries.iter().enumerate() {
        out.push_str(if index == 0 { "\n    " } else { ",\n    " });
        out.push('"');
        for c in name.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                c => out.push(c),
            }
        }
        out.push_str("\": ");
        write_value(out, value);
    }
    if !entries.is_empty() {
        out.push_str("\n  ");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_snapshot_sorted() {
        let telemetry = Telemetry::new();
        telemetry.count("b.two", 2);
        telemetry.count("a.one", 1);
        telemetry.count("b.two", 3);
        let snap = telemetry.snapshot();
        assert_eq!(
            snap.counters,
            vec![("a.one".to_string(), 1), ("b.two".to_string(), 5)]
        );
        assert_eq!(snap.counter("b.two"), 5);
        assert_eq!(snap.counter("missing"), 0);
    }

    #[test]
    fn distinct_counts_unique_values() {
        let telemetry = Telemetry::new();
        for value in [7u64, 7, 9, 7, 11] {
            telemetry.observe_distinct("fp", value);
        }
        assert_eq!(telemetry.snapshot().distinct, vec![("fp".to_string(), 3)]);
    }

    #[test]
    fn gauges_keep_last_and_max() {
        let telemetry = Telemetry::new();
        telemetry.gauge("depth", 4);
        telemetry.gauge("depth", 9);
        telemetry.gauge("depth", 2);
        let snap = telemetry.snapshot();
        assert_eq!(snap.gauges[0].1, GaugeSummary { last: 2, max: 9 });
    }

    #[test]
    fn histogram_buckets_and_quantiles() {
        let telemetry = Telemetry::new();
        // 90 fast observations and 10 slow ones.
        for _ in 0..90 {
            telemetry.time_us("q", 3);
        }
        for _ in 0..10 {
            telemetry.time_us("q", 1000);
        }
        let snap = telemetry.snapshot();
        let timer = snap.timer("q").unwrap();
        assert_eq!(timer.count, 100);
        assert_eq!(timer.total_us, 90 * 3 + 10 * 1000);
        assert_eq!(timer.max_us, 1000);
        // 3 µs has 2 significant bits; p50/p90 land in its bucket (≤ 3).
        assert_eq!(timer.p50_us(), 3);
        assert_eq!(timer.p90_us(), 3);
        // p99 lands among the 1000 µs observations (bucket 10, ≤ 1023,
        // clamped to the observed max).
        assert_eq!(timer.p99_us(), 1000);
        assert_eq!(timer.quantile_us(0.0), 3);
        assert_eq!(timer.quantile_us(1.0), 1000);
    }

    #[test]
    fn zero_duration_lands_in_bucket_zero() {
        // Sub-16 µs values bucket exactly.
        for us in 0..16u64 {
            assert_eq!(bucket_of(us), us as usize);
            assert_eq!(bucket_upper_bound(us as usize), us);
        }
        // First octave bucket: [16, 17].
        assert_eq!(bucket_of(16), 16);
        assert_eq!(bucket_of(17), 16);
        assert_eq!(bucket_of(18), 17);
        assert_eq!(bucket_upper_bound(16), 17);
        let telemetry = Telemetry::new();
        telemetry.time_us("z", 0);
        assert_eq!(telemetry.snapshot().timer("z").unwrap().p99_us(), 0);
    }

    #[test]
    fn buckets_tile_the_u64_range_monotonically() {
        // Every value maps to a bucket whose bounds contain it, bucket
        // upper bounds strictly increase, and the top bucket is in range.
        let mut prev = None;
        for bucket in 0..BUCKETS {
            let hi = bucket_upper_bound(bucket);
            if let Some(prev) = prev {
                assert!(hi > prev, "bucket {bucket} bound not increasing");
                assert_eq!(bucket_of(prev + 1), bucket, "gap below bucket {bucket}");
            }
            assert_eq!(bucket_of(hi), bucket, "bound of {bucket} maps elsewhere");
            prev = Some(hi);
        }
        assert_eq!(bucket_of(u64::MAX), BUCKETS - 1);
        assert_eq!(bucket_upper_bound(BUCKETS - 1), u64::MAX);
    }

    #[test]
    fn multi_second_observations_do_not_saturate() {
        // Regression: with 65 log2 buckets, everything above ~1 s collapsed
        // into one bucket and p99 reported 1_048_575 µs for an 8.2 s query.
        let telemetry = Telemetry::new();
        for _ in 0..50 {
            telemetry.time_us("q", 5_000_000);
        }
        for _ in 0..50 {
            telemetry.time_us("q", 8_200_000);
        }
        let snap = telemetry.snapshot();
        let timer = snap.timer("q").unwrap();
        assert_ne!(timer.p99_us(), 1_048_575, "log2 saturation is back");
        // Log-linear buckets are at worst 12.5% wide.
        assert!(timer.p50_us() >= 5_000_000 && timer.p50_us() <= 5_625_000);
        assert!(timer.p99_us() >= 8_200_000 && timer.p99_us() <= 9_225_000);
        assert_eq!(timer.quantile_us(1.0), 8_200_000);
    }

    #[test]
    fn span_records_on_drop_and_noop_ref_is_free() {
        let telemetry = Arc::new(Telemetry::new());
        let handle = TelemetryRef::new(telemetry.clone());
        assert!(handle.is_enabled());
        handle.span("s").finish();
        {
            let _span = handle.span("s");
        }
        assert_eq!(telemetry.snapshot().timer("s").unwrap().count, 2);

        let off = TelemetryRef::none();
        assert!(!off.is_enabled());
        off.count("c", 1);
        off.time_us("t", 1);
        off.span("s").finish();
        assert!(off.snapshot().is_none());
        assert_eq!(format!("{off:?}"), "TelemetryRef(none)");
    }

    #[test]
    fn counts_only_masks_wall_clock_but_keeps_counts() {
        let telemetry = Telemetry::new();
        telemetry.count("c", 4);
        telemetry.observe_distinct("d", 1);
        telemetry.gauge("g", 5);
        telemetry.time_us("t", 123);
        let counts = telemetry.snapshot().counts_only();
        assert_eq!(counts.counter("c"), 4);
        assert_eq!(counts.distinct, vec![("d".to_string(), 1)]);
        assert!(counts.gauges.is_empty());
        let timer = counts.timer("t").unwrap();
        assert_eq!(timer.count, 1);
        assert_eq!(timer.total_us, 0);
        assert_eq!(timer.max_us, 0);
        assert!(timer.buckets.is_empty());
    }

    #[test]
    fn absorb_recorder_and_snapshot_merge_agree() {
        let a = Telemetry::new();
        a.count("c", 1);
        a.observe_distinct("d", 10);
        a.time_us("t", 8);
        let b = Telemetry::new();
        b.count("c", 2);
        b.observe_distinct("d", 11);
        b.time_us("t", 1000);
        b.gauge("g", 3);

        // Recorder-level absorb.
        let global = Telemetry::new();
        global.absorb(&a.snapshot());
        global.absorb(&b.snapshot());
        let merged = global.snapshot();
        assert_eq!(merged.counter("c"), 3);
        assert_eq!(merged.distinct, vec![("d".to_string(), 2)]);
        let timer = merged.timer("t").unwrap();
        assert_eq!(timer.count, 2);
        assert_eq!(timer.total_us, 1008);
        assert_eq!(timer.max_us, 1000);

        // Snapshot-level absorb produces the same totals.
        let mut folded = a.snapshot();
        folded.absorb(&b.snapshot());
        assert_eq!(folded.counter("c"), 3);
        assert_eq!(folded.timer("t").unwrap().count, 2);
        assert_eq!(folded.gauges.len(), 1);
    }

    #[test]
    fn json_dump_is_well_formed() {
        let telemetry = Telemetry::new();
        telemetry.count("bitsmt.conflicts", 12);
        telemetry.time_us("equiv.check", 100);
        telemetry.gauge("service.in_flight", 2);
        let json = telemetry.snapshot().to_json_string();
        assert!(json.contains("\"bitsmt.conflicts\": 12"));
        assert!(json.contains("\"equiv.check\": {\"count\": 1"));
        assert!(json.contains("\"last\": 2"));
        assert!(json.ends_with("}\n"));
        // Balanced braces (no nested strings with braces in this schema).
        let opens = json.matches('{').count();
        let closes = json.matches('}').count();
        assert_eq!(opens, closes);

        let empty = TelemetrySnapshot::default();
        assert!(empty.is_empty());
        assert_eq!(
            empty.to_json_string(),
            "{\n  \"counters\": {},\n  \"distinct\": {},\n  \"gauges\": {},\n  \"timers\": {}\n}\n"
        );
    }

    #[test]
    fn render_table_lists_every_metric() {
        let telemetry = Telemetry::new();
        telemetry.count("core.rule.replace_operand.accepted", 7);
        telemetry.observe_distinct("equiv.fingerprint", 1);
        telemetry.gauge("service.queue_depth", 3);
        telemetry.time_us("bitsmt.solve", 250);
        let table = telemetry.snapshot().render_table();
        assert!(table.contains("core.rule.replace_operand.accepted"));
        assert!(table.contains("equiv.fingerprint (distinct)"));
        assert!(table.contains("service.queue_depth"));
        assert!(table.contains("bitsmt.solve"));
        assert!(table.contains("p99_us"));
    }
}
