//! `K2Session`: the one supported way to drive K2.
//!
//! A session is built once — resolving the configuration layers
//! defaults → config file → `K2_*` environment → builder overrides — and
//! then serves any number of requests: typed in-process calls
//! ([`K2Session::optimize_program`]), the versioned request/response
//! protocol ([`K2Session::optimize`], [`K2Session::optimize_batch`]), and
//! standalone equivalence checks ([`K2Session::verify_equivalence`]).

use crate::config::{goal_name, ConfigError, K2Config, Knob, KnobValue};
use crate::proto::{OptimizeRequest, OptimizeResponse};
use bpf_equiv::{check_equivalence, EquivOptions, EquivOutcome};
use bpf_interp::BackendKind;
use k2_core::engine::{run_batch, BatchJob};
use k2_core::{
    CompilerOptions, EventSink, EventSinkRef, K2Result, OptimizationGoal, SearchParams,
    TelemetryRef, TelemetrySnapshot,
};
use std::path::PathBuf;
use std::sync::Arc;

/// A configured compilation session. Create one with [`K2Session::builder`].
#[derive(Debug, Clone)]
pub struct K2Session {
    config: K2Config,
    params: Vec<SearchParams>,
    sink: EventSinkRef,
    telemetry: TelemetryRef,
}

impl K2Session {
    /// Start building a session.
    pub fn builder() -> K2SessionBuilder {
        K2SessionBuilder::default()
    }

    /// The fully-resolved configuration this session runs with.
    pub fn config(&self) -> &K2Config {
        &self.config
    }

    /// The engine-level options one compilation runs with: the resolved
    /// configuration plus the session's parameter settings and event sink.
    pub fn options(&self) -> CompilerOptions {
        self.options_with(&self.config)
    }

    fn options_with(&self, config: &K2Config) -> CompilerOptions {
        CompilerOptions {
            params: self.params.clone(),
            sink: self.sink.clone(),
            telemetry: self.telemetry.clone(),
            ..config.options()
        }
    }

    /// The session's aggregated telemetry: every compilation served so far
    /// folded into one snapshot. `None` unless telemetry is enabled
    /// (`K2_TELEMETRY`, `telemetry`/`telemetry_json` keys, or the builder).
    pub fn telemetry_snapshot(&self) -> Option<TelemetrySnapshot> {
        self.telemetry.snapshot()
    }

    /// Write the aggregated telemetry snapshot as JSON to the configured
    /// `telemetry_json` path. Returns the path written, `None` when no dump
    /// path is configured or telemetry is disabled. Call once at end of run;
    /// the file is overwritten atomically-enough for an offline report.
    pub fn dump_telemetry(&self) -> std::io::Result<Option<PathBuf>> {
        let (Some(path), Some(snapshot)) = (&self.config.telemetry_json, self.telemetry_snapshot())
        else {
            return Ok(None);
        };
        let path = PathBuf::from(path);
        std::fs::write(&path, snapshot.to_json_string())?;
        Ok(Some(path))
    }

    /// Optimize one program, returning the full typed result (including
    /// wall-clock statistics in [`K2Result::report`]).
    pub fn optimize_program(&self, src: &bpf_isa::Program) -> K2Result {
        k2_core::optimize_with(&self.options(), src)
    }

    /// Serve one versioned request. Equivalent to a one-element
    /// [`K2Session::optimize_batch`]; with the same seed the response is
    /// bit-identical to what the `k2c` service binary emits.
    pub fn optimize(&self, request: &OptimizeRequest) -> OptimizeResponse {
        self.optimize_batch(std::slice::from_ref(request))
            .pop()
            .expect("one response per request")
    }

    /// Serve many requests over the bounded batch worker pool
    /// ([`k2_core::EngineConfig::batch_workers`]). Responses come back in
    /// request order and are identical to per-request [`K2Session::optimize`]
    /// calls; requests that fail to parse, and compilations that panic,
    /// produce `ok: false` responses without disturbing their neighbours.
    pub fn optimize_batch(&self, requests: &[OptimizeRequest]) -> Vec<OptimizeResponse> {
        self.optimize_batch_inner(requests, false)
    }

    /// [`K2Session::optimize_batch`] with service timing: every successful
    /// response additionally carries `duration_ms` (engine wall-clock) and
    /// `queue_wait_ms` (time spent behind other jobs in the batch queue).
    /// The search itself is bit-identical to the untimed call — only the two
    /// timing fields differ, and pre-telemetry (v:1) clients ignore them.
    pub fn optimize_batch_timed(&self, requests: &[OptimizeRequest]) -> Vec<OptimizeResponse> {
        self.optimize_batch_inner(requests, true)
    }

    fn optimize_batch_inner(
        &self,
        requests: &[OptimizeRequest],
        timed: bool,
    ) -> Vec<OptimizeResponse> {
        // Separate parseable programs from per-request errors, preserving
        // order.
        let mut slots: Vec<Option<OptimizeResponse>> = Vec::with_capacity(requests.len());
        let mut jobs: Vec<BatchJob> = Vec::new();
        let mut job_sources: Vec<(usize, bpf_isa::Program)> = Vec::new();
        for (index, request) in requests.iter().enumerate() {
            let mut config = self.config.clone();
            match request
                .apply_to(&mut config)
                .and_then(|()| request.program())
            {
                Ok(program) => {
                    jobs.push(BatchJob {
                        program: program.clone(),
                        options: self.options_with(&config),
                    });
                    job_sources.push((index, program));
                    slots.push(None);
                }
                Err(e) => {
                    slots.push(Some(OptimizeResponse::from_error(
                        request.id.clone(),
                        e.to_string(),
                    )));
                }
            }
        }
        let results = run_batch(jobs, self.config.engine.batch_workers);
        for ((index, src), result) in job_sources.into_iter().zip(results) {
            let id = requests[index].id.clone();
            let response = match result {
                Ok(result) => {
                    let mut response = OptimizeResponse::from_result(id, &src, &result);
                    if timed {
                        response.duration_ms = Some(result.report.wall_time_us / 1000);
                        response.queue_wait_ms = Some(result.report.queue_wait_us / 1000);
                    }
                    response
                }
                Err(panic) => OptimizeResponse::from_error(id, panic.to_string()),
            };
            slots[index] = Some(response);
        }
        slots
            .into_iter()
            .map(|slot| slot.expect("every request produced a response"))
            .collect()
    }

    /// Formally check two programs for equivalence, independent of any
    /// search: UNSAT means equivalent, SAT carries a counterexample input.
    pub fn verify_equivalence(
        &self,
        src: &bpf_isa::Program,
        cand: &bpf_isa::Program,
    ) -> EquivOutcome {
        check_equivalence(src, cand, &EquivOptions::default()).0
    }
}

/// Builder for [`K2Session`]. Setters are the fourth (highest-precedence)
/// configuration layer: they override the config file and the environment.
/// Each value goes through the setter of its [`crate::KNOBS`] row when the
/// session is built, so a value the table refuses fails [`Self::build`].
#[derive(Default)]
pub struct K2SessionBuilder {
    config_file: Option<PathBuf>,
    /// Layer-4 values by file key, applied in call order.
    overrides: Vec<(&'static str, KnobValue)>,
    params: Option<Vec<SearchParams>>,
    sink: Option<Arc<dyn EventSink>>,
}

impl std::fmt::Debug for K2SessionBuilder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("K2SessionBuilder")
            .field("config_file", &self.config_file)
            .field("sink", &self.sink.is_some())
            .finish_non_exhaustive()
    }
}

impl K2SessionBuilder {
    fn set(mut self, key: &'static str, value: KnobValue) -> Self {
        self.overrides.push((key, value));
        self
    }

    /// Layer an explicit config file (instead of the `K2_CONFIG` path).
    pub fn config_file(mut self, path: impl Into<PathBuf>) -> Self {
        self.config_file = Some(path.into());
        self
    }

    /// Override the optimization goal.
    pub fn goal(self, goal: OptimizationGoal) -> Self {
        self.set("goal", KnobValue::Str(goal_name(goal).into()))
    }

    /// Override iterations per Markov chain.
    pub fn iterations(self, iterations: u64) -> Self {
        self.set("iterations", KnobValue::Uint(iterations))
    }

    /// Override the number of generated test cases.
    pub fn num_tests(self, num_tests: usize) -> Self {
        self.set("num_tests", KnobValue::Uint(num_tests as u64))
    }

    /// Override the base RNG seed.
    pub fn seed(self, seed: u64) -> Self {
        self.set("seed", KnobValue::Uint(seed))
    }

    /// Override how many best programs to return.
    pub fn top_k(self, top_k: usize) -> Self {
        self.set("top_k", KnobValue::Uint(top_k as u64))
    }

    /// Override whether chains run on multiple threads.
    pub fn parallel(self, parallel: bool) -> Self {
        self.set("parallel", KnobValue::Bool(parallel))
    }

    /// Override the candidate execution backend.
    pub fn backend(self, backend: BackendKind) -> Self {
        self.set("backend", KnobValue::Str(backend.name().into()))
    }

    /// Override window-based (modular) equivalence verification.
    pub fn window_verification(self, enabled: bool) -> Self {
        self.set("window_verification", KnobValue::Bool(enabled))
    }

    /// Override the pre-SMT refutation batch size (`0` disables the stage).
    pub fn refute_inputs(self, inputs: usize) -> Self {
        self.set("refute_inputs", KnobValue::Uint(inputs as u64))
    }

    /// No effect: every escalated equivalence query is a one-shot solve.
    /// Kept so existing callers keep compiling.
    pub fn incremental_sat(self, _enabled: bool) -> Self {
        self
    }

    /// No effect: the safety path walk is the only safety analysis and
    /// nothing strengthens window preconditions. Kept so existing callers
    /// keep compiling.
    pub fn static_analysis(self, _enabled: bool) -> Self {
        self
    }

    /// Override the number of epochs per compilation.
    pub fn epochs(self, epochs: u64) -> Self {
        self.set("epochs", KnobValue::Uint(epochs))
    }

    /// Override cross-chain verdict-cache sharing.
    pub fn shared_cache(self, enabled: bool) -> Self {
        self.set("shared_cache", KnobValue::Bool(enabled))
    }

    /// Override counterexample exchange at barriers.
    pub fn exchange_counterexamples(self, enabled: bool) -> Self {
        self.set("exchange_counterexamples", KnobValue::Bool(enabled))
    }

    /// Override restart-from-best at barriers.
    pub fn restart_from_best(self, enabled: bool) -> Self {
        self.set("restart_from_best", KnobValue::Bool(enabled))
    }

    /// Override the stall-epochs convergence criterion (`0` disables it).
    pub fn stall_epochs(self, epochs: u64) -> Self {
        self.set("stall_epochs", KnobValue::Uint(epochs))
    }

    /// Override the wall-clock budget per compilation (`0` removes it).
    pub fn time_budget_ms(self, ms: u64) -> Self {
        self.set("time_budget_ms", KnobValue::Uint(ms))
    }

    /// Override the batch worker count (`0` = one per CPU).
    pub fn batch_workers(self, workers: usize) -> Self {
        self.set("batch_workers", KnobValue::Uint(workers as u64))
    }

    /// Override telemetry collection (solver-time attribution, per-rule
    /// counters, service timing). A pure observability knob: results are
    /// bit-identical with it on or off.
    pub fn telemetry(self, enabled: bool) -> Self {
        self.set("telemetry", KnobValue::Bool(enabled))
    }

    /// Override the telemetry JSON dump path (implies telemetry collection;
    /// written by [`K2Session::dump_telemetry`]); `""` unsets it.
    pub fn telemetry_json(self, path: impl Into<String>) -> Self {
        self.set("telemetry_json", KnobValue::Str(path.into()))
    }

    /// Replace the Markov-chain parameter settings (defaults to the five
    /// best settings from the paper's Table 8).
    pub fn params(mut self, params: Vec<SearchParams>) -> Self {
        self.params = Some(params);
        self
    }

    /// Attach a streaming event sink.
    pub fn sink(mut self, sink: Arc<dyn EventSink>) -> Self {
        self.sink = Some(sink);
        self
    }

    /// Resolve all four configuration layers and build the session.
    pub fn build(self) -> Result<K2Session, ConfigError> {
        let mut config = K2Config::resolve_with(self.config_file.as_deref())?;
        for (key, value) in self.overrides {
            let knob = Knob::by_key(key).expect("every builder setter names a knob");
            knob.set(&mut config, value.clone())
                .map_err(|e| ConfigError::new(format!("{key}: {e}, got {value}")))?;
        }
        let telemetry = if config.telemetry_enabled() {
            TelemetryRef::collector()
        } else {
            TelemetryRef::none()
        };
        Ok(K2Session {
            config,
            params: self.params.unwrap_or_else(SearchParams::table8),
            sink: match self.sink {
                Some(sink) => EventSinkRef::new(sink),
                None => EventSinkRef::none(),
            },
            telemetry,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{MAX_ITERATIONS, MAX_NUM_TESTS};
    use bpf_isa::{asm, Program, ProgramType};

    fn small_session() -> K2Session {
        K2Session::builder()
            .iterations(300)
            .num_tests(8)
            .seed(11)
            .params(SearchParams::table8().into_iter().take(2).collect())
            .build()
            .expect("session builds")
    }

    fn xdp(text: &str) -> Program {
        Program::new(ProgramType::Xdp, asm::assemble(text).unwrap())
    }

    #[test]
    fn oversized_num_tests_fails_the_build_and_the_request() {
        assert!(K2Session::builder()
            .num_tests(MAX_NUM_TESTS + 1)
            .build()
            .is_err());
        let mut request = OptimizeRequest::from_asm("mov64 r0, 1\nexit");
        request.num_tests = Some(100_000_000);
        let response = small_session().optimize(&request);
        assert!(!response.ok);
        assert!(response.error.unwrap().contains("num_tests"));
    }

    #[test]
    fn oversized_iterations_fails_the_build_and_the_request() {
        assert!(K2Session::builder()
            .iterations(MAX_ITERATIONS + 1)
            .build()
            .is_err());
        let mut request = OptimizeRequest::from_asm("mov64 r0, 1\nexit");
        request.iterations = Some(i64::MAX as u64);
        let response = small_session().optimize(&request);
        assert!(!response.ok);
        assert!(response.error.unwrap().contains("iterations"));
    }

    #[test]
    fn builder_overrides_reach_options() {
        let session = K2Session::builder()
            .goal(OptimizationGoal::Latency)
            .iterations(123)
            .seed(9)
            .epochs(2)
            .stall_epochs(0)
            .time_budget_ms(0)
            .batch_workers(3)
            .refute_inputs(0)
            .build()
            .unwrap();
        let options = session.options();
        assert_eq!(options.goal, OptimizationGoal::Latency);
        assert_eq!(options.iterations, 123);
        assert_eq!(options.seed, 9);
        assert_eq!(options.engine.num_epochs, 2);
        assert_eq!(options.engine.stall_epochs, None);
        assert_eq!(options.engine.time_budget_ms, None);
        assert_eq!(options.engine.batch_workers, 3);
        assert_eq!(options.refute_inputs, 0);
    }

    #[test]
    fn optimize_serves_versioned_responses() {
        let session = small_session();
        let mut request = OptimizeRequest::from_asm(
            "mov64 r1, 0\nstxw [r10-4], r1\nstxw [r10-8], r1\nmov64 r0, 2\nexit",
        );
        request.id = Some("t".into());
        let response = session.optimize(&request);
        assert!(response.ok, "error: {:?}", response.error);
        assert_eq!(response.id.as_deref(), Some("t"));
        assert_eq!(response.insns_before, 5);
        assert!(response.insns_after <= 5);
        assert_eq!(response.chains.len(), 2);
        // The response asm must reassemble to the reported program.
        let reassembled = asm::assemble(&response.asm).unwrap();
        assert_eq!(reassembled.len() as u64, response.insns_after);
    }

    #[test]
    fn batch_matches_individual_and_isolates_errors() {
        let session = small_session();
        let good = OptimizeRequest::from_asm("mov64 r0, 1\nmov64 r2, 3\nexit");
        let mut bad = OptimizeRequest::from_asm("this is not bpf");
        bad.id = Some("bad".into());
        let responses = session.optimize_batch(&[good.clone(), bad, good.clone()]);
        assert_eq!(responses.len(), 3);
        assert!(responses[0].ok);
        assert!(!responses[1].ok);
        assert_eq!(responses[1].id.as_deref(), Some("bad"));
        assert!(responses[2].ok);
        let solo = session.optimize(&good);
        assert_eq!(responses[0], solo);
        assert_eq!(responses[2], solo);
        assert_eq!(responses[0].to_json_string(), solo.to_json_string());
    }

    #[test]
    fn verify_equivalence_distinguishes_programs() {
        let session = small_session();
        let a = xdp("mov64 r0, 2\nexit");
        let b = xdp("mov64 r0, 1\nadd64 r0, 1\nexit");
        let c = xdp("mov64 r0, 3\nexit");
        assert!(session.verify_equivalence(&a, &b).is_equivalent());
        assert!(!session.verify_equivalence(&a, &c).is_equivalent());
    }
}
