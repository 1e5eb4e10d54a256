//! `K2Config`: every knob of the pipeline in one struct, with explicit
//! layered resolution `defaults → config file → environment → builder
//! overrides`, and per-request overrides on top.
//!
//! [`KNOBS`] declares each knob once: its config-file key, its `K2_*`
//! variable, the kind and bounds of its value, what `0` or `""` means, and
//! the field it sets. Every layer hands its values to the one setter,
//! `Knob::set`, so a value is accepted or refused the same way wherever
//! it enters; a layer only decides what a refusal means. Lower layers never
//! see the environment: `k2-core` takes an [`EngineConfig`]/
//! [`CompilerOptions`] of *resolved* values, and apart from the `K2_CONFIG`
//! path this table is the only reader of `K2_*` variables.

use crate::json::Json;
use bpf_interp::BackendKind;
use k2_core::{CompilerOptions, EngineConfig, OptimizationGoal};
use std::collections::BTreeSet;
use std::fmt;
use std::path::Path;
use std::sync::Mutex;

/// A configuration-file or layering error. Environment problems never reach
/// this type — a malformed variable only warns — but an explicitly named
/// config file that cannot be read or contains junk is a hard error.
#[derive(Debug, Clone, PartialEq)]
pub struct ConfigError {
    msg: String,
}

impl ConfigError {
    pub(crate) fn new(msg: impl Into<String>) -> ConfigError {
        ConfigError { msg: msg.into() }
    }
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.msg)
    }
}

impl std::error::Error for ConfigError {}

/// Largest accepted test-suite size (`num_tests`). Every test input is
/// generated, run on the source and kept for the whole compilation, and
/// candidates are graded against it, so a size far past this is not a
/// search setting but an allocation that can abort the process.
pub const MAX_NUM_TESTS: usize = 4096;

/// Largest accepted iteration budget per Markov chain (`iterations`). A
/// compilation runs its chains to the end of the budget, so a budget far
/// past this (the largest the documentation uses is 100,000) would hold a
/// worker for hours or for good.
pub const MAX_ITERATIONS: u64 = 10_000_000;

/// Parse an optimization-goal name (`insns` / `latency`).
pub fn parse_goal(s: &str) -> Option<OptimizationGoal> {
    match s.trim().to_ascii_lowercase().as_str() {
        "insns" | "instructions" | "instruction_count" | "instruction-count" => {
            Some(OptimizationGoal::InstructionCount)
        }
        "latency" | "lat" => Some(OptimizationGoal::Latency),
        _ => None,
    }
}

/// The canonical name of an optimization goal (inverse of [`parse_goal`]).
pub fn goal_name(goal: OptimizationGoal) -> &'static str {
    match goal {
        OptimizationGoal::InstructionCount => "insns",
        OptimizationGoal::Latency => "latency",
    }
}

/// The unified, fully-resolved configuration of one [`crate::K2Session`].
///
/// | Layer | Source | Wins over |
/// |-------|--------|-----------|
/// | 1 | [`K2Config::default`] | — |
/// | 2 | config file (JSON; [`K2Config::apply_file`], or the `K2_CONFIG` path) | defaults |
/// | 3 | `K2_*` environment ([`K2Config::apply_env`]) | config file |
/// | 4 | [`crate::K2SessionBuilder`] setters | environment |
///
/// Each field's file key and variable are listed in [`KNOBS`].
#[derive(Debug, Clone, PartialEq)]
pub struct K2Config {
    /// What the search minimizes.
    pub goal: OptimizationGoal,
    /// Iterations per Markov chain, from 1 to [`MAX_ITERATIONS`].
    pub iterations: u64,
    /// Test cases generated up front, from 1 to [`MAX_NUM_TESTS`].
    pub num_tests: usize,
    /// Base RNG seed.
    pub seed: u64,
    /// How many best programs to return.
    pub top_k: usize,
    /// Run chains on multiple threads.
    pub parallel: bool,
    /// Candidate execution backend.
    pub backend: BackendKind,
    /// Window-based (modular) equivalence verification, the paper's
    /// optimization IV. On by default; turning it off forces every
    /// equivalence check through the full program pair. A pure solver-work
    /// knob: results are bit-identical either way.
    pub window_verification: bool,
    /// Size of the pre-SMT refutation batch (0 = off). Cache-miss
    /// candidates are first run on this many deterministic random inputs on
    /// the fast execution backend and refuted without a solver query when
    /// any output diverges. Refutation never flips a verdict the solver
    /// would have reached.
    pub refute_inputs: usize,
    /// Engine knobs: epochs, sharing, convergence, budget, workers.
    pub engine: EngineConfig,
    /// Collect telemetry — solver-time attribution, per-rule counters, cache
    /// path labels, service timing. Off by default. A pure observability
    /// knob: search results are bit-identical with it on or off.
    pub telemetry: bool,
    /// Write the session's aggregated telemetry snapshot as JSON to this
    /// path when the session is asked to dump it. Setting a path implies
    /// `telemetry`.
    pub telemetry_json: Option<String>,
}

impl Default for K2Config {
    fn default() -> Self {
        let base = CompilerOptions::default();
        K2Config {
            goal: base.goal,
            iterations: base.iterations,
            num_tests: base.num_tests,
            seed: base.seed,
            top_k: base.top_k,
            parallel: base.parallel,
            backend: base.backend,
            window_verification: base.window_verification,
            refute_inputs: base.refute_inputs,
            engine: base.engine,
            telemetry: false,
            telemetry_json: None,
        }
    }
}

/// A value as a layer hands it to [`Knob::set`]: a config-file JSON value,
/// a parsed `K2_*` variable, a builder argument or a request field.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum KnobValue {
    /// An on/off switch.
    Bool(bool),
    /// An unsigned integer, carried in full: a seed may use all 64 bits.
    Uint(u64),
    /// A name (goal, backend) or a path.
    Str(String),
}

impl fmt::Display for KnobValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KnobValue::Bool(v) => write!(f, "{v}"),
            KnobValue::Uint(v) => write!(f, "{v}"),
            KnobValue::Str(s) => write!(f, "{s:?}"),
        }
    }
}

/// What a knob holds, and the setter that stores it in its field.
#[derive(Clone, Copy)]
enum Kind {
    /// An on/off switch.
    Bool(fn(&mut K2Config, bool)),
    /// An integer from the first bound to the second, both inclusive: a
    /// lower bound of 1 refuses 0, and a setter may give 0 a meaning.
    Uint(u64, u64, fn(&mut K2Config, u64)),
    /// An optimization-goal name ([`parse_goal`]).
    Goal(fn(&mut K2Config, OptimizationGoal)),
    /// An execution-backend name ([`BackendKind::parse`]).
    Backend(fn(&mut K2Config, BackendKind)),
    /// A file path; `""` unsets it.
    Path(fn(&mut K2Config, Option<String>)),
}

impl fmt::Display for Kind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Kind::Bool(_) => f.write_str("a boolean"),
            Kind::Uint(0, u64::MAX, _) => f.write_str("an unsigned integer"),
            Kind::Uint(min, u64::MAX, _) => write!(f, "an integer of at least {min}"),
            Kind::Uint(min, max, _) => write!(f, "an integer from {min} to {max}"),
            Kind::Goal(_) => f.write_str("\"insns\" or \"latency\""),
            Kind::Backend(_) => f.write_str("\"interp\", \"jit\" or \"auto\""),
            Kind::Path(_) => f.write_str("a path string (\"\" = unset)"),
        }
    }
}

/// One row of [`KNOBS`].
pub struct Knob {
    /// The config-file key. It also names the builder setter and, for
    /// `goal`, `iterations`, `seed`, `num_tests` and `top_k`, the request
    /// field.
    pub key: &'static str,
    /// The `K2_*` environment variable.
    pub env: &'static str,
    kind: Kind,
}

const USIZE_MAX: u64 = usize::MAX as u64;

const fn knob(key: &'static str, env: &'static str, kind: Kind) -> Knob {
    Knob { key, env, kind }
}

/// Every knob, declared once. The README knob table lists the same rows.
#[rustfmt::skip]
pub const KNOBS: &[Knob] = &[
    knob("goal",                     "K2_GOAL",              Kind::Goal(|c, v| c.goal = v)),
    knob("iterations",               "K2_ITERS",             Kind::Uint(1, MAX_ITERATIONS, |c, v| c.iterations = v)),
    knob("num_tests",                "K2_NUM_TESTS",         Kind::Uint(1, MAX_NUM_TESTS as u64, |c, v| c.num_tests = v as usize)),
    knob("seed",                     "K2_SEED",              Kind::Uint(0, u64::MAX, |c, v| c.seed = v)),
    knob("top_k",                    "K2_TOP_K",             Kind::Uint(1, USIZE_MAX, |c, v| c.top_k = v as usize)),
    knob("parallel",                 "K2_PARALLEL",          Kind::Bool(|c, v| c.parallel = v)),
    knob("backend",                  "K2_BACKEND",           Kind::Backend(|c, v| c.backend = v)),
    knob("window_verification",      "K2_WINDOW",            Kind::Bool(|c, v| c.window_verification = v)),
    // 0 turns the refutation stage off.
    knob("refute_inputs",            "K2_REFUTE_INPUTS",     Kind::Uint(0, USIZE_MAX, |c, v| c.refute_inputs = v as usize)),
    knob("epochs",                   "K2_EPOCHS",            Kind::Uint(1, u64::MAX, |c, v| c.engine.num_epochs = v)),
    knob("shared_cache",             "K2_SHARED_CACHE",      Kind::Bool(|c, v| c.engine.shared_cache = v)),
    knob("exchange_counterexamples", "K2_EXCHANGE_CEX",      Kind::Bool(|c, v| c.engine.exchange_counterexamples = v)),
    knob("restart_from_best",        "K2_RESTART_FROM_BEST", Kind::Bool(|c, v| c.engine.restart_from_best = v)),
    // 0 turns the criterion off, also over a lower layer that set one.
    knob("stall_epochs",             "K2_STALL_EPOCHS",      Kind::Uint(0, u64::MAX, |c, v| c.engine.stall_epochs = (v > 0).then_some(v))),
    // 0 removes the budget, also over a lower layer that set one.
    knob("time_budget_ms",           "K2_TIME_BUDGET_MS",    Kind::Uint(0, u64::MAX, |c, v| c.engine.time_budget_ms = (v > 0).then_some(v))),
    // 0 means one worker per CPU.
    knob("batch_workers",            "K2_BATCH_WORKERS",     Kind::Uint(0, USIZE_MAX, |c, v| c.engine.batch_workers = v as usize)),
    knob("telemetry",                "K2_TELEMETRY",         Kind::Bool(|c, v| c.telemetry = v)),
    knob("telemetry_json",           "K2_TELEMETRY_JSON",    Kind::Path(|c, v| c.telemetry_json = v)),
];

impl Knob {
    /// The row whose file key is `key`.
    pub fn by_key(key: &str) -> Option<&'static Knob> {
        KNOBS.iter().find(|knob| knob.key == key)
    }

    /// The one setter of every layer: store `value` in this row's field, or
    /// refuse it — wrong kind or out of bounds — leaving `config` as it was.
    /// The error says what the row expects.
    pub(crate) fn set(&self, config: &mut K2Config, value: KnobValue) -> Result<(), String> {
        match (self.kind, value) {
            (Kind::Bool(set), KnobValue::Bool(v)) => set(config, v),
            (Kind::Uint(min, max, set), KnobValue::Uint(v)) if (min..=max).contains(&v) => {
                set(config, v)
            }
            (Kind::Goal(set), KnobValue::Str(s)) => {
                set(config, parse_goal(&s).ok_or_else(|| self.expected())?)
            }
            (Kind::Backend(set), KnobValue::Str(s)) => set(
                config,
                BackendKind::parse(s.trim()).ok_or_else(|| self.expected())?,
            ),
            (Kind::Path(set), KnobValue::Str(s)) => set(config, Some(s).filter(|s| !s.is_empty())),
            _ => return Err(self.expected()),
        }
        Ok(())
    }

    fn expected(&self) -> String {
        format!("expected {}", self.kind)
    }

    /// Layer this row's `K2_*` variable, when set, over `config`. A value
    /// the row refuses prints one warning on stderr and keeps the lower
    /// layer's value. Booleans also take `0/1`, `on/off`, `yes/no`, and
    /// `""` as false.
    pub fn apply_env(&self, config: &mut K2Config) {
        let Some(raw) = env_var(self.env) else {
            return;
        };
        let value = match self.kind {
            Kind::Bool(_) => match raw.trim().to_ascii_lowercase().as_str() {
                "" | "0" | "false" | "off" | "no" => Some(KnobValue::Bool(false)),
                "1" | "true" | "on" | "yes" => Some(KnobValue::Bool(true)),
                _ => None,
            },
            Kind::Uint(..) => raw.trim().parse().ok().map(KnobValue::Uint),
            _ => Some(KnobValue::Str(raw.clone())),
        };
        if let Err(e) = value
            .ok_or_else(|| self.expected())
            .and_then(|value| self.set(config, value))
        {
            warn_ignoring(self.env, &raw, &e);
        }
    }
}

/// Read an environment variable; a non-UTF-8 value warns and reads as
/// unset.
fn env_var(name: &str) -> Option<String> {
    match std::env::var(name) {
        Ok(v) => Some(v),
        Err(std::env::VarError::NotPresent) => None,
        Err(std::env::VarError::NotUnicode(_)) => {
            warn_ignoring(name, "<non-utf8>", "expected a UTF-8 string");
            None
        }
    }
}

/// Warn that `name=raw` is ignored, once per process for each variable and
/// value: harnesses build a session, and so read the environment, per
/// benchmark.
fn warn_ignoring(name: &str, raw: &str, why: &str) {
    static WARNED: Mutex<BTreeSet<(String, String)>> = Mutex::new(BTreeSet::new());
    // A set is valid after every insert, so a poisoned lock is still usable.
    let first = WARNED
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .insert((name.to_string(), raw.to_string()));
    if first {
        eprintln!("k2: warning: ignoring {name}={raw:?}: {why}");
    }
}

impl K2Config {
    /// Resolve the first three layers: defaults, then the config file named
    /// by `K2_CONFIG` (if set), then the `K2_*` environment.
    pub fn resolve() -> Result<K2Config, ConfigError> {
        K2Config::resolve_with(None)
    }

    /// [`K2Config::resolve`] with an explicit config file taking the place
    /// of the `K2_CONFIG` one. This is the single implementation of the
    /// layer-1/2/3 sequence; the session builder adds layer 4 on top.
    pub fn resolve_with(file: Option<&Path>) -> Result<K2Config, ConfigError> {
        let mut config = K2Config::default();
        match file {
            Some(path) => config.apply_file(path)?,
            None => {
                if let Some(path) = env_var("K2_CONFIG") {
                    config.apply_file(Path::new(&path))?;
                }
            }
        }
        config.apply_env();
        Ok(config)
    }

    /// Layer a JSON config file over this configuration. Unknown keys and
    /// refused values are hard errors: a file is an explicit artifact, so
    /// a typo should fail loudly rather than warn.
    pub fn apply_file(&mut self, path: &Path) -> Result<(), ConfigError> {
        let text = std::fs::read_to_string(path).map_err(|e| {
            ConfigError::new(format!("cannot read config file {}: {e}", path.display()))
        })?;
        let json = Json::parse(&text).map_err(|e| {
            ConfigError::new(format!(
                "config file {} is not valid JSON: {e}",
                path.display()
            ))
        })?;
        self.apply_json(&json)
            .map_err(|e| ConfigError::new(format!("config file {}: {e}", path.display())))
    }

    /// Layer a parsed JSON object over this configuration.
    pub fn apply_json(&mut self, json: &Json) -> Result<(), ConfigError> {
        let Json::Obj(fields) = json else {
            return Err(ConfigError::new("top level must be a JSON object"));
        };
        for (key, value) in fields {
            let knob = Knob::by_key(key).ok_or_else(|| {
                ConfigError::new(format!(
                    "unknown config key {key:?} (see the README knob table)"
                ))
            })?;
            let parsed = match value {
                Json::Bool(v) => Some(KnobValue::Bool(*v)),
                Json::Str(s) => Some(KnobValue::Str(s.clone())),
                _ => value.as_u64().map(KnobValue::Uint),
            };
            parsed
                .ok_or_else(|| knob.expected())
                .and_then(|parsed| knob.set(self, parsed))
                .map_err(|e| ConfigError::new(format!("key {key:?}: {e}, got {value}")))?;
        }
        Ok(())
    }

    /// Layer the `K2_*` environment over this configuration, row by row
    /// ([`Knob::apply_env`]).
    pub fn apply_env(&mut self) {
        for knob in KNOBS {
            knob.apply_env(self);
        }
    }

    /// Whether a telemetry recorder should be attached: explicitly enabled,
    /// or implied by a JSON dump path.
    pub fn telemetry_enabled(&self) -> bool {
        self.telemetry || self.telemetry_json.is_some()
    }

    /// Materialize engine-level [`CompilerOptions`] from this configuration
    /// (default parameter settings, no event sink — [`crate::K2Session`]
    /// fills those in).
    pub fn options(&self) -> CompilerOptions {
        CompilerOptions {
            goal: self.goal,
            iterations: self.iterations,
            num_tests: self.num_tests,
            seed: self.seed,
            top_k: self.top_k,
            parallel: self.parallel,
            backend: self.backend,
            window_verification: self.window_verification,
            refute_inputs: self.refute_inputs,
            engine: self.engine,
            ..CompilerOptions::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The process environment is global; every test here that touches it
    /// holds this lock so the assertions never race each other.
    fn test_lock() -> std::sync::MutexGuard<'static, ()> {
        use std::sync::{Mutex, OnceLock};
        static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
        LOCK.get_or_init(|| Mutex::new(()))
            .lock()
            .unwrap_or_else(|e| e.into_inner())
    }

    /// `config` with only `name` set to `raw` layered over it.
    fn with_env(config: &K2Config, name: &str, raw: &str) -> K2Config {
        let knob = KNOBS.iter().find(|knob| knob.env == name).unwrap();
        let saved = std::env::var(name).ok();
        std::env::set_var(name, raw);
        let mut config = config.clone();
        knob.apply_env(&mut config);
        match saved {
            Some(v) => std::env::set_var(name, v),
            None => std::env::remove_var(name),
        }
        config
    }

    #[test]
    fn defaults_mirror_compiler_options() {
        let config = K2Config::default();
        let base = CompilerOptions::default();
        assert_eq!(config.iterations, base.iterations);
        assert_eq!(config.seed, base.seed);
        assert_eq!(config.engine, base.engine);
    }

    #[test]
    fn json_layer_sets_and_rejects() {
        let mut config = K2Config::default();
        let json = Json::parse(
            r#"{"iterations": 123, "goal": "latency", "backend": "interp",
                "epochs": 2, "stall_epochs": 0, "time_budget_ms": 250,
                "parallel": false, "top_k": 3, "seed": 18446744073709551615}"#,
        )
        .unwrap();
        config.apply_json(&json).unwrap();
        assert_eq!(config.iterations, 123);
        assert_eq!(config.goal, OptimizationGoal::Latency);
        assert_eq!(config.backend, BackendKind::Interp);
        assert_eq!(config.engine.num_epochs, 2);
        assert_eq!(config.engine.stall_epochs, None);
        assert_eq!(config.engine.time_budget_ms, Some(250));
        assert!(!config.parallel);
        assert_eq!(config.top_k, 3);
        assert_eq!(config.seed, u64::MAX);

        for bad in [
            r#"{"iterations": "many"}"#,
            r#"{"iterations": 0}"#,
            r#"{"seed": -1}"#,
            r#"{"seed": 18446744073709551616}"#,
            r#"{"goal": "speed"}"#,
            r#"{"backend": 3}"#,
            r#"{"no_such_knob": 1}"#,
            r#"{"incremental_sat": true}"#,
            r#"{"static_analysis": false}"#,
            r#"[1, 2]"#,
        ] {
            let mut c = K2Config::default();
            assert!(
                c.apply_json(&Json::parse(bad).unwrap()).is_err(),
                "should reject {bad}"
            );
        }
    }

    #[test]
    fn solver_pipeline_keys_layer() {
        let mut config = K2Config::default();
        assert_eq!(config.refute_inputs, 64);
        config
            .apply_json(&Json::parse(r#"{"refute_inputs": 0}"#).unwrap())
            .unwrap();
        assert_eq!(config.refute_inputs, 0, "zero must mean off, not clamp");
        assert_eq!(config.options().refute_inputs, 0);

        let mut c = K2Config::default();
        assert!(c
            .apply_json(&Json::parse(r#"{"refute_inputs": true}"#).unwrap())
            .is_err());
    }

    #[test]
    fn iterations_is_bounded_in_the_file_and_environment_layers() {
        let mut config = K2Config::default();
        let at_bound = format!(r#"{{"iterations": {MAX_ITERATIONS}}}"#);
        config.apply_json(&Json::parse(&at_bound).unwrap()).unwrap();
        assert_eq!(config.iterations, MAX_ITERATIONS);
        for bad in [
            r#"{"iterations": 0}"#,
            r#"{"iterations": 10000001}"#,
            r#"{"iterations": 9223372036854775807}"#,
        ] {
            let mut c = K2Config::default();
            assert!(c.apply_json(&Json::parse(bad).unwrap()).is_err(), "{bad}");
        }

        let _guard = test_lock();
        let default = K2Config::default();
        for bad in ["9223372036854775807", "0"] {
            assert_eq!(with_env(&default, "K2_ITERS", bad), default, "{bad}");
        }
        let at_bound = with_env(&default, "K2_ITERS", &MAX_ITERATIONS.to_string());
        assert_eq!(at_bound.iterations, MAX_ITERATIONS);
    }

    #[test]
    fn num_tests_is_bounded_in_the_file_and_environment_layers() {
        let mut config = K2Config::default();
        let at_bound = format!(r#"{{"num_tests": {MAX_NUM_TESTS}}}"#);
        config.apply_json(&Json::parse(&at_bound).unwrap()).unwrap();
        assert_eq!(config.num_tests, MAX_NUM_TESTS);
        for bad in [r#"{"num_tests": 0}"#, r#"{"num_tests": 100000000}"#] {
            let mut c = K2Config::default();
            assert!(c.apply_json(&Json::parse(bad).unwrap()).is_err(), "{bad}");
        }

        let _guard = test_lock();
        let default = K2Config::default();
        for bad in ["100000000", "0"] {
            assert_eq!(with_env(&default, "K2_NUM_TESTS", bad), default, "{bad}");
        }
        let at_bound = with_env(&default, "K2_NUM_TESTS", &MAX_NUM_TESTS.to_string());
        assert_eq!(at_bound.num_tests, MAX_NUM_TESTS);
    }

    #[test]
    fn environment_values_parse_by_kind_and_refusals_keep_the_lower_layer() {
        let _guard = test_lock();
        let lower = K2Config {
            parallel: false,
            ..K2Config::default()
        };
        for (raw, want) in [
            ("1", true),
            ("true", true),
            ("ON", true),
            (" yes ", true),
            ("0", false),
            ("off", false),
            ("", false),
        ] {
            let config = with_env(&lower, "K2_TELEMETRY", raw);
            assert_eq!(config.telemetry, want, "raw = {raw:?}");
        }
        for (name, raw) in [
            ("K2_TELEMETRY", "maybe"),
            ("K2_PARALLEL", "2"),
            ("K2_EPOCHS", "abc"),
            ("K2_EPOCHS", "-1"),
            ("K2_SEED", "18446744073709551616"),
            ("K2_BACKEND", "gpu"),
            ("K2_GOAL", "speed"),
        ] {
            assert_eq!(with_env(&lower, name, raw), lower, "{name}={raw:?}");
        }
        assert_eq!(with_env(&lower, "K2_SEED", " 42 ").seed, 42);
        assert_eq!(
            with_env(&lower, "K2_BACKEND", "jit").backend,
            BackendKind::Jit
        );
    }

    #[test]
    fn telemetry_keys_layer_and_imply_enablement() {
        let mut config = K2Config::default();
        assert!(!config.telemetry_enabled());
        config
            .apply_json(&Json::parse(r#"{"telemetry": true}"#).unwrap())
            .unwrap();
        assert!(config.telemetry && config.telemetry_enabled());

        let mut config = K2Config::default();
        config
            .apply_json(&Json::parse(r#"{"telemetry_json": "/tmp/t.json"}"#).unwrap())
            .unwrap();
        assert!(!config.telemetry, "dump path must not flip the flag itself");
        assert!(config.telemetry_enabled(), "dump path implies a recorder");
        assert_eq!(config.telemetry_json.as_deref(), Some("/tmp/t.json"));
        // An empty path unsets a lower layer's, as it does from the
        // environment and the builder.
        config
            .apply_json(&Json::parse(r#"{"telemetry_json": ""}"#).unwrap())
            .unwrap();
        assert_eq!(config.telemetry_json, None);

        for bad in [r#"{"telemetry": 1}"#, r#"{"telemetry_json": 3}"#] {
            let mut c = K2Config::default();
            assert!(
                c.apply_json(&Json::parse(bad).unwrap()).is_err(),
                "should reject {bad}"
            );
        }
    }

    #[test]
    fn goal_names_round_trip() {
        for goal in [
            OptimizationGoal::InstructionCount,
            OptimizationGoal::Latency,
        ] {
            assert_eq!(parse_goal(goal_name(goal)), Some(goal));
        }
        assert_eq!(parse_goal("nonsense"), None);
    }
}
