//! `K2Config`: every knob of the pipeline in one struct, with explicit
//! layered resolution `defaults → config file → environment → builder
//! overrides`.
//!
//! Lower layers never see the environment: `k2-core` takes an
//! [`EngineConfig`]/[`CompilerOptions`] of *resolved* values. This module is
//! where a `K2_*` variable or a config-file key turns into a field — once,
//! auditable, and warning on malformed input (see [`crate::env`]).

use crate::env;
use crate::json::Json;
use bpf_interp::BackendKind;
use k2_core::{CompilerOptions, EngineConfig, OptimizationGoal};
use std::fmt;
use std::path::Path;

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
/// search setting but an allocation that can abort the process. Larger
/// values are rejected wherever they enter: config file, environment,
/// builder, and request lines.
pub const MAX_NUM_TESTS: usize = 4096;

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
#[derive(Debug, Clone, PartialEq)]
pub struct K2Config {
    /// What the search minimizes (`K2_GOAL`, file key `goal`).
    pub goal: OptimizationGoal,
    /// Iterations per Markov chain (`K2_ITERS`, file key `iterations`).
    pub iterations: u64,
    /// Test cases generated up front (`K2_NUM_TESTS`, file key `num_tests`),
    /// from 1 to [`MAX_NUM_TESTS`].
    pub num_tests: usize,
    /// Base RNG seed (`K2_SEED`, file key `seed`).
    pub seed: u64,
    /// How many best programs to return (`K2_TOP_K`, file key `top_k`).
    pub top_k: usize,
    /// Run chains on multiple threads (`K2_PARALLEL`, file key `parallel`).
    pub parallel: bool,
    /// Candidate execution backend (`K2_BACKEND`, file key `backend`).
    pub backend: BackendKind,
    /// Window-based (modular) equivalence verification, the paper's
    /// optimization IV (`K2_WINDOW`, file key `window_verification`). On by
    /// default; turning it off forces every equivalence check through the
    /// full program pair. A pure solver-work knob: results are bit-identical
    /// either way.
    pub window_verification: bool,
    /// Size of the pre-SMT refutation batch (`K2_REFUTE_INPUTS`, file key
    /// `refute_inputs`; 0 = off). Cache-miss candidates are first run on
    /// this many deterministic random inputs on the fast execution backend
    /// and refuted without a solver query when any output diverges.
    /// Refutation never flips a verdict the solver would have reached.
    pub refute_inputs: usize,
    /// Engine knobs: epochs/sharing/convergence/budget/workers
    /// (`K2_EPOCHS`, `K2_SHARED_CACHE`, `K2_EXCHANGE_CEX`,
    /// `K2_RESTART_FROM_BEST`, `K2_STALL_EPOCHS`, `K2_TIME_BUDGET_MS`,
    /// `K2_BATCH_WORKERS`; file keys `epochs`, `shared_cache`,
    /// `exchange_counterexamples`, `restart_from_best`, `stall_epochs`,
    /// `time_budget_ms`, `batch_workers`).
    pub engine: EngineConfig,
    /// Collect telemetry — solver-time attribution, per-rule counters, cache
    /// path labels, service timing (`K2_TELEMETRY`, file key `telemetry`).
    /// Off by default. A pure observability knob: search results are
    /// bit-identical with it on or off.
    pub telemetry: bool,
    /// Write the session's aggregated telemetry snapshot as JSON to this
    /// path when the session is asked to dump it (`K2_TELEMETRY_JSON`, file
    /// key `telemetry_json`). Setting a path implies `telemetry`.
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
                if let Some(path) = env::string("K2_CONFIG") {
                    config.apply_file(Path::new(&path))?;
                }
            }
        }
        config.apply_env();
        Ok(config)
    }

    /// Layer a JSON config file over this configuration. Unknown keys and
    /// ill-typed values are hard errors: a file is an explicit artifact, so
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
        let fields = match json {
            Json::Obj(fields) => fields,
            _ => return Err(ConfigError::new("top level must be a JSON object")),
        };
        for (key, value) in fields {
            self.apply_key(key, value)?;
        }
        Ok(())
    }

    fn apply_key(&mut self, key: &str, value: &Json) -> Result<(), ConfigError> {
        let bad = |expected: &str| {
            Err(ConfigError::new(format!(
                "key {key:?}: expected {expected}, got {value}"
            )))
        };
        match key {
            "goal" => match value.as_str().and_then(parse_goal) {
                Some(goal) => self.goal = goal,
                None => return bad("\"insns\" or \"latency\""),
            },
            "iterations" => match value.as_u64() {
                Some(v) if v > 0 => self.iterations = v,
                _ => return bad("a positive integer"),
            },
            "num_tests" => match value.as_u64() {
                Some(v) if v > 0 && v <= MAX_NUM_TESTS as u64 => self.num_tests = v as usize,
                _ => return bad(&format!("a positive integer up to {MAX_NUM_TESTS}")),
            },
            "seed" => match value.as_u64() {
                Some(v) => self.seed = v,
                None => return bad("an unsigned integer"),
            },
            "top_k" => match value.as_u64() {
                Some(v) if v > 0 => self.top_k = v as usize,
                _ => return bad("a positive integer"),
            },
            "parallel" => match value.as_bool() {
                Some(v) => self.parallel = v,
                None => return bad("a boolean"),
            },
            "backend" => match value.as_str().and_then(BackendKind::parse) {
                Some(kind) => self.backend = kind,
                None => return bad("\"interp\", \"jit\" or \"auto\""),
            },
            "window_verification" => match value.as_bool() {
                Some(v) => self.window_verification = v,
                None => return bad("a boolean"),
            },
            "refute_inputs" => match value.as_u64() {
                Some(v) => self.refute_inputs = v as usize,
                None => return bad("an unsigned integer (0 = off)"),
            },
            // Removed knobs: accepted, so files that still set them load.
            "incremental_sat" | "static_analysis" => {
                env::warn_removed(&format!("config key {key:?}"))
            }
            "epochs" => match value.as_u64() {
                Some(v) if v > 0 => self.engine.num_epochs = v,
                _ => return bad("a positive integer"),
            },
            "shared_cache" => match value.as_bool() {
                Some(v) => self.engine.shared_cache = v,
                None => return bad("a boolean"),
            },
            "exchange_counterexamples" => match value.as_bool() {
                Some(v) => self.engine.exchange_counterexamples = v,
                None => return bad("a boolean"),
            },
            "restart_from_best" => match value.as_bool() {
                Some(v) => self.engine.restart_from_best = v,
                None => return bad("a boolean"),
            },
            "stall_epochs" => match value.as_u64() {
                Some(0) => self.engine.stall_epochs = None,
                Some(v) => self.engine.stall_epochs = Some(v),
                None => return bad("an unsigned integer (0 = off)"),
            },
            "time_budget_ms" => match value.as_u64() {
                Some(0) => self.engine.time_budget_ms = None,
                Some(v) => self.engine.time_budget_ms = Some(v),
                None => return bad("an unsigned integer (0 = off)"),
            },
            "batch_workers" => match value.as_u64() {
                Some(v) => self.engine.batch_workers = v as usize,
                None => return bad("an unsigned integer (0 = one per CPU)"),
            },
            "telemetry" => match value.as_bool() {
                Some(v) => self.telemetry = v,
                None => return bad("a boolean"),
            },
            "telemetry_json" => match value.as_str() {
                Some(path) if !path.is_empty() => self.telemetry_json = Some(path.to_string()),
                _ => return bad("a non-empty path string"),
            },
            _ => {
                return Err(ConfigError::new(format!(
                    "unknown config key {key:?} (see the README knob table)"
                )))
            }
        }
        Ok(())
    }

    /// Layer the `K2_*` environment over this configuration. Malformed
    /// values warn on stderr and leave the lower layer's value in place
    /// (the [`crate::env`] contract).
    pub fn apply_env(&mut self) {
        if let Some(s) = env::string("K2_GOAL") {
            match parse_goal(&s) {
                Some(goal) => self.goal = goal,
                None => env::warn_malformed("K2_GOAL", &s, "one of: insns, latency"),
            }
        }
        if let Some(v) = env::u64("K2_ITERS") {
            self.iterations = v.max(1);
        }
        if let Some(v) = env::usize("K2_NUM_TESTS") {
            if v <= MAX_NUM_TESTS {
                self.num_tests = v.max(1);
            } else {
                env::warn_malformed(
                    "K2_NUM_TESTS",
                    &v.to_string(),
                    &format!("at most {MAX_NUM_TESTS}"),
                );
            }
        }
        if let Some(v) = env::u64("K2_SEED") {
            self.seed = v;
        }
        if let Some(v) = env::usize("K2_TOP_K") {
            self.top_k = v.max(1);
        }
        if let Some(v) = env::flag("K2_PARALLEL") {
            self.parallel = v;
        }
        if let Some(kind) = env::backend("K2_BACKEND") {
            self.backend = kind;
        }
        if let Some(v) = env::flag("K2_WINDOW") {
            self.window_verification = v;
        }
        // No `.max(1)`: zero is meaningful — it turns the refutation stage
        // off entirely (the cold-parity configuration CI exercises).
        if let Some(v) = env::usize("K2_REFUTE_INPUTS") {
            self.refute_inputs = v;
        }
        env::removed("K2_INCREMENTAL_SAT");
        env::removed("K2_STATIC_ANALYSIS");
        if let Some(v) = env::u64("K2_EPOCHS") {
            self.engine.num_epochs = v.max(1);
        }
        if let Some(v) = env::flag("K2_SHARED_CACHE") {
            self.engine.shared_cache = v;
        }
        if let Some(v) = env::flag("K2_EXCHANGE_CEX") {
            self.engine.exchange_counterexamples = v;
        }
        if let Some(v) = env::flag("K2_RESTART_FROM_BEST") {
            self.engine.restart_from_best = v;
        }
        // For the two optional knobs the env value wins outright, with `0`
        // meaning "off" — the environment can also *disable* a criterion a
        // lower layer configured.
        match env::u64("K2_STALL_EPOCHS") {
            Some(0) => self.engine.stall_epochs = None,
            Some(v) => self.engine.stall_epochs = Some(v),
            None => {}
        }
        match env::u64("K2_TIME_BUDGET_MS") {
            Some(0) => self.engine.time_budget_ms = None,
            Some(v) => self.engine.time_budget_ms = Some(v),
            None => {}
        }
        if let Some(v) = env::usize("K2_BATCH_WORKERS") {
            self.engine.batch_workers = v;
        }
        if let Some(v) = env::flag("K2_TELEMETRY") {
            self.telemetry = v;
        }
        if let Some(path) = env::string("K2_TELEMETRY_JSON") {
            if path.is_empty() {
                self.telemetry_json = None;
            } else {
                self.telemetry_json = Some(path);
            }
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
                "parallel": false, "top_k": 3}"#,
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

        for bad in [
            r#"{"iterations": "many"}"#,
            r#"{"iterations": 0}"#,
            r#"{"goal": "speed"}"#,
            r#"{"backend": 3}"#,
            r#"{"no_such_knob": 1}"#,
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
    fn num_tests_is_bounded_in_the_file_and_environment_layers() {
        let mut config = K2Config::default();
        let at_bound = format!(r#"{{"num_tests": {MAX_NUM_TESTS}}}"#);
        config.apply_json(&Json::parse(&at_bound).unwrap()).unwrap();
        assert_eq!(config.num_tests, MAX_NUM_TESTS);
        for bad in [r#"{"num_tests": 0}"#, r#"{"num_tests": 100000000}"#] {
            let mut c = K2Config::default();
            assert!(c.apply_json(&Json::parse(bad).unwrap()).is_err(), "{bad}");
        }

        let _guard = env::test_lock();
        let saved = std::env::var("K2_NUM_TESTS").ok();
        std::env::set_var("K2_NUM_TESTS", "100000000");
        let mut config = K2Config::default();
        config.apply_env();
        assert_eq!(config.num_tests, K2Config::default().num_tests);
        std::env::set_var("K2_NUM_TESTS", MAX_NUM_TESTS.to_string());
        config.apply_env();
        assert_eq!(config.num_tests, MAX_NUM_TESTS);
        match saved {
            Some(v) => std::env::set_var("K2_NUM_TESTS", v),
            None => std::env::remove_var("K2_NUM_TESTS"),
        }
    }

    #[test]
    fn removed_keys_are_accepted_and_ignored() {
        // Config files written for earlier releases may still carry the
        // keys: each warns instead of failing, whatever its value, and
        // changes nothing.
        for key in ["incremental_sat", "static_analysis"] {
            for value in ["false", "true", "2", r#""yes""#] {
                let file = format!(r#"{{"{key}": {value}}}"#);
                let mut config = K2Config::default();
                config.apply_json(&Json::parse(&file).unwrap()).unwrap();
                assert_eq!(config, K2Config::default(), "{file}");
            }
        }
    }

    #[test]
    fn removed_static_analysis_variable_warns_and_is_ignored() {
        let _guard = env::test_lock();
        let saved = std::env::var("K2_STATIC_ANALYSIS").ok();
        std::env::remove_var("K2_STATIC_ANALYSIS");
        let mut unset = K2Config::default();
        unset.apply_env();
        for raw in ["0", "1", "maybe"] {
            std::env::set_var("K2_STATIC_ANALYSIS", raw);
            assert!(env::removed("K2_STATIC_ANALYSIS"), "raw = {raw:?}");
            let mut config = K2Config::default();
            config.apply_env();
            assert_eq!(config, unset, "raw = {raw:?}");
        }
        match saved {
            Some(v) => std::env::set_var("K2_STATIC_ANALYSIS", v),
            None => std::env::remove_var("K2_STATIC_ANALYSIS"),
        }
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

        for bad in [r#"{"telemetry": 1}"#, r#"{"telemetry_json": ""}"#] {
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
