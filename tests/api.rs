//! Integration tests of the `k2::api` surface: configuration layering
//! precedence (defaults < config file < environment < builder), JSON
//! round-trips of the versioned protocol, the `k2c` JSONL service binary
//! (bit-identical to the in-process session), and the ordering/determinism
//! of streamed search events.

use k2::api::{
    CollectingSink, Json, K2Config, K2Session, K2SessionBuilder, OptimizeRequest, OptimizeResponse,
    SearchEvent, KNOBS,
};
use k2::core::{BackendKind, OptimizationGoal, SearchParams};
use k2::telemetry::TelemetrySnapshot;
use std::io::Write;
use std::sync::{Mutex, MutexGuard, OnceLock};

// ---------------------------------------------------------------------------
// Environment plumbing: the process environment is global, so every test
// that reads or writes it serializes on one lock, and mutations are undone
// by guard drop (restoring whatever the surrounding harness — e.g. a CI run
// with K2_CONFIG + conflicting K2_* variables — had set).
// ---------------------------------------------------------------------------

fn env_lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|e| e.into_inner())
}

struct EnvGuard {
    saved: Vec<(&'static str, Option<String>)>,
}

impl EnvGuard {
    fn set(vars: &[(&'static str, Option<&str>)]) -> EnvGuard {
        let saved = vars
            .iter()
            .map(|(name, value)| {
                let previous = std::env::var(name).ok();
                match value {
                    Some(v) => std::env::set_var(name, v),
                    None => std::env::remove_var(name),
                }
                (*name, previous)
            })
            .collect();
        EnvGuard { saved }
    }
}

impl Drop for EnvGuard {
    fn drop(&mut self) {
        for (name, previous) in &self.saved {
            match previous {
                Some(v) => std::env::set_var(name, v),
                None => std::env::remove_var(name),
            }
        }
    }
}

fn temp_config_file(contents: &str) -> std::path::PathBuf {
    let path = std::env::temp_dir().join(format!(
        "k2-api-test-{}-{:?}.json",
        std::process::id(),
        std::thread::current().id()
    ));
    std::fs::write(&path, contents).expect("write temp config");
    path
}

const SHRINKABLE: &str = "mov64 r1, 0\nstxw [r10-4], r1\nstxw [r10-8], r1\nmov64 r0, 2\nexit";

// ---------------------------------------------------------------------------
// Configuration layering.
// ---------------------------------------------------------------------------

#[test]
fn config_layering_precedence_file_env_builder() {
    let _lock = env_lock();
    let path = temp_config_file(
        r#"{"iterations": 111, "epochs": 2, "seed": 5, "backend": "interp", "top_k": 4}"#,
    );
    let path_str = path.to_str().unwrap().to_string();

    // Layer 2 only: the file beats the defaults.
    {
        let _env = EnvGuard::set(&[
            ("K2_CONFIG", Some(&path_str)),
            ("K2_ITERS", None),
            ("K2_SEED", None),
            ("K2_EPOCHS", None),
            ("K2_TOP_K", None),
            ("K2_BACKEND", None),
        ]);
        let session = K2Session::builder().build().unwrap();
        assert_eq!(session.config().iterations, 111);
        assert_eq!(session.config().engine.num_epochs, 2);
        assert_eq!(session.config().seed, 5);
        assert_eq!(session.config().top_k, 4);
    }

    // Layer 3: the environment beats the file...
    {
        let _env = EnvGuard::set(&[
            ("K2_CONFIG", Some(&path_str)),
            ("K2_ITERS", Some("222")),
            ("K2_SEED", None),
            ("K2_EPOCHS", None),
            ("K2_TOP_K", None),
            ("K2_BACKEND", None),
        ]);
        let session = K2Session::builder().build().unwrap();
        assert_eq!(session.config().iterations, 222, "env beats file");
        assert_eq!(session.config().engine.num_epochs, 2, "file value survives");

        // ... and layer 4: builder overrides beat the environment.
        let session = K2Session::builder()
            .iterations(333)
            .epochs(7)
            .build()
            .unwrap();
        assert_eq!(session.config().iterations, 333, "builder beats env");
        assert_eq!(session.config().engine.num_epochs, 7, "builder beats file");
        assert_eq!(session.config().seed, 5, "untouched file value survives");
    }

    // A malformed environment value warns and falls back to the lower layer
    // instead of silently acting unset-like *and* instead of failing.
    {
        let _env = EnvGuard::set(&[
            ("K2_CONFIG", Some(&path_str)),
            ("K2_ITERS", Some("not-a-number")),
            ("K2_EPOCHS", Some("abc")),
            ("K2_SEED", None),
            ("K2_TOP_K", None),
            ("K2_BACKEND", None),
        ]);
        let session = K2Session::builder().build().unwrap();
        assert_eq!(session.config().iterations, 111, "falls back to the file");
        assert_eq!(session.config().engine.num_epochs, 2);
    }

    // A broken config file is a hard error (it was explicitly named).
    {
        let bad = temp_config_file(r#"{"no_such_knob": 1}"#);
        let result = K2Session::builder().config_file(&bad).build();
        assert!(result.is_err());
        let message = result.err().unwrap().to_string();
        assert!(message.contains("no_such_knob"), "got: {message}");
        std::fs::remove_file(bad).ok();
    }

    std::fs::remove_file(path).ok();
}

/// One knob as each layer writes it: a valid and an invalid value, each as
/// JSON (config file, request line) and as a `K2_*` value, and the builder
/// setter called with them.
struct KnobCase {
    key: &'static str,
    env: &'static str,
    valid: (&'static str, &'static str),
    build_valid: fn(K2SessionBuilder) -> K2SessionBuilder,
    /// The invalid value; `None` where the environment accepts any string.
    invalid: (&'static str, Option<&'static str>),
    /// The invalid value through the typed setter, where it can express it.
    build_invalid: Option<fn(K2SessionBuilder) -> K2SessionBuilder>,
}

const REQUEST_FIELDS: [&str; 5] = ["goal", "iterations", "seed", "num_tests", "top_k"];

fn knob_cases() -> Vec<KnobCase> {
    fn case(
        key: &'static str,
        env: &'static str,
        valid: (&'static str, &'static str),
        build_valid: fn(K2SessionBuilder) -> K2SessionBuilder,
        invalid: (&'static str, Option<&'static str>),
        build_invalid: Option<fn(K2SessionBuilder) -> K2SessionBuilder>,
    ) -> KnobCase {
        KnobCase {
            key,
            env,
            valid,
            build_valid,
            invalid,
            build_invalid,
        }
    }
    vec![
        case(
            "goal",
            "K2_GOAL",
            (r#""latency""#, "latency"),
            |b| b.goal(OptimizationGoal::Latency),
            (r#""speed""#, Some("speed")),
            None,
        ),
        case(
            "iterations",
            "K2_ITERS",
            ("123", "123"),
            |b| b.iterations(123),
            ("0", Some("0")),
            Some(|b| b.iterations(0)),
        ),
        case(
            "num_tests",
            "K2_NUM_TESTS",
            ("8", "8"),
            |b| b.num_tests(8),
            ("0", Some("0")),
            Some(|b| b.num_tests(0)),
        ),
        case(
            "seed",
            "K2_SEED",
            ("7", "7"),
            |b| b.seed(7),
            (r#""7""#, Some("7x")),
            None,
        ),
        case(
            "top_k",
            "K2_TOP_K",
            ("3", "3"),
            |b| b.top_k(3),
            ("0", Some("0")),
            Some(|b| b.top_k(0)),
        ),
        case(
            "parallel",
            "K2_PARALLEL",
            ("false", "0"),
            |b| b.parallel(false),
            ("0", Some("maybe")),
            None,
        ),
        case(
            "backend",
            "K2_BACKEND",
            (r#""jit""#, "jit"),
            |b| b.backend(BackendKind::Jit),
            ("3", Some("gpu")),
            None,
        ),
        case(
            "window_verification",
            "K2_WINDOW",
            ("false", "off"),
            |b| b.window_verification(false),
            (r#""off""#, Some("2")),
            None,
        ),
        case(
            "refute_inputs",
            "K2_REFUTE_INPUTS",
            ("0", "0"),
            |b| b.refute_inputs(0),
            ("true", Some("-1")),
            None,
        ),
        case(
            "epochs",
            "K2_EPOCHS",
            ("2", "2"),
            |b| b.epochs(2),
            ("0", Some("0")),
            Some(|b| b.epochs(0)),
        ),
        case(
            "shared_cache",
            "K2_SHARED_CACHE",
            ("false", "no"),
            |b| b.shared_cache(false),
            ("null", Some("nope")),
            None,
        ),
        case(
            "exchange_counterexamples",
            "K2_EXCHANGE_CEX",
            ("false", "false"),
            |b| b.exchange_counterexamples(false),
            ("[]", Some("x")),
            None,
        ),
        case(
            "restart_from_best",
            "K2_RESTART_FROM_BEST",
            ("true", "yes"),
            |b| b.restart_from_best(true),
            ("1", Some("y")),
            None,
        ),
        case(
            "stall_epochs",
            "K2_STALL_EPOCHS",
            ("3", "3"),
            |b| b.stall_epochs(3),
            ("-1", Some("-1")),
            None,
        ),
        case(
            "time_budget_ms",
            "K2_TIME_BUDGET_MS",
            ("250", "250"),
            |b| b.time_budget_ms(250),
            ("1.5", Some("1.5")),
            None,
        ),
        case(
            "batch_workers",
            "K2_BATCH_WORKERS",
            ("3", "3"),
            |b| b.batch_workers(3),
            (r#""all""#, Some("all")),
            None,
        ),
        case(
            "telemetry",
            "K2_TELEMETRY",
            ("true", "on"),
            |b| b.telemetry(true),
            (r#""on""#, Some("sure")),
            None,
        ),
        case(
            "telemetry_json",
            "K2_TELEMETRY_JSON",
            (r#""/tmp/k2-knob.json""#, "/tmp/k2-knob.json"),
            |b| b.telemetry_json("/tmp/k2-knob.json"),
            ("3", None),
            None,
        ),
    ]
}

/// Every `K2_*` knob variable and `K2_CONFIG`, unset for the guard's life.
fn clear_knob_environment() -> EnvGuard {
    let mut vars: Vec<(&'static str, Option<&str>)> =
        KNOBS.iter().map(|knob| (knob.env, None)).collect();
    vars.push(("K2_CONFIG", None));
    EnvGuard::set(&vars)
}

#[test]
fn every_knob_is_set_and_refused_alike_through_every_layer() {
    let _lock = env_lock();
    let _clear = clear_knob_environment();
    let cases = knob_cases();
    let rows: Vec<(&str, &str)> = cases.iter().map(|c| (c.key, c.env)).collect();
    let table: Vec<(&str, &str)> = KNOBS.iter().map(|k| (k.key, k.env)).collect();
    assert_eq!(rows, table, "one case per row of the knob table");
    let session = K2Session::builder().build().unwrap();

    for case in &cases {
        let key = case.key;
        // The file layer fixes what the valid value means ...
        let mut expected = K2Config::default();
        let file = Json::parse(&format!("{{{key:?}: {}}}", case.valid.0)).unwrap();
        expected.apply_json(&file).unwrap();
        assert_ne!(
            expected,
            K2Config::default(),
            "{key}: pick a non-default value"
        );

        // ... and the environment, the builder and a request line agree.
        {
            let _env = EnvGuard::set(&[(case.env, Some(case.valid.1))]);
            assert_eq!(K2Config::resolve().unwrap(), expected, "{key}: env");
        }
        let built = (case.build_valid)(K2Session::builder()).build().unwrap();
        assert_eq!(built.config(), &expected, "{key}: builder");
        let is_request_field = REQUEST_FIELDS.contains(&key);
        if is_request_field {
            let line = format!(r#"{{"v": 1, "asm": "exit", {key:?}: {}}}"#, case.valid.0);
            let mut config = K2Config::default();
            OptimizeRequest::from_json_str(&line)
                .unwrap()
                .apply_to(&mut config)
                .unwrap();
            assert_eq!(config, expected, "{key}: request");
        }

        // The invalid value: a file error, a warning that keeps the lower
        // layer, a build error, and an error response, each naming the knob.
        let file = Json::parse(&format!("{{{key:?}: {}}}", case.invalid.0)).unwrap();
        let error = K2Config::default().apply_json(&file).unwrap_err();
        assert!(error.to_string().contains(key), "{key}: file: {error}");
        if let Some(raw) = case.invalid.1 {
            let _env = EnvGuard::set(&[(case.env, Some(raw))]);
            let mut config = expected.clone();
            config.apply_env();
            assert_eq!(
                config, expected,
                "{key}: env {raw:?} must keep the lower layer"
            );
        }
        if let Some(build_invalid) = case.build_invalid {
            let error = build_invalid(K2Session::builder()).build().unwrap_err();
            assert!(error.to_string().contains(key), "{key}: builder: {error}");
        }
        if is_request_field {
            let line = format!(r#"{{"v": 1, "asm": "exit", {key:?}: {}}}"#, case.invalid.0);
            let error = OptimizeRequest::from_json_str(&line).unwrap_err();
            assert!(error.to_string().contains(key), "{key}: request: {error}");
        }
    }

    // A 0 budget built into a request in code is answered in place.
    for key in ["iterations", "num_tests", "top_k"] {
        let mut request = OptimizeRequest::from_asm("mov64 r0, 1\nexit");
        request.id = Some(key.into());
        match key {
            "iterations" => request.iterations = Some(0),
            "num_tests" => request.num_tests = Some(0),
            _ => request.top_k = Some(0),
        }
        let response = session.optimize(&request);
        assert!(!response.ok, "{key}: a 0 budget must be refused");
        assert!(response.error.unwrap().contains(key));
    }

    // Seeds keep all 64 bits through the environment and the builder.
    {
        let _env = EnvGuard::set(&[("K2_SEED", Some("18446744073709551615"))]);
        assert_eq!(K2Config::resolve().unwrap().seed, u64::MAX);
    }
    let built = K2Session::builder().seed(u64::MAX).build().unwrap();
    assert_eq!(built.config().seed, u64::MAX);

    // An empty telemetry path unsets a lower layer's in every layer.
    let path = temp_config_file(r#"{"telemetry_json": "/tmp/k2-lower.json"}"#);
    let path_str = path.to_str().unwrap();
    {
        let _env = EnvGuard::set(&[("K2_CONFIG", Some(path_str))]);
        assert!(K2Config::resolve().unwrap().telemetry_json.is_some());
        let mut config = K2Config::resolve().unwrap();
        config
            .apply_json(&Json::parse(r#"{"telemetry_json": ""}"#).unwrap())
            .unwrap();
        assert_eq!(config.telemetry_json, None, "file");
        let built = K2Session::builder().telemetry_json("").build().unwrap();
        assert_eq!(built.config().telemetry_json, None, "builder");
        let _empty = EnvGuard::set(&[("K2_TELEMETRY_JSON", Some(""))]);
        assert_eq!(K2Config::resolve().unwrap().telemetry_json, None, "env");
    }
    std::fs::remove_file(path).ok();
}

#[test]
fn readme_knob_table_lists_exactly_the_knob_table() {
    let readme = include_str!("../README.md");
    let listed: Vec<(&str, &str)> = readme
        .lines()
        .filter_map(|line| {
            let mut cells = line.split('|').map(str::trim).skip(1);
            let env = cells.next()?.strip_prefix('`')?.strip_suffix('`')?;
            let key = cells.next()?.trim_matches('`');
            (env.starts_with("K2_") && env != "K2_CONFIG").then_some((env, key))
        })
        .collect();
    let table: Vec<(&str, &str)> = KNOBS.iter().map(|k| (k.env, k.key)).collect();
    assert_eq!(listed, table, "README knob table vs k2::api::KNOBS");
}

// ---------------------------------------------------------------------------
// Protocol round-trips.
// ---------------------------------------------------------------------------

#[test]
fn request_and_response_round_trip_through_json() {
    let _lock = env_lock();
    let mut request = OptimizeRequest::from_asm(SHRINKABLE);
    request.id = Some("round-trip".into());
    request.goal = Some(OptimizationGoal::InstructionCount);
    request.iterations = Some(300);
    request.seed = Some(7);
    request.top_k = Some(2);

    // Request: parse(serialize(r)) == r, including via a reparsed Json tree.
    let line = request.to_json_string();
    assert_eq!(OptimizeRequest::from_json_str(&line).unwrap(), request);
    let tree = Json::parse(&line).unwrap();
    assert_eq!(tree.to_string(), line);

    // Response: serve the request, then parse(serialize(resp)) == resp.
    let session = K2Session::builder()
        .params(SearchParams::table8().into_iter().take(2).collect())
        .num_tests(8)
        .build()
        .unwrap();
    let response = session.optimize(&request);
    assert!(response.ok, "error: {:?}", response.error);
    let line = response.to_json_string();
    let parsed = OptimizeResponse::from_json_str(&line).unwrap();
    assert_eq!(parsed, response);
    assert_eq!(parsed.to_json_string(), line);

    // The versioned envelope is really there.
    let tree = Json::parse(&line).unwrap();
    assert_eq!(tree.get("v").and_then(Json::as_u64), Some(1));
    assert_eq!(tree.get("id").and_then(Json::as_str), Some("round-trip"));
}

// ---------------------------------------------------------------------------
// The k2c service binary.
// ---------------------------------------------------------------------------

#[test]
fn k2c_jsonl_matches_in_process_session_bit_for_bit() {
    let _lock = env_lock();
    // Pin the layers the comparison depends on: both sides (subprocess and
    // in-process session) resolve the same environment, but a K2_CONFIG
    // pointing at a transient file from another test would be fragile.
    let _env = EnvGuard::set(&[("K2_CONFIG", None)]);

    let mut requests = Vec::new();
    for (id, asm, seed) in [
        ("a", SHRINKABLE, 9),
        ("b", "mov64 r0, 5\nadd64 r0, 7\nadd64 r0, 0\nexit", 10),
        ("c", "mov64 r0, 1\nmov64 r2, 3\nexit", 11),
    ] {
        let mut request = OptimizeRequest::from_asm(asm);
        request.id = Some(id.into());
        request.iterations = Some(250);
        request.seed = Some(seed);
        requests.push(request);
    }

    let mut child = std::process::Command::new(env!("CARGO_BIN_EXE_k2c"))
        .stdin(std::process::Stdio::piped())
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("spawn k2c");
    {
        let mut stdin = child.stdin.take().unwrap();
        for request in &requests {
            writeln!(stdin, "{}", request.to_json_string()).unwrap();
        }
    }
    let output = child.wait_with_output().expect("k2c runs");
    assert!(output.status.success(), "k2c failed: {output:?}");
    let stdout = String::from_utf8(output.stdout).unwrap();
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.len(), 3, "one response line per request:\n{stdout}");

    let session = K2Session::builder().build().unwrap();
    for (request, line) in requests.iter().zip(&lines) {
        let mut parsed = OptimizeResponse::from_json_str(line).expect("valid response JSON");
        assert!(parsed.ok, "error response: {line}");
        assert_eq!(parsed.id, request.id);
        // Every k2c response carries the two service-timing fields ...
        assert!(parsed.duration_ms.is_some(), "missing duration_ms: {line}");
        assert!(
            parsed.queue_wait_ms.is_some(),
            "missing queue_wait_ms: {line}"
        );
        // ... and masking them recovers the deterministic payload: same
        // seed ⇒ bit-identical to the in-process response (which carries
        // no wall-clock fields at all).
        parsed.duration_ms = None;
        parsed.queue_wait_ms = None;
        let in_process = session.optimize(request);
        assert_eq!(
            parsed.to_json_string(),
            in_process.to_json_string(),
            "k2c vs in-process"
        );
    }
}

#[test]
fn k2c_stats_request_returns_telemetry_and_respects_the_knob() {
    let _lock = env_lock();
    let run = |vars: &[(&str, &str)]| -> Vec<String> {
        let mut command = std::process::Command::new(env!("CARGO_BIN_EXE_k2c"));
        command
            .stdin(std::process::Stdio::piped())
            .stdout(std::process::Stdio::piped())
            .stderr(std::process::Stdio::piped())
            .env_remove("K2_TELEMETRY")
            .env_remove("K2_TELEMETRY_JSON")
            .env_remove("K2_CONFIG")
            .envs(vars.iter().copied());
        let mut child = command.spawn().expect("spawn k2c");
        {
            let mut stdin = child.stdin.take().unwrap();
            let mut request = OptimizeRequest::from_asm("mov64 r0, 5\nadd64 r0, 7\nexit");
            request.id = Some("opt".into());
            request.iterations = Some(150);
            request.seed = Some(21);
            writeln!(stdin, "{}", request.to_json_string()).unwrap();
            writeln!(stdin, r#"{{"v": 1, "id": "s", "op": "stats"}}"#).unwrap();
        }
        let output = child.wait_with_output().expect("k2c runs");
        assert!(output.status.success(), "k2c failed: {output:?}");
        String::from_utf8(output.stdout)
            .unwrap()
            .lines()
            .map(str::to_string)
            .collect()
    };

    // Telemetry on: the stats line answers with the aggregated snapshot
    // covering the compilations of this invocation.
    let lines = run(&[("K2_TELEMETRY", "1")]);
    assert_eq!(lines.len(), 2, "one response per line: {lines:?}");
    let stats = Json::parse(&lines[1]).expect("stats response is JSON");
    assert_eq!(stats.get("v").and_then(Json::as_u64), Some(1));
    assert_eq!(stats.get("id").and_then(Json::as_str), Some("s"));
    assert_eq!(stats.get("ok").and_then(Json::as_bool), Some(true));
    let counters = stats
        .get("stats")
        .and_then(|s| s.get("counters"))
        .expect("stats.counters object");
    assert!(
        counters
            .get("bitsmt.queries")
            .and_then(Json::as_u64)
            .is_some_and(|q| q > 0),
        "expected solver queries in {}",
        lines[1]
    );
    assert!(
        stats
            .get("stats")
            .and_then(|s| s.get("timers"))
            .and_then(|t| t.get("equiv.check"))
            .and_then(|t| t.get("p99_us"))
            .is_some(),
        "expected equiv.check timer with quantiles in {}",
        lines[1]
    );

    // A dump path implies collection, and the stats object is the dump the
    // session writes at exit: one writer for both.
    let dump = std::env::temp_dir().join(format!("k2c-stats-{}.json", std::process::id()));
    let lines = run(&[("K2_TELEMETRY_JSON", dump.to_str().unwrap())]);
    let stats = Json::parse(&lines[1]).unwrap();
    let dumped = Json::parse(&std::fs::read_to_string(&dump).expect("dump written")).unwrap();
    assert_eq!(stats.get("stats"), Some(&dumped), "stats line vs dump file");
    std::fs::remove_file(dump).ok();

    // Telemetry off: the stats request fails loudly with a hint, without
    // disturbing the optimize response before it.
    let lines = run(&[]);
    assert_eq!(lines.len(), 2);
    let stats = Json::parse(&lines[1]).unwrap();
    assert_eq!(stats.get("ok").and_then(Json::as_bool), Some(false));
    assert!(
        stats
            .get("error")
            .and_then(Json::as_str)
            .is_some_and(|e| e.contains("K2_TELEMETRY")),
        "expected an enablement hint: {}",
        lines[1]
    );
    let optimize = OptimizeResponse::from_json_str(&lines[0]).unwrap();
    assert!(optimize.ok);
}

#[test]
fn k2c_reports_malformed_lines_in_place() {
    let _lock = env_lock();
    let mut child = std::process::Command::new(env!("CARGO_BIN_EXE_k2c"))
        .stdin(std::process::Stdio::piped())
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .env("K2_EPOCHS", "abc") // malformed knob: must warn, not break
        .spawn()
        .expect("spawn k2c");
    {
        let mut stdin = child.stdin.take().unwrap();
        writeln!(stdin, "this is not json").unwrap();
        writeln!(
            stdin,
            "{}",
            OptimizeRequest::from_asm("mov64 r0, 2\nexit").to_json_string()
        )
        .unwrap();
        writeln!(stdin, "{{\"v\": 2, \"id\": \"v2\", \"asm\": \"exit\"}}").unwrap();
    }
    let output = child.wait_with_output().expect("k2c runs");
    assert!(output.status.success());
    let stdout = String::from_utf8(output.stdout).unwrap();
    let responses: Vec<OptimizeResponse> = stdout
        .lines()
        .map(|l| OptimizeResponse::from_json_str(l).expect("valid response JSON"))
        .collect();
    assert_eq!(responses.len(), 3);
    assert!(!responses[0].ok);
    assert!(responses[1].ok);
    assert!(!responses[2].ok);
    assert!(
        responses[2].error.as_deref().unwrap().contains("version"),
        "got: {:?}",
        responses[2].error
    );
    // The id is echoed even though the envelope itself was rejected, so
    // clients matching by id (not position) see which request failed.
    assert_eq!(responses[2].id.as_deref(), Some("v2"));
    // The malformed-knob satellite: a one-line stderr warning, loud not silent.
    let stderr = String::from_utf8(output.stderr).unwrap();
    assert!(
        stderr.contains("warning") && stderr.contains("K2_EPOCHS"),
        "expected a malformed-knob warning on stderr, got: {stderr}"
    );
}

#[test]
fn k2c_answers_oversized_and_malformed_lines_in_place() {
    // A `num_tests` of 10^8 used to allocate the whole suite up front and
    // abort the process, losing every other line of the batch; an
    // `iterations` of i64::MAX held a worker for good.
    let _lock = env_lock();
    let mut child = std::process::Command::new(env!("CARGO_BIN_EXE_k2c"))
        .stdin(std::process::Stdio::piped())
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .env_remove("K2_CONFIG")
        .spawn()
        .expect("spawn k2c");
    {
        let mut stdin = child.stdin.take().unwrap();
        for line in [
            r#"{"v":1,"id":"big","asm":"mov64 r0, 1\nexit","num_tests":100000000}"#,
            r#"{"v":1,"id":"ok","asm":"mov64 r0, 2\nexit","iterations":50}"#,
            r#"{"v":1,"id":"hex","insns_hex":"b7zz"}"#,
            r#"{"v":1,"#,
            r#"{"v":1,"id":"long","asm":"mov64 r0, 1\nexit","iterations":9223372036854775807}"#,
        ] {
            writeln!(stdin, "{line}").unwrap();
        }
    }
    let output = child.wait_with_output().expect("k2c runs");
    assert!(output.status.success(), "k2c failed: {output:?}");
    let stdout = String::from_utf8(output.stdout).unwrap();
    let responses: Vec<OptimizeResponse> = stdout
        .lines()
        .map(|l| OptimizeResponse::from_json_str(l).expect("valid response JSON"))
        .collect();
    let summary: Vec<(Option<&str>, bool)> =
        responses.iter().map(|r| (r.id.as_deref(), r.ok)).collect();
    assert_eq!(
        summary,
        [
            (Some("big"), false),
            (Some("ok"), true),
            (Some("hex"), false),
            (None, false),
            (Some("long"), false)
        ]
    );
    let error = responses[0].error.as_deref().unwrap();
    assert!(error.contains("num_tests"), "got: {error}");
    let error = responses[4].error.as_deref().unwrap();
    assert!(error.contains("iterations"), "got: {error}");
}

#[test]
fn k2c_request_lines_handle_astral_ids_and_reject_lone_surrogates() {
    let _lock = env_lock();
    // An astral-plane id survives the full trip: JSONL request line →
    // service → response echo, whether written as raw UTF-8 or as an
    // escaped surrogate pair.
    let mut child = std::process::Command::new(env!("CARGO_BIN_EXE_k2c"))
        .stdin(std::process::Stdio::piped())
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("spawn k2c");
    {
        let mut stdin = child.stdin.take().unwrap();
        let mut raw = OptimizeRequest::from_asm("mov64 r0, 2\nexit");
        raw.id = Some("job-\u{1F600}-𝄞".into());
        raw.iterations = Some(50);
        writeln!(stdin, "{}", raw.to_json_string()).unwrap();
        // The same id as an escaped surrogate pair.
        writeln!(
            stdin,
            r#"{{"v": 1, "id": "job-😀-𝄞", "asm": "mov64 r0, 2\nexit", "iterations": 50}}"#
        )
        .unwrap();
        // Lone surrogates are not Unicode text: the line must be rejected
        // in place, without disturbing its neighbours.
        writeln!(stdin, r#"{{"v": 1, "id": "\ud800", "asm": "exit"}}"#).unwrap();
        writeln!(stdin, r#"{{"v": 1, "id": "\udc00-low", "asm": "exit"}}"#).unwrap();
        writeln!(
            stdin,
            "{}",
            OptimizeRequest::from_asm("mov64 r0, 1\nexit").to_json_string()
        )
        .unwrap();
    }
    let output = child.wait_with_output().expect("k2c runs");
    assert!(output.status.success(), "k2c failed: {output:?}");
    let stdout = String::from_utf8(output.stdout).unwrap();
    let responses: Vec<OptimizeResponse> = stdout
        .lines()
        .map(|l| OptimizeResponse::from_json_str(l).expect("valid response JSON"))
        .collect();
    assert_eq!(responses.len(), 5);
    assert!(responses[0].ok);
    assert_eq!(responses[0].id.as_deref(), Some("job-\u{1F600}-\u{1D11E}"));
    assert!(responses[1].ok);
    assert_eq!(responses[1].id, responses[0].id, "escape vs raw UTF-8");
    assert!(!responses[2].ok, "lone high surrogate must be rejected");
    assert!(!responses[3].ok, "lone low surrogate must be rejected");
    assert!(responses[4].ok, "later lines are unaffected");
}

#[test]
fn request_parser_rejects_lone_surrogates() {
    for line in [
        r#"{"v": 1, "id": "\ud800", "asm": "exit"}"#,
        r#"{"v": 1, "asm": "exit\ud83d"}"#,
        r#"{"v": 1, "asm": "\udc00exit"}"#,
    ] {
        assert!(
            OptimizeRequest::from_json_str(line).is_err(),
            "should reject {line}"
        );
    }
}

// ---------------------------------------------------------------------------
// Streaming events.
// ---------------------------------------------------------------------------

fn collect_events(parallel: bool) -> Vec<SearchEvent> {
    let sink = std::sync::Arc::new(CollectingSink::new());
    let session = K2Session::builder()
        .iterations(400)
        .num_tests(8)
        .seed(13)
        .parallel(parallel)
        .params(SearchParams::table8().into_iter().take(2).collect())
        .sink(sink.clone())
        .build()
        .unwrap();
    let program = k2::isa::Program::new(
        k2::isa::ProgramType::Xdp,
        k2::isa::asm::assemble(SHRINKABLE).unwrap(),
    );
    let result = session.optimize_program(&program);
    assert!(result.best.real_len() <= 5);
    sink.take()
}

#[test]
fn events_arrive_in_barrier_order_and_are_deterministic() {
    let _lock = env_lock();
    let events = collect_events(true);

    // Envelope: one Started first, one Finished last.
    assert!(
        matches!(events.first(), Some(SearchEvent::Started { .. })),
        "first event: {:?}",
        events.first()
    );
    assert!(
        matches!(events.last(), Some(SearchEvent::Finished { .. })),
        "last event: {:?}",
        events.last()
    );
    assert_eq!(
        events
            .iter()
            .filter(|e| matches!(
                e,
                SearchEvent::Started { .. } | SearchEvent::Finished { .. }
            ))
            .count(),
        2
    );

    // Epoch barriers arrive strictly in order 1, 2, ..., and every
    // NewGlobalBest/SolverStats frame belongs to the barrier that follows it.
    let mut expected_epoch = 1;
    let mut pending: Option<u64> = None;
    for event in &events {
        match event {
            SearchEvent::NewGlobalBest { epoch, .. } | SearchEvent::SolverStats { epoch, .. } => {
                assert_eq!(*epoch, expected_epoch, "frame out of barrier order");
                pending = Some(*epoch);
            }
            SearchEvent::EpochBarrier { epoch, .. } => {
                assert_eq!(*epoch, expected_epoch, "barrier out of order");
                if let Some(p) = pending.take() {
                    assert_eq!(p, *epoch);
                }
                expected_epoch += 1;
            }
            _ => {}
        }
    }
    assert!(expected_epoch > 1, "no barriers observed");

    // Deterministic: a same-seed rerun and a sequential run stream the
    // identical event sequence (events carry no wall-clock state).
    assert_eq!(events, collect_events(true), "rerun differs");
    assert_eq!(
        events,
        collect_events(false),
        "parallel vs sequential differs"
    );
}

// ---------------------------------------------------------------------------
// Telemetry: a pure observer. Count-valued fields are part of the
// reproducibility contract; timing-valued fields are excluded (the
// engine's Telemetry event already carries the counts-only projection).
// ---------------------------------------------------------------------------

fn telemetry_counts(parallel: bool, backend: BackendKind) -> TelemetrySnapshot {
    let sink = std::sync::Arc::new(CollectingSink::new());
    let session = K2Session::builder()
        .iterations(400)
        .num_tests(8)
        .seed(13)
        .parallel(parallel)
        .backend(backend)
        .telemetry(true)
        .params(SearchParams::table8().into_iter().take(2).collect())
        .sink(sink.clone())
        .build()
        .unwrap();
    let program = k2::isa::Program::new(
        k2::isa::ProgramType::Xdp,
        k2::isa::asm::assemble(SHRINKABLE).unwrap(),
    );
    session.optimize_program(&program);
    sink.take()
        .into_iter()
        .find_map(|event| match event {
            SearchEvent::Telemetry { counts } => Some(counts),
            _ => None,
        })
        .expect("telemetry event emitted when a recorder is attached")
}

#[test]
fn telemetry_count_snapshots_are_schedule_independent() {
    let _lock = env_lock();
    let _env = EnvGuard::set(&[
        ("K2_CONFIG", None),
        ("K2_TELEMETRY", None),
        ("K2_TELEMETRY_JSON", None),
        ("K2_BACKEND", None),
    ]);
    for backend in [BackendKind::Interp, BackendKind::Jit] {
        let counts = telemetry_counts(true, backend);
        assert!(!counts.is_empty(), "{backend:?}: empty snapshot");
        // The count-valued telemetry is part of the determinism contract:
        // identical across a same-seed rerun and across parallel vs
        // sequential chain scheduling (the event already masks timings via
        // the counts-only projection, so this is an exact comparison).
        assert_eq!(
            counts,
            telemetry_counts(true, backend),
            "{backend:?}: rerun differs"
        );
        assert_eq!(
            counts,
            telemetry_counts(false, backend),
            "{backend:?}: parallel vs sequential differs"
        );
        // Spot-check the schema: search steps, solver queries, per-rule
        // accept/reject tallies, and zeroed timer timings with live counts.
        assert_eq!(counts.counter("core.steps"), 800, "{backend:?}");
        assert!(counts.counter("bitsmt.queries") > 0, "{backend:?}");
        assert!(
            counts
                .counters
                .iter()
                .any(|(name, v)| name.starts_with("core.rule.") && *v > 0),
            "{backend:?}: no per-rule counters in {counts:?}"
        );
        let check = counts
            .timer("equiv.check")
            .expect("equiv.check timer present");
        assert!(check.count > 0, "{backend:?}");
        assert_eq!(check.total_us, 0, "{backend:?}: timings must be masked");
    }
}

#[test]
fn telemetry_on_off_and_dumping_never_change_results() {
    let _lock = env_lock();
    let _env = EnvGuard::set(&[
        ("K2_CONFIG", None),
        ("K2_TELEMETRY", None),
        ("K2_TELEMETRY_JSON", None),
    ]);
    let mut request = OptimizeRequest::from_asm(SHRINKABLE);
    request.id = Some("t".into());
    request.iterations = Some(300);
    request.seed = Some(17);

    let session = |builder: fn(k2::api::K2SessionBuilder) -> k2::api::K2SessionBuilder| {
        builder(
            K2Session::builder()
                .num_tests(8)
                .params(SearchParams::table8().into_iter().take(2).collect()),
        )
        .build()
        .unwrap()
    };
    let off = session(|b| b.telemetry(false));
    let on = session(|b| b.telemetry(true));
    let dump_path = std::env::temp_dir().join(format!("k2-telemetry-{}.json", std::process::id()));
    let dump_path_str = dump_path.to_str().unwrap().to_string();
    let dumping = K2Session::builder()
        .num_tests(8)
        .params(SearchParams::table8().into_iter().take(2).collect())
        .telemetry_json(dump_path_str)
        .build()
        .unwrap();

    // Same seed ⇒ bit-identical serialized responses with telemetry off,
    // on, and dumping — telemetry never feeds back into the search.
    let baseline = off.optimize(&request).to_json_string();
    assert_eq!(on.optimize(&request).to_json_string(), baseline);
    assert_eq!(dumping.optimize(&request).to_json_string(), baseline);

    // The off session collected nothing; the on session has a snapshot.
    assert!(off.telemetry_snapshot().is_none());
    let snapshot = on.telemetry_snapshot().expect("telemetry collected");
    assert!(snapshot.counter("bitsmt.queries") > 0);

    // The dump path implies collection and the dump lands on disk as JSON.
    let written = dumping
        .dump_telemetry()
        .expect("dump writes")
        .expect("dump path configured");
    let text = std::fs::read_to_string(&written).unwrap();
    assert!(
        text.contains("bitsmt.queries") && text.contains("timers"),
        "unexpected dump: {text}"
    );
    std::fs::remove_file(written).ok();
}

/// Panics when a search with exactly `iterations` iterations starts.
struct PanicOnIterations(u64);

impl k2::api::EventSink for PanicOnIterations {
    fn on_event(&self, event: &SearchEvent) {
        if let SearchEvent::Started { iterations, .. } = event {
            assert_ne!(*iterations, self.0, "sink rejects this request");
        }
    }
}

#[test]
fn a_panicking_compilation_becomes_its_own_error_response() {
    let _lock = env_lock();
    let session = K2Session::builder()
        .iterations(200)
        .batch_workers(2)
        .sink(std::sync::Arc::new(PanicOnIterations(13)))
        .build()
        .unwrap();
    let mut requests: Vec<OptimizeRequest> = (0..3)
        .map(|i| {
            let mut request = OptimizeRequest::from_asm("mov64 r0, 5\nadd64 r0, 7\nexit");
            request.id = Some(format!("r{i}"));
            request.seed = Some(i);
            request
        })
        .collect();
    requests[1].iterations = Some(13);
    let responses = session.optimize_batch(&requests);
    assert_eq!(responses.len(), 3);
    assert!(!responses[1].ok);
    assert_eq!(responses[1].id.as_deref(), Some("r1"));
    let error = responses[1].error.as_deref().unwrap();
    assert!(error.contains("panicked"), "got: {error}");
    for i in [0, 2] {
        assert!(responses[i].ok, "neighbour {i} must still be served");
        assert_eq!(responses[i], session.optimize(&requests[i]));
    }
}
