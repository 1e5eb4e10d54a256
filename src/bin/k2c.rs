//! `k2c` — the K2 compilation service, JSONL edition.
//!
//! Reads one schema-`v: 1` [`OptimizeRequest`] per stdin line, optimizes
//! them over the engine's bounded batch worker pool, and writes one
//! [`OptimizeResponse`] per line to stdout, in request order. Malformed
//! lines produce `ok: false` responses in place without disturbing their
//! neighbours, so a pipeline can always match responses to requests by
//! position (or by the echoed `id`).
//!
//! The session is built once from the standard configuration layers
//! (defaults → `K2_CONFIG` file → `K2_*` environment), and each request may
//! override `goal`, `iterations`, `seed`, `num_tests` and `top_k`. With a
//! fixed seed a response is bit-identical to the in-process
//! `K2Session::optimize` result after masking the two service-timing fields
//! (`duration_ms`, `queue_wait_ms`) every `k2c` response carries — all other
//! fields are deterministic.
//!
//! A line `{"v": 1, "op": "stats"}` is a stats request: it is answered with
//! the session's aggregated telemetry snapshot (`K2_TELEMETRY=1` to enable)
//! covering every compilation of this invocation, regardless of the line's
//! position. `K2_TELEMETRY_JSON=<path>` additionally writes the snapshot to
//! `<path>` at exit.
//!
//! ```text
//! echo '{"v":1,"id":"a","asm":"mov64 r0, 2\nexit"}' | k2c
//! ```

use k2::api::{Json, K2Session, OptimizeRequest, OptimizeResponse};
use std::io::{BufRead, Write};

const USAGE: &str = "\
k2c: K2 compilation service (JSONL over stdin/stdout)

usage: k2c [--help]

Reads one JSON request per line:
  {\"v\": 1, \"id\": \"r1\", \"prog_type\": \"xdp\", \"asm\": \"mov64 r0, 2\\nexit\"}
  {\"v\": 1, \"insns_hex\": \"b700000002000000...\", \"iterations\": 5000, \"seed\": 7}
  {\"v\": 1, \"id\": \"s\", \"op\": \"stats\"}
and writes one JSON response per line, in request order. Every optimize
response carries duration_ms and queue_wait_ms; a stats request returns the
session's aggregated telemetry (set K2_TELEMETRY=1 to collect it).

Configuration layers: defaults, then the JSON config file named by
K2_CONFIG, then K2_* environment variables, then per-request overrides
(goal, iterations, seed, num_tests, top_k). See the README knob table.";

/// One parsed stdin line, awaiting its response.
enum Slot {
    /// A well-formed optimize request.
    Request(OptimizeRequest),
    /// A `{"op": "stats"}` request; answered after the batch completes so
    /// the snapshot covers every compilation of this invocation.
    Stats { id: Option<String> },
    /// A malformed line, answered in place. Boxed: an error response carries
    /// a full (empty) report summary, dwarfing the other variants.
    Error(Box<OptimizeResponse>),
}

/// Build the response line for a stats request.
fn stats_response(session: &K2Session, id: Option<String>) -> Json {
    let mut fields: Vec<(String, Json)> = vec![("v".into(), Json::Int(1))];
    fields.push((
        "id".into(),
        match id {
            Some(id) => Json::Str(id),
            None => Json::Null,
        },
    ));
    match session.telemetry_snapshot() {
        Some(snapshot) => {
            fields.push(("ok".into(), Json::Bool(true)));
            // The `K2_TELEMETRY_JSON` dump, reparsed so it fits on one line.
            let stats = Json::parse(&snapshot.to_json_string())
                .expect("the telemetry writer emits valid JSON");
            fields.push(("stats".into(), stats));
        }
        None => {
            fields.push(("ok".into(), Json::Bool(false)));
            fields.push((
                "error".into(),
                Json::Str(
                    "telemetry disabled; set K2_TELEMETRY=1 (or a telemetry config key) \
                     to collect stats"
                        .into(),
                ),
            ));
        }
    }
    Json::Obj(fields)
}

fn main() {
    if std::env::args().any(|a| a == "--help" || a == "-h") {
        println!("{USAGE}");
        return;
    }

    let session = match K2Session::builder().build() {
        Ok(session) => session,
        Err(e) => {
            eprintln!("k2c: configuration error: {e}");
            std::process::exit(2);
        }
    };

    // Read every request up front: the batch pool compiles them
    // concurrently while keeping responses in request order.
    let stdin = std::io::stdin();
    let mut parsed: Vec<Slot> = Vec::new();
    for (lineno, line) in stdin.lock().lines().enumerate() {
        let line = match line {
            Ok(line) => line,
            Err(e) => {
                eprintln!("k2c: stdin read error: {e}");
                std::process::exit(2);
            }
        };
        if line.trim().is_empty() {
            continue;
        }
        let envelope = Json::parse(&line).ok();
        let id = envelope
            .as_ref()
            .and_then(|json| json.get("id").and_then(Json::as_str).map(str::to_string));
        if envelope
            .as_ref()
            .and_then(|json| json.get("op").and_then(Json::as_str))
            == Some("stats")
        {
            parsed.push(Slot::Stats { id });
            continue;
        }
        parsed.push(match OptimizeRequest::from_json_str(&line) {
            Ok(request) => Slot::Request(request),
            // Echo the request id even when the envelope is unusable (wrong
            // version, missing program, ...), so clients matching responses
            // by id — not just by position — see which request failed.
            Err(e) => Slot::Error(Box::new(OptimizeResponse::from_error(
                id,
                format!("line {}: {e}", lineno + 1),
            ))),
        });
    }

    let requests: Vec<OptimizeRequest> = parsed
        .iter()
        .filter_map(|slot| match slot {
            Slot::Request(request) => Some(request.clone()),
            _ => None,
        })
        .collect();
    let mut responses = session.optimize_batch_timed(&requests).into_iter();

    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    for slot in parsed {
        let line = match slot {
            Slot::Request(_) => responses
                .next()
                .expect("one response per valid request")
                .to_json_string(),
            Slot::Stats { id } => stats_response(&session, id).to_string(),
            Slot::Error(error_response) => error_response.to_json_string(),
        };
        if writeln!(out, "{line}").is_err() {
            std::process::exit(1); // downstream pipe closed
        }
    }
    if out.flush().is_err() {
        std::process::exit(1);
    }

    match session.dump_telemetry() {
        Ok(Some(path)) => eprintln!("k2c: telemetry written to {}", path.display()),
        Ok(None) => {}
        Err(e) => eprintln!("k2c: cannot write telemetry dump: {e}"),
    }
}
