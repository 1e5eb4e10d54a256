//! The versioned request/response protocol (`v: 1`) spoken by
//! [`crate::K2Session::optimize`] and the `k2c` JSONL service binary.
//!
//! Requests carry the program (as assembly text or as hex-encoded
//! instruction bytes) plus optional per-request overrides that layer on top
//! of the session configuration. Responses carry the best program in both
//! encodings, the top-k alternatives, per-chain statistics, and the
//! deterministic part of the [`k2_core::EngineReport`].
//!
//! Responses deliberately contain **no wall-clock fields**: with a fixed
//! seed the serialized response is bit-identical across runs, machines, and
//! in-process vs. `k2c` service invocations — which makes responses
//! cacheable and the golden tests exact. Timing lives in
//! [`k2_core::EngineReport`], available in-process via
//! [`crate::K2Session::optimize_program`].

use crate::config::{goal_name, parse_goal, K2Config, Knob, KnobValue};
use crate::json::Json;
use bpf_isa::{asm, wire, Program, ProgramType};
use k2_core::{EngineReport, K2Result, OptimizationGoal};
use std::fmt;

/// The protocol schema version this crate speaks.
pub const PROTOCOL_VERSION: u64 = 1;

/// A request or response that could not be built or parsed.
#[derive(Debug, Clone, PartialEq)]
pub struct ProtoError {
    msg: String,
}

impl ProtoError {
    fn new(msg: impl Into<String>) -> ProtoError {
        ProtoError { msg: msg.into() }
    }
}

impl fmt::Display for ProtoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.msg)
    }
}

impl std::error::Error for ProtoError {}

/// How a request carries its program.
#[derive(Debug, Clone, PartialEq)]
pub enum ProgramSource {
    /// Assembly text (field `asm`), the format `bpf_isa::asm` assembles.
    Asm(String),
    /// Hex-encoded little-endian instruction bytes (field `insns_hex`),
    /// 16 hex digits per 8-byte instruction slot.
    BytesHex(String),
}

/// One optimization request (schema `v: 1`).
#[derive(Debug, Clone, PartialEq)]
pub struct OptimizeRequest {
    /// Caller-chosen identifier, echoed in the response.
    pub id: Option<String>,
    /// Attach point of the program.
    pub prog_type: ProgramType,
    /// The program itself.
    pub program: ProgramSource,
    /// Per-request override of the session goal.
    pub goal: Option<OptimizationGoal>,
    /// Per-request override of iterations per chain.
    pub iterations: Option<u64>,
    /// Per-request override of the RNG seed.
    pub seed: Option<u64>,
    /// Per-request override of the generated test count.
    pub num_tests: Option<u64>,
    /// Per-request override of how many programs to return.
    pub top_k: Option<u64>,
}

fn parse_prog_type(s: &str) -> Option<ProgramType> {
    match s.trim().to_ascii_lowercase().as_str() {
        "xdp" => Some(ProgramType::Xdp),
        "socket_filter" => Some(ProgramType::SocketFilter),
        "sched_cls" => Some(ProgramType::SchedCls),
        "tracepoint" => Some(ProgramType::Tracepoint),
        _ => None,
    }
}

fn hex_encode(bytes: &[u8]) -> String {
    let mut out = String::with_capacity(bytes.len() * 2);
    for b in bytes {
        out.push_str(&format!("{b:02x}"));
    }
    out
}

fn hex_decode(text: &str) -> Result<Vec<u8>, ProtoError> {
    let text = text.trim();
    if !text.len().is_multiple_of(2) {
        return Err(ProtoError::new("insns_hex has odd length"));
    }
    let mut out = Vec::with_capacity(text.len() / 2);
    let bytes = text.as_bytes();
    for pair in bytes.chunks_exact(2) {
        let s = std::str::from_utf8(pair).map_err(|_| ProtoError::new("insns_hex not ASCII"))?;
        let v =
            u8::from_str_radix(s, 16).map_err(|_| ProtoError::new("insns_hex not hex digits"))?;
        out.push(v);
    }
    Ok(out)
}

fn opt_u64(json: &Json, key: &str) -> Result<Option<u64>, ProtoError> {
    match json.get(key) {
        None => Ok(None),
        Some(v) if v.is_null() => Ok(None),
        Some(v) => v
            .as_u64()
            .map(Some)
            .ok_or_else(|| ProtoError::new(format!("field {key:?} must be an unsigned integer"))),
    }
}

fn check_version(json: &Json) -> Result<(), ProtoError> {
    match json.get("v").and_then(Json::as_u64) {
        Some(PROTOCOL_VERSION) => Ok(()),
        Some(v) => Err(ProtoError::new(format!(
            "unsupported protocol version {v} (this build speaks v={PROTOCOL_VERSION})"
        ))),
        None => Err(ProtoError::new(
            "missing required field \"v\" (protocol version)",
        )),
    }
}

impl OptimizeRequest {
    /// A request for an XDP program given as assembly text, with no
    /// per-request overrides.
    pub fn from_asm(asm_text: impl Into<String>) -> OptimizeRequest {
        OptimizeRequest {
            id: None,
            prog_type: ProgramType::Xdp,
            program: ProgramSource::Asm(asm_text.into()),
            goal: None,
            iterations: None,
            seed: None,
            num_tests: None,
            top_k: None,
        }
    }

    /// A request carrying the program as hex-encoded instruction bytes.
    pub fn from_program(prog: &Program) -> OptimizeRequest {
        OptimizeRequest {
            prog_type: prog.prog_type,
            program: ProgramSource::BytesHex(hex_encode(&wire::encode_bytes(&prog.insns))),
            ..OptimizeRequest::from_asm(String::new())
        }
    }

    /// The per-request overrides this request carries, by file key.
    fn overrides(&self) -> impl Iterator<Item = (&'static str, KnobValue)> {
        let goal = self
            .goal
            .map(|goal| ("goal", KnobValue::Str(goal_name(goal).into())));
        let uints = [
            ("iterations", self.iterations),
            ("seed", self.seed),
            ("num_tests", self.num_tests),
            ("top_k", self.top_k),
        ];
        goal.into_iter().chain(
            uints
                .into_iter()
                .filter_map(|(key, value)| Some((key, KnobValue::Uint(value?)))),
        )
    }

    /// Layer this request's overrides over `config` through the setters of
    /// their [`crate::KNOBS`] rows, as the session does before compiling it.
    /// A refused value (a `num_tests` above [`crate::MAX_NUM_TESTS`] would
    /// allocate a suite that can abort the process, a 0 budget runs nothing)
    /// is an error naming the field.
    pub fn apply_to(&self, config: &mut K2Config) -> Result<(), ProtoError> {
        for (key, value) in self.overrides() {
            let knob = Knob::by_key(key).expect("every request override names a knob");
            knob.set(config, value.clone())
                .map_err(|e| ProtoError::new(format!("field {key:?}: {e}, got {value}")))?;
        }
        Ok(())
    }

    /// Check the per-request overrides against the knob table's bounds.
    pub fn validate(&self) -> Result<(), ProtoError> {
        self.apply_to(&mut K2Config::default())
    }

    /// Materialize the program carried by this request.
    pub fn program(&self) -> Result<Program, ProtoError> {
        let insns = match &self.program {
            ProgramSource::Asm(text) => asm::assemble(text)
                .map_err(|e| ProtoError::new(format!("cannot assemble \"asm\": {e}")))?,
            ProgramSource::BytesHex(hex) => {
                let bytes = hex_decode(hex)?;
                wire::decode_bytes(&bytes)
                    .map_err(|e| ProtoError::new(format!("cannot decode \"insns_hex\": {e}")))?
            }
        };
        if insns.is_empty() {
            return Err(ProtoError::new("request carries an empty program"));
        }
        Ok(Program::new(self.prog_type, insns))
    }

    /// Serialize to the versioned JSON object.
    pub fn to_json(&self) -> Json {
        let mut fields: Vec<(String, Json)> = vec![("v".into(), PROTOCOL_VERSION.into())];
        if let Some(id) = &self.id {
            fields.push(("id".into(), Json::Str(id.clone())));
        }
        fields.push(("prog_type".into(), Json::Str(self.prog_type.name().into())));
        match &self.program {
            ProgramSource::Asm(text) => fields.push(("asm".into(), Json::Str(text.clone()))),
            ProgramSource::BytesHex(hex) => {
                fields.push(("insns_hex".into(), Json::Str(hex.clone())))
            }
        }
        for (key, value) in self.overrides() {
            let value = match value {
                KnobValue::Uint(v) => Json::from(v),
                KnobValue::Str(s) => Json::Str(s),
                KnobValue::Bool(b) => Json::Bool(b),
            };
            fields.push((key.into(), value));
        }
        Json::Obj(fields)
    }

    /// Serialize to a single JSON line.
    pub fn to_json_string(&self) -> String {
        self.to_json().to_string()
    }

    /// Parse the versioned JSON object.
    pub fn from_json(json: &Json) -> Result<OptimizeRequest, ProtoError> {
        if !matches!(json, Json::Obj(_)) {
            return Err(ProtoError::new("request must be a JSON object"));
        }
        check_version(json)?;
        let id = match json.get("id") {
            None => None,
            Some(v) if v.is_null() => None,
            Some(v) => Some(
                v.as_str()
                    .ok_or_else(|| ProtoError::new("field \"id\" must be a string"))?
                    .to_string(),
            ),
        };
        let prog_type = match json.get("prog_type") {
            None => ProgramType::Xdp,
            Some(v) => v.as_str().and_then(parse_prog_type).ok_or_else(|| {
                ProtoError::new(
                    "field \"prog_type\" must be one of: xdp, socket_filter, sched_cls, \
                         tracepoint",
                )
            })?,
        };
        let program = match (json.get("asm"), json.get("insns_hex")) {
            (Some(asm_text), None) => ProgramSource::Asm(
                asm_text
                    .as_str()
                    .ok_or_else(|| ProtoError::new("field \"asm\" must be a string"))?
                    .to_string(),
            ),
            (None, Some(hex)) => ProgramSource::BytesHex(
                hex.as_str()
                    .ok_or_else(|| ProtoError::new("field \"insns_hex\" must be a string"))?
                    .to_string(),
            ),
            (Some(_), Some(_)) => {
                return Err(ProtoError::new(
                    "request must carry exactly one of \"asm\" and \"insns_hex\", not both",
                ))
            }
            (None, None) => {
                return Err(ProtoError::new(
                    "request must carry the program as \"asm\" or \"insns_hex\"",
                ))
            }
        };
        let goal = match json.get("goal") {
            None => None,
            Some(v) if v.is_null() => None,
            Some(v) => Some(v.as_str().and_then(parse_goal).ok_or_else(|| {
                ProtoError::new("field \"goal\" must be \"insns\" or \"latency\"")
            })?),
        };
        let request = OptimizeRequest {
            id,
            prog_type,
            program,
            goal,
            iterations: opt_u64(json, "iterations")?,
            seed: opt_u64(json, "seed")?,
            num_tests: opt_u64(json, "num_tests")?,
            top_k: opt_u64(json, "top_k")?,
        };
        request.validate()?;
        Ok(request)
    }

    /// Parse one JSON line.
    pub fn from_json_str(text: &str) -> Result<OptimizeRequest, ProtoError> {
        let json = Json::parse(text).map_err(|e| ProtoError::new(format!("invalid JSON: {e}")))?;
        OptimizeRequest::from_json(&json)
    }
}

/// One program of a response's `top` list.
#[derive(Debug, Clone, PartialEq)]
pub struct RankedProgram {
    /// Assembly text of the program.
    pub asm: String,
    /// Performance cost under the request's goal.
    pub cost: f64,
}

/// Per-chain statistics of a response.
#[derive(Debug, Clone, PartialEq)]
pub struct ChainSummary {
    /// Parameter-setting identifier (Table 8 numbering).
    pub param_id: u64,
    /// Best cost the chain found, if any candidate survived.
    pub cost: Option<f64>,
    /// Iterations the chain executed.
    pub iterations: u64,
    /// Proposals the chain accepted.
    pub accepted: u64,
    /// Iteration at which the chain's best was first found.
    pub best_found_at: u64,
}

/// The deterministic subset of [`k2_core::EngineReport`] a response carries,
/// read, written and filled through the rows of `REPORT_KEYS`.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ReportSummary {
    /// Epochs the schedule planned.
    pub epochs_planned: u64,
    /// Epochs that actually ran.
    pub epochs_run: u64,
    /// Whether the stall-epochs criterion stopped the search.
    pub early_exit: bool,
    /// Solver queries issued, summed over chains.
    pub solver_queries: u64,
    /// Private verdict-cache hits.
    pub cache_hits: u64,
    /// Cross-chain shared-layer hits.
    pub shared_cache_hits: u64,
    /// Checks that missed both cache layers.
    pub cache_misses: u64,
    /// Checks resolved by the window-local fast path (optimization IV):
    /// full-program solver queries that never had to be built.
    pub window_hits: u64,
    /// Windowed checks that fell back to the full program pair.
    pub window_fallbacks: u64,
    /// Cache-miss candidates refuted by concrete execution before any
    /// solver query was built (the pre-SMT refutation stage).
    pub refuted_by_testing: u64,
    /// Cache-miss candidates the refutation batch could not decide, so they
    /// escalated to the SMT solver.
    pub smt_escalations: u64,
    /// Entries in the shared cache at the end of the run.
    pub shared_cache_entries: u64,
    /// Counterexamples pulled from the cross-chain pool into test suites.
    pub counterexamples_exchanged: u64,
}

/// Where the value of a v:1 report key lives.
#[derive(Clone, Copy)]
enum Slot {
    /// A [`ReportSummary`] count, and the [`EngineReport`] value it is
    /// filled from.
    Count(fn(&mut ReportSummary) -> &mut u64, fn(&EngineReport) -> u64),
    /// A [`ReportSummary`] flag, and the [`EngineReport`] value it is filled
    /// from.
    Flag(
        fn(&mut ReportSummary) -> &mut bool,
        fn(&EngineReport) -> bool,
    ),
    /// A retired counter (the safety screen, window facts, dead-edge
    /// pruning): its key stays in v:1, always 0, so responses keep their
    /// layout within the version.
    Retired,
}

/// Whether a v:1 document must carry a report key.
#[derive(Clone, Copy, PartialEq)]
enum Presence {
    /// A document without the key is refused.
    Required,
    /// The key was added within v:1: documents written by earlier builds
    /// lack it, and it reads as 0 there.
    ZeroIfAbsent,
}

use Presence::{Required, ZeroIfAbsent};
use Slot::{Count, Flag, Retired};

/// The v:1 report object, one key per row, in serialization order.
#[rustfmt::skip]
const REPORT_KEYS: &[(&str, Slot, Presence)] = &[
    ("epochs_planned",            Count(|s| &mut s.epochs_planned, |r| r.epochs_planned), Required),
    ("epochs_run",                Count(|s| &mut s.epochs_run, |r| r.epochs_run), Required),
    ("early_exit",                Flag(|s| &mut s.early_exit, |r| r.early_exit), Required),
    ("solver_queries",            Count(|s| &mut s.solver_queries, |r| r.equiv.queries), Required),
    ("cache_hits",                Count(|s| &mut s.cache_hits, |r| r.equiv.cache_hits), Required),
    ("shared_cache_hits",         Count(|s| &mut s.shared_cache_hits, |r| r.equiv.shared_cache_hits), Required),
    ("cache_misses",              Count(|s| &mut s.cache_misses, |r| r.equiv.cache_misses), Required),
    ("window_hits",               Count(|s| &mut s.window_hits, |r| r.equiv.window_hits), ZeroIfAbsent),
    ("window_fallbacks",          Count(|s| &mut s.window_fallbacks, |r| r.equiv.window_fallbacks), ZeroIfAbsent),
    ("refuted_by_testing",        Count(|s| &mut s.refuted_by_testing, |r| r.equiv.refuted_by_testing), ZeroIfAbsent),
    ("smt_escalations",           Count(|s| &mut s.smt_escalations, |r| r.equiv.smt_escalations), ZeroIfAbsent),
    ("shared_cache_entries",      Count(|s| &mut s.shared_cache_entries, |r| r.shared_cache_entries as u64), Required),
    ("counterexamples_exchanged", Count(|s| &mut s.counterexamples_exchanged, |r| r.counterexamples_exchanged), Required),
    ("safety_screens",            Retired, ZeroIfAbsent),
    ("safety_screen_rejects",     Retired, ZeroIfAbsent),
    ("static_window_facts",       Retired, ZeroIfAbsent),
    ("static_pruned_branches",    Retired, ZeroIfAbsent),
];

impl ReportSummary {
    fn from_report(report: &EngineReport) -> ReportSummary {
        let mut summary = ReportSummary::default();
        for &(_, slot, _) in REPORT_KEYS {
            match slot {
                Count(field, source) => *field(&mut summary) = source(report),
                Flag(field, source) => *field(&mut summary) = source(report),
                Retired => {}
            }
        }
        summary
    }

    /// The report object. Takes a copy: the rows reach fields through
    /// `&mut` accessors.
    fn to_json(mut self) -> Json {
        let mut value = |slot| match slot {
            Count(field, _) => Json::from(*field(&mut self)),
            Flag(field, _) => Json::Bool(*field(&mut self)),
            Retired => Json::from(0),
        };
        Json::Obj(
            REPORT_KEYS
                .iter()
                .map(|&(key, slot, _)| (key.into(), value(slot)))
                .collect(),
        )
    }

    fn from_json(json: &Json) -> Result<ReportSummary, ProtoError> {
        let mut summary = ReportSummary::default();
        for &(key, slot, presence) in REPORT_KEYS {
            let value = json.get(key);
            let read = match slot {
                Count(field, _) => value
                    .and_then(Json::as_u64)
                    .map(|v| *field(&mut summary) = v),
                Flag(field, _) => value
                    .and_then(Json::as_bool)
                    .map(|v| *field(&mut summary) = v),
                Retired => Some(()),
            };
            if read.is_none() && presence == Required {
                return Err(ProtoError::new(format!("report missing {key:?}")));
            }
        }
        Ok(summary)
    }
}

/// One optimization response (schema `v: 1`).
#[derive(Debug, Clone, PartialEq)]
pub struct OptimizeResponse {
    /// The request's `id`, echoed back.
    pub id: Option<String>,
    /// Whether optimization ran; `false` carries `error` instead of a result.
    pub ok: bool,
    /// What went wrong, when `ok` is false.
    pub error: Option<String>,
    /// Attach point of the programs below.
    pub prog_type: ProgramType,
    /// Assembly text of the best program.
    pub asm: String,
    /// Hex-encoded instruction bytes of the best program.
    pub insns_hex: String,
    /// Instruction count of the source program.
    pub insns_before: u64,
    /// Instruction count of the best program.
    pub insns_after: u64,
    /// Performance cost of the best program.
    pub cost: f64,
    /// Whether the best program differs from (and beats) the source.
    pub improved: bool,
    /// Candidates the kernel-checker model rejected in post-processing.
    pub rejected_by_kernel_checker: u64,
    /// The top-k distinct programs, best first.
    pub top: Vec<RankedProgram>,
    /// Per-chain statistics.
    pub chains: Vec<ChainSummary>,
    /// Deterministic engine statistics.
    pub report: ReportSummary,
    /// Engine wall-clock time of this compilation, milliseconds. Absent
    /// (`None`, not serialized) unless the serving side opted into timing
    /// ([`crate::K2Session::optimize_batch_timed`], the `k2c` binary) —
    /// keeping the default response bit-identical across runs and parseable
    /// by pre-telemetry v:1 clients.
    pub duration_ms: Option<u64>,
    /// Time this request waited behind other jobs in the batch queue,
    /// milliseconds. Same opt-in and compatibility rules as `duration_ms`.
    pub queue_wait_ms: Option<u64>,
}

impl OptimizeResponse {
    /// An error response echoing the request id.
    pub fn from_error(id: Option<String>, error: impl Into<String>) -> OptimizeResponse {
        OptimizeResponse {
            id,
            ok: false,
            error: Some(error.into()),
            prog_type: ProgramType::Xdp,
            asm: String::new(),
            insns_hex: String::new(),
            insns_before: 0,
            insns_after: 0,
            cost: 0.0,
            improved: false,
            rejected_by_kernel_checker: 0,
            top: Vec::new(),
            chains: Vec::new(),
            report: ReportSummary::default(),
            duration_ms: None,
            queue_wait_ms: None,
        }
    }

    /// Build a success response from an engine result.
    pub fn from_result(id: Option<String>, src: &Program, result: &K2Result) -> OptimizeResponse {
        OptimizeResponse {
            id,
            ok: true,
            error: None,
            prog_type: src.prog_type,
            asm: asm::disassemble(&result.best.insns),
            insns_hex: hex_encode(&wire::encode_bytes(&result.best.insns)),
            insns_before: src.real_len() as u64,
            insns_after: result.best.real_len() as u64,
            cost: result.best_cost,
            improved: result.improved,
            rejected_by_kernel_checker: result.rejected_by_kernel_checker as u64,
            top: result
                .top
                .iter()
                .map(|(prog, cost)| RankedProgram {
                    asm: asm::disassemble(&prog.insns),
                    cost: *cost,
                })
                .collect(),
            chains: result
                .chains
                .iter()
                .map(|(param_id, cost, stats)| ChainSummary {
                    param_id: *param_id as u64,
                    cost: *cost,
                    iterations: stats.iterations,
                    accepted: stats.accepted,
                    best_found_at: stats.best_found_at,
                })
                .collect(),
            report: ReportSummary::from_report(&result.report),
            duration_ms: None,
            queue_wait_ms: None,
        }
    }

    /// Serialize to the versioned JSON object.
    pub fn to_json(&self) -> Json {
        let mut fields: Vec<(String, Json)> = vec![("v".into(), PROTOCOL_VERSION.into())];
        fields.push((
            "id".into(),
            match &self.id {
                Some(id) => Json::Str(id.clone()),
                None => Json::Null,
            },
        ));
        fields.push(("ok".into(), Json::Bool(self.ok)));
        if let Some(error) = &self.error {
            fields.push(("error".into(), Json::Str(error.clone())));
            return Json::Obj(fields);
        }
        fields.push(("prog_type".into(), Json::Str(self.prog_type.name().into())));
        fields.push(("asm".into(), Json::Str(self.asm.clone())));
        fields.push(("insns_hex".into(), Json::Str(self.insns_hex.clone())));
        fields.push(("insns_before".into(), self.insns_before.into()));
        fields.push(("insns_after".into(), self.insns_after.into()));
        fields.push(("cost".into(), Json::Float(self.cost)));
        fields.push(("improved".into(), Json::Bool(self.improved)));
        fields.push((
            "rejected_by_kernel_checker".into(),
            self.rejected_by_kernel_checker.into(),
        ));
        fields.push((
            "top".into(),
            Json::Arr(
                self.top
                    .iter()
                    .map(|r| {
                        Json::Obj(vec![
                            ("asm".into(), Json::Str(r.asm.clone())),
                            ("cost".into(), Json::Float(r.cost)),
                        ])
                    })
                    .collect(),
            ),
        ));
        fields.push((
            "chains".into(),
            Json::Arr(
                self.chains
                    .iter()
                    .map(|c| {
                        Json::Obj(vec![
                            ("param_id".into(), c.param_id.into()),
                            (
                                "cost".into(),
                                match c.cost {
                                    Some(cost) => Json::Float(cost),
                                    None => Json::Null,
                                },
                            ),
                            ("iterations".into(), c.iterations.into()),
                            ("accepted".into(), c.accepted.into()),
                            ("best_found_at".into(), c.best_found_at.into()),
                        ])
                    })
                    .collect(),
            ),
        ));
        fields.push(("report".into(), self.report.to_json()));
        // Service timing is opt-in and serialized only when present, so the
        // default response stays bit-identical across runs.
        if let Some(ms) = self.duration_ms {
            fields.push(("duration_ms".into(), ms.into()));
        }
        if let Some(ms) = self.queue_wait_ms {
            fields.push(("queue_wait_ms".into(), ms.into()));
        }
        Json::Obj(fields)
    }

    /// Serialize to a single JSON line.
    pub fn to_json_string(&self) -> String {
        self.to_json().to_string()
    }

    /// Parse the versioned JSON object.
    pub fn from_json(json: &Json) -> Result<OptimizeResponse, ProtoError> {
        if !matches!(json, Json::Obj(_)) {
            return Err(ProtoError::new("response must be a JSON object"));
        }
        check_version(json)?;
        let id = match json.get("id") {
            None => None,
            Some(v) if v.is_null() => None,
            Some(v) => Some(
                v.as_str()
                    .ok_or_else(|| ProtoError::new("field \"id\" must be a string"))?
                    .to_string(),
            ),
        };
        let ok = json
            .get("ok")
            .and_then(Json::as_bool)
            .ok_or_else(|| ProtoError::new("missing boolean field \"ok\""))?;
        if !ok {
            let error = json
                .get("error")
                .and_then(Json::as_str)
                .ok_or_else(|| ProtoError::new("error response missing \"error\""))?;
            return Ok(OptimizeResponse::from_error(id, error));
        }
        let str_field = |key: &str| -> Result<String, ProtoError> {
            json.get(key)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| ProtoError::new(format!("missing string field {key:?}")))
        };
        let u64_field = |key: &str| -> Result<u64, ProtoError> {
            json.get(key)
                .and_then(Json::as_u64)
                .ok_or_else(|| ProtoError::new(format!("missing integer field {key:?}")))
        };
        let prog_type = parse_prog_type(&str_field("prog_type")?)
            .ok_or_else(|| ProtoError::new("invalid \"prog_type\""))?;
        let top = json
            .get("top")
            .and_then(Json::as_arr)
            .ok_or_else(|| ProtoError::new("missing array field \"top\""))?
            .iter()
            .map(|item| {
                Ok(RankedProgram {
                    asm: item
                        .get("asm")
                        .and_then(Json::as_str)
                        .ok_or_else(|| ProtoError::new("top entry missing \"asm\""))?
                        .to_string(),
                    cost: item
                        .get("cost")
                        .and_then(Json::as_f64)
                        .ok_or_else(|| ProtoError::new("top entry missing \"cost\""))?,
                })
            })
            .collect::<Result<Vec<_>, ProtoError>>()?;
        let chains = json
            .get("chains")
            .and_then(Json::as_arr)
            .ok_or_else(|| ProtoError::new("missing array field \"chains\""))?
            .iter()
            .map(|item| {
                let field = |key: &str| -> Result<u64, ProtoError> {
                    item.get(key)
                        .and_then(Json::as_u64)
                        .ok_or_else(|| ProtoError::new(format!("chain entry missing {key:?}")))
                };
                Ok(ChainSummary {
                    param_id: field("param_id")?,
                    cost: item.get("cost").and_then(Json::as_f64),
                    iterations: field("iterations")?,
                    accepted: field("accepted")?,
                    best_found_at: field("best_found_at")?,
                })
            })
            .collect::<Result<Vec<_>, ProtoError>>()?;
        let report = ReportSummary::from_json(
            json.get("report")
                .ok_or_else(|| ProtoError::new("missing object field \"report\""))?,
        )?;
        Ok(OptimizeResponse {
            id,
            ok,
            error: None,
            prog_type,
            asm: str_field("asm")?,
            insns_hex: str_field("insns_hex")?,
            insns_before: u64_field("insns_before")?,
            insns_after: u64_field("insns_after")?,
            cost: json
                .get("cost")
                .and_then(Json::as_f64)
                .ok_or_else(|| ProtoError::new("missing number field \"cost\""))?,
            improved: json
                .get("improved")
                .and_then(Json::as_bool)
                .ok_or_else(|| ProtoError::new("missing boolean field \"improved\""))?,
            rejected_by_kernel_checker: u64_field("rejected_by_kernel_checker")?,
            top,
            chains,
            report,
            // Added within v:1 (telemetry): optional service timing, absent
            // in responses from earlier builds and from untimed calls.
            duration_ms: json.get("duration_ms").and_then(Json::as_u64),
            queue_wait_ms: json.get("queue_wait_ms").and_then(Json::as_u64),
        })
    }

    /// Parse one JSON line.
    pub fn from_json_str(text: &str) -> Result<OptimizeResponse, ProtoError> {
        let json = Json::parse(text).map_err(|e| ProtoError::new(format!("invalid JSON: {e}")))?;
        OptimizeResponse::from_json(&json)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{MAX_ITERATIONS, MAX_NUM_TESTS};

    const ASM: &str = "mov64 r0, 2\nexit";

    #[test]
    fn oversized_num_tests_is_refused_at_parse_time() {
        let line = r#"{"v":1,"asm":"mov64 r0, 1\nexit","num_tests":100000000}"#;
        let err = OptimizeRequest::from_json_str(line).unwrap_err();
        assert!(err.to_string().contains("num_tests"), "{err}");
        let at_bound = format!(r#"{{"v":1,"asm":"exit","num_tests":{MAX_NUM_TESTS}}}"#);
        let request = OptimizeRequest::from_json_str(&at_bound).unwrap();
        assert_eq!(request.num_tests, Some(MAX_NUM_TESTS as u64));
        // A request built in code is held to the same bound.
        let mut built = OptimizeRequest::from_asm(ASM);
        built.num_tests = Some(MAX_NUM_TESTS as u64 + 1);
        assert!(built.validate().is_err());
    }

    #[test]
    fn oversized_iterations_is_refused_at_parse_time() {
        let line = r#"{"v":1,"asm":"mov64 r0, 1\nexit","iterations":9223372036854775807}"#;
        let err = OptimizeRequest::from_json_str(line).unwrap_err();
        assert!(err.to_string().contains("iterations"), "{err}");
        let at_bound = format!(r#"{{"v":1,"asm":"exit","iterations":{MAX_ITERATIONS}}}"#);
        let request = OptimizeRequest::from_json_str(&at_bound).unwrap();
        assert_eq!(request.iterations, Some(MAX_ITERATIONS));
        // A request built in code is held to the same bound.
        let mut built = OptimizeRequest::from_asm(ASM);
        built.iterations = Some(MAX_ITERATIONS + 1);
        assert!(built.validate().is_err());
    }

    #[test]
    fn request_round_trips_through_json() {
        // A seed may use all 64 bits.
        for seed in [7, u64::MAX] {
            let mut req = OptimizeRequest::from_asm(ASM);
            req.id = Some("r1".into());
            req.goal = Some(OptimizationGoal::Latency);
            req.iterations = Some(500);
            req.seed = Some(seed);
            let line = req.to_json_string();
            assert!(line.contains(&format!("\"seed\": {seed}")), "{line}");
            assert_eq!(OptimizeRequest::from_json_str(&line).unwrap(), req);
        }
    }

    #[test]
    fn request_accepts_hex_program_and_round_trips_insns() {
        let prog = Program::new(ProgramType::Xdp, asm::assemble(ASM).unwrap());
        let req = OptimizeRequest::from_program(&prog);
        let line = req.to_json_string();
        let parsed = OptimizeRequest::from_json_str(&line).unwrap();
        assert_eq!(parsed.program().unwrap().insns, prog.insns);
    }

    #[test]
    fn request_rejects_bad_documents() {
        for line in [
            "{}",
            r#"{"v": 2, "asm": "exit"}"#,
            r#"{"v": 1}"#,
            r#"{"v": 1, "asm": "exit", "insns_hex": "00"}"#,
            r#"{"v": 1, "asm": "not bpf at all"}"#,
            r#"{"v": 1, "prog_type": "kprobe", "asm": "exit"}"#,
            r#"{"v": 1, "asm": "exit", "iterations": "many"}"#,
            r#"{"v": 1, "asm": "exit", "seed": -1}"#,
            r#"{"v": 1, "asm": "exit", "seed": 18446744073709551616}"#,
            "[]",
            "not json",
        ] {
            let parsed = OptimizeRequest::from_json_str(line).and_then(|r| r.program());
            assert!(parsed.is_err(), "should reject {line}");
        }
    }

    #[test]
    fn pre_window_v1_responses_still_parse() {
        // Responses serialized before the window counters were added to the
        // v:1 report must keep parsing (the fields default to zero); a
        // current response with the fields round-trips them.
        let legacy = r#"{"v": 1, "id": null, "ok": true, "prog_type": "xdp",
            "asm": "mov64 r0, 2\nexit\n", "insns_hex": "", "insns_before": 2,
            "insns_after": 2, "cost": 2.0, "improved": false,
            "rejected_by_kernel_checker": 0, "top": [], "chains": [],
            "report": {"epochs_planned": 1, "epochs_run": 1,
                "early_exit": false, "solver_queries": 3, "cache_hits": 0,
                "shared_cache_hits": 0, "cache_misses": 3,
                "shared_cache_entries": 0, "counterexamples_exchanged": 0}}"#;
        let parsed = OptimizeResponse::from_json_str(legacy).expect("legacy v:1 parses");
        assert_eq!(parsed.report.window_hits, 0);
        assert_eq!(parsed.report.window_fallbacks, 0);
        assert_eq!(parsed.report.solver_queries, 3);
        // Round trip of the extended form keeps the counters.
        let mut extended = parsed.clone();
        extended.report.window_hits = 7;
        extended.report.window_fallbacks = 2;
        let reparsed = OptimizeResponse::from_json_str(&extended.to_json_string()).unwrap();
        assert_eq!(reparsed.report.window_hits, 7);
        assert_eq!(reparsed.report.window_fallbacks, 2);
    }

    #[test]
    fn pre_refutation_v1_responses_still_parse() {
        // Responses serialized before the refutation counters were added to
        // the v:1 report (they carry window counters but not refutation
        // ones) must keep parsing, with the new fields defaulting to zero.
        let legacy = r#"{"v": 1, "id": null, "ok": true, "prog_type": "xdp",
            "asm": "mov64 r0, 2\nexit\n", "insns_hex": "", "insns_before": 2,
            "insns_after": 2, "cost": 2.0, "improved": false,
            "rejected_by_kernel_checker": 0, "top": [], "chains": [],
            "report": {"epochs_planned": 1, "epochs_run": 1,
                "early_exit": false, "solver_queries": 3, "cache_hits": 0,
                "shared_cache_hits": 0, "cache_misses": 3, "window_hits": 4,
                "window_fallbacks": 1, "shared_cache_entries": 0,
                "counterexamples_exchanged": 0}}"#;
        let parsed = OptimizeResponse::from_json_str(legacy).expect("legacy v:1 parses");
        assert_eq!(parsed.report.refuted_by_testing, 0);
        assert_eq!(parsed.report.smt_escalations, 0);
        assert_eq!(parsed.report.window_hits, 4);
        // Round trip of the extended form keeps the counters.
        let mut extended = parsed.clone();
        extended.report.refuted_by_testing = 9;
        extended.report.smt_escalations = 5;
        let line = extended.to_json_string();
        assert!(line.contains("\"refuted_by_testing\": 9"));
        assert!(line.contains("\"smt_escalations\": 5"));
        let reparsed = OptimizeResponse::from_json_str(&line).unwrap();
        assert_eq!(reparsed.report.refuted_by_testing, 9);
        assert_eq!(reparsed.report.smt_escalations, 5);
    }

    #[test]
    fn service_timing_fields_are_optional_and_round_trip() {
        // Golden: a pre-telemetry v:1 response (no duration/queue-wait
        // fields) must keep parsing, with the fields absent — and an untimed
        // response must not serialize them, so pre-telemetry clients that
        // reject unknown keys never see them.
        let legacy = r#"{"v": 1, "id": "g", "ok": true, "prog_type": "xdp",
            "asm": "mov64 r0, 2\nexit\n", "insns_hex": "", "insns_before": 2,
            "insns_after": 2, "cost": 2.0, "improved": false,
            "rejected_by_kernel_checker": 0, "top": [], "chains": [],
            "report": {"epochs_planned": 1, "epochs_run": 1,
                "early_exit": false, "solver_queries": 3, "cache_hits": 0,
                "shared_cache_hits": 0, "cache_misses": 3, "window_hits": 0,
                "window_fallbacks": 0, "shared_cache_entries": 0,
                "counterexamples_exchanged": 0}}"#;
        let parsed = OptimizeResponse::from_json_str(legacy).expect("legacy v:1 parses");
        assert_eq!(parsed.duration_ms, None);
        assert_eq!(parsed.queue_wait_ms, None);
        let untimed_line = parsed.to_json_string();
        assert!(!untimed_line.contains("duration_ms"));
        assert!(!untimed_line.contains("queue_wait_ms"));

        // A timed response round-trips the fields.
        let mut timed = parsed.clone();
        timed.duration_ms = Some(42);
        timed.queue_wait_ms = Some(3);
        let line = timed.to_json_string();
        assert!(line.contains("\"duration_ms\": 42"));
        assert!(line.contains("\"queue_wait_ms\": 3"));
        let reparsed = OptimizeResponse::from_json_str(&line).unwrap();
        assert_eq!(reparsed.duration_ms, Some(42));
        assert_eq!(reparsed.queue_wait_ms, Some(3));
        // And masking the timing fields recovers the untimed serialization.
        let mut masked = reparsed;
        masked.duration_ms = None;
        masked.queue_wait_ms = None;
        assert_eq!(masked.to_json_string(), untimed_line);
    }

    #[test]
    fn error_response_round_trips() {
        let resp = OptimizeResponse::from_error(Some("x".into()), "boom");
        let line = resp.to_json_string();
        let parsed = OptimizeResponse::from_json_str(&line).unwrap();
        assert!(!parsed.ok);
        assert_eq!(parsed.error.as_deref(), Some("boom"));
        assert_eq!(parsed.id.as_deref(), Some("x"));
    }

    #[test]
    fn removed_pruning_counter_keeps_its_v1_key_at_zero() {
        let mut resp = OptimizeResponse::from_error(None, "boom");
        (resp.ok, resp.error) = (true, None);
        let json = Json::parse(&resp.to_json_string()).unwrap();
        let report = json.get("report").expect("report object");
        for key in [
            "safety_screens",
            "safety_screen_rejects",
            "static_window_facts",
            "static_pruned_branches",
        ] {
            assert_eq!(report.get(key), Some(&Json::Int(0)), "{key}");
        }
    }

    #[test]
    fn hex_codec_round_trips() {
        let bytes: Vec<u8> = (0..=255).collect();
        assert_eq!(hex_decode(&hex_encode(&bytes)).unwrap(), bytes);
        assert!(hex_decode("abc").is_err());
        assert!(hex_decode("zz").is_err());
    }
}
