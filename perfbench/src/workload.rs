//! The three workloads: what each compiles, how its requests reach the
//! compiler, and one timed set of its work.

use crate::check::different_program;
use crate::stats::{derive, fnv1a, ratio, SplitMix};
use crate::sys::{nproc, CpuTimes};
use bpf_interp::CostModel;
use bpf_isa::Program;
use k2_api::{
    BackendKind, EquivOutcome, EventSink, Json, K2Result, K2Session, OptimizationGoal,
    OptimizeRequest, OptimizeResponse, ProgramSource, SearchEvent, SearchParams,
};
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex};
use std::thread::ThreadId;
use std::time::Instant;

/// How requests reach the compiler.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// One client: each compilation starts when the previous one returns,
    /// through `K2Session::optimize_program` with parallel chains.
    ClosedLoop,
    /// Every request line submitted at t = 0 to `optimize_batch_timed` on
    /// one worker per CPU, chains sequential inside each job, as `k2c`
    /// serves stdin read to EOF.
    Batch,
}

#[derive(Debug)]
pub struct Workload {
    pub name: &'static str,
    pub shape: Shape,
    /// Suite programs, each compiled from its best rule-based baseline.
    pub programs: &'static [&'static str],
    /// Iterations per chain (per request in a batch).
    pub iterations: u64,
    /// Proposals per program in the traced replay.
    pub replay_steps: usize,
}

pub const WORKLOADS: [Workload; 3] = [
    // Candidates are cheap to prove here (most checks hit the verdict
    // cache), so time goes to proposals, the safety check and test
    // execution.
    Workload {
        name: "eval_heavy",
        shape: Shape::ClosedLoop,
        programs: &["socket/0", "socket/1", "xdp_fw"],
        iterations: 3000,
        replay_steps: 3000,
    },
    // Most chain time goes to UNSAT proofs. xdp_router_ipv4, recvmsg4 and
    // xdp-balancer are left out: single queries of several seconds would
    // decide their compile time.
    Workload {
        name: "solver_heavy",
        shape: Shape::ClosedLoop,
        programs: &[
            "xdp_devmap_xmit",
            "xdp_cpumap_enqueue",
            "from-network",
            "xdp1_kern/xdp1",
        ],
        iterations: 100,
        replay_steps: 200,
    },
    // Many short compilations: per-compilation set-up and per-candidate JIT
    // compilation dominate. A v:1 request carries instructions only, and the
    // two socket filters are the suite programs that declare no maps.
    Workload {
        name: "service_mix",
        shape: Shape::Batch,
        programs: &["socket/0", "socket/1"],
        iterations: 300,
        replay_steps: 6000,
    },
];

/// Search seed of the closed-loop workloads. It is part of the pinned
/// configuration, not of the workload input: on these programs compile time
/// swings by a third from one search seed to the next (a few slow queries
/// decide a compilation), far beyond any bound a change could be held to.
/// The workload seed orders the compilations and draws the check inputs and
/// the replay's proposal streams.
pub const SEARCH_SEED: u64 = 0x6b32;

/// Valid request lines per batch: the p90 keeps 10 samples beyond it.
const REQUESTS: usize = 100;

/// Calls per verified pair and set.
const VERIFY_REPS: usize = 3;

/// Malformed lines mixed into each batch, one per way a line can be wrong.
/// The first two fail to parse and are answered in place by the front end;
/// the last two parse but carry no usable program, so the batch answers them.
const MALFORMED: [&str; 4] = [
    r#"{"v":2,"id":"ID","asm":"exit"}"#,
    r#"{"v":1,"id":"ID"}"#,
    r#"{"v":1,"id":"ID","insns_hex":"zz"}"#,
    r#"{"v":1,"id":"ID","insns_hex":""}"#,
];

/// A session with every knob the benchmark relies on set through the
/// builder. `main` clears the `K2_*` environment first, so no config file
/// is layered under it either.
pub fn session(iterations: u64, seed: u64, sink: Option<Arc<dyn EventSink>>) -> K2Session {
    let mut builder = K2Session::builder()
        .goal(OptimizationGoal::InstructionCount)
        .iterations(iterations)
        .num_tests(16)
        .seed(seed)
        .top_k(1)
        .parallel(true)
        .backend(BackendKind::Auto)
        .window_verification(true)
        .refute_inputs(64)
        .incremental_sat(true)
        .static_analysis(true)
        .epochs(4)
        .shared_cache(true)
        .exchange_counterexamples(true)
        .restart_from_best(false)
        .stall_epochs(0)
        .time_budget_ms(0)
        .batch_workers(nproc())
        .telemetry(false)
        .telemetry_json("")
        .params(SearchParams::table8());
    if let Some(sink) = sink {
        builder = builder.sink(sink);
    }
    builder.build().expect("no config file is layered")
}

/// Times each compilation's last improvement from the engine's event
/// stream, the one engine figure a protocol response leaves out. All events
/// of one compilation come from one thread, so the thread names the job.
#[derive(Default)]
pub struct BestTimes {
    open: Mutex<HashMap<ThreadId, (Instant, f64)>>,
    done: Mutex<Vec<f64>>,
}

impl BestTimes {
    fn take(&self) -> Vec<f64> {
        std::mem::take(&mut *self.done.lock().expect("sink calls do not panic"))
    }
}

impl EventSink for BestTimes {
    fn on_event(&self, event: &SearchEvent) {
        let job = std::thread::current().id();
        let mut open = self.open.lock().expect("sink calls do not panic");
        match event {
            SearchEvent::Started { .. } => {
                open.insert(job, (Instant::now(), 0.0));
            }
            SearchEvent::NewGlobalBest { .. } => {
                if let Some((start, best)) = open.get_mut(&job) {
                    *best = start.elapsed().as_secs_f64();
                }
            }
            SearchEvent::Finished { .. } => {
                if let Some((_, best)) = open.remove(&job) {
                    self.done
                        .lock()
                        .expect("sink calls do not panic")
                        .push(best);
                }
            }
            _ => {}
        }
    }
}

pub struct Source {
    pub name: String,
    /// The program's best rule-based baseline, which the compiler starts
    /// from.
    pub program: Program,
}

/// Everything a run prepares before its first timed request.
pub struct Setup {
    pub workload: &'static Workload,
    pub session: K2Session,
    pub sources: Vec<Source>,
    /// Closed loop: the order the sources are compiled in.
    pub order: Vec<usize>,
    /// Batch: the request lines, and per line the id and whether it is valid.
    pub lines: Vec<String>,
    pub expected: Vec<(String, bool)>,
    best_times: Option<Arc<BestTimes>>,
    /// Time spent in `k2_baseline::best_baseline`.
    pub baseline_s: f64,
}

impl Setup {
    pub fn build(workload: &'static Workload, seed: u64) -> Setup {
        let suite = bpf_bench_suite::all();
        let mut baseline_s = 0.0;
        let sources: Vec<Source> = workload
            .programs
            .iter()
            .map(|&name| {
                let bench = suite
                    .iter()
                    .find(|b| b.name == name)
                    .expect("workload programs are suite programs");
                let start = Instant::now();
                let (_, program) = k2_baseline::best_baseline(&bench.prog);
                baseline_s += start.elapsed().as_secs_f64();
                Source {
                    name: name.to_string(),
                    program,
                }
            })
            .collect();
        let mut rng = SplitMix::new(derive(seed, 1));
        let best_times = (workload.shape == Shape::Batch).then(|| Arc::new(BestTimes::default()));
        let sink = best_times.clone().map(|b| b as Arc<dyn EventSink>);
        let mut setup = Setup {
            workload,
            session: session(workload.iterations, SEARCH_SEED, sink),
            sources,
            order: Vec::new(),
            lines: Vec::new(),
            expected: Vec::new(),
            best_times,
            baseline_s,
        };
        match workload.shape {
            Shape::ClosedLoop => {
                setup.order = (0..setup.sources.len()).collect();
                for i in (1..setup.order.len()).rev() {
                    setup.order.swap(i, rng.below(i + 1));
                }
                setup.expected = setup
                    .order
                    .iter()
                    .map(|&i| (setup.sources[i].name.clone(), true))
                    .collect();
            }
            Shape::Batch => setup.request_lines(&mut rng),
        }
        setup
    }

    fn request_lines(&mut self, rng: &mut SplitMix) {
        for i in 0..REQUESTS {
            // An even mix keeps the seed from tilting the batch towards one
            // program.
            let source = &self.sources[i % self.sources.len()];
            let mut request = OptimizeRequest::from_program(&source.program);
            let id = format!("r{i}");
            request.id = Some(id.clone());
            // v:1 integers are JSON i64s.
            request.seed = Some(rng.next_u64() >> 1);
            self.lines.push(request.to_json_string());
            self.expected.push((id, true));
        }
        for (k, line) in MALFORMED.iter().enumerate() {
            let at = rng.below(self.lines.len() + 1);
            let id = format!("bad{k}");
            self.lines.insert(at, line.replace("ID", &id));
            self.expected.insert(at, (id, false));
        }
    }

    /// Run the workload's work once: the timed compile (or serve) phase,
    /// then a standalone `verify_equivalence` of every output against its
    /// source and of a known-different pair per output.
    pub fn run_set(&self) -> SetRun {
        let mut set = match self.workload.shape {
            Shape::ClosedLoop => self.closed_loop(),
            Shape::Batch => self.batch(),
        };
        for (i, c) in set.compiled.iter().enumerate() {
            let (Some(src), Some(out)) = (&c.src, &c.out) else {
                continue;
            };
            let other = different_program(src);
            let mut verify = |cand: &Program| {
                let mut verdict = None;
                let mut times = Vec::with_capacity(VERIFY_REPS);
                for _ in 0..VERIFY_REPS {
                    // The same query can take a fifth more or less time on
                    // one thread than on another (the encoder's hash maps
                    // key their order per thread), so every call runs on a
                    // fresh thread: a run then samples many threads, not
                    // just its own.
                    let (ms, v) = std::thread::scope(|scope| {
                        scope
                            .spawn(|| {
                                let start = Instant::now();
                                let v = self.session.verify_equivalence(src, cand);
                                (start.elapsed().as_secs_f64() * 1e3, v)
                            })
                            .join()
                            .expect("verify_equivalence does not panic")
                    });
                    times.push(ms);
                    verdict = Some(v);
                }
                set.verify_ms.push(times);
                verdict.expect("at least one verify call")
            };
            let same = verify(out);
            let differ = verify(&other);
            set.verdicts.push((i, same, differ));
        }
        set
    }

    fn closed_loop(&self) -> SetRun {
        let cpu_before = CpuTimes::now();
        let start = Instant::now();
        let mut compiled = Vec::with_capacity(self.order.len());
        let mut time_to_best_s = 0.0;
        for &i in &self.order {
            let source = &self.sources[i];
            let request_start = Instant::now();
            // A fresh thread per compilation, for the reason `run_set` gives
            // for verify calls; joining it also catches a panic.
            let result = std::thread::scope(|scope| {
                scope
                    .spawn(|| self.session.optimize_program(&source.program))
                    .join()
            });
            let service_ms = request_start.elapsed().as_secs_f64() * 1e3;
            compiled.push(match result {
                Ok(result) => {
                    time_to_best_s += result.report.time_to_best_us as f64 / 1e6;
                    Compiled::from_result(&source.name, &source.program, &result, service_ms)
                }
                Err(_) => Compiled::panicked(&source.name, &source.program),
            });
        }
        SetRun::new(start, cpu_before, time_to_best_s, compiled)
    }

    fn batch(&self) -> SetRun {
        let cpu_before = CpuTimes::now();
        let start = Instant::now();
        let mut parse_us = Vec::with_capacity(self.lines.len());
        let mut requests = Vec::with_capacity(self.lines.len());
        // Per line: the error response of a line that failed to parse, or
        // `None` for a request handed to the batch.
        let mut answered: Vec<Option<OptimizeResponse>> = Vec::with_capacity(self.lines.len());
        for line in &self.lines {
            let parse_start = Instant::now();
            let parsed = OptimizeRequest::from_json_str(line);
            parse_us.push(parse_start.elapsed().as_secs_f64() * 1e6);
            match parsed {
                Ok(request) => {
                    requests.push(request);
                    answered.push(None);
                }
                Err(e) => {
                    // Echo the id even when the request is unusable, as k2c does.
                    let id = Json::parse(line)
                        .ok()
                        .and_then(|json| json.get("id").and_then(Json::as_str).map(str::to_string));
                    answered.push(Some(OptimizeResponse::from_error(id, e.to_string())));
                }
            }
        }
        let served = catch_unwind(AssertUnwindSafe(|| {
            self.session.optimize_batch_timed(&requests)
        }))
        .unwrap_or_else(|_| {
            requests
                .iter()
                .map(|r| OptimizeResponse::from_error(r.id.clone(), "the batch panicked"))
                .collect()
        });
        let mut served = served.into_iter();
        let mut requests = requests.iter();
        let mut respond_us = Vec::with_capacity(self.lines.len());
        let mut compiled = Vec::with_capacity(self.lines.len());
        for slot in answered {
            let (response, src) = match slot {
                Some(error) => (error, None),
                None => (
                    served.next().expect("one response per request"),
                    requests.next().and_then(|r| r.program().ok()),
                ),
            };
            let respond_start = Instant::now();
            std::hint::black_box(response.to_json_string());
            respond_us.push(respond_start.elapsed().as_secs_f64() * 1e6);
            compiled.push(Compiled::from_response(response, src));
        }
        let time_to_best_s = self
            .best_times
            .as_ref()
            .map_or(0.0, |b| b.take().iter().sum());
        let mut set = SetRun::new(start, cpu_before, time_to_best_s, compiled);
        set.parse_us = parse_us;
        set.respond_us = respond_us;
        set
    }
}

/// One compilation, or one served request line, of a set.
pub struct Compiled {
    /// The program the compiler was given (`None` for an unusable line).
    pub src: Option<Program>,
    /// The program it returned (`None` when it failed or refused).
    pub out: Option<Program>,
    pub response: OptimizeResponse,
    /// Service time: the engine's `duration_ms` in a batch, the call's
    /// wall time in the closed loop.
    pub service_ms: f64,
    pub queue_wait_ms: f64,
    pub queries: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub cex_exchanged: u64,
    /// Max over mean chain time, where the result carries chain times.
    pub chain_skew: Option<f64>,
}

impl Compiled {
    /// Max over mean of the per-chain times of a compilation.
    pub fn chain_skew_of(result: &K2Result) -> Option<f64> {
        let chain_us: Vec<f64> = result.chains.iter().map(|c| c.2.time_us as f64).collect();
        let mean_us = chain_us.iter().sum::<f64>() / chain_us.len() as f64;
        (mean_us > 0.0).then(|| chain_us.iter().copied().fold(0.0, f64::max) / mean_us)
    }

    fn from_result(name: &str, src: &Program, result: &K2Result, service_ms: f64) -> Compiled {
        let report = &result.report;
        Compiled {
            src: Some(src.clone()),
            out: Some(result.best.clone()),
            response: OptimizeResponse::from_result(Some(name.to_string()), src, result),
            service_ms,
            queue_wait_ms: report.queue_wait_us as f64 / 1e3,
            queries: report.equiv.queries,
            cache_hits: report.cache.hits,
            cache_misses: report.cache.misses,
            cex_exchanged: report.counterexamples_exchanged,
            chain_skew: Compiled::chain_skew_of(result),
        }
    }

    fn panicked(name: &str, src: &Program) -> Compiled {
        Compiled::from_response(
            OptimizeResponse::from_error(Some(name.to_string()), "the compilation panicked"),
            Some(src.clone()),
        )
    }

    fn from_response(response: OptimizeResponse, src: Option<Program>) -> Compiled {
        let out = match (&src, response.ok) {
            (Some(src), true) => {
                let returned = OptimizeRequest {
                    prog_type: response.prog_type,
                    program: ProgramSource::BytesHex(response.insns_hex.clone()),
                    ..OptimizeRequest::from_asm("")
                };
                returned.program().ok().map(|p| src.with_insns(p.insns))
            }
            _ => None,
        };
        let report = &response.report;
        Compiled {
            src,
            out,
            service_ms: response.duration_ms.unwrap_or(0) as f64,
            queue_wait_ms: response.queue_wait_ms.unwrap_or(0) as f64,
            queries: report.solver_queries,
            cache_hits: report.cache_hits + report.shared_cache_hits,
            cache_misses: report.cache_misses,
            cex_exchanged: report.counterexamples_exchanged,
            chain_skew: None,
            response,
        }
    }

    /// Source and output of a compilation that returned a program.
    pub fn pair(&self) -> Option<(&Program, &Program)> {
        self.src.as_ref().zip(self.out.as_ref())
    }
}

/// One set of a workload's work and what it measured.
pub struct SetRun {
    /// Wall and CPU time of the compile (serve) phase.
    pub wall_s: f64,
    pub cpu: CpuTimes,
    pub time_to_best_s: f64,
    pub compiled: Vec<Compiled>,
    pub parse_us: Vec<f64>,
    pub respond_us: Vec<f64>,
    /// Per verified pair, in the same order in every set: its call times.
    pub verify_ms: Vec<Vec<f64>>,
    /// Per output: its index in `compiled`, the verdict against its source,
    /// and the verdict of the known-different pair.
    pub verdicts: Vec<(usize, EquivOutcome, EquivOutcome)>,
}

impl SetRun {
    fn new(
        start: Instant,
        cpu_before: CpuTimes,
        time_to_best_s: f64,
        compiled: Vec<Compiled>,
    ) -> SetRun {
        SetRun {
            wall_s: start.elapsed().as_secs_f64(),
            cpu: CpuTimes::now().since(cpu_before),
            time_to_best_s,
            compiled,
            parse_us: Vec::new(),
            respond_us: Vec::new(),
            verify_ms: Vec::new(),
            verdicts: Vec::new(),
        }
    }

    pub fn served(&self) -> impl Iterator<Item = &Compiled> {
        self.compiled.iter().filter(|c| c.out.is_some())
    }

    /// Mean reduction of `measure` from source to output, in percent.
    pub fn mean_gain_pct(&self, measure: impl Fn(&Program) -> f64) -> f64 {
        let gains: Vec<f64> = self
            .compiled
            .iter()
            .filter_map(Compiled::pair)
            .map(|(src, out)| 100.0 * ratio(measure(src) - measure(out), measure(src)))
            .collect();
        ratio(gains.iter().sum(), gains.len() as f64)
    }

    pub fn compression_pct(&self) -> f64 {
        self.mean_gain_pct(|p| p.real_len() as f64)
    }

    pub fn latency_gain_pct(&self) -> f64 {
        let model = CostModel::default();
        self.mean_gain_pct(|p| model.program_cost(p) as f64)
    }

    /// The counts that must repeat exactly at a fixed seed.
    pub fn fingerprint(&self) -> String {
        let mut text = String::new();
        for c in &self.compiled {
            // The whole response, service timing masked: it carries the
            // returned program and every deterministic engine counter.
            let mut r = c.response.clone();
            r.duration_ms = None;
            r.queue_wait_ms = None;
            text += &format!(
                "{} ok={} insns={} queries={} misses={} cex={} response={:016x}\n",
                r.id.as_deref().unwrap_or("-"),
                r.ok,
                r.insns_after,
                c.queries,
                c.cache_misses,
                c.cex_exchanged,
                fnv1a(&r.to_json_string()),
            );
        }
        for (i, same, differ) in &self.verdicts {
            text += &format!(
                "verify {i} same={} differ={}\n",
                same.is_equivalent(),
                differ.is_equivalent()
            );
        }
        text
    }
}
