//! The K2 performance benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <eval_heavy|solver_heavy|service_mix> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! An untraced run (`--trace 0`) sets the workload up several times, then
//! runs sets of its work until `--seconds` have passed and prints every
//! end-to-end metric. A traced run (`--trace 1`) runs one set for the engine
//! figures and then replays each program's candidate stream through the
//! layers' public functions, timing every call (see `replay`). Both check
//! every output independently, outside the timed section, and compare a
//! determinism fingerprint across the sets of the run and with earlier runs
//! of the same seed in this checkout. The last line of standard output is
//! one JSON object: `correct`, `attempted`, `failed` and `metrics`.
//! `perfbench/METRICS.md` defines each metric and workload.

#![forbid(unsafe_code)]

mod check;
mod replay;
mod stats;
mod sys;
mod workload;

use k2_api::{Json, OptimizeRequest};
use replay::{replay_program, Layers};
use stats::{derive, fnv1a, median, quantile, ratio};
use std::path::Path;
use std::time::{Duration, Instant};
use workload::{session, Compiled, SetRun, Setup, Shape, Workload, WORKLOADS};

const USAGE: &str = "usage: perfbench --workload <eval_heavy|solver_heavy|service_mix> \
                     --seed <n> --seconds <s> --trace <0|1>";

/// Set-ups before the first set and after each later one; `setup_s` is the
/// median of them all. A set-up takes about a millisecond, so its time
/// follows whatever else the machine does in that instant. Spread over the
/// run, the set-ups see the same conditions as the sets.
const SETUPS_PER_SET: usize = 5;

/// Requests of a batch re-served one at a time in a traced run to read the
/// per-chain times a protocol response leaves out.
const SKEW_PROBES: usize = 8;

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a number: {value}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    WORKLOADS
                        .iter()
                        .find(|w| w.name == value)
                        .ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => trace = Some(number()? != 0),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
    samples: usize,
}

fn metric(name: &'static str, value: f64, unit: &'static str, samples: usize) -> Metric {
    Metric {
        name,
        value,
        unit,
        samples,
    }
}

/// Operations attempted and the failures among them.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failures: Vec<String>,
}

impl Tally {
    fn record(&mut self, what: &str, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = result {
            self.failures.push(format!("{what}: {e}"));
        }
    }
}

fn expect(ok: bool, problem: &str) -> Result<(), String> {
    if ok {
        Ok(())
    } else {
        Err(problem.to_string())
    }
}

/// Every compilation and verify call of every set: each must answer as
/// expected.
fn tally_sets(setup: &Setup, sets: &[SetRun], tally: &mut Tally) {
    for (k, set) in sets.iter().enumerate() {
        for (c, (id, valid)) in set.compiled.iter().zip(&setup.expected) {
            let r = &c.response;
            let what = format!("set {k} request {id}");
            tally.record(
                &what,
                expect(
                    r.id.as_deref() == Some(id.as_str()),
                    "response id not echoed",
                )
                .and(expect(
                    r.ok == *valid,
                    &format!("ok={} for a valid={valid} line", r.ok),
                ))
                .and(expect(!*valid || c.out.is_some(), "no program returned"))
                .map_err(|e| format!("{e} ({:?})", r.error)),
            );
        }
        for (i, same, differ) in &set.verdicts {
            let what = format!("set {k} verify of output {i}");
            tally.record(
                &what,
                expect(same.is_equivalent(), "output not equivalent to its source"),
            );
            tally.record(
                &what,
                expect(
                    !differ.is_equivalent(),
                    "known-different pair verified equivalent",
                ),
            );
        }
    }
}

/// The independent output check of one set (every set of a run returns the
/// same outputs, which the fingerprint enforces).
fn check_outputs(setup: &Setup, set: &SetRun, seed: u64, tally: &mut Tally) {
    for (i, c) in set.compiled.iter().enumerate() {
        let Some((src, out)) = c.pair() else {
            continue;
        };
        let what = format!("output {i}");
        tally.record(
            &what,
            check::check_output(src, out, derive(seed, 100 + i as u64)),
        );
        if setup.workload.shape == Shape::Batch {
            let reassembled =
                bpf_isa::asm::assemble(&c.response.asm).map(|insns| insns.len() as u64);
            tally.record(
                &what,
                expect(
                    reassembled == Ok(c.response.insns_after),
                    "asm does not reassemble to insns_after",
                ),
            );
        }
    }
    for (i, _, differ) in &set.verdicts {
        let src = set.compiled[*i]
            .src
            .as_ref()
            .expect("verified outputs have a source");
        let other = check::different_program(src);
        let what = format!("known-different pair {i}");
        tally.record(
            &what,
            check::confirm_different(src, &other, differ, derive(seed, 200 + *i as u64)),
        );
    }
}

/// Compare a fingerprint with the one stored by an earlier run of the same
/// key in this checkout, storing it when there is none.
fn compare_stored(key: &str, text: &str) -> Result<String, String> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join(".state");
    let path = dir.join(format!("{key}.txt"));
    match std::fs::read_to_string(&path) {
        Ok(stored) if stored == text => Ok(format!("matches the run stored in {}", path.display())),
        Ok(_) => Err(format!("differs from the run stored in {}", path.display())),
        Err(_) => {
            std::fs::create_dir_all(&dir)
                .and_then(|()| std::fs::write(&path, text))
                .map_err(|e| format!("cannot store {}: {e}", path.display()))?;
            Ok(format!("stored in {}", path.display()))
        }
    }
}

/// The median time of each request (or verified pair) over every set.
/// Every set repeats the same work in the same order, so item `j` of each
/// set measures the same thing. Percentiles are taken over these medians:
/// a closed-loop set holds only a few distinct items, and a percentile of
/// the raw samples would fall between two items' clusters and jump between
/// them from run to run.
fn item_medians(sets: &[SetRun], samples: impl Fn(&SetRun) -> Vec<Vec<f64>>) -> Vec<f64> {
    let mut items: Vec<Vec<f64>> = Vec::new();
    for set in sets {
        for (j, times) in samples(set).into_iter().enumerate() {
            if items.len() <= j {
                items.push(Vec::new());
            }
            items[j].extend(times);
        }
    }
    items
        .iter()
        .filter(|t| !t.is_empty())
        .map(|t| median(t))
        .collect()
}

fn end_to_end(setup_s: &[f64], sets: &[SetRun]) -> Vec<Metric> {
    let n = sets.len();
    let per_set = |f: &dyn Fn(&SetRun) -> f64| median(&sets.iter().map(f).collect::<Vec<_>>());
    let request_ms = item_medians(sets, |s| {
        s.compiled
            .iter()
            .map(|c| c.out.iter().map(|_| c.service_ms).collect())
            .collect()
    });
    let verify_ms = item_medians(sets, |s| s.verify_ms.clone());
    let outputs = sets[0].served().count();
    vec![
        metric("setup_s", median(setup_s), "s", setup_s.len()),
        metric("wall_s", per_set(&|s| s.wall_s), "s", n),
        metric("cpu_s", per_set(&|s| s.cpu.total_s()), "s", n),
        metric("time_to_best_s", per_set(&|s| s.time_to_best_s), "s", n),
        metric("compression_pct", sets[0].compression_pct(), "%", outputs),
        metric(
            "est_latency_gain_pct",
            sets[0].latency_gain_pct(),
            "%",
            outputs,
        ),
        metric(
            "request_p50_ms",
            quantile(&request_ms, 0.5),
            "ms",
            request_ms.len(),
        ),
        metric(
            "request_p90_ms",
            quantile(&request_ms, 0.9),
            "ms",
            request_ms.len(),
        ),
        metric(
            "requests_per_s",
            per_set(&|s| s.served().count() as f64 / s.wall_s),
            "1/s",
            n,
        ),
        metric(
            "verify_p50_ms",
            quantile(&verify_ms, 0.5),
            "ms",
            verify_ms.len(),
        ),
        metric(
            "verify_p90_ms",
            quantile(&verify_ms, 0.9),
            "ms",
            verify_ms.len(),
        ),
    ]
}

fn mean(samples: &[f64]) -> f64 {
    ratio(samples.iter().sum(), samples.len() as f64)
}

/// API-layer timings of a closed-loop set, whose compilations do not pass
/// through the protocol: encode each source as a request line, then time
/// parsing it and serializing the response built from the result.
fn closed_loop_api(set: &mut SetRun) {
    for c in &set.compiled {
        let Some(src) = &c.src else { continue };
        let line = OptimizeRequest::from_program(src).to_json_string();
        let start = Instant::now();
        std::hint::black_box(OptimizeRequest::from_json_str(&line).is_ok());
        set.parse_us.push(start.elapsed().as_secs_f64() * 1e6);
        let start = Instant::now();
        std::hint::black_box(c.response.to_json_string());
        set.respond_us.push(start.elapsed().as_secs_f64() * 1e6);
    }
}

/// Max over mean chain time per compilation. A batch response carries no
/// chain times, so a few of its requests are re-served one at a time with
/// the options a batch worker gives them (sequential chains).
fn chain_skews(setup: &Setup, set: &SetRun) -> Vec<f64> {
    if setup.workload.shape == Shape::ClosedLoop {
        return set.compiled.iter().filter_map(|c| c.chain_skew).collect();
    }
    setup
        .lines
        .iter()
        .filter_map(|line| OptimizeRequest::from_json_str(line).ok())
        .filter_map(|r| Some((r.program().ok()?, r.seed?)))
        .take(SKEW_PROBES)
        .filter_map(|(program, seed)| {
            let mut options = session(setup.workload.iterations, seed, None).options();
            options.parallel = false;
            let result = k2_core::optimize_with(&options, &program);
            Compiled::chain_skew_of(&result)
        })
        .collect()
}

fn per_layer(setup: &Setup, baseline_s: &[f64], set: &SetRun, layers: &Layers) -> Vec<Metric> {
    let served: Vec<&Compiled> = set.served().collect();
    let sum = |f: fn(&Compiled) -> u64| served.iter().map(|c| f(c)).sum::<u64>() as f64;
    let hits = sum(|c| c.cache_hits);
    let queue_wait: Vec<f64> = served.iter().map(|c| c.queue_wait_ms).collect();
    let skews = chain_skews(setup, set);
    let e = &layers.equiv_stats;
    let candidates = layers.proposals.calls as f64;
    let n = served.len();
    vec![
        metric(
            "api.parse_us",
            mean(&set.parse_us),
            "us",
            set.parse_us.len(),
        ),
        metric(
            "api.respond_us",
            mean(&set.respond_us),
            "us",
            set.respond_us.len(),
        ),
        metric(
            "api.error_lines",
            set.compiled.iter().filter(|c| !c.response.ok).count() as f64,
            "count",
            set.compiled.len(),
        ),
        metric("baseline.s", median(baseline_s), "s", baseline_s.len()),
        metric("engine.chain_skew", mean(&skews), "ratio", skews.len()),
        metric(
            "engine.parallelism",
            ratio(set.cpu.total_s(), set.wall_s),
            "ratio",
            1,
        ),
        metric("engine.queue_wait_p50_ms", median(&queue_wait), "ms", n),
        metric("engine.queries", sum(|c| c.queries), "count", n),
        metric(
            "engine.cache_hit_frac",
            ratio(hits, hits + sum(|c| c.cache_misses)),
            "ratio",
            n,
        ),
        metric("engine.cex_exchanged", sum(|c| c.cex_exchanged), "count", n),
        metric(
            "cost.setup_s",
            layers.cost_setup.s,
            "s",
            layers.cost_setup.calls as usize,
        ),
        metric(
            "cost.test_pass_frac",
            ratio(layers.passed_tests as f64, candidates),
            "ratio",
            layers.proposals.calls as usize,
        ),
        metric("proposals.calls", candidates, "count", 1),
        metric(
            "proposals.s",
            layers.proposals.s,
            "s",
            layers.proposals.calls as usize,
        ),
        metric("safety.calls", layers.safety.calls as f64, "count", 1),
        metric(
            "safety.s",
            layers.safety.s,
            "s",
            layers.safety.calls as usize,
        ),
        metric(
            "safety.unsafe_frac",
            ratio(layers.unsafe_found as f64, layers.safety.calls as f64),
            "ratio",
            layers.safety.calls as usize,
        ),
        metric(
            "safety.walk_s",
            layers.walk.s,
            "s",
            layers.walk.calls as usize,
        ),
        metric(
            "absint.screen_s",
            layers.screen.s,
            "s",
            layers.screen.calls as usize,
        ),
        metric(
            "absint.screen_reject_frac",
            ratio(layers.screen_rejects as f64, layers.screens as f64),
            "ratio",
            layers.screens as usize,
        ),
        metric("interp.runs", layers.interp_runs as f64, "count", 1),
        metric(
            "interp.s",
            layers.interp.s,
            "s",
            layers.interp.calls as usize,
        ),
        metric("jit.compiles", layers.jit_compile.calls as f64, "count", 1),
        metric(
            "jit.compile_s",
            layers.jit_compile.s,
            "s",
            layers.jit_compile.calls as usize,
        ),
        metric("jit.run_s", layers.jit_run.s, "s", layers.jit_runs as usize),
        metric("jit.sys_s", layers.jit_sys_s, "s", 1),
        metric("equiv.calls", layers.equiv.calls as f64, "count", 1),
        metric("equiv.s", layers.equiv.s, "s", layers.equiv.calls as usize),
        metric(
            "equiv.window_hit_frac",
            ratio(
                e.window_hits as f64,
                (e.window_hits + e.window_fallbacks) as f64,
            ),
            "ratio",
            (e.window_hits + e.window_fallbacks) as usize,
        ),
        metric("equiv.refuted", e.refuted_by_testing as f64, "count", 1),
        metric("equiv.escalations", e.smt_escalations as f64, "count", 1),
        metric(
            "equiv.encode_s",
            layers.encode.s,
            "s",
            layers.encode.calls as usize,
        ),
        metric("bitsmt.queries", layers.solve_ms.len() as f64, "count", 1),
        metric(
            "bitsmt.solve_s",
            layers.solve_ms.iter().sum::<f64>() / 1e3,
            "s",
            layers.solve_ms.len(),
        ),
        metric(
            "bitsmt.solve_p50_ms",
            median(&layers.solve_ms),
            "ms",
            layers.solve_ms.len(),
        ),
        metric(
            "bitsmt.solve_max_ms",
            layers.solve_ms.iter().copied().fold(0.0, f64::max),
            "ms",
            layers.solve_ms.len(),
        ),
        metric(
            "bitsmt.cnf_clauses",
            layers.cnf_clauses as f64,
            "count",
            layers.solve_ms.len(),
        ),
        metric("replay.wall_s", layers.wall_s, "s", 1),
        metric(
            "replay.unattributed_frac",
            ratio(layers.wall_s - layers.attributed_s(), layers.wall_s),
            "ratio",
            1,
        ),
    ]
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    // The builder pins every knob, but a `K2_CONFIG` path is read before the
    // builder layer applies. Clear the ambient `K2_*` layer so nothing
    // outside the benchmark can change or fail a run.
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("K2_") {
            std::env::remove_var(key);
        }
    }
    let workload = args.workload;

    let mut setup_s = Vec::new();
    let mut baseline_s = Vec::new();
    let mut set_up = || {
        let mut built = None;
        for _ in 0..SETUPS_PER_SET {
            let start = Instant::now();
            let setup = Setup::build(workload, args.seed);
            setup_s.push(start.elapsed().as_secs_f64());
            baseline_s.push(setup.baseline_s);
            built = Some(setup);
        }
        built.expect("at least one set-up")
    };
    let setup = set_up();

    let record = format!(
        "workload={} shape={:?} programs={:?} iterations={} replay_steps={}\nconfig={:?}",
        workload.name,
        workload.shape,
        workload.programs,
        workload.iterations,
        workload.replay_steps,
        setup.session.config(),
    );
    println!(
        "perfbench: seed={} seconds={} trace={}",
        args.seed, args.seconds, args.trace as u8
    );
    println!(
        "machine: nproc={} cpu={:?} commit={}",
        sys::nproc(),
        sys::cpu_model(),
        sys::git_commit()
    );
    println!("{record}");

    let deadline = Instant::now() + Duration::from_secs(args.seconds);
    let mut sets = vec![setup.run_set()];
    while !args.trace && Instant::now() < deadline {
        set_up();
        sets.push(setup.run_set());
    }

    let set_count = sets.len();
    let mut tally = Tally::default();
    tally_sets(&setup, &sets, &mut tally);
    check_outputs(&setup, &sets[0], args.seed, &mut tally);

    let mut fingerprint = sets[0].fingerprint();
    for (k, set) in sets.iter().enumerate().skip(1) {
        tally.record(
            &format!("set {k}"),
            expect(
                set.fingerprint() == fingerprint,
                "determinism fingerprint differs from set 0",
            ),
        );
    }

    let metrics = if args.trace {
        let mut layers = Layers::default();
        for (i, source) in setup.sources.iter().enumerate() {
            let seed = derive(args.seed, 300 + i as u64);
            replay_program(&source.program, workload.replay_steps, seed, &mut layers);
        }
        tally.record(
            "replay",
            expect(
                layers.jit_mismatches == 0,
                "JIT and interpreter outputs differ",
            ),
        );
        fingerprint += &layers.fingerprint();
        let mut set = sets.pop().expect("one set");
        if workload.shape == Shape::ClosedLoop {
            closed_loop_api(&mut set);
        }
        per_layer(&setup, &baseline_s, &set, &layers)
    } else {
        end_to_end(&setup_s, &sets)
    };

    let key = format!(
        "{}-seed{}-trace{}-{:016x}",
        workload.name,
        args.seed,
        args.trace as u8,
        fnv1a(&record)
    );
    tally.record(
        "fingerprint",
        compare_stored(&key, &fingerprint).map(|how| {
            println!(
                "fingerprint {:016x} over {} lines: {how}",
                fnv1a(&fingerprint),
                fingerprint.lines().count()
            );
        }),
    );

    for f in &tally.failures {
        println!("FAILED {f}");
    }
    println!(
        "checks: {} attempted, {} failed; sets: {}",
        tally.attempted,
        tally.failures.len(),
        set_count
    );
    for m in &metrics {
        println!(
            "{:<28} {:>16.6} {:<6} n={}",
            m.name, m.value, m.unit, m.samples
        );
    }
    let result = Json::Obj(vec![
        ("correct".into(), Json::Bool(tally.failures.is_empty())),
        ("attempted".into(), Json::Int(tally.attempted as i64)),
        ("failed".into(), Json::Int(tally.failures.len() as i64)),
        (
            "metrics".into(),
            Json::Obj(
                metrics
                    .iter()
                    .map(|m| {
                        (
                            m.name.to_string(),
                            Json::Obj(vec![
                                ("value".into(), Json::Float(m.value)),
                                ("unit".into(), Json::Str(m.unit.into())),
                            ]),
                        )
                    })
                    .collect(),
            ),
        ),
    ]);
    println!("{result}");
}
