//! Batch compilation over a bounded worker pool — the first step toward a
//! compilation service: many programs in, many [`K2Result`]s out, with the
//! total thread count bounded by the worker count rather than by
//! `programs × chains`.

use crate::compiler::{optimize_with, CompilerOptions, K2Result};
use bpf_isa::Program;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// A batch job that panicked instead of producing a result. The panic is
/// confined to its job: every other job of the batch still completes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobPanic {
    /// The panic message (or a placeholder for a non-string payload).
    pub message: String,
}

impl std::fmt::Display for JobPanic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "compilation panicked: {}", self.message)
    }
}

impl std::error::Error for JobPanic {}

/// Compile one claimed job, recording service-level telemetry on the job's
/// recorder: how long it sat in the queue before a worker claimed it
/// (`service.queue_wait`, also surfaced as `EngineReport::queue_wait_us`),
/// the end-to-end request duration (`service.request`), and the queue-depth
/// and in-flight gauges at claim time. Telemetry never influences the
/// compilation itself. A panic anywhere in the compilation becomes the
/// job's [`JobPanic`].
fn run_job(
    job: &BatchJob,
    options: &CompilerOptions,
    queued_at: Instant,
    queue_depth: usize,
    in_flight: usize,
) -> Result<K2Result, JobPanic> {
    let telemetry = &options.telemetry;
    let queue_wait_us = queued_at.elapsed().as_micros() as u64;
    if telemetry.is_enabled() {
        telemetry.time_us("service.queue_wait", queue_wait_us);
        telemetry.gauge("service.queue_depth", queue_depth as u64);
        telemetry.gauge("service.in_flight", in_flight as u64);
    }
    let request_span = telemetry.span("service.request");
    let result = catch_unwind(AssertUnwindSafe(|| optimize_with(options, &job.program)));
    request_span.finish();
    let mut result = result.map_err(|payload| JobPanic {
        message: payload
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "non-string panic payload".to_string()),
    })?;
    result.report.queue_wait_us = queue_wait_us;
    Ok(result)
}

/// One unit of batch work: a program and the options to compile it with.
#[derive(Debug, Clone)]
pub struct BatchJob {
    /// The program to optimize.
    pub program: Program,
    /// The options for this job (goal, budget, seed, engine knobs, ...).
    pub options: CompilerOptions,
}

/// Resolve the effective worker count: `0` means one per available CPU,
/// and never more workers than jobs.
fn effective_workers(requested: usize, jobs: usize) -> usize {
    let auto = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let workers = if requested == 0 { auto } else { requested };
    workers.clamp(1, jobs.max(1))
}

/// Compile every job, at most `workers` concurrently (`0` = one per CPU).
///
/// Jobs are claimed from a shared queue, so long compilations do not hold up
/// short ones behind a fixed partition. Each job is an independent,
/// deterministic compilation: results are identical to calling
/// [`optimize_with`] per job (modulo wall-clock statistics),
/// regardless of the worker count. When more than one worker runs, each
/// job's chains are run sequentially inside its worker — chain parallelism
/// and job parallelism produce bit-identical results, and this keeps the
/// total thread count at `workers`. A job that panics yields a [`JobPanic`]
/// in its slot; the other jobs are unaffected.
pub fn run_batch(jobs: Vec<BatchJob>, workers: usize) -> Vec<Result<K2Result, JobPanic>> {
    let workers = effective_workers(workers, jobs.len());
    let queued_at = Instant::now();
    if workers <= 1 || jobs.len() <= 1 {
        let total = jobs.len();
        return jobs
            .into_iter()
            .enumerate()
            .map(|(i, job)| run_job(&job, &job.options, queued_at, total - i - 1, 1))
            .collect();
    }

    let next = AtomicUsize::new(0);
    let in_flight = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<Result<K2Result, JobPanic>>>> =
        jobs.iter().map(|_| Mutex::new(None)).collect();
    let jobs = &jobs;
    let slots_ref = &slots;
    let next_ref = &next;
    let in_flight_ref = &in_flight;
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(move || loop {
                let i = next_ref.fetch_add(1, Ordering::Relaxed);
                if i >= jobs.len() {
                    break;
                }
                let running = in_flight_ref.fetch_add(1, Ordering::Relaxed) + 1;
                let job = &jobs[i];
                let mut options = job.options.clone();
                options.parallel = false;
                let result = run_job(job, &options, queued_at, jobs.len() - i - 1, running);
                in_flight_ref.fetch_sub(1, Ordering::Relaxed);
                *slots_ref[i].lock().expect("result slot poisoned") = Some(result);
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("result slot poisoned")
                .expect("worker completed every claimed job")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::SearchParams;
    use bpf_isa::{asm, ProgramType};

    fn xdp(text: &str) -> Program {
        Program::new(ProgramType::Xdp, asm::assemble(text).unwrap())
    }

    fn small_options(seed: u64) -> CompilerOptions {
        CompilerOptions {
            iterations: 250,
            params: SearchParams::table8().into_iter().take(2).collect(),
            num_tests: 6,
            seed,
            ..CompilerOptions::default()
        }
    }

    #[test]
    fn effective_workers_clamps_to_jobs_and_floors_at_one() {
        assert_eq!(effective_workers(4, 2), 2);
        assert_eq!(effective_workers(2, 10), 2);
        assert_eq!(effective_workers(1, 0), 1);
        assert!(effective_workers(0, 64) >= 1);
    }

    #[test]
    fn batch_matches_individual_compilations() {
        let programs = [
            xdp("mov64 r0, 5\nadd64 r0, 7\nadd64 r0, 0\nexit"),
            xdp("mov64 r2, 0\nmov64 r0, 9\nmov64 r3, r0\nexit"),
            xdp("mov64 r0, 1\nexit"),
        ];
        let jobs: Vec<BatchJob> = programs
            .iter()
            .enumerate()
            .map(|(i, p)| BatchJob {
                program: p.clone(),
                options: small_options(100 + i as u64),
            })
            .collect();
        let batched = run_batch(jobs.clone(), 2);
        assert_eq!(batched.len(), programs.len());
        for (job, batch_result) in jobs.into_iter().zip(&batched) {
            let batch_result = batch_result.as_ref().expect("no job panics");
            let solo = optimize_with(&job.options, &job.program);
            assert_eq!(solo.best.insns, batch_result.best.insns);
            assert_eq!(solo.best_cost, batch_result.best_cost);
            assert_eq!(solo.top.len(), batch_result.top.len());
        }
    }

    /// An event sink that panics on the first event it sees.
    struct PanickingSink;

    impl crate::engine::EventSink for PanickingSink {
        fn on_event(&self, _event: &crate::engine::SearchEvent) {
            panic!("sink exploded");
        }
    }

    #[test]
    fn a_panicking_job_fails_alone() {
        let program = xdp("mov64 r0, 5\nadd64 r0, 7\nadd64 r0, 0\nexit");
        let mut jobs: Vec<BatchJob> = (0..3)
            .map(|i| BatchJob {
                program: program.clone(),
                options: small_options(200 + i),
            })
            .collect();
        jobs[1].options.sink = crate::engine::EventSinkRef::new(std::sync::Arc::new(PanickingSink));
        for workers in [1, 2] {
            let results = run_batch(jobs.clone(), workers);
            assert_eq!(results.len(), 3);
            let err = results[1].as_ref().expect_err("the sink panicked");
            assert_eq!(err.message, "sink exploded");
            assert!(err.to_string().contains("sink exploded"));
            for i in [0, 2] {
                let solo = optimize_with(&jobs[i].options, &program);
                let batched = results[i].as_ref().expect("neighbours complete");
                assert_eq!(batched.best.insns, solo.best.insns, "job {i}");
                assert_eq!(batched.best_cost, solo.best_cost, "job {i}");
            }
        }
    }
}
