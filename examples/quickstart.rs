//! Quickstart: optimize a small BPF program through the `k2::api` session
//! layer and print the result, with engine progress streamed to stderr by an
//! [`k2::api::StderrProgress`] event sink.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use bpf_isa::{asm, Program, ProgramType};
use k2::api::{K2Session, StderrProgress};
use k2::core::OptimizationGoal;
use std::sync::Arc;

fn main() {
    // The paper's running example (from Facebook's xdp_pktcntr): clang emits
    // a register clear plus two 32-bit stores for `u32 a = 0; u32 b = 0;`.
    let source = Program::new(
        ProgramType::Xdp,
        asm::assemble(
            "mov64 r1, 0\n\
             stxw [r10-4], r1\n\
             stxw [r10-8], r1\n\
             ldxdw r0, [r10-8]\n\
             exit",
        )
        .expect("valid assembly"),
    );

    println!(
        "source program ({} instructions):\n{}",
        source.real_len(),
        source
    );

    // A session resolves the configuration layers (defaults → K2_CONFIG
    // file → K2_* environment → these builder overrides) once; the sink
    // receives the engine's streaming events instead of the harness
    // polling or printing from inside the search.
    let session = K2Session::builder()
        .goal(OptimizationGoal::InstructionCount)
        .iterations(10_000)
        .num_tests(16)
        .seed(42)
        .top_k(1)
        .parallel(true)
        .telemetry(true)
        .sink(Arc::new(StderrProgress::labeled("quickstart")))
        .build()
        .expect("configuration resolves");
    let result = session.optimize_program(&source);

    println!(
        "optimized program ({} instructions):\n{}",
        result.best.real_len(),
        result.best
    );
    println!(
        "improved: {}  (kernel-checker rejections during post-processing: {})",
        result.improved, result.rejected_by_kernel_checker
    );
    for (id, cost, stats) in &result.chains {
        println!(
            "  chain {id}: best cost {:?}, {} iterations, {} accepted moves",
            cost, stats.iterations, stats.accepted
        );
    }
    let report = &result.report;
    println!(
        "engine: {} epochs, {} solver queries ({} ms solving), cache hit rate {:.1}%",
        report.epochs_run,
        report.equiv.queries,
        report.equiv.total_time_us / 1000,
        100.0 * report.cache.hit_rate(),
    );
    println!(
        "        cross-chain cache: {} entries, {} hits served to other chains; \
         {} counterexamples exchanged",
        report.shared_cache_entries, report.shared_cache.hits, report.counterexamples_exchanged
    );
    println!(
        "        windows: {} checks verified window-locally, {} fell back to \
         the full program pair ({:.1}% hit rate)",
        report.equiv.window_hits,
        report.equiv.window_fallbacks,
        100.0 * report.equiv.window_hit_rate(),
    );
    // Solver-time attribution: the session's aggregated telemetry snapshot
    // (enabled by `.telemetry(true)` above, or K2_TELEMETRY=1 / a config key).
    if let Some(snapshot) = session.telemetry_snapshot() {
        println!("\ntelemetry:");
        println!("{}", snapshot.render_table());
    }
    // K2_TELEMETRY_JSON=<path> writes the snapshot as JSON at end of run.
    match session.dump_telemetry() {
        Ok(Some(path)) => println!("telemetry written to {}", path.display()),
        Ok(None) => {}
        Err(e) => eprintln!("cannot write telemetry dump: {e}"),
    }
}
