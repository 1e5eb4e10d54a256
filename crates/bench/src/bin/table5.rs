//! Table 5: every program variant produced by K2's search is loaded into the
//! kernel-checker model; the paper reports 38/38 accepted.

use bpf_safety::LinuxVerifier;
use k2_api::K2Session;
use k2_bench::{default_iterations, render_table};
use k2_core::{OptimizationGoal, SearchParams};

fn main() {
    let iterations = default_iterations();
    println!("Table 5: kernel-checker acceptance of K2 output variants\n");
    let verifier = LinuxVerifier::default();
    let mut rows = Vec::new();
    let mut produced = 0usize;
    let mut accepted = 0usize;
    for bench in bpf_bench_suite::all() {
        let (_, baseline) = k2_baseline::best_baseline(&bench.prog);
        let session = K2Session::builder()
            .goal(OptimizationGoal::InstructionCount)
            .iterations(iterations)
            .params(SearchParams::table8())
            .num_tests(16)
            .seed(0x5afe + bench.row as u64)
            .top_k(5)
            .parallel(true)
            .build()
            .expect("bench session configuration resolves");
        let result = session.optimize_program(&baseline);
        let variants = result.top.len().max(1);
        let ok = result
            .top
            .iter()
            .filter(|(p, _)| verifier.accepts(p))
            .count()
            .max(usize::from(verifier.accepts(&result.best)));
        produced += variants;
        accepted += ok;
        rows.push(vec![
            bench.name.to_string(),
            variants.to_string(),
            ok.to_string(),
            if ok == variants {
                "-".to_string()
            } else {
                "checker rejection".to_string()
            },
        ]);
    }
    println!(
        "{}",
        render_table(
            &[
                "benchmark",
                "variants produced",
                "accepted by checker",
                "failure cause"
            ],
            &rows
        )
    );
    println!("Total: {accepted}/{produced} variants accepted (paper: 38/38)");
}
