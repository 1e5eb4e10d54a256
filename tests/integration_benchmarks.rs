//! The benchmark suite as a whole: every program runs, the rule-based
//! baseline preserves behaviour on all of them, and the Table 1 scale
//! expectations hold.

use bpf_interp::{run, InputGenerator};
use k2_baseline::{best_baseline, optimize, OptLevel};

#[test]
fn baseline_preserves_behaviour_on_every_benchmark() {
    for bench in bpf_bench_suite::all() {
        let (_, best) = best_baseline(&bench.prog);
        let o1 = optimize(&bench.prog, OptLevel::O1);
        let mut generator = InputGenerator::new(1000 + bench.row as u64);
        for input in generator.generate_suite(&bench.prog, 8) {
            let reference =
                run(&bench.prog, &input).unwrap_or_else(|e| panic!("{} trapped: {e}", bench.name));
            for (label, variant) in [("-O1", &o1), ("best", &best)] {
                let out = run(variant, &input)
                    .unwrap_or_else(|e| panic!("{} {label} trapped: {e}", bench.name));
                assert_eq!(
                    reference.output, out.output,
                    "{} {label} changed behaviour",
                    bench.name
                );
            }
        }
    }
}

#[test]
fn baseline_never_grows_programs() {
    for bench in bpf_bench_suite::all() {
        let (_, best) = best_baseline(&bench.prog);
        assert!(
            best.real_len() <= bench.prog.real_len(),
            "{} grew",
            bench.name
        );
    }
}

#[test]
fn suite_covers_the_papers_size_range() {
    let benches = bpf_bench_suite::all();
    let sizes: Vec<usize> = benches.iter().map(|b| b.prog.real_len()).collect();
    let min = *sizes.iter().min().unwrap();
    let max = *sizes.iter().max().unwrap();
    // Table 1 spans ~18-instruction tracepoint handlers up to the large
    // load balancer.
    assert!(
        (15..=40).contains(&min),
        "smallest benchmark out of range: {min}"
    );
    assert!(max >= 100, "largest benchmark too small: {max}");
    // The throughput subset is made of XDP programs only.
    for bench in bpf_bench_suite::throughput_subset() {
        assert_eq!(bench.prog.prog_type, bpf_isa::ProgramType::Xdp);
    }
}

#[test]
fn benchmarks_store_results_in_their_maps() {
    // Counter-style benchmarks must be observably stateful: on some input the
    // final map contents differ from the initial ones.
    for name in [
        "xdp_pktcntr",
        "xdp_exception",
        "xdp_devmap_xmit",
        "xdp1_kern/xdp1",
    ] {
        let bench = bpf_bench_suite::by_name(name).unwrap();
        let mut generator = InputGenerator::new(5);
        let touched = generator
            .generate_suite(&bench.prog, 12)
            .iter()
            .any(|input| {
                run(&bench.prog, input)
                    .map(|r| r.output.maps.to_map_state() != input.maps)
                    .unwrap_or(false)
            });
        assert!(touched, "{name} never updated its maps");
    }
}
