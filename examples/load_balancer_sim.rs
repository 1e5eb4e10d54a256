//! Simulate the katran-style load balancer on the DUT model: measure the
//! maximum loss-free forwarding rate and the latency-vs-load curve of the
//! rule-based baseline against K2's latency-optimized variant — the workflow
//! behind Tables 2 and 3.
//!
//! ```text
//! cargo run --release --example load_balancer_sim
//! ```

use k2::api::{K2Config, Knob};
use k2_core::{optimize_with, CompilerOptions, OptimizationGoal, SearchParams};
use k2_netsim::{find_mlffr, load_sweep, DutConfig, DutModel};

fn main() {
    let bench = bpf_bench_suite::by_name("xdp-balancer").expect("benchmark exists");
    println!(
        "{}: {} ({} instructions)",
        bench.name,
        bench.description,
        bench.prog.real_len()
    );

    let (_, baseline) = k2_baseline::best_baseline(&bench.prog);
    // `K2_ITERS` replaces the 2,000 iterations when the knob table accepts
    // it; a refused value warns and keeps 2,000.
    let mut defaults = K2Config {
        iterations: 2_000,
        ..K2Config::default()
    };
    Knob::by_key("iterations").unwrap().apply_env(&mut defaults);
    let options = CompilerOptions {
        goal: OptimizationGoal::Latency,
        iterations: defaults.iterations,
        params: SearchParams::table8().into_iter().take(2).collect(),
        num_tests: 12,
        seed: 1234,
        top_k: 5,
        parallel: true,
        ..CompilerOptions::default()
    };
    let k2 = optimize_with(&options, &baseline).best;
    println!(
        "baseline: {} instructions, K2: {} instructions",
        baseline.real_len(),
        k2.real_len()
    );

    let config = DutConfig {
        packets_per_trial: 10_000,
        ..DutConfig::default()
    };
    let baseline_model = DutModel::measure(&baseline, config);
    let k2_model = DutModel::measure(&k2, config);

    println!(
        "per-packet cost: baseline {:.1} cycles, K2 {:.1} cycles",
        baseline_model.cycles_per_packet, k2_model.cycles_per_packet
    );
    println!(
        "MLFFR: baseline {:.3} Mpps, K2 {:.3} Mpps",
        find_mlffr(&baseline_model),
        find_mlffr(&k2_model)
    );

    println!("\noffered(Mpps)  baseline: tput/lat(us)/drop     K2: tput/lat(us)/drop");
    for (b, k) in load_sweep(&baseline_model, 8)
        .iter()
        .zip(load_sweep(&k2_model, 8).iter())
    {
        println!(
            "{:>12.3}  {:>7.3} / {:>8.2} / {:>5.3}    {:>7.3} / {:>8.2} / {:>5.3}",
            b.offered_mpps,
            b.throughput_mpps,
            b.avg_latency_us,
            b.drop_rate,
            k.throughput_mpps,
            k.avg_latency_us,
            k.drop_rate
        );
    }
}
