//! §9 / Appendix G: the classes of optimization K2 discovers — memory
//! coalescing and context-dependent rewrites — demonstrated on the paper's
//! own examples, with before/after listings and formal equivalence verdicts.

use bpf_equiv::{check_equivalence, check_window, EquivOptions, Window};
use bpf_isa::{asm, Program, ProgramType};
use k2_api::K2Session;
use k2_core::{OptimizationGoal, SearchParams};

fn main() {
    println!("Optimizations discovered / verified by K2\n");

    // Example 1 (§9): coalescing a register clear and two 32-bit stores into
    // one 64-bit immediate store (xdp_pktcntr).
    let src = Program::new(
        ProgramType::Xdp,
        asm::assemble("mov64 r1, 0\nstxw [r10-4], r1\nstxw [r10-8], r1\nldxdw r0, [r10-8]\nexit")
            .unwrap(),
    );
    let rewritten = Program::new(
        ProgramType::Xdp,
        asm::assemble("stdw [r10-8], 0\nldxdw r0, [r10-8]\nexit").unwrap(),
    );
    let (outcome, us) = check_equivalence(&src, &rewritten, &EquivOptions::default());
    println!("Example 1 — memory coalescing (xdp_pktcntr):");
    println!(
        "  before ({} insns):\n{}",
        src.real_len(),
        indent(&asm::disassemble(&src.insns))
    );
    println!(
        "  after  ({} insns):\n{}",
        rewritten.real_len(),
        indent(&asm::disassemble(&rewritten.insns))
    );
    println!(
        "  formally equivalent: {} ({} us)\n",
        outcome.is_equivalent(),
        us
    );

    // Example 2 (§9): a context-dependent rewrite from balancer_kern — valid
    // only because r3 is known to hold 0x00000000ffe00000 before the window.
    let balancer = Program::new(
        ProgramType::Xdp,
        asm::assemble(
            "lddw r3, 0xffe00000\nmov64 r2, 12345\nmov64 r0, r2\nand64 r0, r3\nrsh64 r0, 21\nexit",
        )
        .unwrap(),
    );
    let window = Window { start: 2, end: 5 };
    let replacement = asm::assemble("mov32 r0, r2\narsh64 r0, 21\nnop").unwrap();
    let (outcome, us) = check_window(&balancer, window, &replacement);
    println!("Example 2 — context-dependent rewrite (balancer_kern):");
    println!(
        "  window [{}..{}) of:\n{}",
        window.start,
        window.end,
        indent(&asm::disassemble(&balancer.insns))
    );
    println!(
        "  replacement:\n{}",
        indent(&asm::disassemble(&replacement))
    );
    println!(
        "  valid under the inferred precondition: {} ({} us)\n",
        outcome.is_equivalent(),
        us
    );

    // And let the search rediscover example 1 on its own.
    let session = K2Session::builder()
        .goal(OptimizationGoal::InstructionCount)
        .iterations(k2_bench::default_iterations().max(4_000))
        .params(SearchParams::table8())
        .num_tests(16)
        .seed(9)
        .top_k(1)
        .parallel(true)
        .build()
        .expect("bench session configuration resolves");
    let result = session.optimize_program(&src);
    println!(
        "Search starting from example 1's source found ({} insns):",
        result.best.real_len()
    );
    println!("{}", indent(&asm::disassemble(&result.best.insns)));
}

fn indent(text: &str) -> String {
    text.lines()
        .map(|l| format!("    {l}"))
        .collect::<Vec<_>>()
        .join("\n")
}
