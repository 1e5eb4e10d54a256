//! Cross-crate agreement between the safety checkers (the path walker in
//! `bpf-safety`) and the dynamic behaviour observed by the interpreter.
//!
//! * **Soundness** — a program the checker accepts never traps in the
//!   reference interpreter: on the benchmark suite, on 1,000 generated
//!   programs, and on real `ProposalGenerator` candidate streams.
//! * **Must-reject corpus** — unsafe probes with the checker's message
//!   recorded next to each.

use bpf_interp::{run, InputGenerator};
use bpf_isa::{asm, AluOp, HelperId, Insn, JmpOp, MapDef, MemSize, Program, ProgramType, Reg, Src};
use bpf_safety::verifier::{verify, VerifierConfig};
use bpf_safety::{LinuxVerifier, SafetyChecker, SafetyConfig, Verdict};
use k2_core::{ProposalGenerator, SearchParams};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn xdp(text: &str, maps: Vec<MapDef>) -> Program {
    Program::with_maps(ProgramType::Xdp, asm::assemble(text).unwrap(), maps)
}

/// `r0 = 3; r0 = -r0` with the `neg` carrying register source `r5`, which
/// nothing initializes. The kernel rejects the encoding (`BPF_NEG|BPF_X`);
/// the interpreter reads `r5` and traps.
fn neg_with_register_source() -> Program {
    Program::new(
        ProgramType::Xdp,
        vec![
            Insn::mov64_imm(Reg::R0, 3),
            Insn::Alu64 {
                op: AluOp::Neg,
                dst: Reg::R0,
                src: Src::Reg(Reg::R5),
            },
            Insn::Exit,
        ],
    )
}

/// A map lookup whose key pointer is the context pointer moved 4 bytes
/// below its start.
fn lookup_keyed_by_the_context() -> Program {
    xdp(
        "mov64 r2, r1\nadd64 r2, -4\nld_map_fd r1, 0\ncall map_lookup_elem\nmov64 r0, 0\nexit",
        vec![MapDef::array(0, 8, 4)],
    )
}

/// A second lookup keyed by the first lookup's 8-byte value at offset 6:
/// the 4-byte key runs 2 bytes past the value.
fn lookup_keyed_past_a_map_value() -> Program {
    xdp(
        r"
        mov64 r1, 0
        stxw [r10-4], r1
        ld_map_fd r1, 0
        mov64 r2, r10
        add64 r2, -4
        call map_lookup_elem
        jeq r0, 0, +4
        mov64 r2, r0
        add64 r2, 6
        ld_map_fd r1, 0
        call map_lookup_elem
        mov64 r0, 0
        exit
        ",
        vec![MapDef::array(0, 8, 4)],
    )
}

#[test]
fn programs_accepted_by_the_checker_never_trap_in_the_interpreter() {
    // Soundness direction of the checker model: accepted programs must not
    // exhibit unsafe behaviour on any generated input.
    let mut checker = SafetyChecker::new(SafetyConfig::default());
    for bench in bpf_bench_suite::all() {
        assert!(
            checker.is_safe(&bench.prog),
            "{} should be safe",
            bench.name
        );
        let mut generator = InputGenerator::new(17 + bench.row as u64);
        for input in generator.generate_suite(&bench.prog, 6) {
            run(&bench.prog, &input)
                .unwrap_or_else(|e| panic!("{} trapped despite being accepted: {e}", bench.name));
        }
    }
}

#[test]
fn bench_suite_is_dynamically_sound() {
    // The path walk itself, without the checker's cache in front of it, on a
    // corpus ten times the size of the one above.
    let config = VerifierConfig::default();
    for bench in bpf_bench_suite::all() {
        let (verdict, _) = verify(&bench.prog, &config);
        assert!(
            verdict.is_accept(),
            "{}: expected accept, got {verdict:?}",
            bench.name
        );
        let mut generator = InputGenerator::new(17 + bench.row as u64);
        for input in generator.generate_suite(&bench.prog, 64) {
            run(&bench.prog, &input)
                .unwrap_or_else(|e| panic!("{} trapped despite being accepted: {e}", bench.name));
        }
    }
}

#[test]
fn unsafe_programs_are_rejected_and_do_trap() {
    let cases = vec![
        ("neg with a register source", neg_with_register_source()),
        ("lookup keyed by the context", lookup_keyed_by_the_context()),
        ("lookup keyed past a map value", lookup_keyed_past_a_map_value()),
        ("unchecked packet read", xdp("ldxdw r2, [r1+0]\nldxb r0, [r2+100]\nexit", vec![])),
        ("uninitialized stack read", xdp("ldxdw r0, [r10-16]\nexit", vec![])),
        (
            "null map value dereference",
            xdp(
                "mov64 r1, 77\nstxw [r10-4], r1\nld_map_fd r1, 0\nmov64 r2, r10\nadd64 r2, -4\ncall map_lookup_elem\nldxdw r0, [r0+0]\nexit",
                vec![MapDef::array(0, 8, 4)],
            ),
        ),
    ];
    let verifier = LinuxVerifier::default();
    for (label, prog) in cases {
        let (verdict, _) = verifier.load(&prog);
        assert!(
            matches!(verdict, Verdict::Reject(_)),
            "{label} should be rejected"
        );
        // The same hazard is observable dynamically on at least one input.
        let mut generator = InputGenerator::new(3);
        let trapped = generator
            .generate_suite(&prog, 16)
            .iter()
            .any(|input| run(&prog, input).is_err());
        assert!(trapped, "{label} never trapped dynamically");
    }
}

#[test]
fn kernel_checker_and_k2_safety_checker_agree_on_the_benchmarks() {
    let mut k2 = SafetyChecker::new(SafetyConfig::default());
    let kernel = LinuxVerifier::default();
    for bench in bpf_bench_suite::all() {
        assert_eq!(
            k2.is_safe(&bench.prog),
            kernel.accepts(&bench.prog),
            "checkers disagree on {}",
            bench.name
        );
    }
}

#[test]
fn checker_statistics_reflect_path_exploration() {
    let bench = bpf_bench_suite::by_name("xdp_fw").unwrap();
    let (verdict, stats) = LinuxVerifier::default().load(&bench.prog);
    assert!(verdict.is_accept());
    assert!(
        stats.paths >= 2,
        "a branching program explores multiple paths"
    );
    assert!(stats.insns_examined >= bench.prog.real_len());
}

// ---------------------------------------------------------------------------
// Deterministic 1,000-program sweep.
// ---------------------------------------------------------------------------

const SCALARS: [Reg; 6] = [Reg::R0, Reg::R2, Reg::R3, Reg::R6, Reg::R7, Reg::R8];

/// A random program biased toward — but not restricted to — checker-safe
/// shapes: initialized scalars, a store prefix feeding aligned stack loads,
/// in-range forward branches. Roughly a quarter still get rejected (wild
/// stack offsets, reads of registers a helper call clobbered), so the sweep
/// exercises both sides of every verdict.
fn random_program(rng: &mut StdRng) -> Program {
    let mut insns: Vec<Insn> = Vec::new();
    for &r in &SCALARS {
        insns.push(Insn::mov64_imm(r, rng.gen_range(-64..1024)));
    }
    // Store prefix: aligned dword slots the body may load from.
    let mut stored: Vec<i16> = Vec::new();
    for _ in 0..rng.gen_range(0..3) {
        let off = -8 * rng.gen_range(1i16..64);
        let src = SCALARS[rng.gen_range(0..SCALARS.len())];
        insns.push(Insn::store(MemSize::Dword, Reg::R10, off, src));
        stored.push(off);
    }
    let body_len = rng.gen_range(1usize..16);
    for i in 0..body_len {
        let dst = SCALARS[rng.gen_range(0..SCALARS.len())];
        let src_reg = SCALARS[rng.gen_range(0..SCALARS.len())];
        let imm: i32 = match rng.gen_range(0..4) {
            0 => 0,
            1 => rng.gen_range(-16..16),
            2 => rng.gen_range(0..4096),
            _ => rng.gen(),
        };
        let src = if rng.gen_bool(0.5) {
            Src::Reg(src_reg)
        } else {
            Src::Imm(imm)
        };
        // `neg` has no source operand; keep the canonical immediate form
        // (the assembler cannot produce a register-sourced `neg` either).
        let alu = |op: AluOp, src: Src| {
            if op == AluOp::Neg {
                (op, Src::Imm(0))
            } else {
                (op, src)
            }
        };
        insns.push(match rng.gen_range(0..10) {
            0..=4 => {
                let (op, src) = alu(AluOp::ALL[rng.gen_range(0..AluOp::ALL.len())], src);
                Insn::Alu64 { op, dst, src }
            }
            5 => {
                let (op, src) = alu(AluOp::ALL[rng.gen_range(0..AluOp::ALL.len())], src);
                Insn::Alu32 { op, dst, src }
            }
            6..=7 => {
                // Forward conditional jump whose target stays inside the
                // program (the final `exit` included).
                let room = (body_len - 1 - i) as i16;
                Insn::Jmp {
                    op: JmpOp::ALL[rng.gen_range(0..JmpOp::ALL.len())],
                    dst,
                    src,
                    off: rng.gen_range(0..=room.max(0)),
                }
            }
            8 => {
                // Mostly reloads of stored slots; occasionally a wild offset
                // the checker must reject (uninitialized or out of bounds).
                let off = if !stored.is_empty() && rng.gen_bool(0.8) {
                    stored[rng.gen_range(0..stored.len())]
                } else {
                    -rng.gen_range(-8i16..526)
                };
                Insn::load(MemSize::Dword, dst, Reg::R10, off)
            }
            _ => Insn::Call {
                helper: HelperId::GetPrandomU32,
            },
        });
    }
    insns.push(Insn::Exit);
    Program::new(ProgramType::Xdp, insns)
}

#[test]
fn generated_programs_accepted_by_the_checker_never_trap() {
    let mut rng = StdRng::seed_from_u64(0x5eed_ab51);
    let mut generator = InputGenerator::new(0xab51);
    let mut checker = SafetyChecker::new(SafetyConfig::default());
    let (mut accepted, mut rejected) = (0usize, 0usize);
    for case in 0..1_000usize {
        let prog = random_program(&mut rng);
        if !checker.is_safe(&prog) {
            rejected += 1;
            continue;
        }
        accepted += 1;
        for input in generator.generate_suite(&prog, 3) {
            run(&prog, &input).unwrap_or_else(|e| {
                panic!("case {case} trapped despite being accepted: {e}\n{prog}")
            });
        }
    }
    // The sweep must be non-vacuous on both sides.
    assert!(accepted >= 100, "only {accepted} accepted programs");
    assert!(rejected >= 100, "only {rejected} rejected programs");
}

#[test]
fn proposal_stream_candidates_accepted_by_the_checker_never_trap() {
    // Every benchmark under every Table-8 rule mix: 400 proposals each,
    // graded on a 16-input corpus. A candidate that keeps the source's
    // outputs on the corpus becomes the next proposal base, as an accepted
    // move would. Proposals reach shapes hand-written probes do not (a `neg`
    // with a register source, a helper key inside the context or past a
    // map value), so this is where checker holes show first.
    const STEPS: usize = 400;
    let settings = SearchParams::table8();
    let per_setting: Vec<(usize, Vec<String>)> = std::thread::scope(|scope| {
        let workers: Vec<_> = settings
            .iter()
            .map(|params| {
                scope.spawn(move || {
                    let mut accepted = 0usize;
                    let mut traps = Vec::new();
                    for bench in bpf_bench_suite::all() {
                        let src = &bench.prog;
                        let tests = InputGenerator::new(7).generate_suite(src, 16);
                        let expected: Vec<_> = tests
                            .iter()
                            .map(|t| run(src, t).ok().map(|r| r.output))
                            .collect();
                        let mut checker = SafetyChecker::new(SafetyConfig::default());
                        let mut proposals =
                            ProposalGenerator::new(src, params.rules, 0x5eed ^ params.id as u64);
                        let mut current = src.insns.clone();
                        for step in 0..STEPS {
                            let cand = src.with_insns(proposals.propose(&current).0);
                            if !checker.is_safe(&cand) {
                                continue;
                            }
                            accepted += 1;
                            let mut keeps_outputs = true;
                            for (t, want) in tests.iter().zip(&expected) {
                                match run(&cand, t) {
                                    Ok(r) => keeps_outputs &= Some(r.output) == *want,
                                    Err(e) => {
                                        traps.push(format!(
                                            "{} setting {} step {step}: {e}\n{cand}",
                                            bench.name, params.id
                                        ));
                                        keeps_outputs = false;
                                        break;
                                    }
                                }
                            }
                            if keeps_outputs {
                                current = cand.insns;
                            }
                        }
                    }
                    (accepted, traps)
                })
            })
            .collect();
        workers.into_iter().map(|w| w.join().unwrap()).collect()
    });
    let accepted: usize = per_setting.iter().map(|(n, _)| n).sum();
    let traps: Vec<&String> = per_setting.iter().flat_map(|(_, t)| t).collect();
    assert!(accepted >= 10_000, "only {accepted} accepted candidates");
    assert!(
        traps.is_empty(),
        "{} of {accepted} accepted candidates trapped:\n{}",
        traps.len(),
        traps
            .iter()
            .map(|t| t.as_str())
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn must_reject_corpus_keeps_its_recorded_messages() {
    // (label, program, the checker's `VerifierError` message as recorded).
    let text = |t: &str| xdp(t, vec![]);
    let corpus: Vec<(&str, Program, &str)> = vec![
        (
            "read of never-written register",
            text("mov64 r0, r2\nexit"),
            "read of uninitialized r2 at 0",
        ),
        (
            "read of caller-saved register after helper call",
            text("mov64 r0, 0\ncall get_prandom_u32\nmov64 r0, r3\nexit"),
            "read of uninitialized r3 at 2",
        ),
        (
            "read of uninitialized stack slot",
            text("ldxdw r0, [r10-16]\nexit"),
            "stack offset -16 read before write (insn 0)",
        ),
        (
            "stack access below the frame",
            text("mov64 r2, 1\nstxdw [r10-520], r2\nmov64 r0, 0\nexit"),
            "stack access at offset -520 out of bounds (insn 1)",
        ),
        (
            "misaligned stack store",
            text("mov64 r2, 1\nstxdw [r10-12], r2\nmov64 r0, 0\nexit"),
            "misaligned 8-byte stack access at offset -12 (insn 1)",
        ),
        (
            "fall off the end without exit",
            text("mov64 r0, 0"),
            "control may fall off the end of the program",
        ),
        (
            "jump past the end",
            text("mov64 r0, 0\njgt r0, 2, +5\nexit"),
            "jump out of range at 1",
        ),
        (
            "unreachable tail",
            text("mov64 r0, 0\nexit\nmov64 r0, 1\nexit"),
            "unreachable instruction at 2",
        ),
        (
            "self loop",
            text("mov64 r0, 0\nja -1\nexit"),
            "back-edge detected (program may loop)",
        ),
        (
            "multiplication on a stack pointer",
            text("mov64 r2, r10\nmul64 r2, 4\nldxdw r0, [r2-8]\nexit"),
            "disallowed arithmetic on a pointer at 1",
        ),
        (
            "immediate store through the context pointer",
            text("stdw [r1+0], 42\nmov64 r0, 0\nexit"),
            "immediate store into PTR_TO_CTX at 0",
        ),
        (
            "load across the data and data_end slots",
            text("ldxdw r0, [r1+4]\nexit"),
            "invalid context access off=4 size=8 at 0",
        ),
        (
            "load of half the data pointer",
            text("ldxw r0, [r1+0]\nexit"),
            "invalid context access off=0 size=4 at 0",
        ),
        (
            "load of one byte of the data_end pointer",
            text("ldxb r0, [r1+9]\nexit"),
            "invalid context access off=9 size=1 at 0",
        ),
        (
            "load across both XDP input words",
            text("ldxdw r0, [r1+24]\nexit"),
            "invalid context access off=24 size=8 at 0",
        ),
        (
            "neg with a register source",
            neg_with_register_source(),
            "BPF_NEG uses reserved fields at 1",
        ),
        (
            "lookup keyed by the context",
            lookup_keyed_by_the_context(),
            "bad helper argument at 3: buffer argument points into the context",
        ),
        (
            "lookup keyed past a map value",
            lookup_keyed_past_a_map_value(),
            "map value access out of bounds at 10",
        ),
        (
            "packet head moved outside XDP",
            Program::new(
                ProgramType::SocketFilter,
                asm::assemble("mov64 r2, -14\ncall xdp_adjust_head\nmov64 r0, 0\nexit").unwrap(),
            ),
            "unknown helper at 1",
        ),
    ];
    let mut checker = SafetyChecker::new(SafetyConfig::default());
    let kernel = LinuxVerifier::default();
    for (label, prog, recorded) in corpus {
        let err = checker
            .check(&prog)
            .expect_err(&format!("{label}: the checker must reject"));
        assert_eq!(err.to_string(), recorded, "{label}: message drifted");
        assert_eq!(
            kernel.load(&prog).0,
            Verdict::Reject(err),
            "{label}: the kernel model disagrees"
        );
    }
}
