//! Best-effort reconstruction of a concrete [`ProgramInput`] from a solver
//! model of the "outputs differ" query. The input is added to K2's test
//! suite so that structurally similar non-equivalent candidates are pruned
//! by the interpreter instead of the solver (paper §3, Fig. 1).

use crate::encode::{Encoder, DATA_PTR};
use bitsmt::{eval::Evaluator, Model, TermId};
use bpf_interp::ProgramInput;
use bpf_isa::Program;
use std::cell::RefCell;

/// Reconstruct a program input from a model.
///
/// The reconstruction is best-effort: any byte or map entry the model does
/// not pin keeps its default value. The result is still a valid input for
/// the interpreter, and by construction it exercises the path on which the
/// two programs differed.
pub fn input_from_model(encoder: &Encoder<'_>, model: &Model, prog: &Program) -> ProgramInput {
    let pool = encoder.pool_ref();
    let assignment = model.to_assignment();
    // One evaluator for every read: the reads share most of their subterms.
    let evaluator = RefCell::new(Evaluator::new(pool, &assignment));
    let value_of = |t: TermId| evaluator.borrow_mut().eval(t);

    let mut input = ProgramInput::default();
    let mut packet_len = 0u64;
    for (name, term) in encoder.input_summary() {
        let v = value_of(term);
        match name {
            "in_pkt_len" => packet_len = v.min(4096),
            "in_time_ns" => input.time_ns = v,
            "in_cpu_id" => input.cpu_id = v as u32,
            "in_pid_tgid" => input.pid_tgid = v,
            _ => {}
        }
    }
    input.packet = vec![0u8; packet_len as usize];

    // Packet contents: place each observed initial byte at its offset.
    for (addr_term, concrete_off, value_term) in encoder.packet_init_reads() {
        let off = match concrete_off {
            Some(o) => o,
            None => value_of(addr_term) as i64 - DATA_PTR as i64,
        };
        if off >= 0 && (off as usize) < input.packet.len() {
            input.packet[off as usize] = value_of(value_term) as u8;
        }
    }

    // Map contents: for every key whose presence or value the formula
    // observed, materialize an entry when the model says it is present.
    let (init_values, init_present) = encoder.map_init_reads();
    for (map_id, key_term, present_term) in &init_present {
        if value_of(*present_term) & 1 == 0 {
            continue;
        }
        insert_map_entry(
            &mut input,
            encoder,
            prog,
            *map_id,
            value_of(*key_term),
            &|off| {
                init_values
                    .iter()
                    .find(|(m, k, o, _)| m == map_id && *k == *key_term && *o == off)
                    .map(|(_, _, _, v)| value_of(*v) as u8)
                    .unwrap_or(0)
            },
        );
    }
    // Also materialize entries whose values were read even if presence was
    // never explicitly queried (e.g. array maps, always present).
    for (map_id, key_term, _off, _v) in &init_values {
        let key_val = value_of(*key_term);
        insert_map_entry(&mut input, encoder, prog, *map_id, key_val, &|off| {
            init_values
                .iter()
                .find(|(m, k, o, _)| m == map_id && value_of(*k) == key_val && *o == off)
                .map(|(_, _, _, v)| value_of(*v) as u8)
                .unwrap_or(0)
        });
    }

    input
}

fn insert_map_entry(
    input: &mut ProgramInput,
    encoder: &Encoder<'_>,
    prog: &Program,
    map_id: u32,
    key_value: u64,
    byte_at: &dyn Fn(i64) -> u8,
) {
    let def = match encoder
        .map_def(map_id)
        .or_else(|| prog.map(bpf_isa::MapId(map_id)).copied())
    {
        Some(d) => d,
        None => return,
    };
    let key_bytes = key_value.to_le_bytes()[..def.key_size.min(8) as usize].to_vec();
    let value_bytes: Vec<u8> = (0..def.value_size as i64).map(byte_at).collect();
    input.maps.insert((map_id, key_bytes), value_bytes);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encode::EncodeOptions;
    #[allow(unused_imports)]
    use bitsmt::TermId;
    use bitsmt::{CheckResult, Solver, TermPool};
    use bpf_interp::run;
    use bpf_isa::{asm, ProgramType};

    /// End-to-end: two non-equivalent programs produce a counterexample that
    /// the interpreter confirms (different outputs on that input).
    #[test]
    fn counterexample_distinguishes_programs() {
        let src = Program::new(
            ProgramType::Xdp,
            asm::assemble(
                "ldxdw r2, [r1+0]\nldxdw r3, [r1+8]\nmov64 r0, 1\njeq r2, r3, +1\nmov64 r0, 2\nexit",
            )
            .unwrap(),
        );
        let cand = Program::new(
            ProgramType::Xdp,
            asm::assemble("mov64 r0, 2\nexit").unwrap(),
        );

        let mut pool = TermPool::new();
        let mut enc = Encoder::new(&mut pool, EncodeOptions::default());
        let e1 = enc.encode_program(&src, 0).unwrap();
        let e2 = enc.encode_program(&cand, 1).unwrap();
        let diff = enc.output_difference(&e1, &e2);
        let constraints = enc.constraints.clone();

        let model = {
            let mut solver = Solver::new(enc.pool());
            for c in &constraints {
                solver.assert(*c);
            }
            solver.assert(diff);
            match solver.check() {
                CheckResult::Sat(m) => m,
                CheckResult::Unsat => panic!("programs differ on empty packets"),
            }
        };

        let input = input_from_model(&enc, &model, &src);
        let out_src = run(&src, &input).expect("source runs");
        let out_cand = run(&cand, &input).expect("candidate runs");
        assert_ne!(out_src.output.ret, out_cand.output.ret);
    }
}
