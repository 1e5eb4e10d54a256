//! Best-effort reconstruction of a concrete [`ProgramInput`] from a solver
//! model of the "outputs differ" query. The input is added to K2's test
//! suite so that structurally similar non-equivalent candidates are pruned
//! by the interpreter instead of the solver (paper §3, Fig. 1).

use crate::encode::{Encoder, Region, DATA_PTR};
use bitsmt::{eval::Evaluator, Model, TermId};
use bpf_interp::ProgramInput;
use bpf_isa::{CtxField, Program};
use std::cell::RefCell;
use std::collections::{BTreeSet, HashMap};

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

    let mut input = ProgramInput {
        packet: vec![0u8; value_of(encoder.packet_len).min(4096) as usize],
        time_ns: value_of(encoder.time_ns),
        cpu_id: value_of(encoder.cpu_id) as u32,
        pid_tgid: value_of(encoder.pid_tgid),
        ..ProgramInput::default()
    };

    // Packet and context contents: place each observed initial byte at its
    // offset, a context byte into the input word its slot holds.
    // Map contents: every key the model says is present, and every key
    // whose value bytes the formula read unless the model says it is
    // absent, becomes an entry holding the value bytes read under an equal
    // key (zero where none was).
    let mut present = HashMap::new();
    let mut map_bytes = HashMap::new();
    for &(cell, value) in encoder.init_cells() {
        match cell.region {
            Region::Packet => {
                let off = match cell.offset {
                    Some(o) => o,
                    None => value_of(cell.term) as i64 - DATA_PTR as i64,
                };
                if off >= 0 && (off as usize) < input.packet.len() {
                    input.packet[off as usize] = value_of(value) as u8;
                }
            }
            Region::Context => {
                let Some(off) = cell.offset.map(|o| o as usize) else {
                    continue;
                };
                for &(start, size, field) in prog.prog_type.ctx_layout() {
                    if let (CtxField::Input(word), true) =
                        (field, (start..start + size).contains(&off))
                    {
                        input.ctx_words[word] |= value_of(value) << (8 * (off - start));
                    }
                }
            }
            Region::MapPresent(map_id) => {
                present
                    .entry((map_id, value_of(cell.term)))
                    .or_insert(value_of(value) & 1 == 1);
            }
            Region::MapValue(map_id) => {
                let offset = cell.offset.expect("map value cells have a byte offset");
                map_bytes
                    .entry((map_id, value_of(cell.term), offset))
                    .or_insert_with(|| value_of(value) as u8);
            }
            _ => {}
        }
    }
    let read_keys = map_bytes.keys().map(|&(map_id, key, _)| (map_id, key));
    let keys: BTreeSet<_> = present.keys().copied().chain(read_keys).collect();
    for (map_id, key) in keys.into_iter().filter(|k| present.get(k) != Some(&false)) {
        let def = match encoder
            .map_def(map_id)
            .or_else(|| prog.map(bpf_isa::MapId(map_id)).copied())
        {
            Some(d) => d,
            None => continue,
        };
        let key_bytes = key.to_le_bytes()[..def.key_size.min(8) as usize].to_vec();
        let value_bytes = (0..def.value_size as i64)
            .map(|off| map_bytes.get(&(map_id, key, off)).copied().unwrap_or(0))
            .collect();
        input.maps.insert((map_id, key_bytes), value_bytes);
    }

    input
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
