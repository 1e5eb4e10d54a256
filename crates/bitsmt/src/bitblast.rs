//! Bit-blasting: lowering bit-vector terms to CNF via Tseitin encoding.
//!
//! Every term is translated to a run of [`Bit`]s (LSB first) in one flat
//! arena. Constant bits stay symbolic-free; only genuinely unknown bits
//! allocate CNF variables, which keeps the formulas small after the
//! term-level simplifications have run.
//!
//! Gates over literals are structurally hashed (Kuehlmann et al., "Robust
//! Boolean Reasoning for Equivalence Checking and Functional Property
//! Verification", TCAD 2002): every AND, XOR and multiplexer is looked up in
//! one table before it is built, so a gate that two terms compute alike gets
//! one variable and one set of clauses. An AND is keyed by its sorted
//! literals. An XOR is keyed by its inputs' variables, and a multiplexer by
//! a positive select and a positive then-arm; the inputs' signs go into the
//! output's polarity. An if-then-else bit whose select and arms are distinct
//! literals is one multiplexer variable with the six-clause encoding, and
//! `ite(c, t, ¬t)` is `xnor(c, t)`.

use crate::cnf::{CnfBuilder, Lit};
use crate::term::{FxHasher, Op, TermId, TermPool};
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::hash::BuildHasherDefault;

/// One bit of a blasted term: either a known constant or a CNF literal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Bit {
    /// A known constant bit.
    Const(bool),
    /// A CNF literal.
    Lit(Lit),
}

/// The bit-blaster: owns the CNF being built and the memoized translations.
///
/// Resetting it empties it for the next formula but keeps its buffers, so
/// one blaster serves every query of a thread.
#[derive(Debug, Default)]
pub struct BitBlaster {
    /// The CNF formula being produced.
    pub cnf: CnfBuilder,
    /// The bits of every blasted term, back to back.
    bits: Vec<Bit>,
    /// Where each term's bits start in `bits` and how many there are,
    /// indexed by [`TermId`]; zero bits until the term is blasted (every
    /// term is at least one bit wide).
    spans: Vec<(u32, u32)>,
    /// The output literal of every gate built so far.
    gates: HashMap<Gate, Lit, BuildHasherDefault<FxHasher>>,
    /// CNF variables backing each named bit-vector variable (LSB first).
    pub var_bits: HashMap<String, Vec<Lit>>,
}

/// A gate over literals, in the normal form that keys the gate table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Gate {
    /// `x ∧ y` with `x < y`.
    And(Lit, Lit),
    /// `x ⊕ y` over positive literals with `x < y`.
    Xor(Lit, Lit),
    /// `c ? t : e` with `c` and `t` positive.
    Mux(Lit, Lit, Lit),
}

/// A term's bits on the stack (terms are at most 64 bits wide), so operands
/// can be read while gates are added.
#[derive(Clone, Copy)]
struct Word {
    bits: [Bit; 64],
    len: usize,
}

impl std::ops::Deref for Word {
    type Target = [Bit];

    fn deref(&self) -> &[Bit] {
        &self.bits[..self.len]
    }
}

impl FromIterator<Bit> for Word {
    fn from_iter<I: IntoIterator<Item = Bit>>(iter: I) -> Word {
        let mut word = Word {
            bits: [Bit::Const(false); 64],
            len: 0,
        };
        for bit in iter {
            word.bits[word.len] = bit;
            word.len += 1;
        }
        word
    }
}

impl From<Vec<Bit>> for Word {
    fn from(bits: Vec<Bit>) -> Word {
        bits.into_iter().collect()
    }
}

impl BitBlaster {
    /// Create an empty blaster.
    pub fn new() -> BitBlaster {
        BitBlaster::default()
    }

    /// Forget the formula built so far, keeping the buffers' capacity.
    pub(crate) fn reset(&mut self) {
        self.cnf.clear();
        self.bits.clear();
        self.spans.clear();
        self.gates.clear();
        self.var_bits.clear();
    }

    /// Assert that a 1-bit term is true.
    pub fn assert_true(&mut self, pool: &TermPool, term: TermId) {
        assert_eq!(pool.width(term), 1, "only 1-bit terms can be asserted");
        match self.blast(pool, term)[0] {
            Bit::Const(true) => {}
            Bit::Const(false) => self.cnf.add_contradiction(),
            Bit::Lit(l) => self.cnf.add_clause(&[l]),
        }
    }

    fn blasted(&self, id: TermId) -> bool {
        self.spans[id.index()].1 != 0
    }

    /// Translate a term into its bits.
    pub fn blast(&mut self, pool: &TermPool, term: TermId) -> &[Bit] {
        if self.spans.len() < pool.len() {
            self.spans.resize(pool.len(), (0, 0));
        }
        if !self.blasted(term) {
            // Post-order traversal without recursion (terms can be deep).
            let mut order: Vec<TermId> = Vec::new();
            let mut stack: Vec<(TermId, bool)> = vec![(term, false)];
            while let Some((id, ready)) = stack.pop() {
                if self.blasted(id) {
                    continue;
                }
                if ready {
                    order.push(id);
                    continue;
                }
                stack.push((id, true));
                for child in crate::term::children(&pool.node(id).op) {
                    if !self.blasted(child) {
                        stack.push((child, false));
                    }
                }
            }
            for id in order {
                if self.blasted(id) {
                    continue;
                }
                let word = self.blast_node(pool, id);
                debug_assert_eq!(word.len as u32, pool.width(id));
                let start = u32::try_from(self.bits.len()).expect("under 2^32 blasted bits");
                self.spans[id.index()] = (start, word.len as u32);
                self.bits.extend_from_slice(&word);
            }
        }
        let (start, len) = self.spans[term.index()];
        &self.bits[start as usize..(start + len) as usize]
    }

    /// The bits of an already blasted term.
    fn get(&self, t: TermId) -> Word {
        let (start, len) = self.spans[t.index()];
        self.bits[start as usize..(start + len) as usize]
            .iter()
            .copied()
            .collect()
    }

    fn blast_node(&mut self, pool: &TermPool, id: TermId) -> Word {
        let node = pool.node(id);
        let w = node.width as usize;
        match node.op {
            Op::Const(c) => (0..w).map(|i| Bit::Const((c >> i) & 1 == 1)).collect(),
            Op::Var(ref name) => {
                if let Some(lits) = self.var_bits.get(name) {
                    return lits.iter().map(|&l| Bit::Lit(l)).collect();
                }
                let lits: Vec<Lit> = (0..w).map(|_| self.cnf.fresh()).collect();
                let bits = lits.iter().map(|&l| Bit::Lit(l)).collect();
                self.var_bits.insert(name.clone(), lits);
                bits
            }
            Op::Not(a) => self.get(a).iter().map(|&b| self.bit_not(b)).collect(),
            Op::And(a, b) => self.zip(a, b, |s, x, y| s.bit_and(x, y)),
            Op::Or(a, b) => self.zip(a, b, |s, x, y| s.bit_or(x, y)),
            Op::Xor(a, b) => self.zip(a, b, |s, x, y| s.bit_xor(x, y)),
            Op::Add(a, b) => self
                .adder(&self.get(a), &self.get(b), Bit::Const(false))
                .0
                .into(),
            Op::Sub(a, b) => self.subtract(&self.get(a), &self.get(b)).0.into(),
            Op::Mul(a, b) => self.multiply(&self.get(a), &self.get(b)).into(),
            Op::UDiv(a, b) => self.divide(&self.get(a), &self.get(b)).0.into(),
            Op::URem(a, b) => self.divide(&self.get(a), &self.get(b)).1.into(),
            Op::Shl(a, b) => self
                .shift(&self.get(a), &self.get(b), ShiftKind::Left)
                .into(),
            Op::Lshr(a, b) => self
                .shift(&self.get(a), &self.get(b), ShiftKind::LogicalRight)
                .into(),
            Op::Ashr(a, b) => self
                .shift(&self.get(a), &self.get(b), ShiftKind::ArithmeticRight)
                .into(),
            Op::Eq(a, b) => {
                let (av, bv) = (self.get(a), self.get(b));
                let mut acc = Bit::Const(true);
                for (&x, &y) in av.iter().zip(bv.iter()) {
                    let x_eq_y = self.bit_xnor(x, y);
                    acc = self.bit_and(acc, x_eq_y);
                }
                std::iter::once(acc).collect()
            }
            Op::Ult(a, b) => std::iter::once(self.ult(&self.get(a), &self.get(b))).collect(),
            Op::Slt(a, b) => {
                let (av, bv) = (self.get(a), self.get(b));
                let sa = *av.last().expect("nonempty");
                let sb = *bv.last().expect("nonempty");
                let unsigned_lt = self.ult(&av, &bv);
                // Different signs: a < b iff a is negative.
                let signs_differ = self.bit_xor(sa, sb);
                std::iter::once(self.bit_ite(signs_differ, sa, unsigned_lt)).collect()
            }
            Op::Concat(a, b) => self
                .get(b)
                .iter()
                .chain(self.get(a).iter())
                .copied()
                .collect(),
            Op::Extract { hi, lo, arg } => self.get(arg)[lo as usize..=hi as usize]
                .iter()
                .copied()
                .collect(),
            Op::Ite(c, t, e) => {
                let cond = self.get(c)[0];
                let (tv, ev) = (self.get(t), self.get(e));
                tv.iter()
                    .zip(ev.iter())
                    .map(|(&x, &y)| self.bit_ite(cond, x, y))
                    .collect()
            }
        }
    }

    fn zip<F: FnMut(&mut Self, Bit, Bit) -> Bit>(
        &mut self,
        a: TermId,
        b: TermId,
        mut f: F,
    ) -> Word {
        let (av, bv) = (self.get(a), self.get(b));
        av.iter()
            .zip(bv.iter())
            .map(|(&x, &y)| f(self, x, y))
            .collect()
    }

    // ----- single-bit gates (Tseitin) --------------------------------------

    fn bit_not(&mut self, a: Bit) -> Bit {
        match a {
            Bit::Const(b) => Bit::Const(!b),
            Bit::Lit(l) => Bit::Lit(-l),
        }
    }

    fn bit_and(&mut self, a: Bit, b: Bit) -> Bit {
        match (a, b) {
            (Bit::Const(false), _) | (_, Bit::Const(false)) => Bit::Const(false),
            (Bit::Const(true), x) | (x, Bit::Const(true)) => x,
            (Bit::Lit(x), Bit::Lit(y)) => {
                if x == y {
                    return Bit::Lit(x);
                }
                if x == -y {
                    return Bit::Const(false);
                }
                Bit::Lit(self.gate(Gate::And(x.min(y), x.max(y))))
            }
        }
    }

    fn bit_or(&mut self, a: Bit, b: Bit) -> Bit {
        let na = self.bit_not(a);
        let nb = self.bit_not(b);
        let n = self.bit_and(na, nb);
        self.bit_not(n)
    }

    fn bit_xor(&mut self, a: Bit, b: Bit) -> Bit {
        match (a, b) {
            (Bit::Const(x), Bit::Const(y)) => Bit::Const(x ^ y),
            (Bit::Const(false), x) | (x, Bit::Const(false)) => x,
            (Bit::Const(true), x) | (x, Bit::Const(true)) => self.bit_not(x),
            (Bit::Lit(x), Bit::Lit(y)) => {
                if x == y {
                    return Bit::Const(false);
                }
                if x == -y {
                    return Bit::Const(true);
                }
                // ¬x ⊕ y = ¬(x ⊕ y): one gate per pair of variables.
                let (a, b) = (x.abs(), y.abs());
                let o = self.gate(Gate::Xor(a.min(b), a.max(b)));
                Bit::Lit(if (x < 0) != (y < 0) { -o } else { o })
            }
        }
    }

    fn bit_xnor(&mut self, a: Bit, b: Bit) -> Bit {
        let x = self.bit_xor(a, b);
        self.bit_not(x)
    }

    fn bit_ite(&mut self, c: Bit, t: Bit, e: Bit) -> Bit {
        match (c, t, e) {
            (Bit::Const(true), _, _) => t,
            (Bit::Const(false), _, _) => e,
            _ if t == e => t,
            (Bit::Lit(c), Bit::Lit(t), Bit::Lit(e)) if t.abs() != c.abs() && e.abs() != c.abs() => {
                if t == -e {
                    return self.bit_xnor(Bit::Lit(c), Bit::Lit(t));
                }
                // ite(¬c, t, e) = ite(c, e, t) and ite(c, ¬t, ¬e) = ¬ite(c, t, e).
                let (t, e) = if c < 0 { (e, t) } else { (t, e) };
                let o = self.gate(Gate::Mux(c.abs(), t.abs(), t.signum() * e));
                Bit::Lit(t.signum() * o)
            }
            _ => {
                let ct = self.bit_and(c, t);
                let nc = self.bit_not(c);
                let ce = self.bit_and(nc, e);
                self.bit_or(ct, ce)
            }
        }
    }

    /// The output literal of `gate`: the existing one if the gate was built
    /// before, otherwise a fresh variable and its Tseitin clauses.
    fn gate(&mut self, gate: Gate) -> Lit {
        let slot = match self.gates.entry(gate) {
            Entry::Occupied(slot) => return *slot.get(),
            Entry::Vacant(slot) => slot,
        };
        let cnf = &mut self.cnf;
        let o = cnf.fresh();
        match gate {
            Gate::And(x, y) => {
                cnf.add_clause(&[-x, -y, o]);
                cnf.add_clause(&[x, -o]);
                cnf.add_clause(&[y, -o]);
            }
            Gate::Xor(x, y) => {
                cnf.add_clause(&[-x, -y, -o]);
                cnf.add_clause(&[x, y, -o]);
                cnf.add_clause(&[x, -y, o]);
                cnf.add_clause(&[-x, y, o]);
            }
            Gate::Mux(c, t, e) => {
                cnf.add_clause(&[-c, -t, o]);
                cnf.add_clause(&[-c, t, -o]);
                cnf.add_clause(&[c, -e, o]);
                cnf.add_clause(&[c, e, -o]);
                // Redundant, but they let propagation see agreeing arms.
                cnf.add_clause(&[-t, -e, o]);
                cnf.add_clause(&[t, e, -o]);
            }
        }
        *slot.insert(o)
    }

    // ----- word-level circuits ----------------------------------------------

    /// Ripple-carry adder. Returns (sum bits, carry out).
    fn adder(&mut self, a: &[Bit], b: &[Bit], carry_in: Bit) -> (Vec<Bit>, Bit) {
        let mut carry = carry_in;
        let mut sum = Vec::with_capacity(a.len());
        for (&x, &y) in a.iter().zip(b.iter()) {
            let xy = self.bit_xor(x, y);
            let s = self.bit_xor(xy, carry);
            let c1 = self.bit_and(x, y);
            let c2 = self.bit_and(xy, carry);
            carry = self.bit_or(c1, c2);
            sum.push(s);
        }
        (sum, carry)
    }

    /// Subtraction `a - b`. Returns (difference, borrow-free flag i.e. carry
    /// out of `a + ~b + 1`; carry == 1 means `a >= b`).
    fn subtract(&mut self, a: &[Bit], b: &[Bit]) -> (Vec<Bit>, Bit) {
        let nb: Vec<Bit> = b.iter().map(|&x| self.bit_not(x)).collect();
        self.adder(a, &nb, Bit::Const(true))
    }

    /// Unsigned less-than.
    fn ult(&mut self, a: &[Bit], b: &[Bit]) -> Bit {
        let (_, carry) = self.subtract(a, b);
        self.bit_not(carry)
    }

    /// Shift-and-add multiplier (low bits only).
    fn multiply(&mut self, a: &[Bit], b: &[Bit]) -> Vec<Bit> {
        let w = a.len();
        let mut acc = vec![Bit::Const(false); w];
        for (i, &bbit) in b.iter().enumerate() {
            if bbit == Bit::Const(false) {
                continue;
            }
            // addend = (a << i) masked by b[i]
            let mut addend = vec![Bit::Const(false); w];
            for j in 0..w - i {
                addend[i + j] = self.bit_and(a[j], bbit);
            }
            let (sum, _) = self.adder(&acc, &addend, Bit::Const(false));
            acc = sum;
        }
        acc
    }

    /// Restoring division producing (quotient, remainder) with the BPF
    /// conventions for a zero divisor (`q = 0`, `r = dividend`).
    fn divide(&mut self, a: &[Bit], b: &[Bit]) -> (Vec<Bit>, Vec<Bit>) {
        let w = a.len();
        let mut rem = vec![Bit::Const(false); w];
        let mut quot = vec![Bit::Const(false); w];
        for i in (0..w).rev() {
            // rem = (rem << 1) | a[i]
            rem.rotate_right(1);
            rem[0] = a[i];
            // If rem >= b, subtract and set the quotient bit.
            let (diff, ge) = self.subtract(&rem, b);
            for j in 0..w {
                rem[j] = self.bit_ite(ge, diff[j], rem[j]);
            }
            quot[i] = ge;
        }
        // Zero-divisor handling.
        let mut divisor_nonzero = Bit::Const(false);
        for &bit in b {
            divisor_nonzero = self.bit_or(divisor_nonzero, bit);
        }
        let q: Vec<Bit> = quot
            .into_iter()
            .map(|qb| self.bit_ite(divisor_nonzero, qb, Bit::Const(false)))
            .collect();
        let r: Vec<Bit> = rem
            .iter()
            .zip(a.iter())
            .map(|(&rb, &ab)| self.bit_ite(divisor_nonzero, rb, ab))
            .collect();
        (q, r)
    }

    /// Barrel shifter. The shift amount is reduced modulo the width first
    /// (matching the term/eval semantics).
    fn shift(&mut self, a: &[Bit], amount: &[Bit], kind: ShiftKind) -> Vec<Bit> {
        let w = a.len();
        // amount mod w: for power-of-two widths this is just the low bits;
        // otherwise compute a remainder circuit against the constant width.
        let sel: Vec<Bit> = if w.is_power_of_two() {
            let k = w.trailing_zeros() as usize;
            amount[..k.min(amount.len())].to_vec()
        } else {
            let width_const: Vec<Bit> = (0..amount.len())
                .map(|i| Bit::Const((w >> i) & 1 == 1))
                .collect();
            let (_, rem) = self.divide(amount, &width_const);
            let bits_needed = usize::BITS as usize - (w - 1).leading_zeros() as usize;
            rem[..bits_needed.min(rem.len())].to_vec()
        };

        let fill = match kind {
            ShiftKind::ArithmeticRight => *a.last().expect("nonempty"),
            _ => Bit::Const(false),
        };
        let mut cur = a.to_vec();
        for (stage, &sbit) in sel.iter().enumerate() {
            let dist = 1usize << stage;
            if dist >= w {
                break;
            }
            let mut shifted = vec![fill; w];
            match kind {
                ShiftKind::Left => {
                    shifted[dist..w].copy_from_slice(&cur[..w - dist]);
                    for item in shifted.iter_mut().take(dist) {
                        *item = Bit::Const(false);
                    }
                }
                ShiftKind::LogicalRight | ShiftKind::ArithmeticRight => {
                    shifted[..w - dist].copy_from_slice(&cur[dist..w]);
                }
            }
            cur = cur
                .iter()
                .zip(shifted.iter())
                .map(|(&orig, &sh)| self.bit_ite(sbit, sh, orig))
                .collect();
        }
        cur
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ShiftKind {
    Left,
    LogicalRight,
    ArithmeticRight,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::{eval, Assignment};
    use crate::sat::{SatResult, SatSolver};

    /// Check that `term` (1-bit) is satisfiable and return a model projected
    /// onto the named variables.
    fn solve(pool: &TermPool, term: TermId) -> Option<Assignment> {
        let mut blaster = BitBlaster::new();
        blaster.assert_true(pool, term);
        let mut solver = SatSolver::new();
        solver.load(&blaster.cnf);
        match solver.solve() {
            SatResult::Sat(assignment) => {
                let mut out = Assignment::new();
                for (name, bits) in &blaster.var_bits {
                    let mut value = 0u64;
                    for (i, &lit) in bits.iter().enumerate() {
                        if assignment[lit.unsigned_abs() as usize] {
                            value |= 1 << i;
                        }
                    }
                    out.set(name.clone(), value);
                }
                Some(out)
            }
            SatResult::Unsat => None,
        }
    }

    #[test]
    fn a_repeated_and_reuses_its_variable_and_clauses() {
        let mut b = BitBlaster::new();
        let (x, y) = (Bit::Lit(b.cnf.fresh()), Bit::Lit(b.cnf.fresh()));
        let first = b.bit_and(x, y);
        assert_eq!(b.bit_and(x, y), first);
        assert_eq!(b.bit_and(y, x), first);
        assert_eq!((b.cnf.num_vars, b.cnf.num_clauses()), (3, 3));
    }

    #[test]
    fn xor_with_a_negated_input_is_the_negated_xor() {
        let mut b = BitBlaster::new();
        let (x, y) = (b.cnf.fresh(), b.cnf.fresh());
        let Bit::Lit(o) = b.bit_xor(Bit::Lit(x), Bit::Lit(y)) else {
            panic!("x ⊕ y is not constant");
        };
        assert_eq!(b.bit_xor(Bit::Lit(-x), Bit::Lit(y)), Bit::Lit(-o));
        assert_eq!(b.bit_xor(Bit::Lit(y), Bit::Lit(-x)), Bit::Lit(-o));
        assert_eq!(b.bit_xor(Bit::Lit(-x), Bit::Lit(-y)), Bit::Lit(o));
        assert_eq!((b.cnf.num_vars, b.cnf.num_clauses()), (3, 4));
    }

    #[test]
    fn an_ite_bit_is_one_mux_variable_with_six_clauses() {
        let mut b = BitBlaster::new();
        let (c, t, e) = (b.cnf.fresh(), b.cnf.fresh(), b.cnf.fresh());
        let Bit::Lit(o) = b.bit_ite(Bit::Lit(c), Bit::Lit(t), Bit::Lit(e)) else {
            panic!("the mux is not constant");
        };
        assert_eq!((b.cnf.num_vars, b.cnf.num_clauses()), (4, 6));
        // The same mux with the select or both arms negated.
        assert_eq!(
            b.bit_ite(Bit::Lit(-c), Bit::Lit(e), Bit::Lit(t)),
            Bit::Lit(o)
        );
        assert_eq!(
            b.bit_ite(Bit::Lit(c), Bit::Lit(-t), Bit::Lit(-e)),
            Bit::Lit(-o)
        );
        assert_eq!((b.cnf.num_vars, b.cnf.num_clauses()), (4, 6));
        // ite(c, t, ¬t) is xnor(c, t): one XOR gate.
        let xnor = b.bit_xnor(Bit::Lit(c), Bit::Lit(t));
        assert_eq!(b.bit_ite(Bit::Lit(c), Bit::Lit(t), Bit::Lit(-t)), xnor);
        assert_eq!((b.cnf.num_vars, b.cnf.num_clauses()), (5, 10));
    }

    #[test]
    fn a_miter_of_structurally_equal_sides_is_decided_without_conflicts() {
        // The two sides are different terms that the pool keeps apart, but
        // the same gates bit by bit: De Morgan's AND, an XOR of negated
        // operands, and an ite with a negated select and swapped arms.
        let mut p = TermPool::new();
        let x = p.var("x", 16);
        let y = p.var("y", 16);
        let z = p.var("z", 16);
        let c = p.ult(x, z);
        let and = p.and(x, y);
        let xor = p.xor(x, z);
        let lhs = p.ite(c, and, xor);
        let (nx, ny, nz) = (p.not(x), p.not(y), p.not(z));
        let nor = p.or(nx, ny);
        let demorgan = p.not(nor);
        let nxor = p.xor(nx, nz);
        let nc = p.not(c);
        let rhs = p.ite(nc, nxor, demorgan);
        assert_ne!(lhs, rhs);
        let differ = p.ne(lhs, rhs);
        let mut solver = crate::Solver::new(&mut p);
        solver.assert(differ);
        assert_eq!(solver.check(), crate::CheckResult::Unsat);
        assert_eq!(solver.stats.conflicts, 0);
    }

    #[test]
    fn simple_equation_has_model() {
        let mut p = TermPool::new();
        let x = p.var("x", 16);
        let c = p.constant(1234, 16);
        let seven = p.constant(7, 16);
        let sum = p.add(x, seven);
        let goal = p.eq(sum, c);
        let model = solve(&p, goal).expect("satisfiable");
        assert_eq!(model.get("x"), 1234 - 7);
        assert_eq!(eval(&p, &model, goal), 1);
    }

    #[test]
    fn contradiction_is_unsat() {
        let mut p = TermPool::new();
        let x = p.var("x", 8);
        let a = p.constant(1, 8);
        let b = p.constant(2, 8);
        let e1 = p.eq(x, a);
        let e2 = p.eq(x, b);
        let both = p.and(e1, e2);
        assert!(solve(&p, both).is_none());
    }

    #[test]
    fn multiplication_constraint() {
        let mut p = TermPool::new();
        let x = p.var("x", 16);
        let y = p.var("y", 16);
        let prod = p.mul(x, y);
        let c = p.constant(77, 16);
        let goal_eq = p.eq(prod, c);
        let one = p.constant(1, 16);
        let xgt = p.ugt(x, one);
        let ygt = p.ugt(y, one);
        let goal1 = p.and(goal_eq, xgt);
        let goal = p.and(goal1, ygt);
        let model = solve(&p, goal).expect("77 = 7 * 11");
        let xv = model.get("x") & 0xffff;
        let yv = model.get("y") & 0xffff;
        assert_eq!(xv.wrapping_mul(yv) & 0xffff, 77);
        assert!(xv > 1 && yv > 1);
    }

    #[test]
    fn division_respects_bpf_zero_semantics() {
        let mut p = TermPool::new();
        let x = p.var("x", 8);
        let zero = p.constant(0, 8);
        let q = p.udiv(x, zero);
        let r = p.urem(x, zero);
        // q must be 0 and r must be x for every x; assert the negation is unsat.
        let q_ok = p.eq(q, zero);
        let r_ok = p.eq(r, x);
        let ok = p.and(q_ok, r_ok);
        let bad = p.not(ok);
        assert!(solve(&p, bad).is_none());
    }

    #[test]
    fn shifts_agree_with_eval_on_solver_models() {
        let mut p = TermPool::new();
        let x = p.var("x", 32);
        let s = p.var("s", 32);
        let shl = p.shl(x, s);
        let target = p.constant(0xf0, 32);
        let goal_a = p.eq(shl, target);
        let four = p.constant(4, 32);
        let s_is_4 = p.eq(s, four);
        let goal = p.and(goal_a, s_is_4);
        let model = solve(&p, goal).expect("satisfiable");
        assert_eq!(eval(&p, &model, shl), 0xf0);
        assert_eq!(model.get("s"), 4);
        assert_eq!((model.get("x") << 4) & 0xffff_ffff, 0xf0);
    }

    #[test]
    fn signed_comparison_blasting() {
        let mut p = TermPool::new();
        let x = p.var("x", 8);
        let zero = p.constant(0, 8);
        let neg = p.slt(x, zero);
        let minus_ten = p.constant(0xf6, 8); // -10
        let is_minus_ten = p.eq(x, minus_ten);
        let goal = p.and(neg, is_minus_ten);
        let model = solve(&p, goal).expect("x = -10 is negative");
        assert_eq!(model.get("x") & 0xff, 0xf6);

        let pos_goal = {
            let ten = p.constant(10, 8);
            let is_ten = p.eq(x, ten);
            p.and(neg, is_ten)
        };
        assert!(solve(&p, pos_goal).is_none());
    }

    #[test]
    fn ult_versus_slt_disagree_on_sign_bit() {
        let mut p = TermPool::new();
        let x = p.var("x", 8);
        let c1 = p.constant(1, 8);
        let u = p.ult(x, c1); // x == 0 unsigned-wise
        let s = p.slt(x, c1); // any negative x or 0

        // Find x where signed-lt holds but unsigned-lt does not (e.g. 0x80).
        let nu = p.not(u);
        let goal = p.and(s, nu);
        let model = solve(&p, goal).expect("negative values exist");
        let xv = model.get("x") & 0xff;
        assert!(xv >= 0x80, "x = {xv:#x} should have the sign bit set");
    }

    #[test]
    fn ite_and_extract_blasting() {
        let mut p = TermPool::new();
        let x = p.var("x", 16);
        let c5 = p.constant(5, 16);
        let cond = p.ult(x, c5);
        let a = p.constant(0xAB, 16);
        let b = p.constant(0xCD, 16);
        let sel = p.ite(cond, a, b);
        let lo = p.extract(sel, 7, 0);
        let cd = p.constant(0xCD, 8);
        let goal_pick_b = p.eq(lo, cd);
        let model = solve(&p, goal_pick_b).expect("x >= 5 picks 0xCD");
        assert!(model.get("x") & 0xffff >= 5);
    }
}
