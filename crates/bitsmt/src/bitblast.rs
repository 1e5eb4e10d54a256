//! Bit-blasting: lowering bit-vector terms to CNF via Tseitin encoding.
//!
//! Every term is translated to a vector of [`Bit`]s (LSB first). Constant
//! bits stay symbolic-free; only genuinely unknown bits allocate CNF
//! variables, which keeps the formulas small after the term-level
//! simplifications have run.

use crate::cnf::{CnfBuilder, Lit};
use crate::term::{Op, TermId, TermPool};
use std::collections::HashMap;

/// One bit of a blasted term: either a known constant or a CNF literal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Bit {
    /// A known constant bit.
    Const(bool),
    /// A CNF literal.
    Lit(Lit),
}

/// The bit-blaster: owns the CNF being built and the memoized translations.
#[derive(Debug, Default)]
pub struct BitBlaster {
    /// The CNF formula being produced.
    pub cnf: CnfBuilder,
    /// The bits of each blasted term, indexed by [`TermId`]; empty until
    /// the term is blasted (every term is at least one bit wide).
    memo: Vec<Vec<Bit>>,
    /// CNF variables backing each named bit-vector variable (LSB first).
    pub var_bits: HashMap<String, Vec<Lit>>,
}

/// A copy of a blasted term's bits on the stack (terms are at most 64 bits
/// wide), so operands can be read while gates are added.
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

impl BitBlaster {
    /// Create an empty blaster.
    pub fn new() -> BitBlaster {
        BitBlaster::default()
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
        !self.memo[id.index()].is_empty()
    }

    /// Translate a term into its bits.
    pub fn blast(&mut self, pool: &TermPool, term: TermId) -> &[Bit] {
        if self.memo.len() < pool.len() {
            self.memo.resize_with(pool.len(), Vec::new);
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
                let bits = self.blast_node(pool, id);
                debug_assert_eq!(bits.len() as u32, pool.width(id));
                self.memo[id.index()] = bits;
            }
        }
        &self.memo[term.index()]
    }

    /// The bits of an already blasted term.
    fn get(&self, t: TermId) -> Word {
        let bits = &self.memo[t.index()];
        let mut word = Word {
            bits: [Bit::Const(false); 64],
            len: bits.len(),
        };
        word.bits[..bits.len()].copy_from_slice(bits);
        word
    }

    fn blast_node(&mut self, pool: &TermPool, id: TermId) -> Vec<Bit> {
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
            Op::Add(a, b) => {
                let (sum, _carry) = self.adder(&self.get(a), &self.get(b), Bit::Const(false));
                sum
            }
            Op::Sub(a, b) => self.subtract(&self.get(a), &self.get(b)).0,
            Op::Mul(a, b) => self.multiply(&self.get(a), &self.get(b)),
            Op::UDiv(a, b) => self.divide(&self.get(a), &self.get(b)).0,
            Op::URem(a, b) => self.divide(&self.get(a), &self.get(b)).1,
            Op::Shl(a, b) => self.shift(&self.get(a), &self.get(b), ShiftKind::Left),
            Op::Lshr(a, b) => self.shift(&self.get(a), &self.get(b), ShiftKind::LogicalRight),
            Op::Ashr(a, b) => self.shift(&self.get(a), &self.get(b), ShiftKind::ArithmeticRight),
            Op::Eq(a, b) => {
                let (av, bv) = (self.get(a), self.get(b));
                let mut acc = Bit::Const(true);
                for (&x, &y) in av.iter().zip(bv.iter()) {
                    let x_eq_y = self.bit_xnor(x, y);
                    acc = self.bit_and(acc, x_eq_y);
                }
                vec![acc]
            }
            Op::Ult(a, b) => {
                vec![self.ult(&self.get(a), &self.get(b))]
            }
            Op::Slt(a, b) => {
                let (av, bv) = (self.get(a), self.get(b));
                let sa = *av.last().expect("nonempty");
                let sb = *bv.last().expect("nonempty");
                let unsigned_lt = self.ult(&av, &bv);
                // Different signs: a < b iff a is negative.
                let signs_differ = self.bit_xor(sa, sb);
                vec![self.bit_ite(signs_differ, sa, unsigned_lt)]
            }
            Op::Concat(a, b) => {
                let mut bits = self.get(b).to_vec();
                bits.extend_from_slice(&self.get(a));
                bits
            }
            Op::Extract { hi, lo, arg } => self.get(arg)[lo as usize..=hi as usize].to_vec(),
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
    ) -> Vec<Bit> {
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
                let o = self.cnf.fresh();
                self.cnf.add_clause(&[-x, -y, o]);
                self.cnf.add_clause(&[x, -o]);
                self.cnf.add_clause(&[y, -o]);
                Bit::Lit(o)
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
                let o = self.cnf.fresh();
                self.cnf.add_clause(&[-x, -y, -o]);
                self.cnf.add_clause(&[x, y, -o]);
                self.cnf.add_clause(&[x, -y, o]);
                self.cnf.add_clause(&[-x, y, o]);
                Bit::Lit(o)
            }
        }
    }

    fn bit_xnor(&mut self, a: Bit, b: Bit) -> Bit {
        let x = self.bit_xor(a, b);
        self.bit_not(x)
    }

    fn bit_ite(&mut self, c: Bit, t: Bit, e: Bit) -> Bit {
        match c {
            Bit::Const(true) => t,
            Bit::Const(false) => e,
            Bit::Lit(_) => {
                if t == e {
                    return t;
                }
                let ct = self.bit_and(c, t);
                let nc = self.bit_not(c);
                let ce = self.bit_and(nc, e);
                self.bit_or(ct, ce)
            }
        }
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
