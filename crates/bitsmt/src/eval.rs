//! Concrete evaluation of terms under a variable assignment.
//!
//! Used to validate solver models, to turn counterexamples into executable
//! test cases, and — heavily — by the property tests that compare the
//! bit-blasted semantics against this reference semantics.

use crate::term::{sign_extend, Op, TermId, TermPool};
use std::collections::HashMap;

/// A mapping from variable names to concrete (64-bit, low-`width`-bits
/// significant) values.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Assignment {
    values: HashMap<String, u64>,
}

impl Assignment {
    /// Empty assignment (all variables default to 0).
    pub fn new() -> Assignment {
        Assignment::default()
    }

    /// Set a variable.
    pub fn set(&mut self, name: impl Into<String>, value: u64) -> &mut Self {
        self.values.insert(name.into(), value);
        self
    }

    /// Get a variable (0 when unset).
    pub fn get(&self, name: &str) -> u64 {
        self.values.get(name).copied().unwrap_or(0)
    }

    /// Iterate over explicit entries.
    pub fn iter(&self) -> impl Iterator<Item = (&String, &u64)> {
        self.values.iter()
    }
}

fn mask(width: u32) -> u64 {
    if width >= 64 {
        u64::MAX
    } else {
        (1u64 << width) - 1
    }
}

/// Evaluate a term under an assignment. The result is masked to the term's
/// width.
pub fn eval(pool: &TermPool, assignment: &Assignment, root: TermId) -> u64 {
    Evaluator::new(pool, assignment).eval(root)
}

/// Evaluates terms of one pool under one assignment, computing each term at
/// most once across calls: the many reads of one model share most of their
/// subterms.
#[derive(Debug)]
pub struct Evaluator<'a> {
    pool: &'a TermPool,
    assignment: &'a Assignment,
    memo: HashMap<TermId, u64>,
}

impl<'a> Evaluator<'a> {
    /// An evaluator with nothing computed yet.
    pub fn new(pool: &'a TermPool, assignment: &'a Assignment) -> Evaluator<'a> {
        Evaluator {
            pool,
            assignment,
            memo: HashMap::new(),
        }
    }

    /// Evaluate a term. The result is masked to the term's width.
    pub fn eval(&mut self, root: TermId) -> u64 {
        eval_into(self.pool, self.assignment, &mut self.memo, root)
    }
}

/// Evaluate `root`, reusing and extending `memo` (values of already
/// evaluated terms, masked to their widths).
fn eval_into(
    pool: &TermPool,
    assignment: &Assignment,
    memo: &mut HashMap<TermId, u64>,
    root: TermId,
) -> u64 {
    // Memoized post-order evaluation (iterative to survive deep terms).
    let mut stack: Vec<(TermId, bool)> = vec![(root, false)];
    while let Some((id, ready)) = stack.pop() {
        if memo.contains_key(&id) {
            continue;
        }
        let node = pool.node(id);
        let kids = crate::term::children(&node.op);
        if !ready {
            stack.push((id, true));
            for k in &kids {
                if !memo.contains_key(k) {
                    stack.push((*k, false));
                }
            }
            continue;
        }
        let get = |t: &TermId| -> u64 { memo[t] };
        let w = node.width;
        let value = match &node.op {
            Op::Const(c) => *c,
            Op::Var(name) => assignment.get(name),
            Op::Not(a) => !get(a),
            Op::And(a, b) => get(a) & get(b),
            Op::Or(a, b) => get(a) | get(b),
            Op::Xor(a, b) => get(a) ^ get(b),
            Op::Add(a, b) => get(a).wrapping_add(get(b)),
            Op::Sub(a, b) => get(a).wrapping_sub(get(b)),
            Op::Mul(a, b) => get(a).wrapping_mul(get(b)),
            Op::UDiv(a, b) => {
                let d = get(b) & mask(pool.width(*b));
                (get(a) & mask(pool.width(*a))).checked_div(d).unwrap_or(0)
            }
            Op::URem(a, b) => {
                // Rem-by-zero yields the dividend (BPF convention), masked to
                // the term width like every other arm: memoized operands are
                // already width-masked, but the mask here keeps the arm
                // correct even if the memoization invariant ever changes.
                let d = get(b) & mask(pool.width(*b));
                let x = get(a) & mask(pool.width(*a));
                x.checked_rem(d).unwrap_or(x)
            }
            Op::Shl(a, b) => {
                let sh = (get(b) & mask(pool.width(*b))) % w as u64;
                get(a).wrapping_shl(sh as u32)
            }
            Op::Lshr(a, b) => {
                let sh = (get(b) & mask(pool.width(*b))) % w as u64;
                (get(a) & mask(w)).wrapping_shr(sh as u32)
            }
            Op::Ashr(a, b) => {
                let sh = (get(b) & mask(pool.width(*b))) % w as u64;
                (sign_extend(get(a) & mask(w), w) >> sh) as u64
            }
            Op::Eq(a, b) => {
                let wa = pool.width(*a);
                u64::from((get(a) & mask(wa)) == (get(b) & mask(wa)))
            }
            Op::Ult(a, b) => {
                let wa = pool.width(*a);
                u64::from((get(a) & mask(wa)) < (get(b) & mask(wa)))
            }
            Op::Slt(a, b) => {
                let wa = pool.width(*a);
                u64::from(sign_extend(get(a) & mask(wa), wa) < sign_extend(get(b) & mask(wa), wa))
            }
            Op::Concat(a, b) => {
                let wb = pool.width(*b);
                ((get(a) & mask(pool.width(*a))) << wb) | (get(b) & mask(wb))
            }
            Op::Extract { hi, lo, arg } => (get(arg) >> lo) & mask(hi - lo + 1),
            Op::Ite(c, t, e) => {
                if get(c) & 1 == 1 {
                    get(t)
                } else {
                    get(e)
                }
            }
        };
        memo.insert(id, value & mask(w));
    }
    memo[&root]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eval_arithmetic() {
        let mut p = TermPool::new();
        let x = p.var("x", 64);
        let y = p.var("y", 64);
        let sum = p.add(x, y);
        let prod = p.mul(sum, x);
        let mut a = Assignment::new();
        a.set("x", 3).set("y", 4);
        assert_eq!(eval(&p, &a, sum), 7);
        assert_eq!(eval(&p, &a, prod), 21);
    }

    #[test]
    fn eval_masks_to_width() {
        let mut p = TermPool::new();
        let x = p.var("x", 8);
        let one = p.constant(1, 8);
        let sum = p.add(x, one);
        let mut a = Assignment::new();
        a.set("x", 255);
        assert_eq!(eval(&p, &a, sum), 0);
    }

    #[test]
    fn eval_signed_comparison_and_shift() {
        let mut p = TermPool::new();
        let x = p.var("x", 32);
        let zero = p.constant(0, 32);
        let lt = p.slt(x, zero);
        let sh = p.constant(4, 32);
        let ashr = p.ashr(x, sh);
        let mut a = Assignment::new();
        a.set("x", 0xffff_ff00);
        assert_eq!(eval(&p, &a, lt), 1);
        assert_eq!(eval(&p, &a, ashr), 0xffff_fff0);
    }

    #[test]
    fn eval_ite_and_extract() {
        let mut p = TermPool::new();
        let x = p.var("x", 16);
        let c5 = p.constant(5, 16);
        let cond = p.eq(x, c5);
        let a16 = p.constant(0xAAAA, 16);
        let b16 = p.constant(0xBBBB, 16);
        let ite = p.ite(cond, a16, b16);
        let byte = p.extract(ite, 7, 0);
        let mut a = Assignment::new();
        a.set("x", 5);
        assert_eq!(eval(&p, &a, byte), 0xAA);
        a.set("x", 6);
        assert_eq!(eval(&p, &a, byte), 0xBB);
    }

    #[test]
    fn eval_div_rem_zero() {
        let mut p = TermPool::new();
        let x = p.var("x", 64);
        let y = p.var("y", 64);
        let d = p.udiv(x, y);
        let r = p.urem(x, y);
        let mut a = Assignment::new();
        a.set("x", 42).set("y", 0);
        assert_eq!(eval(&p, &a, d), 0);
        assert_eq!(eval(&p, &a, r), 42);
    }

    #[test]
    fn eval_rem_by_zero_is_masked_at_sub_64_widths() {
        // Regression: the rem-by-zero arm must return the *masked* dividend.
        // An assignment may set a variable to a value wider than its term
        // (callers are not obliged to pre-mask), and the result must still
        // stay inside the term width — at 8 and 32 bits here.
        for (width, raw, want) in [
            (8u32, 0x1ff_u64, 0xff_u64),
            (8, 0xabcd, 0xcd),
            (32, 0x1_2345_6789, 0x2345_6789),
            (32, u64::MAX, 0xffff_ffff),
        ] {
            let mut p = TermPool::new();
            let x = p.var("x", width);
            let zero = p.constant(0, width);
            let r = p.urem(x, zero);
            let mut a = Assignment::new();
            a.set("x", raw);
            assert_eq!(eval(&p, &a, r), want, "width {width}, raw {raw:#x}");
            // And with a variable divisor pinned to zero via the assignment.
            let y = p.var("y", width);
            let r2 = p.urem(x, y);
            a.set("y", 0);
            assert_eq!(eval(&p, &a, r2), want, "width {width} (var divisor)");
        }
    }

    #[test]
    fn eval_shifts_reduce_amount_modulo_width() {
        // Shift amounts >= width reduce modulo the term width — the same
        // semantics the bit-blasted barrel shifter implements (and, at the
        // BPF widths 32/64, what the interpreter's `& 31` / `& 63` does).
        let mut p = TermPool::new();
        let x = p.var("x", 8);
        let s = p.var("s", 8);
        let shl = p.shl(x, s);
        let lshr = p.lshr(x, s);
        let ashr = p.ashr(x, s);
        let mut a = Assignment::new();
        a.set("x", 0x81).set("s", 9); // 9 % 8 == 1
        assert_eq!(eval(&p, &a, shl), 0x02);
        assert_eq!(eval(&p, &a, lshr), 0x40);
        assert_eq!(eval(&p, &a, ashr), 0xc0);
        a.set("s", 8); // 8 % 8 == 0: identity
        assert_eq!(eval(&p, &a, shl), 0x81);
        assert_eq!(eval(&p, &a, lshr), 0x81);
        assert_eq!(eval(&p, &a, ashr), 0x81);
    }

    #[test]
    fn one_evaluator_agrees_with_fresh_evaluations_across_roots() {
        let mut p = TermPool::new();
        let x = p.var("x", 32);
        let y = p.var("y", 32);
        let sum = p.add(x, y);
        let prod = p.mul(sum, x);
        let lt = p.ult(prod, sum);
        let pick = p.ite(lt, prod, sum);
        let byte = p.extract(pick, 7, 0);
        let mut a = Assignment::new();
        a.set("x", 0x1234_5678).set("y", 0x9abc_def0);
        let mut shared = Evaluator::new(&p, &a);
        // Outer terms first, then their subterms, then again: every answer
        // must match an evaluation from scratch.
        for t in [byte, pick, lt, prod, sum, x, y, byte, prod] {
            assert_eq!(shared.eval(t), eval(&p, &a, t), "{t:?}");
        }
    }

    #[test]
    fn unset_variables_default_to_zero() {
        let mut p = TermPool::new();
        let x = p.var("x", 64);
        let c = p.constant(7, 64);
        let sum = p.add(x, c);
        assert_eq!(eval(&p, &Assignment::new(), sum), 7);
    }
}
