//! Property tests for the bit-vector solver.
//!
//! The key invariant: for randomly generated terms and random concrete
//! inputs, the bit-blasted CNF semantics must agree with the reference
//! evaluator. We check it by asserting `term == eval(term)` is satisfiable
//! and `term != eval(term)` (under the same variable pinning) is not.
//!
//! That check evaluates the term the pool already simplified, so a wrong
//! rewrite in a smart constructor passes it; `folds_agree_with_the_reference`
//! compares against a plain-`u64` evaluator over the unsimplified AST.

use bitsmt::{eval::eval, Assignment, CheckResult, Solver, TermId, TermPool};
use proptest::prelude::*;

/// A small expression AST we can generate without worrying about TermPool
/// borrows inside proptest strategies.
#[derive(Debug, Clone)]
enum Expr {
    Var(u8),
    Const(u64),
    Add(Box<Expr>, Box<Expr>),
    Sub(Box<Expr>, Box<Expr>),
    Mul(Box<Expr>, Box<Expr>),
    And(Box<Expr>, Box<Expr>),
    Or(Box<Expr>, Box<Expr>),
    Xor(Box<Expr>, Box<Expr>),
    Shl(Box<Expr>, u8),
    Lshr(Box<Expr>, u8),
    Ashr(Box<Expr>, u8),
    UDiv(Box<Expr>, Box<Expr>),
    URem(Box<Expr>, Box<Expr>),
    IteUlt(Box<Expr>, Box<Expr>, Box<Expr>, Box<Expr>),
    /// `zero_extend(extract(a, hi, lo))`, with `lo <= hi < WIDTH`.
    Extract(Box<Expr>, u32, u32),
    /// `concat(a[WIDTH-1-k:0], b[k-1:0])`, with `0 < k < WIDTH`.
    Concat(Box<Expr>, Box<Expr>, u32),
    /// `extract(zero_extend(a, 2 * WIDTH), lo + WIDTH - 1, lo)`, with
    /// `lo <= WIDTH`: a slice of `a`, of its zero high bits, or of both.
    ZeroExtend(Box<Expr>, u32),
    /// `and(a, 2^k - 1)`, with `0 < k < WIDTH`; the flag puts the mask
    /// on the left.
    AndMask(Box<Expr>, u32, bool),
}

fn arb_expr(depth: u32) -> BoxedStrategy<Expr> {
    let leaf = prop_oneof![
        (0u8..3).prop_map(Expr::Var),
        any::<u64>().prop_map(Expr::Const),
    ];
    leaf.prop_recursive(depth, 24, 3, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::Add(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::Sub(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::Mul(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::And(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::Or(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::Xor(Box::new(a), Box::new(b))),
            (inner.clone(), 0u8..64).prop_map(|(a, s)| Expr::Shl(Box::new(a), s)),
            (inner.clone(), 0u8..64).prop_map(|(a, s)| Expr::Lshr(Box::new(a), s)),
            (inner.clone(), 0u8..64).prop_map(|(a, s)| Expr::Ashr(Box::new(a), s)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::UDiv(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::URem(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone(), inner.clone(), inner.clone()).prop_map(
                |(a, b, c, d)| Expr::IteUlt(Box::new(a), Box::new(b), Box::new(c), Box::new(d))
            ),
            slice_node(inner),
        ]
    })
    .boxed()
}

/// One of the nodes the pool's slice and mask rewrites apply to.
fn slice_node(inner: BoxedStrategy<Expr>) -> BoxedStrategy<Expr> {
    prop_oneof![
        (inner.clone(), 0..WIDTH, 0..WIDTH).prop_map(|(a, x, y)| Expr::Extract(
            Box::new(a),
            x.max(y),
            x.min(y)
        )),
        (inner.clone(), inner.clone(), 1..WIDTH).prop_map(|(a, b, k)| Expr::Concat(
            Box::new(a),
            Box::new(b),
            k
        )),
        (inner.clone(), 0..=WIDTH).prop_map(|(a, lo)| Expr::ZeroExtend(Box::new(a), lo)),
        (inner, 1..WIDTH, any::<bool>()).prop_map(|(a, k, left)| Expr::AndMask(
            Box::new(a),
            k,
            left
        )),
    ]
    .boxed()
}

/// Expressions rooted in one or two slice nodes, so that every case
/// exercises a rewrite.
fn arb_slice_expr() -> BoxedStrategy<Expr> {
    let inner = arb_expr(2);
    let once = slice_node(inner.clone());
    slice_node(prop_oneof![inner, once].boxed())
}

const WIDTH: u32 = 16; // keep CNF small so the suite runs fast

fn build(pool: &mut TermPool, e: &Expr) -> TermId {
    match e {
        Expr::Var(i) => pool.var(format!("v{i}"), WIDTH),
        Expr::Const(c) => pool.constant(*c, WIDTH),
        Expr::Add(a, b) => {
            let (x, y) = (build(pool, a), build(pool, b));
            pool.add(x, y)
        }
        Expr::Sub(a, b) => {
            let (x, y) = (build(pool, a), build(pool, b));
            pool.sub(x, y)
        }
        Expr::Mul(a, b) => {
            let (x, y) = (build(pool, a), build(pool, b));
            pool.mul(x, y)
        }
        Expr::And(a, b) => {
            let (x, y) = (build(pool, a), build(pool, b));
            pool.and(x, y)
        }
        Expr::Or(a, b) => {
            let (x, y) = (build(pool, a), build(pool, b));
            pool.or(x, y)
        }
        Expr::Xor(a, b) => {
            let (x, y) = (build(pool, a), build(pool, b));
            pool.xor(x, y)
        }
        Expr::Shl(a, s) => {
            let x = build(pool, a);
            let sh = pool.constant(*s as u64, WIDTH);
            pool.shl(x, sh)
        }
        Expr::Lshr(a, s) => {
            let x = build(pool, a);
            let sh = pool.constant(*s as u64, WIDTH);
            pool.lshr(x, sh)
        }
        Expr::Ashr(a, s) => {
            let x = build(pool, a);
            let sh = pool.constant(*s as u64, WIDTH);
            pool.ashr(x, sh)
        }
        Expr::UDiv(a, b) => {
            let (x, y) = (build(pool, a), build(pool, b));
            pool.udiv(x, y)
        }
        Expr::URem(a, b) => {
            let (x, y) = (build(pool, a), build(pool, b));
            pool.urem(x, y)
        }
        Expr::IteUlt(a, b, c, d) => {
            let (x, y) = (build(pool, a), build(pool, b));
            let cond = pool.ult(x, y);
            let (t, e) = (build(pool, c), build(pool, d));
            pool.ite(cond, t, e)
        }
        Expr::Extract(a, hi, lo) => {
            let x = build(pool, a);
            let slice = pool.extract(x, *hi, *lo);
            pool.zero_extend(slice, WIDTH)
        }
        Expr::Concat(a, b, k) => {
            let (x, y) = (build(pool, a), build(pool, b));
            let high = pool.extract(x, WIDTH - 1 - k, 0);
            let low = pool.extract(y, k - 1, 0);
            pool.concat(high, low)
        }
        Expr::ZeroExtend(a, lo) => {
            let x = build(pool, a);
            let wide = pool.zero_extend(x, 2 * WIDTH);
            pool.extract(wide, lo + WIDTH - 1, *lo)
        }
        Expr::AndMask(a, k, left) => {
            let x = build(pool, a);
            let m = pool.constant(low_bits(*k), WIDTH);
            if *left {
                pool.and(m, x)
            } else {
                pool.and(x, m)
            }
        }
    }
}

fn low_bits(k: u32) -> u64 {
    (1u64 << k) - 1
}

/// The value of `e` at `WIDTH` bits, computed on plain `u64`s straight from
/// the AST, with no term pool and so none of its rewrites.
fn reference(e: &Expr, vars: &[u64; 3]) -> u64 {
    let m = low_bits(WIDTH);
    let r = |e: &Expr| reference(e, vars);
    let v = match e {
        Expr::Var(i) => vars[*i as usize],
        Expr::Const(c) => *c,
        Expr::Add(a, b) => r(a).wrapping_add(r(b)),
        Expr::Sub(a, b) => r(a).wrapping_sub(r(b)),
        Expr::Mul(a, b) => r(a).wrapping_mul(r(b)),
        Expr::And(a, b) => r(a) & r(b),
        Expr::Or(a, b) => r(a) | r(b),
        Expr::Xor(a, b) => r(a) ^ r(b),
        Expr::Shl(a, s) => r(a) << (u32::from(*s) % WIDTH),
        Expr::Lshr(a, s) => r(a) >> (u32::from(*s) % WIDTH),
        Expr::Ashr(a, s) => {
            let signed = (r(a) << (64 - WIDTH)) as i64 >> (64 - WIDTH);
            (signed >> (u32::from(*s) % WIDTH)) as u64
        }
        Expr::UDiv(a, b) => r(a).checked_div(r(b)).unwrap_or(0),
        Expr::URem(a, b) => {
            let x = r(a);
            x.checked_rem(r(b)).unwrap_or(x)
        }
        Expr::IteUlt(a, b, c, d) => {
            if r(a) < r(b) {
                r(c)
            } else {
                r(d)
            }
        }
        Expr::Extract(a, hi, lo) => (r(a) >> lo) & low_bits(hi - lo + 1),
        Expr::Concat(a, b, k) => (r(a) << k) | (r(b) & low_bits(*k)),
        Expr::ZeroExtend(a, lo) => r(a) >> lo,
        Expr::AndMask(a, k, _) => r(a) & low_bits(*k),
    };
    v & m
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The pool's rewrites preserve meaning: evaluating the built (and
    /// already folded) term gives what the AST means before any folding.
    #[test]
    fn folds_agree_with_the_reference(e in arb_slice_expr(), v0 in any::<u64>(), v1 in any::<u64>(), v2 in any::<u64>()) {
        let vars = [v0 & 0xffff, v1 & 0xffff, v2 & 0xffff];
        let mut pool = TermPool::new();
        let term = build(&mut pool, &e);
        let mut assignment = Assignment::new();
        assignment.set("v0", vars[0]).set("v1", vars[1]).set("v2", vars[2]);
        prop_assert_eq!(pool.width(term), WIDTH);
        prop_assert_eq!(eval(&pool, &assignment, term), reference(&e, &vars), "{:?}", e);
    }

    /// The solver agrees with the evaluator: pin the variables to concrete
    /// values, compute the expected result with the evaluator, and check that
    /// the solver (i) accepts `expr == expected` and (ii) rejects
    /// `expr != expected`.
    #[test]
    fn bitblast_agrees_with_eval(e in arb_expr(3), v0 in any::<u64>(), v1 in any::<u64>(), v2 in any::<u64>()) {
        let mut pool = TermPool::new();
        let term = build(&mut pool, &e);

        let mut assignment = Assignment::new();
        assignment.set("v0", v0 & 0xffff).set("v1", v1 & 0xffff).set("v2", v2 & 0xffff);
        let expected = eval(&pool, &assignment, term);

        // Pin the variables to the chosen values.
        let pins: Vec<TermId> = (0..3)
            .map(|i| {
                let var = pool.var(format!("v{i}"), WIDTH);
                let val = pool.constant(assignment.get(&format!("v{i}")), WIDTH);
                pool.eq(var, val)
            })
            .collect();

        let expected_c = pool.constant(expected, WIDTH);
        let matches = pool.eq(term, expected_c);
        let differs = pool.ne(term, expected_c);

        // (i) expr == eval(expr) is satisfiable under the pinning.
        {
            let mut solver = Solver::new(&mut pool);
            for &p in &pins { solver.assert(p); }
            solver.assert(matches);
            prop_assert!(solver.check().is_sat(), "solver disagrees with evaluator (should be SAT)");
        }
        // (ii) expr != eval(expr) is unsatisfiable under the pinning.
        {
            let mut solver = Solver::new(&mut pool);
            for &p in &pins { solver.assert(p); }
            solver.assert(differs);
            prop_assert_eq!(solver.check(), CheckResult::Unsat, "solver disagrees with evaluator (should be UNSAT)");
        }
    }

    /// Commutativity of addition and multiplication as a solved identity.
    #[test]
    fn add_and_mul_commute(seed in any::<u64>()) {
        let mut pool = TermPool::new();
        let x = pool.var("x", WIDTH);
        let y = pool.var("y", WIDTH);
        let _ = seed;
        let xy = pool.add(x, y);
        let yx = pool.add(y, x);
        let mxy = pool.mul(x, y);
        let myx = pool.mul(y, x);
        let d1 = pool.ne(xy, yx);
        let d2 = pool.ne(mxy, myx);
        let differ = pool.or(d1, d2);
        let mut solver = Solver::new(&mut pool);
        solver.assert(differ);
        prop_assert_eq!(solver.check(), CheckResult::Unsat);
    }

    /// Variable-amount shifts: the evaluator and the bit-blasted barrel
    /// shifter must agree for every width (including non-powers-of-two,
    /// where the blaster uses a remainder circuit) and for shift amounts
    /// `>= width`, which both sides reduce modulo the width.
    ///
    /// The `bitblast_agrees_with_eval` sweep above only feeds *constant*
    /// shift amounts, which the term pool folds away before blasting — this
    /// test is what actually exercises (and locks in) the `shift(...)`
    /// circuit against `eval`'s `% width` semantics.
    #[test]
    fn variable_shifts_agree_with_eval(
        width in 1u32..=64,
        kind in 0u8..3,
        a in any::<u64>(),
        s in any::<u64>(),
    ) {
        let mut pool = TermPool::new();
        let x = pool.var("x", width);
        let y = pool.var("y", width);
        let term = match kind {
            0 => pool.shl(x, y),
            1 => pool.lshr(x, y),
            _ => pool.ashr(x, y),
        };
        let mut assignment = Assignment::new();
        assignment.set("x", a).set("y", s);
        let expected = eval(&pool, &assignment, term);

        let mask = if width >= 64 { u64::MAX } else { (1u64 << width) - 1 };
        let xc = pool.constant(a & mask, width);
        let yc = pool.constant(s & mask, width);
        let px = pool.eq(x, xc);
        let py = pool.eq(y, yc);
        let expected_c = pool.constant(expected, width);
        let matches = pool.eq(term, expected_c);
        let differs = pool.ne(term, expected_c);
        {
            let mut solver = Solver::new(&mut pool);
            solver.assert(px);
            solver.assert(py);
            solver.assert(matches);
            prop_assert!(solver.check().is_sat(),
                "w={width} kind={kind}: blaster rejects eval's result {expected:#x}");
        }
        {
            let mut solver = Solver::new(&mut pool);
            solver.assert(px);
            solver.assert(py);
            solver.assert(differs);
            prop_assert_eq!(solver.check(), CheckResult::Unsat,
                "w={width} kind={kind}: blaster admits a result other than eval's {expected:#x}");
        }
    }

    /// Models returned for satisfiable random constraints actually satisfy
    /// them (checked with the evaluator).
    #[test]
    fn models_evaluate_true(e in arb_expr(2), target in any::<u64>()) {
        let mut pool = TermPool::new();
        let term = build(&mut pool, &e);
        let c = pool.constant(target & 0xffff, WIDTH);
        let goal = pool.eq(term, c);
        let mut solver = Solver::new(&mut pool);
        solver.assert(goal);
        if let CheckResult::Sat(model) = solver.check() {
            let assignment = model.to_assignment();
            prop_assert_eq!(eval(&pool, &assignment, goal), 1, "model does not satisfy the goal");
        }
        // UNSAT is fine too (the target may be unreachable for this expression).
    }
}
