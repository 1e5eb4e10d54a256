//! Hash-consed bit-vector terms with simplifying smart constructors.

use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};

/// Identifier of a term inside a [`TermPool`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TermId(pub(crate) u32);

impl TermId {
    /// Index into the pool's node table.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// The operation at the root of a term. Widths are stored on the node, not in
/// the operation.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Op {
    /// A constant; only the low `width` bits are meaningful.
    Const(u64),
    /// A free variable, identified by name.
    Var(String),
    /// Bitwise negation.
    Not(TermId),
    /// Bitwise and.
    And(TermId, TermId),
    /// Bitwise or.
    Or(TermId, TermId),
    /// Bitwise xor.
    Xor(TermId, TermId),
    /// Two's-complement addition (modulo 2^width).
    Add(TermId, TermId),
    /// Two's-complement subtraction.
    Sub(TermId, TermId),
    /// Multiplication (low `width` bits).
    Mul(TermId, TermId),
    /// Unsigned division; division by zero yields 0 (the BPF convention).
    UDiv(TermId, TermId),
    /// Unsigned remainder; remainder by zero yields the dividend (BPF).
    URem(TermId, TermId),
    /// Logical shift left; the shift amount is taken modulo the width.
    Shl(TermId, TermId),
    /// Logical shift right; the shift amount is taken modulo the width.
    Lshr(TermId, TermId),
    /// Arithmetic shift right; the shift amount is taken modulo the width.
    Ashr(TermId, TermId),
    /// Equality; result is 1 bit.
    Eq(TermId, TermId),
    /// Unsigned less-than; result is 1 bit.
    Ult(TermId, TermId),
    /// Signed less-than; result is 1 bit.
    Slt(TermId, TermId),
    /// Concatenation: the first operand occupies the high bits.
    Concat(TermId, TermId),
    /// Bit extraction `[hi:lo]` (inclusive), zero-based from the LSB.
    Extract {
        /// Highest extracted bit.
        hi: u32,
        /// Lowest extracted bit.
        lo: u32,
        /// Source term.
        arg: TermId,
    },
    /// If-then-else; the condition is 1 bit wide.
    Ite(TermId, TermId, TermId),
}

/// A term node: operation plus result width in bits.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct TermNode {
    /// The operation.
    pub op: Op,
    /// Result width in bits (1..=64).
    pub width: u32,
}

/// The arena of hash-consed terms.
///
/// All term construction goes through the methods on this type; structurally
/// identical terms share a single [`TermId`], and the constructors perform
/// constant folding and a set of local rewrites (identity/zero elements,
/// `x == x`, `ite(true, a, b)`, nested extracts, ...). Two rewrites bring
/// the same bits to one term whichever way they were read: a low-bit mask
/// `and(x, 2^k - 1)` becomes `zero_extend(extract(x, k - 1, 0))`, and a
/// slice of a concatenation that lies within one side becomes a slice of
/// that side. Since loads are concatenations of bytes, a masked wide load
/// and a narrow load of the same bytes share a [`TermId`].
#[derive(Debug, Default, Clone)]
pub struct TermPool {
    nodes: Vec<TermNode>,
    dedup: HashMap<TermNode, TermId, BuildHasherDefault<FxHasher>>,
}

/// The Fx hash (rustc's): one rotate, xor and multiply per word. The
/// hash-consing table and the bit-blaster's gate table are never iterated,
/// and their keys are the terms and gates of one encoding of a size-limited
/// program pair, so they need neither SipHash's flooding resistance nor a
/// random seed.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct FxHasher {
    hash: u64,
}

impl FxHasher {
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }
}

impl Hasher for FxHasher {
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.add(u64::from_le_bytes(chunk.try_into().expect("8 bytes")));
        }
        for &byte in chunks.remainder() {
            self.add(u64::from(byte));
        }
    }

    fn write_u8(&mut self, i: u8) {
        self.add(u64::from(i));
    }

    fn write_u32(&mut self, i: u32) {
        self.add(u64::from(i));
    }

    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    fn finish(&self) -> u64 {
        self.hash
    }
}

fn mask(width: u32) -> u64 {
    if width >= 64 {
        u64::MAX
    } else {
        (1u64 << width) - 1
    }
}

impl TermPool {
    /// Create an empty pool.
    pub fn new() -> TermPool {
        TermPool::default()
    }

    /// Number of distinct terms created so far.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the pool is empty.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The node backing a term id.
    pub fn node(&self, id: TermId) -> &TermNode {
        &self.nodes[id.index()]
    }

    /// The width of a term in bits.
    pub fn width(&self, id: TermId) -> u32 {
        self.nodes[id.index()].width
    }

    /// The constant value of a term, if it is a constant.
    pub fn as_const(&self, id: TermId) -> Option<u64> {
        match self.node(id).op {
            Op::Const(c) => Some(c),
            _ => None,
        }
    }

    fn intern(&mut self, node: TermNode) -> TermId {
        if let Some(&id) = self.dedup.get(&node) {
            return id;
        }
        let id = TermId(self.nodes.len() as u32);
        self.nodes.push(node.clone());
        self.dedup.insert(node, id);
        id
    }

    // ----- leaves -----------------------------------------------------------

    /// A constant of the given width.
    pub fn constant(&mut self, value: u64, width: u32) -> TermId {
        assert!((1..=64).contains(&width), "width must be 1..=64");
        self.intern(TermNode {
            op: Op::Const(value & mask(width)),
            width,
        })
    }

    /// A fresh or existing named variable of the given width.
    pub fn var(&mut self, name: impl Into<String>, width: u32) -> TermId {
        assert!((1..=64).contains(&width), "width must be 1..=64");
        self.intern(TermNode {
            op: Op::Var(name.into()),
            width,
        })
    }

    /// The 1-bit constant true.
    pub fn tt(&mut self) -> TermId {
        self.constant(1, 1)
    }

    /// The 1-bit constant false.
    pub fn ff(&mut self) -> TermId {
        self.constant(0, 1)
    }

    // ----- bitwise ----------------------------------------------------------

    /// Bitwise not.
    pub fn not(&mut self, a: TermId) -> TermId {
        let w = self.width(a);
        if let Some(c) = self.as_const(a) {
            return self.constant(!c, w);
        }
        // not(not(x)) == x
        if let Op::Not(inner) = self.node(a).op {
            return inner;
        }
        self.intern(TermNode {
            op: Op::Not(a),
            width: w,
        })
    }

    /// Bitwise and.
    pub fn and(&mut self, a: TermId, b: TermId) -> TermId {
        let w = self.check_same_width(a, b);
        match (self.as_const(a), self.as_const(b)) {
            (Some(x), Some(y)) => return self.constant(x & y, w),
            (Some(0), _) | (_, Some(0)) => return self.constant(0, w),
            (Some(m), _) if m == mask(w) => return b,
            (_, Some(m)) if m == mask(w) => return a,
            // A low-bit mask keeps the low k bits: and(x, 2^k - 1) is
            // zero_extend(x[k-1:0]), so it meets narrower reads of x.
            (Some(m), None) | (None, Some(m)) if (m + 1).is_power_of_two() => {
                let x = if self.as_const(a).is_some() { b } else { a };
                let low = self.extract(x, m.trailing_ones() - 1, 0);
                return self.zero_extend(low, w);
            }
            _ => {}
        }
        if a == b {
            return a;
        }
        let (a, b) = if a <= b { (a, b) } else { (b, a) };
        self.intern(TermNode {
            op: Op::And(a, b),
            width: w,
        })
    }

    /// Bitwise or.
    pub fn or(&mut self, a: TermId, b: TermId) -> TermId {
        let w = self.check_same_width(a, b);
        match (self.as_const(a), self.as_const(b)) {
            (Some(x), Some(y)) => return self.constant(x | y, w),
            (Some(0), _) => return b,
            (_, Some(0)) => return a,
            (Some(m), _) | (_, Some(m)) if m == mask(w) => return self.constant(mask(w), w),
            _ => {}
        }
        if a == b {
            return a;
        }
        let (a, b) = if a <= b { (a, b) } else { (b, a) };
        self.intern(TermNode {
            op: Op::Or(a, b),
            width: w,
        })
    }

    /// Bitwise xor.
    pub fn xor(&mut self, a: TermId, b: TermId) -> TermId {
        let w = self.check_same_width(a, b);
        match (self.as_const(a), self.as_const(b)) {
            (Some(x), Some(y)) => return self.constant(x ^ y, w),
            (Some(0), _) => return b,
            (_, Some(0)) => return a,
            _ => {}
        }
        if a == b {
            return self.constant(0, w);
        }
        let (a, b) = if a <= b { (a, b) } else { (b, a) };
        self.intern(TermNode {
            op: Op::Xor(a, b),
            width: w,
        })
    }

    // ----- arithmetic -------------------------------------------------------

    /// Addition modulo 2^width.
    pub fn add(&mut self, a: TermId, b: TermId) -> TermId {
        let w = self.check_same_width(a, b);
        match (self.as_const(a), self.as_const(b)) {
            (Some(x), Some(y)) => return self.constant(x.wrapping_add(y), w),
            (Some(0), _) => return b,
            (_, Some(0)) => return a,
            _ => {}
        }
        let (a, b) = if a <= b { (a, b) } else { (b, a) };
        self.intern(TermNode {
            op: Op::Add(a, b),
            width: w,
        })
    }

    /// Subtraction modulo 2^width.
    pub fn sub(&mut self, a: TermId, b: TermId) -> TermId {
        let w = self.check_same_width(a, b);
        match (self.as_const(a), self.as_const(b)) {
            (Some(x), Some(y)) => return self.constant(x.wrapping_sub(y), w),
            (_, Some(0)) => return a,
            _ => {}
        }
        if a == b {
            return self.constant(0, w);
        }
        self.intern(TermNode {
            op: Op::Sub(a, b),
            width: w,
        })
    }

    /// Multiplication (low bits).
    pub fn mul(&mut self, a: TermId, b: TermId) -> TermId {
        let w = self.check_same_width(a, b);
        match (self.as_const(a), self.as_const(b)) {
            (Some(x), Some(y)) => return self.constant(x.wrapping_mul(y), w),
            (Some(0), _) | (_, Some(0)) => return self.constant(0, w),
            (Some(1), _) => return b,
            (_, Some(1)) => return a,
            _ => {}
        }
        let (a, b) = if a <= b { (a, b) } else { (b, a) };
        self.intern(TermNode {
            op: Op::Mul(a, b),
            width: w,
        })
    }

    /// Unsigned division with the BPF convention `x / 0 == 0`.
    pub fn udiv(&mut self, a: TermId, b: TermId) -> TermId {
        let w = self.check_same_width(a, b);
        if let (Some(x), Some(y)) = (self.as_const(a), self.as_const(b)) {
            return self.constant(x.checked_div(y).unwrap_or(0), w);
        }
        if let Some(1) = self.as_const(b) {
            return a;
        }
        self.intern(TermNode {
            op: Op::UDiv(a, b),
            width: w,
        })
    }

    /// Unsigned remainder with the BPF convention `x % 0 == x`.
    pub fn urem(&mut self, a: TermId, b: TermId) -> TermId {
        let w = self.check_same_width(a, b);
        if let (Some(x), Some(y)) = (self.as_const(a), self.as_const(b)) {
            return self.constant(x.checked_rem(y).unwrap_or(x), w);
        }
        self.intern(TermNode {
            op: Op::URem(a, b),
            width: w,
        })
    }

    /// Two's-complement negation.
    pub fn neg(&mut self, a: TermId) -> TermId {
        let w = self.width(a);
        let zero = self.constant(0, w);
        self.sub(zero, a)
    }

    // ----- shifts -----------------------------------------------------------

    /// Logical shift left (shift amount modulo width, the BPF semantics).
    pub fn shl(&mut self, a: TermId, b: TermId) -> TermId {
        let w = self.check_same_width(a, b);
        if let (Some(x), Some(y)) = (self.as_const(a), self.as_const(b)) {
            return self.constant(x.wrapping_shl((y % w as u64) as u32), w);
        }
        if let Some(0) = self.as_const(b) {
            return a;
        }
        self.intern(TermNode {
            op: Op::Shl(a, b),
            width: w,
        })
    }

    /// Logical shift right.
    pub fn lshr(&mut self, a: TermId, b: TermId) -> TermId {
        let w = self.check_same_width(a, b);
        if let (Some(x), Some(y)) = (self.as_const(a), self.as_const(b)) {
            return self.constant((x & mask(w)).wrapping_shr((y % w as u64) as u32), w);
        }
        if let Some(0) = self.as_const(b) {
            return a;
        }
        self.intern(TermNode {
            op: Op::Lshr(a, b),
            width: w,
        })
    }

    /// Arithmetic shift right.
    pub fn ashr(&mut self, a: TermId, b: TermId) -> TermId {
        let w = self.check_same_width(a, b);
        if let (Some(x), Some(y)) = (self.as_const(a), self.as_const(b)) {
            let sh = (y % w as u64) as u32;
            let sign_extended = if w == 64 {
                ((x as i64) >> sh) as u64
            } else {
                let sign = (x >> (w - 1)) & 1;
                let extended = if sign == 1 { x | !mask(w) } else { x & mask(w) };
                ((extended as i64) >> sh) as u64
            };
            return self.constant(sign_extended, w);
        }
        if let Some(0) = self.as_const(b) {
            return a;
        }
        self.intern(TermNode {
            op: Op::Ashr(a, b),
            width: w,
        })
    }

    // ----- comparisons ------------------------------------------------------

    /// Equality (1-bit result).
    pub fn eq(&mut self, a: TermId, b: TermId) -> TermId {
        self.check_same_width(a, b);
        if a == b {
            return self.tt();
        }
        if let (Some(x), Some(y)) = (self.as_const(a), self.as_const(b)) {
            return self.constant(u64::from(x == y), 1);
        }
        let (a, b) = if a <= b { (a, b) } else { (b, a) };
        self.intern(TermNode {
            op: Op::Eq(a, b),
            width: 1,
        })
    }

    /// Disequality.
    pub fn ne(&mut self, a: TermId, b: TermId) -> TermId {
        let e = self.eq(a, b);
        self.not(e)
    }

    /// Unsigned less-than.
    pub fn ult(&mut self, a: TermId, b: TermId) -> TermId {
        let w = self.check_same_width(a, b);
        if a == b {
            return self.ff();
        }
        if let (Some(x), Some(y)) = (self.as_const(a), self.as_const(b)) {
            return self.constant(u64::from((x & mask(w)) < (y & mask(w))), 1);
        }
        self.intern(TermNode {
            op: Op::Ult(a, b),
            width: 1,
        })
    }

    /// Unsigned greater-than.
    pub fn ugt(&mut self, a: TermId, b: TermId) -> TermId {
        self.ult(b, a)
    }

    /// Unsigned less-or-equal.
    pub fn ule(&mut self, a: TermId, b: TermId) -> TermId {
        let gt = self.ult(b, a);
        self.not(gt)
    }

    /// Unsigned greater-or-equal.
    pub fn uge(&mut self, a: TermId, b: TermId) -> TermId {
        self.ule(b, a)
    }

    /// Signed less-than.
    pub fn slt(&mut self, a: TermId, b: TermId) -> TermId {
        let w = self.check_same_width(a, b);
        if a == b {
            return self.ff();
        }
        if let (Some(x), Some(y)) = (self.as_const(a), self.as_const(b)) {
            let sx = sign_extend(x, w);
            let sy = sign_extend(y, w);
            return self.constant(u64::from(sx < sy), 1);
        }
        self.intern(TermNode {
            op: Op::Slt(a, b),
            width: 1,
        })
    }

    /// Signed greater-than.
    pub fn sgt(&mut self, a: TermId, b: TermId) -> TermId {
        self.slt(b, a)
    }

    /// Signed less-or-equal.
    pub fn sle(&mut self, a: TermId, b: TermId) -> TermId {
        let gt = self.slt(b, a);
        self.not(gt)
    }

    /// Signed greater-or-equal.
    pub fn sge(&mut self, a: TermId, b: TermId) -> TermId {
        self.sle(b, a)
    }

    // ----- structure --------------------------------------------------------

    /// Concatenate: `a` becomes the high bits, `b` the low bits.
    pub fn concat(&mut self, a: TermId, b: TermId) -> TermId {
        let wa = self.width(a);
        let wb = self.width(b);
        assert!(wa + wb <= 64, "concat result exceeds 64 bits");
        if let (Some(x), Some(y)) = (self.as_const(a), self.as_const(b)) {
            return self.constant((x << wb) | (y & mask(wb)), wa + wb);
        }
        self.intern(TermNode {
            op: Op::Concat(a, b),
            width: wa + wb,
        })
    }

    /// Extract bits `hi..=lo` (LSB is bit 0).
    pub fn extract(&mut self, arg: TermId, hi: u32, lo: u32) -> TermId {
        let w = self.width(arg);
        assert!(hi < w && lo <= hi, "extract range out of bounds");
        let out_w = hi - lo + 1;
        if out_w == w {
            return arg;
        }
        if let Some(x) = self.as_const(arg) {
            return self.constant((x >> lo) & mask(out_w), out_w);
        }
        // A slice within one side of a concatenation is a slice of that side.
        if let Op::Concat(high, low) = self.node(arg).op {
            let wl = self.width(low);
            if hi < wl {
                return self.extract(low, hi, lo);
            }
            if lo >= wl {
                return self.extract(high, hi - wl, lo - wl);
            }
        }
        // extract of extract composes.
        if let Op::Extract {
            hi: _ihi,
            lo: ilo,
            arg: inner,
        } = self.node(arg).op
        {
            return self.extract(inner, ilo + hi, ilo + lo);
        }
        self.intern(TermNode {
            op: Op::Extract { hi, lo, arg },
            width: out_w,
        })
    }

    /// Zero-extend to `new_width`.
    pub fn zero_extend(&mut self, arg: TermId, new_width: u32) -> TermId {
        let w = self.width(arg);
        assert!(new_width >= w && new_width <= 64);
        if new_width == w {
            return arg;
        }
        if let Some(x) = self.as_const(arg) {
            return self.constant(x & mask(w), new_width);
        }
        let zeros = self.constant(0, new_width - w);
        self.concat(zeros, arg)
    }

    /// Sign-extend to `new_width`.
    pub fn sign_extend(&mut self, arg: TermId, new_width: u32) -> TermId {
        let w = self.width(arg);
        assert!(new_width >= w && new_width <= 64);
        if new_width == w {
            return arg;
        }
        if let Some(x) = self.as_const(arg) {
            return self.constant(sign_extend(x, w) as u64 & mask(new_width), new_width);
        }
        // Replicate the sign bit.
        let sign = self.extract(arg, w - 1, w - 1);
        let mut high = sign;
        while self.width(high) < new_width - w {
            let remaining = new_width - w - self.width(high);
            let chunk = if remaining >= self.width(high) {
                high
            } else {
                self.extract(high, remaining - 1, 0)
            };
            high = self.concat(high, chunk);
        }
        self.concat(high, arg)
    }

    /// If-then-else. `cond` must be 1 bit wide.
    pub fn ite(&mut self, cond: TermId, then_t: TermId, else_t: TermId) -> TermId {
        assert_eq!(self.width(cond), 1, "ite condition must be 1 bit");
        let w = self.check_same_width(then_t, else_t);
        match self.as_const(cond) {
            Some(1) => return then_t,
            Some(0) => return else_t,
            _ => {}
        }
        if then_t == else_t {
            return then_t;
        }
        self.intern(TermNode {
            op: Op::Ite(cond, then_t, else_t),
            width: w,
        })
    }

    /// Boolean implication over 1-bit terms.
    pub fn implies(&mut self, a: TermId, b: TermId) -> TermId {
        let na = self.not(a);
        self.or(na, b)
    }

    /// Conjunction of many 1-bit terms (true when empty).
    pub fn and_many(&mut self, terms: &[TermId]) -> TermId {
        let mut acc = self.tt();
        for &t in terms {
            acc = self.and(acc, t);
        }
        acc
    }

    /// Disjunction of many 1-bit terms (false when empty).
    pub fn or_many(&mut self, terms: &[TermId]) -> TermId {
        let mut acc = self.ff();
        for &t in terms {
            acc = self.or(acc, t);
        }
        acc
    }

    /// All free variables appearing under a term, with their widths.
    pub fn variables_of(&self, root: TermId) -> Vec<(String, u32)> {
        let mut seen = vec![false; self.nodes.len()];
        let mut out = Vec::new();
        let mut stack = vec![root];
        while let Some(id) = stack.pop() {
            if seen[id.index()] {
                continue;
            }
            seen[id.index()] = true;
            let node = &self.nodes[id.index()];
            if let Op::Var(name) = &node.op {
                out.push((name.clone(), node.width));
            }
            for child in children(&node.op) {
                stack.push(child);
            }
        }
        out.sort();
        out.dedup();
        out
    }

    fn check_same_width(&self, a: TermId, b: TermId) -> u32 {
        let wa = self.width(a);
        let wb = self.width(b);
        assert_eq!(wa, wb, "width mismatch: {wa} vs {wb}");
        wa
    }
}

/// The direct children of an operation.
pub(crate) fn children(op: &Op) -> Vec<TermId> {
    match *op {
        Op::Const(_) | Op::Var(_) => vec![],
        Op::Not(a) => vec![a],
        Op::And(a, b)
        | Op::Or(a, b)
        | Op::Xor(a, b)
        | Op::Add(a, b)
        | Op::Sub(a, b)
        | Op::Mul(a, b)
        | Op::UDiv(a, b)
        | Op::URem(a, b)
        | Op::Shl(a, b)
        | Op::Lshr(a, b)
        | Op::Ashr(a, b)
        | Op::Eq(a, b)
        | Op::Ult(a, b)
        | Op::Slt(a, b)
        | Op::Concat(a, b) => vec![a, b],
        Op::Extract { arg, .. } => vec![arg],
        Op::Ite(c, t, e) => vec![c, t, e],
    }
}

pub(crate) fn sign_extend(x: u64, width: u32) -> i64 {
    if width >= 64 {
        x as i64
    } else {
        let shift = 64 - width;
        ((x << shift) as i64) >> shift
    }
}

impl fmt::Display for TermId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash_consing_dedups() {
        let mut p = TermPool::new();
        let a = p.var("a", 32);
        let b = p.var("b", 32);
        let s1 = p.add(a, b);
        let s2 = p.add(a, b);
        let s3 = p.add(b, a); // commutative ops are canonicalized by id order
        assert_eq!(s1, s2);
        assert_eq!(s1, s3);
        assert_eq!(p.var("a", 32), a);
    }

    #[test]
    fn constant_folding() {
        let mut p = TermPool::new();
        let c3 = p.constant(3, 16);
        let c5 = p.constant(5, 16);
        let add = p.add(c3, c5);
        let mul = p.mul(c3, c5);
        let sub = p.sub(c3, c5);
        let xor = p.xor(c3, c3);
        assert_eq!(p.as_const(add), Some(8));
        assert_eq!(p.as_const(mul), Some(15));
        assert_eq!(p.as_const(sub), Some((3u64.wrapping_sub(5)) & 0xffff));
        assert_eq!(p.as_const(xor), Some(0));
    }

    #[test]
    fn identity_simplifications() {
        let mut p = TermPool::new();
        let x = p.var("x", 64);
        let zero = p.constant(0, 64);
        let ones = p.constant(u64::MAX, 64);
        assert_eq!(p.add(x, zero), x);
        assert_eq!(p.or(x, zero), x);
        assert_eq!(p.and(x, ones), x);
        assert_eq!(p.and(x, zero), zero);
        assert_eq!(p.xor(x, zero), x);
        let sub_self = p.sub(x, x);
        assert_eq!(p.as_const(sub_self), Some(0));
        assert_eq!(p.shl(x, zero), x);
        let n1 = p.not(x);
        let nn = p.not(n1);
        assert_eq!(nn, x);
    }

    #[test]
    fn comparison_folding() {
        let mut p = TermPool::new();
        let a = p.constant(5, 8);
        let b = p.constant(250, 8);
        let ult = p.ult(a, b);
        // 250 as signed 8-bit is -6, so signed comparison flips.
        let slt_ba = p.slt(b, a);
        let slt_ab = p.slt(a, b);
        assert_eq!(p.as_const(ult), Some(1));
        assert_eq!(p.as_const(slt_ba), Some(1));
        assert_eq!(p.as_const(slt_ab), Some(0));
        let x = p.var("x", 8);
        let eq_xx = p.eq(x, x);
        let ult_xx = p.ult(x, x);
        assert_eq!(p.as_const(eq_xx), Some(1));
        assert_eq!(p.as_const(ult_xx), Some(0));
    }

    #[test]
    fn div_rem_zero_follow_bpf() {
        let mut p = TermPool::new();
        let x = p.constant(42, 32);
        let zero = p.constant(0, 32);
        let d = p.udiv(x, zero);
        let r = p.urem(x, zero);
        assert_eq!(p.as_const(d), Some(0));
        assert_eq!(p.as_const(r), Some(42));
    }

    #[test]
    fn shift_folding_and_masking() {
        let mut p = TermPool::new();
        let one = p.constant(1, 32);
        let sh = p.constant(33, 32); // 33 % 32 == 1
        let shl = p.shl(one, sh);
        assert_eq!(p.as_const(shl), Some(2));
        let neg = p.constant(0x8000_0000, 32);
        let s1 = p.constant(4, 32);
        let ashr = p.ashr(neg, s1);
        let lshr = p.lshr(neg, s1);
        assert_eq!(p.as_const(ashr), Some(0xf800_0000));
        assert_eq!(p.as_const(lshr), Some(0x0800_0000));
    }

    #[test]
    fn extract_concat_extend() {
        let mut p = TermPool::new();
        let c = p.constant(0xAABB, 16);
        let ex_hi = p.extract(c, 15, 8);
        let ex_lo = p.extract(c, 7, 0);
        assert_eq!(p.as_const(ex_hi), Some(0xAA));
        assert_eq!(p.as_const(ex_lo), Some(0xBB));
        let hi = p.constant(0xAA, 8);
        let lo = p.constant(0xBB, 8);
        let cc = p.concat(hi, lo);
        assert_eq!(p.as_const(cc), Some(0xAABB));
        assert_eq!(p.width(cc), 16);
        let ze = p.zero_extend(lo, 32);
        assert_eq!(p.as_const(ze), Some(0xBB));
        let minus1 = p.constant(0xFF, 8);
        let se16 = p.sign_extend(minus1, 16);
        let se64 = p.sign_extend(minus1, 64);
        assert_eq!(p.as_const(se16), Some(0xFFFF));
        assert_eq!(p.as_const(se64), Some(u64::MAX));

        // Extract of extract composes.
        let x = p.var("x", 64);
        let e1 = p.extract(x, 31, 0);
        let e2 = p.extract(e1, 15, 8);
        assert_eq!(
            p.node(e2).op,
            Op::Extract {
                hi: 15,
                lo: 8,
                arg: x
            }
        );
    }

    #[test]
    fn low_bit_mask_is_a_zero_extended_slice() {
        let mut p = TermPool::new();
        let x = p.var("x", 64);
        let ff = p.constant(0xff, 64);
        let low = p.extract(x, 7, 0);
        let byte = p.zero_extend(low, 64);
        assert_eq!(p.and(x, ff), byte);
        assert_eq!(p.and(ff, x), byte);
        // Only masks of contiguous low bits fold.
        let f0 = p.constant(0xf0, 64);
        let high_nibble = p.and(x, f0);
        assert!(matches!(p.node(high_nibble).op, Op::And(..)));
    }

    #[test]
    fn extract_of_concat_picks_a_side() {
        let mut p = TermPool::new();
        let hi = p.var("hi", 8);
        let lo = p.var("lo", 16);
        let cc = p.concat(hi, lo);
        let in_lo = p.extract(cc, 11, 4);
        assert_eq!(in_lo, p.extract(lo, 11, 4));
        assert_eq!(p.extract(cc, 15, 0), lo);
        let in_hi = p.extract(cc, 22, 17);
        assert_eq!(in_hi, p.extract(hi, 6, 1));
        assert_eq!(p.extract(cc, 23, 16), hi);
        let straddle = p.extract(cc, 19, 12);
        assert_eq!(
            p.node(straddle).op,
            Op::Extract {
                hi: 19,
                lo: 12,
                arg: cc
            }
        );
        // A masked wide load and a narrow load of the same bytes meet.
        let bytes: Vec<TermId> = (0..8).map(|i| p.var(format!("b{i}"), 8)).collect();
        let word = bytes[1..].iter().fold(bytes[0], |acc, &b| p.concat(b, acc));
        let mask = p.constant(0xffff, 64);
        let masked = p.and(word, mask);
        let half = p.concat(bytes[1], bytes[0]);
        assert_eq!(masked, p.zero_extend(half, 64));
    }

    #[test]
    fn ite_simplification() {
        let mut p = TermPool::new();
        let x = p.var("x", 32);
        let y = p.var("y", 32);
        let t = p.tt();
        let f = p.ff();
        assert_eq!(p.ite(t, x, y), x);
        assert_eq!(p.ite(f, x, y), y);
        let c = p.var("c", 1);
        assert_eq!(p.ite(c, x, x), x);
    }

    #[test]
    fn neg_is_zero_minus() {
        let mut p = TermPool::new();
        let five = p.constant(5, 64);
        let neg = p.neg(five);
        assert_eq!(p.as_const(neg), Some((-5i64) as u64));
    }

    #[test]
    fn variables_of_collects_all() {
        let mut p = TermPool::new();
        let a = p.var("a", 64);
        let b = p.var("b", 32);
        let bz = p.zero_extend(b, 64);
        let sum = p.add(a, bz);
        let cond = p.eq(sum, a);
        let vars = p.variables_of(cond);
        assert_eq!(vars, vec![("a".to_string(), 64), ("b".to_string(), 32)]);
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn width_mismatch_panics() {
        let mut p = TermPool::new();
        let a = p.var("a", 64);
        let b = p.var("b", 32);
        p.add(a, b);
    }
}
