//! # bitsmt
//!
//! A self-contained decision procedure for quantifier-free bit-vector logic
//! (QF_BV), built for the K2 compiler's equivalence- and safety-checking
//! queries. It plays the role Z3 plays in the original K2 system.
//!
//! The crate is layered exactly like a textbook eager SMT solver:
//!
//! 1. [`term`] — a hash-consed term graph for bit-vector expressions with
//!    widths up to 64 bits. Booleans are 1-bit vectors. Smart constructors
//!    perform constant folding and local simplification, which matters a lot
//!    in practice because K2's concretization optimizations turn most
//!    address-comparison clauses into constants before the solver ever runs.
//!    They also fold low-bit masks and slices of concatenations, so a masked
//!    wide load and a narrow load of the same bytes are one term.
//! 2. [`eval`] — a concrete evaluator used for testing, for validating
//!    models, and for executing counterexamples back into test cases.
//! 3. [`bitblast`] — Tseitin conversion of the term graph into CNF: ripple
//!    carry adders, shift-and-add multipliers, restoring dividers, barrel
//!    shifters, and comparison chains, over structurally hashed AND, XOR and
//!    multiplexer gates.
//! 4. [`sat`] — a CDCL SAT solver with two-watched-literal propagation,
//!    VSIDS branching from an activity heap, phase saving, first-UIP clause
//!    learning and Luby restarts, whose decisions are reproducible release
//!    to release.
//! 5. [`solver`] — the user-facing façade: assert 1-bit terms, call
//!    `check()`, and extract a [`Model`] mapping variables to `u64` values.
//!    Every check is one-shot; only the bit-blaster's and the SAT solver's
//!    buffers are reused.
//! 6. [`memo`] — a [`SolveMemo`] of SAT results keyed by the exact CNF, so
//!    the checks of one compilation decide each distinct formula once.
//!
//! ```
//! use bitsmt::{Solver, TermPool};
//!
//! let mut pool = TermPool::new();
//! let x = pool.var("x", 64);
//! let y = pool.var("y", 64);
//! // x + y == 10  and  x > y  and  y != 0
//! let sum = pool.add(x, y);
//! let ten = pool.constant(10, 64);
//! let c1 = pool.eq(sum, ten);
//! let c2 = pool.ugt(x, y);
//! let zero = pool.constant(0, 64);
//! let c3 = pool.ne(y, zero);
//!
//! let mut solver = Solver::new(&mut pool);
//! solver.assert(c1);
//! solver.assert(c2);
//! solver.assert(c3);
//! let model = solver.check().expect_sat();
//! let xv = model.value("x").unwrap();
//! let yv = model.value("y").unwrap();
//! assert_eq!(xv.wrapping_add(yv) & u64::MAX, 10);
//! assert!(xv > yv && yv != 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bitblast;
pub mod cnf;
pub mod eval;
pub mod memo;
pub mod sat;
pub mod solver;
pub mod term;

pub use eval::Assignment;
pub use memo::SolveMemo;
pub use sat::{SatResult, SatSolver};
pub use solver::{CheckResult, Model, Solver, SolverStats};
pub use term::{Op, TermId, TermPool};
