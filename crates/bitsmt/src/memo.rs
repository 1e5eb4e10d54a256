//! Formula-level reuse of SAT results within one compilation.
//!
//! Different candidates often reduce to the very same CNF once terms are
//! simplified and hash-consed. The SAT solver is a pure function of the CNF
//! it is handed, so a [`SolveMemo`] shared by the checks of one compilation
//! decides each distinct formula once: a later [`Solver::check`] of an equal
//! CNF takes the stored result and solver counts instead of solving again.
//! The key is the full formula, never a digest, so a hash collision cannot
//! hand one formula another's verdict. Models are rebuilt from each query's
//! own variable bits, so a hit yields exactly what its own solve would.
//!
//! [`Solver::check`]: crate::Solver::check

use crate::cnf::CnfBuilder;
use crate::sat::SatResult;
use parking_lot::Mutex;
use std::collections::hash_map::{Entry, HashMap};
use std::sync::Arc;

/// What one SAT solve of a CNF produced: its result and the work it took.
#[derive(Debug)]
pub(crate) struct Solved {
    pub(crate) result: SatResult,
    pub(crate) conflicts: u64,
    pub(crate) decisions: u64,
    pub(crate) propagations: u64,
}

/// An exact map from CNF to SAT result, shared by the solvers of one
/// compilation (see the [module docs](self)).
///
/// The lock is held only to look up or insert, never across a solve: two
/// solvers racing on the same new formula both solve it and the first insert
/// wins, which is harmless because both produced the same result.
#[derive(Debug, Default)]
pub struct SolveMemo {
    state: Mutex<MemoState>,
}

#[derive(Debug, Default)]
struct MemoState {
    entries: HashMap<CnfBuilder, Arc<Solved>>,
    bytes: u64,
}

impl SolveMemo {
    /// Create an empty memo.
    pub fn new() -> SolveMemo {
        SolveMemo::default()
    }

    /// The stored solve of exactly this CNF, if any.
    pub(crate) fn get(&self, cnf: &CnfBuilder) -> Option<Arc<Solved>> {
        self.state.lock().entries.get(cnf).cloned()
    }

    /// Store the solve of `cnf`, unless an equal CNF is already stored.
    pub(crate) fn insert(&self, mut cnf: CnfBuilder, solved: Arc<Solved>) {
        cnf.shrink_to_fit();
        let bytes = cnf.bytes();
        let mut state = self.state.lock();
        if let Entry::Vacant(slot) = state.entries.entry(cnf) {
            slot.insert(solved);
            state.bytes += bytes;
        }
    }

    /// Distinct formulas stored.
    pub fn len(&self) -> usize {
        self.state.lock().entries.len()
    }

    /// Whether no formula is stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// CNF bytes retained (literals and clause ends of every stored
    /// formula). Each distinct formula is stored once, so this depends only
    /// on which formulas were solved, not on the order.
    pub fn bytes(&self) -> u64 {
        self.state.lock().bytes
    }
}
