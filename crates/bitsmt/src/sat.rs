//! A CDCL (conflict-driven clause learning) SAT solver.
//!
//! Features: two-watched-literal unit propagation, VSIDS-style variable
//! activities with exponential decay, phase saving, first-UIP conflict
//! analysis with non-chronological backjumping, and Luby-sequence restarts.
//! Learned clauses are kept for the whole solve.
//!
//! The solver decides one formula at a time: [`SatSolver::reset`], then
//! [`SatSolver::add_clause`] for each clause, then [`SatSolver::solve`]. Its
//! choices are reproducible release to release, because K2's search
//! trajectories depend on the exact counterexample models it returns: each
//! decision takes the lowest-numbered unassigned variable of maximal activity
//! (an activity heap that breaks ties by variable index), and every clause
//! keeps its literal order and its place in the watch lists. A solver reused
//! across formulas keeps its buffers — the clause arena, the watch lists and
//! the per-variable tables — so small queries pay almost nothing for setup.

use crate::cnf::CnfBuilder;

/// Outcome of solving.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SatResult {
    /// Satisfiable. The vector is indexed by variable number (entry 0 is
    /// unused) and gives the assigned polarity.
    Sat(Vec<bool>),
    /// Unsatisfiable.
    Unsat,
}

impl SatResult {
    /// Whether the result is SAT.
    pub fn is_sat(&self) -> bool {
        matches!(self, SatResult::Sat(_))
    }
}

/// Reason of a variable assigned without a clause (decisions, level-0 units).
const NO_REASON: u32 = u32::MAX;
/// Heap position of a variable that is not in the heap.
const ABSENT: u32 = u32::MAX;

/// The solver.
#[derive(Debug)]
pub struct SatSolver {
    num_vars: usize,
    /// Every clause (original, then learned), back to back: a length word,
    /// then the literals. A clause is named by the index of its length word,
    /// so visiting it touches one place. Its two watched literals are its
    /// first two.
    lits: Vec<i32>,
    /// `watches[lit_index(lit)]` — clauses currently watching `lit`.
    watches: Vec<Vec<u32>>,
    /// Per variable: 1 true, -1 false, 0 unassigned.
    assigns: Vec<i8>,
    /// Decision level at which each variable was assigned.
    level: Vec<u32>,
    /// Clause that implied each variable (`NO_REASON` for decisions).
    reason: Vec<u32>,
    /// Assigned literals in assignment order.
    trail: Vec<i32>,
    /// Start of each decision level in the trail.
    trail_lim: Vec<usize>,
    /// Next trail position to propagate.
    qhead: usize,
    /// VSIDS activity per variable.
    activity: Vec<f64>,
    var_inc: f64,
    /// Saved phases for phase-saving.
    phase: Vec<bool>,
    /// Binary max-heap of variables ordered by activity, then by lower
    /// index. Lazily maintained: it may contain assigned variables, but
    /// always contains every unassigned one.
    heap: Vec<u32>,
    /// Position of each variable in `heap` (`ABSENT` when not in it).
    heap_pos: Vec<u32>,
    /// Conflict-analysis marks; all clear between analyses.
    seen: Vec<bool>,
    /// The clause the last conflict analysis learned, asserting literal
    /// first.
    learned: Vec<i32>,
    /// Scratch space for sanitizing added clauses.
    scratch: Vec<i32>,
    /// Set when the formula is unsatisfiable.
    unsat: bool,
    /// Statistics: number of conflicts seen.
    pub conflicts: u64,
    /// Statistics: number of decisions made.
    pub decisions: u64,
    /// Statistics: number of literal propagations.
    pub propagations: u64,
}

impl Default for SatSolver {
    fn default() -> Self {
        SatSolver::new()
    }
}

fn lit_index(lit: i32) -> usize {
    let var = lit.unsigned_abs() as usize;
    2 * var + usize::from(lit < 0)
}

/// The value of `lit` under `assigns` (1 true, -1 false, 0 unassigned).
fn value(assigns: &[i8], lit: i32) -> i8 {
    let v = assigns[lit.unsigned_abs() as usize];
    if lit > 0 {
        v
    } else {
        -v
    }
}

/// Clear `v` and refill it with `len` copies of `x`, keeping its buffer.
fn refill<T: Clone>(v: &mut Vec<T>, len: usize, x: T) {
    v.clear();
    v.resize(len, x);
}

impl SatSolver {
    /// An empty solver over no variables; see [`SatSolver::reset`].
    pub fn new() -> SatSolver {
        let mut solver = SatSolver {
            num_vars: 0,
            lits: Vec::new(),
            watches: Vec::new(),
            assigns: Vec::new(),
            level: Vec::new(),
            reason: Vec::new(),
            trail: Vec::new(),
            trail_lim: Vec::new(),
            qhead: 0,
            activity: Vec::new(),
            var_inc: 1.0,
            phase: Vec::new(),
            heap: Vec::new(),
            heap_pos: Vec::new(),
            seen: Vec::new(),
            learned: Vec::new(),
            scratch: Vec::new(),
            unsat: false,
            conflicts: 0,
            decisions: 0,
            propagations: 0,
        };
        solver.reset(0);
        solver
    }

    /// Start a new formula over variables `1..=num_vars` with no clauses.
    /// Every field is reset; buffers keep their capacity for reuse.
    pub fn reset(&mut self, num_vars: u32) {
        let n = num_vars as usize;
        // Only the previous formula's watch lists can be non-empty.
        let used = (2 * (self.num_vars + 1)).min(self.watches.len());
        for watch in &mut self.watches[..used] {
            watch.clear();
        }
        if self.watches.len() < 2 * (n + 1) {
            self.watches.resize_with(2 * (n + 1), Vec::new);
        }
        self.num_vars = n;
        self.lits.clear();
        refill(&mut self.assigns, n + 1, 0);
        refill(&mut self.level, n + 1, 0);
        refill(&mut self.reason, n + 1, NO_REASON);
        self.trail.clear();
        self.trail_lim.clear();
        self.qhead = 0;
        refill(&mut self.activity, n + 1, 0.0);
        self.var_inc = 1.0;
        refill(&mut self.phase, n + 1, false);
        // Equal activities order by index, so `1..=n` is already a heap.
        self.heap.clear();
        self.heap.extend(1..=num_vars);
        refill(&mut self.heap_pos, 1, ABSENT);
        self.heap_pos.extend(0..num_vars);
        refill(&mut self.seen, n + 1, false);
        self.learned.clear();
        self.unsat = false;
        self.conflicts = 0;
        self.decisions = 0;
        self.propagations = 0;
    }

    /// [`SatSolver::reset`] to the formula `cnf`.
    pub fn load(&mut self, cnf: &CnfBuilder) {
        self.reset(cnf.num_vars);
        for clause in cnf.clauses() {
            self.add_clause(clause);
        }
    }

    /// Add one clause (sanitizing duplicates and tautologies) before
    /// [`SatSolver::solve`].
    pub fn add_clause(&mut self, lits: &[i32]) {
        if self.unsat {
            return;
        }
        let mut clause = std::mem::take(&mut self.scratch);
        clause.clear();
        clause.extend_from_slice(lits);
        clause.sort_unstable();
        clause.dedup();
        // A tautology (x ∨ ¬x) is trivially satisfied: drop it.
        if !clause.iter().any(|&l| clause.contains(&-l)) {
            match clause.len() {
                0 => self.unsat = true,
                // Unit clause: assign at level 0 (conflicts detected in solve).
                1 => match value(&self.assigns, clause[0]) {
                    1 => {}
                    -1 => self.unsat = true,
                    _ => self.enqueue(clause[0], NO_REASON),
                },
                _ => {
                    self.push_clause(&clause);
                }
            }
        }
        self.scratch = clause;
    }

    /// Append a clause of two or more literals, watching its first two.
    fn push_clause(&mut self, clause: &[i32]) -> u32 {
        let cr = u32::try_from(self.lits.len()).expect("fewer than 2^32 clause words");
        self.watches[lit_index(clause[0])].push(cr);
        self.watches[lit_index(clause[1])].push(cr);
        self.lits.push(clause.len() as i32);
        self.lits.extend_from_slice(clause);
        cr
    }

    fn enqueue(&mut self, lit: i32, reason: u32) {
        let var = lit.unsigned_abs() as usize;
        self.assigns[var] = if lit > 0 { 1 } else { -1 };
        self.level[var] = self.trail_lim.len() as u32;
        self.reason[var] = reason;
        self.phase[var] = lit > 0;
        self.trail.push(lit);
    }

    /// Unit propagation. Returns a conflicting clause, if any.
    fn propagate(&mut self) -> Option<u32> {
        while self.qhead < self.trail.len() {
            let lit = self.trail[self.qhead];
            self.qhead += 1;
            self.propagations += 1;
            let false_lit = -lit;
            let wi = lit_index(false_lit);
            let mut watch_list = std::mem::take(&mut self.watches[wi]);
            let mut conflict = None;
            let mut i = 0;
            while i < watch_list.len() {
                let cr = watch_list[i];
                let start = cr as usize + 1;
                let len = self.lits[start - 1] as usize;
                let clause = &mut self.lits[start..start + len];
                // Ensure the false literal is in position 1.
                if clause[0] == false_lit {
                    clause.swap(0, 1);
                }
                debug_assert_eq!(clause[1], false_lit);
                // If the first watched literal is already true, keep watching.
                let first = clause[0];
                let first_value = value(&self.assigns, first);
                if first_value == 1 {
                    i += 1;
                    continue;
                }
                // Look for a new literal to watch.
                if let Some(k) = (2..clause.len()).find(|&k| value(&self.assigns, clause[k]) != -1)
                {
                    clause.swap(1, k);
                    self.watches[lit_index(clause[1])].push(cr);
                    watch_list.swap_remove(i);
                    continue;
                }
                // No new watch: the clause is unit or conflicting.
                if first_value == -1 {
                    conflict = Some(cr);
                    break;
                }
                if first_value == 0 {
                    self.enqueue(first, cr);
                }
                i += 1;
            }
            self.watches[wi] = watch_list;
            if conflict.is_some() {
                return conflict;
            }
        }
        None
    }

    fn bump_var(&mut self, var: usize) {
        self.activity[var] += self.var_inc;
        if self.activity[var] > 1e100 {
            for a in &mut self.activity {
                *a *= 1e-100;
            }
            self.var_inc *= 1e-100;
            // Rescaling can round distinct activities to equal ones, whose
            // heap order must then fall back to the variable index.
            for i in (0..self.heap.len() / 2).rev() {
                self.heap_sift_down(i);
            }
        } else if self.heap_pos[var] != ABSENT {
            self.heap_sift_up(self.heap_pos[var] as usize);
        }
    }

    // ----- activity heap ---------------------------------------------------

    /// Heap order: does variable `a` rank above variable `b`? Higher
    /// activity first, then the lower index — the variable a linear scan for
    /// the first maximum would pick.
    fn heap_before(&self, a: u32, b: u32) -> bool {
        let (x, y) = (self.activity[a as usize], self.activity[b as usize]);
        x > y || (x == y && a < b)
    }

    fn heap_sift_up(&mut self, mut i: usize) {
        let var = self.heap[i];
        while i > 0 {
            let parent = (i - 1) / 2;
            let above = self.heap[parent];
            if !self.heap_before(var, above) {
                break;
            }
            self.heap[i] = above;
            self.heap_pos[above as usize] = i as u32;
            i = parent;
        }
        self.heap[i] = var;
        self.heap_pos[var as usize] = i as u32;
    }

    fn heap_sift_down(&mut self, mut i: usize) {
        let var = self.heap[i];
        loop {
            let left = 2 * i + 1;
            if left >= self.heap.len() {
                break;
            }
            let right = left + 1;
            let child =
                if right < self.heap.len() && self.heap_before(self.heap[right], self.heap[left]) {
                    right
                } else {
                    left
                };
            let below = self.heap[child];
            if !self.heap_before(below, var) {
                break;
            }
            self.heap[i] = below;
            self.heap_pos[below as usize] = i as u32;
            i = child;
        }
        self.heap[i] = var;
        self.heap_pos[var as usize] = i as u32;
    }

    fn heap_insert(&mut self, var: usize) {
        if self.heap_pos[var] != ABSENT {
            return;
        }
        self.heap.push(var as u32);
        self.heap_sift_up(self.heap.len() - 1);
    }

    fn heap_pop(&mut self) -> Option<usize> {
        let top = *self.heap.first()?;
        self.heap_pos[top as usize] = ABSENT;
        let last = self.heap.pop().expect("non-empty");
        if !self.heap.is_empty() {
            self.heap[0] = last;
            self.heap_sift_down(0);
        }
        Some(top as usize)
    }

    // ----- conflict analysis -----------------------------------------------

    /// First-UIP conflict analysis into `self.learned` (asserting literal
    /// first). Returns the backjump level.
    fn analyze(&mut self, conflict: u32) -> u32 {
        let current_level = self.trail_lim.len() as u32;
        let mut learned = std::mem::take(&mut self.learned);
        learned.clear();
        learned.push(0); // the asserting literal, filled in at the end
        let mut counter = 0usize;
        let mut lit0: i32 = 0;
        let mut trail_pos = self.trail.len();
        let mut cr = conflict;

        loop {
            if cr != NO_REASON {
                let start = cr as usize + 1;
                for k in start..start + self.lits[start - 1] as usize {
                    let q = self.lits[k];
                    // Skip the literal we are currently resolving on.
                    if q == lit0 {
                        continue;
                    }
                    let var = q.unsigned_abs() as usize;
                    if !self.seen[var] && self.level[var] > 0 {
                        self.seen[var] = true;
                        self.bump_var(var);
                        if self.level[var] >= current_level {
                            counter += 1;
                        } else {
                            learned.push(q);
                        }
                    }
                }
            }
            // Find the next literal on the trail (at the current level) to resolve.
            loop {
                trail_pos -= 1;
                let lit = self.trail[trail_pos];
                if self.seen[lit.unsigned_abs() as usize] {
                    lit0 = -lit;
                    break;
                }
            }
            let var = lit0.unsigned_abs() as usize;
            self.seen[var] = false;
            counter -= 1;
            if counter == 0 {
                break;
            }
            cr = self.reason[var];
            // When resolving on a reason clause, the literal itself must be
            // skipped; we marked it via lit0 above (reason[var] implies `-lit0`).
            lit0 = -lit0;
        }
        learned[0] = lit0;

        // Every current-level mark was cleared on resolution; clear the
        // lower-level ones, and backjump to the highest of their levels.
        let mut backjump = 0;
        for &l in &learned[1..] {
            let var = l.unsigned_abs() as usize;
            self.seen[var] = false;
            backjump = backjump.max(self.level[var]);
        }
        self.learned = learned;
        backjump
    }

    fn backtrack_to(&mut self, level: u32) {
        while self.trail_lim.len() as u32 > level {
            let lim = self.trail_lim.pop().expect("non-empty");
            while self.trail.len() > lim {
                let lit = self.trail.pop().expect("non-empty");
                let var = lit.unsigned_abs() as usize;
                self.assigns[var] = 0;
                self.reason[var] = NO_REASON;
                self.heap_insert(var);
            }
        }
        self.qhead = self.qhead.min(self.trail.len());
    }

    fn decide(&mut self) -> bool {
        // The heap is lazy: skip entries assigned since they were inserted.
        let var = loop {
            match self.heap_pop() {
                None => return false,
                Some(var) if self.assigns[var] == 0 => break var,
                Some(_) => {}
            }
        };
        self.decisions += 1;
        self.trail_lim.push(self.trail.len());
        let lit = if self.phase[var] {
            var as i32
        } else {
            -(var as i32)
        };
        self.enqueue(lit, NO_REASON);
        true
    }

    /// Solve the formula.
    pub fn solve(&mut self) -> SatResult {
        if self.unsat {
            return SatResult::Unsat;
        }
        self.backtrack_to(0);
        // Propagate the initial units.
        if self.propagate().is_some() {
            self.unsat = true;
            return SatResult::Unsat;
        }

        let mut conflicts_since_restart: u64 = 0;
        let mut restart_threshold: u64 = 100;
        let mut luby_index: u32 = 1;

        loop {
            match self.propagate() {
                Some(conflict) => {
                    self.conflicts += 1;
                    conflicts_since_restart += 1;
                    if self.trail_lim.is_empty() {
                        self.unsat = true;
                        return SatResult::Unsat;
                    }
                    let backjump = self.analyze(conflict);
                    self.backtrack_to(backjump);
                    self.var_inc /= 0.95;
                    let asserting = self.learned[0];
                    if self.learned.len() == 1 {
                        match value(&self.assigns, asserting) {
                            -1 => {
                                self.unsat = true;
                                return SatResult::Unsat;
                            }
                            0 => self.enqueue(asserting, NO_REASON),
                            _ => {}
                        }
                    } else {
                        let learned = std::mem::take(&mut self.learned);
                        let cr = self.push_clause(&learned);
                        self.learned = learned;
                        self.enqueue(asserting, cr);
                    }
                }
                None => {
                    if conflicts_since_restart >= restart_threshold {
                        conflicts_since_restart = 0;
                        luby_index += 1;
                        restart_threshold = 100 * luby(luby_index);
                        self.backtrack_to(0);
                        continue;
                    }
                    if !self.decide() {
                        // All variables assigned without conflict: SAT.
                        let model = (0..=self.num_vars)
                            .map(|var| var > 0 && self.assigns[var] == 1)
                            .collect();
                        return SatResult::Sat(model);
                    }
                }
            }
        }
    }
}

/// The Luby restart sequence (1, 1, 2, 1, 1, 2, 4, ...).
fn luby(i: u32) -> u64 {
    // Find the finite subsequence containing i.
    let mut k = 1u32;
    while (1u64 << k) - 1 < i as u64 {
        k += 1;
    }
    let mut i = i as u64;
    let mut kk = k;
    while i != (1u64 << kk) - 1 {
        i -= (1u64 << (kk - 1)) - 1;
        kk = 1;
        while (1u64 << kk) - 1 < i {
            kk += 1;
        }
    }
    1u64 << (kk - 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn solver(num_vars: u32, clauses: &[Vec<i32>]) -> SatSolver {
        let mut s = SatSolver::new();
        s.reset(num_vars);
        for clause in clauses {
            s.add_clause(clause);
        }
        s
    }

    fn check_model(clauses: &[Vec<i32>], model: &[bool]) -> bool {
        clauses.iter().all(|clause| {
            clause.iter().any(|&lit| {
                let v = model[lit.unsigned_abs() as usize];
                if lit > 0 {
                    v
                } else {
                    !v
                }
            })
        })
    }

    #[test]
    fn trivially_sat() {
        let clauses = vec![vec![1], vec![-2], vec![1, 2, 3]];
        match solver(3, &clauses).solve() {
            SatResult::Sat(model) => {
                assert!(model[1]);
                assert!(!model[2]);
                assert!(check_model(&clauses, &model));
            }
            SatResult::Unsat => panic!("should be sat"),
        }
    }

    #[test]
    fn trivially_unsat() {
        assert_eq!(solver(1, &[vec![1], vec![-1]]).solve(), SatResult::Unsat);
        assert_eq!(solver(2, &[vec![]]).solve(), SatResult::Unsat);
    }

    #[test]
    fn requires_propagation_chain() {
        // 1 -> 2 -> 3 -> 4, and finally ¬4 forces UNSAT.
        let clauses = vec![vec![1], vec![-1, 2], vec![-2, 3], vec![-3, 4], vec![-4]];
        assert_eq!(solver(4, &clauses).solve(), SatResult::Unsat);
    }

    /// `pigeons` pigeons in `holes` holes; variable `p * holes + h + 1` puts
    /// pigeon `p` in hole `h`. Unsatisfiable when `pigeons > holes`.
    fn pigeonhole(pigeons: i32, holes: i32) -> Vec<Vec<i32>> {
        let var = |p: i32, h: i32| p * holes + h + 1;
        let mut clauses: Vec<Vec<i32>> = (0..pigeons)
            .map(|p| (0..holes).map(|h| var(p, h)).collect())
            .collect();
        // No two pigeons share a hole.
        for h in 0..holes {
            for p in 0..pigeons {
                for q in p + 1..pigeons {
                    clauses.push(vec![-var(p, h), -var(q, h)]);
                }
            }
        }
        clauses
    }

    #[test]
    fn small_pigeonhole_is_unsat() {
        assert_eq!(solver(6, &pigeonhole(3, 2)).solve(), SatResult::Unsat);
    }

    #[test]
    fn satisfiable_3sat_instance() {
        let clauses = vec![
            vec![1, 2, -3],
            vec![-1, 3, 4],
            vec![-2, -4, 5],
            vec![1, -5, 6],
            vec![-6, 2, 3],
            vec![-1, -2, -3],
            vec![4, 5, 6],
        ];
        match solver(6, &clauses).solve() {
            SatResult::Sat(model) => assert!(check_model(&clauses, &model)),
            SatResult::Unsat => panic!("should be sat"),
        }
    }

    #[test]
    fn xor_chain_forces_unique_model() {
        // x1 xor x2 = 1, x2 xor x3 = 1, x1 = 1  =>  x2 = 0, x3 = 1.
        let clauses = vec![vec![1, 2], vec![-1, -2], vec![2, 3], vec![-2, -3], vec![1]];
        match solver(3, &clauses).solve() {
            SatResult::Sat(model) => {
                assert!(model[1]);
                assert!(!model[2]);
                assert!(model[3]);
            }
            SatResult::Unsat => panic!("should be sat"),
        }
    }

    #[test]
    fn larger_random_instance_is_consistent() {
        // A structured satisfiable instance: an implication ladder with a few
        // extra clauses; verifies the model against every clause.
        let n = 50;
        let mut clauses = Vec::new();
        for i in 1..n {
            clauses.push(vec![-i, i + 1]);
        }
        clauses.push(vec![1]);
        clauses.push(vec![n / 2, -n]);
        match solver(n as u32, &clauses).solve() {
            SatResult::Sat(model) => assert!(check_model(&clauses, &model)),
            SatResult::Unsat => panic!("should be sat"),
        }
    }

    #[test]
    fn luby_sequence_prefix() {
        let expected = [1u64, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8];
        for (i, &e) in expected.iter().enumerate() {
            assert_eq!(luby(i as u32 + 1), e, "luby({})", i + 1);
        }
    }

    // ----- bit-identity with the linear-scan solver ------------------------

    /// The one-shot solver as it stood before the activity heap, the clause
    /// arena and buffer reuse, kept verbatim (minus the incremental mode it
    /// shared a struct with) as the behavioural reference: the fast solver
    /// must make exactly its decisions.
    mod reference {
        use super::super::{luby, SatResult};

        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        enum Value {
            Unassigned,
            True,
            False,
        }

        #[derive(Debug)]
        pub struct SatSolver {
            num_vars: usize,
            clauses: Vec<Vec<i32>>,
            clause_act: Vec<f64>,
            cla_inc: f64,
            watches: Vec<Vec<usize>>,
            values: Vec<Value>,
            level: Vec<u32>,
            reason: Vec<Option<usize>>,
            trail: Vec<i32>,
            trail_lim: Vec<usize>,
            qhead: usize,
            activity: Vec<f64>,
            var_inc: f64,
            phase: Vec<bool>,
            unsat: bool,
            pub conflicts: u64,
            pub decisions: u64,
            pub propagations: u64,
        }

        fn lit_index(lit: i32) -> usize {
            let var = lit.unsigned_abs() as usize;
            2 * var + usize::from(lit < 0)
        }

        impl SatSolver {
            pub fn new(num_vars: u32, clauses: Vec<Vec<i32>>) -> SatSolver {
                let n = num_vars as usize;
                let mut solver = SatSolver {
                    num_vars: n,
                    clauses: Vec::with_capacity(clauses.len()),
                    clause_act: Vec::with_capacity(clauses.len()),
                    cla_inc: 1.0,
                    watches: vec![Vec::new(); 2 * (n + 1)],
                    values: vec![Value::Unassigned; n + 1],
                    level: vec![0; n + 1],
                    reason: vec![None; n + 1],
                    trail: Vec::with_capacity(n),
                    trail_lim: Vec::new(),
                    qhead: 0,
                    activity: vec![0.0; n + 1],
                    var_inc: 1.0,
                    phase: vec![false; n + 1],
                    unsat: false,
                    conflicts: 0,
                    decisions: 0,
                    propagations: 0,
                };
                for clause in clauses {
                    solver.add_clause(clause);
                }
                solver
            }

            fn add_clause(&mut self, mut lits: Vec<i32>) {
                if self.unsat {
                    return;
                }
                lits.sort_unstable();
                lits.dedup();
                if lits.iter().any(|&l| lits.contains(&-l)) {
                    return;
                }
                match lits.len() {
                    0 => self.unsat = true,
                    1 => {
                        let lit = lits[0];
                        match self.value_of(lit) {
                            Value::True => {}
                            Value::False => self.unsat = true,
                            Value::Unassigned => self.enqueue(lit, None),
                        }
                    }
                    _ => {
                        let idx = self.clauses.len();
                        self.watches[lit_index(lits[0])].push(idx);
                        self.watches[lit_index(lits[1])].push(idx);
                        self.clauses.push(lits);
                        self.clause_act.push(0.0);
                    }
                }
            }

            fn value_of(&self, lit: i32) -> Value {
                let v = self.values[lit.unsigned_abs() as usize];
                match (v, lit > 0) {
                    (Value::Unassigned, _) => Value::Unassigned,
                    (Value::True, true) | (Value::False, false) => Value::True,
                    _ => Value::False,
                }
            }

            fn enqueue(&mut self, lit: i32, reason: Option<usize>) {
                let var = lit.unsigned_abs() as usize;
                self.values[var] = if lit > 0 { Value::True } else { Value::False };
                self.level[var] = self.trail_lim.len() as u32;
                self.reason[var] = reason;
                self.phase[var] = lit > 0;
                self.trail.push(lit);
            }

            fn propagate(&mut self) -> Option<usize> {
                while self.qhead < self.trail.len() {
                    let lit = self.trail[self.qhead];
                    self.qhead += 1;
                    self.propagations += 1;
                    let false_lit = -lit;
                    let mut watch_list = std::mem::take(&mut self.watches[lit_index(false_lit)]);
                    let mut i = 0;
                    while i < watch_list.len() {
                        let ci = watch_list[i];
                        if self.clauses[ci][0] == false_lit {
                            self.clauses[ci].swap(0, 1);
                        }
                        if self.value_of(self.clauses[ci][0]) == Value::True {
                            i += 1;
                            continue;
                        }
                        let mut found = false;
                        for k in 2..self.clauses[ci].len() {
                            if self.value_of(self.clauses[ci][k]) != Value::False {
                                self.clauses[ci].swap(1, k);
                                let new_watch = self.clauses[ci][1];
                                self.watches[lit_index(new_watch)].push(ci);
                                watch_list.swap_remove(i);
                                found = true;
                                break;
                            }
                        }
                        if found {
                            continue;
                        }
                        let first = self.clauses[ci][0];
                        match self.value_of(first) {
                            Value::False => {
                                self.watches[lit_index(false_lit)].append(&mut watch_list);
                                return Some(ci);
                            }
                            Value::Unassigned => {
                                self.enqueue(first, Some(ci));
                                i += 1;
                            }
                            Value::True => {
                                i += 1;
                            }
                        }
                    }
                    self.watches[lit_index(false_lit)] = watch_list;
                }
                None
            }

            fn bump_var(&mut self, var: usize) {
                self.activity[var] += self.var_inc;
                if self.activity[var] > 1e100 {
                    for a in &mut self.activity {
                        *a *= 1e-100;
                    }
                    self.var_inc *= 1e-100;
                }
            }

            fn bump_clause(&mut self, ci: usize) {
                self.clause_act[ci] += self.cla_inc;
                if self.clause_act[ci] > 1e100 {
                    for a in &mut self.clause_act {
                        *a *= 1e-100;
                    }
                    self.cla_inc *= 1e-100;
                }
            }

            fn decay_activities(&mut self) {
                self.var_inc /= 0.95;
                self.cla_inc /= 0.999;
            }

            fn analyze(&mut self, conflict: usize) -> (Vec<i32>, u32) {
                let current_level = self.trail_lim.len() as u32;
                let mut learned: Vec<i32> = Vec::new();
                let mut seen = vec![false; self.num_vars + 1];
                let mut counter = 0usize;
                let mut lit0: i32 = 0;
                let mut trail_pos = self.trail.len();
                let mut clause_idx = Some(conflict);

                loop {
                    if let Some(ci) = clause_idx {
                        self.bump_clause(ci);
                        let clause = self.clauses[ci].clone();
                        for &q in &clause {
                            if q == lit0 {
                                continue;
                            }
                            let var = q.unsigned_abs() as usize;
                            if !seen[var] && self.level[var] > 0 {
                                seen[var] = true;
                                self.bump_var(var);
                                if self.level[var] >= current_level {
                                    counter += 1;
                                } else {
                                    learned.push(q);
                                }
                            }
                        }
                    }
                    loop {
                        trail_pos -= 1;
                        let lit = self.trail[trail_pos];
                        if seen[lit.unsigned_abs() as usize] {
                            lit0 = -lit;
                            break;
                        }
                    }
                    let var = lit0.unsigned_abs() as usize;
                    seen[var] = false;
                    counter -= 1;
                    if counter == 0 {
                        break;
                    }
                    clause_idx = self.reason[var];
                    lit0 = -lit0;
                }
                learned.insert(0, lit0);

                let backjump = learned
                    .iter()
                    .skip(1)
                    .map(|&l| self.level[l.unsigned_abs() as usize])
                    .max()
                    .unwrap_or(0);
                (learned, backjump)
            }

            fn backtrack_to(&mut self, level: u32) {
                while self.trail_lim.len() as u32 > level {
                    let lim = self.trail_lim.pop().expect("non-empty");
                    while self.trail.len() > lim {
                        let lit = self.trail.pop().expect("non-empty");
                        let var = lit.unsigned_abs() as usize;
                        self.values[var] = Value::Unassigned;
                        self.reason[var] = None;
                    }
                }
                self.qhead = self.qhead.min(self.trail.len());
            }

            fn decide(&mut self) -> bool {
                let mut best: Option<usize> = None;
                let mut best_act = -1.0f64;
                for var in 1..=self.num_vars {
                    if self.values[var] == Value::Unassigned && self.activity[var] > best_act {
                        best = Some(var);
                        best_act = self.activity[var];
                    }
                }
                match best {
                    None => false,
                    Some(var) => {
                        self.decisions += 1;
                        self.trail_lim.push(self.trail.len());
                        let lit = if self.phase[var] {
                            var as i32
                        } else {
                            -(var as i32)
                        };
                        self.enqueue(lit, None);
                        true
                    }
                }
            }

            pub fn solve(&mut self) -> SatResult {
                if self.unsat {
                    return SatResult::Unsat;
                }
                self.backtrack_to(0);
                if self.propagate().is_some() {
                    self.unsat = true;
                    return SatResult::Unsat;
                }

                let mut conflicts_since_restart: u64 = 0;
                let mut restart_threshold: u64 = 100;
                let mut luby_index: u32 = 1;

                loop {
                    match self.propagate() {
                        Some(conflict) => {
                            self.conflicts += 1;
                            conflicts_since_restart += 1;
                            if self.trail_lim.is_empty() {
                                self.unsat = true;
                                return SatResult::Unsat;
                            }
                            let (learned, backjump) = self.analyze(conflict);
                            self.backtrack_to(backjump);
                            self.decay_activities();
                            if learned.len() == 1 {
                                if self.value_of(learned[0]) == Value::False {
                                    self.unsat = true;
                                    return SatResult::Unsat;
                                }
                                if self.value_of(learned[0]) == Value::Unassigned {
                                    self.enqueue(learned[0], None);
                                }
                            } else {
                                let idx = self.clauses.len();
                                self.watches[lit_index(learned[0])].push(idx);
                                self.watches[lit_index(learned[1])].push(idx);
                                let asserting = learned[0];
                                self.clauses.push(learned);
                                self.clause_act.push(self.cla_inc);
                                self.enqueue(asserting, Some(idx));
                            }
                        }
                        None => {
                            if conflicts_since_restart >= restart_threshold {
                                conflicts_since_restart = 0;
                                luby_index += 1;
                                restart_threshold = 100 * luby(luby_index);
                                self.backtrack_to(0);
                                continue;
                            }
                            if !self.decide() {
                                let mut model = vec![false; self.num_vars + 1];
                                for (var, item) in model.iter_mut().enumerate().skip(1) {
                                    *item = self.values[var] == Value::True;
                                }
                                return SatResult::Sat(model);
                            }
                        }
                    }
                }
            }
        }
    }

    /// Solve with the reference and with `fast` (reset in place, so buffer
    /// reuse is exercised too) and demand identical results and statistics.
    /// Returns the result.
    fn assert_bit_identical(
        fast: &mut SatSolver,
        num_vars: u32,
        clauses: &[Vec<i32>],
    ) -> SatResult {
        let mut slow = reference::SatSolver::new(num_vars, clauses.to_vec());
        let want = slow.solve();
        fast.reset(num_vars);
        for clause in clauses {
            fast.add_clause(clause);
        }
        let got = fast.solve();
        assert_eq!(got, want, "result (model bits included)");
        assert_eq!(
            (fast.conflicts, fast.decisions, fast.propagations),
            (slow.conflicts, slow.decisions, slow.propagations),
            "conflicts, decisions, propagations"
        );
        if let SatResult::Sat(model) = &got {
            assert!(check_model(clauses, model));
        }
        got
    }

    /// A deterministic xorshift stream.
    fn xorshift(mut state: u64) -> impl FnMut() -> u64 {
        move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        }
    }

    fn random_ksat(vars: u32, clauses: usize, width: usize, seed: u64) -> Vec<Vec<i32>> {
        let mut next = xorshift(seed);
        (0..clauses)
            .map(|_| {
                (0..width)
                    .map(|_| {
                        let var = (next() % vars as u64) as i32 + 1;
                        if next() & 1 == 0 {
                            var
                        } else {
                            -var
                        }
                    })
                    .collect()
            })
            .collect()
    }

    /// `x_i xor x_{i+1} = b_i` for random `b`, plus unit `x_1`; closing the
    /// ring with a parity that disagrees makes it UNSAT.
    fn xor_chain(n: i32, seed: u64, close_wrong: bool) -> Vec<Vec<i32>> {
        let mut next = xorshift(seed);
        let mut clauses = vec![vec![1]];
        let mut parity = false;
        for i in 1..=n {
            let j = if i == n { 1 } else { i + 1 };
            let mut b = next() & 1 == 1;
            if i == n {
                b = parity ^ close_wrong;
            } else {
                parity ^= b;
            }
            if b {
                clauses.push(vec![i, j]);
                clauses.push(vec![-i, -j]);
            } else {
                clauses.push(vec![-i, j]);
                clauses.push(vec![i, -j]);
            }
        }
        clauses
    }

    #[test]
    fn heap_solver_matches_the_linear_scan_on_random_3sat() {
        let mut fast = SatSolver::new();
        let (mut sat, mut unsat) = (0, 0);
        for seed in 1..=120u64 {
            let vars = 10 + (seed % 40) as u32;
            // Around the 4.26 clause/variable threshold: a mix of verdicts.
            let m = (vars as f64 * (3.6 + (seed % 9) as f64 * 0.15)) as usize;
            let clauses = random_ksat(vars, m, 3, seed.wrapping_mul(0x9e37_79b9_7f4a_7c15));
            if assert_bit_identical(&mut fast, vars, &clauses).is_sat() {
                sat += 1;
            } else {
                unsat += 1;
            }
        }
        assert!(sat > 10 && unsat > 10, "{sat} sat / {unsat} unsat");
    }

    #[test]
    fn heap_solver_matches_the_linear_scan_on_pigeonholes_and_xor_chains() {
        let mut fast = SatSolver::new();
        for (pigeons, holes) in [(3, 2), (4, 3), (5, 4), (6, 5), (4, 4), (6, 6)] {
            assert_bit_identical(
                &mut fast,
                (pigeons * holes) as u32,
                &pigeonhole(pigeons, holes),
            );
        }
        for seed in 1..=20u64 {
            let n = 5 + seed as i32 * 3;
            assert_bit_identical(&mut fast, n as u32, &xor_chain(n, seed, seed % 2 == 0));
        }
    }

    #[test]
    fn heap_solver_matches_the_linear_scan_across_the_activity_rescale() {
        // var_inc grows by 1/0.95 per conflict and crosses 1e100 after about
        // 4,490 conflicts: past that, activities are rescaled and ties the
        // rescale creates must still resolve to the lowest index.
        let mut fast = SatSolver::new();
        assert_bit_identical(&mut fast, 56, &pigeonhole(8, 7));
        assert!(fast.conflicts > 4_500, "only {} conflicts", fast.conflicts);
    }

    #[test]
    fn heap_solver_matches_the_linear_scan_on_a_blasted_equivalence_query() {
        use crate::bitblast::BitBlaster;
        use crate::term::TermPool;
        let mut pool = TermPool::new();
        let x = pool.var("x", 12);
        let y = pool.var("y", 12);
        // x * y == y * x (UNSAT negation) and x * 3 == x << 2 (SAT).
        let xy = pool.mul(x, y);
        let yx = pool.mul(y, x);
        let commutes = pool.ne(xy, yx);
        let three = pool.constant(3, 12);
        let two = pool.constant(2, 12);
        let times3 = pool.mul(x, three);
        let shl2 = pool.shl(x, two);
        let differs = pool.ne(times3, shl2);
        let mut fast = SatSolver::new();
        for goal in [commutes, differs] {
            let mut blaster = BitBlaster::new();
            blaster.assert_true(&pool, goal);
            let clauses: Vec<Vec<i32>> = blaster.cnf.clauses().map(<[i32]>::to_vec).collect();
            assert_bit_identical(&mut fast, blaster.cnf.num_vars, &clauses);
        }
    }

    #[test]
    fn reset_forgets_the_previous_formula() {
        // A large UNSAT formula followed by a small SAT one on the same
        // solver: no clause, watch, activity or unsat flag may leak across.
        let mut s = solver(56, &pigeonhole(8, 7));
        assert_eq!(s.solve(), SatResult::Unsat);
        let clauses = vec![vec![1, 2], vec![-1]];
        s.reset(2);
        for clause in &clauses {
            s.add_clause(clause);
        }
        assert_eq!(s.solve(), SatResult::Sat(vec![false, false, true]));
        assert_eq!((s.conflicts, s.decisions), (0, 0));
    }

    #[test]
    fn rescale_ties_fall_back_to_index_order() {
        // Two activities one ulp apart that the 1e-100 rescale rounds to the
        // same value: before it, variable 2 outranks variable 1; after it,
        // they tie and the lower index must be picked first, as a scan does.
        let low = (0..)
            .map(|i| 1.0 + f64::from(i) * 1e-3)
            .find(|&x: &f64| x * 1e-100 == f64::from_bits(x.to_bits() + 1) * 1e-100)
            .expect("some pair rounds together");
        let mut s = SatSolver::new();
        s.reset(3);
        for (var, inc) in [(1, low), (2, f64::from_bits(low.to_bits() + 1)), (3, 2e100)] {
            s.var_inc = inc;
            s.bump_var(var);
        }
        assert_eq!(s.activity[1], s.activity[2]);
        let order: Vec<usize> = std::iter::from_fn(|| s.heap_pop()).collect();
        assert_eq!(order, vec![3, 1, 2]);
    }
}
