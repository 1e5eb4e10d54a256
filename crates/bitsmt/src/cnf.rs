//! CNF formula construction (Tseitin target).

/// A literal: a non-zero integer whose sign is the polarity and whose
/// absolute value is the variable index (DIMACS convention).
pub type Lit = i32;

/// A CNF formula under construction. The clauses' literals are stored back
/// to back in one buffer.
///
/// Equality and hashing cover the whole formula (variable count, every
/// literal, every clause boundary), so a CNF can key a
/// [`SolveMemo`](crate::SolveMemo) exactly.
#[derive(Debug, Default, Clone, PartialEq, Eq, Hash)]
pub struct CnfBuilder {
    /// Number of variables allocated so far (variables are `1..=num_vars`).
    pub num_vars: u32,
    lits: Vec<Lit>,
    /// End offset in `lits` of each clause.
    ends: Vec<usize>,
}

impl CnfBuilder {
    /// Create an empty formula.
    pub fn new() -> CnfBuilder {
        CnfBuilder::default()
    }

    /// Allocate a fresh variable and return its positive literal.
    pub fn fresh(&mut self) -> Lit {
        self.num_vars += 1;
        self.num_vars as Lit
    }

    /// Add a clause.
    pub fn add_clause(&mut self, lits: &[Lit]) {
        debug_assert!(lits
            .iter()
            .all(|&l| l != 0 && l.unsigned_abs() <= self.num_vars));
        self.lits.extend_from_slice(lits);
        self.ends.push(self.lits.len());
    }

    /// Add the empty clause, making the formula trivially unsatisfiable.
    pub fn add_contradiction(&mut self) {
        self.ends.push(self.lits.len());
    }

    /// Number of clauses so far.
    pub fn num_clauses(&self) -> usize {
        self.ends.len()
    }

    /// Bytes held by the literal buffer and the clause ends.
    pub(crate) fn bytes(&self) -> u64 {
        (self.lits.len() * std::mem::size_of::<Lit>()
            + self.ends.len() * std::mem::size_of::<usize>()) as u64
    }

    /// Release spare buffer capacity (before the formula is retained).
    pub(crate) fn shrink_to_fit(&mut self) {
        self.lits.shrink_to_fit();
        self.ends.shrink_to_fit();
    }

    /// The clauses, in the order they were added.
    pub fn clauses(&self) -> impl Iterator<Item = &[Lit]> + '_ {
        let starts = std::iter::once(0).chain(self.ends.iter().copied());
        starts
            .zip(&self.ends)
            .map(|(start, &end)| &self.lits[start..end])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_allocates_increasing_variables() {
        let mut cnf = CnfBuilder::new();
        assert_eq!(cnf.fresh(), 1);
        assert_eq!(cnf.fresh(), 2);
        assert_eq!(cnf.num_vars, 2);
        cnf.add_clause(&[1, -2]);
        cnf.add_clause(&[-1]);
        assert_eq!(cnf.num_clauses(), 2);
    }

    #[test]
    fn clauses_come_back_in_order_including_empty_ones() {
        let mut cnf = CnfBuilder::new();
        cnf.fresh();
        cnf.fresh();
        cnf.add_clause(&[1, -2]);
        cnf.add_contradiction();
        cnf.add_clause(&[2]);
        let clauses: Vec<&[Lit]> = cnf.clauses().collect();
        assert_eq!(clauses, vec![&[1, -2][..], &[][..], &[2][..]]);
    }
}
