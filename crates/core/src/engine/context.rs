//! The shared state chains exchange at epoch barriers.

use bpf_equiv::{EquivCache, SolveMemo};
use bpf_interp::ProgramInput;
use bpf_isa::Program;
use std::sync::Arc;

/// State shared by every chain of one compilation: the cross-chain
/// equivalence-verdict cache, the memo of solved formulas, the merged
/// counterexample pool, and the global best program.
///
/// The cache is read concurrently by all chains during an epoch but written
/// only at barriers (each chain publishes its private delta there), so
/// lookups are schedule-independent. The solve memo is read and written live
/// by every chain; it changes who pays for a solve, never a result, because
/// a solve is a pure function of its CNF. The pool and the global best are owned
/// exclusively by the orchestrator and touched only between epochs, in chain
/// order — no locking, no nondeterminism.
#[derive(Debug, Default)]
pub struct SearchContext {
    /// The cross-chain verdict cache (frozen during epochs).
    cache: Arc<EquivCache>,
    /// Every formula any chain's solver has decided, with its result.
    solve_memo: Arc<SolveMemo>,
    /// All counterexamples discovered so far, sorted and deduplicated.
    pool: Vec<ProgramInput>,
    /// The best equivalent-and-safe program any chain has found, with its
    /// performance cost.
    best: Option<(Program, f64)>,
}

impl SearchContext {
    /// Create an empty context.
    pub fn new() -> SearchContext {
        SearchContext::default()
    }

    /// Handle to the shared verdict cache.
    pub fn cache(&self) -> &Arc<EquivCache> {
        &self.cache
    }

    /// Handle to the compilation's memo of solved formulas.
    pub fn solve_memo(&self) -> &Arc<SolveMemo> {
        &self.solve_memo
    }

    /// Merge freshly discovered counterexamples into the pool. The pool is
    /// kept sorted and deduplicated, so the result is independent of the
    /// order in which chains deposited the inputs. Returns how many inputs
    /// were new.
    pub fn merge_counterexamples(&mut self, fresh: Vec<ProgramInput>) -> usize {
        if fresh.is_empty() {
            return 0;
        }
        let before = self.pool.len();
        self.pool.extend(fresh);
        self.pool.sort();
        self.pool.dedup();
        self.pool.len() - before
    }

    /// The merged counterexample pool (sorted, deduplicated).
    pub fn pool(&self) -> &[ProgramInput] {
        &self.pool
    }

    /// Offer a candidate for the global best. Only a strictly smaller cost
    /// replaces the incumbent — ties keep the earlier program, which makes
    /// the outcome deterministic when chains are visited in index order.
    /// Returns whether the global best improved.
    pub fn observe_best(&mut self, prog: &Program, cost: f64) -> bool {
        let improved = match &self.best {
            Some((_, incumbent)) => cost < *incumbent,
            None => true,
        };
        if improved {
            self.best = Some((prog.clone(), cost));
        }
        improved
    }

    /// The global best program and its cost, if any was observed.
    pub fn best(&self) -> Option<&(Program, f64)> {
        self.best.as_ref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bpf_isa::{asm, ProgramType};

    fn xdp(text: &str) -> Program {
        Program::new(ProgramType::Xdp, asm::assemble(text).unwrap())
    }

    #[test]
    fn pool_merge_is_order_independent() {
        let a = ProgramInput::with_packet(vec![1; 64]);
        let b = ProgramInput::with_packet(vec![2; 64]);
        let c = ProgramInput::with_packet(vec![3; 64]);

        let mut ctx1 = SearchContext::new();
        assert_eq!(ctx1.merge_counterexamples(vec![a.clone(), b.clone()]), 2);
        assert_eq!(ctx1.merge_counterexamples(vec![c.clone(), b.clone()]), 1);

        let mut ctx2 = SearchContext::new();
        assert_eq!(ctx2.merge_counterexamples(vec![b, c]), 2);
        assert_eq!(ctx2.merge_counterexamples(vec![a]), 1);

        assert_eq!(ctx1.pool(), ctx2.pool());
        assert_eq!(ctx1.pool().len(), 3);
    }

    #[test]
    fn global_best_only_improves_and_ties_keep_the_incumbent() {
        let mut ctx = SearchContext::new();
        let p1 = xdp("mov64 r0, 1\nexit");
        let p2 = xdp("mov64 r0, 2\nexit");
        assert!(ctx.observe_best(&p1, 5.0));
        assert!(!ctx.observe_best(&p2, 5.0), "tie must not replace");
        assert_eq!(ctx.best().unwrap().0.insns, p1.insns);
        assert!(ctx.observe_best(&p2, 4.0));
        assert_eq!(ctx.best().unwrap().1, 4.0);
        assert!(!ctx.observe_best(&p1, 4.5), "regression must not replace");
    }
}
