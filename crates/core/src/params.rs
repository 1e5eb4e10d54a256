//! Search parameter settings (paper §8 and Appendix F.1, Table 8) and the
//! engine-level knobs controlling epochs, cross-chain sharing, convergence
//! and the batch worker pool.

use crate::cost::{CostSettings, DiffMetric, ErrorNormalization, TestCountMode};
use crate::proposals::RuleProbabilities;
use bpf_interp::BackendKind;
use serde::{Deserialize, Serialize};

/// Configuration of the epoch-based search engine: how chains are scheduled,
/// what state they share at barriers, and when the search stops early.
///
/// This struct holds *resolved* values. Every knob still has an
/// environment-variable override (`K2_EPOCHS`, `K2_SHARED_CACHE`,
/// `K2_EXCHANGE_CEX`, `K2_RESTART_FROM_BEST`, `K2_STALL_EPOCHS`,
/// `K2_TIME_BUDGET_MS`, `K2_BATCH_WORKERS`), but the environment is read in
/// exactly one place — the `k2::api` configuration layering
/// (defaults → config file → environment → builder overrides) — not by the
/// engine itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineConfig {
    /// Number of epochs the iteration budget is split into. Chains
    /// synchronize (exchange caches, counterexamples and the global best) at
    /// the barrier after each epoch. `1` reproduces fully independent chains.
    pub num_epochs: u64,
    /// Share one cross-chain equivalence-verdict cache: chains read a frozen
    /// shared layer during an epoch and publish their private deltas at the
    /// barrier, so a verdict any chain proved is never re-proved elsewhere.
    pub shared_cache: bool,
    /// Merge all chains' SAT counterexamples at each barrier (sorted,
    /// deduplicated) and grow every chain's test suite from the pool.
    pub exchange_counterexamples: bool,
    /// At each barrier, restart chains whose best is strictly worse than the
    /// global best from the global best program.
    pub restart_from_best: bool,
    /// Stop early when no chain has improved the global best for this many
    /// consecutive epochs. `None` always runs the full budget.
    pub stall_epochs: Option<u64>,
    /// Wall-clock budget for one compilation, checked at epoch barriers.
    /// `None` means unbounded. Note that enabling it trades determinism for
    /// punctuality: how many epochs fit in the budget depends on machine
    /// speed (the best-so-far invariant still holds on early exit).
    pub time_budget_ms: Option<u64>,
    /// Worker threads for [`crate::engine::run_batch`];
    /// `0` means one per available CPU (capped by the number of jobs).
    pub batch_workers: usize,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            num_epochs: 4,
            shared_cache: true,
            exchange_counterexamples: true,
            restart_from_best: false,
            stall_epochs: None,
            time_budget_ms: None,
            batch_workers: 0,
        }
    }
}

impl EngineConfig {
    /// A configuration with all cross-chain sharing disabled and a single
    /// epoch: every chain runs exactly as it would in isolation (the
    /// pre-engine behaviour, and the "per-chain caches" baseline in
    /// `BENCH_engine.json`).
    pub fn isolated() -> EngineConfig {
        EngineConfig {
            num_epochs: 1,
            shared_cache: false,
            exchange_counterexamples: false,
            restart_from_best: false,
            ..EngineConfig::default()
        }
    }
}

/// One complete parameterization of a Markov chain: the cost-function variant
/// plus the proposal-rule probabilities.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SearchParams {
    /// Identifier (1-based, matching Table 8 where applicable).
    pub id: usize,
    /// Cost-function settings (error-cost variant and weights).
    pub cost: CostSettings,
    /// Proposal-rule probabilities.
    pub rules: RuleProbabilities,
}

impl SearchParams {
    /// The five best-performing settings reported in Table 8.
    pub fn table8() -> Vec<SearchParams> {
        let base_rules =
            |ir: f64, or_: f64, nr: f64, me1: f64, me2: f64, cir: f64| RuleProbabilities {
                replace_insn: ir,
                replace_operand: or_,
                replace_nop: nr,
                mem_exchange_1: me1,
                mem_exchange_2: me2,
                replace_contiguous: cir,
            };
        vec![
            SearchParams {
                id: 1,
                cost: CostSettings {
                    diff: DiffMetric::Abs,
                    normalization: ErrorNormalization::Full,
                    test_count: TestCountMode::Failed,
                    alpha: 0.5,
                    beta: 5.0,
                    gamma: 1.0,
                    backend: BackendKind::Auto,
                    window_verification: true,
                    refute_inputs: 64,
                },
                rules: base_rules(0.2, 0.4, 0.15, 0.2, 0.0, 0.05),
            },
            SearchParams {
                id: 2,
                cost: CostSettings {
                    diff: DiffMetric::Popcount,
                    normalization: ErrorNormalization::Full,
                    test_count: TestCountMode::Failed,
                    alpha: 0.5,
                    beta: 5.0,
                    gamma: 1.0,
                    backend: BackendKind::Auto,
                    window_verification: true,
                    refute_inputs: 64,
                },
                rules: base_rules(0.17, 0.33, 0.15, 0.17, 0.0, 0.18),
            },
            SearchParams {
                id: 3,
                cost: CostSettings {
                    diff: DiffMetric::Popcount,
                    normalization: ErrorNormalization::Full,
                    test_count: TestCountMode::Passed,
                    alpha: 0.5,
                    beta: 5.0,
                    gamma: 1.0,
                    backend: BackendKind::Auto,
                    window_verification: true,
                    refute_inputs: 64,
                },
                rules: base_rules(0.2, 0.4, 0.15, 0.2, 0.0, 0.05),
            },
            SearchParams {
                id: 4,
                cost: CostSettings {
                    diff: DiffMetric::Abs,
                    normalization: ErrorNormalization::Full,
                    test_count: TestCountMode::Failed,
                    alpha: 0.5,
                    beta: 5.0,
                    gamma: 1.0,
                    backend: BackendKind::Auto,
                    window_verification: true,
                    refute_inputs: 64,
                },
                rules: base_rules(0.17, 0.33, 0.15, 0.0, 0.17, 0.18),
            },
            SearchParams {
                id: 5,
                cost: CostSettings {
                    diff: DiffMetric::Abs,
                    normalization: ErrorNormalization::Average,
                    test_count: TestCountMode::Passed,
                    alpha: 0.5,
                    beta: 1.5,
                    gamma: 1.0,
                    backend: BackendKind::Auto,
                    window_verification: true,
                    refute_inputs: 64,
                },
                rules: base_rules(0.17, 0.33, 0.15, 0.0, 0.17, 0.18),
            },
        ]
    }

    /// The full 16-setting sweep the paper runs in parallel: the cross
    /// product of diff metric, normalization, and test-count mode, over two
    /// rule mixes.
    pub fn full_sweep() -> Vec<SearchParams> {
        let mut out = Vec::new();
        let mut id = 1;
        for diff in [DiffMetric::Abs, DiffMetric::Popcount] {
            for normalization in [ErrorNormalization::Full, ErrorNormalization::Average] {
                for test_count in [TestCountMode::Failed, TestCountMode::Passed] {
                    for rules in [
                        RuleProbabilities::default(),
                        RuleProbabilities {
                            replace_insn: 0.17,
                            replace_operand: 0.33,
                            replace_nop: 0.15,
                            mem_exchange_1: 0.0,
                            mem_exchange_2: 0.17,
                            replace_contiguous: 0.18,
                        },
                    ] {
                        out.push(SearchParams {
                            id,
                            cost: CostSettings {
                                diff,
                                normalization,
                                test_count,
                                alpha: 0.5,
                                beta: 5.0,
                                gamma: 1.0,
                                backend: BackendKind::Auto,
                                window_verification: true,
                                refute_inputs: 64,
                            },
                            rules,
                        });
                        id += 1;
                    }
                }
            }
        }
        out
    }
}

impl Default for SearchParams {
    fn default() -> Self {
        SearchParams::table8().remove(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table8_has_five_settings() {
        let settings = SearchParams::table8();
        assert_eq!(settings.len(), 5);
        // Probabilities of each setting sum to 1 (within rounding).
        for s in &settings {
            let sum = s.rules.sum();
            assert!((sum - 1.0).abs() < 1e-6, "setting {} sums to {sum}", s.id);
        }
    }

    #[test]
    fn engine_config_defaults_share_state_across_epochs() {
        let cfg = EngineConfig::default();
        assert!(cfg.num_epochs > 1);
        assert!(cfg.shared_cache);
        assert!(cfg.exchange_counterexamples);
        assert_eq!(cfg.stall_epochs, None);
        assert_eq!(cfg.time_budget_ms, None);
        let isolated = EngineConfig::isolated();
        assert_eq!(isolated.num_epochs, 1);
        assert!(!isolated.shared_cache);
        assert!(!isolated.exchange_counterexamples);
    }

    #[test]
    fn full_sweep_has_sixteen_settings() {
        let sweep = SearchParams::full_sweep();
        assert_eq!(sweep.len(), 16);
        let ids: Vec<usize> = sweep.iter().map(|s| s.id).collect();
        assert_eq!(ids, (1..=16).collect::<Vec<_>>());
    }
}
