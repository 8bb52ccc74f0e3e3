//! Table 1 and Table 2 as code: worst-case complexities and per-iteration
//! preconditions of each MCMF algorithm.
//!
//! The preconditions explain which algorithms incrementalize well (§5.2):
//! cost scaling expects feasibility *and* ε-optimality before each internal
//! iteration, so graph changes that break either force it to redo
//! substantial work; relaxation only needs reduced cost optimality, which a
//! single saturation pass restores.

use crate::common::AlgorithmKind;

/// The per-iteration preconditions of an algorithm (Table 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Invariants {
    /// Requires the flow to be feasible before each internal iteration.
    pub feasibility: bool,
    /// Requires reduced cost optimality before each internal iteration.
    pub reduced_cost_optimality: bool,
    /// Requires ε-optimality before each internal iteration.
    pub eps_optimality: bool,
}

/// Returns the Table 2 row for an algorithm.
pub fn invariants(algorithm: AlgorithmKind) -> Invariants {
    match algorithm {
        AlgorithmKind::Relaxation => Invariants {
            feasibility: false,
            reduced_cost_optimality: true,
            eps_optimality: false,
        },
        AlgorithmKind::CycleCanceling => Invariants {
            feasibility: true,
            reduced_cost_optimality: false,
            eps_optimality: false,
        },
        AlgorithmKind::CostScaling | AlgorithmKind::IncrementalCostScaling => Invariants {
            feasibility: true,
            reduced_cost_optimality: false,
            eps_optimality: true,
        },
        AlgorithmKind::SuccessiveShortestPath => Invariants {
            feasibility: false,
            reduced_cost_optimality: true,
            eps_optimality: false,
        },
    }
}

/// Worst-case time complexity of an algorithm (Table 1), as a display
/// string in terms of `N` nodes, `M` arcs, largest cost `C`, and largest
/// capacity `U`.
pub fn worst_case_complexity(algorithm: AlgorithmKind) -> &'static str {
    match algorithm {
        AlgorithmKind::Relaxation => "O(M^3 C U^2)",
        AlgorithmKind::CycleCanceling => "O(N M^2 C U)",
        AlgorithmKind::CostScaling | AlgorithmKind::IncrementalCostScaling => "O(N^2 M log(N C))",
        AlgorithmKind::SuccessiveShortestPath => "O(N^2 U log(N))",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_matches_paper() {
        let relax = invariants(AlgorithmKind::Relaxation);
        assert!(!relax.feasibility && relax.reduced_cost_optimality && !relax.eps_optimality);
        let cc = invariants(AlgorithmKind::CycleCanceling);
        assert!(cc.feasibility && !cc.reduced_cost_optimality && !cc.eps_optimality);
        let cs = invariants(AlgorithmKind::CostScaling);
        assert!(cs.feasibility && !cs.reduced_cost_optimality && cs.eps_optimality);
        let ssp = invariants(AlgorithmKind::SuccessiveShortestPath);
        assert!(!ssp.feasibility && ssp.reduced_cost_optimality && !ssp.eps_optimality);
    }

    #[test]
    fn incremental_variants_share_preconditions() {
        assert_eq!(
            invariants(AlgorithmKind::CostScaling),
            invariants(AlgorithmKind::IncrementalCostScaling)
        );
    }

    #[test]
    fn table1_strings() {
        assert_eq!(
            worst_case_complexity(AlgorithmKind::Relaxation),
            "O(M^3 C U^2)"
        );
        assert_eq!(
            worst_case_complexity(AlgorithmKind::SuccessiveShortestPath),
            "O(N^2 U log(N))"
        );
    }
}
