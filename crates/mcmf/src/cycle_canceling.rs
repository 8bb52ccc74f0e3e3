//! Cycle canceling (Klein \[25\]): the simplest MCMF algorithm.
//!
//! The algorithm first computes a feasible (max-flow) solution, then
//! repeatedly augments flow along negative-cost directed cycles in the
//! residual network until none remain (negative cycle optimality, §4). Each
//! cycle is the one the crate's residual shortest-path search closes first
//! (see [`verify`](crate::verify)).
//! It always maintains feasibility and works towards optimality (Table 2).

use crate::common::{
    AlgorithmKind, Budget, BudgetStop, Solution, SolveError, SolveOptions, SolveStats,
};
use crate::maxflow::dinic_max_flow;
use crate::verify::residual_distances;
use firmament_flow::{FlowGraph, NodeId, NodeKind};

/// Solves min-cost max-flow by cycle canceling, leaving the optimal flow in
/// the graph.
///
/// # Examples
///
/// ```
/// use firmament_flow::testgen::{scheduling_instance, InstanceSpec};
/// use firmament_mcmf::{cycle_canceling, SolveOptions};
///
/// let mut inst = scheduling_instance(1, &InstanceSpec::default());
/// let sol = cycle_canceling::solve(&mut inst.graph, &SolveOptions::unlimited()).unwrap();
/// assert!(!sol.terminated_early);
/// ```
pub fn solve(graph: &mut FlowGraph, opts: &SolveOptions) -> Result<Solution, SolveError> {
    let mut budget = Budget::new(opts);
    let mut stats = SolveStats::default();
    let total: i64 = graph.node_ids().map(|v| graph.supply(v)).sum();
    if total != 0 {
        return Err(SolveError::UnbalancedSupply { total });
    }

    // Phase 1: a feasible flow via max flow from a super-source.
    graph.reset_flow();
    let was_tracking = graph.tracks_changes();
    graph.set_change_tracking(false);
    let supplies: Vec<(NodeId, i64)> = graph
        .node_ids()
        .map(|v| (v, graph.supply(v)))
        .filter(|&(_, s)| s != 0)
        .collect();
    let need: i64 = supplies
        .iter()
        .filter(|&&(_, s)| s > 0)
        .map(|&(_, s)| s)
        .sum();
    let ss = graph.add_node(NodeKind::Other { tag: u64::MAX }, 0);
    let tt = graph.add_node(NodeKind::Other { tag: u64::MAX - 1 }, 0);
    let mut helper_arcs = Vec::new();
    for &(v, s) in &supplies {
        let a = if s > 0 {
            graph.add_arc(ss, v, s, 0).expect("supply arc")
        } else {
            graph.add_arc(v, tt, -s, 0).expect("demand arc")
        };
        helper_arcs.push(a);
    }
    let value = dinic_max_flow(graph, ss, tt);
    // Remove the helpers but keep the feasible flow on the real arcs; the
    // helper arcs are saturated, so deleting them leaves exactly the
    // supply/demand imbalance the node supplies `b(i)` account for.
    graph.remove_node(ss).expect("super source");
    graph.remove_node(tt).expect("super sink");
    graph.set_change_tracking(was_tracking);
    if value != need {
        return Err(SolveError::Infeasible);
    }

    // Phase 2: cancel negative cycles until none remain.
    loop {
        match budget.tick() {
            Some(BudgetStop::Cancelled) => return Err(SolveError::Cancelled),
            Some(BudgetStop::Exhausted) => {
                return Ok(finish(graph, stats, budget, true));
            }
            None => {}
        }
        let Err(cycle) = residual_distances(graph, 1) else {
            return Ok(finish(graph, stats, budget, false));
        };
        let bottleneck = cycle
            .iter()
            .map(|&a| graph.rescap(a))
            .min()
            .expect("cycle is non-empty");
        debug_assert!(bottleneck > 0);
        for &a in &cycle {
            graph.push_flow(a, bottleneck);
        }
        stats.augmentations += 1;
    }
}

fn finish(graph: &FlowGraph, mut stats: SolveStats, budget: Budget, early: bool) -> Solution {
    stats.iterations = budget.iterations;
    Solution {
        algorithm: AlgorithmKind::CycleCanceling,
        objective: graph.objective(),
        terminated_early: early,
        runtime: budget.elapsed(),
        stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::is_optimal;
    use firmament_flow::builder::figure5;
    use firmament_flow::testgen::{scheduling_instance, InstanceSpec};

    #[test]
    fn solves_figure5() {
        let (mut g, _, _) = figure5();
        let sol = solve(&mut g, &SolveOptions::unlimited()).unwrap();
        assert!(!sol.terminated_early);
        assert!(is_optimal(&g), "cycle canceling must reach optimality");
        // Fig 5's optimal solution schedules 4 of 5 tasks; recomputing by
        // hand: T00→M0 (2), T02→M1 (1), T10→M2 (4), T11→M3 (2), T01
        // unscheduled (5) = 14.
        assert_eq!(sol.objective, 14);
    }

    #[test]
    fn solves_small_random_instances() {
        for seed in 0..3 {
            let spec = InstanceSpec {
                tasks: 20,
                machines: 8,
                ..InstanceSpec::default()
            };
            let mut inst = scheduling_instance(seed, &spec);
            let sol = solve(&mut inst.graph, &SolveOptions::unlimited()).unwrap();
            assert!(is_optimal(&inst.graph), "seed {seed}");
            assert_eq!(sol.objective, inst.graph.objective());
        }
    }

    #[test]
    fn unbalanced_supply_rejected() {
        let mut g = FlowGraph::new();
        g.add_node(NodeKind::Task { task: 0 }, 1);
        assert!(matches!(
            solve(&mut g, &SolveOptions::unlimited()),
            Err(SolveError::UnbalancedSupply { total: 1 })
        ));
    }

    #[test]
    fn infeasible_instance_detected() {
        let mut g = FlowGraph::new();
        let t = g.add_node(NodeKind::Task { task: 0 }, 2);
        let m = g.add_node(NodeKind::Machine { machine: 0 }, 0);
        let s = g.add_node(NodeKind::Sink, -2);
        g.add_arc(t, m, 2, 1).unwrap();
        g.add_arc(m, s, 1, 0).unwrap();
        assert!(matches!(
            solve(&mut g, &SolveOptions::unlimited()),
            Err(SolveError::Infeasible)
        ));
    }

    #[test]
    fn early_termination_keeps_feasibility() {
        // Cycle canceling is feasible at every step (Table 2), so stopping
        // early must still leave a feasible flow.
        let spec = InstanceSpec {
            tasks: 40,
            machines: 10,
            ..InstanceSpec::default()
        };
        let mut inst = scheduling_instance(9, &spec);
        let opts = SolveOptions {
            iteration_limit: Some(2),
            ..Default::default()
        };
        let sol = solve(&mut inst.graph, &opts).unwrap();
        if sol.terminated_early {
            assert!(firmament_flow::validate::check_feasible(&inst.graph).is_empty());
        }
    }
}
