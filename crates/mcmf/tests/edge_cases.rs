//! Edge-case tests for the MCMF suite: degenerate graphs, parallel arcs,
//! zero capacities, large supplies, and repeated warm rounds — the inputs
//! a production scheduler will eventually feed its solver.

use firmament_flow::{FlowGraph, NodeKind};
use firmament_mcmf::incremental::IncrementalCostScaling;
use firmament_mcmf::verify::is_optimal;
use firmament_mcmf::{cost_scaling, cycle_canceling, relaxation, ssp, SolveError, SolveOptions};

type Solver = fn(&mut FlowGraph, &SolveOptions) -> Result<firmament_mcmf::Solution, SolveError>;

const SOLVERS: [(&str, Solver); 4] = [
    ("cycle_canceling", cycle_canceling::solve as Solver),
    ("ssp", ssp::solve as Solver),
    ("cost_scaling", cost_scaling::solve as Solver),
    ("relaxation", relaxation::solve as Solver),
];

#[test]
fn empty_graph_is_trivially_optimal() {
    for (name, solve) in SOLVERS {
        let mut g = FlowGraph::new();
        let sol = solve(&mut g, &SolveOptions::unlimited()).unwrap_or_else(|e| {
            panic!("{name} failed on empty graph: {e}");
        });
        assert_eq!(sol.objective, 0, "{name}");
    }
}

#[test]
fn zero_supply_graph_needs_no_flow() {
    for (name, solve) in SOLVERS {
        let mut g = FlowGraph::new();
        let a = g.add_node(NodeKind::Other { tag: 0 }, 0);
        let b = g.add_node(NodeKind::Other { tag: 1 }, 0);
        g.add_arc(a, b, 5, 3).unwrap();
        let sol = solve(&mut g, &SolveOptions::unlimited()).unwrap();
        assert_eq!(sol.objective, 0, "{name}");
    }
}

#[test]
fn parallel_arcs_cheapest_first() {
    for (name, solve) in SOLVERS {
        let mut g = FlowGraph::new();
        let s = g.add_node(NodeKind::Task { task: 0 }, 2);
        let t = g.add_node(NodeKind::Sink, -2);
        // Three parallel arcs with different costs; optimal uses the two
        // cheapest.
        g.add_arc(s, t, 1, 10).unwrap();
        g.add_arc(s, t, 1, 1).unwrap();
        g.add_arc(s, t, 1, 5).unwrap();
        let sol = solve(&mut g, &SolveOptions::unlimited()).unwrap();
        assert_eq!(sol.objective, 6, "{name}");
        assert!(is_optimal(&g), "{name}");
    }
}

#[test]
fn zero_capacity_arcs_are_ignored() {
    for (name, solve) in SOLVERS {
        let mut g = FlowGraph::new();
        let s = g.add_node(NodeKind::Task { task: 0 }, 1);
        let t = g.add_node(NodeKind::Sink, -1);
        g.add_arc(s, t, 0, 0).unwrap(); // free but useless
        g.add_arc(s, t, 1, 7).unwrap();
        let sol = solve(&mut g, &SolveOptions::unlimited()).unwrap();
        assert_eq!(sol.objective, 7, "{name}");
    }
}

#[test]
fn large_supplies_route_in_bulk() {
    for (name, solve) in SOLVERS {
        let mut g = FlowGraph::new();
        let s = g.add_node(NodeKind::Other { tag: 0 }, 10_000);
        let m = g.add_node(NodeKind::Other { tag: 1 }, 0);
        let t = g.add_node(NodeKind::Sink, -10_000);
        g.add_arc(s, m, 10_000, 1).unwrap();
        g.add_arc(m, t, 10_000, 2).unwrap();
        let sol = solve(&mut g, &SolveOptions::unlimited()).unwrap();
        assert_eq!(sol.objective, 30_000, "{name}");
    }
}

#[test]
fn all_solvers_reject_unbalanced_supplies() {
    for (name, solve) in SOLVERS {
        let mut g = FlowGraph::new();
        g.add_node(NodeKind::Task { task: 0 }, 3);
        g.add_node(NodeKind::Sink, -1);
        assert!(
            matches!(
                solve(&mut g, &SolveOptions::unlimited()),
                Err(SolveError::UnbalancedSupply { total: 2 })
            ),
            "{name}"
        );
    }
}

#[test]
fn disconnected_demand_is_infeasible_everywhere() {
    for (name, solve) in SOLVERS {
        let mut g = FlowGraph::new();
        let s = g.add_node(NodeKind::Task { task: 0 }, 1);
        let island = g.add_node(NodeKind::Sink, -1);
        let other = g.add_node(NodeKind::Other { tag: 0 }, 0);
        g.add_arc(s, other, 1, 1).unwrap(); // never reaches the island
        let _ = island;
        assert!(
            matches!(
                solve(&mut g, &SolveOptions::unlimited()),
                Err(SolveError::Infeasible)
            ),
            "{name}"
        );
    }
}

#[test]
fn negative_cost_chain_is_exploited() {
    // A negative-cost detour must be taken even though a direct arc exists.
    for (name, solve) in SOLVERS {
        let mut g = FlowGraph::new();
        let s = g.add_node(NodeKind::Task { task: 0 }, 1);
        let a = g.add_node(NodeKind::Other { tag: 0 }, 0);
        let t = g.add_node(NodeKind::Sink, -1);
        g.add_arc(s, t, 1, 0).unwrap();
        g.add_arc(s, a, 1, -4).unwrap();
        g.add_arc(a, t, 1, 1).unwrap();
        let sol = solve(&mut g, &SolveOptions::unlimited()).unwrap();
        assert_eq!(sol.objective, -3, "{name}");
        assert!(is_optimal(&g), "{name}");
    }
}

#[test]
fn warm_solver_survives_total_workload_turnover() {
    // Every original task leaves and a fresh set arrives: the warm state
    // must still produce the optimum of the brand-new problem.
    let mut g = FlowGraph::new();
    let sink = g.add_node(NodeKind::Sink, 0);
    let m0 = g.add_node(NodeKind::Machine { machine: 0 }, 0);
    let m1 = g.add_node(NodeKind::Machine { machine: 1 }, 0);
    g.add_arc(m0, sink, 2, 0).unwrap();
    g.add_arc(m1, sink, 2, 0).unwrap();
    let mut tasks = Vec::new();
    for i in 0..4u64 {
        let t = g.add_node(NodeKind::Task { task: i }, 1);
        g.add_arc(t, m0, 1, 1 + i as i64).unwrap();
        g.add_arc(t, m1, 1, 5 - i as i64).unwrap();
        tasks.push(t);
    }
    g.set_supply(sink, -4).unwrap();
    let mut inc = IncrementalCostScaling::default();
    inc.solve_with_deltas(&mut g, None, &SolveOptions::unlimited())
        .unwrap();
    assert!(is_optimal(&g));
    g.set_change_tracking(true);

    // Full turnover.
    for t in tasks {
        firmament_mcmf::incremental::drain_task_flow(&mut g, t);
        g.remove_node(t).unwrap();
    }
    g.set_supply(sink, 0).unwrap();
    for i in 10..13u64 {
        let t = g.add_node(NodeKind::Task { task: i }, 1);
        g.add_arc(t, m0, 1, (i % 3) as i64 + 1).unwrap();
        g.add_arc(t, m1, 1, 7).unwrap();
    }
    g.set_supply(sink, -3).unwrap();
    let batch = g.take_deltas();
    let warm = inc
        .solve_with_deltas(&mut g, Some(&batch), &SolveOptions::unlimited())
        .unwrap();
    assert!(is_optimal(&g));
    let mut fresh = g.clone();
    let scratch = cost_scaling::solve(&mut fresh, &SolveOptions::unlimited()).unwrap();
    assert_eq!(warm.objective, scratch.objective);
}

#[test]
fn ten_consecutive_warm_rounds_stay_exact() {
    use firmament_flow::testgen::{scheduling_instance, InstanceSpec};
    let mut inst = scheduling_instance(42, &InstanceSpec::default());
    let mut inc = IncrementalCostScaling::default();
    inc.solve_with_deltas(&mut inst.graph, None, &SolveOptions::unlimited())
        .unwrap();
    inst.graph.set_change_tracking(true);
    for round in 0..10 {
        let arcs: Vec<_> = inst.graph.arc_ids().collect();
        let a = arcs[(round * 13 + 5) % arcs.len()];
        let c = inst.graph.cost(a);
        inst.graph.set_arc_cost(a, (c * 3 + 7) % 120 + 1).unwrap();
        let batch = inst.graph.take_deltas();
        let warm = inc
            .solve_with_deltas(&mut inst.graph, Some(&batch), &SolveOptions::unlimited())
            .unwrap();
        let mut fresh = inst.graph.clone();
        let scratch = cost_scaling::solve(&mut fresh, &SolveOptions::unlimited()).unwrap();
        assert_eq!(warm.objective, scratch.objective, "round {round}");
        assert!(is_optimal(&inst.graph), "round {round}");
    }
}
