//! Optimality verification for min-cost max-flow solutions.
//!
//! Implements the three equivalent optimality conditions of §4: negative
//! cycle optimality, reduced cost optimality, and complementary slackness
//! (with its ε-relaxation used by cost scaling).
//!
//! A flow is optimal exactly when shortest-path prices over its residual
//! network certify it. One crate-private search, `residual_distances`,
//! decides this for the whole crate: it returns those prices or a
//! negative-cost residual cycle. [`find_potentials`] reports its answer,
//! [`price_refine`](crate::price_refine::price_refine) takes its prices at
//! cost scaling's scale, [`canonicalize_flow`](crate::canonicalize_flow)
//! starts from its prices, and
//! [`cycle_canceling`](crate::cycle_canceling) cancels its cycles.

use firmament_flow::validate::check_feasible;
use firmament_flow::{ArcId, FlowGraph, NodeId};
use std::collections::VecDeque;

/// Result of [`find_potentials`]: either certifying potentials or a witness
/// that the flow is not optimal.
#[derive(Debug, Clone)]
pub enum OptimalityCheck {
    /// The flow is optimal; the potentials satisfy reduced-cost optimality
    /// (no residual arc has negative reduced cost).
    Optimal {
        /// Certifying node potentials, indexed by raw node index.
        potentials: Vec<i64>,
    },
    /// A negative-cost cycle exists in the residual network (condition 1
    /// fails), so the flow is not optimal.
    NegativeCycle {
        /// Residual arcs forming the cycle, in order.
        cycle: Vec<ArcId>,
    },
}

/// Computes certifying potentials, or finds a negative-cost residual
/// cycle (see the [module docs](self)).
pub fn find_potentials(graph: &FlowGraph) -> OptimalityCheck {
    match residual_distances(graph, 1) {
        Ok(potentials) => OptimalityCheck::Optimal { potentials },
        Err(cycle) => OptimalityCheck::NegativeCycle { cycle },
    }
}

/// Shortest-path distances over the residual network of the graph's
/// flow, each residual arc `a` weighted `scale · c(a)`: the one search
/// behind every optimality check in this crate.
///
/// Every node starts at distance 0, as if a virtual source reached it by a
/// zero-cost arc, and is queued first-in first-out in node order. Without
/// a negative-cost residual cycle the result is the greatest solution
/// `d ≤ 0` of `d(v) ≤ d(u) + scale·c(a)` over the residual arcs, a
/// function of the graph alone, and `π = d` certifies the flow:
/// `scale·c(a) + π(u) − π(v) ≥ 0` on every residual arc. A shortest path
/// that grows past `n` arcs can only close a negative cycle, so the search
/// stops there and returns that cycle's residual arcs, in order.
pub(crate) fn residual_distances(graph: &FlowGraph, scale: i64) -> Result<Vec<i64>, Vec<ArcId>> {
    let n = graph.node_bound();
    let mut dist = vec![0i64; n];
    let mut pred: Vec<Option<ArcId>> = vec![None; n];
    let mut len = vec![0u32; n];
    let mut in_queue = vec![false; n];
    let mut queue: VecDeque<u32> = graph
        .node_ids()
        .map(|v| {
            in_queue[v.index()] = true;
            v.index() as u32
        })
        .collect();
    while let Some(ui) = queue.pop_front() {
        let u = ui as usize;
        in_queue[u] = false;
        for &a in graph.adj(NodeId::from_index(u)) {
            if graph.rescap(a) <= 0 {
                continue;
            }
            let v = graph.dst(a).index();
            let nd = dist[u] + scale * graph.cost(a);
            if nd < dist[v] {
                dist[v] = nd;
                pred[v] = Some(a);
                len[v] = len[u] + 1;
                if len[v] as usize > n {
                    return Err(extract_cycle(graph, &pred, v));
                }
                if !in_queue[v] {
                    in_queue[v] = true;
                    queue.push_back(v as u32);
                }
            }
        }
    }
    Ok(dist)
}

/// Walks predecessor arcs back from `start` to extract a residual cycle.
fn extract_cycle(graph: &FlowGraph, pred: &[Option<ArcId>], start: usize) -> Vec<ArcId> {
    // Walk back n steps to guarantee we are inside the cycle.
    let mut v = start;
    for _ in 0..pred.len() {
        if let Some(a) = pred[v] {
            v = graph.src(a).index();
        }
    }
    let mut cycle = Vec::new();
    let anchor = v;
    loop {
        let a = pred[v].expect("cycle nodes have predecessors");
        cycle.push(a);
        v = graph.src(a).index();
        if v == anchor {
            break;
        }
    }
    cycle.reverse();
    cycle
}

/// Returns `true` if the flow currently in the graph is a feasible,
/// minimum-cost flow.
pub fn is_optimal(graph: &FlowGraph) -> bool {
    check_feasible(graph).is_empty() && residual_distances(graph, 1).is_ok()
}

/// Checks reduced-cost optimality for given potentials: no residual arc may
/// have `c^π_ij < 0` (optimality condition 2 of §4).
pub fn check_reduced_cost_optimality(graph: &FlowGraph, potentials: &[i64]) -> Result<(), ArcId> {
    check_eps_optimality(graph, potentials, 0)
}

/// Checks ε-optimality: every residual arc must have `c^π_ij ≥ −ε`
/// (the relaxed complementary slackness of cost scaling, §4).
///
/// Returns the first violating residual arc on failure.
pub fn check_eps_optimality(graph: &FlowGraph, potentials: &[i64], eps: i64) -> Result<(), ArcId> {
    for u in graph.node_ids() {
        for &a in graph.adj(u) {
            if graph.rescap(a) <= 0 {
                continue;
            }
            let v = graph.dst(a);
            let rc = graph.cost(a) + potentials[u.index()] - potentials[v.index()];
            if rc < -eps {
                return Err(a);
            }
        }
    }
    Ok(())
}

/// Computes the reduced cost of a residual arc for given potentials.
#[inline]
pub fn reduced_cost(graph: &FlowGraph, potentials: &[i64], arc: ArcId) -> i64 {
    graph.cost(arc) + potentials[graph.src(arc).index()] - potentials[graph.dst(arc).index()]
}

#[cfg(test)]
mod tests {
    use super::*;
    use firmament_flow::{FlowGraph, NodeKind};

    /// Two tasks, two machines; optimal assignment is obvious.
    fn two_by_two() -> (FlowGraph, Vec<ArcId>) {
        let mut g = FlowGraph::new();
        let t0 = g.add_node(NodeKind::Task { task: 0 }, 1);
        let t1 = g.add_node(NodeKind::Task { task: 1 }, 1);
        let m0 = g.add_node(NodeKind::Machine { machine: 0 }, 0);
        let m1 = g.add_node(NodeKind::Machine { machine: 1 }, 0);
        let s = g.add_node(NodeKind::Sink, -2);
        let a = vec![
            g.add_arc(t0, m0, 1, 1).unwrap(),
            g.add_arc(t0, m1, 1, 5).unwrap(),
            g.add_arc(t1, m0, 1, 6).unwrap(),
            g.add_arc(t1, m1, 1, 2).unwrap(),
            g.add_arc(m0, s, 1, 0).unwrap(),
            g.add_arc(m1, s, 1, 0).unwrap(),
        ];
        (g, a)
    }

    #[test]
    fn optimal_flow_is_certified() {
        let (mut g, a) = two_by_two();
        g.push_flow(a[0], 1);
        g.push_flow(a[3], 1);
        g.push_flow(a[4], 1);
        g.push_flow(a[5], 1);
        assert!(is_optimal(&g));
        match find_potentials(&g) {
            OptimalityCheck::Optimal { potentials } => {
                assert!(check_reduced_cost_optimality(&g, &potentials).is_ok());
            }
            OptimalityCheck::NegativeCycle { .. } => panic!("flow is optimal"),
        }
    }

    #[test]
    fn suboptimal_flow_yields_negative_cycle() {
        let (mut g, a) = two_by_two();
        // The bad assignment: t0→m1 (5), t1→m0 (6), total 11 instead of 3.
        g.push_flow(a[1], 1);
        g.push_flow(a[2], 1);
        g.push_flow(a[4], 1);
        g.push_flow(a[5], 1);
        match find_potentials(&g) {
            OptimalityCheck::NegativeCycle { cycle } => {
                assert!(!cycle.is_empty());
                // The cycle's total cost must be negative.
                let total: i64 = cycle.iter().map(|&x| g.cost(x)).sum();
                assert!(total < 0, "cycle cost {total}");
            }
            OptimalityCheck::Optimal { .. } => panic!("flow is suboptimal"),
        }
        assert!(!is_optimal(&g));
    }

    #[test]
    fn infeasible_flow_is_not_optimal() {
        let (g, _) = two_by_two();
        // No flow at all: infeasible, hence not optimal.
        assert!(!is_optimal(&g));
    }

    #[test]
    fn eps_optimality_tolerates_small_violations() {
        let (mut g, a) = two_by_two();
        g.push_flow(a[1], 1); // rc of a[1].sister() will be -5 with π = 0
        let pot = vec![0i64; g.node_bound()];
        assert!(check_eps_optimality(&g, &pot, 5).is_ok());
        assert!(check_eps_optimality(&g, &pot, 4).is_err());
    }

    /// The Bellman–Ford rounds `canonicalize_flow` ran before it shared
    /// [`residual_distances`], kept as a reference: every node starts at 0
    /// and each round relaxes every residual arc in node order. `None` when
    /// `n + 1` rounds reach no fixpoint, which means a negative cycle.
    fn reference_distances(graph: &FlowGraph, scale: i64) -> Option<Vec<i64>> {
        let n = graph.node_bound();
        let mut d = vec![0i64; n];
        let mut changed = true;
        let mut rounds = 0usize;
        while changed {
            changed = false;
            rounds += 1;
            if rounds > n + 1 {
                return None;
            }
            for u in graph.node_ids() {
                let du = d[u.index()];
                for &a in graph.adj(u) {
                    if graph.rescap(a) > 0 {
                        let v = graph.dst(a);
                        let nd = du + scale * graph.cost(a);
                        if nd < d[v.index()] {
                            d[v.index()] = nd;
                            changed = true;
                        }
                    }
                }
            }
        }
        Some(d)
    }

    /// Checks the routine against the reference on `graph` at `scale`:
    /// equal distances, a cycle exactly when the reference reaches no
    /// fixpoint, and every cycle residual, closed and of negative cost.
    /// Returns whether a cycle was found.
    fn matches_reference(graph: &FlowGraph, scale: i64, case: &str) -> bool {
        match (
            residual_distances(graph, scale),
            reference_distances(graph, scale),
        ) {
            (Ok(d), Some(reference)) => {
                assert_eq!(d, reference, "{case}: distances");
                false
            }
            (Err(cycle), None) => {
                assert!(!cycle.is_empty(), "{case}");
                for (i, &a) in cycle.iter().enumerate() {
                    assert!(graph.rescap(a) > 0, "{case}: arc {a} is not residual");
                    let next = cycle[(i + 1) % cycle.len()];
                    assert_eq!(graph.dst(a), graph.src(next), "{case}: cycle breaks");
                }
                let cost: i64 = cycle.iter().map(|&a| scale * graph.cost(a)).sum();
                assert!(cost < 0, "{case}: cycle cost {cost}");
                true
            }
            (Ok(_), None) => panic!("{case}: the reference found a negative cycle"),
            (Err(_), Some(_)) => panic!("{case}: the reference reached a fixpoint"),
        }
    }

    /// The one residual shortest-path routine agrees with the reference on
    /// optimal flows (from cost scaling) and on feasible, mostly
    /// non-optimal flows (cycle canceling stopped after 1, 2, 5 and 20
    /// iterations), at scale 1 and at larger scales.
    #[test]
    fn residual_distances_match_bellman_ford_rounds() {
        use crate::common::SolveOptions;
        use firmament_flow::testgen::{scheduling_instance, InstanceSpec};
        let specs = [
            InstanceSpec::default(),
            InstanceSpec {
                tasks: 90,
                machines: 10,
                ..InstanceSpec::default()
            },
            InstanceSpec {
                tasks: 40,
                machines: 12,
                prefs_per_task: 4,
                cluster_aggregator: false,
                ..InstanceSpec::default()
            },
        ];
        let scales = [1, 7, 64, 1024];
        let mut cycles = 0;
        for (k, spec) in specs.iter().enumerate() {
            for seed in 0..15 {
                let mut g = scheduling_instance(seed, spec).graph;
                crate::cost_scaling::solve(&mut g, &SolveOptions::unlimited()).unwrap();
                for scale in scales {
                    let case = format!("spec {k} seed {seed} optimal, scale {scale}");
                    assert!(!matches_reference(&g, scale, &case), "{case}");
                }
                for limit in [1, 2, 5, 20] {
                    let mut g = scheduling_instance(seed, spec).graph;
                    let opts = SolveOptions {
                        iteration_limit: Some(limit),
                        ..SolveOptions::default()
                    };
                    crate::cycle_canceling::solve(&mut g, &opts).unwrap();
                    for scale in scales {
                        let case = format!("spec {k} seed {seed} limit {limit}, scale {scale}");
                        cycles += usize::from(matches_reference(&g, scale, &case));
                    }
                }
            }
        }
        assert!(
            cycles >= 600,
            "only {cycles} of 720 stopped flows were not optimal"
        );
    }

    #[test]
    fn reduced_cost_formula() {
        let (g, a) = two_by_two();
        let mut pot = vec![0i64; g.node_bound()];
        pot[g.src(a[0]).index()] = 3;
        pot[g.dst(a[0]).index()] = 1;
        assert_eq!(reduced_cost(&g, &pot, a[0]), 1 + 3 - 1);
    }
}
