//! Price refine (Goldberg \[17\]): canonical prices for an optimal flow.
//!
//! Given an optimal flow, price refine computes *minimal-magnitude* node
//! prices that satisfy complementary slackness without modifying the flow.
//! Firmament applies it when handing the relaxation algorithm's solution to
//! incremental cost scaling (§6.2): relaxation converges on potentials that
//! fit cost scaling's complementary slackness requirement poorly, and
//! re-pricing speeds up the subsequent incremental run by ~4× (Fig 13).
//!
//! Crucially, Firmament applies price refine on the *previous* solution
//! before applying the latest cluster changes — the previous solution is
//! optimal, so canonical prices always exist — and then lets incremental
//! cost scaling start at an ε equal to the costliest arc change.

use firmament_flow::{FlowGraph, NodeId};
use std::collections::VecDeque;

/// Computes canonical prices (shortest-path distances over the residual
/// network, negated into price space) certifying that the current flow is
/// optimal, *in scaled cost units* (`scale · c(a)`).
///
/// Returns `None` if the flow is not optimal (a negative-cost residual cycle
/// exists), in which case prices cannot be assigned without changing flow.
pub fn price_refine(graph: &FlowGraph, scale: i64) -> Option<Vec<i64>> {
    let n = graph.node_bound();
    let mut dist = vec![0i64; n];
    let mut in_queue = vec![false; n];
    let mut len = vec![0u32; n];
    let mut queue: VecDeque<u32> = VecDeque::new();
    for v in graph.node_ids() {
        in_queue[v.index()] = true;
        queue.push_back(v.index() as u32);
    }
    while let Some(ui) = queue.pop_front() {
        in_queue[ui as usize] = false;
        let u = NodeId::from_index(ui as usize);
        if !graph.node_alive(u) {
            continue;
        }
        for &a in graph.adj(u) {
            if graph.rescap(a) <= 0 {
                continue;
            }
            let v = graph.dst(a);
            let nd = dist[ui as usize] + scale * graph.cost(a);
            if nd < dist[v.index()] {
                dist[v.index()] = nd;
                len[v.index()] = len[ui as usize] + 1;
                if len[v.index()] as usize > n {
                    // Negative cycle: the flow is not optimal.
                    return None;
                }
                if !in_queue[v.index()] {
                    in_queue[v.index()] = true;
                    queue.push_back(v.index() as u32);
                }
            }
        }
    }
    // π(i) = dist(i) yields rc(a) = scale·c(a) + dist(u) − dist(v) ≥ 0 by
    // the shortest-path triangle inequality, i.e. complementary slackness.
    Some(dist)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::SolveOptions;
    use firmament_flow::testgen::{scheduling_instance, InstanceSpec};

    #[test]
    fn refined_prices_certify_optimality() {
        let mut inst = scheduling_instance(2, &InstanceSpec::default());
        crate::relaxation::solve(&mut inst.graph, &SolveOptions::unlimited()).unwrap();
        let prices = price_refine(&inst.graph, 1).expect("flow is optimal");
        assert!(crate::verify::check_reduced_cost_optimality(&inst.graph, &prices).is_ok());
    }

    #[test]
    fn refined_prices_are_smaller_than_relaxations() {
        // The whole point of price refine: relaxation's potentials work but
        // are unnecessarily large; canonical prices are bounded by the
        // longest shortest path.
        let mut inst = scheduling_instance(4, &InstanceSpec::default());
        let mut work = crate::relaxation::Workspace::default();
        crate::relaxation::attempt_within(
            &mut inst.graph,
            &SolveOptions::unlimited(),
            &crate::relaxation::RelaxationConfig::default(),
            u64::MAX,
            &mut work,
        )
        .unwrap();
        let max_relaxation = work.prices().iter().map(|p| p.abs()).max().unwrap_or(0);
        let refined = price_refine(&inst.graph, 1).expect("optimal");
        let max_refined = refined.iter().map(|p| p.abs()).max().unwrap_or(0);
        let max_cost = inst.graph.max_cost();
        // Canonical prices are bounded by n · C in the worst case, but on
        // scheduling graphs the longest residual shortest path is a few
        // hops, so prices stay within a small multiple of C.
        assert!(
            max_refined <= 4 * max_cost,
            "refined prices too large: {max_refined} vs C={max_cost}"
        );
        assert!(
            max_refined <= max_relaxation,
            "refined {max_refined} vs relaxation's {max_relaxation}"
        );
    }

    #[test]
    fn non_optimal_flow_is_rejected() {
        let mut inst = scheduling_instance(6, &InstanceSpec::default());
        // Force a deliberately bad (but feasible) flow: schedule every task
        // through the unscheduled aggregator at high cost.
        let g = &mut inst.graph;
        let tasks = inst.tasks.clone();
        for t in tasks {
            let to_unsched = g
                .adj(t)
                .iter()
                .copied()
                .find(|&a| g.dst(a) == inst.unscheduled)
                .unwrap();
            g.push_flow(to_unsched, 1);
        }
        let unsched_sink = g
            .adj(inst.unscheduled)
            .iter()
            .copied()
            .find(|&a| g.dst(a) == inst.sink && g.capacity(a) > 0 && a.is_forward())
            .unwrap();
        g.push_flow(unsched_sink, inst.tasks.len() as i64);
        assert!(
            firmament_flow::validate::check_feasible(g).is_empty(),
            "constructed flow must be feasible"
        );
        assert!(price_refine(g, 1).is_none(), "flow is clearly suboptimal");
    }

    #[test]
    fn scaled_prices_certify_scaled_optimality() {
        let mut inst = scheduling_instance(8, &InstanceSpec::default());
        crate::relaxation::solve(&mut inst.graph, &SolveOptions::unlimited()).unwrap();
        let scale = 64;
        let prices = price_refine(&inst.graph, scale).expect("optimal");
        for u in inst.graph.node_ids() {
            for &a in inst.graph.adj(u) {
                if inst.graph.rescap(a) > 0 {
                    let v = inst.graph.dst(a);
                    let rc = scale * inst.graph.cost(a) + prices[u.index()] - prices[v.index()];
                    assert!(rc >= 0, "scaled reduced cost {rc} < 0");
                }
            }
        }
    }
}
