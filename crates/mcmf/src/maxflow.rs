//! Dinic's blocking-flow max-flow algorithm.
//!
//! Used by [cycle canceling](crate::cycle_canceling) to establish an initial
//! feasible flow, and by tests to check instance feasibility.

use firmament_flow::{ArcId, FlowGraph, NodeId};
use std::collections::VecDeque;

/// Computes a maximum flow from `source` to `sink` on the graph's residual
/// network, mutating flow state in place, and returns the flow value.
///
/// Costs are ignored. Capacities and any pre-existing flow are respected.
pub fn dinic_max_flow(graph: &mut FlowGraph, source: NodeId, sink: NodeId) -> i64 {
    let n = graph.node_bound();
    let mut level = vec![-1i32; n];
    let mut iter = vec![0usize; n];
    let mut total = 0i64;
    loop {
        // BFS to build the level graph.
        for l in level.iter_mut() {
            *l = -1;
        }
        level[source.index()] = 0;
        let mut q = VecDeque::new();
        q.push_back(source);
        while let Some(u) = q.pop_front() {
            for &a in graph.adj(u) {
                let v = graph.dst(a);
                if graph.rescap(a) > 0 && level[v.index()] < 0 {
                    level[v.index()] = level[u.index()] + 1;
                    q.push_back(v);
                }
            }
        }
        if level[sink.index()] < 0 {
            return total;
        }
        for it in iter.iter_mut() {
            *it = 0;
        }
        // Repeated DFS for augmenting paths within the level graph.
        loop {
            let pushed = dfs(graph, source, sink, i64::MAX, &level, &mut iter);
            if pushed == 0 {
                break;
            }
            total += pushed;
        }
    }
}

/// Iterative DFS that finds one augmenting path in the level graph and
/// pushes the bottleneck along it.
fn dfs(
    graph: &mut FlowGraph,
    source: NodeId,
    sink: NodeId,
    limit: i64,
    level: &[i32],
    iter: &mut [usize],
) -> i64 {
    // Explicit stack of (node, arc taken to get here).
    let mut path: Vec<ArcId> = Vec::new();
    let mut u = source;
    loop {
        if u == sink {
            let mut bottleneck = limit;
            for &a in &path {
                bottleneck = bottleneck.min(graph.rescap(a));
            }
            for &a in &path {
                graph.push_flow(a, bottleneck);
            }
            return bottleneck;
        }
        let adj = graph.adj(u);
        let mut advanced = false;
        while iter[u.index()] < adj.len() {
            let a = adj[iter[u.index()]];
            let v = graph.dst(a);
            if graph.rescap(a) > 0 && level[v.index()] == level[u.index()] + 1 {
                path.push(a);
                u = v;
                advanced = true;
                break;
            }
            iter[u.index()] += 1;
        }
        if advanced {
            continue;
        }
        // Dead end: retreat.
        if u == source {
            return 0;
        }
        let a = path.pop().expect("non-source dead end has a path");
        u = graph.src(a);
        iter[u.index()] += 1;
    }
}

/// Returns `true` if all positive supply can be routed to the negative
/// supplies, by running max flow from a temporary super-source to a
/// temporary super-sink. The graph's flow state is reset.
pub fn is_feasible(graph: &mut FlowGraph) -> bool {
    graph.reset_flow();
    let was_tracking = graph.tracks_changes();
    graph.set_change_tracking(false);
    let supplies: Vec<(NodeId, i64)> = graph
        .node_ids()
        .map(|v| (v, graph.supply(v)))
        .filter(|&(_, s)| s != 0)
        .collect();
    let total_pos: i64 = supplies
        .iter()
        .filter(|&&(_, s)| s > 0)
        .map(|&(_, s)| s)
        .sum();
    let ss = graph.add_node(firmament_flow::NodeKind::Other { tag: u64::MAX }, 0);
    let tt = graph.add_node(firmament_flow::NodeKind::Other { tag: u64::MAX - 1 }, 0);
    for &(v, s) in &supplies {
        if s > 0 {
            graph.add_arc(ss, v, s, 0).expect("supply arc");
        } else {
            graph.add_arc(v, tt, -s, 0).expect("demand arc");
        }
    }
    let value = dinic_max_flow(graph, ss, tt);
    graph.remove_node(ss).expect("super source");
    graph.remove_node(tt).expect("super sink");
    graph.reset_flow();
    graph.set_change_tracking(was_tracking);
    value == total_pos
}

#[cfg(test)]
mod tests {
    use super::*;
    use firmament_flow::testgen::{scheduling_instance, InstanceSpec};
    use firmament_flow::NodeKind;

    #[test]
    fn simple_max_flow() {
        let mut g = FlowGraph::new();
        let s = g.add_node(NodeKind::Other { tag: 0 }, 0);
        let a = g.add_node(NodeKind::Other { tag: 1 }, 0);
        let b = g.add_node(NodeKind::Other { tag: 2 }, 0);
        let t = g.add_node(NodeKind::Other { tag: 3 }, 0);
        g.add_arc(s, a, 3, 0).unwrap();
        g.add_arc(s, b, 2, 0).unwrap();
        g.add_arc(a, t, 2, 0).unwrap();
        g.add_arc(b, t, 3, 0).unwrap();
        g.add_arc(a, b, 5, 0).unwrap();
        assert_eq!(dinic_max_flow(&mut g, s, t), 5);
    }

    #[test]
    fn bottleneck_limits_flow() {
        let mut g = FlowGraph::new();
        let s = g.add_node(NodeKind::Other { tag: 0 }, 0);
        let m = g.add_node(NodeKind::Other { tag: 1 }, 0);
        let t = g.add_node(NodeKind::Other { tag: 2 }, 0);
        g.add_arc(s, m, 10, 0).unwrap();
        g.add_arc(m, t, 4, 0).unwrap();
        assert_eq!(dinic_max_flow(&mut g, s, t), 4);
    }

    #[test]
    fn generated_instances_are_feasible() {
        for seed in 0..5 {
            let mut inst = scheduling_instance(seed, &InstanceSpec::default());
            assert!(is_feasible(&mut inst.graph), "seed {seed}");
        }
    }

    #[test]
    fn infeasible_when_sink_unreachable() {
        let mut g = FlowGraph::new();
        let t = g.add_node(NodeKind::Task { task: 0 }, 2);
        let m = g.add_node(NodeKind::Machine { machine: 0 }, 0);
        let s = g.add_node(NodeKind::Sink, -2);
        g.add_arc(t, m, 2, 0).unwrap();
        g.add_arc(m, s, 1, 0).unwrap(); // only one slot for two tasks
        assert!(!is_feasible(&mut g));
    }

    /// Both feasibility helpers pause a tracked graph's change log around
    /// their scratch nodes and arcs, so a pending batch comes back as it
    /// was: same change count, same deltas, same adjacency.
    #[test]
    fn feasibility_checks_keep_the_pending_batch() {
        for seed in 0..5 {
            let mut g = scheduling_instance(seed, &InstanceSpec::default()).graph;
            g.set_change_tracking(true);
            let arcs: Vec<_> = g.arc_ids().collect();
            let (a, b, c) = (arcs[0], arcs[arcs.len() / 2], arcs[arcs.len() - 1]);
            g.set_arc_cost(a, g.cost(a) + 3).unwrap();
            g.set_arc_capacity(b, g.capacity(b) + 1).unwrap();
            let (src, dst) = (g.src(c), g.dst(c));
            g.remove_arc(c).unwrap();
            let n = g.add_node(NodeKind::Other { tag: seed }, 0);
            g.add_arc(src, n, 1, 0).unwrap();
            g.add_arc(n, dst, 1, 0).unwrap();
            assert!(g.pending_changes() > 0);
            let twin = g.clone();

            assert!(is_feasible(&mut g), "seed {seed}");
            let mut solved = twin.clone();
            crate::cycle_canceling::solve(&mut solved, &crate::SolveOptions::unlimited()).unwrap();
            for (helper, mut h) in [("is_feasible", g), ("cycle_canceling", solved)] {
                let at = format!("seed {seed}, {helper}");
                let mut twin = twin.clone();
                assert_eq!(h.pending_changes(), twin.pending_changes(), "{at}");
                assert!(h.node_ids().eq(twin.node_ids()), "{at}: nodes");
                for v in twin.node_ids() {
                    assert_eq!(h.adj(v), twin.adj(v), "{at}: adjacency of {v}");
                }
                let (got, want) = (h.take_deltas(), twin.take_deltas());
                assert_eq!(format!("{got:?}"), format!("{want:?}"), "{at}");
            }
        }
    }

    #[test]
    fn is_feasible_restores_graph_shape() {
        let mut inst = scheduling_instance(1, &InstanceSpec::default());
        let nodes = inst.graph.node_count();
        let arcs = inst.graph.arc_count();
        let _ = is_feasible(&mut inst.graph);
        assert_eq!(inst.graph.node_count(), nodes);
        assert_eq!(inst.graph.arc_count(), arcs);
        assert_eq!(inst.graph.objective(), 0, "flow reset");
    }
}
