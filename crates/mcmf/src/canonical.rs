//! Deterministic canonicalization of degenerate optima.
//!
//! Min-cost scheduling flows are almost always degenerate: equal-cost
//! task ↔ machine assignments can be permuted freely, so equally-optimal
//! solves that take different paths — warm vs cold, relaxation vs cost
//! scaling — produce *different* optimal
//! flows and hence different (equally good) placements. That is correct
//! but unreproducible: CI can only assert objective equality, and
//! replaying a cluster trace twice through different solver paths yields
//! different placement logs.
//!
//! [`canonicalize_flow`] rewrites the graph's optimal flow into the
//! **canonical optimum**, a function of the graph alone — independent of
//! which solver (or which warm path) produced the input flow:
//!
//! 1. **Canonical potentials.** Bellman-Ford over the residual graph with
//!    all-zero initialization computes `d(v) = min over residual walks`
//!    — the greatest solution of the difference-constraint system
//!    `{d(v) ≤ d(u) + c(uv) for every residual arc, d ≤ 0}`. For any two
//!    optimal flows the feasible-potential polytope is the *same* set
//!    (complementary slackness holds between every optimal primal and
//!    every optimal dual), so its greatest element `d` is flow-path
//!    independent. A relaxation that still improves after `n` rounds
//!    means a negative residual cycle — the input was not optimal.
//! 2. **Forced arcs.** With `rc(a) = c(a) + d(src) − d(dst)`: arcs with
//!    `rc < 0` carry full capacity in every optimal flow (saturate them);
//!    arcs with `rc > 0` carry none (zero them). Arcs with `rc = 0` are
//!    the degenerate freedom — reset to zero.
//! 3. **Deterministic completion.** The remaining excesses are routed to
//!    the remaining deficits through the tight (`rc = 0`) subgraph with
//!    lexicographic BFS (lowest node index first, arcs in sorted id
//!    order). Every step is a pure function of the graph and `d`, so the
//!    output flow is too.
//!
//! The result is an optimal flow (same objective; only tight arcs carry
//! discretionary flow) that any two optimal inputs map to identically —
//! which upgrades cross-solver comparisons from "same objective" to
//! "same placements" (the fig11 CI smoke does exactly this).
//!
//! Cost: one Bellman-Ford plus one unit-augmenting max-flow over the
//! tight subgraph — comparable to a cold solve. This is a verification /
//! reproducibility tool, not a hot-path pass.

use crate::common::SolveError;
use firmament_flow::{ArcId, FlowGraph, NodeId};
use std::collections::VecDeque;

/// Replaces the graph's optimal flow with the canonical optimal flow (see
/// the [module docs](self)). Fails with [`SolveError::NotOptimal`] if the
/// current flow admits a negative-cost residual cycle, and
/// [`SolveError::Infeasible`] if the forced-arc pseudoflow cannot be
/// completed (impossible for a genuinely optimal input).
///
/// The flow is modified in place; node prices held by incremental solvers
/// for this graph remain valid certificates (any optimal dual certifies
/// any optimal primal), but flow-dependent caches should be rebuilt.
pub fn canonicalize_flow(graph: &mut FlowGraph) -> Result<(), SolveError> {
    let n = graph.node_bound();
    if n == 0 {
        return Ok(());
    }

    // Step 1: canonical potentials — greatest feasible d ≤ 0.
    let mut d = vec![0i64; n];
    let mut changed = true;
    let mut rounds = 0usize;
    while changed {
        changed = false;
        rounds += 1;
        if rounds > n + 1 {
            return Err(SolveError::NotOptimal);
        }
        for u in graph.node_ids() {
            let du = d[u.index()];
            for &a in graph.adj(u) {
                if graph.rescap(a) > 0 {
                    let v = graph.dst(a);
                    let nd = du + graph.cost(a);
                    if nd < d[v.index()] {
                        d[v.index()] = nd;
                        changed = true;
                    }
                }
            }
        }
    }

    // Step 2: force the non-tight arcs, reset the tight ones.
    let rc = |g: &FlowGraph, a: ArcId| g.cost(a) + d[g.src(a).index()] - d[g.dst(a).index()];
    let arcs: Vec<ArcId> = graph.arc_ids().collect();
    for &a in &arcs {
        let r = rc(graph, a);
        if r < 0 {
            graph.set_flow(a, graph.capacity(a));
        } else {
            // rc > 0: forced empty. rc = 0: degenerate freedom, reset for
            // the deterministic completion below.
            graph.set_flow(a, 0);
        }
    }

    // Step 3: route excesses to deficits through the tight subgraph with
    // lexicographic BFS. Sorted adjacency copies make the traversal
    // independent of adjacency-list insertion history.
    let mut excess = graph.excesses();
    let mut sorted_adj: Vec<Vec<ArcId>> = vec![Vec::new(); n];
    for u in graph.node_ids() {
        let mut adj = graph.adj(u).to_vec();
        adj.sort_unstable();
        sorted_adj[u.index()] = adj;
    }
    let mut parent: Vec<Option<ArcId>> = vec![None; n];
    let mut seen = vec![false; n];
    let mut queue: VecDeque<u32> = VecDeque::new();
    let sources: Vec<usize> = (0..n)
        .filter(|&i| excess[i] > 0 && graph.node_alive(NodeId::from_index(i)))
        .collect();
    for src in sources {
        while excess[src] > 0 {
            // BFS from `src` through residual tight arcs to any deficit.
            for s in seen.iter_mut() {
                *s = false;
            }
            for p in parent.iter_mut() {
                *p = None;
            }
            queue.clear();
            queue.push_back(src as u32);
            seen[src] = true;
            let mut found: Option<usize> = None;
            'bfs: while let Some(ui) = queue.pop_front() {
                let u = NodeId::from_index(ui as usize);
                for &a in &sorted_adj[ui as usize] {
                    if graph.rescap(a) <= 0 || rc(graph, a) != 0 {
                        continue;
                    }
                    debug_assert_eq!(graph.src(a), u);
                    let v = graph.dst(a).index();
                    if seen[v] {
                        continue;
                    }
                    seen[v] = true;
                    parent[v] = Some(a);
                    if excess[v] < 0 {
                        found = Some(v);
                        break 'bfs;
                    }
                    queue.push_back(v as u32);
                }
            }
            let Some(t) = found else {
                // No tight path to a deficit: the input flow was not a
                // completable optimum.
                return Err(SolveError::Infeasible);
            };
            // Bottleneck along the path, capped by the endpoint balances.
            let mut delta = excess[src].min(-excess[t]);
            let mut v = t;
            while let Some(a) = parent[v] {
                delta = delta.min(graph.rescap(a));
                v = graph.src(a).index();
            }
            let mut v = t;
            while let Some(a) = parent[v] {
                graph.push_flow(a, delta);
                v = graph.src(a).index();
            }
            excess[src] -= delta;
            excess[t] += delta;
        }
    }
    debug_assert!(graph.excesses().iter().all(|&e| e == 0));
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::SolveOptions;
    use crate::verify::is_optimal;
    use firmament_flow::testgen::{scheduling_instance, InstanceSpec};

    fn flows(g: &FlowGraph) -> Vec<(ArcId, i64)> {
        g.arc_ids().map(|a| (a, g.flow(a))).collect()
    }

    #[test]
    fn canonical_flow_is_optimal_and_objective_preserving() {
        for seed in 0..6 {
            let mut inst = scheduling_instance(seed, &InstanceSpec::default());
            crate::cost_scaling::solve(&mut inst.graph, &SolveOptions::unlimited()).unwrap();
            let objective = inst.graph.objective();
            canonicalize_flow(&mut inst.graph).unwrap();
            assert_eq!(inst.graph.objective(), objective, "seed {seed}");
            assert!(is_optimal(&inst.graph), "seed {seed}");
        }
    }

    #[test]
    fn different_solver_paths_canonicalize_identically() {
        for seed in 0..6 {
            let spec = InstanceSpec::default();
            // Three different paths to an optimum of the same graph.
            let mut a = scheduling_instance(seed, &spec);
            crate::cost_scaling::solve(&mut a.graph, &SolveOptions::unlimited()).unwrap();
            let mut b = scheduling_instance(seed, &spec);
            crate::relaxation::solve(&mut b.graph, &SolveOptions::unlimited()).unwrap();
            let mut c = scheduling_instance(seed, &spec);
            crate::ssp::solve(&mut c.graph, &SolveOptions::unlimited()).unwrap();
            canonicalize_flow(&mut a.graph).unwrap();
            canonicalize_flow(&mut b.graph).unwrap();
            canonicalize_flow(&mut c.graph).unwrap();
            assert_eq!(flows(&a.graph), flows(&b.graph), "seed {seed}: cs vs relax");
            assert_eq!(
                flows(&b.graph),
                flows(&c.graph),
                "seed {seed}: relax vs ssp"
            );
        }
    }

    #[test]
    fn warm_and_cold_paths_canonicalize_identically() {
        for seed in [1, 4, 9] {
            let spec = InstanceSpec::default();
            let mut warm_inst = scheduling_instance(seed, &spec);
            let mut inc = crate::incremental::IncrementalCostScaling::default();
            inc.solve_with_deltas(&mut warm_inst.graph, None, &SolveOptions::unlimited())
                .unwrap();
            // Perturb some costs, then warm-resolve from the recorded feed.
            warm_inst.graph.set_change_tracking(true);
            let arcs: Vec<ArcId> = warm_inst.graph.arc_ids().collect();
            warm_inst.graph.set_arc_cost(arcs[3], 7).unwrap();
            warm_inst.graph.set_arc_cost(arcs[13], 90).unwrap();
            let batch = warm_inst.graph.take_deltas();
            let warm = inc
                .solve_with_deltas(
                    &mut warm_inst.graph,
                    Some(&batch),
                    &SolveOptions::unlimited(),
                )
                .unwrap();
            assert_eq!(warm.stats.bailouts, 0, "seed {seed}: warm path taken");
            // Cold path on an identical graph.
            let mut cold = warm_inst.graph.clone();
            crate::cost_scaling::solve(&mut cold, &SolveOptions::unlimited()).unwrap();

            canonicalize_flow(&mut warm_inst.graph).unwrap();
            canonicalize_flow(&mut cold).unwrap();
            assert_eq!(
                flows(&warm_inst.graph),
                flows(&cold),
                "seed {seed}: warm and cold optima must canonicalize to the same flow"
            );
        }
    }

    #[test]
    fn canonicalization_is_idempotent() {
        let mut inst = scheduling_instance(2, &InstanceSpec::default());
        crate::cost_scaling::solve(&mut inst.graph, &SolveOptions::unlimited()).unwrap();
        canonicalize_flow(&mut inst.graph).unwrap();
        let once = flows(&inst.graph);
        canonicalize_flow(&mut inst.graph).unwrap();
        assert_eq!(once, flows(&inst.graph));
    }

    #[test]
    fn non_optimal_flow_is_rejected() {
        use firmament_flow::NodeKind;
        // A 2-cycle of flow with negative total residual cost: t → m is
        // saturated at cost 5 while a parallel cheap arc is empty, so the
        // residual graph has the cycle (reverse expensive, forward cheap)
        // with cost −5 + 1 < 0.
        let mut g = FlowGraph::new();
        let t = g.add_node(NodeKind::Task { task: 0 }, 1);
        let m = g.add_node(NodeKind::Machine { machine: 0 }, 0);
        let s = g.add_node(NodeKind::Sink, -1);
        let expensive = g.add_arc(t, m, 1, 5).unwrap();
        let _cheap = g.add_arc(t, m, 1, 1).unwrap();
        let ms = g.add_arc(m, s, 1, 0).unwrap();
        g.push_flow(expensive, 1);
        g.push_flow(ms, 1);
        assert_eq!(
            canonicalize_flow(&mut g),
            Err(SolveError::NotOptimal),
            "negative residual cycle must be detected"
        );
    }
}
