//! Relaxation (Bertsekas–Tseng [4; 5]): dual-ascent MCMF.
//!
//! Relaxation maintains reduced cost optimality at every step and works
//! towards feasibility (Table 2). For each node with excess it grows a tree
//! (cut) `S` of *balanced* residual arcs (zero reduced cost) looking for a
//! deficit node; when the cut's dual-ascent slope becomes positive it
//! instead performs a price update on all of `S`. This decoupling of
//! feasibility improvements from cost reductions is why relaxation does
//! minimal work when scheduling choices are uncontested (§4.2): most tasks'
//! flow routes to the sink in a single short scan.
//!
//! Sign conventions match [`crate::cost_scaling`]: reduced costs are
//! `c^π(a) = c(a) + π(src) − π(dst)`, reduced cost optimality means no
//! residual arc has negative reduced cost, and a dual ascent *lowers* the
//! prices of the cut `S` (the mirror image of the paper's Eq. 4 convention,
//! chosen so both algorithms share price semantics).
//!
//! The arc prioritization heuristic (§5.3.1) biases the cut scan towards
//! arcs that lead to demand nodes, turning the breadth-first frontier into
//! a hybrid traversal that finds augmenting paths sooner on contended
//! graphs; Fig 12a measures its benefit at ~45 %.

use crate::common::{
    AlgorithmKind, Budget, BudgetStop, Solution, SolveError, SolveOptions, SolveStats,
};
use firmament_flow::{ArcId, FlowGraph, NodeId};
use std::collections::VecDeque;

/// Tuning parameters for the relaxation algorithm.
#[derive(Debug, Clone)]
pub struct RelaxationConfig {
    /// Enables the arc prioritization heuristic (§5.3.1). Firmament enables
    /// it by default; disable to reproduce the "No AP" bar of Fig 12a.
    pub arc_prioritization: bool,
}

impl Default for RelaxationConfig {
    fn default() -> Self {
        RelaxationConfig {
            arc_prioritization: true,
        }
    }
}

/// Persistent relaxation state for incremental re-optimization (§5.2).
#[derive(Debug, Clone, Default)]
pub struct RelaxationState {
    /// Node prices, indexed by raw node index (unscaled cost units).
    pub potentials: Vec<i64>,
}

/// Solves min-cost max-flow by relaxation from scratch, leaving the optimal
/// flow in the graph.
///
/// # Examples
///
/// ```
/// use firmament_flow::testgen::{scheduling_instance, InstanceSpec};
/// use firmament_mcmf::{relaxation, SolveOptions};
///
/// let mut inst = scheduling_instance(1, &InstanceSpec::default());
/// let sol = relaxation::solve(&mut inst.graph, &SolveOptions::unlimited()).unwrap();
/// assert!(firmament_mcmf::verify::is_optimal(&inst.graph));
/// # let _ = sol;
/// ```
pub fn solve(graph: &mut FlowGraph, opts: &SolveOptions) -> Result<Solution, SolveError> {
    solve_with(graph, opts, &RelaxationConfig::default())
}

/// Solves from scratch with explicit configuration.
pub fn solve_with(
    graph: &mut FlowGraph,
    opts: &SolveOptions,
    config: &RelaxationConfig,
) -> Result<Solution, SolveError> {
    graph.reset_flow();
    let mut state = RelaxationState::default();
    let mut sol = solve_warm(graph, opts, config, &mut state)?;
    sol.algorithm = AlgorithmKind::Relaxation;
    Ok(sol)
}

/// Incremental relaxation: reuses the prices in `state` and the flow already
/// present in the graph (§5.2).
///
/// The function first restores reduced cost optimality — graph changes may
/// have left residual arcs with negative reduced cost — by saturating every
/// such arc (which also cancels flow on arcs whose reverse became
/// admissible), then runs the main loop to restore feasibility.
pub fn solve_incremental(
    graph: &mut FlowGraph,
    opts: &SolveOptions,
    config: &RelaxationConfig,
    state: &mut RelaxationState,
) -> Result<Solution, SolveError> {
    let mut sol = solve_warm(graph, opts, config, state)?;
    sol.algorithm = AlgorithmKind::IncrementalRelaxation;
    Ok(sol)
}

/// Restores complementary slackness against `pot`: saturates every
/// residual arc with negative reduced cost. (Saturating the reverse arc of
/// a flow-carrying arc whose reduced cost turned positive cancels that
/// flow.) Prices are fixed during the pass and the two directions of a
/// pair have opposite reduced costs, so saturating one arc never creates
/// a violation on another: one flat pass over the arc arena suffices, and
/// its order does not affect the resulting flow.
fn restore_slackness(graph: &mut FlowGraph, pot: &[i64]) {
    for i in (0..graph.arc_bound()).step_by(2) {
        if !graph.arc_alive(ArcId::from_index(i)) {
            continue;
        }
        for a in [ArcId::from_index(i), ArcId::from_index(i + 1)] {
            let r = graph.rescap(a);
            if r > 0 && graph.cost(a) + pot[graph.src(a).index()] - pot[graph.dst(a).index()] < 0 {
                graph.push_flow(a, r);
            }
        }
    }
}

/// Shared engine: treats the current flow as a starting pseudoflow, repairs
/// complementary slackness, and drives all excess to the deficits.
fn solve_warm(
    graph: &mut FlowGraph,
    opts: &SolveOptions,
    config: &RelaxationConfig,
    state: &mut RelaxationState,
) -> Result<Solution, SolveError> {
    let mut budget = Budget::new(opts);
    let mut stats = SolveStats::default();
    let total: i64 = graph.node_ids().map(|v| graph.supply(v)).sum();
    if total != 0 {
        return Err(SolveError::UnbalancedSupply { total });
    }
    let n = graph.node_bound();
    state.potentials.resize(n, 0);
    let pot = &mut state.potentials;

    restore_slackness(graph, pot);

    let mut excess = graph.excesses();
    let mut queue: VecDeque<u32> = VecDeque::new();
    let mut in_queue = vec![false; n];
    for (u, &e) in excess.iter().enumerate() {
        if e > 0 {
            queue.push_back(u as u32);
            in_queue[u] = true;
        }
    }

    // Epoch-stamped membership for the cut S, rebuilt every iteration
    // without clearing.
    let mut stamp = vec![0u64; n];
    let mut epoch = 0u64;
    let mut pred: Vec<ArcId> = vec![ArcId::from_index(0); n];
    let mut members: Vec<NodeId> = Vec::new();
    let mut frontier: VecDeque<ArcId> = VecDeque::new();

    'outer: while let Some(si) = queue.pop_front() {
        in_queue[si as usize] = false;
        if excess[si as usize] <= 0 {
            continue;
        }
        let s = NodeId::from_index(si as usize);
        match budget.tick() {
            Some(BudgetStop::Cancelled) => return Err(SolveError::Cancelled),
            Some(BudgetStop::Exhausted) => {
                stats.iterations = budget.iterations;
                return Ok(Solution {
                    algorithm: AlgorithmKind::Relaxation,
                    objective: graph.objective(),
                    terminated_early: true,
                    runtime: budget.elapsed(),
                    stats,
                });
            }
            None => {}
        }

        // Every iteration (single- or multi-node) uses a fresh epoch; `s`
        // is always the first member of the cut.
        epoch += 1;
        members.clear();
        frontier.clear();
        stamp[si as usize] = epoch;
        members.push(s);

        // --- Single-node fast path -----------------------------------
        // slope({s}) = e(s) − Σ rescap over balanced out-arcs. If positive,
        // a price update on {s} alone improves the dual.
        let mut balanced_out = 0i64;
        for &a in graph.adj(s) {
            if graph.rescap(a) > 0 {
                let rc = graph.cost(a) + pot[si as usize] - pot[graph.dst(a).index()];
                if rc == 0 {
                    balanced_out += graph.rescap(a);
                }
            }
        }
        if excess[si as usize] > balanced_out {
            price_update(
                graph,
                pot,
                &mut excess,
                &members,
                &stamp,
                epoch,
                &mut queue,
                &mut in_queue,
                &mut stats,
            )?;
            requeue(s, &excess, &mut queue, &mut in_queue);
            continue;
        }

        // --- Multi-node iteration: grow the cut S --------------------
        let mut slope = excess[si as usize];
        slope -= queue_balanced_out_arcs(
            graph,
            pot,
            s,
            &stamp,
            epoch,
            &excess,
            &mut frontier,
            config.arc_prioritization,
        );

        loop {
            if slope > 0 {
                price_update(
                    graph,
                    pot,
                    &mut excess,
                    &members,
                    &stamp,
                    epoch,
                    &mut queue,
                    &mut in_queue,
                    &mut stats,
                )?;
                requeue(s, &excess, &mut queue, &mut in_queue);
                continue 'outer;
            }
            let Some(a) = frontier.pop_front() else {
                // No balanced arcs cross the cut: the exact slope is e(S),
                // which is positive (s has excess, other members are
                // non-negative), so a price update is always possible.
                price_update(
                    graph,
                    pot,
                    &mut excess,
                    &members,
                    &stamp,
                    epoch,
                    &mut queue,
                    &mut in_queue,
                    &mut stats,
                )?;
                requeue(s, &excess, &mut queue, &mut in_queue);
                continue 'outer;
            };
            let j = graph.dst(a);
            if stamp[j.index()] == epoch {
                // The arc became internal when j joined S; undo its
                // contribution to the slope.
                slope += graph.rescap(a);
                continue;
            }
            if excess[j.index()] < 0 {
                // Deficit found: augment along the tree path s → … → j.
                augment(
                    graph,
                    &pred,
                    &stamp,
                    epoch,
                    s,
                    j,
                    a,
                    &mut excess,
                    &mut stats,
                );
                requeue(s, &excess, &mut queue, &mut in_queue);
                continue 'outer;
            }
            // Extend the cut to j.
            stamp[j.index()] = epoch;
            pred[j.index()] = a;
            members.push(j);
            slope += graph.rescap(a) + excess[j.index()];
            slope -= queue_balanced_out_arcs(
                graph,
                pot,
                j,
                &stamp,
                epoch,
                &excess,
                &mut frontier,
                config.arc_prioritization,
            );
        }
    }
    stats.iterations = budget.iterations;
    Ok(Solution {
        algorithm: AlgorithmKind::Relaxation,
        objective: graph.objective(),
        terminated_early: false,
        runtime: budget.elapsed(),
        stats,
    })
}

/// Pushes all balanced residual out-arcs of `u` that cross the cut onto the
/// frontier and returns the total residual capacity queued.
///
/// With arc prioritization, arcs leading directly to demand nodes go to the
/// *front* of the frontier (depth-first bias towards augmenting paths);
/// everything else is appended (breadth-first otherwise).
#[allow(clippy::too_many_arguments)]
fn queue_balanced_out_arcs(
    graph: &FlowGraph,
    pot: &[i64],
    u: NodeId,
    stamp: &[u64],
    epoch: u64,
    excess: &[i64],
    frontier: &mut VecDeque<ArcId>,
    prioritize: bool,
) -> i64 {
    let mut queued = 0i64;
    for &a in graph.adj(u) {
        let r = graph.rescap(a);
        if r <= 0 {
            continue;
        }
        let v = graph.dst(a);
        if stamp[v.index()] == epoch {
            continue;
        }
        let rc = graph.cost(a) + pot[u.index()] - pot[v.index()];
        if rc != 0 {
            continue;
        }
        queued += r;
        if prioritize && excess[v.index()] < 0 {
            frontier.push_front(a);
        } else {
            frontier.push_back(a);
        }
    }
    queued
}

/// Dual ascent on the cut `S`: saturates every balanced residual arc leaving
/// the cut, then lowers all member prices by the minimum positive reduced
/// cost among the remaining outgoing residual arcs.
#[allow(clippy::too_many_arguments)]
fn price_update(
    graph: &mut FlowGraph,
    pot: &mut [i64],
    excess: &mut [i64],
    members: &[NodeId],
    stamp: &[u64],
    epoch: u64,
    queue: &mut VecDeque<u32>,
    in_queue: &mut [bool],
    stats: &mut SolveStats,
) -> Result<(), SolveError> {
    let in_cut = |v: NodeId| stamp[v.index()] == epoch;
    let mut theta = i64::MAX;
    for &i in members {
        for k in 0..graph.adj(i).len() {
            let a = graph.adj(i)[k];
            let r = graph.rescap(a);
            if r <= 0 {
                continue;
            }
            let v = graph.dst(a);
            if in_cut(v) {
                continue;
            }
            let rc = graph.cost(a) + pot[i.index()] - pot[v.index()];
            if rc == 0 {
                // Lowering π(i) will turn this arc's reduced cost negative,
                // so complementary slackness forces saturation.
                graph.push_flow(a, r);
                excess[i.index()] -= r;
                let was = excess[v.index()];
                excess[v.index()] += r;
                if was <= 0 && excess[v.index()] > 0 && !in_queue[v.index()] {
                    queue.push_back(v.index() as u32);
                    in_queue[v.index()] = true;
                }
            } else if rc > 0 && rc < theta {
                theta = rc;
            }
        }
    }
    if theta == i64::MAX {
        // The cut cannot reach the rest of the graph at any price: the
        // remaining excess is unroutable.
        return Err(SolveError::Infeasible);
    }
    for &i in members {
        pot[i.index()] -= theta;
    }
    stats.price_updates += 1;
    Ok(())
}

/// Augments along the tree path `s → … → src(a)` plus the closing arc `a`
/// into the deficit node `j`.
#[allow(clippy::too_many_arguments)]
fn augment(
    graph: &mut FlowGraph,
    pred: &[ArcId],
    stamp: &[u64],
    epoch: u64,
    s: NodeId,
    j: NodeId,
    a: ArcId,
    excess: &mut [i64],
    stats: &mut SolveStats,
) {
    debug_assert_eq!(stamp[graph.src(a).index()], epoch);
    let mut bottleneck = graph.rescap(a);
    let mut v = graph.src(a);
    while v != s {
        let p = pred[v.index()];
        bottleneck = bottleneck.min(graph.rescap(p));
        v = graph.src(p);
    }
    let delta = bottleneck.min(excess[s.index()]).min(-excess[j.index()]);
    debug_assert!(delta > 0);
    graph.push_flow(a, delta);
    let mut v = graph.src(a);
    while v != s {
        let p = pred[v.index()];
        graph.push_flow(p, delta);
        v = graph.src(p);
    }
    excess[s.index()] -= delta;
    excess[j.index()] += delta;
    stats.augmentations += 1;
}

fn requeue(s: NodeId, excess: &[i64], queue: &mut VecDeque<u32>, in_queue: &mut [bool]) {
    if excess[s.index()] > 0 && !in_queue[s.index()] {
        queue.push_back(s.index() as u32);
        in_queue[s.index()] = true;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::{check_reduced_cost_optimality, is_optimal};
    use firmament_flow::builder::figure5;
    use firmament_flow::testgen::{layered_instance, scheduling_instance, InstanceSpec};
    use firmament_flow::NodeKind;

    #[test]
    fn solves_figure5_optimally() {
        let (mut g, _, _) = figure5();
        let sol = solve(&mut g, &SolveOptions::unlimited()).unwrap();
        assert_eq!(sol.objective, 14);
        assert!(is_optimal(&g));
    }

    #[test]
    fn agrees_with_ssp_on_random_instances() {
        for seed in 0..10 {
            let spec = InstanceSpec {
                tasks: 60,
                machines: 15,
                slots_per_machine: 3,
                ..InstanceSpec::default()
            };
            let mut a = scheduling_instance(seed, &spec);
            let mut b = scheduling_instance(seed, &spec);
            let s1 = solve(&mut a.graph, &SolveOptions::unlimited()).unwrap();
            let s2 = crate::ssp::solve(&mut b.graph, &SolveOptions::unlimited()).unwrap();
            assert_eq!(s1.objective, s2.objective, "seed {seed}");
            assert!(is_optimal(&a.graph), "seed {seed}");
        }
    }

    #[test]
    fn agrees_on_layered_graphs() {
        for seed in 0..5 {
            let mut a = layered_instance(seed, 15, 5, 6);
            let mut b = layered_instance(seed, 15, 5, 6);
            let s1 = solve(&mut a, &SolveOptions::unlimited()).unwrap();
            let s2 = crate::ssp::solve(&mut b, &SolveOptions::unlimited()).unwrap();
            assert_eq!(s1.objective, s2.objective, "seed {seed}");
        }
    }

    #[test]
    fn final_potentials_satisfy_reduced_cost_optimality() {
        let mut inst = scheduling_instance(7, &InstanceSpec::default());
        let mut state = RelaxationState::default();
        inst.graph.reset_flow();
        solve_warm(
            &mut inst.graph,
            &SolveOptions::unlimited(),
            &RelaxationConfig::default(),
            &mut state,
        )
        .unwrap();
        assert!(check_reduced_cost_optimality(&inst.graph, &state.potentials).is_ok());
    }

    #[test]
    fn no_arc_prioritization_still_optimal() {
        let cfg = RelaxationConfig {
            arc_prioritization: false,
        };
        for seed in 0..5 {
            let mut a = scheduling_instance(seed, &InstanceSpec::default());
            let mut b = scheduling_instance(seed, &InstanceSpec::default());
            let s1 = solve_with(&mut a.graph, &SolveOptions::unlimited(), &cfg).unwrap();
            let s2 = solve(&mut b.graph, &SolveOptions::unlimited()).unwrap();
            assert_eq!(s1.objective, s2.objective, "seed {seed}");
        }
    }

    #[test]
    fn incremental_matches_from_scratch_after_changes() {
        for seed in 0..5 {
            let spec = InstanceSpec {
                tasks: 40,
                machines: 12,
                ..InstanceSpec::default()
            };
            let mut inst = scheduling_instance(seed, &spec);
            let mut state = RelaxationState::default();
            inst.graph.reset_flow();
            solve_warm(
                &mut inst.graph,
                &SolveOptions::unlimited(),
                &RelaxationConfig::default(),
                &mut state,
            )
            .unwrap();

            // Perturb: change some arc costs and add a new task.
            let arcs: Vec<ArcId> = inst.graph.arc_ids().collect();
            inst.graph.set_arc_cost(arcs[3], 1).unwrap();
            inst.graph.set_arc_cost(arcs[7], 200).unwrap();
            let t = inst.graph.add_node(NodeKind::Task { task: 999 }, 1);
            inst.graph.add_arc(t, inst.machines[0], 1, 5).unwrap();
            inst.graph.add_arc(t, inst.unscheduled, 1, 150).unwrap();
            let sink_supply = inst.graph.supply(inst.sink);
            inst.graph.set_supply(inst.sink, sink_supply - 1).unwrap();
            // Unscheduled aggregator capacity must grow for the new task.
            let unsched_arc = inst
                .graph
                .adj(inst.unscheduled)
                .iter()
                .copied()
                .find(|&a| inst.graph.dst(a) == inst.sink && a.is_forward())
                .unwrap();
            let cap = inst.graph.capacity(unsched_arc);
            inst.graph.set_arc_capacity(unsched_arc, cap + 1).unwrap();

            let inc = solve_incremental(
                &mut inst.graph,
                &SolveOptions::unlimited(),
                &RelaxationConfig::default(),
                &mut state,
            )
            .unwrap();
            assert!(is_optimal(&inst.graph), "seed {seed}");

            // Compare against a from-scratch solve on the mutated graph.
            let mut fresh = inst.graph.clone();
            let scratch = solve(&mut fresh, &SolveOptions::unlimited()).unwrap();
            assert_eq!(inc.objective, scratch.objective, "seed {seed}");
        }
    }

    /// The per-node slackness pass the flat pass replaced, kept verbatim
    /// as an oracle: nodes in id order, each node's residual arcs in
    /// adjacency order.
    fn adjacency_slackness_pass(graph: &mut FlowGraph, pot: &[i64]) {
        let nodes: Vec<NodeId> = graph.node_ids().collect();
        for &u in &nodes {
            let arcs: Vec<ArcId> = graph.adj(u).to_vec();
            for a in arcs {
                let r = graph.rescap(a);
                if r <= 0 {
                    continue;
                }
                let rc = graph.cost(a) + pot[u.index()] - pot[graph.dst(a).index()];
                if rc < 0 {
                    graph.push_flow(a, r);
                }
            }
        }
    }

    /// Asserts two copies of one graph carry the same flow on every arc,
    /// and returns how many residual arcs differ from `before`.
    fn same_flow(a: &FlowGraph, b: &FlowGraph, before: &FlowGraph, what: &str) -> usize {
        let mut changed = 0;
        for i in 0..a.arc_bound() {
            let arc = ArcId::from_index(i);
            if a.arc_alive(arc) {
                assert_eq!(a.rescap(arc), b.rescap(arc), "{what} arc {arc}");
                changed += usize::from(a.rescap(arc) != before.rescap(arc));
            }
        }
        changed
    }

    /// The flat slackness pass must leave exactly the flow the per-node
    /// adjacency pass leaves, both from a reset flow and zero prices (the
    /// cold start of `solve_with`) and from a solved flow under arbitrary
    /// prices (a warm start) — on graphs with negative costs, where both
    /// starts have work to do. The cold solve must match
    /// `solve_incremental` from a reset flow and a default state, and SSP.
    #[test]
    fn cold_start_matches_adjacency_pass_with_negative_costs() {
        use firmament_flow::testgen::XorShift64;
        for seed in 0..12 {
            let spec = InstanceSpec {
                tasks: 50,
                machines: 12,
                slots_per_machine: 3,
                ..InstanceSpec::default()
            };
            let mut base = scheduling_instance(seed, &spec).graph;
            let mut rng = XorShift64::new(seed + 1);
            let arcs: Vec<ArcId> = base.arc_ids().collect();
            let mut injected = 0;
            for a in arcs {
                if rng.below(4) == 0 {
                    base.set_arc_cost(a, -1 - rng.below(40) as i64).unwrap();
                    injected += 1;
                }
            }
            assert!(injected > 0, "seed {seed}");

            // Cold: reset flow, zero prices.
            let mut reset = base.clone();
            reset.reset_flow();
            let zero = vec![0; base.node_bound()];
            let (mut flat, mut old) = (reset.clone(), reset.clone());
            restore_slackness(&mut flat, &zero);
            adjacency_slackness_pass(&mut old, &zero);
            let pushed = same_flow(&flat, &old, &reset, &format!("cold seed {seed}"));
            assert!(pushed > 0, "seed {seed}: cold pass had no work");

            let mut cold = base.clone();
            let sol = solve_with(
                &mut cold,
                &SolveOptions::unlimited(),
                &RelaxationConfig::default(),
            )
            .unwrap();
            let mut incremental = reset.clone();
            solve_incremental(
                &mut incremental,
                &SolveOptions::unlimited(),
                &RelaxationConfig::default(),
                &mut RelaxationState::default(),
            )
            .unwrap();
            same_flow(&cold, &incremental, &cold, &format!("solve seed {seed}"));
            let mut reference = base.clone();
            let ssp = crate::ssp::solve(&mut reference, &SolveOptions::unlimited()).unwrap();
            assert_eq!(sol.objective, ssp.objective, "seed {seed}");
            assert!(is_optimal(&cold), "seed {seed}");

            // Warm: the optimal flow under random prices, so some flow
            // carrying arcs are cancelled and some empty ones saturated.
            let pot: Vec<i64> = (0..base.node_bound())
                .map(|_| rng.range_i64(-60, 60))
                .collect();
            let (mut flat, mut old) = (cold.clone(), cold.clone());
            restore_slackness(&mut flat, &pot);
            adjacency_slackness_pass(&mut old, &pot);
            let pushed = same_flow(&flat, &old, &cold, &format!("warm seed {seed}"));
            assert!(pushed > 0, "seed {seed}: warm pass had no work");
        }
    }

    #[test]
    fn infeasible_detected() {
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
    fn contended_aggregator_graph_solves() {
        // Load-spreading shape: all tasks fan through one aggregator, which
        // is the contended case where relaxation struggles (§4.3, Fig 9).
        let mut g = FlowGraph::new();
        let sink = g.add_node(NodeKind::Sink, -30);
        let x = g.add_node(NodeKind::ClusterAggregator, 0);
        let mut machines = Vec::new();
        for m in 0..10 {
            let node = g.add_node(NodeKind::Machine { machine: m }, 0);
            g.add_arc(node, sink, 5, 0).unwrap();
            g.add_arc(x, node, 5, (m as i64) + 1).unwrap();
            machines.push(node);
        }
        for t in 0..30 {
            let node = g.add_node(NodeKind::Task { task: t }, 1);
            g.add_arc(node, x, 1, 1).unwrap();
        }
        let sol = solve(&mut g, &SolveOptions::unlimited()).unwrap();
        assert!(is_optimal(&g));
        // 30 tasks over machines costing 1..=10 with 5 slots each: the
        // cheapest 6 machines fill up: 5*(1+2+3+4+5+6) + 30*1 (task→X).
        assert_eq!(sol.objective, 5 * 21 + 30);
    }
}
