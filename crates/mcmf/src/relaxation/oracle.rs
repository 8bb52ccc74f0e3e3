//! A test-only copy of the relaxation engine as it ran before the solver
//! took its own copy of the residual network: in place, on the live
//! `FlowGraph`, one `ArcId` read from an adjacency list and one arena slot
//! read per arc examined. Every function below is verbatim from that
//! engine, apart from the cold start's price seed, which applies the
//! engine's start rule over adjacency lists. The tests at the end assert
//! that the engine in the parent module gives the same flow on every arc,
//! the same final prices, the same `SolveStats` (counted work included) and
//! the same [`Budgeted`] variant on every case, so the hedge's fallback
//! decisions cannot drift.

use super::{Budgeted, RelaxationConfig};
use crate::common::{
    AlgorithmKind, Budget, BudgetStop, Solution, SolveError, SolveOptions, SolveStats,
};
use firmament_flow::{ArcId, FlowGraph, NodeId};
use std::collections::VecDeque;

/// Solves from scratch like [`solve_with`](super::solve_with): from a reset
/// flow and the start rule's prices ([`seed_sink_prices`]), but stops once
/// the run has examined `scan_budget` arcs (see [`SolveStats::arc_scans`]).
/// Work is charged one adjacency list at a time: the scan that would take
/// the count past the budget is not made, and the count is set to the
/// budget. A stopped run leaves its pseudoflow in the graph.
pub(crate) fn solve_cold(
    graph: &mut FlowGraph,
    opts: &SolveOptions,
    config: &RelaxationConfig,
    scan_budget: u64,
) -> Result<Budgeted, SolveError> {
    graph.reset_flow();
    let mut prices = seed_sink_prices(graph);
    solve_from(graph, opts, config, &mut prices, scan_budget)
}

/// The start rule over adjacency lists, for a flowless graph: a node whose
/// residual out-arcs all enter one node of negative supply, at a positive
/// cost, is priced at minus the cheapest of those costs; every other node
/// at zero.
fn seed_sink_prices(graph: &FlowGraph) -> Vec<i64> {
    let mut pot = vec![0; graph.node_bound()];
    for u in graph.node_ids() {
        let mut out = graph.adj(u).iter().filter(|&&a| graph.rescap(a) > 0);
        let Some(&first) = out.next() else {
            continue;
        };
        let d = graph.dst(first);
        if graph.supply(d) >= 0 {
            continue;
        }
        let cheapest = out.try_fold(graph.cost(first), |c, &a| {
            (graph.dst(a) == d).then(|| c.min(graph.cost(a)))
        });
        if let Some(c) = cheapest.filter(|&c| c > 0) {
            pot[u.index()] = -c;
        }
    }
    pot
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

/// Charges an adjacency scan of `len` entries to `stats.arc_scans`. A scan
/// that would take the count past `limit` is refused: the count becomes
/// `limit` and the caller stops.
#[inline]
fn charge(stats: &mut SolveStats, len: usize, limit: u64) -> bool {
    let len = len as u64;
    if len > limit - stats.arc_scans {
        stats.arc_scans = limit;
        false
    } else {
        stats.arc_scans += len;
        true
    }
}

/// The engine: treats the current flow as a starting pseudoflow and `pot`
/// (indexed by raw node index, unscaled cost units, at least
/// `node_bound()` long) as its prices, repairs complementary slackness,
/// and drives all excess to the deficits, within `scan_limit` arc
/// examinations. The final prices are left in `pot`.
pub(crate) fn solve_from(
    graph: &mut FlowGraph,
    opts: &SolveOptions,
    config: &RelaxationConfig,
    pot: &mut [i64],
    scan_limit: u64,
) -> Result<Budgeted, SolveError> {
    let mut budget = Budget::new(opts);
    let mut stats = SolveStats::default();
    let total: i64 = graph.node_ids().map(|v| graph.supply(v)).sum();
    if total != 0 {
        return Err(SolveError::UnbalancedSupply { total });
    }
    let n = graph.node_bound();

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

    let over_budget = 'outer: loop {
        let Some(si) = queue.pop_front() else {
            break false;
        };
        in_queue[si as usize] = false;
        if excess[si as usize] <= 0 {
            continue;
        }
        let s = NodeId::from_index(si as usize);
        match budget.tick() {
            Some(BudgetStop::Cancelled) => return Err(SolveError::Cancelled),
            Some(BudgetStop::Exhausted) => {
                stats.iterations = budget.iterations;
                return Ok(Budgeted::Finished(Solution {
                    algorithm: AlgorithmKind::Relaxation,
                    objective: graph.objective(),
                    terminated_early: true,
                    runtime: budget.elapsed(),
                    stats,
                }));
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
        if !charge(&mut stats, graph.adj(s).len(), scan_limit) {
            break true;
        }
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
            if !price_update(
                graph,
                pot,
                &mut excess,
                &members,
                &stamp,
                epoch,
                &mut queue,
                &mut in_queue,
                &mut stats,
                scan_limit,
            )? {
                break true;
            }
            requeue(s, &excess, &mut queue, &mut in_queue);
            continue;
        }

        // --- Multi-node iteration: grow the cut S --------------------
        let mut slope = excess[si as usize];
        if !charge(&mut stats, graph.adj(s).len(), scan_limit) {
            break true;
        }
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
                if !price_update(
                    graph,
                    pot,
                    &mut excess,
                    &members,
                    &stamp,
                    epoch,
                    &mut queue,
                    &mut in_queue,
                    &mut stats,
                    scan_limit,
                )? {
                    break 'outer true;
                }
                requeue(s, &excess, &mut queue, &mut in_queue);
                continue 'outer;
            }
            let Some(a) = frontier.pop_front() else {
                // No balanced arcs cross the cut: the exact slope is e(S),
                // which is positive (s has excess, other members are
                // non-negative), so a price update is always possible.
                if !price_update(
                    graph,
                    pot,
                    &mut excess,
                    &members,
                    &stamp,
                    epoch,
                    &mut queue,
                    &mut in_queue,
                    &mut stats,
                    scan_limit,
                )? {
                    break 'outer true;
                }
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
            if !charge(&mut stats, graph.adj(j).len(), scan_limit) {
                break 'outer true;
            }
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
    };
    stats.iterations = budget.iterations;
    let sol = Solution {
        algorithm: AlgorithmKind::Relaxation,
        objective: graph.objective(),
        terminated_early: over_budget,
        runtime: budget.elapsed(),
        stats,
    };
    Ok(if over_budget {
        Budgeted::OverBudget(sol)
    } else {
        Budgeted::Finished(sol)
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
/// cost among the remaining outgoing residual arcs. Returns `Ok(false)`,
/// with the update half done, when scanning the cut would pass
/// `scan_limit`.
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
    scan_limit: u64,
) -> Result<bool, SolveError> {
    let in_cut = |v: NodeId| stamp[v.index()] == epoch;
    let mut theta = i64::MAX;
    for &i in members {
        if !charge(stats, graph.adj(i).len(), scan_limit) {
            return Ok(false);
        }
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
    Ok(true)
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

mod tests {
    use super::super::Workspace;
    use super::*;
    use crate::common::CancelToken;
    use firmament_flow::testgen::{
        layered_instance, scheduling_instance, InstanceSpec, XorShift64,
    };
    use firmament_flow::NodeKind;

    /// Runs the engine under test on the copy filled in `work` and writes
    /// the copy back however the run ended, so that a run stopped by its
    /// scan budget leaves its pseudoflow in `graph` as the oracle's does.
    fn engine_run(
        graph: &mut FlowGraph,
        opts: &SolveOptions,
        config: &RelaxationConfig,
        limit: u64,
        work: &mut Workspace,
    ) -> Result<Budgeted, SolveError> {
        let budget = Budget::new(opts);
        let run = super::super::run(config, limit, budget, work, &mut || {
            super::super::feasible(graph)
        })?;
        graph.write_back_csr(&work.csr);
        Ok(run.finish(graph, work))
    }

    /// The engine under test, cold, returning its final prices.
    fn engine_cold(
        graph: &mut FlowGraph,
        opts: &SolveOptions,
        config: &RelaxationConfig,
        budget: u64,
    ) -> (Result<Budgeted, SolveError>, Vec<i64>) {
        let mut work = Workspace::default();
        let r = super::super::fill(graph, &mut work)
            .and_then(|()| engine_run(graph, opts, config, budget, &mut work));
        (r, work.pot)
    }

    /// The engine under test, warm: from the graph's flow and `pot`, whose
    /// final values it leaves in `pot` unless the run fails.
    fn engine_warm(
        graph: &mut FlowGraph,
        opts: &SolveOptions,
        config: &RelaxationConfig,
        pot: &mut [i64],
        limit: u64,
    ) -> Result<Budgeted, SolveError> {
        let n = graph.node_bound();
        let mut work = Workspace::default();
        work.reset(n);
        work.pot.copy_from_slice(&pot[..n]);
        work.excess = graph.excesses();
        graph.fill_csr(&mut work.csr, false);
        let r = engine_run(graph, opts, config, limit, &mut work)?;
        pot[..n].copy_from_slice(&work.pot);
        Ok(r)
    }

    /// What a run left behind that the two engines must agree on: the
    /// variant, objective, early-stop flag and whole `SolveStats` (the
    /// runtime aside).
    fn summary(
        r: &Result<Budgeted, SolveError>,
    ) -> Result<(bool, i64, bool, SolveStats), SolveError> {
        match r {
            Ok(b) => {
                let (over, sol) = match b {
                    Budgeted::Finished(sol) => (false, sol),
                    Budgeted::OverBudget(sol) => (true, sol),
                };
                Ok((over, sol.objective, sol.terminated_early, sol.stats.clone()))
            }
            Err(e) => Err(e.clone()),
        }
    }

    /// Asserts both graphs carry the same residual capacity on every live
    /// residual arc.
    fn assert_same_flow(a: &FlowGraph, b: &FlowGraph, what: &str) {
        assert_eq!(a.arc_bound(), b.arc_bound(), "{what}");
        for i in 0..a.arc_bound() {
            let arc = ArcId::from_index(i);
            assert_eq!(a.arc_alive(arc), b.arc_alive(arc), "{what} arc {arc}");
            if a.arc_alive(arc) {
                assert_eq!(a.rescap(arc), b.rescap(arc), "{what} arc {arc}");
            }
        }
    }

    /// Runs the oracle and the engine under test cold on copies of `graph`
    /// and asserts they agree; returns the oracle's outcome. The engine's
    /// own entry must report the same run and, when the run spends its
    /// budget, leave the graph as it was.
    fn check_cold(
        graph: &FlowGraph,
        opts: &SolveOptions,
        config: &RelaxationConfig,
        budget: u64,
        what: &str,
    ) -> Result<(bool, i64, bool, SolveStats), SolveError> {
        let mut old = graph.clone();
        old.reset_flow();
        let mut old_prices = seed_sink_prices(&old);
        let old_r = solve_from(&mut old, opts, config, &mut old_prices, budget);
        // The oracle's own cold entry is that reset and those prices.
        let mut cold = graph.clone();
        let cold_r = solve_cold(&mut cold, opts, config, budget);
        assert_eq!(summary(&cold_r), summary(&old_r), "{what}: oracle entries");

        let mut new = graph.clone();
        let (new_r, new_prices) = engine_cold(&mut new, opts, config, budget);
        assert_eq!(summary(&new_r), summary(&old_r), "{what}");
        if old_r.is_ok() {
            assert_same_flow(&new, &old, what);
            assert_eq!(
                new_prices[..graph.node_bound()],
                old_prices[..],
                "{what}: prices"
            );
        }

        let mut entry = graph.clone();
        let mut work = Workspace::default();
        let entry_r = super::super::attempt_within(&mut entry, opts, config, budget, &mut work);
        match (&entry_r, summary(&old_r)) {
            (Ok(Budgeted::OverBudget(sol)), Ok((true, _, early, stats))) => {
                assert_eq!(
                    (sol.terminated_early, &sol.stats),
                    (early, &stats),
                    "{what}"
                );
                assert_eq!(sol.objective, graph.objective(), "{what}: entry");
                assert_eq!(format!("{entry:?}"), format!("{graph:?}"), "{what}: entry");
            }
            (Ok(Budgeted::Finished(_)), Ok((false, ..))) => {
                assert_eq!(summary(&entry_r), summary(&old_r), "{what}: entry");
                assert_same_flow(&entry, &old, what);
            }
            (Err(e), Err(old_e)) => assert_eq!(e, &old_e, "{what}: entry"),
            (r, old) => panic!("{what}: entry {r:?}, oracle {old:?}"),
        }
        summary(&old_r)
    }

    /// Runs both engines warm from the graph's flow and `pot` and asserts
    /// they agree.
    fn check_warm(
        graph: &FlowGraph,
        pot: &[i64],
        opts: &SolveOptions,
        config: &RelaxationConfig,
        limit: u64,
        what: &str,
    ) -> Result<(bool, i64, bool, SolveStats), SolveError> {
        let (mut old, mut new) = (graph.clone(), graph.clone());
        let (mut old_pot, mut new_pot) = (pot.to_vec(), pot.to_vec());
        let old_r = solve_from(&mut old, opts, config, &mut old_pot, limit);
        let new_r = engine_warm(&mut new, opts, config, &mut new_pot, limit);
        assert_eq!(summary(&new_r), summary(&old_r), "{what}");
        if old_r.is_ok() {
            assert_same_flow(&new, &old, what);
            assert_eq!(new_pot, old_pot, "{what}: prices");
        } else {
            assert_eq!(
                format!("{new:?}"),
                format!("{graph:?}"),
                "{what}: untouched"
            );
        }
        summary(&old_r)
    }

    fn configs() -> [RelaxationConfig; 2] {
        [
            RelaxationConfig::default(),
            RelaxationConfig {
                arc_prioritization: false,
            },
        ]
    }

    fn specs() -> Vec<InstanceSpec> {
        vec![
            InstanceSpec::default(),
            // Oversubscribed: more tasks than slots, so some stay
            // unscheduled and price updates climb.
            InstanceSpec {
                tasks: 90,
                machines: 10,
                slots_per_machine: 3,
                prefs_per_task: 4,
                ..InstanceSpec::default()
            },
            InstanceSpec {
                tasks: 120,
                machines: 30,
                slots_per_machine: 5,
                cluster_aggregator: false,
                ..InstanceSpec::default()
            },
        ]
    }

    /// Sets a random quarter of the arcs to negative costs.
    fn inject_negative_costs(graph: &mut FlowGraph, rng: &mut XorShift64) {
        let arcs: Vec<ArcId> = graph.arc_ids().collect();
        for a in arcs {
            if rng.below(4) == 0 {
                graph.set_arc_cost(a, -1 - rng.below(40) as i64).unwrap();
            }
        }
    }

    /// Gives an instance a removal and slot-reuse history: removes random
    /// preference arcs and whole tasks, then adds new tasks whose nodes and
    /// arcs reuse the freed slots, so adjacency order no longer follows
    /// arena order.
    fn churned_instance(seed: u64) -> FlowGraph {
        let spec = InstanceSpec {
            tasks: 80,
            machines: 16,
            slots_per_machine: 4,
            ..InstanceSpec::default()
        };
        let inst = scheduling_instance(seed, &spec);
        let mut g = inst.graph;
        let mut rng = XorShift64::new(seed ^ 0x5EED);
        let mut removed_tasks = 0i64;
        for &t in &inst.tasks {
            match rng.below(6) {
                0 => {
                    g.remove_node(t).unwrap();
                    removed_tasks += 1;
                }
                1 => {
                    let arcs: Vec<ArcId> = g
                        .adj(t)
                        .iter()
                        .copied()
                        .filter(|a| a.is_forward())
                        .collect();
                    if arcs.len() > 1 {
                        let a = arcs[rng.below(arcs.len() as u64) as usize];
                        g.remove_arc(a).unwrap();
                    }
                }
                _ => {}
            }
        }
        let mut added = 0i64;
        for k in 0..removed_tasks + 5 {
            let t = g.add_node(
                NodeKind::Task {
                    task: 1000 + k as u64,
                },
                1,
            );
            g.add_arc(t, inst.unscheduled, 1, spec.unscheduled_cost)
                .unwrap();
            for _ in 0..3 {
                let m = inst.machines[rng.below(inst.machines.len() as u64) as usize];
                g.add_arc(t, m, 1, rng.range_i64(1, spec.max_cost)).unwrap();
            }
            added += 1;
        }
        let sink = inst.sink;
        let d = g.supply(sink);
        g.set_supply(sink, d + removed_tasks - added).unwrap();
        // The unscheduled aggregator's arc to the sink must fit every task.
        let un = inst.unscheduled;
        let ua = g
            .adj(un)
            .iter()
            .copied()
            .find(|&a| g.dst(a) == sink)
            .unwrap();
        let cap = g.capacity(ua);
        g.set_arc_capacity(ua, cap + added).unwrap();
        g
    }

    /// True when some node's adjacency list is not in arena order.
    fn adjacency_out_of_arena_order(g: &FlowGraph) -> bool {
        g.node_ids()
            .any(|u| g.adj(u).windows(2).any(|w| w[0].index() > w[1].index()))
    }

    #[test]
    fn cold_solves_match_on_seeded_instances() {
        for config in configs() {
            for (k, spec) in specs().iter().enumerate() {
                for seed in 0..8 {
                    let g = scheduling_instance(seed, spec).graph;
                    let what = format!("spec {k} seed {seed} ap {}", config.arc_prioritization);
                    let (over, ..) =
                        check_cold(&g, &SolveOptions::unlimited(), &config, u64::MAX, &what)
                            .expect("feasible");
                    assert!(!over, "{what}");
                }
            }
            for seed in 0..6 {
                let g = layered_instance(seed, 15, 5, 6);
                let what = format!("layered seed {seed}");
                check_cold(&g, &SolveOptions::unlimited(), &config, u64::MAX, &what)
                    .expect("feasible");
            }
        }
    }

    #[test]
    fn negative_cost_solves_match() {
        for seed in 0..10 {
            let spec = &specs()[seed as usize % 3];
            let mut g = scheduling_instance(seed, spec).graph;
            let mut rng = XorShift64::new(seed + 1);
            inject_negative_costs(&mut g, &mut rng);
            for config in configs() {
                let what = format!("seed {seed} ap {}", config.arc_prioritization);
                check_cold(&g, &SolveOptions::unlimited(), &config, u64::MAX, &what)
                    .expect("feasible");
            }
        }
    }

    /// Warm starts from a solved flow under random prices, after a cost
    /// perturbation, with and without negative costs.
    #[test]
    fn warm_solves_from_random_prices_match() {
        for seed in 0..10 {
            let spec = &specs()[seed as usize % 3];
            let mut g = scheduling_instance(seed, spec).graph;
            let mut rng = XorShift64::new(seed + 77);
            if seed % 2 == 1 {
                inject_negative_costs(&mut g, &mut rng);
            }
            solve_cold(
                &mut g,
                &SolveOptions::unlimited(),
                &RelaxationConfig::default(),
                u64::MAX,
            )
            .unwrap();
            let arcs: Vec<ArcId> = g.arc_ids().collect();
            for _ in 0..8 {
                let a = arcs[rng.below(arcs.len() as u64) as usize];
                g.set_arc_cost(a, rng.range_i64(-20, 120)).unwrap();
            }
            let pot: Vec<i64> = (0..g.node_bound())
                .map(|_| rng.range_i64(-60, 60))
                .collect();
            for config in configs() {
                let what = format!("seed {seed} ap {}", config.arc_prioritization);
                check_warm(
                    &g,
                    &pot,
                    &SolveOptions::unlimited(),
                    &config,
                    u64::MAX,
                    &what,
                )
                .expect("feasible");
                // The same warm start under a scan limit that stops it.
                check_warm(&g, &pot, &SolveOptions::unlimited(), &config, 40, &what).unwrap();
            }
        }
    }

    /// Scan budgets cut at 1, mid-run, one short of and exactly at the
    /// cold run's work: the same `Budgeted` variant and the same counted
    /// work, and the same pseudoflow where the run stopped.
    #[test]
    fn scan_budgets_match_at_one_mid_run_and_exact_cold_work() {
        for seed in 0..6 {
            for (k, spec) in specs().iter().enumerate() {
                let g = scheduling_instance(seed, spec).graph;
                let config = RelaxationConfig::default();
                let opts = SolveOptions::unlimited();
                let what = format!("spec {k} seed {seed}");
                let (_, _, _, stats) = check_cold(&g, &opts, &config, u64::MAX, &what).unwrap();
                let work = stats.arc_scans;
                assert!(work > 2, "{what}");
                for budget in [1, work / 3, work / 2, work - 1, work, work + 1] {
                    let what = format!("{what} budget {budget}");
                    let (over, _, early, stats) =
                        check_cold(&g, &opts, &config, budget, &what).unwrap();
                    assert_eq!(over, budget < work, "{what}");
                    assert_eq!(early, over, "{what}");
                    if over {
                        assert_eq!(stats.arc_scans, budget, "{what}");
                    }
                }
            }
        }
    }

    #[test]
    fn iteration_limit_stops_match() {
        for seed in 0..6 {
            let g = scheduling_instance(seed, &specs()[1]).graph;
            let config = RelaxationConfig::default();
            let (_, _, _, stats) =
                check_cold(&g, &SolveOptions::unlimited(), &config, u64::MAX, "full").unwrap();
            for limit in [1, 2, stats.iterations / 2] {
                let opts = SolveOptions {
                    iteration_limit: Some(limit),
                    ..SolveOptions::default()
                };
                let what = format!("seed {seed} limit {limit}");
                let (over, _, early, _) = check_cold(&g, &opts, &config, u64::MAX, &what).unwrap();
                assert!(!over && early, "{what}");
            }
        }
    }

    #[test]
    fn solves_after_removal_and_slot_reuse_match() {
        for seed in 0..8 {
            let g = churned_instance(seed);
            assert!(adjacency_out_of_arena_order(&g), "seed {seed}");
            for config in configs() {
                let what = format!("churned seed {seed} ap {}", config.arc_prioritization);
                let opts = SolveOptions::unlimited();
                let (_, _, _, stats) = check_cold(&g, &opts, &config, u64::MAX, &what).unwrap();
                let work = stats.arc_scans;
                for budget in [1, work / 2, work] {
                    check_cold(
                        &g,
                        &opts,
                        &config,
                        budget,
                        &format!("{what} budget {budget}"),
                    )
                    .unwrap();
                }
            }
        }
    }

    /// A cancelled token and an unroutable instance fail the same way.
    #[test]
    fn failures_match() {
        let token = CancelToken::new();
        token.cancel();
        let g = scheduling_instance(3, &InstanceSpec::default()).graph;
        let r = check_cold(
            &g,
            &SolveOptions::with_cancel(token),
            &RelaxationConfig::default(),
            u64::MAX,
            "cancelled",
        );
        assert_eq!(r, Err(SolveError::Cancelled));

        let mut g = FlowGraph::new();
        let t = g.add_node(NodeKind::Task { task: 0 }, 2);
        let m = g.add_node(NodeKind::Machine { machine: 0 }, 0);
        let s = g.add_node(NodeKind::Sink, -2);
        g.add_arc(t, m, 2, 1).unwrap();
        g.add_arc(m, s, 1, 0).unwrap();
        let r = check_cold(
            &g,
            &SolveOptions::unlimited(),
            &RelaxationConfig::default(),
            u64::MAX,
            "infeasible",
        );
        assert_eq!(r, Err(SolveError::Infeasible));
    }
}
