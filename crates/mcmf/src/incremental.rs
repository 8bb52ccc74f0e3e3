//! Incremental cost scaling (§5.2) and the efficient-task-removal heuristic
//! (§5.3.2).
//!
//! Cluster state changes little between scheduling runs, so the solver can
//! reuse its previous flow and prices instead of starting from scratch.
//! Incremental cost scaling keeps the previous prices, repairs the
//! complementary-slackness and feasibility violations that the recorded
//! graph changes introduced, and restarts the ε-scaling loop at an ε
//! proportional to the *largest violation* rather than the largest cost —
//! 25–50 % faster than from-scratch cost scaling (Fig 11).
//!
//! # The delta feed
//!
//! [`IncrementalCostScaling::solve_with_deltas`] is the solver's one entry.
//! A warm start needs the typed [`DeltaBatch`] the graph owner recorded
//! since the last handoff: the batch bounds what changed, so the solver
//! repairs only that region. **A solve without a feed is a cold solve** —
//! nothing then bounds what changed, and the solver does not rebuild that
//! record by diffing the whole graph. A fed warm start runs four steps:
//!
//! 1. **Targeted price refine on new nodes**: each node added since the
//!    last solve gets the price that makes its residual out-arcs
//!    non-violating (`π(u) = max_a π(dst a) − F·c(a)`). Without this, new
//!    nodes sit at price 0 above a landscape that sank over many rounds,
//!    their arcs report reduced-cost violations close to `F·C`, and the
//!    ε-schedule restarts from the top — the warm start degenerates into a
//!    from-scratch solve (the fig11 pathology).
//! 2. **Dirty-region violation scan**: the starting ε is the largest
//!    complementary-slackness violation over the residual out-arcs of the
//!    *dirty region* (nodes the batch names, endpoints of changed arcs,
//!    and nodes flow moves disturbed) — O(Σ degree) in the change size.
//!    Unchanged arcs elsewhere kept their reduced cost from the previous
//!    1-optimal certificate, so they cannot violate more than 1.
//! 3. **Arc-local pseudoflow repair**: feasibility damage (supply changes,
//!    removed flow-carrying arcs, capacity spills, drains) is computed as
//!    exact excesses by O(degree) local scans of the dirty nodes — never a
//!    full-graph excess pass.
//! 4. **Targeted ε-schedule**: ε shrinks by α per phase from the costliest
//!    change down to 1 exactly as in [`run_phases`] (§6.2), but each
//!    phase's saturation pass visits only arcs adjacent to the dirty
//!    region, which grows with the nodes discharge relabels. Per-round
//!    solver work therefore scales with the delta size, not the graph
//!    size.
//!
//! A **safety valve** bounds warm-start regressions: if the warm attempt
//! exceeds four times the last from-scratch solve's work (iteration
//! count), or hits a spurious warm-start infeasibility, the solver
//! re-solves cold.

use crate::common::{AlgorithmKind, Budget, Solution, SolveError, SolveOptions, SolveStats};
use crate::cost_scaling::{run_phases, CostScalingConfig, CostScalingState, RefineStop};
use crate::price_refine::price_refine;
use firmament_flow::delta::{DeltaBatch, GraphDelta};
use firmament_flow::{ArcId, FlowGraph, NodeId, NodeKind};
use std::collections::VecDeque;

/// The safety valve: a warm-started solve that exceeds this multiple of the
/// last from-scratch solve's iteration count is abandoned and the solve
/// restarts cold, which bounds a warm-start pathology to five cold solves.
const WARM_WORK_BAILOUT: u64 = 4;

/// Configuration for incremental cost scaling.
#[derive(Debug, Clone, Default)]
pub struct IncrementalConfig {
    /// Cost-scaling tuning (α-factor).
    pub cost_scaling: CostScalingConfig,
    /// Applies [`price_refine`] to the previous solution's prices before
    /// warm-starting (§6.2). Only has an effect when the previous prices
    /// came from a different algorithm (relaxation); see
    /// [`IncrementalCostScaling::adopt_solution`].
    pub price_refine_on_adopt: bool,
}

/// Persistent scratch for the delta-fed warm path: the O(n) excess /
/// active-marker / dirty-marker / current-arc-cursor arrays stay allocated
/// across solves, with **lazy clearing** — only the entries actually
/// written during a solve (the dirty seeds plus every node discharge
/// activated, reported via its `touched` list) are reset afterwards. A
/// quiescent round therefore costs zero allocation and zero memset; the
/// arrays are only ever grown, never reallocated per round.
#[derive(Debug, Default)]
struct WarmScratch {
    excess: Vec<i64>,
    in_active: Vec<bool>,
    in_dirty: Vec<bool>,
    current_arc: Vec<usize>,
    active: VecDeque<u32>,
    dirty: Vec<u32>,
    relabeled: Vec<u32>,
    /// Nodes activated by discharge this solve (possibly with duplicates);
    /// with `dirty`, the complete set of written entries.
    touched: Vec<u32>,
    arcbuf: Vec<ArcId>,
}

impl WarmScratch {
    /// Grows the per-node arrays to cover `n` raw node slots. Growth only:
    /// entries past the old length arrive in the all-clear state.
    fn fit(&mut self, n: usize) {
        if self.excess.len() < n {
            self.excess.resize(n, 0);
            self.in_active.resize(n, false);
            self.in_dirty.resize(n, false);
            self.current_arc.resize(n, 0);
        }
    }

    /// Restores the all-clear invariant by resetting exactly the entries
    /// this solve wrote — O(written), not O(n).
    fn clear(&mut self) {
        for i in 0..self.dirty.len() {
            let u = self.dirty[i] as usize;
            self.excess[u] = 0;
            self.in_active[u] = false;
            self.in_dirty[u] = false;
            self.current_arc[u] = 0;
        }
        for i in 0..self.touched.len() {
            let u = self.touched[i] as usize;
            self.excess[u] = 0;
            self.in_active[u] = false;
            self.in_dirty[u] = false;
            self.current_arc[u] = 0;
        }
        self.active.clear();
        self.dirty.clear();
        self.relabeled.clear();
        self.touched.clear();
        self.arcbuf.clear();
    }
}

/// A reusable incremental cost-scaling solver.
///
/// Typical use inside Firmament: after each scheduling round, the winning
/// algorithm's flow is adopted via [`adopt_solution`](Self::adopt_solution);
/// on the next round the accumulated graph changes are already applied to
/// the graph and [`solve_with_deltas`](Self::solve_with_deltas) warm-starts
/// from the stored prices, guided by the recorded [`DeltaBatch`].
#[derive(Debug, Default)]
pub struct IncrementalCostScaling {
    config: IncrementalConfig,
    state: CostScalingState,
    /// Whether `state` currently certifies the adopted flow.
    warm: bool,
    /// Iteration count of the last completed from-scratch solve — the
    /// yardstick for the warm-work safety valve.
    last_cold_work: Option<u64>,
    /// Persistent warm-path buffers (lazily cleared between solves).
    scratch: WarmScratch,
}

impl IncrementalCostScaling {
    /// Creates a solver with the given configuration.
    pub fn new(config: IncrementalConfig) -> Self {
        IncrementalCostScaling {
            config,
            ..Self::default()
        }
    }

    /// Returns `true` if the solver holds warm state from a prior solution.
    pub fn is_warm(&self) -> bool {
        self.warm
    }

    /// Adopts an optimal flow produced by another algorithm (typically
    /// relaxation, §6.2): computes prices certifying it so the next
    /// incremental run can warm-start.
    ///
    /// Must be called on the solution graph *before* new cluster changes are
    /// applied; this is what guarantees price refine can find prices that
    /// satisfy complementary slackness without modifying the flow.
    ///
    /// Returns `false` (and goes cold) if the flow is not optimal, a
    /// pseudoflow that leaves excess included.
    pub fn adopt_solution(&mut self, solution_graph: &FlowGraph) -> bool {
        self.state.fit(solution_graph.node_bound());
        // Without price refine there are no prices for the foreign flow, so
        // the warm state is dropped and the next run is from scratch.
        self.warm = false;
        let feasible = solution_graph.excesses().iter().all(|&e| e == 0);
        if self.config.price_refine_on_adopt && feasible {
            if let Some(prices) = price_refine(solution_graph, self.state.scale) {
                self.state.potentials = prices;
                self.warm = true;
            }
        }
        self.warm
    }

    /// Solves the graph: warm-starts from the stored prices guided by the
    /// recorded change feed (see the module docs for the four steps), or
    /// solves from scratch when the solver is cold or `deltas` is `None`.
    ///
    /// The caller is expected to have already applied the changes in
    /// `deltas` to `graph`: the flow left over from the previous round,
    /// clamped or disrupted by those changes, is the starting pseudoflow.
    /// A cold solve resets the flow and the prices first, so it gives the
    /// flow a fresh solver would.
    pub fn solve_with_deltas(
        &mut self,
        graph: &mut FlowGraph,
        deltas: Option<&DeltaBatch>,
        opts: &SolveOptions,
    ) -> Result<Solution, SolveError> {
        let batch = match deltas {
            Some(batch) if self.warm => batch,
            // Without a feed nothing bounds what changed since the last
            // solve, so the warm state cannot be trusted.
            _ => return self.cold_solve(graph, opts),
        };
        self.state.fit(graph.node_bound());
        // Cap the warm attempt's work at a multiple of the last cold solve
        // so a pathological warm start cannot cost more than (k + 1)× a
        // from-scratch run.
        let valve = WARM_WORK_BAILOUT.saturating_mul(self.cold_work_reference(graph));
        let mut warm_opts = opts.clone();
        warm_opts.iteration_limit = Some(opts.iteration_limit.map_or(valve, |c| c.min(valve)));
        match self.warm_solve_from_deltas(graph, batch, &warm_opts) {
            Ok(sol) if !sol.terminated_early => Ok(sol),
            Ok(sol)
                if sol.stats.iterations > valve
                    && opts.iteration_limit.is_none_or(|c| valve < c) =>
            {
                // Safety valve: abandon the warm attempt, go cold.
                let mut cold = self.cold_solve(graph, opts)?;
                cold.stats.bailouts = sol.stats.bailouts + 1;
                cold.stats.iterations += sol.stats.iterations;
                Ok(cold)
            }
            Ok(sol) => {
                // The *caller's* budget ran out: report the partial
                // solution as any early termination.
                self.warm = false;
                Ok(sol)
            }
            Err(SolveError::Infeasible) => {
                // Spurious warm-start infeasibility (e.g. excess stranded
                // behind a changed capacity): retry cold before giving up.
                // The abandoned warm attempt's work is unknown here (the
                // error path drops its budget), so only the bailout is
                // counted; valve trips report the wasted iterations too.
                let mut cold = self.cold_solve(graph, opts)?;
                cold.stats.bailouts += 1;
                Ok(cold)
            }
            Err(e) => {
                self.warm = false;
                Err(e)
            }
        }
    }

    /// From-scratch cost scaling from a reset flow and fresh prices (also
    /// the warm-bailout fallback); records the work yardstick for the
    /// safety valve.
    fn cold_solve(
        &mut self,
        graph: &mut FlowGraph,
        opts: &SolveOptions,
    ) -> Result<Solution, SolveError> {
        graph.reset_flow();
        self.state = CostScalingState::default();
        self.state.fit(graph.node_bound());
        let eps0 = self.state.scale * graph.max_cost();
        let result = run_phases(
            graph,
            opts,
            &self.config.cost_scaling,
            &mut self.state,
            eps0,
        );
        match &result {
            Ok(sol) if !sol.terminated_early => {
                self.warm = true;
                self.last_cold_work = Some(sol.stats.iterations.max(1));
            }
            _ => self.warm = false,
        }
        result.map(|sol| Solution {
            algorithm: AlgorithmKind::IncrementalCostScaling,
            ..sol
        })
    }

    /// Native delta-feed warm start (module docs, steps 1–4). The O(n)
    /// working arrays live in the persistent [`WarmScratch`] and are
    /// lazily cleared afterwards, so quiescent rounds allocate nothing.
    fn warm_solve_from_deltas(
        &mut self,
        graph: &mut FlowGraph,
        batch: &DeltaBatch,
        opts: &SolveOptions,
    ) -> Result<Solution, SolveError> {
        let mut scratch = std::mem::take(&mut self.scratch);
        scratch.fit(graph.node_bound());
        let result = self.warm_solve_core(graph, batch, opts, &mut scratch);
        scratch.clear();
        self.scratch = scratch;
        result
    }

    fn warm_solve_core(
        &mut self,
        graph: &mut FlowGraph,
        batch: &DeltaBatch,
        opts: &SolveOptions,
        scratch: &mut WarmScratch,
    ) -> Result<Solution, SolveError> {
        let mut budget = Budget::new(opts);
        let mut stats = SolveStats::default();
        let scale = self.state.scale;

        // The previous solve certified balanced supplies; verify the batch
        // preserves them so the zero-sum excess argument below holds.
        let mut supply_delta = 0i64;
        for d in batch.deltas() {
            match *d {
                GraphDelta::NodeAdded { supply, .. } => supply_delta += supply,
                GraphDelta::NodeRemoved { supply, .. } => supply_delta -= supply,
                GraphDelta::SupplyChanged { old, new, .. } => supply_delta += new - old,
                _ => {}
            }
        }
        if supply_delta != 0 {
            return Err(SolveError::UnbalancedSupply {
                total: supply_delta,
            });
        }

        // Step 1: targeted price refine on new nodes, in reverse addition
        // order so chains (task → fresh aggregate → machine) see their
        // downstream prices before their own are derived. Without this,
        // new nodes at price 0 over a sunken landscape report violations
        // close to F·C and the ε-schedule restarts from the top.
        let new_nodes: Vec<NodeId> = batch
            .deltas()
            .iter()
            .filter_map(|d| match d {
                GraphDelta::NodeAdded { node, .. } => Some(*node),
                _ => None,
            })
            .collect();
        for &node in new_nodes.iter().rev() {
            if !graph.node_alive(node) {
                continue;
            }
            let mut bound = i64::MIN;
            for &a in graph.adj(node) {
                if graph.rescap(a) > 0 {
                    let v = graph.dst(a);
                    let candidate = self.state.potentials[v.index()] - scale * graph.cost(a);
                    bound = bound.max(candidate);
                }
            }
            self.state.potentials[node.index()] = if bound == i64::MIN { 0 } else { bound };
            stats.nodes_touched += 1;
        }

        // Step 2: collect the dirty region — every node a delta names,
        // the endpoints of changed arcs that can actually expose a new
        // violation, and every node a flow move disturbed. Any
        // reduced-cost violation the batch introduced sits on a residual
        // out-arc of this region: unlogged flow moves (which can re-open
        // residual capacity on arbitrarily negative saturated arcs) are
        // path-shaped with every path node marked. Unchanged residual
        // arcs elsewhere kept rc ≥ −1 from the previous certificate.
        let dirty = &mut scratch.dirty;
        for d in batch.deltas() {
            match *d {
                GraphDelta::NodeAdded { node, .. }
                | GraphDelta::SupplyChanged { node, .. }
                | GraphDelta::FlowTouched { node } => dirty.push(node.index() as u32),
                GraphDelta::NodeRemoved { .. } => {}
                GraphDelta::ArcRemoved { src, dst, flow, .. } => {
                    if flow > 0 {
                        dirty.push(src.index() as u32);
                        dirty.push(dst.index() as u32);
                    }
                }
                GraphDelta::ArcAdded { src, dst, .. } => {
                    dirty.push(src.index() as u32);
                    dirty.push(dst.index() as u32);
                }
                GraphDelta::CostChanged { arc, old, new } => {
                    // A pure re-price moves no flow, so it can only
                    // *expose* a violation, never create excess — and
                    // only in the direction the change cheapened:
                    //
                    // - cost fell: the forward residual's reduced cost
                    //   dropped — scan the tail;
                    // - cost rose on a flow-carrying arc: the reverse
                    //   residual's reduced cost dropped — scan the head;
                    // - cost rose on a flowless arc: the forward rc only
                    //   grew and the reverse has no residual capacity —
                    //   nothing to repair.
                    //
                    // The last case is the common shape of a convex
                    // bundle re-price (upper ladder segments rising as
                    // load grows while carrying no flow), which makes
                    // per-round re-pricing sweeps nearly free for the
                    // warm start.
                    if graph.arc_alive(arc) {
                        if new < old {
                            dirty.push(graph.src(arc).index() as u32);
                        }
                        if new > old && graph.flow(arc) > 0 {
                            dirty.push(graph.dst(arc).index() as u32);
                        }
                    }
                }
                GraphDelta::CapacityChanged { arc, .. } => {
                    if graph.arc_alive(arc) {
                        dirty.push(graph.src(arc).index() as u32);
                        dirty.push(graph.dst(arc).index() as u32);
                    }
                }
            }
        }
        let in_dirty = &mut scratch.in_dirty;
        dirty.retain(|&u| {
            let keep = graph.node_alive(NodeId::from_index(u as usize)) && !in_dirty[u as usize];
            if keep {
                in_dirty[u as usize] = true;
            }
            keep
        });
        // Deterministic processing order regardless of batch emission
        // order (part of the lexicographic tie-breaking work).
        dirty.sort_unstable();

        // The starting ε: the largest complementary-slackness violation
        // over the dirty region's residual out-arcs — O(Σ degree(dirty)),
        // never a full-graph scan (§6.2: "ε equal to the costliest arc
        // graph change").
        let mut eps0 = 1i64;
        for &ui in dirty.iter() {
            let u = NodeId::from_index(ui as usize);
            for &a in graph.adj(u) {
                if graph.rescap(a) > 0 {
                    let v = graph.dst(a);
                    let rc = scale * graph.cost(a) + self.state.potentials[ui as usize]
                        - self.state.potentials[v.index()];
                    if -rc > eps0 {
                        eps0 = -rc;
                    }
                }
            }
        }

        // Step 3: feasibility seeds. Only delta-touched nodes can carry
        // excess (flow moves outside the log are path-shaped and preserve
        // conservation elsewhere), and their exact excess is one O(degree)
        // local scan each.
        let excess = &mut scratch.excess;
        let mut any_excess = false;
        for &u in dirty.iter() {
            let e = local_excess(graph, NodeId::from_index(u as usize));
            excess[u as usize] = e;
            any_excess |= e != 0;
        }
        if !any_excess && eps0 <= 1 {
            // Quiescent round: nothing to repair, the warm flow is already
            // optimal for the changed graph.
            return Ok(Solution {
                algorithm: AlgorithmKind::IncrementalCostScaling,
                objective: graph.objective(),
                terminated_early: false,
                runtime: budget.elapsed(),
                stats,
            });
        }

        // Step 4: the targeted ε-schedule. Like [`run_phases`], ε shrinks
        // by α per phase from the costliest change down to 1 (§6.2) — but
        // each phase's saturation pass visits only arcs adjacent to the
        // dirty region instead of the whole graph. This is sound because
        // the previous certificate bounds every untouched arc at rc ≥ −1,
        // and new violations can only appear on out-arcs of relabeled
        // nodes, which join the dirty region as discharge reports them.
        let alpha = self.config.cost_scaling.alpha.max(2);
        let mut eps = eps0;
        let active = &mut scratch.active;
        let in_active = &mut scratch.in_active;
        let current_arc = &mut scratch.current_arc;
        let relabeled = &mut scratch.relabeled;
        let touched = &mut scratch.touched;
        let arcbuf = &mut scratch.arcbuf;
        let outcome = loop {
            stats.phases += 1;
            // Saturate violating residual arcs out of dirty nodes, making
            // the pseudoflow 0-optimal on the region discharge will work.
            for &ui in dirty.iter() {
                let u = NodeId::from_index(ui as usize);
                arcbuf.clear();
                arcbuf.extend_from_slice(graph.adj(u));
                for &a in arcbuf.iter() {
                    let r = graph.rescap(a);
                    if r <= 0 {
                        continue;
                    }
                    let v = graph.dst(a);
                    let rc = scale * graph.cost(a) + self.state.potentials[ui as usize]
                        - self.state.potentials[v.index()];
                    if rc < 0 {
                        graph.push_flow(a, r);
                        excess[ui as usize] -= r;
                        excess[v.index()] += r;
                        if excess[v.index()] > 0 && !in_active[v.index()] {
                            active.push_back(v.index() as u32);
                            in_active[v.index()] = true;
                            touched.push(v.index() as u32);
                            stats.nodes_touched += 1;
                        }
                    }
                }
            }
            for &ui in dirty.iter() {
                if excess[ui as usize] > 0 && !in_active[ui as usize] {
                    active.push_back(ui);
                    in_active[ui as usize] = true;
                    stats.nodes_touched += 1;
                }
            }
            relabeled.clear();
            let phase = crate::cost_scaling::discharge(
                graph,
                &mut self.state,
                eps,
                excess,
                active,
                in_active,
                current_arc,
                relabeled,
                touched,
                &mut budget,
                &mut stats,
            );
            if let Err(stop) = phase {
                break Err(stop);
            }
            // Nodes relabeled this phase may now have violating out-arcs;
            // fold them into the dirty region for the next phase.
            for &r in relabeled.iter() {
                if !in_dirty[r as usize] {
                    in_dirty[r as usize] = true;
                    dirty.push(r);
                }
            }
            if eps == 1 {
                break Ok(());
            }
            eps = (eps / alpha).max(1);
        };

        stats.iterations = budget.iterations;
        match outcome {
            Ok(()) => Ok(Solution {
                algorithm: AlgorithmKind::IncrementalCostScaling,
                objective: graph.objective(),
                terminated_early: false,
                runtime: budget.elapsed(),
                stats,
            }),
            Err(RefineStop::Exhausted) => Ok(Solution {
                algorithm: AlgorithmKind::IncrementalCostScaling,
                objective: graph.objective(),
                terminated_early: true,
                runtime: budget.elapsed(),
                stats,
            }),
            Err(RefineStop::Cancelled) => {
                self.warm = false;
                Err(SolveError::Cancelled)
            }
            Err(RefineStop::Infeasible) => {
                self.warm = false;
                Err(SolveError::Infeasible)
            }
        }
    }

    /// The work yardstick the safety valve multiplies: the last completed
    /// from-scratch solve, or (before any cold solve ran) a conservative
    /// size-based estimate of one.
    fn cold_work_reference(&self, graph: &FlowGraph) -> u64 {
        self.last_cold_work.unwrap_or_else(|| {
            let size = (graph.node_bound() + graph.arc_bound()) as u64;
            let phases = 64
                - (self.state.scale.max(1) as u64)
                    .saturating_mul(graph.max_cost().max(1) as u64)
                    .leading_zeros() as u64;
            size.saturating_mul(phases.max(1)).max(1024)
        })
    }
}

/// Per-node excess computed from one adjacency scan — O(degree), used by
/// the targeted repair path on delta-touched nodes only.
fn local_excess(graph: &FlowGraph, node: NodeId) -> i64 {
    let mut e = graph.supply(node);
    for &a in graph.adj(node) {
        if a.is_forward() {
            // Forward arc out of `node`.
            e -= graph.flow(a);
        } else {
            // Reverse residual: the pair's forward arc points into `node`.
            e += graph.flow(a);
        }
    }
    e
}

/// Efficient task removal (§5.3.2): reconstructs a departing task's unit of
/// flow through the graph and drains it, so the imbalance appears at the
/// sink alone instead of stranding demand at the machine node.
///
/// Call this *before* removing the task node from the graph. Returns the
/// number of flow units drained (0 if the task was unscheduled, 1 if it was
/// placed).
///
/// Without this heuristic, deleting a running task's node leaves its machine
/// with a deficit and the sink with excess, which is expensive for
/// incremental cost scaling to repair; with it, the drained path leaves the
/// graph balanced once the policy shrinks the sink's demand.
pub fn drain_task_flow(graph: &mut FlowGraph, task: NodeId) -> i64 {
    let mut drained = 0i64;
    loop {
        // Find an outgoing arc carrying flow (forward arcs only: flow on a
        // forward arc means its reverse has residual capacity).
        let mut path = Vec::new();
        let mut u = task;
        let mut steps = 0usize;
        let limit = graph.node_count() + 1;
        loop {
            let next = graph
                .adj(u)
                .iter()
                .copied()
                .find(|&a| a.is_forward() && graph.flow(a) > 0 && graph.src(a) == u);
            match next {
                Some(a) => {
                    path.push(a);
                    u = graph.dst(a);
                    steps += 1;
                    // The sink ends every path; checking it by kind skips a
                    // scan of its whole adjacency (every machine and
                    // unscheduled aggregator) per drained task.
                    if graph.kind(u) == NodeKind::Sink
                        || graph
                            .adj(u)
                            .iter()
                            .all(|&b| !(b.is_forward() && graph.src(b) == u && graph.flow(b) > 0))
                    {
                        // Reached a node with no outgoing flow.
                        break;
                    }
                    if steps > limit {
                        // Cycle of flow (cannot happen in DAG scheduling
                        // graphs); bail out to avoid spinning.
                        return drained;
                    }
                }
                None => break,
            }
        }
        if path.is_empty() {
            return drained;
        }
        // Drain one unit along the discovered path, noting every node on
        // it for the incremental solver's delta feed: conservation breaks
        // only at the endpoints, but draining re-opens residual capacity
        // on each path arc — possibly exposing a reduced-cost violation on
        // a previously saturated arc — so the whole path joins the
        // solver's dirty region.
        graph.note_flow_disturbance(task);
        for &a in &path {
            let dst = graph.dst(a);
            graph.note_flow_disturbance(dst);
            graph.push_flow(a.sister(), 1);
        }
        drained += 1;
        // Task nodes carry one unit of supply, so a single pass suffices;
        // loop again only if more outgoing flow remains (defensive).
        if graph
            .adj(task)
            .iter()
            .all(|&a| !(a.is_forward() && graph.src(a) == task && graph.flow(a) > 0))
        {
            return drained;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::is_optimal;
    use firmament_flow::testgen::{scheduling_instance, InstanceSpec};
    use firmament_flow::{ArcId, NodeKind};

    fn grow_unscheduled_capacity(inst: &mut firmament_flow::testgen::Instance, by: i64) {
        let arc = inst
            .graph
            .adj(inst.unscheduled)
            .iter()
            .copied()
            .find(|&a| a.is_forward() && inst.graph.dst(a) == inst.sink)
            .unwrap();
        let cap = inst.graph.capacity(arc);
        inst.graph.set_arc_capacity(arc, cap + by).unwrap();
    }

    /// Whether the scratch's all-clear invariant holds (the oracle for the
    /// lazy clearing).
    fn is_clean(s: &WarmScratch) -> bool {
        s.active.is_empty()
            && s.dirty.is_empty()
            && s.relabeled.is_empty()
            && s.touched.is_empty()
            && s.excess.iter().all(|&e| e == 0)
            && s.in_active.iter().all(|&b| !b)
            && s.in_dirty.iter().all(|&b| !b)
            && s.current_arc.iter().all(|&c| c == 0)
    }

    /// A cold solve, after which the graph records its changes for the
    /// next fed solve.
    fn solve_cold(inc: &mut IncrementalCostScaling, graph: &mut FlowGraph) -> Solution {
        let sol = inc
            .solve_with_deltas(graph, None, &SolveOptions::unlimited())
            .unwrap();
        graph.set_change_tracking(true);
        sol
    }

    /// A warm solve fed the changes recorded since the last solve.
    fn solve_fed(inc: &mut IncrementalCostScaling, graph: &mut FlowGraph) -> Solution {
        let batch = graph.take_deltas();
        inc.solve_with_deltas(graph, Some(&batch), &SolveOptions::unlimited())
            .unwrap()
    }

    #[test]
    fn cold_solve_matches_from_scratch() {
        let mut inst = scheduling_instance(1, &InstanceSpec::default());
        let mut inc = IncrementalCostScaling::default();
        let sol = solve_cold(&mut inc, &mut inst.graph);
        assert!(is_optimal(&inst.graph));
        let mut fresh = scheduling_instance(1, &InstanceSpec::default());
        let s2 = crate::cost_scaling::solve(&mut fresh.graph, &SolveOptions::unlimited()).unwrap();
        assert_eq!(sol.objective, s2.objective);
        assert!(inc.is_warm());
    }

    /// A solve without a feed is a cold solve: a solver that was warm gives
    /// the flow, arc for arc, and the counted work of a fresh solver's cold
    /// solve of the same graph.
    #[test]
    fn feedless_solve_of_a_warm_solver_is_cold() {
        let mut inst = scheduling_instance(8, &InstanceSpec::default());
        let mut inc = IncrementalCostScaling::default();
        solve_cold(&mut inc, &mut inst.graph);
        let arcs: Vec<ArcId> = inst.graph.arc_ids().collect();
        inst.graph.set_arc_cost(arcs[4], 2).unwrap();
        solve_fed(&mut inc, &mut inst.graph);
        inst.graph.set_arc_cost(arcs[9], 120).unwrap();
        assert!(inc.is_warm());

        let mut fresh_graph = inst.graph.clone();
        let fresh = IncrementalCostScaling::default()
            .solve_with_deltas(&mut fresh_graph, None, &SolveOptions::unlimited())
            .unwrap();
        let sol = inc
            .solve_with_deltas(&mut inst.graph, None, &SolveOptions::unlimited())
            .unwrap();
        for a in arcs {
            assert_eq!(inst.graph.flow(a), fresh_graph.flow(a), "arc {a}");
        }
        assert!(sol.stats.arc_scans > 0);
        assert_eq!(sol.stats, fresh.stats, "same counted work");
        assert!(inc.is_warm(), "a cold solve re-warms the solver");
    }

    #[test]
    fn warm_resolve_after_cost_changes_matches_scratch() {
        for seed in 0..5 {
            let mut inst = scheduling_instance(seed, &InstanceSpec::default());
            let mut inc = IncrementalCostScaling::default();
            solve_cold(&mut inc, &mut inst.graph);

            let arcs: Vec<ArcId> = inst.graph.arc_ids().collect();
            inst.graph.set_arc_cost(arcs[5], 3).unwrap();
            inst.graph.set_arc_cost(arcs[11], 180).unwrap();

            let warm = solve_fed(&mut inc, &mut inst.graph);
            assert!(is_optimal(&inst.graph), "seed {seed}");
            let mut fresh = inst.graph.clone();
            let scratch =
                crate::cost_scaling::solve(&mut fresh, &SolveOptions::unlimited()).unwrap();
            assert_eq!(warm.objective, scratch.objective, "seed {seed}");
        }
    }

    #[test]
    fn warm_resolve_after_task_arrival() {
        let mut inst = scheduling_instance(3, &InstanceSpec::default());
        let mut inc = IncrementalCostScaling::default();
        solve_cold(&mut inc, &mut inst.graph);

        // Submit a new task.
        let t = inst.graph.add_node(NodeKind::Task { task: 777 }, 1);
        inst.graph.add_arc(t, inst.machines[2], 1, 4).unwrap();
        inst.graph.add_arc(t, inst.unscheduled, 1, 150).unwrap();
        let d = inst.graph.supply(inst.sink);
        inst.graph.set_supply(inst.sink, d - 1).unwrap();
        grow_unscheduled_capacity(&mut inst, 1);

        let warm = solve_fed(&mut inc, &mut inst.graph);
        assert!(is_optimal(&inst.graph));
        let mut fresh = inst.graph.clone();
        let scratch = crate::cost_scaling::solve(&mut fresh, &SolveOptions::unlimited()).unwrap();
        assert_eq!(warm.objective, scratch.objective);
    }

    /// The same scenario as `warm_resolve_after_task_arrival`, but driven
    /// through the recorded delta feed: the solve must go through the
    /// targeted path and still match a from-scratch solve exactly.
    #[test]
    fn delta_fed_warm_resolve_matches_scratch() {
        for seed in 0..8 {
            let mut inst = scheduling_instance(seed, &InstanceSpec::default());
            let mut inc = IncrementalCostScaling::default();
            solve_cold(&mut inc, &mut inst.graph);

            inst.graph.set_change_tracking(true);
            // A task arrives...
            let t = inst.graph.add_node(NodeKind::Task { task: 777 }, 1);
            inst.graph.add_arc(t, inst.machines[2], 1, 4).unwrap();
            inst.graph.add_arc(t, inst.unscheduled, 1, 150).unwrap();
            let d = inst.graph.supply(inst.sink);
            inst.graph.set_supply(inst.sink, d - 1).unwrap();
            grow_unscheduled_capacity(&mut inst, 1);
            // ...and a placed task departs, drained §5.3.2-style.
            let scheduled = inst
                .tasks
                .iter()
                .copied()
                .find(|&t| {
                    inst.graph.adj(t).iter().any(|&a| {
                        a.is_forward()
                            && inst.graph.flow(a) > 0
                            && inst.graph.dst(a) != inst.unscheduled
                    })
                })
                .expect("at least one task scheduled");
            drain_task_flow(&mut inst.graph, scheduled);
            inst.graph.remove_node(scheduled).unwrap();
            let d = inst.graph.supply(inst.sink);
            inst.graph.set_supply(inst.sink, d + 1).unwrap();
            grow_unscheduled_capacity(&mut inst, -1);

            let batch = inst.graph.take_deltas();
            assert!(!batch.is_empty());
            let warm = inc
                .solve_with_deltas(&mut inst.graph, Some(&batch), &SolveOptions::unlimited())
                .unwrap();
            assert!(is_optimal(&inst.graph), "seed {seed}");
            assert!(inc.is_warm(), "seed {seed}");
            let mut fresh = inst.graph.clone();
            let scratch =
                crate::cost_scaling::solve(&mut fresh, &SolveOptions::unlimited()).unwrap();
            assert_eq!(warm.objective, scratch.objective, "seed {seed}");
            assert_eq!(warm.stats.bailouts, 0, "seed {seed}");
        }
    }

    /// A quiescent delta feed (no changes) must not touch the graph at all.
    #[test]
    fn empty_delta_feed_is_free() {
        let mut inst = scheduling_instance(4, &InstanceSpec::default());
        let mut inc = IncrementalCostScaling::default();
        solve_cold(&mut inc, &mut inst.graph);
        let before: Vec<i64> = inst.graph.arc_ids().map(|a| inst.graph.flow(a)).collect();
        let batch = DeltaBatch::empty();
        let sol = inc
            .solve_with_deltas(&mut inst.graph, Some(&batch), &SolveOptions::unlimited())
            .unwrap();
        let after: Vec<i64> = inst.graph.arc_ids().map(|a| inst.graph.flow(a)).collect();
        assert_eq!(before, after, "quiescent round must not move flow");
        assert_eq!(sol.stats.nodes_touched, 0);
        assert_eq!(sol.stats.augmentations, 0);
        assert!(is_optimal(&inst.graph));
    }

    /// Per-round solver work must scale with the change size, not the
    /// graph size: one task arriving and one departing on a big graph
    /// touch a bounded neighborhood, not thousands of nodes.
    #[test]
    fn delta_fed_work_scales_with_change_size() {
        let spec = InstanceSpec {
            tasks: 400,
            machines: 60,
            slots_per_machine: 8,
            ..InstanceSpec::default()
        };
        let mut inst = scheduling_instance(2, &spec);
        let mut inc = IncrementalCostScaling::default();
        let cold = solve_cold(&mut inc, &mut inst.graph);

        inst.graph.set_change_tracking(true);
        // One task arrives with two preference arcs...
        let t = inst.graph.add_node(NodeKind::Task { task: 9999 }, 1);
        inst.graph.add_arc(t, inst.machines[3], 1, 4).unwrap();
        inst.graph.add_arc(t, inst.unscheduled, 1, 150).unwrap();
        let d = inst.graph.supply(inst.sink);
        inst.graph.set_supply(inst.sink, d - 1).unwrap();
        grow_unscheduled_capacity(&mut inst, 1);
        // ...and one placed task departs (drained §5.3.2-style).
        let scheduled = inst
            .tasks
            .iter()
            .copied()
            .find(|&t| {
                inst.graph.adj(t).iter().any(|&a| {
                    a.is_forward()
                        && inst.graph.flow(a) > 0
                        && inst.graph.dst(a) != inst.unscheduled
                })
            })
            .expect("at least one task scheduled");
        drain_task_flow(&mut inst.graph, scheduled);
        inst.graph.remove_node(scheduled).unwrap();
        let d = inst.graph.supply(inst.sink);
        inst.graph.set_supply(inst.sink, d + 1).unwrap();
        grow_unscheduled_capacity(&mut inst, -1);

        let batch = inst.graph.take_deltas();
        let warm = inc
            .solve_with_deltas(&mut inst.graph, Some(&batch), &SolveOptions::unlimited())
            .unwrap();
        assert!(is_optimal(&inst.graph));
        assert_eq!(warm.stats.bailouts, 0);
        assert!(
            warm.stats.nodes_touched * 20 <= cold.stats.nodes_touched.max(20),
            "two-task change touched {} nodes (cold solve touched {})",
            warm.stats.nodes_touched,
            cold.stats.nodes_touched
        );
        assert!(
            warm.stats.iterations * 20 <= cold.stats.iterations.max(20),
            "warm {} vs cold {} iterations",
            warm.stats.iterations,
            cold.stats.iterations
        );
        let mut fresh = inst.graph.clone();
        let scratch = crate::cost_scaling::solve(&mut fresh, &SolveOptions::unlimited()).unwrap();
        assert_eq!(warm.objective, scratch.objective);
    }

    /// Regression pin for the fig11 warm-start pathology (ROADMAP):
    /// warm-started work must stay within 2× of from-scratch *work*
    /// (iteration counts, not wall clock, so CI stays stable). The root
    /// cause was twofold: new nodes entering at price 0 over a sunken
    /// landscape (violations ≈ F·C restarted the ε-schedule from the
    /// top — fixed by the targeted price init), and §5.3.2 drains
    /// re-opening residual capacity on saturated arcs at nodes no delta
    /// named (fixed by the flow-disturbance markers). The safety valve
    /// bounds any residual pathology to `(k + 1)×` cold.
    #[test]
    fn warm_work_within_twice_scratch_after_removal_drains() {
        for seed in [2, 7, 13] {
            let spec = InstanceSpec {
                tasks: 200,
                machines: 30,
                slots_per_machine: 6,
                ..InstanceSpec::default()
            };
            let mut inst = scheduling_instance(seed, &spec);
            let mut inc = IncrementalCostScaling::default();
            solve_cold(&mut inc, &mut inst.graph);

            inst.graph.set_change_tracking(true);
            // The fig11 burst shape: a batch of placed tasks departs
            // (drained), and a batch of new tasks arrives.
            let victims: Vec<NodeId> = inst
                .tasks
                .iter()
                .copied()
                .filter(|&t| {
                    inst.graph.adj(t).iter().any(|&a| {
                        a.is_forward()
                            && inst.graph.flow(a) > 0
                            && inst.graph.dst(a) != inst.unscheduled
                    })
                })
                .take(8)
                .collect();
            for t in victims {
                drain_task_flow(&mut inst.graph, t);
                inst.graph.remove_node(t).unwrap();
                let d = inst.graph.supply(inst.sink);
                inst.graph.set_supply(inst.sink, d + 1).unwrap();
                grow_unscheduled_capacity(&mut inst, -1);
            }
            for i in 0..5u64 {
                let t = inst.graph.add_node(NodeKind::Task { task: 8000 + i }, 1);
                inst.graph
                    .add_arc(t, inst.machines[i as usize % inst.machines.len()], 1, 4)
                    .unwrap();
                inst.graph.add_arc(t, inst.unscheduled, 1, 150).unwrap();
                let d = inst.graph.supply(inst.sink);
                inst.graph.set_supply(inst.sink, d - 1).unwrap();
                grow_unscheduled_capacity(&mut inst, 1);
            }
            let batch = inst.graph.take_deltas();

            let mut scratch_graph = inst.graph.clone();
            let scratch =
                crate::cost_scaling::solve(&mut scratch_graph, &SolveOptions::unlimited()).unwrap();
            let warm = inc
                .solve_with_deltas(&mut inst.graph, Some(&batch), &SolveOptions::unlimited())
                .unwrap();
            assert!(is_optimal(&inst.graph), "seed {seed}");
            assert_eq!(warm.objective, scratch.objective, "seed {seed}");
            assert!(
                warm.stats.iterations <= 2 * scratch.stats.iterations,
                "seed {seed}: warm work {} exceeds 2x scratch work {}",
                warm.stats.iterations,
                scratch.stats.iterations
            );
        }
    }

    /// Baseline for the ROADMAP "warm-start cascade on drain-heavy
    /// bursts" gap (discovered during PR 3): when a §5.3.2 drain frees a
    /// slot that a *waiting* task should take, the re-exposed arc violates
    /// by ≈ `F·c_unsched`, the ε-schedule runs near its full depth, and
    /// the coarse-ε discharge disturbs a large region — so warm work on a
    /// drain-then-backfill script is nowhere near the order-of-magnitude
    /// win structural-only rounds see.
    ///
    /// This test *pins the current bounded ratio* (warm ≤ 2× scratch
    /// iterations — the safety valve guarantees ≤ 4× in the worst case)
    /// so the future fix — a bounded cycle-cancel (the repair is usually a
    /// 4-arc augmenting cycle) or a zero-reduced-cost push lookahead —
    /// has a measured baseline to beat. When that lands, tighten the
    /// bound here toward the structural-round ratio (~0.1×).
    #[test]
    fn drain_backfill_cascade_baseline_for_cycle_cancel_fix() {
        for seed in [3, 11, 19] {
            // Oversubscribed: 200 tasks on 180 slots, so ~20 tasks wait on
            // their unscheduled arcs when the instance is solved.
            let spec = InstanceSpec {
                tasks: 200,
                machines: 30,
                slots_per_machine: 6,
                ..InstanceSpec::default()
            };
            let mut inst = scheduling_instance(seed, &spec);
            let mut inc = IncrementalCostScaling::default();
            solve_cold(&mut inc, &mut inst.graph);

            // Drain-then-backfill: placed tasks complete, freeing slots a
            // waiting task should take (a real optimality move worth
            // `c_unsched − c_pref` per backfill).
            inst.graph.set_change_tracking(true);
            let victims: Vec<NodeId> = inst
                .tasks
                .iter()
                .copied()
                .filter(|&t| {
                    inst.graph.adj(t).iter().any(|&a| {
                        a.is_forward()
                            && inst.graph.flow(a) > 0
                            && inst.graph.dst(a) != inst.unscheduled
                    })
                })
                .take(10)
                .collect();
            assert_eq!(victims.len(), 10, "seed {seed}: need placed victims");
            for t in victims {
                drain_task_flow(&mut inst.graph, t);
                inst.graph.remove_node(t).unwrap();
                let d = inst.graph.supply(inst.sink);
                inst.graph.set_supply(inst.sink, d + 1).unwrap();
                grow_unscheduled_capacity(&mut inst, -1);
            }
            let batch = inst.graph.take_deltas();

            let mut scratch_graph = inst.graph.clone();
            let scratch =
                crate::cost_scaling::solve(&mut scratch_graph, &SolveOptions::unlimited()).unwrap();
            let warm = inc
                .solve_with_deltas(&mut inst.graph, Some(&batch), &SolveOptions::unlimited())
                .unwrap();
            assert!(is_optimal(&inst.graph), "seed {seed}");
            assert_eq!(warm.objective, scratch.objective, "seed {seed}");
            // The backfill actually happened: the freed capacity is used
            // by previously-unscheduled flow (objective strictly better
            // than leaving the drained slots empty would allow is implied
            // by optimality; here we just pin the work ratio).
            assert!(
                warm.stats.iterations <= 2 * scratch.stats.iterations.max(1),
                "seed {seed}: drain-backfill warm work {} exceeds the pinned \
                 2x scratch baseline {} — if this got *better*, tighten the \
                 bound (ROADMAP: warm-start cascade on drain-heavy bursts)",
                warm.stats.iterations,
                scratch.stats.iterations
            );
        }
    }

    /// The safety valve: a warm solve capped at a tiny work multiple must
    /// fall back to a cold solve and still return the optimum.
    #[test]
    fn safety_valve_bails_to_cold() {
        let mut inst = scheduling_instance(6, &InstanceSpec::default());
        let mut inc = IncrementalCostScaling::default();
        solve_cold(&mut inc, &mut inst.graph);
        // Make the valve absurdly tight so any non-trivial warm attempt
        // trips it.
        inc.last_cold_work = Some(1);
        // Invalidate many costs so the warm attempt has real work to do.
        let arcs: Vec<ArcId> = inst.graph.arc_ids().collect();
        for (i, &a) in arcs.iter().enumerate().take(20) {
            inst.graph
                .set_arc_cost(a, (i as i64 * 13) % 97 + 1)
                .unwrap();
        }
        let sol = solve_fed(&mut inc, &mut inst.graph);
        assert_eq!(sol.stats.bailouts, 1, "valve must have tripped");
        assert!(is_optimal(&inst.graph));
        assert!(inc.is_warm(), "cold fallback re-warms on success");
        let mut fresh = inst.graph.clone();
        let scratch = crate::cost_scaling::solve(&mut fresh, &SolveOptions::unlimited()).unwrap();
        assert_eq!(sol.objective, scratch.objective);
    }

    /// The persistent scratch: after every warm solve — busy or quiescent
    /// — the lazily-cleared buffers are back in the all-clear state, and
    /// the allocations persist across rounds (no per-round realloc).
    #[test]
    fn warm_scratch_is_lazily_cleared_and_reused() {
        let mut inst = scheduling_instance(3, &InstanceSpec::default());
        let mut inc = IncrementalCostScaling::default();
        solve_cold(&mut inc, &mut inst.graph);
        assert!(is_clean(&inc.scratch), "initial state is clean");

        // A real change burst through the delta path.
        inst.graph.set_change_tracking(true);
        let t = inst.graph.add_node(NodeKind::Task { task: 4242 }, 1);
        inst.graph.add_arc(t, inst.machines[1], 1, 4).unwrap();
        inst.graph.add_arc(t, inst.unscheduled, 1, 150).unwrap();
        let d = inst.graph.supply(inst.sink);
        inst.graph.set_supply(inst.sink, d - 1).unwrap();
        grow_unscheduled_capacity(&mut inst, 1);
        let batch = inst.graph.take_deltas();
        inc.solve_with_deltas(&mut inst.graph, Some(&batch), &SolveOptions::unlimited())
            .unwrap();
        assert!(is_optimal(&inst.graph));
        assert!(
            is_clean(&inc.scratch),
            "busy round must restore the all-clear invariant"
        );
        let cap = inc.scratch.excess.capacity();
        assert!(cap >= inst.graph.node_bound(), "buffers sized to the graph");

        // Quiescent rounds reuse the same allocations.
        for _ in 0..3 {
            inc.solve_with_deltas(
                &mut inst.graph,
                Some(&DeltaBatch::empty()),
                &SolveOptions::unlimited(),
            )
            .unwrap();
            assert!(is_clean(&inc.scratch));
            assert_eq!(
                inc.scratch.excess.capacity(),
                cap,
                "quiescent rounds must not reallocate scratch"
            );
        }
    }

    /// Re-pricing a flowless arc upward — the common convex-bundle shape
    /// (upper ladder segments rising with load) — must be recognized as
    /// violation-free: the warm start does no repair work at all.
    #[test]
    fn flowless_cost_increase_is_free_for_the_warm_start() {
        let mut inst = scheduling_instance(7, &InstanceSpec::default());
        let mut inc = IncrementalCostScaling::default();
        solve_cold(&mut inc, &mut inst.graph);
        // Raise the cost of every flowless arc (except unscheduled arcs,
        // to keep the optimum where it is).
        inst.graph.set_change_tracking(true);
        let arcs: Vec<ArcId> = inst.graph.arc_ids().collect();
        let mut bumped = 0;
        for a in arcs {
            if inst.graph.flow(a) == 0 && inst.graph.dst(a) != inst.sink {
                let c = inst.graph.cost(a);
                inst.graph.set_arc_cost(a, c + 5).unwrap();
                bumped += 1;
            }
        }
        assert!(bumped > 0, "instance must have flowless arcs");
        let batch = inst.graph.take_deltas();
        let before = inst.graph.objective();
        let sol = inc
            .solve_with_deltas(&mut inst.graph, Some(&batch), &SolveOptions::unlimited())
            .unwrap();
        assert!(is_optimal(&inst.graph));
        assert_eq!(
            sol.stats.nodes_touched, 0,
            "flowless cost increases must not activate any node"
        );
        assert_eq!(sol.objective, before, "flow untouched");
        // And it really is still the optimum of the re-priced graph.
        let mut fresh = inst.graph.clone();
        let scratch = crate::cost_scaling::solve(&mut fresh, &SolveOptions::unlimited()).unwrap();
        assert_eq!(sol.objective, scratch.objective);
    }

    #[test]
    fn drain_task_flow_balances_graph() {
        let mut inst = scheduling_instance(5, &InstanceSpec::default());
        let mut inc = IncrementalCostScaling::default();
        solve_cold(&mut inc, &mut inst.graph);

        // Pick a task that is actually scheduled on a machine.
        let scheduled = inst
            .tasks
            .iter()
            .copied()
            .find(|&t| {
                inst.graph.adj(t).iter().any(|&a| {
                    a.is_forward()
                        && inst.graph.flow(a) > 0
                        && inst.graph.dst(a) != inst.unscheduled
                })
            })
            .expect("at least one task scheduled");
        let drained = drain_task_flow(&mut inst.graph, scheduled);
        assert_eq!(drained, 1);
        // Complete the removal the way a policy would: delete the node and
        // shrink the sink's demand.
        inst.graph.remove_node(scheduled).unwrap();
        let d = inst.graph.supply(inst.sink);
        inst.graph.set_supply(inst.sink, d + 1).unwrap();
        // The graph is perfectly balanced: no excesses anywhere.
        let e = inst.graph.excesses();
        assert!(
            e.iter().all(|&x| x == 0),
            "drain left imbalance: {:?}",
            e.iter().filter(|&&x| x != 0).collect::<Vec<_>>()
        );
    }

    /// The walk stops at the sink by kind: on a sink with over a thousand
    /// in-arcs the drained count, the path (the nodes noted for the
    /// solver's delta feed) and the resulting flows are exactly those of a
    /// walk that scans the sink's adjacency.
    #[test]
    fn drain_stops_at_a_wide_sink() {
        let mut g = FlowGraph::new();
        g.set_change_tracking(true);
        let busy = 1_200usize;
        let t = g.add_node(NodeKind::Task { task: 0 }, 1);
        let x = g.add_node(NodeKind::ClusterAggregator, 0);
        let sink = g.add_node(NodeKind::Sink, -(busy as i64 + 1));
        let tx = g.add_arc(t, x, 1, 1).unwrap();
        let mut machine_arcs = Vec::new();
        for m in 0..busy {
            let mn = g.add_node(NodeKind::Machine { machine: m as u64 }, 0);
            let other = g.add_node(NodeKind::Task { task: 1 + m as u64 }, 1);
            let om = g.add_arc(other, mn, 1, 0).unwrap();
            let ms = g.add_arc(mn, sink, 2, 0).unwrap();
            g.push_flow(om, 1);
            g.push_flow(ms, 1);
            machine_arcs.push((mn, ms));
        }
        let (m0, m0s) = machine_arcs[busy / 2];
        let xm = g.add_arc(x, m0, 1, 0).unwrap();
        for a in [tx, xm, m0s] {
            g.push_flow(a, 1);
        }
        assert!(g.adj(sink).len() >= 1_000);
        let before: Vec<(ArcId, i64)> = g.arc_ids().map(|a| (a, g.flow(a))).collect();
        g.take_deltas();

        assert_eq!(drain_task_flow(&mut g, t), 1);
        let batch = g.take_deltas();
        let noted: Vec<NodeId> = batch
            .deltas()
            .iter()
            .map(|d| match *d {
                GraphDelta::FlowTouched { node } => node,
                ref other => panic!("drain only notes disturbances, got {other:?}"),
            })
            .collect();
        assert_eq!(batch.raw_len(), noted.len(), "one marker per node");
        assert_eq!(noted, vec![t, x, m0, sink], "path t → x → m → sink");
        for (a, f) in before {
            let expected = if [tx, xm, m0s].contains(&a) { f - 1 } else { f };
            assert_eq!(g.flow(a), expected, "arc {a}");
        }
        assert_eq!(drain_task_flow(&mut g, t), 0, "nothing left to drain");
    }

    #[test]
    fn removal_without_drain_leaves_imbalance() {
        // The contrast case motivating the heuristic.
        let mut inst = scheduling_instance(5, &InstanceSpec::default());
        let mut inc = IncrementalCostScaling::default();
        solve_cold(&mut inc, &mut inst.graph);
        let scheduled = inst
            .tasks
            .iter()
            .copied()
            .find(|&t| {
                inst.graph.adj(t).iter().any(|&a| {
                    a.is_forward()
                        && inst.graph.flow(a) > 0
                        && inst.graph.dst(a) != inst.unscheduled
                })
            })
            .expect("at least one task scheduled");
        inst.graph.remove_node(scheduled).unwrap();
        let d = inst.graph.supply(inst.sink);
        inst.graph.set_supply(inst.sink, d + 1).unwrap();
        let e = inst.graph.excesses();
        assert!(
            e.iter().any(|&x| x != 0),
            "removing a placed task without draining must unbalance the graph"
        );
    }

    #[test]
    fn incremental_with_task_removal_matches_scratch() {
        let mut inst = scheduling_instance(9, &InstanceSpec::default());
        let mut inc = IncrementalCostScaling::default();
        solve_cold(&mut inc, &mut inst.graph);

        // Remove three tasks with the drain heuristic.
        let victims: Vec<NodeId> = inst.tasks[0..3].to_vec();
        for t in victims {
            drain_task_flow(&mut inst.graph, t);
            inst.graph.remove_node(t).unwrap();
            let d = inst.graph.supply(inst.sink);
            inst.graph.set_supply(inst.sink, d + 1).unwrap();
        }
        let warm = solve_fed(&mut inc, &mut inst.graph);
        assert!(is_optimal(&inst.graph));
        let mut fresh = inst.graph.clone();
        let scratch = crate::cost_scaling::solve(&mut fresh, &SolveOptions::unlimited()).unwrap();
        assert_eq!(warm.objective, scratch.objective);
    }

    #[test]
    fn adopt_relaxation_solution_and_resolve() {
        let mut inst = scheduling_instance(12, &InstanceSpec::default());
        crate::relaxation::solve(&mut inst.graph, &SolveOptions::unlimited()).unwrap();
        let mut inc = IncrementalCostScaling::new(IncrementalConfig {
            price_refine_on_adopt: true,
            ..Default::default()
        });
        assert!(inc.adopt_solution(&inst.graph));
        assert!(inc.is_warm());
        inst.graph.set_change_tracking(true);

        // Apply a change, then warm-solve.
        let arcs: Vec<ArcId> = inst.graph.arc_ids().collect();
        inst.graph.set_arc_cost(arcs[9], 2).unwrap();
        let warm = solve_fed(&mut inc, &mut inst.graph);
        assert!(is_optimal(&inst.graph));
        let mut fresh = inst.graph.clone();
        let scratch = crate::cost_scaling::solve(&mut fresh, &SolveOptions::unlimited()).unwrap();
        assert_eq!(warm.objective, scratch.objective);
    }

    #[test]
    fn adopt_without_price_refine_goes_cold() {
        let mut inst = scheduling_instance(12, &InstanceSpec::default());
        crate::relaxation::solve(&mut inst.graph, &SolveOptions::unlimited()).unwrap();
        let mut inc = IncrementalCostScaling::new(IncrementalConfig {
            price_refine_on_adopt: false,
            ..Default::default()
        });
        assert!(!inc.adopt_solution(&inst.graph));
        assert!(!inc.is_warm());
    }

    /// Relaxation stopped early leaves a pseudoflow that price refine can
    /// certify, as no residual cycle is negative; adopting it must still
    /// go cold, or the next fed solve would look for excess only where its
    /// batch points.
    #[test]
    fn adopting_a_pseudoflow_goes_cold() {
        let mut inst = scheduling_instance(12, &InstanceSpec::default());
        let one = SolveOptions {
            iteration_limit: Some(1),
            ..SolveOptions::default()
        };
        let sol = crate::relaxation::solve(&mut inst.graph, &one).unwrap();
        assert!(sol.terminated_early);
        assert!(price_refine(&inst.graph, 1).is_some());
        let mut inc = IncrementalCostScaling::new(IncrementalConfig {
            price_refine_on_adopt: true,
            ..Default::default()
        });
        assert!(!inc.adopt_solution(&inst.graph));
        assert!(!inc.is_warm());
    }
}
