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
//!
//! # The solver's copy of the graph
//!
//! The engine does not run on the live [`FlowGraph`]. A run first fills a
//! [`ResidualCsr`] — node `u`'s residual arcs at positions
//! `offsets[u]..offsets[u + 1]`, in `adj(u)` order, each a 24-byte record of
//! residual capacity, cost, destination and sister position — and works on
//! positions in that copy. Each examination is then one sequential read,
//! where the live graph costs an `ArcId` read from a per-node list that
//! lies wherever the allocator put it plus a random read of an arena slot,
//! so the engine's speed no longer depends on the graph's heap history.
//! Spans keep `adj(u)` order and the engine charges one span per scan, as
//! an engine walking the adjacency lists charges one list, so the
//! traversal, the arithmetic, the flow and the counted work
//! ([`SolveStats::arc_scans`]) are those of such an engine; a test-only
//! copy of one (the `oracle` module) pins this on every kind of run.
//!
//! The cold path folds four whole-graph passes into the copy: the fill
//! writes every pair flowless (no `reset_flow`), the complementary
//! slackness pass runs over the copy and keeps node excesses up to date as
//! it pushes (no `excesses()`), and the write-back returns the objective
//! (no `objective()`). A caller that solves repeatedly, such as
//! [`DualSolver`](crate::dual::DualSolver), keeps the copy and the
//! engine's per-node buffers in one `Workspace`, so a steady round
//! allocates nothing.
//!
//! # The start
//!
//! Every run — [`solve`], [`solve_with`] and each run of
//! [`DualSolver`](crate::dual::DualSolver) — starts from the same prices,
//! set when the copy is filled: a node whose residual arcs all enter one
//! deficit node at a positive cost starts at minus the cheapest of those
//! costs, so that arc is balanced from the start, and every other node
//! starts at zero. A scheduler that parks the wait clock on each job's
//! `U_j → S` arc then gets the same run as one that put it on every task's
//! arc: the dual ascent need not first lower the price of `U_j`, which
//! pushed flow back from every task already routed through it. On
//! contended-hier, a zero-price start spent 10.9 M arc scans a round on
//! that graph against 4.1 M with the clock on the task arcs, and the
//! seeded start 4.2 M. A graph whose arcs into deficit nodes all cost 0
//! starts at all-zero prices.
//!
//! **A run that does not finish leaves the graph untouched.** A run that
//! fails — cancelled, or infeasible — or that spends its scan budget drops
//! its copy without writing it back, so the graph is exactly as it was
//! before the call. A run that finishes writes its flow back, and so does
//! one that stops early on an iteration or time limit of the caller's
//! [`SolveOptions`]: it leaves its pseudoflow in the graph.

use crate::common::{
    AlgorithmKind, Budget, BudgetStop, Solution, SolveError, SolveOptions, SolveStats,
};
use crate::maxflow;
use firmament_flow::{CsrArc, FlowGraph, ResidualCsr};
use std::collections::VecDeque;
use std::time::{Duration, Instant};

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

/// Solves min-cost max-flow by relaxation from scratch (from the prices of
/// the module docs' start rule), leaving the optimal flow in the graph. On
/// error the graph is left as it was.
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
    attempt_within(graph, opts, config, u64::MAX, &mut Workspace::default())
        .map(Budgeted::into_solution)
}

/// How a relaxation run under a work budget ended.
#[derive(Debug)]
pub(crate) enum Budgeted {
    /// The run finished, or stopped early on a limit of the caller's
    /// [`SolveOptions`], before its work budget ran out.
    Finished(Solution),
    /// The run spent its whole work budget first (`stats.arc_scans` equals
    /// the budget) and stopped; the graph keeps the flow it had, and the
    /// objective is that flow's.
    OverBudget(Solution),
}

impl Budgeted {
    pub(crate) fn into_solution(self) -> Solution {
        match self {
            Budgeted::Finished(sol) | Budgeted::OverBudget(sol) => sol,
        }
    }
}

/// The buffers a relaxation run works in: the copy of the residual network
/// and the engine's per-node state. Kept by a caller that solves
/// repeatedly: the copy and the per-node buffers grow to the graph's live
/// size exactly, the queues as far as a run needs, and the next run reuses
/// them as they are.
#[derive(Debug, Default)]
pub(crate) struct Workspace {
    csr: ResidualCsr,
    /// Prices, by raw node index.
    pot: Vec<i64>,
    excess: Vec<i64>,
    in_queue: Vec<bool>,
    /// Epoch-stamped membership for the cut S, rebuilt every iteration
    /// without clearing.
    stamp: Vec<u64>,
    /// The tree arc (a position in the copy) that reached each cut member.
    pred: Vec<u32>,
    members: Vec<u32>,
    queue: VecDeque<u32>,
    frontier: VecDeque<u32>,
}

impl Workspace {
    /// Sizes the per-node buffers to `n` nodes, zeroed, and empties the
    /// queues.
    fn reset(&mut self, n: usize) {
        fn refit<T: Copy>(v: &mut Vec<T>, n: usize, value: T) {
            v.clear();
            v.reserve_exact(n);
            v.resize(n, value);
        }
        refit(&mut self.pot, n, 0);
        refit(&mut self.excess, n, 0);
        refit(&mut self.in_queue, n, false);
        refit(&mut self.stamp, n, 0);
        refit(&mut self.pred, n, 0);
        self.members.clear();
        self.queue.clear();
        self.frontier.clear();
    }

    /// The prices a run left, by raw node index.
    #[cfg(test)]
    pub(crate) fn prices(&self) -> &[i64] {
        &self.pot
    }

    /// The capacity of every buffer, for tests of steady-state reuse.
    #[cfg(test)]
    pub(crate) fn capacities(&self) -> Vec<usize> {
        let (arcs, offsets) = self.csr.capacity();
        vec![
            arcs,
            offsets,
            self.pot.capacity(),
            self.excess.capacity(),
            self.in_queue.capacity(),
            self.stamp.capacity(),
            self.pred.capacity(),
            self.members.capacity(),
            self.queue.capacity(),
            self.frontier.capacity(),
        ]
    }
}

/// Solves from scratch, in the buffers of `work`, and stops once the run
/// has examined `scan_budget` arcs (see [`SolveStats::arc_scans`]). Work is
/// charged one span (one node's residual arcs) at a time: the scan that
/// would take the count past the budget is not made, and the count is set
/// to the budget. A run that spends its budget writes nothing back
/// ([`Run::finish`]).
pub(crate) fn attempt_within(
    graph: &mut FlowGraph,
    opts: &SolveOptions,
    config: &RelaxationConfig,
    scan_budget: u64,
    work: &mut Workspace,
) -> Result<Budgeted, SolveError> {
    let budget = Budget::new(opts);
    fill(graph, work)?;
    let run = run(config, scan_budget, budget, work, &mut || feasible(graph))?;
    Ok(run.finish(graph, work))
}

/// Fills `work` for a run on `graph`, read only: the copy holds every pair
/// flowless, every node's excess is its supply, and the prices follow the
/// start rule of the module docs.
pub(crate) fn fill(graph: &FlowGraph, work: &mut Workspace) -> Result<(), SolveError> {
    work.reset(graph.node_bound());
    let mut total = 0i64;
    for v in graph.node_ids() {
        let supply = graph.supply(v);
        work.excess[v.index()] = supply;
        total += supply;
    }
    if total != 0 {
        return Err(SolveError::UnbalancedSupply { total });
    }
    graph.fill_csr(&mut work.csr, true);
    seed_sink_prices(work);
    Ok(())
}

/// Prices every node of a flowless copy whose residual out-arcs all enter
/// one deficit node, at a positive cost, at minus the cheapest of those
/// costs. The cheapest arc then starts balanced and no arc of
/// non-negative cost starts with a negative reduced cost.
fn seed_sink_prices(work: &mut Workspace) {
    let (offsets, arcs) = (work.csr.offsets(), work.csr.arcs());
    for u in 0..offsets.len() - 1 {
        let span = &arcs[offsets[u] as usize..offsets[u + 1] as usize];
        let mut out = span.iter().filter(|a| a.rescap > 0);
        let Some(first) = out.next() else {
            continue;
        };
        if work.excess[first.dst as usize] >= 0 {
            continue;
        }
        let cheapest = out.try_fold(first.cost, |c, a| {
            (a.dst == first.dst).then(|| c.min(a.cost))
        });
        if let Some(c) = cheapest.filter(|&c| c > 0) {
            work.pot[u] = -c;
        }
    }
}

/// Whether `graph`'s supplies can be routed at all, checked by max flow on
/// a copy so that `graph` stays as it was.
fn feasible(graph: &FlowGraph) -> bool {
    maxflow::is_feasible(&mut graph.clone())
}

/// A run of the engine on a workspace's copy, not yet written back.
#[derive(Debug)]
pub(crate) struct Run {
    stats: SolveStats,
    terminated_early: bool,
    over_budget: bool,
    /// From the start of the run's budget to the end of the engine.
    runtime: Duration,
}

impl Run {
    /// Time spent so far: the fill (when the budget was started before
    /// it) and the engine, without the write-back.
    pub(crate) fn runtime(&self) -> Duration {
        self.runtime
    }

    /// Writes the flow of the copy in `work` back into `graph`, the graph
    /// it was filled from, unless the run spent its scan limit: then the
    /// graph keeps the flow it had, and the solution's objective is that
    /// flow's.
    pub(crate) fn finish(self, graph: &mut FlowGraph, work: &Workspace) -> Budgeted {
        let start = Instant::now();
        let objective = if self.over_budget {
            graph.objective()
        } else {
            graph.write_back_csr(&work.csr)
        };
        let sol = Solution {
            algorithm: AlgorithmKind::Relaxation,
            objective,
            terminated_early: self.terminated_early,
            runtime: self.runtime + start.elapsed(),
            stats: self.stats,
        };
        if self.over_budget {
            Budgeted::OverBudget(sol)
        } else {
            Budgeted::Finished(sol)
        }
    }
}

/// Pushes `delta` units along the residual arc at position `p`.
#[inline]
fn push(arcs: &mut [CsrArc], p: usize, delta: i64) {
    debug_assert!(delta <= arcs[p].rescap, "push exceeds residual capacity");
    arcs[p].rescap -= delta;
    let sister = arcs[p].sister as usize;
    arcs[sister].rescap += delta;
}

/// Restores complementary slackness against `pot`: saturates every
/// residual arc with negative reduced cost, moving excess with each push.
/// (Saturating the reverse arc of a flow-carrying arc whose reduced cost
/// turned positive cancels that flow.) Prices are fixed during the pass and
/// the two directions of a pair have opposite reduced costs, so saturating
/// one arc never creates a violation on another: one pass over the copy
/// suffices, and its order does not affect the resulting flow. Returns the
/// largest arc cost magnitude `C`.
fn restore_slackness(offsets: &[u32], arcs: &mut [CsrArc], pot: &[i64], excess: &mut [i64]) -> i64 {
    let mut max_cost = 0;
    for u in 0..offsets.len() - 1 {
        for p in offsets[u] as usize..offsets[u + 1] as usize {
            let a = arcs[p];
            max_cost = max_cost.max(a.cost.abs());
            let v = a.dst as usize;
            if a.rescap > 0 && a.cost + pot[u] - pot[v] < 0 {
                push(arcs, p, a.rescap);
                excess[u] -= a.rescap;
                excess[v] += a.rescap;
            }
        }
    }
    max_cost
}

/// Charges a scan of `len` residual arcs to `stats.arc_scans`. A scan that
/// would take the count past `limit` is refused: the count becomes `limit`
/// and the caller stops.
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

/// The engine, on the filled copy in `work` with prices `work.pot` and
/// excesses `work.excess`: repairs complementary slackness and drives all
/// excess to the deficits, within `scan_limit` arc examinations. It reads
/// and writes only `work`; the caller writes the copy back
/// ([`Run::finish`]).
///
/// Relaxation proves infeasibility only when a cut has no residual arc
/// leaving it, and on an unroutable input it may instead lower prices
/// without end. A feasible input has optimal prices within `n · C` of
/// zero (`n` node slots, `C` the largest arc cost magnitude), so the
/// first time the price of a node with excess falls below `−n · C` the
/// run asks `feasible` once: if the input cannot be routed it fails with
/// [`SolveError::Infeasible`]; otherwise it goes on and never asks again,
/// and its flow and counted work are those of a run that never asked.
pub(crate) fn run(
    config: &RelaxationConfig,
    scan_limit: u64,
    mut budget: Budget,
    work: &mut Workspace,
    feasible: &mut dyn FnMut() -> bool,
) -> Result<Run, SolveError> {
    let Workspace {
        csr,
        pot,
        excess,
        in_queue,
        stamp,
        pred,
        members,
        queue,
        frontier,
    } = work;
    let (offsets, arcs) = csr.parts_mut();
    let mut stats = SolveStats::default();

    let max_cost = restore_slackness(offsets, arcs, pot, excess);
    let mut price_floor = Some(
        (offsets.len() as i64 - 1)
            .saturating_mul(max_cost)
            .saturating_neg(),
    );
    for (u, &e) in excess.iter().enumerate() {
        if e > 0 {
            queue.push_back(u as u32);
            in_queue[u] = true;
        }
    }

    let span = |u: usize| offsets[u] as usize..offsets[u + 1] as usize;
    let mut epoch = 0u64;
    let (terminated_early, over_budget) = 'outer: loop {
        let Some(si) = queue.pop_front() else {
            break (false, false);
        };
        let s = si as usize;
        in_queue[s] = false;
        if excess[s] <= 0 {
            continue;
        }
        match budget.tick() {
            Some(BudgetStop::Cancelled) => return Err(SolveError::Cancelled),
            Some(BudgetStop::Exhausted) => break (true, false),
            None => {}
        }
        if price_floor.is_some_and(|floor| pot[s] < floor) {
            if !feasible() {
                return Err(SolveError::Infeasible);
            }
            price_floor = None;
        }

        // Every iteration (single- or multi-node) uses a fresh epoch; `s`
        // is always the first member of the cut.
        epoch += 1;
        members.clear();
        frontier.clear();
        stamp[s] = epoch;
        members.push(si);

        // --- Single-node fast path -----------------------------------
        // slope({s}) = e(s) − Σ rescap over balanced out-arcs. If positive,
        // a price update on {s} alone improves the dual.
        let s_arcs = span(s);
        if !charge(&mut stats, s_arcs.len(), scan_limit) {
            break (true, true);
        }
        let mut balanced_out = 0i64;
        for a in &arcs[s_arcs.clone()] {
            if a.rescap > 0 {
                let rc = a.cost + pot[s] - pot[a.dst as usize];
                if rc == 0 {
                    balanced_out += a.rescap;
                }
            }
        }
        if excess[s] > balanced_out {
            if !price_update(
                offsets, arcs, pot, excess, members, stamp, epoch, queue, in_queue, &mut stats,
                scan_limit,
            )? {
                break (true, true);
            }
            requeue(s, excess, queue, in_queue);
            continue;
        }

        // --- Multi-node iteration: grow the cut S --------------------
        let mut slope = excess[s];
        if !charge(&mut stats, s_arcs.len(), scan_limit) {
            break (true, true);
        }
        slope -= queue_balanced_out_arcs(
            arcs,
            s_arcs,
            pot,
            s,
            stamp,
            epoch,
            excess,
            frontier,
            config.arc_prioritization,
        );

        loop {
            if slope > 0 {
                if !price_update(
                    offsets, arcs, pot, excess, members, stamp, epoch, queue, in_queue, &mut stats,
                    scan_limit,
                )? {
                    break 'outer (true, true);
                }
                requeue(s, excess, queue, in_queue);
                continue 'outer;
            }
            let Some(p) = frontier.pop_front() else {
                // No balanced arcs cross the cut: the exact slope is e(S),
                // which is positive (s has excess, other members are
                // non-negative), so a price update is always possible.
                if !price_update(
                    offsets, arcs, pot, excess, members, stamp, epoch, queue, in_queue, &mut stats,
                    scan_limit,
                )? {
                    break 'outer (true, true);
                }
                requeue(s, excess, queue, in_queue);
                continue 'outer;
            };
            let a = arcs[p as usize];
            let j = a.dst as usize;
            if stamp[j] == epoch {
                // The arc became internal when j joined S; undo its
                // contribution to the slope.
                slope += a.rescap;
                continue;
            }
            if excess[j] < 0 {
                // Deficit found: augment along the tree path s → … → j.
                augment(arcs, pred, s, j, p, excess, &mut stats);
                requeue(s, excess, queue, in_queue);
                continue 'outer;
            }
            // Extend the cut to j.
            stamp[j] = epoch;
            pred[j] = p;
            members.push(j as u32);
            slope += a.rescap + excess[j];
            let j_arcs = span(j);
            if !charge(&mut stats, j_arcs.len(), scan_limit) {
                break 'outer (true, true);
            }
            slope -= queue_balanced_out_arcs(
                arcs,
                j_arcs,
                pot,
                j,
                stamp,
                epoch,
                excess,
                frontier,
                config.arc_prioritization,
            );
        }
    };
    stats.iterations = budget.iterations;
    Ok(Run {
        stats,
        terminated_early,
        over_budget,
        runtime: budget.elapsed(),
    })
}

/// Pushes all balanced residual out-arcs of `u` (positions `u_arcs`) that
/// cross the cut onto the frontier and returns the total residual capacity
/// queued.
///
/// With arc prioritization, arcs leading directly to demand nodes go to the
/// *front* of the frontier (depth-first bias towards augmenting paths);
/// everything else is appended (breadth-first otherwise).
#[allow(clippy::too_many_arguments)]
fn queue_balanced_out_arcs(
    arcs: &[CsrArc],
    u_arcs: std::ops::Range<usize>,
    pot: &[i64],
    u: usize,
    stamp: &[u64],
    epoch: u64,
    excess: &[i64],
    frontier: &mut VecDeque<u32>,
    prioritize: bool,
) -> i64 {
    let mut queued = 0i64;
    let first = u_arcs.start;
    for (k, a) in arcs[u_arcs].iter().enumerate() {
        if a.rescap <= 0 {
            continue;
        }
        let v = a.dst as usize;
        if stamp[v] == epoch {
            continue;
        }
        let rc = a.cost + pot[u] - pot[v];
        if rc != 0 {
            continue;
        }
        queued += a.rescap;
        let p = (first + k) as u32;
        if prioritize && excess[v] < 0 {
            frontier.push_front(p);
        } else {
            frontier.push_back(p);
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
    offsets: &[u32],
    arcs: &mut [CsrArc],
    pot: &mut [i64],
    excess: &mut [i64],
    members: &[u32],
    stamp: &[u64],
    epoch: u64,
    queue: &mut VecDeque<u32>,
    in_queue: &mut [bool],
    stats: &mut SolveStats,
    scan_limit: u64,
) -> Result<bool, SolveError> {
    let mut theta = i64::MAX;
    for &i in members {
        let i = i as usize;
        let (first, end) = (offsets[i] as usize, offsets[i + 1] as usize);
        if !charge(stats, end - first, scan_limit) {
            return Ok(false);
        }
        for p in first..end {
            // Pushes here only raise the sisters' capacities, which lie in
            // the spans of nodes outside the cut.
            let a = arcs[p];
            if a.rescap <= 0 {
                continue;
            }
            let v = a.dst as usize;
            if stamp[v] == epoch {
                continue;
            }
            let rc = a.cost + pot[i] - pot[v];
            if rc == 0 {
                // Lowering π(i) will turn this arc's reduced cost negative,
                // so complementary slackness forces saturation.
                push(arcs, p, a.rescap);
                excess[i] -= a.rescap;
                let was = excess[v];
                excess[v] += a.rescap;
                if was <= 0 && excess[v] > 0 && !in_queue[v] {
                    queue.push_back(v as u32);
                    in_queue[v] = true;
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
        pot[i as usize] -= theta;
    }
    stats.price_updates += 1;
    Ok(true)
}

/// Augments along the tree path `s → … → src(a)` plus the closing arc at
/// position `a` into the deficit node `j`.
fn augment(
    arcs: &mut [CsrArc],
    pred: &[u32],
    s: usize,
    j: usize,
    a: u32,
    excess: &mut [i64],
    stats: &mut SolveStats,
) {
    let src = |arcs: &[CsrArc], p: u32| arcs[p as usize].src(arcs) as usize;
    let mut bottleneck = arcs[a as usize].rescap;
    let mut v = src(arcs, a);
    while v != s {
        let p = pred[v];
        bottleneck = bottleneck.min(arcs[p as usize].rescap);
        v = src(arcs, p);
    }
    let delta = bottleneck.min(excess[s]).min(-excess[j]);
    debug_assert!(delta > 0);
    push(arcs, a as usize, delta);
    let mut v = src(arcs, a);
    while v != s {
        let p = pred[v];
        push(arcs, p as usize, delta);
        v = src(arcs, p);
    }
    excess[s] -= delta;
    excess[j] += delta;
    stats.augmentations += 1;
}

fn requeue(s: usize, excess: &[i64], queue: &mut VecDeque<u32>, in_queue: &mut [bool]) {
    if excess[s] > 0 && !in_queue[s] {
        queue.push_back(s as u32);
        in_queue[s] = true;
    }
}

#[cfg(test)]
mod oracle;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::{check_reduced_cost_optimality, is_optimal};
    use firmament_flow::builder::figure5;
    use firmament_flow::testgen::{layered_instance, scheduling_instance, InstanceSpec};
    use firmament_flow::{ArcId, NodeId, NodeKind};

    /// [`solve`] does the same work, and finds the same objective, on a
    /// graph whose unscheduled cost is split between the task arcs and the
    /// arc into the sink as on the graph with all of it on the task arcs.
    /// The instances are oversubscribed, so the unscheduled route carries
    /// flow.
    #[test]
    fn sink_arc_prices_absorb_a_cost_moved_onto_the_sink_arc() {
        let spec = InstanceSpec {
            tasks: 120,
            ..InstanceSpec::default()
        };
        let solve = |g: &mut FlowGraph| solve(g, &SolveOptions::unlimited()).expect("feasible");
        for seed in 0..6 {
            let inst = scheduling_instance(seed, &spec);
            let mut split = inst.graph.clone();
            let clock = 37;
            for a in inst.graph.arc_ids() {
                let cost = split.cost(a);
                if split.dst(a) == inst.unscheduled {
                    split.set_arc_cost(a, cost - clock).unwrap();
                } else if split.src(a) == inst.unscheduled {
                    split.set_arc_cost(a, cost + clock).unwrap();
                }
            }
            let mut whole = inst.graph.clone();
            let (a, b) = (solve(&mut whole), solve(&mut split));
            assert_eq!(a.stats.arc_scans, b.stats.arc_scans, "seed {seed}");
            assert_eq!(a.objective, b.objective, "seed {seed}");
            assert!(is_optimal(&split), "seed {seed}");
        }
    }

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
        let mut work = Workspace::default();
        attempt_within(
            &mut inst.graph,
            &SolveOptions::unlimited(),
            &RelaxationConfig::default(),
            u64::MAX,
            &mut work,
        )
        .unwrap();
        assert!(check_reduced_cost_optimality(&inst.graph, work.prices()).is_ok());
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

    /// The engine's slackness pass, run on a copy of `graph` and written
    /// back; the excesses it keeps must match the graph's afterwards.
    fn copy_slackness_pass(graph: &mut FlowGraph, pot: &[i64]) {
        let mut csr = ResidualCsr::new();
        graph.fill_csr(&mut csr, false);
        let mut excess = graph.excesses();
        let (offsets, arcs) = csr.parts_mut();
        restore_slackness(offsets, arcs, pot, &mut excess);
        graph.write_back_csr(&csr);
        assert_eq!(excess, graph.excesses());
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

    /// The slackness pass over the copy must leave exactly the flow the
    /// per-node adjacency pass leaves, both from a reset flow and zero prices
    /// and from a solved flow under arbitrary
    /// prices (a warm start) — on graphs with negative costs, where both
    /// starts have work to do. The cold solve must match SSP.
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
            copy_slackness_pass(&mut flat, &zero);
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
            copy_slackness_pass(&mut flat, &pot);
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
