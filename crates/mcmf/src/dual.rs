//! Firmament's MCMF solver: relaxation, with cost scaling as the bound on
//! its bad cases (§6.1).
//!
//! Relaxation is the fastest algorithm on scheduling graphs in the common
//! case, but degenerates under high utilization and large arrivals (§4.3,
//! Figs 8–9), where cost scaling stays flat. The paper therefore runs both
//! on every round and takes whichever finishes first. This module offers
//! that race as [`SolverKind::Dual`], and by default runs a *hedge* instead
//! ([`SolverKind::Hedged`]): relaxation alone, within a counted work
//! budget, and cold cost scaling only once the budget runs out — a
//! hedged request in the sense of Dean and Barroso ("The Tail at Scale",
//! CACM 2013) that costs nothing on the common path.
//!
//! # The hedge (the default)
//!
//! A hedged round takes the first of these paths that applies:
//!
//! 1. **Skip.** The previous round ended with an optimal flow and the
//!    round's delta batch provably exposes no reduced-cost violation (see
//!    `reprice_only_quiescent`): no solver runs and the graph is handed
//!    back unchanged.
//! 2. **No history.** No cost-scaling solve has run yet: cold cost scaling
//!    solves the round in place. Relaxation's cold solve of a freshly built
//!    cluster can take ten times longer than cost scaling's.
//! 3. **Relaxation.** Relaxation solves from scratch, limited to
//!    [`HEDGE_WORK_FACTOR`] × the arc examinations of the most recent
//!    cost-scaling solve. It works on its own compact copy of the residual
//!    network, kept in the solver between rounds (see [`relaxation`]), and
//!    writes the flow back into the graph unless it fails or spends its
//!    budget.
//! 4. **Fallback.** Relaxation spent its budget: cold cost scaling resets
//!    the flow and solves the round, and its work becomes the new
//!    reference.
//!
//! A failed hedged round leaves the graph as it came: a failed or
//! over-budget relaxation run writes nothing back, and when cold cost
//! scaling fails (steps 2 and 4) the flow the graph carried before the
//! call is put back.
//!
//! Work is counted in arc examinations ([`SolveStats::arc_scans`]), which
//! both algorithms count the same way, so the choice depends on the graph
//! alone: the same inputs give the same flow on every run, and no round
//! costs more than the budget plus one cold cost-scaling solve. Measured
//! on the benchmark workloads, relaxation wins nearly every round of the
//! race, which still pays for a thread, a cancelled racer and a
//! whole-graph price refine on each; the hedge pays for none of them.
//!
//! # The race (`Dual`)
//!
//! Relaxation runs on the calling thread and incremental cost scaling on
//! one spawned thread; whichever *succeeds* first cancels the other
//! cooperatively, and there is no third, coordinating thread. Each racer's
//! cancellation token is a child of the caller's, so the caller can still
//! cancel the whole race. If relaxation won, its solution is handed to
//! incremental cost scaling through price refine (§6.2) so the *next*
//! incremental run can warm-start from that round's delta batch; a round
//! without a batch runs incremental cost scaling cold. The winner depends
//! on wall-clock time, so placements can differ from run to run where
//! costs tie.
//!
//! Relaxation's compact copy of the residual network is filled from the
//! round's graph before the cost-scaling thread starts; that thread then
//! solves the graph in place while relaxation works on its copy, which is
//! written back over cost scaling's flow only if relaxation wins. No graph
//! is cloned. Cost scaling's infeasibility is final (its warm start
//! retries cold first), so it ends the race as a solution does; relaxation
//! itself does not run the feasibility check described in [`relaxation`],
//! as the graph is cost scaling's until the join.

use crate::common::{
    AlgorithmKind, Budget, CancelToken, Solution, SolveError, SolveOptions, SolveStats,
};
use crate::cost_scaling;
use crate::incremental::{IncrementalConfig, IncrementalCostScaling};
use crate::relaxation::{self, Budgeted, RelaxationConfig, Workspace};
use firmament_flow::delta::DeltaBatch;
use firmament_flow::{ArcId, FlowGraph};
use std::time::{Duration, Instant};

/// The hedge's budget multiplier `K`: relaxation may examine `K` times as
/// many arcs as the most recent cold cost-scaling solve before the hedge
/// falls back to cost scaling.
///
/// Calibrated on the benchmark workloads (`perfbench/`, seeds 1, 2, 3 and
/// 9091): a steady round's relaxation examines at most 0.04 times as many
/// arcs as the set-up round's cold cost-scaling solve on quiet-large and
/// 0.03 times as many on churn-quincy. On contended-hier the median round
/// examines 1.2 times as many and the worst 2.8 times, so `K = 8` leaves
/// more than twice the headroom over every steady round measured. fig08's
/// oversubscribed bursts on 1,250 machines stay within the budget too:
/// relaxation examines at most 1.4 times the reference there, at 110 %
/// utilization. A round therefore costs at most `K` × the reference plus
/// one cold cost-scaling solve.
pub const HEDGE_WORK_FACTOR: u64 = 8;

/// Which algorithms the dual solver may run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SolverKind {
    /// Relaxation within a counted work budget, cold cost scaling past it
    /// (the default; see the module docs).
    Hedged,
    /// Both algorithms raced, first finisher wins (the paper's §6.1).
    Dual,
    /// Relaxation only (the "Relaxation only" series of Fig 16/18).
    RelaxationOnly,
    /// Cost scaling only — this is the Quincy configuration (§7.1).
    CostScalingOnly,
}

/// Configuration for [`DualSolver`].
#[derive(Debug, Clone)]
pub struct DualConfig {
    /// Which algorithm(s) to run.
    pub kind: SolverKind,
    /// Relaxation tuning (arc prioritization).
    pub relaxation: RelaxationConfig,
    /// Incremental cost scaling tuning (α-factor, price refine on adopt).
    /// The hedge's cold cost-scaling solves use its α-factor.
    pub incremental: IncrementalConfig,
}

impl Default for DualConfig {
    fn default() -> Self {
        DualConfig {
            kind: SolverKind::Hedged,
            relaxation: RelaxationConfig::default(),
            incremental: IncrementalConfig {
                price_refine_on_adopt: true,
                ..Default::default()
            },
        }
    }
}

/// The outcome of a dual solve: the winning algorithm's solution and the
/// graph holding its flow.
#[derive(Debug)]
pub struct DualOutcome {
    /// The winning solution. After a hedge fallback its `runtime` covers
    /// relaxation's attempt as well as cost scaling's solve.
    pub solution: Solution,
    /// The graph containing the winning flow (adopt this as the new
    /// authoritative graph; node/arc ids are preserved from the input).
    pub graph: FlowGraph,
    /// Which algorithm produced the flow: the race's first finisher, the
    /// hedge's solver, or — on a skipped hedged round — the algorithm whose
    /// flow was kept.
    pub winner: AlgorithmKind,
    /// Statistics of the cost-scaling run when it completed: the race's
    /// incremental racer (even as the loser), with its delta-fed warm-start
    /// telemetry (nodes touched, bailouts), or the hedge's cold solve.
    pub cs_stats: Option<SolveStats>,
    /// `true` when the round ran no full solve because its delta batch was
    /// re-price-only and provably quiescent (no exposed reduced-cost
    /// violation). The race then runs the warm cost-scaling path alone in
    /// O(Δ); the hedge runs no solver at all. Always `false` for the
    /// single-algorithm kinds.
    pub race_skipped: bool,
    /// Arc examinations of the hedge's relaxation run (equal to
    /// `work_budget` when it fell back); 0 for the other kinds.
    pub relaxation_work: u64,
    /// The hedge's work budget for the round; `None` when relaxation ran
    /// under no budget (other kinds, a skipped round, or a round with no
    /// cost-scaling history yet).
    pub work_budget: Option<u64>,
    /// `true` when the hedge's relaxation spent its budget and cold cost
    /// scaling solved the round.
    pub fell_back: bool,
}

/// Firmament's MCMF solver: relaxation hedged by cold cost scaling (the
/// default), the paper's race of relaxation against incremental cost
/// scaling, or either algorithm alone (see [`SolverKind`]).
///
/// The solver keeps state across rounds: the hedge's work reference and
/// whether its last flow was optimal, and the race's cost-scaling warm
/// state. Its one entry, [`solve_owned_with_deltas`](Self::solve_owned_with_deltas),
/// moves the graph through the solve instead of copying it every round; a
/// caller that must keep its input copies it first.
#[derive(Debug)]
pub struct DualSolver {
    config: DualConfig,
    incremental: IncrementalCostScaling,
    /// The buffers every relaxation run works in (its copy of the residual
    /// network and per-node state), reused from round to round.
    workspace: Workspace,
    /// Hedge: arc examinations of the most recent completed cold
    /// cost-scaling solve, the yardstick of relaxation's budget.
    cs_reference: Option<u64>,
    /// Hedge: the algorithm that produced the flow handed back by the last
    /// solve, when that flow is optimal. Cleared at the start of every
    /// solve, so an error or an early stop leaves it clear.
    optimal_flow: Option<AlgorithmKind>,
}

impl Default for DualSolver {
    fn default() -> Self {
        Self::new(DualConfig::default())
    }
}

impl DualSolver {
    /// Creates a solver with the given configuration.
    pub fn new(config: DualConfig) -> Self {
        let incremental = IncrementalCostScaling::new(config.incremental.clone());
        DualSolver {
            config,
            incremental,
            workspace: Workspace::default(),
            cs_reference: None,
            optimal_flow: None,
        }
    }

    /// Returns the configured solver kind.
    pub fn kind(&self) -> SolverKind {
        self.config.kind
    }

    /// Solves the scheduling graph, handed over by value, together with the
    /// typed change feed recorded since the last solve.
    ///
    /// No kind copies the graph: relaxation works on a compact copy of the
    /// residual network in buffers the solver keeps, and the dual race
    /// solves cost scaling in place beside it, writing relaxation's flow
    /// back only if relaxation wins. On failure the graph is handed back so
    /// the caller can restore its state: a failed relaxation run leaves it
    /// exactly as it was, a failed cost-scaling run possibly with partial
    /// flow.
    ///
    /// The feed lets the race's incremental cost scaling warm-start and
    /// lets the race and the hedge skip a provably quiescent round;
    /// relaxation itself ignores it. Without a feed (`None`) no round is
    /// skipped and the race's incremental cost scaling solves cold.
    ///
    /// `opts` applies to each algorithm run. Every kind honours its
    /// cancellation token: the race gives each racer a child of it, so
    /// cancelling the call cancels both racers.
    #[allow(clippy::result_large_err)] // the Err graph is the point: ownership returns on failure
    pub fn solve_owned_with_deltas(
        &mut self,
        graph: FlowGraph,
        deltas: Option<&DeltaBatch>,
        opts: &SolveOptions,
    ) -> Result<DualOutcome, (SolveError, FlowGraph)> {
        match self.config.kind {
            SolverKind::RelaxationOnly => {
                let mut g = graph;
                let relaxation = relaxation::solve_within(
                    &mut g,
                    opts,
                    &self.config.relaxation,
                    u64::MAX,
                    &mut self.workspace,
                );
                match relaxation.map(Budgeted::into_solution) {
                    Ok(sol) => Ok(DualOutcome {
                        winner: sol.algorithm,
                        solution: sol,
                        graph: g,
                        cs_stats: None,
                        race_skipped: false,
                        relaxation_work: 0,
                        work_budget: None,
                        fell_back: false,
                    }),
                    Err(e) => Err((e, g)),
                }
            }
            SolverKind::CostScalingOnly => {
                let mut g = graph;
                match self.incremental.solve_with_deltas(&mut g, deltas, opts) {
                    Ok(sol) => Ok(DualOutcome {
                        winner: sol.algorithm,
                        cs_stats: Some(sol.stats.clone()),
                        solution: sol,
                        graph: g,
                        race_skipped: false,
                        relaxation_work: 0,
                        work_budget: None,
                        fell_back: false,
                    }),
                    Err(e) => Err((e, g)),
                }
            }
            SolverKind::Dual => self.solve_dual(graph, deltas, opts),
            SolverKind::Hedged => self.solve_hedged(graph, deltas, opts),
        }
    }

    /// The hedge: skip, cold cost scaling with no history, budgeted
    /// relaxation, or cold cost scaling past the budget (module docs).
    #[allow(clippy::result_large_err)] // see solve_owned_with_deltas
    fn solve_hedged(
        &mut self,
        mut graph: FlowGraph,
        deltas: Option<&DeltaBatch>,
        opts: &SolveOptions,
    ) -> Result<DualOutcome, (SolveError, FlowGraph)> {
        let start = Instant::now();
        // Step 1: a quiescent batch keeps an optimal flow optimal.
        if let (Some(kept), Some(batch)) = (self.optimal_flow.take(), deltas) {
            if reprice_only_quiescent(&graph, batch) {
                self.optimal_flow = Some(kept);
                let solution = Solution {
                    algorithm: kept,
                    objective: graph.objective(),
                    terminated_early: false,
                    runtime: start.elapsed(),
                    stats: SolveStats::default(),
                };
                return Ok(DualOutcome {
                    solution,
                    graph,
                    winner: kept,
                    cs_stats: None,
                    race_skipped: true,
                    relaxation_work: 0,
                    work_budget: None,
                    fell_back: false,
                });
            }
        }
        // Step 3: relaxation within K × the last cost-scaling solve's work.
        let mut relaxation_work = 0;
        let mut relaxation_time = Duration::ZERO;
        let work_budget = self
            .cs_reference
            .map(|reference| HEDGE_WORK_FACTOR.saturating_mul(reference));
        if let Some(budget) = work_budget {
            match relaxation::attempt_within(
                &mut graph,
                opts,
                &self.config.relaxation,
                budget,
                &mut self.workspace,
            ) {
                Ok(Budgeted::Finished(sol)) => {
                    if !sol.terminated_early {
                        self.optimal_flow = Some(sol.algorithm);
                    }
                    return Ok(DualOutcome {
                        winner: sol.algorithm,
                        relaxation_work: sol.stats.arc_scans,
                        solution: sol,
                        graph,
                        cs_stats: None,
                        race_skipped: false,
                        work_budget,
                        fell_back: false,
                    });
                }
                Ok(Budgeted::OverBudget(sol)) => {
                    relaxation_work = sol.stats.arc_scans;
                    relaxation_time = sol.runtime;
                }
                Err(e) => return Err((e, graph)),
            }
        }
        // Steps 2 and 4: cold cost scaling, which resets the flow. The
        // graph still holds the flow it came with (an over-budget attempt
        // writes nothing back); if cost scaling fails too, that flow goes
        // back, so the round fails closed.
        let before = nonzero_flows(&graph);
        match cost_scaling::solve_with(&mut graph, opts, &self.config.incremental.cost_scaling) {
            Ok(mut sol) => {
                if !sol.terminated_early {
                    self.cs_reference = Some(sol.stats.arc_scans.max(1));
                    self.optimal_flow = Some(sol.algorithm);
                }
                sol.runtime += relaxation_time;
                Ok(DualOutcome {
                    winner: sol.algorithm,
                    cs_stats: Some(sol.stats.clone()),
                    solution: sol,
                    graph,
                    race_skipped: false,
                    relaxation_work,
                    work_budget,
                    fell_back: work_budget.is_some(),
                })
            }
            Err(e) => {
                graph.reset_flow();
                for (arc, flow) in before {
                    graph.set_flow(arc, flow);
                }
                Err((e, graph))
            }
        }
    }

    #[allow(clippy::result_large_err)] // see solve_owned_with_deltas
    fn solve_dual(
        &mut self,
        graph: FlowGraph,
        deltas: Option<&DeltaBatch>,
        opts: &SolveOptions,
    ) -> Result<DualOutcome, (SolveError, FlowGraph)> {
        // Re-price-only short-circuit (ROADMAP "re-price-only rounds could
        // skip the solver race"): a round whose whole batch is cost drift
        // and exposes no reduced-cost violation — every change a cost rise
        // on a flowless arc, the common convex-ladder shape under rising
        // load — leaves the warm solver's certificate intact. The warm
        // path proves quiescence in O(Δ); spinning up the relaxation race
        // would only burn a cold solve to reach the same optimum.
        // Falls/flow-carrying rises may expose violations, so those rounds
        // still race.
        if let Some(batch) = deltas {
            if self.incremental.is_warm() && reprice_only_quiescent(&graph, batch) {
                let mut g = graph;
                return match self.incremental.solve_with_deltas(&mut g, deltas, opts) {
                    Ok(sol) => Ok(DualOutcome {
                        winner: sol.algorithm,
                        cs_stats: Some(sol.stats.clone()),
                        solution: sol,
                        graph: g,
                        race_skipped: true,
                        relaxation_work: 0,
                        work_budget: None,
                        fell_back: false,
                    }),
                    Err(e) => Err((e, g)),
                };
            }
        }
        // Each racer's token is a child of the caller's: cancelling the call
        // cancels both racers, and either racer can cancel the other alone.
        let racer_token = || {
            opts.cancel
                .as_ref()
                .map_or_else(CancelToken::new, CancelToken::child)
        };
        let cancel_relax = racer_token();
        let cancel_cs = racer_token();
        let mut relax_opts = opts.clone();
        relax_opts.cancel = Some(cancel_relax.clone());
        let mut cs_opts = opts.clone();
        cs_opts.cancel = Some(cancel_cs.clone());

        // Relaxation's copy is filled from the graph before cost scaling
        // takes it; relaxation then touches only its copy, which is
        // written back after the join if relaxation wins.
        let relax_budget = Budget::new(&relax_opts);
        let filled = relaxation::fill_cold(&graph, &mut self.workspace);
        let relax_cfg = &self.config.relaxation;
        let workspace = &mut self.workspace;
        let incremental = &mut self.incremental;
        let mut graph = graph;

        // Each racer cancels the other only if it settled the round: a
        // solution, or — from cost scaling, which retries a warm start's
        // infeasibility cold — a proof that the input cannot be routed. A
        // failed finisher otherwise must not abort the algorithm that can
        // still succeed. The inner loops check their token every 256
        // iterations.
        let (relax_result, cs_result) = std::thread::scope(|scope| {
            let g_cs = &mut graph;
            let cs_handle = scope.spawn(move || {
                let r = incremental.solve_with_deltas(g_cs, deltas, &cs_opts);
                if matches!(r, Ok(_) | Err(SolveError::Infeasible)) {
                    cancel_relax.cancel();
                }
                r
            });
            let r = filled.and_then(|()| {
                relaxation::run(relax_cfg, u64::MAX, relax_budget, workspace, &mut || true)
            });
            if r.is_ok() {
                cancel_cs.cancel();
            }
            (r, cs_handle.join().expect("cost-scaling thread"))
        });

        // Prefer whichever produced a real (non-cancelled) solution; if
        // both finished, take the faster one. Cost scaling's flow is in the
        // graph already; relaxation's is written back over it.
        let cs_stats = cs_result.as_ref().ok().map(|cs| cs.stats.clone());
        let solution = match (relax_result, cs_result) {
            (Ok(run), Ok(cs)) if cs.runtime < run.runtime() => cs,
            (Ok(run), _) => run
                .finish(&mut graph, &self.workspace, true)
                .into_solution(),
            (Err(_), Ok(cs)) => cs,
            (Err(re), Err(ce)) => {
                // Both failed: propagate the more informative error and
                // hand the graph back so the caller can restore its state.
                let err = match (&re, &ce) {
                    (SolveError::Cancelled, e) => e.clone(),
                    (e, _) => e.clone(),
                };
                return Err((err, graph));
            }
        };
        let outcome = DualOutcome {
            winner: solution.algorithm,
            solution,
            graph,
            cs_stats,
            race_skipped: false,
            relaxation_work: 0,
            work_budget: None,
            fell_back: false,
        };

        // Handoff (§6.2): make sure the incremental solver can warm-start
        // from the winning flow next round.
        match outcome.winner {
            AlgorithmKind::Relaxation => {
                self.incremental.adopt_solution(&outcome.graph);
            }
            // The incremental solver already certifies its own solution —
            // but only the one in *its* clone. Re-adopt to be safe if it
            // lost the race and was cancelled.
            AlgorithmKind::IncrementalCostScaling | AlgorithmKind::CostScaling
                if !self.incremental.is_warm() =>
            {
                self.incremental.adopt_solution(&outcome.graph);
            }
            _ => {}
        }
        Ok(outcome)
    }
}

/// Whether a re-price-only batch provably exposes **no** reduced-cost
/// violation against the warm certificate, without consulting prices:
///
/// - a cost *rise* on a *flowless* arc only grows the forward reduced
///   cost, and the reverse residual has no capacity — nothing to repair;
/// - a cost *fall* may push the forward residual's reduced cost negative;
/// - a rise on a *flow-carrying* arc may do the same to the reverse
///   residual.
///
/// Only the first shape is accepted; it is exactly what convex-ladder
/// upper segments produce as load rises, so pure clock-advance rounds
/// qualify while anything that could move flow still races. (The warm
/// solver reaches the same conclusion from its prices; this check is the
/// cheap, price-free sufficient condition.)
fn reprice_only_quiescent(graph: &FlowGraph, batch: &DeltaBatch) -> bool {
    // The `_ => false` arm is `DeltaBatch::is_reprice_only` folded into
    // the single pass: any structural/capacity/flow delta disqualifies.
    batch.deltas().iter().all(|d| match *d {
        firmament_flow::delta::GraphDelta::CostChanged { arc, old, new } => {
            new >= old && graph.arc_alive(arc) && graph.flow(arc) == 0
        }
        _ => false,
    })
}

/// Every flow-carrying arc pair with its flow, for putting a flow back
/// after a failed cost-scaling solve.
fn nonzero_flows(graph: &FlowGraph) -> Vec<(ArcId, i64)> {
    graph
        .arc_ids()
        .map(|a| (a, graph.flow(a)))
        .filter(|&(_, f)| f != 0)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::is_optimal;
    use firmament_flow::testgen::{scheduling_instance, InstanceSpec};

    #[test]
    fn dual_solve_is_optimal() {
        let inst = scheduling_instance(1, &InstanceSpec::default());
        let mut solver = DualSolver::default();
        let out = solver
            .solve_owned_with_deltas(inst.graph, None, &SolveOptions::unlimited())
            .unwrap();
        assert!(is_optimal(&out.graph));
        assert!(!out.solution.terminated_early);
    }

    #[test]
    fn all_kinds_agree_on_objective() {
        let inst = scheduling_instance(2, &InstanceSpec::default());
        let mut objectives = Vec::new();
        for kind in [
            SolverKind::Hedged,
            SolverKind::Dual,
            SolverKind::RelaxationOnly,
            SolverKind::CostScalingOnly,
        ] {
            let mut solver = DualSolver::new(DualConfig {
                kind,
                ..Default::default()
            });
            let out = solver
                .solve_owned_with_deltas(inst.graph.clone(), None, &SolveOptions::unlimited())
                .unwrap();
            objectives.push(out.solution.objective);
        }
        assert_eq!(objectives[0], objectives[1]);
        assert_eq!(objectives[1], objectives[2]);
        assert_eq!(objectives[2], objectives[3]);
    }

    fn solver(kind: SolverKind) -> DualSolver {
        DualSolver::new(DualConfig {
            kind,
            ..Default::default()
        })
    }

    /// A token cancelled before the call stops every kind, before and
    /// after the solver has history: the race's racers hold children of
    /// the caller's token rather than tokens of their own.
    #[test]
    fn a_cancelled_call_is_cancelled_under_every_kind() {
        let token = CancelToken::new();
        token.cancel();
        let cancelled = SolveOptions::with_cancel(token);
        for kind in [
            SolverKind::Hedged,
            SolverKind::Dual,
            SolverKind::RelaxationOnly,
            SolverKind::CostScalingOnly,
        ] {
            let mut solver = solver(kind);
            let graph = scheduling_instance(25, &InstanceSpec::default()).graph;
            let (err, graph) = solver
                .solve_owned_with_deltas(graph, None, &cancelled)
                .expect_err("fresh solver");
            assert_eq!(err, SolveError::Cancelled, "{kind:?}, fresh solver");
            let out = solver
                .solve_owned_with_deltas(graph, None, &SolveOptions::unlimited())
                .unwrap();
            let (err, _) = solver
                .solve_owned_with_deltas(out.graph, None, &cancelled)
                .expect_err("solver with history");
            assert_eq!(err, SolveError::Cancelled, "{kind:?}, solver with history");
        }
    }

    #[test]
    fn repeated_rounds_with_changes_stay_optimal() {
        let mut inst = scheduling_instance(3, &InstanceSpec::default());
        let mut solver = DualSolver::default();
        for round in 0..4 {
            let out = solver
                .solve_owned_with_deltas(inst.graph, None, &SolveOptions::unlimited())
                .unwrap();
            assert!(is_optimal(&out.graph), "round {round}");
            // Adopt the solution and mutate costs for the next round.
            inst.graph = out.graph;
            let arcs: Vec<_> = inst.graph.arc_ids().collect();
            let a = arcs[(round * 7 + 3) % arcs.len()];
            let c = inst.graph.cost(a);
            inst.graph.set_arc_cost(a, (c + 13) % 97 + 1).unwrap();
        }
    }

    /// Raises the cost of every flowless non-sink arc by 7, the shape a
    /// convex ladder produces as load rises, and returns the batch.
    fn raise_flowless_costs(inst: &mut firmament_flow::testgen::Instance) -> DeltaBatch {
        inst.graph.set_change_tracking(true);
        let arcs: Vec<_> = inst.graph.arc_ids().collect();
        let mut bumped = 0;
        for a in arcs {
            if inst.graph.flow(a) == 0 && inst.graph.dst(a) != inst.sink {
                let c = inst.graph.cost(a);
                inst.graph.set_arc_cost(a, c + 7).unwrap();
                bumped += 1;
            }
        }
        assert!(bumped > 0);
        let batch = inst.graph.take_deltas();
        assert!(batch.is_reprice_only());
        batch
    }

    /// The re-price-only short-circuit of the race: a warm round whose
    /// batch is all flowless cost rises must skip the relaxation race and
    /// run the warm path only — in O(Δ), touching nothing.
    #[test]
    fn reprice_only_round_skips_the_race() {
        let mut inst = scheduling_instance(21, &InstanceSpec::default());
        let mut solver = solver(SolverKind::Dual);
        let out = solver
            .solve_owned_with_deltas(inst.graph, None, &SolveOptions::unlimited())
            .unwrap();
        assert!(!out.race_skipped, "first (structural) round races");
        inst.graph = out.graph;

        let batch = raise_flowless_costs(&mut inst);
        let before = inst.graph.objective();
        let out = solver
            .solve_owned_with_deltas(inst.graph, Some(&batch), &SolveOptions::unlimited())
            .unwrap();
        assert!(out.race_skipped, "proven-quiescent round must not race");
        assert_eq!(out.winner, AlgorithmKind::IncrementalCostScaling);
        assert_eq!(out.solution.objective, before, "flow untouched");
        assert_eq!(
            out.cs_stats.as_ref().unwrap().nodes_touched,
            0,
            "warm path proves quiescence without repair work"
        );
        assert!(is_optimal(&out.graph));
    }

    /// A fully quiescent round (empty batch) also skips the race.
    #[test]
    fn empty_batch_round_skips_the_race() {
        let inst = scheduling_instance(22, &InstanceSpec::default());
        let mut solver = DualSolver::default();
        let out = solver
            .solve_owned_with_deltas(inst.graph, None, &SolveOptions::unlimited())
            .unwrap();
        let out = solver
            .solve_owned_with_deltas(
                out.graph,
                Some(&DeltaBatch::empty()),
                &SolveOptions::unlimited(),
            )
            .unwrap();
        assert!(out.race_skipped);
        assert!(is_optimal(&out.graph));
    }

    /// A cost *fall* (or a rise on a flow-carrying arc) may expose a
    /// violation, so those re-price-only rounds still run a full solve —
    /// the race, or the hedge's relaxation — and still land on the
    /// re-priced optimum.
    #[test]
    fn exposing_repricings_still_race() {
        for kind in [SolverKind::Dual, SolverKind::Hedged] {
            let mut inst = scheduling_instance(23, &InstanceSpec::default());
            let mut solver = solver(kind);
            let out = solver
                .solve_owned_with_deltas(inst.graph, None, &SolveOptions::unlimited())
                .unwrap();
            inst.graph = out.graph;
            inst.graph.set_change_tracking(true);
            // Make one flowless arc drastically cheaper: the optimum may move.
            let a = inst
                .graph
                .arc_ids()
                .find(|&a| {
                    inst.graph.flow(a) == 0
                        && inst.graph.dst(a) != inst.sink
                        && inst.graph.cost(a) > 0
                })
                .unwrap();
            inst.graph.set_arc_cost(a, 0).unwrap();
            let batch = inst.graph.take_deltas();
            assert!(batch.is_reprice_only(), "still a pure re-price batch");
            let out = solver
                .solve_owned_with_deltas(inst.graph, Some(&batch), &SolveOptions::unlimited())
                .unwrap();
            assert!(
                !out.race_skipped,
                "{kind:?}: a cost fall can expose a violation — must solve"
            );
            assert!(is_optimal(&out.graph), "{kind:?}");
            let mut fresh = out.graph.clone();
            let scratch =
                crate::cost_scaling::solve(&mut fresh, &SolveOptions::unlimited()).unwrap();
            assert_eq!(out.solution.objective, scratch.objective, "{kind:?}");
        }
    }

    /// The hedge's skip runs no solver at all: the flow comes back
    /// untouched, credited to the algorithm that produced it.
    #[test]
    fn hedged_reprice_only_round_hands_the_flow_back() {
        let mut inst = scheduling_instance(21, &InstanceSpec::default());
        let mut solver = DualSolver::default();
        let out = solver
            .solve_owned_with_deltas(inst.graph, None, &SolveOptions::unlimited())
            .unwrap();
        assert_eq!(out.winner, AlgorithmKind::CostScaling, "no history: cold");
        inst.graph = out.graph;
        let flows: Vec<i64> = inst.graph.arc_ids().map(|a| inst.graph.flow(a)).collect();
        let batch = raise_flowless_costs(&mut inst);
        let out = solver
            .solve_owned_with_deltas(inst.graph, Some(&batch), &SolveOptions::unlimited())
            .unwrap();
        assert!(out.race_skipped);
        assert_eq!(out.winner, AlgorithmKind::CostScaling);
        assert!(out.cs_stats.is_none() && out.relaxation_work == 0);
        let after: Vec<i64> = out.graph.arc_ids().map(|a| out.graph.flow(a)).collect();
        assert_eq!(flows, after);
        assert!(is_optimal(&out.graph));
    }

    /// A solve that stops early leaves a pseudoflow, so the next round must
    /// solve even when its batch alone would prove quiescence.
    #[test]
    fn hedge_never_skips_after_an_early_stop() {
        let inst = scheduling_instance(24, &InstanceSpec::default());
        let mut solver = DualSolver::default();
        let out = solver
            .solve_owned_with_deltas(inst.graph, None, &SolveOptions::unlimited())
            .unwrap();
        let stopped = SolveOptions {
            iteration_limit: Some(1),
            ..Default::default()
        };
        let out = solver
            .solve_owned_with_deltas(out.graph, None, &stopped)
            .unwrap();
        assert!(out.solution.terminated_early);
        let out = solver
            .solve_owned_with_deltas(
                out.graph,
                Some(&DeltaBatch::empty()),
                &SolveOptions::unlimited(),
            )
            .unwrap();
        assert!(!out.race_skipped);
        assert!(is_optimal(&out.graph));
    }

    /// Relaxation's counted work past its budget: a small first solve sets
    /// a small reference, an oversubscribed instance then spends the whole
    /// budget, and cold cost scaling solves it — optimally, deterministically
    /// and within the budget plus one cold cost-scaling solve.
    #[test]
    fn hedge_falls_back_once_relaxation_spends_its_budget() {
        let small = InstanceSpec {
            tasks: 4,
            machines: 2,
            slots_per_machine: 2,
            ..InstanceSpec::default()
        };
        let oversubscribed = InstanceSpec {
            tasks: 300,
            machines: 20,
            slots_per_machine: 4,
            ..InstanceSpec::default()
        };
        let run = || {
            let mut solver = DualSolver::default();
            let first = solver
                .solve_owned_with_deltas(
                    scheduling_instance(31, &small).graph,
                    None,
                    &SolveOptions::unlimited(),
                )
                .unwrap();
            assert_eq!(first.work_budget, None, "no history: cold cost scaling");
            let reference = first.cs_stats.unwrap().arc_scans;
            let out = solver
                .solve_owned_with_deltas(
                    scheduling_instance(32, &oversubscribed).graph,
                    None,
                    &SolveOptions::unlimited(),
                )
                .unwrap();
            (solver, reference, out)
        };
        let (mut solver, reference, out) = run();
        let budget = out.work_budget.expect("relaxation ran under a budget");
        assert_eq!(budget, HEDGE_WORK_FACTOR * reference);
        assert!(out.fell_back);
        assert_eq!(out.winner, AlgorithmKind::CostScaling);
        assert!(is_optimal(&out.graph));
        assert_eq!(
            out.relaxation_work, budget,
            "relaxation stops at the budget"
        );

        // One cold cost-scaling solve of the same graph, counted alone.
        let mut g = scheduling_instance(32, &oversubscribed).graph;
        let cold = crate::cost_scaling::solve(&mut g, &SolveOptions::unlimited()).unwrap();
        let fallback = out.cs_stats.as_ref().unwrap().arc_scans;
        assert_eq!(fallback, cold.stats.arc_scans);
        assert!(out.relaxation_work + fallback <= budget + cold.stats.arc_scans);
        assert_eq!(out.solution.objective, cold.objective);

        // The same inputs give the same flow, arc by arc.
        let (_, _, again) = run();
        for a in out.graph.arc_ids() {
            assert_eq!(out.graph.flow(a), again.graph.flow(a), "arc {a}");
        }

        // The fallback's work is the next round's reference.
        let next = solver
            .solve_owned_with_deltas(out.graph, None, &SolveOptions::unlimited())
            .unwrap();
        assert_eq!(next.work_budget, Some(HEDGE_WORK_FACTOR * fallback));
    }

    /// Relaxation within its budget: cost scaling does no work at all.
    #[test]
    fn hedge_within_budget_runs_no_cost_scaling() {
        let mut inst = scheduling_instance(33, &InstanceSpec::default());
        let mut solver = DualSolver::default();
        let first = solver
            .solve_owned_with_deltas(inst.graph, None, &SolveOptions::unlimited())
            .unwrap();
        let reference = first.cs_stats.unwrap().arc_scans;
        inst.graph = first.graph;
        let a = inst.graph.arc_ids().nth(5).unwrap();
        let c = inst.graph.cost(a);
        inst.graph.set_arc_cost(a, c + 11).unwrap();
        let out = solver
            .solve_owned_with_deltas(inst.graph, None, &SolveOptions::unlimited())
            .unwrap();
        assert_eq!(out.winner, AlgorithmKind::Relaxation);
        assert!(!out.fell_back);
        assert_eq!(out.cs_stats.map_or(0, |s| s.arc_scans), 0);
        assert_eq!(out.work_budget, Some(HEDGE_WORK_FACTOR * reference));
        assert!(out.relaxation_work > 0);
        assert!(out.relaxation_work <= HEDGE_WORK_FACTOR * reference);
        assert_eq!(out.relaxation_work, out.solution.stats.arc_scans);
        assert!(is_optimal(&out.graph));
    }

    /// A second hedged solve of the same graph reuses the relaxation
    /// buffers as they are: no buffer's capacity grows, and the copy of the
    /// residual network was reserved to the live arc count exactly.
    #[test]
    fn steady_hedged_rounds_reuse_the_relaxation_buffers() {
        let inst = scheduling_instance(34, &InstanceSpec::default());
        let mut solver = DualSolver::default();
        let out = solver
            .solve_owned_with_deltas(inst.graph, None, &SolveOptions::unlimited())
            .unwrap();
        assert_eq!(out.winner, AlgorithmKind::CostScaling, "no history: cold");
        let out = solver
            .solve_owned_with_deltas(out.graph, None, &SolveOptions::unlimited())
            .unwrap();
        assert_eq!(out.winner, AlgorithmKind::Relaxation);
        let capacities = solver.workspace.capacities();
        assert_eq!(capacities[0], 2 * out.graph.arc_count(), "residual arcs");
        assert_eq!(capacities[1], out.graph.node_bound() + 1, "span offsets");
        let objective = out.solution.objective;
        let out = solver
            .solve_owned_with_deltas(out.graph, None, &SolveOptions::unlimited())
            .unwrap();
        assert_eq!(out.winner, AlgorithmKind::Relaxation);
        assert_eq!(out.solution.objective, objective);
        assert_eq!(solver.workspace.capacities(), capacities);
    }

    /// A graph that carries a flow and cannot route all of its supply: an
    /// optimally solved instance plus one task whose only arc leads to a
    /// dead end.
    fn unroutable_graph_with_flow() -> FlowGraph {
        let inst = scheduling_instance(35, &InstanceSpec::default());
        let mut g = inst.graph;
        crate::relaxation::solve(&mut g, &SolveOptions::unlimited()).unwrap();
        assert!(g.arc_ids().any(|a| g.flow(a) > 0));
        let task = g.add_node(firmament_flow::NodeKind::Task { task: 999 }, 1);
        let dead_end = g.add_node(firmament_flow::NodeKind::Other { tag: 0 }, 0);
        g.add_arc(task, dead_end, 1, 5).unwrap();
        let demand = g.supply(inst.sink);
        g.set_supply(inst.sink, demand - 1).unwrap();
        g
    }

    /// 50 tasks on 5 machines × 4 slots, solved, then the unscheduled →
    /// sink arc cut to 10 units: 20 units cannot be routed. Relaxation's
    /// prices fall without end here until its feasibility check stops it.
    fn cut_unscheduled_arc() -> FlowGraph {
        let spec = InstanceSpec {
            machines: 5,
            ..InstanceSpec::default()
        };
        let inst = scheduling_instance(36, &spec);
        let mut g = inst.graph;
        crate::cost_scaling::solve(&mut g, &SolveOptions::unlimited()).unwrap();
        let arc = g
            .adj(inst.unscheduled)
            .iter()
            .copied()
            .find(|&a| a.is_forward() && g.dst(a) == inst.sink)
            .unwrap();
        g.set_arc_capacity(arc, 10).unwrap();
        g
    }

    /// A relaxation run that fails — cancelled, or infeasible — drops its
    /// copy unwritten: the graph comes back bit-identical to its state
    /// before the call, under `Hedged` (relaxation runs once the solver has
    /// history), `RelaxationOnly` and `relaxation::solve`. That holds for
    /// an input relaxation rejects at once and for the cut instance, which
    /// only the feasibility check rejects. A hedged round whose cold cost
    /// scaling fails — with no history (step 2), or after relaxation spent
    /// its budget (step 4) — gives the graph back bit-identical too.
    #[test]
    fn a_failed_relaxation_leaves_the_graph_untouched() {
        let token = CancelToken::new();
        token.cancel();
        let cancelled = SolveOptions::with_cancel(token);
        let feasible = || {
            let inst = scheduling_instance(36, &InstanceSpec::default());
            let mut g = inst.graph;
            crate::cost_scaling::solve(&mut g, &SolveOptions::unlimited()).unwrap();
            g
        };
        let cases = [
            (feasible(), cancelled, SolveError::Cancelled),
            (
                unroutable_graph_with_flow(),
                SolveOptions::unlimited(),
                SolveError::Infeasible,
            ),
            (
                cut_unscheduled_arc(),
                SolveOptions::unlimited(),
                SolveError::Infeasible,
            ),
        ];
        for (graph, opts, expected) in cases {
            let before = format!("{graph:?}");
            for kind in [SolverKind::Hedged, SolverKind::RelaxationOnly] {
                let mut solver = solver(kind);
                if kind == SolverKind::Hedged {
                    let history = solver
                        .solve_owned_with_deltas(feasible(), None, &SolveOptions::unlimited())
                        .unwrap();
                    assert_eq!(history.winner, AlgorithmKind::CostScaling);
                }
                let (err, back) = solver
                    .solve_owned_with_deltas(graph.clone(), None, &opts)
                    .expect_err("the run fails");
                assert_eq!(err, expected, "{kind:?}");
                assert_eq!(format!("{back:?}"), before, "{kind:?}: {expected:?}");
            }
            let mut g = graph;
            let err = crate::relaxation::solve(&mut g, &opts).expect_err("the run fails");
            assert_eq!(err, expected);
            assert_eq!(format!("{g:?}"), before, "relaxation::solve: {expected:?}");
        }

        let cut = cut_unscheduled_arc();
        for (graph, history) in [
            (unroutable_graph_with_flow(), false),
            (cut.clone(), false),
            (cut, true),
        ] {
            let before = format!("{graph:?}");
            let mut solver = solver(SolverKind::Hedged);
            if history {
                solver
                    .solve_owned_with_deltas(feasible(), None, &SolveOptions::unlimited())
                    .unwrap();
            }
            let (err, back) = solver
                .solve_owned_with_deltas(graph, None, &SolveOptions::unlimited())
                .expect_err("the run fails");
            assert_eq!(err, SolveError::Infeasible, "history {history}");
            assert_eq!(format!("{back:?}"), before, "history {history}");
        }
    }

    /// The race on the cut instance: cost scaling proves it unroutable, and
    /// that ends relaxation's run too.
    #[test]
    fn race_ends_when_cost_scaling_proves_infeasibility() {
        let (err, _) = solver(SolverKind::Dual)
            .solve_owned_with_deltas(cut_unscheduled_arc(), None, &SolveOptions::unlimited())
            .expect_err("the race fails");
        assert_eq!(err, SolveError::Infeasible);
    }

    #[test]
    fn cost_scaling_only_matches_quincy_semantics() {
        // Quincy = flow scheduling restricted to (incremental) cost scaling.
        let inst = scheduling_instance(5, &InstanceSpec::default());
        let mut solver = DualSolver::new(DualConfig {
            kind: SolverKind::CostScalingOnly,
            ..Default::default()
        });
        let out = solver
            .solve_owned_with_deltas(inst.graph, None, &SolveOptions::unlimited())
            .unwrap();
        assert_eq!(out.winner, AlgorithmKind::IncrementalCostScaling);
        assert!(is_optimal(&out.graph));
    }
}
