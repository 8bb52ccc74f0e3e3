//! The speculative dual-algorithm executor (§6.1).
//!
//! Firmament's MCMF solver always runs relaxation *and* incremental cost
//! scaling concurrently and picks the solution of whichever finishes first.
//! In the common case relaxation wins; having cost scaling as well bounds
//! placement latency in the edge cases where relaxation degenerates (high
//! utilization, §4.3). Running both is cheap — the algorithms are
//! single-threaded — and avoids a brittle choice heuristic that would
//! depend on both scheduling policy and cluster utilization.
//!
//! Relaxation runs on the calling thread and cost scaling on one spawned
//! thread; whichever *succeeds* first cancels the other cooperatively, and
//! there is no third, coordinating thread. If relaxation won, its solution
//! is handed to incremental cost scaling through price refine (§6.2) so the
//! *next* incremental run can warm-start.
//!
//! Relaxation solves a copy of the round's graph. The copy is made with
//! `clone_from` into a spare graph the solver keeps between rounds, and the
//! losing racer's graph becomes the next round's spare, so a raced round
//! copies the graph without allocating it anew.

use crate::common::{AlgorithmKind, CancelToken, Solution, SolveError, SolveOptions};
use crate::incremental::{IncrementalConfig, IncrementalCostScaling};
use crate::relaxation::{self, RelaxationConfig};
use firmament_flow::delta::DeltaBatch;
use firmament_flow::FlowGraph;

/// Which algorithms the dual solver may run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SolverKind {
    /// Both algorithms, first finisher wins (Firmament's default, §6.1).
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
    pub incremental: IncrementalConfig,
}

impl Default for DualConfig {
    fn default() -> Self {
        DualConfig {
            kind: SolverKind::Dual,
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
    /// The winning solution.
    pub solution: Solution,
    /// The graph containing the winning flow (adopt this as the new
    /// authoritative graph; node/arc ids are preserved from the input).
    pub graph: FlowGraph,
    /// Which algorithm finished first.
    pub winner: AlgorithmKind,
    /// Statistics of the incremental cost-scaling run when it completed
    /// (even as the race loser) — the delta-fed warm-start telemetry
    /// (nodes touched, bailouts) surfaced on `RoundOutcome`.
    pub cs_stats: Option<crate::common::SolveStats>,
    /// `true` when a configured dual race was short-circuited because the
    /// round's delta batch was re-price-only and provably quiescent (no
    /// exposed reduced-cost violation): the warm cost-scaling path ran
    /// alone in O(Δ), and relaxation neither ran nor copied the graph.
    /// Always `false` for single-algorithm configurations (nothing was
    /// skipped).
    pub race_skipped: bool,
}

/// Firmament's MCMF solver: speculative execution of relaxation and
/// incremental cost scaling.
///
/// The solver owns the cost-scaling warm state across rounds. Borrowing
/// callers use [`solve`](Self::solve), which leaves the input graph
/// untouched (it can continue accumulating changes while the solver runs,
/// as in Fig 2b); callers that adopt the output — like the scheduler core
/// — use [`solve_owned`](Self::solve_owned), which moves the graph through
/// the solve instead of copying it every round.
#[derive(Debug)]
pub struct DualSolver {
    config: DualConfig,
    incremental: IncrementalCostScaling,
    /// The previous race's losing graph, reused as the buffer for the next
    /// race's relaxation copy.
    spare: FlowGraph,
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
            spare: FlowGraph::new(),
        }
    }

    /// Returns the configured solver kind.
    pub fn kind(&self) -> SolverKind {
        self.config.kind
    }

    /// Solves the scheduling graph, returning the first-finishing solution.
    ///
    /// `opts` applies to both algorithms (time/iteration budgets are rarely
    /// used here; cancellation is managed internally). The input graph is
    /// left untouched; callers that immediately adopt the output graph
    /// should prefer [`solve_owned`](Self::solve_owned), which avoids one
    /// full graph copy per round.
    pub fn solve(
        &mut self,
        graph: &FlowGraph,
        opts: &SolveOptions,
    ) -> Result<DualOutcome, SolveError> {
        self.solve_owned(graph.clone(), opts).map_err(|(e, _)| e)
    }

    /// Like [`solve`](Self::solve), but takes ownership of the graph:
    /// single-algorithm configurations and race-skipped rounds solve fully
    /// in place (zero copies); the dual race solves cost scaling in place
    /// and copies the graph once, into the solver's recycled spare, for
    /// relaxation. On failure the graph is handed back (possibly with
    /// partial flow) so the caller can restore its state.
    #[allow(clippy::result_large_err)] // the Err graph is the point: ownership returns on failure
    pub fn solve_owned(
        &mut self,
        graph: FlowGraph,
        opts: &SolveOptions,
    ) -> Result<DualOutcome, (SolveError, FlowGraph)> {
        self.solve_owned_with_deltas(graph, None, opts)
    }

    /// Like [`solve_owned`](Self::solve_owned), but hands the incremental
    /// cost-scaling side the typed change feed recorded since the last
    /// handoff, so its warm start consumes deltas natively instead of
    /// diffing the whole graph (relaxation ignores the feed).
    #[allow(clippy::result_large_err)] // see solve_owned
    pub fn solve_owned_with_deltas(
        &mut self,
        graph: FlowGraph,
        deltas: Option<&DeltaBatch>,
        opts: &SolveOptions,
    ) -> Result<DualOutcome, (SolveError, FlowGraph)> {
        match self.config.kind {
            SolverKind::RelaxationOnly => {
                let mut g = graph;
                match relaxation::solve_with(&mut g, opts, &self.config.relaxation) {
                    Ok(sol) => Ok(DualOutcome {
                        winner: sol.algorithm,
                        solution: sol,
                        graph: g,
                        cs_stats: None,
                        race_skipped: false,
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
                    }),
                    Err(e) => Err((e, g)),
                }
            }
            SolverKind::Dual => self.solve_dual(graph, deltas, opts),
        }
    }

    #[allow(clippy::result_large_err)] // see solve_owned
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
        // (plus its full graph clone) would only burn a cold solve to
        // reach the same optimum. Falls/flow-carrying rises may expose
        // violations, so those rounds still race.
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
                    }),
                    Err(e) => Err((e, g)),
                };
            }
        }
        let cancel_relax = CancelToken::new();
        let cancel_cs = CancelToken::new();
        let mut relax_opts = opts.clone();
        relax_opts.cancel = Some(cancel_relax.clone());
        let mut cs_opts = opts.clone();
        cs_opts.cancel = Some(cancel_cs.clone());

        let mut g_relax = std::mem::take(&mut self.spare);
        g_relax.clone_from(&graph);
        let relax_cfg = &self.config.relaxation;
        let incremental = &mut self.incremental;

        // Each racer cancels the other only if it actually produced a
        // solution: a failed finisher (e.g. a spurious infeasibility from a
        // warm start) must not abort the algorithm that can still succeed.
        // The inner loops check their token every 256 iterations.
        let (relax_result, cs_result) = std::thread::scope(|scope| {
            let mut g_cs = graph;
            let cs_handle = scope.spawn(move || {
                let r = incremental.solve_with_deltas(&mut g_cs, deltas, &cs_opts);
                if r.is_ok() {
                    cancel_relax.cancel();
                }
                (r, g_cs)
            });
            let r = relaxation::solve_with(&mut g_relax, &relax_opts, relax_cfg);
            if r.is_ok() {
                cancel_cs.cancel();
            }
            let cs = cs_handle.join().expect("cost-scaling thread");
            ((r, g_relax), cs)
        });

        // Prefer whichever produced a real (non-cancelled) solution; if
        // both finished, take the faster one.
        let cs_stats = match &cs_result {
            (Ok(cs), _) => Some(cs.stats.clone()),
            _ => None,
        };
        // The losing graph becomes the next race's spare.
        let (solution, graph) = match (relax_result, cs_result) {
            ((Ok(rs), rg), (Ok(cs), cg)) => {
                if rs.runtime <= cs.runtime {
                    self.spare = cg;
                    (rs, rg)
                } else {
                    self.spare = rg;
                    (cs, cg)
                }
            }
            ((Ok(rs), rg), (Err(_), cg)) => {
                self.spare = cg;
                (rs, rg)
            }
            ((Err(_), rg), (Ok(cs), cg)) => {
                self.spare = rg;
                (cs, cg)
            }
            ((Err(re), rg), (Err(ce), cg)) => {
                // Both failed: propagate the more informative error and
                // hand a graph back so the caller can restore its state.
                self.spare = rg;
                let err = match (&re, &ce) {
                    (SolveError::Cancelled, e) => e.clone(),
                    (e, _) => e.clone(),
                };
                return Err((err, cg));
            }
        };
        let outcome = DualOutcome {
            winner: solution.algorithm,
            solution,
            graph,
            cs_stats,
            race_skipped: false,
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
            .solve(&inst.graph, &SolveOptions::unlimited())
            .unwrap();
        assert!(is_optimal(&out.graph));
        assert!(!out.solution.terminated_early);
    }

    #[test]
    fn all_kinds_agree_on_objective() {
        let inst = scheduling_instance(2, &InstanceSpec::default());
        let mut objectives = Vec::new();
        for kind in [
            SolverKind::Dual,
            SolverKind::RelaxationOnly,
            SolverKind::CostScalingOnly,
        ] {
            let mut solver = DualSolver::new(DualConfig {
                kind,
                ..Default::default()
            });
            let out = solver
                .solve(&inst.graph, &SolveOptions::unlimited())
                .unwrap();
            objectives.push(out.solution.objective);
        }
        assert_eq!(objectives[0], objectives[1]);
        assert_eq!(objectives[1], objectives[2]);
    }

    #[test]
    fn repeated_rounds_with_changes_stay_optimal() {
        let mut inst = scheduling_instance(3, &InstanceSpec::default());
        let mut solver = DualSolver::default();
        for round in 0..4 {
            let out = solver
                .solve(&inst.graph, &SolveOptions::unlimited())
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

    /// A raced round copies its graph into the previous race's losing
    /// graph. Shrinking the graph between rounds leaves that spare larger
    /// than the next input; the race must still solve exactly the input.
    #[test]
    fn raced_rounds_reuse_a_larger_spare() {
        let mut inst = scheduling_instance(6, &InstanceSpec::default());
        let mut solver = DualSolver::default();
        for round in 0..4 {
            let shape = (inst.graph.node_count(), inst.graph.arc_count());
            let out = solver
                .solve_owned(inst.graph, &SolveOptions::unlimited())
                .unwrap();
            assert!(!out.race_skipped, "round {round}");
            assert_eq!((out.graph.node_count(), out.graph.arc_count()), shape);
            assert!(firmament_flow::validate::validate(&out.graph).is_empty());
            assert!(is_optimal(&out.graph), "round {round}");
            let mut scratch = out.graph.clone();
            let cold =
                crate::cost_scaling::solve(&mut scratch, &SolveOptions::unlimited()).unwrap();
            assert_eq!(out.solution.objective, cold.objective, "round {round}");
            inst.graph = out.graph;
            // Retire five tasks (drained, as the manager does) so the next
            // input is smaller than the spare.
            for t in inst.tasks.drain(..5) {
                crate::incremental::drain_task_flow(&mut inst.graph, t);
                inst.graph.remove_node(t).unwrap();
                let d = inst.graph.supply(inst.sink);
                inst.graph.set_supply(inst.sink, d + 1).unwrap();
            }
        }
    }

    #[test]
    fn input_graph_is_untouched() {
        let inst = scheduling_instance(4, &InstanceSpec::default());
        let before: Vec<i64> = inst.graph.arc_ids().map(|a| inst.graph.flow(a)).collect();
        let mut solver = DualSolver::default();
        let _ = solver
            .solve(&inst.graph, &SolveOptions::unlimited())
            .unwrap();
        let after: Vec<i64> = inst.graph.arc_ids().map(|a| inst.graph.flow(a)).collect();
        assert_eq!(before, after);
    }

    /// The re-price-only short-circuit (ROADMAP item): a warm round whose
    /// batch is all flowless cost rises must skip the relaxation race and
    /// run the warm path only — in O(Δ), touching nothing.
    #[test]
    fn reprice_only_round_skips_the_race() {
        let mut inst = scheduling_instance(21, &InstanceSpec::default());
        let mut solver = DualSolver::default();
        let out = solver
            .solve_owned(inst.graph, &SolveOptions::unlimited())
            .unwrap();
        assert!(!out.race_skipped, "first (structural) round races");
        inst.graph = out.graph;

        // Pure cost drift: raise every flowless non-sink arc, the shape a
        // convex ladder produces as load rises.
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
        let batch = DeltaBatch::compact(inst.graph.take_changes());
        assert!(batch.is_reprice_only());
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
            .solve_owned(inst.graph, &SolveOptions::unlimited())
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
    /// violation, so those re-price-only rounds still run the full race —
    /// and still land on the re-priced optimum.
    #[test]
    fn exposing_repricings_still_race() {
        let mut inst = scheduling_instance(23, &InstanceSpec::default());
        let mut solver = DualSolver::default();
        let out = solver
            .solve_owned(inst.graph, &SolveOptions::unlimited())
            .unwrap();
        inst.graph = out.graph;
        inst.graph.set_change_tracking(true);
        // Make one flowless arc drastically cheaper: the optimum may move.
        let a = inst
            .graph
            .arc_ids()
            .find(|&a| {
                inst.graph.flow(a) == 0 && inst.graph.dst(a) != inst.sink && inst.graph.cost(a) > 0
            })
            .unwrap();
        inst.graph.set_arc_cost(a, 0).unwrap();
        let batch = DeltaBatch::compact(inst.graph.take_changes());
        assert!(batch.is_reprice_only(), "still a pure re-price batch");
        let out = solver
            .solve_owned_with_deltas(inst.graph, Some(&batch), &SolveOptions::unlimited())
            .unwrap();
        assert!(
            !out.race_skipped,
            "a cost fall can expose a violation — must race"
        );
        assert!(is_optimal(&out.graph));
        let mut fresh = out.graph.clone();
        let scratch = crate::cost_scaling::solve(&mut fresh, &SolveOptions::unlimited()).unwrap();
        assert_eq!(out.solution.objective, scratch.objective);
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
            .solve(&inst.graph, &SolveOptions::unlimited())
            .unwrap();
        assert_eq!(out.winner, AlgorithmKind::IncrementalCostScaling);
        assert!(is_optimal(&out.graph));
    }
}
