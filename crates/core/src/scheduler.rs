//! The Firmament scheduler service: events in, placements out (Fig 4).
//!
//! Firmament continuously reschedules the entire workload: cluster events
//! are translated into flow-network deltas by the [`FlowGraphManager`],
//! each scheduling round runs the two-pass cost update of §6.3 against the
//! configured [`CostModel`], the MCMF solver (§6.1: relaxation, hedged by
//! cost scaling) finds the min-cost flow, and placement actions are
//! extracted by diffing the optimal flow against the current task
//! assignments.
//!
//! The scheduler core never mutates the graph itself — the manager owns
//! it. `schedule` *takes* the graph out of the manager, hands ownership to
//! the solver (avoiding a full per-round copy), and adopts the winning
//! flow back so the next incremental solve warm-starts from it.
//!
//! The round's tail builds no per-task map. Listing 1 leaves each task
//! node's machine in a dense vector indexed by node, and the diff walks
//! the manager's task table in `TaskId` order, which already pairs every
//! task with its node and the machine the fed events left it running on.
//! A task whose extracted machine equals that one — a running task that
//! stays, or a waiting task that stays unscheduled — needs no action and
//! is never looked up in [`ClusterState`]; in a steady round that is all
//! but the handful of tasks that change. Only the others are matched
//! against their cluster state.

use crate::extract::{assign_machines, Assignments};
use crate::graph_manager::{FlowGraphManager, TaskTable};
use firmament_cluster::{ClusterEvent, ClusterState, JobId, MachineId, TaskId, TaskState};
use firmament_flow::FlowGraph;
use firmament_mcmf::dual::{DualConfig, DualSolver};
use firmament_mcmf::{AlgorithmKind, SolveError, SolveOptions};
use firmament_policies::{CostModel, PolicyError};
use std::time::Duration;

/// A scheduling action produced by a round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedulingAction {
    /// Start (or migrate) a task on a machine.
    Place {
        /// The task to place.
        task: TaskId,
        /// The destination machine.
        machine: MachineId,
    },
    /// Evict a running task (it re-enters the waiting pool).
    Preempt {
        /// The task to evict.
        task: TaskId,
    },
}

/// Per-round solver telemetry: how the change feed reached the solver, how
/// much work each algorithm did, and how much of the graph the warm start
/// actually visited. This is what lets experiments (fig11/fig14) show the
/// incremental path scaling with *change* size rather than graph size, and
/// fig08/fig09 check the hedge's work bound by count.
#[derive(Debug, Clone, Default)]
pub struct SolverStats {
    /// Compacted [`firmament_flow::delta::GraphDelta`]s handed to the
    /// solver this round.
    pub deltas_fed: usize,
    /// Raw change-log entries the batch was compacted from.
    pub raw_changes: usize,
    /// Pure re-pricings (`CostChanged`) among the deltas — the shape a
    /// convex-bundle segment re-price or a `dynamic_task_arcs` cost
    /// drift produces. These are the cheap warm-start events: no flow
    /// moved, no structure changed.
    pub repricings: usize,
    /// Nodes the cost-scaling solve activated (its honest work measure);
    /// 0 when no cost-scaling solve completed this round — the hedge ran
    /// relaxation alone or skipped, or the race's racer was cancelled.
    pub nodes_touched: u64,
    /// Iterations the cost-scaling solve spent (push/relabel steps). Under
    /// the race this is the incremental racer; under the hedge, its cold
    /// solve (the first round's, or the fallback's).
    pub iterations: u64,
    /// Warm-start safety-valve trips this round (the race's warm attempt
    /// was abandoned for a bounded cold re-solve).
    pub bailouts: u64,
    /// Arc examinations of the cost-scaling solve (see
    /// [`firmament_mcmf::SolveStats::arc_scans`]); 0 when none completed.
    pub cs_work: u64,
    /// Arc examinations of the hedge's relaxation run; it equals
    /// `work_budget` when relaxation spent the budget and fell back.
    pub relaxation_work: u64,
    /// The hedge's work budget this round
    /// ([`firmament_mcmf::dual::HEDGE_WORK_FACTOR`] × the arc examinations
    /// of the last cold cost-scaling solve); `None` when relaxation ran
    /// under no budget.
    pub work_budget: Option<u64>,
    /// `true` when the hedge's relaxation spent its budget and cold cost
    /// scaling solved the round instead.
    pub fell_back: bool,
    /// `true` when the round ran no solver: the last round's flow was
    /// optimal and this round's batch was re-price-only with no exposed
    /// violation (all cost rises on flowless arcs — the convex-ladder
    /// clock-advance shape), so the hedge and the race alike hand that
    /// flow back untouched.
    pub race_skipped: bool,
    /// Which MCMF algorithm produced the round's flow — a convenience copy
    /// of [`RoundOutcome::winner`] so this struct is self-contained when
    /// logged on its own.
    pub winner: Option<AlgorithmKind>,
}

/// The outcome of one scheduling round.
#[derive(Debug)]
pub struct RoundOutcome {
    /// Actions to apply to the cluster, in order (preemptions first).
    pub actions: Vec<SchedulingAction>,
    /// The solver's algorithm runtime (Fig 2b: "solver running").
    pub algorithm_runtime: Duration,
    /// Which MCMF algorithm produced the round's flow (on a skipped round,
    /// the one whose flow was kept).
    pub winner: AlgorithmKind,
    /// Delta-feed, work and warm-start telemetry for this round.
    pub solver: SolverStats,
    /// Objective value of the optimal flow.
    pub objective: i64,
    /// Total tasks currently placed somewhere after this round.
    pub placed_tasks: usize,
    /// Tasks left unscheduled by this round.
    pub unscheduled_tasks: usize,
    /// Gang jobs deferred by admission control this round — the minimum
    /// exceeded total machine capacity across admitted gangs, or the
    /// machine capacity reachable from the job's own tasks. Their gang
    /// constraint was left unenforced (the job queues) instead of making
    /// the flow network infeasible. Re-admitted automatically once
    /// capacity appears.
    pub deferred_gang_jobs: Vec<JobId>,
}

/// Errors from the scheduler.
#[derive(Debug)]
pub enum SchedulerError {
    /// The graph manager failed to translate an event or refresh costs.
    Policy(PolicyError),
    /// The MCMF solver failed.
    Solver(SolveError),
}

impl From<PolicyError> for SchedulerError {
    fn from(e: PolicyError) -> Self {
        SchedulerError::Policy(e)
    }
}

impl From<SolveError> for SchedulerError {
    fn from(e: SolveError) -> Self {
        SchedulerError::Solver(e)
    }
}

impl std::fmt::Display for SchedulerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SchedulerError::Policy(e) => write!(f, "policy error: {e}"),
            SchedulerError::Solver(e) => write!(f, "solver error: {e}"),
        }
    }
}

impl std::error::Error for SchedulerError {}

/// The Firmament scheduler, parameterized by a declarative [`CostModel`].
///
/// # Examples
///
/// ```
/// use firmament_cluster::{ClusterEvent, ClusterState, Job, JobClass, Task, TopologySpec};
/// use firmament_core::Firmament;
/// use firmament_policies::LoadSpreadingCostModel;
///
/// let mut state = ClusterState::with_topology(&TopologySpec {
///     machines: 4,
///     machines_per_rack: 4,
///     slots_per_machine: 2,
/// });
/// let mut firmament = Firmament::new(LoadSpreadingCostModel::new());
/// // Register machines.
/// let machines: Vec<_> = state.machines.values().cloned().collect();
/// for m in machines {
///     firmament.handle_event(&state, &ClusterEvent::MachineAdded { machine: m }).unwrap();
/// }
/// // Submit a job with two tasks.
/// let job = Job::new(0, JobClass::Batch, 0, 0);
/// let tasks = vec![Task::new(0, 0, 0, 1_000_000), Task::new(1, 0, 0, 1_000_000)];
/// let ev = ClusterEvent::JobSubmitted { job, tasks };
/// state.apply(&ev);
/// firmament.handle_event(&state, &ev).unwrap();
/// // Run a scheduling round.
/// let outcome = firmament.schedule(&state).unwrap();
/// assert_eq!(outcome.actions.len(), 2);
/// ```
#[derive(Debug)]
pub struct Firmament<C: CostModel> {
    model: C,
    manager: FlowGraphManager,
    solver: DualSolver,
    /// Per-round solver options (budgets apply to each algorithm).
    pub solve_options: SolveOptions,
    rounds: u64,
}

impl<C: CostModel> Firmament<C> {
    /// Creates a scheduler with the default solver configuration (the
    /// hedge, [`firmament_mcmf::SolverKind::Hedged`]).
    pub fn new(model: C) -> Self {
        Self::with_solver(model, DualConfig::default())
    }

    /// Creates a scheduler with an explicit solver configuration (e.g.
    /// `SolverKind::CostScalingOnly` to emulate Quincy).
    pub fn with_solver(model: C, config: DualConfig) -> Self {
        Firmament {
            model,
            manager: FlowGraphManager::new(),
            solver: DualSolver::new(config),
            solve_options: SolveOptions::unlimited(),
            rounds: 0,
        }
    }

    /// The cost model driving this scheduler.
    pub fn model(&self) -> &C {
        &self.model
    }

    /// Mutable access to the cost model (for experiment configuration).
    /// Structural knobs take effect for *future* events; already-declared
    /// arcs keep their shape.
    pub fn model_mut(&mut self) -> &mut C {
        &mut self.model
    }

    /// The flow-graph manager (read-only: node lookups, refresh stats).
    pub fn manager(&self) -> &FlowGraphManager {
        &self.manager
    }

    /// Mutable access to the flow-graph manager, for benchmarks and tests
    /// that drive the take-graph/adopt-graph/take-deltas handoff manually
    /// instead of through [`schedule`](Self::schedule).
    pub fn manager_mut(&mut self) -> &mut FlowGraphManager {
        &mut self.manager
    }

    /// The current flow network.
    pub fn graph(&self) -> &FlowGraph {
        self.manager.graph()
    }

    /// Number of completed scheduling rounds.
    pub fn rounds(&self) -> u64 {
        self.rounds
    }

    /// Feeds a cluster event into the flow network.
    ///
    /// `state` must already reflect the event (call
    /// [`ClusterState::apply`] first). Task completions drain the departing
    /// task's flow before node removal — the efficient-task-removal
    /// heuristic (§5.3.2) that keeps the graph balanced for the incremental
    /// solver.
    pub fn handle_event(
        &mut self,
        state: &ClusterState,
        event: &ClusterEvent,
    ) -> Result<(), SchedulerError> {
        self.manager.apply_event(&self.model, state, event)?;
        Ok(())
    }

    /// Runs the two-pass cost update (§6.3) without solving — exposed for
    /// benchmarks that want to inspect or solve the refreshed graph
    /// out-of-band. [`schedule`](Self::schedule) calls this itself.
    pub fn refresh(&mut self, state: &ClusterState) -> Result<(), SchedulerError> {
        self.manager.refresh(&self.model, state)?;
        Ok(())
    }

    /// Runs one scheduling round: refresh costs, solve, extract, diff.
    ///
    /// `state` must reflect exactly the events fed through
    /// [`handle_event`](Self::handle_event): each of them applied, and no
    /// other. The diff trusts the manager's record of where each task runs
    /// and reads `state` only for tasks whose extracted machine differs
    /// from that record.
    pub fn schedule(&mut self, state: &ClusterState) -> Result<RoundOutcome, SchedulerError> {
        self.manager.refresh(&self.model, state)?;
        // Take the typed change feed the graph folded since the last
        // handoff: the solver skips a round it proves quiescent, and the
        // race's incremental solver warm-starts from it instead of diffing
        // the graph against its warm state.
        let deltas = self.manager.take_deltas();
        // Hand the solver ownership of the graph. The hedge solves without
        // copying it: relaxation within its work budget (on the solver's own
        // compact copy of the residual network), cold cost scaling past it,
        // or nothing at all on a provably quiescent batch. (The opt-in `Dual`
        // race skips the same rounds, fills relaxation's copy the same way
        // and runs cost scaling on the graph beside it; no kind clones the
        // graph.) Adopting the resulting flow is a move either way.
        let graph = self.manager.take_graph();
        let outcome =
            match self
                .solver
                .solve_owned_with_deltas(graph, Some(&deltas), &self.solve_options)
            {
                Ok(outcome) => outcome,
                Err((err, mut graph)) => {
                    // Restore the network so the manager stays consistent; the
                    // failed run may have left partial flow behind. (The
                    // drained delta batch is intentionally dropped: a failed
                    // solve leaves the solver holding no optimal flow — no
                    // round can skip and the race's incremental solver is
                    // cold — so the next round solves in full and needs no
                    // feed.)
                    graph.reset_flow();
                    self.manager.adopt_graph(graph);
                    return Err(err.into());
                }
            };
        self.manager.adopt_graph(outcome.graph);
        let assignments = assign_machines(self.manager.graph());
        let tasks = self.manager.task_table();
        let (actions, placed) = diff_placements(state, tasks, &assignments);
        self.rounds += 1;
        let cs = outcome.cs_stats.as_ref();
        Ok(RoundOutcome {
            actions,
            algorithm_runtime: outcome.solution.runtime,
            winner: outcome.winner,
            solver: SolverStats {
                deltas_fed: deltas.len(),
                raw_changes: deltas.raw_len(),
                repricings: deltas.cost_changes(),
                nodes_touched: cs.map(|s| s.nodes_touched).unwrap_or(0),
                iterations: cs.map(|s| s.iterations).unwrap_or(0),
                bailouts: cs.map(|s| s.bailouts).unwrap_or(0),
                cs_work: cs.map(|s| s.arc_scans).unwrap_or(0),
                relaxation_work: outcome.relaxation_work,
                work_budget: outcome.work_budget,
                fell_back: outcome.fell_back,
                race_skipped: outcome.race_skipped,
                winner: Some(outcome.winner),
            },
            objective: outcome.solution.objective,
            placed_tasks: placed,
            unscheduled_tasks: tasks.len() - placed,
            deferred_gang_jobs: self.manager.deferred_gang_jobs().to_vec(),
        })
    }
}

/// Diffs the extracted machines of the tasks in `tasks` against where they
/// run, yielding preemptions (first) and placements/migrations, and counts
/// the tasks whose flow reached a machine.
///
/// The walk follows the task table, so the output is in `TaskId` order by
/// construction. A task whose extracted machine (`None`: unscheduled)
/// equals its entry's running machine is skipped unread; the rest are
/// matched against their cluster state.
fn diff_placements(
    state: &ClusterState,
    tasks: &TaskTable,
    assignments: &Assignments,
) -> (Vec<SchedulingAction>, usize) {
    let mut preemptions = Vec::new();
    let mut moves = Vec::new();
    let mut placed = 0;
    for (task, entry) in tasks.iter() {
        let machine = assignments.machine(entry.node);
        placed += usize::from(machine.is_some());
        if machine == entry.running {
            continue;
        }
        let Some(t) = state.tasks.get(&task) else {
            continue;
        };
        match (t.state, t.machine, machine) {
            // Waiting task gets a machine: place it.
            (TaskState::Waiting | TaskState::Preempted, _, Some(m)) => {
                moves.push(SchedulingAction::Place { task, machine: m });
            }
            // Running task keeps its machine: no action.
            (TaskState::Running, Some(cur), Some(m)) if cur == m => {}
            // Running task moved: migration = preempt + place.
            (TaskState::Running, Some(_), Some(m)) => {
                preemptions.push(SchedulingAction::Preempt { task });
                moves.push(SchedulingAction::Place { task, machine: m });
            }
            // Running task lost its flow: preempt it.
            (TaskState::Running, Some(_), None) => {
                preemptions.push(SchedulingAction::Preempt { task });
            }
            _ => {}
        }
    }
    preemptions.extend(moves);
    (preemptions, placed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use firmament_cluster::{Job, JobClass, Task, TopologySpec};
    use firmament_mcmf::dual::SolverKind;
    use firmament_mcmf::verify::is_optimal;
    use firmament_policies::LoadSpreadingCostModel;

    fn setup(machines: usize, slots: u32) -> (ClusterState, Firmament<LoadSpreadingCostModel>) {
        setup_with(machines, slots, SolverKind::Hedged)
    }

    fn setup_with(
        machines: usize,
        slots: u32,
        kind: SolverKind,
    ) -> (ClusterState, Firmament<LoadSpreadingCostModel>) {
        let state = ClusterState::with_topology(&TopologySpec {
            machines,
            machines_per_rack: 20,
            slots_per_machine: slots,
        });
        let config = DualConfig {
            kind,
            ..DualConfig::default()
        };
        let mut f = Firmament::with_solver(LoadSpreadingCostModel::new(), config);
        let ms: Vec<_> = state.machines.values().cloned().collect();
        for m in ms {
            f.handle_event(&state, &ClusterEvent::MachineAdded { machine: m })
                .unwrap();
        }
        (state, f)
    }

    fn submit(
        state: &mut ClusterState,
        f: &mut Firmament<LoadSpreadingCostModel>,
        job: u64,
        n: usize,
        duration: u64,
    ) {
        let j = Job::new(job, JobClass::Batch, 0, state.now);
        let tasks: Vec<Task> = (0..n)
            .map(|i| Task::new(job * 1000 + i as u64, job, state.now, duration))
            .collect();
        let ev = ClusterEvent::JobSubmitted { job: j, tasks };
        state.apply(&ev);
        f.handle_event(state, &ev).unwrap();
    }

    fn apply_actions(
        state: &mut ClusterState,
        f: &mut Firmament<LoadSpreadingCostModel>,
        actions: &[SchedulingAction],
    ) {
        for a in actions {
            let ev = match a {
                SchedulingAction::Place { task, machine } => ClusterEvent::TaskPlaced {
                    task: *task,
                    machine: *machine,
                    now: state.now,
                },
                SchedulingAction::Preempt { task } => ClusterEvent::TaskPreempted {
                    task: *task,
                    now: state.now,
                },
            };
            state.apply(&ev);
            f.handle_event(state, &ev).unwrap();
        }
    }

    #[test]
    fn schedules_all_tasks_when_capacity_exists() {
        let (mut state, mut f) = setup(4, 2);
        submit(&mut state, &mut f, 0, 6, 10_000_000);
        let outcome = f.schedule(&state).unwrap();
        assert_eq!(outcome.placed_tasks, 6);
        assert_eq!(outcome.unscheduled_tasks, 0);
        assert_eq!(outcome.actions.len(), 6);
        apply_actions(&mut state, &mut f, &outcome.actions.clone());
        assert_eq!(state.used_slots(), 6);
    }

    #[test]
    fn oversubscription_leaves_tasks_unscheduled() {
        let (mut state, mut f) = setup(2, 1);
        submit(&mut state, &mut f, 0, 5, 10_000_000);
        let outcome = f.schedule(&state).unwrap();
        assert_eq!(outcome.placed_tasks, 2);
        assert_eq!(outcome.unscheduled_tasks, 3);
    }

    #[test]
    fn completion_frees_slot_for_waiting_task() {
        let (mut state, mut f) = setup(1, 1);
        submit(&mut state, &mut f, 0, 2, 10_000_000);
        let o1 = f.schedule(&state).unwrap();
        assert_eq!(o1.placed_tasks, 1);
        apply_actions(&mut state, &mut f, &o1.actions.clone());
        // Complete the running task.
        let running: Vec<u64> = state.running_tasks().map(|t| t.id).collect();
        let ev = ClusterEvent::TaskCompleted {
            task: running[0],
            now: 1_000,
        };
        state.apply(&ev);
        f.handle_event(&state, &ev).unwrap();
        let o2 = f.schedule(&state).unwrap();
        assert_eq!(o2.placed_tasks, 1, "the waiting task takes the slot");
        assert!(o2
            .actions
            .iter()
            .any(|a| matches!(a, SchedulingAction::Place { .. })));
    }

    #[test]
    fn stable_placements_produce_no_actions() {
        let (mut state, mut f) = setup(3, 2);
        submit(&mut state, &mut f, 0, 4, 10_000_000);
        let o1 = f.schedule(&state).unwrap();
        apply_actions(&mut state, &mut f, &o1.actions.clone());
        // Rescheduling without any cluster change must not thrash.
        let o2 = f.schedule(&state).unwrap();
        assert!(
            o2.actions.is_empty(),
            "no changes → no actions, got {:?}",
            o2.actions
        );
    }

    /// The skip, end to end: once everything is placed, a pure clock
    /// advance only *raises* the costs of the jobs' `U_j → S` arcs, which
    /// carry no flow while no task waits, so the round is proven quiescent
    /// and runs no solver — `RoundOutcome::solver.race_skipped` records
    /// the skip, and the placements stay put.
    #[test]
    fn reprice_only_clock_advance_skips_the_race() {
        let (mut state, mut f) = setup(3, 2);
        submit(&mut state, &mut f, 0, 4, 600_000_000);
        let o1 = f.schedule(&state).unwrap();
        assert!(!o1.solver.race_skipped, "structural round races");
        apply_actions(&mut state, &mut f, &o1.actions.clone());
        // Settle the post-placement round (structural task-arc rewires).
        let o2 = f.schedule(&state).unwrap();
        apply_actions(&mut state, &mut f, &o2.actions.clone());

        // Pure clock advance: every cost change is the wait cost's rise on
        // a flowless `U_j → S` arc.
        let ev = ClusterEvent::Tick { now: 30_000_000 };
        state.apply(&ev);
        f.handle_event(&state, &ev).unwrap();
        let o3 = f.schedule(&state).unwrap();
        assert!(
            o3.solver.race_skipped,
            "re-price-only round must skip the race: {:?}",
            o3.solver
        );
        assert_eq!(
            o3.solver.repricings, o3.solver.deltas_fed,
            "the whole batch is cost drift"
        );
        assert!(o3.actions.is_empty(), "no churn on a quiescent round");
    }

    /// Places a 4-task job on three 2-slot machines and settles the
    /// follow-up round, so the solver ends holding an optimal flow.
    fn settled() -> (ClusterState, Firmament<LoadSpreadingCostModel>) {
        let (mut state, mut f) = setup(3, 2);
        submit(&mut state, &mut f, 0, 4, 600_000_000);
        let o1 = f.schedule(&state).unwrap();
        apply_actions(&mut state, &mut f, &o1.actions.clone());
        let o2 = f.schedule(&state).unwrap();
        apply_actions(&mut state, &mut f, &o2.actions.clone());
        (state, f)
    }

    /// Advances the clock only, then schedules: the round must solve, not
    /// skip, and end optimal.
    fn tick_round_solves(state: &mut ClusterState, f: &mut Firmament<LoadSpreadingCostModel>) {
        let ev = ClusterEvent::Tick { now: 30_000_000 };
        state.apply(&ev);
        f.handle_event(state, &ev).unwrap();
        let o = f.schedule(state).unwrap();
        assert!(!o.solver.race_skipped, "{:?}", o.solver);
        assert!(firmament_mcmf::verify::is_optimal(f.graph()));
    }

    /// A failed round resets the flow, and a reset flow stays flowless
    /// under a pure clock tick — so only the solver's own record that its
    /// flow is no longer optimal stops the tick round from skipping.
    #[test]
    fn tick_after_a_cancelled_round_solves() {
        let (mut state, mut f) = settled();
        submit(&mut state, &mut f, 1, 1, 600_000_000);
        let token = firmament_mcmf::CancelToken::new();
        token.cancel();
        f.solve_options.cancel = Some(token);
        assert!(matches!(
            f.schedule(&state),
            Err(SchedulerError::Solver(SolveError::Cancelled))
        ));
        f.solve_options.cancel = None;
        tick_round_solves(&mut state, &mut f);
    }

    /// A failed round drops the batch it drained: the next round feeds
    /// only the changes recorded since (here a clock tick's re-pricings,
    /// counted on a twin scheduler that drained the same batch itself),
    /// and solves rather than skipping, although that batch alone would
    /// let it skip.
    #[test]
    fn a_failed_round_drops_its_batch() {
        let (mut state, mut f) = settled();
        let (mut twin_state, mut twin) = settled();
        submit(&mut state, &mut f, 1, 1, 600_000_000);
        submit(&mut twin_state, &mut twin, 1, 1, 600_000_000);
        let token = firmament_mcmf::CancelToken::new();
        token.cancel();
        f.solve_options.cancel = Some(token);
        assert!(f.schedule(&state).is_err());
        f.solve_options.cancel = None;
        twin.refresh(&twin_state).unwrap();
        assert!(!twin.manager_mut().take_deltas().is_empty());

        let tick = ClusterEvent::Tick { now: 30_000_000 };
        for (state, f) in [(&mut state, &mut f), (&mut twin_state, &mut twin)] {
            state.apply(&tick);
            f.handle_event(state, &tick).unwrap();
        }
        twin.refresh(&twin_state).unwrap();
        let since = twin.manager_mut().take_deltas();
        assert!(since.is_reprice_only() && !since.is_empty());
        let o = f.schedule(&state).unwrap();
        assert_eq!(o.solver.deltas_fed, since.len(), "{:?}", o.solver);
        assert_eq!(o.solver.raw_changes, since.raw_len(), "{:?}", o.solver);
        assert!(!o.solver.race_skipped, "{:?}", o.solver);
        assert!(firmament_mcmf::verify::is_optimal(f.graph()));
        assert_eq!((o.placed_tasks, o.unscheduled_tasks), (5, 0));
    }

    /// A round stopped by the caller's iteration limit hands back a
    /// pseudoflow; the next tick round must solve it to optimality.
    #[test]
    fn tick_after_an_early_stopped_round_solves() {
        let (mut state, mut f) = settled();
        submit(&mut state, &mut f, 1, 1, 600_000_000);
        f.solve_options.iteration_limit = Some(1);
        f.schedule(&state).unwrap();
        f.solve_options.iteration_limit = None;
        tick_round_solves(&mut state, &mut f);
    }

    /// Schedules and applies the actions until a round has none left, so
    /// the solver ends holding an optimal flow of a settled cluster.
    fn settle(state: &mut ClusterState, f: &mut Firmament<LoadSpreadingCostModel>) {
        loop {
            let o = f.schedule(state).unwrap();
            if o.actions.is_empty() {
                return;
            }
            apply_actions(state, f, &o.actions);
        }
    }

    /// Advances the clock to `secs` only, then schedules; returns whether
    /// the round was skipped. The round must end optimal either way.
    fn tick_round(
        state: &mut ClusterState,
        f: &mut Firmament<LoadSpreadingCostModel>,
        secs: u64,
    ) -> bool {
        let ev = ClusterEvent::Tick {
            now: secs * 1_000_000,
        };
        state.apply(&ev);
        f.handle_event(state, &ev).unwrap();
        let o = f.schedule(state).unwrap();
        assert!(is_optimal(f.graph()), "{:?}", o.solver);
        o.solver.race_skipped
    }

    /// The hedge and the race share one skip: they skip the same tick-only
    /// rounds — one after a settled round, none after a round stopped early
    /// or a round that failed.
    #[test]
    fn hedged_and_dual_skip_the_same_tick_rounds() {
        let skips = |kind| {
            let (mut state, mut f) = setup_with(3, 2, kind);
            let (state, f) = (&mut state, &mut f);
            submit(state, f, 0, 4, 600_000_000);
            settle(state, f);
            let mut skipped = vec![tick_round(state, f, 30)];

            submit(state, f, 1, 1, 600_000_000);
            f.solve_options.iteration_limit = Some(1);
            assert!(f.schedule(state).unwrap().solver.winner.is_some());
            f.solve_options.iteration_limit = None;
            skipped.push(tick_round(state, f, 60));
            settle(state, f);
            skipped.push(tick_round(state, f, 90));

            submit(state, f, 2, 1, 600_000_000);
            let token = firmament_mcmf::CancelToken::new();
            token.cancel();
            f.solve_options.cancel = Some(token);
            assert!(f.schedule(state).is_err());
            f.solve_options.cancel = None;
            skipped.push(tick_round(state, f, 120));
            settle(state, f);
            skipped.push(tick_round(state, f, 150));
            skipped
        };
        let expected = vec![true, false, true, false, true];
        assert_eq!(skips(SolverKind::Hedged), expected, "Hedged");
        assert_eq!(skips(SolverKind::Dual), expected, "Dual");
    }

    /// `relaxation::solve` and the `RelaxationOnly` solver start from the
    /// same prices: on a scheduler graph whose clock has advanced, so that
    /// each job's `U_j → S` arc is priced and carries waiting tasks, they
    /// give the same flow on every arc for the same counted work.
    #[test]
    fn relaxation_solve_matches_relaxation_only_on_a_priced_clock() {
        let (mut state, mut f) = setup(3, 2);
        for job in 0..3 {
            submit(&mut state, &mut f, job, 4, 600_000_000);
        }
        let ev = ClusterEvent::Tick { now: 30_000_000 };
        state.apply(&ev);
        f.handle_event(&state, &ev).unwrap();
        f.refresh(&state).unwrap();
        let graph = f.graph().clone();
        let clock_arcs: Vec<_> = (0..3)
            .map(|job| f.manager().unscheduled(job).unwrap().1)
            .collect();
        assert!(clock_arcs.iter().all(|&a| graph.cost(a) > 0), "priced");

        let mut solved = graph.clone();
        let sol =
            firmament_mcmf::relaxation::solve(&mut solved, &SolveOptions::unlimited()).unwrap();
        let mut only = DualSolver::new(DualConfig {
            kind: SolverKind::RelaxationOnly,
            ..DualConfig::default()
        });
        let out = only
            .solve_owned_with_deltas(graph, None, &SolveOptions::unlimited())
            .unwrap();
        assert!(clock_arcs.iter().any(|&a| solved.flow(a) > 0), "tasks wait");
        assert_eq!(sol.stats.arc_scans, out.solution.stats.arc_scans);
        for a in solved.arc_ids() {
            assert_eq!(solved.flow(a), out.graph.flow(a), "arc {a}");
        }
    }

    #[test]
    fn rounds_counter_increments() {
        let (state, mut f) = setup(2, 1);
        assert_eq!(f.rounds(), 0);
        f.schedule(&state).unwrap();
        f.schedule(&state).unwrap();
        assert_eq!(f.rounds(), 2);
    }

    #[test]
    fn scheduler_never_mutates_graph_between_rounds() {
        // The graph is only changed by the manager (events + refresh) and
        // by adopting solver output: two schedules with no intervening
        // events leave the network structurally identical.
        let (mut state, mut f) = setup(3, 2);
        submit(&mut state, &mut f, 0, 4, 10_000_000);
        f.schedule(&state).unwrap();
        let nodes = f.graph().node_count();
        let arcs = f.graph().arc_count();
        f.schedule(&state).unwrap();
        assert_eq!(f.graph().node_count(), nodes);
        assert_eq!(f.graph().arc_count(), arcs);
    }
}
