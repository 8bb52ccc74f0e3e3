//! One pass of a workload: set-up, then a fixed number of closed-loop
//! rounds against the default `Firmament` scheduler.
//!
//! A round feeds its event batch through `Firmament::handle_event`, runs
//! one scheduling round and applies the resulting actions to the cluster.
//! The virtual clock advances by the workload's fixed cadence, never by
//! measured time, so every pass of a workload and seed does the same work
//! up to the dual race's choice between degenerate optima; only wall time
//! varies.
//!
//! An untraced pass calls `Firmament::schedule`. A traced pass calls the
//! same layers one by one, in the order `Firmament::schedule` calls them,
//! and records a span around each call.

use crate::trace::SpanLog;
use crate::workload::{Fault, Policy, Trace, Workload, WARMUP_ROUNDS};
use firmament_cluster::{ClusterEvent, ClusterState, MachineId, TaskId, TaskState, Time};
use firmament_core::{extract_placements, Firmament, Placement, SchedulingAction};
use firmament_mcmf::{AlgorithmKind, DualConfig, DualSolver, SolveOptions};
use firmament_policies::{
    CostModel, HierarchicalTopologyCostModel, LoadSpreadingCostModel, QuincyConfig, QuincyCostModel,
};
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, HashMap};
use std::time::Instant;

/// Operations attempted and failed. An operation is a `handle_event`
/// call, a `schedule` call or an emitted action; an action fails when the
/// cluster cannot apply it.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Ops {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
}

impl Ops {
    fn record(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }
}

/// The work a pass did. Two passes of the same workload and seed that
/// agree on [`Fingerprint::counts`] fed the scheduler as many events and
/// applied as many actions; if their digests agree too, they applied the
/// same actions. Where costs tie, the race winner may pick another
/// optimum of equal cost, and the digests differ.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Fingerprint {
    /// Rounds run, the cold set-up round included.
    pub rounds: u64,
    /// `handle_event` calls: trace events plus applied actions.
    pub events: u64,
    /// `Place` actions applied.
    pub placed: u64,
    /// `Preempt` actions applied.
    pub preemptions: u64,
    /// Task completions fed.
    pub completions: u64,
    /// Machine failures fed.
    pub failures: u64,
    /// Tasks still waiting after the last round.
    pub waiting_at_end: u64,
    /// FNV-1a digest of every applied action, in order.
    pub digest: u64,
    /// Raced rounds won by relaxation.
    pub relaxation_wins: u64,
    /// Raced rounds won by incremental cost scaling.
    pub cost_scaling_wins: u64,
    /// Rounds whose race was skipped (re-price-only rounds).
    pub race_skips: u64,
}

impl Fingerprint {
    /// The counts of work done: rounds, events, placements,
    /// preemptions, completions, failures and tasks waiting at the end.
    pub fn counts(&self) -> [u64; 7] {
        [
            self.rounds,
            self.events,
            self.placed,
            self.preemptions,
            self.completions,
            self.failures,
            self.waiting_at_end,
        ]
    }

    fn mix(&mut self, words: [u64; 3]) {
        if self.digest == 0 {
            self.digest = 0xcbf2_9ce4_8422_2325;
        }
        for w in words {
            for b in w.to_le_bytes() {
                self.digest ^= b as u64;
                self.digest = self.digest.wrapping_mul(0x0100_0000_01b3);
            }
        }
    }

    fn count_winner(&mut self, winner: AlgorithmKind, skipped: bool) {
        if skipped {
            self.race_skips += 1;
        } else if winner == AlgorithmKind::Relaxation {
            self.relaxation_wins += 1;
        } else {
            self.cost_scaling_wins += 1;
        }
    }
}

/// Per-layer figures of one traced round.
#[derive(Debug, Default, Clone, Copy)]
pub struct LayerRound {
    /// Whole round, ms.
    pub round_ms: f64,
    /// Time inside `handle_event` (`FlowGraphManager::apply_event`), ms.
    pub apply_event_ms: f64,
    /// `handle_event` calls.
    pub events: u64,
    /// `FlowGraphManager::refresh`, ms.
    pub refresh_ms: f64,
    /// Tasks, machines and aggregates the refresh touched.
    pub tasks_touched: u64,
    /// See `tasks_touched`.
    pub machines_touched: u64,
    /// See `tasks_touched`.
    pub aggregates_touched: u64,
    /// Waiting tasks whose arcs were re-derived by machine events.
    pub waiting_rederived: u64,
    /// `FlowGraphManager::take_deltas`, ms.
    pub take_deltas_ms: f64,
    /// Raw change-log entries and compacted deltas.
    pub raw_changes: u64,
    /// See `raw_changes`.
    pub deltas: u64,
    /// Live graph size after the round.
    pub graph_nodes: u64,
    /// See `graph_nodes`.
    pub graph_arcs: u64,
    /// `DualSolver::solve_owned_with_deltas`, ms.
    pub dual_ms: f64,
    /// The winner's `Solution::runtime`, ms.
    pub algorithm_ms: f64,
    /// The race was skipped.
    pub race_skipped: bool,
    /// Relaxation won the race.
    pub relaxation_won: bool,
    /// Incremental cost-scaling iterations and nodes touched.
    pub cs_iterations: u64,
    /// See `cs_iterations`.
    pub cs_nodes_touched: u64,
    /// Warm-start bail-outs.
    pub bailouts: u64,
    /// `extract_placements`, ms.
    pub extract_ms: f64,
}

impl LayerRound {
    /// Round time not covered by the timed layers (includes the action
    /// diff, the graph handoff and applying actions to the cluster
    /// state).
    pub fn other_ms(&self) -> f64 {
        self.round_ms
            - self.apply_event_ms
            - self.refresh_ms
            - self.take_deltas_ms
            - self.dual_ms
            - self.extract_ms
    }
}

/// What one pass measured.
#[derive(Debug, Default)]
pub struct PassResult {
    /// Whether the pass was traced.
    pub traced: bool,
    /// Set-up wall time, s.
    pub setup_s: f64,
    /// Wall time of each measured (timed) round, ms.
    pub rounds_ms: Vec<f64>,
    /// Wall time from the end of each measured round to the start of the
    /// next (the replay's own bookkeeping), ms.
    pub gaps_ms: Vec<f64>,
    /// Each measured submission that was placed: the index of the round
    /// that fed it and of the round that placed it, into `rounds_ms`.
    pub placements: Vec<(usize, usize)>,
    /// Tasks placed during the measured rounds.
    pub placed: u64,
    /// Per-layer figures of each measured round (traced passes only).
    pub layers: Vec<LayerRound>,
    /// Operations attempted and failed.
    pub ops: Ops,
    /// The work the pass did.
    pub fingerprint: Fingerprint,
    /// Correctness violations found after the last round.
    pub violations: Vec<String>,
    /// The process's peak resident set (`VmHWM`) at the end of the pass,
    /// MB.
    pub peak_rss_mb: f64,
}

/// Runs one pass of `workload` over `trace`.
pub fn run_pass(
    workload: &Workload,
    trace: &Trace,
    traced: Option<(&mut SpanLog, u32)>,
) -> PassResult {
    match workload.policy {
        Policy::Quincy => Replay::new(
            workload,
            trace,
            QuincyCostModel::new(QuincyConfig::default()),
        )
        .run(traced),
        Policy::LoadSpreadingBucketed => {
            Replay::new(workload, trace, LoadSpreadingCostModel::bucketed()).run(traced)
        }
        Policy::HierarchyBucketed => {
            Replay::new(workload, trace, HierarchicalTopologyCostModel::bucketed()).run(traced)
        }
    }
}

/// Tracing state of a traced pass: the span log, the solver the manual
/// pipeline drives, and the pass number the spans carry.
struct Tracer<'a> {
    log: &'a mut SpanLog,
    solver: DualSolver,
    pass: u32,
    round: u32,
}

impl Tracer<'_> {
    /// Records a span from `start` to now and returns its length, ms.
    fn span(&mut self, name: &'static str, parent: Option<usize>, start: Instant) -> f64 {
        let end = Instant::now();
        self.log
            .record(name, parent, start, end, self.pass, self.round);
        end.duration_since(start).as_secs_f64() * 1e3
    }
}

/// The cluster side of the replay: cluster state, the scheduler, pending
/// completions and the bookkeeping the metrics need.
pub struct Replay<'a, C: CostModel> {
    workload: &'a Workload,
    trace: &'a Trace,
    state: ClusterState,
    firmament: Firmament<C>,
    /// Pending completions `(time, task, placement generation)`.
    completions: BinaryHeap<Reverse<(Time, TaskId, u32)>>,
    generation: HashMap<TaskId, u32>,
    /// Index of the measured round that fed each unplaced submission.
    submitted: HashMap<TaskId, usize>,
    ops: Ops,
    fingerprint: Fingerprint,
    /// Time spent inside `handle_event` this round, ns.
    handle_event_ns: u128,
}

impl<'a, C: CostModel + Send> Replay<'a, C> {
    /// A replay whose cluster is a fresh clone of the trace's template.
    pub fn new(workload: &'a Workload, trace: &'a Trace, model: C) -> Self {
        Replay {
            workload,
            trace,
            state: trace.template.clone(),
            firmament: Firmament::new(model),
            completions: BinaryHeap::new(),
            generation: HashMap::new(),
            submitted: HashMap::new(),
            ops: Ops::default(),
            fingerprint: Fingerprint::default(),
            handle_event_ns: 0,
        }
    }

    fn run(mut self, traced: Option<(&mut SpanLog, u32)>) -> PassResult {
        let mut tracer = traced.map(|(log, pass)| Tracer {
            log,
            solver: DualSolver::new(DualConfig::default()),
            pass,
            round: 0,
        });
        let mut result = PassResult {
            traced: tracer.is_some(),
            ..PassResult::default()
        };

        // Set-up: register machines, submit the warm-up load, run the
        // cold round and apply its actions.
        let mut machines: Vec<_> = self.state.machines.values().cloned().collect();
        machines.sort_by_key(|m| m.id);
        let mut batch: Vec<ClusterEvent> = machines
            .into_iter()
            .map(|machine| ClusterEvent::MachineAdded { machine })
            .collect();
        batch.extend(
            self.trace
                .warmup
                .iter()
                .map(|a| ClusterEvent::JobSubmitted {
                    job: a.job.clone(),
                    tasks: a.tasks.clone(),
                }),
        );
        let (start, end, placed, _) = self.round_on_own_thread(&batch, tracer.as_mut(), true);
        result.setup_s = end.duration_since(start).as_secs_f64();
        self.after_round(&placed, 0);

        let mut last_end = None;
        for round in 1..=self.workload.rounds {
            if let Some(t) = tracer.as_mut() {
                t.round = round as u32;
            }
            let batch = self.round_batch(round);
            let (start, end, placed, layer) =
                self.round_on_own_thread(&batch, tracer.as_mut(), false);
            if round <= WARMUP_ROUNDS {
                self.after_round(&placed, 0);
                continue;
            }
            let timed = round - WARMUP_ROUNDS - 1;
            let round_ms = end.duration_since(start).as_secs_f64() * 1e3;
            result.rounds_ms.push(round_ms);
            if let Some(last) = last_end.replace(end) {
                result
                    .gaps_ms
                    .push(start.duration_since(last).as_secs_f64() * 1e3);
            }
            if let Some(mut layer) = layer {
                layer.round_ms = round_ms;
                result.layers.push(layer);
            }
            for task in self.trace.arrivals[round - 1]
                .iter()
                .flat_map(|a| a.tasks.iter())
            {
                self.submitted.insert(task.id, timed);
            }
            result.placed += placed.len() as u64;
            result.placements.extend(self.after_round(&placed, timed));
        }

        self.fingerprint.waiting_at_end = self
            .state
            .tasks
            .values()
            .filter(|t| matches!(t.state, TaskState::Waiting | TaskState::Preempted))
            .count() as u64;
        // The check round is not part of the pass's work.
        result.fingerprint = self.fingerprint;
        result.violations = self.check();
        result.ops = self.ops;
        result.peak_rss_mb = crate::metrics::peak_rss_mb();
        result
    }

    /// The events of round `round`, in feeding order: failures and
    /// repairs, completions due by the end of the round, job arrivals,
    /// and a clock tick to the round's end time.
    fn round_batch(&mut self, round: usize) -> Vec<ClusterEvent> {
        let now = self.workload.round_time(round);
        let start = self.workload.round_time(round - 1);
        let mut batch = Vec::new();
        let mut failing = Vec::new();
        for fault in &self.trace.faults[round - 1] {
            batch.push(match fault {
                Fault::Fail(machine) => {
                    failing.push(*machine);
                    self.fingerprint.failures += 1;
                    ClusterEvent::MachineRemoved {
                        machine: *machine,
                        now: start,
                    }
                }
                Fault::Repair(machine) => ClusterEvent::MachineAdded {
                    machine: machine.clone(),
                },
            });
        }
        while let Some(&Reverse((at, task, generation))) = self.completions.peek() {
            if at > now {
                break;
            }
            self.completions.pop();
            let t = &self.state.tasks[&task];
            let live = t.state == TaskState::Running
                && self.generation.get(&task) == Some(&generation)
                && !t.machine.is_some_and(|m| failing.contains(&m));
            if live {
                self.fingerprint.completions += 1;
                batch.push(ClusterEvent::TaskCompleted {
                    task,
                    now: at.max(start),
                });
            }
        }
        batch.extend(
            self.trace.arrivals[round - 1]
                .iter()
                .map(|a| ClusterEvent::JobSubmitted {
                    job: a.job.clone(),
                    tasks: a.tasks.clone(),
                }),
        );
        batch.push(ClusterEvent::Tick { now });
        batch
    }

    /// Runs [`round`](Self::round) on a thread of its own. The dual race
    /// runs two solver threads and busy-polls them from the calling
    /// thread. With a long-lived caller on two CPUs, the kernel placed
    /// these three threads the same way for a whole process, and about
    /// half of all processes ran every raced round with both solvers on
    /// one CPU, at about the speed of a single CPU. A fresh caller for
    /// each round avoided that placement in every process tried.
    fn round_on_own_thread(
        &mut self,
        batch: &[ClusterEvent],
        tracer: Option<&mut Tracer<'_>>,
        setup: bool,
    ) -> (Instant, Instant, Vec<TaskId>, Option<LayerRound>) {
        std::thread::scope(|s| {
            s.spawn(|| self.round(batch, tracer, setup))
                .join()
                .expect("round thread panicked")
        })
    }

    /// Feeds `batch`, schedules and applies the actions. Returns the start
    /// and end instants, the tasks placed and (traced) the per-layer
    /// figures.
    fn round(
        &mut self,
        batch: &[ClusterEvent],
        mut tracer: Option<&mut Tracer<'_>>,
        setup: bool,
    ) -> (Instant, Instant, Vec<TaskId>, Option<LayerRound>) {
        let round_start = Instant::now();
        let mut layer = LayerRound::default();
        self.handle_event_ns = 0;
        let events_before = self.fingerprint.events;
        let root = tracer.as_deref_mut().map(|t| {
            let name = if setup { "setup" } else { "round" };
            t.log
                .record(name, None, round_start, round_start, t.pass, t.round)
        });

        for event in batch {
            self.feed(event);
        }
        let fed = Instant::now();

        let actions = match tracer.as_deref_mut() {
            None => match self.firmament.schedule(&self.state) {
                Ok(outcome) => {
                    self.ops.record(true);
                    self.fingerprint
                        .count_winner(outcome.winner, outcome.solver.race_skipped);
                    Some(outcome.actions)
                }
                Err(_) => {
                    self.ops.record(false);
                    None
                }
            },
            Some(t) => {
                let actions = self.schedule_traced(t, root, &mut layer);
                self.ops.record(actions.is_some());
                actions
            }
        };
        let scheduled = Instant::now();

        let placed = self.apply_actions(&actions.unwrap_or_default());
        let end = Instant::now();
        self.fingerprint.rounds += 1;

        let layer = tracer.map(|t| {
            let root = root.expect("traced round has a root span");
            t.log.spans[root].end = end;
            let (pass, round) = (t.pass, t.round);
            t.log.record(
                "core.handle_events",
                Some(root),
                round_start,
                fed,
                pass,
                round,
            );
            t.log.record(
                "core.apply_actions",
                Some(root),
                scheduled,
                end,
                pass,
                round,
            );
            layer.apply_event_ms = self.handle_event_ns as f64 / 1e6;
            layer.events = self.fingerprint.events - events_before;
            layer
        });
        (round_start, end, placed, layer)
    }

    /// `Firmament::schedule`, layer by layer: refresh → take_deltas →
    /// take_graph → dual solve → adopt_graph → extract → diff.
    fn schedule_traced(
        &mut self,
        t: &mut Tracer<'_>,
        round: Option<usize>,
        layer: &mut LayerRound,
    ) -> Option<Vec<SchedulingAction>> {
        let schedule = round.map(|r| {
            let now = Instant::now();
            t.log
                .record("core.schedule", Some(r), now, now, t.pass, t.round)
        });
        let before = self.firmament.manager().stats();

        let t0 = Instant::now();
        let refreshed = self.firmament.refresh(&self.state);
        layer.refresh_ms = t.span("core.refresh", schedule, t0);
        if refreshed.is_err() {
            return None;
        }
        let after = self.firmament.manager().stats();
        layer.tasks_touched = after.last_tasks_touched as u64;
        layer.machines_touched = after.last_machines_touched as u64;
        layer.aggregates_touched = after.last_aggregates_touched as u64;
        layer.waiting_rederived = after.waiting_rederived - before.waiting_rederived;

        let t0 = Instant::now();
        let deltas = self.firmament.manager_mut().take_deltas();
        layer.take_deltas_ms = t.span("flow.take_deltas", schedule, t0);
        layer.raw_changes = deltas.raw_len() as u64;
        layer.deltas = deltas.len() as u64;

        let t0 = Instant::now();
        let graph = self.firmament.manager_mut().take_graph();
        t.span("core.take_graph", schedule, t0);

        let t0 = Instant::now();
        let solved =
            t.solver
                .solve_owned_with_deltas(graph, Some(&deltas), &SolveOptions::unlimited());
        layer.dual_ms = t.span("mcmf.dual", schedule, t0);
        let outcome = match solved {
            Ok(outcome) => outcome,
            Err((_, mut graph)) => {
                graph.reset_flow();
                self.firmament.manager_mut().adopt_graph(graph);
                return None;
            }
        };
        layer.algorithm_ms = outcome.solution.runtime.as_secs_f64() * 1e3;
        layer.race_skipped = outcome.race_skipped;
        layer.relaxation_won = outcome.winner == AlgorithmKind::Relaxation;
        if let Some(cs) = &outcome.cs_stats {
            layer.cs_iterations = cs.iterations;
            layer.cs_nodes_touched = cs.nodes_touched;
            layer.bailouts = cs.bailouts;
        }
        self.fingerprint
            .count_winner(outcome.winner, outcome.race_skipped);

        let t0 = Instant::now();
        self.firmament.manager_mut().adopt_graph(outcome.graph);
        t.span("core.adopt_graph", schedule, t0);

        let t0 = Instant::now();
        let placements = extract_placements(self.firmament.graph());
        layer.extract_ms = t.span("core.extract", schedule, t0);
        layer.graph_nodes = self.firmament.graph().node_count() as u64;
        layer.graph_arcs = self.firmament.graph().arc_count() as u64;

        let t0 = Instant::now();
        let actions = diff_placements(&self.state, &placements);
        t.span("core.diff", schedule, t0);
        if let Some(s) = schedule {
            t.log.spans[s].end = Instant::now();
        }
        Some(actions)
    }

    /// Applies `event` to the cluster state and feeds it to the scheduler.
    pub fn feed(&mut self, event: &ClusterEvent) {
        self.state.apply(event);
        let t0 = Instant::now();
        let ok = self.firmament.handle_event(&self.state, event).is_ok();
        self.handle_event_ns += t0.elapsed().as_nanos();
        self.ops.record(ok);
        self.fingerprint.events += 1;
    }

    /// Applies a round's actions in order, counting each as an operation,
    /// and returns the tasks placed.
    pub fn apply_actions(&mut self, actions: &[SchedulingAction]) -> Vec<TaskId> {
        let mut placed = Vec::new();
        for &action in actions {
            let ok = self.apply_action(action);
            self.ops.record(ok);
            if let (true, SchedulingAction::Place { task, .. }) = (ok, action) {
                placed.push(task);
            }
        }
        placed
    }

    /// Operations attempted and failed so far.
    #[cfg(test)]
    pub fn ops(&self) -> Ops {
        self.ops
    }

    /// Applies one action to the cluster and feeds it back to the
    /// scheduler. Returns `false`, leaving both untouched, when the
    /// cluster cannot apply it: a `Place` of a task that is not waiting or
    /// onto a full or missing machine, or a `Preempt` of a task that is
    /// not running.
    fn apply_action(&mut self, action: SchedulingAction) -> bool {
        let now = self.state.now;
        let event = match action {
            SchedulingAction::Place { task, machine } => {
                let waiting =
                    self.state.tasks.get(&task).is_some_and(|t| {
                        matches!(t.state, TaskState::Waiting | TaskState::Preempted)
                    });
                let room = self
                    .state
                    .machines
                    .get(&machine)
                    .is_some_and(|m| m.has_free_slot());
                if !waiting || !room {
                    return false;
                }
                ClusterEvent::TaskPlaced { task, machine, now }
            }
            SchedulingAction::Preempt { task } => {
                let running = self
                    .state
                    .tasks
                    .get(&task)
                    .is_some_and(|t| t.state == TaskState::Running);
                if !running {
                    return false;
                }
                ClusterEvent::TaskPreempted { task, now }
            }
        };
        self.feed(&event);
        let (kind, task, machine) = match action {
            SchedulingAction::Place { task, machine } => {
                self.fingerprint.placed += 1;
                (1, task, machine)
            }
            SchedulingAction::Preempt { task } => {
                self.fingerprint.preemptions += 1;
                (2, task, MachineId::MAX)
            }
        };
        self.fingerprint.mix([kind, task, machine]);
        true
    }

    /// Bookkeeping after a round, outside its timed span: schedules the
    /// completions of newly placed tasks and returns, for the measured
    /// submissions among them, the rounds that fed and placed them.
    fn after_round(&mut self, placed: &[TaskId], round: usize) -> Vec<(usize, usize)> {
        let mut fed_placed = Vec::new();
        for &task in placed {
            let generation = self.generation.entry(task).or_insert(0);
            *generation += 1;
            let t = &self.state.tasks[&task];
            if t.duration != Time::MAX {
                self.completions
                    .push(Reverse((self.state.now + t.remaining(), task, *generation)));
            }
            if let Some(fed) = self.submitted.remove(&task) {
                fed_placed.push((fed, round));
            }
        }
        fed_placed
    }

    /// Runs one more, unmeasured, scheduling round and checks it: the
    /// solved flow is a feasible min-cost flow that puts no more tasks
    /// on a machine than it has slots, and once its actions are applied
    /// every running task sits on a live machine, where the flow puts it.
    fn check(&mut self) -> Vec<String> {
        let mut violations = Vec::new();
        let outcome = match self.firmament.schedule(&self.state) {
            Ok(outcome) => outcome,
            Err(e) => return vec![format!("check round failed: {e}")],
        };
        let graph = self.firmament.graph();
        if !firmament_mcmf::verify::is_optimal(graph) {
            violations.push("solved flow is not a feasible min-cost flow".to_string());
        }
        let placements = extract_placements(graph);
        let mut per_machine: BTreeMap<u64, usize> = BTreeMap::new();
        for p in placements.values() {
            if let Placement::OnMachine(m) = p {
                *per_machine.entry(*m).or_default() += 1;
            }
        }
        for (m, n) in per_machine {
            let slots = self.state.machines.get(&m).map_or(0, |m| m.slots as usize);
            if n > slots {
                violations.push(format!(
                    "flow puts {n} tasks on machine {m} ({slots} slots)"
                ));
            }
        }
        let failed = self.ops.failed;
        self.apply_actions(&outcome.actions);
        if self.ops.failed > failed {
            violations.push("a check-round action does not apply".to_string());
        }
        for m in self.state.machines.values() {
            if m.running.len() > m.slots as usize {
                violations.push(format!(
                    "machine {} runs {} tasks on {} slots",
                    m.id,
                    m.running.len(),
                    m.slots
                ));
            }
        }
        let misplaced = self
            .state
            .tasks
            .values()
            .filter(|t| t.state == TaskState::Running)
            .filter(|t| {
                let live = t
                    .machine
                    .and_then(|m| self.state.machines.get(&m))
                    .is_some_and(|m| m.running.contains(&t.id));
                !live || placements.get(&t.id) != t.machine.map(Placement::OnMachine).as_ref()
            })
            .count();
        if misplaced > 0 {
            violations.push(format!(
                "{misplaced} running tasks are not where the flow puts them"
            ));
        }
        violations
    }
}

/// The scheduler's action diff: preemptions first, then placements, in
/// task order (the same rule `Firmament::schedule` applies).
fn diff_placements(
    state: &ClusterState,
    placements: &BTreeMap<u64, Placement>,
) -> Vec<SchedulingAction> {
    let mut preemptions = Vec::new();
    let mut moves = Vec::new();
    for (&task, placement) in placements {
        let Some(t) = state.tasks.get(&task) else {
            continue;
        };
        match (t.state, t.machine, placement) {
            (TaskState::Waiting | TaskState::Preempted, _, Placement::OnMachine(m)) => {
                moves.push(SchedulingAction::Place { task, machine: *m });
            }
            (TaskState::Running, Some(cur), Placement::OnMachine(m)) if cur == *m => {}
            (TaskState::Running, Some(_), Placement::OnMachine(m)) => {
                preemptions.push(SchedulingAction::Preempt { task });
                moves.push(SchedulingAction::Place { task, machine: *m });
            }
            (TaskState::Running, Some(_), Placement::Unscheduled) => {
                preemptions.push(SchedulingAction::Preempt { task });
            }
            _ => {}
        }
    }
    preemptions.extend(moves);
    preemptions
}
