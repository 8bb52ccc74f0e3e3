//! The flow-graph manager: the *imperative* half of the policy split.
//!
//! A [`CostModel`](firmament_policies::CostModel) declares costs and arc
//! structure as pure functions of
//! [`ClusterState`](firmament_cluster::ClusterState); the
//! [`FlowGraphManager`] owns the flow network and does everything
//! stateful. No other component mutates the graph: the scheduler core
//! borrows it for solving and hands the winning flow back via
//! [`FlowGraphManager::adopt_graph`]. The manager is split by concern:
//!
//! - `bundles` owns arc bundles: the one slot sync that creates,
//!   re-prices, parks or removes bundle arcs, and the checks on every
//!   declaration;
//! - `events` translates each
//!   [`ClusterEvent`](firmament_cluster::ClusterEvent) into graph changes
//!   and dirty nodes;
//! - `refresh` runs the two-pass cost update of §6.3 (collect dirty nodes
//!   — propagating dirtiness *up* multi-level aggregator chains — then
//!   re-query the model for exactly those), prices the clock on the
//!   jobs' `U_j → S` arcs, and admission-controls and enforces gang
//!   constraints through their capacities;
//! - `hierarchy` materializes the aggregator nodes a model refers to
//!   (whole EC→EC hierarchies, recursively and cycle-checked) and
//!   garbage-collects those no task can reach.
//!
//! # One record per entity
//!
//! Besides the graph and its sink, the manager keeps one record per
//! machine, job and aggregate, each in one map keyed by its id, so an
//! event arm or the garbage collector adds or drops an entity whole:
//!
//! - a machine's record holds its node, its arc to the sink (capacity =
//!   slots) and its aggregate bundles keyed by aggregate, which the
//!   dirty-machine pass reads;
//! - a job's record holds its unscheduled aggregator `U_j`, the
//!   `U_j → S` arc (capacity = incomplete tasks) and its count of tasks in
//!   the graph, which the gang pass reads;
//! - an aggregate's record holds its node and its EC→EC bundles keyed by
//!   child, which the child sync and the upward dirty sweep read.
//!
//! Tasks live in the [`TaskTable`], sorted by id; only waiting tasks have
//! declared bundles, kept in declaration order in a map of their own.
//!
//! # Waiting time on the jobs' arcs
//!
//! Leaving a task unscheduled costs the model's clock-free base plus
//! [`wait_cost_per_sec`](firmament_policies::CostModel::wait_cost_per_sec)
//! × (⌊now⌋ − ⌊submit⌋), in whole seconds. The manager splits that sum
//! at an epoch `E` (whole seconds), so the clock lives on one arc per job
//! instead of one per task:
//!
//! - `T → U_j` costs base + per_sec × (E − ⌊submit⌋), fixed while `E` is;
//! - `U_j → S` costs per_sec × (⌊now⌋ − E), the same on every job's arc.
//!
//! Every unscheduled path `T → U_j → S` then costs exactly base +
//! per_sec × (⌊now⌋ − ⌊submit⌋), and a clock tick is one `CostChanged` per
//! job with tasks in the graph instead of a re-price of every task. `E`
//! is set by the first task arrival or refresh, and re-based to ⌊now⌋ by
//! one walk over the task table only when the next `U_j → S` cost would
//! exceed the smallest base of any live task (or the clock went back):
//! the walk keeps every `T → U_j` cost at or above its base and
//! recomputes that minimum, which otherwise only falls as tasks arrive.
//! Every wait-time product and sum is checked; an overflow is
//! [`PolicyError::WaitCostOverflow`](firmament_policies::PolicyError::WaitCostOverflow).
//!
//! The clock is not one shared `W → S` arc behind a wait node `W` that
//! every `U_j` drains into, although that would make a tick a single
//! change: relaxation routes every unscheduled unit through `W`, which is
//! not a deficit node, so each such augmentation scans `W`'s whole
//! adjacency, one arc per job. On contended-hier that took relaxation
//! from 4.1 to 7.4 M arc scans a round with the shared arc priced at 0,
//! and to 14.4 M priced. A cost on `U_j → S` moves `U_j`'s optimal price
//! instead, which relaxation's start rule absorbs (see
//! `firmament_mcmf::relaxation`).
//!
//! This mirrors real Firmament's `FlowGraphManager`/`CostModelInterface`
//! split, which is what makes new policies cheap: the node and slot
//! bookkeeping is written once instead of once per policy.

mod bundles;
mod events;
mod hierarchy;
mod refresh;

use firmament_cluster::{JobId, MachineId, TaskId, Time};
use firmament_flow::delta::DeltaBatch;
use firmament_flow::{ArcId, FlowGraph, NodeId, NodeKind};
use firmament_policies::{AggregateId, ArcTarget};
use std::collections::{BTreeMap, HashMap, HashSet};

/// A task's handles in the flow network — its node and its arc to its
/// job's unscheduled aggregator `U_j` (the arc that carries the base
/// unscheduled cost and the wait before the epoch, and the preemption arc
/// once it runs) — and the machine it runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TaskEntry {
    /// The task node `T`.
    pub node: NodeId,
    /// The `T → U_j` arc (forward id). Alive for as long as the task is in
    /// the graph: `U_j` outlives its job's last task, and every arc rewire
    /// keeps the arc into `U_j`.
    pub unsched_arc: ArcId,
    /// The machine the task runs on, as the events fed to the manager left
    /// it: set by `TaskPlaced`, cleared by `TaskPreempted` and by the
    /// removal of that machine; `None` while the task waits. Preemption
    /// and completion events dirty this machine, and the scheduler's
    /// action diff skips a task whose extracted machine equals it.
    pub running: Option<MachineId>,
}

/// The task table: every task's [`TaskEntry`], kept sorted by `TaskId` in
/// one contiguous buffer. Lookups binary-search it; an epoch re-base, the
/// dynamic task-arc re-price and the scheduler's action diff walk it in
/// order. Task ids mostly arrive in ascending order, so an insert is
/// usually a push; a removal leaves a tombstone, and the buffer is
/// compacted once tombstones outnumber live entries (amortized O(1)).
/// A single buffer, rather than a tree of small nodes, also keeps the
/// table's allocations from interleaving with the flow graph's per-node
/// adjacency lists, which slows the solvers' graph walks.
#[derive(Debug, Clone, Default)]
pub struct TaskTable {
    /// Sorted by id; `None` marks a removed task.
    entries: Vec<(TaskId, Option<TaskEntry>)>,
    /// Number of `Some` entries.
    live: usize,
}

impl TaskTable {
    fn position(&self, task: TaskId) -> Result<usize, usize> {
        self.entries.binary_search_by_key(&task, |&(t, _)| t)
    }

    /// The entry for `task`, if present.
    pub fn get(&self, task: TaskId) -> Option<TaskEntry> {
        self.position(task).ok().and_then(|i| self.entries[i].1)
    }

    /// `true` if `task` has an entry.
    pub fn contains(&self, task: TaskId) -> bool {
        self.get(task).is_some()
    }

    /// Sets the entry for `task`, returning the one it replaces.
    fn insert(&mut self, task: TaskId, entry: TaskEntry) -> Option<TaskEntry> {
        match self.position(task) {
            Ok(i) => {
                let old = self.entries[i].1.replace(entry);
                self.live += usize::from(old.is_none());
                old
            }
            Err(i) => {
                self.entries.insert(i, (task, Some(entry)));
                self.live += 1;
                None
            }
        }
    }

    /// Records the machine `task` runs on (`None`: none), returning the
    /// one recorded before; `None` as well if `task` has no entry.
    fn set_running(&mut self, task: TaskId, machine: Option<MachineId>) -> Option<MachineId> {
        let i = self.position(task).ok()?;
        let entry = self.entries[i].1.as_mut()?;
        std::mem::replace(&mut entry.running, machine)
    }

    /// Forgets `machine` as the running machine of every task on it.
    fn clear_running_on(&mut self, machine: MachineId) {
        for (_, entry) in &mut self.entries {
            if let Some(e) = entry.as_mut().filter(|e| e.running == Some(machine)) {
                e.running = None;
            }
        }
    }

    /// Removes and returns the entry for `task`.
    fn remove(&mut self, task: TaskId) -> Option<TaskEntry> {
        let i = self.position(task).ok()?;
        let old = self.entries[i].1.take()?;
        self.live -= 1;
        if self.entries.len() - self.live > self.live {
            self.entries.retain(|e| e.1.is_some());
        }
        Some(old)
    }

    /// Number of tasks in the table.
    pub fn len(&self) -> usize {
        self.live
    }

    /// `true` if the table holds no task.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// The entries in `TaskId` order.
    pub fn iter(&self) -> impl Iterator<Item = (TaskId, TaskEntry)> + '_ {
        self.entries.iter().filter_map(|&(t, e)| Some((t, e?)))
    }
}

/// Tables are equal when they hold the same entries, tombstones aside.
impl PartialEq for TaskTable {
    fn eq(&self, other: &Self) -> bool {
        self.iter().eq(other.iter())
    }
}

impl Eq for TaskTable {}

/// A machine's record: its node, its `slots`-capacity arc to the sink and
/// its aggregate bundles (aggregate → per-segment arc slots, sorted), so a
/// dirty machine's refresh touches only its own arcs.
#[derive(Debug)]
struct MachineEntry {
    node: NodeId,
    sink_arc: ArcId,
    bundles: BTreeMap<AggregateId, Vec<ArcId>>,
}

/// A job's record: its unscheduled aggregator `U_j`, the `U_j → S` arc
/// (capacity = incomplete tasks, less an enforced gang minimum; cost =
/// the clock's share of waiting) and the number of its tasks in the
/// graph. The record outlives the job's last task until garbage
/// collection drops `U_j`.
#[derive(Debug)]
struct JobEntry {
    unsched: NodeId,
    sink_arc: ArcId,
    tasks: i64,
}

/// A materialized aggregate's record: its node and its EC→EC bundles,
/// source-major (child aggregate → per-segment arc slots, sorted) — the
/// multi-level hierarchy edges declared via
/// [`firmament_policies::CostModel::aggregate_to_aggregate`].
#[derive(Debug)]
struct AggregateEntry {
    node: NodeId,
    children: BTreeMap<AggregateId, Vec<ArcId>>,
}

/// Counters describing what the two-pass refresh actually touched —
/// exposed so tests (and curious operators) can verify that quiescent
/// rounds skip the graph entirely.
#[derive(Debug, Default, Clone, Copy)]
pub struct RefreshStats {
    /// Completed refresh passes.
    pub rounds: u64,
    /// Machines whose aggregate arcs were re-evaluated, cumulative.
    pub machines_touched: u64,
    /// Tasks re-priced — their `T → U_j` cost, or for
    /// [`dynamic_task_arcs`](firmament_policies::CostModel::dynamic_task_arcs)
    /// models their preference bundles — cumulative. A clock tick adds
    /// none unless the model has dynamic task arcs or the epoch re-bases.
    pub tasks_touched: u64,
    /// Aggregates whose EC→EC arcs were re-synchronized, cumulative.
    pub aggregates_touched: u64,
    /// Aggregate nodes garbage-collected (task in-degree dropped to zero),
    /// cumulative; includes per-job unscheduled aggregators.
    pub aggregates_collected: u64,
    /// Waiting tasks whose arc sets were re-derived by machine-set events,
    /// cumulative — the quantity the waiting-task dirty-set narrowing
    /// ([`firmament_policies::CostModel::task_arcs_machine_local`]) keeps
    /// small.
    pub waiting_rederived: u64,
    /// Machines touched by the most recent refresh.
    pub last_machines_touched: usize,
    /// Tasks touched by the most recent refresh.
    pub last_tasks_touched: usize,
    /// Aggregates touched by the most recent refresh.
    pub last_aggregates_touched: usize,
}

/// Owns the scheduling flow network and keeps it in sync with cluster
/// state by querying a [`CostModel`](firmament_policies::CostModel) for
/// the policy-specific numbers.
///
/// See the [module documentation](self) for the division of labor.
#[derive(Debug)]
pub struct FlowGraphManager {
    /// The flow network. Change tracking is on from the start, so each
    /// round's [`DeltaBatch`] can be handed to the incremental solver.
    graph: FlowGraph,
    /// The sink node `S`.
    sink: NodeId,
    /// The clock's share of waiting: per_sec × (⌊now⌋ − E) at the last
    /// refresh, the cost of every job's `U_j → S` arc (see the module
    /// docs).
    clock_cost: i64,
    /// The wait epoch `E` in whole seconds, once a task arrival or refresh
    /// has set it.
    epoch: Option<i64>,
    /// No more than the smallest base unscheduled cost of any live task
    /// (`i64::MAX` for none): lowered as tasks are priced, recomputed by
    /// each re-base.
    min_base: i64,
    /// Every task's node, unscheduled arc and running machine, in `TaskId`
    /// order.
    task_table: TaskTable,
    machines: HashMap<MachineId, MachineEntry>,
    jobs: HashMap<JobId, JobEntry>,
    aggregates: HashMap<AggregateId, AggregateEntry>,
    /// Waiting task → its declared arc targets with per-segment slots, in
    /// declaration order. Machine targets absent from the cluster are
    /// recorded with empty slot vectors so machine-arrival events can
    /// find the tasks that reference them (dirty-set narrowing) and the
    /// dynamic task re-pricing can detect structural drift.
    task_slots: HashMap<TaskId, Vec<(ArcTarget, Vec<ArcId>)>>,
    /// Machines touched by events since the last refresh.
    dirty_machines: HashSet<MachineId>,
    /// Tasks touched by events since the last refresh.
    dirty_tasks: HashSet<TaskId>,
    /// Aggregates explicitly dirtied by events (machine-set changes dirty
    /// every aggregate, since EC→EC capacities aggregate machine slots).
    /// Dirtiness also propagates *up* the hierarchy at refresh time.
    dirty_aggs: HashSet<AggregateId>,
    /// Gang jobs whose minimum exceeded free capacity at the last refresh:
    /// their gang cap is left unenforced (the job queues) so the network
    /// stays feasible instead of surfacing a solver infeasibility error.
    deferred_gangs: Vec<JobId>,
    /// Virtual time of the last refresh; when unchanged, dynamic task
    /// bundles cannot have drifted and are skipped.
    last_refresh_now: Option<Time>,
    stats: RefreshStats,
}

impl Default for FlowGraphManager {
    fn default() -> Self {
        Self::new()
    }
}

impl FlowGraphManager {
    /// Creates a manager with an empty network (sink only).
    pub fn new() -> Self {
        let mut graph = FlowGraph::new();
        graph.set_change_tracking(true);
        let sink = graph.add_node(NodeKind::Sink, 0);
        FlowGraphManager {
            graph,
            sink,
            clock_cost: 0,
            epoch: None,
            min_base: i64::MAX,
            task_table: TaskTable::default(),
            machines: HashMap::new(),
            jobs: HashMap::new(),
            aggregates: HashMap::new(),
            task_slots: HashMap::new(),
            dirty_machines: HashSet::new(),
            dirty_tasks: HashSet::new(),
            dirty_aggs: HashSet::new(),
            deferred_gangs: Vec::new(),
            last_refresh_now: None,
            stats: RefreshStats::default(),
        }
    }

    /// The flow network (read-only; solvers clone or take it via the
    /// scheduler core).
    pub fn graph(&self) -> &FlowGraph {
        &self.graph
    }

    /// The sink node.
    pub fn sink(&self) -> NodeId {
        self.sink
    }

    /// The task table, in `TaskId` order: each task's node, unscheduled
    /// arc and running machine.
    pub fn task_table(&self) -> &TaskTable {
        &self.task_table
    }

    /// Node for a task, if present.
    pub fn task_node(&self, task: TaskId) -> Option<NodeId> {
        self.task_table.get(task).map(|e| e.node)
    }

    /// Node for a machine, if present.
    pub fn machine_node(&self, machine: MachineId) -> Option<NodeId> {
        self.machines.get(&machine).map(|m| m.node)
    }

    /// A job's unscheduled aggregator `U_j` and its `U_j → S` arc, while
    /// `U_j` is in the graph.
    pub fn unscheduled(&self, job: JobId) -> Option<(NodeId, ArcId)> {
        self.jobs.get(&job).map(|j| (j.unsched, j.sink_arc))
    }

    /// Node for a policy-defined aggregate, if it has been materialized.
    pub fn aggregate_node(&self, aggregate: AggregateId) -> Option<NodeId> {
        self.aggregates.get(&aggregate).map(|a| a.node)
    }

    /// Number of currently materialized policy aggregates (excludes the
    /// per-job unscheduled aggregators).
    pub fn aggregate_count(&self) -> usize {
        self.aggregates.len()
    }

    /// The per-segment arc slots of an aggregate → machine bundle, if
    /// present. Slot `j` is the graph arc of bundle segment `j`.
    pub fn aggregate_machine_slots(
        &self,
        aggregate: AggregateId,
        machine: MachineId,
    ) -> Option<&[ArcId]> {
        self.machines
            .get(&machine)
            .and_then(|m| m.bundles.get(&aggregate))
            .map(|v| v.as_slice())
    }

    /// The first-segment EC→EC arc from one aggregate to another, if
    /// present (see [`aggregate_to_aggregate_slots`] for the whole
    /// bundle).
    ///
    /// [`aggregate_to_aggregate_slots`]: Self::aggregate_to_aggregate_slots
    pub fn aggregate_to_aggregate_arc(
        &self,
        parent: AggregateId,
        child: AggregateId,
    ) -> Option<ArcId> {
        self.aggregate_to_aggregate_slots(parent, child)
            .and_then(|s| s.first().copied())
    }

    /// The per-segment arc slots of an EC→EC bundle, if present.
    pub fn aggregate_to_aggregate_slots(
        &self,
        parent: AggregateId,
        child: AggregateId,
    ) -> Option<&[ArcId]> {
        self.aggregates
            .get(&parent)
            .and_then(|a| a.children.get(&child))
            .map(|v| v.as_slice())
    }

    /// The declared arc targets and per-segment slots of a waiting task,
    /// in declaration order. Machine targets not currently in the cluster
    /// have empty slot vectors. `None` for running or unknown tasks.
    pub fn task_arc_slots(&self, task: TaskId) -> Option<&[(ArcTarget, Vec<ArcId>)]> {
        self.task_slots.get(&task).map(|v| v.as_slice())
    }

    /// Gang jobs deferred by admission control at the last refresh: jobs
    /// whose minimum exceeded total machine capacity (summed across
    /// admitted gangs) or the machine capacity their own tasks can reach
    /// through positive-capacity arcs. Their `U_j → S` cap is left
    /// unenforced — the job queues (its tasks may stay unscheduled)
    /// rather than making the flow network infeasible. Re-evaluated every
    /// refresh, so a deferred gang is admitted automatically once
    /// capacity appears.
    pub fn deferred_gang_jobs(&self) -> &[JobId] {
        &self.deferred_gangs
    }

    /// What the refresh passes have touched so far.
    pub fn stats(&self) -> RefreshStats {
        self.stats
    }

    /// Takes the batch of graph changes folded since the last call — the
    /// typed feed the incremental solver warm-starts from. The
    /// scheduler core calls this once per round, after the refresh and
    /// before [`take_graph`](Self::take_graph), so the batch covers
    /// exactly one handoff window.
    pub fn take_deltas(&mut self) -> DeltaBatch {
        self.graph.take_deltas()
    }

    /// Takes the graph out of the manager for an owned (zero-copy) solve.
    /// The caller **must** return it — or the solver's derived copy, which
    /// preserves node/arc ids — via [`adopt_graph`](Self::adopt_graph)
    /// before the next event or refresh.
    pub fn take_graph(&mut self) -> FlowGraph {
        std::mem::take(&mut self.graph)
    }

    /// Installs `graph` as the authoritative network. `graph` must be the
    /// one obtained from [`take_graph`](Self::take_graph) or a solver
    /// output derived from it (ids preserved); adopting the winning flow
    /// lets the next incremental solve warm-start from it.
    pub fn adopt_graph(&mut self, graph: FlowGraph) {
        self.graph = graph;
    }
}

#[cfg(test)]
mod tests;
