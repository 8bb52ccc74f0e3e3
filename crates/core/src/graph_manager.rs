//! The flow-graph manager: the *imperative* half of the policy split.
//!
//! A [`CostModel`] declares costs and arc structure as pure functions of
//! [`ClusterState`]; the [`FlowGraphManager`] owns the flow network and
//! does everything stateful — it translates [`ClusterEvent`]s into graph
//! deltas, materializes the aggregator nodes a model refers to (including
//! whole EC→EC hierarchies, recursively and cycle-checked), runs the
//! two-pass cost update of §6.3 (collect dirty nodes — propagating
//! dirtiness *up* multi-level aggregator chains — then re-query the model
//! for exactly those), admission-controls and enforces gang constraints
//! through the `U_j → S` capacities, and garbage-collects aggregators no
//! task can reach. No other component mutates the graph: the scheduler
//! core borrows it for solving and hands the winning flow back via
//! [`FlowGraphManager::adopt_graph`].
//!
//! # Arc bundles
//!
//! Every declared arc is an [`ArcBundle`] — a piecewise-linear convex
//! cost ladder. The manager materializes one parallel graph arc per
//! segment and keeps the arc ids in a **slot vector** per (source,
//! target) pair, so segment `j` of a bundle always maps to the same graph
//! arc across refreshes. One function, `sync_bundle`, is the only code
//! that creates, re-prices, parks or removes bundle arcs: it re-prices
//! the common prefix of slots and segments in place (a cheap
//! `CostChanged` delta for the incremental solver), appends the extra
//! segments, and parks the tail at capacity 0 (static models) or removes
//! it (dynamic models). Materializing a bundle is a sync into empty
//! slots; withdrawing one is a sync with no declaration (or, for dynamic
//! models, a declaration without capacity). Machine arrival, aggregate
//! materialization, the refresh and the task-side re-price all go
//! through it. The slot vectors live in three maps, one per lookup:
//! aggregate → machine bundles keyed by machine (the dirty-machine pass),
//! EC→EC bundles keyed by parent (the child sync and the upward dirty
//! sweep), and each waiting task's bundles in declaration order.
//!
//! Convexity — non-decreasing segment costs — is validated at every
//! declaration site (for machine arrivals and job submissions, before the
//! event touches the graph), and violations are rejected with
//! [`PolicyError::NonConvexBundle`]: a decreasing ladder would let the
//! min-cost solver fill expensive segments before cheap ones, silently
//! corrupting the declared cost function.
//!
//! This mirrors real Firmament's `FlowGraphManager`/`CostModelInterface`
//! split, which is what makes new policies cheap: the node and slot
//! bookkeeping below is written once instead of once per policy.

use firmament_cluster::{ClusterEvent, ClusterState, JobId, MachineId, TaskId, Time};
use firmament_flow::delta::DeltaBatch;
use firmament_flow::{ArcId, FlowGraph, NodeId, NodeKind};
use firmament_mcmf::incremental::drain_task_flow;
use firmament_policies::{AggregateId, ArcBundle, ArcSpec, ArcTarget, CostModel, PolicyError};
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};

/// A task's handles in the flow network — its node and its arc to its
/// job's unscheduled aggregator `U_j` (the arc that carries the
/// wait-scaled unscheduled cost, and the preemption arc once it runs) —
/// and the machine it runs on.
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
/// one contiguous buffer. Lookups binary-search it; a clock advance and
/// the scheduler's action diff walk it in order. Task ids mostly arrive
/// in ascending order, so an insert is usually a push; a removal leaves a
/// tombstone, and the buffer is compacted once tombstones outnumber live
/// entries (amortized O(1)).
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
    pub fn insert(&mut self, task: TaskId, entry: TaskEntry) -> Option<TaskEntry> {
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
    pub fn remove(&mut self, task: TaskId) -> Option<TaskEntry> {
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

/// Node bookkeeping shared by every policy: the sink, per-task and
/// per-machine nodes, per-job unscheduled aggregators, and the arcs whose
/// capacities track cluster quantities.
#[derive(Debug, Default)]
pub struct GraphBase {
    /// The flow network.
    pub graph: FlowGraph,
    /// The sink node `S`.
    pub sink: Option<NodeId>,
    /// The task table, in `TaskId` order: each task's node, unscheduled
    /// arc and running machine. A clock advance walks it in order to
    /// re-price every task, and the action diff to read every task's
    /// extracted machine, without a lookup per task.
    pub task_table: TaskTable,
    /// Machine → node.
    pub machine_nodes: HashMap<MachineId, NodeId>,
    /// Machine → its arc to the sink (capacity = slots).
    pub machine_sink_arcs: HashMap<MachineId, ArcId>,
    /// Job → unscheduled aggregator `U_j`.
    pub unsched_nodes: HashMap<JobId, NodeId>,
    /// Job → the `U_j → S` arc (capacity = incomplete tasks of the job).
    pub unsched_sink_arcs: HashMap<JobId, ArcId>,
}

impl GraphBase {
    /// Creates an empty base with a sink node. Change tracking is enabled
    /// from the start: the manager's graph records every mutation so each
    /// round's [`DeltaBatch`] can be handed to the incremental solver.
    pub fn new() -> Self {
        let mut base = GraphBase::default();
        base.graph.set_change_tracking(true);
        let sink = base.graph.add_node(NodeKind::Sink, 0);
        base.sink = Some(sink);
        base
    }

    /// The sink node.
    ///
    /// # Panics
    ///
    /// Panics if called before [`GraphBase::new`] created the sink.
    pub fn sink(&self) -> NodeId {
        self.sink.expect("GraphBase::new creates the sink")
    }

    /// Adds a machine node with a `slots`-capacity arc to the sink.
    pub fn add_machine(&mut self, machine: MachineId, slots: i64) -> Result<NodeId, PolicyError> {
        if self.machine_nodes.contains_key(&machine) {
            return Err(PolicyError::DuplicateMachine(machine));
        }
        let n = self.graph.add_node(NodeKind::Machine { machine }, 0);
        let arc = self.graph.add_arc(n, self.sink(), slots, 0)?;
        self.machine_nodes.insert(machine, n);
        self.machine_sink_arcs.insert(machine, arc);
        Ok(n)
    }

    /// Removes a machine node and its arcs.
    pub fn remove_machine(&mut self, machine: MachineId) -> Result<(), PolicyError> {
        let n = self
            .machine_nodes
            .remove(&machine)
            .ok_or(PolicyError::UnknownMachine(machine))?;
        self.machine_sink_arcs.remove(&machine);
        self.graph.remove_node(n)?;
        Ok(())
    }

    /// Adds a task node with one unit of supply and an arc to its job's
    /// unscheduled aggregator; grows the sink demand and the `U_j → S`
    /// capacity accordingly.
    pub fn add_task(
        &mut self,
        task: TaskId,
        job: JobId,
        unsched_cost: i64,
    ) -> Result<NodeId, PolicyError> {
        if self.task_table.contains(task) {
            return Err(PolicyError::DuplicateTask(task));
        }
        let n = self.graph.add_node(NodeKind::Task { task }, 1);
        let u = self.ensure_unscheduled(job)?;
        let unsched_arc = self.graph.add_arc(n, u, 1, unsched_cost)?;
        self.task_table.insert(
            task,
            TaskEntry {
                node: n,
                unsched_arc,
                running: None,
            },
        );
        let sink = self.sink();
        let d = self.graph.supply(sink);
        self.graph.set_supply(sink, d - 1)?;
        let ua = self.unsched_sink_arcs[&job];
        let cap = self.graph.capacity(ua);
        self.graph.set_arc_capacity(ua, cap + 1)?;
        Ok(n)
    }

    /// Removes a task node (after completion or failure), shrinking the sink
    /// demand and the job's unscheduled capacity.
    ///
    /// The caller is responsible for draining the task's flow first when it
    /// wants the efficient-task-removal heuristic (§5.3.2);
    /// [`FlowGraphManager::apply_event`] does so for task completions.
    pub fn remove_task(&mut self, task: TaskId, job: JobId) -> Result<(), PolicyError> {
        let entry = self
            .task_table
            .remove(task)
            .ok_or(PolicyError::UnknownTask(task))?;
        self.graph.remove_node(entry.node)?;
        let sink = self.sink();
        let d = self.graph.supply(sink);
        self.graph.set_supply(sink, d + 1)?;
        if let Some(&ua) = self.unsched_sink_arcs.get(&job) {
            let cap = self.graph.capacity(ua);
            self.graph.set_arc_capacity(ua, (cap - 1).max(0))?;
        }
        Ok(())
    }

    /// Returns (creating if needed) the unscheduled aggregator for a job.
    pub fn ensure_unscheduled(&mut self, job: JobId) -> Result<NodeId, PolicyError> {
        if let Some(&n) = self.unsched_nodes.get(&job) {
            return Ok(n);
        }
        let n = self
            .graph
            .add_node(NodeKind::UnscheduledAggregator { job }, 0);
        let arc = self.graph.add_arc(n, self.sink(), 0, 0)?;
        self.unsched_nodes.insert(job, n);
        self.unsched_sink_arcs.insert(job, arc);
        Ok(n)
    }

    /// Node for a task, if present.
    pub fn task_node(&self, task: TaskId) -> Option<NodeId> {
        self.task_table.get(task).map(|e| e.node)
    }

    /// Node for a machine, if present.
    pub fn machine_node(&self, machine: MachineId) -> Option<NodeId> {
        self.machine_nodes.get(&machine).copied()
    }

    /// Finds the first arc from `src` to `dst` if one exists (forward
    /// direction). With multi-segment bundles there may be several
    /// parallel arcs; this returns the earliest in adjacency order.
    pub fn find_arc(&self, src: NodeId, dst: NodeId) -> Option<ArcId> {
        self.graph
            .adj(src)
            .iter()
            .copied()
            .find(|&a| a.is_forward() && self.graph.dst(a) == dst)
    }

    /// Removes every outgoing forward arc of `node` except those whose
    /// destination satisfies `keep`; used when a task transitions between
    /// waiting and running arc sets.
    pub fn retain_out_arcs(
        &mut self,
        node: NodeId,
        keep: impl Fn(&FlowGraph, NodeId) -> bool,
    ) -> Result<(), PolicyError> {
        let to_remove: Vec<ArcId> = self
            .graph
            .adj(node)
            .iter()
            .copied()
            .filter(|&a| a.is_forward() && !keep(&self.graph, self.graph.dst(a)))
            .collect();
        for a in to_remove {
            self.graph.remove_arc(a)?;
        }
        Ok(())
    }
}

/// Rejects bundles that break the convexity contract: segment costs must
/// be non-decreasing, or the min-cost solver would fill expensive
/// segments before cheap ones.
fn validate_bundle(hook: &'static str, bundle: &ArcBundle) -> Result<(), PolicyError> {
    if let Some((prev, next)) = bundle.convexity_violation() {
        return Err(PolicyError::NonConvexBundle { hook, prev, next });
    }
    Ok(())
}

/// Brings one bundle's slot vector in line with its declaration — the only
/// code in the manager that creates, re-prices, parks or removes bundle
/// arcs. Segment `j` keeps slot `j`:
///
/// - the common prefix is re-priced in place (`CostChanged` /
///   `CapacityChanged` deltas — never structural),
/// - declared segments beyond it append new arcs,
/// - slots beyond the declared length are parked at capacity 0 (static
///   models, revivable) or removed (`dynamic`).
///
/// Materializing a bundle is a sync into empty slots. Withdrawing one is a
/// sync with `None` or — for dynamic models — with an empty bundle or one
/// whose total capacity is ≤ 0.
fn sync_bundle(
    graph: &mut FlowGraph,
    slots: &mut Vec<ArcId>,
    src: NodeId,
    dst: NodeId,
    declared: Option<&ArcBundle>,
    dynamic: bool,
) -> Result<(), PolicyError> {
    let segments = declared_segments(declared, dynamic);
    let common = slots.len().min(segments.len());
    for (slot, seg) in slots.iter().zip(segments) {
        graph.set_arc_capacity(*slot, seg.capacity.max(0))?;
        graph.set_arc_cost(*slot, seg.cost)?;
    }
    if dynamic {
        for &arc in &slots[common..] {
            graph.remove_arc(arc)?;
        }
        slots.truncate(common);
    } else {
        for &arc in &slots[common..] {
            graph.set_arc_capacity(arc, 0)?;
        }
    }
    slots.reserve(segments.len() - common);
    for seg in &segments[common..] {
        slots.push(graph.add_arc(src, dst, seg.capacity.max(0), seg.cost)?);
    }
    Ok(())
}

/// The segments a declaration materializes: none for a withdrawn bundle.
fn declared_segments(declared: Option<&ArcBundle>, dynamic: bool) -> &[ArcSpec] {
    match declared {
        Some(b) if !(dynamic && b.total_capacity() <= 0) => b.segments(),
        _ => &[],
    }
}

/// Syncs the bundle stored under `key` in a slot map (see
/// [`sync_bundle`]), keeping the entry only while it holds slots.
fn sync_entry(
    graph: &mut FlowGraph,
    map: &mut BTreeMap<AggregateId, Vec<ArcId>>,
    key: AggregateId,
    src: NodeId,
    dst: NodeId,
    declared: Option<&ArcBundle>,
    dynamic: bool,
) -> Result<(), PolicyError> {
    let slots = map.entry(key).or_default();
    let synced = sync_bundle(graph, slots, src, dst, declared, dynamic);
    if slots.is_empty() {
        map.remove(&key);
    }
    synced
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
    /// Tasks whose unscheduled cost was re-evaluated, cumulative.
    pub tasks_touched: u64,
    /// Aggregates whose EC→EC arcs were re-synchronized, cumulative.
    pub aggregates_touched: u64,
    /// Aggregate nodes garbage-collected (task in-degree dropped to zero),
    /// cumulative; includes per-job unscheduled aggregators.
    pub aggregates_collected: u64,
    /// Waiting tasks whose arc sets were re-derived by machine-set events,
    /// cumulative — the quantity the waiting-task dirty-set narrowing
    /// ([`CostModel::task_arcs_machine_local`]) keeps small.
    pub waiting_rederived: u64,
    /// Machines touched by the most recent refresh.
    pub last_machines_touched: usize,
    /// Tasks touched by the most recent refresh.
    pub last_tasks_touched: usize,
    /// Aggregates touched by the most recent refresh.
    pub last_aggregates_touched: usize,
}

/// Owns the scheduling flow network and keeps it in sync with cluster
/// state by querying a [`CostModel`] for the policy-specific numbers.
///
/// See the [module documentation](self) for the division of labor.
#[derive(Debug, Default)]
pub struct FlowGraphManager {
    base: GraphBase,
    /// Aggregate id → node.
    agg_nodes: HashMap<AggregateId, NodeId>,
    /// Machine → its aggregate bundles (aggregate → per-segment arc
    /// slots, sorted). Machine-major so a dirty machine's refresh touches
    /// only its own arcs.
    machine_agg_arcs: HashMap<MachineId, BTreeMap<AggregateId, Vec<ArcId>>>,
    /// EC→EC bundles, source-major: parent aggregate → (child aggregate →
    /// per-segment arc slots). These are the multi-level hierarchy edges
    /// declared via [`CostModel::aggregate_to_aggregate`].
    agg_agg_arcs: HashMap<AggregateId, BTreeMap<AggregateId, Vec<ArcId>>>,
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
    /// Job → number of its tasks still in the graph; keeps the gang pass
    /// proportional to *live* jobs instead of every job ever submitted.
    live_job_tasks: HashMap<JobId, i64>,
    /// Virtual time of the last refresh; when unchanged, waiting-task
    /// costs cannot have drifted and are skipped.
    last_refresh_now: Option<Time>,
    /// Whether the model has *ever* declared an EC→EC child. Flat models
    /// (the common case) never do, so machine-set events skip the blanket
    /// aggregate-dirtying that exists only to re-sync hierarchy arcs and
    /// their subtree capacities. Sticky: once a hierarchy is seen, machine
    /// events always re-dirty every aggregate (hierarchies may grow with
    /// the machine set). Known limit: a model that has never declared any
    /// EC→EC child and whose *first* declaration appears, in response to
    /// a machine-set change, on an existing aggregate with no arc to the
    /// touched machine is not re-queried (the flag can only flip inside a
    /// query). No shipped model behaves this way; the differential fuzz
    /// suite would flag the divergence if one did.
    hierarchy_declared: bool,
    stats: RefreshStats,
}

impl FlowGraphManager {
    /// Creates a manager with an empty network (sink only).
    pub fn new() -> Self {
        FlowGraphManager {
            base: GraphBase::new(),
            ..Default::default()
        }
    }

    /// The flow network (read-only; solvers clone or take it via the
    /// scheduler core).
    pub fn graph(&self) -> &FlowGraph {
        &self.base.graph
    }

    /// The shared node bookkeeping.
    pub fn base(&self) -> &GraphBase {
        &self.base
    }

    /// The sink node.
    pub fn sink(&self) -> NodeId {
        self.base.sink()
    }

    /// Node for a task, if present.
    pub fn task_node(&self, task: TaskId) -> Option<NodeId> {
        self.base.task_node(task)
    }

    /// Node for a machine, if present.
    pub fn machine_node(&self, machine: MachineId) -> Option<NodeId> {
        self.base.machine_node(machine)
    }

    /// Node for a policy-defined aggregate, if it has been materialized.
    pub fn aggregate_node(&self, aggregate: AggregateId) -> Option<NodeId> {
        self.agg_nodes.get(&aggregate).copied()
    }

    /// Number of currently materialized policy aggregates (excludes the
    /// per-job unscheduled aggregators).
    pub fn aggregate_count(&self) -> usize {
        self.agg_nodes.len()
    }

    /// The per-segment arc slots of an aggregate → machine bundle, if
    /// present. Slot `j` is the graph arc of bundle segment `j`.
    pub fn aggregate_machine_slots(
        &self,
        aggregate: AggregateId,
        machine: MachineId,
    ) -> Option<&[ArcId]> {
        self.machine_agg_arcs
            .get(&machine)
            .and_then(|m| m.get(&aggregate))
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
        self.agg_agg_arcs
            .get(&parent)
            .and_then(|m| m.get(&child))
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
        self.base.graph.take_deltas()
    }

    /// Takes the graph out of the manager for an owned (zero-copy) solve.
    /// The caller **must** return it — or the solver's derived copy, which
    /// preserves node/arc ids — via [`adopt_graph`](Self::adopt_graph)
    /// before the next event or refresh.
    pub fn take_graph(&mut self) -> FlowGraph {
        std::mem::take(&mut self.base.graph)
    }

    /// Installs `graph` as the authoritative network. `graph` must be the
    /// one obtained from [`take_graph`](Self::take_graph) or a solver
    /// output derived from it (ids preserved); adopting the winning flow
    /// lets the next incremental solve warm-start from it.
    pub fn adopt_graph(&mut self, graph: FlowGraph) {
        self.base.graph = graph;
    }

    /// Applies one cluster event to the flow network, querying `model` for
    /// any newly required costs or arcs. `state` must already reflect the
    /// event (call [`ClusterState::apply`] first).
    pub fn apply_event<C: CostModel>(
        &mut self,
        model: &C,
        state: &ClusterState,
        event: &ClusterEvent,
    ) -> Result<(), PolicyError> {
        match event {
            ClusterEvent::Tick { .. } => {}
            ClusterEvent::MachineAdded { machine } => {
                // Declare and validate every bundle before adding the
                // machine, so a rejected declaration leaves the graph
                // untouched.
                let mut aggs: Vec<AggregateId> = self.agg_nodes.keys().copied().collect();
                aggs.sort_unstable();
                let declared = aggs
                    .into_iter()
                    .map(|agg| Ok((agg, declare_aggregate_arc(model, state, agg, machine)?)))
                    .collect::<Result<Vec<_>, PolicyError>>()?;
                self.base.add_machine(machine.id, machine.slots as i64)?;
                let dynamic = model.dynamic_aggregate_arcs();
                for (agg, bundle) in declared {
                    self.sync_machine_bundle(agg, machine.id, bundle.as_ref(), dynamic)?;
                }
                self.dirty_machines.insert(machine.id);
                // Machine-set changes can alter EC→EC capacities (which
                // aggregate subtree slots) and even create hierarchy levels
                // (first machine of a new rack), so every aggregate's
                // EC→EC arcs are re-synced at the next refresh — but only
                // for models that have ever declared a hierarchy. Flat
                // aggregates have no EC→EC arcs to re-sync, so dirtying
                // them here would only trigger no-op model queries. (A
                // model that has *never* declared any EC→EC child and
                // whose first declaration would come from an aggregate not
                // adjacent to the touched machine is not re-queried — see
                // `hierarchy_declared` for the documented limits.)
                if self.hierarchy_declared {
                    self.dirty_aggs.extend(self.agg_nodes.keys().copied());
                }
                // And they can change waiting tasks' declared arc *sets*:
                // a model that names this machine (or its rack) as a
                // preference target would declare arcs a from-scratch
                // build gets but the old incremental graph lacks.
                // Machine-local models narrow this to the tasks whose
                // declared targets reference the new machine.
                self.resync_waiting_arcs(model, state, Some(machine.id))?;
            }
            ClusterEvent::MachineRemoved { machine, .. } => {
                self.machine_agg_arcs.remove(machine);
                // See `MachineAdded`: the blanket re-sync only exists for
                // EC→EC hierarchies.
                if self.hierarchy_declared {
                    self.dirty_aggs.extend(self.agg_nodes.keys().copied());
                }
                self.base.task_table.clear_running_on(*machine);
                self.dirty_machines.remove(machine);
                self.base.remove_machine(*machine)?;
                // A machine failure invalidates waiting arc *sets*, not
                // just those of the displaced tasks: block replicas died
                // with the machine, so locality-driven preference arcs
                // (e.g. a rack arc whose holders are gone) may no longer
                // be declared. Re-derive waiting tasks' arcs from the
                // model, exactly as a from-scratch build would — narrowed
                // to referencing tasks for machine-local models.
                self.resync_waiting_arcs(model, state, Some(*machine))?;
            }
            ClusterEvent::JobSubmitted { job, tasks } => {
                // Reject duplicate ids and invalid task-arc declarations
                // before adding any task, so a bad submission leaves the
                // graph untouched.
                let known = |t: &&firmament_cluster::Task| self.base.task_table.contains(t.id);
                if let Some(id) =
                    repeated_id(tasks).or_else(|| tasks.iter().find(known).map(|t| t.id))
                {
                    return Err(PolicyError::DuplicateTask(id));
                }
                let declared = tasks
                    .iter()
                    .map(|task| declare_task_arcs(model, state, task))
                    .collect::<Result<Vec<_>, _>>()?;
                for (task, declared) in tasks.iter().zip(declared) {
                    self.base.add_task(
                        task.id,
                        job.id,
                        model.task_unscheduled_cost(state, task),
                    )?;
                    self.install_waiting_arcs(model, state, task, declared)?;
                    self.dirty_tasks.insert(task.id);
                    *self.live_job_tasks.entry(job.id).or_insert(0) += 1;
                }
            }
            ClusterEvent::TaskPlaced { task, machine, .. } => {
                let t = self
                    .base
                    .task_node(*task)
                    .ok_or(PolicyError::UnknownTask(*task))?;
                let m = self
                    .base
                    .machine_node(*machine)
                    .ok_or(PolicyError::UnknownMachine(*machine))?;
                let task_data = state
                    .tasks
                    .get(task)
                    .ok_or(PolicyError::UnknownTask(*task))?;
                // Drain the task's old flow (which may route through
                // aggregator chains) before rewiring its arcs: removing a
                // flow-carrying waiting arc would strand stale flow on the
                // aggregates below, unbalancing the warm start and pinning
                // otherwise-dead aggregates past garbage collection.
                drain_task_flow(&mut self.base.graph, t);
                // A running task keeps exactly two arcs: the zero-ish-cost
                // arc to its machine and the preemption arc to U_j, so
                // migrations always go through explicit preemption.
                self.strip_task_arcs(*task)?;
                let cost = model.running_arc_cost(state, task_data, *machine);
                self.base.graph.add_arc(t, m, 1, cost)?;
                self.base.task_table.set_running(*task, Some(*machine));
                self.dirty_machines.insert(*machine);
            }
            ClusterEvent::TaskPreempted { task, .. } => {
                let t = self
                    .base
                    .task_node(*task)
                    .ok_or(PolicyError::UnknownTask(*task))?;
                let task_data = state
                    .tasks
                    .get(task)
                    .ok_or(PolicyError::UnknownTask(*task))?;
                // Drain before dropping the running arc, for the same
                // reason as in `TaskPlaced`: its flow must not be stranded
                // on the machine → sink arc.
                drain_task_flow(&mut self.base.graph, t);
                self.strip_task_arcs(*task)?;
                self.add_waiting_arcs(model, state, task_data)?;
                if let Some(m) = self.base.task_table.set_running(*task, None) {
                    self.dirty_machines.insert(m);
                }
                self.dirty_tasks.insert(*task);
            }
            ClusterEvent::TaskCompleted { task, .. } => {
                // Both lookups precede the drain, so an unknown task
                // leaves the graph untouched.
                let job = state
                    .tasks
                    .get(task)
                    .ok_or(PolicyError::UnknownTask(*task))?
                    .job;
                let entry = self
                    .base
                    .task_table
                    .get(*task)
                    .ok_or(PolicyError::UnknownTask(*task))?;
                // Efficient task removal (§5.3.2): drain the departing
                // task's flow before deleting the node so the graph stays
                // balanced for the incremental solver.
                drain_task_flow(&mut self.base.graph, entry.node);
                self.base.remove_task(*task, job)?;
                self.task_slots.remove(task);
                if let Some(n) = self.live_job_tasks.get_mut(&job) {
                    *n -= 1;
                    if *n <= 0 {
                        self.live_job_tasks.remove(&job);
                    }
                }
                self.dirty_tasks.remove(task);
                if let Some(m) = entry.running {
                    self.dirty_machines.insert(m);
                }
            }
        }
        Ok(())
    }

    /// The two-pass cost update (§6.3): pass 1 collects the dirty node
    /// sets (machines touched by events — or all of them for models with
    /// dynamic arcs — plus waiting tasks whose wait-time cost drifted,
    /// plus aggregates above any dirty machine, with dirtiness propagated
    /// *up* multi-level EC→EC chains); pass 2 re-queries the model for
    /// exactly those and applies the deltas. A quiescent round (no events,
    /// clock unchanged) touches nothing. A clock advance re-prices every
    /// task by walking the task table ([`GraphBase::task_table`]) in
    /// `TaskId` order: each entry already holds the task's `T → U_j` arc,
    /// so the walk costs one model call and one cost update per task.
    ///
    /// Pass 2 re-syncs bundles **in place**: segment slots keep their
    /// identity, so a re-priced ladder reaches the incremental solver as
    /// cost/capacity deltas, never as structural churn. Models with
    /// [`CostModel::dynamic_task_arcs`] additionally get their waiting
    /// tasks' preference bundles re-priced here (the task-side mirror of
    /// the dynamic aggregate-arc refresh).
    ///
    /// The refresh also runs gang admission control (deferring gang caps
    /// that would make the network infeasible; see
    /// [`deferred_gang_jobs`](Self::deferred_gang_jobs)) and garbage-
    /// collects aggregates whose task in-degree dropped to zero.
    pub fn refresh<C: CostModel>(
        &mut self,
        model: &C,
        state: &ClusterState,
    ) -> Result<(), PolicyError> {
        // Pass 1: dirty-set collection.
        let dynamic = model.dynamic_aggregate_arcs();
        let mut machines: Vec<MachineId> = if dynamic {
            state.machines.keys().copied().collect()
        } else {
            self.dirty_machines
                .iter()
                .copied()
                .filter(|m| state.machines.contains_key(m))
                .collect()
        };
        machines.sort_unstable();
        let time_advanced = self.last_refresh_now != Some(state.now);
        let dirty_aggs = self.collect_dirty_aggregates(dynamic, &machines);

        // EC→EC re-sync: for every dirty aggregate, bring its declared
        // aggregate→aggregate arc set up to date *before* the machine-arc
        // pass, so aggregates materialized here (e.g. a brand-new rack
        // level) already have their machine arcs when that pass runs.
        for &agg in &dirty_aggs {
            self.sync_aggregate_children(model, state, agg, &mut Vec::new())?;
        }

        // Pass 2: apply cost/capacity deltas for the dirty nodes only. A
        // static-structure model (the common case) re-syncs exactly the
        // bundles a dirty machine already has; a dynamic model (Fig 6c)
        // visits every aggregate, since its arc *set* reacts to monitored
        // state.
        let mut aggs = Vec::new();
        for &mid in &machines {
            let machine = &state.machines[&mid];
            aggs.clear();
            if dynamic {
                aggs.extend(self.agg_nodes.keys());
                aggs.sort_unstable();
            } else if let Some(arcs) = self.machine_agg_arcs.get(&mid) {
                aggs.extend(arcs.keys());
            }
            for &agg in &aggs {
                let bundle = declare_aggregate_arc(model, state, agg, machine)?;
                self.sync_machine_bundle(agg, mid, bundle.as_ref(), dynamic)?;
            }
        }
        // Task re-price, in TaskId order: each task's unscheduled cost,
        // then (dynamic task-arc models) its preference bundles.
        let reprice_bundles = model.dynamic_task_arcs();
        let tasks_touched = if time_advanced {
            // Every task still in the graph: waiting tasks' unscheduled
            // arcs *and* running tasks' preemption arcs carry the
            // wait-scaled cost, and both drift with the clock. The task
            // table is already in TaskId order and holds each task's
            // unscheduled arc, so the walk needs no per-task lookup.
            if reprice_bundles {
                // Bundle re-pricing needs the whole manager (it may
                // rewire arcs and materialize aggregates), so it walks a
                // copy of the table.
                let table: Vec<(TaskId, TaskEntry)> = self.base.task_table.iter().collect();
                for (tid, entry) in table {
                    self.reprice_task(model, state, tid, entry, true)?;
                }
            } else {
                let GraphBase {
                    graph, task_table, ..
                } = &mut self.base;
                for (tid, entry) in task_table.iter() {
                    reprice_unscheduled(graph, model, state, tid, entry)?;
                }
            }
            self.base.task_table.len()
        } else {
            let mut tasks: Vec<TaskId> = self.dirty_tasks.iter().copied().collect();
            tasks.sort_unstable();
            for &tid in &tasks {
                if let Some(entry) = self.base.task_table.get(tid) {
                    self.reprice_task(model, state, tid, entry, reprice_bundles)?;
                }
            }
            tasks.len()
        };
        // Gang constraints with admission control: cap `U_j → S` at
        // incomplete − minimum so at least `minimum` of the job's tasks
        // are forced through machines — but only while (a) the sum of
        // forced flows fits in total machine capacity and (b) the job's
        // own tasks can actually *reach* that much machine capacity
        // through positive-capacity arcs. A gang beyond either bound
        // would make the network infeasible (a solver error), so the job
        // is *deferred* instead: its cap stays at `incomplete` (the job
        // queues, unconstrained) and it is re-considered every refresh.
        // Both bounds are fast necessary conditions, not a max-flow: a
        // model that bottlenecks a gang below its minimum on *interior*
        // arc capacities (or makes admitted gangs compete for the same
        // machines) can still declare an unsatisfiable constraint, which
        // then surfaces as a solver error. Only jobs with tasks still in
        // the graph are consulted, so the pass stays proportional to live
        // work, not total jobs submitted; a job's incomplete count is its
        // live-task counter, not a scan of its task list.
        self.deferred_gangs.clear();
        let mut jobs: Vec<(JobId, i64)> =
            self.live_job_tasks.iter().map(|(&j, &n)| (j, n)).collect();
        jobs.sort_unstable();
        let budget: i64 = state.machines.values().map(|m| m.slots as i64).sum();
        let mut committed: i64 = 0;
        for (jid, incomplete) in jobs {
            let Some(job) = state.jobs.get(&jid) else {
                continue;
            };
            let gang = model.job_gang_minimum(state, job);
            if gang <= 0 {
                continue;
            }
            let Some(&ua) = self.base.unsched_sink_arcs.get(&jid) else {
                continue;
            };
            let forced = gang.min(incomplete);
            if committed + forced > budget || forced > self.job_reachable_machine_capacity(job) {
                self.deferred_gangs.push(jid);
                self.base.graph.set_arc_capacity(ua, incomplete)?;
                continue;
            }
            committed += forced;
            self.base
                .graph
                .set_arc_capacity(ua, (incomplete - gang).max(0))?;
        }

        let collected = self.collect_dead_aggregates()?;

        self.stats.rounds += 1;
        self.stats.machines_touched += machines.len() as u64;
        self.stats.tasks_touched += tasks_touched as u64;
        self.stats.aggregates_touched += dirty_aggs.len() as u64;
        self.stats.aggregates_collected += collected as u64;
        self.stats.last_machines_touched = machines.len();
        self.stats.last_tasks_touched = tasks_touched;
        self.stats.last_aggregates_touched = dirty_aggs.len();
        self.dirty_machines.clear();
        self.dirty_tasks.clear();
        self.dirty_aggs.clear();
        self.last_refresh_now = Some(state.now);
        Ok(())
    }

    /// The dirty-aggregate set for this refresh: aggregates explicitly
    /// dirtied by events plus those with an arc to a dirty machine, with
    /// dirtiness propagated *up* every EC→EC chain (a parent's arc to a
    /// dirty child may price the child's whole subtree). Dynamic-arc
    /// models re-sync every aggregate each round.
    fn collect_dirty_aggregates(
        &self,
        dynamic: bool,
        dirty_machines: &[MachineId],
    ) -> BTreeSet<AggregateId> {
        let mut set: BTreeSet<AggregateId> = if dynamic {
            self.agg_nodes.keys().copied().collect()
        } else {
            let mut set: BTreeSet<AggregateId> = self.dirty_aggs.iter().copied().collect();
            for m in dirty_machines {
                if let Some(arcs) = self.machine_agg_arcs.get(m) {
                    set.extend(arcs.keys().copied());
                }
            }
            // Reverse EC→EC edges (child → parents) for the upward sweep.
            let mut parents: HashMap<AggregateId, Vec<AggregateId>> = HashMap::new();
            for (&parent, children) in &self.agg_agg_arcs {
                for &child in children.keys() {
                    parents.entry(child).or_default().push(parent);
                }
            }
            let mut work: Vec<AggregateId> = set.iter().copied().collect();
            while let Some(a) = work.pop() {
                if let Some(ps) = parents.get(&a) {
                    for &p in ps {
                        if set.insert(p) {
                            work.push(p);
                        }
                    }
                }
            }
            set
        };
        set.retain(|a| self.agg_nodes.contains_key(a));
        set
    }

    /// Re-synchronizes one aggregate's EC→EC arc set with what the model
    /// currently declares: declared children go through
    /// [`sync_child_bundle`](Self::sync_child_bundle) (the first
    /// declaration of a child wins), then stale children are withdrawn
    /// through it. Serves both the refresh and a new aggregate's
    /// materialization, whose `stack` holds the aggregates being
    /// materialized. `agg` must be materialized.
    fn sync_aggregate_children<C: CostModel>(
        &mut self,
        model: &C,
        state: &ClusterState,
        agg: AggregateId,
        stack: &mut Vec<AggregateId>,
    ) -> Result<(), PolicyError> {
        let declared = model.aggregate_to_aggregate(state, agg);
        if !declared.is_empty() {
            self.hierarchy_declared = true;
        }
        let mut seen: BTreeSet<AggregateId> = BTreeSet::new();
        for (child, bundle) in &declared {
            if *child == agg {
                return Err(PolicyError::AggregateCycle(agg));
            }
            validate_bundle("aggregate_to_aggregate", bundle)?;
            if seen.insert(*child) {
                self.sync_child_bundle(model, state, agg, *child, Some(bundle), stack)?;
            }
        }
        let stale: Vec<AggregateId> = self
            .agg_agg_arcs
            .get(&agg)
            .map(|m| m.keys().filter(|c| !seen.contains(c)).copied().collect())
            .unwrap_or_default();
        for child in stale {
            self.sync_child_bundle(model, state, agg, child, None, stack)?;
        }
        Ok(())
    }

    /// Syncs one EC→EC bundle. A pair without slots that the declaration
    /// would materialize first materializes the child (recursively) and
    /// is cycle-checked: a new edge into a pre-existing aggregate could
    /// close a loop the materialization stack cannot see — and
    /// materializing `child` may itself have connected descendants back
    /// to `parent`'s ancestors — so reachability is checked *after* the
    /// child's subtree exists, just before connecting.
    fn sync_child_bundle<C: CostModel>(
        &mut self,
        model: &C,
        state: &ClusterState,
        parent: AggregateId,
        child: AggregateId,
        declared: Option<&ArcBundle>,
        stack: &mut Vec<AggregateId>,
    ) -> Result<(), PolicyError> {
        let dynamic = model.dynamic_aggregate_arcs();
        let connected = self
            .agg_agg_arcs
            .get(&parent)
            .is_some_and(|m| m.contains_key(&child));
        let cn = if connected {
            self.agg_nodes[&child]
        } else if declared_segments(declared, dynamic).is_empty() {
            return Ok(());
        } else {
            let cn = self.ensure_aggregate(model, state, child, stack)?;
            if self.agg_reaches(child, parent) {
                return Err(PolicyError::AggregateCycle(parent));
            }
            cn
        };
        let pn = self.agg_nodes[&parent];
        let arcs = self.agg_agg_arcs.entry(parent).or_default();
        sync_entry(&mut self.base.graph, arcs, child, pn, cn, declared, dynamic)
    }

    /// Re-prices one task: its unscheduled arc, then — when
    /// `reprice_bundles` is set and the task is waiting — its declared
    /// preference bundles (the dynamic task-arc hook: Execution-Templates
    /// style, the cached structure is kept and only the parameters are
    /// patched; structural drift falls back to a full re-derive).
    fn reprice_task<C: CostModel>(
        &mut self,
        model: &C,
        state: &ClusterState,
        tid: TaskId,
        entry: TaskEntry,
        reprice_bundles: bool,
    ) -> Result<(), PolicyError> {
        let Some(task) = reprice_unscheduled(&mut self.base.graph, model, state, tid, entry)?
        else {
            return Ok(());
        };
        if reprice_bundles && self.task_slots.contains_key(&tid) {
            self.reprice_task_bundles(model, state, task, entry.node)?;
        }
        Ok(())
    }

    /// Re-prices one waiting task's declared bundles in place. The cheap
    /// path applies when the declared target sequence matches the cached
    /// slots (and every slot is still alive): per-segment costs and
    /// capacities are patched, grown bundles append, shrunk bundles park
    /// — all slot-stable. Structural drift (targets added, removed, or
    /// reordered; slots killed by machine removal or aggregate GC) falls
    /// back to a full arc re-derivation, exactly what a structural event
    /// would do.
    fn reprice_task_bundles<C: CostModel>(
        &mut self,
        model: &C,
        state: &ClusterState,
        task: &firmament_cluster::Task,
        tn: NodeId,
    ) -> Result<(), PolicyError> {
        let declared = declare_task_arcs(model, state, task)?;
        let Some(mut entry) = self.task_slots.remove(&task.id) else {
            return Ok(());
        };
        let structural_match = entry.len() == declared.len()
            && entry.iter().zip(&declared).all(|((t0, slots), (t1, _))| {
                t0 == t1
                    && match t0 {
                        ArcTarget::Machine(m) if !state.machines.contains_key(m) => {
                            slots.is_empty()
                        }
                        _ => {
                            !slots.is_empty() && slots.iter().all(|&a| self.base.graph.arc_alive(a))
                        }
                    }
            });
        if !structural_match {
            self.strip_task_arcs(task.id)?;
            // Rebuild from the declaration already computed (and
            // validated) above — no second model query.
            return self.install_waiting_arcs(model, state, task, declared);
        }
        for ((target, slots), (_, bundle)) in entry.iter_mut().zip(&declared) {
            let dst = match target {
                ArcTarget::Aggregate(agg) => self.agg_nodes[agg],
                ArcTarget::Machine(m) => match self.base.machine_node(*m) {
                    Some(mn) => mn,
                    None => continue, // absent machine: parked reference
                },
            };
            // Parking (not removal) on shrink keeps slot identity so the
            // segment can revive as a pure capacity change later.
            sync_bundle(&mut self.base.graph, slots, tn, dst, Some(bundle), false)?;
        }
        self.task_slots.insert(task.id, entry);
        Ok(())
    }

    /// Machine → sink capacity reachable from `job`'s task nodes through
    /// positive-capacity arcs (across any aggregator depth) — a fast
    /// upper bound on how much of the job's flow can reach machines, used
    /// by gang admission control. Not a max flow: interior bottlenecks
    /// are ignored, so this can overestimate, never underestimate.
    fn job_reachable_machine_capacity(&self, job: &firmament_cluster::Job) -> i64 {
        let g = &self.base.graph;
        let mut work: Vec<NodeId> = job
            .tasks
            .iter()
            .filter_map(|t| self.base.task_node(*t))
            .collect();
        let mut visited: HashSet<NodeId> = work.iter().copied().collect();
        let mut cap = 0i64;
        while let Some(n) = work.pop() {
            for &a in g.adj(n) {
                if !a.is_forward() || g.capacity(a) <= 0 {
                    continue;
                }
                let dst = g.dst(a);
                if !visited.insert(dst) {
                    continue;
                }
                match g.kind(dst) {
                    NodeKind::Machine { machine } => {
                        if let Some(&ms) = self.base.machine_sink_arcs.get(&machine) {
                            cap += g.capacity(ms);
                        }
                    }
                    NodeKind::UnscheduledAggregator { .. } | NodeKind::Sink => {}
                    _ => work.push(dst),
                }
            }
        }
        cap
    }

    /// Whether `target` is reachable from `from` along EC→EC arcs.
    fn agg_reaches(&self, from: AggregateId, target: AggregateId) -> bool {
        if from == target {
            return true;
        }
        let mut work = vec![from];
        let mut visited: HashSet<AggregateId> = HashSet::new();
        while let Some(a) = work.pop() {
            if !visited.insert(a) {
                continue;
            }
            if let Some(children) = self.agg_agg_arcs.get(&a) {
                for &c in children.keys() {
                    if c == target {
                        return true;
                    }
                    work.push(c);
                }
            }
        }
        false
    }

    /// Garbage-collects aggregator nodes that no task can reach any more:
    /// policy aggregates (and per-job unscheduled aggregators of jobs with
    /// no tasks left in the graph) with zero incoming arcs and no flow on
    /// their outgoing arcs. Runs to a fixpoint, so removing a hierarchy
    /// root frees its (now unreachable) descendants in the same refresh.
    /// Nodes still carrying stale solver flow are left for a later round —
    /// the next adopted solve rebalances them. Collected aggregates are
    /// rematerialized on demand if a model names them again.
    fn collect_dead_aggregates(&mut self) -> Result<usize, PolicyError> {
        let mut collected = 0usize;
        loop {
            let mut victim_aggs: Vec<AggregateId> = self
                .agg_nodes
                .iter()
                .filter(|(_, &n)| self.node_is_collectable(n))
                .map(|(&a, _)| a)
                .collect();
            let mut victim_jobs: Vec<JobId> = self
                .base
                .unsched_nodes
                .iter()
                .filter(|(j, &n)| {
                    !self.live_job_tasks.contains_key(j) && self.node_is_collectable(n)
                })
                .map(|(&j, _)| j)
                .collect();
            if victim_aggs.is_empty() && victim_jobs.is_empty() {
                break;
            }
            victim_aggs.sort_unstable();
            victim_jobs.sort_unstable();
            let victim_set: HashSet<AggregateId> = victim_aggs.iter().copied().collect();
            for &agg in &victim_aggs {
                let n = self
                    .agg_nodes
                    .remove(&agg)
                    .expect("victim came from agg_nodes");
                self.base.graph.remove_node(n)?;
                self.agg_agg_arcs.remove(&agg);
                self.dirty_aggs.remove(&agg);
                collected += 1;
            }
            // One sweep over the arc maps for the whole batch, so mass GC
            // (draining many per-job aggregates at once) stays linear in
            // map size instead of victims × map size.
            if !victim_set.is_empty() {
                for arcs in self.agg_agg_arcs.values_mut() {
                    arcs.retain(|c, _| !victim_set.contains(c));
                }
                for arcs in self.machine_agg_arcs.values_mut() {
                    arcs.retain(|a, _| !victim_set.contains(a));
                }
            }
            for job in victim_jobs {
                let n = self
                    .base
                    .unsched_nodes
                    .remove(&job)
                    .expect("victim came from unsched_nodes");
                self.base.unsched_sink_arcs.remove(&job);
                self.base.graph.remove_node(n)?;
                collected += 1;
            }
        }
        Ok(collected)
    }

    /// A node is collectable when nothing can send it flow — every
    /// incoming forward arc is parked at capacity 0 (e.g. the stale EC→EC
    /// arc of a rack whose machines all departed) — and no incident arc
    /// carries flow (so removal cannot unbalance a warm-started solve).
    fn node_is_collectable(&self, n: NodeId) -> bool {
        let g = &self.base.graph;
        g.adj(n).iter().all(|&a| {
            let fwd = a.forward();
            if a.is_forward() {
                g.flow(fwd) == 0
            } else {
                g.capacity(fwd) == 0 && g.flow(fwd) == 0
            }
        })
    }

    /// Re-derives waiting tasks' declared arc sets from the model —
    /// called on machine-set changes, whose fallout (dead block replicas,
    /// new preference targets) is not limited to displaced tasks. This is
    /// what keeps the incremental graph identical to a from-scratch
    /// rebuild across machine churn; the differential fuzz suite pins it.
    ///
    /// For models whose task arcs are **machine-local**
    /// ([`CostModel::task_arcs_machine_local`]), re-derivation is
    /// narrowed to the waiting tasks whose declared targets reference the
    /// `touched` machine id — every other task's declaration cannot have
    /// changed, by the model's own contract.
    fn resync_waiting_arcs<C: CostModel>(
        &mut self,
        model: &C,
        state: &ClusterState,
        touched: Option<MachineId>,
    ) -> Result<(), PolicyError> {
        let narrow = model.task_arcs_machine_local();
        let mut waiting: Vec<TaskId> = state.waiting_tasks().map(|t| t.id).collect();
        waiting.sort_unstable();
        for tid in waiting {
            if narrow {
                if let Some(m) = touched {
                    let skip = match self.task_slots.get(&tid) {
                        // A cached declaration that never references the
                        // touched machine cannot have changed — the
                        // machine-local contract.
                        Some(slots) => !slots.iter().any(|(t, _)| *t == ArcTarget::Machine(m)),
                        // No cached declaration: the task just became
                        // waiting (displaced by this very machine
                        // removal) and must derive its arc set from
                        // scratch regardless of narrowing.
                        None => false,
                    };
                    if skip {
                        continue;
                    }
                }
            }
            if !self.base.task_table.contains(tid) {
                continue;
            }
            self.strip_task_arcs(tid)?;
            self.add_waiting_arcs(model, state, &state.tasks[&tid])?;
            self.dirty_tasks.insert(tid);
            self.stats.waiting_rederived += 1;
        }
        Ok(())
    }

    /// Materializes the waiting arc set a model declares for `task`:
    /// aggregate targets are created on demand (together with their
    /// machine arcs); machine targets absent from the cluster are
    /// recorded with empty slot vectors so they materialize when the
    /// machine arrives (and so machine-local narrowing can find their
    /// tasks). Duplicate target declarations keep the first bundle.
    fn add_waiting_arcs<C: CostModel>(
        &mut self,
        model: &C,
        state: &ClusterState,
        task: &firmament_cluster::Task,
    ) -> Result<(), PolicyError> {
        let declared = declare_task_arcs(model, state, task)?;
        self.install_waiting_arcs(model, state, task, declared)
    }

    /// The materialization half of [`add_waiting_arcs`](Self::add_waiting_arcs),
    /// taking an already-deduplicated, already-validated declaration (so
    /// callers that computed one — the dynamic re-price fallback — don't
    /// pay a second `task_arcs` query).
    fn install_waiting_arcs<C: CostModel>(
        &mut self,
        model: &C,
        state: &ClusterState,
        task: &firmament_cluster::Task,
        declared: Vec<(ArcTarget, ArcBundle)>,
    ) -> Result<(), PolicyError> {
        let t = self
            .base
            .task_node(task.id)
            .ok_or(PolicyError::UnknownTask(task.id))?;
        let mut entry: Vec<(ArcTarget, Vec<ArcId>)> = Vec::with_capacity(declared.len());
        for (target, bundle) in declared {
            let dst = match target {
                ArcTarget::Aggregate(agg) => {
                    Some(self.ensure_aggregate(model, state, agg, &mut Vec::new())?)
                }
                // An absent machine keeps empty slots: the parked
                // reference lets arrival re-derivation find this task.
                ArcTarget::Machine(mid) => self.base.machine_node(mid),
            };
            let mut slots = Vec::new();
            if let Some(dst) = dst {
                sync_bundle(
                    &mut self.base.graph,
                    &mut slots,
                    t,
                    dst,
                    Some(&bundle),
                    false,
                )?;
            }
            entry.push((target, slots));
        }
        self.task_slots.insert(task.id, entry);
        Ok(())
    }

    /// Returns (creating if needed) the node for a policy-defined
    /// aggregate. On creation, the aggregate's machine bundles are
    /// materialized by querying the model for every known machine, and its
    /// EC→EC children (declared via
    /// [`CostModel::aggregate_to_aggregate`]) are materialized
    /// recursively; `stack` holds the aggregates under materialization.
    /// Fails with [`PolicyError::AggregateCycle`] if the declared
    /// hierarchy is not a DAG.
    fn ensure_aggregate<C: CostModel>(
        &mut self,
        model: &C,
        state: &ClusterState,
        agg: AggregateId,
        stack: &mut Vec<AggregateId>,
    ) -> Result<NodeId, PolicyError> {
        // The stack check must precede the node lookup: an aggregate under
        // materialization is already in `agg_nodes`, and reaching it again
        // through its own descendants is exactly the cycle case.
        if stack.contains(&agg) {
            return Err(PolicyError::AggregateCycle(agg));
        }
        if let Some(&n) = self.agg_nodes.get(&agg) {
            return Ok(n);
        }
        stack.push(agg);
        let an = self.base.graph.add_node(model.aggregate_kind(agg), 0);
        self.agg_nodes.insert(agg, an);
        let dynamic = model.dynamic_aggregate_arcs();
        let mut machines: Vec<MachineId> = self.base.machine_nodes.keys().copied().collect();
        machines.sort_unstable();
        for mid in machines {
            let Some(machine) = state.machines.get(&mid) else {
                continue;
            };
            // A new aggregate has no slots to withdraw.
            if let Some(bundle) = declare_aggregate_arc(model, state, agg, machine)? {
                self.sync_machine_bundle(agg, mid, Some(&bundle), dynamic)?;
            }
        }
        self.sync_aggregate_children(model, state, agg, stack)?;
        stack.pop();
        Ok(an)
    }

    /// Syncs `agg`'s bundle to machine `mid` with an already validated
    /// declaration, keeping the slot map entry only while it holds slots —
    /// the aggregate → machine step of machine arrival, aggregate
    /// materialization and the refresh.
    fn sync_machine_bundle(
        &mut self,
        agg: AggregateId,
        mid: MachineId,
        declared: Option<&ArcBundle>,
        dynamic: bool,
    ) -> Result<(), PolicyError> {
        // Most aggregates reach few machines: skip the map for a pair
        // with neither slots nor anything to materialize.
        if declared_segments(declared, dynamic).is_empty()
            && self.aggregate_machine_slots(agg, mid).is_none()
        {
            return Ok(());
        }
        let (Some(&an), Some(mn)) = (self.agg_nodes.get(&agg), self.base.machine_node(mid)) else {
            return Ok(());
        };
        let arcs = self.machine_agg_arcs.entry(mid).or_default();
        sync_entry(&mut self.base.graph, arcs, agg, an, mn, declared, dynamic)
    }

    /// Strips a task down to its `T → U_j` arc and forgets its declared
    /// slots: the first step of every change to a task's arc set.
    fn strip_task_arcs(&mut self, task: TaskId) -> Result<(), PolicyError> {
        let entry = self
            .base
            .task_table
            .get(task)
            .ok_or(PolicyError::UnknownTask(task))?;
        let u = self.base.graph.dst(entry.unsched_arc);
        self.base
            .retain_out_arcs(entry.node, move |_, dst| dst == u)?;
        self.task_slots.remove(&task);
        Ok(())
    }
}

/// Re-prices a task's `T → U_j` arc with the model's current unscheduled
/// cost. Returns the task, or `None` (and leaves the arc alone) when the
/// cluster state no longer knows it.
fn reprice_unscheduled<'s, C: CostModel>(
    graph: &mut FlowGraph,
    model: &C,
    state: &'s ClusterState,
    tid: TaskId,
    entry: TaskEntry,
) -> Result<Option<&'s firmament_cluster::Task>, PolicyError> {
    let Some(task) = state.tasks.get(&tid) else {
        return Ok(None);
    };
    graph.set_arc_cost(entry.unsched_arc, model.task_unscheduled_cost(state, task))?;
    Ok(Some(task))
}

/// The smallest task id listed more than once in a submission, if any.
/// Submissions usually list ids in ascending order, which is checked
/// without allocating.
fn repeated_id(tasks: &[firmament_cluster::Task]) -> Option<TaskId> {
    if tasks.windows(2).all(|w| w[0].id < w[1].id) {
        return None;
    }
    let mut ids: Vec<TaskId> = tasks.iter().map(|t| t.id).collect();
    ids.sort_unstable();
    ids.windows(2).find(|w| w[0] == w[1]).map(|w| w[0])
}

/// An aggregate's declared bundle to `machine`, validated. Validation
/// precedes the sync's capacity filter, so a non-convex declaration is
/// rejected even while a dynamic model withdraws it (the bug is in the
/// model, not the load).
fn declare_aggregate_arc<C: CostModel>(
    model: &C,
    state: &ClusterState,
    agg: AggregateId,
    machine: &firmament_cluster::Machine,
) -> Result<Option<ArcBundle>, PolicyError> {
    let bundle = model.aggregate_arc(state, agg, machine);
    if let Some(b) = &bundle {
        validate_bundle("aggregate_arc", b)?;
    }
    Ok(bundle)
}

/// A task's declared waiting arc set, deduplicated and validated — what
/// [`FlowGraphManager::install_waiting_arcs`] materializes.
fn declare_task_arcs<C: CostModel>(
    model: &C,
    state: &ClusterState,
    task: &firmament_cluster::Task,
) -> Result<Vec<(ArcTarget, ArcBundle)>, PolicyError> {
    let declared = dedup_targets(model.task_arcs(state, task));
    for (_, bundle) in &declared {
        validate_bundle("task_arcs", bundle)?;
    }
    Ok(declared)
}

/// Deduplicates a declared target list, keeping the first bundle per
/// target (declaration order preserved) — the bundle-era equivalent of
/// the old "skip if an arc to this destination already exists" guard.
fn dedup_targets(declared: Vec<(ArcTarget, ArcBundle)>) -> Vec<(ArcTarget, ArcBundle)> {
    let mut seen: HashSet<ArcTarget> = HashSet::with_capacity(declared.len());
    declared
        .into_iter()
        .filter(|(t, _)| seen.insert(*t))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use firmament_cluster::{Job, JobClass, Machine, Task, TopologySpec};
    use firmament_flow::delta::GraphDelta;
    use firmament_policies::{ArcBundle, ArcSpec};

    #[test]
    fn base_bookkeeping_roundtrip() {
        let mut b = GraphBase::new();
        let m = b.add_machine(0, 4).unwrap();
        let t = b.add_task(10, 0, 50).unwrap();
        assert_eq!(b.graph.supply(b.sink()), -1);
        assert_eq!(b.machine_node(0), Some(m));
        assert_eq!(b.task_node(10), Some(t));
        // Unscheduled agg exists with capacity 1.
        let ua = b.unsched_sink_arcs[&0];
        assert_eq!(b.graph.capacity(ua), 1);

        b.remove_task(10, 0).unwrap();
        assert_eq!(b.graph.supply(b.sink()), 0);
        assert_eq!(b.graph.capacity(ua), 0);
        assert!(b.task_node(10).is_none());
        b.remove_machine(0).unwrap();
        assert!(b.machine_node(0).is_none());
    }

    #[test]
    fn duplicate_rejected() {
        let mut b = GraphBase::new();
        b.add_machine(0, 1).unwrap();
        assert!(matches!(
            b.add_machine(0, 1),
            Err(PolicyError::DuplicateMachine(0))
        ));
        b.add_task(5, 0, 10).unwrap();
        assert!(matches!(
            b.add_task(5, 0, 10),
            Err(PolicyError::DuplicateTask(5))
        ));
    }

    #[test]
    fn unscheduled_shared_per_job() {
        let mut b = GraphBase::new();
        b.add_task(1, 7, 10).unwrap();
        b.add_task(2, 7, 10).unwrap();
        assert_eq!(b.unsched_nodes.len(), 1);
        let ua = b.unsched_sink_arcs[&7];
        assert_eq!(b.graph.capacity(ua), 2);
    }

    /// A minimal cost model for manager tests: one cluster aggregate,
    /// machine cost = running task count (single-segment bundle).
    struct TestModel;
    const AGG: AggregateId = 0;

    impl CostModel for TestModel {
        fn name(&self) -> &'static str {
            "test"
        }
        fn task_unscheduled_cost(&self, state: &ClusterState, task: &Task) -> i64 {
            10_000 + (state.now.saturating_sub(task.submit_time) / 1_000_000) as i64
        }
        fn task_arcs(&self, _: &ClusterState, _: &Task) -> Vec<(ArcTarget, ArcBundle)> {
            vec![(ArcTarget::Aggregate(AGG), ArcBundle::cost(1))]
        }
        fn aggregate_arc(
            &self,
            _: &ClusterState,
            _: AggregateId,
            machine: &Machine,
        ) -> Option<ArcBundle> {
            Some(ArcBundle::single(
                machine.slots as i64,
                10 * machine.running.len() as i64,
            ))
        }
        fn aggregate_kind(&self, _: AggregateId) -> NodeKind {
            NodeKind::ClusterAggregator
        }
    }

    fn setup(machines: usize, slots: u32) -> (ClusterState, FlowGraphManager) {
        let state = ClusterState::with_topology(&TopologySpec {
            machines,
            machines_per_rack: 20,
            slots_per_machine: slots,
        });
        let mut mgr = FlowGraphManager::new();
        for m in state.machines.values() {
            mgr.apply_event(
                &TestModel,
                &state,
                &ClusterEvent::MachineAdded { machine: m.clone() },
            )
            .unwrap();
        }
        (state, mgr)
    }

    fn submit(state: &mut ClusterState, mgr: &mut FlowGraphManager, job: u64, n: usize) {
        let j = Job::new(job, JobClass::Batch, 0, state.now);
        let tasks: Vec<Task> = (0..n)
            .map(|i| Task::new(job * 1000 + i as u64, job, state.now, 10_000_000))
            .collect();
        let ev = ClusterEvent::JobSubmitted { job: j, tasks };
        state.apply(&ev);
        mgr.apply_event(&TestModel, state, &ev).unwrap();
    }

    #[test]
    fn aggregates_materialize_on_demand_with_machine_arcs() {
        let (mut state, mut mgr) = setup(4, 2);
        assert!(mgr.aggregate_node(AGG).is_none(), "lazy until referenced");
        submit(&mut state, &mut mgr, 0, 3);
        let agg = mgr.aggregate_node(AGG).expect("created by first task");
        // Arc to each of the 4 machines.
        let out = mgr
            .graph()
            .adj(agg)
            .iter()
            .copied()
            .filter(|a| a.is_forward())
            .count();
        assert_eq!(out, 4);
        // sink + 4 machines + agg + 3 tasks + U_0 = 10 nodes.
        assert_eq!(mgr.graph().node_count(), 10);
        assert_eq!(mgr.graph().total_supply(), 3);
    }

    #[test]
    fn task_lifecycle_updates_arcs() {
        let (mut state, mut mgr) = setup(2, 2);
        submit(&mut state, &mut mgr, 0, 1);
        let tid = 0u64;
        assert!(mgr.task_arc_slots(tid).is_some(), "waiting task has slots");
        let ev = ClusterEvent::TaskPlaced {
            task: tid,
            machine: 0,
            now: 100,
        };
        state.apply(&ev);
        mgr.apply_event(&TestModel, &state, &ev).unwrap();
        assert!(
            mgr.task_arc_slots(tid).is_none(),
            "running task keeps no waiting slots"
        );
        let t = mgr.task_node(tid).unwrap();
        let g = mgr.graph();
        let out: Vec<_> = g
            .adj(t)
            .iter()
            .copied()
            .filter(|&a| a.is_forward())
            .map(|a| g.kind(g.dst(a)))
            .collect();
        assert_eq!(out.len(), 2, "running arc + unscheduled arc");
        assert!(out.iter().any(|k| k.is_machine()));
        assert!(out.iter().any(|k| k.is_unscheduled()));

        let ev = ClusterEvent::TaskPreempted {
            task: tid,
            now: 200,
        };
        state.apply(&ev);
        mgr.apply_event(&TestModel, &state, &ev).unwrap();
        assert!(mgr.task_arc_slots(tid).is_some(), "waiting slots restored");
        let g = mgr.graph();
        let out: Vec<_> = g
            .adj(t)
            .iter()
            .copied()
            .filter(|&a| a.is_forward())
            .map(|a| g.kind(g.dst(a)))
            .collect();
        assert!(out.iter().any(|k| matches!(k, NodeKind::ClusterAggregator)));

        let ev = ClusterEvent::TaskPlaced {
            task: tid,
            machine: 1,
            now: 300,
        };
        state.apply(&ev);
        mgr.apply_event(&TestModel, &state, &ev).unwrap();
        let ev = ClusterEvent::TaskCompleted {
            task: tid,
            now: 400,
        };
        state.apply(&ev);
        mgr.apply_event(&TestModel, &state, &ev).unwrap();
        assert!(mgr.task_node(tid).is_none());
        assert_eq!(mgr.graph().total_supply(), 0);
    }

    #[test]
    fn refresh_tracks_running_counts_on_dirty_machines() {
        let (mut state, mut mgr) = setup(2, 2);
        // Three tasks; two get placed, one keeps waiting so the aggregate
        // retains task in-degree (and survives garbage collection).
        submit(&mut state, &mut mgr, 0, 3);
        for (tid, m) in [(0u64, 0u64), (1, 0)] {
            let ev = ClusterEvent::TaskPlaced {
                task: tid,
                machine: m,
                now: 0,
            };
            state.apply(&ev);
            mgr.apply_event(&TestModel, &state, &ev).unwrap();
        }
        mgr.refresh(&TestModel, &state).unwrap();
        let agg = mgr.aggregate_node(AGG).unwrap();
        let g = mgr.graph();
        let mut costs: Vec<(u64, i64)> = g
            .adj(agg)
            .iter()
            .copied()
            .filter(|&a| a.is_forward())
            .filter_map(|a| match g.kind(g.dst(a)) {
                NodeKind::Machine { machine } => Some((machine, g.cost(a))),
                _ => None,
            })
            .collect();
        costs.sort();
        assert_eq!(costs, vec![(0, 20), (1, 0)]);
    }

    #[test]
    fn quiescent_refresh_touches_nothing() {
        let (mut state, mut mgr) = setup(3, 2);
        submit(&mut state, &mut mgr, 0, 2);
        mgr.refresh(&TestModel, &state).unwrap();
        assert!(mgr.stats().last_tasks_touched > 0);
        // Same state, same clock: the two-pass update finds no dirty nodes.
        mgr.refresh(&TestModel, &state).unwrap();
        assert_eq!(mgr.stats().last_machines_touched, 0);
        assert_eq!(mgr.stats().last_tasks_touched, 0);
    }

    #[test]
    fn machine_removal_rebuilds_displaced_waiting_arcs() {
        let (mut state, mut mgr) = setup(2, 1);
        submit(&mut state, &mut mgr, 0, 1);
        let ev = ClusterEvent::TaskPlaced {
            task: 0,
            machine: 0,
            now: 10,
        };
        state.apply(&ev);
        mgr.apply_event(&TestModel, &state, &ev).unwrap();
        let ev = ClusterEvent::MachineRemoved {
            machine: 0,
            now: 20,
        };
        state.apply(&ev);
        mgr.apply_event(&TestModel, &state, &ev).unwrap();
        // The displaced task got its aggregate arc back.
        let t = mgr.task_node(0).unwrap();
        let agg = mgr.aggregate_node(AGG).unwrap();
        assert!(mgr.base().find_arc(t, agg).is_some());
    }

    #[test]
    fn take_and_adopt_graph_roundtrip() {
        let (mut state, mut mgr) = setup(2, 1);
        submit(&mut state, &mut mgr, 0, 1);
        let nodes = mgr.graph().node_count();
        let g = mgr.take_graph();
        assert_eq!(mgr.graph().node_count(), 0);
        mgr.adopt_graph(g);
        assert_eq!(mgr.graph().node_count(), nodes);
    }

    // ------------------------------------------------------------------
    // Convex bundle behavior
    // ------------------------------------------------------------------

    /// A ladder model: per-slot segments priced by standing load.
    struct LadderModel;

    impl CostModel for LadderModel {
        fn name(&self) -> &'static str {
            "ladder-test"
        }
        fn task_unscheduled_cost(&self, _: &ClusterState, _: &Task) -> i64 {
            100_000
        }
        fn task_arcs(&self, _: &ClusterState, _: &Task) -> Vec<(ArcTarget, ArcBundle)> {
            vec![(ArcTarget::Aggregate(AGG), ArcBundle::cost(1))]
        }
        fn aggregate_arc(
            &self,
            _: &ClusterState,
            _: AggregateId,
            machine: &Machine,
        ) -> Option<ArcBundle> {
            let running = machine.running.len() as i64;
            Some(ArcBundle::ladder(
                (0..machine.slots as i64).map(|j| 10 * (running + j)),
            ))
        }
        fn aggregate_kind(&self, _: AggregateId) -> NodeKind {
            NodeKind::ClusterAggregator
        }
    }

    #[test]
    fn ladder_bundle_materializes_parallel_segment_arcs() {
        let state = ClusterState::with_topology(&TopologySpec {
            machines: 2,
            machines_per_rack: 20,
            slots_per_machine: 3,
        });
        let mut state = state;
        let mut mgr = FlowGraphManager::new();
        let mut ms: Vec<_> = state.machines.values().cloned().collect();
        ms.sort_by_key(|m| m.id);
        for m in ms {
            mgr.apply_event(
                &LadderModel,
                &state,
                &ClusterEvent::MachineAdded { machine: m },
            )
            .unwrap();
        }
        let j = Job::new(0, JobClass::Batch, 0, 0);
        let ev = ClusterEvent::JobSubmitted {
            job: j,
            tasks: vec![Task::new(0, 0, 0, 1_000_000)],
        };
        state.apply(&ev);
        mgr.apply_event(&LadderModel, &state, &ev).unwrap();
        let slots = mgr.aggregate_machine_slots(AGG, 0).expect("bundle slots");
        assert_eq!(slots.len(), 3, "one arc per segment");
        let g = mgr.graph();
        let costs: Vec<i64> = slots.iter().map(|&a| g.cost(a)).collect();
        assert_eq!(costs, vec![0, 10, 20]);
        assert!(slots.iter().all(|&a| g.capacity(a) == 1));
        // All three arcs are parallel aggregate → machine-0 arcs.
        let an = mgr.aggregate_node(AGG).unwrap();
        let mn = mgr.machine_node(0).unwrap();
        assert!(slots.iter().all(|&a| g.src(a) == an && g.dst(a) == mn));
    }

    #[test]
    fn repricing_a_segment_is_slot_stable_and_structural_free() {
        let (mut state, mut mgr) = {
            let state = ClusterState::with_topology(&TopologySpec {
                machines: 2,
                machines_per_rack: 20,
                slots_per_machine: 2,
            });
            let mut mgr = FlowGraphManager::new();
            let mut ms: Vec<_> = state.machines.values().cloned().collect();
            ms.sort_by_key(|m| m.id);
            for m in ms {
                mgr.apply_event(
                    &LadderModel,
                    &state,
                    &ClusterEvent::MachineAdded { machine: m },
                )
                .unwrap();
            }
            (state, mgr)
        };
        let j = Job::new(0, JobClass::Batch, 0, 0);
        let tasks: Vec<Task> = (0..2).map(|i| Task::new(i, 0, 0, 1_000_000)).collect();
        let ev = ClusterEvent::JobSubmitted { job: j, tasks };
        state.apply(&ev);
        mgr.apply_event(&LadderModel, &state, &ev).unwrap();
        let before: Vec<ArcId> = mgr.aggregate_machine_slots(AGG, 0).unwrap().to_vec();
        mgr.refresh(&LadderModel, &state).unwrap();
        mgr.take_deltas();

        // Place a task on machine 0: its ladder re-prices on refresh.
        let ev = ClusterEvent::TaskPlaced {
            task: 0,
            machine: 0,
            now: 5,
        };
        state.apply(&ev);
        mgr.apply_event(&LadderModel, &state, &ev).unwrap();
        mgr.refresh(&LadderModel, &state).unwrap();
        let after: Vec<ArcId> = mgr.aggregate_machine_slots(AGG, 0).unwrap().to_vec();
        assert_eq!(before, after, "segment slots keep their identity");
        let g = mgr.graph();
        let costs: Vec<i64> = after.iter().map(|&a| g.cost(a)).collect();
        assert_eq!(costs, vec![10, 20], "ladder shifted by the new load");
        // The re-price reached the delta feed as pure cost changes on the
        // machine-0 bundle — no Arc{Added,Removed} for it.
        let batch = mgr.take_deltas();
        let on_bundle = |arc: ArcId| after.contains(&arc);
        assert!(batch
            .deltas()
            .iter()
            .any(|d| matches!(d, GraphDelta::CostChanged { arc, .. } if on_bundle(*arc))));
        assert!(!batch.deltas().iter().any(|d| matches!(
            d,
            GraphDelta::ArcAdded { arc, .. } | GraphDelta::ArcRemoved { arc, .. }
            if on_bundle(*arc)
        )));
    }

    /// Segment count tracks free slots: shrinks when tasks land, grows
    /// when they leave — exercising park/revive in static mode.
    struct ShrinkingLadderModel;

    impl CostModel for ShrinkingLadderModel {
        fn name(&self) -> &'static str {
            "shrinking-ladder"
        }
        fn task_unscheduled_cost(&self, _: &ClusterState, _: &Task) -> i64 {
            100_000
        }
        fn task_arcs(&self, _: &ClusterState, _: &Task) -> Vec<(ArcTarget, ArcBundle)> {
            vec![(ArcTarget::Aggregate(AGG), ArcBundle::cost(1))]
        }
        fn aggregate_arc(
            &self,
            _: &ClusterState,
            _: AggregateId,
            machine: &Machine,
        ) -> Option<ArcBundle> {
            let running = machine.running.len() as i64;
            let free = machine.slots as i64 - running;
            Some(ArcBundle::ladder((0..free).map(|j| 10 * (running + j))))
        }
        fn aggregate_kind(&self, _: AggregateId) -> NodeKind {
            NodeKind::ClusterAggregator
        }
    }

    #[test]
    fn static_bundles_park_and_revive_on_segment_count_changes() {
        let mut state = ClusterState::with_topology(&TopologySpec {
            machines: 1,
            machines_per_rack: 20,
            slots_per_machine: 2,
        });
        let mut mgr = FlowGraphManager::new();
        let m0 = state.machines.values().next().unwrap().clone();
        mgr.apply_event(
            &ShrinkingLadderModel,
            &state,
            &ClusterEvent::MachineAdded { machine: m0 },
        )
        .unwrap();
        let j = Job::new(0, JobClass::Batch, 0, 0);
        let tasks: Vec<Task> = (0..2).map(|i| Task::new(i, 0, 0, 1_000_000)).collect();
        let ev = ClusterEvent::JobSubmitted { job: j, tasks };
        state.apply(&ev);
        mgr.apply_event(&ShrinkingLadderModel, &state, &ev).unwrap();
        let slots: Vec<ArcId> = mgr.aggregate_machine_slots(AGG, 0).unwrap().to_vec();
        assert_eq!(slots.len(), 2);

        // One task lands: the declared ladder shrinks to one segment; the
        // second slot parks at capacity 0 instead of being removed.
        let ev = ClusterEvent::TaskPlaced {
            task: 0,
            machine: 0,
            now: 5,
        };
        state.apply(&ev);
        mgr.apply_event(&ShrinkingLadderModel, &state, &ev).unwrap();
        mgr.refresh(&ShrinkingLadderModel, &state).unwrap();
        let after: Vec<ArcId> = mgr.aggregate_machine_slots(AGG, 0).unwrap().to_vec();
        assert_eq!(after, slots, "slot identity survives the shrink");
        let g = mgr.graph();
        assert_eq!(g.capacity(slots[0]), 1);
        assert_eq!(g.cost(slots[0]), 10, "remaining slot priced at load 1");
        assert_eq!(g.capacity(slots[1]), 0, "tail parked, not removed");

        // The task completes: the ladder grows back, reviving the slot.
        let ev = ClusterEvent::TaskCompleted { task: 0, now: 9 };
        state.apply(&ev);
        mgr.apply_event(&ShrinkingLadderModel, &state, &ev).unwrap();
        mgr.refresh(&ShrinkingLadderModel, &state).unwrap();
        let g = mgr.graph();
        assert_eq!(g.capacity(slots[0]), 1);
        assert_eq!(g.cost(slots[0]), 0);
        assert_eq!(g.capacity(slots[1]), 1, "parked slot revived in place");
        assert_eq!(g.cost(slots[1]), 10);
    }

    /// Capacity-bucketed ladders go through the same stable-slot path as
    /// per-slot ladders: a load re-price patches the same 5 (not 12) arcs
    /// in place and reaches the delta feed as pure `CostChanged` entries —
    /// never structural churn, never capacity churn (bucket capacities
    /// depend only on the slot count).
    #[test]
    fn bucketed_ladder_reprices_as_pure_cost_deltas() {
        use firmament_policies::LoadSpreadingCostModel;
        let mut state = ClusterState::with_topology(&TopologySpec {
            machines: 2,
            machines_per_rack: 20,
            slots_per_machine: 12,
        });
        let model = LoadSpreadingCostModel::bucketed();
        let mut mgr = FlowGraphManager::new();
        let mut ms: Vec<_> = state.machines.values().cloned().collect();
        ms.sort_by_key(|m| m.id);
        for m in ms {
            mgr.apply_event(&model, &state, &ClusterEvent::MachineAdded { machine: m })
                .unwrap();
        }
        let j = Job::new(0, JobClass::Batch, 0, 0);
        let tasks: Vec<Task> = (0..2).map(|i| Task::new(i, 0, 0, 1_000_000)).collect();
        let ev = ClusterEvent::JobSubmitted { job: j, tasks };
        state.apply(&ev);
        mgr.apply_event(&model, &state, &ev).unwrap();
        let slots: Vec<ArcId> = mgr.aggregate_machine_slots(0, 0).unwrap().to_vec();
        assert_eq!(slots.len(), 5, "12 slots → 5 bucketed segments");
        mgr.refresh(&model, &state).unwrap();
        mgr.take_deltas();

        let ev = ClusterEvent::TaskPlaced {
            task: 0,
            machine: 0,
            now: 5,
        };
        state.apply(&ev);
        mgr.apply_event(&model, &state, &ev).unwrap();
        mgr.refresh(&model, &state).unwrap();
        let after: Vec<ArcId> = mgr.aggregate_machine_slots(0, 0).unwrap().to_vec();
        assert_eq!(slots, after, "bucket slots keep their identity");
        let g = mgr.graph();
        let caps: Vec<i64> = after.iter().map(|&a| g.capacity(a)).collect();
        assert_eq!(caps, vec![1, 1, 2, 4, 4], "geometric capacities intact");
        // Ladder shifted up by one standing task (marginal step 10).
        assert_eq!(g.cost(after[0]), 10);
        let batch = mgr.take_deltas();
        let on_bundle = |arc: ArcId| after.contains(&arc);
        assert!(batch
            .deltas()
            .iter()
            .any(|d| matches!(d, GraphDelta::CostChanged { arc, .. } if on_bundle(*arc))));
        assert!(
            !batch.deltas().iter().any(|d| matches!(
                d,
                GraphDelta::ArcAdded { arc, .. }
                    | GraphDelta::ArcRemoved { arc, .. }
                    | GraphDelta::CapacityChanged { arc, .. }
                if on_bundle(*arc)
            )),
            "a bucketed load re-price must be cost-only"
        );
    }

    /// A bucketed ladder whose slot count tracks *free* slots, so every
    /// placement/completion moves the bucket boundaries themselves.
    struct BucketedDriftModel;

    impl CostModel for BucketedDriftModel {
        fn name(&self) -> &'static str {
            "bucketed-drift"
        }
        fn task_unscheduled_cost(&self, _: &ClusterState, _: &Task) -> i64 {
            100_000
        }
        fn task_arcs(&self, _: &ClusterState, _: &Task) -> Vec<(ArcTarget, ArcBundle)> {
            vec![(ArcTarget::Aggregate(AGG), ArcBundle::cost(1))]
        }
        fn aggregate_arc(
            &self,
            _: &ClusterState,
            _: AggregateId,
            machine: &Machine,
        ) -> Option<ArcBundle> {
            let running = machine.running.len() as i64;
            let free = machine.slots as i64 - running;
            Some(ArcBundle::bucketed(free, |j| 10 * (running + j)))
        }
        fn aggregate_kind(&self, _: AggregateId) -> NodeKind {
            NodeKind::ClusterAggregator
        }
    }

    /// Bucket-boundary drift under slot-count churn re-prices in place:
    /// segment capacities and costs are patched on the cached slots (and
    /// the tail parks/revives), with **no** `ArcAdded`/`ArcRemoved` in the
    /// delta feed.
    #[test]
    fn bucketed_boundary_drift_reprices_in_place() {
        let mut state = ClusterState::with_topology(&TopologySpec {
            machines: 1,
            machines_per_rack: 20,
            slots_per_machine: 12,
        });
        let model = BucketedDriftModel;
        let mut mgr = FlowGraphManager::new();
        let m0 = state.machines.values().next().unwrap().clone();
        mgr.apply_event(&model, &state, &ClusterEvent::MachineAdded { machine: m0 })
            .unwrap();
        let j = Job::new(0, JobClass::Batch, 0, 0);
        let tasks: Vec<Task> = (0..6).map(|i| Task::new(i, 0, 0, 1_000_000)).collect();
        let ev = ClusterEvent::JobSubmitted { job: j, tasks };
        state.apply(&ev);
        mgr.apply_event(&model, &state, &ev).unwrap();
        let slots: Vec<ArcId> = mgr.aggregate_machine_slots(AGG, 0).unwrap().to_vec();
        assert_eq!(slots.len(), 5, "12 free slots → 5 buckets");
        mgr.refresh(&model, &state).unwrap();
        mgr.take_deltas();

        // Four placements: free 12 → 8, buckets [1,1,2,4,4] → [1,1,2,4]
        // — the last slot parks, the others re-price/re-size in place.
        for t in 0..4u64 {
            let ev = ClusterEvent::TaskPlaced {
                task: t,
                machine: 0,
                now: 5 + t,
            };
            state.apply(&ev);
            mgr.apply_event(&model, &state, &ev).unwrap();
        }
        mgr.refresh(&model, &state).unwrap();
        let after: Vec<ArcId> = mgr.aggregate_machine_slots(AGG, 0).unwrap().to_vec();
        assert_eq!(slots, after, "boundary drift keeps slot identity");
        let g = mgr.graph();
        let caps: Vec<i64> = after.iter().map(|&a| g.capacity(a)).collect();
        assert_eq!(caps, vec![1, 1, 2, 4, 0], "tail parked, not removed");
        assert_eq!(g.cost(after[0]), 40, "ladder re-anchored at load 4");
        let batch = mgr.take_deltas();
        // The placements themselves rewire task arcs (legitimate structural
        // deltas); the *bundle* slots must only see cost/capacity patches.
        let on_bundle = |arc: ArcId| after.contains(&arc);
        assert!(
            !batch.deltas().iter().any(|d| matches!(
                d,
                GraphDelta::ArcAdded { arc, .. } | GraphDelta::ArcRemoved { arc, .. }
                if on_bundle(*arc)
            )),
            "drifted boundaries must not churn bundle structure: {:?}",
            batch.deltas()
        );
        assert!(batch
            .deltas()
            .iter()
            .any(|d| matches!(d, GraphDelta::CostChanged { arc, .. } if on_bundle(*arc))));
        assert!(batch
            .deltas()
            .iter()
            .any(|d| matches!(d, GraphDelta::CapacityChanged { arc, .. } if on_bundle(*arc))));

        // Completions drift the boundaries back; the parked slot revives.
        for t in 0..4u64 {
            let ev = ClusterEvent::TaskCompleted {
                task: t,
                now: 20 + t,
            };
            state.apply(&ev);
            mgr.apply_event(&model, &state, &ev).unwrap();
        }
        mgr.refresh(&model, &state).unwrap();
        let revived: Vec<ArcId> = mgr.aggregate_machine_slots(AGG, 0).unwrap().to_vec();
        assert_eq!(slots, revived);
        let g = mgr.graph();
        let caps: Vec<i64> = revived.iter().map(|&a| g.capacity(a)).collect();
        assert_eq!(caps, vec![1, 1, 2, 4, 4], "full ladder revived in place");
        assert_eq!(g.cost(revived[0]), 0);
    }

    /// Models that declare decreasing-cost ladders are rejected with the
    /// typed error, from every hook.
    struct NonConvexModel {
        from: &'static str,
    }

    impl CostModel for NonConvexModel {
        fn name(&self) -> &'static str {
            "non-convex"
        }
        fn task_unscheduled_cost(&self, _: &ClusterState, _: &Task) -> i64 {
            1
        }
        fn task_arcs(&self, _: &ClusterState, _: &Task) -> Vec<(ArcTarget, ArcBundle)> {
            let bundle = if self.from == "task_arcs" {
                ArcBundle::ladder([5, 3])
            } else {
                ArcBundle::cost(0)
            };
            vec![(ArcTarget::Aggregate(AGG), bundle)]
        }
        fn aggregate_arc(
            &self,
            _: &ClusterState,
            aggregate: AggregateId,
            machine: &Machine,
        ) -> Option<ArcBundle> {
            if aggregate != AGG {
                return None;
            }
            Some(if self.from == "aggregate_arc" {
                ArcBundle::ladder([9, 2])
            } else {
                ArcBundle::single(machine.slots as i64, 0)
            })
        }
        fn aggregate_to_aggregate(
            &self,
            _: &ClusterState,
            aggregate: AggregateId,
        ) -> Vec<(AggregateId, ArcBundle)> {
            if self.from == "aggregate_to_aggregate" && aggregate == AGG {
                vec![(7, ArcBundle::ladder([4, 1]))]
            } else {
                Vec::new()
            }
        }
    }

    #[test]
    fn non_convex_bundles_rejected_from_every_hook() {
        for from in ["task_arcs", "aggregate_arc", "aggregate_to_aggregate"] {
            let model = NonConvexModel { from };
            let mut state = ClusterState::with_topology(&TopologySpec {
                machines: 1,
                machines_per_rack: 20,
                slots_per_machine: 2,
            });
            let mut mgr = FlowGraphManager::new();
            let m0 = state.machines.values().next().unwrap().clone();
            mgr.apply_event(&model, &state, &ClusterEvent::MachineAdded { machine: m0 })
                .unwrap();
            let j = Job::new(0, JobClass::Batch, 0, 0);
            let ev = ClusterEvent::JobSubmitted {
                job: j,
                tasks: vec![Task::new(0, 0, 0, 1_000_000)],
            };
            state.apply(&ev);
            let err = mgr.apply_event(&model, &state, &ev);
            assert!(
                matches!(
                    err,
                    Err(PolicyError::NonConvexBundle { hook, .. }) if hook == from
                ),
                "{from}: expected NonConvexBundle, got {err:?}"
            );
        }
    }

    // ------------------------------------------------------------------
    // Dynamic task-arc re-pricing
    // ------------------------------------------------------------------

    /// Preference costs decay with wait time (e.g. locality that matters
    /// less the longer a task starves): the dynamic_task_arcs hook lets
    /// the refresh patch them without structural events.
    struct DecayingPrefModel;

    impl CostModel for DecayingPrefModel {
        fn name(&self) -> &'static str {
            "decaying-pref"
        }
        fn task_unscheduled_cost(&self, _: &ClusterState, _: &Task) -> i64 {
            100_000
        }
        fn task_arcs(&self, state: &ClusterState, task: &Task) -> Vec<(ArcTarget, ArcBundle)> {
            let wait_sec = state.now.saturating_sub(task.submit_time) / 1_000_000;
            // The machine preference fades as the task waits.
            vec![
                (ArcTarget::Aggregate(AGG), ArcBundle::cost(50)),
                (
                    ArcTarget::Machine(0),
                    ArcBundle::cost((40i64 - wait_sec as i64).max(0)),
                ),
            ]
        }
        fn aggregate_arc(
            &self,
            _: &ClusterState,
            _: AggregateId,
            machine: &Machine,
        ) -> Option<ArcBundle> {
            Some(ArcBundle::single(machine.slots as i64, 0))
        }
        fn aggregate_kind(&self, _: AggregateId) -> NodeKind {
            NodeKind::ClusterAggregator
        }
        fn dynamic_task_arcs(&self) -> bool {
            true
        }
    }

    #[test]
    fn dynamic_task_arcs_reprice_in_place_on_clock_advance() {
        let mut state = ClusterState::with_topology(&TopologySpec {
            machines: 2,
            machines_per_rack: 20,
            slots_per_machine: 1,
        });
        let mut mgr = FlowGraphManager::new();
        let mut ms: Vec<_> = state.machines.values().cloned().collect();
        ms.sort_by_key(|m| m.id);
        for m in ms {
            mgr.apply_event(
                &DecayingPrefModel,
                &state,
                &ClusterEvent::MachineAdded { machine: m },
            )
            .unwrap();
        }
        let j = Job::new(0, JobClass::Batch, 0, 0);
        let ev = ClusterEvent::JobSubmitted {
            job: j,
            tasks: vec![Task::new(0, 0, 0, 60_000_000)],
        };
        state.apply(&ev);
        mgr.apply_event(&DecayingPrefModel, &state, &ev).unwrap();
        mgr.refresh(&DecayingPrefModel, &state).unwrap();
        let slots_before: Vec<(ArcTarget, Vec<ArcId>)> = mgr.task_arc_slots(0).unwrap().to_vec();
        let pref = slots_before
            .iter()
            .find(|(t, _)| *t == ArcTarget::Machine(0))
            .unwrap()
            .1[0];
        assert_eq!(mgr.graph().cost(pref), 40);

        // 10 seconds pass: the preference cost decays — in place.
        let ev = ClusterEvent::Tick { now: 10_000_000 };
        state.apply(&ev);
        mgr.apply_event(&DecayingPrefModel, &state, &ev).unwrap();
        mgr.take_deltas();
        mgr.refresh(&DecayingPrefModel, &state).unwrap();
        assert_eq!(
            mgr.task_arc_slots(0).unwrap().to_vec(),
            slots_before,
            "re-pricing must not rebuild the arc set"
        );
        assert_eq!(mgr.graph().cost(pref), 30, "decayed by 10s");
        // And the batch carries no structural deltas for the task arcs.
        let batch = mgr.take_deltas();
        assert!(!batch.deltas().iter().any(|d| matches!(
            d,
            GraphDelta::ArcAdded { .. } | GraphDelta::ArcRemoved { .. }
        )));
    }

    /// Target-set drift under dynamic_task_arcs forces a full re-derive.
    struct TargetDriftModel;

    impl CostModel for TargetDriftModel {
        fn name(&self) -> &'static str {
            "target-drift"
        }
        fn task_unscheduled_cost(&self, _: &ClusterState, _: &Task) -> i64 {
            100_000
        }
        fn task_arcs(&self, state: &ClusterState, _: &Task) -> Vec<(ArcTarget, ArcBundle)> {
            // After 5 s the task also wants a second aggregate.
            let mut arcs = vec![(ArcTarget::Aggregate(AGG), ArcBundle::cost(1))];
            if state.now >= 5_000_000 {
                arcs.push((ArcTarget::Aggregate(77), ArcBundle::cost(3)));
            }
            arcs
        }
        fn aggregate_arc(
            &self,
            _: &ClusterState,
            _: AggregateId,
            machine: &Machine,
        ) -> Option<ArcBundle> {
            Some(ArcBundle::single(machine.slots as i64, 0))
        }
        fn dynamic_task_arcs(&self) -> bool {
            true
        }
    }

    #[test]
    fn dynamic_task_arcs_rebuild_on_target_set_change() {
        let mut state = ClusterState::with_topology(&TopologySpec {
            machines: 1,
            machines_per_rack: 20,
            slots_per_machine: 1,
        });
        let mut mgr = FlowGraphManager::new();
        let m0 = state.machines.values().next().unwrap().clone();
        mgr.apply_event(
            &TargetDriftModel,
            &state,
            &ClusterEvent::MachineAdded { machine: m0 },
        )
        .unwrap();
        let j = Job::new(0, JobClass::Batch, 0, 0);
        let ev = ClusterEvent::JobSubmitted {
            job: j,
            tasks: vec![Task::new(0, 0, 0, 60_000_000)],
        };
        state.apply(&ev);
        mgr.apply_event(&TargetDriftModel, &state, &ev).unwrap();
        assert_eq!(mgr.task_arc_slots(0).unwrap().len(), 1);
        assert!(mgr.aggregate_node(77).is_none());

        let ev = ClusterEvent::Tick { now: 6_000_000 };
        state.apply(&ev);
        mgr.apply_event(&TargetDriftModel, &state, &ev).unwrap();
        mgr.refresh(&TargetDriftModel, &state).unwrap();
        let slots = mgr.task_arc_slots(0).unwrap();
        assert_eq!(slots.len(), 2, "new target materialized");
        assert!(mgr.aggregate_node(77).is_some());
    }

    // ------------------------------------------------------------------
    // Hierarchies (EC→EC)
    // ------------------------------------------------------------------

    /// A two-level hierarchy for manager tests: root `X` → per-rack
    /// aggregates → machines of that rack (no direct X→machine arcs).
    struct HierModel;
    const ROOT: AggregateId = 100;
    fn rack_of(agg: AggregateId) -> u32 {
        (agg - 200) as u32
    }
    fn hier_rack_agg(rack: u32) -> AggregateId {
        200 + rack as AggregateId
    }

    impl CostModel for HierModel {
        fn name(&self) -> &'static str {
            "hier-test"
        }
        fn task_unscheduled_cost(&self, _: &ClusterState, _: &Task) -> i64 {
            100_000
        }
        fn task_arcs(&self, _: &ClusterState, _: &Task) -> Vec<(ArcTarget, ArcBundle)> {
            vec![(ArcTarget::Aggregate(ROOT), ArcBundle::cost(0))]
        }
        fn aggregate_arc(
            &self,
            _: &ClusterState,
            aggregate: AggregateId,
            machine: &Machine,
        ) -> Option<ArcBundle> {
            (aggregate != ROOT && rack_of(aggregate) == machine.rack)
                .then(|| ArcBundle::single(machine.slots as i64, 10 * machine.running.len() as i64))
        }
        fn aggregate_to_aggregate(
            &self,
            state: &ClusterState,
            aggregate: AggregateId,
        ) -> Vec<(AggregateId, ArcBundle)> {
            if aggregate != ROOT {
                return Vec::new();
            }
            firmament_policies::rack_capacities(state)
                .into_iter()
                .map(|(rack, slots, running)| {
                    (hier_rack_agg(rack), ArcBundle::single(slots, running))
                })
                .collect()
        }
        fn aggregate_kind(&self, aggregate: AggregateId) -> NodeKind {
            if aggregate == ROOT {
                NodeKind::ClusterAggregator
            } else {
                NodeKind::RackAggregator {
                    rack: rack_of(aggregate),
                }
            }
        }
    }

    fn hier_setup(
        machines: usize,
        per_rack: usize,
        slots: u32,
    ) -> (ClusterState, FlowGraphManager) {
        let state = ClusterState::with_topology(&TopologySpec {
            machines,
            machines_per_rack: per_rack,
            slots_per_machine: slots,
        });
        let mut mgr = FlowGraphManager::new();
        let mut ms: Vec<_> = state.machines.values().cloned().collect();
        ms.sort_by_key(|m| m.id);
        for m in ms {
            mgr.apply_event(
                &HierModel,
                &state,
                &ClusterEvent::MachineAdded { machine: m },
            )
            .unwrap();
        }
        (state, mgr)
    }

    fn hier_submit(state: &mut ClusterState, mgr: &mut FlowGraphManager, job: u64, n: usize) {
        let j = Job::new(job, JobClass::Batch, 0, state.now);
        let tasks: Vec<Task> = (0..n)
            .map(|i| Task::new(job * 1000 + i as u64, job, state.now, 10_000_000))
            .collect();
        let ev = ClusterEvent::JobSubmitted { job: j, tasks };
        state.apply(&ev);
        mgr.apply_event(&HierModel, state, &ev).unwrap();
    }

    #[test]
    fn hierarchy_materializes_recursively_without_direct_root_machine_arcs() {
        // 4 machines in 2 racks of 2.
        let (mut state, mut mgr) = hier_setup(4, 2, 2);
        assert!(mgr.aggregate_node(ROOT).is_none());
        hier_submit(&mut state, &mut mgr, 0, 1);
        let root = mgr.aggregate_node(ROOT).expect("root materialized");
        for rack in [0u32, 1] {
            let rn = mgr
                .aggregate_node(hier_rack_agg(rack))
                .expect("rack agg materialized via EC→EC declaration");
            let arc = mgr
                .aggregate_to_aggregate_arc(ROOT, hier_rack_agg(rack))
                .expect("EC→EC arc exists");
            assert_eq!(mgr.graph().src(arc), root);
            assert_eq!(mgr.graph().dst(arc), rn);
            // Capacity propagated: 2 machines × 2 slots per rack.
            assert_eq!(mgr.graph().capacity(arc), 4);
        }
        // The root has exactly its 2 EC→EC arcs — no machine arcs.
        let root_out: Vec<NodeKind> = mgr
            .graph()
            .adj(root)
            .iter()
            .copied()
            .filter(|a| a.is_forward())
            .map(|a| mgr.graph().kind(mgr.graph().dst(a)))
            .collect();
        assert_eq!(root_out.len(), 2);
        assert!(root_out
            .iter()
            .all(|k| matches!(k, NodeKind::RackAggregator { .. })));
        // Each rack agg reaches exactly its 2 machines.
        for rack in [0u32, 1] {
            let rn = mgr.aggregate_node(hier_rack_agg(rack)).unwrap();
            let machines: Vec<u64> = mgr
                .graph()
                .adj(rn)
                .iter()
                .copied()
                .filter(|a| a.is_forward())
                .filter_map(|a| match mgr.graph().kind(mgr.graph().dst(a)) {
                    NodeKind::Machine { machine } => Some(machine),
                    _ => None,
                })
                .collect();
            assert_eq!(machines.len(), 2, "rack {rack}");
            for m in machines {
                assert_eq!(state.machines[&m].rack, rack);
            }
        }
    }

    #[test]
    fn ec_ec_costs_and_caps_refresh_through_dirty_propagation() {
        let (mut state, mut mgr) = hier_setup(4, 2, 2);
        hier_submit(&mut state, &mut mgr, 0, 3);
        // Place two tasks on rack-0 machines; the X→R_0 arc must re-price.
        for (tid, m) in [(0u64, 0u64), (1, 1)] {
            let ev = ClusterEvent::TaskPlaced {
                task: tid,
                machine: m,
                now: 0,
            };
            state.apply(&ev);
            mgr.apply_event(&HierModel, &state, &ev).unwrap();
        }
        mgr.refresh(&HierModel, &state).unwrap();
        let a0 = mgr
            .aggregate_to_aggregate_arc(ROOT, hier_rack_agg(0))
            .unwrap();
        let a1 = mgr
            .aggregate_to_aggregate_arc(ROOT, hier_rack_agg(1))
            .unwrap();
        assert_eq!(mgr.graph().cost(a0), 2, "two tasks running in rack 0");
        assert_eq!(mgr.graph().cost(a1), 0, "rack 1 idle");
    }

    #[test]
    fn machine_in_new_rack_extends_hierarchy_on_refresh() {
        let (mut state, mut mgr) = hier_setup(2, 2, 1);
        hier_submit(&mut state, &mut mgr, 0, 1);
        assert!(mgr.aggregate_node(hier_rack_agg(7)).is_none());
        // A machine appears in brand-new rack 7.
        let m = Machine::new(50, 7, 1);
        let ev = ClusterEvent::MachineAdded { machine: m };
        state.apply(&ev);
        mgr.apply_event(&HierModel, &state, &ev).unwrap();
        mgr.refresh(&HierModel, &state).unwrap();
        let rn = mgr
            .aggregate_node(hier_rack_agg(7))
            .expect("new rack level materialized by EC→EC re-sync");
        assert!(mgr
            .aggregate_to_aggregate_arc(ROOT, hier_rack_agg(7))
            .is_some());
        // And the new rack aggregate got its machine arc.
        let out = mgr
            .graph()
            .adj(rn)
            .iter()
            .copied()
            .filter(|a| a.is_forward())
            .count();
        assert_eq!(out, 1);
    }

    #[test]
    fn aggregates_gc_when_task_indegree_drops_to_zero() {
        let (mut state, mut mgr) = hier_setup(4, 2, 2);
        let baseline = mgr.graph().node_count();
        hier_submit(&mut state, &mut mgr, 0, 2);
        mgr.refresh(&HierModel, &state).unwrap();
        assert!(mgr.aggregate_count() > 0);
        for tid in [0u64, 1] {
            let ev = ClusterEvent::TaskPlaced {
                task: tid,
                machine: tid,
                now: 5,
            };
            state.apply(&ev);
            mgr.apply_event(&HierModel, &state, &ev).unwrap();
            let ev = ClusterEvent::TaskCompleted { task: tid, now: 10 };
            state.apply(&ev);
            mgr.apply_event(&HierModel, &state, &ev).unwrap();
        }
        mgr.refresh(&HierModel, &state).unwrap();
        // Root, rack aggregates, and the job's U_0 are all unreachable now.
        assert_eq!(mgr.aggregate_count(), 0, "hierarchy collected");
        assert_eq!(mgr.graph().node_count(), baseline, "back to sink+machines");
        assert!(mgr.stats().aggregates_collected >= 4);
        // Reuse after GC: a new job rematerializes the hierarchy.
        hier_submit(&mut state, &mut mgr, 1, 1);
        assert!(mgr.aggregate_node(ROOT).is_some());
    }

    /// A deliberately cyclic hierarchy: 0 → 1 → 0.
    struct CyclicModel;

    impl CostModel for CyclicModel {
        fn name(&self) -> &'static str {
            "cyclic"
        }
        fn task_unscheduled_cost(&self, _: &ClusterState, _: &Task) -> i64 {
            1
        }
        fn task_arcs(&self, _: &ClusterState, _: &Task) -> Vec<(ArcTarget, ArcBundle)> {
            vec![(ArcTarget::Aggregate(0), ArcBundle::cost(0))]
        }
        fn aggregate_arc(
            &self,
            _: &ClusterState,
            _: AggregateId,
            machine: &Machine,
        ) -> Option<ArcBundle> {
            Some(ArcBundle::single(machine.slots as i64, 0))
        }
        fn aggregate_to_aggregate(
            &self,
            _: &ClusterState,
            aggregate: AggregateId,
        ) -> Vec<(AggregateId, ArcBundle)> {
            let next = if aggregate == 0 { 1 } else { 0 };
            vec![(next, ArcBundle::single(10, 0))]
        }
    }

    /// A cycle that only closes *across* separate materializations: agg 0
    /// declares child 1 only once a third machine exists, while agg 1
    /// always declares child 0. Agg 0 is materialized alone first; the
    /// machine addition then makes the refresh re-sync try to connect
    /// 0 → 1 after materializing 1 (which links 1 → 0) — reachability is
    /// checked after the child subtree exists, so the loop is caught.
    struct LateCycleModel;

    impl CostModel for LateCycleModel {
        fn name(&self) -> &'static str {
            "late-cycle"
        }
        fn task_unscheduled_cost(&self, _: &ClusterState, _: &Task) -> i64 {
            1
        }
        fn task_arcs(&self, _: &ClusterState, _: &Task) -> Vec<(ArcTarget, ArcBundle)> {
            vec![(ArcTarget::Aggregate(0), ArcBundle::cost(0))]
        }
        fn aggregate_arc(
            &self,
            _: &ClusterState,
            _: AggregateId,
            machine: &Machine,
        ) -> Option<ArcBundle> {
            Some(ArcBundle::single(machine.slots as i64, 0))
        }
        fn aggregate_to_aggregate(
            &self,
            state: &ClusterState,
            aggregate: AggregateId,
        ) -> Vec<(AggregateId, ArcBundle)> {
            let bundle = ArcBundle::single(10, 0);
            match aggregate {
                0 if state.machines.len() >= 3 => vec![(1, bundle)],
                1 => vec![(0, bundle)],
                _ => Vec::new(),
            }
        }
    }

    #[test]
    fn cycle_closing_across_materializations_is_rejected() {
        let mut state = ClusterState::with_topology(&TopologySpec {
            machines: 2,
            machines_per_rack: 2,
            slots_per_machine: 1,
        });
        let mut mgr = FlowGraphManager::new();
        let mut ms: Vec<_> = state.machines.values().cloned().collect();
        ms.sort_by_key(|m| m.id);
        for m in ms {
            mgr.apply_event(
                &LateCycleModel,
                &state,
                &ClusterEvent::MachineAdded { machine: m },
            )
            .unwrap();
        }
        // Materialize agg 0 while it declares no children.
        let j = Job::new(0, JobClass::Batch, 0, 0);
        let ev = ClusterEvent::JobSubmitted {
            job: j,
            tasks: vec![Task::new(0, 0, 0, 1_000_000)],
        };
        state.apply(&ev);
        mgr.apply_event(&LateCycleModel, &state, &ev).unwrap();
        mgr.refresh(&LateCycleModel, &state).unwrap();
        // The third machine makes agg 0 declare agg 1, whose own
        // materialization links back to agg 0.
        let ev = ClusterEvent::MachineAdded {
            machine: Machine::new(10, 0, 1),
        };
        state.apply(&ev);
        mgr.apply_event(&LateCycleModel, &state, &ev).unwrap();
        let err = mgr.refresh(&LateCycleModel, &state);
        assert!(
            matches!(err, Err(PolicyError::AggregateCycle(0))),
            "late-closing EC→EC cycle must be detected, got {err:?}"
        );
        // The cycle-closing arc was never installed: agg 1's materialized
        // subtree links 1 → 0, but 0 → 1 must be absent, keeping the
        // network a DAG even on the error path.
        assert!(mgr.aggregate_to_aggregate_arc(1, 0).is_some());
        assert!(mgr.aggregate_to_aggregate_arc(0, 1).is_none());
        // The error is deterministic: retrying re-queries the same
        // declaration and fails the same way.
        assert!(matches!(
            mgr.refresh(&LateCycleModel, &state),
            Err(PolicyError::AggregateCycle(0))
        ));
    }

    /// A gang whose tasks can only reach one 1-slot machine must be
    /// deferred even though the cluster as a whole has enough slots.
    struct NarrowGangModel;

    impl CostModel for NarrowGangModel {
        fn name(&self) -> &'static str {
            "narrow-gang"
        }
        fn task_unscheduled_cost(&self, _: &ClusterState, _: &Task) -> i64 {
            0
        }
        fn task_arcs(&self, _: &ClusterState, _: &Task) -> Vec<(ArcTarget, ArcBundle)> {
            vec![(ArcTarget::Machine(0), ArcBundle::cost(1))]
        }
        fn aggregate_arc(
            &self,
            _: &ClusterState,
            _: AggregateId,
            _: &Machine,
        ) -> Option<ArcBundle> {
            None
        }
        fn job_gang_minimum(&self, _: &ClusterState, _: &Job) -> i64 {
            2
        }
        fn task_arcs_machine_local(&self) -> bool {
            // Declares Machine(0) unconditionally — the exact contract the
            // narrowing requires (references to absent machines are
            // parked and found on arrival).
            true
        }
    }

    #[test]
    fn late_arriving_preference_machine_gets_its_arc() {
        // NarrowGangModel declares ArcTarget::Machine(0) for every task.
        // Submit while machine 0 is absent, then add it: the waiting arc
        // re-derivation on MachineAdded must materialize the preference
        // arc, exactly as a from-scratch build would — through the
        // narrowed path, since the model is machine-local.
        let mut state = ClusterState::default();
        let mut mgr = FlowGraphManager::new();
        let ev = ClusterEvent::MachineAdded {
            machine: Machine::new(7, 0, 1),
        };
        state.apply(&ev);
        mgr.apply_event(&NarrowGangModel, &state, &ev).unwrap();
        let j = Job::new(0, JobClass::Batch, 0, 0);
        let ev = ClusterEvent::JobSubmitted {
            job: j,
            tasks: vec![Task::new(0, 0, 0, 1_000_000)],
        };
        state.apply(&ev);
        mgr.apply_event(&NarrowGangModel, &state, &ev).unwrap();
        let t = mgr.task_node(0).unwrap();
        assert!(
            mgr.machine_node(0).is_none(),
            "preference target not in the cluster yet"
        );
        // The absent machine is recorded as a parked reference.
        let slots = mgr.task_arc_slots(0).unwrap();
        assert!(slots
            .iter()
            .any(|(t, s)| *t == ArcTarget::Machine(0) && s.is_empty()));
        let ev = ClusterEvent::MachineAdded {
            machine: Machine::new(0, 0, 1),
        };
        state.apply(&ev);
        mgr.apply_event(&NarrowGangModel, &state, &ev).unwrap();
        let m = mgr.machine_node(0).unwrap();
        assert!(
            mgr.base().find_arc(t, m).is_some(),
            "late-arriving preference machine must get the declared arc"
        );
    }

    #[test]
    fn gang_beyond_reachable_capacity_is_deferred() {
        // 3 machines × 1 slot = 3 total slots ≥ gang of 2, but the tasks
        // only have arcs to machine 0 (1 slot).
        let mut state = ClusterState::with_topology(&TopologySpec {
            machines: 3,
            machines_per_rack: 20,
            slots_per_machine: 1,
        });
        let mut mgr = FlowGraphManager::new();
        let mut ms: Vec<_> = state.machines.values().cloned().collect();
        ms.sort_by_key(|m| m.id);
        for m in ms {
            mgr.apply_event(
                &NarrowGangModel,
                &state,
                &ClusterEvent::MachineAdded { machine: m },
            )
            .unwrap();
        }
        let j = Job::new(0, JobClass::Batch, 0, 0);
        let tasks: Vec<Task> = (0..3).map(|i| Task::new(i, 0, 0, 1_000_000)).collect();
        let ev = ClusterEvent::JobSubmitted { job: j, tasks };
        state.apply(&ev);
        mgr.apply_event(&NarrowGangModel, &state, &ev).unwrap();
        mgr.refresh(&NarrowGangModel, &state).unwrap();
        assert_eq!(
            mgr.deferred_gang_jobs(),
            &[0],
            "structurally unreachable gang must defer, not go infeasible"
        );
        assert_eq!(
            mgr.graph().capacity(mgr.base().unsched_sink_arcs[&0]),
            3,
            "deferred gang leaves U_0 → S unconstrained"
        );
    }

    #[test]
    fn cyclic_hierarchy_is_rejected() {
        let mut state = ClusterState::with_topology(&TopologySpec {
            machines: 2,
            machines_per_rack: 2,
            slots_per_machine: 1,
        });
        let mut mgr = FlowGraphManager::new();
        for m in state.machines.values() {
            mgr.apply_event(
                &CyclicModel,
                &state,
                &ClusterEvent::MachineAdded { machine: m.clone() },
            )
            .unwrap();
        }
        let j = Job::new(0, JobClass::Batch, 0, 0);
        let tasks = vec![Task::new(0, 0, 0, 1_000_000)];
        let ev = ClusterEvent::JobSubmitted { job: j, tasks };
        state.apply(&ev);
        let err = mgr.apply_event(&CyclicModel, &state, &ev);
        assert!(
            matches!(err, Err(PolicyError::AggregateCycle(0))),
            "cycle must be detected, got {err:?}"
        );
    }

    /// Gang constraints squeeze the unscheduled capacity.
    struct GangModel;

    impl CostModel for GangModel {
        fn name(&self) -> &'static str {
            "gang"
        }
        fn task_unscheduled_cost(&self, _: &ClusterState, _: &Task) -> i64 {
            0 // unscheduled is free: only the gang constraint forces work
        }
        fn task_arcs(&self, _: &ClusterState, _: &Task) -> Vec<(ArcTarget, ArcBundle)> {
            vec![(ArcTarget::Aggregate(AGG), ArcBundle::cost(1))]
        }
        fn aggregate_arc(
            &self,
            _: &ClusterState,
            _: AggregateId,
            machine: &Machine,
        ) -> Option<ArcBundle> {
            Some(ArcBundle::single(machine.slots as i64, 5))
        }
        fn job_gang_minimum(&self, _: &ClusterState, _: &Job) -> i64 {
            2
        }
    }

    #[test]
    fn gang_minimum_caps_unscheduled_capacity() {
        let state = ClusterState::with_topology(&TopologySpec {
            machines: 3,
            machines_per_rack: 20,
            slots_per_machine: 1,
        });
        let mut state = state;
        let mut mgr = FlowGraphManager::new();
        for m in state.machines.values() {
            mgr.apply_event(
                &GangModel,
                &state,
                &ClusterEvent::MachineAdded { machine: m.clone() },
            )
            .unwrap();
        }
        let j = Job::new(0, JobClass::Batch, 0, 0);
        let tasks: Vec<Task> = (0..3).map(|i| Task::new(i, 0, 0, 1_000_000)).collect();
        let ev = ClusterEvent::JobSubmitted { job: j, tasks };
        state.apply(&ev);
        mgr.apply_event(&GangModel, &state, &ev).unwrap();
        mgr.refresh(&GangModel, &state).unwrap();
        let ua = mgr.base().unsched_sink_arcs[&0];
        // 3 incomplete tasks − gang minimum 2 = capacity 1.
        assert_eq!(mgr.graph().capacity(ua), 1);
    }

    #[test]
    fn gang_beyond_capacity_is_deferred_not_infeasible() {
        // 3 slots total; two gang-2 jobs demand 4 forced placements.
        let mut state = ClusterState::with_topology(&TopologySpec {
            machines: 3,
            machines_per_rack: 20,
            slots_per_machine: 1,
        });
        let mut mgr = FlowGraphManager::new();
        for m in state.machines.values() {
            mgr.apply_event(
                &GangModel,
                &state,
                &ClusterEvent::MachineAdded { machine: m.clone() },
            )
            .unwrap();
        }
        for job in 0..2u64 {
            let j = Job::new(job, JobClass::Batch, 0, 0);
            let tasks: Vec<Task> = (0..3)
                .map(|i| Task::new(job * 100 + i, job, 0, 1_000_000))
                .collect();
            let ev = ClusterEvent::JobSubmitted { job: j, tasks };
            state.apply(&ev);
            mgr.apply_event(&GangModel, &state, &ev).unwrap();
        }
        mgr.refresh(&GangModel, &state).unwrap();
        // Job 0 is admitted (cap 3−2=1); job 1 is deferred (cap stays 3).
        assert_eq!(mgr.deferred_gang_jobs(), &[1]);
        assert_eq!(mgr.graph().capacity(mgr.base().unsched_sink_arcs[&0]), 1);
        assert_eq!(mgr.graph().capacity(mgr.base().unsched_sink_arcs[&1]), 3);
        // Capacity appears: two more machines admit the second gang.
        for id in [10u64, 11] {
            let m = Machine::new(id, 0, 1);
            let ev = ClusterEvent::MachineAdded { machine: m };
            state.apply(&ev);
            mgr.apply_event(&GangModel, &state, &ev).unwrap();
        }
        mgr.refresh(&GangModel, &state).unwrap();
        assert!(mgr.deferred_gang_jobs().is_empty());
        assert_eq!(mgr.graph().capacity(mgr.base().unsched_sink_arcs[&1]), 1);
    }

    /// A flat model that counts its `aggregate_to_aggregate` queries, to
    /// pin the dirty-set narrowing: machine events on hierarchy-free
    /// models must not trigger per-aggregate no-op EC→EC queries.
    struct CountingFlatModel {
        a2a_queries: std::cell::Cell<u64>,
    }

    impl CostModel for CountingFlatModel {
        fn name(&self) -> &'static str {
            "counting-flat"
        }
        fn task_unscheduled_cost(&self, _: &ClusterState, _: &Task) -> i64 {
            10_000
        }
        fn task_arcs(&self, _: &ClusterState, task: &Task) -> Vec<(ArcTarget, ArcBundle)> {
            // Per-job aggregates, so the manager holds many flat aggregates.
            vec![(ArcTarget::Aggregate(500 + task.job), ArcBundle::cost(1))]
        }
        fn aggregate_arc(
            &self,
            _: &ClusterState,
            _: AggregateId,
            machine: &Machine,
        ) -> Option<ArcBundle> {
            Some(ArcBundle::single(machine.slots as i64, 1))
        }
        fn aggregate_to_aggregate(
            &self,
            _: &ClusterState,
            _: AggregateId,
        ) -> Vec<(AggregateId, ArcBundle)> {
            self.a2a_queries.set(self.a2a_queries.get() + 1);
            Vec::new()
        }
    }

    #[test]
    fn flat_models_skip_aggregate_resync_on_machine_events() {
        let model = CountingFlatModel {
            a2a_queries: std::cell::Cell::new(0),
        };
        let mut state = ClusterState::with_topology(&TopologySpec {
            machines: 2,
            machines_per_rack: 20,
            slots_per_machine: 2,
        });
        let mut mgr = FlowGraphManager::new();
        for m in state.machines.values().cloned().collect::<Vec<_>>() {
            mgr.apply_event(&model, &state, &ClusterEvent::MachineAdded { machine: m })
                .unwrap();
        }
        // Ten jobs → ten flat per-job aggregates (queried once each at
        // materialization).
        for job in 0..10u64 {
            let j = Job::new(job, JobClass::Batch, 0, 0);
            let tasks = vec![Task::new(job * 100, job, 0, 1_000_000)];
            let ev = ClusterEvent::JobSubmitted { job: j, tasks };
            state.apply(&ev);
            mgr.apply_event(&model, &state, &ev).unwrap();
        }
        mgr.refresh(&model, &state).unwrap();
        let before = model.a2a_queries.get();

        // A machine joins and another leaves. Without narrowing, every
        // one of the ten aggregates would be re-synced (one EC→EC query
        // each, twice); with it, only aggregates adjacent to the touched
        // machine are — and their sync cost is already paid by the
        // machine-arc pass.
        let m = Machine::new(77, 0, 2);
        let ev = ClusterEvent::MachineAdded { machine: m };
        state.apply(&ev);
        mgr.apply_event(&model, &state, &ev).unwrap();
        mgr.refresh(&model, &state).unwrap();
        let ev = ClusterEvent::MachineRemoved {
            machine: 77,
            now: 5,
        };
        state.apply(&ev);
        mgr.apply_event(&model, &state, &ev).unwrap();
        mgr.refresh(&model, &state).unwrap();

        let after = model.a2a_queries.get();
        // The machine-add still syncs aggregates that gained an arc to the
        // new machine (they become dirty through adjacency); the blanket
        // all-aggregate sweep — 20 queries here — must be gone. Machine
        // *removal* must trigger none at all.
        assert!(
            after - before <= 10,
            "machine events triggered {} EC→EC queries on a flat model",
            after - before
        );
    }

    /// Counts task_arcs queries, to pin the waiting-task half of the
    /// dirty-set narrowing.
    struct CountingTaskModel {
        machine_local: bool,
        task_queries: std::cell::Cell<u64>,
    }

    impl CostModel for CountingTaskModel {
        fn name(&self) -> &'static str {
            "counting-task"
        }
        fn task_unscheduled_cost(&self, _: &ClusterState, _: &Task) -> i64 {
            10_000
        }
        fn task_arcs(&self, _: &ClusterState, _: &Task) -> Vec<(ArcTarget, ArcBundle)> {
            self.task_queries.set(self.task_queries.get() + 1);
            vec![(ArcTarget::Aggregate(AGG), ArcBundle::cost(1))]
        }
        fn aggregate_arc(
            &self,
            _: &ClusterState,
            _: AggregateId,
            machine: &Machine,
        ) -> Option<ArcBundle> {
            Some(ArcBundle::single(machine.slots as i64, 1))
        }
        fn task_arcs_machine_local(&self) -> bool {
            self.machine_local
        }
    }

    #[test]
    fn machine_local_models_skip_waiting_task_rederivation() {
        for machine_local in [false, true] {
            let model = CountingTaskModel {
                machine_local,
                task_queries: std::cell::Cell::new(0),
            };
            let mut state = ClusterState::with_topology(&TopologySpec {
                machines: 2,
                machines_per_rack: 20,
                slots_per_machine: 1,
            });
            let mut mgr = FlowGraphManager::new();
            for m in state.machines.values().cloned().collect::<Vec<_>>() {
                mgr.apply_event(&model, &state, &ClusterEvent::MachineAdded { machine: m })
                    .unwrap();
            }
            // 20 waiting tasks, none referencing any machine directly.
            let j = Job::new(0, JobClass::Batch, 0, 0);
            let tasks: Vec<Task> = (0..20).map(|i| Task::new(i, 0, 0, 1_000_000)).collect();
            let ev = ClusterEvent::JobSubmitted { job: j, tasks };
            state.apply(&ev);
            mgr.apply_event(&model, &state, &ev).unwrap();
            let before = model.task_queries.get();
            let rederived_before = mgr.stats().waiting_rederived;

            // Machine churn: one add, one remove.
            let m = Machine::new(50, 0, 1);
            let ev = ClusterEvent::MachineAdded { machine: m };
            state.apply(&ev);
            mgr.apply_event(&model, &state, &ev).unwrap();
            let ev = ClusterEvent::MachineRemoved {
                machine: 50,
                now: 5,
            };
            state.apply(&ev);
            mgr.apply_event(&model, &state, &ev).unwrap();

            let queries = model.task_queries.get() - before;
            let rederived = mgr.stats().waiting_rederived - rederived_before;
            if machine_local {
                assert_eq!(
                    queries, 0,
                    "machine-local model must not re-query any waiting task"
                );
                assert_eq!(rederived, 0);
            } else {
                assert_eq!(
                    queries, 40,
                    "full re-query: every waiting task, on both events"
                );
                assert_eq!(rederived, 40);
            }
        }
    }

    #[test]
    fn hierarchical_models_still_resync_on_machine_events() {
        // The narrowing must not regress hierarchy growth: this is the
        // `machine_in_new_rack_extends_hierarchy_on_refresh` scenario,
        // re-checked here because it is exactly what the blanket dirtying
        // existed for.
        let (mut state, mut mgr) = hier_setup(2, 2, 1);
        hier_submit(&mut state, &mut mgr, 0, 1);
        let m = Machine::new(50, 7, 1);
        let ev = ClusterEvent::MachineAdded { machine: m };
        state.apply(&ev);
        mgr.apply_event(&HierModel, &state, &ev).unwrap();
        mgr.refresh(&HierModel, &state).unwrap();
        assert!(mgr.aggregate_node(hier_rack_agg(7)).is_some());
    }

    #[test]
    fn take_deltas_covers_one_handoff_window() {
        let (mut state, mut mgr) = setup(2, 2);
        // Drain the build-up batch (sink + machines).
        let initial = mgr.take_deltas();
        assert!(!initial.is_empty());
        // A quiescent window records nothing.
        mgr.refresh(&TestModel, &state).unwrap();
        assert!(mgr.take_deltas().is_empty());
        // A job submission lands in the next batch exactly once.
        submit(&mut state, &mut mgr, 0, 2);
        mgr.refresh(&TestModel, &state).unwrap();
        let batch = mgr.take_deltas();
        assert!(!batch.is_empty());
        assert!(batch.raw_len() >= batch.len(), "compaction never grows");
        assert!(mgr.take_deltas().is_empty(), "batch drained");
    }

    #[test]
    fn take_deltas_replays_onto_snapshot() {
        let (mut state, mut mgr) = setup(3, 2);
        mgr.take_deltas();
        let mut snapshot = mgr.graph().clone();
        submit(&mut state, &mut mgr, 0, 3);
        let ev = ClusterEvent::TaskPlaced {
            task: 0,
            machine: 1,
            now: 50,
        };
        state.apply(&ev);
        mgr.apply_event(&TestModel, &state, &ev).unwrap();
        mgr.refresh(&TestModel, &state).unwrap();
        mgr.take_deltas().replay(&mut snapshot).unwrap();
        let live = mgr.graph();
        for n in live.node_ids() {
            assert!(snapshot.node_alive(n));
            assert_eq!(snapshot.kind(n), live.kind(n));
            assert_eq!(snapshot.supply(n), live.supply(n));
        }
        assert_eq!(snapshot.node_count(), live.node_count());
        assert_eq!(snapshot.arc_count(), live.arc_count());
        for a in live.arc_ids() {
            assert!(snapshot.arc_alive(a));
            assert_eq!(snapshot.src(a), live.src(a));
            assert_eq!(snapshot.dst(a), live.dst(a));
            assert_eq!(snapshot.capacity(a), live.capacity(a));
            assert_eq!(snapshot.cost(a), live.cost(a));
        }
    }

    #[test]
    fn bundle_validation_helpers() {
        assert!(validate_bundle("task_arcs", &ArcBundle::ladder([1, 2, 2])).is_ok());
        let err = validate_bundle("aggregate_arc", &ArcBundle::ladder([3, 1]));
        assert!(matches!(
            err,
            Err(PolicyError::NonConvexBundle {
                hook: "aggregate_arc",
                prev: 3,
                next: 1
            })
        ));
        // Zero-capacity segments are legal (parked), convexity still holds.
        let b = ArcBundle::from_segments(vec![
            ArcSpec {
                capacity: 0,
                cost: 1,
            },
            ArcSpec {
                capacity: 4,
                cost: 2,
            },
        ]);
        assert!(validate_bundle("task_arcs", &b).is_ok());
    }

    /// Everything a rejected event must leave as it was: the graph (flow
    /// and folded change log included), its pending change count and the
    /// task table.
    fn untouched(mgr: &FlowGraphManager) -> (String, usize, TaskTable) {
        (
            format!("{:?}", mgr.graph()),
            mgr.graph().pending_changes(),
            mgr.base().task_table.clone(),
        )
    }

    #[test]
    fn rejected_completion_leaves_graph_untouched() {
        let (mut state, mut mgr) = setup(2, 2);
        submit(&mut state, &mut mgr, 0, 3);
        mgr.refresh(&TestModel, &state).unwrap();
        // Route flow through the tasks, so a premature drain would show.
        let mut g = mgr.take_graph();
        firmament_mcmf::relaxation::solve(&mut g, &firmament_mcmf::SolveOptions::unlimited())
            .unwrap();
        mgr.adopt_graph(g);
        let t = mgr.task_node(0).unwrap();
        assert!(mgr
            .graph()
            .adj(t)
            .iter()
            .any(|&a| a.is_forward() && mgr.graph().flow(a) > 0));
        mgr.take_deltas();

        // The cluster state no longer knows the task.
        let mut stale = state.clone();
        stale.tasks.remove(&0);
        let before = untouched(&mgr);
        let ev = ClusterEvent::TaskCompleted { task: 0, now: 0 };
        let err = mgr.apply_event(&TestModel, &stale, &ev);
        assert!(matches!(err, Err(PolicyError::UnknownTask(0))), "{err:?}");
        assert_eq!(untouched(&mgr), before);

        // A duplicated completion: the graph no longer knows the task.
        mgr.apply_event(&TestModel, &state, &ev).unwrap();
        let before = untouched(&mgr);
        let err = mgr.apply_event(&TestModel, &state, &ev);
        assert!(matches!(err, Err(PolicyError::UnknownTask(0))), "{err:?}");
        assert_eq!(untouched(&mgr), before);
    }

    #[test]
    fn rejected_submission_leaves_graph_untouched() {
        let (mut state, mut mgr) = setup(2, 2);
        submit(&mut state, &mut mgr, 0, 2);
        let before = untouched(&mgr);
        let job = Job::new(1, JobClass::Batch, 0, state.now);
        let task = |id| Task::new(id, 1, state.now, 1_000_000);
        // A fresh task ahead of one whose id is already in the graph.
        let ev = ClusterEvent::JobSubmitted {
            job: job.clone(),
            tasks: vec![task(1000), task(1)],
        };
        let err = mgr.apply_event(&TestModel, &state, &ev);
        assert!(matches!(err, Err(PolicyError::DuplicateTask(1))), "{err:?}");
        assert_eq!(untouched(&mgr), before);
        // An id repeated within the submission.
        let ev = ClusterEvent::JobSubmitted {
            job,
            tasks: vec![task(1000), task(1001), task(1000)],
        };
        let err = mgr.apply_event(&TestModel, &state, &ev);
        assert!(
            matches!(err, Err(PolicyError::DuplicateTask(1000))),
            "{err:?}"
        );
        assert_eq!(untouched(&mgr), before);

        // A non-convex task-arc declaration is rejected before any task
        // of the job is added.
        let model = NonConvexModel { from: "task_arcs" };
        let before = untouched(&mgr);
        let ev = ClusterEvent::JobSubmitted {
            job: Job::new(2, JobClass::Batch, 0, state.now),
            tasks: vec![Task::new(2000, 2, 0, 1), Task::new(2001, 2, 0, 1)],
        };
        let err = mgr.apply_event(&model, &state, &ev);
        assert!(
            matches!(err, Err(PolicyError::NonConvexBundle { .. })),
            "{err:?}"
        );
        assert_eq!(untouched(&mgr), before);
    }

    /// A machine whose arc from aggregate 1 is non-convex; every other
    /// declaration is valid.
    const BAD_MACHINE: MachineId = 99;

    struct NonConvexForOneMachine;

    impl CostModel for NonConvexForOneMachine {
        fn name(&self) -> &'static str {
            "non-convex-for-one-machine"
        }
        fn task_unscheduled_cost(&self, _: &ClusterState, _: &Task) -> i64 {
            1_000
        }
        fn task_arcs(&self, _: &ClusterState, _: &Task) -> Vec<(ArcTarget, ArcBundle)> {
            vec![
                (ArcTarget::Aggregate(0), ArcBundle::cost(1)),
                (ArcTarget::Aggregate(1), ArcBundle::cost(2)),
            ]
        }
        fn aggregate_arc(
            &self,
            _: &ClusterState,
            aggregate: AggregateId,
            machine: &Machine,
        ) -> Option<ArcBundle> {
            Some(if aggregate == 1 && machine.id == BAD_MACHINE {
                ArcBundle::ladder([9, 2])
            } else {
                ArcBundle::single(machine.slots as i64, 0)
            })
        }
        fn aggregate_kind(&self, _: AggregateId) -> NodeKind {
            NodeKind::ClusterAggregator
        }
    }

    #[test]
    fn rejected_machine_arrival_leaves_graph_untouched() {
        let model = NonConvexForOneMachine;
        let (mut state, mut mgr) = setup(2, 2);
        let ev = ClusterEvent::JobSubmitted {
            job: Job::new(0, JobClass::Batch, 0, state.now),
            tasks: vec![Task::new(0, 0, 0, 1_000_000)],
        };
        state.apply(&ev);
        mgr.apply_event(&model, &state, &ev).unwrap();
        mgr.refresh(&model, &state).unwrap();
        // Aggregate 0's valid bundle is declared before aggregate 1's
        // non-convex one: neither it nor the machine node may land.
        let before = untouched(&mgr);
        let ev = ClusterEvent::MachineAdded {
            machine: Machine::new(BAD_MACHINE, 0, 2),
        };
        state.apply(&ev);
        let err = mgr.apply_event(&model, &state, &ev);
        assert!(
            matches!(
                err,
                Err(PolicyError::NonConvexBundle {
                    hook: "aggregate_arc",
                    ..
                })
            ),
            "{err:?}"
        );
        assert_eq!(untouched(&mgr), before);
        assert!(mgr.machine_node(BAD_MACHINE).is_none());
        assert!(mgr.aggregate_machine_slots(0, BAD_MACHINE).is_none());
    }

    /// The task table behaves as a `TaskId`-ordered map under random
    /// inserts (ascending and out of order), removals, re-inserts of
    /// removed ids and the compactions they trigger.
    #[test]
    fn task_table_matches_an_ordered_map() {
        use firmament_flow::testgen::XorShift64;
        for seed in 0..8 {
            let mut rng = XorShift64::new(seed + 1);
            let mut table = TaskTable::default();
            let mut model: BTreeMap<TaskId, TaskEntry> = BTreeMap::new();
            let mut next: TaskId = 0;
            for step in 0..3_000u32 {
                let entry = TaskEntry {
                    node: NodeId::from_index(step as usize),
                    unsched_arc: ArcId::from_index(2 * step as usize),
                    running: None,
                };
                let task = match rng.below(4) {
                    // Mostly fresh, ascending ids …
                    0 | 1 => {
                        next += 1 + rng.below(3);
                        next
                    }
                    // … some below the top, possibly removed or live.
                    _ => rng.below(next + 1),
                };
                if rng.below(3) == 0 {
                    assert_eq!(table.remove(task), model.remove(&task), "seed {seed}");
                } else {
                    assert_eq!(
                        table.insert(task, entry),
                        model.insert(task, entry),
                        "seed {seed}"
                    );
                }
                assert_eq!(table.get(task), model.get(&task).copied());
                assert_eq!(table.len(), model.len());
                if step % 97 == 0 {
                    assert!(table.iter().eq(model.iter().map(|(&t, &e)| (t, e))));
                }
            }
            assert!(table.iter().eq(model.iter().map(|(&t, &e)| (t, e))));
            for (&t, _) in model.clone().iter() {
                table.remove(t);
            }
            assert!(table.is_empty() && table.iter().next().is_none());
            assert_eq!(table, TaskTable::default());
        }
    }
}
