//! Differential graph-refresh fuzzing: the incrementally maintained flow
//! network must stay semantically identical to a from-scratch rebuild.
//!
//! The `FlowGraphManager` applies cluster events as graph *deltas* and
//! refreshes only dirty nodes (§6.3) — dozens of code paths that can
//! silently diverge from the declarative [`CostModel`] intent, especially
//! now that EC→EC hierarchy arcs multiply the refresh surface. Each test
//! drives one cost model through 50 seeded random event scripts (machine
//! add/remove, job submission, task placement/completion/preemption,
//! direct migration of a running task, clock advance, now and then far
//! enough to re-base the wait epoch) and, after *every*
//! refresh round, rebuilds the graph from scratch out of current cluster
//! state and asserts the two are identical under a canonical form:
//!
//! - same node kinds (aggregate GC must leave exactly the reachable set),
//! - same per-kind supplies,
//! - same positive-capacity arcs with equal capacity and cost (parked
//!   capacity-0 arcs are semantic no-ops, so both sides drop them), where
//!   a `T → U_j` arc's cost is that of the path `T → U_j → S`: the
//!   clock's share of waiting sits on each job's `U_j → S` arc, split from
//!   the tasks' at a wait epoch that a rebuild sets afresh.
//!
//! The suite also carries the **delta-replay oracle**: after every round,
//! the manager's recorded `GraphDelta` batch is replayed onto a snapshot
//! of the previous round's graph, and the replayed graph must reproduce
//! the live graph *exactly* — slot-identical ids, kinds, supplies, arc
//! endpoints, capacities, and costs (not flow, which the log does not
//! carry). This pins the typed change feed the incremental solver
//! warm-starts from: a batch that under- or over-reports a change would
//! silently desynchronize the solver's warm state.
//!
//! After every round it also checks the manager's task table against the
//! graph: each entry's node is the live node of that task, and its
//! unscheduled arc is alive and runs from that node to its job's `U_j` —
//! the arc an epoch re-base re-prices without looking it up. Each entry's
//! running machine must be the task's machine in cluster state while it
//! runs, and `None` otherwise — the record the scheduler's action diff
//! trusts instead of looking the task up. The rebuilt manager's table is
//! held to the same invariant.
//!
//! Failures print the model, seed, and round, so every divergence is a
//! deterministic one-line reproduction.

use firmament::cluster::{
    ClusterEvent, ClusterState, Job, JobClass, Machine, Task, TaskState, TopologySpec,
};
use firmament::core::FlowGraphManager;
use firmament::flow::testgen::XorShift64;
use firmament::flow::{ArcId, FlowGraph, NodeId, NodeKind};
use firmament::policies::{
    AggregateId, ArcBundle, ArcSpec, ArcTarget, CostModel, HierarchicalTopologyCostModel,
    LoadSpreadingCostModel, NetworkAwareCostModel, OctopusCostModel, QuincyConfig, QuincyCostModel,
};

const SCRIPTS_PER_MODEL: u64 = 50;
/// The convex-wrapper matrix re-runs every model with bundle re-pricing
/// and segment-count churn layered on; fewer scripts keep the doubled
/// matrix inside the CI budget.
const SCRIPTS_PER_WRAPPED_MODEL: u64 = 30;
/// The bucketed-wrapper matrix (a third full-model arm) gets its own
/// smaller budget for the same reason.
const SCRIPTS_PER_BUCKETED_MODEL: u64 = 20;
const ROUNDS_PER_SCRIPT: usize = 15;

/// Wraps any cost model to exercise the **bundle event alphabet** the
/// plain models don't reach on their own:
///
/// - **Segment-count-changing events**: every aggregate → machine bundle
///   becomes a ladder whose segment *count* tracks the machine's free
///   slots (`1 + free % 3`) — so task placements/completions/preemptions
///   (which dirty the machine) grow and shrink declared ladders, driving
///   the manager's park/revive/append slot logic under the static
///   contract and add/remove under the dynamic one.
/// - **Bundle re-pricing events**: waiting-task bundles get a cost term
///   derived from the virtual clock and [`CostModel::dynamic_task_arcs`]
///   is enabled, so every `Tick` event re-prices the cached preference
///   slots in place (the Execution-Templates patch path). EC→EC bundles
///   are split into two-segment convex ladders, re-priced through the
///   dirty-aggregate sweep.
///
/// All wrapper outputs are pure functions of `ClusterState` plus the
/// inner model's declarations, so the incremental-vs-rebuild oracle
/// stays sound: any divergence is a manager bug, not wrapper noise.
struct ConvexFuzzWrapper<C: CostModel> {
    inner: C,
}

/// A convex ladder over `total` capacity with `count` segments starting
/// at `base` cost and rising by `step`: first segment takes the bulk,
/// the tail segments capacity 1 each.
fn fuzz_ladder(total: i64, count: i64, base: i64, step: i64) -> ArcBundle {
    let count = count.clamp(1, total.max(1));
    let mut segments = Vec::with_capacity(count as usize);
    let head = (total - (count - 1)).max(0);
    for j in 0..count {
        segments.push(ArcSpec {
            capacity: if j == 0 { head } else { 1 },
            cost: base + j * step,
        });
    }
    ArcBundle::from_segments(segments)
}

impl<C: CostModel> CostModel for ConvexFuzzWrapper<C> {
    fn name(&self) -> &'static str {
        "convex-fuzz-wrapper"
    }
    fn task_unscheduled_cost(&self, state: &ClusterState, task: &Task) -> i64 {
        self.inner.task_unscheduled_cost(state, task)
    }
    fn wait_cost_per_sec(&self) -> i64 {
        self.inner.wait_cost_per_sec()
    }
    fn task_arcs(&self, state: &ClusterState, task: &Task) -> Vec<(ArcTarget, ArcBundle)> {
        // Clock-dependent re-pricing on top of the inner declaration:
        // legal only because dynamic_task_arcs() is true below.
        let drift = (state.now / 1_000_000 % 7) as i64;
        self.inner
            .task_arcs(state, task)
            .into_iter()
            .map(|(target, bundle)| {
                let base = bundle.segments().first().map(|s| s.cost).unwrap_or(0);
                (target, ArcBundle::cost(base + drift))
            })
            .collect()
    }
    fn aggregate_arc(
        &self,
        state: &ClusterState,
        aggregate: AggregateId,
        machine: &Machine,
    ) -> Option<ArcBundle> {
        let inner = self.inner.aggregate_arc(state, aggregate, machine)?;
        let total = inner.total_capacity();
        let base = inner.segments().first().map(|s| s.cost).unwrap_or(0);
        // Segment count follows the machine's free slots — it changes
        // exactly when an event dirties the machine, so static models
        // stay refresh-consistent while the ladder grows and shrinks.
        let count = 1 + machine.free_slots() as i64 % 3;
        Some(fuzz_ladder(total, count, base, 1 + machine.id as i64 % 2))
    }
    fn aggregate_to_aggregate(
        &self,
        state: &ClusterState,
        aggregate: AggregateId,
    ) -> Vec<(AggregateId, ArcBundle)> {
        self.inner
            .aggregate_to_aggregate(state, aggregate)
            .into_iter()
            .map(|(child, bundle)| {
                let total = bundle.total_capacity();
                let base = bundle.segments().first().map(|s| s.cost).unwrap_or(0);
                (child, fuzz_ladder(total, 2, base, 1))
            })
            .collect()
    }
    fn aggregate_kind(&self, aggregate: AggregateId) -> NodeKind {
        self.inner.aggregate_kind(aggregate)
    }
    fn running_arc_cost(&self, state: &ClusterState, task: &Task, machine: u64) -> i64 {
        self.inner.running_arc_cost(state, task, machine)
    }
    fn dynamic_aggregate_arcs(&self) -> bool {
        self.inner.dynamic_aggregate_arcs()
    }
    fn dynamic_task_arcs(&self) -> bool {
        true
    }
    fn task_arcs_machine_local(&self) -> bool {
        self.inner.task_arcs_machine_local()
    }
    fn job_gang_minimum(&self, state: &ClusterState, job: &Job) -> i64 {
        self.inner.job_gang_minimum(state, job)
    }
}

/// Wraps any cost model to exercise **capacity-bucketed ladders under
/// slot-count churn** — the [`ArcBundle::bucketed`] counterpart of
/// [`ConvexFuzzWrapper`]:
///
/// - every aggregate → machine bundle becomes a *bucketed* ladder whose
///   slot count tracks the machine's free slots (`total − free % 3`), so
///   placements/completions/preemptions move the **bucket boundaries
///   themselves**: segment capacities re-size, the tail parks/revives,
///   and the manager's in-place re-pricing path must keep the
///   incremental graph identical to a from-scratch rebuild;
/// - EC→EC bundles are bucketed over their declared capacity;
/// - waiting-task bundles re-price with the clock
///   ([`CostModel::dynamic_task_arcs`]), as in the convex wrapper.
///
/// All outputs are pure functions of `ClusterState` plus the inner
/// model's declarations, so the differential oracle stays sound.
struct BucketedFuzzWrapper<C: CostModel> {
    inner: C,
}

impl<C: CostModel> CostModel for BucketedFuzzWrapper<C> {
    fn name(&self) -> &'static str {
        "bucketed-fuzz-wrapper"
    }
    fn task_unscheduled_cost(&self, state: &ClusterState, task: &Task) -> i64 {
        self.inner.task_unscheduled_cost(state, task)
    }
    fn task_arcs(&self, state: &ClusterState, task: &Task) -> Vec<(ArcTarget, ArcBundle)> {
        let drift = (state.now / 1_000_000 % 5) as i64;
        self.inner
            .task_arcs(state, task)
            .into_iter()
            .map(|(target, bundle)| {
                let base = bundle.segments().first().map(|s| s.cost).unwrap_or(0);
                (target, ArcBundle::cost(base + drift))
            })
            .collect()
    }
    fn aggregate_arc(
        &self,
        state: &ClusterState,
        aggregate: AggregateId,
        machine: &Machine,
    ) -> Option<ArcBundle> {
        let inner = self.inner.aggregate_arc(state, aggregate, machine)?;
        let total = inner.total_capacity();
        let base = inner.segments().first().map(|s| s.cost).unwrap_or(0);
        // The bucketed slot count follows the machine's free slots, so
        // events that change occupancy move the bucket boundaries: a
        // shrink re-sizes buckets and parks the tail, a grow revives it.
        let slots = (total - machine.free_slots() as i64 % 3).max(1);
        let step = 1 + machine.id as i64 % 2;
        Some(ArcBundle::bucketed(slots, |j| base + j * step))
    }
    fn aggregate_to_aggregate(
        &self,
        state: &ClusterState,
        aggregate: AggregateId,
    ) -> Vec<(AggregateId, ArcBundle)> {
        self.inner
            .aggregate_to_aggregate(state, aggregate)
            .into_iter()
            .map(|(child, bundle)| {
                let total = bundle.total_capacity();
                let base = bundle.segments().first().map(|s| s.cost).unwrap_or(0);
                (child, ArcBundle::bucketed(total.max(1), |j| base + j))
            })
            .collect()
    }
    fn aggregate_kind(&self, aggregate: AggregateId) -> NodeKind {
        self.inner.aggregate_kind(aggregate)
    }
    fn running_arc_cost(&self, state: &ClusterState, task: &Task, machine: u64) -> i64 {
        self.inner.running_arc_cost(state, task, machine)
    }
    fn dynamic_aggregate_arcs(&self) -> bool {
        self.inner.dynamic_aggregate_arcs()
    }
    fn dynamic_task_arcs(&self) -> bool {
        true
    }
    fn task_arcs_machine_local(&self) -> bool {
        self.inner.task_arcs_machine_local()
    }
    fn job_gang_minimum(&self, state: &ClusterState, job: &Job) -> i64 {
        self.inner.job_gang_minimum(state, job)
    }
}

/// Canonical, id-independent form of a scheduling flow network: sorted
/// node kinds, sorted nonzero supplies by kind, and sorted
/// positive-capacity forward arcs as `(src kind, dst kind, cap, cost)`.
/// Each `U_j → S` cost is folded into its job's `T → U_j` arcs (and reads
/// 0 on `U_j → S` itself), so each unscheduled path is compared by what it
/// costs end to end.
type Canonical = (
    Vec<String>,
    Vec<(String, i64)>,
    Vec<(String, String, i64, i64)>,
);

fn canonical(g: &FlowGraph) -> Canonical {
    let mut nodes: Vec<String> = g.node_ids().map(|n| g.kind(n).to_string()).collect();
    nodes.sort();
    let mut supplies: Vec<(String, i64)> = g
        .node_ids()
        .filter(|&n| g.supply(n) != 0)
        .map(|n| (g.kind(n).to_string(), g.supply(n)))
        .collect();
    supplies.sort();
    let into_sink = |a: ArcId| g.kind(g.dst(a)) == NodeKind::Sink;
    let clock = |u: NodeId| {
        let mut out = g.adj(u).iter().copied();
        out.find(|&a| a.is_forward() && into_sink(a))
            .map_or(0, |a| g.cost(a))
    };
    let mut arcs: Vec<(String, String, i64, i64)> = g
        .arc_ids()
        .filter(|&a| g.capacity(a) > 0)
        .map(|a| {
            let (src, dst) = (g.kind(g.src(a)), g.kind(g.dst(a)));
            let cost = match (src, dst) {
                (NodeKind::Task { .. }, NodeKind::UnscheduledAggregator { .. }) => {
                    g.cost(a) + clock(g.dst(a))
                }
                (NodeKind::UnscheduledAggregator { .. }, _) if into_sink(a) => 0,
                _ => g.cost(a),
            };
            (src.to_string(), dst.to_string(), g.capacity(a), cost)
        })
        .collect();
    arcs.sort();
    (nodes, supplies, arcs)
}

/// Builds a manager from scratch out of the current cluster state, as if
/// the scheduler had just started: machines first, then every job's
/// incomplete tasks, then the placements of running tasks, then a refresh.
fn rebuild<C: CostModel>(model: &C, state: &ClusterState) -> FlowGraphManager {
    let mut mgr = FlowGraphManager::new();
    let mut machines: Vec<Machine> = state.machines.values().cloned().collect();
    machines.sort_by_key(|m| m.id);
    for m in machines {
        mgr.apply_event(model, state, &ClusterEvent::MachineAdded { machine: m })
            .expect("rebuild: machine");
    }
    let mut jobs: Vec<&Job> = state.jobs.values().collect();
    jobs.sort_by_key(|j| j.id);
    for job in jobs {
        let tasks: Vec<Task> = job
            .tasks
            .iter()
            .filter_map(|t| state.tasks.get(t))
            .filter(|t| t.state != TaskState::Completed)
            .cloned()
            .collect();
        if tasks.is_empty() {
            continue;
        }
        mgr.apply_event(
            model,
            state,
            &ClusterEvent::JobSubmitted {
                job: job.clone(),
                tasks,
            },
        )
        .expect("rebuild: job");
    }
    let mut running: Vec<&Task> = state.running_tasks().collect();
    running.sort_by_key(|t| t.id);
    for t in running {
        mgr.apply_event(
            model,
            state,
            &ClusterEvent::TaskPlaced {
                task: t.id,
                machine: t.machine.expect("running task has a machine"),
                now: state.now,
            },
        )
        .expect("rebuild: placement");
    }
    mgr.refresh(model, state).expect("rebuild: refresh");
    mgr
}

/// The task table ↔ graph invariant: the table walks in strictly rising
/// `TaskId` order, every entry names its task's live node and a live
/// `T → U_j` arc out of it and the machine the task runs on in `state`,
/// and every task node in the graph has an entry. The manager's machine
/// and job records match the graph too: every machine in `state` has a
/// live `Machine` node with a forward arc to the sink of its slot
/// capacity, every task's job has a live `U_j → S` arc, and every
/// `Machine` and `UnscheduledAggregator` node in the graph is the one its
/// machine's or job's record names.
fn assert_task_table(
    model: &str,
    seed: u64,
    round: usize,
    mgr: &FlowGraphManager,
    state: &ClusterState,
) {
    let table = mgr.task_table();
    let g = mgr.graph();
    let sink = mgr.sink();
    let mut prev = None;
    for (task, entry) in table.iter() {
        let at = format!("{model} seed {seed} round {round}: task {task}");
        assert!(prev < Some(task), "{at}: out of TaskId order");
        prev = Some(task);
        assert!(g.node_alive(entry.node), "{at}: dead node");
        assert_eq!(g.kind(entry.node), NodeKind::Task { task }, "{at}: node");
        let arc = entry.unsched_arc;
        assert!(g.arc_alive(arc) && arc.is_forward(), "{at}: dead arc");
        assert_eq!(g.src(arc), entry.node, "{at}: arc tail");
        let job = state.tasks[&task].job;
        let (u, ua) = mgr
            .unscheduled(job)
            .unwrap_or_else(|| panic!("{at}: no U_{job}"));
        assert_eq!(g.dst(arc), u, "{at}: arc head is not U_{job}");
        assert!(g.arc_alive(ua) && ua.is_forward(), "{at}: dead U_{job} arc");
        assert_eq!((g.src(ua), g.dst(ua)), (u, sink), "{at}: U_{job} arc");
        let t = &state.tasks[&task];
        let running = t.machine.filter(|_| t.state == TaskState::Running);
        assert_eq!(entry.running, running, "{at}: running machine");
    }
    let task_nodes = g
        .node_ids()
        .filter(|&n| matches!(g.kind(n), NodeKind::Task { .. }))
        .count();
    assert_eq!(
        task_nodes,
        table.len(),
        "{model} seed {seed} round {round}: task nodes without a table entry"
    );
    for (&id, machine) in &state.machines {
        let at = format!("{model} seed {seed} round {round}: machine {id}");
        let n = mgr
            .machine_node(id)
            .unwrap_or_else(|| panic!("{at}: no node"));
        assert!(g.node_alive(n), "{at}: dead node");
        assert_eq!(g.kind(n), NodeKind::Machine { machine: id }, "{at}: node");
        let slots = machine.slots as i64;
        assert!(
            g.adj(n)
                .iter()
                .any(|&a| a.is_forward() && g.dst(a) == sink && g.capacity(a) == slots),
            "{at}: no sink arc of capacity {slots}"
        );
    }
    for n in g.node_ids() {
        let at = format!("{model} seed {seed} round {round}: node {n}");
        match g.kind(n) {
            NodeKind::Machine { machine } => {
                assert!(state.machines.contains_key(&machine), "{at}: stale");
                assert_eq!(mgr.machine_node(machine), Some(n), "{at}: no record");
            }
            NodeKind::UnscheduledAggregator { job } => {
                let u = mgr.unscheduled(job).map(|(u, _)| u);
                assert_eq!(u, Some(n), "{at}: not U_{job}");
            }
            _ => {}
        }
    }
}

/// The delta-replay oracle: slot-exact structural equality between the
/// replayed snapshot and the live graph. Bounds may differ only by
/// trailing dead slots (entities that cancelled within the batch still
/// grew the live arena).
fn assert_replay_matches(
    model: &str,
    seed: u64,
    round: usize,
    replayed: &FlowGraph,
    live: &FlowGraph,
) {
    for i in 0..live.node_bound().max(replayed.node_bound()) {
        let n = NodeId::from_index(i);
        assert_eq!(
            replayed.node_alive(n),
            live.node_alive(n),
            "{model} seed {seed} round {round}: replay node-alive diverged at {n}"
        );
        if live.node_alive(n) {
            assert_eq!(
                (replayed.kind(n), replayed.supply(n)),
                (live.kind(n), live.supply(n)),
                "{model} seed {seed} round {round}: replay node state diverged at {n}"
            );
        }
    }
    for i in (0..live.arc_bound().max(replayed.arc_bound())).step_by(2) {
        let a = ArcId::from_index(i);
        assert_eq!(
            replayed.arc_alive(a),
            live.arc_alive(a),
            "{model} seed {seed} round {round}: replay arc-alive diverged at {a}"
        );
        if live.arc_alive(a) {
            assert_eq!(
                (
                    replayed.src(a),
                    replayed.dst(a),
                    replayed.capacity(a),
                    replayed.cost(a)
                ),
                (live.src(a), live.dst(a), live.capacity(a), live.cost(a)),
                "{model} seed {seed} round {round}: replay arc state diverged at {a}"
            );
        }
    }
}

/// Id allocation for fuzz-generated entities. Removed machine ids are
/// remembered so some additions *reuse* them: waiting arc sets are
/// re-derived on every machine-set change, so a re-added id must converge
/// to exactly what a from-scratch build declares.
struct Ids {
    next_task: u64,
    next_job: u64,
    next_machine: u64,
    next_rack: u32,
    removed_machines: Vec<u64>,
}

fn apply_both<C: CostModel>(
    state: &mut ClusterState,
    mgr: &mut FlowGraphManager,
    model: &C,
    ev: &ClusterEvent,
) {
    state.apply(ev);
    mgr.apply_event(model, state, ev)
        .unwrap_or_else(|e| panic!("{}: event {ev:?} failed: {e}", model.name()));
}

fn random_event<C: CostModel>(
    rng: &mut XorShift64,
    ids: &mut Ids,
    state: &mut ClusterState,
    mgr: &mut FlowGraphManager,
    model: &C,
) {
    match rng.below(100) {
        // Submit a small job; some tasks carry input blocks (exercising
        // locality preference arcs) and bandwidth requests (request
        // classes).
        0..=29 => {
            let job_id = ids.next_job;
            ids.next_job += 1;
            let n = 1 + rng.below(4) as usize;
            let job = Job::new(job_id, JobClass::Batch, 0, state.now);
            let mut tasks = Vec::with_capacity(n);
            for _ in 0..n {
                let tid = ids.next_task;
                ids.next_task += 1;
                let mut t = Task::new(tid, job_id, state.now, 1_000_000 + rng.below(60_000_000));
                t.request.net_mbps = 100 + rng.below(1900);
                if rng.below(2) == 0 && !state.machines.is_empty() {
                    let mut holders: Vec<u64> = state.machines.keys().copied().collect();
                    holders.sort_unstable();
                    let k = 1 + rng.below(3.min(holders.len() as u64)) as usize;
                    let mut picked = Vec::with_capacity(k);
                    for _ in 0..k {
                        picked.push(holders[rng.below(holders.len() as u64) as usize]);
                    }
                    t.input_blocks = vec![state.blocks.place_block(picked)];
                    t.input_bytes = 1_000_000_000 + rng.below(3_000_000_000);
                }
                tasks.push(t);
            }
            apply_both(
                state,
                mgr,
                model,
                &ClusterEvent::JobSubmitted { job, tasks },
            );
        }
        // Place a waiting task on a machine with a free slot (synthetic
        // scheduler decision — the manager must cope with any placement).
        // One draw in four instead moves a running task directly onto
        // another machine with a free slot (a migration without a
        // preemption first).
        30..=49 => {
            let migrate = rng.below(4) == 0;
            let mut tasks: Vec<u64> = if migrate {
                state.running_tasks().map(|t| t.id).collect()
            } else {
                state.waiting_tasks().map(|t| t.id).collect()
            };
            tasks.sort_unstable();
            if tasks.is_empty() {
                return;
            }
            let task = tasks[rng.below(tasks.len() as u64) as usize];
            let from = state.tasks[&task].machine;
            let mut free: Vec<u64> = state
                .machines
                .values()
                .filter(|m| m.has_free_slot() && Some(m.id) != from)
                .map(|m| m.id)
                .collect();
            free.sort_unstable();
            if free.is_empty() {
                return;
            }
            let machine = free[rng.below(free.len() as u64) as usize];
            apply_both(
                state,
                mgr,
                model,
                &ClusterEvent::TaskPlaced {
                    task,
                    machine,
                    now: state.now,
                },
            );
        }
        // Complete a running task.
        50..=64 => {
            let mut running: Vec<u64> = state.running_tasks().map(|t| t.id).collect();
            running.sort_unstable();
            if running.is_empty() {
                return;
            }
            let task = running[rng.below(running.len() as u64) as usize];
            apply_both(
                state,
                mgr,
                model,
                &ClusterEvent::TaskCompleted {
                    task,
                    now: state.now,
                },
            );
        }
        // Preempt (≈ fail) a running task back into the waiting pool.
        65..=74 => {
            let mut running: Vec<u64> = state.running_tasks().map(|t| t.id).collect();
            running.sort_unstable();
            if running.is_empty() {
                return;
            }
            let task = running[rng.below(running.len() as u64) as usize];
            apply_both(
                state,
                mgr,
                model,
                &ClusterEvent::TaskPreempted {
                    task,
                    now: state.now,
                },
            );
        }
        // Advance the virtual clock (drifts every waiting path's cost).
        // One advance in five jumps 300–1,500 s, past the point where the
        // shipped models' wait epochs re-base.
        75..=84 => {
            let secs = if rng.below(5) == 0 {
                300 + rng.below(1_200)
            } else {
                1 + rng.below(30)
            };
            let now = state.now + 1_000_000 * secs;
            apply_both(state, mgr, model, &ClusterEvent::Tick { now });
        }
        // Add a machine — sometimes into a brand-new rack (growing the
        // hierarchy a level-0 aggregate must pick up on refresh),
        // sometimes reusing a previously removed id (waiting arc sets
        // must re-converge on the rebuilt declarations).
        85..=92 => {
            let id = if !ids.removed_machines.is_empty() && rng.below(3) == 0 {
                ids.removed_machines
                    .swap_remove(rng.below(ids.removed_machines.len() as u64) as usize)
            } else {
                ids.next_machine += 1;
                ids.next_machine - 1
            };
            let rack = if rng.below(2) == 0 || state.machines.is_empty() {
                ids.next_rack += 1;
                ids.next_rack
            } else {
                let mut racks: Vec<u32> = state.machines.values().map(|m| m.rack).collect();
                racks.sort_unstable();
                racks.dedup();
                racks[rng.below(racks.len() as u64) as usize]
            };
            let machine = Machine::new(id, rack, 1 + rng.below(3) as u32);
            apply_both(state, mgr, model, &ClusterEvent::MachineAdded { machine });
        }
        // Remove a machine, displacing whatever ran on it.
        _ => {
            if state.machines.len() <= 1 {
                return;
            }
            let mut ms: Vec<u64> = state.machines.keys().copied().collect();
            ms.sort_unstable();
            let machine = ms[rng.below(ms.len() as u64) as usize];
            ids.removed_machines.push(machine);
            apply_both(
                state,
                mgr,
                model,
                &ClusterEvent::MachineRemoved {
                    machine,
                    now: state.now,
                },
            );
        }
    }
}

/// One seeded script: a small cluster, `ROUNDS_PER_SCRIPT` rounds of 1–3
/// random events each, a refresh after every round, and a full
/// incremental-vs-rebuild comparison after every refresh.
fn run_script<C: CostModel>(model: &C, seed: u64) {
    let mut rng = XorShift64::new(seed);
    let mut state = ClusterState::with_topology(&TopologySpec {
        machines: 4 + rng.below(5) as usize,
        machines_per_rack: 2 + rng.below(2) as usize,
        slots_per_machine: 2,
    });
    let mut ids = Ids {
        next_task: 0,
        next_job: 0,
        next_machine: 1000,
        next_rack: 100,
        removed_machines: Vec::new(),
    };
    let mut mgr = FlowGraphManager::new();
    let mut machines: Vec<Machine> = state.machines.values().cloned().collect();
    machines.sort_by_key(|m| m.id);
    for m in machines {
        mgr.apply_event(model, &state, &ClusterEvent::MachineAdded { machine: m })
            .expect("initial machine");
    }
    // Delta-replay oracle state: drain the build-up batch, then snapshot.
    mgr.take_deltas();
    let mut snapshot = mgr.graph().clone();
    for round in 0..ROUNDS_PER_SCRIPT {
        let events = 1 + rng.below(3);
        for _ in 0..events {
            random_event(&mut rng, &mut ids, &mut state, &mut mgr, model);
        }
        mgr.refresh(model, &state)
            .unwrap_or_else(|e| panic!("{} seed {seed} round {round}: refresh: {e}", model.name()));
        assert_task_table(model.name(), seed, round, &mgr, &state);
        // Replaying the round's recorded batch onto the previous round's
        // snapshot must reproduce the live graph exactly.
        let batch = mgr.take_deltas();
        batch
            .replay(&mut snapshot)
            .unwrap_or_else(|e| panic!("{} seed {seed} round {round}: replay: {e}", model.name()));
        assert_replay_matches(model.name(), seed, round, &snapshot, mgr.graph());
        let fresh = rebuild(model, &state);
        assert_task_table(model.name(), seed, round, &fresh, &state);
        let inc = canonical(mgr.graph());
        let scratch = canonical(fresh.graph());
        assert_eq!(
            inc.0,
            scratch.0,
            "{} seed {seed} round {round}: node sets diverged",
            model.name()
        );
        assert_eq!(
            inc.1,
            scratch.1,
            "{} seed {seed} round {round}: supplies diverged",
            model.name()
        );
        assert_eq!(
            inc.2,
            scratch.2,
            "{} seed {seed} round {round}: arcs diverged",
            model.name()
        );
    }
}

fn run_model<C: CostModel>(make: impl Fn() -> C, salt: u64) {
    for i in 0..SCRIPTS_PER_MODEL {
        let model = make();
        run_script(&model, salt.wrapping_add(i * 0x9E37).max(1));
    }
}

/// The bundle-event matrix: every model re-fuzzed under the
/// [`ConvexFuzzWrapper`], which layers segment-count churn and clock-
/// driven bundle re-pricing (dynamic task arcs) onto the same scripts.
fn run_wrapped_model<C: CostModel>(make: impl Fn() -> C, salt: u64) {
    for i in 0..SCRIPTS_PER_WRAPPED_MODEL {
        let model = ConvexFuzzWrapper { inner: make() };
        run_script(&model, salt.wrapping_add(0xC0 + i * 0x9E37).max(1));
    }
}

/// The bucketed matrix: every model re-fuzzed under the
/// [`BucketedFuzzWrapper`], whose bucketed slot counts churn with machine
/// occupancy so bucket boundaries drift across refreshes.
fn run_bucketed_model<C: CostModel>(make: impl Fn() -> C, salt: u64) {
    for i in 0..SCRIPTS_PER_BUCKETED_MODEL {
        let model = BucketedFuzzWrapper { inner: make() };
        run_script(&model, salt.wrapping_add(0xB0C4 + i * 0x9E37).max(1));
    }
}

#[test]
fn differential_load_spreading() {
    run_model(LoadSpreadingCostModel::new, 0x10AD);
}

#[test]
fn differential_quincy() {
    run_model(|| QuincyCostModel::new(QuincyConfig::default()), 0x0116C7);
}

#[test]
fn differential_octopus() {
    run_model(OctopusCostModel::new, 0x0C107);
}

#[test]
fn differential_network_aware() {
    run_model(NetworkAwareCostModel::new, 0x6E7B);
}

#[test]
fn differential_hierarchy() {
    run_model(HierarchicalTopologyCostModel::new, 0x417AC);
}

#[test]
fn differential_convex_bundles_load_spreading() {
    run_wrapped_model(LoadSpreadingCostModel::new, 0x10AD);
}

#[test]
fn differential_convex_bundles_quincy() {
    run_wrapped_model(|| QuincyCostModel::new(QuincyConfig::default()), 0x0116C7);
}

#[test]
fn differential_convex_bundles_octopus() {
    run_wrapped_model(OctopusCostModel::new, 0x0C107);
}

#[test]
fn differential_convex_bundles_network_aware() {
    run_wrapped_model(NetworkAwareCostModel::new, 0x6E7B);
}

#[test]
fn differential_convex_bundles_hierarchy() {
    run_wrapped_model(HierarchicalTopologyCostModel::new, 0x417AC);
}

#[test]
fn differential_bucketed_load_spreading() {
    run_bucketed_model(LoadSpreadingCostModel::new, 0x10AD);
}

#[test]
fn differential_bucketed_quincy() {
    run_bucketed_model(|| QuincyCostModel::new(QuincyConfig::default()), 0x0116C7);
}

#[test]
fn differential_bucketed_octopus() {
    run_bucketed_model(OctopusCostModel::new, 0x0C107);
}

#[test]
fn differential_bucketed_network_aware() {
    run_bucketed_model(NetworkAwareCostModel::new, 0x6E7B);
}

#[test]
fn differential_bucketed_hierarchy() {
    run_bucketed_model(HierarchicalTopologyCostModel::new, 0x417AC);
}

/// The shipped bucketed model variants themselves (not just wrappers)
/// stay refresh-consistent: the `BundleShape::Bucketed` knob on every
/// load-based model runs a reduced script matrix.
#[test]
fn differential_bucketed_shipped_models() {
    use firmament::policies::BundleShape;
    for i in 0..SCRIPTS_PER_BUCKETED_MODEL {
        let seed = 0x5CA1Eu64.wrapping_add(i * 0x9E37).max(1);
        run_script(&LoadSpreadingCostModel::bucketed(), seed);
        run_script(&OctopusCostModel::bucketed(), seed);
        run_script(
            &HierarchicalTopologyCostModel::with_config(firmament::policies::TopologyConfig {
                shape: BundleShape::Bucketed,
                ..Default::default()
            }),
            seed,
        );
    }
}
