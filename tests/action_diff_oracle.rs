//! Action-diff oracle: every round's actions from `Firmament::schedule`
//! must equal those of a straightforward Listing-1 extraction into a
//! task-ordered map followed by a diff of every extracted task against
//! the cluster state.
//!
//! `reference_extract_placements` and `reference_diff_placements` below
//! are verbatim copies of the scheduler's round tail as it was before it
//! learned to skip unchanged tasks; keep them as they are. The oracle runs
//! beside `schedule` on every round of seeded event streams and compares
//! `actions`, `placed_tasks` and `unscheduled_tasks`. The streams cover:
//!
//! - all five shipped cost models, plus the bucketed shapes of the three
//!   load-based ones (load spreading, Octopus, the topology hierarchy);
//! - job submissions (with input blocks for Quincy's locality arcs and
//!   bandwidth requests for the network-aware model), completions,
//!   preemptions by the cluster, machine failures and repairs, clock
//!   ticks, and the scheduler's own placements, migrations and
//!   preemptions;
//! - rounds whose placements the cluster applies only in part, so the
//!   state lags the flow;
//! - rounds stopped early by `SolveOptions::iteration_limit`, so Listing 1
//!   runs on a pseudoflow.

mod common;

use firmament::cluster::{
    ClusterEvent, ClusterState, Job, JobClass, Machine, MachineId, Task, TaskId, TaskState,
};
use firmament::core::{Firmament, Placement, SchedulingAction};
use firmament::flow::testgen::XorShift64;
use firmament::flow::{FlowGraph, NodeId, NodeKind};
use firmament::mcmf::verify::is_optimal;
use firmament::policies::{
    CostModel, HierarchicalTopologyCostModel, LoadSpreadingCostModel, NetworkAwareCostModel,
    OctopusCostModel, QuincyConfig, QuincyCostModel,
};
use std::collections::{BTreeMap, VecDeque};

const ROUNDS: u64 = 40;
const SEEDS: u64 = 4;

fn reference_extract_placements(graph: &FlowGraph) -> BTreeMap<u64, Placement> {
    let n = graph.node_bound();
    // Each node's machine list is a stack of units threaded through one
    // arena: `top[v]` is the last machine appended to `v`'s list, and each
    // unit links to the one appended before it. Handing a node's last `k`
    // machines to another node relinks them in order, without copying.
    let mut units: Vec<Unit> = Vec::new();
    let mut top: Vec<usize> = vec![NIL; n];
    let mut len: Vec<usize> = vec![0; n];
    // Machines already propagated along each arc pair, by pair index.
    let mut moved: Vec<i64> = vec![0; graph.arc_bound() / 2];
    let mut to_visit: VecDeque<NodeId> = VecDeque::new();
    let mut queued: Vec<bool> = vec![false; n];
    // Task nodes in node order; each defaults to unscheduled.
    let mut tasks: Vec<(u64, NodeId)> = Vec::new();
    // Per task node: the (1-based) order of its latest assignment, 0 while
    // unassigned, and the machine assigned.
    let mut assigned: Vec<(u32, u64)> = vec![(0, 0); n];

    for v in graph.node_ids() {
        match graph.kind(v) {
            NodeKind::Machine { machine } => {
                // A machine's outgoing flow (to the sink) is the number of
                // task units placed on it.
                let placed: i64 = graph
                    .adj(v)
                    .iter()
                    .copied()
                    .filter(|&a| a.is_forward())
                    .map(|a| graph.flow(a))
                    .sum();
                if placed > 0 {
                    for _ in 0..placed {
                        units.push(Unit {
                            machine,
                            below: top[v.index()],
                        });
                        top[v.index()] = units.len() - 1;
                    }
                    len[v.index()] = placed as usize;
                    to_visit.push_back(v);
                    queued[v.index()] = true;
                }
            }
            NodeKind::Task { task } => tasks.push((task, v)),
            _ => {}
        }
    }

    let mut assignments = 0u32;
    while let Some(node) = to_visit.pop_front() {
        let i = node.index();
        queued[i] = false;
        if graph.kind(node).is_task() {
            if len[i] > 0 {
                let unit = units[top[i]];
                top[i] = unit.below;
                len[i] -= 1;
                assignments += 1;
                assigned[i] = (assignments, unit.machine);
            }
            continue;
        }
        // Visit incoming arcs: reverse residual arcs out of `node` whose
        // sister (the forward arc into `node`) carries flow.
        for &a in graph.adj(node) {
            if len[i] == 0 {
                break;
            }
            if a.is_forward() {
                continue;
            }
            let pair = a.index() / 2;
            let need = graph.flow(a) - moved[pair];
            if need <= 0 {
                continue;
            }
            let k = need.min(len[i] as i64) as usize;
            let source = graph.dst(a).index();
            // Move the last `k` machines of `node` onto `source`, keeping
            // their order: the segment's first unit now sits on `source`'s
            // previous last one.
            let last = top[i];
            let mut first = last;
            for _ in 1..k {
                first = units[first].below;
            }
            top[i] = std::mem::replace(&mut units[first].below, top[source]);
            top[source] = last;
            len[i] -= k;
            len[source] += k;
            moved[pair] += k as i64;
            if !queued[source] {
                to_visit.push_back(NodeId::from_index(source));
                queued[source] = true;
            }
        }
    }

    // Several task nodes may carry one task id; as with inserting in
    // visit order, the latest assignment wins (an unassigned duplicate
    // reads as unscheduled). Sorting by (id, order) and keeping each id's
    // last entry feeds the map already sorted, so it bulk-builds.
    let mut entries: Vec<(u64, u32, Placement)> = tasks
        .into_iter()
        .map(|(task, v)| match assigned[v.index()] {
            (0, _) => (task, 0, Placement::Unscheduled),
            (order, m) => (task, order, Placement::OnMachine(m)),
        })
        .collect();
    entries.sort_unstable_by_key(|&(task, order, _)| (task, order));
    entries.dedup_by(|later, earlier| {
        let same = later.0 == earlier.0;
        if same {
            *earlier = *later;
        }
        same
    });
    entries
        .into_iter()
        .map(|(task, _, placement)| (task, placement))
        .collect()
}

/// End of a machine stack in [`reference_extract_placements`].
const NIL: usize = usize::MAX;

/// One unit of flow on its way back from a machine to a task.
#[derive(Clone, Copy)]
struct Unit {
    /// The machine the unit reached.
    machine: u64,
    /// The unit appended to the same node's list just before this one.
    below: usize,
}

fn reference_diff_placements(
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
            // Waiting task gets a machine: place it.
            (TaskState::Waiting | TaskState::Preempted, _, Placement::OnMachine(m)) => {
                moves.push(SchedulingAction::Place { task, machine: *m });
            }
            // Running task keeps its machine: no action.
            (TaskState::Running, Some(cur), Placement::OnMachine(m)) if cur == *m => {}
            // Running task moved: migration = preempt + place.
            (TaskState::Running, Some(_), Placement::OnMachine(m)) => {
                preemptions.push(SchedulingAction::Preempt { task });
                moves.push(SchedulingAction::Place { task, machine: *m });
            }
            // Running task lost its flow: preempt it.
            (TaskState::Running, Some(_), Placement::Unscheduled) => {
                preemptions.push(SchedulingAction::Preempt { task });
            }
            _ => {}
        }
    }
    preemptions.extend(moves);
    preemptions
}

fn feed<C: CostModel>(state: &mut ClusterState, f: &mut Firmament<C>, ev: ClusterEvent) {
    state.apply(&ev);
    f.handle_event(state, &ev).unwrap();
}

/// Submits a job of `n` tasks with mixed durations; about half read an
/// input block held by one to three machines, and bandwidth requests
/// cycle through four classes.
fn submit_with_blocks<C: CostModel>(
    state: &mut ClusterState,
    f: &mut Firmament<C>,
    rng: &mut XorShift64,
    job: u64,
    n: usize,
) {
    let j = Job::new(job, JobClass::Batch, 0, state.now);
    let mut holders: Vec<MachineId> = state.machines.keys().copied().collect();
    holders.sort_unstable();
    let tasks: Vec<Task> = (0..n)
        .map(|i| {
            let mut t = Task::new(
                job * 1000 + i as u64,
                job,
                state.now,
                5_000_000 + rng.below(20_000_000),
            );
            t.request.net_mbps = t.id % 4 * 1_200;
            if rng.below(2) == 0 && !holders.is_empty() {
                let k = 1 + rng.below(3) as usize;
                let picked = (0..k)
                    .map(|_| holders[rng.below(holders.len() as u64) as usize])
                    .collect();
                t.input_blocks = vec![state.blocks.place_block(picked)];
                t.input_bytes = 1_000_000_000 + rng.below(3_000_000_000);
            }
            t
        })
        .collect();
    feed(state, f, ClusterEvent::JobSubmitted { job: j, tasks });
}

/// What one run exercised, summed over its rounds.
#[derive(Debug, Default)]
struct Coverage {
    places: usize,
    preempts: usize,
    early_stops: usize,
}

/// One seeded stream: each round feeds random events, schedules, checks
/// the round against the oracle, and applies the actions (sometimes only
/// in part).
fn run<C: CostModel>(model: C, seed: u64, coverage: &mut Coverage) {
    let name = model.name();
    let mut state = common::cluster(12, 3, 4);
    let mut f = Firmament::new(model);
    common::register(&state, &mut f);
    // A block-free warm-up load, scheduled with round 0.
    common::submit(&mut state, &mut f, 1000, 20);
    let mut rng = XorShift64::new(seed);
    let mut failed: Vec<Machine> = Vec::new();
    for round in 0..ROUNDS {
        let now = state.now;
        let mut running: Vec<TaskId> = state.running_tasks().map(|t| t.id).collect();
        running.sort_unstable();
        for task in running {
            match rng.below(10) {
                0 | 1 => feed(
                    &mut state,
                    &mut f,
                    ClusterEvent::TaskCompleted { task, now },
                ),
                2 => feed(
                    &mut state,
                    &mut f,
                    ClusterEvent::TaskPreempted { task, now },
                ),
                _ => {}
            }
        }
        match rng.below(6) {
            0 if state.machines.len() > 4 => {
                let mut ids: Vec<MachineId> = state.machines.keys().copied().collect();
                ids.sort_unstable();
                let machine = ids[rng.below(ids.len() as u64) as usize];
                failed.push(state.machines[&machine].clone());
                feed(
                    &mut state,
                    &mut f,
                    ClusterEvent::MachineRemoved { machine, now },
                );
            }
            1 if !failed.is_empty() => {
                let mut machine = failed.swap_remove(rng.below(failed.len() as u64) as usize);
                machine.running.clear();
                feed(&mut state, &mut f, ClusterEvent::MachineAdded { machine });
            }
            _ => {}
        }
        let n = rng.below(9) as usize;
        if n > 0 {
            submit_with_blocks(&mut state, &mut f, &mut rng, round, n);
        }
        let now = state.now + 200_000 + rng.below(3) * 700_000;
        feed(&mut state, &mut f, ClusterEvent::Tick { now });

        let early = round % 7 == 5;
        f.solve_options.iteration_limit = early.then(|| 1 + rng.below(10));
        let out = f.schedule(&state).unwrap();
        f.solve_options.iteration_limit = None;
        let at = format!("{name} seed {seed} round {round}");
        if early && !is_optimal(f.graph()) {
            coverage.early_stops += 1;
        }

        let placements = reference_extract_placements(f.graph());
        let actions = reference_diff_placements(&state, &placements);
        let placed = placements
            .values()
            .filter(|p| matches!(p, Placement::OnMachine(_)))
            .count();
        assert_eq!(out.actions, actions, "{at}: actions");
        assert_eq!(out.placed_tasks, placed, "{at}: placed_tasks");
        assert_eq!(
            out.unscheduled_tasks,
            placements.len() - placed,
            "{at}: unscheduled_tasks"
        );

        // Preemptions always apply; a third of the rounds drop some
        // placements, as a cluster manager that could not start them would.
        let partial = rng.below(3) == 0;
        let applied: Vec<SchedulingAction> = out
            .actions
            .iter()
            .copied()
            .filter(|a| match a {
                SchedulingAction::Place { .. } => !partial || rng.below(2) == 0,
                SchedulingAction::Preempt { .. } => true,
            })
            .collect();
        for a in &out.actions {
            match a {
                SchedulingAction::Place { .. } => coverage.places += 1,
                SchedulingAction::Preempt { .. } => coverage.preempts += 1,
            }
        }
        common::apply(&mut state, &mut f, &applied);
    }
}

fn check<C: CostModel>(make: impl Fn() -> C, salt: u64) {
    let mut coverage = Coverage::default();
    for i in 0..SEEDS {
        run(make(), salt.wrapping_add(i * 0x9E37), &mut coverage);
    }
    assert!(coverage.places > 0, "{coverage:?}");
    assert!(coverage.preempts > 0, "{coverage:?}");
    assert!(coverage.early_stops > 0, "{coverage:?}");
}

#[test]
fn oracle_load_spreading() {
    check(LoadSpreadingCostModel::new, 0x10AD);
}

#[test]
fn oracle_load_spreading_bucketed() {
    check(LoadSpreadingCostModel::bucketed, 0x10AE);
}

#[test]
fn oracle_quincy() {
    check(|| QuincyCostModel::new(QuincyConfig::default()), 0x0116C7);
}

#[test]
fn oracle_octopus() {
    check(OctopusCostModel::new, 0x0C107);
}

#[test]
fn oracle_octopus_bucketed() {
    check(OctopusCostModel::bucketed, 0x0C108);
}

#[test]
fn oracle_network_aware() {
    check(NetworkAwareCostModel::new, 0x6E7B);
}

#[test]
fn oracle_hierarchy() {
    check(HierarchicalTopologyCostModel::new, 0x417AC);
}

#[test]
fn oracle_hierarchy_bucketed() {
    check(HierarchicalTopologyCostModel::bucketed, 0x417AD);
}
