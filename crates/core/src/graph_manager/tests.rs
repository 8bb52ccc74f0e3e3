use super::bundles::validate_bundle;
use super::*;
use firmament_cluster::{ClusterEvent, ClusterState, Job, JobClass, Machine, Task, TopologySpec};
use firmament_flow::delta::GraphDelta;
use firmament_policies::{ArcBundle, ArcSpec, CostModel, PolicyError};

/// The first forward arc from `src` to `dst`, if any.
fn find_arc(g: &FlowGraph, src: NodeId, dst: NodeId) -> Option<ArcId> {
    (g.adj(src).iter().copied()).find(|&a| a.is_forward() && g.dst(a) == dst)
}

#[test]
fn base_bookkeeping_roundtrip() {
    let (mut state, mut mgr) = setup(1, 4);
    let sink = mgr.sink();
    submit(&mut state, &mut mgr, 0, 1);
    let g = mgr.graph();
    let (u, ua) = mgr.unscheduled(0).expect("U_0 exists");
    assert_eq!(g.kind(u), NodeKind::UnscheduledAggregator { job: 0 });
    assert_eq!((g.src(ua), g.dst(ua)), (u, sink));
    assert_eq!(g.dst(mgr.task_table().get(0).unwrap().unsched_arc), u);
    // Submitting the task moved the sink demand and `U_0 → S` by one.
    assert_eq!(g.supply(sink), -1);
    assert_eq!(g.capacity(ua), 1);

    for ev in [
        ClusterEvent::TaskPlaced {
            task: 0,
            machine: 0,
            now: 1,
        },
        ClusterEvent::TaskCompleted { task: 0, now: 2 },
    ] {
        state.apply(&ev);
        mgr.apply_event(&TestModel, &state, &ev).unwrap();
    }
    // Completing it moved both back.
    assert_eq!(mgr.graph().supply(sink), 0);
    assert_eq!(mgr.graph().capacity(ua), 0);
    assert!(mgr.task_node(0).is_none());
    assert!(mgr.task_table().is_empty());

    let ev = ClusterEvent::MachineRemoved { machine: 0, now: 3 };
    state.apply(&ev);
    mgr.apply_event(&TestModel, &state, &ev).unwrap();
    assert!(mgr.machine_node(0).is_none());
}

#[test]
fn duplicate_rejected() {
    let (mut state, mut mgr) = setup(1, 1);
    submit(&mut state, &mut mgr, 0, 1);
    mgr.refresh(&TestModel, &state).unwrap();
    let before = untouched(&mgr);
    let stats = mgr.stats();
    let machine = state.machines[&0].clone();
    let ev = ClusterEvent::MachineAdded { machine };
    let err = mgr.apply_event(&TestModel, &state, &ev);
    assert!(
        matches!(err, Err(PolicyError::DuplicateMachine(0))),
        "{err:?}"
    );
    assert_eq!(untouched(&mgr), before);
    mgr.refresh(&TestModel, &state).unwrap();
    assert_eq!(mgr.stats().last_machines_touched, 0);
    assert_eq!(mgr.stats().waiting_rederived, stats.waiting_rederived);
}

#[test]
fn unscheduled_shared_per_job() {
    let (mut state, mut mgr) = setup(1, 1);
    submit(&mut state, &mut mgr, 7, 2);
    let (u, ua) = mgr.unscheduled(7).expect("U_7 exists");
    let g = mgr.graph();
    for (_, entry) in mgr.task_table().iter() {
        assert_eq!(g.dst(entry.unsched_arc), u);
    }
    let unsched = g.node_ids().filter(|&n| g.kind(n) == g.kind(u)).count();
    assert_eq!(unsched, 1);
    assert_eq!(g.capacity(ua), 2);
}

/// A default-built manager is as usable as a `new` one.
#[test]
fn default_manager_schedules() {
    let mut state = ClusterState::with_topology(&TopologySpec {
        machines: 1,
        machines_per_rack: 1,
        slots_per_machine: 1,
    });
    let mut mgr = FlowGraphManager::default();
    let machine = state.machines[&0].clone();
    let ev = ClusterEvent::MachineAdded { machine };
    mgr.apply_event(&TestModel, &state, &ev).unwrap();
    submit(&mut state, &mut mgr, 0, 1);
    mgr.refresh(&TestModel, &state).unwrap();
    assert!(mgr.machine_node(0).is_some());
    assert_eq!(mgr.graph().kind(mgr.sink()), NodeKind::Sink);
    assert_eq!(mgr.graph().supply(mgr.sink()), -1);
    assert_eq!(mgr.graph().capacity(mgr.unscheduled(0).unwrap().1), 1);
}

/// A minimal cost model for manager tests: one cluster aggregate,
/// machine cost = running task count (single-segment bundle).
struct TestModel;
const AGG: AggregateId = 0;

impl CostModel for TestModel {
    fn name(&self) -> &'static str {
        "test"
    }
    fn task_unscheduled_cost(&self, _: &ClusterState, _: &Task) -> i64 {
        10_000
    }
    fn wait_cost_per_sec(&self) -> i64 {
        1
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
    assert!(find_arc(mgr.graph(), t, agg).is_some());
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
            .map(|(rack, slots, running)| (hier_rack_agg(rack), ArcBundle::single(slots, running)))
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

fn hier_setup(machines: usize, per_rack: usize, slots: u32) -> (ClusterState, FlowGraphManager) {
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
    fn aggregate_arc(&self, _: &ClusterState, _: AggregateId, _: &Machine) -> Option<ArcBundle> {
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
        find_arc(mgr.graph(), t, m).is_some(),
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
        mgr.graph().capacity(mgr.unscheduled(0).unwrap().1),
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
    let (_, ua) = mgr.unscheduled(0).unwrap();
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
    let cap = |job| mgr.graph().capacity(mgr.unscheduled(job).unwrap().1);
    assert_eq!(cap(0), 1);
    assert_eq!(cap(1), 3);
    // Capacity appears: two more machines admit the second gang.
    for id in [10u64, 11] {
        let m = Machine::new(id, 0, 1);
        let ev = ClusterEvent::MachineAdded { machine: m };
        state.apply(&ev);
        mgr.apply_event(&GangModel, &state, &ev).unwrap();
    }
    mgr.refresh(&GangModel, &state).unwrap();
    assert!(mgr.deferred_gang_jobs().is_empty());
    assert_eq!(mgr.graph().capacity(mgr.unscheduled(1).unwrap().1), 1);
}

/// A model whose first EC→EC child appears only once machine
/// `LATE_MACHINE` exists: tasks enter `LATE_PARENT`, which has arcs to
/// every other machine, and `LATE_CHILD`, the parent's child from then on,
/// has the one arc to `LATE_MACHINE`.
struct LateHierarchyModel;
const LATE_PARENT: AggregateId = 400;
const LATE_CHILD: AggregateId = 401;
const LATE_MACHINE: MachineId = 50;

impl CostModel for LateHierarchyModel {
    fn name(&self) -> &'static str {
        "late-hierarchy"
    }
    fn task_unscheduled_cost(&self, _: &ClusterState, _: &Task) -> i64 {
        10_000
    }
    fn task_arcs(&self, _: &ClusterState, _: &Task) -> Vec<(ArcTarget, ArcBundle)> {
        vec![(ArcTarget::Aggregate(LATE_PARENT), ArcBundle::cost(1))]
    }
    fn aggregate_arc(
        &self,
        _: &ClusterState,
        aggregate: AggregateId,
        machine: &Machine,
    ) -> Option<ArcBundle> {
        ((aggregate == LATE_CHILD) == (machine.id == LATE_MACHINE))
            .then(|| ArcBundle::single(machine.slots as i64, 2))
    }
    fn aggregate_to_aggregate(
        &self,
        state: &ClusterState,
        aggregate: AggregateId,
    ) -> Vec<(AggregateId, ArcBundle)> {
        let late = state.machines.get(&LATE_MACHINE);
        match late {
            Some(m) if aggregate == LATE_PARENT => {
                vec![(LATE_CHILD, ArcBundle::single(m.slots as i64, 3))]
            }
            _ => Vec::new(),
        }
    }
}

/// Id-independent form of a network: its forward arcs with capacity, as
/// `(src kind, dst kind, capacity, cost)`, sorted.
fn arc_shapes(g: &FlowGraph) -> Vec<(String, String, i64, i64)> {
    let mut arcs: Vec<_> = (g.arc_ids().filter(|&a| g.capacity(a) > 0))
        .map(|a| {
            let (src, dst) = (g.kind(g.src(a)), g.kind(g.dst(a)));
            (src.to_string(), dst.to_string(), g.capacity(a), g.cost(a))
        })
        .collect();
    arcs.sort();
    arcs
}

/// A model's first EC→EC child can appear on a machine arrival, on an
/// aggregate with no arc to the arriving machine: the refresh must query
/// that aggregate again and grow the hierarchy a rebuild would build.
#[test]
fn a_first_hierarchy_on_a_machine_arrival_matches_a_rebuild() {
    let model = LateHierarchyModel;
    let mut state = ClusterState::with_topology(&TopologySpec {
        machines: 2,
        machines_per_rack: 20,
        slots_per_machine: 2,
    });
    let add_machines = |state: &ClusterState, mgr: &mut FlowGraphManager| {
        let mut machines: Vec<Machine> = state.machines.values().cloned().collect();
        machines.sort_by_key(|m| m.id);
        for machine in machines {
            let ev = ClusterEvent::MachineAdded { machine };
            mgr.apply_event(&model, state, &ev).unwrap();
        }
    };
    let mut mgr = FlowGraphManager::new();
    add_machines(&state, &mut mgr);
    let job = Job::new(0, JobClass::Batch, 0, 0);
    let tasks: Vec<Task> = (0..3).map(|i| Task::new(i, 0, 0, 1_000_000)).collect();
    let submitted = ClusterEvent::JobSubmitted { job, tasks };
    state.apply(&submitted);
    mgr.apply_event(&model, &state, &submitted).unwrap();
    mgr.refresh(&model, &state).unwrap();
    assert!(mgr.aggregate_node(LATE_CHILD).is_none());

    let arrival = ClusterEvent::MachineAdded {
        machine: Machine::new(LATE_MACHINE, 0, 2),
    };
    state.apply(&arrival);
    mgr.apply_event(&model, &state, &arrival).unwrap();
    mgr.refresh(&model, &state).unwrap();

    let mut rebuilt = FlowGraphManager::new();
    add_machines(&state, &mut rebuilt);
    rebuilt.apply_event(&model, &state, &submitted).unwrap();
    rebuilt.refresh(&model, &state).unwrap();
    assert!(mgr.aggregate_node(LATE_CHILD).is_some());
    assert_eq!(arc_shapes(mgr.graph()), arc_shapes(rebuilt.graph()));
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
    // The `machine_in_new_rack_extends_hierarchy_on_refresh` scenario,
    // re-checked here because it is exactly what the blanket dirtying of
    // every aggregate on a machine event exists for.
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
        mgr.task_table().clone(),
    )
}

#[test]
fn rejected_completion_leaves_graph_untouched() {
    let (mut state, mut mgr) = setup(2, 2);
    submit(&mut state, &mut mgr, 0, 3);
    mgr.refresh(&TestModel, &state).unwrap();
    // Route flow through the tasks, so a premature drain would show.
    let mut g = mgr.take_graph();
    firmament_mcmf::relaxation::solve(&mut g, &firmament_mcmf::SolveOptions::unlimited()).unwrap();
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

/// A rejected placement or preemption changes nothing. The lookups run
/// in a fixed order — the task's node, the target machine's node, the task
/// in the cluster state — and all precede the drain.
#[test]
fn rejected_placement_and_preemption_leave_graph_untouched() {
    let (mut state, mut mgr) = setup(2, 2);
    submit(&mut state, &mut mgr, 0, 3);
    mgr.refresh(&TestModel, &state).unwrap();
    // Route flow through the tasks, so a premature drain would show.
    let mut g = mgr.take_graph();
    firmament_mcmf::relaxation::solve(&mut g, &firmament_mcmf::SolveOptions::unlimited()).unwrap();
    mgr.adopt_graph(g);
    let t = mgr.task_node(0).unwrap();
    assert!(mgr
        .graph()
        .adj(t)
        .iter()
        .any(|&a| a.is_forward() && mgr.graph().flow(a) > 0));
    mgr.take_deltas();

    // The cluster state no longer knows task 0.
    let mut stale = state.clone();
    stale.tasks.remove(&0);
    let now = state.now;
    let place = |task, machine| ClusterEvent::TaskPlaced { task, machine, now };
    let preempt = |task| ClusterEvent::TaskPreempted { task, now };
    let before = untouched(&mgr);
    for (ev, st, expected) in [
        (place(0, 999), &state, PolicyError::UnknownMachine(999)),
        (place(999, 0), &state, PolicyError::UnknownTask(999)),
        (preempt(999), &state, PolicyError::UnknownTask(999)),
        (place(0, 0), &stale, PolicyError::UnknownTask(0)),
        (preempt(0), &stale, PolicyError::UnknownTask(0)),
        // The task's node is looked up before the machine's, and the
        // machine's before the task in the cluster state.
        (place(999, 999), &state, PolicyError::UnknownTask(999)),
        (place(0, 999), &stale, PolicyError::UnknownMachine(999)),
    ] {
        let err = mgr.apply_event(&TestModel, st, &ev).unwrap_err();
        assert_eq!(format!("{err:?}"), format!("{expected:?}"), "{ev:?}");
        assert_eq!(untouched(&mgr), before, "{ev:?}");
    }
}

/// A `TaskPlaced` for a task already running elsewhere — a direct
/// migration, which `ClusterState::apply` supports — re-prices the machine
/// the task left as well as the one it joined.
#[test]
fn direct_migration_dirties_the_old_machine() {
    let model = firmament_policies::LoadSpreadingCostModel::new();
    let mut state = ClusterState::with_topology(&TopologySpec {
        machines: 2,
        machines_per_rack: 20,
        slots_per_machine: 4,
    });
    let mut machines: Vec<Machine> = state.machines.values().cloned().collect();
    machines.sort_by_key(|m| m.id);
    let mut events: Vec<ClusterEvent> = machines
        .into_iter()
        .map(|machine| ClusterEvent::MachineAdded { machine })
        .collect();
    events.push(ClusterEvent::JobSubmitted {
        job: Job::new(0, JobClass::Batch, 0, state.now),
        tasks: vec![Task::new(0, 0, 0, 1_000_000), Task::new(1, 0, 0, 1_000_000)],
    });
    let mut mgr = FlowGraphManager::new();
    for ev in &events {
        state.apply(ev);
        mgr.apply_event(&model, &state, ev).unwrap();
    }
    for machine in [0, 1] {
        let ev = ClusterEvent::TaskPlaced {
            task: 0,
            machine,
            now: state.now,
        };
        state.apply(&ev);
        mgr.apply_event(&model, &state, &ev).unwrap();
        mgr.refresh(&model, &state).unwrap();
        if machine == 1 {
            events.push(ev);
        }
    }
    assert_eq!(mgr.stats().last_machines_touched, 2);

    // A manager built from the final state alone.
    let mut fresh = FlowGraphManager::new();
    for ev in &events {
        fresh.apply_event(&model, &state, ev).unwrap();
    }
    fresh.refresh(&model, &state).unwrap();
    // The model's one aggregate is the cluster-wide `X`.
    let costs = |mgr: &FlowGraphManager, machine| -> Vec<i64> {
        let slots = mgr.aggregate_machine_slots(0, machine).unwrap();
        slots.iter().map(|&a| mgr.graph().cost(a)).collect()
    };
    assert_eq!(costs(&mgr, 0), [0, 10, 20, 30]);
    assert_eq!(costs(&mgr, 1), [10, 20, 30, 40]);
    for machine in [0, 1] {
        assert_eq!(costs(&mgr, machine), costs(&fresh, machine));
    }
}

/// Removing an unknown machine is rejected before it dirties anything,
/// even under a hierarchy model, whose machine events dirty every
/// aggregate.
#[test]
fn rejected_machine_removal_changes_nothing() {
    let model = firmament_policies::HierarchicalTopologyCostModel::new();
    let mut state = ClusterState::with_topology(&TopologySpec {
        machines: 8,
        machines_per_rack: 4,
        slots_per_machine: 2,
    });
    let mut mgr = FlowGraphManager::new();
    let mut machines: Vec<Machine> = state.machines.values().cloned().collect();
    machines.sort_by_key(|m| m.id);
    for machine in machines {
        let ev = ClusterEvent::MachineAdded { machine };
        mgr.apply_event(&model, &state, &ev).unwrap();
    }
    let ev = ClusterEvent::JobSubmitted {
        job: Job::new(0, JobClass::Batch, 0, state.now),
        tasks: vec![Task::new(0, 0, state.now, 1_000_000)],
    };
    state.apply(&ev);
    mgr.apply_event(&model, &state, &ev).unwrap();
    mgr.refresh(&model, &state).unwrap();
    assert!(mgr.aggregate_count() > 1, "the model builds a hierarchy");

    let before = untouched(&mgr);
    let ev = ClusterEvent::MachineRemoved {
        machine: 999,
        now: state.now,
    };
    let err = mgr.apply_event(&model, &state, &ev);
    assert!(
        matches!(err, Err(PolicyError::UnknownMachine(999))),
        "{err:?}"
    );
    assert_eq!(untouched(&mgr), before);
    mgr.refresh(&model, &state).unwrap();
    assert_eq!(mgr.stats().last_aggregates_touched, 0);
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

// ------------------------------------------------------------------
// Waiting time on the jobs' arcs: the clock tick, the epoch re-base and
// the checked wait-cost arithmetic.
// ------------------------------------------------------------------

/// `TestModel`'s arcs with a chosen base and slope, counting its
/// `task_unscheduled_cost` calls.
struct SlopeModel {
    base: i64,
    per_sec: i64,
    calls: std::cell::Cell<usize>,
}

impl SlopeModel {
    fn new(base: i64, per_sec: i64) -> Self {
        SlopeModel {
            base,
            per_sec,
            calls: std::cell::Cell::new(0),
        }
    }
}

impl CostModel for SlopeModel {
    fn name(&self) -> &'static str {
        "slope"
    }
    fn task_unscheduled_cost(&self, _: &ClusterState, _: &Task) -> i64 {
        self.calls.set(self.calls.get() + 1);
        self.base
    }
    fn wait_cost_per_sec(&self) -> i64 {
        self.per_sec
    }
    fn task_arcs(&self, state: &ClusterState, task: &Task) -> Vec<(ArcTarget, ArcBundle)> {
        TestModel.task_arcs(state, task)
    }
    fn aggregate_arc(
        &self,
        state: &ClusterState,
        aggregate: AggregateId,
        machine: &Machine,
    ) -> Option<ArcBundle> {
        TestModel.aggregate_arc(state, aggregate, machine)
    }
}

/// Feeds `ev` to the state and then to the manager.
fn feed<C: CostModel>(
    state: &mut ClusterState,
    mgr: &mut FlowGraphManager,
    model: &C,
    ev: ClusterEvent,
) -> Result<(), PolicyError> {
    state.apply(&ev);
    mgr.apply_event(model, state, &ev)
}

/// `jobs` jobs of `per_job` tasks each, submitted at `state.now`, with
/// task ids from `first`.
fn submit_jobs<C: CostModel>(
    state: &mut ClusterState,
    mgr: &mut FlowGraphManager,
    model: &C,
    first: TaskId,
    jobs: u64,
    per_job: u64,
) {
    for j in 0..jobs {
        let job = first + j;
        let tasks = (0..per_job)
            .map(|i| Task::new(first + j * per_job + i, job, state.now, 10_000_000))
            .collect();
        let job = Job::new(job, JobClass::Batch, 0, state.now);
        feed(state, mgr, model, ClusterEvent::JobSubmitted { job, tasks }).unwrap();
    }
}

/// The clock's share of waiting: the cost of job `job`'s `U_j → S` arc.
fn clock_cost(mgr: &FlowGraphManager, job: u64) -> i64 {
    mgr.graph().cost(mgr.unscheduled(job).unwrap().1)
}

/// What leaving each task unscheduled costs along `T → U_j → S`, checked
/// against base + per_sec × (⌊now⌋ − ⌊submit⌋), with every `T → U_j` and
/// `U_j → S` cost at or above zero.
fn assert_path_costs(mgr: &FlowGraphManager, state: &ClusterState, base: i64, per_sec: i64) {
    let g = mgr.graph();
    for (tid, entry) in mgr.task_table().iter() {
        let task = &state.tasks[&tid];
        let clock = clock_cost(mgr, task.job);
        assert!(clock >= 0, "task {tid}: U_j → S costs {clock}");
        let waited = firmament_policies::whole_seconds(state.now)
            - firmament_policies::whole_seconds(task.submit_time);
        let arc = g.cost(entry.unsched_arc);
        assert!(arc >= 0, "task {tid}: T → U_j costs {arc}");
        assert_eq!(arc + clock, base + per_sec * waited, "task {tid}");
    }
}

/// A tick-only round re-prices no task at any task count: no base is
/// queried, no task is touched, and the batch holds exactly one cost
/// change per job, on its `U_j → S` arc, or nothing when the whole second
/// did not change.
#[test]
fn clock_tick_is_one_cost_change_per_job_at_any_task_count() {
    const JOBS: u64 = 8;
    for tasks in [64u64, 128, 256] {
        let model = SlopeModel::new(10_000, 3);
        let (mut state, mut mgr) = setup(4, 4);
        submit_jobs(&mut state, &mut mgr, &model, 0, JOBS, tasks / JOBS);
        // Two tasks run, so preemption arcs are in the table too.
        for (task, machine) in [(0, 0), (1, 1)] {
            let now = state.now;
            let ev = ClusterEvent::TaskPlaced { task, machine, now };
            feed(&mut state, &mut mgr, &model, ev).unwrap();
        }
        mgr.refresh(&model, &state).unwrap();
        mgr.take_deltas();
        let mut clocks: Vec<ArcId> = (0..JOBS).map(|j| mgr.unscheduled(j).unwrap().1).collect();
        clocks.sort_unstable();
        for (now, changed) in [(1_000_000, true), (1_700_000, false), (4_200_000, true)] {
            feed(&mut state, &mut mgr, &model, ClusterEvent::Tick { now }).unwrap();
            model.calls.set(0);
            mgr.refresh(&model, &state).unwrap();
            assert_eq!(model.calls.get(), 0, "{tasks} tasks, now {now}");
            assert_eq!(mgr.stats().last_tasks_touched, 0, "{tasks} tasks");
            let batch = mgr.take_deltas();
            let new = 3 * firmament_policies::whole_seconds(now);
            if changed {
                let mut arcs: Vec<ArcId> = (batch.deltas().iter())
                    .map(|d| match d {
                        GraphDelta::CostChanged { arc, new: c, .. } if *c == new => *arc,
                        d => panic!("{tasks} tasks, now {now}: {d:?}"),
                    })
                    .collect();
                arcs.sort_unstable();
                assert_eq!(arcs, clocks, "{tasks} tasks, now {now}");
            } else {
                assert!(batch.is_empty(), "{tasks} tasks: {:?}", batch.deltas());
            }
            assert_path_costs(&mgr, &state, 10_000, 3);
        }
    }
}

/// Once the next `U_j → S` cost would exceed the smallest base, the epoch
/// re-bases to ⌊now⌋: `U_j → S` drops to 0, every task is re-priced from
/// its base, and no `T → U_j` cost is negative — including a task that
/// arrived priced at the old epoch.
#[test]
fn epoch_rebases_past_the_smallest_base() {
    let model = SlopeModel::new(1_000, 100);
    let (mut state, mut mgr) = setup(2, 2);
    submit_jobs(&mut state, &mut mgr, &model, 0, 2, 3);
    mgr.refresh(&model, &state).unwrap();
    assert_eq!(mgr.epoch, Some(0));
    let tick = |now| ClusterEvent::Tick { now };
    feed(&mut state, &mut mgr, &model, tick(5_000_000)).unwrap();
    submit_jobs(&mut state, &mut mgr, &model, 100, 1, 2);
    mgr.refresh(&model, &state).unwrap();
    // 100 × 5 s ≤ 1,000: no re-base; the late tasks sit 500 below base.
    assert_eq!(mgr.epoch, Some(0));
    assert_eq!(clock_cost(&mgr, 0), 500);
    assert_eq!(clock_cost(&mgr, 100), 500);
    assert_path_costs(&mgr, &state, 1_000, 100);

    // At 12 s a task arriving at the old epoch would cost 1,000 − 1,200.
    feed(&mut state, &mut mgr, &model, tick(12_000_000)).unwrap();
    submit_jobs(&mut state, &mut mgr, &model, 200, 1, 1);
    model.calls.set(0);
    mgr.refresh(&model, &state).unwrap();
    assert_eq!(mgr.epoch, Some(12));
    assert_eq!(clock_cost(&mgr, 0), 0);
    assert_eq!(mgr.min_base, 1_000);
    assert_eq!(mgr.stats().last_tasks_touched, mgr.task_table().len());
    assert_eq!(model.calls.get(), 1 + mgr.task_table().len());
    assert_path_costs(&mgr, &state, 1_000, 100);
    let late = mgr.task_table().get(200).unwrap().unsched_arc;
    assert_eq!(mgr.graph().cost(late), 1_000);

    // The next tick is one cost change per job again.
    feed(&mut state, &mut mgr, &model, tick(13_000_000)).unwrap();
    mgr.take_deltas();
    mgr.refresh(&model, &state).unwrap();
    assert_eq!(mgr.take_deltas().len(), 4);
    assert_path_costs(&mgr, &state, 1_000, 100);
}

/// A slope whose wait cost overflows `i64` is rejected with the typed
/// error before the graph changes: on the `U_j → S` arcs at refresh, and on
/// a late task's `T → U_j` arc at submission.
#[test]
fn wait_cost_overflow_leaves_the_manager_untouched() {
    let model = SlopeModel::new(10_000, i64::MAX / 4);
    let (mut state, mut mgr) = setup(2, 2);
    submit_jobs(&mut state, &mut mgr, &model, 0, 1, 3);
    mgr.refresh(&model, &state).unwrap();
    let ev = ClusterEvent::Tick { now: 8_000_000 };
    feed(&mut state, &mut mgr, &model, ev).unwrap();
    let before = untouched(&mgr);
    let stats = mgr.stats();
    let err = mgr.refresh(&model, &state);
    assert!(
        matches!(err, Err(PolicyError::WaitCostOverflow { task: None })),
        "{err:?}"
    );
    assert_eq!(untouched(&mgr), before);
    assert_eq!(mgr.stats().rounds, stats.rounds);
    assert_eq!(mgr.epoch, Some(0));

    // A task submitted at 8 s is 8 s past the epoch: its own term
    // overflows too, and the submission adds nothing.
    let tasks = vec![Task::new(50, 5, state.now, 10_000_000)];
    let job = Job::new(5, JobClass::Batch, 0, state.now);
    let err = feed(
        &mut state,
        &mut mgr,
        &model,
        ClusterEvent::JobSubmitted { job, tasks },
    );
    assert!(
        matches!(err, Err(PolicyError::WaitCostOverflow { task: Some(50) })),
        "{err:?}"
    );
    assert_eq!(untouched(&mgr), before);
    assert!(mgr.unscheduled(5).is_none());
}

/// Task arcs that turn non-convex once the task has run:
/// `ladder([9, 2])` to machine 0.
struct RanThereModel;

impl CostModel for RanThereModel {
    fn name(&self) -> &'static str {
        "ran-there"
    }
    fn task_unscheduled_cost(&self, state: &ClusterState, task: &Task) -> i64 {
        TestModel.task_unscheduled_cost(state, task)
    }
    fn task_arcs(&self, state: &ClusterState, task: &Task) -> Vec<(ArcTarget, ArcBundle)> {
        if task.executed > 0 {
            vec![(ArcTarget::Machine(0), ArcBundle::ladder([9, 2]))]
        } else {
            TestModel.task_arcs(state, task)
        }
    }
    fn aggregate_arc(
        &self,
        state: &ClusterState,
        aggregate: AggregateId,
        machine: &Machine,
    ) -> Option<ArcBundle> {
        TestModel.aggregate_arc(state, aggregate, machine)
    }
}

/// A preemption whose re-declared waiting arcs are rejected leaves the
/// task running where it was: the declaration is validated before the
/// task's flow is drained or its arcs stripped.
#[test]
fn rejected_preemption_leaves_the_task_running() {
    let model = RanThereModel;
    let (mut state, mut mgr) = setup(2, 2);
    submit_jobs(&mut state, &mut mgr, &model, 0, 1, 1);
    let ev = ClusterEvent::TaskPlaced {
        task: 0,
        machine: 0,
        now: 1_000_000,
    };
    feed(&mut state, &mut mgr, &model, ev).unwrap();
    mgr.refresh(&model, &state).unwrap();
    // Route the running task's flow, so a premature drain would show.
    let mut g = mgr.take_graph();
    firmament_mcmf::relaxation::solve(&mut g, &firmament_mcmf::SolveOptions::unlimited()).unwrap();
    mgr.adopt_graph(g);
    mgr.take_deltas();

    let ev = ClusterEvent::TaskPreempted {
        task: 0,
        now: 5_000_000,
    };
    state.apply(&ev);
    let before = untouched(&mgr);
    let err = mgr.apply_event(&model, &state, &ev);
    assert!(
        matches!(
            err,
            Err(PolicyError::NonConvexBundle {
                hook: "task_arcs",
                prev: 9,
                next: 2
            })
        ),
        "{err:?}"
    );
    assert_eq!(untouched(&mgr), before);
    assert_eq!(mgr.task_table().get(0).unwrap().running, Some(0));
}
