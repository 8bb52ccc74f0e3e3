//! Cross-policy conformance suite for the [`CostModel`] API.
//!
//! Every cost model — the three paper policies, the Octopus model, and a
//! test-only custom model exercising the gang hook — is driven through the
//! same event scripts (submit, place, complete, preempt, machine add and
//! remove) and must uphold the scheduler-wide invariants:
//!
//! - **solver consistency**: every solver configuration produces the same
//!   objective for the same graph;
//! - **no thrash**: a round without cluster changes produces no actions;
//! - **accounting**: placements + unscheduled = incomplete tasks, and no
//!   machine is ever overcommitted;
//! - **recovery**: machine failure requeues and reschedules displaced
//!   tasks;
//! - **determinism**: identical seeded runs produce identical actions.

use firmament::cluster::{ClusterEvent, ClusterState, Job, Task};
use firmament::core::{Firmament, SchedulingAction};
use firmament::flow::{FlowGraph, NodeKind};
use firmament::mcmf::{DualConfig, SolverKind};
mod common;
use common::{apply, cluster, register, submit};
use firmament::policies::{
    CostModel, HierarchicalTopologyCostModel, LoadSpreadingCostModel, NetworkAwareCostModel,
    OctopusCostModel, QuincyConfig, QuincyCostModel,
};

/// Flow conservation at every aggregator level: for each non-terminal
/// node (aggregates, rack/cluster/request aggregators, unscheduled
/// aggregators — anything between tasks and the sink), inflow must equal
/// outflow. With EC→EC hierarchies, flow crosses *multiple* aggregator
/// hops, and a refresh bug at any level would strand or invent flow.
fn assert_aggregator_flow_conservation(g: &FlowGraph, policy: &str) {
    for n in g.node_ids() {
        let kind = g.kind(n);
        if !kind.is_aggregator() && !kind.is_machine() {
            continue;
        }
        let mut inflow = 0i64;
        let mut outflow = 0i64;
        for &a in g.adj(n) {
            let f = g.flow(a.forward());
            if a.is_forward() {
                outflow += f;
            } else {
                inflow += f;
            }
        }
        assert_eq!(
            inflow, outflow,
            "{policy}: node {kind} violates flow conservation ({inflow} in, {outflow} out)"
        );
    }
}

fn assert_no_overcommit(state: &ClusterState, policy: &str) {
    for m in state.machines.values() {
        assert!(
            m.running.len() as u32 <= m.slots,
            "{policy}: machine {} overcommitted ({}/{})",
            m.id,
            m.running.len(),
            m.slots
        );
    }
}

/// The shared event script: submit → place → complete → churn (machine
/// remove + add) → reschedule, asserting invariants after every round.
/// Returns all actions, in order, so callers can compare runs.
fn run_script<C: CostModel>(mut f: Firmament<C>) -> Vec<SchedulingAction> {
    let policy = f.model().name();
    let mut state = cluster(8, 2, 4);
    register(&state, &mut f);
    let mut log = Vec::new();

    // Round 1: a job that fits.
    submit(&mut state, &mut f, 0, 10);
    let o = f.schedule(&state).unwrap();
    assert_aggregator_flow_conservation(f.graph(), policy);
    assert_eq!(o.placed_tasks, 10, "{policy}: round 1 places everything");
    assert_eq!(o.placed_tasks + o.unscheduled_tasks, 10, "{policy}");
    apply(&mut state, &mut f, &o.actions);
    assert_no_overcommit(&state, policy);
    log.extend(o.actions);

    // No-thrash: nothing changed, nothing moves.
    let o = f.schedule(&state).unwrap();
    assert_aggregator_flow_conservation(f.graph(), policy);
    assert!(
        o.actions.is_empty(),
        "{policy}: stable round must be action-free, got {:?}",
        o.actions
    );

    // Oversubscribe: a second job beyond capacity.
    submit(&mut state, &mut f, 1, 10);
    let o = f.schedule(&state).unwrap();
    assert_aggregator_flow_conservation(f.graph(), policy);
    assert_eq!(
        o.placed_tasks + o.unscheduled_tasks,
        20,
        "{policy}: accounting covers all incomplete tasks"
    );
    assert_eq!(o.placed_tasks, 16, "{policy}: all 16 slots fill");
    apply(&mut state, &mut f, &o.actions);
    assert_no_overcommit(&state, policy);
    log.extend(o.actions);

    // Complete three running tasks; the freed slots go to waiting tasks.
    let mut running: Vec<u64> = state.running_tasks().map(|t| t.id).collect();
    running.sort_unstable();
    for t in running.into_iter().take(3) {
        state.now += 1;
        let ev = ClusterEvent::TaskCompleted {
            task: t,
            now: state.now,
        };
        state.apply(&ev);
        f.handle_event(&state, &ev).unwrap();
    }
    let o = f.schedule(&state).unwrap();
    assert_aggregator_flow_conservation(f.graph(), policy);
    assert_eq!(o.placed_tasks, 16, "{policy}: freed slots refill");
    apply(&mut state, &mut f, &o.actions);
    assert_no_overcommit(&state, policy);
    log.extend(o.actions);

    // Fail a machine hosting tasks, then reschedule the displaced work.
    let victim = state
        .machines
        .values()
        .filter(|m| !m.running.is_empty())
        .map(|m| m.id)
        .min()
        .unwrap();
    state.now += 5;
    let removed = state.machines[&victim].clone();
    let ev = ClusterEvent::MachineRemoved {
        machine: victim,
        now: state.now,
    };
    state.apply(&ev);
    f.handle_event(&state, &ev).unwrap();
    let o = f.schedule(&state).unwrap();
    assert_aggregator_flow_conservation(f.graph(), policy);
    apply(&mut state, &mut f, &o.actions);
    assert_no_overcommit(&state, policy);
    assert_eq!(
        state.used_slots(),
        14,
        "{policy}: remaining 7 machines × 2 slots refill after failure"
    );
    log.extend(o.actions);

    // The machine comes back repaired; capacity reappears.
    state.now += 5;
    let mut repaired = removed;
    repaired.running.clear();
    let ev = ClusterEvent::MachineAdded { machine: repaired };
    state.apply(&ev);
    f.handle_event(&state, &ev).unwrap();
    let o = f.schedule(&state).unwrap();
    assert_aggregator_flow_conservation(f.graph(), policy);
    apply(&mut state, &mut f, &o.actions);
    assert_no_overcommit(&state, policy);
    assert_eq!(
        state.used_slots(),
        16,
        "{policy}: full capacity reused after repair"
    );
    log.extend(o.actions);
    log
}

#[test]
fn load_spreading_conforms() {
    run_script(Firmament::new(LoadSpreadingCostModel::new()));
}

#[test]
fn load_spreading_uniform_variant_conforms() {
    // The pre-bundle single-segment arcs (the convex_spreading bench's
    // contrast baseline) must uphold the same invariants.
    run_script(Firmament::new(LoadSpreadingCostModel::uniform()));
}

#[test]
fn quincy_conforms() {
    run_script(Firmament::new(
        QuincyCostModel::new(QuincyConfig::default()),
    ));
}

#[test]
fn network_aware_conforms() {
    run_script(Firmament::new(NetworkAwareCostModel::new()));
}

#[test]
fn octopus_conforms() {
    run_script(Firmament::new(OctopusCostModel::new()));
}

/// Identical runs of the same script must produce byte-identical action
/// logs: placement extraction orders by task id (`BTreeMap`) and the graph
/// manager materializes arcs in sorted order, so there is no hash-map
/// iteration order anywhere in the decision path.
///
/// Asserted for the default `SolverKind::Hedged` and for each single
/// algorithm. The hedge picks its algorithm by counted work, never by
/// time, so it is as deterministic as they are. The opt-in
/// `SolverKind::Dual` race is not covered: it takes whichever algorithm
/// finishes first — a wall-clock property — and equally-optimal flows from
/// different algorithms may permute equal-cost assignments, so it is
/// deterministic in objective but not in action bytes.
fn assert_deterministic<C: CostModel>(make: impl Fn() -> C) {
    for kind in [
        SolverKind::Hedged,
        SolverKind::RelaxationOnly,
        SolverKind::CostScalingOnly,
    ] {
        let mk = || {
            Firmament::with_solver(
                make(),
                DualConfig {
                    kind,
                    ..Default::default()
                },
            )
        };
        let a = run_script(mk());
        let b = run_script(mk());
        assert_eq!(a, b, "{} runs diverged under {kind:?}", make().name());
    }
}

#[test]
fn repeat_runs_are_deterministic() {
    assert_deterministic(|| QuincyCostModel::new(QuincyConfig::default()));
    assert_deterministic(OctopusCostModel::new);
}

/// Every solver configuration agrees on the objective for every model —
/// the solver-consistency invariant across the whole policy surface.
#[test]
fn solver_kinds_agree_for_every_model() {
    fn objectives<C: CostModel>(make: impl Fn() -> C) -> Vec<i64> {
        [
            SolverKind::Hedged,
            SolverKind::Dual,
            SolverKind::RelaxationOnly,
            SolverKind::CostScalingOnly,
        ]
        .into_iter()
        .map(|kind| {
            let mut state = cluster(6, 2, 4);
            let mut f = Firmament::with_solver(
                make(),
                DualConfig {
                    kind,
                    ..Default::default()
                },
            );
            register(&state, &mut f);
            submit(&mut state, &mut f, 0, 9);
            f.schedule(&state).unwrap().objective
        })
        .collect()
    }
    for objs in [
        objectives(LoadSpreadingCostModel::new),
        objectives(|| QuincyCostModel::new(QuincyConfig::default())),
        objectives(NetworkAwareCostModel::new),
        objectives(OctopusCostModel::new),
        objectives(HierarchicalTopologyCostModel::new),
    ] {
        assert_eq!(objs[0], objs[1]);
        assert_eq!(objs[1], objs[2]);
        assert_eq!(objs[2], objs[3]);
    }
}

/// A custom model with a gang requirement proves the API's extensibility:
/// even though unscheduled flow is free, the gang constraint forces the
/// job's minimum through machines.
struct GangModel;

impl CostModel for GangModel {
    fn name(&self) -> &'static str {
        "gang-test"
    }
    fn task_unscheduled_cost(&self, _: &ClusterState, _: &Task) -> i64 {
        0
    }
    fn task_arcs(
        &self,
        _: &ClusterState,
        _: &Task,
    ) -> Vec<(
        firmament::policies::ArcTarget,
        firmament::policies::ArcBundle,
    )> {
        vec![(
            firmament::policies::ArcTarget::Aggregate(0),
            firmament::policies::ArcBundle::cost(1),
        )]
    }
    fn aggregate_arc(
        &self,
        _: &ClusterState,
        _: firmament::policies::AggregateId,
        machine: &firmament::cluster::Machine,
    ) -> Option<firmament::policies::ArcBundle> {
        Some(firmament::policies::ArcBundle::single(
            machine.slots as i64,
            100,
        ))
    }
    fn job_gang_minimum(&self, _: &ClusterState, _: &Job) -> i64 {
        3
    }
}

#[test]
fn gang_minimum_forces_placements() {
    let mut state = cluster(4, 2, 4);
    let mut f = Firmament::new(GangModel);
    register(&state, &mut f);
    submit(&mut state, &mut f, 0, 5);
    let o = f.schedule(&state).unwrap();
    assert_aggregator_flow_conservation(f.graph(), "gang-test");
    // Placing costs 100+ per task while unscheduled is free, so without
    // the gang floor the solver would place nothing.
    assert!(
        o.placed_tasks >= 3,
        "gang minimum of 3 must force ≥3 placements, got {}",
        o.placed_tasks
    );
    assert!(
        o.placed_tasks < 5,
        "free unscheduled flow keeps the rest waiting"
    );
}

/// A model whose ladder prices *decrease* breaks the convexity contract:
/// the manager must reject it with the typed error — through the full
/// scheduler event path, not just the manager API.
struct DecreasingLadderModel;

impl CostModel for DecreasingLadderModel {
    fn name(&self) -> &'static str {
        "decreasing-ladder"
    }
    fn task_unscheduled_cost(&self, _: &ClusterState, _: &Task) -> i64 {
        100_000
    }
    fn task_arcs(
        &self,
        _: &ClusterState,
        _: &Task,
    ) -> Vec<(
        firmament::policies::ArcTarget,
        firmament::policies::ArcBundle,
    )> {
        vec![(
            firmament::policies::ArcTarget::Aggregate(0),
            firmament::policies::ArcBundle::cost(1),
        )]
    }
    fn aggregate_arc(
        &self,
        _: &ClusterState,
        _: firmament::policies::AggregateId,
        _: &firmament::cluster::Machine,
    ) -> Option<firmament::policies::ArcBundle> {
        // "First slot expensive, second cheap" — the solver would fill
        // the cheap segment first, corrupting the declared cost curve.
        Some(firmament::policies::ArcBundle::ladder([20, 10]))
    }
}

#[test]
fn non_convex_ladder_is_rejected_with_typed_error() {
    let mut state = cluster(2, 2, 4);
    let mut f = Firmament::new(DecreasingLadderModel);
    register(&state, &mut f);
    let j = Job::new(0, firmament::cluster::JobClass::Batch, 0, 0);
    let tasks = vec![Task::new(0, 0, 0, 1_000_000)];
    let ev = ClusterEvent::JobSubmitted { job: j, tasks };
    state.apply(&ev);
    let err = f.handle_event(&state, &ev);
    match err {
        Err(firmament::core::SchedulerError::Policy(
            firmament::policies::PolicyError::NonConvexBundle { hook, prev, next },
        )) => {
            assert_eq!(hook, "aggregate_arc");
            assert_eq!((prev, next), (20, 10));
        }
        other => panic!("expected NonConvexBundle, got {other:?}"),
    }
}

/// Every shipped model's declared bundles satisfy the convexity contract
/// for every (aggregate, machine) pair it connects — the static check
/// backing the manager's runtime validation.
#[test]
fn all_shipped_models_declare_convex_bundles() {
    let state = cluster(6, 2, 3);
    let models: Vec<Box<dyn CostModel>> = vec![
        Box::new(LoadSpreadingCostModel::new()),
        Box::new(LoadSpreadingCostModel::uniform()),
        Box::new(QuincyCostModel::new(QuincyConfig::default())),
        Box::new(OctopusCostModel::new()),
        Box::new(NetworkAwareCostModel::new()),
        Box::new(HierarchicalTopologyCostModel::new()),
    ];
    for model in &models {
        let t = Task::new(0, 0, 0, 1_000_000);
        for (_, bundle) in model.task_arcs(&state, &t) {
            assert!(bundle.is_convex(), "{}: task bundle", model.name());
        }
        for agg in 0..8u64 {
            for m in state.machines.values() {
                if let Some(bundle) = model.aggregate_arc(&state, agg, m) {
                    assert!(
                        bundle.is_convex(),
                        "{}: aggregate {agg} → machine {}",
                        model.name(),
                        m.id
                    );
                }
            }
            for (_, bundle) in model.aggregate_to_aggregate(&state, agg) {
                assert!(bundle.is_convex(), "{}: EC→EC from {agg}", model.name());
            }
        }
    }
}

/// The EC→EC hierarchy model upholds every invariant of the shared
/// script: placements are extracted through two aggregator hops (task →
/// cluster root → rack → machine) with flow conserved at both levels.
#[test]
fn hierarchical_topology_conforms() {
    run_script(Firmament::new(HierarchicalTopologyCostModel::new()));
}

#[test]
fn hierarchical_topology_is_deterministic() {
    assert_deterministic(HierarchicalTopologyCostModel::new);
}

/// End-to-end 3-level scheduling: every placement's flow crosses the
/// cluster root *and* a rack aggregate (no task or root arc touches a
/// machine directly), and both levels conserve flow exactly.
#[test]
fn hierarchy_places_through_two_aggregator_hops() {
    let mut state = cluster(6, 2, 3); // 2 racks × 3 machines × 2 slots
    let mut f = Firmament::new(HierarchicalTopologyCostModel::new());
    register(&state, &mut f);
    submit(&mut state, &mut f, 0, 9);
    let o = f.schedule(&state).unwrap();
    assert_eq!(o.placed_tasks, 9, "capacity exists for the whole job");
    assert_aggregator_flow_conservation(f.graph(), "hierarchical-topology");
    let g = f.graph();
    // All placed flow funnels through the single cluster root...
    let root = g
        .node_ids()
        .find(|&n| matches!(g.kind(n), NodeKind::ClusterAggregator))
        .expect("root materialized");
    let root_out: i64 = g
        .adj(root)
        .iter()
        .filter(|a| a.is_forward())
        .map(|&a| g.flow(a))
        .sum();
    assert_eq!(root_out, 9, "all placements route through the root");
    // ...then through rack aggregates, never skipping a level.
    for &a in g.adj(root) {
        if a.is_forward() && g.flow(a) > 0 {
            assert!(
                matches!(g.kind(g.dst(a)), NodeKind::RackAggregator { .. }),
                "root flow must descend to a rack aggregate"
            );
        }
    }
    let rack_to_machine: i64 = g
        .node_ids()
        .filter(|&n| matches!(g.kind(n), NodeKind::RackAggregator { .. }))
        .flat_map(|n| g.adj(n).to_vec())
        .filter(|a| a.is_forward())
        .map(|a| g.flow(a))
        .sum();
    assert_eq!(rack_to_machine, 9, "every unit crosses the rack level too");
    // Cross-rack spreading: with 9 tasks over 2 racks of 6 slots, the
    // load-priced rack arcs split the job across racks.
    apply(&mut state, &mut f, &o.actions);
    let mut per_rack = std::collections::HashMap::new();
    for m in state.machines.values() {
        *per_rack.entry(m.rack).or_insert(0usize) += m.running.len();
    }
    assert!(
        per_rack.values().all(|&n| n >= 3),
        "rack load costs must spread the job, got {per_rack:?}"
    );
}

/// A gang minimum beyond total capacity used to surface as a solver
/// infeasibility error; admission control now queues the job instead and
/// admits it automatically once capacity appears (ROADMAP item).
struct HungryGangModel;

impl CostModel for HungryGangModel {
    fn name(&self) -> &'static str {
        "hungry-gang"
    }
    fn task_unscheduled_cost(&self, _: &ClusterState, _: &Task) -> i64 {
        0
    }
    fn task_arcs(
        &self,
        _: &ClusterState,
        _: &Task,
    ) -> Vec<(
        firmament::policies::ArcTarget,
        firmament::policies::ArcBundle,
    )> {
        vec![(
            firmament::policies::ArcTarget::Aggregate(0),
            firmament::policies::ArcBundle::cost(1),
        )]
    }
    fn aggregate_arc(
        &self,
        _: &ClusterState,
        _: firmament::policies::AggregateId,
        machine: &firmament::cluster::Machine,
    ) -> Option<firmament::policies::ArcBundle> {
        Some(firmament::policies::ArcBundle::single(
            machine.slots as i64,
            100,
        ))
    }
    fn job_gang_minimum(&self, _: &ClusterState, _: &Job) -> i64 {
        6
    }
}

#[test]
fn gang_beyond_capacity_queues_instead_of_erroring() {
    // 4 slots total, gang minimum 6: enforcing it would make the network
    // infeasible.
    let mut state = cluster(4, 1, 4);
    let mut f = Firmament::new(HungryGangModel);
    register(&state, &mut f);
    submit(&mut state, &mut f, 0, 6);
    let o = f
        .schedule(&state)
        .expect("oversized gang must not produce a solver error");
    assert_eq!(o.deferred_gang_jobs, vec![0], "the job is queued");
    assert_eq!(
        o.placed_tasks, 0,
        "unconstrained free-unscheduled flow places nothing"
    );
    // Capacity arrives: four more machines make the gang feasible.
    for id in 100..104u64 {
        let m = firmament::cluster::Machine::new(id, 0, 1);
        let ev = ClusterEvent::MachineAdded { machine: m };
        state.apply(&ev);
        f.handle_event(&state, &ev).unwrap();
    }
    let o = f.schedule(&state).unwrap();
    assert!(o.deferred_gang_jobs.is_empty(), "gang admitted");
    assert!(
        o.placed_tasks >= 6,
        "admitted gang forces ≥6 placements, got {}",
        o.placed_tasks
    );
}

/// A model that keys an aggregate per *job* — exactly the pattern the old
/// permanent-aggregate contract warned against. With garbage collection,
/// job churn must no longer grow the graph without bound.
struct PerJobAggModel;

impl CostModel for PerJobAggModel {
    fn name(&self) -> &'static str {
        "per-job-agg"
    }
    fn task_unscheduled_cost(&self, _: &ClusterState, _: &Task) -> i64 {
        100_000
    }
    fn task_arcs(
        &self,
        _: &ClusterState,
        task: &Task,
    ) -> Vec<(
        firmament::policies::ArcTarget,
        firmament::policies::ArcBundle,
    )> {
        vec![(
            firmament::policies::ArcTarget::Aggregate(task.job),
            firmament::policies::ArcBundle::cost(1),
        )]
    }
    fn aggregate_arc(
        &self,
        _: &ClusterState,
        _: firmament::policies::AggregateId,
        machine: &firmament::cluster::Machine,
    ) -> Option<firmament::policies::ArcBundle> {
        Some(firmament::policies::ArcBundle::single(
            machine.slots as i64,
            machine.running.len() as i64,
        ))
    }
}

#[test]
fn aggregate_gc_bounds_graph_over_job_churn() {
    let mut state = cluster(4, 2, 4);
    let mut f = Firmament::new(PerJobAggModel);
    register(&state, &mut f);
    let baseline = f.graph().node_count();
    let mut peak = 0usize;
    for job in 0..30u64 {
        submit(&mut state, &mut f, job, 4);
        let o = f.schedule(&state).unwrap();
        assert_eq!(o.placed_tasks, 4, "job {job} fits");
        apply(&mut state, &mut f, &o.actions);
        peak = peak.max(f.graph().node_count());
        // Complete the whole job.
        let mut running: Vec<u64> = state.running_tasks().map(|t| t.id).collect();
        running.sort_unstable();
        for t in running {
            state.now += 1;
            let ev = ClusterEvent::TaskCompleted {
                task: t,
                now: state.now,
            };
            state.apply(&ev);
            f.handle_event(&state, &ev).unwrap();
        }
        f.schedule(&state).unwrap();
    }
    // Per-job aggregates and U_j nodes are freed as their jobs drain: the
    // graph never accumulates more than one job's worth of extra nodes.
    assert!(
        peak <= baseline + 4 /* tasks */ + 1 /* aggregate */ + 1 /* U_j */ + 2,
        "graph grew over churn: baseline {baseline}, peak {peak}"
    );
    assert_eq!(
        f.graph().node_count(),
        baseline,
        "after all jobs drain, only sink + machines remain"
    );
    assert!(f.manager().stats().aggregates_collected >= 30);
}
