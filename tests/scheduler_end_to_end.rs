//! End-to-end scheduler tests across policies and solver configurations.

use firmament::cluster::ClusterEvent;
use firmament::core::Firmament;
use firmament::mcmf::{DualConfig, SolverKind};
mod common;
use common::{apply, cluster, register, submit};
use firmament::policies::{
    LoadSpreadingCostModel, NetworkAwareCostModel, OctopusCostModel, QuincyConfig, QuincyCostModel,
};

#[test]
fn every_policy_schedules_a_full_workload() {
    // Load-spreading policy.
    {
        let mut state = cluster(10, 4, 20);
        let mut f = Firmament::new(LoadSpreadingCostModel::new());
        register(&state, &mut f);
        submit(&mut state, &mut f, 0, 30);
        let o = f.schedule(&state).unwrap();
        assert_eq!(o.placed_tasks, 30, "load-spreading");
    }
    // Quincy policy.
    {
        let mut state = cluster(10, 4, 20);
        let mut f = Firmament::new(QuincyCostModel::new(QuincyConfig::default()));
        register(&state, &mut f);
        submit(&mut state, &mut f, 0, 30);
        let o = f.schedule(&state).unwrap();
        assert_eq!(o.placed_tasks, 30, "quincy");
    }
    // Network-aware policy.
    {
        let mut state = cluster(10, 4, 20);
        let mut f = Firmament::new(NetworkAwareCostModel::new());
        register(&state, &mut f);
        submit(&mut state, &mut f, 0, 30);
        let o = f.schedule(&state).unwrap();
        assert_eq!(o.placed_tasks, 30, "network-aware");
    }
    // Octopus (idle-preferring) policy.
    {
        let mut state = cluster(10, 4, 20);
        let mut f = Firmament::new(OctopusCostModel::new());
        register(&state, &mut f);
        submit(&mut state, &mut f, 0, 30);
        let o = f.schedule(&state).unwrap();
        assert_eq!(o.placed_tasks, 30, "octopus");
    }
}

#[test]
fn octopus_prefers_idle_machines() {
    // 10 machines x 4 slots; tasks arrive one per scheduling round (the
    // continuous-rescheduling regime the cost model is built for). The
    // quadratic load cost must route every arrival to an idle machine
    // until none remain: exactly one task per machine.
    let mut state = cluster(10, 4, 20);
    let mut f = Firmament::new(OctopusCostModel::new());
    register(&state, &mut f);
    for job in 0..10 {
        submit(&mut state, &mut f, job, 1);
        let o = f.schedule(&state).unwrap();
        apply(&mut state, &mut f, &o.actions);
    }
    for m in state.machines.values() {
        assert_eq!(
            m.running.len(),
            1,
            "machine {} must host exactly one task",
            m.id
        );
    }
}

#[test]
fn solver_kinds_produce_identical_objectives() {
    let mut objectives = Vec::new();
    for kind in [
        SolverKind::Hedged,
        SolverKind::Dual,
        SolverKind::RelaxationOnly,
        SolverKind::CostScalingOnly,
    ] {
        let mut state = cluster(8, 3, 20);
        let mut f = Firmament::with_solver(
            LoadSpreadingCostModel::new(),
            DualConfig {
                kind,
                ..Default::default()
            },
        );
        register(&state, &mut f);
        submit(&mut state, &mut f, 0, 20);
        let o = f.schedule(&state).unwrap();
        objectives.push(o.objective);
    }
    assert_eq!(objectives[0], objectives[1]);
    assert_eq!(objectives[1], objectives[2]);
    assert_eq!(objectives[2], objectives[3]);
}

#[test]
fn continuous_rescheduling_with_churn_stays_consistent() {
    let mut state = cluster(6, 3, 20);
    let mut f = Firmament::new(LoadSpreadingCostModel::new());
    register(&state, &mut f);
    for round in 0..8 {
        submit(&mut state, &mut f, round, 4);
        let o = f.schedule(&state).unwrap();
        apply(&mut state, &mut f, &o.actions);
        // Complete one running task per round.
        if let Some(t) = state.running_tasks().map(|t| t.id).min() {
            let ev = ClusterEvent::TaskCompleted {
                task: t,
                now: state.now + 1 + round,
            };
            state.apply(&ev);
            f.handle_event(&state, &ev).unwrap();
        }
        // Invariant: machine slot accounting never overcommits.
        for m in state.machines.values() {
            assert!(m.running.len() as u32 <= m.slots);
        }
    }
    assert!(f.rounds() == 8);
}

#[test]
fn machine_failure_requeues_and_reschedules() {
    let mut state = cluster(4, 2, 20);
    let mut f = Firmament::new(LoadSpreadingCostModel::new());
    register(&state, &mut f);
    submit(&mut state, &mut f, 0, 6);
    let o = f.schedule(&state).unwrap();
    apply(&mut state, &mut f, &o.actions);
    assert_eq!(state.used_slots(), 6);
    // Fail a machine hosting tasks.
    let victim = state
        .machines
        .values()
        .find(|m| !m.running.is_empty())
        .map(|m| m.id)
        .unwrap();
    let ev = ClusterEvent::MachineRemoved {
        machine: victim,
        now: state.now + 5,
    };
    state.apply(&ev);
    f.handle_event(&state, &ev).unwrap();
    // The displaced tasks reschedule onto the remaining machines.
    let o = f.schedule(&state).unwrap();
    apply(&mut state, &mut f, &o.actions);
    assert_eq!(state.used_slots(), 6, "all tasks rescheduled after failure");
}

#[test]
fn oversubscribed_cluster_prefers_waiting_over_overcommit() {
    let mut state = cluster(2, 2, 20);
    let mut f = Firmament::new(LoadSpreadingCostModel::new());
    register(&state, &mut f);
    submit(&mut state, &mut f, 0, 10);
    let o = f.schedule(&state).unwrap();
    assert_eq!(o.placed_tasks, 4);
    assert_eq!(o.unscheduled_tasks, 6);
    apply(&mut state, &mut f, &o.actions);
    for m in state.machines.values() {
        assert_eq!(m.running.len(), 2);
    }
}
