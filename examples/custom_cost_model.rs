//! Writing a scheduling policy in ~50 lines: a custom *hierarchical*
//! `CostModel`.
//!
//! The policy is "rack-affinity batch packing", expressed as a 3-level
//! equivalence-class hierarchy: each task gets a cheap arc to its job's
//! preferred rack aggregate and an expensive fallback arc to the cluster
//! root; the root fans out to every rack via EC→EC arcs
//! (`aggregate_to_aggregate`), and each rack aggregate reaches exactly its
//! machines with a packing cost. Jobs declare a gang minimum of two tasks.
//! Everything — the two aggregator levels, capacities, costs, gang floors
//! — is *declared*; the `FlowGraphManager` materializes the hierarchy,
//! detects cycles, propagates capacities, and keeps costs fresh.
//!
//! Run with: `cargo run --example custom_cost_model`

use firmament::cluster::{ClusterEvent, ClusterState, Job, JobClass, Machine, Task, TopologySpec};
use firmament::core::{Firmament, SchedulingAction};
use firmament::policies::{rack_capacities, AggregateId, ArcBundle, ArcTarget, CostModel};

/// The cluster root; rack `r` is aggregate `1 + r`.
const ROOT: AggregateId = 0;

/// Rack-affinity packing over a cluster → rack → machine hierarchy.
struct RackAffinity {
    racks: u64,
}

impl RackAffinity {
    fn preferred(&self, job: u64) -> AggregateId {
        1 + job % self.racks
    }
}

impl CostModel for RackAffinity {
    fn name(&self) -> &'static str {
        "rack-affinity-hierarchy"
    }

    fn task_unscheduled_cost(&self, _state: &ClusterState, _task: &Task) -> i64 {
        50_000
    }

    fn wait_cost_per_sec(&self) -> i64 {
        // Waiting gets expensive fast: full rescheduling should drain the
        // queue within a few rounds.
        500
    }

    fn task_arcs(&self, _state: &ClusterState, task: &Task) -> Vec<(ArcTarget, ArcBundle)> {
        // Cheap entry at the job's preferred rack; off-rack placements pay
        // a premium through the cluster root.
        vec![
            (
                ArcTarget::Aggregate(self.preferred(task.job)),
                ArcBundle::cost(1),
            ),
            (ArcTarget::Aggregate(ROOT), ArcBundle::cost(101)),
        ]
    }

    /// The EC→EC level: the root reaches every rack with the rack's real
    /// slot capacity, so the fallback path can never oversubscribe a rack.
    fn aggregate_to_aggregate(
        &self,
        state: &ClusterState,
        aggregate: AggregateId,
    ) -> Vec<(AggregateId, ArcBundle)> {
        if aggregate != ROOT {
            return Vec::new(); // racks are hierarchy leaves
        }
        rack_capacities(state)
            .into_iter()
            .map(|(rack, slots, _)| (1 + rack as u64, ArcBundle::single(slots, 0)))
            .collect()
    }

    fn aggregate_arc(
        &self,
        _state: &ClusterState,
        aggregate: AggregateId,
        machine: &Machine,
    ) -> Option<ArcBundle> {
        // A rack aggregate reaches exactly its machines; packing (not
        // spreading): already-busy machines are slightly cheaper. The root
        // touches no machine directly.
        (aggregate == 1 + machine.rack as u64).then(|| {
            ArcBundle::single(
                machine.slots as i64,
                10 - (machine.running.len() as i64).min(9),
            )
        })
    }

    fn job_gang_minimum(&self, _state: &ClusterState, _job: &Job) -> i64 {
        2
    }
}

fn main() {
    let mut state = ClusterState::with_topology(&TopologySpec {
        machines: 12,
        machines_per_rack: 4,
        slots_per_machine: 2,
    });
    let mut scheduler = Firmament::new(RackAffinity { racks: 3 });
    let mut machines: Vec<_> = state.machines.values().cloned().collect();
    machines.sort_by_key(|m| m.id);
    for m in machines {
        scheduler
            .handle_event(&state, &ClusterEvent::MachineAdded { machine: m })
            .expect("register machine");
    }

    // Three jobs, each of which should land in its own preferred rack.
    for job_id in 0..3u64 {
        let job = Job::new(job_id, JobClass::Batch, 0, state.now);
        let tasks: Vec<Task> = (0..4)
            .map(|i| Task::new(job_id * 100 + i, job_id, state.now, 30_000_000))
            .collect();
        let ev = ClusterEvent::JobSubmitted { job, tasks };
        state.apply(&ev);
        scheduler.handle_event(&state, &ev).expect("submit");
    }

    let outcome = scheduler.schedule(&state).expect("scheduling round");
    println!(
        "{}: placed {} of {} tasks (objective {})",
        scheduler.model().name(),
        outcome.placed_tasks,
        outcome.placed_tasks + outcome.unscheduled_tasks,
        outcome.objective,
    );
    let mut in_preferred = 0;
    let mut total = 0;
    for action in &outcome.actions {
        if let SchedulingAction::Place { task, machine } = action {
            let job = state.tasks[task].job;
            let rack = state.machines[machine].rack as u64;
            total += 1;
            if rack == job % 3 {
                in_preferred += 1;
            }
            println!("  task {task} (job {job}) → machine {machine} (rack {rack})");
        }
    }
    println!("{in_preferred}/{total} placements in the job's preferred rack");
    assert_eq!(outcome.placed_tasks, 12, "capacity exists for everything");
    assert_eq!(in_preferred, total, "rack affinity should be perfect here");
    // The hierarchy did the routing: the root and rack aggregates exist,
    // and the graph holds EC→EC arcs from the root to all three racks.
    let mgr = scheduler.manager();
    assert!(mgr.aggregate_node(ROOT).is_some());
    for rack in 0..3u64 {
        assert!(
            mgr.aggregate_to_aggregate_arc(ROOT, 1 + rack).is_some(),
            "root → rack {rack} EC→EC arc"
        );
    }
}
