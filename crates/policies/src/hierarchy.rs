//! A cluster → rack → machine topology cost model built on EC→EC arcs.
//!
//! Real Firmament routes task flow through *hierarchies* of equivalence
//! classes (rack → machine → socket in its CoCo and net-bw models); Quincy
//! (SOSP 2009) did the same with its cluster aggregate `X` feeding rack
//! aggregates `R_r`. This model is the reproduction's reference hierarchy:
//! tasks enter at a single cluster root, the root fans out to one
//! aggregate per rack via [`CostModel::aggregate_to_aggregate`] arcs, and
//! each rack aggregate fans out to its machines. No task or cluster arc
//! points at a machine directly, so placements are extracted through two
//! aggregator hops.
//!
//! Costs implement topology-aware load balancing at both levels: the
//! cluster → rack arc prices the rack's standing load (spreading jobs
//! across racks), and the rack → machine arc prices the machine's running
//! task count (spreading within the rack). Capacities propagate real
//! subtree capacity — a rack arc admits exactly the slots beneath it — so
//! upper levels can never oversubscribe lower ones.
//!
//! Compared to the flat equivalent (every task with per-machine arcs, or a
//! single aggregate with `M` arcs *per task class*), the hierarchy keeps
//! the graph at `O(tasks + racks + machines)` arcs, which is what lets
//! topology-aware policies scale (§3.3, Fig 6).

use crate::cost_model::{
    rack_capacities, AggregateId, ArcBundle, ArcTarget, BundleShape, CostModel,
};
use firmament_cluster::{ClusterState, Machine, RackId, Task};
use firmament_flow::NodeKind;

/// The cluster-root aggregate.
const ROOT_AGG: AggregateId = 0;

/// Aggregate id of rack `r` (offset past the root).
fn rack_agg(rack: RackId) -> AggregateId {
    1 + rack as AggregateId
}

/// Rack of a (non-root) aggregate id.
fn agg_rack(agg: AggregateId) -> RackId {
    (agg - 1) as RackId
}

/// Tuning parameters for [`HierarchicalTopologyCostModel`].
#[derive(Debug, Clone)]
pub struct TopologyConfig {
    /// Cost per running task in a rack on the cluster → rack arc
    /// (cross-rack spreading pressure).
    pub rack_load_cost: i64,
    /// Cost per running task on a machine on the rack → machine arc
    /// (within-rack spreading pressure).
    pub machine_load_cost: i64,
    /// Base cost of leaving a task unscheduled.
    pub base_unscheduled_cost: i64,
    /// Unscheduled-cost growth per second of waiting.
    pub wait_cost_per_sec: i64,
    /// How the rack → machine load ladders are materialized: per-slot arcs
    /// or capacity-bucketed `O(log slots)` segments (full-scale clusters).
    pub shape: BundleShape,
}

impl Default for TopologyConfig {
    fn default() -> Self {
        TopologyConfig {
            rack_load_cost: 5,
            machine_load_cost: 10,
            base_unscheduled_cost: 100_000,
            wait_cost_per_sec: 100,
            shape: BundleShape::PerSlot,
        }
    }
}

/// The cluster → rack → machine hierarchy cost model.
///
/// # Examples
///
/// The declared structure is strictly hierarchical — the root only reaches
/// racks, racks only reach their machines:
///
/// ```
/// use firmament_cluster::{ClusterState, TopologySpec};
/// use firmament_policies::{CostModel, HierarchicalTopologyCostModel};
///
/// let state = ClusterState::with_topology(&TopologySpec {
///     machines: 4,
///     machines_per_rack: 2,
///     slots_per_machine: 3,
/// });
/// let model = HierarchicalTopologyCostModel::new();
/// // Root → one arc per rack, capacity = the rack's total slots.
/// let children = model.aggregate_to_aggregate(&state, 0);
/// assert_eq!(children.len(), 2);
/// assert!(children.iter().all(|(_, bundle)| bundle.total_capacity() == 6));
/// // Root → machine arcs do not exist.
/// for machine in state.machines.values() {
///     assert!(model.aggregate_arc(&state, 0, machine).is_none());
/// }
/// ```
#[derive(Debug, Default)]
pub struct HierarchicalTopologyCostModel {
    /// Policy tuning.
    pub config: TopologyConfig,
}

impl HierarchicalTopologyCostModel {
    /// Creates the cost model with default tuning.
    pub fn new() -> Self {
        HierarchicalTopologyCostModel::default()
    }

    /// Creates the cost model with explicit tuning.
    pub fn with_config(config: TopologyConfig) -> Self {
        HierarchicalTopologyCostModel { config }
    }

    /// Default tuning with capacity-bucketed rack → machine ladders
    /// ([`BundleShape::Bucketed`]): `O(log slots)` arcs per machine.
    pub fn bucketed() -> Self {
        HierarchicalTopologyCostModel::with_config(TopologyConfig {
            shape: BundleShape::Bucketed,
            ..TopologyConfig::default()
        })
    }
}

impl CostModel for HierarchicalTopologyCostModel {
    fn name(&self) -> &'static str {
        "hierarchical-topology"
    }

    fn task_unscheduled_cost(&self, _state: &ClusterState, _task: &Task) -> i64 {
        self.config.base_unscheduled_cost
    }

    fn wait_cost_per_sec(&self) -> i64 {
        self.config.wait_cost_per_sec
    }

    /// Every task enters the hierarchy at the cluster root; the topology
    /// below decides the rack and machine.
    fn task_arcs(&self, _state: &ClusterState, _task: &Task) -> Vec<(ArcTarget, ArcBundle)> {
        vec![(ArcTarget::Aggregate(ROOT_AGG), ArcBundle::cost(1))]
    }

    /// Rack aggregates reach exactly their machines; the root reaches no
    /// machine directly (strict hierarchy). The within-rack level is a
    /// convex per-slot ladder, so a burst spreads across a rack's machines
    /// in a single round.
    fn aggregate_arc(
        &self,
        _state: &ClusterState,
        aggregate: AggregateId,
        machine: &Machine,
    ) -> Option<ArcBundle> {
        (aggregate != ROOT_AGG && agg_rack(aggregate) == machine.rack).then(|| {
            let running = machine.running.len() as i64;
            self.config.shape.ladder(machine.slots as i64, |j| {
                self.config.machine_load_cost * (running + j)
            })
        })
    }

    /// The EC→EC level: root → one arc per rack present in the cluster,
    /// with the rack's aggregate slot capacity and a cost tracking the
    /// rack's standing load. Kept single-segment: a per-slot ladder here
    /// would cost O(rack slots) arcs per rack; the within-round spreading
    /// lives on the rack → machine ladders below.
    fn aggregate_to_aggregate(
        &self,
        state: &ClusterState,
        aggregate: AggregateId,
    ) -> Vec<(AggregateId, ArcBundle)> {
        if aggregate != ROOT_AGG {
            return Vec::new();
        }
        rack_capacities(state)
            .into_iter()
            .map(|(rack, slots, running)| {
                (
                    rack_agg(rack),
                    ArcBundle::single(slots, self.config.rack_load_cost * running),
                )
            })
            .collect()
    }

    fn aggregate_kind(&self, aggregate: AggregateId) -> NodeKind {
        if aggregate == ROOT_AGG {
            NodeKind::ClusterAggregator
        } else {
            NodeKind::RackAggregator {
                rack: agg_rack(aggregate),
            }
        }
    }

    fn task_arcs_machine_local(&self) -> bool {
        // Tasks always enter at the fixed cluster root; machine churn
        // reshapes the hierarchy below, never the task arc sets.
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use firmament_cluster::TopologySpec;

    fn setup() -> (ClusterState, HierarchicalTopologyCostModel) {
        let state = ClusterState::with_topology(&TopologySpec {
            machines: 6,
            machines_per_rack: 3,
            slots_per_machine: 2,
        });
        (state, HierarchicalTopologyCostModel::new())
    }

    #[test]
    fn tasks_enter_at_the_root_only() {
        let (state, model) = setup();
        let t = Task::new(0, 0, 0, 1_000_000);
        let arcs = model.task_arcs(&state, &t);
        assert_eq!(
            arcs,
            vec![(ArcTarget::Aggregate(ROOT_AGG), ArcBundle::cost(1))]
        );
    }

    #[test]
    fn root_reaches_racks_with_subtree_capacity() {
        let (state, model) = setup();
        let children = model.aggregate_to_aggregate(&state, ROOT_AGG);
        assert_eq!(children.len(), 2, "two racks");
        for (agg, bundle) in &children {
            assert_ne!(*agg, ROOT_AGG);
            assert_eq!(bundle.total_capacity(), 6, "3 machines × 2 slots per rack");
        }
        // Racks are leaves of the EC→EC relation.
        assert!(model.aggregate_to_aggregate(&state, rack_agg(0)).is_empty());
    }

    #[test]
    fn rack_to_machine_arcs_are_convex_ladders() {
        let (mut state, model) = setup();
        // One task already running on machine 0.
        state.tasks.insert(9, Task::new(9, 0, 0, 1_000_000));
        state.machines.get_mut(&0).unwrap().add_task(9);
        let b = model
            .aggregate_arc(&state, rack_agg(0), &state.machines[&0])
            .unwrap();
        assert!(b.is_convex());
        let costs: Vec<i64> = b.segments().iter().map(|s| s.cost).collect();
        let step = model.config.machine_load_cost;
        assert_eq!(
            costs,
            vec![step, 2 * step],
            "ladder starts at standing load"
        );
    }

    #[test]
    fn strict_hierarchy_has_no_root_machine_arcs() {
        let (state, model) = setup();
        for m in state.machines.values() {
            assert!(model.aggregate_arc(&state, ROOT_AGG, m).is_none());
            assert!(model.aggregate_arc(&state, rack_agg(m.rack), m).is_some());
            let other = rack_agg(1 - m.rack);
            assert!(model.aggregate_arc(&state, other, m).is_none());
        }
    }

    #[test]
    fn rack_load_prices_cross_rack_spreading() {
        let (mut state, model) = setup();
        // Two tasks running in rack 0.
        for (task, machine) in [(1u64, 0u64), (2, 1)] {
            state.tasks.insert(task, Task::new(task, 0, 0, 1_000_000));
            state.machines.get_mut(&machine).unwrap().add_task(task);
        }
        let children = model.aggregate_to_aggregate(&state, ROOT_AGG);
        let cost = |agg: AggregateId| {
            children
                .iter()
                .find(|(a, _)| *a == agg)
                .unwrap()
                .1
                .segments()[0]
                .cost
        };
        assert_eq!(cost(rack_agg(0)), 2 * model.config.rack_load_cost);
        assert_eq!(cost(rack_agg(1)), 0);
    }
}
