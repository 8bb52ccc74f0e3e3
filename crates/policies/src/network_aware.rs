//! The network-aware cost model (Fig 6c): avoid overcommitting machine
//! links.
//!
//! Each task connects to a request aggregator (`RA`) for its network
//! bandwidth request class. The `RA`s have one arc per machine with
//! sufficient spare bandwidth, with capacity for as many tasks as fit; the
//! arcs are dynamically adapted as observed bandwidth use changes, and their
//! costs — the sum of the request and the machine's current bandwidth use —
//! incentivize balanced utilization. The paper's local-testbed experiment
//! (§7.5, Fig 19) uses this policy to cut tail task response times by
//! 3.4–6.2× versus load-spreading and random placement.
//!
//! Because the arcs react to *monitored* bandwidth (which changes without
//! scheduler events), the model sets
//! [`dynamic_aggregate_arcs`](CostModel::dynamic_aggregate_arcs) so the
//! graph manager re-evaluates every machine each round.

use crate::cost_model::{AggregateId, ArcBundle, ArcTarget, CostModel};
use firmament_cluster::{ClusterState, Machine, Task};
use firmament_flow::NodeKind;

/// Bandwidth bucket width in Mbit/s for request-aggregator classes.
const CLASS_WIDTH_MBPS: u64 = 500;
/// Cost of leaving a task unscheduled.
const UNSCHEDULED_COST: i64 = 1_000_000;
/// Cost increment per second of wait.
const WAIT_COST_PER_SEC: i64 = 1_000;

/// The network-aware scheduling cost model.
#[derive(Debug, Default)]
pub struct NetworkAwareCostModel;

impl NetworkAwareCostModel {
    /// Creates the cost model.
    pub fn new() -> Self {
        NetworkAwareCostModel
    }

    /// The request class for a bandwidth request in Mbit/s.
    pub fn class_of(request_mbps: u64) -> u32 {
        (request_mbps / CLASS_WIDTH_MBPS.max(1)) as u32
    }

    /// Representative bandwidth request of a class (its upper bound).
    fn class_request(class: u32) -> u64 {
        (class as u64 + 1) * CLASS_WIDTH_MBPS
    }

    /// Current bandwidth use of a machine: background traffic plus the
    /// requests of all tasks running on it.
    fn machine_used_mbps(state: &ClusterState, machine: &Machine) -> u64 {
        let task_bw: u64 = machine
            .running
            .iter()
            .filter_map(|t| state.tasks.get(t))
            .map(|t| t.request.net_mbps)
            .sum();
        machine.background_mbps + task_bw
    }
}

impl CostModel for NetworkAwareCostModel {
    fn name(&self) -> &'static str {
        "network-aware"
    }

    fn task_unscheduled_cost(&self, _state: &ClusterState, _task: &Task) -> i64 {
        UNSCHEDULED_COST
    }

    fn wait_cost_per_sec(&self) -> i64 {
        WAIT_COST_PER_SEC
    }

    fn task_arcs(&self, _state: &ClusterState, task: &Task) -> Vec<(ArcTarget, ArcBundle)> {
        let class = Self::class_of(task.request.net_mbps);
        vec![(
            ArcTarget::Aggregate(class as AggregateId),
            ArcBundle::cost(1),
        )]
    }

    /// The "dynamically adapted" arcs of Fig 6c: capacity is how many
    /// class-sized requests fit in the machine's spare bandwidth (slot
    /// limited), cost is request + current use — machines with lightly
    /// loaded links are cheaper. A convex ladder: each admitted request
    /// raises the link's projected use by a class width, so later units
    /// pay the bandwidth they will find, not the bandwidth the first unit
    /// found — which spreads a burst of same-class tasks across links
    /// within one round.
    fn aggregate_arc(
        &self,
        state: &ClusterState,
        aggregate: AggregateId,
        machine: &Machine,
    ) -> Option<ArcBundle> {
        let request = Self::class_request(aggregate as u32);
        let used = Self::machine_used_mbps(state, machine);
        let spare = machine.link_mbps.saturating_sub(used);
        let fits_bw = (spare / request.max(1)) as i64;
        let capacity = fits_bw.min(machine.free_slots() as i64);
        (capacity > 0).then(|| {
            ArcBundle::ladder(
                (0..capacity).map(|j| (request + used + j as u64 * request) as i64 / 10),
            )
        })
    }

    fn aggregate_kind(&self, aggregate: AggregateId) -> NodeKind {
        NodeKind::RequestAggregator {
            class: aggregate as u32,
        }
    }

    fn dynamic_aggregate_arcs(&self) -> bool {
        true
    }

    fn task_arcs_machine_local(&self) -> bool {
        // A task's arc set is a single request-class aggregate derived
        // from its own bandwidth request — machine churn cannot change it.
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use firmament_cluster::{ResourceVector, TopologySpec};

    fn setup() -> ClusterState {
        ClusterState::with_topology(&TopologySpec {
            machines: 4,
            machines_per_rack: 4,
            slots_per_machine: 2,
        })
    }

    #[test]
    fn request_classes_bucket_bandwidth() {
        assert_eq!(NetworkAwareCostModel::class_of(100), 0);
        assert_eq!(NetworkAwareCostModel::class_of(499), 0);
        assert_eq!(NetworkAwareCostModel::class_of(500), 1);
        assert_eq!(NetworkAwareCostModel::class_of(4000), 8);
    }

    #[test]
    fn tasks_route_through_their_request_class() {
        let state = setup();
        let mut t = Task::new(1, 0, 0, 5_000_000);
        t.request = ResourceVector::new(1000, 1024, 4000);
        let arcs = NetworkAwareCostModel::new().task_arcs(&state, &t);
        assert_eq!(arcs, vec![(ArcTarget::Aggregate(8), ArcBundle::cost(1))]);
    }

    #[test]
    fn no_arc_to_machines_without_spare_bandwidth() {
        let mut state = setup();
        state.machines.get_mut(&0).unwrap().background_mbps = 10_000;
        let model = NetworkAwareCostModel::new();
        let class = NetworkAwareCostModel::class_of(4000) as AggregateId;
        assert!(model
            .aggregate_arc(&state, class, &state.machines[&0])
            .is_none());
        assert!(model
            .aggregate_arc(&state, class, &state.machines[&1])
            .is_some());
    }

    #[test]
    fn costs_favor_lightly_loaded_links() {
        let mut state = setup();
        state.machines.get_mut(&0).unwrap().background_mbps = 6_000;
        state.machines.get_mut(&1).unwrap().background_mbps = 1_000;
        let model = NetworkAwareCostModel::new();
        let class = NetworkAwareCostModel::class_of(1000) as AggregateId;
        let c0 = model
            .aggregate_arc(&state, class, &state.machines[&0])
            .unwrap()
            .segments()[0]
            .cost;
        let c1 = model
            .aggregate_arc(&state, class, &state.machines[&1])
            .unwrap()
            .segments()[0]
            .cost;
        assert!(
            c1 < c0,
            "machine 1 (1 Gbps used) must be cheaper than machine 0 (6 Gbps used)"
        );
    }

    #[test]
    fn slot_limit_caps_arc_capacity() {
        let state = setup();
        let model = NetworkAwareCostModel::new();
        let class = NetworkAwareCostModel::class_of(100) as AggregateId;
        let bundle = model
            .aggregate_arc(&state, class, &state.machines[&0])
            .unwrap();
        // 10 Gbps / 500 Mbps class request would allow 20 tasks, but there
        // are only 2 slots.
        assert_eq!(bundle.total_capacity(), 2);
        assert!(
            bundle.is_convex() && bundle.segments()[1].cost > bundle.segments()[0].cost,
            "later units pay for the bandwidth earlier units consume"
        );
    }
}
