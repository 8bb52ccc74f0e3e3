//! An Octopus-style idle-preferring cost model (after real Firmament's
//! `OctopusCostModel`).
//!
//! All tasks route through a single cluster aggregator, but — unlike
//! [load spreading](crate::LoadSpreadingCostModel), whose per-machine cost
//! is *linear* in the running-task count — the cost here grows
//! **quadratically** with standing load. Under Firmament's continuous
//! rescheduling, every arrival is routed to an idle machine as long as one
//! exists, and heavily loaded machines become rapidly unattractive as
//! their load rises: a strong bias toward tail-latency-friendly,
//! interference-free placements.
//!
//! The quadratic is declared as a genuine convex ladder: the segment for
//! the `j`-th extra task is priced at the quadratic's **marginal** cost
//! `scale · ((l+1)² − l²)` at load `l = running + j`, so the sum of the
//! first `k` segments is exactly the quadratic load penalty of adding `k`
//! tasks. The min-cost solver therefore *realizes* the quadratic within a
//! single round — a burst fills every machine's cheap low-load segments
//! before anyone's expensive high-load ones — instead of approximating it
//! across rounds.
//!
//! The model exists mostly to demonstrate the [`CostModel`] API's
//! leverage: a genuinely different placement behavior in ~40 lines of
//! cost arithmetic, with zero graph bookkeeping.

use crate::cost_model::{AggregateId, ArcBundle, ArcTarget, BundleShape, CostModel};
use firmament_cluster::{ClusterState, Machine, Task};
use firmament_flow::NodeKind;

/// The single cluster-wide aggregate.
const CLUSTER_AGG: AggregateId = 0;

/// Tuning parameters for the Octopus cost model.
#[derive(Debug, Clone)]
pub struct OctopusConfig {
    /// Multiplier on the quadratic load penalty.
    pub load_cost_scale: i64,
    /// Cost of leaving a task unscheduled.
    pub base_unscheduled_cost: i64,
    /// Unscheduled-cost growth per second of waiting.
    pub wait_cost_per_sec: i64,
    /// How the quadratic marginal ladder is materialized: per-slot arcs or
    /// capacity-bucketed `O(log slots)` segments (full-scale clusters).
    pub shape: BundleShape,
}

impl Default for OctopusConfig {
    fn default() -> Self {
        OctopusConfig {
            load_cost_scale: 10,
            base_unscheduled_cost: 1_000_000,
            wait_cost_per_sec: 1_000,
            shape: BundleShape::PerSlot,
        }
    }
}

/// The Octopus-style idle-preferring cost model.
#[derive(Debug, Default)]
pub struct OctopusCostModel {
    /// Policy tuning.
    pub config: OctopusConfig,
}

impl OctopusCostModel {
    /// Creates the cost model with default tuning.
    pub fn new() -> Self {
        OctopusCostModel::default()
    }

    /// Creates the cost model with explicit tuning.
    pub fn with_config(config: OctopusConfig) -> Self {
        OctopusCostModel { config }
    }

    /// Default tuning with capacity-bucketed ladders
    /// ([`BundleShape::Bucketed`]): `O(log slots)` arcs per machine.
    pub fn bucketed() -> Self {
        OctopusCostModel::with_config(OctopusConfig {
            shape: BundleShape::Bucketed,
            ..OctopusConfig::default()
        })
    }

    /// Marginal cost of taking a machine from load `l` to `l + 1`:
    /// `scale · ((l+1)² − l²) = scale · (2l + 1)`.
    fn marginal(&self, load: i64) -> i64 {
        self.config.load_cost_scale * (2 * load + 1)
    }
}

impl CostModel for OctopusCostModel {
    fn name(&self) -> &'static str {
        "octopus"
    }

    fn task_unscheduled_cost(&self, _state: &ClusterState, _task: &Task) -> i64 {
        self.config.base_unscheduled_cost
    }

    fn wait_cost_per_sec(&self) -> i64 {
        self.config.wait_cost_per_sec
    }

    fn task_arcs(&self, _state: &ClusterState, _task: &Task) -> Vec<(ArcTarget, ArcBundle)> {
        vec![(ArcTarget::Aggregate(CLUSTER_AGG), ArcBundle::cost(0))]
    }

    fn aggregate_arc(
        &self,
        _state: &ClusterState,
        _aggregate: AggregateId,
        machine: &Machine,
    ) -> Option<ArcBundle> {
        let load = machine.running.len() as i64;
        // The quadratic's convex expansion: segment j prices the marginal
        // cost of co-locating at load `running + j`, which rises with
        // every task already there, so idle machines win first — within
        // one solver round. The shape knob trades slot-exactness for
        // O(log slots) arcs at scale.
        Some(
            self.config
                .shape
                .ladder(machine.slots as i64, |j| self.marginal(load + j)),
        )
    }

    fn aggregate_kind(&self, _aggregate: AggregateId) -> NodeKind {
        NodeKind::ClusterAggregator
    }

    fn task_arcs_machine_local(&self) -> bool {
        // A constant aggregate target: machine-set changes never alter
        // waiting-task arc sets.
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use firmament_cluster::Machine;

    #[test]
    fn ladder_realizes_the_quadratic_and_is_superlinear() {
        let state = ClusterState::default();
        let model = OctopusCostModel::new();
        let m = Machine::new(0, 0, 4);
        let bundle = model.aggregate_arc(&state, CLUSTER_AGG, &m).unwrap();
        assert!(bundle.is_convex());
        let costs: Vec<i64> = bundle.segments().iter().map(|s| s.cost).collect();
        // Marginals of 10·l²: 10, 30, 50, 70 — strictly rising.
        assert_eq!(costs, vec![10, 30, 50, 70]);
        // Prefix sums recover the quadratic exactly.
        let quad = |k: i64| model.config.load_cost_scale * k * k;
        let mut sum = 0;
        for (k, c) in costs.iter().enumerate() {
            sum += c;
            assert_eq!(sum, quad(k as i64 + 1));
        }
        assert!(costs[1] - costs[0] > 0, "marginal cost must rise");
        assert_eq!(
            costs[2] - costs[1],
            costs[1] - costs[0],
            "quadratic marginals rise linearly"
        );
    }

    #[test]
    fn bucketed_shape_compresses_the_quadratic_ladder() {
        let state = ClusterState::default();
        let model = OctopusCostModel::bucketed();
        let m = Machine::new(0, 0, 12);
        let bundle = model.aggregate_arc(&state, CLUSTER_AGG, &m).unwrap();
        assert_eq!(bundle.segments().len(), 5, "12 slots → 5 buckets");
        assert_eq!(bundle.total_capacity(), 12);
        assert!(bundle.is_convex());
        // Bucket sums still recover the quadratic at bucket boundaries
        // (quadratic marginal sums over power-of-two buckets divide
        // evenly: Σ 10·(2l+1) over l = lo..hi is 10·(hi² − lo²)).
        let quad = |k: i64| model.config.load_cost_scale * k * k;
        let mut boundary = 0i64;
        let mut total = 0i64;
        for s in bundle.segments() {
            boundary += s.capacity;
            total += s.capacity * s.cost;
            assert_eq!(total, quad(boundary), "boundary {boundary}");
        }
    }

    #[test]
    fn standing_load_shifts_the_ladder_up() {
        let state = ClusterState::default();
        let model = OctopusCostModel::new();
        let mut m = Machine::new(0, 0, 4);
        m.add_task(1);
        m.add_task(2);
        let bundle = model.aggregate_arc(&state, CLUSTER_AGG, &m).unwrap();
        let costs: Vec<i64> = bundle.segments().iter().map(|s| s.cost).collect();
        // At load 2 the next marginals are 10·(2l+1) for l = 2, 3, 4, 5.
        assert_eq!(costs, vec![50, 70, 90, 110]);
    }

    #[test]
    fn tasks_route_through_the_cluster_aggregate_for_free() {
        let state = ClusterState::default();
        let t = Task::new(0, 0, 0, 1_000_000);
        let arcs = OctopusCostModel::new().task_arcs(&state, &t);
        assert_eq!(
            arcs,
            vec![(ArcTarget::Aggregate(CLUSTER_AGG), ArcBundle::cost(0))]
        );
    }
}
