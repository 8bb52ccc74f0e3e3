//! The load-spreading cost model (Fig 6a).
//!
//! All tasks have arcs to a single cluster-wide aggregator `X`; the cost of
//! running tasks on a machine grows with the number of tasks there, so task
//! counts stay balanced (as in Docker SwarmKit). The policy deliberately
//! creates contention at `X` — the paper uses it to expose relaxation's
//! edge cases (§4.3, Fig 9).
//!
//! # Convex vs uniform
//!
//! The default model declares a **convex ladder** per machine: one
//! capacity-1 segment per slot, the `j`-th priced at
//! `COST_PER_TASK × (running + j)`. The marginal cost of each extra task
//! on a machine rises within the declared bundle, so a burst of identical
//! tasks spreads evenly in a *single* solver round — Quincy's original
//! convex-cost trick.
//!
//! [`LoadSpreadingCostModel::uniform`] keeps the pre-bundle behavior for
//! comparison: a single segment priced at `COST_PER_TASK × running` for
//! the machine's whole capacity. Uniform costs give the solver no
//! within-round gradient (every slot of a machine costs the same), so a
//! burst packs onto whichever machines the solver happens to saturate and
//! only drifts toward balance across rounds as the running counts —
//! and with them the re-priced arcs — catch up. The `convex_spreading`
//! bench bin demonstrates the difference.

use crate::cost_model::{AggregateId, ArcBundle, ArcTarget, BundleShape, CostModel};
use firmament_cluster::{ClusterState, Machine, Task};
use firmament_flow::NodeKind;

/// Cost per already-running task on a machine.
pub const COST_PER_TASK: i64 = 10;
/// Cost of leaving a task unscheduled (must exceed any placement cost so
/// tasks schedule whenever a slot exists).
const UNSCHEDULED_COST: i64 = 100_000;
/// Cost increment per second of task wait time.
const WAIT_COST_PER_SEC: i64 = 100;
/// The single cluster-wide aggregate `X`.
const CLUSTER_AGG: AggregateId = 0;

/// The load-spreading cost model.
#[derive(Debug, Default)]
pub struct LoadSpreadingCostModel {
    /// `false` keeps the legacy single-segment (uniform-cost) arcs whose
    /// spreading only bites across rounds.
    convex: bool,
    /// How the convex ladder is materialized: per-slot arcs (slot-exact
    /// spreading) or capacity-bucketed `O(log slots)` segments (the
    /// full-cluster-scale shape). Ignored by the uniform variant.
    shape: BundleShape,
}

impl LoadSpreadingCostModel {
    /// Creates the cost model with convex per-slot ladders (one-round
    /// spreading) — the default.
    pub fn new() -> Self {
        LoadSpreadingCostModel {
            convex: true,
            shape: BundleShape::PerSlot,
        }
    }

    /// Creates the cost model with convex ladders in the given
    /// [`BundleShape`] — `Bucketed` holds aggregate → machine arcs at
    /// `O(machines · log slots)` for full-scale clusters.
    pub fn with_shape(shape: BundleShape) -> Self {
        LoadSpreadingCostModel {
            convex: true,
            shape,
        }
    }

    /// Shorthand for [`with_shape`](Self::with_shape)`(BundleShape::Bucketed)`.
    pub fn bucketed() -> Self {
        Self::with_shape(BundleShape::Bucketed)
    }

    /// Creates the pre-bundle uniform-cost variant: a single segment per
    /// machine priced at `COST_PER_TASK × running`. Kept as the contrast
    /// baseline for the `convex_spreading` bench — uniform costs pack a
    /// burst instead of spreading it within the round.
    pub fn uniform() -> Self {
        LoadSpreadingCostModel {
            convex: false,
            shape: BundleShape::PerSlot,
        }
    }

    /// The ladder shape this model materializes.
    pub fn shape(&self) -> BundleShape {
        self.shape
    }

    /// The per-slot marginal cost of the `j`-th additional task on a
    /// machine already running `running` tasks — the ladder both shapes
    /// realize (exactly for `PerSlot`, bucket-mean for `Bucketed`).
    /// Public so quality harnesses can evaluate placements under the true
    /// convex cost.
    pub fn marginal_cost(running: i64, j: i64) -> i64 {
        COST_PER_TASK * (running + j)
    }
}

impl CostModel for LoadSpreadingCostModel {
    fn name(&self) -> &'static str {
        match (self.convex, self.shape) {
            (true, BundleShape::PerSlot) => "load-spreading",
            (true, BundleShape::Bucketed) => "load-spreading-bucketed",
            (false, _) => "load-spreading-uniform",
        }
    }

    fn task_unscheduled_cost(&self, _state: &ClusterState, _task: &Task) -> i64 {
        UNSCHEDULED_COST
    }

    fn wait_cost_per_sec(&self) -> i64 {
        // Grows with wait time so long-waiting tasks win contended slots.
        WAIT_COST_PER_SEC
    }

    fn task_arcs(&self, _state: &ClusterState, _task: &Task) -> Vec<(ArcTarget, ArcBundle)> {
        vec![(ArcTarget::Aggregate(CLUSTER_AGG), ArcBundle::cost(1))]
    }

    fn aggregate_arc(
        &self,
        _state: &ClusterState,
        _aggregate: AggregateId,
        machine: &Machine,
    ) -> Option<ArcBundle> {
        let running = machine.running.len() as i64;
        let slots = machine.slots as i64;
        if self.convex {
            // The j-th additional task on this machine costs as if the
            // machine already ran `running + j` tasks — the convex
            // expansion of the linear load cost, so balance is optimal
            // within a single solve. The shape knob decides whether that
            // ladder is one arc per slot or O(log slots) capacity buckets.
            Some(
                self.shape
                    .ladder(slots, |j| Self::marginal_cost(running, j)),
            )
        } else {
            // Uniform: every unit through X → machine costs the same.
            Some(ArcBundle::single(slots, COST_PER_TASK * running))
        }
    }

    fn aggregate_kind(&self, _aggregate: AggregateId) -> NodeKind {
        NodeKind::ClusterAggregator
    }

    fn task_arcs_machine_local(&self) -> bool {
        // Task arcs are a constant single aggregate target: machine-set
        // changes can never alter them, so machine events skip the
        // per-waiting-task re-query entirely.
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost_model::{wait_cost, whole_seconds};
    use firmament_cluster::{Machine, TopologySpec};

    #[test]
    fn single_aggregate_with_unit_cost() {
        let state = ClusterState::with_topology(&TopologySpec::default());
        let t = Task::new(0, 0, 0, 1_000_000);
        let arcs = LoadSpreadingCostModel::new().task_arcs(&state, &t);
        assert_eq!(
            arcs,
            vec![(ArcTarget::Aggregate(CLUSTER_AGG), ArcBundle::cost(1))]
        );
    }

    #[test]
    fn convex_ladder_prices_marginal_load() {
        let state = ClusterState::default();
        let mut m = Machine::new(0, 0, 4);
        let model = LoadSpreadingCostModel::new();
        let idle = model.aggregate_arc(&state, CLUSTER_AGG, &m).unwrap();
        assert!(idle.is_convex());
        assert_eq!(idle.total_capacity(), 4);
        let costs: Vec<i64> = idle.segments().iter().map(|s| s.cost).collect();
        assert_eq!(costs, vec![0, 10, 20, 30], "j-th extra task costs 10·j");
        m.add_task(7);
        m.add_task(8);
        let busy = model.aggregate_arc(&state, CLUSTER_AGG, &m).unwrap();
        let costs: Vec<i64> = busy.segments().iter().map(|s| s.cost).collect();
        assert_eq!(
            costs,
            vec![20, 30, 40, 50],
            "ladder starts at the standing load"
        );
    }

    #[test]
    fn bucketed_shape_compresses_the_same_ladder() {
        let state = ClusterState::default();
        let mut m = Machine::new(0, 0, 12);
        let per_slot = LoadSpreadingCostModel::new()
            .aggregate_arc(&state, CLUSTER_AGG, &m)
            .unwrap();
        let bucketed = LoadSpreadingCostModel::bucketed()
            .aggregate_arc(&state, CLUSTER_AGG, &m)
            .unwrap();
        assert_eq!(per_slot.segments().len(), 12);
        assert_eq!(bucketed.segments().len(), 5, "12 slots → 5 buckets");
        assert_eq!(bucketed.total_capacity(), 12);
        assert!(bucketed.is_convex());
        // Both realize the same marginal ladder: full-ladder totals match
        // exactly (linear marginals have integral bucket means).
        let total =
            |b: &ArcBundle| -> i64 { b.segments().iter().map(|s| s.capacity * s.cost).sum() };
        assert_eq!(total(&per_slot), total(&bucketed));
        // Standing load shifts the bucketed ladder like the per-slot one.
        m.add_task(7);
        let busy = LoadSpreadingCostModel::bucketed()
            .aggregate_arc(&state, CLUSTER_AGG, &m)
            .unwrap();
        assert_eq!(busy.segments()[0].cost, COST_PER_TASK);
        assert_eq!(
            busy.segments().len(),
            5,
            "segment count tracks slots, not load — re-pricing is slot-stable"
        );
    }

    #[test]
    fn uniform_variant_keeps_single_segment() {
        let state = ClusterState::default();
        let mut m = Machine::new(0, 0, 4);
        m.add_task(7);
        m.add_task(8);
        let model = LoadSpreadingCostModel::uniform();
        let b = model.aggregate_arc(&state, CLUSTER_AGG, &m).unwrap();
        assert_eq!(b.segments().len(), 1);
        assert_eq!(b.segments()[0].capacity, 4);
        assert_eq!(b.segments()[0].cost, 2 * COST_PER_TASK);
    }

    #[test]
    fn unscheduled_cost_grows_with_wait() {
        let mut state = ClusterState::default();
        let t = Task::new(0, 0, 0, 1_000_000);
        let model = LoadSpreadingCostModel::new();
        let fresh = model.task_unscheduled_cost(&state, &t);
        state.now = 30 * 1_000_000;
        // The base is clock-free; the slope prices the 30 s waited.
        assert_eq!(model.task_unscheduled_cost(&state, &t), fresh);
        let waited =
            fresh + wait_cost(model.wait_cost_per_sec(), 0, whole_seconds(state.now)).unwrap();
        assert_eq!(waited - fresh, 30 * WAIT_COST_PER_SEC);
    }
}
