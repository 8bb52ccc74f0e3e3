//! The Quincy cost model (Fig 6b): locality-oriented batch scheduling.
//!
//! Quincy's original policy [22, §4.2] uses rack aggregators `R_r` and a
//! cluster aggregator `X` to express data locality: tasks get low-cost
//! preference arcs to machines and racks holding at least a threshold
//! fraction of their input data, and fall back to scheduling anywhere via
//! `X`. Costs approximate the bytes that would have to be fetched remotely;
//! the unscheduled cost grows with wait time so starving tasks eventually
//! win contended slots.
//!
//! The preference threshold (paper default 14 % of input data local; Fig 15
//! explores 2 %) controls the number of preference arcs and hence the
//! graph's size — the knob that separates Firmament from Quincy at scale.
//!
//! # Convex spread ladders
//!
//! Quincy's original formulation relied on convex costs so that load
//! spreads *within* one solver round. This reproduction declares the
//! distribution arcs — `X → R_r` and `R_r → machine` — as two-segment
//! convex ladders: the first half of each capacity is free, the second
//! half costs [`QuincyConfig::convex_spread_cost`]. The spread cost is
//! deliberately tiny next to fetch costs (units of GB ≈ hundreds), so
//! data locality still dominates every placement decision; the ladder
//! only breaks ties among equally-local options toward emptier racks and
//! machines — and does so in a single solve instead of across rounds.

use crate::cost_model::{rack_capacities, AggregateId, ArcBundle, ArcSpec, ArcTarget, CostModel};
use firmament_cluster::{ClusterState, Machine, RackId, Task};
use firmament_flow::NodeKind;

/// Tuning parameters for the Quincy cost model.
#[derive(Debug, Clone)]
pub struct QuincyConfig {
    /// Fraction of a task's input that must be on a machine for it to get a
    /// machine preference arc (paper: 0.14; Fig 15 also uses 0.02).
    pub machine_pref_threshold: f64,
    /// Fraction of input in a rack for a rack preference arc.
    pub rack_pref_threshold: f64,
    /// Maximum preference arcs per task (Quincy capped at ~10).
    pub max_prefs_per_task: usize,
    /// Cost units per GB fetched across racks.
    pub cost_per_gb_cross_rack: i64,
    /// Cost units per GB fetched within a rack.
    pub cost_per_gb_in_rack: i64,
    /// Base unscheduled cost and its growth per second of waiting.
    pub wait_cost_per_sec: i64,
    /// Cost offset that makes leaving a task unscheduled expensive.
    pub base_unscheduled_cost: i64,
    /// Premium on the upper half of each distribution arc's capacity
    /// (`X → R_r` and `R_r → machine`): Quincy's convexity trick, scaled
    /// to tie-breaking size so locality still dominates. 0 restores
    /// uniform (single-segment) distribution arcs.
    pub convex_spread_cost: i64,
}

impl Default for QuincyConfig {
    fn default() -> Self {
        QuincyConfig {
            machine_pref_threshold: 0.14,
            rack_pref_threshold: 0.14,
            max_prefs_per_task: 10,
            cost_per_gb_cross_rack: 100,
            cost_per_gb_in_rack: 50,
            wait_cost_per_sec: 50,
            base_unscheduled_cost: 20_000,
            convex_spread_cost: 2,
        }
    }
}

/// The cluster-wide aggregate `X`.
const CLUSTER_AGG: AggregateId = 0;

/// Aggregate id of rack `r` (offset past the cluster aggregate).
fn rack_agg(rack: RackId) -> AggregateId {
    1 + rack as AggregateId
}

/// A two-segment convex ladder over `capacity`: the first (larger) half
/// free, the rest at `premium`. Collapses to a single free segment when
/// the capacity is too small to split or the premium is 0.
fn spread_ladder(capacity: i64, premium: i64) -> ArcBundle {
    let cheap = capacity - capacity / 2;
    let rest = capacity - cheap;
    if rest <= 0 || premium <= 0 {
        return ArcBundle::single(capacity, 0);
    }
    ArcBundle::from_segments(vec![
        ArcSpec {
            capacity: cheap,
            cost: 0,
        },
        ArcSpec {
            capacity: rest,
            cost: premium,
        },
    ])
}

/// The Quincy scheduling cost model.
#[derive(Debug)]
pub struct QuincyCostModel {
    /// Policy tuning; mutable so experiments can sweep the thresholds.
    pub config: QuincyConfig,
}

impl QuincyCostModel {
    /// Creates the cost model with the given configuration.
    pub fn new(config: QuincyConfig) -> Self {
        QuincyCostModel { config }
    }

    /// Cost of running `task` with `local_fraction` of its input on the
    /// target (cross-rack fetch for the remainder).
    fn fetch_cost(&self, task: &Task, local_fraction: f64, in_rack: bool) -> i64 {
        let remote_gb = (1.0 - local_fraction).max(0.0) * task.input_bytes as f64 / 1e9;
        let per_gb = if in_rack {
            self.config.cost_per_gb_in_rack
        } else {
            self.config.cost_per_gb_cross_rack
        };
        (remote_gb * per_gb as f64).round() as i64
    }
}

impl CostModel for QuincyCostModel {
    fn name(&self) -> &'static str {
        "quincy"
    }

    fn task_unscheduled_cost(&self, _state: &ClusterState, _task: &Task) -> i64 {
        self.config.base_unscheduled_cost
    }

    fn wait_cost_per_sec(&self) -> i64 {
        // The Quincy trade-off between wait time and data locality.
        self.config.wait_cost_per_sec
    }

    /// The waiting-task arc set: a fallback arc to `X` (worst case:
    /// everything fetched cross-rack) plus budget-limited preference arcs
    /// to machines and racks above the locality thresholds. All bundles
    /// are single capacity-1 segments — a task carries one unit of flow,
    /// so the convexity lives on the shared distribution arcs, not here.
    fn task_arcs(&self, state: &ClusterState, task: &Task) -> Vec<(ArcTarget, ArcBundle)> {
        let x_cost = self.fetch_cost(task, 0.0, false) + 1;
        let mut arcs = vec![(ArcTarget::Aggregate(CLUSTER_AGG), ArcBundle::cost(x_cost))];
        let mut budget = self.config.max_prefs_per_task;
        let machine_prefs = state
            .blocks
            .machines_above_threshold(&task.input_blocks, self.config.machine_pref_threshold);
        for (m, frac) in machine_prefs {
            if budget == 0 {
                break;
            }
            if state.machines.contains_key(&m) {
                arcs.push((
                    ArcTarget::Machine(m),
                    ArcBundle::cost(self.fetch_cost(task, frac, true)),
                ));
                budget -= 1;
            }
        }
        let rack_prefs = state
            .blocks
            .racks_above_threshold(&task.input_blocks, self.config.rack_pref_threshold);
        for (r, frac) in rack_prefs {
            if budget == 0 {
                break;
            }
            // The non-rack-local remainder crosses racks; the rack-local
            // part still pays a cheap in-rack fetch.
            let cost =
                self.fetch_cost(task, frac, false) + self.fetch_cost(task, 1.0 - frac, true) / 2;
            arcs.push((
                ArcTarget::Aggregate(rack_agg(r)),
                ArcBundle::cost(cost.max(1)),
            ));
            budget -= 1;
        }
        arcs
    }

    /// Rack aggregates reach exactly their machines, through a convex
    /// spread ladder over the machine's slots. The cluster aggregate `X`
    /// reaches no machine directly — its flow descends through the rack
    /// level (see [`aggregate_to_aggregate`]), matching Quincy's original
    /// `X → R_r → machine` shape and keeping the graph at
    /// `O(racks + machines)` aggregate arcs instead of `O(2 × machines)`.
    ///
    /// [`aggregate_to_aggregate`]: QuincyCostModel::aggregate_to_aggregate
    fn aggregate_arc(
        &self,
        _state: &ClusterState,
        aggregate: AggregateId,
        machine: &Machine,
    ) -> Option<ArcBundle> {
        (aggregate == rack_agg(machine.rack))
            .then(|| spread_ladder(machine.slots as i64, self.config.convex_spread_cost))
    }

    /// The EC→EC level of Quincy's network: `X` fans out to every rack
    /// aggregate with the rack's total slot capacity — as a convex spread
    /// ladder, so a wildcard burst splits across racks in one round (the
    /// wildcard *fetch* cost is priced on the task → `X` arc, not here).
    fn aggregate_to_aggregate(
        &self,
        state: &ClusterState,
        aggregate: AggregateId,
    ) -> Vec<(AggregateId, ArcBundle)> {
        if aggregate != CLUSTER_AGG {
            return Vec::new();
        }
        rack_capacities(state)
            .into_iter()
            .map(|(rack, slots, _)| {
                (
                    rack_agg(rack),
                    spread_ladder(slots, self.config.convex_spread_cost),
                )
            })
            .collect()
    }

    fn aggregate_kind(&self, aggregate: AggregateId) -> NodeKind {
        if aggregate == CLUSTER_AGG {
            NodeKind::ClusterAggregator
        } else {
            NodeKind::RackAggregator {
                rack: (aggregate - 1) as RackId,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost_model::{wait_cost, whole_seconds};
    use firmament_cluster::{ClusterState, TopologySpec};

    fn setup() -> (ClusterState, QuincyCostModel) {
        let state = ClusterState::with_topology(&TopologySpec {
            machines: 6,
            machines_per_rack: 3,
            slots_per_machine: 2,
        });
        (state, QuincyCostModel::new(QuincyConfig::default()))
    }

    fn make_task(state: &mut ClusterState, id: u64, holders: Vec<u64>) -> Task {
        let mut t = Task::new(id, 0, state.now, 4_000_000);
        let b = state.blocks.place_block(holders);
        t.input_blocks = vec![b];
        t.input_bytes = 2_000_000_000; // 2 GB
        t
    }

    #[test]
    fn preference_arcs_follow_locality() {
        let (mut state, model) = setup();
        let t = make_task(&mut state, 1, vec![0, 1, 4]);
        let arcs = model.task_arcs(&state, &t);
        // X + machine prefs (0, 1, 4) + rack prefs (0, 1).
        assert!(arcs.contains(&(ArcTarget::Aggregate(CLUSTER_AGG), ArcBundle::cost(201))));
        let machine_prefs = arcs
            .iter()
            .filter(|(t, _)| matches!(t, ArcTarget::Machine(_)))
            .count();
        assert_eq!(machine_prefs, 3);
        let rack_prefs = arcs
            .iter()
            .filter(|(t, _)| matches!(t, ArcTarget::Aggregate(a) if *a != CLUSTER_AGG))
            .count();
        assert_eq!(rack_prefs, 2);
    }

    #[test]
    fn local_machine_is_cheapest() {
        let (mut state, model) = setup();
        let t = make_task(&mut state, 1, vec![2, 2, 2]); // all data on machine 2
        let arcs = model.task_arcs(&state, &t);
        let machine_cost = arcs
            .iter()
            .find_map(|(tg, b)| matches!(tg, ArcTarget::Machine(2)).then(|| b.segments()[0].cost));
        let x_cost = arcs.iter().find_map(|(tg, b)| {
            matches!(tg, ArcTarget::Aggregate(CLUSTER_AGG)).then(|| b.segments()[0].cost)
        });
        assert_eq!(machine_cost, Some(0), "fully local data costs nothing");
        assert!(x_cost.unwrap() > 0, "cluster fallback pays full fetch");
    }

    #[test]
    fn pref_arc_budget_respected() {
        let (mut state, mut model) = setup();
        model.config.max_prefs_per_task = 2;
        let t = make_task(&mut state, 1, vec![0, 1, 2]);
        let arcs = model.task_arcs(&state, &t);
        let prefs = arcs
            .iter()
            .filter(|(tg, _)| !matches!(tg, ArcTarget::Aggregate(CLUSTER_AGG)))
            .count();
        assert!(prefs <= 2);
    }

    #[test]
    fn lower_threshold_creates_more_arcs() {
        let count_arcs = |threshold: f64| {
            let (mut state, mut model) = setup();
            model.config.machine_pref_threshold = threshold;
            model.config.rack_pref_threshold = threshold;
            model.config.max_prefs_per_task = 100;
            // Input spread thinly across many machines.
            let mut t = Task::new(1, 0, 0, 1_000_000);
            for m in 0..6u64 {
                let b = state.blocks.place_block(vec![m]);
                t.input_blocks.push(b);
            }
            t.input_bytes = 6_000_000_000;
            model.task_arcs(&state, &t).len()
        };
        // Each machine holds 1/6 ≈ 0.167 of the input.
        let high = count_arcs(0.5); // no machine qualifies
        let low = count_arcs(0.02); // every machine qualifies
        assert!(
            low > high,
            "2% threshold must create more arcs than 50% ({low} vs {high})"
        );
    }

    #[test]
    fn rack_aggregates_connect_only_their_machines() {
        let (state, model) = setup();
        let m0 = &state.machines[&0]; // rack 0
        let m4 = &state.machines[&4]; // rack 1
        assert!(model.aggregate_arc(&state, rack_agg(0), m0).is_some());
        assert!(model.aggregate_arc(&state, rack_agg(0), m4).is_none());
        // X reaches machines only through the rack level.
        assert!(model.aggregate_arc(&state, CLUSTER_AGG, m0).is_none());
        assert!(model.aggregate_arc(&state, CLUSTER_AGG, m4).is_none());
    }

    #[test]
    fn distribution_arcs_are_convex_spread_ladders() {
        let (state, model) = setup();
        let m0 = &state.machines[&0];
        let b = model.aggregate_arc(&state, rack_agg(0), m0).unwrap();
        assert!(b.is_convex());
        assert_eq!(b.total_capacity(), 2, "machine capacity preserved");
        assert_eq!(b.segments()[0].cost, 0, "first slot free");
        assert_eq!(
            b.segments().last().unwrap().cost,
            QuincyConfig::default().convex_spread_cost,
            "second slot pays the spread premium"
        );
        // The premium stays tie-break-sized: far below any fetch cost.
        assert!(b.segments().last().unwrap().cost < QuincyConfig::default().cost_per_gb_in_rack);
    }

    #[test]
    fn zero_premium_restores_uniform_arcs() {
        let (state, mut model) = setup();
        model.config.convex_spread_cost = 0;
        let m0 = &state.machines[&0];
        let b = model.aggregate_arc(&state, rack_agg(0), m0).unwrap();
        assert_eq!(b.segments().len(), 1);
        assert_eq!(b.segments()[0].capacity, 2);
        assert_eq!(b.segments()[0].cost, 0);
    }

    #[test]
    fn cluster_aggregate_fans_out_to_racks_with_subtree_capacity() {
        let (state, model) = setup();
        let children = model.aggregate_to_aggregate(&state, CLUSTER_AGG);
        assert_eq!(children.len(), 2, "two racks of three machines");
        for (agg, bundle) in &children {
            assert_ne!(*agg, CLUSTER_AGG);
            assert!(bundle.is_convex());
            assert_eq!(bundle.total_capacity(), 6, "3 machines × 2 slots per rack");
            assert_eq!(
                bundle.segments()[0].cost,
                0,
                "fallback fetch priced on the task→X arc, not here"
            );
        }
        // Rack aggregates are EC→EC leaves.
        assert!(model.aggregate_to_aggregate(&state, rack_agg(0)).is_empty());
    }

    #[test]
    fn wait_time_raises_unscheduled_cost() {
        let (mut state, model) = setup();
        let t = make_task(&mut state, 1, vec![0]);
        let before = model.task_unscheduled_cost(&state, &t);
        state.now = 30 * 1_000_000;
        // The base is clock-free; the slope prices the 30 s waited.
        assert_eq!(model.task_unscheduled_cost(&state, &t), before);
        let waited = wait_cost(model.wait_cost_per_sec(), 0, whole_seconds(state.now));
        let after = before + waited.unwrap();
        assert_eq!(
            after - before,
            30 * QuincyConfig::default().wait_cost_per_sec
        );
    }
}
