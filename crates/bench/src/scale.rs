//! The cluster-scale regression testbed.
//!
//! PR 4's per-slot convex ladders buy one-round spreading but multiply
//! aggregate → machine arcs by the slot count — at the paper's
//! 12 500-machine fig3 scale that is ~150 000 parallel arcs for
//! load-spreading alone (ROADMAP "Ladder width vs graph size").
//! Capacity-bucketed ladders ([`ArcBundle::bucketed`]) compress each
//! ladder to `O(log slots)` segments; this module is the harness that
//! *measures* what the compression buys and *pins* what it must not cost:
//!
//! - [`run_scale_point`] builds a trace-warmed cluster at a given
//!   machines × slots × policy × [`BundleShape`] point, runs one cold
//!   round plus a configurable number of churn rounds (completions +
//!   arrivals through the delta feed), and records graph size (nodes,
//!   arcs, ladder arcs), per-round wall times, and solver telemetry.
//! - [`one_round_burst`] / [`burst_quality`] measure placement quality:
//!   the same `k·m` identical-task burst solved under `PerSlot` and
//!   `Bucketed`, placements canonicalized via
//!   [`firmament_mcmf::canonical`] so degenerate optima extract
//!   deterministically, and both load vectors evaluated under the
//!   policy's **true per-slot marginal cost** — the quality delta is a
//!   number, not a vibe.
//! - [`ladder_arc_bound`] is the `O(m·log s)` bound the regression tests
//!   (and the CI `scale-smoke` job) assert: a future change that silently
//!   re-inflates the ladder arcs fails the build.
//!
//! The quality contract, made precise (and pinned by
//! `tests/scale_regression.rs`): bucketed segment costs are bucket means
//! of the per-slot marginals, so any load landing on a bucket boundary
//! (1, 2, 4, 8, …, slots per machine) prices *exactly* like the per-slot
//! ladder — a boundary-aligned burst places with zero true-cost delta —
//! and any other load stays within one ladder step per task of the
//! per-slot optimum, with per-machine spreading bounded by the next
//! bucket boundary above the fair share (vs `⌈k⌉ + 1` for per-slot).

use firmament_cluster::{ClusterEvent, ClusterState, TopologySpec};
use firmament_core::{extract_placements, Firmament, Placement, SchedulingAction};
use firmament_flow::NodeKind;
use firmament_mcmf::{canonicalize_flow, DualConfig, SolverKind};
use firmament_policies::{
    ArcBundle, BundleShape, CostModel, HierarchicalTopologyCostModel, LoadSpreadingCostModel,
    OctopusCostModel,
};
use firmament_sim::{GoogleTraceGenerator, TraceSpec};
use std::time::Instant;

pub use firmament_policies::load_spreading::COST_PER_TASK;

/// The shipped load-based policies the sweep covers — the three models
/// whose aggregate → machine ladders are per-slot by default and carry
/// the [`BundleShape`] knob.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScalePolicy {
    /// [`LoadSpreadingCostModel`]: linear marginals through one cluster
    /// aggregate.
    LoadSpreading,
    /// [`OctopusCostModel`]: quadratic marginals through one cluster
    /// aggregate.
    Octopus,
    /// [`HierarchicalTopologyCostModel`]: linear marginals on the
    /// rack → machine level of a cluster → rack → machine hierarchy.
    Hierarchy,
}

impl ScalePolicy {
    /// Every swept policy.
    pub const ALL: [ScalePolicy; 3] = [
        ScalePolicy::LoadSpreading,
        ScalePolicy::Octopus,
        ScalePolicy::Hierarchy,
    ];

    /// Short row label.
    pub fn name(self) -> &'static str {
        match self {
            ScalePolicy::LoadSpreading => "load-spreading",
            ScalePolicy::Octopus => "octopus",
            ScalePolicy::Hierarchy => "hierarchy",
        }
    }

    /// Builds the model with its ladders in the given shape.
    pub fn build(self, shape: BundleShape) -> Box<dyn CostModel> {
        match self {
            ScalePolicy::LoadSpreading => Box::new(LoadSpreadingCostModel::with_shape(shape)),
            ScalePolicy::Octopus => Box::new(OctopusCostModel::with_config(
                firmament_policies::OctopusConfig {
                    shape,
                    ..Default::default()
                },
            )),
            ScalePolicy::Hierarchy => Box::new(HierarchicalTopologyCostModel::with_config(
                firmament_policies::TopologyConfig {
                    shape,
                    ..Default::default()
                },
            )),
        }
    }

    /// The policy's true per-slot marginal cost of the `j`-th task on an
    /// idle machine — what both shapes are approximating, used to
    /// evaluate placements under the *declared* convex cost.
    pub fn marginal(self, j: i64) -> i64 {
        match self {
            ScalePolicy::LoadSpreading => LoadSpreadingCostModel::marginal_cost(0, j),
            ScalePolicy::Octopus => {
                let scale = firmament_policies::OctopusConfig::default().load_cost_scale;
                scale * (2 * j + 1)
            }
            ScalePolicy::Hierarchy => {
                firmament_policies::TopologyConfig::default().machine_load_cost * j
            }
        }
    }

    /// The largest single-slot marginal increment over `0..slots` — the
    /// "one cost unit" of the per-task quality bound.
    pub fn marginal_step(self, slots: i64) -> i64 {
        (1..slots.max(1))
            .map(|j| self.marginal(j) - self.marginal(j - 1))
            .max()
            .unwrap_or(0)
            .max(1)
    }

    /// Evaluates a per-machine load vector under the true per-slot
    /// convex cost.
    pub fn true_cost(self, loads: &[usize]) -> i64 {
        loads
            .iter()
            .map(|&l| (0..l as i64).map(|j| self.marginal(j)).sum::<i64>())
            .sum()
    }
}

/// The smallest geometric bucket boundary (0, 1, 2, 4, 8, …) at or above
/// `x` — the spreading granularity of a bucketed ladder: a one-round
/// burst with per-machine fair share `k` lands at most
/// `bucket_ceiling(⌈k⌉)` tasks on any machine.
pub fn bucket_ceiling(x: i64) -> i64 {
    let mut b = 0i64;
    let mut cap = 1i64;
    while b < x {
        b += cap;
        if b > 1 {
            cap *= 2;
        }
    }
    b
}

/// Upper bound on aggregate → machine ladder arcs at a scale point:
/// `machines × shape.max_segments(slots)` — the `O(m·log s)` assertion
/// for `Bucketed`, `O(m·s)` for `PerSlot`.
pub fn ladder_arc_bound(machines: usize, slots: u32, shape: BundleShape) -> usize {
    machines * shape.max_segments(slots as i64)
}

/// Counts the materialized aggregate → machine arcs (any aggregator kind
/// → machine, forward, positive or parked) — the quantity
/// [`ladder_arc_bound`] bounds.
pub fn ladder_arcs(graph: &firmament_flow::FlowGraph) -> usize {
    graph
        .arc_ids()
        .filter(|&a| {
            matches!(graph.kind(graph.dst(a)), NodeKind::Machine { .. })
                && matches!(
                    graph.kind(graph.src(a)),
                    NodeKind::ClusterAggregator
                        | NodeKind::RackAggregator { .. }
                        | NodeKind::RequestAggregator { .. }
                        | NodeKind::Other { .. }
                )
        })
        .count()
}

/// One point of the scale sweep.
#[derive(Debug, Clone)]
pub struct ScalePointSpec {
    /// Which policy's ladders are under test.
    pub policy: ScalePolicy,
    /// Ladder shape.
    pub shape: BundleShape,
    /// Cluster machines.
    pub machines: usize,
    /// Slots per machine.
    pub slots: u32,
    /// Trace warmup target utilization.
    pub utilization: f64,
    /// Churn rounds after the cold round (each: a batch of completions +
    /// one trace arrival, through the delta feed).
    pub churn_rounds: usize,
    /// Trace seed.
    pub seed: u64,
}

impl ScalePointSpec {
    /// A default-shaped point at the given size.
    pub fn new(policy: ScalePolicy, shape: BundleShape, machines: usize, slots: u32) -> Self {
        ScalePointSpec {
            policy,
            shape,
            machines,
            slots,
            utilization: 0.5,
            churn_rounds: 3,
            seed: 42,
        }
    }
}

/// What a scale point measured.
#[derive(Debug, Clone)]
pub struct ScalePoint {
    /// The spec this point ran.
    pub spec: ScalePointSpec,
    /// Live graph nodes after warmup.
    pub nodes: usize,
    /// Live graph arcs after warmup.
    pub arcs: usize,
    /// Aggregate → machine ladder arcs after warmup (the bounded
    /// quantity).
    pub ladder_arcs: usize,
    /// Wall time of the cold (first) scheduling round, seconds.
    pub cold_round_s: f64,
    /// Wall times of the churn rounds, seconds.
    pub warm_rounds_s: Vec<f64>,
    /// Deltas fed to the solver across churn rounds.
    pub warm_deltas: usize,
    /// Pure re-pricings among those deltas.
    pub warm_repricings: usize,
    /// Churn rounds that ran no solver because their batch kept the last
    /// flow optimal (`DeltaBatch::keeps_optimal`).
    pub race_skips: usize,
    /// Tasks placed after the cold round.
    pub placed: usize,
    /// Tasks left unscheduled after the cold round.
    pub unscheduled: usize,
}

impl ScalePoint {
    /// Median churn-round wall time, seconds (0 when no churn rounds ran).
    pub fn warm_round_median_s(&self) -> f64 {
        if self.warm_rounds_s.is_empty() {
            return 0.0;
        }
        let mut v = self.warm_rounds_s.clone();
        v.sort_by(f64::total_cmp);
        v[v.len() / 2]
    }
}

fn apply_round<C: CostModel>(
    state: &mut ClusterState,
    firmament: &mut Firmament<C>,
    actions: &[SchedulingAction],
) {
    for a in actions {
        let ev = match a {
            SchedulingAction::Place { task, machine } => {
                if !state.machines[machine].has_free_slot() {
                    continue;
                }
                ClusterEvent::TaskPlaced {
                    task: *task,
                    machine: *machine,
                    now: state.now,
                }
            }
            SchedulingAction::Preempt { task } => ClusterEvent::TaskPreempted {
                task: *task,
                now: state.now,
            },
        };
        state.apply(&ev);
        firmament.handle_event(state, &ev).expect("apply action");
    }
}

/// Runs one scale point: trace warmup, a cold round, then
/// `churn_rounds` delta-fed rounds of completions + one arrival each.
pub fn run_scale_point(spec: &ScalePointSpec) -> ScalePoint {
    let mut state = ClusterState::with_topology(&TopologySpec {
        machines: spec.machines,
        machines_per_rack: 40,
        slots_per_machine: spec.slots,
    });
    let mut firmament = Firmament::new(spec.policy.build(spec.shape));
    let mut ms: Vec<_> = state.machines.values().cloned().collect();
    ms.sort_by_key(|m| m.id);
    for m in ms {
        firmament
            .handle_event(&state, &ClusterEvent::MachineAdded { machine: m })
            .expect("machine registration");
    }
    let mut generator = GoogleTraceGenerator::new(TraceSpec {
        machines: spec.machines,
        slots_per_machine: spec.slots,
        target_utilization: spec.utilization,
        seed: spec.seed,
        job_size_scale: (spec.machines as f64 / 12_500.0).max(0.01),
        ..TraceSpec::default()
    });
    for a in generator.warmup(&mut state) {
        let ev = ClusterEvent::JobSubmitted {
            job: a.job.clone(),
            tasks: a.tasks.clone(),
        };
        state.apply(&ev);
        firmament.handle_event(&state, &ev).expect("submit");
    }
    // Refresh without solving so graph-size numbers describe the built
    // network, then the timed cold round (refresh is idempotent).
    firmament.refresh(&state).expect("refresh");
    let nodes = firmament.graph().node_count();
    let arcs = firmament.graph().arc_count();
    let ladder = ladder_arcs(firmament.graph());

    let start = Instant::now();
    let outcome = firmament.schedule(&state).expect("cold round");
    let cold_round_s = start.elapsed().as_secs_f64();
    let placed = outcome.placed_tasks;
    let unscheduled = outcome.unscheduled_tasks;
    apply_round(&mut state, &mut firmament, &outcome.actions.clone());

    let mut warm_rounds_s = Vec::with_capacity(spec.churn_rounds);
    let mut warm_deltas = 0;
    let mut warm_repricings = 0;
    let mut race_skips = 0;
    for round in 0..spec.churn_rounds {
        // A batch of completions (1 % of running tasks, at least one)…
        let mut running: Vec<u64> = state.running_tasks().map(|t| t.id).collect();
        running.sort_unstable();
        for &t in running.iter().take((running.len() / 100).max(1)) {
            let ev = ClusterEvent::TaskCompleted {
                task: t,
                now: state.now,
            };
            state.apply(&ev);
            firmament.handle_event(&state, &ev).expect("complete");
        }
        // …one trace arrival, and a second of clock drift.
        let now = state.now + 1_000_000;
        let ev = ClusterEvent::Tick { now };
        state.apply(&ev);
        firmament.handle_event(&state, &ev).expect("tick");
        let arrival = generator.generate_job_at(now, &mut state);
        let ev = ClusterEvent::JobSubmitted {
            job: arrival.job,
            tasks: arrival.tasks,
        };
        state.apply(&ev);
        firmament.handle_event(&state, &ev).expect("arrival");

        let start = Instant::now();
        let outcome = firmament
            .schedule(&state)
            .unwrap_or_else(|e| panic!("churn round {round}: {e}"));
        warm_rounds_s.push(start.elapsed().as_secs_f64());
        warm_deltas += outcome.solver.deltas_fed;
        warm_repricings += outcome.solver.repricings;
        race_skips += usize::from(outcome.solver.race_skipped);
        apply_round(&mut state, &mut firmament, &outcome.actions.clone());
    }

    ScalePoint {
        spec: spec.clone(),
        nodes,
        arcs,
        ladder_arcs: ladder,
        cold_round_s,
        warm_rounds_s,
        warm_deltas,
        warm_repricings,
        race_skips,
        placed,
        unscheduled,
    }
}

/// The outcome of a one-round `k·m` burst under one shape.
#[derive(Debug, Clone)]
pub struct BurstOutcome {
    /// Per-machine loads after applying the single round's placements
    /// (machine-id order).
    pub loads: Vec<usize>,
    /// Tasks placed by the round.
    pub placed: usize,
    /// Largest per-machine load.
    pub max_load: usize,
    /// The load vector evaluated under the policy's true per-slot
    /// marginal cost.
    pub true_cost: i64,
}

/// Solves one identical-task burst in a single round under the given
/// shape, **canonicalizes** the optimal flow (so degenerate optima — the
/// equal-cost buckets of a partially filled level — extract the same
/// placement everywhere), and returns the resulting load distribution
/// with its true per-slot cost.
pub fn one_round_burst(
    policy: ScalePolicy,
    shape: BundleShape,
    machines: usize,
    slots: u32,
    tasks: usize,
) -> BurstOutcome {
    let mut state = ClusterState::with_topology(&TopologySpec {
        machines,
        machines_per_rack: 8,
        slots_per_machine: slots,
    });
    // Cost scaling only: per-algorithm deterministic, so canonicalized
    // placements are reproducible across runs and shapes.
    let mut firmament = Firmament::with_solver(
        policy.build(shape),
        DualConfig {
            kind: SolverKind::CostScalingOnly,
            ..Default::default()
        },
    );
    let mut ms: Vec<_> = state.machines.values().cloned().collect();
    ms.sort_by_key(|m| m.id);
    for m in ms {
        firmament
            .handle_event(&state, &ClusterEvent::MachineAdded { machine: m })
            .expect("machine registration");
    }
    let mut generator = GoogleTraceGenerator::new(TraceSpec {
        machines,
        slots_per_machine: slots,
        ..TraceSpec::default()
    });
    let arrival = generator.burst_job_at(0, tasks, 60_000_000);
    let ev = ClusterEvent::JobSubmitted {
        job: arrival.job,
        tasks: arrival.tasks,
    };
    state.apply(&ev);
    firmament.handle_event(&state, &ev).expect("submit burst");
    firmament.schedule(&state).expect("single round");

    // Canonical optimum: identical placements for every optimal flow of
    // the same graph (mcmf::canonical), so bucket-level degeneracy cannot
    // make the quality numbers flap.
    let mut graph = firmament.manager_mut().take_graph();
    canonicalize_flow(&mut graph).expect("canonicalize");
    firmament.manager_mut().adopt_graph(graph);
    let placements = extract_placements(firmament.graph());

    let mut machine_ids: Vec<u64> = state.machines.keys().copied().collect();
    machine_ids.sort_unstable();
    let index: std::collections::HashMap<u64, usize> = machine_ids
        .iter()
        .enumerate()
        .map(|(i, &m)| (m, i))
        .collect();
    let mut loads = vec![0usize; machines];
    let mut placed = 0usize;
    for placement in placements.values() {
        if let Placement::OnMachine(m) = placement {
            loads[index[m]] += 1;
            placed += 1;
        }
    }
    BurstOutcome {
        max_load: loads.iter().copied().max().unwrap_or(0),
        true_cost: policy.true_cost(&loads),
        loads,
        placed,
    }
}

/// The per-slot vs bucketed quality delta of one burst.
#[derive(Debug, Clone)]
pub struct QualityDelta {
    /// The per-slot (reference) outcome.
    pub per_slot: BurstOutcome,
    /// The bucketed outcome.
    pub bucketed: BurstOutcome,
    /// Burst size.
    pub tasks: usize,
    /// `bucketed.true_cost − per_slot.true_cost` (≥ 0 when per-slot is
    /// optimal for the true cost, which it is for one-round bursts from
    /// idle).
    pub delta: i64,
}

impl QualityDelta {
    /// True-cost delta per task — the "≤ 1 cost unit per task" quantity
    /// (in units of the policy's largest marginal step).
    pub fn per_task_units(&self, policy: ScalePolicy, slots: u32) -> f64 {
        self.delta as f64 / self.tasks.max(1) as f64 / policy.marginal_step(slots as i64) as f64
    }
}

/// Runs the same burst under both shapes and reports the quality delta.
pub fn burst_quality(
    policy: ScalePolicy,
    machines: usize,
    slots: u32,
    tasks: usize,
) -> QualityDelta {
    let per_slot = one_round_burst(policy, BundleShape::PerSlot, machines, slots, tasks);
    let bucketed = one_round_burst(policy, BundleShape::Bucketed, machines, slots, tasks);
    let delta = bucketed.true_cost - per_slot.true_cost;
    QualityDelta {
        per_slot,
        bucketed,
        tasks,
        delta,
    }
}

/// Direct segment-count check used by tests and the bench bin: the
/// bucketed ladder of every shipped policy stays within
/// [`BundleShape::max_segments`] for any slot count.
pub fn bucketed_segments_for(policy: ScalePolicy, slots: u32) -> usize {
    let bundle: ArcBundle = BundleShape::Bucketed.ladder(slots as i64, |j| policy.marginal(j));
    bundle.segments().len()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_ceiling_follows_geometric_boundaries() {
        assert_eq!(bucket_ceiling(0), 0);
        assert_eq!(bucket_ceiling(1), 1);
        assert_eq!(bucket_ceiling(2), 2);
        assert_eq!(bucket_ceiling(3), 4);
        assert_eq!(bucket_ceiling(4), 4);
        assert_eq!(bucket_ceiling(5), 8);
        assert_eq!(bucket_ceiling(9), 16);
    }

    #[test]
    fn marginal_steps_are_positive() {
        for p in ScalePolicy::ALL {
            assert!(p.marginal_step(12) >= 1, "{}", p.name());
            assert!(
                p.true_cost(&[2, 0]) >= p.true_cost(&[1, 1]),
                "{}: convex",
                p.name()
            );
        }
    }

    #[test]
    fn ladder_arc_bound_matches_shapes() {
        assert_eq!(ladder_arc_bound(100, 12, BundleShape::PerSlot), 1200);
        assert_eq!(ladder_arc_bound(100, 12, BundleShape::Bucketed), 500);
        assert_eq!(
            ladder_arc_bound(12_500, 12, BundleShape::Bucketed),
            62_500,
            "the paper point: 62.5k ladder arcs instead of 150k"
        );
    }
}
