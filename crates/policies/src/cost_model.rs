//! The declarative cost-model API (§3.3), mirroring Firmament's
//! `CostModelInterface`.
//!
//! A cost model *declares* the policy-specific part of the scheduling flow
//! network — which aggregator nodes exist, which arcs connect tasks to
//! them, and what the costs and capacities are — as pure functions of
//! [`ClusterState`]. It never touches the graph itself: the
//! `FlowGraphManager` in `firmament-core` owns the network, translates
//! cluster events into graph deltas, and queries the cost model for the
//! numbers. This split is Firmament's core generalization over Quincy
//! (whose single policy was welded to its graph code): new policies are a
//! few dozen lines of cost arithmetic instead of hundreds of lines of
//! graph bookkeeping.
//!
//! # Writing a cost model
//!
//! A policy answers four questions:
//!
//! 1. **Where may a waiting task send its flow?** [`CostModel::task_arcs`]
//!    returns `(target, bundle)` pairs: targets are machines (preference
//!    arcs) or policy-defined [`AggregateId`]s (equivalence classes —
//!    Quincy's rack/cluster aggregators, the network-aware policy's
//!    request classes).
//! 2. **How do aggregates reach machines?** [`CostModel::aggregate_arc`]
//!    declares the arc bundle (capacities + costs) from an aggregate to a
//!    machine, or `None` for no arc. Re-evaluated whenever a machine is
//!    *dirty* (touched by an event since the last refresh; see
//!    [`CostModel::dynamic_aggregate_arcs`] for monitoring-driven arcs).
//! 3. **What does leaving the task unscheduled cost?**
//!    [`CostModel::task_unscheduled_cost`] declares a clock-free base and
//!    [`CostModel::wait_cost_per_sec`] a slope: waiting costs base +
//!    slope × whole seconds waited, so starving tasks eventually win
//!    contended slots. The slope is one number for the whole model, which
//!    lets the manager price waiting time on one arc per job rather than
//!    on every task's arc.
//! 4. **What does a running task's arc cost?**
//!    [`CostModel::running_arc_cost`] — usually 0 (data already local).
//!
//! Multi-level topologies (cluster → rack → machine, rack → machine →
//! socket, …) add a fifth, optional question: **how do aggregates reach
//! other aggregates?** [`CostModel::aggregate_to_aggregate`] declares the
//! EC→EC edges of the hierarchy — a DAG pointing down toward machines,
//! with per-edge capacities that bound what each subtree can absorb.
//!
//! # Convex arc bundles
//!
//! Every arc hook declares an [`ArcBundle`]: a piecewise-linear **convex
//! cost ladder** — ordered [`ArcSpec`] segments whose costs must be
//! non-decreasing. The manager materializes one parallel graph arc per
//! segment, so the min-cost solver fills cheap segments first and the
//! marginal cost of each extra unit rises *within a single solver round*.
//! This is Quincy's original convexity trick: a load-based policy that
//! prices "the j-th extra task on this machine" at an increasing cost
//! spreads a burst in one round, where a single uniform-cost arc only
//! spreads across rounds (the solver sees no within-round gradient).
//!
//! Single-arc policies keep writing one line via the convenience
//! constructors ([`ArcBundle::single`], [`ArcBundle::cost`]); ladder
//! policies use [`ArcBundle::ladder`] or build segments explicitly. The
//! manager validates convexity and rejects decreasing-cost ladders with
//! `PolicyError::NonConvexBundle` — a non-convex "ladder" would let the
//! solver fill expensive segments before cheap ones, silently corrupting
//! the declared cost function.
//!
//! Segment slots have **stable identity**: re-pricing segment `j` of an
//! existing bundle is a pure cost change on the same graph arc (a cheap
//! `CostChanged` delta for the incremental solver), never a structural
//! rebuild. Growing a bundle appends segments; shrinking parks the tail
//! at capacity 0 (static models) so it can revive later.
//!
//! # Examples
//!
//! A complete trivial policy — spread over whichever machine has the most
//! free slots, with a convex ladder so the spreading happens within one
//! solver round:
//!
//! ```
//! use firmament_cluster::{ClusterState, Job, Machine, Task};
//! use firmament_policies::{AggregateId, ArcBundle, ArcTarget, CostModel};
//!
//! struct FreeSlots;
//! const CLUSTER: AggregateId = 0;
//!
//! impl CostModel for FreeSlots {
//!     fn name(&self) -> &'static str {
//!         "free-slots"
//!     }
//!     fn task_unscheduled_cost(&self, _: &ClusterState, _: &Task) -> i64 {
//!         100_000
//!     }
//!     fn wait_cost_per_sec(&self) -> i64 {
//!         // Every second a task waits adds 100 to leaving it unscheduled.
//!         100
//!     }
//!     fn task_arcs(&self, _: &ClusterState, _: &Task) -> Vec<(ArcTarget, ArcBundle)> {
//!         vec![(ArcTarget::Aggregate(CLUSTER), ArcBundle::cost(0))]
//!     }
//!     fn aggregate_arc(
//!         &self,
//!         _: &ClusterState,
//!         _: AggregateId,
//!         machine: &Machine,
//!     ) -> Option<ArcBundle> {
//!         // One capacity-1 segment per slot, priced by standing load:
//!         // the j-th extra task costs more than the (j-1)-th.
//!         let running = machine.running.len() as i64;
//!         Some(ArcBundle::ladder(
//!             (0..machine.slots as i64).map(|j| running + j),
//!         ))
//!     }
//! }
//! ```

use firmament_cluster::{ClusterState, Job, Machine, MachineId, RackId, Task, Time};
use firmament_flow::NodeKind;
use std::collections::BTreeMap;

/// Identifier of a policy-defined aggregator node (an *equivalence class*
/// in real Firmament's terminology). The namespace is private to each cost
/// model; the graph manager only uses it as an opaque key.
///
/// Aggregates are materialized on demand — the first time a model names an
/// id in [`CostModel::task_arcs`] or
/// [`CostModel::aggregate_to_aggregate`] — and **garbage-collected** when
/// no task can reach them any more (every incoming arc gone or parked at
/// capacity 0, no residual solver flow). Per-job or otherwise
/// churn-keyed aggregates are therefore safe: the graph stays proportional
/// to *live* work. An id collected this round is transparently
/// rematerialized if the model names it again later.
pub type AggregateId = u64;

/// Where a declared task arc points.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ArcTarget {
    /// A policy-defined aggregator (created on demand by the manager).
    Aggregate(AggregateId),
    /// A direct machine preference arc.
    Machine(MachineId),
}

/// Capacity and cost of one segment of a declared arc bundle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArcSpec {
    /// Maximum flow (task count) the segment admits. Values ≤ 0 mean "no
    /// capacity" (the segment's arc is parked at 0).
    pub capacity: i64,
    /// Cost per unit of flow through this segment.
    pub cost: i64,
}

/// A piecewise-linear convex cost ladder: the unit of arc declaration for
/// every [`CostModel`] hook.
///
/// A bundle is an ordered list of [`ArcSpec`] segments with
/// **non-decreasing cost** (validated by the graph manager; decreasing
/// ladders are rejected with `PolicyError::NonConvexBundle`). The manager
/// materializes one parallel arc per segment with stable per-segment slot
/// identity: re-pricing a segment later is a pure cost change on the same
/// graph arc, never a structural rebuild.
///
/// Convexity is what makes load costs bite *within* one solver round: the
/// solver fills the cheap segments of every machine before anyone's
/// expensive ones, so a burst of identical tasks spreads in a single
/// solve instead of drifting toward balance across rounds.
///
/// # Examples
///
/// ```
/// use firmament_policies::{ArcBundle, ArcSpec};
///
/// // Single-segment bundles migrate pre-bundle policies mechanically:
/// let plain = ArcBundle::single(4, 10);
/// assert_eq!(plain.total_capacity(), 4);
///
/// // A per-unit ladder: the j-th unit costs `j` (convex).
/// let ladder = ArcBundle::ladder(0..4);
/// assert_eq!(ladder.segments().len(), 4);
/// assert!(ladder.is_convex());
///
/// // Decreasing costs are not convex; the manager rejects this bundle.
/// let bad = ArcBundle::from_segments(vec![
///     ArcSpec { capacity: 1, cost: 5 },
///     ArcSpec { capacity: 1, cost: 3 },
/// ]);
/// assert!(!bad.is_convex());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArcBundle {
    segments: Vec<ArcSpec>,
}

impl ArcBundle {
    /// A single-segment bundle — the mechanical migration of a pre-bundle
    /// `(capacity, cost)` arc.
    pub fn single(capacity: i64, cost: i64) -> Self {
        ArcBundle {
            segments: vec![ArcSpec { capacity, cost }],
        }
    }

    /// A single capacity-1 segment: the shape of a waiting-task preference
    /// arc (tasks carry one unit of supply).
    pub fn cost(cost: i64) -> Self {
        ArcBundle::single(1, cost)
    }

    /// A bundle from explicit segments. Costs should be non-decreasing;
    /// the manager validates this at declaration time.
    pub fn from_segments(segments: Vec<ArcSpec>) -> Self {
        ArcBundle { segments }
    }

    /// A per-unit ladder: one capacity-1 segment per cost in order. The
    /// canonical convex expansion — unit `j` costs `unit_costs[j]`.
    pub fn ladder(unit_costs: impl IntoIterator<Item = i64>) -> Self {
        ArcBundle {
            segments: unit_costs
                .into_iter()
                .map(|cost| ArcSpec { capacity: 1, cost })
                .collect(),
        }
    }

    /// The capacity-bucketed compression of a per-slot convex ladder:
    /// `O(log slots)` segments with **geometrically growing capacities**
    /// (1, 1, 2, 4, 8, …, last bucket truncated), each priced at the
    /// rounded *mean* of the per-slot marginal costs it covers.
    ///
    /// This is the classic convex-cost-to-arcs compression: a per-slot
    /// ladder multiplies aggregate → machine arcs by the slot count
    /// (12 500 machines × 12 slots = 150 000 parallel arcs for
    /// load-spreading alone), while the bucketed form holds the arc count
    /// at `⌈log₂ slots⌉ + 1` segments per machine (12 slots → 5) and
    /// still realizes the declared convex cost:
    ///
    /// - **Convexity is preserved**: `marginal_cost` must be
    ///   non-decreasing over `0..slots` (the per-slot convexity contract);
    ///   bucket means of a non-decreasing sequence are non-decreasing, and
    ///   round-half-up is monotone, so the bucketed ladder always passes
    ///   the manager's `NonConvexBundle` validation.
    /// - **Cost fidelity**: for any load ending on a bucket boundary, the
    ///   bucketed total equals the per-slot total up to mean-rounding —
    ///   strictly less than 1 cost unit per task. Inside a bucket the
    ///   deviation is bounded by the bucket's marginal spread, i.e. one
    ///   ladder step per task for linearly rising marginals (the
    ///   `scale_regression` suite pins both bounds against the per-slot
    ///   optimum on exact instances).
    /// - **Spreading granularity**: with equal machines, a one-round burst
    ///   still fills every machine's cheap buckets before anyone's
    ///   expensive ones; balance is exact whenever the per-machine fair
    ///   share lands on a bucket boundary (1, 2, 4, 8, …, slots) and
    ///   bucket-granular otherwise — the deliberate trade for O(log)
    ///   arcs.
    ///
    /// The segment *count* depends only on `slots`, never on the costs, so
    /// re-pricing a bucketed bundle under load drift patches the same
    /// slots in place (pure `CostChanged` deltas) — the bundle's stable
    /// slot identity is exactly that of the per-slot form.
    ///
    /// # Examples
    ///
    /// ```
    /// use firmament_policies::ArcBundle;
    ///
    /// // The linear load ladder 10·j over 12 slots compresses 12 → 5
    /// // segments with capacities 1, 1, 2, 4, 4.
    /// let b = ArcBundle::bucketed(12, |j| 10 * j);
    /// assert_eq!(b.segments().len(), 5);
    /// assert_eq!(b.total_capacity(), 12);
    /// assert!(b.is_convex());
    /// let caps: Vec<i64> = b.segments().iter().map(|s| s.capacity).collect();
    /// assert_eq!(caps, vec![1, 1, 2, 4, 4]);
    /// // Bucket [4, 8) is priced at the mean of 40, 50, 60, 70.
    /// assert_eq!(b.segments()[3].cost, 55);
    /// ```
    pub fn bucketed(slots: i64, marginal_cost: impl Fn(i64) -> i64) -> Self {
        let mut segments = Vec::new();
        let mut lo = 0i64;
        let mut cap = 1i64;
        while lo < slots {
            let width = cap.min(slots - lo);
            let sum: i64 = (lo..lo + width).map(&marginal_cost).sum();
            // Round-half-up mean; monotone in the exact mean, so convexity
            // of the marginals carries over to the bucket costs.
            let cost = (2 * sum + width).div_euclid(2 * width);
            segments.push(ArcSpec {
                capacity: width,
                cost,
            });
            lo += width;
            if segments.len() >= 2 {
                cap *= 2;
            }
        }
        ArcBundle { segments }
    }

    /// The ordered segments.
    pub fn segments(&self) -> &[ArcSpec] {
        &self.segments
    }

    /// Total capacity across segments (negative segment capacities count
    /// as 0, matching how the manager parks them).
    pub fn total_capacity(&self) -> i64 {
        self.segments.iter().map(|s| s.capacity.max(0)).sum()
    }

    /// `true` if the bundle declares no segments (equivalent to declaring
    /// no arc at all).
    pub fn is_empty(&self) -> bool {
        self.segments.is_empty()
    }

    /// Whether segment costs are non-decreasing — the convexity contract
    /// every declared bundle must satisfy.
    pub fn is_convex(&self) -> bool {
        self.segments.windows(2).all(|w| w[0].cost <= w[1].cost)
    }

    /// The first decreasing-cost step, if any: `(prev, next)` costs of the
    /// offending adjacent pair. Used by the manager to build the typed
    /// `PolicyError::NonConvexBundle`.
    pub fn convexity_violation(&self) -> Option<(i64, i64)> {
        self.segments
            .windows(2)
            .find(|w| w[0].cost > w[1].cost)
            .map(|w| (w[0].cost, w[1].cost))
    }
}

impl From<ArcSpec> for ArcBundle {
    fn from(spec: ArcSpec) -> Self {
        ArcBundle {
            segments: vec![spec],
        }
    }
}

/// How a load-based cost model materializes its convex per-slot cost
/// ladders — the graph-size knob for full-scale clusters.
///
/// The shipped load-based models ([`LoadSpreadingCostModel`],
/// [`OctopusCostModel`], [`HierarchicalTopologyCostModel`]) declare one
/// rising marginal cost per machine slot. `PerSlot` materializes exactly
/// that — one capacity-1 arc per slot, slot-exact spreading, `O(m·s)`
/// aggregate → machine arcs. `Bucketed` compresses each ladder via
/// [`ArcBundle::bucketed`] into `O(log s)` geometric-capacity segments —
/// `O(m·log s)` arcs, within one ladder step per task of the per-slot
/// optimum, bucket-granular spreading. At the paper's 12 500-machine ×
/// 12-slot scale that is 62 500 ladder arcs instead of 150 000.
///
/// [`LoadSpreadingCostModel`]: crate::LoadSpreadingCostModel
/// [`OctopusCostModel`]: crate::OctopusCostModel
/// [`HierarchicalTopologyCostModel`]: crate::HierarchicalTopologyCostModel
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BundleShape {
    /// One capacity-1 segment per slot: slot-exact within-round spreading
    /// at `O(slots)` arcs per bundle (the default).
    #[default]
    PerSlot,
    /// Geometric capacity buckets ([`ArcBundle::bucketed`]): `O(log slots)`
    /// arcs per bundle, placement quality within ~1 ladder step per task.
    Bucketed,
}

impl BundleShape {
    /// Materializes a convex ladder over `slots` units with the given
    /// per-unit marginal cost, in this shape. The single constructor the
    /// load-based models route their ladders through, so a shape knob is
    /// one field instead of per-hook branching.
    pub fn ladder(self, slots: i64, marginal_cost: impl Fn(i64) -> i64) -> ArcBundle {
        match self {
            BundleShape::PerSlot => ArcBundle::ladder((0..slots.max(0)).map(marginal_cost)),
            BundleShape::Bucketed => ArcBundle::bucketed(slots.max(0), marginal_cost),
        }
    }

    /// Upper bound on the number of segments [`ladder`](Self::ladder)
    /// produces for `slots` units: `slots` for `PerSlot`,
    /// `⌈log₂ slots⌉ + 1` for `Bucketed`. The quantity the
    /// `scale_regression` suite asserts per machine.
    pub fn max_segments(self, slots: i64) -> usize {
        let slots = slots.max(0);
        match self {
            BundleShape::PerSlot => slots as usize,
            BundleShape::Bucketed => {
                if slots <= 1 {
                    slots as usize
                } else {
                    // ⌈log₂ slots⌉ + 1, computed without floats.
                    let ceil_log2 = 64 - (slots - 1).leading_zeros() as usize;
                    (ceil_log2 + 1).min(slots as usize)
                }
            }
        }
    }
}

/// A scheduling policy, expressed as pure cost/structure declarations over
/// cluster state (Firmament's cost-model interface, §3.3).
///
/// Implementations must be deterministic functions of `ClusterState` and
/// their own configuration: the `FlowGraphManager` caches the declared
/// structure and only re-queries the parts invalidated by events (the
/// two-pass update of §6.3), so hidden mutable state would desynchronize
/// the network from the policy's intent.
pub trait CostModel {
    /// Human-readable policy name.
    fn name(&self) -> &'static str;

    /// The clock-free base cost of leaving `task` unscheduled. What
    /// waiting costs at time `now` is this base plus
    /// [`wait_cost_per_sec`](CostModel::wait_cost_per_sec) × (⌊now⌋ −
    /// ⌊submit⌋), in whole seconds (see [`wait_cost`]).
    ///
    /// **Must not read `state.now`**: the manager queries the base when the
    /// task arrives or an event touches it, never on a clock tick. A clock
    /// tick re-prices only the arcs that carry the clock's share of
    /// waiting, one per job, so a base that drifted with the clock would
    /// go stale (the differential fuzz suite shows it as incremental ≠
    /// rebuild).
    fn task_unscheduled_cost(&self, state: &ClusterState, task: &Task) -> i64;

    /// What each whole second of waiting adds to leaving a task
    /// unscheduled, the same for every task. Defaults to 0: waiting never
    /// gets more expensive.
    ///
    /// The manager prices the slope once per job, not once per task: each
    /// job's `U_j → S` arc costs slope × (⌊now⌋ − E) for an epoch `E`,
    /// while each `T → U_j` arc costs base + slope × (E − ⌊submit⌋). A
    /// clock tick then changes one cost per job, however many tasks the
    /// graph holds.
    fn wait_cost_per_sec(&self) -> i64 {
        0
    }

    /// The arc set of a *waiting* task: `(target, bundle)` pairs. Called
    /// when the task is submitted, preempted, or displaced by a machine
    /// failure. The unscheduled arc is implicit and must not be declared
    /// here. Most bundles here are [`ArcBundle::cost`] (capacity 1 —
    /// tasks carry one unit of supply); multi-segment task bundles are
    /// legal but only their cheapest reachable segment can ever carry the
    /// task's single unit.
    ///
    /// Between structural events, the declared costs are **frozen** by
    /// default; models whose preference costs drift with time or load
    /// (decaying locality, rising contention) opt into re-pricing with
    /// [`dynamic_task_arcs`](CostModel::dynamic_task_arcs).
    fn task_arcs(&self, state: &ClusterState, task: &Task) -> Vec<(ArcTarget, ArcBundle)>;

    /// The arc bundle an aggregate offers toward a machine, or `None` for
    /// no arc. Queried for every (aggregate, machine) pair when either
    /// side is created; after that, the contract depends on
    /// [`dynamic_aggregate_arcs`]:
    ///
    /// - **static structure** (default): `None` at creation means the
    ///   pair is never connected and is not revisited. Existing bundles
    ///   are re-synced when their machine is dirtied by an event:
    ///   per-segment costs/capacities are re-priced in place, extra
    ///   declared segments are appended, and segments the model stops
    ///   declaring (or `None`) are parked at capacity 0 (they can revive
    ///   on a later refresh).
    /// - **dynamic** (`true`): the full pair set is re-queried every
    ///   round and bundles are added/removed to match — the Fig 6c
    ///   regime. A bundle with no positive-capacity segment is removed.
    ///
    /// [`dynamic_aggregate_arcs`]: CostModel::dynamic_aggregate_arcs
    fn aggregate_arc(
        &self,
        state: &ClusterState,
        aggregate: AggregateId,
        machine: &Machine,
    ) -> Option<ArcBundle>;

    /// The arc bundles an aggregate offers toward *other aggregates* — the
    /// EC→EC edges that build multi-level equivalence-class hierarchies
    /// (e.g. cluster → rack → machine, or rack → machine → socket in real
    /// Firmament). Returns `(child, bundle)` pairs; flow entering
    /// `aggregate` can continue through each child toward the machines
    /// below it. The default (no EC→EC arcs) keeps the flat one-level
    /// topology.
    ///
    /// # Semantics
    ///
    /// - **Direction**: arcs always point *down* the hierarchy, from
    ///   `aggregate` toward aggregates closer to the machines. Flow must
    ///   eventually reach machine nodes via [`aggregate_arc`], so at least
    ///   one aggregate on every path has machine arcs.
    /// - **Cycles are an error**: the declared EC→EC relation must be a
    ///   DAG. The manager materializes children recursively and fails with
    ///   `PolicyError::AggregateCycle` if an aggregate (transitively)
    ///   declares itself as a descendant.
    /// - **Capacity propagation**: each bundle's total capacity bounds the
    ///   flow the parent may send through the child, exactly like an
    ///   aggregate → machine bundle. Declare the child subtree's real
    ///   capacity (e.g. the total slots of a rack) so upper levels cannot
    ///   oversubscribe lower ones. A convex ladder here prices congestion
    ///   *per subtree* — e.g. "the second half of this rack costs extra" —
    ///   which spreads load across subtrees within one round.
    /// - **Refresh**: unlike the static-structure contract of
    ///   [`aggregate_arc`], EC→EC arc *sets* are re-synchronized whenever
    ///   the source aggregate is dirty — a machine below it was touched by
    ///   an event, the machine set changed, or a descendant aggregate was
    ///   dirtied (dirtiness propagates up the hierarchy). Newly declared
    ///   pairs are materialized on the spot; pairs the model stops
    ///   returning are parked at capacity 0 (static models) or removed
    ///   (models with [`dynamic_aggregate_arcs`]). This lets hierarchies
    ///   grow when e.g. a machine in a brand-new rack arrives.
    ///
    /// [`aggregate_arc`]: CostModel::aggregate_arc
    /// [`dynamic_aggregate_arcs`]: CostModel::dynamic_aggregate_arcs
    fn aggregate_to_aggregate(
        &self,
        state: &ClusterState,
        aggregate: AggregateId,
    ) -> Vec<(AggregateId, ArcBundle)> {
        let _ = (state, aggregate);
        Vec::new()
    }

    /// The [`NodeKind`] to use for an aggregate's graph node. Purely
    /// descriptive (DIMACS export, debugging); defaults to an opaque tag.
    fn aggregate_kind(&self, aggregate: AggregateId) -> NodeKind {
        NodeKind::Other { tag: aggregate }
    }

    /// Cost of the running arc (task → the machine it occupies). Defaults
    /// to 0: keeping a placed task where it is costs nothing.
    fn running_arc_cost(&self, state: &ClusterState, task: &Task, machine: MachineId) -> i64 {
        let _ = (state, task, machine);
        0
    }

    /// Whether aggregate → machine arcs depend on *observed* signals (e.g.
    /// monitored bandwidth) rather than only on scheduler-visible events.
    /// When `true` the manager re-evaluates [`aggregate_arc`] for every
    /// machine each round — the "dynamically adapted" arcs of Fig 6c.
    /// Event-driven models keep the default `false` and benefit from
    /// dirty-node-only refreshes.
    ///
    /// [`aggregate_arc`]: CostModel::aggregate_arc
    fn dynamic_aggregate_arcs(&self) -> bool {
        false
    }

    /// Whether waiting tasks' declared preference bundles must be
    /// **re-priced** between structural events — the task-side mirror of
    /// [`dynamic_aggregate_arcs`](CostModel::dynamic_aggregate_arcs).
    ///
    /// When `true`, the §6.3 refresh re-queries [`task_arcs`] for every
    /// waiting task in its dirty-task set (every waiting task when the
    /// virtual clock advanced: only these models make a clock tick walk
    /// the task table, since waiting time itself is priced on one arc per
    /// job) and re-syncs the declared bundles onto the cached arc slots:
    /// per-segment costs and capacities are patched in place (cheap
    /// `CostChanged`/`CapacityChanged` deltas for the warm solver),
    /// grown bundles append segments, shrunk bundles park the tail — and
    /// only a change to the *target set itself* falls back to a full arc
    /// rebuild. This is the Execution-Templates pattern: cache the
    /// expensive structural decision, patch the parameters.
    ///
    /// The default `false` keeps preference costs frozen at declaration
    /// (cheapest for models whose task costs never drift, e.g. pure
    /// locality with immutable block placement).
    ///
    /// [`task_arcs`]: CostModel::task_arcs
    fn dynamic_task_arcs(&self) -> bool {
        false
    }

    /// Whether a waiting task's declared arc set can only depend on the
    /// machine set through **direct machine targets** — i.e. adding or
    /// removing machine `m` can change `task_arcs` output only for tasks
    /// that *already declare* `ArcTarget::Machine(m)`.
    ///
    /// When `true`, machine add/remove events re-derive arc sets only for
    /// waiting tasks whose declared targets reference the touched machine
    /// id, instead of every waiting task (the dirty-set narrowing of
    /// §6.3). Models that route all tasks through fixed aggregates —
    /// load-spreading, Octopus, hierarchies keyed by task attributes —
    /// satisfy this trivially and save an O(waiting tasks) re-query per
    /// machine event.
    ///
    /// **Contract for machine-preference models opting in**: declare
    /// machine targets *unconditionally*, independent of whether the
    /// machine is currently in the cluster. The manager parks references
    /// to absent machines (empty slot vectors) and uses them to find the
    /// referencing tasks when the machine arrives; a model that instead
    /// filters its declarations by `state.machines.contains_key(..)`
    /// leaves the manager no reference to follow, and the new machine's
    /// preference arcs are silently never materialized. (Tasks displaced
    /// by a machine *removal* are always re-derived regardless of
    /// narrowing — they have no cached declaration.)
    ///
    /// Keep the default `false` when aggregate *targets or costs* react
    /// to the machine set (Quincy: a rack-preference arc disappears when
    /// the rack's block holders die with a machine). An unsound `true`
    /// shows up as an incremental-vs-rebuild divergence in the
    /// differential fuzz suite.
    fn task_arcs_machine_local(&self) -> bool {
        false
    }

    /// Minimum number of `job`'s tasks that must schedule together (gang
    /// constraint). The manager enforces it by capping the `U_j → S` arc
    /// at `incomplete_tasks − minimum`, which forces at least `minimum`
    /// units of the job's flow through machines. 0 (the default) disables
    /// the constraint. Declaring a minimum above the cluster's free
    /// capacity makes the network infeasible — gang demands must be
    /// admission-controlled by the caller.
    fn job_gang_minimum(&self, state: &ClusterState, job: &Job) -> i64 {
        let _ = (state, job);
        0
    }
}

impl<T: CostModel + ?Sized> CostModel for Box<T> {
    fn name(&self) -> &'static str {
        (**self).name()
    }

    fn task_unscheduled_cost(&self, state: &ClusterState, task: &Task) -> i64 {
        (**self).task_unscheduled_cost(state, task)
    }

    fn wait_cost_per_sec(&self) -> i64 {
        (**self).wait_cost_per_sec()
    }

    fn task_arcs(&self, state: &ClusterState, task: &Task) -> Vec<(ArcTarget, ArcBundle)> {
        (**self).task_arcs(state, task)
    }

    fn aggregate_arc(
        &self,
        state: &ClusterState,
        aggregate: AggregateId,
        machine: &Machine,
    ) -> Option<ArcBundle> {
        (**self).aggregate_arc(state, aggregate, machine)
    }

    fn aggregate_to_aggregate(
        &self,
        state: &ClusterState,
        aggregate: AggregateId,
    ) -> Vec<(AggregateId, ArcBundle)> {
        (**self).aggregate_to_aggregate(state, aggregate)
    }

    fn aggregate_kind(&self, aggregate: AggregateId) -> NodeKind {
        (**self).aggregate_kind(aggregate)
    }

    fn running_arc_cost(&self, state: &ClusterState, task: &Task, machine: MachineId) -> i64 {
        (**self).running_arc_cost(state, task, machine)
    }

    fn dynamic_aggregate_arcs(&self) -> bool {
        (**self).dynamic_aggregate_arcs()
    }

    fn dynamic_task_arcs(&self) -> bool {
        (**self).dynamic_task_arcs()
    }

    fn task_arcs_machine_local(&self) -> bool {
        (**self).task_arcs_machine_local()
    }

    fn job_gang_minimum(&self, state: &ClusterState, job: &Job) -> i64 {
        (**self).job_gang_minimum(state, job)
    }
}

/// Per-rack capacity summary in a single pass over the machines: sorted
/// `(rack, total slots, running tasks)` triples for every rack that
/// currently has at least one machine.
///
/// The shared building block for EC→EC hierarchy models that fan a
/// cluster root out to rack aggregates (Quincy's `X → R_r`, the
/// hierarchical topology model): declare one
/// [`CostModel::aggregate_to_aggregate`] bundle per entry, with the slot
/// total as the capacity so upper levels cannot oversubscribe the rack.
pub fn rack_capacities(state: &ClusterState) -> Vec<(RackId, i64, i64)> {
    let mut racks: BTreeMap<RackId, (i64, i64)> = BTreeMap::new();
    for m in state.machines.values() {
        let entry = racks.entry(m.rack).or_insert((0, 0));
        entry.0 += m.slots as i64;
        entry.1 += m.running.len() as i64;
    }
    racks
        .into_iter()
        .map(|(rack, (slots, running))| (rack, slots, running))
        .collect()
}

/// A virtual time (microseconds) in whole seconds, rounded down: the
/// clock that [`CostModel::wait_cost_per_sec`] counts.
pub fn whole_seconds(t: Time) -> i64 {
    (t / 1_000_000) as i64
}

/// `per_sec` × (`to` − `from`) for two whole-second clock readings, or
/// `None` if it does not fit in an `i64`: the wait-time term of an
/// unscheduled cost. Leaving a task unscheduled at `now` costs its base
/// plus `wait_cost(per_sec, whole_seconds(submit), whole_seconds(now))`.
///
/// # Examples
///
/// ```
/// use firmament_policies::{wait_cost, whole_seconds};
///
/// // Submitted at 2.9 s, now 5.1 s: ⌊5.1⌋ − ⌊2.9⌋ = 3 whole seconds.
/// let waited = wait_cost(100, whole_seconds(2_900_000), whole_seconds(5_100_000));
/// assert_eq!(waited, Some(300));
/// assert_eq!(wait_cost(i64::MAX, 0, 2), None);
/// ```
pub fn wait_cost(per_sec: i64, from: i64, to: i64) -> Option<i64> {
    per_sec.checked_mul(to.checked_sub(from)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wait_cost_grows_linearly() {
        let submit = whole_seconds(0);
        assert_eq!(wait_cost(7, submit, submit), Some(0));
        assert_eq!(
            wait_cost(7, submit, whole_seconds(30 * 1_000_000)),
            Some(30 * 7)
        );
        // Whole seconds on both ends: ⌊now⌋ − ⌊submit⌋, not ⌊now − submit⌋.
        let late = whole_seconds(1_900_000);
        assert_eq!(wait_cost(7, late, whole_seconds(3_100_000)), Some(2 * 7));
        // A reading before `from` gives a negative term, not a clamp.
        assert_eq!(wait_cost(7, 5, 3), Some(-14));
        // Overflow in the product or the difference is reported, not wrapped.
        assert_eq!(wait_cost(i64::MAX / 2, 0, 3), None);
        assert_eq!(wait_cost(1, i64::MIN, 1), None);
    }

    #[test]
    fn bundle_constructors() {
        let s = ArcBundle::single(4, 7);
        assert_eq!(
            s.segments(),
            &[ArcSpec {
                capacity: 4,
                cost: 7
            }]
        );
        assert_eq!(s.total_capacity(), 4);
        assert!(s.is_convex());

        let c = ArcBundle::cost(9);
        assert_eq!(
            c.segments(),
            &[ArcSpec {
                capacity: 1,
                cost: 9
            }]
        );

        let l = ArcBundle::ladder([0, 3, 3, 8]);
        assert_eq!(l.segments().len(), 4);
        assert_eq!(l.total_capacity(), 4);
        assert!(l.is_convex());
        assert!(l.convexity_violation().is_none());
    }

    #[test]
    fn convexity_detects_decreasing_steps() {
        let bad = ArcBundle::ladder([5, 4]);
        assert!(!bad.is_convex());
        assert_eq!(bad.convexity_violation(), Some((5, 4)));
        // Equal costs are convex (flat segments are fine).
        assert!(ArcBundle::ladder([2, 2, 2]).is_convex());
        // Empty and single-segment bundles are trivially convex.
        assert!(ArcBundle::from_segments(Vec::new()).is_convex());
        assert!(ArcBundle::single(10, -5).is_convex());
    }

    #[test]
    fn bucketed_capacities_grow_geometrically() {
        for slots in 1..=64i64 {
            let b = ArcBundle::bucketed(slots, |j| j);
            assert_eq!(b.total_capacity(), slots, "capacity preserved");
            assert!(b.is_convex(), "slots {slots}");
            assert!(
                b.segments().len() <= BundleShape::Bucketed.max_segments(slots),
                "slots {slots}: {} segments exceed the ⌈log₂⌉+1 bound {}",
                b.segments().len(),
                BundleShape::Bucketed.max_segments(slots)
            );
            // Capacities are 1, 1, 2, 4, … with only the last truncated.
            let caps: Vec<i64> = b.segments().iter().map(|s| s.capacity).collect();
            for (i, w) in caps.iter().enumerate() {
                let full = if i < 2 { 1i64 } else { 1 << (i - 1) };
                if i + 1 < caps.len() {
                    assert_eq!(*w, full, "slots {slots} bucket {i}");
                } else {
                    assert!(*w <= full, "slots {slots} last bucket over-wide");
                }
            }
        }
        // The acceptance example: 12 slots → 5 segments instead of 12.
        assert_eq!(ArcBundle::bucketed(12, |j| 10 * j).segments().len(), 5);
    }

    #[test]
    fn bucketed_prices_boundary_loads_within_rounding() {
        // At every bucket boundary, the bucketed prefix total equals the
        // per-slot prefix total up to strictly-less-than-1-per-task mean
        // rounding (exact for these linear marginals, whose bucket sums
        // divide evenly or round by < width/2).
        let f = |j: i64| 7 * j + 3;
        let slots = 32i64;
        let b = ArcBundle::bucketed(slots, f);
        let mut boundary = 0i64;
        let mut bucketed_total = 0i64;
        for seg in b.segments() {
            boundary += seg.capacity;
            bucketed_total += seg.capacity * seg.cost;
            let per_slot_total: i64 = (0..boundary).map(f).sum();
            assert!(
                (bucketed_total - per_slot_total).abs() < boundary,
                "boundary {boundary}: bucketed {bucketed_total} vs per-slot {per_slot_total}"
            );
        }
    }

    #[test]
    fn bucketed_handles_degenerate_slot_counts() {
        assert!(ArcBundle::bucketed(0, |_| 1).is_empty());
        let one = ArcBundle::bucketed(1, |j| 10 * j);
        assert_eq!(
            one.segments(),
            &[ArcSpec {
                capacity: 1,
                cost: 0
            }]
        );
        // Flat marginals stay flat (convex, equal-cost buckets).
        let flat = ArcBundle::bucketed(8, |_| 5);
        assert!(flat.is_convex());
        assert!(flat.segments().iter().all(|s| s.cost == 5));
    }

    #[test]
    fn shape_ladder_dispatches_and_bounds() {
        let per_slot = BundleShape::PerSlot.ladder(6, |j| j);
        assert_eq!(per_slot.segments().len(), 6);
        assert_eq!(per_slot, ArcBundle::ladder(0..6));
        let bucketed = BundleShape::Bucketed.ladder(6, |j| j);
        assert_eq!(bucketed, ArcBundle::bucketed(6, |j| j));
        assert!(bucketed.segments().len() < per_slot.segments().len());
        assert_eq!(BundleShape::PerSlot.max_segments(12), 12);
        assert_eq!(BundleShape::Bucketed.max_segments(12), 5);
        assert_eq!(BundleShape::Bucketed.max_segments(1), 1);
        assert_eq!(BundleShape::Bucketed.max_segments(0), 0);
        assert_eq!(BundleShape::default(), BundleShape::PerSlot);
    }

    #[test]
    fn negative_capacity_segments_count_as_zero() {
        let b = ArcBundle::from_segments(vec![
            ArcSpec {
                capacity: -3,
                cost: 0,
            },
            ArcSpec {
                capacity: 2,
                cost: 1,
            },
        ]);
        assert_eq!(b.total_capacity(), 2);
    }
}
