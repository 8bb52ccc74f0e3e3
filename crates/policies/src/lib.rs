//! Scheduling policies as declarative cost models (§3.3).
//!
//! Firmament generalizes flow-based scheduling over Quincy's single policy
//! via the [`CostModel`] API: a policy *declares* per-arc costs and arc
//! structure as pure functions of cluster state, while the
//! `FlowGraphManager` in `firmament-core` owns the flow network and
//! translates cluster events into graph deltas. This crate ships the
//! paper's three illustrative policies plus an Octopus-style fourth:
//!
//! - [`LoadSpreadingCostModel`] (Fig 6a): balance task counts through a
//!   single cluster aggregator — deliberately contention-heavy, used to
//!   expose MCMF edge cases;
//! - [`QuincyCostModel`] (Fig 6b): Quincy's locality-oriented batch policy
//!   with rack/cluster aggregators and data-locality preference arcs;
//! - [`NetworkAwareCostModel`] (Fig 6c): request aggregators and dynamic
//!   arcs to machines with spare network bandwidth;
//! - [`OctopusCostModel`]: idle-preferring placement via quadratic load
//!   costs (after real Firmament's Octopus model);
//! - [`HierarchicalTopologyCostModel`]: a cluster → rack → machine
//!   hierarchy built on EC→EC arcs
//!   ([`CostModel::aggregate_to_aggregate`]), the reference for
//!   multi-level equivalence-class topologies.
//!
//! # Examples
//!
//! Cost models are pure — they can be queried without any graph:
//!
//! ```
//! use firmament_cluster::{ClusterState, Task, TopologySpec};
//! use firmament_policies::{ArcTarget, CostModel, LoadSpreadingCostModel};
//!
//! let state = ClusterState::with_topology(&TopologySpec::default());
//! let model = LoadSpreadingCostModel::new();
//! let task = Task::new(0, 0, 0, 1_000_000);
//! let arcs = model.task_arcs(&state, &task);
//! assert!(matches!(arcs[0].0, ArcTarget::Aggregate(_)));
//! for machine in state.machines.values() {
//!     let bundle = model.aggregate_arc(&state, 0, machine).unwrap();
//!     assert!(bundle.is_convex(), "segment costs never decrease");
//!     assert_eq!(
//!         bundle.segments()[0].cost,
//!         0,
//!         "an idle machine's first slot is free"
//!     );
//! }
//! ```
//!
//! To actually schedule, hand a model to `firmament_core::Firmament`,
//! which pairs it with a `FlowGraphManager` and the MCMF solvers.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cost_model;
pub mod hierarchy;
pub mod load_spreading;
pub mod network_aware;
pub mod octopus;
pub mod quincy;

pub use cost_model::{
    rack_capacities, AggregateId, ArcBundle, ArcSpec, ArcTarget, BundleShape, CostModel,
};
pub use hierarchy::{HierarchicalTopologyCostModel, TopologyConfig};
pub use load_spreading::LoadSpreadingCostModel;
pub use network_aware::NetworkAwareCostModel;
pub use octopus::{OctopusConfig, OctopusCostModel};
pub use quincy::{QuincyConfig, QuincyCostModel};

use firmament_cluster::{MachineId, TaskId};

/// Errors raised while translating cluster state into the flow network
/// (by the `FlowGraphManager`; cost models themselves are pure and
/// infallible).
#[derive(Debug)]
pub enum PolicyError {
    /// A task referenced by an event has no node in the graph.
    UnknownTask(TaskId),
    /// A machine referenced by an event has no node in the graph.
    UnknownMachine(MachineId),
    /// A task was added twice.
    DuplicateTask(TaskId),
    /// A machine was added twice.
    DuplicateMachine(MachineId),
    /// A cost model declared a cyclic EC→EC hierarchy: the named aggregate
    /// is (transitively) its own descendant via
    /// [`CostModel::aggregate_to_aggregate`]. The cycle-closing arc is
    /// never installed — the flow network stays a DAG — but the error is
    /// a *model bug* and persistent: every retry re-queries the same
    /// declaration and fails again until the model is fixed.
    AggregateCycle(AggregateId),
    /// A cost model declared a non-convex [`ArcBundle`]: segment costs
    /// must be non-decreasing, but an adjacent pair stepped from `prev`
    /// down to `next`. A decreasing ladder would let the min-cost solver
    /// fill expensive segments before cheap ones, silently corrupting the
    /// declared cost function — so the manager rejects it at declaration
    /// time. Like [`AggregateCycle`](Self::AggregateCycle), this is a
    /// persistent model bug, not a transient condition.
    NonConvexBundle {
        /// Which [`CostModel`] hook declared the bundle
        /// (`"task_arcs"`, `"aggregate_arc"`, or `"aggregate_to_aggregate"`).
        hook: &'static str,
        /// Cost of the earlier segment of the offending pair.
        prev: i64,
        /// Cost of the later (cheaper — that's the bug) segment.
        next: i64,
    },
    /// An underlying graph mutation failed.
    Graph(firmament_flow::GraphError),
}

impl From<firmament_flow::GraphError> for PolicyError {
    fn from(e: firmament_flow::GraphError) -> Self {
        PolicyError::Graph(e)
    }
}

impl std::fmt::Display for PolicyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PolicyError::UnknownTask(t) => write!(f, "unknown task {t}"),
            PolicyError::UnknownMachine(m) => write!(f, "unknown machine {m}"),
            PolicyError::DuplicateTask(t) => write!(f, "duplicate task {t}"),
            PolicyError::DuplicateMachine(m) => write!(f, "duplicate machine {m}"),
            PolicyError::AggregateCycle(a) => {
                write!(f, "aggregate {a} is part of an EC\u{2192}EC cycle")
            }
            PolicyError::NonConvexBundle { hook, prev, next } => {
                write!(
                    f,
                    "non-convex arc bundle from {hook}: segment cost falls {prev} \u{2192} {next}"
                )
            }
            PolicyError::Graph(e) => write!(f, "graph error: {e}"),
        }
    }
}

impl std::error::Error for PolicyError {}
