//! The Firmament scheduler core (Fig 4).
//!
//! Wires the pieces together: a declarative
//! [`CostModel`](firmament_policies::CostModel) declares per-arc costs and
//! arc structure; the [`FlowGraphManager`] owns the flow network, turns
//! cluster events into graph deltas, and runs the two-pass cost update
//! (§6.3); the [`DualSolver`](firmament_mcmf::DualSolver) — relaxation,
//! hedged by cost scaling — finds the min-cost flow; and Listing 1
//! ([`extract`]) turns the optimal flow back into task placements, which
//! the scheduler diffs against the manager's task table.
//! [`Firmament`] is the scheduler service a cluster manager embeds.
//!
//! # Architecture
//!
//! ```text
//!  cluster events ──► FlowGraphManager.apply_event ──► flow network
//!                        ▲ queries                        │
//!                     CostModel (pure)                    │
//!                        ▼                                │
//!  schedule():  manager.refresh (two-pass, dirty nodes only)
//!                        │ take_deltas() + take_graph()
//!                        ▼
//!        DeltaBatch ─► DualSolver (relaxation, cost scaling past budget)
//!                                                         │ optimal flow
//!                 placements ◄── extract (Listing 1) ◄────┘
//! ```
//!
//! The manager's graph folds each change into its current
//! [`firmament_flow::delta::DeltaBatch`] as it happens; `schedule` takes
//! the batch each round; the
//! solver skips a round whose batch provably keeps the last optimal flow
//! optimal, and the opt-in race's incremental solver warm-starts from the
//! deltas natively instead of diffing the graph (per-round telemetry on
//! [`RoundOutcome::solver`](scheduler::RoundOutcome::solver)).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod extract;
pub mod graph_manager;
pub mod scheduler;

pub use extract::{extract_placements, Placement};
pub use graph_manager::{FlowGraphManager, RefreshStats, TaskEntry, TaskTable};
pub use scheduler::{Firmament, RoundOutcome, SchedulerError, SchedulingAction, SolverStats};
