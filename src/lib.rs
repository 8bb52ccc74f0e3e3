//! Firmament: fast, centralized cluster scheduling at scale.
//!
//! A Rust reproduction of *Gog, Schwarzkopf, Gleave, Watson, Hand —
//! "Firmament: Fast, Centralized Cluster Scheduling at Scale" (OSDI 2016)*.
//! This façade crate re-exports the workspace's public API:
//!
//! - [`flow`]: the flow-network substrate;
//! - [`mcmf`]: the four MCMF algorithms, incremental variants, and the
//!   dual solver (relaxation hedged by cost scaling, or the paper's race);
//! - [`cluster`]: machines, jobs, tasks, and the block store;
//! - [`policies`]: the declarative [`CostModel`](policies::CostModel) API
//!   and the load-spreading, Quincy, network-aware, and Octopus models;
//! - [`core`]: the scheduler service, the
//!   [`FlowGraphManager`](core::FlowGraphManager), and placement
//!   extraction;
//! - [`sim`]: the discrete-event simulator, trace generator, and testbed;
//! - [`baselines`]: Sparrow/SwarmKit/Kubernetes/Mesos placement logic.
//!
//! # Quickstart
//!
//! ```
//! use firmament::cluster::{ClusterEvent, ClusterState, Job, JobClass, Task, TopologySpec};
//! use firmament::core::Firmament;
//! use firmament::policies::LoadSpreadingCostModel;
//!
//! let mut state = ClusterState::with_topology(&TopologySpec::default());
//! let mut scheduler = Firmament::new(LoadSpreadingCostModel::new());
//! let machines: Vec<_> = state.machines.values().cloned().collect();
//! for m in machines {
//!     scheduler
//!         .handle_event(&state, &ClusterEvent::MachineAdded { machine: m })
//!         .unwrap();
//! }
//! let ev = ClusterEvent::JobSubmitted {
//!     job: Job::new(0, JobClass::Batch, 0, 0),
//!     tasks: vec![Task::new(0, 0, 0, 5_000_000)],
//! };
//! state.apply(&ev);
//! scheduler.handle_event(&state, &ev).unwrap();
//! let outcome = scheduler.schedule(&state).unwrap();
//! assert_eq!(outcome.placed_tasks, 1);
//! ```
//!
//! # One scheduling round
//!
//! A [`policies::CostModel`] declares arc costs and structure as pure
//! functions of [`cluster::ClusterState`]; everything stateful lives in
//! the [`core::FlowGraphManager`]. [`core::Firmament::schedule`] runs one
//! round through these layers:
//!
//! 1. **Events.** [`core::Firmament::handle_event`] applies each
//!    [`cluster::ClusterEvent`] to the flow network and marks the machines,
//!    tasks and aggregates it touched as dirty. A rejected event returns a
//!    typed [`policies::PolicyError`].
//! 2. **Refresh.** [`core::FlowGraphManager::refresh`] runs the two-pass
//!    cost update of §6.3: it collects the dirty nodes, then re-queries
//!    the model for exactly those. Every declared arc is a convex
//!    [`policies::ArcBundle`] whose segments keep stable graph-arc slots,
//!    so a re-priced ladder is a cost or capacity change, not structural
//!    churn.
//! 3. **Deltas.** [`core::FlowGraphManager::take_deltas`] takes the
//!    [`flow::delta::DeltaBatch`] the graph folded its changes into as they
//!    happened.
//! 4. **Solve.** [`mcmf::DualSolver::solve_owned_with_deltas`], the
//!    solver's one entry, takes the graph by move together with the round's
//!    batch and, by default, hedges ([`mcmf::SolverKind::Hedged`]):
//!    relaxation solves in place within a budget of counted arc
//!    examinations, and cold cost scaling solves the round only once the
//!    budget runs out (or on the first round, before any cost-scaling
//!    solve has set the budget's reference). Counted work, not time, picks
//!    the algorithm, so placements are the same on every run. A round whose
//!    batch only raises costs on flowless arcs runs no solver when the last
//!    flow was optimal. The paper's race of relaxation against incremental
//!    cost scaling stays available as [`mcmf::SolverKind::Dual`]; there the
//!    batch is what lets incremental cost scaling warm-start, since a solve
//!    without a feed is a cold solve.
//! 5. **Adopt.** [`core::FlowGraphManager::adopt_graph`] installs the
//!    solved flow, from which the next round starts.
//! 6. **Extract.** Listing 1 walks the flow back from the machines and
//!    leaves each task node's machine in a dense vector indexed by node.
//!    [`core::extract_placements`] wraps the same walk into a map keyed
//!    by task id for callers outside the round.
//! 7. **Diff.** The round walks the manager's task table
//!    ([`core::TaskTable`]) in task-id order and turns the extracted
//!    machines into [`core::SchedulingAction`]s (preemptions first). Each
//!    entry records the machine the fed events left its task running on;
//!    a task whose extracted machine equals it needs no action and is not
//!    looked up. Only the others are matched against the cluster state,
//!    which must reflect exactly the events fed.
//!
//! Per-round telemetry is on [`core::RoundOutcome::solver`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use firmament_baselines as baselines;
pub use firmament_cluster as cluster;
pub use firmament_core as core;
pub use firmament_flow as flow;
pub use firmament_mcmf as mcmf;
pub use firmament_policies as policies;
pub use firmament_sim as sim;
