//! Flow-network substrate for flow-based cluster scheduling.
//!
//! This crate implements the directed flow network of Firmament (Gog et al.,
//! OSDI 2016, §3.2): a graph whose arcs carry flow from task sources to a
//! single sink, with costs and capacities that encode a scheduling policy.
//! It provides:
//!
//! - [`FlowGraph`]: a mutable residual-network representation designed for
//!   min-cost max-flow solvers (paired forward/reverse arcs, flat arenas,
//!   slot reuse for removed nodes/arcs);
//! - [`ResidualCsr`]: the compact copy of a graph's residual network that
//!   a solver fills, works on and writes back;
//! - [`changes::GraphChange`]: the raw mutation log recorded by a tracked
//!   graph (§5.2), and the Table 3 analysis of which arc changes require
//!   reoptimization;
//! - [`delta::DeltaBatch`]: the *compacted*, typed change feed handed to
//!   incremental solvers once per scheduling round — add-then-remove pairs
//!   cancel, repeated re-pricings merge, and the batch replays exactly
//!   onto a snapshot (see the [`delta`] module docs for the contract);
//! - [`SchedulingGraphBuilder`]: ergonomic construction of scheduling-shaped
//!   networks (tasks, machines, aggregators, unscheduled aggregators, sink);
//! - DIMACS min-cost-flow import/export ([`dimacs`]);
//! - feasibility validation ([`validate`]) and deterministic instance
//!   generation for tests and benchmarks ([`testgen`]).
//!
//! # Examples
//!
//! ```
//! use firmament_flow::{FlowGraph, NodeKind};
//!
//! // A task that can run on one machine or stay unscheduled.
//! let mut g = FlowGraph::new();
//! let t = g.add_node(NodeKind::Task { task: 0 }, 1);
//! let m = g.add_node(NodeKind::Machine { machine: 0 }, 0);
//! let u = g.add_node(NodeKind::UnscheduledAggregator { job: 0 }, 0);
//! let s = g.add_node(NodeKind::Sink, -1);
//! g.add_arc(t, m, 1, 2).unwrap();
//! g.add_arc(t, u, 1, 7).unwrap();
//! g.add_arc(m, s, 1, 0).unwrap();
//! g.add_arc(u, s, 1, 0).unwrap();
//! assert_eq!(g.node_count(), 4);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod builder;
pub mod changes;
pub mod csr;
pub mod delta;
pub mod dimacs;
pub mod graph;
pub mod ids;
pub mod node;
pub mod testgen;
pub mod validate;

pub use builder::SchedulingGraphBuilder;
pub use changes::{ArcChangeKind, GraphChange, ReoptEffect};
pub use csr::{CsrArc, ResidualCsr};
pub use delta::{DeltaBatch, DeltaCompactor, GraphDelta};
pub use graph::{FlowGraph, GraphError};
pub use ids::{ArcId, NodeId};
pub use node::NodeKind;
