//! Min-cost max-flow algorithm suite for flow-based cluster scheduling.
//!
//! This crate implements the four MCMF algorithms Firmament studies (§4),
//! incremental cost scaling (§5.2), the problem-specific heuristics
//! (§5.3), and the speculative dual-algorithm executor (§6.1):
//!
//! | Algorithm | Module | Worst case (Table 1) |
//! |-----------|--------|----------------------|
//! | Cycle canceling | [`cycle_canceling`] | `O(N M² C U)` |
//! | Successive shortest path | [`ssp`] | `O(N² U log N)` |
//! | Relaxation | [`relaxation`] | `O(M³ C U²)` |
//! | Cost scaling | [`cost_scaling`] | `O(N² M log(N C))` |
//!
//! Despite having the worst theoretical complexity, relaxation performs best
//! in practice on scheduling graphs (§4.2) — except under heavy contention
//! or oversubscription. [`dual::DualSolver`] therefore runs relaxation
//! within a budget of counted work and falls back to cost scaling past it
//! (the default, [`SolverKind::Hedged`]), or races it against
//! [`incremental::IncrementalCostScaling`] and takes whichever finishes
//! first, as the paper does ([`SolverKind::Dual`]).
//!
//! All solvers operate in place on a
//! [`FlowGraph`](firmament_flow::FlowGraph) and agree on conventions:
//! reduced cost `c^π(a) = c(a) + π(src) − π(dst)`, prices that only
//! decrease, and optimality certified by the absence of negative-reduced-
//! cost residual arcs.
//!
//! # Examples
//!
//! ```
//! use firmament_flow::testgen::{scheduling_instance, InstanceSpec};
//! use firmament_mcmf::{dual::DualSolver, SolveOptions};
//!
//! let inst = scheduling_instance(7, &InstanceSpec::default());
//! let mut solver = DualSolver::default();
//! // No change feed: the first round of a fresh solver solves cold.
//! let out = solver
//!     .solve_owned_with_deltas(inst.graph, None, &SolveOptions::unlimited())
//!     .unwrap();
//! assert!(firmament_mcmf::verify::is_optimal(&out.graph));
//! println!("{} won in {:?}", out.winner, out.solution.runtime);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod approx;
pub mod canonical;
pub mod common;
pub mod cost_scaling;
pub mod cycle_canceling;
pub mod dual;
pub mod incremental;
pub mod invariants;
pub mod maxflow;
pub mod price_refine;
pub mod relaxation;
pub mod ssp;
pub mod verify;

pub use canonical::canonicalize_flow;
pub use common::{AlgorithmKind, CancelToken, Solution, SolveError, SolveOptions, SolveStats};
pub use dual::{DualConfig, DualOutcome, DualSolver, SolverKind};
