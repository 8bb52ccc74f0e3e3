//! Shared solver types: options, statistics, solutions, and errors.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Which MCMF algorithm produced a solution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AlgorithmKind {
    /// Cycle canceling (Klein \[25\]).
    CycleCanceling,
    /// Successive shortest path (Ahuja–Magnanti–Orlin \[2\]).
    SuccessiveShortestPath,
    /// Relaxation (Bertsekas–Tseng \[4; 5\]).
    Relaxation,
    /// Cost scaling (Goldberg \[17–19\]).
    CostScaling,
    /// Incremental cost scaling (§5.2).
    IncrementalCostScaling,
}

impl std::fmt::Display for AlgorithmKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            AlgorithmKind::CycleCanceling => "cycle-canceling",
            AlgorithmKind::SuccessiveShortestPath => "successive-shortest-path",
            AlgorithmKind::Relaxation => "relaxation",
            AlgorithmKind::CostScaling => "cost-scaling",
            AlgorithmKind::IncrementalCostScaling => "incremental-cost-scaling",
        };
        f.write_str(s)
    }
}

/// Cooperative cancellation token shared between the speculative dual
/// executor and a running solver (§6.1).
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
    /// The token this one was derived from: cancelling it cancels this one.
    parent: Option<Arc<CancelToken>>,
}

impl CancelToken {
    /// Creates a fresh, unset token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a token that is cancelled when it is, or when `self` is;
    /// cancelling the child leaves `self` unset.
    pub fn child(&self) -> Self {
        CancelToken {
            flag: Arc::default(),
            parent: Some(Arc::new(self.clone())),
        }
    }

    /// Requests cancellation.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Relaxed);
    }

    /// Returns `true` if cancellation was requested, of this token or of
    /// any token it was derived from.
    #[inline]
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Relaxed) || self.parent.as_ref().is_some_and(|p| p.is_cancelled())
    }
}

/// Options controlling a single solver run.
#[derive(Debug, Clone, Default)]
pub struct SolveOptions {
    /// Cooperative cancellation (checked periodically in inner loops).
    pub cancel: Option<CancelToken>,
    /// Wall-clock budget after which the solver stops early and returns the
    /// best pseudo-solution reached so far (`terminated_early = true`); used
    /// by the approximate-MCMF experiment (§5.1, Fig 10).
    pub time_limit: Option<Duration>,
    /// Iteration budget with the same early-termination semantics as
    /// `time_limit` (an "iteration" is algorithm-specific: an augmentation,
    /// a canceled cycle, or a push/relabel step).
    pub iteration_limit: Option<u64>,
}

impl SolveOptions {
    /// Options that simply run the algorithm to optimality.
    pub fn unlimited() -> Self {
        Self::default()
    }

    /// Options with a cancellation token attached.
    pub fn with_cancel(token: CancelToken) -> Self {
        SolveOptions {
            cancel: Some(token),
            ..Self::default()
        }
    }
}

/// Outcome statistics for a solver run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SolveStats {
    /// Algorithm-specific iteration count (augmentations, canceled cycles,
    /// or pushes).
    pub iterations: u64,
    /// Relabel / price-rise operations.
    pub price_updates: u64,
    /// Scaling phases (cost scaling only).
    pub phases: u64,
    /// Flow augmentations performed.
    pub augmentations: u64,
    /// Node activations (entries into a discharge work queue). For
    /// delta-fed incremental solves this is the honest "how much of the
    /// graph did the solver visit" measure: it scales with the change
    /// size, not the graph size.
    pub nodes_touched: u64,
    /// Warm-start safety-valve trips: the warm attempt exceeded its work
    /// bound (or hit a spurious infeasibility) and the solver fell back to
    /// a from-scratch solve.
    pub bailouts: u64,
    /// Arc examinations: adjacency entries scanned. Relaxation counts its
    /// single-node slope test, cut growth and price updates; cost scaling
    /// counts discharge's current-arc cursor steps and relabel scans. The
    /// two algorithms count the same unit, so the counts compare, which
    /// iteration counts do not: a relaxation iteration can scan a whole
    /// cut, a cost-scaling iteration one arc.
    pub arc_scans: u64,
}

/// A completed (or early-terminated) solver run.
#[derive(Debug, Clone)]
pub struct Solution {
    /// Which algorithm produced this solution.
    pub algorithm: AlgorithmKind,
    /// Objective value `Σ c_ij · f_ij` of the flow left in the graph.
    pub objective: i64,
    /// `true` if the run stopped on a time or iteration budget before
    /// reaching a provably optimal feasible flow.
    pub terminated_early: bool,
    /// Wall-clock runtime of the solve call.
    pub runtime: Duration,
    /// Operation counts.
    pub stats: SolveStats,
}

/// Errors from a solver run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SolveError {
    /// Not all supply can reach the sinks (or supplies are unbalanced).
    Infeasible,
    /// The run was cancelled via its [`CancelToken`].
    Cancelled,
    /// Supplies do not sum to zero, so no feasible flow exists.
    UnbalancedSupply {
        /// The non-zero total supply.
        total: i64,
    },
    /// The operation requires an optimal flow but the graph's current
    /// flow admits a negative-cost residual cycle (e.g.
    /// [`canonicalize_flow`](crate::canonical::canonicalize_flow) called
    /// on a non-optimal or early-terminated solution).
    NotOptimal,
    /// A solver thread panicked before it settled the round (the dual
    /// race's cost-scaling racer, when relaxation did not succeed either).
    SolverPanicked,
}

impl std::fmt::Display for SolveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SolveError::Infeasible => write!(f, "no feasible flow routes all supply"),
            SolveError::Cancelled => write!(f, "solve cancelled"),
            SolveError::UnbalancedSupply { total } => {
                write!(f, "supplies sum to {total}, not zero")
            }
            SolveError::NotOptimal => {
                write!(f, "the graph's flow is not optimal")
            }
            SolveError::SolverPanicked => write!(f, "a solver thread panicked"),
        }
    }
}

impl std::error::Error for SolveError {}

/// Deadline/budget tracking shared by the solver inner loops.
#[derive(Debug)]
pub(crate) struct Budget {
    start: Instant,
    deadline: Option<Instant>,
    iteration_limit: Option<u64>,
    cancel: Option<CancelToken>,
    pub(crate) iterations: u64,
    check_mask: u64,
}

/// Why a budget check tripped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum BudgetStop {
    /// Cancelled via token: abort with an error.
    Cancelled,
    /// Budget exhausted: stop early, keep partial state.
    Exhausted,
}

impl Budget {
    pub(crate) fn new(opts: &SolveOptions) -> Self {
        let start = Instant::now();
        Budget {
            start,
            deadline: opts.time_limit.map(|d| start + d),
            iteration_limit: opts.iteration_limit,
            cancel: opts.cancel.clone(),
            iterations: 0,
            // Check wall clock / cancel flag on the first iteration and
            // every 256 after it, to keep the hot loops branch-cheap while
            // a token cancelled before the run starts stops it at once.
            check_mask: 0xFF,
        }
    }

    /// Counts one iteration and reports whether the run must stop.
    #[inline]
    pub(crate) fn tick(&mut self) -> Option<BudgetStop> {
        self.iterations += 1;
        if let Some(limit) = self.iteration_limit {
            if self.iterations > limit {
                return Some(BudgetStop::Exhausted);
            }
        }
        if self.iterations & self.check_mask == 1 {
            if let Some(c) = &self.cancel {
                if c.is_cancelled() {
                    return Some(BudgetStop::Cancelled);
                }
            }
            if let Some(d) = self.deadline {
                if Instant::now() >= d {
                    return Some(BudgetStop::Exhausted);
                }
            }
        }
        None
    }

    pub(crate) fn elapsed(&self) -> Duration {
        self.start.elapsed()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cancel_token_roundtrip() {
        let t = CancelToken::new();
        assert!(!t.is_cancelled());
        let t2 = t.clone();
        t2.cancel();
        assert!(t.is_cancelled());
    }

    #[test]
    fn child_token_follows_its_ancestors_only() {
        let root = CancelToken::new();
        let child = root.child();
        let grandchild = child.child();
        let sibling = root.child();
        child.cancel();
        assert!(
            grandchild.is_cancelled(),
            "the parent's cancel reaches down"
        );
        assert!(!root.is_cancelled() && !sibling.is_cancelled());
        root.cancel();
        assert!(sibling.is_cancelled());
    }

    #[test]
    fn budget_iteration_limit() {
        let opts = SolveOptions {
            iteration_limit: Some(10),
            ..Default::default()
        };
        let mut b = Budget::new(&opts);
        for _ in 0..10 {
            assert_eq!(b.tick(), None);
        }
        assert_eq!(b.tick(), Some(BudgetStop::Exhausted));
    }

    #[test]
    fn budget_cancellation_detected() {
        let token = CancelToken::new();
        let opts = SolveOptions::with_cancel(token.clone());
        let mut b = Budget::new(&opts);
        token.cancel();
        // The flag is only polled every 256 ticks after the first.
        let mut stopped = None;
        for _ in 0..512 {
            if let Some(s) = b.tick() {
                stopped = Some(s);
                break;
            }
        }
        assert_eq!(stopped, Some(BudgetStop::Cancelled));
    }

    #[test]
    fn budget_sees_a_token_cancelled_before_the_run() {
        let token = CancelToken::new();
        token.cancel();
        let mut b = Budget::new(&SolveOptions::with_cancel(token));
        assert_eq!(b.tick(), Some(BudgetStop::Cancelled));
    }

    #[test]
    fn algorithm_kind_display() {
        assert_eq!(AlgorithmKind::Relaxation.to_string(), "relaxation");
        assert_eq!(AlgorithmKind::CostScaling.to_string(), "cost-scaling");
    }
}
