//! Structural and flow-feasibility validation.
//!
//! Solvers and tests use these checks to assert the flow feasibility
//! constraints of §4: mass balance (Eq. 2) and capacity (Eq. 3).

use crate::graph::FlowGraph;
use crate::ids::NodeId;

/// A violated invariant found by [`validate`] or [`check_feasible`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Violation {
    /// An arc endpoint refers to a dead node.
    DanglingArc {
        /// Raw arc index.
        arc: usize,
    },
    /// Residual capacities of a pair do not sum to the pair capacity.
    ResidualMismatch {
        /// Raw forward-arc index.
        arc: usize,
    },
    /// A residual capacity is negative.
    NegativeResidual {
        /// Raw arc index.
        arc: usize,
    },
    /// Node excess is non-zero, so mass balance (Eq. 2) fails.
    MassBalance {
        /// The unbalanced node.
        node: NodeId,
        /// Its excess `e(i)`.
        excess: i64,
    },
    /// Total positive supply does not equal total negative supply.
    SupplyImbalance {
        /// `Σ b(i)` over all nodes (should be 0).
        total: i64,
    },
    /// A residual arc is not listed exactly once in its source's
    /// adjacency, at the position its removal index records (or a dead
    /// arc is still listed somewhere).
    AdjacencyIndex {
        /// Raw residual-arc index.
        arc: usize,
    },
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Violation::DanglingArc { arc } => write!(f, "arc #{arc} touches a dead node"),
            Violation::ResidualMismatch { arc } => {
                write!(f, "arc pair #{arc}: residuals do not sum to capacity")
            }
            Violation::NegativeResidual { arc } => write!(f, "arc #{arc}: negative residual"),
            Violation::MassBalance { node, excess } => {
                write!(f, "node {node}: excess {excess} != 0")
            }
            Violation::SupplyImbalance { total } => {
                write!(f, "total supply {total} != 0")
            }
            Violation::AdjacencyIndex { arc } => {
                write!(f, "arc #{arc}: adjacency entry out of sync with its index")
            }
        }
    }
}

/// Checks structural invariants: arcs reference live nodes, residual
/// capacities are non-negative and pair-consistent, and every live
/// residual arc sits exactly once in its source's adjacency, at its
/// recorded position.
pub fn validate(graph: &FlowGraph) -> Vec<Violation> {
    let mut out = Vec::new();
    // Every listed entry is a live arc out of this node at its recorded
    // position — so no arc is listed twice or under the wrong node.
    for n in (0..graph.node_bound()).map(|i| NodeId(i as u32)) {
        for (pos, &a) in graph.adj(n).iter().enumerate() {
            if !graph.arc_alive(a) || graph.src(a) != n || graph.adj_position(a) != pos {
                out.push(Violation::AdjacencyIndex { arc: a.index() });
            }
        }
    }
    for a in graph.arc_ids() {
        let i = a.index();
        // ...and every live residual arc is listed where it says it is.
        for r in [a, a.sister()] {
            if graph.adj(graph.src(r)).get(graph.adj_position(r)) != Some(&r) {
                out.push(Violation::AdjacencyIndex { arc: r.index() });
            }
        }
        if !graph.node_alive(graph.src(a)) || !graph.node_alive(graph.dst(a)) {
            out.push(Violation::DanglingArc { arc: i });
        }
        let fwd = graph.rescap(a);
        let rev = graph.rescap(a.sister());
        if fwd < 0 {
            out.push(Violation::NegativeResidual { arc: i });
        }
        if rev < 0 {
            out.push(Violation::NegativeResidual { arc: i + 1 });
        }
        if fwd + rev != graph.capacity(a) {
            out.push(Violation::ResidualMismatch { arc: i });
        }
    }
    out
}

/// Checks that the current flow is feasible: structural invariants hold and
/// every node's excess is zero.
pub fn check_feasible(graph: &FlowGraph) -> Vec<Violation> {
    let mut out = validate(graph);
    let total: i64 = graph.node_ids().map(|n| graph.supply(n)).sum();
    if total != 0 {
        out.push(Violation::SupplyImbalance { total });
    }
    let e = graph.excesses();
    for n in graph.node_ids() {
        if e[n.index()] != 0 {
            out.push(Violation::MassBalance {
                node: n,
                excess: e[n.index()],
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::NodeKind;

    #[test]
    fn balanced_flow_is_feasible() {
        let mut g = FlowGraph::new();
        let t = g.add_node(NodeKind::Task { task: 0 }, 1);
        let s = g.add_node(NodeKind::Sink, -1);
        let a = g.add_arc(t, s, 1, 2).unwrap();
        g.push_flow(a, 1);
        assert!(check_feasible(&g).is_empty());
    }

    #[test]
    fn missing_flow_reports_mass_balance() {
        let mut g = FlowGraph::new();
        let t = g.add_node(NodeKind::Task { task: 0 }, 1);
        let s = g.add_node(NodeKind::Sink, -1);
        g.add_arc(t, s, 1, 2).unwrap();
        let v = check_feasible(&g);
        assert_eq!(
            v.iter()
                .filter(|x| matches!(x, Violation::MassBalance { .. }))
                .count(),
            2
        );
    }

    #[test]
    fn supply_imbalance_detected() {
        let mut g = FlowGraph::new();
        g.add_node(NodeKind::Task { task: 0 }, 2);
        g.add_node(NodeKind::Sink, -1);
        let v = check_feasible(&g);
        assert!(v.contains(&Violation::SupplyImbalance { total: 1 }));
    }

    #[test]
    fn pristine_graph_validates() {
        let mut g = FlowGraph::new();
        let a = g.add_node(NodeKind::ClusterAggregator, 0);
        let b = g.add_node(NodeKind::Sink, 0);
        g.add_arc(a, b, 5, 1).unwrap();
        assert!(validate(&g).is_empty());
    }
}
