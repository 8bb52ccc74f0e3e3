//! A compact, solver-owned copy of a [`FlowGraph`]'s residual network in
//! CSR form (compressed sparse rows).
//!
//! Node `u`'s residual arcs sit at positions `offsets()[u]..offsets()[u+1]`
//! of [`arcs`](ResidualCsr::arcs), in exactly the order of
//! [`FlowGraph::adj`], so a solver that walks spans makes the same choices
//! as one that walks adjacency lists. Each position is one 24-byte
//! [`CsrArc`] that carries everything a scan reads and the position of its
//! sister, so examining an arc is one sequential read, where the live graph
//! costs an `ArcId` read from a per-node list that lies wherever the
//! allocator put it plus a random read of a 40-byte arena slot.
//!
//! [`FlowGraph::fill_csr`] fills the copy and
//! [`FlowGraph::write_back_csr`] copies its flow back into the graph; a
//! solver that fails simply does not write back, and the graph stays as it
//! was. The buffers are reused across fills and reserved to the live arc
//! count, so refilling a graph of the same size allocates nothing.

use crate::graph::FlowGraph;

/// One residual arc of a [`ResidualCsr`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CsrArc {
    /// Remaining capacity in this residual direction.
    pub rescap: i64,
    /// Cost of one unit along this residual direction (negated on reverse
    /// arcs, as in the graph).
    pub cost: i64,
    /// Raw index of the destination node.
    pub dst: u32,
    /// Position of the paired residual arc in the same copy.
    pub sister: u32,
}

impl CsrArc {
    /// Raw index of the source node: the destination of the sister.
    #[inline]
    pub fn src(&self, arcs: &[CsrArc]) -> u32 {
        arcs[self.sister as usize].dst
    }
}

/// A reusable CSR copy of a graph's residual network (see the module
/// docs). Empty until [`FlowGraph::fill_csr`] fills it.
#[derive(Debug, Default)]
pub struct ResidualCsr {
    /// `offsets[u]..offsets[u + 1]` is node `u`'s span; `node_bound() + 1`
    /// entries once filled.
    pub(crate) offsets: Vec<u32>,
    /// One entry per live residual arc, grouped by source node.
    pub(crate) arcs: Vec<CsrArc>,
}

impl ResidualCsr {
    /// An empty copy with no buffers allocated.
    pub fn new() -> Self {
        Self::default()
    }

    /// Span offsets, indexed by raw node index (one more entry than the
    /// graph's node bound).
    #[inline]
    pub fn offsets(&self) -> &[u32] {
        &self.offsets
    }

    /// The residual arcs, grouped by source node.
    #[inline]
    pub fn arcs(&self) -> &[CsrArc] {
        &self.arcs
    }

    /// The offsets together with the arcs, mutable so a solver can move
    /// flow. Only `rescap` is read back by [`FlowGraph::write_back_csr`].
    #[inline]
    pub fn parts_mut(&mut self) -> (&[u32], &mut [CsrArc]) {
        (&self.offsets, &mut self.arcs)
    }

    /// How many residual arcs the buffers hold room for, and how many span
    /// offsets.
    pub fn capacity(&self) -> (usize, usize) {
        (self.arcs.capacity(), self.offsets.capacity())
    }

    /// Whether this copy has the shape of `graph`'s residual network (node
    /// bound and live arc count), as a fill of it leaves it.
    pub(crate) fn fits(&self, graph: &FlowGraph) -> bool {
        self.offsets.len() == graph.node_bound() + 1 && self.arcs.len() == 2 * graph.arc_count()
    }
}
