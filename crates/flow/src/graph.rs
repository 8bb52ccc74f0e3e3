//! The mutable flow-network representation shared by all MCMF solvers.
//!
//! Arcs are stored in forward/reverse *residual* pairs in a flat arena, which
//! is the layout min-cost max-flow algorithms want: pushing `δ` units along a
//! residual arc `a` decrements `rescap(a)` and increments `rescap(a.sister())`
//! without any branching on direction. Node adjacency lists hold residual
//! arcs of both directions, so a single slice walk visits every residual arc
//! out of a node. Each residual arc records its position in its source's
//! list, so removing an arc is O(1) rather than a scan of the list.
//!
//! # The solver's copy
//!
//! The arena and the per-node lists suit a graph that changes every round,
//! not a solver that scans it millions of times: each list lies wherever
//! the allocator put it, and each examination reads an `ArcId` from it and
//! then a random 40-byte slot. [`FlowGraph::fill_csr`] therefore copies the
//! residual network into a [`ResidualCsr`], node `u`'s residual arcs at
//! `offsets[u] + adj_pos`, so each span keeps `adj(u)` order and a solver
//! walking spans makes the same choices as one walking lists. The fill
//! makes one pass over the arena in slot order and writes both arcs of a
//! pair from it; walking the adjacency lists instead would read the arena
//! in random order. [`FlowGraph::write_back_csr`] copies the flow back in
//! the same arena order and returns the objective.
//!
//! The error contract rests on this split: a solver that fails drops its
//! copy without writing it back, and the graph stays exactly as it was
//! before the call.

use crate::csr::{CsrArc, ResidualCsr};
use crate::delta::{ChangeLog, DeltaBatch};
use crate::ids::{ArcId, NodeId};
use crate::node::NodeKind;

/// Internal node storage.
#[derive(Debug, Clone, Copy)]
struct NodeSlot {
    alive: bool,
    kind: NodeKind,
    supply: i64,
}

/// Internal residual-arc storage.
///
/// Every pair uses two consecutive slots; slot `2k` is the forward arc and
/// `2k + 1` the reverse. `capacity` is only meaningful on the forward slot.
#[derive(Debug, Clone, Copy)]
struct ArcSlot {
    alive: bool,
    src: NodeId,
    dst: NodeId,
    /// Index of this residual arc in `adj[src]` (meaningful while alive).
    adj_pos: u32,
    /// Cost of sending one unit along this residual direction (reverse slots
    /// hold the negated forward cost).
    cost: i64,
    /// Remaining capacity in this residual direction.
    rescap: i64,
    /// Original capacity of the pair (forward slot only; 0 on reverse).
    capacity: i64,
}

impl ArcSlot {
    /// A free slot (created dead by arena growth or `restore_arc`).
    const DEAD: ArcSlot = ArcSlot {
        alive: false,
        src: NodeId(0),
        dst: NodeId(0),
        adj_pos: 0,
        cost: 0,
        rescap: 0,
        capacity: 0,
    };
}

/// A directed flow network with costs, capacities, and node supplies.
///
/// This is the `G = (N, A)` of §4: each arc `(i, j)` has a cost `c_ij` and
/// capacity `u_ij`; each node has a supply `b(i)` (positive for sources,
/// negative for sinks). Flow state lives *in* the graph (as residual
/// capacities), so solvers mutate the graph they solve and placement
/// extraction reads the flow back out.
///
/// # Examples
///
/// ```
/// use firmament_flow::{FlowGraph, NodeKind};
///
/// let mut g = FlowGraph::new();
/// let t = g.add_node(NodeKind::Task { task: 0 }, 1);
/// let m = g.add_node(NodeKind::Machine { machine: 0 }, 0);
/// let s = g.add_node(NodeKind::Sink, -1);
/// let tm = g.add_arc(t, m, 1, 5).unwrap();
/// let ms = g.add_arc(m, s, 1, 0).unwrap();
/// g.push_flow(tm, 1);
/// g.push_flow(ms, 1);
/// assert_eq!(g.flow(tm), 1);
/// assert_eq!(g.objective(), 5);
/// ```
#[derive(Debug, Clone, Default)]
pub struct FlowGraph {
    nodes: Vec<NodeSlot>,
    arcs: Vec<ArcSlot>,
    adj: Vec<Vec<ArcId>>,
    free_nodes: Vec<NodeId>,
    /// Base (even) indices of freed arc pairs.
    free_arc_pairs: Vec<u32>,
    alive_nodes: usize,
    alive_arc_pairs: usize,
    track_changes: bool,
    /// The batch of changes since the last
    /// [`take_deltas`](Self::take_deltas), folded as they happen.
    log: ChangeLog,
}

/// Errors returned by graph mutations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphError {
    /// The referenced node is not alive.
    DeadNode(NodeId),
    /// The referenced arc is not alive.
    DeadArc(ArcId),
    /// A self-loop arc was requested, which scheduling graphs never contain.
    SelfLoop(NodeId),
    /// A negative capacity was requested.
    NegativeCapacity(i64),
    /// A restore targeted a node slot that is currently alive.
    OccupiedNode(NodeId),
    /// A restore targeted an arc slot that is currently alive.
    OccupiedArc(ArcId),
}

impl std::fmt::Display for GraphError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GraphError::DeadNode(n) => write!(f, "node {n} is not alive"),
            GraphError::DeadArc(a) => write!(f, "arc {a} is not alive"),
            GraphError::SelfLoop(n) => write!(f, "self-loop on {n} is not allowed"),
            GraphError::NegativeCapacity(c) => write!(f, "negative capacity {c}"),
            GraphError::OccupiedNode(n) => write!(f, "node slot {n} is occupied"),
            GraphError::OccupiedArc(a) => write!(f, "arc slot {a} is occupied"),
        }
    }
}

impl std::error::Error for GraphError {}

impl FlowGraph {
    /// Creates an empty flow network.
    pub fn new() -> Self {
        FlowGraph::default()
    }

    /// Creates an empty flow network with room for `nodes` nodes and `arcs`
    /// arc pairs.
    pub fn with_capacity(nodes: usize, arcs: usize) -> Self {
        FlowGraph {
            nodes: Vec::with_capacity(nodes),
            arcs: Vec::with_capacity(arcs * 2),
            adj: Vec::with_capacity(nodes),
            ..FlowGraph::default()
        }
    }

    /// Enables or disables the change log consumed by incremental solvers.
    /// Turning it off pauses recording and keeps the pending batch, so a
    /// helper that pauses around scratch nodes and arcs (the feasibility
    /// checks do) hands the batch back as it found it. Changes made while
    /// tracking is paused are not recorded: a caller that pauses must undo
    /// them before recording resumes.
    pub fn set_change_tracking(&mut self, on: bool) {
        self.track_changes = on;
    }

    /// Returns `true` if mutations are being recorded.
    pub fn tracks_changes(&self) -> bool {
        self.track_changes
    }

    /// Emits the compacted batch of changes recorded since the last call
    /// (see [`crate::delta`]) and starts the next one. Empty when tracking
    /// is off.
    pub fn take_deltas(&mut self) -> DeltaBatch {
        self.log.take()
    }

    /// Number of changes recorded since the last
    /// [`take_deltas`](Self::take_deltas) — the next batch's
    /// [`raw_len`](DeltaBatch::raw_len).
    pub fn pending_changes(&self) -> usize {
        self.log.len()
    }

    /// The change log, when mutations are being recorded.
    #[inline]
    fn log(&mut self) -> Option<&mut ChangeLog> {
        self.track_changes.then_some(&mut self.log)
    }

    // ------------------------------------------------------------------
    // Nodes
    // ------------------------------------------------------------------

    /// Adds a node with the given kind and supply, reusing a free slot if one
    /// exists, and returns its id.
    pub fn add_node(&mut self, kind: NodeKind, supply: i64) -> NodeId {
        let id = if let Some(id) = self.free_nodes.pop() {
            let slot = &mut self.nodes[id.index()];
            debug_assert!(!slot.alive);
            *slot = NodeSlot {
                alive: true,
                kind,
                supply,
            };
            self.adj[id.index()].clear();
            id
        } else {
            let id = NodeId(self.nodes.len() as u32);
            self.nodes.push(NodeSlot {
                alive: true,
                kind,
                supply,
            });
            self.adj.push(Vec::new());
            id
        };
        self.alive_nodes += 1;
        if let Some(log) = self.log() {
            log.node_added(id, kind, supply);
        }
        id
    }

    /// Removes a node and every arc incident to it.
    ///
    /// Returns the list of removed arc pairs (forward ids) so callers such as
    /// the incremental solvers can account for disrupted flow. The incident
    /// arc removals are logged *before* the node removal.
    pub fn remove_node(&mut self, node: NodeId) -> Result<Vec<ArcId>, GraphError> {
        self.check_node(node)?;
        let incident: Vec<ArcId> = self.adj[node.index()].clone();
        let mut removed = Vec::with_capacity(incident.len());
        for a in incident {
            let fwd = a.forward();
            if self.arcs[fwd.index()].alive {
                self.remove_arc(fwd)?;
                removed.push(fwd);
            }
        }
        let slot = &mut self.nodes[node.index()];
        slot.alive = false;
        let supply = slot.supply;
        slot.supply = 0;
        self.alive_nodes -= 1;
        self.free_nodes.push(node);
        if let Some(log) = self.log() {
            log.node_removed(node, supply);
        }
        Ok(removed)
    }

    /// Revives a node in an exact slot — the id-faithful insertion used by
    /// change-log replay ([`crate::delta::DeltaBatch::replay`]): unlike
    /// [`add_node`](Self::add_node), which allocates from the free list,
    /// this places the node at `node` regardless of allocation history, so
    /// a replayed snapshot reproduces the live graph's ids exactly.
    ///
    /// Fails with [`GraphError::OccupiedNode`] if the slot is alive. Slots
    /// between the current bound and `node` are created dead (they mirror
    /// live slots whose occupants cancelled out within the batch).
    pub fn restore_node(
        &mut self,
        node: NodeId,
        kind: NodeKind,
        supply: i64,
    ) -> Result<(), GraphError> {
        while self.nodes.len() <= node.index() {
            let id = NodeId(self.nodes.len() as u32);
            self.nodes.push(NodeSlot {
                alive: false,
                kind: NodeKind::Sink,
                supply: 0,
            });
            self.adj.push(Vec::new());
            if id != node {
                self.free_nodes.push(id);
            }
        }
        if self.nodes[node.index()].alive {
            return Err(GraphError::OccupiedNode(node));
        }
        if let Some(pos) = self.free_nodes.iter().position(|&n| n == node) {
            self.free_nodes.swap_remove(pos);
        }
        self.nodes[node.index()] = NodeSlot {
            alive: true,
            kind,
            supply,
        };
        self.adj[node.index()].clear();
        self.alive_nodes += 1;
        if let Some(log) = self.log() {
            log.node_added(node, kind, supply);
        }
        Ok(())
    }

    /// Changes the supply of a node.
    pub fn set_supply(&mut self, node: NodeId, supply: i64) -> Result<(), GraphError> {
        self.check_node(node)?;
        let old = self.nodes[node.index()].supply;
        if old != supply {
            self.nodes[node.index()].supply = supply;
            if let Some(log) = self.log() {
                log.supply_changed(node, old, supply);
            }
        }
        Ok(())
    }

    /// Returns the supply `b(i)` of a node.
    #[inline]
    pub fn supply(&self, node: NodeId) -> i64 {
        self.nodes[node.index()].supply
    }

    /// Returns the kind of a node.
    #[inline]
    pub fn kind(&self, node: NodeId) -> NodeKind {
        self.nodes[node.index()].kind
    }

    /// Returns `true` if the node id refers to a live node.
    #[inline]
    pub fn node_alive(&self, node: NodeId) -> bool {
        node.index() < self.nodes.len() && self.nodes[node.index()].alive
    }

    /// Number of live nodes.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.alive_nodes
    }

    /// Upper bound (exclusive) on raw node indices; useful for sizing
    /// solver-side per-node arrays.
    #[inline]
    pub fn node_bound(&self) -> usize {
        self.nodes.len()
    }

    /// Iterates over the ids of all live nodes.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.nodes
            .iter()
            .enumerate()
            .filter(|(_, s)| s.alive)
            .map(|(i, _)| NodeId(i as u32))
    }

    /// Sum of positive supplies (total flow that must reach sinks).
    pub fn total_supply(&self) -> i64 {
        self.nodes
            .iter()
            .filter(|s| s.alive && s.supply > 0)
            .map(|s| s.supply)
            .sum()
    }

    // ------------------------------------------------------------------
    // Arcs
    // ------------------------------------------------------------------

    /// Adds an arc `src → dst` with the given capacity and cost; returns the
    /// forward residual arc id. The new arc carries no flow.
    pub fn add_arc(
        &mut self,
        src: NodeId,
        dst: NodeId,
        capacity: i64,
        cost: i64,
    ) -> Result<ArcId, GraphError> {
        self.check_node(src)?;
        self.check_node(dst)?;
        if src == dst {
            return Err(GraphError::SelfLoop(src));
        }
        if capacity < 0 {
            return Err(GraphError::NegativeCapacity(capacity));
        }
        let fwd = if let Some(base) = self.free_arc_pairs.pop() {
            ArcId(base)
        } else {
            let fwd = ArcId(self.arcs.len() as u32);
            debug_assert!(fwd.is_forward());
            self.arcs.push(ArcSlot::DEAD);
            self.arcs.push(ArcSlot::DEAD);
            fwd
        };
        self.attach_pair(fwd, src, dst, capacity, cost);
        Ok(fwd)
    }

    /// Revives an arc pair in an exact slot — the id-faithful counterpart
    /// of [`restore_node`](Self::restore_node) for change-log replay. The
    /// new pair carries no flow.
    ///
    /// Fails with [`GraphError::OccupiedArc`] if the pair's forward slot is
    /// alive. Pairs between the current bound and `arc` are created dead.
    pub fn restore_arc(
        &mut self,
        arc: ArcId,
        src: NodeId,
        dst: NodeId,
        capacity: i64,
        cost: i64,
    ) -> Result<(), GraphError> {
        let fwd = arc.forward();
        self.check_node(src)?;
        self.check_node(dst)?;
        if src == dst {
            return Err(GraphError::SelfLoop(src));
        }
        if capacity < 0 {
            return Err(GraphError::NegativeCapacity(capacity));
        }
        while self.arcs.len() <= fwd.index() + 1 {
            let base = self.arcs.len() as u32;
            debug_assert_eq!(base % 2, 0);
            self.arcs.push(ArcSlot::DEAD);
            self.arcs.push(ArcSlot::DEAD);
            if base != fwd.0 {
                self.free_arc_pairs.push(base);
            }
        }
        if self.arcs[fwd.index()].alive {
            return Err(GraphError::OccupiedArc(fwd));
        }
        if let Some(pos) = self.free_arc_pairs.iter().position(|&b| b == fwd.0) {
            self.free_arc_pairs.swap_remove(pos);
        }
        self.attach_pair(fwd, src, dst, capacity, cost);
        Ok(())
    }

    /// Fills the pair at `fwd` as a live, flowless `src → dst` arc, appends
    /// both residual arcs to their sources' adjacency lists, and logs the
    /// addition.
    fn attach_pair(&mut self, fwd: ArcId, src: NodeId, dst: NodeId, capacity: i64, cost: i64) {
        self.arcs[fwd.index()] = ArcSlot {
            alive: true,
            src,
            dst,
            adj_pos: self.adj[src.index()].len() as u32,
            cost,
            rescap: capacity,
            capacity,
        };
        self.arcs[fwd.index() + 1] = ArcSlot {
            alive: true,
            src: dst,
            dst: src,
            adj_pos: self.adj[dst.index()].len() as u32,
            cost: -cost,
            rescap: 0,
            capacity: 0,
        };
        self.adj[src.index()].push(fwd);
        self.adj[dst.index()].push(fwd.sister());
        self.alive_arc_pairs += 1;
        if let Some(log) = self.log() {
            log.arc_added(fwd, src, dst, capacity, cost);
        }
    }

    /// Removes an arc pair given either of its residual arc ids.
    pub fn remove_arc(&mut self, arc: ArcId) -> Result<(), GraphError> {
        let fwd = arc.forward();
        self.check_arc(fwd)?;
        let (src, dst, capacity, cost, flow) = {
            let a = &self.arcs[fwd.index()];
            (a.src, a.dst, a.capacity, a.cost, self.flow(fwd))
        };
        self.arcs[fwd.index()].alive = false;
        self.arcs[fwd.index() + 1].alive = false;
        self.detach(fwd);
        self.detach(fwd.sister());
        self.alive_arc_pairs -= 1;
        self.free_arc_pairs.push(fwd.0);
        if let Some(log) = self.log() {
            log.arc_removed(fwd, src, dst, capacity, cost, flow);
        }
        Ok(())
    }

    /// Unlinks a residual arc from its source's adjacency list in O(1):
    /// `swap_remove` at the recorded position, then re-record the position
    /// of the arc that moved into the hole.
    fn detach(&mut self, arc: ArcId) {
        let slot = self.arcs[arc.index()];
        let pos = slot.adj_pos as usize;
        let list = &mut self.adj[slot.src.index()];
        debug_assert_eq!(list[pos], arc, "adjacency index out of sync");
        list.swap_remove(pos);
        if let Some(&moved) = list.get(pos) {
            self.arcs[moved.index()].adj_pos = pos as u32;
        }
    }

    /// Position of a live residual arc in its source's
    /// [`adj`](Self::adj) list, as recorded by the O(1) removal index.
    #[inline]
    pub(crate) fn adj_position(&self, arc: ArcId) -> usize {
        self.arcs[arc.index()].adj_pos as usize
    }

    /// Changes the cost of an arc pair (given either residual id).
    pub fn set_arc_cost(&mut self, arc: ArcId, cost: i64) -> Result<(), GraphError> {
        let fwd = arc.forward();
        self.check_arc(fwd)?;
        let old = self.arcs[fwd.index()].cost;
        if old != cost {
            self.arcs[fwd.index()].cost = cost;
            self.arcs[fwd.index() + 1].cost = -cost;
            if let Some(log) = self.log() {
                log.cost_changed(fwd, old, cost);
            }
        }
        Ok(())
    }

    /// Changes the capacity of an arc pair (given either residual id).
    ///
    /// If the new capacity is below the current flow, the flow on the arc is
    /// clamped down to the new capacity; the spilled units show up as node
    /// imbalance that the next solver run repairs (Table 3: decreasing
    /// capacity can break feasibility).
    pub fn set_arc_capacity(&mut self, arc: ArcId, capacity: i64) -> Result<(), GraphError> {
        let fwd = arc.forward();
        self.check_arc(fwd)?;
        if capacity < 0 {
            return Err(GraphError::NegativeCapacity(capacity));
        }
        let old = self.arcs[fwd.index()].capacity;
        if old == capacity {
            return Ok(());
        }
        let flow = self.flow(fwd);
        let spilled = (flow - capacity).max(0);
        let new_flow = flow.min(capacity);
        self.arcs[fwd.index()].capacity = capacity;
        self.arcs[fwd.index()].rescap = capacity - new_flow;
        self.arcs[fwd.index() + 1].rescap = new_flow;
        if let Some(log) = self.log() {
            log.capacity_changed(fwd, old, capacity, spilled);
        }
        Ok(())
    }

    /// Returns `true` if the arc id refers to a live residual arc.
    #[inline]
    pub fn arc_alive(&self, arc: ArcId) -> bool {
        arc.index() < self.arcs.len() && self.arcs[arc.index()].alive
    }

    /// Number of live arc pairs.
    #[inline]
    pub fn arc_count(&self) -> usize {
        self.alive_arc_pairs
    }

    /// Upper bound (exclusive) on raw residual-arc indices.
    #[inline]
    pub fn arc_bound(&self) -> usize {
        self.arcs.len()
    }

    /// Iterates over the forward ids of all live arc pairs.
    pub fn arc_ids(&self) -> impl Iterator<Item = ArcId> + '_ {
        (0..self.arcs.len())
            .step_by(2)
            .filter(|&i| self.arcs[i].alive)
            .map(|i| ArcId(i as u32))
    }

    /// Source node of a residual arc.
    #[inline]
    pub fn src(&self, arc: ArcId) -> NodeId {
        self.arcs[arc.index()].src
    }

    /// Destination node of a residual arc.
    #[inline]
    pub fn dst(&self, arc: ArcId) -> NodeId {
        self.arcs[arc.index()].dst
    }

    /// Cost of one unit of flow along a residual arc (negated on reverse
    /// arcs).
    #[inline]
    pub fn cost(&self, arc: ArcId) -> i64 {
        self.arcs[arc.index()].cost
    }

    /// Remaining residual capacity of a residual arc.
    #[inline]
    pub fn rescap(&self, arc: ArcId) -> i64 {
        self.arcs[arc.index()].rescap
    }

    /// Original capacity of the pair containing `arc`.
    #[inline]
    pub fn capacity(&self, arc: ArcId) -> i64 {
        self.arcs[arc.forward().index()].capacity
    }

    /// Current flow on the pair containing `arc` (always reported for the
    /// forward direction).
    #[inline]
    pub fn flow(&self, arc: ArcId) -> i64 {
        self.arcs[arc.forward().index() + 1].rescap
    }

    /// Residual out-arcs (both directions) of a node.
    #[inline]
    pub fn adj(&self, node: NodeId) -> &[ArcId] {
        &self.adj[node.index()]
    }

    // ------------------------------------------------------------------
    // Flow manipulation
    // ------------------------------------------------------------------

    /// Pushes `delta` units of flow along a residual arc.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `delta` exceeds the residual capacity.
    #[inline]
    pub fn push_flow(&mut self, arc: ArcId, delta: i64) {
        debug_assert!(
            delta <= self.arcs[arc.index()].rescap,
            "push of {delta} exceeds residual capacity {} on {arc}",
            self.arcs[arc.index()].rescap
        );
        self.arcs[arc.index()].rescap -= delta;
        self.arcs[arc.index() ^ 1].rescap += delta;
    }

    /// Notes in the change log that flow was moved at `node` outside a
    /// solver run (e.g. a §5.3.2 drain terminated here), so incremental
    /// solvers re-derive its excess. No-op when tracking is off.
    pub fn note_flow_disturbance(&mut self, node: NodeId) {
        if self.node_alive(node) {
            if let Some(log) = self.log() {
                log.flow_disturbed(node);
            }
        }
    }

    /// Sets the flow on a pair directly (clamped to `[0, capacity]`).
    pub fn set_flow(&mut self, arc: ArcId, flow: i64) {
        let fwd = arc.forward();
        let cap = self.arcs[fwd.index()].capacity;
        let f = flow.clamp(0, cap);
        self.arcs[fwd.index()].rescap = cap - f;
        self.arcs[fwd.index() + 1].rescap = f;
    }

    /// Clears all flow, restoring every pair to `rescap = capacity`.
    pub fn reset_flow(&mut self) {
        for i in (0..self.arcs.len()).step_by(2) {
            if self.arcs[i].alive {
                let cap = self.arcs[i].capacity;
                self.arcs[i].rescap = cap;
                self.arcs[i + 1].rescap = 0;
            }
        }
    }

    /// Total cost of the current flow: `Σ c_ij · f_ij` (Eq. 1).
    pub fn objective(&self) -> i64 {
        let mut total = 0i64;
        for i in (0..self.arcs.len()).step_by(2) {
            if self.arcs[i].alive {
                total += self.arcs[i].cost * self.arcs[i + 1].rescap;
            }
        }
        total
    }

    /// Per-node excess `e(i) = b(i) + inflow(i) − outflow(i)`, indexed by raw
    /// node index. A feasible flow has zero excess everywhere (Eq. 2).
    pub fn excesses(&self) -> Vec<i64> {
        let mut e = vec![0i64; self.nodes.len()];
        for (i, s) in self.nodes.iter().enumerate() {
            if s.alive {
                e[i] = s.supply;
            }
        }
        for i in (0..self.arcs.len()).step_by(2) {
            if self.arcs[i].alive {
                let f = self.arcs[i + 1].rescap;
                if f != 0 {
                    e[self.arcs[i].src.index()] -= f;
                    e[self.arcs[i].dst.index()] += f;
                }
            }
        }
        e
    }

    /// Copies the residual network into `csr`, reusing its buffers (see
    /// the module docs): residual arc `a` lands at
    /// `offsets[src(a)] + position of a in adj(src(a))`. With `reset`,
    /// every pair is written flowless (`rescap = capacity` forward, 0
    /// reverse), as [`reset_flow`](Self::reset_flow) would leave it, and the
    /// graph itself is not touched. The buffers grow to the live counts
    /// exactly, never by doubling.
    pub fn fill_csr(&self, csr: &mut ResidualCsr, reset: bool) {
        let offsets = &mut csr.offsets;
        offsets.clear();
        offsets.reserve_exact(self.adj.len() + 1);
        let mut end = 0u32;
        offsets.push(end);
        for list in &self.adj {
            end += list.len() as u32;
            offsets.push(end);
        }
        let len = end as usize;
        debug_assert_eq!(len, 2 * self.alive_arc_pairs);
        let arcs = &mut csr.arcs;
        arcs.reserve_exact(len.saturating_sub(arcs.len()));
        // Every position is overwritten below, so only growth writes.
        arcs.resize(len, CsrArc::default());
        for pair in self.arcs.chunks_exact(2) {
            let (f, r) = (&pair[0], &pair[1]);
            if !f.alive {
                continue;
            }
            let pf = offsets[f.src.index()] + f.adj_pos;
            let pr = offsets[r.src.index()] + r.adj_pos;
            let (f_cap, r_cap) = if reset {
                (f.capacity, 0)
            } else {
                (f.rescap, r.rescap)
            };
            arcs[pf as usize] = CsrArc {
                rescap: f_cap,
                cost: f.cost,
                dst: f.dst.0,
                sister: pr,
            };
            arcs[pr as usize] = CsrArc {
                rescap: r_cap,
                cost: r.cost,
                dst: r.dst.0,
                sister: pf,
            };
        }
    }

    /// Copies the flow of a copy that [`fill_csr`](Self::fill_csr) filled
    /// from this graph back into the arena, in slot order, and returns the
    /// new [`objective`](Self::objective). Only `rescap` is read from the
    /// copy.
    ///
    /// # Panics
    ///
    /// Panics if `csr` does not have this graph's shape (node bound and
    /// live arc count), e.g. because the graph changed since the fill.
    pub fn write_back_csr(&mut self, csr: &ResidualCsr) -> i64 {
        assert!(csr.fits(self), "residual copy does not match this graph");
        let (offsets, arcs) = (&csr.offsets, &csr.arcs);
        let mut total = 0i64;
        for pair in self.arcs.chunks_exact_mut(2) {
            let [f, r] = pair else {
                unreachable!("arcs come in pairs")
            };
            if !f.alive {
                continue;
            }
            f.rescap = arcs[(offsets[f.src.index()] + f.adj_pos) as usize].rescap;
            r.rescap = arcs[(offsets[r.src.index()] + r.adj_pos) as usize].rescap;
            total += f.cost * r.rescap;
        }
        total
    }

    /// Returns the maximum absolute arc cost `C` (0 for an empty graph).
    pub fn max_cost(&self) -> i64 {
        self.arc_ids()
            .map(|a| self.cost(a).abs())
            .max()
            .unwrap_or(0)
    }

    /// Returns the maximum arc capacity `U` (0 for an empty graph).
    pub fn max_capacity(&self) -> i64 {
        self.arc_ids().map(|a| self.capacity(a)).max().unwrap_or(0)
    }

    // ------------------------------------------------------------------
    // Checks
    // ------------------------------------------------------------------

    #[inline]
    fn check_node(&self, node: NodeId) -> Result<(), GraphError> {
        if self.node_alive(node) {
            Ok(())
        } else {
            Err(GraphError::DeadNode(node))
        }
    }

    #[inline]
    fn check_arc(&self, arc: ArcId) -> Result<(), GraphError> {
        if self.arc_alive(arc) {
            Ok(())
        } else {
            Err(GraphError::DeadArc(arc))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> (FlowGraph, NodeId, NodeId, NodeId, ArcId, ArcId) {
        let mut g = FlowGraph::new();
        let t = g.add_node(NodeKind::Task { task: 0 }, 1);
        let m = g.add_node(NodeKind::Machine { machine: 0 }, 0);
        let s = g.add_node(NodeKind::Sink, -1);
        let tm = g.add_arc(t, m, 1, 5).unwrap();
        let ms = g.add_arc(m, s, 2, 3).unwrap();
        (g, t, m, s, tm, ms)
    }

    #[test]
    fn add_and_query() {
        let (g, t, m, s, tm, ms) = tiny();
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.arc_count(), 2);
        assert_eq!(g.src(tm), t);
        assert_eq!(g.dst(tm), m);
        assert_eq!(g.cost(tm), 5);
        assert_eq!(g.cost(tm.sister()), -5);
        assert_eq!(g.capacity(ms), 2);
        assert_eq!(g.supply(t), 1);
        assert_eq!(g.supply(s), -1);
        assert_eq!(g.total_supply(), 1);
        assert!(g.adj(m).contains(&tm.sister()));
        assert!(g.adj(m).contains(&ms));
    }

    #[test]
    fn push_and_objective() {
        let (mut g, _, _, _, tm, ms) = tiny();
        g.push_flow(tm, 1);
        g.push_flow(ms, 1);
        assert_eq!(g.flow(tm), 1);
        assert_eq!(g.flow(ms), 1);
        assert_eq!(g.rescap(tm), 0);
        assert_eq!(g.rescap(tm.sister()), 1);
        assert_eq!(g.objective(), 8);
        let e = g.excesses();
        assert!(e.iter().all(|&x| x == 0));
    }

    #[test]
    fn push_reverse_undoes() {
        let (mut g, _, _, _, tm, _) = tiny();
        g.push_flow(tm, 1);
        g.push_flow(tm.sister(), 1);
        assert_eq!(g.flow(tm), 0);
        assert_eq!(g.objective(), 0);
    }

    #[test]
    fn excess_without_flow_equals_supply() {
        let (g, t, _, s, _, _) = tiny();
        let e = g.excesses();
        assert_eq!(e[t.index()], 1);
        assert_eq!(e[s.index()], -1);
    }

    #[test]
    fn remove_arc_updates_adjacency() {
        let (mut g, t, m, _, tm, _) = tiny();
        g.remove_arc(tm).unwrap();
        assert_eq!(g.arc_count(), 1);
        assert!(!g.arc_alive(tm));
        assert!(!g.adj(t).contains(&tm));
        assert!(!g.adj(m).contains(&tm.sister()));
        assert!(g.remove_arc(tm).is_err());
    }

    #[test]
    fn remove_node_removes_incident_arcs() {
        let (mut g, _, m, _, tm, ms) = tiny();
        let removed = g.remove_node(m).unwrap();
        assert_eq!(g.node_count(), 2);
        assert_eq!(g.arc_count(), 0);
        assert!(removed.contains(&tm));
        assert!(removed.contains(&ms));
    }

    #[test]
    fn slot_reuse_after_removal() {
        let (mut g, _, m, _, _, _) = tiny();
        g.remove_node(m).unwrap();
        let m2 = g.add_node(NodeKind::Machine { machine: 9 }, 0);
        assert_eq!(m2, m, "freed slot should be reused");
        assert_eq!(g.kind(m2), NodeKind::Machine { machine: 9 });
        assert!(g.adj(m2).is_empty());
    }

    #[test]
    fn arc_pair_reuse_keeps_even_alignment() {
        let (mut g, t, m, _, tm, _) = tiny();
        g.remove_arc(tm).unwrap();
        let a = g.add_arc(t, m, 4, 7).unwrap();
        assert!(a.is_forward());
        assert_eq!(a, tm, "freed pair should be reused");
        assert_eq!(g.capacity(a), 4);
        assert_eq!(g.flow(a), 0);
    }

    #[test]
    fn capacity_decrease_clamps_flow() {
        let (mut g, _, _, _, _, ms) = tiny();
        g.push_flow(ms, 2);
        g.set_arc_capacity(ms, 1).unwrap();
        assert_eq!(g.flow(ms), 1);
        assert_eq!(g.capacity(ms), 1);
        // The clamp spilled one unit back onto the machine node.
        let e = g.excesses();
        assert_eq!(e[1], -1, "machine lost one unit of outflow");
        assert_eq!(e[2], 0, "sink is balanced after the clamp");
    }

    #[test]
    fn cost_change_applies_to_both_directions() {
        let (mut g, _, _, _, tm, _) = tiny();
        g.set_arc_cost(tm, 11).unwrap();
        assert_eq!(g.cost(tm), 11);
        assert_eq!(g.cost(tm.sister()), -11);
    }

    #[test]
    fn change_log_records_mutations() {
        let mut g = FlowGraph::new();
        g.set_change_tracking(true);
        let t = g.add_node(NodeKind::Task { task: 0 }, 1);
        let s = g.add_node(NodeKind::Sink, -1);
        let a = g.add_arc(t, s, 1, 2).unwrap();
        g.set_arc_cost(a, 3).unwrap();
        g.set_supply(t, 0).unwrap();
        assert_eq!(g.pending_changes(), 5);
        assert_eq!(g.take_deltas().raw_len(), 5);
        assert_eq!(g.pending_changes(), 0);
        assert_eq!(g.take_deltas(), DeltaBatch::empty());
    }

    #[test]
    fn no_change_no_log_entry() {
        let mut g = FlowGraph::new();
        g.set_change_tracking(true);
        let t = g.add_node(NodeKind::Task { task: 0 }, 1);
        let s = g.add_node(NodeKind::Sink, -1);
        let a = g.add_arc(t, s, 1, 2).unwrap();
        g.take_deltas();
        g.set_arc_cost(a, 2).unwrap();
        g.set_supply(t, 1).unwrap();
        g.set_arc_capacity(a, 1).unwrap();
        assert_eq!(g.pending_changes(), 0);
        assert_eq!(g.take_deltas().raw_len(), 0);
    }

    #[test]
    fn self_loop_rejected() {
        let mut g = FlowGraph::new();
        let n = g.add_node(NodeKind::Sink, 0);
        assert_eq!(g.add_arc(n, n, 1, 1), Err(GraphError::SelfLoop(n)));
    }

    #[test]
    fn reset_flow_clears_everything() {
        let (mut g, _, _, _, tm, ms) = tiny();
        g.push_flow(tm, 1);
        g.push_flow(ms, 2);
        g.reset_flow();
        assert_eq!(g.flow(tm), 0);
        assert_eq!(g.flow(ms), 0);
        assert_eq!(g.objective(), 0);
    }

    /// The old removal: search the list, then `swap_remove` where found.
    fn naive_detach(model: &mut [Vec<ArcId>], node: NodeId, arc: ArcId) {
        let list = &mut model[node.index()];
        let pos = list.iter().position(|&a| a == arc).expect("listed");
        list.swap_remove(pos);
    }

    fn naive_remove_arc(g: &FlowGraph, model: &mut [Vec<ArcId>], fwd: ArcId) {
        naive_detach(model, g.src(fwd), fwd);
        naive_detach(model, g.dst(fwd), fwd.sister());
    }

    fn pick<T: Copy>(rng: &mut crate::testgen::XorShift64, items: &[T]) -> Option<T> {
        (!items.is_empty()).then(|| items[rng.below(items.len() as u64) as usize])
    }

    /// One step of a random mutation script: an arc or node addition, an
    /// arc or node removal, or an id-faithful restore (into a freed slot or
    /// past the bound), applied to `g` and to `model`, a naive copy of its
    /// adjacency lists kept by the old search-then-`swap_remove` removal.
    fn random_mutation(
        g: &mut FlowGraph,
        model: &mut Vec<Vec<ArcId>>,
        rng: &mut crate::testgen::XorShift64,
        step: u64,
    ) {
        let live: Vec<NodeId> = g.node_ids().collect();
        let dead: Vec<NodeId> = (0..g.node_bound() as u32)
            .map(NodeId)
            .filter(|&n| !g.node_alive(n))
            .collect();
        let arcs: Vec<ArcId> = g.arc_ids().collect();
        let dead_pairs: Vec<ArcId> = (0..g.arc_bound() as u32)
            .step_by(2)
            .map(ArcId)
            .filter(|&a| !g.arc_alive(a))
            .collect();
        let ends = (pick(rng, &live), pick(rng, &live));
        match rng.below(12) {
            0..=1 => {
                let n = g.add_node(NodeKind::Other { tag: step }, 0);
                model.resize(g.node_bound(), Vec::new());
                assert!(model[n.index()].is_empty());
            }
            2..=5 => {
                if let (Some(s), Some(d)) = ends {
                    if s != d {
                        let a = g.add_arc(s, d, 3, 1).unwrap();
                        model[s.index()].push(a);
                        model[d.index()].push(a.sister());
                    }
                }
            }
            6..=7 => {
                if let Some(a) = pick(rng, &arcs) {
                    naive_remove_arc(g, model, a);
                    g.remove_arc(a).unwrap();
                }
            }
            8 => {
                if let Some(n) = ends.0 {
                    // `remove_node` strips incident arcs in list order.
                    for a in model[n.index()].clone() {
                        naive_remove_arc(g, model, a.forward());
                    }
                    g.remove_node(n).unwrap();
                }
            }
            9 => {
                let n =
                    pick(rng, &dead).unwrap_or(NodeId(g.node_bound() as u32 + rng.below(3) as u32));
                g.restore_node(n, NodeKind::Other { tag: step }, 0).unwrap();
                model.resize(g.node_bound(), Vec::new());
                assert!(model[n.index()].is_empty());
            }
            _ => {
                if let (Some(s), Some(d)) = ends {
                    if s != d {
                        let a = pick(rng, &dead_pairs)
                            .unwrap_or(ArcId(g.arc_bound() as u32 + 2 * rng.below(3) as u32));
                        g.restore_arc(a, s, d, 2, 4).unwrap();
                        model[s.index()].push(a);
                        model[d.index()].push(a.sister());
                    }
                }
            }
        }
    }

    /// The O(1) removal index keeps every adjacency list in exactly the
    /// order the old search-then-`swap_remove` produced, through random
    /// arc and node additions, removals, slot reuse and id-faithful
    /// restores, and `validate` finds every arc at its recorded position.
    #[test]
    fn adjacency_order_matches_naive_model_under_random_mutations() {
        use crate::validate::validate;
        for seed in 0..8 {
            let mut rng = crate::testgen::XorShift64::new(0xAD1 + seed);
            let mut g = FlowGraph::new();
            let mut model: Vec<Vec<ArcId>> = Vec::new();
            for step in 0..600 {
                random_mutation(&mut g, &mut model, &mut rng, step);
                assert_eq!(model.len(), g.node_bound(), "seed {seed} step {step}");
                for (i, list) in model.iter().enumerate() {
                    assert_eq!(
                        g.adj(NodeId(i as u32)),
                        &list[..],
                        "seed {seed} step {step} node {i}"
                    );
                }
                assert_eq!(validate(&g), vec![], "seed {seed} step {step}");
            }
        }
    }

    /// Fills `csr` from `g` and checks it against the graph: every span
    /// holds `adj(u)` in order with the same `dst`, `cost` and `rescap`;
    /// `sister` is an involution that agrees with `ArcId::sister`; a fill
    /// then write-back leaves the graph as it was, and a fill with `reset`
    /// then write-back leaves what `reset_flow` does.
    fn check_csr_round_trip(g: &FlowGraph, csr: &mut ResidualCsr, what: &str) {
        g.fill_csr(csr, false);
        assert_eq!(csr.offsets().len(), g.node_bound() + 1, "{what}");
        assert_eq!(csr.arcs().len(), 2 * g.arc_count(), "{what}");
        for u in 0..g.node_bound() {
            let list = g.adj(NodeId(u as u32));
            let span = &csr.arcs()[csr.offsets()[u] as usize..csr.offsets()[u + 1] as usize];
            assert_eq!(span.len(), list.len(), "{what} node {u}");
            for (k, (&a, c)) in list.iter().zip(span).enumerate() {
                let pos = csr.offsets()[u] as usize + k;
                assert_eq!(c.dst as usize, g.dst(a).index(), "{what} arc {a}");
                assert_eq!(c.cost, g.cost(a), "{what} arc {a}");
                assert_eq!(c.rescap, g.rescap(a), "{what} arc {a}");
                let sister = a.sister();
                let sister_pos =
                    csr.offsets()[g.src(sister).index()] as usize + g.adj_position(sister);
                assert_eq!(c.sister as usize, sister_pos, "{what} arc {a}");
                assert_eq!(
                    csr.arcs()[sister_pos].sister as usize,
                    pos,
                    "{what} arc {a}"
                );
                assert_eq!(c.src(csr.arcs()) as usize, u, "{what} arc {a}");
            }
        }

        let mut copy = g.clone();
        let objective = copy.write_back_csr(csr);
        assert_eq!(format!("{copy:?}"), format!("{g:?}"), "{what}: identity");
        assert_eq!(objective, g.objective(), "{what}");

        g.fill_csr(csr, true);
        let mut copy = g.clone();
        let objective = copy.write_back_csr(csr);
        let mut reset = g.clone();
        reset.reset_flow();
        assert_eq!(format!("{copy:?}"), format!("{reset:?}"), "{what}: reset");
        assert_eq!(objective, reset.objective(), "{what}");
    }

    /// The CSR copy round-trips through the same random mutation script,
    /// on a graph that carries flow in both directions of its pairs, with
    /// one copy refilled as the graph grows and shrinks.
    #[test]
    fn csr_copy_round_trips_under_random_mutations() {
        for seed in 0..8 {
            let mut rng = crate::testgen::XorShift64::new(0xC5A + seed);
            let mut g = FlowGraph::new();
            let mut model: Vec<Vec<ArcId>> = Vec::new();
            let mut csr = ResidualCsr::new();
            for step in 0..600 {
                random_mutation(&mut g, &mut model, &mut rng, step);
                let arcs: Vec<ArcId> = g.arc_ids().collect();
                if let Some(a) = pick(&mut rng, &arcs) {
                    let a = if rng.below(2) == 0 { a } else { a.sister() };
                    let r = g.rescap(a);
                    g.push_flow(a, rng.below(r as u64 + 1) as i64);
                }
                check_csr_round_trip(&g, &mut csr, &format!("seed {seed} step {step}"));
            }
            assert!(g.arc_ids().any(|a| g.flow(a) > 0), "seed {seed}");
        }
    }

    /// `clone`, and `clone_from` into a spare that held a larger, different
    /// graph, are indistinguishable from the source: same state (free
    /// lists and change log included), flows and adjacency order, and the
    /// next allocations return the same ids and fold into the same batch.
    #[test]
    fn clone_from_a_larger_spare_matches_clone() {
        let mut spare = FlowGraph::new();
        let big: Vec<NodeId> = (0..40)
            .map(|i| spare.add_node(NodeKind::Machine { machine: i }, i as i64))
            .collect();
        for w in big.windows(3) {
            let a = spare.add_arc(w[0], w[2], 5, 2).unwrap();
            spare.push_flow(a, 3);
            spare.add_arc(w[1], w[0], 1, 9).unwrap();
        }

        let (mut src, t, m, s, tm, ms) = tiny();
        src.set_change_tracking(true);
        let x = src.add_node(NodeKind::ClusterAggregator, 0);
        let tx = src.add_arc(t, x, 1, 1).unwrap();
        let xm = src.add_arc(x, m, 1, 1).unwrap();
        src.push_flow(ms, 1);
        src.push_flow(tm, 1);
        src.remove_arc(tx).unwrap();
        let u = src.add_node(NodeKind::UnscheduledAggregator { job: 0 }, 0);
        src.add_arc(u, s, 4, 0).unwrap();
        src.remove_node(u).unwrap();
        assert!(src.pending_changes() > 0);

        let fresh = src.clone();
        spare.clone_from(&src);
        for g in [&fresh, &spare] {
            assert_eq!(format!("{g:?}"), format!("{src:?}"));
            assert_eq!(g.node_bound(), src.node_bound());
            assert_eq!(g.arc_bound(), src.arc_bound());
            for n in src.node_ids() {
                assert_eq!(g.adj(n), src.adj(n));
            }
            for a in src.arc_ids() {
                assert_eq!(g.flow(a), src.flow(a));
            }
            assert_eq!(crate::validate::validate(g), vec![]);
        }
        let mut fresh = fresh;
        for g in [&mut fresh, &mut spare, &mut src] {
            let n = g.add_node(NodeKind::Task { task: 5 }, 1);
            let a = g.add_arc(n, x, 1, 3).unwrap();
            let b = g.add_arc(x, s, 1, 0).unwrap();
            g.remove_arc(xm).unwrap();
            assert_eq!((n, a, b), (NodeId(4), tx, ArcId(8)));
        }
        assert_eq!(format!("{fresh:?}"), format!("{src:?}"));
        assert_eq!(format!("{spare:?}"), format!("{src:?}"));
        let batch = src.take_deltas();
        assert_eq!(fresh.take_deltas(), batch);
        assert_eq!(spare.take_deltas(), batch);
    }
}
