//! The typed graph change log handed from the graph owner to incremental
//! solvers (§6.2–6.3): [`GraphDelta`] batches, folded by the graph as it
//! mutates, and exact replay of a batch onto a snapshot.
//!
//! # The change-log contract
//!
//! Three parties touch the log:
//!
//! - **The graph folds.** A [`FlowGraph`] with change tracking enabled
//!   folds each structural or pricing mutation (node/arc add/remove, cost,
//!   capacity, supply) into its entity's state for the current batch as
//!   the mutation happens, by the rules below. It finds the entity's fold
//!   through a `u32` index per node and arc slot instead of a hash lookup,
//!   and resets only the slots a batch touched, so a batch costs
//!   O(changes). Flow pushes are *not* recorded: between two solver
//!   handoffs every flow move the graph owner makes (path drains,
//!   rebalancing) preserves conservation except at nodes the batch also
//!   names, so the batch plus the live flow state is enough to find every
//!   node whose excess may be non-zero.
//! - **The owner takes.** Whoever owns the graph (the `FlowGraphManager`
//!   in `firmament-core`) takes the batch with [`FlowGraph::take_deltas`]
//!   once per scheduling round — *after* applying events and the
//!   dirty-node cost refresh, *before* handing the graph to the solver.
//! - **The solver consumes.** An incremental solver warm-starts from the
//!   batch alone: the touched-node set, the reduced-cost violations, and
//!   the feasibility damage are all derivable from the deltas plus
//!   O(degree) local reads of the live graph — no full-graph diff against
//!   the warm state is needed.
//!
//! # Compaction rules
//!
//! Within one batch (one scheduling round):
//!
//! - an entity added and removed in the same round **cancels** (a task that
//!   arrived and completed between two solves never reaches the solver);
//!   cancellation relies on within-batch arcs never carrying flow, which
//!   holds because no solver runs inside a batch window;
//! - repeated cost/capacity/supply changes on a surviving entity **merge**
//!   end-to-end (first `old`, last `new`) and vanish when they net out,
//!   except that flow spilled by capacity clamps is accumulated — it is
//!   feasibility damage even when the capacity itself nets out;
//! - changes to an entity that is later removed are **absorbed** into the
//!   removal entry;
//! - surviving deltas are emitted in dependency order — arc removals, node
//!   removals, node additions, arc additions, then mutations — so a batch
//!   replays onto a pre-batch snapshot without ever referencing a dead or
//!   not-yet-created slot, even across id (slot) reuse.
//!
//! Replay ([`DeltaBatch::replay`]) reproduces the **structure** of the
//! live graph exactly — alive sets, ids, kinds, supplies, arc endpoints,
//! capacities, and costs. It does *not* reproduce flow (flow is carried by
//! the live graph, not the log), so replayed capacity clamps may spill
//! differently than the live sequence did.

use crate::graph::{FlowGraph, GraphError};
use crate::ids::{ArcId, NodeId};
use crate::node::NodeKind;

/// One compacted graph change, as consumed by incremental solvers.
///
/// A batch of `GraphDelta`s contains at most one structural entry per
/// surviving entity and no entries at all for entities whose round trip
/// (add then remove) cancelled out.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphDelta {
    /// A node exists now that did not exist at the last handoff.
    NodeAdded {
        /// The new node.
        node: NodeId,
        /// Its kind.
        kind: NodeKind,
        /// Its supply at the end of the batch.
        supply: i64,
    },
    /// A node from the last handoff is gone (its incident arc removals are
    /// emitted separately, earlier in the batch).
    NodeRemoved {
        /// The removed node.
        node: NodeId,
        /// The supply it had *at the last handoff* (not at removal time:
        /// in-batch supply changes are absorbed, and consumers balance
        /// end-state against pre-batch supplies).
        supply: i64,
    },
    /// A surviving node's supply changed.
    SupplyChanged {
        /// The affected node.
        node: NodeId,
        /// Supply at the last handoff.
        old: i64,
        /// Supply now.
        new: i64,
    },
    /// An arc exists now that did not exist at the last handoff.
    ArcAdded {
        /// Forward id of the new pair.
        arc: ArcId,
        /// Tail node.
        src: NodeId,
        /// Head node.
        dst: NodeId,
        /// Capacity at the end of the batch.
        capacity: i64,
        /// Cost at the end of the batch.
        cost: i64,
    },
    /// An arc from the last handoff is gone.
    ArcRemoved {
        /// Forward id of the removed pair.
        arc: ArcId,
        /// Tail node.
        src: NodeId,
        /// Head node.
        dst: NodeId,
        /// Capacity at removal.
        capacity: i64,
        /// Cost at removal.
        cost: i64,
        /// Flow it carried at removal (excess appears at both endpoints).
        flow: i64,
    },
    /// A surviving arc's cost changed.
    CostChanged {
        /// Forward id of the pair.
        arc: ArcId,
        /// Cost at the last handoff.
        old: i64,
        /// Cost now.
        new: i64,
    },
    /// A surviving arc's capacity changed (possibly netting to the same
    /// value, with intermediate flow spills).
    CapacityChanged {
        /// Forward id of the pair.
        arc: ArcId,
        /// Capacity at the last handoff.
        old: i64,
        /// Capacity now.
        new: i64,
        /// Total flow clamped off across the batch (feasibility damage).
        flow_spilled: i64,
    },
    /// Flow was moved at this surviving node outside a solver run (a
    /// [`FlowGraph::note_flow_disturbance`] marker, e.g. the terminus of a
    /// §5.3.2 drain), so its excess must be re-derived even though no
    /// structural delta names it. No replayable effect.
    FlowTouched {
        /// The node whose conservation may have been broken.
        node: NodeId,
    },
}

impl GraphDelta {
    /// Calls `f` on every node at which this change can expose a
    /// reduced-cost violation or an excess against an optimal flow of the
    /// graph before the batch; `graph` is the graph after it. A node may be
    /// reported more than once, and a node the batch removed may be
    /// reported too. Incremental cost scaling repairs exactly the nodes its
    /// batch exposes, and [`DeltaBatch::keeps_optimal`] holds when there
    /// are none.
    pub fn exposed_nodes(&self, graph: &FlowGraph, mut f: impl FnMut(NodeId)) {
        match *self {
            GraphDelta::NodeAdded { node, .. }
            | GraphDelta::SupplyChanged { node, .. }
            | GraphDelta::FlowTouched { node } => f(node),
            GraphDelta::NodeRemoved { .. } => {}
            GraphDelta::ArcRemoved { src, dst, flow, .. } => {
                if flow > 0 {
                    f(src);
                    f(dst);
                }
            }
            GraphDelta::ArcAdded { src, dst, .. } => {
                f(src);
                f(dst);
            }
            GraphDelta::CostChanged { arc, old, new } => {
                // A pure re-price moves no flow, so it can only
                // *expose* a violation, never create excess — and
                // only in the direction the change cheapened:
                //
                // - cost fell: the forward residual's reduced cost
                //   dropped — scan the tail;
                // - cost rose on a flow-carrying arc: the reverse
                //   residual's reduced cost dropped — scan the head;
                // - cost rose on a flowless arc: the forward rc only
                //   grew and the reverse has no residual capacity —
                //   nothing to repair.
                //
                // The last case is the common shape of a convex
                // bundle re-price (upper ladder segments rising as
                // load grows while carrying no flow), which makes
                // per-round re-pricing sweeps nearly free for the
                // warm start.
                if graph.arc_alive(arc) {
                    if new < old {
                        f(graph.src(arc));
                    }
                    if new > old && graph.flow(arc) > 0 {
                        f(graph.dst(arc));
                    }
                }
            }
            GraphDelta::CapacityChanged { arc, .. } => {
                if graph.arc_alive(arc) {
                    f(graph.src(arc));
                    f(graph.dst(arc));
                }
            }
        }
    }
}

/// Per-node compaction state machine.
#[derive(Debug, Clone)]
struct NodeFold {
    /// Did the node exist before the batch? Decided by the first op seen:
    /// `AddNode` first means it did not, anything else means it did.
    existed_before: bool,
    /// Alive at the current point of the fold.
    alive: bool,
    /// Kind, known only when the node was (re-)added within the batch.
    kind: Option<NodeKind>,
    /// Current supply (valid while `alive`).
    supply: i64,
    /// Pre-batch supply (valid when `existed_before`).
    first_old_supply: i64,
    /// First removal of the pre-existing incarnation: (seq, supply).
    removed: Option<(usize, i64)>,
    /// Sequence of the last addition / last supply change, for ordering.
    added_seq: usize,
    supply_seq: usize,
}

/// Removal record of a pre-existing arc: (src, dst, capacity, cost, flow).
type RemovedArc = (NodeId, NodeId, i64, i64, i64);

/// Per-arc compaction state machine (keyed by forward id).
#[derive(Debug, Clone)]
struct ArcFold {
    existed_before: bool,
    alive: bool,
    /// Endpoints, known only when the arc was (re-)added within the batch.
    endpoints: Option<(NodeId, NodeId)>,
    /// Current capacity/cost (valid while `alive`).
    capacity: i64,
    cost: i64,
    /// Pre-batch cost/capacity (valid when `existed_before` and the first
    /// mutating op recorded them).
    first_old_cost: Option<i64>,
    first_old_capacity: Option<i64>,
    /// First removal of the pre-existing incarnation.
    removed: Option<(usize, RemovedArc)>,
    /// Accumulated capacity-clamp spill across the batch.
    spilled: i64,
    added_seq: usize,
    changed_seq: usize,
}

/// A compacted, replayable batch of graph changes covering one handoff
/// window (typically one scheduling round).
///
/// # Examples
///
/// ```
/// use firmament_flow::delta::GraphDelta;
/// use firmament_flow::{FlowGraph, NodeKind};
///
/// let mut g = FlowGraph::new();
/// g.set_change_tracking(true);
/// let t = g.add_node(NodeKind::Task { task: 0 }, 1);
/// let s = g.add_node(NodeKind::Sink, -1);
/// let a = g.add_arc(t, s, 1, 5).unwrap();
/// g.set_arc_cost(a, 7).unwrap();
/// // A node that comes and goes within the round cancels entirely.
/// let ghost = g.add_node(NodeKind::Other { tag: 9 }, 0);
/// g.remove_node(ghost).unwrap();
///
/// let batch = g.take_deltas();
/// assert_eq!(batch.raw_len(), 6);
/// // Two node adds + one arc add (with the final cost folded in).
/// assert_eq!(batch.len(), 3);
/// assert!(batch
///     .deltas()
///     .iter()
///     .any(|d| matches!(d, GraphDelta::ArcAdded { cost: 7, .. })));
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DeltaBatch {
    deltas: Vec<GraphDelta>,
    raw_len: usize,
}

impl DeltaBatch {
    /// An empty batch (what a quiescent round hands the solver).
    pub fn empty() -> Self {
        DeltaBatch::default()
    }

    /// The compacted deltas, in replay (dependency) order.
    pub fn deltas(&self) -> &[GraphDelta] {
        &self.deltas
    }

    /// Number of compacted deltas.
    pub fn len(&self) -> usize {
        self.deltas.len()
    }

    /// `true` if the batch carries no changes (a quiescent round).
    pub fn is_empty(&self) -> bool {
        self.deltas.is_empty()
    }

    /// Number of changes the graph recorded for this batch, before
    /// folding.
    pub fn raw_len(&self) -> usize {
        self.raw_len
    }

    /// Number of pure re-pricings ([`GraphDelta::CostChanged`]) in the
    /// batch — the deltas a convex-bundle segment re-price produces.
    /// Cheap for warm starts (no flow moved, no structure changed), so
    /// telemetry reports them separately from structural churn.
    pub fn cost_changes(&self) -> usize {
        self.deltas
            .iter()
            .filter(|d| matches!(d, GraphDelta::CostChanged { .. }))
            .count()
    }

    /// `true` when no delta exposes a node ([`GraphDelta::exposed_nodes`]),
    /// checked up to the first that does. A flow that was optimal when the
    /// batch began then stays optimal under the same prices (Table 3,
    /// §5.2): the batch at most raises costs on flowless arcs and removes
    /// flowless arcs and nodes, which only takes residual arcs away or
    /// raises the reduced cost of arcs whose reverse has no capacity.
    pub fn keeps_optimal(&self, graph: &FlowGraph) -> bool {
        self.deltas.iter().all(|d| {
            let mut exposes = false;
            d.exposed_nodes(graph, |_| exposes = true);
            !exposes
        })
    }

    /// Replays the batch onto `graph`, which must be a snapshot of the
    /// state the batch was recorded against. Reproduces structure exactly
    /// (ids included); does not touch flow except where capacity clamps
    /// force it (see module docs).
    pub fn replay(&self, graph: &mut FlowGraph) -> Result<(), GraphError> {
        for d in &self.deltas {
            match *d {
                GraphDelta::ArcRemoved { arc, .. } => graph.remove_arc(arc)?,
                GraphDelta::NodeRemoved { node, .. } => {
                    graph.remove_node(node)?;
                }
                GraphDelta::NodeAdded { node, kind, supply } => {
                    graph.restore_node(node, kind, supply)?
                }
                GraphDelta::ArcAdded {
                    arc,
                    src,
                    dst,
                    capacity,
                    cost,
                } => graph.restore_arc(arc, src, dst, capacity, cost)?,
                GraphDelta::SupplyChanged { node, new, .. } => graph.set_supply(node, new)?,
                GraphDelta::CostChanged { arc, new, .. } => graph.set_arc_cost(arc, new)?,
                GraphDelta::CapacityChanged { arc, new, .. } => graph.set_arc_capacity(arc, new)?,
                GraphDelta::FlowTouched { .. } => {}
            }
        }
        Ok(())
    }
}

/// Marks a node or arc slot with no fold in the current batch.
const UNTOUCHED: u32 = u32::MAX;

/// The change log a tracking [`FlowGraph`] keeps: each mutation is folded
/// into its entity's per-batch state as it happens (see the module docs
/// for the rules), and [`take`](Self::take) emits the batch.
///
/// Each node slot and each arc pair slot holds a `u32` index into a dense
/// vector of folds for the entities the current batch touched, so a
/// change costs an array index instead of a hash lookup. The indices are
/// the only state kept between batches — 4 bytes per slot — and after a
/// batch only the touched slots are reset. The folds themselves live for
/// one batch, so a burst (a cold start's whole graph) does not pin its
/// high-water mark. Arcs are named by their forward id.
#[derive(Debug, Clone, Default)]
pub(crate) struct ChangeLog {
    /// Node slot → index into `nodes`, or [`UNTOUCHED`].
    node_index: Vec<u32>,
    /// Arc pair slot (forward id / 2) → index into `arcs`, or
    /// [`UNTOUCHED`].
    arc_index: Vec<u32>,
    /// Folds of the nodes touched this batch, in first-touch order.
    nodes: Vec<(NodeId, NodeFold)>,
    /// Folds of the arcs touched this batch, in first-touch order.
    arcs: Vec<(ArcId, ArcFold)>,
    /// Flow-disturbance markers: (sequence, node slot).
    disturbed: Vec<(usize, u32)>,
    /// Changes recorded this batch; the next change's sequence number.
    seq: usize,
}

/// The fold for `slot`, created by `init` on its first touch this batch.
fn fold_at<'a, K: Copy, F>(
    index: &mut Vec<u32>,
    folds: &'a mut Vec<(K, F)>,
    slot: usize,
    key: K,
    init: impl FnOnce() -> F,
) -> &'a mut F {
    if slot >= index.len() {
        index.resize(slot + 1, UNTOUCHED);
    }
    let i = match index[slot] {
        UNTOUCHED => {
            index[slot] = folds.len() as u32;
            folds.push((key, init()));
            folds.len() - 1
        }
        i => i as usize,
    };
    &mut folds[i].1
}

impl NodeFold {
    /// A node first touched by anything but its addition existed before
    /// the batch, with `supply`.
    fn existing(supply: i64) -> Self {
        NodeFold {
            existed_before: true,
            alive: true,
            kind: None,
            supply,
            first_old_supply: supply,
            removed: None,
            added_seq: 0,
            supply_seq: 0,
        }
    }
}

impl ArcFold {
    /// An arc first touched by anything but its addition existed before
    /// the batch.
    fn existing(capacity: i64, cost: i64) -> Self {
        ArcFold {
            existed_before: true,
            alive: true,
            endpoints: None,
            capacity,
            cost,
            first_old_cost: None,
            first_old_capacity: None,
            removed: None,
            spilled: 0,
            added_seq: 0,
            changed_seq: 0,
        }
    }
}

impl ChangeLog {
    /// Number of changes recorded since the last [`take`](Self::take).
    pub(crate) fn len(&self) -> usize {
        self.seq
    }

    fn next_seq(&mut self) -> usize {
        self.seq += 1;
        self.seq - 1
    }

    fn node(&mut self, node: NodeId, init: impl FnOnce() -> NodeFold) -> &mut NodeFold {
        fold_at(
            &mut self.node_index,
            &mut self.nodes,
            node.index(),
            node,
            init,
        )
    }

    fn arc(&mut self, arc: ArcId, init: impl FnOnce() -> ArcFold) -> &mut ArcFold {
        fold_at(
            &mut self.arc_index,
            &mut self.arcs,
            arc.index() / 2,
            arc,
            init,
        )
    }

    /// A node was added (or restored) at `node`.
    pub(crate) fn node_added(&mut self, node: NodeId, kind: NodeKind, supply: i64) {
        let seq = self.next_seq();
        let f = self.node(node, || NodeFold {
            existed_before: false,
            alive: false,
            ..NodeFold::existing(0)
        });
        f.alive = true;
        f.kind = Some(kind);
        f.supply = supply;
        f.added_seq = seq;
    }

    /// A node holding `supply` was removed; its incident arcs were
    /// recorded as removed before it.
    pub(crate) fn node_removed(&mut self, node: NodeId, supply: i64) {
        let seq = self.next_seq();
        let f = self.node(node, || NodeFold::existing(supply));
        if f.kind.is_none() && f.existed_before && f.removed.is_none() {
            // Removing the pre-existing incarnation.
            f.removed = Some((seq, supply));
        }
        // Otherwise: a within-batch incarnation cancels.
        f.alive = false;
        f.kind = None;
    }

    /// A node's supply changed from `old` to `new`.
    pub(crate) fn supply_changed(&mut self, node: NodeId, old: i64, new: i64) {
        let seq = self.next_seq();
        let f = self.node(node, || NodeFold::existing(old));
        f.supply = new;
        f.supply_seq = seq;
    }

    /// An arc pair was added (or restored) at `arc`.
    pub(crate) fn arc_added(
        &mut self,
        arc: ArcId,
        src: NodeId,
        dst: NodeId,
        capacity: i64,
        cost: i64,
    ) {
        let seq = self.next_seq();
        let f = self.arc(arc, || ArcFold {
            existed_before: false,
            alive: false,
            ..ArcFold::existing(0, 0)
        });
        f.alive = true;
        f.endpoints = Some((src, dst));
        f.capacity = capacity;
        f.cost = cost;
        f.added_seq = seq;
    }

    /// An arc pair was removed while carrying `flow`.
    pub(crate) fn arc_removed(
        &mut self,
        arc: ArcId,
        src: NodeId,
        dst: NodeId,
        capacity: i64,
        cost: i64,
        flow: i64,
    ) {
        let seq = self.next_seq();
        let f = self.arc(arc, || ArcFold {
            first_old_cost: Some(cost),
            first_old_capacity: Some(capacity),
            ..ArcFold::existing(capacity, cost)
        });
        if f.endpoints.is_none() && f.existed_before && f.removed.is_none() {
            f.removed = Some((seq, (src, dst, capacity, cost, flow)));
        } else {
            // Within-batch incarnation cancels; the contract guarantees it
            // never carried flow (no solver runs inside a batch window).
            debug_assert_eq!(
                flow, 0,
                "within-batch arc {arc} removed while carrying flow"
            );
        }
        f.alive = false;
        f.endpoints = None;
    }

    /// An arc's cost changed from `old` to `new`.
    pub(crate) fn cost_changed(&mut self, arc: ArcId, old: i64, new: i64) {
        let seq = self.next_seq();
        let f = self.arc(arc, || ArcFold::existing(0, old));
        if f.endpoints.is_none() && f.first_old_cost.is_none() {
            f.first_old_cost = Some(old);
        }
        f.cost = new;
        f.changed_seq = seq;
    }

    /// An arc's capacity changed from `old` to `new`, clamping `spilled`
    /// units of flow off it.
    pub(crate) fn capacity_changed(&mut self, arc: ArcId, old: i64, new: i64, spilled: i64) {
        let seq = self.next_seq();
        let f = self.arc(arc, || ArcFold::existing(old, 0));
        if f.endpoints.is_none() && f.first_old_capacity.is_none() {
            f.first_old_capacity = Some(old);
        }
        f.capacity = new;
        f.spilled += spilled;
        f.changed_seq = seq;
    }

    /// Flow was moved at `node` outside a solver run.
    pub(crate) fn flow_disturbed(&mut self, node: NodeId) {
        let seq = self.next_seq();
        self.disturbed.push((seq, node.index() as u32));
    }

    /// Drops the batch without emitting it. Only the slots it touched are
    /// reset, and the folds are freed.
    pub(crate) fn clear(&mut self) {
        for (node, _) in std::mem::take(&mut self.nodes) {
            self.node_index[node.index()] = UNTOUCHED;
        }
        for (arc, _) in std::mem::take(&mut self.arcs) {
            self.arc_index[arc.index() / 2] = UNTOUCHED;
        }
        self.disturbed = Vec::new();
        self.seq = 0;
    }

    /// Emits the batch recorded since the last call and starts the next.
    pub(crate) fn take(&mut self) -> DeltaBatch {
        // Emission in dependency order (see module docs); within each
        // category, by the sequence number of the defining operation, so
        // replay follows the live graph's slot-allocation history. Every
        // entry's sequence number belongs to a change of its own entity,
        // so the stable sorts below make the order independent of the
        // order the folds are visited in.
        let mut arc_removed: Vec<(usize, GraphDelta)> = Vec::new();
        let mut node_removed: Vec<(usize, GraphDelta)> = Vec::new();
        let mut node_added: Vec<(usize, GraphDelta)> = Vec::new();
        let mut arc_added: Vec<(usize, GraphDelta)> = Vec::new();
        let mut mutated: Vec<(usize, GraphDelta)> = Vec::new();
        for &(arc, ref f) in &self.arcs {
            if let Some((seq, (src, dst, capacity, cost, flow))) = f.removed {
                arc_removed.push((
                    seq,
                    GraphDelta::ArcRemoved {
                        arc,
                        src,
                        dst,
                        capacity,
                        cost,
                        flow,
                    },
                ));
                // Feasibility damage must survive removal: a capacity
                // clamp earlier in the batch spilled flow (excess at both
                // endpoints), but the removal records the *post-clamp*
                // flow — possibly 0 — so without these markers the
                // solver would never re-derive the endpoints' excesses.
                if f.spilled > 0 {
                    mutated.push((seq, GraphDelta::FlowTouched { node: src }));
                    mutated.push((seq, GraphDelta::FlowTouched { node: dst }));
                }
            }
            if !f.alive {
                continue;
            }
            match f.endpoints {
                // (Re-)added within the batch.
                Some((src, dst)) => arc_added.push((
                    f.added_seq,
                    GraphDelta::ArcAdded {
                        arc,
                        src,
                        dst,
                        capacity: f.capacity,
                        cost: f.cost,
                    },
                )),
                // Survived in place: merged mutations only.
                None => {
                    if let Some(old) = f.first_old_cost {
                        if old != f.cost {
                            mutated.push((
                                f.changed_seq,
                                GraphDelta::CostChanged {
                                    arc,
                                    old,
                                    new: f.cost,
                                },
                            ));
                        }
                    }
                    if let Some(old) = f.first_old_capacity {
                        if old != f.capacity || f.spilled > 0 {
                            mutated.push((
                                f.changed_seq,
                                GraphDelta::CapacityChanged {
                                    arc,
                                    old,
                                    new: f.capacity,
                                    flow_spilled: f.spilled,
                                },
                            ));
                        }
                    }
                }
            }
        }
        for &(node, ref f) in &self.nodes {
            if let Some((seq, _removal_supply)) = f.removed {
                // Report the pre-batch supply, not the removal-time one:
                // in-batch supply changes were absorbed into this entry,
                // and the solver's balance check sums end-state minus
                // pre-batch supplies.
                node_removed.push((
                    seq,
                    GraphDelta::NodeRemoved {
                        node,
                        supply: f.first_old_supply,
                    },
                ));
            }
            if !f.alive {
                continue;
            }
            match f.kind {
                // (Re-)added within the batch.
                Some(kind) => node_added.push((
                    f.added_seq,
                    GraphDelta::NodeAdded {
                        node,
                        kind,
                        supply: f.supply,
                    },
                )),
                // Survived in place: merged supply change only.
                None => {
                    if f.first_old_supply != f.supply {
                        mutated.push((
                            f.supply_seq,
                            GraphDelta::SupplyChanged {
                                node,
                                old: f.first_old_supply,
                                new: f.supply,
                            },
                        ));
                    }
                }
            }
        }

        // Flow-disturbance markers survive for nodes still alive at the
        // end of the batch and not already covered by their own
        // added/removed entry.
        let disturbed = &mut self.disturbed;
        disturbed.sort_unstable_by_key(|&(seq, n)| (n, seq));
        disturbed.dedup_by_key(|&mut (_, n)| n);
        for &(seq, raw) in disturbed.iter() {
            let dead_or_readded = match self.node_index.get(raw as usize) {
                Some(&i) if i != UNTOUCHED => {
                    let f = &self.nodes[i as usize].1;
                    !f.alive || f.kind.is_some()
                }
                _ => false,
            };
            if !dead_or_readded {
                mutated.push((
                    seq,
                    GraphDelta::FlowTouched {
                        node: NodeId::from_index(raw as usize),
                    },
                ));
            }
        }

        let raw_len = self.seq;
        self.clear();
        let mut buffers = [arc_removed, node_removed, node_added, arc_added, mutated];
        let mut deltas = Vec::with_capacity(buffers.iter().map(|v| v.len()).sum());
        for v in &mut buffers {
            v.sort_by_key(|(seq, _)| *seq);
            deltas.extend(v.drain(..).map(|(_, d)| d));
        }
        DeltaBatch { deltas, raw_len }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tracked() -> FlowGraph {
        let mut g = FlowGraph::new();
        g.set_change_tracking(true);
        g
    }

    /// Asserts that `replayed` and `live` are structurally identical slot
    /// by slot (ids, kinds, supplies, arc endpoints, capacities, costs).
    /// Bounds may differ only by trailing dead slots: entities that
    /// cancelled within a batch still grew the live arena, but never reach
    /// the replayed snapshot.
    fn assert_same_structure(replayed: &FlowGraph, live: &FlowGraph) {
        for i in 0..live.node_bound().max(replayed.node_bound()) {
            let n = NodeId::from_index(i);
            assert_eq!(replayed.node_alive(n), live.node_alive(n), "alive {n}");
            if live.node_alive(n) {
                assert_eq!(replayed.kind(n), live.kind(n), "kind {n}");
                assert_eq!(replayed.supply(n), live.supply(n), "supply {n}");
            }
        }
        for i in (0..live.arc_bound().max(replayed.arc_bound())).step_by(2) {
            let a = ArcId::from_index(i);
            assert_eq!(replayed.arc_alive(a), live.arc_alive(a), "alive {a}");
            if live.arc_alive(a) {
                assert_eq!(replayed.src(a), live.src(a), "src {a}");
                assert_eq!(replayed.dst(a), live.dst(a), "dst {a}");
                assert_eq!(replayed.capacity(a), live.capacity(a), "capacity {a}");
                assert_eq!(replayed.cost(a), live.cost(a), "cost {a}");
            }
        }
    }

    #[test]
    fn add_then_remove_cancels() {
        let mut g = tracked();
        let t = g.add_node(NodeKind::Task { task: 1 }, 1);
        let s = g.add_node(NodeKind::Sink, -1);
        g.take_deltas();
        let snapshot = g.clone();

        let ghost = g.add_node(NodeKind::Other { tag: 5 }, 0);
        let a = g.add_arc(t, ghost, 1, 3).unwrap();
        g.set_arc_cost(a, 9).unwrap();
        g.remove_node(ghost).unwrap();
        let batch = g.take_deltas();
        assert!(batch.is_empty(), "round-trip must cancel: {:?}", batch);

        let mut replayed = snapshot;
        batch.replay(&mut replayed).unwrap();
        assert_same_structure(&replayed, &g);
        let _ = s;
    }

    #[test]
    fn cost_and_capacity_changes_merge() {
        let mut g = tracked();
        let t = g.add_node(NodeKind::Task { task: 1 }, 1);
        let s = g.add_node(NodeKind::Sink, -1);
        let a = g.add_arc(t, s, 5, 3).unwrap();
        g.take_deltas();

        g.set_arc_cost(a, 10).unwrap();
        g.set_arc_cost(a, 4).unwrap();
        g.set_arc_capacity(a, 2).unwrap();
        g.set_arc_capacity(a, 7).unwrap();
        let batch = g.take_deltas();
        assert_eq!(batch.len(), 2);
        assert!(batch.deltas().contains(&GraphDelta::CostChanged {
            arc: a,
            old: 3,
            new: 4
        }));
        assert!(batch.deltas().contains(&GraphDelta::CapacityChanged {
            arc: a,
            old: 5,
            new: 7,
            flow_spilled: 0
        }));
    }

    #[test]
    fn netted_out_changes_vanish_but_spill_survives() {
        let mut g = tracked();
        let t = g.add_node(NodeKind::Task { task: 1 }, 1);
        let s = g.add_node(NodeKind::Sink, -1);
        let a = g.add_arc(t, s, 5, 3).unwrap();
        g.push_flow(a, 4);
        g.take_deltas();

        g.set_arc_cost(a, 10).unwrap();
        g.set_arc_cost(a, 3).unwrap();
        let batch = g.take_deltas();
        assert!(batch.is_empty(), "netted cost change must vanish");

        // Capacity 5 → 1 (spills 3 units) → 5 again: the capacity netted
        // out but the spilled flow is real damage and must be reported.
        g.set_arc_capacity(a, 1).unwrap();
        g.set_arc_capacity(a, 5).unwrap();
        let batch = g.take_deltas();
        assert_eq!(
            batch.deltas(),
            &[GraphDelta::CapacityChanged {
                arc: a,
                old: 5,
                new: 5,
                flow_spilled: 3
            }]
        );
    }

    #[test]
    fn removal_absorbs_prior_changes() {
        let mut g = tracked();
        let t = g.add_node(NodeKind::Task { task: 1 }, 1);
        let s = g.add_node(NodeKind::Sink, -1);
        let a = g.add_arc(t, s, 5, 3).unwrap();
        g.take_deltas();
        let snapshot = g.clone();

        g.set_arc_cost(a, 10).unwrap();
        g.remove_arc(a).unwrap();
        let batch = g.take_deltas();
        assert_eq!(batch.len(), 1);
        assert!(matches!(
            batch.deltas()[0],
            GraphDelta::ArcRemoved { arc, cost: 10, .. } if arc == a
        ));
        let mut replayed = snapshot;
        batch.replay(&mut replayed).unwrap();
        assert_same_structure(&replayed, &g);
    }

    #[test]
    fn slot_reuse_across_removal_replays_exactly() {
        let mut g = tracked();
        let t = g.add_node(NodeKind::Task { task: 1 }, 1);
        let m = g.add_node(NodeKind::Machine { machine: 0 }, 0);
        let s = g.add_node(NodeKind::Sink, -1);
        let tm = g.add_arc(t, m, 1, 2).unwrap();
        g.add_arc(m, s, 1, 0).unwrap();
        g.take_deltas();
        let snapshot = g.clone();

        // Remove the machine (freeing its node slot and both arc pairs),
        // then add a different machine that reuses the slot, plus an arc
        // reusing a freed pair.
        g.remove_node(m).unwrap();
        let m2 = g.add_node(NodeKind::Machine { machine: 9 }, 0);
        assert_eq!(m2, m, "slot reuse expected");
        let tm2 = g.add_arc(t, m2, 3, 8).unwrap();
        assert!(tm2 == tm || g.arc_alive(tm2));
        let batch = g.take_deltas();

        let mut replayed = snapshot;
        batch.replay(&mut replayed).unwrap();
        assert_same_structure(&replayed, &g);
    }

    #[test]
    fn reincarnated_node_emits_remove_then_add() {
        let mut g = tracked();
        let m = g.add_node(NodeKind::Machine { machine: 0 }, 0);
        g.take_deltas();

        g.remove_node(m).unwrap();
        let m2 = g.add_node(NodeKind::Machine { machine: 7 }, 0);
        assert_eq!(m2, m);
        let batch = g.take_deltas();
        assert_eq!(batch.len(), 2);
        assert!(matches!(batch.deltas()[0], GraphDelta::NodeRemoved { .. }));
        assert!(matches!(
            batch.deltas()[1],
            GraphDelta::NodeAdded {
                kind: NodeKind::Machine { machine: 7 },
                ..
            }
        ));
    }

    /// A capacity clamp that spills flow followed by removal of the same
    /// arc must still surface the endpoints (the spill is feasibility
    /// damage; the removal records the post-clamp flow of 0).
    #[test]
    fn spill_then_remove_still_marks_endpoints() {
        let mut g = tracked();
        let t = g.add_node(NodeKind::Task { task: 1 }, 1);
        let s = g.add_node(NodeKind::Sink, -1);
        let a = g.add_arc(t, s, 5, 3).unwrap();
        g.push_flow(a, 4);
        g.take_deltas();

        g.set_arc_capacity(a, 0).unwrap(); // spills all 4 units
        g.remove_arc(a).unwrap(); // removal-time flow is 0
        let batch = g.take_deltas();
        assert!(matches!(
            batch.deltas()[0],
            GraphDelta::ArcRemoved { flow: 0, .. }
        ));
        let touched: Vec<NodeId> = batch
            .deltas()
            .iter()
            .filter_map(|d| match d {
                GraphDelta::FlowTouched { node } => Some(*node),
                _ => None,
            })
            .collect();
        assert!(touched.contains(&t), "spilled tail must be marked");
        assert!(touched.contains(&s), "spilled head must be marked");
    }

    /// A node whose supply changes and is then removed in the same batch
    /// must report its *pre-batch* supply, so end-state-minus-pre-batch
    /// balance sums stay exact.
    #[test]
    fn removed_node_reports_pre_batch_supply() {
        let mut g = tracked();
        let x = g.add_node(NodeKind::Task { task: 1 }, 3);
        let s = g.add_node(NodeKind::Sink, -3);
        g.take_deltas();

        g.set_supply(x, 7).unwrap();
        g.set_supply(s, -7).unwrap();
        g.remove_node(x).unwrap();
        g.set_supply(s, 0).unwrap();
        let batch = g.take_deltas();
        // Net supply delta across the batch: (removed x: -3) + (sink
        // -3 → 0: +3) = 0 — balanced, as the graph genuinely is.
        let mut delta = 0i64;
        for d in batch.deltas() {
            match *d {
                GraphDelta::NodeAdded { supply, .. } => delta += supply,
                GraphDelta::NodeRemoved { supply, .. } => delta -= supply,
                GraphDelta::SupplyChanged { old, new, .. } => delta += new - old,
                _ => {}
            }
        }
        assert_eq!(delta, 0, "batch must net to zero: {:?}", batch.deltas());
    }

    #[test]
    fn supply_changes_merge_end_to_end() {
        let mut g = tracked();
        let s = g.add_node(NodeKind::Sink, -3);
        g.take_deltas();
        g.set_supply(s, -4).unwrap();
        g.set_supply(s, -6).unwrap();
        let batch = g.take_deltas();
        assert_eq!(
            batch.deltas(),
            &[GraphDelta::SupplyChanged {
                node: s,
                old: -3,
                new: -6
            }]
        );
        g.set_supply(s, -2).unwrap();
        g.set_supply(s, -6).unwrap();
        assert!(g.take_deltas().is_empty());
    }

    #[test]
    fn new_node_supply_folds_into_added() {
        let mut g = tracked();
        g.add_node(NodeKind::Sink, 0);
        g.take_deltas();
        let t = g.add_node(NodeKind::Task { task: 3 }, 1);
        g.set_supply(t, 2).unwrap();
        let batch = g.take_deltas();
        assert_eq!(
            batch.deltas(),
            &[GraphDelta::NodeAdded {
                node: t,
                kind: NodeKind::Task { task: 3 },
                supply: 2
            }]
        );
    }

    #[test]
    fn randomized_mutation_scripts_replay_exactly() {
        use crate::testgen::XorShift64;
        for seed in 1..20u64 {
            let mut rng = XorShift64::new(seed);
            let mut g = tracked();
            let sink = g.add_node(NodeKind::Sink, 0);
            let mut machines = Vec::new();
            for i in 0..4 {
                let m = g.add_node(NodeKind::Machine { machine: i }, 0);
                g.add_arc(m, sink, 2, 0).unwrap();
                machines.push(m);
            }
            g.take_deltas();
            for round in 0..10 {
                let snapshot = g.clone();
                for _ in 0..(1 + rng.below(6)) {
                    match rng.below(6) {
                        0 => {
                            let t = g.add_node(
                                NodeKind::Task {
                                    task: rng.below(1 << 30),
                                },
                                1,
                            );
                            let m = machines[rng.below(machines.len() as u64) as usize];
                            if g.node_alive(m) {
                                g.add_arc(t, m, 1, rng.below(100) as i64).unwrap();
                            }
                        }
                        1 => {
                            let alive: Vec<NodeId> = g
                                .node_ids()
                                .filter(|&n| matches!(g.kind(n), NodeKind::Task { .. }))
                                .collect();
                            if let Some(&t) =
                                alive.get(rng.below((alive.len().max(1)) as u64) as usize)
                            {
                                g.remove_node(t).unwrap();
                            }
                        }
                        2 | 3 => {
                            let arcs: Vec<ArcId> = g.arc_ids().collect();
                            if let Some(&a) = arcs.get(rng.below(arcs.len().max(1) as u64) as usize)
                            {
                                g.set_arc_cost(a, rng.below(200) as i64 - 100).unwrap();
                            }
                        }
                        4 => {
                            let arcs: Vec<ArcId> = g.arc_ids().collect();
                            if let Some(&a) = arcs.get(rng.below(arcs.len().max(1) as u64) as usize)
                            {
                                g.set_arc_capacity(a, rng.below(5) as i64).unwrap();
                            }
                        }
                        _ => {
                            g.set_supply(sink, -(rng.below(10) as i64)).unwrap();
                        }
                    }
                }
                let batch = g.take_deltas();
                let mut replayed = snapshot;
                batch
                    .replay(&mut replayed)
                    .unwrap_or_else(|e| panic!("seed {seed} round {round}: {e}"));
                assert_same_structure(&replayed, &g);
            }
        }
    }
}
