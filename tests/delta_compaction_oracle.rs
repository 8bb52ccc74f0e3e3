//! Compaction oracle: the batches a tracked [`FlowGraph`] folds as it
//! mutates, against a verbatim copy of the `HashMap`-based compaction of
//! a raw change stream that the graph once recorded.
//!
//! A [`Recorder`] wraps the graph and, beside each mutation, logs the raw
//! [`GraphChange`] the graph used to append, read from the pre-state. So
//! every stream is one a graph owner can produce. Random streams cover
//! slot reuse, add→remove cancellation, re-pricing, capacity spills (flow
//! is pushed between batches) and `FlowDisturbed` markers, and each script
//! takes six batches from one graph, so the lazy per-slot reset between
//! batches is exercised. A targeted stream asserts that spills,
//! cancellations and slot reuse occur.
//!
//! Every batch is also pinned by a digest (its raw length plus the `Debug`
//! of its deltas, as in `delta_pins`), recorded when the graph still kept
//! a raw log beside a separate compactor. Two 30-round `Firmament` runs —
//! Quincy and the bucketed hierarchy — pin every round's batch as the
//! scheduler's own manager takes it. The tests keep their names from
//! then: "compactor" is now the graph's own folding, and the two round
//! tests match the reference through pins recorded while the reference
//! was compared against the manager's raw log.

mod common;

use firmament::cluster::ClusterEvent;
use firmament::core::Firmament;
use firmament::flow::delta::{DeltaBatch, GraphDelta};
use firmament::flow::testgen::XorShift64;
use firmament::flow::{ArcId, FlowGraph, NodeId, NodeKind};
use firmament::mcmf::{DualConfig, SolverKind};
use firmament::policies::{
    CostModel, HierarchicalTopologyCostModel, QuincyConfig, QuincyCostModel,
};
use std::collections::HashMap;

/// One raw mutation of a [`FlowGraph`], as the graph logged it before it
/// folded changes into their batch itself.
#[derive(Debug, Clone, PartialEq, Eq)]
enum GraphChange {
    /// A node was added.
    AddNode {
        node: NodeId,
        kind: NodeKind,
        supply: i64,
    },
    /// A node was removed; its incident arc removals come before it.
    RemoveNode { node: NodeId, supply: i64 },
    /// A node's supply changed.
    SupplyChange { node: NodeId, old: i64, new: i64 },
    /// An arc was added.
    AddArc {
        arc: ArcId,
        src: NodeId,
        dst: NodeId,
        capacity: i64,
        cost: i64,
    },
    /// An arc was removed while carrying `flow`.
    RemoveArc {
        arc: ArcId,
        src: NodeId,
        dst: NodeId,
        capacity: i64,
        cost: i64,
        flow: i64,
    },
    /// An arc's capacity changed; `flow_spilled` units were clamped off.
    CapacityChange {
        arc: ArcId,
        old: i64,
        new: i64,
        flow_spilled: i64,
    },
    /// An arc's cost changed.
    CostChange { arc: ArcId, old: i64, new: i64 },
    /// Flow was moved at this node outside a solver run.
    FlowDisturbed { node: NodeId },
}

/// The removal entry of the live forward arc `arc`.
fn removal(g: &FlowGraph, arc: ArcId) -> GraphChange {
    GraphChange::RemoveArc {
        arc,
        src: g.src(arc),
        dst: g.dst(arc),
        capacity: g.capacity(arc),
        cost: g.cost(arc),
        flow: g.flow(arc),
    }
}

/// A tracked graph plus the raw change stream it once recorded: each
/// mutator reads the pre-state, logs what the graph logged, and then
/// mutates the graph. Reads go to the graph through `Deref`; there is no
/// `DerefMut`, so every mutation is logged.
struct Recorder {
    g: FlowGraph,
    log: Vec<GraphChange>,
}

impl std::ops::Deref for Recorder {
    type Target = FlowGraph;
    fn deref(&self) -> &FlowGraph {
        &self.g
    }
}

impl Recorder {
    fn new() -> Self {
        let mut g = FlowGraph::new();
        g.set_change_tracking(true);
        Recorder { g, log: Vec::new() }
    }

    fn add_node(&mut self, kind: NodeKind, supply: i64) -> NodeId {
        let node = self.g.add_node(kind, supply);
        self.log.push(GraphChange::AddNode { node, kind, supply });
        node
    }

    /// Incident arcs first, in adjacency order, as the graph removes them.
    fn remove_node(&mut self, node: NodeId) {
        for &a in self.g.adj(node) {
            self.log.push(removal(&self.g, a.forward()));
        }
        let supply = self.g.supply(node);
        self.log.push(GraphChange::RemoveNode { node, supply });
        self.g.remove_node(node).unwrap();
    }

    fn set_supply(&mut self, node: NodeId, new: i64) {
        let old = self.g.supply(node);
        if old != new {
            self.log.push(GraphChange::SupplyChange { node, old, new });
        }
        self.g.set_supply(node, new).unwrap();
    }

    fn add_arc(&mut self, src: NodeId, dst: NodeId, capacity: i64, cost: i64) -> ArcId {
        let arc = self.g.add_arc(src, dst, capacity, cost).unwrap();
        self.log.push(GraphChange::AddArc {
            arc,
            src,
            dst,
            capacity,
            cost,
        });
        arc
    }

    fn remove_arc(&mut self, arc: ArcId) {
        self.log.push(removal(&self.g, arc.forward()));
        self.g.remove_arc(arc).unwrap();
    }

    fn set_arc_cost(&mut self, arc: ArcId, new: i64) {
        let arc = arc.forward();
        let old = self.g.cost(arc);
        if old != new {
            self.log.push(GraphChange::CostChange { arc, old, new });
        }
        self.g.set_arc_cost(arc, new).unwrap();
    }

    fn set_arc_capacity(&mut self, arc: ArcId, new: i64) {
        let arc = arc.forward();
        let old = self.g.capacity(arc);
        if old != new {
            let flow_spilled = (self.g.flow(arc) - new).max(0);
            self.log.push(GraphChange::CapacityChange {
                arc,
                old,
                new,
                flow_spilled,
            });
        }
        self.g.set_arc_capacity(arc, new).unwrap();
    }

    fn note_flow_disturbance(&mut self, node: NodeId) {
        if self.g.node_alive(node) {
            self.log.push(GraphChange::FlowDisturbed { node });
        }
        self.g.note_flow_disturbance(node);
    }

    /// Flow is not a change: nothing is logged.
    fn push_flow(&mut self, arc: ArcId, delta: i64) {
        self.g.push_flow(arc, delta);
    }

    /// The graph's batch and the raw stream logged beside it.
    fn take(&mut self) -> (DeltaBatch, Vec<GraphChange>) {
        (self.g.take_deltas(), std::mem::take(&mut self.log))
    }
}

/// Per-node compaction state machine.
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

/// The compaction of a raw change stream that `DeltaBatch::compact` ran
/// before a persistent slot-indexed compactor replaced it, verbatim
/// except that it returns (deltas, raw length).
fn reference_compact(changes: Vec<GraphChange>) -> (Vec<GraphDelta>, usize) {
    let raw_len = changes.len();
    let mut nodes: HashMap<u32, NodeFold> = HashMap::new();
    let mut arcs: HashMap<u32, ArcFold> = HashMap::new();
    // Nodes with flow disturbances, by first marker sequence.
    let mut disturbed: Vec<(usize, u32)> = Vec::new();

    for (seq, change) in changes.into_iter().enumerate() {
        match change {
            GraphChange::FlowDisturbed { node } => {
                disturbed.push((seq, node.index() as u32));
                continue;
            }
            GraphChange::AddNode { node, kind, supply } => {
                let f = nodes
                    .entry(node.index() as u32)
                    .or_insert_with(|| NodeFold {
                        existed_before: false,
                        alive: false,
                        kind: None,
                        supply: 0,
                        first_old_supply: 0,
                        removed: None,
                        added_seq: 0,
                        supply_seq: 0,
                    });
                f.alive = true;
                f.kind = Some(kind);
                f.supply = supply;
                f.added_seq = seq;
            }
            GraphChange::RemoveNode { node, supply } => {
                let f = nodes
                    .entry(node.index() as u32)
                    .or_insert_with(|| NodeFold {
                        existed_before: true,
                        alive: true,
                        kind: None,
                        supply,
                        first_old_supply: supply,
                        removed: None,
                        added_seq: 0,
                        supply_seq: 0,
                    });
                if f.kind.is_none() && f.existed_before && f.removed.is_none() {
                    // Removing the pre-existing incarnation.
                    f.removed = Some((seq, supply));
                }
                // Otherwise: a within-batch incarnation cancels.
                f.alive = false;
                f.kind = None;
            }
            GraphChange::SupplyChange { node, old, new } => {
                let f = nodes
                    .entry(node.index() as u32)
                    .or_insert_with(|| NodeFold {
                        existed_before: true,
                        alive: true,
                        kind: None,
                        supply: old,
                        first_old_supply: old,
                        removed: None,
                        added_seq: 0,
                        supply_seq: 0,
                    });
                f.supply = new;
                f.supply_seq = seq;
            }
            GraphChange::AddArc {
                arc,
                src,
                dst,
                capacity,
                cost,
            } => {
                let f = arcs.entry(arc.index() as u32).or_insert_with(|| ArcFold {
                    existed_before: false,
                    alive: false,
                    endpoints: None,
                    capacity: 0,
                    cost: 0,
                    first_old_cost: None,
                    first_old_capacity: None,
                    removed: None,
                    spilled: 0,
                    added_seq: 0,
                    changed_seq: 0,
                });
                f.alive = true;
                f.endpoints = Some((src, dst));
                f.capacity = capacity;
                f.cost = cost;
                f.added_seq = seq;
            }
            GraphChange::RemoveArc {
                arc,
                src,
                dst,
                capacity,
                cost,
                flow,
            } => {
                let f = arcs.entry(arc.index() as u32).or_insert_with(|| ArcFold {
                    existed_before: true,
                    alive: true,
                    endpoints: None,
                    capacity,
                    cost,
                    first_old_cost: Some(cost),
                    first_old_capacity: Some(capacity),
                    removed: None,
                    spilled: 0,
                    added_seq: 0,
                    changed_seq: 0,
                });
                if f.endpoints.is_none() && f.existed_before && f.removed.is_none() {
                    f.removed = Some((seq, (src, dst, capacity, cost, flow)));
                } else {
                    // Within-batch incarnation cancels; the contract
                    // guarantees it never carried flow (no solver runs
                    // inside a batch window).
                    debug_assert_eq!(
                        flow, 0,
                        "within-batch arc {arc} removed while carrying flow"
                    );
                }
                f.alive = false;
                f.endpoints = None;
            }
            GraphChange::CostChange { arc, old, new } => {
                let f = arcs.entry(arc.index() as u32).or_insert_with(|| ArcFold {
                    existed_before: true,
                    alive: true,
                    endpoints: None,
                    capacity: 0,
                    cost: old,
                    first_old_cost: None,
                    first_old_capacity: None,
                    removed: None,
                    spilled: 0,
                    added_seq: 0,
                    changed_seq: 0,
                });
                if f.endpoints.is_none() && f.first_old_cost.is_none() {
                    f.first_old_cost = Some(old);
                }
                f.cost = new;
                f.changed_seq = seq;
            }
            GraphChange::CapacityChange {
                arc,
                old,
                new,
                flow_spilled,
            } => {
                let f = arcs.entry(arc.index() as u32).or_insert_with(|| ArcFold {
                    existed_before: true,
                    alive: true,
                    endpoints: None,
                    capacity: old,
                    cost: 0,
                    first_old_cost: None,
                    first_old_capacity: None,
                    removed: None,
                    spilled: 0,
                    added_seq: 0,
                    changed_seq: 0,
                });
                if f.endpoints.is_none() && f.first_old_capacity.is_none() {
                    f.first_old_capacity = Some(old);
                }
                f.capacity = new;
                f.spilled += flow_spilled;
                f.changed_seq = seq;
            }
        }
    }

    // Emission in dependency order (see module docs); within each
    // category, by the sequence number of the defining operation, so
    // replay follows the live graph's slot-allocation history.
    let mut arc_removed: Vec<(usize, GraphDelta)> = Vec::new();
    let mut node_removed: Vec<(usize, GraphDelta)> = Vec::new();
    let mut node_added: Vec<(usize, GraphDelta)> = Vec::new();
    let mut arc_added: Vec<(usize, GraphDelta)> = Vec::new();
    let mut mutated: Vec<(usize, GraphDelta)> = Vec::new();

    for (raw, f) in &arcs {
        let arc = ArcId::from_index(*raw as usize);
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
    for (raw, f) in &nodes {
        let node = NodeId::from_index(*raw as usize);
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
    disturbed.sort_unstable_by_key(|&(seq, n)| (n, seq));
    disturbed.dedup_by_key(|&mut (_, n)| n);
    for (seq, raw) in disturbed {
        let dead_or_readded = nodes
            .get(&raw)
            .map(|f| !f.alive || f.kind.is_some())
            .unwrap_or(false);
        if !dead_or_readded {
            mutated.push((
                seq,
                GraphDelta::FlowTouched {
                    node: NodeId::from_index(raw as usize),
                },
            ));
        }
    }

    for v in [
        &mut arc_removed,
        &mut node_removed,
        &mut node_added,
        &mut arc_added,
        &mut mutated,
    ] {
        v.sort_by_key(|(seq, _)| *seq);
    }
    let mut deltas = Vec::with_capacity(
        arc_removed.len() + node_removed.len() + node_added.len() + arc_added.len() + mutated.len(),
    );
    for v in [arc_removed, node_removed, node_added, arc_added, mutated] {
        deltas.extend(v.into_iter().map(|(_, d)| d));
    }
    (deltas, raw_len)
}

/// FNV-1a over `bytes`.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn digest(batch: &DeltaBatch) -> u64 {
    fnv1a(format!("{} {:?}", batch.raw_len(), batch.deltas()).as_bytes())
}

fn assert_pinned(what: &str, got: &[u64], want: &[u64]) {
    if let Some(b) = (0..got.len().max(want.len())).find(|&b| got.get(b) != want.get(b)) {
        panic!("{what}: batch {b} changed; recorded {want:#018x?}, got {got:#018x?}");
    }
}

fn assert_same(batch: &DeltaBatch, changes: Vec<GraphChange>, what: &str) {
    let (deltas, raw_len) = reference_compact(changes);
    assert_eq!(batch.raw_len(), raw_len, "{what}: raw length");
    assert_eq!(batch.deltas(), deltas.as_slice(), "{what}: deltas");
}

/// A random live node whose kind satisfies `want`, if any.
fn pick(g: &FlowGraph, rng: &mut XorShift64, want: fn(&NodeKind) -> bool) -> Option<NodeId> {
    let nodes: Vec<NodeId> = g.node_ids().filter(|&n| want(&g.kind(n))).collect();
    (!nodes.is_empty()).then(|| nodes[rng.below(nodes.len() as u64) as usize])
}

fn pick_arc(g: &FlowGraph, rng: &mut XorShift64) -> Option<ArcId> {
    let arcs: Vec<ArcId> = g.arc_ids().collect();
    (!arcs.is_empty()).then(|| arcs[rng.below(arcs.len() as u64) as usize])
}

/// One random mutation of a task → machine → sink graph.
fn mutate(g: &mut Recorder, rng: &mut XorShift64, sink: NodeId, next_id: &mut u64) {
    let is_task = |k: &NodeKind| matches!(k, NodeKind::Task { .. });
    let is_machine = |k: &NodeKind| matches!(k, NodeKind::Machine { .. });
    match rng.below(10) {
        // A task arrives with arcs to two machines.
        0 | 1 => {
            *next_id += 1;
            let t = g.add_node(NodeKind::Task { task: *next_id }, 1);
            for _ in 0..2 {
                if let Some(m) = pick(g, rng, is_machine) {
                    g.add_arc(t, m, 1, rng.below(50) as i64);
                }
            }
        }
        // A task leaves, possibly in the batch it arrived in (cancels).
        2 => {
            if let Some(t) = pick(g, rng, is_task) {
                g.remove_node(t);
            }
        }
        // A machine fails (freeing slots for reuse) or joins.
        3 => {
            if rng.below(2) == 0 {
                if let Some(m) = pick(g, rng, is_machine) {
                    g.remove_node(m);
                }
            } else {
                *next_id += 1;
                let m = g.add_node(NodeKind::Machine { machine: *next_id }, 0);
                g.add_arc(m, sink, 1 + rng.below(4) as i64, 0);
            }
        }
        // Re-pricing, sometimes back to the batch's starting cost.
        4 | 5 => {
            if let Some(a) = pick_arc(g, rng) {
                let cost = g.cost(a);
                g.set_arc_cost(a, cost + rng.below(5) as i64 - 2);
            }
        }
        // A capacity change; shrinking below the flow spills it.
        6 => {
            if let Some(a) = pick_arc(g, rng) {
                g.set_arc_capacity(a, rng.below(4) as i64);
            }
        }
        // An arc removed and a new one added, reusing freed pairs.
        7 => {
            if let Some(a) = pick_arc(g, rng) {
                g.remove_arc(a);
            }
            if let (Some(t), Some(m)) = (pick(g, rng, is_task), pick(g, rng, is_machine)) {
                g.add_arc(t, m, 1, rng.below(50) as i64);
            }
        }
        // A drain's terminus: flow moved outside a solver run.
        8 => {
            if let Some(n) = pick(g, rng, |_| true) {
                g.note_flow_disturbance(n);
            }
        }
        _ => {
            let supply = g.supply(sink);
            g.set_supply(sink, supply - 1 + rng.below(3) as i64);
        }
    }
}

/// Fills every arc to a random share of its capacity, so later capacity
/// cuts and removals spill flow.
fn load(g: &mut Recorder, rng: &mut XorShift64) {
    let arcs: Vec<ArcId> = g.arc_ids().collect();
    for a in arcs {
        let room = g.rescap(a);
        if room > 0 {
            g.push_flow(a, rng.below(room as u64 + 1) as i64);
        }
    }
}

#[test]
fn compactor_matches_reference_on_random_streams() {
    let mut kinds = HashMap::new();
    for seed in 1..=40u64 {
        let mut rng = XorShift64::new(seed);
        let mut g = Recorder::new();
        let sink = g.add_node(NodeKind::Sink, 0);
        let mut next_id = 0;
        for _ in 0..4 {
            next_id += 1;
            let m = g.add_node(NodeKind::Machine { machine: next_id }, 0);
            g.add_arc(m, sink, 2, 0);
        }
        let mut digests = Vec::with_capacity(6);
        for batch in 0..6 {
            for _ in 0..(1 + rng.below(25)) {
                mutate(&mut g, &mut rng, sink, &mut next_id);
            }
            let (got, changes) = g.take();
            for c in &changes {
                *kinds.entry(std::mem::discriminant(c)).or_insert(0) += 1;
            }
            digests.push(digest(&got));
            assert_same(&got, changes, &format!("seed {seed} batch {batch}"));
            load(&mut g, &mut rng);
        }
        assert_pinned(
            &format!("seed {seed}"),
            &digests,
            &RANDOM_STREAMS[seed as usize - 1],
        );
    }
    assert_eq!(kinds.len(), 8, "every change kind must occur");
}

/// Spills, cancellations and slot reuse in one stream, each asserted to
/// occur, so the random matrix above cannot silently lose them.
#[test]
fn compactor_matches_reference_on_targeted_stream() {
    let mut g = Recorder::new();
    let t = g.add_node(NodeKind::Task { task: 1 }, 1);
    let m = g.add_node(NodeKind::Machine { machine: 1 }, 0);
    let s = g.add_node(NodeKind::Sink, -1);
    let tm = g.add_arc(t, m, 1, 3);
    let ms = g.add_arc(m, s, 2, 0);
    let mut digests = Vec::with_capacity(3);
    let (batch, changes) = g.take();
    digests.push(digest(&batch));
    assert_same(&batch, changes, "build");

    g.push_flow(tm, 1);
    g.push_flow(ms, 1);
    // Spill then remove; a ghost that cancels; a freed pair reused.
    g.set_arc_capacity(ms, 0);
    g.remove_arc(ms);
    let ghost = g.add_node(NodeKind::Other { tag: 3 }, 0);
    g.add_arc(t, ghost, 1, 1);
    g.remove_node(ghost);
    let again = g.add_arc(m, s, 4, 1);
    assert_eq!(again, ms, "pair reuse");
    g.note_flow_disturbance(t);
    let (batch, changes) = g.take();
    assert!(batch
        .deltas()
        .iter()
        .any(|d| matches!(d, GraphDelta::FlowTouched { .. })));
    digests.push(digest(&batch));
    assert_same(&batch, changes, "spill and reuse");

    // The slots touched above must read as untouched in the next batch.
    g.set_arc_cost(tm, 8);
    g.set_arc_cost(again, 2);
    g.remove_node(m);
    let (batch, changes) = g.take();
    digests.push(digest(&batch));
    assert_same(&batch, changes, "after reset");
    assert_pinned("targeted", &digests, &TARGETED);
}

/// Every round's batch of a 30-round run, as the scheduler's manager takes
/// it, against the pinned digests `want`. The relaxation-only solver keeps
/// the run deterministic, and it ignores the batch, so taking the batch
/// ahead of `schedule` changes nothing.
fn assert_rounds_pinned<C: CostModel>(model: C, what: &str, want: &[u64]) {
    let mut state = common::cluster(24, 4, 6);
    let config = DualConfig {
        kind: SolverKind::RelaxationOnly,
        ..DualConfig::default()
    };
    let mut f = Firmament::with_solver(model, config);
    common::register(&state, &mut f);
    let mut rng = XorShift64::new(0x0AC1E);
    let mut structural = 0;
    let mut digests = Vec::with_capacity(30);
    for round in 0..30u64 {
        let mut running: Vec<u64> = state.running_tasks().map(|t| t.id).collect();
        running.sort_unstable();
        for task in running {
            if rng.below(4) == 0 {
                let ev = ClusterEvent::TaskCompleted {
                    task,
                    now: state.now,
                };
                state.apply(&ev);
                f.handle_event(&state, &ev).unwrap();
            }
        }
        common::submit(&mut state, &mut f, round, 1 + rng.below(12) as usize);
        let ev = ClusterEvent::Tick {
            now: state.now + 700_000,
        };
        state.apply(&ev);
        f.handle_event(&state, &ev).unwrap();

        f.refresh(&state).unwrap();
        let pending = f.graph().pending_changes();
        let batch = f.manager_mut().take_deltas();
        assert_eq!(batch.raw_len(), pending, "{what} round {round}");
        structural += batch
            .deltas()
            .iter()
            .filter(|d| matches!(d, GraphDelta::NodeRemoved { .. }))
            .count();
        digests.push(digest(&batch));
        let out = f.schedule(&state).unwrap();
        assert_eq!(out.solver.raw_changes, 0, "{what} round {round}");
        common::apply(&mut state, &mut f, &out.actions);
    }
    assert!(structural > 30, "{what}: the run must churn");
    assert_pinned(what, &digests, want);
}

#[test]
fn compactor_matches_reference_over_quincy_rounds() {
    assert_rounds_pinned(
        QuincyCostModel::new(QuincyConfig::default()),
        "quincy",
        &QUINCY_ROUNDS,
    );
}

#[test]
fn compactor_matches_reference_over_bucketed_hierarchy_rounds() {
    assert_rounds_pinned(
        HierarchicalTopologyCostModel::bucketed(),
        "bucketed hierarchy",
        &HIERARCHY_ROUNDS,
    );
}

const RANDOM_STREAMS: [[u64; 6]; 40] = [
    [
        0x013cb683fce144df,
        0x85c5e3f802fc6f35,
        0xc54d693a86a4c32a,
        0xe054208e6f8c6874,
        0x411e334eb1b66950,
        0x2fde82bda0e3bb63,
    ],
    [
        0xfe465dfe8b6fa1af,
        0xa9cdfdb1f0b4920e,
        0xad906fd8f7a9aa63,
        0xb1f26f7a34e1d233,
        0x54dfd30c19fa06f1,
        0x4309be87c567bd87,
    ],
    [
        0x58fb6df91a4057f8,
        0x9b81466135f92913,
        0xd74ea7541815523b,
        0x9660b8a753014727,
        0x1df12b3577a364bc,
        0xe2d42d11969522ca,
    ],
    [
        0x051c5e84383ed431,
        0xf399db716f8d2806,
        0x125fff63f8d94c43,
        0x528066b3385d3c42,
        0x6d3050a01365f41b,
        0xc2e9f7c8c1461a69,
    ],
    [
        0x35305529826bd7d3,
        0xdec600d580122866,
        0x4856185d78b00705,
        0xbf4bcb67fea814d7,
        0x0665daea735139ca,
        0x1ce51d9557efae55,
    ],
    [
        0x4c59f672eb00f960,
        0x58c4767e224b63c2,
        0xdb6def6a274bb415,
        0xcffef1ed8578c18e,
        0xf45e3f8c80b581e1,
        0x86280517dbdc434e,
    ],
    [
        0xe1e420241a416aac,
        0x4ce5679f305bea58,
        0xf7d72329286816fa,
        0x781586aa1369f15f,
        0x5ff2c9ce68ae796a,
        0x2e2c57b9bc96c65a,
    ],
    [
        0xe89d32a6dbf02958,
        0x2fd40bd43f066b62,
        0x6602f26d9445af0f,
        0x319ea1259760e661,
        0xdc58af02e63fffe5,
        0xea52908b8a1da8df,
    ],
    [
        0x84f067b3e343ab72,
        0xc016f92978251211,
        0xa18ad076edc62f26,
        0x52849a68bb560dbd,
        0xc8a28e78234872cd,
        0x8fee2b42fd8346da,
    ],
    [
        0x65e1d43c7e5cb666,
        0x3eba4ce623b1531f,
        0xc323b22029a122fc,
        0x10569dc6b21b5c20,
        0xc3f9d145fe130c77,
        0xe1e256ae4929acd1,
    ],
    [
        0xcd221714d461f5ec,
        0xc1fa14f632f7166b,
        0x8d90085a09540e8f,
        0x28b1a57d260055df,
        0xa422af1ad2fe3a93,
        0x05c677c238c65ea8,
    ],
    [
        0xb6a1d67a45f0b1bb,
        0x64abaf6ca0fd9a24,
        0xc2453e074375bc3d,
        0x00c0cd1c2bb76d7c,
        0x514abd6f93b5023e,
        0x43b152c9256bcb87,
    ],
    [
        0x3b9b57a76e2e5afa,
        0x47cb373d47487324,
        0x564629677a005f54,
        0x5f0a2129de83293b,
        0x237b5b0b60b6049a,
        0x1ca377629c2dd34b,
    ],
    [
        0x83859c655deb001d,
        0x65505324edf3a40f,
        0xb8d2a5102e8a1d9f,
        0xde30a31b2e0cba7b,
        0xe68115344fe58440,
        0x3873febc319393ef,
    ],
    [
        0xb67359f3b1ab9c2e,
        0xb75171cdb29064b6,
        0x2016a776a95ef306,
        0xdc58af02e63fffe5,
        0x09adb882b41813b6,
        0xb53b100de8f20940,
    ],
    [
        0x61fe441b1f730789,
        0x9f0f70652bb26cd9,
        0xeed76e7ba92d0a35,
        0xcbb043b673f9d2dc,
        0xded0463885148765,
        0xcc051dc5ca70cee2,
    ],
    [
        0x7e1019d87083e2e0,
        0xf2b1da136299d591,
        0x7cbd797b76563f77,
        0x34b72eb75e7ac721,
        0x82be72592d8e17e2,
        0x86d72d4a5c6a4433,
    ],
    [
        0x8ddcf4e44f81beb7,
        0x47069c437f75c418,
        0x73df339eccd635cf,
        0x115a59e51bf88f5d,
        0x534aca21e15ba841,
        0xf13b9db735e585c7,
    ],
    [
        0x682b6a3ea270b32f,
        0x20a83371dac7d330,
        0xd7f7412169c744d4,
        0x1629d441fac8db8d,
        0x971d1680d4e1c033,
        0xe6091c2a836fc7ad,
    ],
    [
        0x25854cc39d69f1bb,
        0x2f60671a54f6c606,
        0x4fb52b895b7cd27b,
        0x655bb372e33ca4cd,
        0x5360d40b41b50276,
        0x97cf4129c5214f8f,
    ],
    [
        0xb67359f3b1ab9c2e,
        0x32f7cde9bc270077,
        0x316d4193479b50dc,
        0xb0eabd6c89ec0f8d,
        0xf3a11b7b4e9be760,
        0xd417c59a9158c5fb,
    ],
    [
        0xc6dc3822bbe0a637,
        0x63c3a6e6695da925,
        0xd0aa373ae2efb6b5,
        0x40ce7ccfc504aa50,
        0xe1b070175e33690e,
        0xc2889636904fde43,
    ],
    [
        0xf4169479fd4358fd,
        0x300c68d03fd7e1e1,
        0x843cde23f79c45db,
        0x0ad150ed71193da8,
        0x30468ae3399dc2c6,
        0x25ac0d7d72605a7a,
    ],
    [
        0xe756e0e97fe59ef4,
        0x5278c0609a0825b3,
        0x0aef5a61e4b38014,
        0x1e7ec7676cc0d194,
        0xefb4b30df646b137,
        0xd7a1ac53960bb1c7,
    ],
    [
        0xa07926eca2b53e49,
        0x090dc4f0edfd7b9d,
        0xafed2d66092c2f81,
        0x8ca54639410aa232,
        0x6e7515cae6061f9b,
        0x49190583ce3ce3dc,
    ],
    [
        0x28d28630a73cde6f,
        0xd68ba7fac8dd9440,
        0x3a45ae032d4a83be,
        0x3b5d3ef8d105b9d5,
        0x6279881bcc2abd8f,
        0xb669a2f69c70642f,
    ],
    [
        0xfb485ecdd3f6aedc,
        0x30c99635417a1555,
        0xa012230af4f2d9e7,
        0xf821cfacd3022d51,
        0x3c49751471b9f17b,
        0xbe41485b73b6ab6d,
    ],
    [
        0x59431cd82080366e,
        0x247c3f76ff49225f,
        0x2d6e005b2d013d36,
        0x5830ec7b1d15fad8,
        0x1b99d38ec1a7747a,
        0x40353e02f1da817c,
    ],
    [
        0x95af030f6f87bfe6,
        0x8101abac9a0112e3,
        0xa38c312255fa1d0f,
        0x699851986eef2b64,
        0xa9b4021da4ac1bfd,
        0x3c56ac8356f6f8f3,
    ],
    [
        0x9e6b4fe63f3214be,
        0x2e6f5df4b8ff52b7,
        0x74599981e0d83125,
        0xdb0ce162868b66dd,
        0x56ae23487ea4206f,
        0x92c5549c5235f8e6,
    ],
    [
        0xc82fa98a7a0c87d1,
        0xf3cb465648638326,
        0xf68d8948e453d7f6,
        0x4d6c9de032e1522c,
        0xb83e89c6604a2499,
        0x87932ce79b967f2a,
    ],
    [
        0xa3a086fff76458fd,
        0xcd407942935dc456,
        0x4c8c3109d482bbd1,
        0x5ebb0537312ba76e,
        0xc0d8f675d3739df6,
        0x324ac971953eef9a,
    ],
    [
        0x9e5729441ed8de8d,
        0xa0e7a46d9e021284,
        0xa8bc0bb268318dee,
        0x8a864cad3e326ab9,
        0x92fa55edcde2ee75,
        0x46bf45c268a84fe5,
    ],
    [
        0xf253bbd592f248fd,
        0xbca1f24535620f81,
        0xec5c96152f01241d,
        0x2e02cb9d834576fe,
        0xb272ac524bf86c76,
        0x599f93bbb943609a,
    ],
    [
        0xb7b905feb739704b,
        0xa60787ca2b70b4ff,
        0xc6d0046ea75c233b,
        0x4f92104e638cec87,
        0x19d23ab99dbfc3df,
        0x996bdab369058b13,
    ],
    [
        0x2c1c64b0214c898d,
        0x80e1e8b7592660eb,
        0x87d4276ff5f6ad64,
        0xefb4758e8c46da5f,
        0xea58ff2523f89357,
        0x97bc6dce26864b15,
    ],
    [
        0x15b526295d25b6bb,
        0x244781121ad870d6,
        0xc61407382aeb0607,
        0x1bc73941e50c35ab,
        0xc1c2b3cfb50af066,
        0x9ab5c742ff0a28a8,
    ],
    [
        0x5848089055c65cd6,
        0x42afc30f3f4a2646,
        0x225e64ab18445cfd,
        0xab5d3e8fd7e6497d,
        0x7e6e8bdad89f7ea6,
        0x963b61d174c274ae,
    ],
    [
        0x36b0b8787d84a313,
        0x1049d563b1791584,
        0x256b64b4d238cc7e,
        0xea74f1159d25767f,
        0x8057cde49aeb3016,
        0x9408c59c503aca66,
    ],
    [
        0x8d0d95a447d7fa99,
        0xfbafbd8e1f7beecf,
        0x39f517dd4b0f0ce6,
        0xe80c5f78327bc63c,
        0x0f299285c1f5b8a7,
        0x2904830a19de8614,
    ],
];

const TARGETED: [u64; 3] = [0xaf41c3b6a84d0a24, 0x0c4fcc11b574fd09, 0x31e715dac5d33bc2];

const QUINCY_ROUNDS: [u64; 30] = [
    0xf3084e36b4d249f4,
    0xea6fce7c781dcc77,
    0x7331fb0e412fd198,
    0x5acf214144cd2ad7,
    0x18bb9a94be01fd02,
    0x0c21ce21b5a7fda1,
    0x9b940af851bc02ae,
    0xf05d95e8e376c05f,
    0x728611f571cfc492,
    0xa2e8fb30cc979d46,
    0x55ad927494c80ade,
    0xb37064efb2f3e893,
    0xfc8178a5aeccd68f,
    0xab46f9cdea6b9e28,
    0xa2f38cf2e96e1916,
    0x5812e4a30e0c2037,
    0x4f916825f56153a0,
    0x04afb30ea0503466,
    0x5140997f4b73f0e6,
    0xe8b18b0740ec7a6d,
    0x668cea9a3b1491bb,
    0x0923550ac0b760c6,
    0x54855e1960aee0c8,
    0x8372674a5c8b9b8d,
    0x395d522650bc8765,
    0x45a7e16583b34eed,
    0xabbcd9a77f3ec166,
    0x4f9b47123dc08682,
    0x852bd5215a4b08bd,
    0x7cab838acb6976c0,
];

const HIERARCHY_ROUNDS: [u64; 30] = [
    0xb2a6ab68e5d8e9f3,
    0x42083540e9b6a68a,
    0x96e546a268566951,
    0x68e2379ed67ab9d8,
    0xa0f190d54a93d391,
    0x7e4942e18182e3bf,
    0x67dc0897420b68ec,
    0x4928e56ec4952a34,
    0x7f96b1ffd04488b9,
    0x34309dabe1180d42,
    0xbda35a376015d314,
    0x35dd87ce53259dfe,
    0xa2bb5863283766f1,
    0xf88628aa33e64ae1,
    0x8866417dca48380d,
    0xc3baba0217c262aa,
    0x4c86650281fb75e6,
    0xa7f968efcb691c0e,
    0x23a992f9e8ef96f2,
    0xe98f75db83059e51,
    0xc4c37bba013af054,
    0x7175fffee25a213d,
    0x1ad8a69c6490007a,
    0x8447a3e9100d8157,
    0x20b843b3b59c6780,
    0x63877acda59d9b2b,
    0xda89ee3dc94cb555,
    0x74d5d0414207acf5,
    0xf2a830279c91ea1b,
    0x69f1e338f20dfb61,
];
