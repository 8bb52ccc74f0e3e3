//! Compaction oracle: the persistent slot-indexed [`DeltaCompactor`]
//! against a verbatim copy of the `HashMap`-based compaction it replaced.
//!
//! Random change streams are recorded by a live tracked graph, so every
//! stream is one a graph owner can produce, and cover slot reuse,
//! add→remove cancellation, re-pricing, capacity spills (flow is pushed
//! between batches) and `FlowDisturbed` markers. Each script passes its
//! batches through one compactor, so the lazy per-slot reset between
//! batches is exercised. Two 30-round `Firmament` runs — Quincy and the
//! bucketed hierarchy — then compare every round's batch as the
//! scheduler's own manager compacts it.

mod common;

use firmament::cluster::ClusterEvent;
use firmament::core::Firmament;
use firmament::flow::delta::{DeltaBatch, DeltaCompactor, GraphDelta};
use firmament::flow::testgen::XorShift64;
use firmament::flow::{ArcId, FlowGraph, GraphChange, NodeId, NodeKind};
use firmament::mcmf::{DualConfig, SolverKind};
use firmament::policies::{
    CostModel, HierarchicalTopologyCostModel, QuincyConfig, QuincyCostModel,
};
use std::collections::HashMap;

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

/// The compaction `DeltaBatch::compact` ran before the persistent
/// compactor, verbatim except that it returns (deltas, raw length).
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
fn mutate(g: &mut FlowGraph, rng: &mut XorShift64, sink: NodeId, next_id: &mut u64) {
    let is_task = |k: &NodeKind| matches!(k, NodeKind::Task { .. });
    let is_machine = |k: &NodeKind| matches!(k, NodeKind::Machine { .. });
    match rng.below(10) {
        // A task arrives with arcs to two machines.
        0 | 1 => {
            *next_id += 1;
            let t = g.add_node(NodeKind::Task { task: *next_id }, 1);
            for _ in 0..2 {
                if let Some(m) = pick(g, rng, is_machine) {
                    g.add_arc(t, m, 1, rng.below(50) as i64).unwrap();
                }
            }
        }
        // A task leaves, possibly in the batch it arrived in (cancels).
        2 => {
            if let Some(t) = pick(g, rng, is_task) {
                g.remove_node(t).unwrap();
            }
        }
        // A machine fails (freeing slots for reuse) or joins.
        3 => {
            if rng.below(2) == 0 {
                if let Some(m) = pick(g, rng, is_machine) {
                    g.remove_node(m).unwrap();
                }
            } else {
                *next_id += 1;
                let m = g.add_node(NodeKind::Machine { machine: *next_id }, 0);
                g.add_arc(m, sink, 1 + rng.below(4) as i64, 0).unwrap();
            }
        }
        // Re-pricing, sometimes back to the batch's starting cost.
        4 | 5 => {
            if let Some(a) = pick_arc(g, rng) {
                let cost = g.cost(a);
                g.set_arc_cost(a, cost + rng.below(5) as i64 - 2).unwrap();
            }
        }
        // A capacity change; shrinking below the flow spills it.
        6 => {
            if let Some(a) = pick_arc(g, rng) {
                g.set_arc_capacity(a, rng.below(4) as i64).unwrap();
            }
        }
        // An arc removed and a new one added, reusing freed pairs.
        7 => {
            if let Some(a) = pick_arc(g, rng) {
                g.remove_arc(a).unwrap();
            }
            if let (Some(t), Some(m)) = (pick(g, rng, is_task), pick(g, rng, is_machine)) {
                g.add_arc(t, m, 1, rng.below(50) as i64).unwrap();
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
            g.set_supply(sink, supply - 1 + rng.below(3) as i64)
                .unwrap();
        }
    }
}

/// Fills every arc to a random share of its capacity, so later capacity
/// cuts and removals spill flow.
fn load(g: &mut FlowGraph, rng: &mut XorShift64) {
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
        let mut g = FlowGraph::new();
        g.set_change_tracking(true);
        let sink = g.add_node(NodeKind::Sink, 0);
        let mut next_id = 0;
        for _ in 0..4 {
            next_id += 1;
            let m = g.add_node(NodeKind::Machine { machine: next_id }, 0);
            g.add_arc(m, sink, 2, 0).unwrap();
        }
        let mut compactor = DeltaCompactor::default();
        for batch in 0..6 {
            for _ in 0..(1 + rng.below(25)) {
                mutate(&mut g, &mut rng, sink, &mut next_id);
            }
            let changes = g.take_changes();
            for c in &changes {
                *kinds.entry(std::mem::discriminant(c)).or_insert(0) += 1;
            }
            let got = compactor.compact(&changes);
            assert_same(&got, changes, &format!("seed {seed} batch {batch}"));
            load(&mut g, &mut rng);
        }
    }
    assert_eq!(kinds.len(), 8, "every change kind must occur");
}

/// Spills, cancellations and slot reuse in one stream, each asserted to
/// occur, so the random matrix above cannot silently lose them.
#[test]
fn compactor_matches_reference_on_targeted_stream() {
    let mut g = FlowGraph::new();
    g.set_change_tracking(true);
    let t = g.add_node(NodeKind::Task { task: 1 }, 1);
    let m = g.add_node(NodeKind::Machine { machine: 1 }, 0);
    let s = g.add_node(NodeKind::Sink, -1);
    let tm = g.add_arc(t, m, 1, 3).unwrap();
    let ms = g.add_arc(m, s, 2, 0).unwrap();
    let mut compactor = DeltaCompactor::default();
    let changes = g.take_changes();
    assert_same(&compactor.compact(&changes), changes, "build");

    g.push_flow(tm, 1);
    g.push_flow(ms, 1);
    // Spill then remove; a ghost that cancels; a freed pair reused.
    g.set_arc_capacity(ms, 0).unwrap();
    g.remove_arc(ms).unwrap();
    let ghost = g.add_node(NodeKind::Other { tag: 3 }, 0);
    g.add_arc(t, ghost, 1, 1).unwrap();
    g.remove_node(ghost).unwrap();
    let again = g.add_arc(m, s, 4, 1).unwrap();
    assert_eq!(again, ms, "pair reuse");
    g.note_flow_disturbance(t);
    let changes = g.take_changes();
    let batch = compactor.compact(&changes);
    assert!(batch
        .deltas()
        .iter()
        .any(|d| matches!(d, GraphDelta::FlowTouched { .. })));
    assert_same(&batch, changes, "spill and reuse");

    // The slots touched above must read as untouched in the next batch.
    g.set_arc_cost(tm, 8).unwrap();
    g.set_arc_cost(again, 2).unwrap();
    g.remove_node(m).unwrap();
    let changes = g.take_changes();
    assert_same(&compactor.compact(&changes), changes, "after reset");
}

/// Every round's batch of a 30-round run, as the scheduler's manager
/// compacts it, against the reference over the same raw log. The
/// relaxation-only solver keeps the run deterministic, and it ignores the
/// batch, so taking the batch ahead of `schedule` changes nothing.
fn assert_rounds_match_reference<C: CostModel>(model: C, what: &str) {
    let mut state = common::cluster(24, 4, 6);
    let config = DualConfig {
        kind: SolverKind::RelaxationOnly,
        ..DualConfig::default()
    };
    let mut f = Firmament::with_solver(model, config);
    common::register(&state, &mut f);
    let mut rng = XorShift64::new(0x0AC1E);
    let mut structural = 0;
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
        let raw = f.graph().pending_changes().to_vec();
        let batch = f.manager_mut().take_deltas();
        structural += batch
            .deltas()
            .iter()
            .filter(|d| matches!(d, GraphDelta::NodeRemoved { .. }))
            .count();
        assert_same(&batch, raw, &format!("{what} round {round}"));
        let out = f.schedule(&state).unwrap();
        assert_eq!(out.solver.raw_changes, 0, "{what} round {round}");
        common::apply(&mut state, &mut f, &out.actions);
    }
    assert!(structural > 30, "{what}: the run must churn");
}

#[test]
fn compactor_matches_reference_over_quincy_rounds() {
    assert_rounds_match_reference(QuincyCostModel::new(QuincyConfig::default()), "quincy");
}

#[test]
fn compactor_matches_reference_over_bucketed_hierarchy_rounds() {
    assert_rounds_match_reference(
        HierarchicalTopologyCostModel::bucketed(),
        "bucketed hierarchy",
    );
}
