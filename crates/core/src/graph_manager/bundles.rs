//! Arc bundles: the one slot sync every bundle arc goes through, and the
//! checks on every declaration.
//!
//! Every declared arc is an [`ArcBundle`] — a piecewise-linear convex
//! cost ladder. The manager materializes one parallel graph arc per
//! segment and keeps the arc ids in a **slot vector** per (source,
//! target) pair, so segment `j` of a bundle always maps to the same graph
//! arc across refreshes. One function, [`sync_bundle`], is the only code
//! that creates, re-prices, parks or removes bundle arcs: it re-prices
//! the common prefix of slots and segments in place (a cheap
//! `CostChanged` delta for the incremental solver), appends the extra
//! segments, and parks the tail at capacity 0 (static models) or removes
//! it (dynamic models). Materializing a bundle is a sync into empty
//! slots; withdrawing one is a sync with no declaration (or, for dynamic
//! models, a declaration without capacity). Machine arrival, aggregate
//! materialization, the refresh and the task-side re-price all go
//! through it.
//!
//! Convexity — non-decreasing segment costs — is validated at every
//! declaration site (for machine arrivals and job submissions, before the
//! event touches the graph), and violations are rejected with
//! [`PolicyError::NonConvexBundle`]: a decreasing ladder would let the
//! min-cost solver fill expensive segments before cheap ones, silently
//! corrupting the declared cost function.

use super::FlowGraphManager;
use firmament_cluster::{ClusterState, Machine, Task, TaskId};
use firmament_flow::{ArcId, FlowGraph, NodeId};
use firmament_policies::{AggregateId, ArcBundle, ArcSpec, ArcTarget, CostModel, PolicyError};
use std::collections::{BTreeMap, HashSet};

/// Rejects bundles that break the convexity contract: segment costs must
/// be non-decreasing, or the min-cost solver would fill expensive
/// segments before cheap ones.
pub(super) fn validate_bundle(hook: &'static str, bundle: &ArcBundle) -> Result<(), PolicyError> {
    if let Some((prev, next)) = bundle.convexity_violation() {
        return Err(PolicyError::NonConvexBundle { hook, prev, next });
    }
    Ok(())
}

/// Brings one bundle's slot vector in line with its declaration — the only
/// code in the manager that creates, re-prices, parks or removes bundle
/// arcs. Segment `j` keeps slot `j`:
///
/// - the common prefix is re-priced in place (`CostChanged` /
///   `CapacityChanged` deltas — never structural),
/// - declared segments beyond it append new arcs,
/// - slots beyond the declared length are parked at capacity 0 (static
///   models, revivable) or removed (`dynamic`).
///
/// Materializing a bundle is a sync into empty slots. Withdrawing one is a
/// sync with `None` or — for dynamic models — with an empty bundle or one
/// whose total capacity is ≤ 0.
pub(super) fn sync_bundle(
    graph: &mut FlowGraph,
    slots: &mut Vec<ArcId>,
    src: NodeId,
    dst: NodeId,
    declared: Option<&ArcBundle>,
    dynamic: bool,
) -> Result<(), PolicyError> {
    let segments = declared_segments(declared, dynamic);
    let common = slots.len().min(segments.len());
    for (slot, seg) in slots.iter().zip(segments) {
        graph.set_arc_capacity(*slot, seg.capacity.max(0))?;
        graph.set_arc_cost(*slot, seg.cost)?;
    }
    if dynamic {
        for &arc in &slots[common..] {
            graph.remove_arc(arc)?;
        }
        slots.truncate(common);
    } else {
        for &arc in &slots[common..] {
            graph.set_arc_capacity(arc, 0)?;
        }
    }
    slots.reserve(segments.len() - common);
    for seg in &segments[common..] {
        slots.push(graph.add_arc(src, dst, seg.capacity.max(0), seg.cost)?);
    }
    Ok(())
}

/// The segments a declaration materializes: none for a withdrawn bundle.
pub(super) fn declared_segments(declared: Option<&ArcBundle>, dynamic: bool) -> &[ArcSpec] {
    match declared {
        Some(b) if !(dynamic && b.total_capacity() <= 0) => b.segments(),
        _ => &[],
    }
}

/// Syncs the bundle stored under `key` in a slot map (see
/// [`sync_bundle`]), keeping the entry only while it holds slots.
pub(super) fn sync_entry(
    graph: &mut FlowGraph,
    map: &mut BTreeMap<AggregateId, Vec<ArcId>>,
    key: AggregateId,
    src: NodeId,
    dst: NodeId,
    declared: Option<&ArcBundle>,
    dynamic: bool,
) -> Result<(), PolicyError> {
    let slots = map.entry(key).or_default();
    let synced = sync_bundle(graph, slots, src, dst, declared, dynamic);
    if slots.is_empty() {
        map.remove(&key);
    }
    synced
}

impl FlowGraphManager {
    /// Declares `agg`'s bundle to `machine` and syncs it, keeping the slot
    /// map entry only while it holds slots: the one aggregate → machine
    /// step of machine arrival, aggregate materialization and the refresh.
    pub(super) fn sync_machine_bundle<C: CostModel>(
        &mut self,
        model: &C,
        state: &ClusterState,
        agg: AggregateId,
        machine: &Machine,
    ) -> Result<(), PolicyError> {
        let declared = declare_aggregate_arc(model, state, agg, machine)?;
        let mid = machine.id;
        let dynamic = model.dynamic_aggregate_arcs();
        // Most aggregates reach few machines: skip the map for a pair
        // with neither slots nor anything to materialize.
        if declared_segments(declared.as_ref(), dynamic).is_empty()
            && self.aggregate_machine_slots(agg, mid).is_none()
        {
            return Ok(());
        }
        let (Some(a), Some(m)) = (self.aggregates.get(&agg), self.machines.get_mut(&mid)) else {
            return Ok(());
        };
        sync_entry(
            &mut self.graph,
            &mut m.bundles,
            agg,
            a.node,
            m.node,
            declared.as_ref(),
            dynamic,
        )
    }

    /// Materializes the waiting arc set a model declares for `task`, from
    /// its deduplicated and validated declaration ([`declare_task_arcs`]):
    /// aggregate targets are created on demand (together with their
    /// machine arcs); machine targets absent from the cluster are
    /// recorded with empty slot vectors so they materialize when the
    /// machine arrives (and so machine-local narrowing can find their
    /// tasks).
    pub(super) fn install_waiting_arcs<C: CostModel>(
        &mut self,
        model: &C,
        state: &ClusterState,
        task: &Task,
        declared: Vec<(ArcTarget, ArcBundle)>,
    ) -> Result<(), PolicyError> {
        let t = self
            .task_node(task.id)
            .ok_or(PolicyError::UnknownTask(task.id))?;
        let mut entry: Vec<(ArcTarget, Vec<ArcId>)> = Vec::with_capacity(declared.len());
        for (target, bundle) in declared {
            let dst = match target {
                ArcTarget::Aggregate(agg) => {
                    Some(self.ensure_aggregate(model, state, agg, &mut Vec::new())?)
                }
                // An absent machine keeps empty slots: the parked
                // reference lets arrival re-derivation find this task.
                ArcTarget::Machine(mid) => self.machine_node(mid),
            };
            let mut slots = Vec::new();
            if let Some(dst) = dst {
                sync_bundle(&mut self.graph, &mut slots, t, dst, Some(&bundle), false)?;
            }
            entry.push((target, slots));
        }
        self.task_slots.insert(task.id, entry);
        Ok(())
    }

    /// Strips a task down to its `T → U_j` arc and forgets its declared
    /// slots: the first step of every change to a task's arc set.
    pub(super) fn strip_task_arcs(&mut self, task: TaskId) -> Result<(), PolicyError> {
        let entry = self
            .task_table
            .get(task)
            .ok_or(PolicyError::UnknownTask(task))?;
        let g = &self.graph;
        let u = g.dst(entry.unsched_arc);
        let doomed: Vec<ArcId> = g
            .adj(entry.node)
            .iter()
            .copied()
            .filter(|&a| a.is_forward() && g.dst(a) != u)
            .collect();
        for a in doomed {
            self.graph.remove_arc(a)?;
        }
        self.task_slots.remove(&task);
        Ok(())
    }
}

/// An aggregate's declared bundle to `machine`, validated. Validation
/// precedes the sync's capacity filter, so a non-convex declaration is
/// rejected even while a dynamic model withdraws it (the bug is in the
/// model, not the load).
pub(super) fn declare_aggregate_arc<C: CostModel>(
    model: &C,
    state: &ClusterState,
    agg: AggregateId,
    machine: &Machine,
) -> Result<Option<ArcBundle>, PolicyError> {
    let bundle = model.aggregate_arc(state, agg, machine);
    if let Some(b) = &bundle {
        validate_bundle("aggregate_arc", b)?;
    }
    Ok(bundle)
}

/// A task's declared waiting arc set, deduplicated and validated — what
/// [`FlowGraphManager::install_waiting_arcs`] materializes.
pub(super) fn declare_task_arcs<C: CostModel>(
    model: &C,
    state: &ClusterState,
    task: &Task,
) -> Result<Vec<(ArcTarget, ArcBundle)>, PolicyError> {
    let declared = dedup_targets(model.task_arcs(state, task));
    for (_, bundle) in &declared {
        validate_bundle("task_arcs", bundle)?;
    }
    Ok(declared)
}

/// Deduplicates a declared target list, keeping the first bundle per
/// target (declaration order preserved) — the bundle-era equivalent of
/// the old "skip if an arc to this destination already exists" guard.
fn dedup_targets(declared: Vec<(ArcTarget, ArcBundle)>) -> Vec<(ArcTarget, ArcBundle)> {
    let mut seen: HashSet<ArcTarget> = HashSet::with_capacity(declared.len());
    declared
        .into_iter()
        .filter(|(t, _)| seen.insert(*t))
        .collect()
}
