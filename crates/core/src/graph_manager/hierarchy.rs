//! Aggregate materialization — whole EC→EC hierarchies, recursively and
//! cycle-checked — and the garbage collection of aggregators no task can
//! reach any more.

use super::bundles::{declared_segments, sync_entry, validate_bundle};
use super::{AggregateEntry, FlowGraphManager};
use firmament_cluster::{ClusterState, JobId, MachineId};
use firmament_flow::NodeId;
use firmament_policies::{AggregateId, ArcBundle, CostModel, PolicyError};
use std::collections::{BTreeMap, BTreeSet, HashSet};

impl FlowGraphManager {
    /// Returns (creating if needed) the node for a policy-defined
    /// aggregate. On creation, the aggregate's machine bundles are
    /// materialized by querying the model for every known machine, and its
    /// EC→EC children (declared via
    /// [`CostModel::aggregate_to_aggregate`]) are materialized
    /// recursively; `stack` holds the aggregates under materialization.
    /// Fails with [`PolicyError::AggregateCycle`] if the declared
    /// hierarchy is not a DAG.
    pub(super) fn ensure_aggregate<C: CostModel>(
        &mut self,
        model: &C,
        state: &ClusterState,
        agg: AggregateId,
        stack: &mut Vec<AggregateId>,
    ) -> Result<NodeId, PolicyError> {
        // The stack check must precede the node lookup: an aggregate under
        // materialization already has a record, and reaching it again
        // through its own descendants is exactly the cycle case.
        if stack.contains(&agg) {
            return Err(PolicyError::AggregateCycle(agg));
        }
        if let Some(a) = self.aggregates.get(&agg) {
            return Ok(a.node);
        }
        stack.push(agg);
        let node = self.graph.add_node(model.aggregate_kind(agg), 0);
        let children = BTreeMap::new();
        self.aggregates
            .insert(agg, AggregateEntry { node, children });
        let mut machines: Vec<MachineId> = self.machines.keys().copied().collect();
        machines.sort_unstable();
        for mid in machines {
            if let Some(machine) = state.machines.get(&mid) {
                self.sync_machine_bundle(model, state, agg, machine)?;
            }
        }
        self.sync_aggregate_children(model, state, agg, stack)?;
        stack.pop();
        Ok(node)
    }

    /// Re-synchronizes one aggregate's EC→EC arc set with what the model
    /// currently declares: declared children go through
    /// [`sync_child_bundle`](Self::sync_child_bundle) (the first
    /// declaration of a child wins), then stale children are withdrawn
    /// through it. Serves both the refresh and a new aggregate's
    /// materialization, whose `stack` holds the aggregates being
    /// materialized. `agg` must be materialized.
    pub(super) fn sync_aggregate_children<C: CostModel>(
        &mut self,
        model: &C,
        state: &ClusterState,
        agg: AggregateId,
        stack: &mut Vec<AggregateId>,
    ) -> Result<(), PolicyError> {
        let declared = model.aggregate_to_aggregate(state, agg);
        let mut seen: BTreeSet<AggregateId> = BTreeSet::new();
        for (child, bundle) in &declared {
            if *child == agg {
                return Err(PolicyError::AggregateCycle(agg));
            }
            validate_bundle("aggregate_to_aggregate", bundle)?;
            if seen.insert(*child) {
                self.sync_child_bundle(model, state, agg, *child, Some(bundle), stack)?;
            }
        }
        let children = self.aggregates[&agg].children.keys();
        let stale: Vec<AggregateId> = children.filter(|c| !seen.contains(c)).copied().collect();
        for child in stale {
            self.sync_child_bundle(model, state, agg, child, None, stack)?;
        }
        Ok(())
    }

    /// Syncs one EC→EC bundle. A pair without slots that the declaration
    /// would materialize first materializes the child (recursively) and
    /// is cycle-checked: a new edge into a pre-existing aggregate could
    /// close a loop the materialization stack cannot see — and
    /// materializing `child` may itself have connected descendants back
    /// to `parent`'s ancestors — so reachability is checked *after* the
    /// child's subtree exists, just before connecting.
    fn sync_child_bundle<C: CostModel>(
        &mut self,
        model: &C,
        state: &ClusterState,
        parent: AggregateId,
        child: AggregateId,
        declared: Option<&ArcBundle>,
        stack: &mut Vec<AggregateId>,
    ) -> Result<(), PolicyError> {
        let dynamic = model.dynamic_aggregate_arcs();
        let connected = self.aggregates[&parent].children.contains_key(&child);
        let cn = if connected {
            self.aggregates[&child].node
        } else if declared_segments(declared, dynamic).is_empty() {
            return Ok(());
        } else {
            let cn = self.ensure_aggregate(model, state, child, stack)?;
            if self.agg_reaches(child, parent) {
                return Err(PolicyError::AggregateCycle(parent));
            }
            cn
        };
        let p = self
            .aggregates
            .get_mut(&parent)
            .expect("a synced parent is materialized");
        sync_entry(
            &mut self.graph,
            &mut p.children,
            child,
            p.node,
            cn,
            declared,
            dynamic,
        )
    }

    /// Whether `target` is reachable from `from` along EC→EC arcs.
    fn agg_reaches(&self, from: AggregateId, target: AggregateId) -> bool {
        if from == target {
            return true;
        }
        let mut work = vec![from];
        let mut visited: HashSet<AggregateId> = HashSet::new();
        while let Some(a) = work.pop() {
            if !visited.insert(a) {
                continue;
            }
            if let Some(agg) = self.aggregates.get(&a) {
                for &c in agg.children.keys() {
                    if c == target {
                        return true;
                    }
                    work.push(c);
                }
            }
        }
        false
    }

    /// Garbage-collects aggregator nodes that no task can reach any more:
    /// policy aggregates (and per-job unscheduled aggregators of jobs with
    /// no tasks left in the graph) with zero incoming arcs and no flow on
    /// their outgoing arcs. Runs to a fixpoint, so removing a hierarchy
    /// root frees its (now unreachable) descendants in the same refresh.
    /// Nodes still carrying stale solver flow are left for a later round —
    /// the next adopted solve rebalances them. Collected aggregates are
    /// rematerialized on demand if a model names them again.
    pub(super) fn collect_dead_aggregates(&mut self) -> Result<usize, PolicyError> {
        let mut collected = 0usize;
        loop {
            let mut victim_aggs: Vec<AggregateId> = self
                .aggregates
                .iter()
                .filter(|(_, a)| self.node_is_collectable(a.node))
                .map(|(&a, _)| a)
                .collect();
            let mut victim_jobs: Vec<JobId> = self
                .jobs
                .iter()
                .filter(|(_, j)| j.tasks == 0 && self.node_is_collectable(j.unsched))
                .map(|(&j, _)| j)
                .collect();
            if victim_aggs.is_empty() && victim_jobs.is_empty() {
                break;
            }
            victim_aggs.sort_unstable();
            victim_jobs.sort_unstable();
            let victim_set: HashSet<AggregateId> = victim_aggs.iter().copied().collect();
            for &agg in &victim_aggs {
                let a = self
                    .aggregates
                    .remove(&agg)
                    .expect("victim is an aggregate");
                self.graph.remove_node(a.node)?;
                self.dirty_aggs.remove(&agg);
                collected += 1;
            }
            // One sweep over the arc maps for the whole batch, so mass GC
            // (draining many per-job aggregates at once) stays linear in
            // map size instead of victims × map size.
            if !victim_set.is_empty() {
                for a in self.aggregates.values_mut() {
                    a.children.retain(|c, _| !victim_set.contains(c));
                }
                for m in self.machines.values_mut() {
                    m.bundles.retain(|a, _| !victim_set.contains(a));
                }
            }
            for job in victim_jobs {
                let j = self.jobs.remove(&job).expect("victim is a job");
                self.graph.remove_node(j.unsched)?;
                collected += 1;
            }
        }
        Ok(collected)
    }

    /// A node is collectable when nothing can send it flow — every
    /// incoming forward arc is parked at capacity 0 (e.g. the stale EC→EC
    /// arc of a rack whose machines all departed) — and no incident arc
    /// carries flow (so removal cannot unbalance a warm-started solve).
    fn node_is_collectable(&self, n: NodeId) -> bool {
        let g = &self.graph;
        g.adj(n).iter().all(|&a| {
            let fwd = a.forward();
            if a.is_forward() {
                g.flow(fwd) == 0
            } else {
                g.capacity(fwd) == 0 && g.flow(fwd) == 0
            }
        })
    }
}
