//! Task-placement extraction from the optimal flow (Listing 1, §6.3).
//!
//! Firmament allows arbitrary aggregators, so paths from tasks to machines
//! can be longer than in Quincy (where arcs necessarily pointed at machines
//! or racks). The extraction algorithm starts from machine nodes and
//! propagates, *backwards* along flow-carrying incoming arcs, the multiset
//! of machines each node has sent flow to; when the propagation reaches a
//! task node, popping one machine from its list yields the placement. In
//! the common case this extracts all placements in a single pass over the
//! graph.
//!
//! The backward propagation is agnostic to aggregator depth: EC→EC
//! hierarchy chains (cluster → rack → machine, or deeper) decompose the
//! same way, with nodes whose machine lists fill incrementally re-queued
//! until every unit of flow is attributed
//! (`tests/extraction_and_changes.rs` pins chains up to five levels).
//!
//! The walk itself, `assign_machines`, leaves each task node's machine
//! in a dense vector indexed by node and knows nothing of task ids. The
//! scheduler reads it through its task table, which already lists every
//! task node in `TaskId` order; [`extract_placements`] wraps it into a
//! map keyed by task id for everyone else.

use firmament_flow::{FlowGraph, NodeId, NodeKind};
use std::collections::{BTreeMap, VecDeque};

/// The extracted placement for one task.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Placement {
    /// The task's flow reached this machine.
    OnMachine(u64),
    /// The task's flow drained through its unscheduled aggregator.
    Unscheduled,
}

/// Extracts task placements from the flow currently in the graph.
///
/// Runs Listing 1 (`assign_machines`) and reads every task node's
/// machine off its result. Tasks whose flow routed through an unscheduled
/// aggregator are reported as [`Placement::Unscheduled`].
///
/// The result is a `BTreeMap` keyed by task id, so iteration order — and
/// everything derived from it — is deterministic by construction rather
/// than by post-hoc sorting.
///
/// # Examples
///
/// ```
/// use firmament_core::extract::{extract_placements, Placement};
/// use firmament_flow::builder::figure5;
/// use firmament_mcmf::{relaxation, SolveOptions};
///
/// let (mut g, _, _) = figure5();
/// relaxation::solve(&mut g, &SolveOptions::unlimited()).unwrap();
/// let placements = extract_placements(&g);
/// assert_eq!(placements.len(), 5);
/// let placed = placements
///     .values()
///     .filter(|p| matches!(p, Placement::OnMachine(_)))
///     .count();
/// assert_eq!(placed, 4); // Fig 5: all tasks but one are scheduled
/// ```
pub fn extract_placements(graph: &FlowGraph) -> BTreeMap<u64, Placement> {
    let assignments = assign_machines(graph);
    // Several task nodes may carry one task id; as with inserting in
    // visit order, the latest assignment wins (an unassigned duplicate
    // reads as unscheduled). Sorting by (id, order) and keeping each id's
    // last entry feeds the map already sorted, so it bulk-builds.
    let mut entries: Vec<(u64, u32, Placement)> = graph
        .node_ids()
        .filter_map(|v| match graph.kind(v) {
            NodeKind::Task { task } => Some(match assignments.latest[v.index()] {
                (0, _) => (task, 0, Placement::Unscheduled),
                (order, m) => (task, order, Placement::OnMachine(m)),
            }),
            _ => None,
        })
        .collect();
    entries.sort_unstable_by_key(|&(task, order, _)| (task, order));
    entries.dedup_by(|later, earlier| {
        let same = later.0 == earlier.0;
        if same {
            *earlier = *later;
        }
        same
    });
    entries
        .into_iter()
        .map(|(task, _, placement)| (task, placement))
        .collect()
}

/// What [`assign_machines`] leaves behind: the machine each task node's
/// flow reached, indexed by node.
#[derive(Debug)]
pub(crate) struct Assignments {
    /// Per node: the (1-based) order of its latest assignment, 0 while
    /// unassigned, and the machine assigned.
    latest: Vec<(u32, u64)>,
}

impl Assignments {
    /// The machine assigned to task node `node`, `None` if its flow
    /// reached no machine.
    pub(crate) fn machine(&self, node: NodeId) -> Option<u64> {
        match self.latest[node.index()] {
            (0, _) => None,
            (_, m) => Some(m),
        }
    }
}

/// Listing 1: assigns each unit of machine → sink flow to a task node.
///
/// Explicit per-arc move accounting lets nodes whose machine lists fill
/// up incrementally be revisited until all flow is accounted for. All
/// state is dense — indexed by node or arc pair — so the pass is a few
/// linear sweeps with no hashing.
pub(crate) fn assign_machines(graph: &FlowGraph) -> Assignments {
    let n = graph.node_bound();
    // Each node's machine list is a stack of units threaded through one
    // arena: `top[v]` is the last machine appended to `v`'s list, and each
    // unit links to the one appended before it. Handing a node's last `k`
    // machines to another node relinks them in order, without copying.
    let mut units: Vec<Unit> = Vec::new();
    let mut top: Vec<usize> = vec![NIL; n];
    let mut len: Vec<usize> = vec![0; n];
    // Machines already propagated along each arc pair, by pair index.
    let mut moved: Vec<i64> = vec![0; graph.arc_bound() / 2];
    let mut to_visit: VecDeque<NodeId> = VecDeque::new();
    let mut queued: Vec<bool> = vec![false; n];
    let mut latest: Vec<(u32, u64)> = vec![(0, 0); n];

    for v in graph.node_ids() {
        if let NodeKind::Machine { machine } = graph.kind(v) {
            // A machine's outgoing flow (to the sink) is the number of
            // task units placed on it.
            let placed: i64 = graph
                .adj(v)
                .iter()
                .copied()
                .filter(|&a| a.is_forward())
                .map(|a| graph.flow(a))
                .sum();
            if placed > 0 {
                for _ in 0..placed {
                    units.push(Unit {
                        machine,
                        below: top[v.index()],
                    });
                    top[v.index()] = units.len() - 1;
                }
                len[v.index()] = placed as usize;
                to_visit.push_back(v);
                queued[v.index()] = true;
            }
        }
    }

    let mut assignments = 0u32;
    while let Some(node) = to_visit.pop_front() {
        let i = node.index();
        queued[i] = false;
        if graph.kind(node).is_task() {
            if len[i] > 0 {
                let unit = units[top[i]];
                top[i] = unit.below;
                len[i] -= 1;
                assignments += 1;
                latest[i] = (assignments, unit.machine);
            }
            continue;
        }
        // Visit incoming arcs: reverse residual arcs out of `node` whose
        // sister (the forward arc into `node`) carries flow.
        for &a in graph.adj(node) {
            if len[i] == 0 {
                break;
            }
            if a.is_forward() {
                continue;
            }
            let pair = a.index() / 2;
            let need = graph.flow(a) - moved[pair];
            if need <= 0 {
                continue;
            }
            let k = need.min(len[i] as i64) as usize;
            let source = graph.dst(a).index();
            // Move the last `k` machines of `node` onto `source`, keeping
            // their order: the segment's first unit now sits on `source`'s
            // previous last one.
            let last = top[i];
            let mut first = last;
            for _ in 1..k {
                first = units[first].below;
            }
            top[i] = std::mem::replace(&mut units[first].below, top[source]);
            top[source] = last;
            len[i] -= k;
            len[source] += k;
            moved[pair] += k as i64;
            if !queued[source] {
                to_visit.push_back(NodeId::from_index(source));
                queued[source] = true;
            }
        }
    }
    Assignments { latest }
}

/// End of a machine stack in [`assign_machines`].
const NIL: usize = usize::MAX;

/// One unit of flow on its way back from a machine to a task.
#[derive(Clone, Copy)]
struct Unit {
    /// The machine the unit reached.
    machine: u64,
    /// The unit appended to the same node's list just before this one.
    below: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use firmament_flow::builder::figure5;
    use firmament_flow::testgen::{scheduling_instance, InstanceSpec};
    use firmament_flow::NodeKind;
    use firmament_mcmf::{relaxation, ssp, SolveOptions};
    use std::collections::HashMap;

    #[test]
    fn figure5_extraction_matches_paper() {
        let (mut g, _, _) = figure5();
        ssp::solve(&mut g, &SolveOptions::unlimited()).unwrap();
        let p = extract_placements(&g);
        // Fig 5 solution: T0,1 (task index 1 of job 0) is unscheduled; in
        // builder::figure5, job-0 tasks are 0..3 and job-1 tasks reuse ids
        // 0..2, so we check counts rather than identities.
        let placed = p
            .values()
            .filter(|x| matches!(x, Placement::OnMachine(_)))
            .count();
        assert_eq!(placed, 4);
        // All four machines are distinct.
        let mut machines: Vec<u64> = p
            .values()
            .filter_map(|x| match x {
                Placement::OnMachine(m) => Some(*m),
                Placement::Unscheduled => None,
            })
            .collect();
        machines.sort_unstable();
        machines.dedup();
        assert_eq!(machines.len(), 4);
    }

    #[test]
    fn extraction_respects_flow_on_random_instances() {
        for seed in 0..5 {
            let mut inst = scheduling_instance(seed, &InstanceSpec::default());
            relaxation::solve(&mut inst.graph, &SolveOptions::unlimited()).unwrap();
            let p = extract_placements(&inst.graph);
            assert_eq!(p.len(), inst.tasks.len(), "seed {seed}");
            // Per-machine placement counts must equal machine→sink flow.
            let mut counts: HashMap<u64, i64> = HashMap::new();
            for v in p.values() {
                if let Placement::OnMachine(m) = v {
                    *counts.entry(*m).or_insert(0) += 1;
                }
            }
            for &mn in &inst.machines {
                let NodeKind::Machine { machine } = inst.graph.kind(mn) else {
                    panic!("machine node expected")
                };
                let outflow: i64 = inst
                    .graph
                    .adj(mn)
                    .iter()
                    .copied()
                    .filter(|&a| a.is_forward())
                    .map(|a| inst.graph.flow(a))
                    .sum();
                assert_eq!(
                    counts.get(&machine).copied().unwrap_or(0),
                    outflow,
                    "seed {seed} machine {machine}"
                );
            }
        }
    }

    #[test]
    fn empty_flow_extracts_all_unscheduled() {
        let inst = scheduling_instance(3, &InstanceSpec::default());
        let p = extract_placements(&inst.graph);
        assert!(p.values().all(|x| matches!(x, Placement::Unscheduled)));
    }

    #[test]
    fn multi_hop_aggregator_paths_extract() {
        // task → X → machine → sink: extraction must traverse the
        // aggregator.
        use firmament_flow::FlowGraph;
        let mut g = FlowGraph::new();
        let t0 = g.add_node(NodeKind::Task { task: 0 }, 1);
        let t1 = g.add_node(NodeKind::Task { task: 1 }, 1);
        let x = g.add_node(NodeKind::ClusterAggregator, 0);
        let m0 = g.add_node(NodeKind::Machine { machine: 0 }, 0);
        let m1 = g.add_node(NodeKind::Machine { machine: 1 }, 0);
        let s = g.add_node(NodeKind::Sink, -2);
        g.add_arc(t0, x, 1, 1).unwrap();
        g.add_arc(t1, x, 1, 1).unwrap();
        let xm0 = g.add_arc(x, m0, 1, 0).unwrap();
        let xm1 = g.add_arc(x, m1, 1, 5).unwrap();
        let m0s = g.add_arc(m0, s, 1, 0).unwrap();
        let m1s = g.add_arc(m1, s, 1, 0).unwrap();
        ssp::solve(&mut g, &SolveOptions::unlimited()).unwrap();
        assert_eq!(g.flow(xm0), 1);
        assert_eq!(g.flow(xm1), 1);
        assert_eq!(g.flow(m0s), 1);
        assert_eq!(g.flow(m1s), 1);
        let p = extract_placements(&g);
        let mut machines: Vec<u64> = p
            .values()
            .filter_map(|x| match x {
                Placement::OnMachine(m) => Some(*m),
                _ => None,
            })
            .collect();
        machines.sort_unstable();
        assert_eq!(machines, vec![0, 1]);
    }
}
