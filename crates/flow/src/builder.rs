//! Convenience builder for scheduling-shaped flow networks.
//!
//! Tests, examples, and documentation build small networks like the paper's
//! Fig 5 by hand; this builder removes the boilerplate of tracking node ids.

use crate::graph::{FlowGraph, GraphError};
use crate::ids::{ArcId, NodeId};
use crate::node::NodeKind;

/// Incrementally builds a [`FlowGraph`] shaped like the paper's examples:
/// task sources, optional aggregators, machines, per-job unscheduled
/// aggregators, and a single sink.
///
/// # Examples
///
/// Reconstructing the essence of Fig 5 (two jobs, four machines):
///
/// ```
/// use firmament_flow::SchedulingGraphBuilder;
///
/// let mut b = SchedulingGraphBuilder::new();
/// let m0 = b.machine(0);
/// let t00 = b.task(0, 0); // job 0, task 0
/// b.task_to_machine(t00, m0, 5).unwrap();
/// b.task_to_unscheduled(t00, 0, 9).unwrap();
/// let g = b.finish();
/// assert_eq!(g.total_supply(), 1);
/// ```
#[derive(Debug, Default)]
pub struct SchedulingGraphBuilder {
    graph: FlowGraph,
    sink: Option<NodeId>,
    unscheduled: Vec<(u64, NodeId)>,
}

impl SchedulingGraphBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the sink node, creating it on first use.
    pub fn sink(&mut self) -> NodeId {
        if let Some(s) = self.sink {
            s
        } else {
            let s = self.graph.add_node(NodeKind::Sink, 0);
            self.sink = Some(s);
            s
        }
    }

    /// Adds a task node for `(job, task)` with one unit of supply.
    ///
    /// `task` ids must be globally unique across jobs: placement extraction
    /// keys on them.
    pub fn task(&mut self, job: u64, task: u64) -> NodeId {
        let _ = job;
        let n = self.graph.add_node(NodeKind::Task { task }, 1);
        let sink = self.sink();
        // Keep the sink's demand in balance with the number of tasks.
        let d = self.graph.supply(sink) - 1;
        self.graph.set_supply(sink, d).expect("sink exists");
        n
    }

    /// Adds a machine node with `slots` units of capacity on its sink arc.
    pub fn machine(&mut self, machine: u64) -> NodeId {
        self.machine_with_slots(machine, 1)
    }

    /// Adds a machine node whose arc to the sink has the given capacity.
    pub fn machine_with_slots(&mut self, machine: u64, slots: i64) -> NodeId {
        let n = self.graph.add_node(NodeKind::Machine { machine }, 0);
        let sink = self.sink();
        self.graph
            .add_arc(n, sink, slots, 0)
            .expect("machine-sink arc");
        n
    }

    /// Adds an aggregator node of the given kind.
    pub fn aggregator(&mut self, kind: NodeKind) -> NodeId {
        self.graph.add_node(kind, 0)
    }

    /// Adds a unit-capacity preference arc from a task to a machine or
    /// aggregator.
    pub fn task_to_machine(
        &mut self,
        task: NodeId,
        target: NodeId,
        cost: i64,
    ) -> Result<ArcId, GraphError> {
        self.graph.add_arc(task, target, 1, cost)
    }

    /// Connects a task to its job's unscheduled aggregator (created on first
    /// use), with the given cost; the aggregator drains to the sink with
    /// effectively unbounded capacity.
    pub fn task_to_unscheduled(
        &mut self,
        task: NodeId,
        job: u64,
        cost: i64,
    ) -> Result<ArcId, GraphError> {
        let u = self.unscheduled_aggregator(job);
        self.graph.add_arc(task, u, 1, cost)
    }

    /// Returns (creating if needed) the unscheduled aggregator for a job.
    pub fn unscheduled_aggregator(&mut self, job: u64) -> NodeId {
        if let Some(&(_, n)) = self.unscheduled.iter().find(|&&(j, _)| j == job) {
            return n;
        }
        let n = self
            .graph
            .add_node(NodeKind::UnscheduledAggregator { job }, 0);
        let sink = self.sink();
        // Arcs between unscheduled aggregators and the sink are the only
        // ones without unit capacity in Fig 5.
        self.graph
            .add_arc(n, sink, i32::MAX as i64, 0)
            .expect("unscheduled-sink arc");
        self.unscheduled.push((job, n));
        n
    }

    /// Adds an arbitrary arc (for aggregator fan-out, etc.).
    pub fn arc(
        &mut self,
        src: NodeId,
        dst: NodeId,
        capacity: i64,
        cost: i64,
    ) -> Result<ArcId, GraphError> {
        self.graph.add_arc(src, dst, capacity, cost)
    }

    /// Consumes the builder and returns the graph.
    pub fn finish(self) -> FlowGraph {
        self.graph
    }
}

/// Builds the paper's Fig 5 network: two jobs (3 + 2 tasks), four machines,
/// per-job unscheduled aggregators, and the arc costs printed in the figure.
///
/// Returns the graph plus the task and machine node ids in figure order.
pub fn figure5() -> (FlowGraph, Vec<NodeId>, Vec<NodeId>) {
    let mut b = SchedulingGraphBuilder::new();
    let machines: Vec<NodeId> = (0..4).map(|m| b.machine(m)).collect();
    let mut tasks = Vec::new();
    // Job 0: three tasks with unscheduled cost 5. Task ids are globally
    // unique (0..3 for job 0, 3..5 for job 1).
    for i in 0..3 {
        let t = b.task(0, i);
        b.task_to_unscheduled(t, 0, 5).unwrap();
        tasks.push(t);
    }
    // Job 1: two tasks with unscheduled cost 7.
    for i in 3..5 {
        let t = b.task(1, i);
        b.task_to_unscheduled(t, 1, 7).unwrap();
        tasks.push(t);
    }
    // Preference arcs with the figure's costs.
    b.task_to_machine(tasks[0], machines[0], 2).unwrap();
    b.task_to_machine(tasks[0], machines[1], 3).unwrap();
    b.task_to_machine(tasks[1], machines[1], 6).unwrap();
    b.task_to_machine(tasks[2], machines[1], 1).unwrap();
    b.task_to_machine(tasks[3], machines[2], 4).unwrap();
    b.task_to_machine(tasks[4], machines[3], 2).unwrap();
    (b.finish(), tasks, machines)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::validate::validate;

    #[test]
    fn figure5_shape() {
        let (g, tasks, machines) = figure5();
        assert_eq!(tasks.len(), 5);
        assert_eq!(machines.len(), 4);
        // 4 machines + 5 tasks + 2 unscheduled aggregators + sink.
        assert_eq!(g.node_count(), 12);
        assert_eq!(g.total_supply(), 5);
        assert!(validate(&g).is_empty());
        // The sink absorbs all five units.
        let sink = g
            .node_ids()
            .find(|&n| g.kind(n).is_sink())
            .expect("sink exists");
        assert_eq!(g.supply(sink), -5);
    }

    #[test]
    fn unscheduled_aggregator_is_shared_per_job() {
        let mut b = SchedulingGraphBuilder::new();
        let t0 = b.task(3, 0);
        let t1 = b.task(3, 1);
        b.task_to_unscheduled(t0, 3, 5).unwrap();
        b.task_to_unscheduled(t1, 3, 5).unwrap();
        let g = b.finish();
        let aggs = g.node_ids().filter(|&n| g.kind(n).is_unscheduled()).count();
        assert_eq!(aggs, 1);
    }

    #[test]
    fn machine_slots_control_sink_capacity() {
        let mut b = SchedulingGraphBuilder::new();
        let m = b.machine_with_slots(0, 12);
        let g = b.finish();
        let arc = g.adj(m)[0];
        assert_eq!(g.capacity(arc), 12);
    }
}
