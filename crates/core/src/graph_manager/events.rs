//! The event arms: how each [`ClusterEvent`] changes the graph and which
//! nodes it leaves dirty for the next refresh.

use super::bundles::{declare_aggregate_arc, declare_task_arcs};
use super::refresh::price_unscheduled;
use super::{FlowGraphManager, JobEntry, MachineEntry, TaskEntry};
use firmament_cluster::{ClusterEvent, ClusterState, JobId, MachineId, Task, TaskId};
use firmament_flow::NodeKind;
use firmament_mcmf::incremental::drain_task_flow;
use firmament_policies::{whole_seconds, AggregateId, ArcTarget, CostModel, PolicyError};
use std::collections::hash_map::Entry;
use std::collections::BTreeMap;

impl FlowGraphManager {
    /// Applies one cluster event to the flow network, querying `model` for
    /// any newly required costs or arcs. `state` must already reflect the
    /// event (call [`ClusterState::apply`] first).
    pub fn apply_event<C: CostModel>(
        &mut self,
        model: &C,
        state: &ClusterState,
        event: &ClusterEvent,
    ) -> Result<(), PolicyError> {
        match event {
            ClusterEvent::Tick { .. } => {}
            ClusterEvent::MachineAdded { machine } => {
                let id = machine.id;
                if self.machines.contains_key(&id) {
                    return Err(PolicyError::DuplicateMachine(id));
                }
                // Validate every bundle before adding the machine, so a
                // rejected declaration leaves the graph untouched.
                let mut aggs: Vec<AggregateId> = self.aggregates.keys().copied().collect();
                aggs.sort_unstable();
                for &agg in &aggs {
                    declare_aggregate_arc(model, state, agg, machine)?;
                }
                let node = self.graph.add_node(NodeKind::Machine { machine: id }, 0);
                let slots = machine.slots as i64;
                let sink_arc = self.graph.add_arc(node, self.sink, slots, 0)?;
                let bundles = BTreeMap::new();
                let entry = MachineEntry {
                    node,
                    sink_arc,
                    bundles,
                };
                self.machines.insert(id, entry);
                for agg in aggs {
                    self.sync_machine_bundle(model, state, agg, machine)?;
                }
                self.dirty_machines.insert(id);
                self.machine_set_changed(model, state, id)?;
            }
            ClusterEvent::MachineRemoved { machine, .. } => {
                // The lookup comes first, so an unknown machine changes
                // nothing.
                let entry = self
                    .machines
                    .remove(machine)
                    .ok_or(PolicyError::UnknownMachine(*machine))?;
                self.task_table.clear_running_on(*machine);
                self.dirty_machines.remove(machine);
                self.graph.remove_node(entry.node)?;
                self.machine_set_changed(model, state, *machine)?;
            }
            ClusterEvent::JobSubmitted { job, tasks } => {
                // Reject duplicate ids, invalid task-arc declarations and
                // overflowing wait costs before adding any task, so a bad
                // submission leaves the graph untouched.
                let known = |t: &&Task| self.task_table.contains(t.id);
                if let Some(id) =
                    repeated_id(tasks).or_else(|| tasks.iter().find(known).map(|t| t.id))
                {
                    return Err(PolicyError::DuplicateTask(id));
                }
                let epoch = self.epoch.unwrap_or(whole_seconds(state.now));
                let declared = tasks
                    .iter()
                    .map(|task| {
                        let arcs = declare_task_arcs(model, state, task)?;
                        Ok((arcs, price_unscheduled(model, state, task, epoch)?))
                    })
                    .collect::<Result<Vec<_>, PolicyError>>()?;
                self.epoch = Some(epoch);
                for (task, (arcs, (base, cost))) in tasks.iter().zip(declared) {
                    self.min_base = self.min_base.min(base);
                    self.add_task(task.id, job.id, cost)?;
                    self.install_waiting_arcs(model, state, task, arcs)?;
                    self.dirty_tasks.insert(task.id);
                }
            }
            ClusterEvent::TaskPlaced { task, machine, .. } => {
                self.move_task(model, state, *task, Some(*machine))?;
            }
            ClusterEvent::TaskPreempted { task, .. } => {
                self.move_task(model, state, *task, None)?;
            }
            ClusterEvent::TaskCompleted { task, .. } => {
                // Both lookups precede the drain, so an unknown task
                // leaves the graph untouched.
                let job = state
                    .tasks
                    .get(task)
                    .ok_or(PolicyError::UnknownTask(*task))?
                    .job;
                let entry = self
                    .task_table
                    .remove(*task)
                    .ok_or(PolicyError::UnknownTask(*task))?;
                // Efficient task removal (§5.3.2): drain the departing
                // task's flow before deleting the node so the graph stays
                // balanced for the incremental solver.
                drain_task_flow(&mut self.graph, entry.node);
                self.graph.remove_node(entry.node)?;
                self.graph
                    .set_supply(self.sink, self.graph.supply(self.sink) + 1)?;
                if let Some(j) = self.jobs.get_mut(&job) {
                    let cap = self.graph.capacity(j.sink_arc);
                    self.graph.set_arc_capacity(j.sink_arc, (cap - 1).max(0))?;
                    j.tasks = (j.tasks - 1).max(0);
                }
                self.task_slots.remove(task);
                self.dirty_tasks.remove(task);
                if let Some(m) = entry.running {
                    self.dirty_machines.insert(m);
                }
            }
        }
        Ok(())
    }

    /// Moves `task` onto machine `to` (`TaskPlaced`) or back to the waiting
    /// pool (`TaskPreempted`, `to` = `None`). The lookups — the task's
    /// node, then `to`'s node, then the task in `state` — and, for a
    /// preemption, the declaration and validation of the task's waiting
    /// arcs all precede the first mutation, so a rejected event changes
    /// nothing.
    ///
    /// The task's old flow (which may route through aggregator chains) is
    /// drained before its arcs are rewired: removing a flow-carrying arc
    /// would strand stale flow on the aggregates or machine below,
    /// unbalancing the warm start and pinning otherwise-dead aggregates
    /// past garbage collection. A running task keeps exactly two arcs: the
    /// zero-ish-cost arc to its machine and the preemption arc to `U_j`.
    /// Both the machine the task leaves and the one it joins are dirtied,
    /// so a direct migration re-prices the machine it left too.
    fn move_task<C: CostModel>(
        &mut self,
        model: &C,
        state: &ClusterState,
        task: TaskId,
        to: Option<MachineId>,
    ) -> Result<(), PolicyError> {
        let t = self.task_node(task).ok_or(PolicyError::UnknownTask(task))?;
        let mn = match to {
            Some(m) => Some(self.machine_node(m).ok_or(PolicyError::UnknownMachine(m))?),
            None => None,
        };
        let task_data = state
            .tasks
            .get(&task)
            .ok_or(PolicyError::UnknownTask(task))?;
        let declared = match to {
            Some(_) => Vec::new(),
            None => declare_task_arcs(model, state, task_data)?,
        };
        drain_task_flow(&mut self.graph, t);
        self.strip_task_arcs(task)?;
        if let (Some(m), Some(mn)) = (to, mn) {
            let cost = model.running_arc_cost(state, task_data, m);
            self.graph.add_arc(t, mn, 1, cost)?;
            self.dirty_machines.insert(m);
        } else {
            self.install_waiting_arcs(model, state, task_data, declared)?;
            self.dirty_tasks.insert(task);
        }
        if let Some(old) = self.task_table.set_running(task, to) {
            self.dirty_machines.insert(old);
        }
        Ok(())
    }

    /// The fallout of a machine arrival or removal, once the machine's own
    /// node and record are in step.
    ///
    /// Machine-set changes can alter EC→EC capacities (which aggregate
    /// subtree slots) and even create hierarchy levels (first machine of a
    /// new rack), so every aggregate's EC→EC arcs are re-synced at the next
    /// refresh. A flat model holds one or a few aggregates, whose
    /// `aggregate_to_aggregate` query returns nothing.
    ///
    /// They also change waiting tasks' declared arc *sets*, not just those
    /// of displaced tasks: a model that names an arriving machine (or its
    /// rack) as a preference target declares arcs the old graph lacks, and
    /// block replicas die with a failed machine, so locality-driven arcs
    /// (e.g. a rack arc whose holders are gone) may no longer be declared.
    /// Waiting tasks' arcs are re-derived from the model, exactly as a
    /// from-scratch build would; the differential fuzz suite pins it. For
    /// models whose task arcs are **machine-local**
    /// ([`CostModel::task_arcs_machine_local`]), re-derivation is narrowed
    /// to the waiting tasks whose declared targets reference `machine` —
    /// every other task's declaration cannot have changed, by the model's
    /// own contract.
    fn machine_set_changed<C: CostModel>(
        &mut self,
        model: &C,
        state: &ClusterState,
        machine: MachineId,
    ) -> Result<(), PolicyError> {
        self.dirty_aggs.extend(self.aggregates.keys().copied());
        let narrow = model.task_arcs_machine_local();
        let mut waiting: Vec<TaskId> = state.waiting_tasks().map(|t| t.id).collect();
        waiting.sort_unstable();
        for tid in waiting {
            // A task without a cached declaration just became waiting
            // (displaced by this very machine removal) and derives its arc
            // set from scratch regardless of narrowing.
            let unaffected = narrow
                && self.task_slots.get(&tid).is_some_and(|slots| {
                    !slots.iter().any(|(t, _)| *t == ArcTarget::Machine(machine))
                });
            if unaffected || !self.task_table.contains(tid) {
                continue;
            }
            let task = &state.tasks[&tid];
            self.strip_task_arcs(tid)?;
            let declared = declare_task_arcs(model, state, task)?;
            self.install_waiting_arcs(model, state, task, declared)?;
            self.dirty_tasks.insert(tid);
            self.stats.waiting_rederived += 1;
        }
        Ok(())
    }

    /// Adds a task node with one unit of supply and its arc to the job's
    /// unscheduled aggregator `U_j`, creating `U_j` and its `U_j → S` arc
    /// (at the clock's current cost) after the task node on the job's
    /// first task; grows the sink demand and the `U_j → S` capacity by
    /// one.
    fn add_task(&mut self, task: TaskId, job: JobId, unsched_cost: i64) -> Result<(), PolicyError> {
        let node = self.graph.add_node(NodeKind::Task { task }, 1);
        let j = match self.jobs.entry(job) {
            Entry::Occupied(e) => e.into_mut(),
            Entry::Vacant(e) => {
                let kind = NodeKind::UnscheduledAggregator { job };
                let unsched = self.graph.add_node(kind, 0);
                let sink_arc = self.graph.add_arc(unsched, self.sink, 0, self.clock_cost)?;
                e.insert(JobEntry {
                    unsched,
                    sink_arc,
                    tasks: 0,
                })
            }
        };
        j.tasks += 1;
        let unsched_arc = self.graph.add_arc(node, j.unsched, 1, unsched_cost)?;
        let entry = TaskEntry {
            node,
            unsched_arc,
            running: None,
        };
        self.task_table.insert(task, entry);
        self.graph
            .set_supply(self.sink, self.graph.supply(self.sink) - 1)?;
        let cap = self.graph.capacity(j.sink_arc);
        self.graph.set_arc_capacity(j.sink_arc, cap + 1)?;
        Ok(())
    }
}

/// The smallest task id listed more than once in a submission, if any.
/// Submissions usually list ids in ascending order, which is checked
/// without allocating.
fn repeated_id(tasks: &[Task]) -> Option<TaskId> {
    if tasks.windows(2).all(|w| w[0].id < w[1].id) {
        return None;
    }
    let mut ids: Vec<TaskId> = tasks.iter().map(|t| t.id).collect();
    ids.sort_unstable();
    ids.windows(2).find(|w| w[0] == w[1]).map(|w| w[0])
}
