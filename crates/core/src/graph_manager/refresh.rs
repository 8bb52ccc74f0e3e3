//! The refresh: the two-pass cost update of §6.3 over the dirty nodes,
//! the clock on the jobs' `U_j → S` arcs and gang admission control.

use super::{FlowGraphManager, TaskEntry};
use firmament_cluster::{ClusterState, Job, JobId, MachineId, Task, TaskId};
use firmament_flow::{ArcId, NodeId, NodeKind};
use firmament_policies::{wait_cost, whole_seconds, AggregateId, CostModel, PolicyError};
use std::collections::{BTreeSet, HashMap, HashSet};

/// One re-priced `T → U_j` arc: the task, the arc and its new cost.
type Priced = (TaskId, ArcId, i64);

/// What one refresh sets on the clock's arcs, all computed before the
/// refresh changes the graph.
struct Clock {
    /// The wait epoch `E` after this refresh.
    epoch: i64,
    /// The cost of every job's `U_j → S` arc: per_sec × (⌊now⌋ −
    /// `epoch`).
    wait_cost: i64,
    /// `(task, T → U_j arc, cost)` in `TaskId` order: the dirty tasks, or
    /// every task when the epoch re-bases.
    tasks: Vec<Priced>,
    /// The running minimum of live tasks' bases after this refresh.
    min_base: i64,
}

/// A task's base unscheduled cost and its `T → U_j` cost at `epoch`:
/// base + per_sec × (`epoch` − ⌊submit⌋), checked.
pub(super) fn price_unscheduled<C: CostModel>(
    model: &C,
    state: &ClusterState,
    task: &Task,
    epoch: i64,
) -> Result<(i64, i64), PolicyError> {
    let base = model.task_unscheduled_cost(state, task);
    let submit = whole_seconds(task.submit_time);
    wait_cost(model.wait_cost_per_sec(), submit, epoch)
        .and_then(|waited| base.checked_add(waited))
        .map(|cost| (base, cost))
        .ok_or(PolicyError::WaitCostOverflow {
            task: Some(task.id),
        })
}

/// Prices the `T → U_j` arcs of `entries` at `epoch`, lowering `min_base`
/// by each base. A task the cluster state no longer knows is skipped.
fn price_tasks<C: CostModel>(
    model: &C,
    state: &ClusterState,
    entries: impl Iterator<Item = (TaskId, TaskEntry)>,
    epoch: i64,
    min_base: &mut i64,
) -> Result<Vec<Priced>, PolicyError> {
    let mut priced = Vec::new();
    for (tid, entry) in entries {
        let Some(task) = state.tasks.get(&tid) else {
            continue;
        };
        let (base, cost) = price_unscheduled(model, state, task, epoch)?;
        *min_base = (*min_base).min(base);
        priced.push((tid, entry.unsched_arc, cost));
    }
    Ok(priced)
}

impl FlowGraphManager {
    /// The two-pass cost update (§6.3): pass 1 collects the dirty node
    /// sets (machines touched by events — all of them, and every
    /// aggregate, for models with dynamic arcs — plus tasks touched by
    /// events, plus aggregates above any dirty machine, with dirtiness
    /// propagated *up* multi-level EC→EC chains); pass 2 re-queries the
    /// model for exactly those and applies the deltas. A quiescent round
    /// (no events, clock unchanged) touches nothing.
    ///
    /// A clock advance costs one `CostChanged` per job with tasks in the
    /// graph, on its `U_j → S` arc (see the
    /// [module docs](crate::graph_manager) on waiting time), and none when
    /// the whole second did not change. It walks the task table only to
    /// re-base the epoch, which is rare. The refresh's only task work is
    /// pricing `T → U_j` arcs: the dirty tasks' (a preemption or a
    /// machine-set change re-derived their arcs), or every task's on a
    /// re-base. A waiting task's preference bundles keep the costs its
    /// last declaration gave them. The clock's costs are computed and
    /// checked first, so a [`PolicyError::WaitCostOverflow`] leaves the
    /// graph untouched.
    ///
    /// Pass 2 re-syncs bundles **in place**: segment slots keep their
    /// identity, so a re-priced ladder reaches the incremental solver as
    /// cost/capacity deltas, never as structural churn.
    ///
    /// The refresh also runs gang admission control (deferring gang caps
    /// that would make the network infeasible; see
    /// [`deferred_gang_jobs`](Self::deferred_gang_jobs)) and garbage-
    /// collects aggregates whose task in-degree dropped to zero.
    pub fn refresh<C: CostModel>(
        &mut self,
        model: &C,
        state: &ClusterState,
    ) -> Result<(), PolicyError> {
        let clock = self.price_clock(model, state)?;
        // Pass 1: dirty-set collection. A dynamic model's arcs react to
        // monitored state, so every machine and aggregate is dirty.
        let dynamic = model.dynamic_aggregate_arcs();
        if dynamic {
            self.dirty_machines.extend(state.machines.keys().copied());
            self.dirty_aggs.extend(self.aggregates.keys().copied());
        }
        let mut machines: Vec<MachineId> = (self.dirty_machines.iter().copied())
            .filter(|m| state.machines.contains_key(m))
            .collect();
        machines.sort_unstable();
        let dirty_aggs = self.collect_dirty_aggregates(&machines);

        // EC→EC re-sync: for every dirty aggregate, bring its declared
        // aggregate→aggregate arc set up to date *before* the machine-arc
        // pass, so aggregates materialized here (e.g. a brand-new rack
        // level) already have their machine arcs when that pass runs.
        for &agg in &dirty_aggs {
            self.sync_aggregate_children(model, state, agg, &mut Vec::new())?;
        }

        // Pass 2: apply cost/capacity deltas for the dirty nodes only. A
        // static-structure model (the common case) re-syncs exactly the
        // bundles a dirty machine already has; a dynamic model (Fig 6c)
        // visits every aggregate, since its arc *set* reacts to monitored
        // state.
        let mut aggs = Vec::new();
        for &mid in &machines {
            let machine = &state.machines[&mid];
            aggs.clear();
            if dynamic {
                aggs.extend(self.aggregates.keys());
                aggs.sort_unstable();
            } else if let Some(m) = self.machines.get(&mid) {
                aggs.extend(m.bundles.keys());
            }
            for &agg in &aggs {
                self.sync_machine_bundle(model, state, agg, machine)?;
            }
        }
        // The priced `T → U_j` arcs in TaskId order; the jobs' `U_j → S`
        // arcs take the clock in the job pass below.
        for &(_, arc, cost) in &clock.tasks {
            self.graph.set_arc_cost(arc, cost)?;
        }
        self.epoch = Some(clock.epoch);
        self.min_base = clock.min_base;
        self.clock_cost = clock.wait_cost;
        let tasks_touched = clock.tasks.len();
        // The clock on every `U_j → S` arc, in JobId order, then gang
        // constraints with admission control: cap `U_j → S` at
        // incomplete − minimum so at least `minimum` of the job's tasks
        // are forced through machines — but only while (a) the sum of
        // forced flows fits in total machine capacity and (b) the job's
        // own tasks can actually *reach* that much machine capacity
        // through positive-capacity arcs. A gang beyond either bound
        // would make the network infeasible (a solver error), so the job
        // is *deferred* instead: its cap stays at `incomplete` (the job
        // queues, unconstrained) and it is re-considered every refresh.
        // Both bounds are fast necessary conditions, not a max-flow: a
        // model that bottlenecks a gang below its minimum on *interior*
        // arc capacities (or makes admitted gangs compete for the same
        // machines) can still declare an unsatisfiable constraint, which
        // then surfaces as a solver error. Only jobs with tasks still in
        // the graph are consulted, so the pass stays proportional to live
        // work, not total jobs submitted; a job's incomplete count is its
        // record's task count, not a scan of its task list.
        self.deferred_gangs.clear();
        let mut jobs: Vec<(JobId, i64, ArcId)> = self
            .jobs
            .iter()
            .filter(|(_, j)| j.tasks > 0)
            .map(|(&id, j)| (id, j.tasks, j.sink_arc))
            .collect();
        jobs.sort_unstable();
        let budget: i64 = state.machines.values().map(|m| m.slots as i64).sum();
        let mut committed: i64 = 0;
        for (jid, incomplete, ua) in jobs {
            self.graph.set_arc_cost(ua, clock.wait_cost)?;
            let Some(job) = state.jobs.get(&jid) else {
                continue;
            };
            let gang = model.job_gang_minimum(state, job);
            if gang <= 0 {
                continue;
            }
            let forced = gang.min(incomplete);
            if committed + forced > budget || forced > self.job_reachable_machine_capacity(job) {
                self.deferred_gangs.push(jid);
                self.graph.set_arc_capacity(ua, incomplete)?;
                continue;
            }
            committed += forced;
            self.graph
                .set_arc_capacity(ua, (incomplete - gang).max(0))?;
        }

        let collected = self.collect_dead_aggregates()?;

        self.stats.rounds += 1;
        self.stats.machines_touched += machines.len() as u64;
        self.stats.tasks_touched += tasks_touched as u64;
        self.stats.aggregates_touched += dirty_aggs.len() as u64;
        self.stats.aggregates_collected += collected as u64;
        self.stats.last_machines_touched = machines.len();
        self.stats.last_tasks_touched = tasks_touched;
        self.stats.last_aggregates_touched = dirty_aggs.len();
        self.dirty_machines.clear();
        self.dirty_tasks.clear();
        self.dirty_aggs.clear();
        Ok(())
    }

    /// The dirty-aggregate set for this refresh: aggregates explicitly
    /// dirtied by events plus those with an arc to a dirty machine, with
    /// dirtiness propagated *up* every EC→EC chain (a parent's arc to a
    /// dirty child may price the child's whole subtree).
    fn collect_dirty_aggregates(&self, dirty_machines: &[MachineId]) -> BTreeSet<AggregateId> {
        let mut set: BTreeSet<AggregateId> = self.dirty_aggs.iter().copied().collect();
        for m in dirty_machines {
            if let Some(m) = self.machines.get(m) {
                set.extend(m.bundles.keys().copied());
            }
        }
        // Reverse EC→EC edges (child → parents) for the upward sweep.
        let mut parents: HashMap<AggregateId, Vec<AggregateId>> = HashMap::new();
        for (&parent, a) in &self.aggregates {
            for &child in a.children.keys() {
                parents.entry(child).or_default().push(parent);
            }
        }
        let mut work: Vec<AggregateId> = set.iter().copied().collect();
        while let Some(a) = work.pop() {
            if let Some(ps) = parents.get(&a) {
                for &p in ps {
                    if set.insert(p) {
                        work.push(p);
                    }
                }
            }
        }
        set.retain(|a| self.aggregates.contains_key(a));
        set
    }

    /// The clock's costs for this refresh, computed and checked before
    /// any graph change: the `T → U_j` costs of the dirty tasks at the
    /// current epoch, and the `U_j → S` cost for ⌊now⌋. When that cost
    /// would exceed the smallest base of any live task (or the clock went
    /// back), the epoch re-bases to ⌊now⌋ instead: `U_j → S` drops to 0 and
    /// every task is re-priced, which keeps every `T → U_j` cost at or
    /// above its base and recomputes the minimum.
    fn price_clock<C: CostModel>(
        &self,
        model: &C,
        state: &ClusterState,
    ) -> Result<Clock, PolicyError> {
        let now = whole_seconds(state.now);
        let per_sec = model.wait_cost_per_sec();
        let epoch = self.epoch.unwrap_or(now);
        let mut dirty: Vec<TaskId> = self.dirty_tasks.iter().copied().collect();
        dirty.sort_unstable();
        let entries = dirty
            .into_iter()
            .filter_map(|t| Some((t, self.task_table.get(t)?)));
        let mut min_base = self.min_base;
        let tasks = price_tasks(model, state, entries, epoch, &mut min_base)?;
        let overflow = PolicyError::WaitCostOverflow { task: None };
        let wait_cost = wait_cost(per_sec, epoch, now).ok_or(overflow)?;
        if per_sec == 0 || (now >= epoch && wait_cost <= min_base) {
            return Ok(Clock {
                epoch,
                wait_cost,
                tasks,
                min_base,
            });
        }
        let mut min_base = i64::MAX;
        let tasks = price_tasks(model, state, self.task_table.iter(), now, &mut min_base)?;
        Ok(Clock {
            epoch: now,
            wait_cost: 0,
            tasks,
            min_base,
        })
    }

    /// Machine → sink capacity reachable from `job`'s task nodes through
    /// positive-capacity arcs (across any aggregator depth) — a fast
    /// upper bound on how much of the job's flow can reach machines, used
    /// by gang admission control. Not a max flow: interior bottlenecks
    /// are ignored, so this can overestimate, never underestimate.
    fn job_reachable_machine_capacity(&self, job: &Job) -> i64 {
        let g = &self.graph;
        let mut work: Vec<NodeId> = job
            .tasks
            .iter()
            .filter_map(|t| self.task_node(*t))
            .collect();
        let mut visited: HashSet<NodeId> = work.iter().copied().collect();
        let mut cap = 0i64;
        while let Some(n) = work.pop() {
            for &a in g.adj(n) {
                if !a.is_forward() || g.capacity(a) <= 0 {
                    continue;
                }
                let dst = g.dst(a);
                if !visited.insert(dst) {
                    continue;
                }
                match g.kind(dst) {
                    NodeKind::Machine { machine } => {
                        if let Some(m) = self.machines.get(&machine) {
                            cap += g.capacity(m.sink_arc);
                        }
                    }
                    NodeKind::UnscheduledAggregator { .. } | NodeKind::Sink => {}
                    _ => work.push(dst),
                }
            }
        }
        cap
    }
}
