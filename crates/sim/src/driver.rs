//! The discrete-event cluster simulator ("Fauxmaster"-style, §7.1).
//!
//! Like the paper's simulator, this driver runs Firmament's *real* code and
//! scheduling logic against simulated machines: the MCMF solver executes
//! for real and its measured wall-clock runtime is charged to the virtual
//! clock, reproducing the Fig 2b semantics — while the solver runs, new
//! events accumulate and are only considered by the *next* run, so task
//! placement latency includes solver wait time.
//!
//! Queue-based baseline schedulers (Fig 2a) are driven task-by-task with a
//! fixed per-decision latency instead.

use crate::metrics::Samples;
use crate::trace::{GoogleTraceGenerator, JobArrival, TraceSpec};
use firmament_baselines::QueueScheduler;
use firmament_cluster::{
    ClusterEvent, ClusterState, JobClass, TaskId, TaskState, Time, TopologySpec,
};
use firmament_core::{Firmament, SchedulingAction};
use firmament_mcmf::AlgorithmKind;
use firmament_policies::CostModel;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, VecDeque};

/// Simulation configuration.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Cluster topology.
    pub topology: TopologySpec,
    /// Workload generation parameters.
    pub trace: TraceSpec,
    /// Simulated duration after warmup, in seconds.
    pub duration_s: f64,
    /// Multiplier applied to measured solver runtime when charging the
    /// virtual clock (1.0 = faithful; lower values model faster hardware).
    pub runtime_scale: f64,
    /// Per-task decision latency of queue-based schedulers, in µs.
    pub queue_task_latency_us: u64,
    /// Pre-populate the cluster to the target utilization before measuring.
    pub warmup: bool,
    /// Mean time between machine failures across the whole cluster, in
    /// seconds (0 disables failure injection). A failed machine loses its
    /// tasks (they requeue) and rejoins after `repair_s`.
    pub mtbf_s: f64,
    /// Machine repair time in seconds.
    pub repair_s: f64,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            topology: TopologySpec {
                machines: 100,
                machines_per_rack: 40,
                slots_per_machine: 12,
            },
            trace: TraceSpec::default(),
            duration_s: 60.0,
            runtime_scale: 1.0,
            queue_task_latency_us: 1_000,
            warmup: true,
            mtbf_s: 0.0,
            repair_s: 5.0,
        }
    }
}

/// Aggregated simulation results.
#[derive(Debug, Default)]
pub struct SimReport {
    /// Per-task placement latency (submission → placement), seconds.
    pub placement_latency: Samples,
    /// Per-round solver algorithm runtime, seconds.
    pub algorithm_runtime: Samples,
    /// Batch task response times (submission → completion), seconds.
    pub task_response: Samples,
    /// Batch job response times (submission → last task completion),
    /// seconds.
    pub job_response: Samples,
    /// `(virtual time s, algorithm runtime s)` per round, for timelines
    /// (Fig 16).
    pub runtime_timeline: Vec<(f64, f64)>,
    /// Tasks placed at least once.
    pub placed_tasks: u64,
    /// Batch tasks that completed.
    pub completed_tasks: u64,
    /// Preemption actions applied.
    pub preemptions: u64,
    /// Scheduling rounds run (flow scheduler only).
    pub rounds: u64,
    /// Rounds per algorithm that produced the round's flow (the race's
    /// winner, or the hedge's solver).
    pub algorithm_wins: HashMap<String, u64>,
    /// Slot utilization at the end of the run.
    pub final_utilization: f64,
}

enum EventKind {
    Arrival(Box<JobArrival>),
    MachineFailure,
    MachineRepair {
        machine: firmament_cluster::Machine,
    },
    Completion {
        task: TaskId,
        placed_at: Time,
    },
    SolverDone {
        actions: Vec<SchedulingAction>,
        runtime_s: f64,
        winner: AlgorithmKind,
    },
}

/// Runs the simulation with Firmament (flow-based scheduling).
pub fn run_flow_sim<C: CostModel>(config: &SimConfig, mut firmament: Firmament<C>) -> SimReport {
    let mut sim = Sim::new(config);
    // Register machines with the policy.
    let mut machines: Vec<_> = sim.state.machines.values().cloned().collect();
    machines.sort_by_key(|m| m.id);
    for m in machines {
        firmament
            .handle_event(&sim.state, &ClusterEvent::MachineAdded { machine: m })
            .expect("machine registration");
    }
    let mut solver_busy = false;
    let mut pending_changes = sim.bootstrap(|state, ev| {
        firmament.handle_event(state, ev).expect("policy event");
    });
    if pending_changes {
        // Schedule the warmup workload immediately at t = 0.
        let outcome = firmament.schedule(&sim.state).expect("solver");
        let runtime_s = outcome.algorithm_runtime.as_secs_f64() * sim.runtime_scale;
        let done_at = ((runtime_s * 1e6) as Time).max(1);
        sim.push(
            done_at,
            EventKind::SolverDone {
                actions: outcome.actions,
                runtime_s: outcome.algorithm_runtime.as_secs_f64(),
                winner: outcome.winner,
            },
        );
        solver_busy = true;
        pending_changes = false;
    }

    while let Some((now, kind)) = sim.pop() {
        match kind {
            EventKind::Arrival(a) => {
                sim.apply_arrival(&a, |state, ev| {
                    firmament.handle_event(state, ev).expect("policy event");
                });
                pending_changes = true;
            }
            EventKind::Completion { task, placed_at } => {
                if sim.complete_if_current(task, placed_at, |state, ev| {
                    firmament.handle_event(state, ev).expect("policy event");
                }) {
                    pending_changes = true;
                }
            }
            EventKind::MachineFailure => {
                if sim.fail_random_machine(|state, ev| {
                    firmament.handle_event(state, ev).expect("policy event");
                }) {
                    pending_changes = true;
                }
            }
            EventKind::MachineRepair { machine } => {
                sim.repair_machine(machine, |state, ev| {
                    firmament.handle_event(state, ev).expect("policy event");
                });
                pending_changes = true;
            }
            EventKind::SolverDone {
                actions,
                runtime_s,
                winner,
            } => {
                solver_busy = false;
                sim.report.rounds += 1;
                sim.report.algorithm_runtime.push(runtime_s);
                sim.report
                    .runtime_timeline
                    .push((now as f64 / 1e6, runtime_s));
                *sim.report
                    .algorithm_wins
                    .entry(winner.to_string())
                    .or_insert(0) += 1;
                sim.apply_actions(&actions, |state, ev| {
                    firmament.handle_event(state, ev).expect("policy event");
                });
            }
        }
        if pending_changes && !solver_busy && sim.within_horizon(now) {
            // Start the next solver run on the current snapshot.
            let outcome = firmament.schedule(&sim.state).expect("solver");
            let runtime_s = outcome.algorithm_runtime.as_secs_f64() * sim.runtime_scale;
            let done_at = now + ((runtime_s * 1e6) as Time).max(1);
            sim.push(
                done_at,
                EventKind::SolverDone {
                    actions: outcome.actions,
                    runtime_s: outcome.algorithm_runtime.as_secs_f64(),
                    winner: outcome.winner,
                },
            );
            solver_busy = true;
            pending_changes = false;
        }
    }
    sim.finish()
}

/// Runs the simulation with a queue-based baseline scheduler.
pub fn run_queue_sim(config: &SimConfig, mut scheduler: Box<dyn QueueScheduler>) -> SimReport {
    let mut sim = Sim::new(config);
    let mut wait_queue: VecDeque<TaskId> = VecDeque::new();
    let decision_us = config.queue_task_latency_us;
    let mut place_now = |sim: &mut Sim, queue: &mut VecDeque<TaskId>, now: Time| {
        // Try to place as many queued tasks as fit, task by task.
        let mut requeue = VecDeque::new();
        while let Some(task) = queue.pop_front() {
            let Some(t) = sim.state.tasks.get(&task) else {
                continue;
            };
            if !matches!(t.state, TaskState::Waiting | TaskState::Preempted) {
                continue;
            }
            let t = t.clone();
            match scheduler.place(&sim.state, &t) {
                Some(machine) => {
                    let at = now + decision_us;
                    sim.place_task(task, machine, at, |_, _| {});
                }
                None => requeue.push_back(task),
            }
        }
        *queue = requeue;
    };

    let pending = sim.bootstrap(|_, _| {});
    if pending {
        let mut all: VecDeque<TaskId> = sim
            .state
            .waiting_tasks()
            .map(|t| t.id)
            .collect::<Vec<_>>()
            .into_iter()
            .collect();
        let now = sim.state.now;
        place_now(&mut sim, &mut all, now);
        wait_queue = all;
    }

    while let Some((now, kind)) = sim.pop() {
        match kind {
            EventKind::Arrival(a) => {
                sim.apply_arrival(&a, |_, _| {});
                for t in &a.tasks {
                    wait_queue.push_back(t.id);
                }
                place_now(&mut sim, &mut wait_queue, now);
            }
            EventKind::Completion { task, placed_at } => {
                if sim.complete_if_current(task, placed_at, |_, _| {}) {
                    place_now(&mut sim, &mut wait_queue, now);
                }
            }
            EventKind::MachineFailure => {
                if sim.fail_random_machine(|_, _| {}) {
                    // Displaced tasks rejoin the wait queue.
                    let waiting: Vec<TaskId> = sim
                        .state
                        .waiting_tasks()
                        .map(|t| t.id)
                        .filter(|t| !wait_queue.contains(t))
                        .collect();
                    wait_queue.extend(waiting);
                }
            }
            EventKind::MachineRepair { machine } => {
                sim.repair_machine(machine, |_, _| {});
                place_now(&mut sim, &mut wait_queue, now);
            }
            EventKind::SolverDone { .. } => unreachable!("queue sims run no solver"),
        }
    }
    sim.finish()
}

/// Shared simulation plumbing.
struct Sim {
    state: ClusterState,
    generator: GoogleTraceGenerator,
    fault_rng: firmament_flow::testgen::XorShift64,
    mtbf_us: f64,
    repair_us: u64,
    pub failures_injected: u64,
    events: BinaryHeap<Reverse<(Time, u64)>>,
    payloads: HashMap<(Time, u64), EventKind>,
    seq: u64,
    horizon: Time,
    runtime_scale: f64,
    warmup: bool,
    job_remaining: HashMap<u64, usize>,
    report: SimReport,
}

impl Sim {
    fn new(config: &SimConfig) -> Self {
        let state = ClusterState::with_topology(&config.topology);
        let generator = GoogleTraceGenerator::new(config.trace.clone());
        Sim {
            state,
            generator,
            fault_rng: firmament_flow::testgen::XorShift64::new(config.trace.seed ^ 0xFA17),
            mtbf_us: config.mtbf_s * 1e6,
            repair_us: (config.repair_s * 1e6) as Time,
            failures_injected: 0,
            events: BinaryHeap::new(),
            payloads: HashMap::new(),
            seq: 0,
            horizon: (config.duration_s * 1e6) as Time,
            runtime_scale: config.runtime_scale,
            warmup: config.warmup,
            job_remaining: HashMap::new(),
            report: SimReport::default(),
        }
    }

    fn within_horizon(&self, now: Time) -> bool {
        now <= self.horizon
    }

    fn push(&mut self, at: Time, kind: EventKind) {
        let key = (at, self.seq);
        self.seq += 1;
        self.events.push(Reverse(key));
        self.payloads.insert(key, kind);
    }

    fn pop(&mut self) -> Option<(Time, EventKind)> {
        let Reverse(key) = self.events.pop()?;
        let kind = self.payloads.remove(&key).expect("payload exists");
        self.state.now = self.state.now.max(key.0);
        Some((key.0, kind))
    }

    /// Seeds the warmup workload and the first arrival; returns whether any
    /// work is pending.
    fn bootstrap(&mut self, mut on_event: impl FnMut(&ClusterState, &ClusterEvent)) -> bool {
        let mut pending = false;
        if self.warmup {
            let mut state = std::mem::take(&mut self.state);
            let warm = self.generator.warmup(&mut state);
            self.state = state;
            for a in warm {
                self.submit(&a, &mut on_event);
                pending = true;
            }
        }
        let mut state = std::mem::take(&mut self.state);
        let first = self.generator.next_arrival(&mut state);
        self.state = state;
        if first.time <= self.horizon {
            self.push(first.time, EventKind::Arrival(Box::new(first)));
        }
        if self.mtbf_us > 0.0 {
            let at = (crate::distributions::exponential(&mut self.fault_rng, self.mtbf_us)) as Time;
            if at <= self.horizon {
                self.push(at, EventKind::MachineFailure);
            }
        }
        pending
    }

    /// Fails a uniformly random machine (fail-stop: its tasks requeue with
    /// progress lost) and schedules its repair plus the next failure.
    /// Returns `false` if no machine was available to fail.
    fn fail_random_machine(
        &mut self,
        mut on_event: impl FnMut(&ClusterState, &ClusterEvent),
    ) -> bool {
        // Chain the next failure first.
        if self.mtbf_us > 0.0 {
            let at = self.state.now
                + (crate::distributions::exponential(&mut self.fault_rng, self.mtbf_us)) as Time;
            if at <= self.horizon {
                self.push(at, EventKind::MachineFailure);
            }
        }
        let mut ids: Vec<_> = self.state.machines.keys().copied().collect();
        if ids.len() <= 1 {
            return false;
        }
        ids.sort_unstable();
        let victim = ids[self.fault_rng.below(ids.len() as u64) as usize];
        let machine = self.state.machines[&victim].clone();
        let now = self.state.now;
        let ev = ClusterEvent::MachineRemoved {
            machine: victim,
            now,
        };
        self.state.apply(&ev);
        on_event(&self.state, &ev);
        self.failures_injected += 1;
        let mut repaired = machine;
        repaired.running.clear();
        repaired.background_mbps = 0;
        self.push(
            now + self.repair_us,
            EventKind::MachineRepair { machine: repaired },
        );
        true
    }

    /// Rejoins a repaired machine.
    fn repair_machine(
        &mut self,
        machine: firmament_cluster::Machine,
        mut on_event: impl FnMut(&ClusterState, &ClusterEvent),
    ) {
        if self.state.machines.contains_key(&machine.id) {
            return;
        }
        let ev = ClusterEvent::MachineAdded { machine };
        self.state.apply(&ev);
        on_event(&self.state, &ev);
    }

    /// Submits a job without scheduling the next arrival (used for warmup).
    fn submit(
        &mut self,
        arrival: &JobArrival,
        mut on_event: impl FnMut(&ClusterState, &ClusterEvent),
    ) {
        let ev = ClusterEvent::JobSubmitted {
            job: arrival.job.clone(),
            tasks: arrival.tasks.clone(),
        };
        self.state.apply(&ev);
        on_event(&self.state, &ev);
        if arrival.job.class == JobClass::Batch {
            self.job_remaining
                .insert(arrival.job.id, arrival.tasks.len());
        }
    }

    /// Submits a job and chains the next trace arrival.
    fn apply_arrival(
        &mut self,
        arrival: &JobArrival,
        on_event: impl FnMut(&ClusterState, &ClusterEvent),
    ) {
        self.submit(arrival, on_event);
        let mut state = std::mem::take(&mut self.state);
        let next = self.generator.next_arrival(&mut state);
        self.state = state;
        if next.time <= self.horizon {
            self.push(next.time, EventKind::Arrival(Box::new(next)));
        }
    }

    /// Applies solver actions, validating them against current state (the
    /// solver ran on a snapshot; tasks may have finished since).
    fn apply_actions(
        &mut self,
        actions: &[SchedulingAction],
        mut on_event: impl FnMut(&ClusterState, &ClusterEvent),
    ) {
        let now = self.state.now;
        for action in actions {
            match action {
                SchedulingAction::Preempt { task } => {
                    if self
                        .state
                        .tasks
                        .get(task)
                        .map(|t| t.state == TaskState::Running)
                        .unwrap_or(false)
                    {
                        let ev = ClusterEvent::TaskPreempted { task: *task, now };
                        self.state.apply(&ev);
                        on_event(&self.state, &ev);
                        self.report.preemptions += 1;
                    }
                }
                SchedulingAction::Place { task, machine } => {
                    let valid = self
                        .state
                        .tasks
                        .get(task)
                        .map(|t| matches!(t.state, TaskState::Waiting | TaskState::Preempted))
                        .unwrap_or(false)
                        && self
                            .state
                            .machines
                            .get(machine)
                            .map(|m| m.has_free_slot())
                            .unwrap_or(false);
                    if valid {
                        self.place_task(*task, *machine, now, &mut on_event);
                    }
                }
            }
        }
    }

    fn place_task(
        &mut self,
        task: TaskId,
        machine: u64,
        at: Time,
        mut on_event: impl FnMut(&ClusterState, &ClusterEvent),
    ) {
        let first_placement = self.state.tasks[&task].state == TaskState::Waiting
            && self.state.tasks[&task].executed == 0;
        let ev = ClusterEvent::TaskPlaced {
            task,
            machine,
            now: at,
        };
        self.state.apply(&ev);
        on_event(&self.state, &ev);
        self.report.placed_tasks += 1;
        let t = &self.state.tasks[&task];
        if first_placement {
            let latency = (at - t.submit_time) as f64 / 1e6;
            self.report.placement_latency.push(latency);
        }
        if t.duration != Time::MAX {
            let remaining = t.remaining();
            self.push(
                at + remaining,
                EventKind::Completion {
                    task,
                    placed_at: at,
                },
            );
        }
    }

    /// Completes a task if the completion event is not stale (the task was
    /// not preempted/migrated since it was scheduled). Returns `true` if
    /// state changed.
    fn complete_if_current(
        &mut self,
        task: TaskId,
        placed_at: Time,
        mut on_event: impl FnMut(&ClusterState, &ClusterEvent),
    ) -> bool {
        let current = self
            .state
            .tasks
            .get(&task)
            .map(|t| t.state == TaskState::Running && t.placed_at == Some(placed_at))
            .unwrap_or(false);
        if !current {
            return false;
        }
        let now = self.state.now;
        let ev = ClusterEvent::TaskCompleted { task, now };
        self.state.apply(&ev);
        on_event(&self.state, &ev);
        self.report.completed_tasks += 1;
        let t = &self.state.tasks[&task];
        self.report
            .task_response
            .push(t.response_time(now) as f64 / 1e6);
        let job = t.job;
        if let Some(r) = self.job_remaining.get_mut(&job) {
            *r -= 1;
            if *r == 0 {
                self.job_remaining.remove(&job);
                if let Some(j) = self.state.jobs.get(&job) {
                    self.report
                        .job_response
                        .push((now - j.submit_time) as f64 / 1e6);
                }
            }
        }
        true
    }

    fn finish(mut self) -> SimReport {
        self.report.final_utilization = self.state.slot_utilization();
        self.report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use firmament_baselines::SwarmKitScheduler;
    use firmament_policies::LoadSpreadingCostModel;

    fn small_config() -> SimConfig {
        SimConfig {
            topology: TopologySpec {
                machines: 20,
                machines_per_rack: 20,
                slots_per_machine: 4,
            },
            trace: TraceSpec {
                machines: 20,
                slots_per_machine: 4,
                target_utilization: 0.5,
                service_job_fraction: 0.0,
                median_task_duration_s: 3.0,
                duration_sigma: 0.5,
                speedup: 1.0,
                seed: 77,
                fixed: None,
                job_size_scale: 1.0,
            },
            duration_s: 12.0,
            runtime_scale: 1.0,
            queue_task_latency_us: 500,
            warmup: true,
            mtbf_s: 0.0,
            repair_s: 5.0,
        }
    }

    #[test]
    fn flow_sim_places_and_completes_tasks() {
        let config = small_config();
        let report = run_flow_sim(&config, Firmament::new(LoadSpreadingCostModel::new()));
        assert!(report.rounds > 0, "solver must run");
        assert!(report.placed_tasks > 0, "tasks must be placed");
        assert!(report.completed_tasks > 0, "tasks must complete");
        assert!(!report.placement_latency.is_empty());
        assert!(!report.algorithm_runtime.is_empty());
    }

    #[test]
    fn queue_sim_places_and_completes_tasks() {
        let config = small_config();
        let report = run_queue_sim(&config, Box::new(SwarmKitScheduler));
        assert!(report.placed_tasks > 0);
        assert!(report.completed_tasks > 0);
        assert_eq!(report.rounds, 0, "queue schedulers run no solver");
    }

    #[test]
    fn placement_latency_is_nonnegative_and_bounded() {
        let config = small_config();
        let mut report = run_flow_sim(&config, Firmament::new(LoadSpreadingCostModel::new()));
        let min = report.placement_latency.min();
        let max = report.placement_latency.max();
        assert!(min >= 0.0);
        assert!(
            max < config.duration_s,
            "latency {max}s cannot exceed the sim horizon"
        );
    }

    #[test]
    fn utilization_stays_plausible() {
        let config = small_config();
        let report = run_flow_sim(&config, Firmament::new(LoadSpreadingCostModel::new()));
        assert!(report.final_utilization <= 1.0);
    }

    #[test]
    fn failure_injection_requeues_and_recovers() {
        let mut config = small_config();
        config.mtbf_s = 2.0; // frequent failures
        config.repair_s = 1.0;
        let report = run_flow_sim(&config, Firmament::new(LoadSpreadingCostModel::new()));
        // Work still completes despite churn.
        assert!(report.completed_tasks > 0);
        // Slot accounting stayed sane throughout (placements never exceed
        // submissions times possible re-placements).
        assert!(report.placed_tasks >= report.completed_tasks);
    }

    #[test]
    fn failure_injection_works_for_queue_schedulers() {
        let mut config = small_config();
        config.mtbf_s = 2.0;
        config.repair_s = 1.0;
        let report = run_queue_sim(&config, Box::new(SwarmKitScheduler));
        assert!(report.completed_tasks > 0);
    }

    #[test]
    fn deterministic_given_seed_for_queue_sim() {
        // Queue sims have no wall-clock dependence, so they are exactly
        // reproducible.
        let config = small_config();
        let r1 = run_queue_sim(&config, Box::new(SwarmKitScheduler));
        let r2 = run_queue_sim(&config, Box::new(SwarmKitScheduler));
        assert_eq!(r1.placed_tasks, r2.placed_tasks);
        assert_eq!(r1.completed_tasks, r2.completed_tasks);
    }
}
