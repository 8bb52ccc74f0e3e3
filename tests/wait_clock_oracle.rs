//! The wait-clock oracle: pricing waiting time once per job must leave
//! the scheduling problem exactly what it was.
//!
//! The manager prices a task's waiting on two arcs: `T → U_j` carries its
//! base plus the wait before the epoch `E`, and its job's `U_j → S` arc
//! carries the clock since `E`. Seeded 40-round
//! streams (arrivals, completions, a machine that fails and returns,
//! clock ticks in fractions of a second and now and then a long jump that
//! re-bases the epoch) run every shipped model through
//! `Firmament::schedule`. After every round the oracle checks:
//!
//! - **path costs**: each task's `T → U_j` plus `U_j → S` cost equals its
//!   base + per_sec × (⌊now⌋ − ⌊submit⌋), and neither cost is negative;
//! - **the objective**: a copy of the graph in the one-arc-per-task form —
//!   every `U_j → S` cost folded into its job's `T → U_j` arcs and the
//!   `U_j → S` arcs priced at 0 — solved cold by cost scaling, reaches
//!   exactly the objective of the scheduler's flow.
//!
//! Failures print the model, seed and round.

mod common;

use firmament::cluster::{ClusterEvent, ClusterState, Job, JobClass, Machine, MachineId, Task};
use firmament::core::Firmament;
use firmament::flow::testgen::XorShift64;
use firmament::flow::FlowGraph;
use firmament::mcmf::{cost_scaling, SolveOptions};
use firmament::policies::{
    whole_seconds, CostModel, HierarchicalTopologyCostModel, LoadSpreadingCostModel,
    NetworkAwareCostModel, OctopusCostModel, QuincyConfig, QuincyCostModel,
};

const ROUNDS: u64 = 40;

fn feed<C: CostModel>(state: &mut ClusterState, f: &mut Firmament<C>, ev: ClusterEvent) {
    state.apply(&ev);
    f.handle_event(state, &ev).unwrap();
}

/// Submits `n` tasks at `state.now`; about half read a block held by one
/// or two machines, and bandwidth requests cycle through four classes.
fn submit<C: CostModel>(
    state: &mut ClusterState,
    f: &mut Firmament<C>,
    rng: &mut XorShift64,
    job: u64,
    n: usize,
) {
    let mut holders: Vec<MachineId> = state.machines.keys().copied().collect();
    holders.sort_unstable();
    let tasks: Vec<Task> = (0..n)
        .map(|i| {
            let duration = 2_000_000 + rng.below(30_000_000);
            let mut t = Task::new(job * 1000 + i as u64, job, state.now, duration);
            t.request.net_mbps = t.id % 4 * 1_200;
            if rng.below(2) == 0 {
                let k = 1 + rng.below(2) as usize;
                let picked = (0..k)
                    .map(|_| holders[rng.below(holders.len() as u64) as usize])
                    .collect();
                t.input_blocks = vec![state.blocks.place_block(picked)];
                t.input_bytes = 1_000_000_000 + rng.below(3_000_000_000);
            }
            t
        })
        .collect();
    let job = Job::new(job, JobClass::Batch, 0, state.now);
    feed(state, f, ClusterEvent::JobSubmitted { job, tasks });
}

/// Every task's unscheduled path `T → U_j → S` costs base + per_sec ×
/// (⌊now⌋ − ⌊submit⌋), and both of its arcs cost at least zero.
fn assert_path_costs<C: CostModel>(f: &Firmament<C>, state: &ClusterState, at: &str) {
    let mgr = f.manager();
    let g = mgr.graph();
    let per_sec = f.model().wait_cost_per_sec();
    for (tid, entry) in mgr.task_table().iter() {
        let task = &state.tasks[&tid];
        let clock = g.cost(mgr.unscheduled(task.job).unwrap().1);
        assert!(clock >= 0, "{at}: task {tid}: U_j → S costs {clock}");
        let base = f.model().task_unscheduled_cost(state, task);
        let waited = whole_seconds(state.now) - whole_seconds(task.submit_time);
        let cost = g.cost(entry.unsched_arc);
        assert!(cost >= 0, "{at}: task {tid}: T → U_j costs {cost}");
        assert_eq!(
            cost + clock,
            base + per_sec * waited,
            "{at}: task {tid}: path cost"
        );
    }
}

/// The graph in the one-arc-per-task form, without flow: each job's
/// `U_j → S` cost added to its tasks' `T → U_j` arcs, and every
/// `U_j → S` arc priced at 0.
fn fold_clock<C: CostModel>(f: &Firmament<C>, state: &ClusterState) -> FlowGraph {
    let mgr = f.manager();
    let mut g = mgr.graph().clone();
    g.set_change_tracking(false);
    g.reset_flow();
    for (tid, entry) in mgr.task_table().iter() {
        let clock = g.cost(mgr.unscheduled(state.tasks[&tid].job).unwrap().1);
        let cost = g.cost(entry.unsched_arc);
        g.set_arc_cost(entry.unsched_arc, cost + clock).unwrap();
    }
    let into_sink: Vec<_> = (g.arc_ids())
        .filter(|&a| g.dst(a) == mgr.sink() && g.kind(g.src(a)).is_unscheduled())
        .collect();
    for a in into_sink {
        g.set_arc_cost(a, 0).unwrap();
    }
    g
}

fn run<C: CostModel>(model: C, seed: u64) {
    let name = model.name();
    let mut state = common::cluster(8, 2, 4);
    let mut f = Firmament::new(model);
    common::register(&state, &mut f);
    // A block-free warm-up load, scheduled with round 0.
    common::submit(&mut state, &mut f, 1000, 16);
    let mut rng = XorShift64::new(seed);
    let mut parked: Option<Machine> = None;
    for round in 0..ROUNDS {
        let at = format!("{name} seed {seed} round {round}");
        let mut running: Vec<u64> = state.running_tasks().map(|t| t.id).collect();
        running.sort_unstable();
        for task in running {
            if rng.below(4) == 0 {
                let now = state.now;
                feed(
                    &mut state,
                    &mut f,
                    ClusterEvent::TaskCompleted { task, now },
                );
            }
        }
        if round % 11 == 5 {
            let mut ids: Vec<MachineId> = state.machines.keys().copied().collect();
            ids.sort_unstable();
            let machine = ids[rng.below(ids.len() as u64) as usize];
            parked = state.machines.get(&machine).cloned();
            let now = state.now;
            feed(
                &mut state,
                &mut f,
                ClusterEvent::MachineRemoved { machine, now },
            );
        } else if round % 11 == 8 {
            if let Some(mut machine) = parked.take() {
                machine.running.clear();
                feed(&mut state, &mut f, ClusterEvent::MachineAdded { machine });
            }
        }
        // Arrivals outpace completions on 16 slots, so a backlog builds
        // up and ages.
        let n = 1 + rng.below(9) as usize;
        submit(&mut state, &mut f, &mut rng, round, n);
        // Ticks of 0.3–1.5 s cross whole seconds unevenly; every tenth
        // round jumps 150–400 s, past some models' re-base point.
        let step = if round % 10 == 9 {
            150_000_000 + rng.below(250) * 1_000_000
        } else {
            300_000 + rng.below(5) * 300_000
        };
        let now = state.now + step;
        feed(&mut state, &mut f, ClusterEvent::Tick { now });

        let out = f.schedule(&state).unwrap_or_else(|e| panic!("{at}: {e}"));
        assert_path_costs(&f, &state, &at);
        let objective = f.graph().objective();
        let mut folded = fold_clock(&f, &state);
        cost_scaling::solve(&mut folded, &SolveOptions::unlimited())
            .unwrap_or_else(|e| panic!("{at}: folded solve: {e:?}"));
        assert_eq!(folded.objective(), objective, "{at}: objective");
        common::apply(&mut state, &mut f, &out.actions);
    }
}

fn run_seeds<C: CostModel>(make: impl Fn() -> C, salt: u64) {
    for seed in 0..3 {
        run(make(), salt + seed);
    }
}

#[test]
fn wait_clock_preserves_load_spreading() {
    run_seeds(LoadSpreadingCostModel::bucketed, 0x10);
}

#[test]
fn wait_clock_preserves_quincy() {
    run_seeds(|| QuincyCostModel::new(QuincyConfig::default()), 0x20);
}

#[test]
fn wait_clock_preserves_octopus() {
    run_seeds(OctopusCostModel::new, 0x30);
}

#[test]
fn wait_clock_preserves_network_aware() {
    run_seeds(NetworkAwareCostModel::new, 0x40);
}

#[test]
fn wait_clock_preserves_hierarchy() {
    run_seeds(HierarchicalTopologyCostModel::new, 0x50);
}
