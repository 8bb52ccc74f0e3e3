//! Fig 9: contention slows relaxation — large jobs under load spreading.
//!
//! Submit a single job of growing size to a cluster with the
//! load-spreading policy. Paper: relaxation grows linearly in job size and
//! crosses cost scaling just under 3,000 concurrently arriving tasks.
//!
//! Each relaxation and cost-scaling time is the median of five solves of
//! fresh copies of the burst's graph, taken round-robin over the rows: the
//! smallest rows solve in well under a millisecond, and on a shared host
//! the same counted work can run at half its usual time for a while, so a
//! row timed in one go can land wholly in such a phase.
//!
//! The `hedged_*` columns run the default solver on the same burst: the
//! round's counted work (arc examinations) over its budget. The empty
//! cluster's cold round sets a near-zero reference, so the first burst
//! falls back to cost scaling at once. The binary exits non-zero if a
//! hedged round's flow is not optimal or its work exceeds the budget plus
//! one cold cost-scaling solve.

use firmament_bench::{header, hedged_round, row, verdict, warmed_cluster, HedgedRound, Scale};
use firmament_cluster::{ClusterEvent, Job, JobClass, Task};
use firmament_core::Firmament;
use firmament_flow::FlowGraph;
use firmament_mcmf::relaxation::RelaxationConfig;
use firmament_mcmf::{cost_scaling, relaxation, SolveOptions};
use firmament_policies::LoadSpreadingCostModel;
use std::time::Duration;

/// One row: a job of `tasks` tasks submitted to an empty cluster.
struct Burst {
    tasks: usize,
    graph: FlowGraph,
    hedged: HedgedRound,
}

fn burst(machines: usize, tasks_n: usize) -> Burst {
    // An *empty* cluster makes every X→machine cost identical, which is
    // exactly the contention that slows relaxation: every under-populated
    // machine is an equally good destination (§4.3).
    let (mut state, mut firmament, _) = warmed_cluster(
        machines,
        12,
        0.0,
        5,
        Firmament::new(LoadSpreadingCostModel::new()),
    );
    let job = Job::new(9_999_999, JobClass::Batch, 2, state.now);
    let tasks: Vec<Task> = (0..tasks_n)
        .map(|i| Task::new(8_000_000 + i as u64, job.id, state.now, 60_000_000))
        .collect();
    let ev = ClusterEvent::JobSubmitted { job, tasks };
    state.apply(&ev);
    firmament.handle_event(&state, &ev).expect("submit");
    firmament.refresh(&state).expect("refresh");
    let graph = firmament.graph().clone();
    // The default solver on the same burst: relaxation (with arc
    // prioritization) within its work budget, cost scaling past it. Its
    // bound is one cold cost-scaling solve's count, the same on every run.
    let cold =
        cost_scaling::solve(&mut graph.clone(), &SolveOptions::unlimited()).expect("cost scaling");
    let hedged = hedged_round(&state, &mut firmament, cold.stats.arc_scans);
    Burst {
        tasks: tasks_n,
        graph,
        hedged,
    }
}

/// The median of `runs`, in seconds.
fn median(mut runs: Vec<Duration>) -> f64 {
    runs.sort();
    runs[runs.len() / 2].as_secs_f64()
}

fn main() {
    let scale = Scale::from_args();
    let machines = scale.machines(12_500);
    header(&[
        "arriving_tasks",
        "relaxation_s",
        "cost_scaling_s",
        "hedged_s",
        "hedged_work_per_budget",
    ]);
    let sizes = [100usize, 500, 1000, 2000, 3000, 4000, 5000];
    let bursts: Vec<Burst> = sizes
        .iter()
        .map(|&paper_tasks| burst(machines, (paper_tasks / scale.divisor).max(10)))
        .collect();
    let mut rx_runs = vec![Vec::new(); bursts.len()];
    let mut cs_runs = vec![Vec::new(); bursts.len()];
    for _ in 0..5 {
        for (i, b) in bursts.iter().enumerate() {
            // Plain relaxation (no arc prioritization): Fig 9 predates the
            // heuristic that Fig 12a later adds.
            let rx = relaxation::solve_with(
                &mut b.graph.clone(),
                &SolveOptions::unlimited(),
                &RelaxationConfig {
                    arc_prioritization: false,
                },
            )
            .expect("relaxation");
            rx_runs[i].push(rx.runtime);
            let cs = cost_scaling::solve(&mut b.graph.clone(), &SolveOptions::unlimited())
                .expect("cost scaling");
            cs_runs[i].push(cs.runtime);
        }
    }
    let mut hedge_holds = true;
    let mut crossed = false;
    let mut rx_series = Vec::new();
    for ((b, rx), cs) in bursts.iter().zip(rx_runs).zip(cs_runs) {
        let (rx, cs) = (median(rx), median(cs));
        hedge_holds &= b.hedged.bound_holds;
        row(&[
            b.tasks.to_string(),
            format!("{rx:.4}"),
            format!("{cs:.4}"),
            format!("{:.4}", b.hedged.seconds),
            format!(
                "{:.3}",
                b.hedged.work as f64 / b.hedged.budget.max(1) as f64
            ),
        ]);
        if rx > cs {
            crossed = true;
        }
        rx_series.push(rx);
    }
    let growth = rx_series.last().unwrap() / rx_series.first().unwrap().max(1e-9);
    verdict(
        "fig09",
        crossed || growth > 5.0,
        &format!(
            "relaxation grows {growth:.1}x with job size (crossover at this scale: {crossed}; paper crosses at ~3,000 tasks on 12,500 machines)"
        ),
    );
    verdict(
        "fig09_hedge",
        hedge_holds,
        "every hedged round is optimal and its counted work is at most the budget plus one cold cost-scaling solve",
    );
    if !hedge_holds {
        std::process::exit(1);
    }
}
