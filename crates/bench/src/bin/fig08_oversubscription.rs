//! Fig 8: relaxation degenerates near full cluster utilization.
//!
//! Starting from a 90 %-utilized cluster, submit increasingly large jobs
//! and measure relaxation vs cost scaling. Paper: relaxation overtakes
//! cost scaling around 93 % utilization and reaches >400 s oversubscribed.
//!
//! The `hedged_*` columns run the default solver on the same burst: the
//! round's counted work (arc examinations) over its budget. The binary
//! exits non-zero if a hedged round's flow is not optimal or its work
//! exceeds the budget plus one cold cost-scaling solve.

use firmament_bench::{header, hedged_round, row, verdict, warmed_cluster, Scale};
use firmament_cluster::{ClusterEvent, Job, JobClass, Task};
use firmament_core::Firmament;
use firmament_mcmf::relaxation::RelaxationConfig;
use firmament_mcmf::{cost_scaling, relaxation, SolveOptions};
use firmament_policies::{QuincyConfig, QuincyCostModel};

fn main() {
    let scale = Scale::from_args();
    let machines = scale.machines(12_500);
    header(&[
        "utilization_pct",
        "relaxation_s",
        "cost_scaling_s",
        "hedged_s",
        "hedged_work_per_budget",
    ]);
    let mut crossed = false;
    let mut hedge_holds = true;
    let mut rx_first = None;
    let mut rx_last = 0.0f64;
    let mut cs_first = None;
    let mut cs_last = 0.0f64;
    for target_pct in [91usize, 93, 95, 97, 99, 100, 103, 106, 110] {
        let (mut state, mut firmament, _) = warmed_cluster(
            machines,
            12,
            0.90,
            42,
            Firmament::new(QuincyCostModel::new(QuincyConfig::default())),
        );
        // Submit one large job that pushes utilization to the target.
        let total = state.total_slots() as i64;
        let extra = (total * target_pct as i64 / 100 - state.used_slots() as i64).max(1);
        let job = Job::new(9_999_999, JobClass::Batch, 2, state.now);
        let tasks: Vec<Task> = (0..extra)
            .map(|i| Task::new(8_000_000 + i as u64, job.id, state.now, 60_000_000))
            .collect();
        let ev = ClusterEvent::JobSubmitted { job, tasks };
        state.apply(&ev);
        firmament.handle_event(&state, &ev).expect("submit");
        firmament.refresh(&state).expect("refresh");
        let graph = firmament.graph().clone();

        // Plain relaxation: Fig 8 predates the arc-prioritization
        // heuristic that Fig 12a later introduces.
        let mut g = graph.clone();
        let rx = relaxation::solve_with(
            &mut g,
            &SolveOptions::unlimited(),
            &RelaxationConfig {
                arc_prioritization: false,
            },
        )
        .expect("relaxation")
        .runtime
        .as_secs_f64();
        let mut g = graph.clone();
        let cold = cost_scaling::solve(&mut g, &SolveOptions::unlimited()).expect("cost scaling");
        let cs = cold.runtime.as_secs_f64();
        // The default solver on the same burst: relaxation (with arc
        // prioritization) within its work budget, cost scaling past it.
        let hedged = hedged_round(&state, &mut firmament, cold.stats.arc_scans);
        hedge_holds &= hedged.bound_holds;
        row(&[
            target_pct.to_string(),
            format!("{rx:.4}"),
            format!("{cs:.4}"),
            format!("{:.4}", hedged.seconds),
            format!("{:.3}", hedged.work as f64 / hedged.budget.max(1) as f64),
        ]);
        if rx > cs {
            crossed = true;
        }
        rx_first.get_or_insert(rx);
        rx_last = rx;
        cs_first.get_or_insert(cs);
        cs_last = cs;
    }
    // The shape claim: relaxation degenerates towards oversubscription
    // while cost scaling stays flat. The absolute crossover point is
    // scale-dependent (paper: ~93% at 12,500 machines).
    let rx_growth = rx_last / rx_first.unwrap_or(1.0).max(1e-9);
    let cs_growth = cs_last / cs_first.unwrap_or(1.0).max(1e-9);
    verdict(
        "fig08",
        crossed || (rx_growth > 3.0 && cs_growth < 3.0),
        &format!(
            "relaxation grows {rx_growth:.1}x towards oversubscription, cost scaling {cs_growth:.1}x (crossover: {crossed})"
        ),
    );
    verdict(
        "fig08_hedge",
        hedge_holds,
        "every hedged round is optimal and its counted work is at most the budget plus one cold cost-scaling solve",
    );
    if !hedge_holds {
        std::process::exit(1);
    }
}
