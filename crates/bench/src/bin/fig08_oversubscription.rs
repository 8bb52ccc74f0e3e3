//! Fig 8: relaxation degenerates near full cluster utilization.
//!
//! Starting from a 90 %-utilized cluster, submit increasingly large jobs
//! and measure relaxation vs cost scaling. Paper: relaxation overtakes
//! cost scaling around 93 % utilization and reaches >400 s oversubscribed.
//! Each burst prints both algorithms' counted work (arc scans) next to
//! their timings; the shape VERDICT reads the counts, which do not move
//! from run to run the way wall-clock ratios do.
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
        "relaxation_scans",
        "cost_scaling_scans",
        "hedged_s",
        "hedged_work_per_budget",
    ]);
    let mut crossed = false;
    let mut hedge_holds = true;
    let mut first = None;
    let mut last = (0u64, 0u64);
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
        let plain = RelaxationConfig {
            arc_prioritization: false,
        };
        let rx =
            relaxation::solve_with(&mut g, &SolveOptions::unlimited(), &plain).expect("relaxation");
        let mut g = graph.clone();
        let cold = cost_scaling::solve(&mut g, &SolveOptions::unlimited()).expect("cost scaling");
        let scans = (rx.stats.arc_scans, cold.stats.arc_scans);
        // The default solver on the same burst: relaxation (with arc
        // prioritization) within its work budget, cost scaling past it.
        let hedged = hedged_round(&state, &mut firmament, cold.stats.arc_scans);
        hedge_holds &= hedged.bound_holds;
        row(&[
            target_pct.to_string(),
            format!("{:.4}", rx.runtime.as_secs_f64()),
            format!("{:.4}", cold.runtime.as_secs_f64()),
            scans.0.to_string(),
            scans.1.to_string(),
            format!("{:.4}", hedged.seconds),
            format!("{:.3}", hedged.work as f64 / hedged.budget.max(1) as f64),
        ]);
        crossed |= rx.runtime > cold.runtime;
        first.get_or_insert(scans);
        last = scans;
    }
    // The shape claim, on counted work: relaxation degenerates towards
    // oversubscription while cost scaling stays flat. A relaxation scan
    // is cheaper than a cost-scaling one, so the crossover is read off
    // the timings and only reported; its point is scale-dependent (paper:
    // ~93% at 12,500 machines).
    let (rx_first, cs_first) = first.unwrap_or((1, 1));
    let rx_growth = last.0 as f64 / rx_first.max(1) as f64;
    let cs_growth = last.1 as f64 / cs_first.max(1) as f64;
    verdict(
        "fig08",
        rx_growth > 3.0 && cs_growth < 3.0,
        &format!(
            "relaxation's arc scans grow {rx_growth:.1}x towards oversubscription, cost scaling's {cs_growth:.1}x (wall-clock crossover: {crossed})"
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
