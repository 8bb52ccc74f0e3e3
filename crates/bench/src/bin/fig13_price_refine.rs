//! Fig 13: price refine accelerates the relaxation → incremental
//! cost-scaling handoff (paper: 4× faster in 90 % of cases).
//!
//! Each round solves a Quincy cluster by relaxation, re-prices every 20th
//! arc (the next round's changes, recorded as a delta feed) and solves the
//! changed graph twice with incremental cost scaling fed those changes:
//! once after adopting relaxation's flow through price refine, which
//! warm-starts it, and once without price refine, which leaves the solver
//! cold, so it solves from scratch. The binary exits non-zero unless both
//! solves of every round are optimal and match a cold cost-scaling solve's
//! objective; the timing VERDICT is advisory.

use firmament_bench::{header, row, verdict, warmed_cluster, Scale};
use firmament_core::Firmament;
use firmament_mcmf::incremental::{IncrementalConfig, IncrementalCostScaling};
use firmament_mcmf::{cost_scaling, relaxation, verify, SolveOptions};
use firmament_policies::{QuincyConfig, QuincyCostModel};
use firmament_sim::Samples;

fn main() {
    let scale = Scale::from_args();
    let machines = scale.machines(12_500);
    header(&["round", "with_price_refine_s", "without_s"]);
    let mut with_pr = Samples::new();
    let mut without = Samples::new();
    let mut all_optimal = true;
    for round in 0..10u64 {
        let (_state, firmament, _) = warmed_cluster(
            machines,
            12,
            0.85,
            100 + round,
            Firmament::new(QuincyCostModel::new(QuincyConfig::default())),
        );
        // Relaxation produces the previous round's solution.
        let mut solved = firmament.graph().clone();
        relaxation::solve(&mut solved, &SolveOptions::unlimited()).expect("relaxation");
        // Apply some cost changes (the next round's cluster changes),
        // recording only those in the feed.
        let arcs: Vec<_> = solved.arc_ids().collect();
        let mut changed = solved.clone();
        changed.set_change_tracking(true);
        changed.take_deltas();
        for k in 0..arcs.len() / 20 {
            let a = arcs[k * 20];
            let c = changed.cost(a);
            changed.set_arc_cost(a, (c + 17) % 90 + 1).expect("cost");
        }
        let batch = changed.take_deltas();
        let mut reference = changed.clone();
        let cold = cost_scaling::solve(&mut reference, &SolveOptions::unlimited()).expect("cold");

        // Adopts the relaxation optimum with or without price refine, then
        // solves the changed graph from the feed.
        let mut fed_solve = |price_refine_on_adopt: bool| -> f64 {
            let mut inc = IncrementalCostScaling::new(IncrementalConfig {
                price_refine_on_adopt,
                ..Default::default()
            });
            let warm = inc.adopt_solution(&solved);
            let mut g = changed.clone();
            let sol = inc
                .solve_with_deltas(&mut g, Some(&batch), &SolveOptions::unlimited())
                .expect("incremental solve");
            let optimal = warm == price_refine_on_adopt
                && !sol.terminated_early
                && verify::is_optimal(&g)
                && sol.objective == cold.objective;
            if !optimal {
                eprintln!(
                    "round {round}: price refine {price_refine_on_adopt}: not optimal \
                     (objective {} vs cold {})",
                    sol.objective, cold.objective
                );
            }
            all_optimal &= optimal;
            sol.runtime.as_secs_f64()
        };
        let a = fed_solve(true);
        let b = fed_solve(false);
        row(&[round.to_string(), format!("{a:.4}"), format!("{b:.4}")]);
        with_pr.push(a);
        without.push(b);
    }
    let p90_speedup = without.percentile(90.0) / with_pr.percentile(90.0).max(1e-9);
    verdict(
        "fig13",
        with_pr.percentile(90.0) <= without.percentile(90.0),
        &format!("price refine gives {p90_speedup:.1}x at p90 (paper: ~4x in 90% of cases)"),
    );
    verdict(
        "fig13_optimal",
        all_optimal,
        "both fed solves of every round are optimal and match a cold cost-scaling solve's objective",
    );
    if !all_optimal {
        std::process::exit(1);
    }
}
