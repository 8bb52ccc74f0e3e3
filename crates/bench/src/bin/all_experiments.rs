//! Runs every figure/table binary in sequence (at the current scale) and
//! streams their output; use `--scale N` / `--full` as with the individual
//! binaries.

use std::process::Command;

const EXPERIMENTS: &[&str] = &[
    "table1_complexities",
    "table2_preconditions",
    "table3_arc_changes",
    "fig03_quincy_scaling",
    "fig07_algorithm_comparison",
    "fig08_oversubscription",
    "fig09_large_job",
    "fig10_early_termination",
    "fig11_incremental",
    "fig12_heuristics",
    "fig13_price_refine",
    "fig14_placement_latency",
    "fig15_locality_threshold",
    "fig16_demanding",
    "fig17_short_tasks",
    "fig18_trace_speedup",
    "fig19_placement_quality",
    "ec_hierarchy",
];

fn main() {
    let self_path = std::env::current_exe().expect("current exe path");
    let dir = self_path.parent().expect("target dir");
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut failures = 0;
    for exp in EXPERIMENTS {
        println!("\n===== {exp} =====");
        let status = Command::new(dir.join(exp))
            .args(&args)
            .status()
            .unwrap_or_else(|e| panic!("failed to launch {exp}: {e} (build with `cargo build --release -p firmament-bench` first)"));
        if !status.success() {
            eprintln!("{exp} FAILED: {status}");
            failures += 1;
        }
    }
    println!("\n===== done: {failures} failures =====");
    std::process::exit(if failures == 0 { 0 } else { 1 });
}
