//! Experiment harness shared by the figure/table reproduction binaries.
//!
//! Each binary in `src/bin/` regenerates one table or figure of the paper
//! (`all_experiments` runs them all in sequence). They print tab-separated rows — the
//! series the paper plots — plus a short "shape check" verdict comparing
//! the measured trend against the paper's qualitative claim.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod scale;

use firmament_cluster::{ClusterEvent, ClusterState, TopologySpec};
use firmament_core::Firmament;
use firmament_policies::CostModel;
use firmament_sim::trace::{GoogleTraceGenerator, TraceSpec};
use std::time::{Duration, Instant};

/// Scale presets: the paper's cluster sizes, scaled down by `--scale` so
/// the suite completes on a laptop while preserving the curves' shape.
#[derive(Debug, Clone)]
pub struct Scale {
    /// Divider applied to the paper's machine counts (default 10).
    pub divisor: usize,
}

impl Scale {
    /// Parses `--scale <n>` / `--full` from the command line.
    pub fn from_args() -> Scale {
        let mut divisor = 10;
        let args: Vec<String> = std::env::args().collect();
        for (i, a) in args.iter().enumerate() {
            if a == "--full" {
                divisor = 1;
            }
            if a == "--scale" {
                if let Some(v) = args.get(i + 1).and_then(|s| s.parse::<usize>().ok()) {
                    divisor = v.max(1);
                }
            }
        }
        Scale { divisor }
    }

    /// Scales one of the paper's machine counts.
    pub fn machines(&self, paper_machines: usize) -> usize {
        (paper_machines / self.divisor).max(10)
    }
}

/// Builds a cluster plus Firmament scheduler at the given size, with the
/// machines registered, and fills it to `utilization` with trace workload.
///
/// Returns the state and scheduler ready for measurement; the initial
/// workload has been *submitted and placed* (one warm scheduling round).
pub fn warmed_cluster<C: CostModel>(
    machines: usize,
    slots: u32,
    utilization: f64,
    seed: u64,
    mut firmament: Firmament<C>,
) -> (ClusterState, Firmament<C>, GoogleTraceGenerator) {
    let mut state = ClusterState::with_topology(&TopologySpec {
        machines,
        machines_per_rack: 40,
        slots_per_machine: slots,
    });
    let mut ms: Vec<_> = state.machines.values().cloned().collect();
    ms.sort_by_key(|m| m.id);
    for m in ms {
        firmament
            .handle_event(&state, &ClusterEvent::MachineAdded { machine: m })
            .expect("machine registration");
    }
    let mut generator = GoogleTraceGenerator::new(TraceSpec {
        machines,
        slots_per_machine: slots,
        target_utilization: utilization,
        seed,
        ..TraceSpec::default()
    });
    let warm = generator.warmup(&mut state);
    for a in warm {
        let ev = ClusterEvent::JobSubmitted {
            job: a.job.clone(),
            tasks: a.tasks.clone(),
        };
        state.apply(&ev);
        firmament.handle_event(&state, &ev).expect("submit");
    }
    let outcome = firmament.schedule(&state).expect("warm round");
    for action in &outcome.actions {
        if let firmament_core::SchedulingAction::Place { task, machine } = action {
            if state.machines[machine].has_free_slot() {
                let ev = ClusterEvent::TaskPlaced {
                    task: *task,
                    machine: *machine,
                    now: state.now,
                };
                state.apply(&ev);
                firmament.handle_event(&state, &ev).expect("place");
            }
        }
    }
    (state, firmament, generator)
}

/// The default (hedged) solver's round on a burst: see [`hedged_round`].
#[derive(Debug, Clone, Copy)]
pub struct HedgedRound {
    /// Wall time of the `schedule` call, in seconds.
    pub seconds: f64,
    /// Arc examinations of the round: relaxation's plus any fallback's.
    pub work: u64,
    /// The hedge's work budget for the round (0 if it ran none).
    pub budget: u64,
    /// Whether the count-based bound held: the flow is optimal, the round
    /// ran under a budget, and its work is at most the budget plus the arc
    /// examinations of one cold cost-scaling solve of the same graph.
    pub bound_holds: bool,
}

/// Runs `firmament.schedule` on a burst already fed to it, after
/// [`warmed_cluster`]'s cold round has set the hedge's work reference, and
/// checks the hedge's worst case by count rather than by time.
/// `cold_cs_scans` is the arc-examination count of a cold cost-scaling
/// solve of the same graph.
pub fn hedged_round<C: CostModel>(
    state: &ClusterState,
    firmament: &mut Firmament<C>,
    cold_cs_scans: u64,
) -> HedgedRound {
    let (outcome, elapsed) = timed(|| firmament.schedule(state).expect("hedged round"));
    let s = &outcome.solver;
    let work = s.relaxation_work + s.cs_work;
    let optimal = firmament_mcmf::verify::is_optimal(firmament.graph());
    HedgedRound {
        seconds: elapsed.as_secs_f64(),
        work,
        budget: s.work_budget.unwrap_or(0),
        bound_holds: optimal
            && s.work_budget
                .is_some_and(|budget| work <= budget.saturating_add(cold_cs_scans)),
    }
}

/// Times a closure, returning its result and the elapsed wall time.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed())
}

/// Minimal benchmark runner for the `benches/` targets (self-contained:
/// no external harness): runs `setup` once per sample, times `routine` on
/// the fresh input, and prints min/median/max seconds as a TSV row.
pub fn bench_case<T, R>(
    name: &str,
    samples: usize,
    mut setup: impl FnMut() -> T,
    mut routine: impl FnMut(T) -> R,
) {
    let mut times = Vec::with_capacity(samples);
    for _ in 0..samples {
        let input = setup();
        let start = Instant::now();
        let out = routine(input);
        times.push(start.elapsed().as_secs_f64());
        std::hint::black_box(out);
    }
    times.sort_by(f64::total_cmp);
    let median = times[times.len() / 2];
    println!(
        "{name}\t{:.6}\t{median:.6}\t{:.6}",
        times[0],
        times[times.len() - 1]
    );
}

/// Prints the TSV header matching [`bench_case`] rows.
pub fn bench_header() {
    header(&["benchmark", "min_s", "median_s", "max_s"]);
}

/// Prints a TSV header row.
pub fn header(cols: &[&str]) {
    println!("{}", cols.join("\t"));
}

/// Prints a TSV data row.
pub fn row(cells: &[String]) {
    println!("{}", cells.join("\t"));
}

/// Formats seconds with millisecond precision.
pub fn secs(d: Duration) -> String {
    format!("{:.4}", d.as_secs_f64())
}

/// Prints the shape-check verdict line (`# VERDICT <experiment>: …`).
pub fn verdict(experiment: &str, holds: bool, detail: &str) {
    println!(
        "# VERDICT {experiment}: {} — {detail}",
        if holds {
            "SHAPE HOLDS"
        } else {
            "SHAPE DEVIATES"
        }
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use firmament_policies::LoadSpreadingCostModel;

    #[test]
    fn scale_preset_floors_at_ten() {
        let s = Scale { divisor: 100 };
        assert_eq!(s.machines(50), 10);
        assert_eq!(s.machines(12_500), 125);
    }

    #[test]
    fn warmed_cluster_reaches_utilization() {
        let (state, firmament, _) =
            warmed_cluster(20, 8, 0.5, 7, Firmament::new(LoadSpreadingCostModel::new()));
        assert!(
            state.slot_utilization() >= 0.4,
            "{}",
            state.slot_utilization()
        );
        assert!(state.slot_utilization() <= 1.0);
        assert!(firmament.rounds() >= 1);
    }

    #[test]
    fn timed_measures() {
        let (v, d) = timed(|| 42);
        assert_eq!(v, 42);
        assert!(d.as_secs() < 5);
    }
}
