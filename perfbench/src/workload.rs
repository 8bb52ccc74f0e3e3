//! Workload definitions and seeded trace generation.
//!
//! A workload fixes the cluster, the cost model, the trace shape and the
//! virtual-time cadence of a round. [`Trace::generate`] turns a workload
//! and a seed into every input a pass feeds the scheduler: the warm-up
//! jobs, the timed job arrivals and the machine failures and repairs. Task
//! completions are the only inputs not generated up front: each falls at
//! its placement time plus its remaining duration, so they follow from the
//! scheduler's own placements.

use firmament_cluster::{ClusterState, Machine, MachineId, Time, TopologySpec};
use firmament_flow::testgen::XorShift64;
use firmament_sim::trace::FixedWorkload;
use firmament_sim::{GoogleTraceGenerator, JobArrival, TraceSpec};

/// Rounds at the start of a pass that run but are not timed. The first
/// round after the cold set-up round pays a one-off start-up cost (on
/// churn-quincy it took 1.5 to 1.7 times the median round in every pass)
/// that a long-running scheduler pays once; timed, it alone set
/// `placement_p99_ms`.
pub const WARMUP_ROUNDS: usize = 2;

/// The cost model a workload runs under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Policy {
    /// `QuincyCostModel` with default tuning: locality preference arcs
    /// through the `X → R_r → machine` hierarchy (the §7 trace policy).
    Quincy,
    /// `LoadSpreadingCostModel::bucketed()`.
    LoadSpreadingBucketed,
    /// `HierarchicalTopologyCostModel::bucketed()` (EC→EC arcs).
    HierarchyBucketed,
}

/// Seeded machine failures: every `every`-th round fails one live
/// machine chosen by the seed, and the machine rejoins `repair_rounds`
/// rounds later. The count and timing are fixed so that every seed
/// offers the same number of failure rounds, which are among the slowest.
#[derive(Debug, Clone, Copy)]
pub struct Failures {
    /// Rounds between failures.
    pub every: usize,
    /// Rounds until a failed machine is repaired.
    pub repair_rounds: usize,
}

/// The jobs a workload's trace is made of.
#[derive(Debug, Clone, Copy)]
pub enum Jobs {
    /// Google-trace-like jobs: heavy-tailed sizes, log-normal durations
    /// divided by `speedup`, and replicated input blocks that give the
    /// tasks locality preferences. Sizes are capped at `max_tasks`: the
    /// rare giant job otherwise decides, by whether a seed draws one, the
    /// tail of a whole run.
    Google {
        /// Trace speed-up.
        speedup: f64,
        /// Largest job, in tasks.
        max_tasks: usize,
    },
    /// Identical jobs of `tasks` tasks that each run `duration_s` (the
    /// Fig 17 shape).
    Fixed {
        /// Tasks per job.
        tasks: usize,
        /// Task duration, s.
        duration_s: f64,
    },
}

/// One benchmark workload.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Name as passed to `--workload`.
    pub name: &'static str,
    /// Cost model.
    pub policy: Policy,
    /// Machines in the cluster.
    pub machines: usize,
    /// Machines per rack.
    pub machines_per_rack: usize,
    /// Task slots per machine.
    pub slots: u32,
    /// Share of slots the warm-up load fills (above 1, the rest waits).
    pub utilization: f64,
    /// Tasks arriving per round. Jobs are released so that the tasks
    /// submitted by any time track this rate: every round offers the same
    /// load, whatever job sizes the seed draws.
    pub tasks_per_round: f64,
    /// Job shape.
    pub jobs: Jobs,
    /// Virtual time one round advances the clock by, in µs.
    pub round_us: Time,
    /// Rounds in one pass (after the cold set-up round), the first
    /// [`WARMUP_ROUNDS`] of them untimed.
    pub rounds: usize,
    /// Machine failures, if any.
    pub failures: Option<Failures>,
}

impl Workload {
    /// Every benchmark workload at its measured size.
    pub fn all() -> Vec<Workload> {
        vec![
            Workload {
                name: "churn-quincy",
                policy: Policy::Quincy,
                machines: 1250,
                machines_per_rack: 40,
                slots: 12,
                utilization: 1.0,
                tasks_per_round: 300.0,
                jobs: Jobs::Google {
                    speedup: 50.0,
                    max_tasks: 100,
                },
                round_us: 500_000,
                rounds: 102,
                failures: None,
            },
            Workload {
                name: "quiet-large",
                policy: Policy::LoadSpreadingBucketed,
                machines: 2500,
                machines_per_rack: 40,
                slots: 12,
                utilization: 0.5,
                tasks_per_round: 10.0,
                jobs: Jobs::Fixed {
                    tasks: 10,
                    duration_s: 3000.0,
                },
                round_us: 500_000,
                rounds: 120,
                failures: None,
            },
            Workload {
                name: "contended-hier",
                policy: Policy::HierarchyBucketed,
                machines: 400,
                machines_per_rack: 20,
                slots: 12,
                utilization: 1.25,
                tasks_per_round: 100.0,
                jobs: Jobs::Fixed {
                    tasks: 10,
                    duration_s: 48.0,
                },
                round_us: 1_000_000,
                rounds: 102,
                failures: Some(Failures {
                    every: 4,
                    repair_rounds: 5,
                }),
            },
        ]
    }

    /// Looks a workload up by name.
    pub fn by_name(name: &str) -> Option<Workload> {
        Workload::all().into_iter().find(|w| w.name == name)
    }

    /// The same workload shrunk to a few machines and rounds, at the
    /// same load, for the benchmark's own tests.
    #[cfg(test)]
    pub fn toy(&self) -> Workload {
        let mut w = self.clone();
        w.machines = 24;
        w.machines_per_rack = 6;
        w.slots = 4;
        w.rounds = 8;
        let shrink =
            (w.machines * w.slots as usize) as f64 / (self.machines * self.slots as usize) as f64;
        w.tasks_per_round = (self.tasks_per_round * shrink).max(1.0);
        w
    }

    /// Topology of the cluster.
    pub fn topology(&self) -> TopologySpec {
        TopologySpec {
            machines: self.machines,
            machines_per_rack: self.machines_per_rack,
            slots_per_machine: self.slots,
        }
    }

    /// Virtual time at the end of round `round` (round 0 is set-up).
    pub fn round_time(&self, round: usize) -> Time {
        round as Time * self.round_us
    }
}

/// A machine failure or repair, fed at the start of a round.
#[derive(Debug, Clone)]
pub enum Fault {
    /// The machine fails; its tasks return to the waiting pool.
    Fail(MachineId),
    /// The machine rejoins with no tasks.
    Repair(Machine),
}

/// Every generated input of one pass.
#[derive(Debug, Clone)]
pub struct Trace {
    /// Cluster with its machines and the input blocks of every generated
    /// task, but no jobs yet. Each pass starts from a clone of it.
    pub template: ClusterState,
    /// Jobs resident before the first round, submitted during set-up.
    pub warmup: Vec<JobArrival>,
    /// Job arrivals per round: `arrivals[r]` is fed at the start of round
    /// `r + 1`, in arrival order.
    pub arrivals: Vec<Vec<JobArrival>>,
    /// Failures and repairs per round, indexed like `arrivals`.
    pub faults: Vec<Vec<Fault>>,
}

impl Trace {
    /// Generates the inputs of `workload` from `seed`. The same workload
    /// and seed always give the same trace.
    pub fn generate(workload: &Workload, seed: u64) -> Trace {
        let mut template = ClusterState::with_topology(&workload.topology());
        let mut spec = TraceSpec {
            machines: workload.machines,
            slots_per_machine: workload.slots,
            service_job_fraction: 0.0,
            seed,
            job_size_scale: (workload.machines as f64 / 12_500.0).max(0.01),
            ..TraceSpec::default()
        };
        match workload.jobs {
            Jobs::Google { speedup, .. } => spec.speedup = speedup,
            Jobs::Fixed { tasks, duration_s } => {
                spec.fixed = Some(FixedWorkload {
                    tasks_per_job: tasks,
                    duration_s,
                })
            }
        }
        let mut generator = GoogleTraceGenerator::new(spec);
        let mut job_at = |time, template: &mut ClusterState| {
            let mut arrival = generator.generate_job_at(time, template);
            if let Jobs::Google { max_tasks, .. } = workload.jobs {
                arrival.tasks.truncate(max_tasks);
                arrival.job.tasks.truncate(max_tasks);
            }
            arrival
        };

        let slots = workload.machines * workload.slots as usize;
        let target = (slots as f64 * workload.utilization) as usize;
        let mut warmup = Vec::new();
        let mut resident = 0;
        while resident < target {
            let arrival = job_at(0, &mut template);
            resident += arrival.tasks.len();
            warmup.push(arrival);
        }
        residual_durations(&mut warmup, workload.jobs, slots, seed);

        // Job k arrives when the tasks of jobs 0..k are due at the
        // workload's task rate.
        let horizon = workload.round_time(workload.rounds);
        let mut arrivals = vec![Vec::new(); workload.rounds];
        let mut submitted = 0.0;
        loop {
            let time = (submitted / workload.tasks_per_round * workload.round_us as f64) as Time;
            if time >= horizon {
                break;
            }
            let arrival = job_at(time.max(1), &mut template);
            submitted += arrival.tasks.len() as f64;
            arrivals[(time / workload.round_us) as usize].push(arrival);
        }
        let faults = match workload.failures {
            Some(f) => generate_faults(&template, workload.rounds, f, seed),
            None => vec![Vec::new(); workload.rounds],
        };
        Trace {
            template,
            warmup,
            arrivals,
            faults,
        }
    }

    /// Tasks submitted by the timed arrivals.
    pub fn arriving_tasks(&self) -> usize {
        self.arrivals.iter().flatten().map(|a| a.tasks.len()).sum()
    }
}

/// Turns the fresh durations of the first `slots` warm-up tasks into the
/// remaining durations of tasks caught mid-run in a steady state, so the
/// pass does not start with a wave of early completions. A task running
/// at a random instant has a length-biased duration, which for a
/// log-normal of shape σ is the fresh duration times e^(σ²), and has a
/// uniformly distributed share of it left. Warm-up tasks beyond the slot
/// count have not started and keep their full duration.
fn residual_durations(warmup: &mut [JobArrival], jobs: Jobs, slots: usize, seed: u64) {
    let mut rng = XorShift64::new(seed ^ 0x5851_f42d_4c95_7f2d);
    let bias = match jobs {
        Jobs::Google { .. } => TraceSpec::default().duration_sigma.powi(2).exp(),
        Jobs::Fixed { .. } => 1.0,
    };
    for task in warmup
        .iter_mut()
        .flat_map(|a| a.tasks.iter_mut())
        .take(slots)
    {
        if task.duration != Time::MAX {
            let left = task.duration as f64 * bias * rng.unit_f64();
            task.duration = (left as Time).max(1);
        }
    }
}

/// Draws failures independently of scheduling: the victim is a uniformly
/// chosen machine among those the fault schedule itself has not failed.
fn generate_faults(
    template: &ClusterState,
    rounds: usize,
    failures: Failures,
    seed: u64,
) -> Vec<Vec<Fault>> {
    let mut rng = XorShift64::new(seed ^ 0x9e37_79b9_7f4a_7c15);
    let mut live: Vec<MachineId> = template.machines.keys().copied().collect();
    live.sort_unstable();
    let mut faults = vec![Vec::new(); rounds];
    for round in 0..rounds {
        if live.len() > 1 && round % failures.every == failures.every - 1 {
            let victim = live.remove(rng.below(live.len() as u64) as usize);
            faults[round].push(Fault::Fail(victim));
            let back = round + failures.repair_rounds;
            if back < rounds {
                let mut machine = template.machines[&victim].clone();
                machine.running.clear();
                faults[back].push(Fault::Repair(machine));
            }
        }
        // Machines repaired this round become eligible victims again.
        for fault in &faults[round] {
            if let Fault::Repair(m) = fault {
                let at = live.partition_point(|&id| id < m.id);
                live.insert(at, m.id);
            }
        }
    }
    faults
}
