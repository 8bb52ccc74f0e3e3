//! The benchmark's own checks, at toy scale.

use crate::metrics::{beyond, result_json, RunSummary, END_TO_END, PER_LAYER};
use crate::replay::{run_pass, PassResult, Replay};
use crate::trace::SpanLog;
use crate::workload::{Trace, Workload, WARMUP_ROUNDS};
use crate::{run, Budget};
use firmament_cluster::ClusterEvent;
use firmament_core::SchedulingAction;
use firmament_policies::{QuincyConfig, QuincyCostModel};
use std::time::Duration;

fn toy_run(workload: &Workload, traced: bool) -> Vec<PassResult> {
    let trace = Trace::generate(workload, 7);
    let budget = Budget {
        seconds: Duration::ZERO,
        min_untraced: 2,
        min_traced: if traced { 2 } else { 0 },
        hard_limit: Duration::ZERO,
    };
    run(workload, &trace, budget, &mut SpanLog::new())
}

#[test]
fn every_metric_is_printed_with_its_unit() {
    let mut per_layer: Vec<(&str, &str)> = PER_LAYER.iter().map(|&(n, u, _)| (n, u)).collect();
    per_layer.extend([("trace.round_p50_ms", "ms"), ("trace.overhead_ms", "ms")]);
    for workload in Workload::all() {
        let toy = workload.toy();
        for traced in [false, true] {
            let passes = toy_run(&toy, traced);
            let summary = RunSummary::new(&passes);
            assert!(
                summary.violations.is_empty(),
                "{}: {:?}",
                toy.name,
                summary.violations
            );
            assert_eq!(summary.ops.failed, 0, "{}", toy.name);
            let (metrics, expected) = if traced {
                (summary.per_layer(), per_layer.clone())
            } else {
                (summary.end_to_end(), END_TO_END.to_vec())
            };
            let printed: Vec<(&str, &str)> = metrics.iter().map(|m| (m.name, m.unit)).collect();
            assert_eq!(printed, expected, "{}", toy.name);
            let line = result_json(true, summary.ops, &metrics);
            for (name, unit) in expected {
                let needle = format!("\"{name}\": {{\"value\": ");
                let at = line
                    .find(&needle)
                    .unwrap_or_else(|| panic!("{name} missing: {line}"));
                let rest = &line[at + needle.len()..];
                let value = &rest[..rest.find(',').expect("value ends")];
                value
                    .parse::<f64>()
                    .unwrap_or_else(|_| panic!("{name} = {value}"));
                assert!(rest.starts_with(&format!("{value}, \"unit\": \"{unit}\"}}")));
            }
        }
    }
}

#[test]
fn benchmark_json_lists_every_workload_and_metric() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    for workload in Workload::all() {
        assert!(json.contains(&format!("\"name\": \"{}\"", workload.name)));
    }
    let units = END_TO_END
        .iter()
        .copied()
        .chain(PER_LAYER.iter().map(|&(n, u, _)| (n, u)))
        .chain([("trace.round_p50_ms", "ms"), ("trace.overhead_ms", "ms")]);
    for (name, unit) in units {
        let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
        assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
}

/// Two passes over one trace feed the same events and place as many
/// tasks, traced or not. The action digest is not compared: where costs
/// tie, the race winner decides which task lands where. On
/// contended-hier it also decides which waiting tasks, with different
/// remaining durations, get the free slots, and which tasks a failure
/// displaces, so the counts drift too: there the event count must stay
/// within 5 % at this toy scale (a few events; `WORK_TOLERANCE` bounds the
/// drift at full scale).
#[test]
fn fingerprint_repeats_at_toy_scale() {
    for workload in Workload::all() {
        let toy = workload.toy();
        let trace = Trace::generate(&toy, 11);
        let mut log = SpanLog::new();
        let passes = [
            run_pass(&toy, &trace, None).fingerprint,
            run_pass(&toy, &trace, None).fingerprint,
            run_pass(&toy, &trace, Some((&mut log, 2))).fingerprint,
        ];
        let first = passes[0];
        assert!(
            first.placed > 0 && first.completions > 0,
            "{}: {first:?}",
            toy.name
        );
        assert!(!log.spans.is_empty());
        for p in &passes[1..] {
            let (a, b) = (first.counts(), p.counts());
            if toy.failures.is_none() {
                assert_eq!(a, b, "{}", toy.name);
            } else {
                let drift = (a[1] as f64 - b[1] as f64).abs() / a[1] as f64;
                assert!(drift <= 0.05, "{}: {a:?} vs {b:?}", toy.name);
            }
        }
    }
}

#[test]
fn same_seed_gives_the_same_trace() {
    // Everything the seed draws: job contents, warm-up residual
    // durations, and the failure schedule.
    let digest = |t: &Trace| -> String {
        let mut out = format!("{:?}", t.faults);
        for a in t.warmup.iter().chain(t.arrivals.iter().flatten()) {
            out += &format!("{}:", a.time);
            for task in &a.tasks {
                out += &format!("{},{},{};", task.id, task.duration, task.input_blocks.len());
            }
        }
        out
    };
    for workload in Workload::all() {
        let toy = workload.toy();
        let a = digest(&Trace::generate(&toy, 5));
        assert_eq!(a, digest(&Trace::generate(&toy, 5)), "{}", toy.name);
        assert_ne!(a, digest(&Trace::generate(&toy, 6)), "{}", toy.name);
    }
}

#[test]
fn misapplied_actions_count_as_failed_ops() {
    let toy = Workload::by_name("churn-quincy").expect("workload").toy();
    let trace = Trace::generate(&toy, 3);
    let mut replay = Replay::new(&toy, &trace, QuincyCostModel::new(QuincyConfig::default()));
    let mut machines: Vec<_> = trace.template.machines.values().cloned().collect();
    machines.sort_by_key(|m| m.id);
    let (first, last) = (machines[0].id, machines[machines.len() - 1].id);
    for machine in machines {
        replay.feed(&ClusterEvent::MachineAdded { machine });
    }
    let job = &trace.warmup[0];
    replay.feed(&ClusterEvent::JobSubmitted {
        job: job.job.clone(),
        tasks: job.tasks.clone(),
    });
    let task = job.tasks[0].id;
    let before = replay.ops();
    let placed = replay.apply_actions(&[
        SchedulingAction::Place {
            task,
            machine: first,
        },
        // The task already runs.
        SchedulingAction::Place {
            task,
            machine: last,
        },
        // No such machine.
        SchedulingAction::Place {
            task: task + 1,
            machine: last + 1,
        },
        // No such task.
        SchedulingAction::Preempt { task: u64::MAX },
    ]);
    let after = replay.ops();
    assert_eq!(placed, vec![task]);
    assert_eq!(after.failed - before.failed, 3);
    // Four actions plus the `handle_event` of the one that applied.
    assert_eq!(after.attempted - before.attempted, 5);
}

/// Every tail percentile has at least ten samples beyond it in one pass
/// of each full-size workload: timed rounds beyond the 90th, tasks
/// arriving in timed rounds beyond the 99th.
#[test]
fn a_full_size_pass_covers_the_tails() {
    for workload in Workload::all() {
        let trace = Trace::generate(&workload, 1);
        let timed = &trace.arrivals[WARMUP_ROUNDS..];
        let arriving: usize = timed.iter().flatten().map(|a| a.tasks.len()).sum();
        assert!(
            beyond(workload.rounds - WARMUP_ROUNDS, 0.9) >= 10,
            "{}",
            workload.name
        );
        assert!(beyond(arriving, 0.99) >= 10, "{}", workload.name);
    }
}
