//! Closed-loop round benchmark for the Firmament scheduler.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload churn-quincy --seed 1 --seconds 30 --trace 0
//! ```
//!
//! A run generates the workload's trace from the seed, then repeats
//! passes (set-up plus a fixed number of rounds, see [`replay`]) until
//! `--seconds` have passed. Every pass replays the same rounds, so a
//! round's time is its median over the untraced passes (see
//! [`metrics::RunSummary`]). With `--trace 0` every pass is untraced and
//! the run prints the end-to-end metrics. With `--trace 1` passes alternate
//! between untraced and traced, the run prints the per-layer metrics of
//! the traced passes plus the tracing overhead, and writes the spans to
//! `perfbench/out/`. The last line of standard output is one JSON object.

mod metrics;
mod replay;
mod trace;
mod workload;

#[cfg(test)]
mod tests;

use metrics::{Metric, RunSummary};
use replay::{run_pass, PassResult};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use trace::SpanLog;
use workload::{Trace, Workload};

/// Command-line arguments.
#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::by_name(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = Some(value.parse().map_err(|e| format!("--seconds: {e}"))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    })
}

/// Stop condition of a run: the minimum pass counts, and then either
/// `seconds` of passes or `hard_limit`, so the run ends in time on a slow
/// machine.
#[derive(Debug, Clone, Copy)]
pub struct Budget {
    /// Wall time the passes should fill.
    pub seconds: Duration,
    /// Untraced passes required (set-up time is their median).
    pub min_untraced: usize,
    /// Traced passes required (0 for an untraced run).
    pub min_traced: usize,
    /// Wall time after which no new pass starts.
    pub hard_limit: Duration,
}

/// Runs passes of `workload` until `budget` is met.
pub fn run(
    workload: &Workload,
    trace: &Trace,
    budget: Budget,
    spans: &mut SpanLog,
) -> Vec<PassResult> {
    let start = Instant::now();
    let mut passes: Vec<PassResult> = Vec::new();
    loop {
        let untraced = passes.iter().filter(|p| !p.traced).count();
        let traced = passes.len() - untraced;
        let elapsed = start.elapsed();
        let minimum = untraced >= budget.min_untraced && traced >= budget.min_traced;
        if minimum && elapsed >= budget.seconds.min(budget.hard_limit) {
            return passes;
        }
        // Alternate when tracing, starting untraced.
        let trace_this = budget.min_traced > 0 && passes.len() % 2 == 1;
        let pass_no = passes.len() as u32;
        let result = run_pass(
            workload,
            trace,
            trace_this.then_some((&mut *spans, pass_no)),
        );
        passes.push(result);
    }
}

/// Makes every thread allocate from one glibc malloc arena. Each round
/// runs on a fresh thread and the dual race spawns its solvers afresh, so
/// with glibc's default of up to eight arenas per CPU the round's memory
/// landed in whichever arenas were free, each kept its own high-water
/// mark, and the peak resident set grew pass by pass by a different
/// amount in every run. One arena makes the peak follow the memory the
/// scheduler holds; round times did not change measurably.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn single_malloc_arena() {
    const M_ARENA_MAX: i32 = -8;
    extern "C" {
        fn mallopt(param: i32, value: i32) -> i32;
    }
    // SAFETY: `mallopt` only sets an allocator parameter; it is called
    // before the program starts any thread.
    unsafe {
        mallopt(M_ARENA_MAX, 1);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn single_malloc_arena() {}

fn main() -> ExitCode {
    single_malloc_arena();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                Workload::all()
                    .iter()
                    .map(|w| w.name)
                    .collect::<Vec<_>>()
                    .join("|")
            );
            return ExitCode::from(2);
        }
    };
    let w = &args.workload;
    println!(
        "# workload {} seed {} · {} machines × {} slots, warm-up fill {:.0} %, {} tasks a round, {:?}, {} rounds of {} ms per pass · {} cpus",
        w.name,
        args.seed,
        w.machines,
        w.slots,
        w.utilization * 100.0,
        w.tasks_per_round,
        w.jobs,
        w.rounds,
        w.round_us / 1000,
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    let trace = Trace::generate(w, args.seed);
    println!(
        "# trace: {} warm-up tasks, {} arriving tasks, {} failures",
        trace.warmup.iter().map(|a| a.tasks.len()).sum::<usize>(),
        trace.arriving_tasks(),
        trace
            .faults
            .iter()
            .flatten()
            .filter(|f| matches!(f, workload::Fault::Fail(_)))
            .count()
    );
    let budget = Budget {
        seconds: Duration::from_secs(args.seconds),
        min_untraced: if args.trace { 2 } else { 3 },
        min_traced: if args.trace { 2 } else { 0 },
        hard_limit: Duration::from_secs(120),
    };
    let mut spans = SpanLog::new();
    let passes = run(w, &trace, budget, &mut spans);
    let summary = RunSummary::new(&passes);
    for line in summary.report_lines(&passes) {
        println!("# {line}");
    }

    let metrics: Vec<Metric> = if args.trace {
        let path = format!("perfbench/out/{}-seed{}.spans.tsv", w.name, args.seed);
        match std::fs::create_dir_all("perfbench/out")
            .and_then(|_| std::fs::write(&path, spans.to_tsv()))
        {
            Ok(()) => println!("# spans: {} written to {path}", spans.spans.len()),
            Err(e) => println!("# spans: not written ({e})"),
        }
        summary.per_layer()
    } else {
        summary.end_to_end()
    };
    let correct = summary.violations.is_empty();
    println!("{}", metrics::result_json(correct, summary.ops, &metrics));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
