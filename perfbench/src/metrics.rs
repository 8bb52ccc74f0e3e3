//! Metrics of a run, computed from its passes, and the result line.

use crate::replay::{Fingerprint, LayerRound, Ops, PassResult};
use std::collections::BTreeMap;

/// Largest share by which a pass's event count may differ from the first
/// pass's. The dual race may pick a different optimum among equal-cost
/// ones, after which failures hit different tasks; on the contended
/// workload this moves the event count by well under this share.
pub const WORK_TOLERANCE: f64 = 0.01;

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Value.
    pub value: f64,
}

/// Names and units of the end-to-end metrics, in output order.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("round_p50_ms", "ms"),
    ("round_p90_ms", "ms"),
    ("placement_p50_ms", "ms"),
    ("placement_p99_ms", "ms"),
    ("tasks_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// A per-layer metric: name, unit and how it is computed from the traced
/// rounds.
type LayerMetric = (&'static str, &'static str, fn(&[LayerRound]) -> f64);

/// The per-layer metrics, in output order. Unless the name says
/// otherwise, each is the median over traced rounds; `_share` metrics are
/// shares of rounds, and the sparse counters `waiting_rederived` and
/// `bailouts` are means per round.
pub const PER_LAYER: [LayerMetric; 23] = [
    ("core.apply_event_ms", "ms", |l| {
        median_of(l, |r| r.apply_event_ms)
    }),
    ("core.events", "count", |l| {
        median_of(l, |r| r.events as f64)
    }),
    ("core.refresh.waiting_rederived", "count", |l| {
        mean_of(l, |r| r.waiting_rederived as f64)
    }),
    ("core.refresh_ms", "ms", |l| median_of(l, |r| r.refresh_ms)),
    ("core.refresh.tasks_touched", "count", |l| {
        median_of(l, |r| r.tasks_touched as f64)
    }),
    ("core.refresh.machines_touched", "count", |l| {
        median_of(l, |r| r.machines_touched as f64)
    }),
    ("core.refresh.aggregates_touched", "count", |l| {
        median_of(l, |r| r.aggregates_touched as f64)
    }),
    ("flow.take_deltas_ms", "ms", |l| {
        median_of(l, |r| r.take_deltas_ms)
    }),
    ("flow.raw_changes", "count", |l| {
        median_of(l, |r| r.raw_changes as f64)
    }),
    ("flow.deltas", "count", |l| {
        median_of(l, |r| r.deltas as f64)
    }),
    ("flow.compaction_ratio", "ratio", |l| {
        median(
            l.iter()
                .filter(|r| r.raw_changes > 0)
                .map(|r| r.deltas as f64 / r.raw_changes as f64),
        )
    }),
    ("flow.graph_nodes", "count", |l| {
        median_of(l, |r| r.graph_nodes as f64)
    }),
    ("flow.graph_arcs", "count", |l| {
        median_of(l, |r| r.graph_arcs as f64)
    }),
    ("mcmf.dual_ms", "ms", |l| median_of(l, |r| r.dual_ms)),
    ("mcmf.algorithm_ms", "ms", |l| {
        median_of(l, |r| r.algorithm_ms)
    }),
    ("mcmf.race_overhead_ms", "ms", |l| {
        median_of(l, |r| r.dual_ms - r.algorithm_ms)
    }),
    ("mcmf.race_skipped_share", "ratio", |l| {
        mean_of(l, |r| r.race_skipped as u8 as f64)
    }),
    ("mcmf.relaxation_win_share", "ratio", |l| {
        mean_of(l, |r| r.relaxation_won as u8 as f64)
    }),
    ("mcmf.cs_iterations", "count", |l| {
        median_of(l, |r| r.cs_iterations as f64)
    }),
    ("mcmf.cs_nodes_touched_share", "ratio", |l| {
        median_of(l, |r| {
            r.cs_nodes_touched as f64 / r.graph_nodes.max(1) as f64
        })
    }),
    ("mcmf.bailouts", "count", |l| {
        mean_of(l, |r| r.bailouts as f64)
    }),
    ("core.extract_ms", "ms", |l| median_of(l, |r| r.extract_ms)),
    ("other_ms", "ms", |l| median_of(l, LayerRound::other_ms)),
];

/// Passes after which the process's peak resident set is reported. Every
/// run makes at least this many, so the reported peak covers the same
/// work in every run however many passes a fast host fits in.
pub const RSS_PASSES: usize = 3;

/// Everything a run's metrics are computed from.
///
/// Every untraced pass replays the same rounds, so the summary times a
/// round as its median over those passes: a burst of load from elsewhere
/// on the host slows one pass's copy of a round, not its median. Tail
/// percentiles are taken over these per-round medians, and placement
/// latencies are read off the timeline they make.
#[derive(Debug, Default)]
pub struct RunSummary {
    /// Set-up time of each untraced pass, s.
    pub setups_s: Vec<f64>,
    /// Untraced passes.
    pub passes: usize,
    /// Wall time of each measured round: its median over untraced
    /// passes, ms.
    pub rounds_ms: Vec<f64>,
    /// Placement latency of every measured submission of every untraced
    /// pass, on the timeline of per-round medians: from the start of the
    /// round that fed it to the end of the round that placed it, ms.
    pub placement_ms: Vec<f64>,
    /// Fewest placements an untraced pass measured.
    pub placements_per_pass: usize,
    /// Median over untraced passes of the tasks placed in measured rounds.
    pub placed_per_pass: f64,
    /// Peak resident set after [`RSS_PASSES`] passes (or the last), MB.
    pub peak_rss_mb: f64,
    /// Traced rounds.
    pub layers: Vec<LayerRound>,
    /// Operations over every pass.
    pub ops: Ops,
    /// Correctness violations over every pass.
    pub violations: Vec<String>,
}

impl RunSummary {
    /// Summarises the passes of a run.
    pub fn new(passes: &[PassResult]) -> Self {
        let mut s = RunSummary::default();
        for p in passes {
            s.ops.attempted += p.ops.attempted;
            s.ops.failed += p.ops.failed;
            s.violations.extend(p.violations.iter().cloned());
            if p.traced {
                s.layers.extend_from_slice(&p.layers);
            }
        }
        let untraced: Vec<&PassResult> = passes.iter().filter(|p| !p.traced).collect();
        s.passes = untraced.len();
        s.setups_s = untraced.iter().map(|p| p.setup_s).collect();
        let rounds = untraced.first().map_or(0, |p| p.rounds_ms.len());
        s.rounds_ms = (0..rounds)
            .map(|r| median(untraced.iter().map(|p| p.rounds_ms[r])))
            .collect();
        let mut starts = Vec::with_capacity(rounds);
        let mut clock = 0.0;
        for r in 0..rounds {
            starts.push(clock);
            let gap = median(untraced.iter().filter_map(|p| p.gaps_ms.get(r).copied()));
            clock += s.rounds_ms[r] + gap;
        }
        s.placement_ms = untraced
            .iter()
            .flat_map(|p| p.placements.iter())
            .map(|&(fed, placed)| starts[placed] + s.rounds_ms[placed] - starts[fed])
            .collect();
        s.placements_per_pass = untraced
            .iter()
            .map(|p| p.placements.len())
            .min()
            .unwrap_or(0);
        s.placed_per_pass = median(untraced.iter().map(|p| p.placed as f64));
        s.peak_rss_mb = passes
            .get(RSS_PASSES - 1)
            .or(passes.last())
            .map_or(0.0, |p| p.peak_rss_mb);
        if let Some(first) = passes.first() {
            let base = first.fingerprint.events as f64;
            for (i, p) in passes.iter().enumerate() {
                let drift = (p.fingerprint.events as f64 - base).abs() / base.max(1.0);
                if drift > WORK_TOLERANCE {
                    s.violations.push(format!(
                        "pass {i} fed {} events, pass 0 fed {} (beyond {} %)",
                        p.fingerprint.events,
                        first.fingerprint.events,
                        WORK_TOLERANCE * 100.0
                    ));
                }
            }
        }
        s
    }

    /// The end-to-end metrics (untraced passes).
    pub fn end_to_end(&self) -> Vec<Metric> {
        let wall_s: f64 = self.rounds_ms.iter().sum::<f64>() / 1e3;
        let values = [
            median(self.setups_s.iter().copied()),
            percentile(&self.rounds_ms, 0.5),
            percentile(&self.rounds_ms, 0.9),
            percentile(&self.placement_ms, 0.5),
            percentile(&self.placement_ms, 0.99),
            self.placed_per_pass / wall_s,
            self.peak_rss_mb,
        ];
        END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), value)| Metric { name, unit, value })
            .collect()
    }

    /// The per-layer metrics (traced passes) plus the traced round median
    /// and the tracing overhead against the untraced passes.
    pub fn per_layer(&self) -> Vec<Metric> {
        let mut out: Vec<Metric> = PER_LAYER
            .iter()
            .map(|&(name, unit, f)| Metric {
                name,
                unit,
                value: f(&self.layers),
            })
            .collect();
        let traced = median_of(&self.layers, |r| r.round_ms);
        out.push(Metric {
            name: "trace.round_p50_ms",
            unit: "ms",
            value: traced,
        });
        out.push(Metric {
            name: "trace.overhead_ms",
            unit: "ms",
            value: traced - percentile(&self.rounds_ms, 0.5),
        });
        out
    }

    /// Human-readable lines: sample counts, operations, per-pass work
    /// fingerprints and any violation.
    pub fn report_lines(&self, passes: &[PassResult]) -> Vec<String> {
        let pooled: Vec<f64> = passes
            .iter()
            .filter(|p| !p.traced)
            .flat_map(|p| p.rounds_ms.iter().copied())
            .collect();
        let mut lines = vec![
            format!(
                "samples: {} untraced passes; per pass {} rounds ({} beyond p90) and at least {} placements ({} beyond p99); {} traced rounds",
                self.passes,
                self.rounds_ms.len(),
                beyond(self.rounds_ms.len(), 0.9),
                self.placements_per_pass,
                beyond(self.placements_per_pass, 0.99),
                self.layers.len()
            ),
            format!(
                "round times pooled over passes, not per-round medians: p50 {:.3} ms, p90 {:.3} ms",
                percentile(&pooled, 0.5),
                percentile(&pooled, 0.9)
            ),
            format!("ops_attempted {} ops_failed {}", self.ops.attempted, self.ops.failed),
        ];
        let mut slowest: Vec<(usize, f64)> = self.rounds_ms.iter().copied().enumerate().collect();
        slowest.sort_by(|a, b| b.1.total_cmp(&a.1));
        lines.push(format!(
            "slowest rounds (index: per-round median ms): {}",
            slowest
                .iter()
                .take(8)
                .map(|(i, ms)| format!("{}: {ms:.1}", i + 1))
                .collect::<Vec<_>>()
                .join(", ")
        ));
        let mut waited: BTreeMap<usize, usize> = BTreeMap::new();
        for p in passes.iter().filter(|p| !p.traced).take(1) {
            for &(fed, placed) in &p.placements {
                *waited.entry(placed - fed + 1).or_default() += 1;
            }
        }
        lines.push(format!(
            "placements of pass 0 by rounds spanned (1 = placed in the round that fed it): {waited:?}"
        ));
        for (i, p) in passes.iter().enumerate() {
            lines.push(format!(
                "pass {i} {} setup {:.3} s · VmHWM {:.1} MB · {}",
                if p.traced { "traced  " } else { "untraced" },
                p.setup_s,
                p.peak_rss_mb,
                fingerprint_line(&p.fingerprint)
            ));
        }
        let first = passes
            .first()
            .map(|p| (p.fingerprint.counts(), p.fingerprint.digest));
        let counts = passes
            .iter()
            .all(|p| Some(p.fingerprint.counts()) == first.map(|f| f.0));
        let digests = passes
            .iter()
            .all(|p| Some(p.fingerprint.digest) == first.map(|f| f.1));
        lines.push(format!(
            "work fingerprint across passes: counts {}, action digests {} (tolerance {} % of events)",
            if counts { "identical" } else { "differ" },
            if digests { "identical" } else { "differ" },
            WORK_TOLERANCE * 100.0
        ));
        lines.extend(self.violations.iter().map(|v| format!("VIOLATION: {v}")));
        lines
    }
}

fn fingerprint_line(f: &Fingerprint) -> String {
    format!(
        "rounds {} events {} placed {} preempted {} completed {} failures {} waiting_at_end {} digest {:016x} · winners relaxation {} cost_scaling {} skipped {}",
        f.rounds,
        f.events,
        f.placed,
        f.preemptions,
        f.completions,
        f.failures,
        f.waiting_at_end,
        f.digest,
        f.relaxation_wins,
        f.cost_scaling_wins,
        f.race_skips
    )
}

/// Samples strictly beyond the nearest-rank `p` percentile of `n`.
pub fn beyond(n: usize, p: f64) -> usize {
    n - ((p * n as f64).ceil() as usize).min(n)
}

/// Nearest-rank percentile; 0 when there are no samples.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// Median (the mean of the middle two of an even count); 0 when there
/// are no values.
fn median(values: impl Iterator<Item = f64>) -> f64 {
    let mut v: Vec<f64> = values.collect();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

fn median_of(rounds: &[LayerRound], f: impl Fn(&LayerRound) -> f64) -> f64 {
    median(rounds.iter().map(f))
}

fn mean_of(rounds: &[LayerRound], f: impl Fn(&LayerRound) -> f64) -> f64 {
    rounds.iter().map(f).sum::<f64>() / rounds.len().max(1) as f64
}

/// The process's peak resident set (`VmHWM`), MB; 0 where unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The result line: `correct`, `attempted`, `failed` and `metrics`.
pub fn result_json(correct: bool, ops: Ops, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        ops.attempted.max(1),
        ops.failed,
        body.join(", ")
    )
}
