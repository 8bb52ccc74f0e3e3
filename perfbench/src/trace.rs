//! In-memory spans of a traced pass, written out when the run ends.

use std::fmt::Write as _;
use std::time::Instant;

/// One timed call into a layer.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer function, e.g. `core.refresh`.
    pub name: &'static str,
    /// Start of the call.
    pub start: Instant,
    /// End of the call.
    pub end: Instant,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Pass the span belongs to.
    pub pass: u32,
    /// Round within the pass (0 is set-up).
    pub round: u32,
}

/// Spans of a run, in the order they were recorded.
#[derive(Debug)]
pub struct SpanLog {
    epoch: Instant,
    /// The recorded spans.
    pub spans: Vec<Span>,
}

impl SpanLog {
    /// An empty log whose times are reported relative to now.
    pub fn new() -> Self {
        SpanLog {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Appends a span and returns its index.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
        pass: u32,
        round: u32,
    ) -> usize {
        self.spans.push(Span {
            name,
            start,
            end,
            parent,
            pass,
            round,
        });
        self.spans.len() - 1
    }

    /// The spans as tab-separated lines: id, parent, pass, round, name,
    /// start and end in µs since the log was created, and self time in µs
    /// (duration minus the time covered by child spans).
    pub fn to_tsv(&self) -> String {
        let mut child_us = vec![0.0f64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_us[p] += s.end.duration_since(s.start).as_secs_f64() * 1e6;
            }
        }
        let mut out = String::from("id\tparent\tpass\tround\tname\tstart_us\tend_us\tself_us\n");
        for (i, s) in self.spans.iter().enumerate() {
            let start = s.start.duration_since(self.epoch).as_secs_f64() * 1e6;
            let end = s.end.duration_since(self.epoch).as_secs_f64() * 1e6;
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{i}\t{parent}\t{}\t{}\t{}\t{start:.1}\t{end:.1}\t{:.1}",
                s.pass,
                s.round,
                s.name,
                end - start - child_us[i]
            );
        }
        out
    }
}
