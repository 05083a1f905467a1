//! Spans recorded at the layer boundaries the benchmark calls across.
//!
//! A span is named `<layer>.<operation>`, has a start and an end relative
//! to the tracer's epoch, and points at the span that caused it. Spans stay
//! in memory and are written out once, when the run ends.

use std::time::Instant;
use tane_util::Json;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// `<layer>.<operation>`.
    pub name: String,
    /// Nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// Nanoseconds since the tracer's epoch; `>= start_ns`.
    pub end_ns: u64,
    /// Index of the causing span in the same tracer.
    pub parent: Option<usize>,
}

/// In-memory span recorder. A disabled tracer records nothing, so the
/// untimed and timed paths share one code shape.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer whose epoch is now.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Nanoseconds since the epoch for `at`.
    fn offset(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Records `[start, end]` under `parent` and returns its index, to pass
    /// as its children's parent. A disabled tracer keeps nothing, and the
    /// index it returns is meaningless.
    pub fn record(
        &mut self,
        name: &str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
    ) -> usize {
        if self.enabled {
            self.spans.push(Span {
                name: name.to_string(),
                start_ns: self.offset(start),
                end_ns: self.offset(end).max(self.offset(start)),
                parent,
            });
        }
        self.spans.len().saturating_sub(1)
    }

    /// Appends a span recorded elsewhere (a client thread's own list).
    pub fn push(&mut self, span: Span) {
        if self.enabled {
            self.spans.push(span);
        }
    }

    /// Recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Spans plus each name's total self time, as one JSON document.
    pub fn to_json(&self) -> Json {
        let selfs = self_times(&self.spans);
        let mut totals: Vec<(String, f64)> = Vec::new();
        for (span, ns) in self.spans.iter().zip(&selfs) {
            match totals.iter_mut().find(|(n, _)| *n == span.name) {
                Some((_, t)) => *t += *ns as f64 / 1e9,
                None => totals.push((span.name.clone(), *ns as f64 / 1e9)),
            }
        }
        let spans = self
            .spans
            .iter()
            .zip(&selfs)
            .map(|(s, self_ns)| {
                Json::obj([
                    ("name", Json::Str(s.name.clone())),
                    ("start_ns", Json::Num(s.start_ns as f64)),
                    ("end_ns", Json::Num(s.end_ns as f64)),
                    ("self_ns", Json::Num(*self_ns as f64)),
                    (
                        "parent",
                        s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                    ),
                ])
            })
            .collect();
        let totals = totals
            .into_iter()
            .map(|(name, secs)| (name, Json::Num(secs)))
            .collect();
        Json::obj([
            ("self_seconds", Json::Obj(totals)),
            ("spans", Json::Arr(spans)),
        ])
    }
}

/// Each span's self time: its duration minus the part of its interval that
/// its children cover. Children may overlap one another (a level's tail
/// runs beside the next level's products), so the covered part is the
/// length of the union of the children's intervals, clipped to the parent.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent.filter(|&p| p < spans.len()) {
            let parent = &spans[p];
            let (lo, hi) = (s.start_ns.max(parent.start_ns), s.end_ns.min(parent.end_ns));
            if lo < hi {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = 0;
            for &(lo, hi) in kids.iter() {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                }
                reach = reach.max(hi);
            }
            (s.end_ns - s.start_ns).saturating_sub(covered)
        })
        .collect()
}
