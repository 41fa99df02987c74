//! Spans recorded from the benchmark's own files, around the calls into
//! each layer: name, start, end, the span that caused it, the instance.
//! Kept in memory; written out once when the run ends.

use crate::json::Json;
use std::collections::BTreeMap;
use std::time::Instant;

/// Marks "no parent" and, as a token, "tracing is off".
const NONE: u32 = u32::MAX;

#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// `layer.call`, e.g. `sim.step`; the two roots are `setup` and `script`.
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, `None` for a root.
    pub parent: Option<u32>,
    /// Which of the workload's instances the call belongs to.
    pub instance: u32,
    /// Calls the span covers (a batch of drains is one span).
    pub calls: u32,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Handle of an open span; closing it with [`Tracer::end`] is the
/// caller's job.
#[derive(Clone, Copy)]
pub struct Open(u32);

pub struct Tracer {
    on: bool,
    t0: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
    pub instance: u32,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            t0: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            instance: 0,
        }
    }

    #[inline]
    pub fn begin(&mut self, name: &'static str) -> Open {
        self.begin_batch(name, 1)
    }

    #[inline]
    pub fn begin_batch(&mut self, name: &'static str, calls: u32) -> Open {
        if !self.on {
            return Open(NONE);
        }
        let idx = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            start_ns: self.t0.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent: self.stack.last().copied(),
            instance: self.instance,
            calls,
        });
        self.stack.push(idx);
        Open(idx)
    }

    #[inline]
    pub fn end(&mut self, open: Open) {
        if open.0 == NONE {
            return;
        }
        let now = self.t0.elapsed().as_nanos() as u64;
        let top = self.stack.pop();
        debug_assert_eq!(top, Some(open.0), "spans close innermost first");
        self.spans[open.0 as usize].end_ns = now;
    }

    pub fn take_spans(&mut self) -> Vec<Span> {
        debug_assert!(self.stack.is_empty(), "a span is still open");
        std::mem::take(&mut self.spans)
    }
}

/// Self time of every span: its duration minus the part of it its
/// direct children cover.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::dur_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p as usize] = own[p as usize].saturating_sub(s.dur_ns());
        }
    }
    own
}

/// What the spans of one name add up to under one root.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct NameTotal {
    pub calls: u64,
    pub self_ns: u64,
    /// Duration per call of every span (a batch contributes its mean).
    pub per_call_us: Vec<f64>,
}

/// Totals by span name over the spans whose outermost ancestor is named
/// `root` (the root itself is included: its self time is the driver's
/// own bookkeeping).
pub fn totals_under(spans: &[Span], root: &str) -> BTreeMap<&'static str, NameTotal> {
    let own = self_times(spans);
    // Parents precede children, so one pass resolves every root.
    let mut root_of: Vec<u32> = Vec::with_capacity(spans.len());
    for (i, s) in spans.iter().enumerate() {
        root_of.push(match s.parent {
            Some(p) => root_of[p as usize],
            None => i as u32,
        });
    }
    let mut out: BTreeMap<&'static str, NameTotal> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        if spans[root_of[i] as usize].name != root {
            continue;
        }
        let t = out.entry(s.name).or_default();
        t.calls += s.calls as u64;
        t.self_ns += own[i];
        t.per_call_us
            .push(s.dur_ns() as f64 / 1e3 / s.calls.max(1) as f64);
    }
    out
}

/// `trace.json`: one object per span, in start order.
pub fn to_json(workload: &str, seed: u64, spans: &[Span]) -> Json {
    Json::obj([
        ("schema", Json::str("skippub-benchmark/trace/v1")),
        ("workload", Json::str(workload)),
        ("seed", Json::Num(seed as f64)),
        (
            "spans",
            Json::Arr(
                spans
                    .iter()
                    .map(|s| {
                        Json::obj([
                            ("name", Json::str(s.name)),
                            ("start_ns", Json::Num(s.start_ns as f64)),
                            ("end_ns", Json::Num(s.end_ns as f64)),
                            (
                                "parent",
                                s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                            ),
                            ("instance", Json::Num(s.instance as f64)),
                            ("calls", Json::Num(s.calls as f64)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<u32>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            instance: 0,
            calls: 1,
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let spans = vec![
            span("script", 0, 100, None),
            span("sim.step", 10, 40, Some(0)),
            span("core.checker.poll", 50, 70, Some(0)),
            span("inner", 55, 60, Some(2)),
        ];
        assert_eq!(self_times(&spans), vec![50, 30, 15, 5]);
    }

    #[test]
    fn totals_are_kept_per_root() {
        let mut spans = vec![
            span("setup", 0, 50, None),
            span("core.pubsub.subscribe", 5, 15, Some(0)),
            span("script", 50, 150, None),
            span("sim.step", 60, 90, Some(2)),
            span("sim.step", 100, 140, Some(2)),
        ];
        spans[4].calls = 4;
        let script = totals_under(&spans, "script");
        assert_eq!(script["sim.step"].calls, 5);
        assert_eq!(script["sim.step"].self_ns, 70);
        assert_eq!(script["sim.step"].per_call_us, vec![0.03, 0.01]);
        assert_eq!(script["script"].self_ns, 30);
        assert!(!script.contains_key("core.pubsub.subscribe"));
        let setup = totals_under(&spans, "setup");
        assert_eq!(setup["core.pubsub.subscribe"].self_ns, 10);
    }

    #[test]
    fn a_tracer_that_is_off_records_nothing() {
        let mut t = Tracer::new(false);
        let o = t.begin("sim.step");
        t.end(o);
        assert!(t.take_spans().is_empty());
    }

    #[test]
    fn nesting_sets_parents() {
        let mut t = Tracer::new(true);
        let root = t.begin("script");
        t.instance = 3;
        let a = t.begin_batch("core.pubsub.drain", 128);
        t.end(a);
        t.end(root);
        let spans = t.take_spans();
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!((spans[1].instance, spans[1].calls), (3, 128));
        assert!(spans[1].start_ns >= spans[0].start_ns && spans[1].end_ns <= spans[0].end_ns);
        let j = to_json("w", 1, &spans);
        assert_eq!(
            j.get("spans").and_then(Json::as_arr).map(<[Json]>::len),
            Some(2)
        );
    }
}
