//! In-memory spans around the harness's calls into each layer.
//!
//! A span is a name, a start and an end on one monotonic clock, the span
//! that was open when it started, the rep it belongs to, and the rows and
//! bytes the call handled.  Spans are kept in a `Vec` and written out once,
//! when the run ends.  A layer's *self time* is its span minus the part its
//! children cover; per-layer metrics are sums of self times by name, per rep.
//!
//! A disabled tracer records nothing, so the untraced run pays one branch
//! per call site.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::stats::median;
use crate::surface::Json;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub rep: u32,
    pub rows: u64,
    pub bytes: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Handle returned by [`Tracer::open`]; pass it back to [`Tracer::close`].
#[derive(Debug, Clone, Copy)]
pub struct SpanId(Option<usize>);

pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    rep: u32,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            rep: 0,
        }
    }

    /// Sets the rep id stamped on spans opened from now on.
    pub fn set_rep(&mut self, rep: u32) {
        self.rep = rep;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span as a child of the innermost open one.
    pub fn open(&mut self, name: &'static str) -> SpanId {
        if !self.enabled {
            return SpanId(None);
        }
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
            rep: self.rep,
            rows: 0,
            bytes: 0,
        });
        self.stack.push(id);
        SpanId(Some(id))
    }

    /// Closes `span`, recording what the call handled.  Spans close in the
    /// reverse of the order they opened.
    pub fn close(&mut self, span: SpanId, rows: u64, bytes: u64) {
        let Some(id) = span.0 else { return };
        let end_ns = self.now_ns();
        assert_eq!(self.stack.pop(), Some(id), "spans must nest");
        let s = &mut self.spans[id];
        s.end_ns = end_ns;
        s.rows = rows;
        s.bytes = bytes;
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span, in nanoseconds: its duration minus its direct
/// children's durations (children of one parent never overlap — the
/// harness is single-threaded).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] = own[p].saturating_sub(s.duration_ns());
        }
    }
    own
}

/// What the spans called `name` add up to: self seconds, whole seconds
/// (children included), rows and bytes.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerTotal {
    pub self_s: f64,
    pub whole_s: f64,
    pub rows: u64,
    pub bytes: u64,
}

/// Totals of the spans called `name`.  Where the workload's own traced reps
/// (rep 1 and up) recorded such spans the totals are per rep — the seconds
/// the median over those reps, the counts the first rep's — so a figure is
/// the typical rep's, from every rep measured.  Otherwise they are the
/// probe's (rep 0).
pub fn layer_total(spans: &[Span], own_ns: &[u64], name: &str) -> LayerTotal {
    let mut by_rep: BTreeMap<u32, LayerTotal> = BTreeMap::new();
    for (s, own) in spans.iter().zip(own_ns) {
        if s.name == name {
            let t = by_rep.entry(s.rep).or_default();
            t.self_s += *own as f64 / 1e9;
            t.whole_s += s.duration_ns() as f64 / 1e9;
            t.rows += s.rows;
            t.bytes += s.bytes;
        }
    }
    let reps: Vec<LayerTotal> = by_rep.range(1..).map(|(_, t)| *t).collect();
    let Some(first) = reps.first() else {
        return by_rep.get(&0).copied().unwrap_or_default();
    };
    let median_of = |f: fn(&LayerTotal) -> f64| median(&reps.iter().map(f).collect::<Vec<_>>());
    LayerTotal {
        self_s: median_of(|t| t.self_s),
        whole_s: median_of(|t| t.whole_s),
        ..*first
    }
}

/// The spans as a JSON array, one object per span, self time included.
pub fn spans_json(spans: &[Span]) -> Json {
    let own = self_times_ns(spans);
    Json::Arr(
        spans
            .iter()
            .zip(&own)
            .enumerate()
            .map(|(id, (s, own_ns))| {
                Json::obj()
                    .field("id", id)
                    .field("name", s.name)
                    .field("parent", s.parent.map_or(Json::Null, Json::from))
                    .field("rep", s.rep as u64)
                    .field("start_ns", s.start_ns)
                    .field("end_ns", s.end_ns)
                    .field("self_ns", *own_ns)
                    .field("rows", s.rows)
                    .field("bytes", s.bytes)
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            rep: 0,
            rows: 1,
            bytes: 2,
        }
    }

    #[test]
    fn self_time_subtracts_nested_and_sibling_children() {
        // root [0,100] ── a [10,40] ── a1 [15,25]
        //              └─ b [50,90]
        let spans = [
            span("root", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("a1", 15, 25, Some(1)),
            span("b", 50, 90, Some(0)),
        ];
        // Siblings both come off the root; the grandchild only off `a`.
        assert_eq!(self_times_ns(&spans), vec![30, 20, 10, 40]);
    }

    #[test]
    fn layer_totals_sum_self_time_by_name() {
        let spans = [
            span("loop", 0, 100, None),
            span("decode", 0, 30, Some(0)),
            span("decode", 40, 60, Some(0)),
        ];
        let own = self_times_ns(&spans);
        let t = layer_total(&spans, &own, "decode");
        assert_eq!((t.rows, t.bytes), (2, 4));
        assert!((t.self_s - 50e-9).abs() < 1e-15);
        let whole = layer_total(&spans, &own, "loop");
        assert!((whole.self_s - 50e-9).abs() < 1e-15 && (whole.whole_s - 100e-9).abs() < 1e-15);
        assert_eq!(layer_total(&spans, &own, "absent"), LayerTotal::default());
    }

    #[test]
    fn a_workloads_own_reps_take_precedence_over_the_probe() {
        let in_rep = |rep: u32, start: u64, end: u64| Span {
            rep,
            ..span("decode", start, end, None)
        };
        // The probe measured 500 ns; three own reps 10, 30 and 20 + 20 ns.
        let spans = [
            in_rep(0, 0, 500),
            in_rep(1, 600, 610),
            in_rep(2, 700, 730),
            in_rep(3, 800, 820),
            in_rep(3, 830, 850),
        ];
        let own = self_times_ns(&spans);
        let t = layer_total(&spans, &own, "decode");
        assert!((t.self_s - 30e-9).abs() < 1e-15, "the median rep: {t:?}");
        assert_eq!((t.rows, t.bytes), (1, 2), "one rep's counts");
        let probe_only = layer_total(&spans[..1], &own[..1], "decode");
        assert!((probe_only.self_s - 500e-9).abs() < 1e-15);
    }

    #[test]
    fn tracer_nests_by_open_order_and_disabled_records_nothing() {
        let mut t = Tracer::new(true);
        let outer = t.open("outer");
        t.set_rep(3);
        let inner = t.open("inner");
        t.close(inner, 5, 6);
        t.close(outer, 0, 0);
        let s = t.spans();
        assert_eq!(s[1].parent, Some(0));
        assert_eq!((s[1].rep, s[1].rows, s[1].bytes), (3, 5, 6));
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);

        let mut off = Tracer::new(false);
        let id = off.open("x");
        off.close(id, 1, 1);
        assert!(off.spans().is_empty());
    }
}
