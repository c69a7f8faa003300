//! In-memory span recorder for the traced runs.
//!
//! Spans are opened by the benchmark's own code around each call into a
//! layer of the program; the program itself is not instrumented. A span
//! has a name, a start, an end and a parent. Spans are kept in memory and
//! written out once the run ends. A disabled tracer only runs the closure,
//! so the untraced run composes exactly the same calls.

use crate::json::Obj;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Instant;

/// One closed span. Times are nanoseconds since the tracer's origin.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Per-thread span recorder. Client threads each own one and the driving
/// thread merges them with [`Tracer::absorb`].
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer::with_origin(enabled, Instant::now())
    }

    /// A tracer sharing `origin`, so spans from several threads share one
    /// time axis.
    pub fn with_origin(enabled: bool, origin: Instant) -> Tracer {
        Tracer {
            enabled,
            origin,
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    pub fn origin(&self) -> Instant {
        self.origin
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`, child of the innermost open span.
    pub fn span<R>(&self, name: &str, f: impl FnOnce() -> R) -> R {
        if !self.enabled {
            return f();
        }
        let id = {
            let mut spans = self.spans.borrow_mut();
            let parent = self.open.borrow().last().copied();
            spans.push(Span {
                name: name.to_string(),
                start_ns: self.now_ns(),
                end_ns: 0,
                parent,
            });
            spans.len() - 1
        };
        self.open.borrow_mut().push(id);
        let r = f();
        self.open.borrow_mut().pop();
        let end = self.now_ns();
        self.spans.borrow_mut()[id].end_ns = end;
        r
    }

    /// Moves every span of `other` under the innermost open span of `self`.
    pub fn absorb(&self, other: Tracer) {
        if !self.enabled {
            return;
        }
        let parent = self.open.borrow().last().copied();
        let mut spans = self.spans.borrow_mut();
        let base = spans.len();
        for mut s in other.spans.into_inner() {
            s.parent = match s.parent {
                Some(p) => Some(p + base),
                None => parent,
            };
            spans.push(s);
        }
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.borrow().clone()
    }
}

/// Self time and count per span name.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct LayerTime {
    pub self_ns: u64,
    pub total_ns: u64,
    pub count: u64,
}

/// A span's self time is its duration minus the time its children cover.
/// Children of one span run one after another on the parent's thread, or
/// on client threads whose spans are absorbed as children; the covered
/// time is the union of the children's intervals, so overlapping children
/// (two client threads) are not counted twice.
pub fn self_times(spans: &[Span]) -> BTreeMap<String, LayerTime> {
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
    for (i, s) in spans.iter().enumerate() {
        if let Some(p) = s.parent {
            children[p].push(i);
        }
    }
    let mut out: BTreeMap<String, LayerTime> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        let mut iv: Vec<(u64, u64)> = children[i]
            .iter()
            .map(|&c| (spans[c].start_ns, spans[c].end_ns))
            .collect();
        iv.sort_unstable();
        let mut covered = 0u64;
        let mut cur: Option<(u64, u64)> = None;
        for (a, b) in iv {
            let (a, b) = (a.max(s.start_ns), b.min(s.end_ns));
            if b <= a {
                continue;
            }
            cur = match cur {
                Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
                Some((ca, cb)) => {
                    covered += cb - ca;
                    Some((a, b))
                }
                None => Some((a, b)),
            };
        }
        if let Some((ca, cb)) = cur {
            covered += cb - ca;
        }
        let e = out.entry(s.name.clone()).or_default();
        e.self_ns += s.dur_ns().saturating_sub(covered);
        e.total_ns += s.dur_ns();
        e.count += 1;
    }
    out
}

/// The span list as JSON lines: one object per span.
pub fn to_json_lines(spans: &[Span]) -> String {
    let mut out = String::new();
    for (i, s) in spans.iter().enumerate() {
        let mut o = Obj::new();
        o.num("id", i as f64);
        o.str("name", &s.name);
        o.num("start_ns", s.start_ns as f64);
        o.num("end_ns", s.end_ns as f64);
        match s.parent {
            Some(p) => o.num("parent", p as f64),
            None => o.raw("parent", "null"),
        };
        out.push_str(&o.finish());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name: name.into(),
            start_ns,
            end_ns,
            parent,
        }
    }

    #[test]
    fn self_time_subtracts_children_once() {
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 40, Some(0)),
            // Two overlapping children (two client threads).
            span("b", 50, 80, Some(0)),
            span("b", 60, 90, Some(0)),
        ];
        let t = self_times(&spans);
        assert_eq!(t["root"].self_ns, 100 - 30 - 40);
        assert_eq!(t["b"].count, 2);
        assert_eq!(t["b"].self_ns, 60);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        assert_eq!(t.span("x", || 7), 7);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn nested_spans_get_parents() {
        let t = Tracer::new(true);
        t.span("outer", || t.span("inner", || ()));
        let s = t.spans();
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[0].parent, None);
        let other = Tracer::with_origin(true, t.origin());
        other.span("client", || ());
        t.span("merge", || t.absorb(other));
        let s = t.spans();
        assert_eq!(s.last().unwrap().parent, Some(2));
    }
}
