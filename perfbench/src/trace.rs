//! In-memory span recording for the traced run.
//!
//! Spans are opened around calls into each layer from the benchmark's
//! own code, nest by call order on the driving thread, and are kept in
//! memory until the run ends. A span's self time is its duration minus
//! its children's; because the traced pass drives every layer call from
//! one thread, children never overlap, so the self times of all spans
//! plus the time no span covers add up to the pass's wall time exactly.
//! At exit the spans are exported through [`cc_obs::SpanTracer`]'s
//! chrome://tracing writer.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Instant;

struct Span {
    name: &'static str,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
}

struct Inner {
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// A span recorder; disabled recorders cost one branch per span.
pub struct Tracer {
    enabled: bool,
    anchor: Instant,
    inner: RefCell<Inner>,
}

/// Closes its span when dropped.
pub struct Guard<'a> {
    tracer: &'a Tracer,
    index: Option<usize>,
}

impl Drop for Guard<'_> {
    fn drop(&mut self) {
        if let Some(i) = self.index {
            let now = self.tracer.now_ns();
            let mut inner = self.tracer.inner.borrow_mut();
            inner.spans[i].end_ns = now;
            let top = inner.open.pop();
            debug_assert_eq!(top, Some(i), "spans closed out of order");
        }
    }
}

/// Per-span-name totals of a finished pass.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Summary {
    /// Self nanoseconds by span name.
    pub self_ns: BTreeMap<&'static str, u64>,
    /// Every duration (children included) by span name, in call order.
    pub durations_ns: BTreeMap<&'static str, Vec<u64>>,
    /// Wall nanoseconds of the pass no span covers.
    pub unaccounted_ns: u64,
    /// Wall nanoseconds of the pass.
    pub wall_ns: u64,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            anchor: Instant::now(),
            inner: RefCell::new(Inner {
                spans: Vec::new(),
                open: Vec::new(),
            }),
        }
    }

    fn now_ns(&self) -> u64 {
        self.anchor.elapsed().as_nanos() as u64
    }

    /// Opens a span named `name`, closed when the guard drops.
    pub fn enter(&self, name: &'static str) -> Guard<'_> {
        if !self.enabled {
            return Guard {
                tracer: self,
                index: None,
            };
        }
        let now = self.now_ns();
        let mut inner = self.inner.borrow_mut();
        let parent = inner.open.last().copied();
        let i = inner.spans.len();
        inner.spans.push(Span {
            name,
            parent,
            start_ns: now,
            end_ns: now,
        });
        inner.open.push(i);
        Guard {
            tracer: self,
            index: Some(i),
        }
    }

    /// Times `f` as a span named `name`.
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let _g = self.enter(name);
        f()
    }

    /// Self times and durations per span name over a pass that ran for
    /// `wall_ns`, wholly covering every span recorded.
    pub fn summary(&self, wall_ns: u64) -> Summary {
        let inner = self.inner.borrow();
        assert!(inner.open.is_empty(), "summary with spans still open");
        let mut child_ns = vec![0u64; inner.spans.len()];
        let mut top_ns = 0u64;
        for s in &inner.spans {
            let d = s.end_ns - s.start_ns;
            match s.parent {
                Some(p) => child_ns[p] += d,
                None => top_ns += d,
            }
        }
        let mut out = Summary {
            wall_ns,
            unaccounted_ns: wall_ns.saturating_sub(top_ns),
            ..Summary::default()
        };
        for (s, c) in inner.spans.iter().zip(&child_ns) {
            let d = s.end_ns - s.start_ns;
            *out.self_ns.entry(s.name).or_default() += d - c;
            out.durations_ns.entry(s.name).or_default().push(d);
        }
        out
    }

    /// The spans as chrome://tracing JSON (microsecond resolution).
    pub fn chrome_json(&self) -> String {
        let mut t = cc_obs::SpanTracer::new();
        for s in &self.inner.borrow().spans {
            let depth = std::iter::successors(s.parent, |&p| self.inner.borrow().spans[p].parent)
                .count() as u64;
            t.record(
                s.name,
                "perfbench",
                depth,
                s.start_ns / 1000,
                (s.end_ns - s.start_ns) / 1000,
            );
        }
        t.to_chrome_json()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(ns: u64) {
        let t = Instant::now();
        while (t.elapsed().as_nanos() as u64) < ns {
            std::hint::black_box(0);
        }
    }

    #[test]
    fn self_times_plus_unaccounted_equal_wall() {
        let tr = Tracer::new(true);
        let start = Instant::now();
        tr.span("outer", || {
            spin(200_000);
            tr.span("inner", || spin(300_000));
            tr.span("inner", || spin(100_000));
        });
        spin(100_000);
        tr.span("outer", || spin(50_000));
        let wall = start.elapsed().as_nanos() as u64;
        let s = tr.summary(wall);
        let total: u64 = s.self_ns.values().sum::<u64>() + s.unaccounted_ns;
        assert_eq!(total, wall);
        assert_eq!(s.durations_ns["inner"].len(), 2);
        assert!(s.self_ns["inner"] >= 400_000);
        assert!(s.self_ns["outer"] >= 250_000);
        assert!(s.unaccounted_ns >= 100_000);
        assert!(tr.chrome_json().contains("\"name\":\"inner\""));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let tr = Tracer::new(false);
        tr.span("x", || ());
        assert_eq!(
            tr.summary(5),
            Summary {
                wall_ns: 5,
                unaccounted_ns: 5,
                ..Summary::default()
            }
        );
    }
}
