//! Spans recorded in the benchmark's own code around each call into a
//! layer's public functions. A disabled tracer runs the closure and
//! nothing else, which is how the end-to-end phase runs.
//!
//! Spans nest: the outermost open span is the request, and a span's
//! duration is charged to its parent as child time. Closed spans fold
//! into per-name totals — count, total time and self time (duration
//! minus the time its child spans cover) — so memory stays flat however
//! long the run.

use std::collections::BTreeMap;
use std::time::Instant;

/// Per-name span totals.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct SpanTotal {
    pub count: u64,
    pub total_ns: u128,
    pub self_ns: u128,
}

struct Open {
    name: &'static str,
    start: Instant,
    child_ns: u128,
}

#[derive(Default)]
pub struct Tracer {
    enabled: bool,
    open: Vec<Open>,
    requests: u64,
    totals: BTreeMap<&'static str, SpanTotal>,
}

impl Tracer {
    pub fn off() -> Self {
        Tracer::default()
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Switches recording on or off between requests.
    pub fn set_enabled(&mut self, on: bool) {
        assert!(self.open.is_empty(), "switched with spans open");
        self.enabled = on;
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.open(name);
        let out = f();
        self.close();
        out
    }

    /// Opens a span the caller closes with [`Tracer::close`], for
    /// bodies that are not a single closure. The outermost open span
    /// starts a new request.
    pub fn open(&mut self, name: &'static str) {
        if self.enabled {
            if self.open.is_empty() {
                self.requests += 1;
            }
            self.open.push(Open {
                name,
                start: Instant::now(),
                child_ns: 0,
            });
        }
    }

    /// Closes the innermost span opened by [`Tracer::open`].
    pub fn close(&mut self) {
        if self.enabled {
            let done = self.open.pop().expect("close matches an open");
            let dur = done.start.elapsed().as_nanos();
            if let Some(parent) = self.open.last_mut() {
                parent.child_ns += dur;
            }
            let t = self.totals.entry(done.name).or_default();
            t.count += 1;
            t.total_ns += dur;
            t.self_ns += dur.saturating_sub(done.child_ns);
        }
    }

    pub fn total(&self, name: &str) -> SpanTotal {
        self.totals.get(name).copied().unwrap_or_default()
    }

    /// Mean span duration in nanoseconds (0 when the span never ran).
    pub fn mean_ns(&self, name: &str) -> f64 {
        let t = self.total(name);
        if t.count == 0 {
            0.0
        } else {
            t.total_ns as f64 / t.count as f64
        }
    }

    pub fn requests(&self) -> u64 {
        self.requests
    }

    pub fn totals(&self) -> impl Iterator<Item = (&'static str, SpanTotal)> + '_ {
        self.totals.iter().map(|(k, v)| (*k, *v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_excludes_children_and_requests_count_roots() {
        let mut tr = Tracer::off();
        tr.set_enabled(true);
        for _ in 0..3 {
            tr.span("request", || ());
        }
        let mut tr2 = Tracer::off();
        tr2.set_enabled(true);
        tr2.open("outer");
        std::thread::sleep(Duration::from_millis(2));
        tr2.span("inner", || std::thread::sleep(Duration::from_millis(5)));
        tr2.close();
        let outer = tr2.total("outer");
        let inner = tr2.total("inner");
        assert_eq!((outer.count, inner.count), (1, 1));
        assert_eq!(outer.self_ns + inner.total_ns, outer.total_ns);
        assert!(inner.total_ns >= 5_000_000 && outer.self_ns >= 2_000_000);
        assert_eq!((tr.requests(), tr2.requests()), (3, 1));
    }

    #[test]
    fn disabled_tracer_only_runs_the_body() {
        let mut tr = Tracer::off();
        assert_eq!(tr.span("x", || 41 + 1), 42);
        tr.open("y");
        tr.close();
        assert_eq!(tr.total("x"), SpanTotal::default());
        assert_eq!(tr.requests(), 0);
    }
}
