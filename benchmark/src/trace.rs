//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own files, around the calls
//! into each layer (the program itself carries no tracing yet). Each span
//! has a name, a start and an end on one process-wide clock, the span that
//! caused it, and the trial it belongs to; they are kept in memory and
//! written out once, when the run ends.

use crate::json::Json;
use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

/// One closed span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Index of this span in the recorder.
    pub id: usize,
    /// The enclosing span, if any.
    pub parent: Option<usize>,
    /// Trial the span belongs to.
    pub trial: usize,
    /// Layer-qualified name, e.g. `core.protocols.step`.
    pub name: &'static str,
    /// Start, in nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the recorder was created.
    pub end_ns: u64,
}

impl Span {
    /// Duration in seconds.
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }
}

#[derive(Debug)]
struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    /// Open spans, innermost last.
    open: Vec<usize>,
    trial: usize,
}

/// A shared handle to the recorder. The timing decorators sit inside the
/// network's boxed adversary while the trial loop holds the network, so
/// both ends need a handle; everything runs on the protocol thread, hence
/// `Rc<RefCell<_>>`.
#[derive(Debug, Clone)]
pub struct Trace(Rc<RefCell<Recorder>>);

impl Default for Trace {
    fn default() -> Self {
        Self::new()
    }
}

impl Trace {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Self {
        Trace(Rc::new(RefCell::new(Recorder {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            trial: 0,
        })))
    }

    /// Starts the next trial: spans opened from now on carry the returned
    /// id.
    pub fn begin_trial(&self) -> usize {
        let mut r = self.0.borrow_mut();
        r.trial += 1;
        r.trial
    }

    /// Opens a span as a child of the innermost open span.
    pub fn enter(&self, name: &'static str) -> usize {
        let mut r = self.0.borrow_mut();
        let id = r.spans.len();
        let now = r.epoch.elapsed().as_nanos() as u64;
        let span = Span {
            id,
            parent: r.open.last().copied(),
            trial: r.trial,
            name,
            start_ns: now,
            end_ns: now,
        };
        r.spans.push(span);
        r.open.push(id);
        id
    }

    /// Closes the innermost open span, which must be `id`.
    ///
    /// # Panics
    ///
    /// Panics when spans are closed out of order — a bug in the benchmark.
    pub fn exit(&self, id: usize) {
        let mut r = self.0.borrow_mut();
        let now = r.epoch.elapsed().as_nanos() as u64;
        assert_eq!(r.open.pop(), Some(id), "spans must nest");
        r.spans[id].end_ns = now;
    }

    /// Runs `f` inside a span and returns its result with the span's
    /// duration in seconds.
    pub fn time<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
        let id = self.enter(name);
        let value = f();
        self.exit(id);
        (value, self.0.borrow().spans[id].secs())
    }

    /// A copy of every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.0.borrow().spans.clone()
    }

    /// Durations of the spans called `name` within `trial`, in seconds
    /// times `scale`, in recording order.
    pub fn durations(&self, trial: usize, name: &str, scale: f64) -> Vec<f64> {
        self.0
            .borrow()
            .spans
            .iter()
            .filter(|s| s.trial == trial && s.name == name)
            .map(|s| s.secs() * scale)
            .collect()
    }

    /// The spans as a JSON array, one object per span.
    pub fn to_json(&self) -> Json {
        Json::Arr(
            self.0
                .borrow()
                .spans
                .iter()
                .map(|s| {
                    Json::obj([
                        ("id", Json::Num(s.id as f64)),
                        (
                            "parent",
                            s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                        ),
                        ("trial", Json::Num(s.trial as f64)),
                        ("name", Json::Str(s.name.to_string())),
                        ("start_ns", Json::Num(s.start_ns as f64)),
                        ("end_ns", Json::Num(s.end_ns as f64)),
                    ])
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_carry_trial_and_parent() {
        let trace = Trace::new();
        let trial = trace.begin_trial();
        let outer = trace.enter("outer");
        let ((), inner_secs) = trace.time("inner", || {});
        trace.exit(outer);
        let spans = trace.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(outer));
        assert_eq!(spans[1].trial, trial);
        assert!(spans[0].secs() >= inner_secs);
        assert_eq!(trace.durations(trial, "inner", 1.0), vec![inner_secs]);
        assert!(trace.durations(trial + 1, "inner", 1.0).is_empty());
    }
}
