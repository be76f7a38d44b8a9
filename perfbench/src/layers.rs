//! The harness's own layer recorder: times calls into each layer's public
//! functions and, in a traced run, wraps each call in a
//! [`dasp_trace::Tracer`] span. Spans live only in the harness; the
//! program under test is not instrumented beyond what it already does.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::time::Instant;

use dasp_trace::{Span, Trace, Tracer};

use crate::stats;

/// Named timing samples plus (when tracing) the span tree around them.
pub struct Recorder {
    tracer: Tracer,
    off: Tracer,
    live: Cell<bool>,
    recording: Cell<bool>,
    samples: RefCell<BTreeMap<String, Vec<f64>>>,
}

impl Recorder {
    /// A recorder whose spans are live iff `traced`.
    pub fn new(traced: bool) -> Recorder {
        Recorder {
            tracer: if traced {
                Tracer::new()
            } else {
                Tracer::disabled()
            },
            off: Tracer::disabled(),
            live: Cell::new(traced),
            recording: Cell::new(true),
            samples: RefCell::new(BTreeMap::new()),
        }
    }

    /// Whether this is a traced run.
    pub fn traced(&self) -> bool {
        self.tracer.is_enabled()
    }

    /// In a traced run, switches span recording on or off, so the run can
    /// time the same operation with and without the harness's spans.
    pub fn set_live(&self, live: bool) {
        self.live.set(live && self.traced());
    }

    /// Switches sample recording, and in a traced run spans, off or on.
    /// Work done while it is off, such as a set-up repeated in the middle
    /// of a measured phase, leaves nothing in any layer's figures.
    pub fn set_recording(&self, on: bool) {
        self.recording.set(on);
        self.set_live(on);
    }

    /// Whether spans are recorded right now.
    pub fn live(&self) -> bool {
        self.live.get()
    }

    /// The tracer spans are opened on right now (inert when not live).
    pub fn tracer(&self) -> &Tracer {
        if self.live.get() {
            &self.tracer
        } else {
            &self.off
        }
    }

    /// Opens a root span (inert when not live).
    pub fn root(&self, name: &str) -> Span {
        self.tracer().span(name)
    }

    /// Runs `f` as a root-level layer call named `name`, recording its
    /// wall time in seconds.
    pub fn time<T>(&self, name: &str, f: impl FnOnce() -> T) -> T {
        let _sp = self.tracer().span(name);
        self.sample(name, f)
    }

    /// Runs `f` as a child of `parent`, recording its wall time.
    pub fn time_in<T>(&self, parent: &Span, name: &str, f: impl FnOnce() -> T) -> T {
        let _sp = parent.child(name);
        self.sample(name, f)
    }

    fn sample<T>(&self, name: &str, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let r = f();
        self.push(name, t.elapsed().as_secs_f64());
        r
    }

    /// Records one externally measured sample (seconds or any unit).
    pub fn push(&self, name: &str, v: f64) {
        if !self.recording.get() {
            return;
        }
        let mut s = self.samples.borrow_mut();
        match s.get_mut(name) {
            Some(v_) => v_.push(v),
            None => {
                s.insert(name.to_string(), vec![v]);
            }
        }
    }

    /// All samples recorded under `name`.
    pub fn samples(&self, name: &str) -> Vec<f64> {
        self.samples.borrow().get(name).cloned().unwrap_or_default()
    }

    /// Median of the samples under `name` (`NaN` if none).
    pub fn median(&self, name: &str) -> f64 {
        stats::median(&self.samples(name))
    }

    /// Drops every sample (e.g. after warm-up).
    pub fn clear(&self) {
        self.samples.borrow_mut().clear();
    }

    /// Takes the recorded spans.
    pub fn take_trace(&self) -> Trace {
        self.tracer.take_trace()
    }
}

/// Per-span-name inclusive and self time (µs) of a trace: a span's self
/// time is its duration minus the part covered by its direct children.
pub fn self_times(trace: &Trace) -> BTreeMap<String, (u64, u64, u64)> {
    let mut child_us: BTreeMap<u64, u64> = BTreeMap::new();
    for s in &trace.spans {
        if let Some(p) = s.parent {
            *child_us.entry(p).or_default() += s.dur_us;
        }
    }
    let mut out: BTreeMap<String, (u64, u64, u64)> = BTreeMap::new();
    for s in &trace.spans {
        let e = out.entry(s.name.clone()).or_default();
        e.0 += 1;
        e.1 += s.dur_us;
        e.2 += s
            .dur_us
            .saturating_sub(child_us.get(&s.id).copied().unwrap_or(0));
    }
    out
}
