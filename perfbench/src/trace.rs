//! In-memory span recorder for the traced run.
//!
//! Spans are recorded on the calling thread around each public call the
//! benchmark makes into a layer; nesting follows the call stack, so a span's
//! parent is whichever span was open when it started.  Nothing is written
//! until the run ends.  When tracing is off, [`Tracer::span`] calls the
//! closure without reading the clock.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span, times in nanoseconds since the tracer was created.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

#[derive(Default)]
struct State {
    enabled: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
}

pub struct Tracer {
    origin: Instant,
    state: RefCell<State>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            state: RefCell::new(State::default()),
        }
    }

    pub fn set_enabled(&self, enabled: bool) {
        self.state.borrow_mut().enabled = enabled;
    }

    fn now_ns(&self) -> u64 {
        since(self.origin)
    }

    /// Run `f` inside a span called `name`.
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let idx = {
            let mut state = self.state.borrow_mut();
            if !state.enabled {
                drop(state);
                return f();
            }
            let parent = state.open.last().copied();
            let idx = state.spans.len();
            let start_ns = self.now_ns();
            state.spans.push(Span {
                name,
                parent,
                start_ns,
                end_ns: start_ns,
            });
            state.open.push(idx);
            idx
        };
        let out = f();
        let end_ns = self.now_ns();
        let mut state = self.state.borrow_mut();
        state.spans[idx].end_ns = end_ns;
        state.open.pop();
        out
    }

    /// The instant span times are measured from, for spans timed on other
    /// threads and recorded afterwards with [`Tracer::record`].
    pub fn origin(&self) -> Instant {
        self.origin
    }

    /// Record a span timed elsewhere (nanoseconds since [`Tracer::origin`])
    /// as a child of the span open now.
    pub fn record(&self, name: &'static str, start_ns: u64, end_ns: u64) {
        let mut state = self.state.borrow_mut();
        if state.enabled {
            let parent = state.open.last().copied();
            state.spans.push(Span {
                name,
                parent,
                start_ns,
                end_ns,
            });
        }
    }

    /// Number of spans recorded so far; spans recorded later have larger
    /// indices, so `mark()` before and after a phase delimits its spans.
    pub fn mark(&self) -> usize {
        self.state.borrow().spans.len()
    }

    /// Copy of the spans recorded in `from..to`.
    pub fn spans(&self, from: usize, to: usize) -> Vec<Span> {
        self.state.borrow().spans[from..to].to_vec()
    }

    /// The spans recorded from index `from` on as JSON lines (`id`, `name`,
    /// `start_us`, `end_us`, `parent`; ids are indices over the whole run).
    pub fn to_jsonl(&self, from: usize) -> String {
        let state = self.state.borrow();
        let mut out = String::with_capacity((state.spans.len() - from) * 64);
        for (idx, span) in state.spans.iter().enumerate().skip(from) {
            let parent = span
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\": {idx}, \"name\": \"{}\", \"start_us\": {:.3}, \"end_us\": {:.3}, \"parent\": {parent}}}",
                span.name,
                span.start_ns as f64 / 1e3,
                span.end_ns as f64 / 1e3,
            );
        }
        out
    }
}

/// Nanoseconds elapsed since `origin`.
pub fn since(origin: Instant) -> u64 {
    origin.elapsed().as_nanos() as u64
}

/// The layer a span belongs to, from its name prefix.
pub fn layer_of(name: &str) -> &'static str {
    match name.split('.').next().unwrap_or("") {
        "universe" => "qem-web",
        "scan" => "qem-core.scanner",
        "store" => "qem-store",
        "report" => "qem-core.reports",
        "workload" => "qem-workload",
        _ => "bench",
    }
}

/// What the spans of one phase add up to.
#[derive(Debug, Default)]
pub struct PhaseProfile {
    /// Summed duration per span name, seconds.
    pub total_s: BTreeMap<&'static str, f64>,
    /// Summed self time (duration minus direct children) per layer, seconds.
    pub self_s: BTreeMap<&'static str, f64>,
    /// Summed duration of the phase's top-level spans, seconds.
    pub top_level_s: f64,
}

/// Fold the spans of one phase.  `spans` must be a contiguous slice of the
/// tracer's spans starting at index `base`, with every parent either inside
/// the slice or outside the phase.
pub fn profile(spans: &[Span], base: usize) -> PhaseProfile {
    let mut child_ns = vec![0u64; spans.len()];
    for span in spans {
        if let Some(parent) = span.parent.filter(|&p| p >= base) {
            child_ns[parent - base] += span.duration_ns();
        }
    }
    let mut profile = PhaseProfile::default();
    for (span, children) in spans.iter().zip(child_ns) {
        let dur = span.duration_ns() as f64 / 1e9;
        *profile.total_s.entry(span.name).or_default() += dur;
        *profile.self_s.entry(layer_of(span.name)).or_default() +=
            span.duration_ns().saturating_sub(children) as f64 / 1e9;
        if !matches!(span.parent, Some(p) if p >= base) {
            profile.top_level_s += dur;
        }
    }
    profile
}
