//! Benchmark-side spans around the public calls into each layer.
//!
//! Every span has a name, a start, an end, its parent span and a group
//! id: the spans of one what-if, one check round or one watch session
//! share a group. Spans stay in memory and are written out once, when
//! the run ends; a layer's self time is its spans' durations minus the
//! parts their child spans cover. A disabled tracer records nothing.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

struct Span {
    name: &'static str,
    group: u64,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
}

/// Self time aggregated over every span of one name.
#[derive(Default, Clone, Copy)]
pub struct LayerTime {
    /// Sum of the spans' durations minus their children's.
    pub self_ns: u64,
    /// Number of spans.
    pub count: u64,
}

impl LayerTime {
    /// Mean self time of one span, in `unit_ns` units (0 with no spans).
    pub fn mean_self(&self, unit_ns: f64) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.self_ns as f64 / self.count as f64 / unit_ns
        }
    }
}

pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    group: u64,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            group: 0,
        }
    }

    pub fn enabled(&self) -> bool {
        self.on
    }

    /// Pauses or resumes recording (only between root spans).
    pub fn set_enabled(&mut self, on: bool) {
        debug_assert!(self.open.is_empty(), "toggled inside a span");
        self.on = on;
    }

    /// Sets the group id that spans opened from now on carry.
    pub fn set_group(&mut self, group: u64) {
        self.group = group;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span as a child of the innermost open span.
    pub fn enter(&mut self, name: &'static str) {
        if !self.on {
            return;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            group: self.group,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        if !self.on {
            return;
        }
        let end_ns = self.now_ns();
        let idx = self.open.pop().expect("exit without a matching enter");
        self.spans[idx].end_ns = end_ns;
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.enter(name);
        let out = f();
        self.exit();
        out
    }

    /// Total, self time and count per span name.
    pub fn layers(&self) -> BTreeMap<&'static str, LayerTime> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(child_ns) {
            let dur = s.end_ns - s.start_ns;
            let e = out.entry(s.name).or_default();
            e.self_ns += dur.saturating_sub(child);
            e.count += 1;
        }
        out
    }

    /// Summed duration of the root spans named `name`: the self times of
    /// a root span and all its descendants add up to exactly this.
    pub fn root_ns(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.parent.is_none() && s.name == name)
            .map(|s| s.end_ns - s.start_ns)
            .sum()
    }

    /// The spans as JSON lines: id, parent, group, name, start and end
    /// in nanoseconds since the tracer was created.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{id},\"parent\":{parent},\"group\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.group, s.name, s.start_ns, s.end_ns
            );
        }
        out
    }
}
