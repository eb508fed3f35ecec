//! The span recorder of the traced run.
//!
//! Spans live in memory (one recorder per replay thread) and are written
//! out when the run ends. A span has a name, start, end, parent and the
//! id of the request it belongs to. A span's self time is its duration
//! minus the time its direct children cover.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::time::Instant;

/// One finished (or open) span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// Nanoseconds since the recorder's epoch.
    pub start: u64,
    pub end: u64,
    pub parent: Option<usize>,
    pub request: u64,
}

/// Handle of an open span (`usize::MAX` when recording is off).
#[derive(Debug, Clone, Copy)]
pub struct Open(usize);

/// Records nested spans on one thread.
pub struct Recorder {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    request: u64,
}

impl Recorder {
    /// A recorder; with `enabled == false` every call is a no-op.
    pub fn new(enabled: bool, epoch: Instant) -> Recorder {
        Recorder {
            enabled,
            epoch,
            spans: Vec::new(),
            stack: Vec::new(),
            request: 0,
        }
    }

    /// Switch recording on or off (between requests, with no span open).
    pub fn set_enabled(&mut self, on: bool) {
        debug_assert!(self.stack.is_empty(), "toggle only between requests");
        self.enabled = on;
    }

    /// Tag the spans that follow with request id `id`.
    pub fn set_request(&mut self, id: u64) {
        self.request = id;
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str) -> Open {
        if !self.enabled {
            return Open(usize::MAX);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            start: self.now(),
            end: 0,
            parent: self.stack.last().copied(),
            request: self.request,
        });
        self.stack.push(idx);
        Open(idx)
    }

    /// Close `open` (which must be the innermost open span).
    pub fn exit(&mut self, open: Open) {
        if !self.enabled {
            return;
        }
        let end = self.now();
        debug_assert_eq!(
            self.stack.last(),
            Some(&open.0),
            "spans close innermost first"
        );
        self.stack.pop();
        self.spans[open.0].end = end;
    }

    /// Time `f` as span `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let open = self.enter(name);
        let out = f();
        self.exit(open);
        out
    }

    /// The recorded spans.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Self time of every span: duration minus the summed duration of its
/// direct children (children of one span do not overlap: one thread).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans
        .iter()
        .map(|s| s.end.saturating_sub(s.start))
        .collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] = own[p].saturating_sub(s.end.saturating_sub(s.start));
        }
    }
    own
}

/// Per-name aggregate: self times in µs, one entry per span.
pub fn by_name(spans: &[Span]) -> BTreeMap<&'static str, Vec<f64>> {
    let own = self_times(spans);
    let mut out: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for (s, ns) in spans.iter().zip(own) {
        out.entry(s.name).or_default().push(ns as f64 / 1000.0);
    }
    out
}

/// Write spans as JSON lines (`name`, `start_ns`, `end_ns`, `parent`,
/// `request`) to `path`.
pub fn write_spans(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{}}}",
            s.name, s.start, s.end, s.request
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start,
            end,
            parent,
            request: 1,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // request [0,100) > handler [10,90) > exec [20,50), serialize [50,80)
        //                 > parse [0,5)
        let spans = vec![
            span("request", 0, 100, None),
            span("parse", 0, 5, Some(0)),
            span("handler", 10, 90, Some(0)),
            span("exec", 20, 50, Some(2)),
            span("serialize", 50, 80, Some(2)),
        ];
        assert_eq!(self_times(&spans), vec![15, 5, 20, 30, 30]);
        let agg = by_name(&spans);
        assert_eq!(agg["request"], vec![0.015]);
        // Self times add up to the root's duration.
        assert_eq!(self_times(&spans).iter().sum::<u64>(), 100);
    }

    #[test]
    fn recorder_nests_and_can_be_switched_off() {
        let mut r = Recorder::new(true, Instant::now());
        r.set_request(7);
        let outer = r.enter("outer");
        r.span("inner", || ());
        r.exit(outer);
        let spans = r.into_spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans.iter().all(|s| s.request == 7 && s.end >= s.start));
        let mut off = Recorder::new(false, Instant::now());
        let o = off.enter("x");
        off.exit(o);
        assert!(off.into_spans().is_empty());
    }
}
