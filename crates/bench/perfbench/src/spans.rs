//! Host-time spans recorded from the benchmark's own code around its
//! calls into each layer. Kept in memory while the benchmark runs and
//! written out once, at the end, as a Chrome/Perfetto trace.

use std::fmt::Write as _;
use std::time::Instant;

/// One closed span: name, start and duration on the host clock, the
/// span that caused it, and the simulated events it dispatched.
struct Span {
    name: &'static str,
    start_ns: u64,
    dur_ns: u64,
    parent: Option<usize>,
    events: u64,
}

pub struct Spans {
    epoch: Instant,
    spans: Vec<Span>,
}

/// Handle of an open span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(usize);

impl Spans {
    pub fn new() -> Self {
        Spans {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    pub fn open(&mut self, name: &'static str, parent: Option<SpanId>) -> SpanId {
        self.spans.push(Span {
            name,
            start_ns: self.epoch.elapsed().as_nanos() as u64,
            dur_ns: 0,
            parent: parent.map(|p| p.0),
            events: 0,
        });
        SpanId(self.spans.len() - 1)
    }

    pub fn close(&mut self, id: SpanId, events: u64) {
        let now = self.epoch.elapsed().as_nanos() as u64;
        let s = &mut self.spans[id.0];
        s.dur_ns = now - s.start_ns;
        s.events = events;
    }

    /// Chrome trace-event JSON: one complete ("X") event per span, with
    /// its parent index and simulated event count as arguments.
    pub fn chrome_trace(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or(-1, |p| p as i64);
            let _ = write!(
                out,
                "{}{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"id\":{i},\"parent\":{parent},\"sim_events\":{}}}}}",
                if i == 0 { "" } else { ",\n" },
                s.name,
                s.start_ns as f64 / 1e3,
                s.dur_ns as f64 / 1e3,
                s.events
            );
        }
        out.push_str("\n]}\n");
        out
    }
}
