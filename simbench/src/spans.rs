//! The traced run's own spans, recorded around its calls into each
//! layer, kept in memory and written out once at the end as a Chrome
//! trace (`chrome://tracing`, Perfetto).

use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// What ran (`system.run`, `replay.memsys`, ...).
    pub name: String,
    /// Nanoseconds since the recorder started.
    pub start_ns: u64,
    /// End, in the same clock.
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// The cell it belongs to (index into the plan), if any.
    pub cell: Option<usize>,
}

/// An in-memory span recorder.
#[derive(Debug)]
pub struct Spans {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Default for Spans {
    fn default() -> Self {
        Spans::new()
    }
}

impl Spans {
    /// Starts a recorder; its clock starts now.
    pub fn new() -> Spans {
        Spans {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Nanoseconds from the recorder's start to `t`.
    pub fn at(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Records a finished span; returns its index.
    pub fn add(
        &mut self,
        name: impl Into<String>,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        cell: Option<usize>,
    ) -> usize {
        self.spans.push(Span {
            name: name.into(),
            start_ns: self.at(start),
            end_ns: self.at(end),
            parent,
            cell,
        });
        self.spans.len() - 1
    }

    /// Runs `f` inside a top-level span named `name`; returns its result
    /// and the span's index, which [`Spans::add`] can name as a parent.
    pub fn time<T>(&mut self, name: impl Into<String>, f: impl FnOnce() -> T) -> (T, usize) {
        let started = Instant::now();
        let out = f();
        let id = self.add(name, started, Instant::now(), None, None);
        (out, id)
    }

    /// Every span, in recording order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time per span name: each span's duration minus the part its
    /// children cover, summed by name, in nanoseconds.
    pub fn self_times(&self) -> BTreeMap<&str, u64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(child_ns) {
            *out.entry(s.name.as_str()).or_insert(0) +=
                (s.end_ns - s.start_ns).saturating_sub(child);
        }
        out
    }

    /// The spans as Chrome trace-event JSON.
    pub fn to_chrome_json(&self) -> String {
        let events: Vec<String> = self
            .spans
            .iter()
            .enumerate()
            .map(|(i, s)| {
                format!(
                    "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{i},\"parent\":{},\"cell\":{}}}}}",
                    s.name,
                    s.start_ns as f64 / 1e3,
                    (s.end_ns - s.start_ns) as f64 / 1e3,
                    s.parent.map_or("null".to_string(), |p| p.to_string()),
                    s.cell.map_or("null".to_string(), |c| c.to_string()),
                )
            })
            .collect();
        format!("{{\"traceEvents\":[\n{}\n]}}\n", events.join(",\n"))
    }
}
