//! In-memory span recorder and Chrome trace-event writer.
//!
//! Spans are recorded from the benchmark around calls into parpat's public
//! entry points; nothing inside the program is instrumented. A span's self
//! time is its duration minus the durations of its direct children.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// One recorded call.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, such as `ir.lower`.
    pub name: &'static str,
    /// Nanoseconds since the recorder's epoch.
    pub start: u64,
    /// Nanoseconds since the recorder's epoch.
    pub end: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The benchmark op this span belongs to.
    pub op: u64,
}

impl Span {
    /// Wall duration.
    pub fn duration(&self) -> Duration {
        Duration::from_nanos(self.end - self.start)
    }
}

/// Records nested spans; the innermost open span is the parent of the next.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: u64,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder { epoch: Instant::now(), spans: Vec::new(), open: Vec::new(), op: 0 }
    }
}

impl Recorder {
    /// Attribute the spans recorded from now on to op `op`.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name`; spans `f` records are its
    /// children.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Recorder) -> T) -> T {
        let id = self.spans.len();
        let parent = self.open.last().copied();
        let start = self.now();
        self.spans.push(Span { name, start, end: start, parent, op: self.op });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end = self.now();
        out
    }

    /// Every span recorded so far, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: its duration minus its direct children's.
    pub fn self_times(&self) -> Vec<Duration> {
        let mut own: Vec<i128> = self.spans.iter().map(|s| (s.end - s.start) as i128).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] -= (s.end - s.start) as i128;
            }
        }
        own.into_iter().map(|ns| Duration::from_nanos(ns.max(0) as u64)).collect()
    }

    /// Summed duration of every span named `name`.
    pub fn total(&self, name: &str) -> Duration {
        self.spans.iter().filter(|s| s.name == name).map(Span::duration).sum()
    }

    /// Render as a Chrome trace-event JSON array of complete (`"X"`)
    /// events, in microseconds, with the span id, parent and op in `args`.
    pub fn chrome_json(&self) -> String {
        let mut out = String::from("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or_else(|| "null".to_owned(), |p| p.to_string());
            let _ = write!(
                out,
                "{{\"name\": \"{}\", \"ph\": \"X\", \"ts\": {:.3}, \"dur\": {:.3}, \"pid\": 1, \"tid\": 1, \"args\": {{\"id\": {i}, \"parent\": {parent}, \"op\": {}}}}}",
                s.name,
                s.start as f64 / 1e3,
                (s.end - s.start) as f64 / 1e3,
                s.op
            );
            out.push_str(if i + 1 < self.spans.len() { ",\n" } else { "\n" });
        }
        out.push_str("]\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::replay::Replayer;

    /// The self times of a nested stage replay sum to its root's duration.
    #[test]
    fn self_times_of_a_nested_replay_sum_to_the_root() {
        let app = parpat_suite::app_named("fib").expect("bundled app");
        let mut rec = Recorder::default();
        let replayer = Replayer::new(parpat_core::AnalysisConfig::default());
        rec.span("op", |rec| replayer.analysis(rec, app.model, false)).expect("replay succeeds");
        let spans = rec.spans();
        assert!(spans.len() > 8, "the replay records its stages: {spans:?}");
        assert!(spans.iter().skip(1).all(|s| s.parent.is_some()));
        let selfs = rec.self_times();
        let sum: Duration = selfs.iter().sum();
        assert_eq!(sum, spans[0].duration());
        assert!(rec.chrome_json().starts_with("[\n{\"name\": \"op\", \"ph\": \"X\""));
    }

    #[test]
    fn self_time_subtracts_only_direct_children() {
        let mut rec = Recorder::default();
        let spin = |d: u64| {
            let t = Instant::now();
            while t.elapsed() < Duration::from_micros(d) {}
        };
        rec.span("a", |rec| {
            spin(200);
            rec.span("b", |rec| {
                spin(200);
                rec.span("c", |_| spin(200));
            });
        });
        let s = rec.self_times();
        let d: Vec<Duration> = rec.spans().iter().map(Span::duration).collect();
        assert_eq!(s[0], d[0] - d[1]);
        assert_eq!(s[1], d[1] - d[2]);
        assert_eq!(s[2], d[2]);
    }
}
