//! In-memory spans around the benchmark's calls into each layer.
//!
//! A [`Tracer`] always times what it is asked to time — the untraced run
//! needs phase durations too — but records a [`Span`] only while it is
//! on. Spans stay in memory and are written out once, at the end of the
//! run.

use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// One timed call.
#[derive(Debug, Clone)]
pub struct Span {
    /// What was timed, e.g. `scenario.slice`.
    pub name: String,
    /// Start, ns since the tracer was created.
    pub start_ns: u64,
    /// End, ns since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The scenario run (operation) the span belongs to.
    pub run: u64,
}

impl Span {
    /// Duration, milliseconds.
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// A span in progress, returned by [`Tracer::begin`].
#[must_use = "close the span with Tracer::end"]
pub struct Open {
    start: Instant,
    slot: Option<usize>,
}

/// Span recorder.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    /// A tracer, recording iff `on`.
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Turn recording on or off between spans.
    pub fn set_on(&mut self, on: bool) {
        assert!(self.stack.is_empty(), "toggled inside an open span");
        self.on = on;
    }

    /// Start timing `name`; the innermost open span becomes its parent.
    pub fn begin(&mut self, name: &str, run: u64) -> Open {
        let start = Instant::now();
        let slot = self.on.then(|| {
            let idx = self.spans.len();
            self.spans.push(Span {
                name: name.to_string(),
                start_ns: self.ns(start),
                end_ns: 0,
                parent: self.stack.last().copied(),
                run,
            });
            self.stack.push(idx);
            idx
        });
        Open { start, slot }
    }

    /// Stop timing; returns the duration in seconds.
    pub fn end(&mut self, open: Open) -> f64 {
        let end = Instant::now();
        if let Some(idx) = open.slot {
            self.spans[idx].end_ns = self.ns(end);
            let top = self.stack.pop();
            assert_eq!(top, Some(idx), "spans must close innermost first");
        }
        end.duration_since(open.start).as_secs_f64()
    }

    /// Time `f` as one span.
    pub fn time<T>(&mut self, name: &str, run: u64, f: impl FnOnce(&mut Self) -> T) -> (T, f64) {
        let open = self.begin(name, run);
        let out = f(self);
        let secs = self.end(open);
        (out, secs)
    }

    /// Every recorded span.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"run\": {}}}",
                s.name.replace(['"', '\\'], "'"),
                s.start_ns,
                s.end_ns,
                s.run
            )?;
        }
        out.flush()
    }

    fn ns(&self, t: Instant) -> u64 {
        t.duration_since(self.epoch).as_nanos() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_record_parents_only_when_on() {
        let mut tr = Tracer::new(true);
        let (_, outer) = tr.time("outer", 7, |tr| {
            let inner = tr.begin("inner", 7);
            tr.end(inner)
        });
        assert!(outer >= 0.0);
        let spans = tr.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!((spans[0].name.as_str(), spans[0].parent), ("outer", None));
        assert_eq!(
            (spans[1].name.as_str(), spans[1].parent),
            ("inner", Some(0))
        );
        assert!(spans.iter().all(|s| s.run == 7 && s.end_ns >= s.start_ns));
        assert!(spans[0].ms() >= spans[1].ms());

        tr.set_on(false);
        let open = tr.begin("ignored", 8);
        tr.end(open);
        assert_eq!(tr.spans().len(), 2);
    }
}
