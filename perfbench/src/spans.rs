//! Host-time spans around the benchmark's calls into each layer.
//!
//! Spans are kept in memory while the run measures and written out once,
//! when it ends, as Chrome Trace Event JSON (Perfetto and
//! `chrome://tracing` open it). Each span records its name, start, end
//! and the span that was open when it began (its cause).

use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// One closed span, in microseconds since the tracer started.
#[derive(Debug, Clone)]
struct Span {
    name: String,
    parent: Option<usize>,
    start_us: f64,
    end_us: f64,
}

/// An open span: close it with [`Tracer::exit`].
#[must_use = "a span must be closed with Tracer::exit"]
pub struct Open {
    id: Option<usize>,
    start: Instant,
}

/// The in-memory span recorder. A disabled tracer still times each call
/// but records nothing, so untraced runs measure the same code path.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    fn now_us(&self) -> f64 {
        self.origin.elapsed().as_secs_f64() * 1e6
    }

    /// Opens a span named `name`, caused by the innermost open span.
    pub fn enter(&mut self, name: &str) -> Open {
        let id = self.enabled.then(|| {
            let id = self.spans.len();
            self.spans.push(Span {
                name: name.to_string(),
                parent: self.stack.last().copied(),
                start_us: self.now_us(),
                end_us: f64::NAN,
            });
            self.stack.push(id);
            id
        });
        Open {
            id,
            start: Instant::now(),
        }
    }

    /// Closes `span` (and any span opened inside it and left open) and
    /// returns its duration in seconds.
    pub fn exit(&mut self, span: Open) -> f64 {
        let secs = span.start.elapsed().as_secs_f64();
        if let Some(id) = span.id {
            let now = self.now_us();
            while let Some(top) = self.stack.pop() {
                self.spans[top].end_us = now;
                if top == id {
                    break;
                }
            }
        }
        secs
    }

    /// Runs `f` inside a span named `name`; returns its result and the
    /// span's duration in seconds.
    pub fn time<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> (T, f64) {
        let span = self.enter(name);
        let out = f();
        let secs = self.exit(span);
        (out, secs)
    }

    /// Writes every span as Chrome Trace Event JSON to `path`.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::from("{\"traceEvents\":[\n");
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or(-1, |p| p as i64);
            let _ = write!(
                out,
                "{}{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"id\":{id},\"parent\":{parent}}}}}",
                if id == 0 { "" } else { ",\n" },
                s.name,
                s.start_us,
                s.end_us - s.start_us,
            );
        }
        out.push_str("\n],\"displayTimeUnit\":\"ms\"}\n");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_record_their_cause() {
        let mut t = Tracer::new(true);
        let outer = t.enter("outer");
        let ((), inner) = t.time("inner", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        let total = t.exit(outer);
        assert!(inner > 0.0 && total >= inner);
        assert_eq!(t.spans.len(), 2);
        assert_eq!(t.spans[1].parent, Some(0));
        assert!(t.spans.iter().all(|s| s.end_us >= s.start_us));
    }

    #[test]
    fn a_disabled_tracer_times_but_records_nothing() {
        let mut t = Tracer::new(false);
        let ((), secs) = t.time("x", || {
            std::thread::sleep(std::time::Duration::from_millis(1))
        });
        assert!(secs > 0.0);
        assert!(t.spans.is_empty());
    }
}
