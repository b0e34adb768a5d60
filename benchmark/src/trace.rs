//! In-memory spans around the calls the benchmark makes into the program.
//!
//! A span is `(name, start, end, op, thread)`: `op` is the identifier of
//! the operation the call belongs to, and doubles as the parent link — the
//! operation's own span is the one named [`OP`].  Spans are kept in memory
//! per thread and written as JSON lines when the run ends.  An operation's
//! self time is its duration minus the time its child spans cover.

use std::io::Write;
use std::time::Instant;

use crate::measure::ns_between;

/// Name of the span that covers one whole operation.
pub const OP: &str = "op";

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub op: u64,
    pub thread: u16,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// One thread's span recorder.  A disabled tracer records nothing and
/// costs one predictable branch per call.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    thread: u16,
    enabled: bool,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(epoch: Instant, thread: u16, enabled: bool, capacity: usize) -> Self {
        Tracer {
            epoch,
            thread,
            enabled,
            spans: Vec::with_capacity(if enabled { capacity } else { 0 }),
        }
    }

    pub fn disabled() -> Self {
        Tracer::new(Instant::now(), 0, false, 0)
    }

    /// Stops recording; the spans taken so far stay.
    pub fn pause(&mut self) {
        self.enabled = false;
    }

    /// Runs `f` inside a span named `name` belonging to operation `op`.
    #[inline]
    pub fn span<T>(&mut self, name: &'static str, op: u64, f: impl FnOnce() -> T) -> T {
        if !self.enabled {
            return f();
        }
        let start = Instant::now();
        let result = f();
        self.record(name, op, start, Instant::now());
        result
    }

    /// Records a span from instants the caller already took.
    #[inline]
    pub fn record(&mut self, name: &'static str, op: u64, start: Instant, end: Instant) {
        if self.enabled {
            self.spans.push(Span {
                name,
                start_ns: ns_between(self.epoch, start),
                end_ns: ns_between(self.epoch, end),
                op,
                thread: self.thread,
            });
        }
    }
}

/// Self time of every [`OP`] span: its duration minus its children's.
/// Spans of one operation share `(thread, op)`.
pub fn op_self_times(spans: &[Span]) -> Vec<(Span, u64)> {
    use std::collections::HashMap;
    let mut children: HashMap<(u16, u64), u64> = HashMap::new();
    for s in spans.iter().filter(|s| s.name != OP) {
        *children.entry((s.thread, s.op)).or_default() += s.duration_ns();
    }
    spans
        .iter()
        .filter(|s| s.name == OP)
        .map(|s| {
            let covered = children.get(&(s.thread, s.op)).copied().unwrap_or(0);
            (*s, s.duration_ns().saturating_sub(covered))
        })
        .collect()
}

/// Writes `spans` as JSON lines, creating the directory if needed.
pub fn write_jsonl(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            out,
            "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"op\":{},\"thread\":{}}}",
            s.name, s.start_ns, s.end_ns, s.op, s.thread
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_of_the_same_thread_and_op() {
        let span = |name, start_ns, end_ns, op, thread| Span {
            name,
            start_ns,
            end_ns,
            op,
            thread,
        };
        let spans = [
            span(OP, 0, 100, 1, 0),
            span("syscall", 10, 70, 1, 0),
            span("syscall", 0, 50, 1, 1), // another thread's child
            span(OP, 100, 130, 2, 0),
        ];
        let selfs = op_self_times(&spans);
        assert_eq!(selfs.len(), 2);
        assert_eq!(selfs[0].1, 40);
        assert_eq!(selfs[1].1, 30);
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let mut t = Tracer::disabled();
        assert_eq!(t.span("syscall", 0, || 7), 7);
        assert!(t.spans.is_empty());
    }
}
