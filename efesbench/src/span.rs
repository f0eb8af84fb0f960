//! In-memory spans recorded around calls into the program's crates.
//!
//! Spans live in one `Vec` until the run ends and are written out as
//! JSON lines then; recording one costs two clock reads and a push.

use std::io::{self, Write};
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer name, e.g. `csg.detect`.
    pub name: &'static str,
    /// The operation the span belongs to.
    pub op: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, in nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the recorder was created.
    pub end_ns: u64,
}

impl Span {
    /// The span's duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A span recorder. A disabled recorder records nothing and reads no
/// clock, so the same code path runs traced and untraced.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    enabled: bool,
    spans: Vec<Span>,
}

impl Recorder {
    /// A recorder that records iff `enabled`.
    pub fn new(enabled: bool) -> Self {
        Recorder {
            epoch: Instant::now(),
            enabled,
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span; returns its index (`None` when disabled).
    pub fn open(&mut self, name: &'static str, op: u64, parent: Option<usize>) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            op,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        Some(self.spans.len() - 1)
    }

    /// Close a span opened by [`open`](Self::open).
    pub fn close(&mut self, id: Option<usize>) {
        if let Some(id) = id {
            let now = self.now_ns();
            self.spans[id].end_ns = now;
        }
    }

    /// Run `f` inside a span named `name`.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        op: u64,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, op, parent);
        let out = f();
        self.close(id);
        out
    }

    /// Everything recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, out: &mut impl Write) -> io::Result<()> {
        let self_ns = self_times_ns(&self.spans);
        for (i, (s, self_ns)) in self.spans.iter().zip(self_ns).enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"op\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{},\"self_ns\":{self_ns}}}",
                s.name,
                s.op,
                s.start_ns,
                s.end_ns,
            )?;
        }
        Ok(())
    }
}

/// Self time of `parent`: its duration minus the part of its interval
/// that the union of `children` covers.
pub fn self_time_ns<'a>(parent: &Span, children: impl IntoIterator<Item = &'a Span>) -> u64 {
    let clip = |t: u64| t.clamp(parent.start_ns, parent.end_ns);
    let mut intervals: Vec<(u64, u64)> = children
        .into_iter()
        .map(|s| (clip(s.start_ns), clip(s.end_ns)))
        .filter(|(a, b)| b > a)
        .collect();
    intervals.sort_unstable();
    let mut covered = 0u64;
    let mut current: Option<(u64, u64)> = None;
    for (start, end) in intervals {
        match current {
            Some((cs, ce)) if start <= ce => current = Some((cs, ce.max(end))),
            Some((cs, ce)) => {
                covered += ce - cs;
                current = Some((start, end));
            }
            None => current = Some((start, end)),
        }
    }
    if let Some((cs, ce)) = current {
        covered += ce - cs;
    }
    parent.duration_ns().saturating_sub(covered)
}

/// Self time of every span, in recording order.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<&Span>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push(s);
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, kids)| self_time_ns(s, kids))
        .collect()
}
