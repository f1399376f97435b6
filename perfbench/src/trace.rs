//! In-memory spans around the benchmark's calls into each layer,
//! written out once at exit.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// No parent.
pub const ROOT: u32 = u32::MAX;

/// One timed call. Spans marked `replay` were timed on a replay of the
/// same work (a cloned query, a copy of the snapshot) rather than
/// inside their parent's interval: only their duration is comparable
/// with the parent's.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
    /// The tick, slot or delta number the span belongs to.
    pub id: u64,
    pub replay: bool,
}

/// The span recorder.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Records a span over `[start, end]`; returns its index, the handle
    /// children name as `parent`.
    pub fn span(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: u32,
        id: u64,
    ) -> u32 {
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.push(name, start_ns, end_ns.max(start_ns), parent, id, false)
    }

    /// Records a replayed child of `parent` lasting `dur_ns`, placed at
    /// the parent's start.
    pub fn replay(&mut self, name: &'static str, dur_ns: u64, parent: u32, id: u64) {
        let start_ns = self.spans[parent as usize].start_ns;
        self.push(name, start_ns, start_ns + dur_ns, parent, id, true);
    }

    fn push(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: u32,
        id: u64,
        replay: bool,
    ) -> u32 {
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            id,
            replay,
        });
        (self.spans.len() - 1) as u32
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Spans recorded around real calls that lie outside their parent's
    /// interval (replayed spans are checked by duration instead, see
    /// `layers::account_slack`).
    pub fn nesting_violations(&self) -> usize {
        self.spans
            .iter()
            .filter(|s| s.parent != ROOT && !s.replay)
            .filter(|s| {
                let p = &self.spans[s.parent as usize];
                s.start_ns < p.start_ns || s.end_ns > p.end_ns
            })
            .count()
    }

    /// Writes the spans as tab-separated lines: index, name, start_ns,
    /// end_ns, parent (-1 for none), id, replay.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "idx\tname\tstart_ns\tend_ns\tparent\tid\treplay")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == ROOT {
                -1
            } else {
                s.parent as i64
            };
            writeln!(
                out,
                "{i}\t{}\t{}\t{}\t{parent}\t{}\t{}",
                s.name, s.start_ns, s.end_ns, s.id, s.replay as u8
            )?;
        }
        out.flush()
    }
}
