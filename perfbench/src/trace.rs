//! In-memory spans for the traced run.
//!
//! Each span records its name, start, end, parent span and request id. Spans stay in
//! memory while the run measures and are written out as JSON lines when it ends, so
//! recording costs one `Vec` push. A layer's *self time* is its span's duration minus
//! the part of that interval its child spans cover ([`self_time_ns`]).

use std::collections::HashMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    pub request: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    enabled: bool,
}

impl Tracer {
    pub fn new(epoch: Instant) -> Self {
        Tracer {
            epoch,
            spans: Vec::new(),
            enabled: true,
        }
    }

    /// A tracer that records nothing and reads no clock: the same code run without
    /// its spans, to measure what tracing costs.
    pub fn off() -> Self {
        Tracer {
            enabled: false,
            ..Tracer::new(Instant::now())
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Record a finished span from clock readings taken elsewhere.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<u32>,
        request: u64,
        start_ns: u64,
        end_ns: u64,
    ) -> u32 {
        if !self.enabled {
            return 0;
        }
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            id,
            parent,
            request,
            name,
            start_ns,
            end_ns,
        });
        id
    }

    /// Open a span now; [`Tracer::close`] sets its end.
    pub fn open(&mut self, name: &'static str, parent: Option<u32>, request: u64) -> u32 {
        if !self.enabled {
            return 0;
        }
        let now = self.now_ns();
        self.record(name, parent, request, now, now)
    }

    pub fn close(&mut self, id: u32) {
        if !self.enabled {
            return;
        }
        let now = self.now_ns();
        self.spans[id as usize].end_ns = now;
    }

    /// Run `f` inside a span and return its result with the span id.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<u32>,
        request: u64,
        f: impl FnOnce() -> T,
    ) -> (T, u32) {
        let id = self.open(name, parent, request);
        // black_box: the timed result must exist even when the caller discards it.
        let out = std::hint::black_box(f());
        self.close(id);
        (out, id)
    }

    /// Move another tracer's spans (same epoch) into this one, renumbering ids.
    pub fn absorb(&mut self, other: Tracer) {
        let offset = self.spans.len() as u32;
        for mut span in other.spans {
            span.id += offset;
            span.parent = span.parent.map(|p| p + offset);
            self.spans.push(span);
        }
    }

    pub fn span(&self, id: u32) -> &Span {
        &self.spans[id as usize]
    }

    /// Self time of every span, indexed by span id.
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut children: HashMap<u32, Vec<&Span>> = HashMap::new();
        for span in &self.spans {
            if let Some(parent) = span.parent {
                children.entry(parent).or_default().push(span);
            }
        }
        self.spans
            .iter()
            .map(|span| {
                let kids = children.get(&span.id).map_or(&[][..], Vec::as_slice);
                self_time_ns(span, kids.iter().copied())
            })
            .collect()
    }

    /// Durations of every span called `name`, in nanoseconds.
    pub fn durations_ns(&self, name: &str) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::duration_ns)
            .collect()
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{parent},\"request\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.request, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// `parent`'s duration minus the union of its children's intervals, each clipped to
/// the parent's own interval (overlapping children are not subtracted twice).
pub fn self_time_ns<'a>(parent: &Span, children: impl Iterator<Item = &'a Span>) -> u64 {
    let mut intervals: Vec<(u64, u64)> = children
        .map(|c| (c.start_ns.max(parent.start_ns), c.end_ns.min(parent.end_ns)))
        .filter(|(start, end)| start < end)
        .collect();
    intervals.sort_unstable();
    let mut covered = 0;
    let mut reach = parent.start_ns;
    for (start, end) in intervals {
        let start = start.max(reach);
        if end > start {
            covered += end - start;
            reach = end;
        }
    }
    parent.duration_ns() - covered
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            request: 1,
            name: "x",
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let parent = span(0, None, 100, 200);
        // Two overlapping children (110–140 and 130–150 cover 110–150) and one that
        // spills past the parent's end (190–230 counts only 190–200).
        let kids = [
            span(1, Some(0), 110, 140),
            span(2, Some(0), 130, 150),
            span(3, Some(0), 190, 230),
        ];
        assert_eq!(self_time_ns(&parent, kids.iter()), 100 - 40 - 10);
        assert_eq!(
            self_time_ns(&parent, [].iter()),
            100,
            "a leaf is all self time"
        );
    }

    #[test]
    fn tracer_self_times_follow_parent_links() {
        let mut tracer = Tracer::new(Instant::now());
        let root = tracer.record("request", None, 9, 0, 1_000);
        let child = tracer.record("execute", Some(root), 9, 100, 700);
        tracer.record("lookup", Some(child), 9, 100, 200);
        tracer.record("transform", Some(child), 9, 250, 650);
        let self_times = tracer.self_times_ns();
        assert_eq!(self_times, vec![400, 100, 100, 400]);
        assert_eq!(tracer.durations_ns("execute"), vec![600]);
        // Self times of a tree partition the root's interval.
        assert_eq!(self_times.iter().sum::<u64>(), 1_000);
    }

    #[test]
    fn an_off_tracer_runs_the_code_and_keeps_no_spans() {
        let mut tracer = Tracer::off();
        let root = tracer.open("request", None, 1);
        let (out, _) = tracer.time("work", Some(root), 1, || 6 * 7);
        tracer.close(root);
        assert_eq!(out, 42);
        assert!(tracer.durations_ns("work").is_empty());
        assert!(tracer.self_times_ns().is_empty());
    }
}
