//! Spans recorded by the benchmark around each call into a layer.
//!
//! The tracer lives in the harness, not in the system: a span opens just
//! before a public function is called and closes when it returns. Spans
//! are held in memory and written out when the run ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One span. `parent` indexes into the same span list; `None` is a root.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub epoch_id: u64,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Handle returned by [`Tracer::begin`]; `None` while tracing is off.
pub type SpanId = Option<usize>;

/// Records spans while `enabled`; every method is a no-op otherwise, so
/// the untraced run pays one branch per call site.
#[derive(Debug)]
pub struct Tracer {
    pub enabled: bool,
    origin: Instant,
    epoch_id: u64,
    open: Vec<usize>,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            enabled: false,
            origin: Instant::now(),
            epoch_id: 0,
            open: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// Sets the identifier the following spans share.
    pub fn set_epoch(&mut self, epoch_id: u64) {
        self.epoch_id = epoch_id;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn begin(&mut self, name: &'static str) -> SpanId {
        if !self.enabled {
            return None;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            epoch_id: self.epoch_id,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
        });
        let id = self.spans.len() - 1;
        self.open.push(id);
        Some(id)
    }

    /// Closes the span `begin` returned, and with it any span opened
    /// inside it that an early return left open.
    pub fn end(&mut self, id: SpanId) {
        let Some(id) = id else { return };
        let end_ns = self.now_ns();
        while let Some(open) = self.open.pop() {
            self.spans[open].end_ns = end_ns;
            if open == id {
                return;
            }
        }
        panic!("span {id} was closed twice");
    }

    /// Runs `body` inside a span.
    pub fn span<T>(&mut self, name: &'static str, body: impl FnOnce() -> T) -> T {
        let id = self.begin(name);
        let out = body();
        self.end(id);
        out
    }

    /// Attaches already-measured child spans (the centre's stage gauges)
    /// under `parent`, laid end to end from the parent's start.
    pub fn attach_children(&mut self, parent: SpanId, children: &[(&'static str, u64)]) {
        let Some(parent) = parent else { return };
        let mut at = self.spans[parent].start_ns;
        for &(name, ns) in children {
            self.spans.push(Span {
                name,
                epoch_id: self.spans[parent].epoch_id,
                start_ns: at,
                end_ns: at + ns,
                parent: Some(parent),
            });
            at += ns;
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes one JSON object per span.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"epoch_id\":{},\"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}",
                s.name, s.epoch_id, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover. Children are clipped to the parent and
/// overlapping children are counted once.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let lo = s.start_ns.max(spans[p].start_ns);
            let hi = s.end_ns.min(spans[p].end_ns);
            if hi > lo {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = 0;
            for &(lo, hi) in kids.iter() {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

/// Total duration and total self time per span name.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct NameTotals {
    pub total_ns: u64,
    pub self_ns: u64,
}

pub fn totals_by_name(spans: &[Span]) -> BTreeMap<&'static str, NameTotals> {
    let selfs = self_times(spans);
    let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(selfs) {
        let t = out.entry(s.name).or_default();
        t.total_ns += s.duration_ns();
        t.self_ns += self_ns;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            epoch_id: 0,
            start_ns,
            end_ns,
            parent,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children_once_per_level() {
        // root 0..100 ⊃ a 10..60 ⊃ b 20..30; root also ⊃ c 70..90.
        let spans = [
            span("root", 0, 100, None),
            span("a", 10, 60, Some(0)),
            span("b", 20, 30, Some(1)),
            span("c", 70, 90, Some(0)),
        ];
        // A grandchild is the child's business, not the root's.
        assert_eq!(self_times(&spans), vec![30, 40, 10, 20]);
    }

    #[test]
    fn overlapping_children_are_counted_once_and_clipped() {
        // Children 10..50 and 30..70 overlap on 30..50; a third runs past
        // the parent's end and is clipped to 90..100.
        let spans = [
            span("root", 0, 100, None),
            span("x", 10, 50, Some(0)),
            span("y", 30, 70, Some(0)),
            span("z", 90, 130, Some(0)),
        ];
        assert_eq!(self_times(&spans)[0], 100 - 60 - 10);
        let totals = totals_by_name(&spans);
        assert_eq!(totals["root"].self_ns, 30);
        assert_eq!(totals["z"].total_ns, 40);
    }

    #[test]
    fn tracer_nests_by_open_order_and_is_silent_when_disabled() {
        let mut t = Tracer::new();
        assert_eq!(t.begin("ignored"), None);
        t.end(None);
        assert!(t.spans().is_empty());

        t.enabled = true;
        t.set_epoch(7);
        let root = t.begin("epoch");
        t.span("inner", || ());
        t.attach_children(root, &[("stage.a", 5), ("stage.b", 7)]);
        let _abandoned = t.begin("left open by an early return");
        t.end(root);
        assert_eq!(t.begin("next"), Some(5), "the open stack was unwound");
        let s = &t.spans()[..4];
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[2].parent, Some(0));
        assert_eq!(s[3].start_ns, s[2].end_ns);
        assert!(s.iter().all(|s| s.epoch_id == 7));
    }
}
