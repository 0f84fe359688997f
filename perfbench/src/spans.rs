//! The benchmark's own spans and the per-layer self-time ledger.
//!
//! A span is recorded by the benchmark around each call into a layer
//! (or derived from the stage timestamps a layer already exposes):
//! name, layer, start, end, the span that caused it, and the request's
//! trace id. Spans stay in memory for the whole traced phase and are
//! written out once the run ends. A span's *self time* is its duration
//! minus the part of its interval covered by its children.

use std::collections::HashMap;
use std::fmt::Write as _;

/// One recorded span. Times are nanoseconds on the serving clock's
/// process-wide timeline, so benchmark spans and the program's own stage
/// records line up.
#[derive(Debug, Clone)]
pub struct Span {
    /// Unique within a run; never 0.
    pub id: u64,
    /// The causing span, or 0 for a root.
    pub parent: u64,
    /// Request trace id shared by the spans of one request (0 = none).
    pub trace: u64,
    /// The crate the time is attributed to (`caller`, `net`, `serve`,
    /// `core`, `index`, or `bench` for phase roots).
    pub layer: &'static str,
    /// What the span covers.
    pub name: &'static str,
    /// Start time (ns).
    pub start: u64,
    /// End time (ns); clamped to at least `start`.
    pub end: u64,
    /// Lookup keys the span carried (0 for updates and roots).
    pub keys: u32,
}

/// The run's span buffer.
#[derive(Debug)]
pub struct SpanLog {
    next: u64,
    spans: Vec<Span>,
}

impl Default for SpanLog {
    fn default() -> Self {
        Self { next: 1, spans: Vec::new() }
    }
}

impl SpanLog {
    /// Reserve an id for a span whose end is not known yet (a parent).
    pub fn reserve(&mut self) -> u64 {
        let id = self.next;
        self.next += 1;
        id
    }

    /// Record a span under a reserved id.
    #[allow(clippy::too_many_arguments)]
    pub fn push(
        &mut self,
        id: u64,
        parent: u64,
        trace: u64,
        layer: &'static str,
        name: &'static str,
        start: u64,
        end: u64,
        keys: u32,
    ) {
        self.spans.push(Span { id, parent, trace, layer, name, start, end: end.max(start), keys });
    }

    /// Record a span and return its id.
    #[allow(clippy::too_many_arguments)]
    pub fn record(
        &mut self,
        parent: u64,
        trace: u64,
        layer: &'static str,
        name: &'static str,
        start: u64,
        end: u64,
        keys: u32,
    ) -> u64 {
        let id = self.reserve();
        self.push(id, parent, trace, layer, name, start, end, keys);
        id
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self-time totals of one span name under one phase root.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Row {
    /// Name of the root span the row's spans descend from.
    pub root: &'static str,
    /// Layer the time is attributed to.
    pub layer: &'static str,
    /// Span name.
    pub name: &'static str,
    /// Spans aggregated.
    pub count: u64,
    /// Lookup keys those spans carried.
    pub keys: u64,
    /// Summed durations (ns).
    pub total_ns: u64,
    /// Summed self times (ns).
    pub self_ns: u64,
}

/// Length of the union of `intervals` clipped to `[lo, hi]`.
fn covered(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let (mut total, mut cur) = (0u64, lo);
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(cur), e.min(hi));
        if e > s {
            total += e - s;
            cur = e;
        }
    }
    total
}

/// Aggregate self time per (root, layer, name), sorted by root then by
/// descending self time.
pub fn self_times(spans: &[Span]) -> Vec<Row> {
    let by_id: HashMap<u64, usize> = spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children.entry(s.parent).or_default().push((s.start, s.end));
    }
    let root_of = |mut i: usize| {
        while let Some(&p) = by_id.get(&spans[i].parent) {
            i = p;
        }
        spans[i].name
    };
    let mut rows: HashMap<(&'static str, &'static str, &'static str), Row> = HashMap::new();
    for (i, s) in spans.iter().enumerate() {
        let cover = children.get_mut(&s.id).map_or(0, |c| covered(c, s.start, s.end));
        let root = root_of(i);
        let row = rows.entry((root, s.layer, s.name)).or_insert(Row {
            root,
            layer: s.layer,
            name: s.name,
            count: 0,
            keys: 0,
            total_ns: 0,
            self_ns: 0,
        });
        row.count += 1;
        row.keys += u64::from(s.keys);
        row.total_ns += s.end - s.start;
        row.self_ns += s.end - s.start - cover;
    }
    let mut rows: Vec<Row> = rows.into_values().collect();
    rows.sort_by(|a, b| {
        a.root.cmp(b.root).then(b.self_ns.cmp(&a.self_ns)).then(a.name.cmp(b.name))
    });
    rows
}

/// Summed self time of every span of `layer` under root `root`.
pub fn layer_self_ns(rows: &[Row], root: &str, layer: &str) -> u64 {
    rows.iter().filter(|r| r.root == root && r.layer == layer).map(|r| r.self_ns).sum()
}

/// Spans as CSV (`id,parent,trace,layer,name,start_ns,end_ns,keys`),
/// ids renumbered to row numbers and times relative to the earliest
/// span.
pub fn to_csv(spans: &[Span]) -> String {
    let t0 = spans.iter().map(|s| s.start).min().unwrap_or(0);
    let row: HashMap<u64, usize> = spans.iter().enumerate().map(|(i, s)| (s.id, i + 1)).collect();
    let mut out = String::with_capacity(spans.len() * 48 + 64);
    out.push_str("id,parent,trace,layer,name,start_ns,end_ns,keys\n");
    for (i, s) in spans.iter().enumerate() {
        let _ = writeln!(
            out,
            "{},{},{},{},{},{},{},{}",
            i + 1,
            row.get(&s.parent).copied().unwrap_or(0),
            s.trace,
            s.layer,
            s.name,
            s.start - t0,
            s.end - t0,
            s.keys
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut log = SpanLog::default();
        let root = log.reserve();
        let call = log.record(root, 7, "serve", "call", 100, 200, 4);
        // Overlapping children cover [110, 150] and [170, 180]: 50 ns.
        log.record(call, 7, "core", "batch", 110, 140, 2);
        log.record(call, 7, "core", "batch", 130, 150, 2);
        log.record(call, 7, "core", "batch", 170, 180, 0);
        // A child sticking out of its parent only counts inside it.
        log.record(call, 7, "serve", "fill", 195, 260, 0);
        log.push(root, 0, 0, "bench", "phase", 0, 300, 0);

        let rows = self_times(log.spans());
        let row = |name: &str| rows.iter().find(|r| r.name == name).expect("row present").clone();
        assert_eq!(row("call").self_ns, 100 - 50 - 5);
        assert_eq!(row("call").keys, 4);
        assert_eq!(row("batch").count, 3);
        assert_eq!(row("batch").total_ns, 60);
        assert_eq!(row("batch").self_ns, 60);
        assert_eq!(row("phase").self_ns, 200);
        assert!(rows.iter().all(|r| r.root == "phase"));
        assert_eq!(layer_self_ns(&rows, "phase", "core"), 60);
        assert_eq!(layer_self_ns(&rows, "phase", "serve"), 45 + 65);
    }

    #[test]
    fn csv_renumbers_ids_and_relativizes_times() {
        let mut log = SpanLog::default();
        let root = log.reserve();
        let child = log.record(root, 9, "core", "c", 150, 170, 3);
        log.push(root, 0, 0, "bench", "r", 100, 200, 0);
        assert_eq!((root, child), (1, 2));
        let csv = to_csv(log.spans());
        assert_eq!(
            csv,
            "id,parent,trace,layer,name,start_ns,end_ns,keys\n1,2,9,core,c,50,70,3\n2,0,0,bench,r,0,100,0\n"
        );
    }
}
