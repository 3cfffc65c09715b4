//! The benchmark's own span recorder.
//!
//! Spans are placed around the calls the benchmark makes into each layer's
//! public API (`<layer>.<call>`), kept in a pre-sized `Vec` and written out
//! when the run ends. Nothing inside the program under test is
//! instrumented; spans inside the program are a later change (ROADMAP
//! item 1).

use crate::json::Json;
use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub id: u64,
    /// `0` for a root span.
    pub parent: u64,
    /// The op the span belongs to: spans of one request share it (the
    /// recording lane in the high half, like `id`).
    pub op: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// One recorder per measuring thread (`lane` keeps their ids apart); all
/// share the `epoch` their timestamps count from.
pub struct Recorder {
    epoch: Instant,
    lane: u64,
    enabled: bool,
    spans: Vec<Span>,
}

impl Recorder {
    pub fn new(epoch: Instant, lane: u64, capacity: usize) -> Recorder {
        Recorder {
            epoch,
            lane,
            enabled: false,
            spans: Vec::with_capacity(capacity),
        }
    }

    /// The instant every recorder of the run counts from.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Off, [`Recorder::add`] is one branch: the end-to-end run keeps the
    /// calls in place and pays nothing measurable for them.
    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Record a finished span from the instants the caller took around the
    /// call; returns its id for children to name as parent (`0` while
    /// disabled). Recording after the fact keeps the recorder out of the
    /// timed call itself.
    pub fn add(
        &mut self,
        parent: u64,
        op: u64,
        name: &'static str,
        start: Instant,
        end: Instant,
    ) -> u64 {
        if !self.enabled {
            return 0;
        }
        let id = (self.lane << 32) | (self.spans.len() as u64 + 1);
        self.spans.push(Span {
            id,
            parent,
            op: (self.lane << 32) | op,
            name,
            start_ns: start.duration_since(self.epoch).as_nanos() as u64,
            end_ns: end.duration_since(self.epoch).as_nanos() as u64,
        });
        id
    }

    /// Take over spans another lane recorded.
    pub fn absorb(&mut self, spans: Vec<Span>) {
        self.spans.extend(spans);
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Self time per layer, in seconds: each span's duration minus the part of
/// it its child spans cover, summed by the layer its name starts with.
pub fn self_seconds_by_layer(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if s.parent != 0 {
            children
                .entry(s.parent)
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
    }
    let mut by_layer = BTreeMap::new();
    for s in spans {
        let covered = children
            .get_mut(&s.id)
            .map_or(0, |kids| covered_ns(kids, s.start_ns, s.end_ns));
        let layer = s.name.split('.').next().unwrap_or(s.name);
        *by_layer.entry(layer).or_insert(0.0) += (s.end_ns - s.start_ns - covered) as f64 / 1e9;
    }
    by_layer
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`.
fn covered_ns(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut reach = lo;
    for &(start, end) in intervals.iter() {
        let start = start.max(reach);
        let end = end.min(hi);
        if end > start {
            covered += end - start;
            reach = end;
        }
    }
    covered
}

pub fn spans_json(spans: &[Span]) -> Json {
    Json::Arr(
        spans
            .iter()
            .map(|s| {
                Json::obj([
                    ("id", Json::Int(s.id)),
                    ("parent", Json::Int(s.parent)),
                    ("op", Json::Int(s.op)),
                    ("name", Json::str(s.name)),
                    ("start_ns", Json::Int(s.start_ns)),
                    ("end_ns", Json::Int(s.end_ns)),
                ])
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            op: 1,
            name,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_what_children_cover() {
        let spans = [
            span(1, 0, "harness.op", 0, 1_000),
            span(2, 1, "session.plan", 100, 200),
            span(3, 1, "algo.run", 200, 900),
            // Overlapping siblings are counted once; a child running past
            // its parent is clipped.
            span(4, 3, "core.sort", 300, 600),
            span(5, 3, "core.gather", 500, 950),
        ];
        let by_layer = self_seconds_by_layer(&spans);
        let ns = |layer: &str| (by_layer[layer] * 1e9).round() as u64;
        assert_eq!(ns("harness"), 1_000 - 100 - 700);
        assert_eq!(ns("session"), 100);
        assert_eq!(ns("algo"), 700 - 600); // children cover 300..900
        assert_eq!(ns("core"), 300 + 450);
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut rec = Recorder::new(Instant::now(), 0, 4);
        let now = Instant::now();
        assert_eq!(rec.add(0, 1, "algo.run", now, now), 0);
        assert!(rec.into_spans().is_empty());
    }

    #[test]
    fn lanes_keep_ids_apart_and_spans_nest() {
        let epoch = Instant::now();
        let mut a = Recorder::new(epoch, 1, 4);
        let mut b = Recorder::new(epoch, 2, 4);
        a.set_enabled(true);
        b.set_enabled(true);
        let (t0, t1) = (Instant::now(), Instant::now());
        let root = a.add(0, 7, "harness.op", epoch, t1);
        a.add(root, 7, "algo.run", t0, t1);
        let other = b.add(0, 8, "harness.op", t0, t1);
        assert_ne!(root, other);
        let spans = a.into_spans();
        assert_eq!(spans[1].parent, spans[0].id);
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
    }
}
