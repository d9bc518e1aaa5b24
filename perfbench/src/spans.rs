//! In-memory span recording for the traced run.
//!
//! A span is one call into a layer, timed from the benchmark's side of the
//! boundary: name, start, end, the span that caused it and the job it
//! belongs to. Spans are kept in memory while the run measures and written
//! out as JSON lines when it ends. With tracing off, [`Tracer::span`] still
//! times the call (the benchmark needs the duration) but records nothing.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// One recorded span; times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub job: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Thread-safe span recorder.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Runs `f` inside a span and returns its value and duration. `f`
    /// receives the new span's id, to parent its own child spans.
    pub fn span<T>(
        &self,
        name: &'static str,
        parent: Option<u64>,
        job: u64,
        f: impl FnOnce(u64) -> T,
    ) -> (T, Duration) {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start = Instant::now();
        let value = f(id);
        let end = Instant::now();
        if self.enabled {
            let ns = |t: Instant| t.duration_since(self.epoch).as_nanos() as u64;
            let span = Span { id, parent, job, name, start_ns: ns(start), end_ns: ns(end) };
            self.spans.lock().expect("a span writer panicked").push(span);
        }
        (value, end - start)
    }

    /// The spans recorded so far, ordered by start time.
    pub fn spans(&self) -> Vec<Span> {
        let mut spans = self.spans.lock().expect("a span writer panicked").clone();
        spans.sort_by_key(|s| (s.start_ns, s.id));
        spans
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that child spans cover. Overlapping children (spans of concurrent
/// threads under one parent) are counted once, and a child's part outside
/// its parent's interval is ignored.
pub fn self_times(spans: &[Span]) -> BTreeMap<u64, u64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let kids = children.remove(&s.id).unwrap_or_default();
            let covered = covered_ns(s.start_ns, s.end_ns, kids);
            (s.id, (s.end_ns - s.start_ns).saturating_sub(covered))
        })
        .collect()
}

/// Length of the union of `intervals`, each clipped to `[lo, hi)`.
fn covered_ns(lo: u64, hi: u64, mut intervals: Vec<(u64, u64)>) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut reach = lo;
    for (start, end) in intervals {
        let (start, end) = (start.max(reach), end.min(hi));
        if end > start {
            covered += end - start;
            reach = end;
        }
    }
    covered
}

/// Self seconds per span name, summed over the spans of that name.
pub fn self_by_name(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let selfs = self_times(spans);
    let mut out: BTreeMap<&'static str, f64> = BTreeMap::new();
    for s in spans {
        *out.entry(s.name).or_default() += selfs[&s.id] as f64 * 1e-9;
    }
    out
}

/// Renders spans as JSON lines.
pub fn to_json_lines(spans: &[Span]) -> String {
    let mut out = String::new();
    for s in spans {
        let parent = s.parent.map_or_else(|| "null".to_owned(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{{\"id\":{},\"parent\":{parent},\"job\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            s.id, s.job, s.name, s.start_ns, s.end_ns
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, start_ns: u64, end_ns: u64) -> Span {
        Span { id, parent, job: 0, name: "s", start_ns, end_ns }
    }

    #[test]
    fn self_time_subtracts_disjoint_children() {
        let spans = [span(1, None, 0, 100), span(2, Some(1), 10, 30), span(3, Some(1), 50, 60)];
        let st = self_times(&spans);
        assert_eq!(st[&1], 70);
        assert_eq!(st[&2], 20);
        assert_eq!(st[&3], 10);
    }

    #[test]
    fn self_time_counts_overlapping_children_once() {
        // Two concurrent children covering [10, 50) and [30, 70): the
        // union is 60 ns, not 80.
        let spans = [span(1, None, 0, 100), span(2, Some(1), 10, 50), span(3, Some(1), 30, 70)];
        assert_eq!(self_times(&spans)[&1], 40);
        // A child nested inside another child covers nothing new.
        let spans = [span(1, None, 0, 100), span(2, Some(1), 10, 90), span(3, Some(1), 20, 30)];
        assert_eq!(self_times(&spans)[&1], 20);
    }

    #[test]
    fn self_time_clips_children_to_the_parent() {
        let spans =
            [span(1, None, 100, 200), span(2, Some(1), 50, 150), span(3, Some(1), 190, 260)];
        assert_eq!(self_times(&spans)[&1], 40);
        // Grandchildren count against their own parent only.
        let spans = [span(1, None, 0, 100), span(2, Some(1), 0, 50), span(3, Some(2), 0, 50)];
        let st = self_times(&spans);
        assert_eq!((st[&1], st[&2], st[&3]), (50, 0, 50));
    }

    #[test]
    fn tracer_records_only_when_enabled() {
        for enabled in [false, true] {
            let t = Tracer::new(enabled);
            let (v, _) = t.span("outer", None, 7, |id| t.span("inner", Some(id), 7, |_| 3).0);
            assert_eq!(v, 3);
            let spans = t.spans();
            assert_eq!(spans.len(), if enabled { 2 } else { 0 });
            if enabled {
                assert_eq!(spans[0].name, "outer");
                assert_eq!(spans[1].parent, Some(spans[0].id));
                assert!(to_json_lines(&spans).contains("\"name\":\"inner\""));
                let selfs = self_by_name(&spans);
                let outer = (spans[0].end_ns - spans[0].start_ns) as f64 * 1e-9;
                assert!((selfs["outer"] + selfs["inner"] - outer).abs() < 1e-9);
            }
        }
    }
}
