//! The traced run's span recorder. Spans are taken from the
//! benchmark's own files around each call into a layer — name, start,
//! end, parent and operation id — kept in memory and written out when
//! the run ends. Beside the spans it sums, per per-layer metric, the
//! time a layer took and the units (pages, sources, objects) it was
//! spent on, from the spans and from the stage timings the program
//! itself returns. A disabled tracer runs the wrapped call and records
//! nothing, so traced and untraced passes share one code path.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct SpanRec {
    pub name: &'static str,
    pub op: u64,
    pub id: u64,
    /// 0 for an operation's root span.
    pub parent: u64,
    pub start_us: f64,
    pub end_us: f64,
}

impl SpanRec {
    fn dur(&self) -> f64 {
        self.end_us - self.start_us
    }
}

/// Per-layer totals: microseconds spent and the units they were spent
/// on, keyed by per-layer metric name.
pub type LayerAcc = BTreeMap<&'static str, (f64, f64)>;

pub struct Tracer {
    on: bool,
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<SpanRec>>,
    acc: Mutex<LayerAcc>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
            acc: Mutex::new(BTreeMap::new()),
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    /// Add `us` microseconds spent on `units` to the per-layer metric
    /// `metric`.
    pub fn add(&self, metric: &'static str, us: f64, units: f64) {
        if !self.on {
            return;
        }
        let mut acc = self.acc.lock().expect("layer totals poisoned");
        let e = acc.entry(metric).or_default();
        e.0 += us;
        e.1 += units;
    }

    /// [`Tracer::span`] for a leaf call whose duration is also `units`
    /// worth of the per-layer metric `metric`.
    pub fn leaf<R>(
        &self,
        op: u64,
        parent: u64,
        name: &'static str,
        metric: &'static str,
        units: f64,
        f: impl FnOnce() -> R,
    ) -> R {
        if !self.on {
            return f();
        }
        let t0 = Instant::now();
        let out = self.span(op, parent, name, |_| f());
        self.add(metric, t0.elapsed().as_secs_f64() * 1e6, units);
        out
    }

    /// Run `f` inside a span named `name` under `parent` (0 = the
    /// operation's root). `f` receives the span's id for its children.
    pub fn span<R>(&self, op: u64, parent: u64, name: &'static str, f: impl FnOnce(u64) -> R) -> R {
        if !self.on {
            return f(0);
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start_us = self.epoch.elapsed().as_secs_f64() * 1e6;
        let out = f(id);
        let end_us = self.epoch.elapsed().as_secs_f64() * 1e6;
        self.spans
            .lock()
            .expect("span buffer poisoned")
            .push(SpanRec {
                name,
                op,
                id,
                parent,
                start_us,
                end_us,
            });
        out
    }

    pub fn take(&self) -> (Vec<SpanRec>, LayerAcc) {
        (
            std::mem::take(&mut *self.spans.lock().expect("span buffer poisoned")),
            std::mem::take(&mut *self.acc.lock().expect("layer totals poisoned")),
        )
    }
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`.
pub fn covered(mut intervals: Vec<(f64, f64)>, lo: f64, hi: f64) -> f64 {
    intervals.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut total = 0.0;
    let mut cur: Option<(f64, f64)> = None;
    for (s, e) in intervals {
        let (s, e) = (s.max(lo), e.min(hi));
        if e <= s {
            continue;
        }
        cur = match cur {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    if let Some((cs, ce)) = cur {
        total += ce - cs;
    }
    total
}

/// Per-name totals: span count, summed duration and self time (the
/// duration minus the part its child spans cover), in microseconds.
#[derive(Debug, Default, Clone)]
pub struct LayerTotals {
    pub count: u64,
    pub total_us: f64,
    pub self_us: f64,
}

pub struct Summary {
    pub layers: BTreeMap<&'static str, LayerTotals>,
    /// Root-span wall time, summed over operations.
    pub op_wall_us: f64,
    /// Per layer below the roots: summed self time as a share of op
    /// wall (spans on concurrent workers may overlap).
    pub op_share: BTreeMap<&'static str, f64>,
    /// Share of op wall no child span covers: the roots' self time.
    pub unaccounted: f64,
    pub ops: u64,
}

pub fn summarize(spans: &[SpanRec]) -> Summary {
    let mut children: BTreeMap<u64, Vec<&SpanRec>> = BTreeMap::new();
    for s in spans {
        children.entry(s.parent).or_default().push(s);
    }
    let mut layers: BTreeMap<&'static str, LayerTotals> = BTreeMap::new();
    let mut op_share: BTreeMap<&'static str, f64> = BTreeMap::new();
    let (mut op_wall_us, mut root_self_us, mut ops) = (0.0, 0.0, 0u64);
    for s in spans {
        let kids: Vec<(f64, f64)> = children
            .get(&s.id)
            .map(|k| k.iter().map(|c| (c.start_us, c.end_us)).collect())
            .unwrap_or_default();
        let self_us = s.dur() - covered(kids, s.start_us, s.end_us);
        let t = layers.entry(s.name).or_default();
        t.count += 1;
        t.total_us += s.dur();
        t.self_us += self_us;
        if s.parent == 0 {
            ops += 1;
            op_wall_us += s.dur();
            root_self_us += self_us;
        } else {
            *op_share.entry(s.name).or_default() += self_us;
        }
    }
    let denom = op_wall_us.max(f64::MIN_POSITIVE);
    for v in op_share.values_mut() {
        *v /= denom;
    }
    Summary {
        layers,
        op_wall_us,
        op_share,
        unaccounted: root_self_us / denom,
        ops,
    }
}

/// Render the summary as report lines.
pub fn render(summary: &Summary) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "trace: {} operations, {:.1} ms of operation wall time",
        summary.ops,
        summary.op_wall_us / 1e3
    );
    for (name, t) in &summary.layers {
        let _ = writeln!(
            out,
            "trace self-time {name}: {:.3} ms total, {:.1} us per span over {} spans",
            t.self_us / 1e3,
            t.self_us / t.count.max(1) as f64,
            t.count
        );
    }
    for (name, share) in &summary.op_share {
        let _ = writeln!(
            out,
            "trace op-share (self time) {name}: {:.1}%",
            share * 100.0
        );
    }
    let _ = writeln!(
        out,
        "trace op-share unaccounted: {:.1}%",
        summary.unaccounted * 100.0
    );
    out
}

/// Write spans as JSON lines.
pub fn write_spans(path: &Path, spans: &[SpanRec]) -> std::io::Result<()> {
    let mut text = String::new();
    for s in spans {
        let _ = writeln!(
            text,
            "{{\"name\":\"{}\",\"op\":{},\"id\":{},\"parent\":{},\"start_us\":{:.1},\"end_us\":{:.1}}}",
            s.name, s.op, s.id, s.parent, s.start_us, s.end_us
        );
    }
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, text)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn union_merges_overlaps_and_clips() {
        assert_eq!(
            covered(vec![(0.0, 2.0), (1.0, 3.0), (5.0, 6.0)], 0.0, 10.0),
            4.0
        );
        assert_eq!(covered(vec![(-1.0, 2.0), (9.0, 12.0)], 0.0, 10.0), 3.0);
        assert_eq!(covered(vec![], 0.0, 10.0), 0.0);
    }

    #[test]
    fn self_time_and_unaccounted_share() {
        let rec = |name, id, parent, s, e| SpanRec {
            name,
            op: 1,
            id,
            parent,
            start_us: s,
            end_us: e,
        };
        let spans = vec![
            rec("op", 1, 0, 0.0, 100.0),
            rec("a", 2, 1, 0.0, 40.0),
            rec("b", 3, 1, 50.0, 80.0),
            rec("c", 4, 2, 10.0, 20.0),
        ];
        let s = summarize(&spans);
        assert_eq!(s.layers["op"].self_us, 30.0);
        assert_eq!(s.layers["a"].self_us, 30.0);
        assert_eq!(s.layers["c"].self_us, 10.0);
        assert!((s.unaccounted - 0.3).abs() < 1e-9);
        assert!((s.op_share["a"] - 0.3).abs() < 1e-9);
        assert!((s.op_share["c"] - 0.1).abs() < 1e-9);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        assert_eq!(t.span(1, 0, "x", |id| id + 7), 7);
        assert_eq!(t.leaf(1, 0, "x", "x_us", 1.0, || 3), 3);
        t.add("x_us", 5.0, 1.0);
        let (spans, acc) = t.take();
        assert!(spans.is_empty() && acc.is_empty());
    }

    #[test]
    fn leaf_spans_sum_into_their_metric() {
        let t = Tracer::new(true);
        t.leaf(1, 0, "a", "a_us", 2.0, || ());
        t.add("a_us", 10.0, 3.0);
        let (spans, acc) = t.take();
        assert_eq!(spans.len(), 1);
        let (us, units) = acc["a_us"];
        assert_eq!(units, 5.0);
        assert!(us >= 10.0);
    }
}
