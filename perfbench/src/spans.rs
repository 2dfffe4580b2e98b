//! The benchmark's own spans: one around every call it makes into a
//! layer's public functions, kept in memory and folded into per-layer
//! totals and self times when the run ends.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Instant;

/// One closed span, in nanoseconds since the recorder was created.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
    pub parent: Option<usize>,
    /// Index of the op-script operation the span belongs to, if any.
    pub op: Option<usize>,
}

impl Span {
    pub fn nanos(&self) -> u64 {
        self.end - self.start
    }
}

/// Records nested spans when enabled; runs the closure bare otherwise.
pub struct Recorder {
    enabled: bool,
    origin: Instant,
    spans: RefCell<Vec<Span>>,
    stack: RefCell<Vec<usize>>,
    op: RefCell<Option<usize>>,
}

impl Recorder {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            origin: Instant::now(),
            spans: RefCell::new(Vec::new()),
            stack: RefCell::new(Vec::new()),
            op: RefCell::new(None),
        }
    }

    /// Tags the spans opened from now on with op-script index `op`.
    pub fn set_op(&self, op: Option<usize>) {
        *self.op.borrow_mut() = op;
    }

    /// Runs `f` inside a span called `name`.
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.enabled {
            return f();
        }
        let idx = {
            let mut spans = self.spans.borrow_mut();
            spans.push(Span {
                name,
                start: self.now(),
                end: 0,
                parent: self.stack.borrow().last().copied(),
                op: *self.op.borrow(),
            });
            spans.len() - 1
        };
        self.stack.borrow_mut().push(idx);
        let out = f();
        self.stack.borrow_mut().pop();
        self.spans.borrow_mut()[idx].end = self.now();
        out
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.borrow().clone()
    }
}

/// Length of `[start, end)` covered by the union of `children`, each
/// clipped to the interval. Children may overlap each other (parallel
/// work) and are counted once where they do.
pub fn covered(start: u64, end: u64, children: &[(u64, u64)]) -> u64 {
    let mut clipped: Vec<(u64, u64)> = children
        .iter()
        .map(|&(s, e)| (s.max(start), e.min(end)))
        .filter(|(s, e)| s < e)
        .collect();
    clipped.sort_unstable();
    let mut total = 0;
    let mut cursor = start;
    for (s, e) in clipped {
        let s = s.max(cursor);
        if e > s {
            total += e - s;
            cursor = e;
        }
    }
    total
}

/// A span's self time: its duration minus the part its children cover.
pub fn self_time(start: u64, end: u64, children: &[(u64, u64)]) -> u64 {
    (end - start) - covered(start, end, children)
}

/// Per-name samples, in milliseconds: total duration and self time of
/// every span with that name, in recording order.
#[derive(Default, Debug)]
pub struct Profile {
    pub total_ms: BTreeMap<&'static str, Vec<f64>>,
    pub self_ms: BTreeMap<&'static str, Vec<f64>>,
}

impl Profile {
    pub fn build(spans: &[Span]) -> Self {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
        for s in spans {
            if let Some(p) = s.parent {
                children[p].push((s.start, s.end));
            }
        }
        let mut out = Profile::default();
        for (i, s) in spans.iter().enumerate() {
            let ms = |ns: u64| ns as f64 / 1e6;
            out.total_ms.entry(s.name).or_default().push(ms(s.nanos()));
            out.self_ms.entry(s.name).or_default().push(ms(self_time(
                s.start,
                s.end,
                &children[i],
            )));
        }
        out
    }

    pub fn total(&self, name: &str) -> &[f64] {
        self.total_ms.get(name).map_or(&[], Vec::as_slice)
    }

    pub fn sum_ms(&self, name: &str) -> f64 {
        self.total(name).iter().sum()
    }

    /// Per span name: count, summed total, and the medians of total and
    /// self time, in milliseconds.
    pub fn to_json(&self) -> serde_json::Value {
        use crate::report::num;
        use crate::stats::median;
        use serde_json::{Number, Value};
        let rows = self.total_ms.iter().map(|(name, total)| {
            let own = &self.self_ms[name];
            let row = vec![
                (
                    "count".to_string(),
                    Value::Number(Number::U64(total.len() as u64)),
                ),
                ("total_ms".to_string(), num(total.iter().sum())),
                (
                    "total_ms_p50".to_string(),
                    num(median(total).unwrap_or(0.0)),
                ),
                ("self_ms_p50".to_string(), num(median(own).unwrap_or(0.0))),
            ];
            (name.to_string(), Value::Object(row))
        });
        Value::Object(rows.collect())
    }
}

/// Per op index, the time the children of the spans called `name` cover:
/// the library calls an op made, without the benchmark's own work
/// between them.
pub fn per_op_child_ms(spans: &[Span], name: &str) -> BTreeMap<usize, f64> {
    let mut children: BTreeMap<usize, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent.filter(|&p| spans[p].name == name) {
            children.entry(p).or_default().push((s.start, s.end));
        }
    }
    let mut out = BTreeMap::new();
    for (i, s) in spans.iter().enumerate().filter(|(_, s)| s.name == name) {
        if let Some(op) = s.op {
            let kids = children.get(&i).map_or(&[][..], Vec::as_slice);
            *out.entry(op).or_insert(0.0) += covered(s.start, s.end, kids) as f64 / 1e6;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_disjoint_children() {
        assert_eq!(self_time(0, 100, &[]), 100);
        assert_eq!(self_time(0, 100, &[(10, 20), (50, 80)]), 60);
    }

    #[test]
    fn overlapping_children_count_once() {
        // Two parallel children overlapping on [30, 40).
        assert_eq!(self_time(0, 100, &[(10, 40), (30, 60)]), 50);
        // One child nested inside another.
        assert_eq!(self_time(0, 100, &[(10, 90), (20, 30)]), 20);
        // Identical children.
        assert_eq!(self_time(0, 100, &[(0, 50), (0, 50)]), 50);
    }

    #[test]
    fn children_are_clipped_to_the_parent() {
        assert_eq!(self_time(10, 20, &[(0, 15)]), 5);
        assert_eq!(self_time(10, 20, &[(0, 5), (25, 30)]), 10);
        assert_eq!(self_time(10, 20, &[(0, 100)]), 0);
    }

    #[test]
    fn recorder_nests_and_tags_ops() {
        let rec = Recorder::new(true);
        rec.set_op(Some(3));
        let v = rec.span("outer", || rec.span("inner", || 7));
        assert_eq!(v, 7);
        let spans = rec.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[0].parent, None);
        assert!(spans.iter().all(|s| s.op == Some(3)));
        assert!(spans[0].start <= spans[1].start && spans[1].end <= spans[0].end);
        let p = Profile::build(&spans);
        let outer_self = p.self_ms["outer"][0];
        let outer_total = p.total_ms["outer"][0];
        let inner_total = p.total_ms["inner"][0];
        assert!((outer_total - inner_total - outer_self).abs() < 1e-9);
    }

    #[test]
    fn per_op_child_time_skips_the_parents_own_work() {
        let span = |name, start, end, parent, op| Span {
            name,
            start,
            end,
            parent,
            op,
        };
        let spans = vec![
            span("op.query", 0, 100, None, Some(0)),
            span("lib.a", 10, 40, Some(0), Some(0)),
            span("lib.b", 30, 60, Some(0), Some(0)),
            span("lib.inner", 35, 45, Some(2), Some(0)),
            span("op.query", 200, 250, None, Some(1)),
        ];
        let ms = per_op_child_ms(&spans, "op.query");
        assert!((ms[&0] - 50.0 / 1e6).abs() < 1e-15);
        assert_eq!(ms[&1], 0.0);
    }

    #[test]
    fn disabled_recorder_keeps_nothing() {
        let rec = Recorder::new(false);
        assert_eq!(rec.span("x", || 1), 1);
        assert!(rec.spans().is_empty());
    }
}
