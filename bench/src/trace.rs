//! Spans recorded by the benchmark's own code around each call into a
//! layer. Kept in memory during the run and written out at exit; spans
//! inside the crates are a later change.

use std::collections::BTreeMap;

use crate::json::Value;

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one, in the same trace.
    pub parent: Option<usize>,
    /// Spans of one request (or one round-robin cycle) share this.
    pub request_id: u64,
}

#[derive(Debug, Default)]
pub struct Trace {
    pub spans: Vec<Span>,
}

impl Trace {
    /// Record a span and return its index, for use as a child's `parent`.
    pub fn push(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<usize>,
        request_id: u64,
    ) -> usize {
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: end_ns.max(start_ns),
            parent,
            request_id,
        });
        self.spans.len() - 1
    }

    /// Append another thread's trace, re-basing its parent indices.
    pub fn absorb(&mut self, other: Trace) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Self time of every span: its duration minus the part of that
    /// interval its direct children cover (overlapping children are
    /// merged first, and clipped to the parent).
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                let parent = &self.spans[p];
                let (a, b) = (s.start_ns.max(parent.start_ns), s.end_ns.min(parent.end_ns));
                if a < b {
                    children[p].push((a, b));
                }
            }
        }
        self.spans
            .iter()
            .zip(&mut children)
            .map(|(s, kids)| {
                kids.sort_unstable();
                let (mut covered, mut reach) = (0u64, s.start_ns);
                for &(a, b) in kids.iter() {
                    if b > reach {
                        covered += b - a.max(reach);
                        reach = b;
                    }
                }
                (s.end_ns - s.start_ns) - covered
            })
            .collect()
    }

    /// Per span name: `(count, total ns, self ns)`.
    pub fn summary(&self) -> BTreeMap<&'static str, (u64, u64, u64)> {
        let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
        for (s, self_ns) in self.spans.iter().zip(self.self_times_ns()) {
            let e = out.entry(s.name).or_default();
            e.0 += 1;
            e.1 += s.end_ns - s.start_ns;
            e.2 += self_ns;
        }
        out
    }

    pub fn to_json(&self) -> Value {
        let summary = self
            .summary()
            .into_iter()
            .map(|(name, (count, total, own))| {
                Value::obj([
                    ("name", Value::str(name)),
                    ("count", Value::Num(count as f64)),
                    ("total_ns", Value::Num(total as f64)),
                    ("self_ns", Value::Num(own as f64)),
                ])
            })
            .collect();
        let spans = self
            .spans
            .iter()
            .map(|s| {
                Value::obj([
                    ("name", Value::str(s.name)),
                    ("start_ns", Value::Num(s.start_ns as f64)),
                    ("end_ns", Value::Num(s.end_ns as f64)),
                    (
                        "parent",
                        s.parent.map_or(Value::Null, |p| Value::Num(p as f64)),
                    ),
                    ("request_id", Value::Num(s.request_id as f64)),
                ])
            })
            .collect();
        Value::obj([
            ("summary", Value::Arr(summary)),
            ("spans", Value::Arr(spans)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_merged_clipped_children() {
        let mut t = Trace::default();
        let root = t.push("request", 100, 200, None, 1);
        t.push("encode", 100, 110, Some(root), 1); // 10
        let wait = t.push("wait", 120, 180, Some(root), 1); // 60
        t.push("decode", 170, 190, Some(root), 1); // overlaps wait by 10 -> adds 10
        t.push("late", 195, 250, Some(root), 1); // clipped to 195..200 -> 5
        t.push("inner", 130, 150, Some(wait), 1); // grandchild: not root's
        let own = t.self_times_ns();
        // root: 100 - (10 + 60 + 10 + 5) = 15
        assert_eq!(own[root], 15);
        assert_eq!(own[wait], 40);
        assert_eq!(own[1], 10, "leaf self time is its duration");
        let sum = t.summary();
        assert_eq!(sum["request"], (1, 100, 15));
        assert_eq!(sum["wait"], (1, 60, 40));
    }

    #[test]
    fn absorb_rebases_parents() {
        let mut a = Trace::default();
        a.push("x", 0, 10, None, 1);
        let mut b = Trace::default();
        let r = b.push("y", 0, 10, None, 2);
        b.push("z", 2, 4, Some(r), 2);
        a.absorb(b);
        assert_eq!(a.spans[2].parent, Some(1));
        assert_eq!(a.self_times_ns(), vec![10, 8, 2]);
    }
}
