//! In-memory span recording for the traced run.
//!
//! Spans are opened and closed by the benchmark around its calls into each
//! layer; nothing inside the program is instrumented. A span's *self time*
//! is its duration minus the durations of its children. Interface calls are
//! too frequent to time one by one, so they enter the tree as *estimated*
//! children: one per call kind per `cpu.run`, whose duration is a
//! deterministic 1-in-N sample of that kind's calls scaled to all of them.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded interval.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    /// Nanoseconds since the log's epoch.
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// The cell or job this span belongs to.
    pub id: u64,
    /// Duration scaled up from a sample rather than timed whole.
    pub estimated: bool,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Aggregate of every span sharing one name.
#[derive(Clone, Copy, Debug, Default)]
pub struct NameTotals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// The spans of one run, kept in memory until the run ends.
#[derive(Debug)]
pub struct SpanLog {
    epoch: Instant,
    spans: Vec<Span>,
}

impl SpanLog {
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`close`](Self::close).
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, id: u64) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            id,
            estimated: false,
        });
        self.spans.len() - 1
    }

    /// Closes span `idx`, returning its duration in ns.
    pub fn close(&mut self, idx: usize) -> u64 {
        let end = self.now_ns();
        let span = &mut self.spans[idx];
        span.end_ns = end;
        span.dur_ns()
    }

    /// Adds an estimated child of `parent` lasting `dur_ns`, laid at the
    /// parent's start (its true position is spread over the parent).
    pub fn estimated(&mut self, name: &'static str, parent: usize, id: u64, dur_ns: u64) {
        let start_ns = self.spans[parent].start_ns;
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns + dur_ns,
            parent: Some(parent),
            id,
            estimated: true,
        });
    }

    /// Self time of every span: its duration minus its children's.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut child = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.dur_ns();
            }
        }
        self.spans
            .iter()
            .zip(child)
            .map(|(s, c)| s.dur_ns().saturating_sub(c))
            .collect()
    }

    /// Count, total and self time per span name.
    pub fn totals(&self) -> BTreeMap<&'static str, NameTotals> {
        let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
        for (s, self_ns) in self.spans.iter().zip(self.self_ns()) {
            let t = out.entry(s.name).or_default();
            t.count += 1;
            t.total_ns += s.dur_ns();
            t.self_ns += self_ns;
        }
        out
    }

    /// The self-time table, heaviest first.
    pub fn render_table(&self) -> String {
        let totals = self.totals();
        let all_self: u64 = totals.values().map(|t| t.self_ns).sum();
        let mut rows: Vec<_> = totals.into_iter().collect();
        rows.sort_by(|a, b| b.1.self_ns.cmp(&a.1.self_ns).then(a.0.cmp(b.0)));
        let mut out = format!(
            "{:<28} {:>9} {:>12} {:>12} {:>7}\n",
            "span", "count", "total_ms", "self_ms", "self%"
        );
        for (name, t) in rows {
            let _ = writeln!(
                out,
                "{:<28} {:>9} {:>12.3} {:>12.3} {:>6.1}%",
                name,
                t.count,
                t.total_ns as f64 / 1e6,
                t.self_ns as f64 / 1e6,
                100.0 * t.self_ns as f64 / all_self.max(1) as f64
            );
        }
        out
    }

    /// One JSON object per span, in recording order.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, (s, self_ns)) in self.spans.iter().zip(self.self_ns()).enumerate() {
            let parent = s
                .parent
                .map_or_else(|| "null".to_owned(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"span\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \
                 \"self_ns\": {self_ns}, \"parent\": {parent}, \"id\": {}, \"estimated\": {}}}",
                s.name, s.start_ns, s.end_ns, s.id, s.estimated
            );
        }
        out
    }
}

/// A span sink that may be switched off: with no log attached every call
/// is a no-op, so traced and untraced runs share one code path.
pub struct Tracer<'a>(pub Option<&'a mut SpanLog>);

impl Tracer<'_> {
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, id: u64) -> Option<usize> {
        self.0.as_mut().map(|log| log.open(name, parent, id))
    }

    pub fn close(&mut self, idx: Option<usize>) {
        if let (Some(log), Some(idx)) = (self.0.as_mut(), idx) {
            log.close(idx);
        }
    }

    pub fn is_on(&self) -> bool {
        self.0.is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut log = SpanLog::new();
        let root = log.open("cell", None, 7);
        let child = log.open("cpu.run", Some(root), 7);
        log.close(child);
        log.estimated("core.iface.tick", child, 7, 0);
        log.close(root);
        let s = log.self_ns();
        assert_eq!(s[0], log.spans[0].dur_ns() - log.spans[1].dur_ns());
        let totals = log.totals();
        assert_eq!(totals["cell"].count, 1);
        assert!(log.render_table().contains("cpu.run"));
        assert_eq!(log.to_jsonl().lines().count(), 3);
    }
}
