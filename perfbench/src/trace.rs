//! The benchmark's own spans: wall-clock intervals around each public
//! call it makes into the program, kept in memory and written out when
//! the run ends. Nothing here reaches inside the program; a span only
//! brackets a call from the outside.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone)]
pub struct Span {
    /// What was called (`run_at`, `hello_batch`, `gf2m.mul.F163`, ...).
    pub name: String,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Shared by every span of one unit of work (one wave, one run).
    pub group: u64,
    /// Start and end, nanoseconds since the tracer was created.
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Times closures, and records them as nested spans when switched on.
/// Switched off it still returns each closure's wall time (two clock
/// reads), so untraced and traced runs time their calls identically.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    groups: u64,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Self {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            groups: 0,
        }
    }

    /// A fresh group id (one per wave or run).
    pub fn next_group(&mut self) -> u64 {
        self.groups += 1;
        self.groups
    }

    /// Run `f`, returning its result and wall time in nanoseconds; when
    /// tracing, record it as a child of the innermost open span.
    pub fn time<R>(
        &mut self,
        name: &str,
        group: u64,
        f: impl FnOnce(&mut Tracer) -> R,
    ) -> (R, u64) {
        let start = Instant::now();
        let idx = self.on.then(|| {
            self.spans.push(Span {
                name: name.to_string(),
                parent: self.open.last().copied(),
                group,
                start_ns: self.since_epoch(start),
                end_ns: 0,
            });
            self.open.push(self.spans.len() - 1);
            self.spans.len() - 1
        });
        let r = f(self);
        let end = Instant::now();
        if let Some(i) = idx {
            self.open.pop();
            self.spans[i].end_ns = self.since_epoch(end);
        }
        (r, end.duration_since(start).as_nanos() as u64)
    }

    fn since_epoch(&self, t: Instant) -> u64 {
        t.duration_since(self.epoch).as_nanos() as u64
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Each span's duration minus the part its children cover.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::dur_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] -= s.dur_ns();
            }
        }
        own
    }

    /// Total spans, duration and self time per span name.
    pub fn by_name(&self) -> BTreeMap<&str, (u64, u64, u64)> {
        let own = self.self_ns();
        let mut m: BTreeMap<&str, (u64, u64, u64)> = BTreeMap::new();
        for (s, own) in self.spans.iter().zip(own) {
            let e = m.entry(s.name.as_str()).or_default();
            e.0 += 1;
            e.1 += s.dur_ns();
            e.2 += own;
        }
        m
    }

    /// Every child lies inside its parent and siblings do not overlap,
    /// so the self times of a tree add up to its root's duration.
    pub fn check_nesting(&self) -> Result<(), String> {
        let mut last_child_end: Vec<u64> = self.spans.iter().map(|s| s.start_ns).collect();
        for (i, s) in self.spans.iter().enumerate() {
            if s.end_ns < s.start_ns {
                return Err(format!("span {i} ({}) ends before it starts", s.name));
            }
            let Some(p) = s.parent else { continue };
            let parent = &self.spans[p];
            if s.start_ns < parent.start_ns || s.end_ns > parent.end_ns {
                return Err(format!("span {i} ({}) escapes its parent {p}", s.name));
            }
            if s.start_ns < last_child_end[p] {
                return Err(format!("span {i} ({}) overlaps a sibling", s.name));
            }
            last_child_end[p] = s.end_ns;
        }
        Ok(())
    }

    /// The spans and per-name self times as one JSON document.
    pub fn to_json(&self) -> String {
        let own = self.self_ns();
        let mut out = String::from("{\"spans\":[");
        for (i, (s, own)) in self.spans.iter().zip(&own).enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "\n{{\"id\":{i},\"name\":\"{}\",\"parent\":{parent},\"group\":{},\
                 \"start_ns\":{},\"end_ns\":{},\"self_ns\":{own}}}",
                s.name, s.group, s.start_ns, s.end_ns
            );
        }
        out.push_str("\n],\"self_time\":{");
        for (i, (name, (n, total, own))) in self.by_name().into_iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\n\"{name}\":{{\"spans\":{n},\"total_ns\":{total},\"self_ns\":{own}}}"
            );
        }
        out.push_str("\n}}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_self_times_add_up_to_the_root() {
        let mut t = Tracer::new(true);
        let g = t.next_group();
        let ((), root) = t.time("root", g, |t| {
            for _ in 0..3 {
                t.time("child", g, |t| {
                    t.time("leaf", g, |_| {
                        std::hint::black_box((0..1000u64).sum::<u64>())
                    });
                });
            }
        });
        t.check_nesting().expect("well nested");
        assert_eq!(t.spans().len(), 7);
        let own: u64 = t.self_ns().iter().sum();
        assert_eq!(own, t.spans()[0].dur_ns());
        assert!(root >= t.spans()[0].dur_ns());
        assert_eq!(t.by_name()["child"].0, 3);
    }

    #[test]
    fn an_untraced_tracer_still_times_but_records_nothing() {
        let mut t = Tracer::new(false);
        let (v, ns) = t.time("x", 0, |_| 41 + 1);
        assert_eq!(v, 42);
        assert!(ns < 1_000_000_000);
        assert!(t.spans().is_empty());
    }
}
