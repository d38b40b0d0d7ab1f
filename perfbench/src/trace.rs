//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark around its own calls into a
//! layer's public function; nothing inside the program is instrumented.
//! Where a layer's work happens inside another call (parsing and session
//! work inside `Backend::submit`), the benchmark replays that work on
//! shadow copies right after the call and records the replays as child
//! spans of the call's span. A span's self time is its duration minus
//! its children's durations, so the self time of `backend.submit` is the
//! residual the program spends on dispatch, governor and rendering.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

const NO_PARENT: usize = usize::MAX;

pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: usize,
    pub req: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Per-name totals over every recorded span.
#[derive(Clone, Copy, Debug, Default)]
pub struct Totals {
    pub count: u64,
    pub total_ns: u64,
    /// Duration minus the durations of the span's children.
    pub self_ns: i64,
    /// Spans whose children took longer than the span itself.
    pub negative_self: u64,
}

pub struct Tracer {
    epoch: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span for request `req`; returns its id.
    pub fn open(&mut self, name: &'static str, req: u64, parent: Option<usize>) -> usize {
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: parent.unwrap_or(NO_PARENT),
            req,
        });
        self.spans.len() - 1
    }

    pub fn close(&mut self, id: usize) {
        self.spans[id].end_ns = self.now();
    }

    /// Runs `f` inside a span.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        req: u64,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, req, parent);
        let out = f();
        self.close(id);
        out
    }

    pub fn totals(&self) -> BTreeMap<&'static str, Totals> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != NO_PARENT {
                child_ns[s.parent] += s.dur_ns();
            }
        }
        let mut out: BTreeMap<&'static str, Totals> = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(child_ns) {
            let t = out.entry(s.name).or_default();
            t.count += 1;
            t.total_ns += s.dur_ns();
            let self_ns = s.dur_ns() as i64 - child as i64;
            t.self_ns += self_ns;
            t.negative_self += u64::from(self_ns < 0);
        }
        out
    }

    /// Writes every span as a tab-separated line:
    /// `id name req parent start_ns end_ns` (`parent` is `-` for roots).
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "id\tname\treq\tparent\tstart_ns\tend_ns")?;
        for (id, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NO_PARENT {
                "-".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                w,
                "{id}\t{}\t{}\t{parent}\t{}\t{}",
                s.name, s.req, s.start_ns, s.end_ns
            )?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new();
        let p = t.open("parent", 1, None);
        t.close(p);
        t.spans[p].start_ns = 0;
        t.spans[p].end_ns = 100;
        let c = t.open("child", 1, Some(p));
        t.close(c);
        t.spans[c].start_ns = 100;
        t.spans[c].end_ns = 130;
        let tot = t.totals();
        assert_eq!(tot["parent"].total_ns, 100);
        assert_eq!(tot["parent"].self_ns, 70);
        assert_eq!(tot["child"].self_ns, 30);
        assert_eq!(tot["parent"].negative_self, 0);
        let c = t.open("child", 1, Some(p));
        t.spans[c].start_ns = 130;
        t.spans[c].end_ns = 210;
        let tot = t.totals();
        assert_eq!(tot["parent"].self_ns, -10);
        assert_eq!(tot["parent"].negative_self, 1);
    }
}
