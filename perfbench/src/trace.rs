//! In-memory spans around calls into the engine's public functions.
//!
//! A span has a name (`<layer>.<call>`), start, end, parent span and
//! request id; there is one request id per batch, heartbeat, attach or
//! query. Spans stay in memory and are summarised when the run ends.
//! A disabled tracer records nothing, so the same replay code measures
//! both the traced and the untraced wall time.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::stats::quantile;

const NONE: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
    pub req: u32,
}

pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
    req: u32,
}

/// Handle returned by [`Tracer::enter`]; pass it back to
/// [`Tracer::exit`].
#[must_use]
pub struct Open(u32);

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            req: 0,
        }
    }

    /// Start a new request: later root spans carry a fresh id.
    pub fn request(&mut self) {
        self.req += 1;
    }

    pub fn enter(&mut self, name: &'static str) -> Open {
        if !self.on {
            return Open(NONE);
        }
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.stack.last().copied().unwrap_or(NONE),
            req: self.req,
        });
        self.stack.push(id);
        Open(id)
    }

    pub fn exit(&mut self, open: Open) {
        if open.0 == NONE {
            return;
        }
        let end = self.now_ns();
        self.spans[open.0 as usize].end_ns = end;
        let top = self.stack.pop();
        debug_assert_eq!(top, Some(open.0), "spans must close innermost first");
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn requests(&self) -> u32 {
        self.req
    }

    /// Write every span as CSV: name, start and end (ns since the
    /// tracer started), parent index (empty for a root) and request id.
    pub fn write_csv(&self, path: &std::path::Path) -> std::io::Result<()> {
        use std::io::Write;
        let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(f, "name,start_ns,end_ns,parent,request")?;
        for s in &self.spans {
            let parent = if s.parent == NONE {
                String::new()
            } else {
                s.parent.to_string()
            };
            writeln!(
                f,
                "{},{},{},{parent},{}",
                s.name, s.start_ns, s.end_ns, s.req
            )?;
        }
        f.flush()
    }
}

/// Per-name summary of a span set.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanStats {
    pub name: &'static str,
    pub count: usize,
    pub busy_us: f64,
    pub self_us: f64,
    pub p50_us: f64,
    pub p99_us: f64,
}

/// Summarise spans by name. Self time is a span's duration minus the
/// part of it its child spans cover (children of one parent never
/// overlap: the replay is single-threaded).
pub fn summarise(spans: &[Span]) -> Vec<SpanStats> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if s.parent != NONE {
            child_ns[s.parent as usize] += s.end_ns - s.start_ns;
        }
    }
    let mut by_name: BTreeMap<&'static str, (Vec<f64>, f64)> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        let dur = (s.end_ns - s.start_ns) as f64 / 1e3;
        let own = (s.end_ns - s.start_ns).saturating_sub(child_ns[i]) as f64 / 1e3;
        let e = by_name.entry(s.name).or_default();
        e.0.push(dur);
        e.1 += own;
    }
    by_name
        .into_iter()
        .map(|(name, (durs, self_us))| SpanStats {
            name,
            count: durs.len(),
            busy_us: durs.iter().sum(),
            self_us,
            p50_us: quantile(&durs, 0.5),
            p99_us: quantile(&durs, 0.99),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: u32) -> Span {
        Span {
            name,
            start_ns: start * 1000,
            end_ns: end * 1000,
            parent,
            req: 1,
        }
    }

    #[test]
    fn self_time_subtracts_covered_children() {
        let spans = [
            span("op", 0, 100, NONE),
            span("core.ingest", 10, 40, 0),
            span("net.decode", 50, 60, 0),
            span("cq.run", 15, 25, 1),
        ];
        let stats = summarise(&spans);
        let get = |n: &str| stats.iter().find(|s| s.name == n).unwrap().clone();
        assert_eq!(get("op").busy_us, 100.0);
        assert_eq!(get("op").self_us, 60.0);
        assert_eq!(get("core.ingest").self_us, 20.0);
        assert_eq!(get("cq.run").self_us, 10.0);
        assert_eq!(get("net.decode").count, 1);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        t.request();
        let o = t.enter("x");
        t.exit(o);
        assert!(t.spans().is_empty());
        let mut t = Tracer::new(true);
        t.request();
        let outer = t.enter("outer");
        let inner = t.enter("inner");
        t.exit(inner);
        t.exit(outer);
        assert_eq!(t.spans().len(), 2);
        assert_eq!(t.spans()[1].parent, 0);
        assert_eq!(t.spans()[1].req, 1);
    }
}
