//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span is `{name, start, end, parent}` plus the objects it carried and
//! the updates it returned. Spans live in memory while the run lasts and
//! are written out as tab-separated lines when it ends. A span's layer is
//! its name up to the first dot; a layer's self time is its spans'
//! durations minus the parts their child spans cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

use crate::stats::Samples;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
    pub objects: u64,
    pub updates: u64,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// Records spans while enabled; costs one branch per call while disabled.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// A span opened by [`Tracer::open`]; `None` while tracing is off.
pub type Handle = Option<usize>;

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn set(&mut self, on: bool) {
        assert!(self.open.is_empty(), "toggled inside a span");
        self.on = on;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    #[inline]
    pub fn open(&mut self, name: &'static str) -> Handle {
        if !self.on {
            return None;
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            start_ns: self.now_ns(),
            end_ns: 0,
            objects: 0,
            updates: 0,
        });
        self.open.push(id);
        Some(id)
    }

    #[inline]
    pub fn close(&mut self, handle: Handle, objects: u64, updates: u64) {
        let Some(id) = handle else { return };
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        let end = self.now_ns();
        let span = &mut self.spans[id];
        span.end_ns = end;
        span.objects = objects;
        span.updates = updates;
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations of the spans named `name` among `spans`, in `unit_ns`.
    pub fn durations(spans: &[Span], name: &str, unit_ns: f64) -> Samples {
        let mut s = Samples::default();
        for span in spans.iter().filter(|s| s.name == name) {
            s.push(span.ns() as f64 / unit_ns, 1);
        }
        s
    }

    /// Self time per layer of the spans from index `from` on, in ns.
    pub fn self_ns(&self, from: usize) -> BTreeMap<&'static str, u64> {
        let spans = &self.spans[from..];
        let mut child_ns = vec![0u64; spans.len()];
        for span in spans {
            if let Some(p) = span.parent.and_then(|p| p.checked_sub(from)) {
                child_ns[p] += span.ns();
            }
        }
        let mut out = BTreeMap::new();
        for (span, children) in spans.iter().zip(child_ns) {
            *out.entry(span.layer()).or_insert(0) += span.ns().saturating_sub(children);
        }
        out
    }

    /// Writes one line per span: id, parent (-1 for none), name, start and
    /// end in ns since the run began, objects, updates.
    pub fn write_tsv(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tparent\tname\tstart_ns\tend_ns\tobjects\tupdates")?;
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or(-1, |p| p as i64);
            writeln!(
                out,
                "{id}\t{parent}\t{}\t{}\t{}\t{}\t{}",
                s.name, s.start_ns, s.end_ns, s.objects, s.updates
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sleep_us(us: u64) {
        std::thread::sleep(std::time::Duration::from_micros(us));
    }

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(true);
        let phase = t.open("loadgen.phase");
        let call = t.open("hub.publish");
        sleep_us(2000);
        t.close(call, 10, 3);
        sleep_us(1000);
        t.close(phase, 10, 0);
        assert!(t.open("x").is_some());
        t.close(Some(2), 0, 0);
        let spans = t.spans();
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!((spans[1].objects, spans[1].updates), (10, 3));
        let own = t.self_ns(0);
        assert!(own["hub"] >= 2_000_000);
        assert!(own["loadgen"] >= 1_000_000);
        assert!(own["loadgen"] < spans[0].ns() - 2_000_000 + 1);
        assert_eq!(Tracer::durations(spans, "hub.publish", 1.0).count(), 1);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let h = t.open("hub.publish");
        assert!(h.is_none());
        t.close(h, 1, 1);
        assert!(t.spans().is_empty());
    }
}
