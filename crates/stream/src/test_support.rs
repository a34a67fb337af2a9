//! Shared reference engines for this crate's unit tests: a minimal,
//! obviously-correct count-based engine and a brute-force time-window
//! ranking, used as oracles by the session, digest, registry and hub
//! test modules so every equivalence test pins the *same* semantics —
//! plus one-line [`Registration`]s over them.

use crate::metrics::OpStats;
use crate::object::{top_k_of, Object, TimedObject};
use crate::query::TimedSpec;
use crate::registry::Registration;
use crate::window::{SlidingTopK, WindowSpec};

/// A count registration of `⟨n, k, s⟩`, as `register` makes it: `Toy`
/// over the arrival-clock reduction, in its count group.
pub(crate) fn count(n: usize, k: usize, s: usize) -> Registration {
    let reduced = WindowSpec::new(n, k, s).unwrap().reduced();
    grouped(Toy::new(reduced.n, reduced.k, reduced.s), n, s)
}

/// A time-based registration of `W⟨wd, sd⟩` top-`k`, as `register`
/// makes it: `Toy` over the Appendix-A reduction, on the slide group.
pub(crate) fn timed(wd: u64, sd: u64, k: usize) -> Registration {
    let reduced = TimedSpec::new(wd, sd, k).unwrap().reduced().unwrap();
    shared(Toy::new(reduced.n, reduced.k, reduced.s), wd, sd)
}

/// A shared-digest registration of `W⟨wd, sd⟩` served by `engine`.
pub(crate) fn shared(engine: impl SlidingTopK + Send + 'static, wd: u64, sd: u64) -> Registration {
    Registration::shared(Box::new(engine), wd, sd)
}

/// A count-group registration of `⟨n, k, s⟩` served by `engine`.
pub(crate) fn grouped(
    engine: impl SlidingTopK + Send + 'static,
    n: usize,
    s: usize,
) -> Registration {
    Registration::grouped(Box::new(engine), n, s)
}

/// Minimal count-based reference: keeps the raw window and rescans.
pub(crate) struct Toy {
    spec: WindowSpec,
    window: Vec<Object>,
    result: Vec<Object>,
}

impl Toy {
    pub(crate) fn new(n: usize, k: usize, s: usize) -> Self {
        Toy {
            spec: WindowSpec::new(n, k, s).unwrap(),
            window: Vec::new(),
            result: Vec::new(),
        }
    }
}

impl SlidingTopK for Toy {
    fn spec(&self) -> WindowSpec {
        self.spec
    }
    fn slide(&mut self, batch: &[Object]) -> &[Object] {
        assert_eq!(batch.len(), self.spec.s, "session must re-chunk to s");
        self.window.extend_from_slice(batch);
        let excess = self.window.len().saturating_sub(self.spec.n);
        self.window.drain(..excess);
        self.result = top_k_of(&self.window, self.spec.k);
        &self.result
    }
    fn candidate_count(&self) -> usize {
        self.window.len()
    }
    fn memory_bytes(&self) -> usize {
        0
    }
    fn stats(&self) -> OpStats {
        OpStats::default()
    }
    fn name(&self) -> &str {
        "toy"
    }
}

/// Minimal time-based reference: keeps every alive object and rescans on
/// each closed slide. Equal scores tie-break by slide recency, then by
/// the higher id within a slide — the documented `TimedObject` result
/// order. The hub and session tests check every snapshot against it, a
/// reference independent of the Appendix-A reduction that both the hubs
/// and `TimedSession` run.
pub(crate) struct ToyTimed {
    window_duration: u64,
    slide_duration: u64,
    k: usize,
    slide_end: u64,
    window: Vec<TimedObject>,
}

impl ToyTimed {
    pub(crate) fn new(window_duration: u64, slide_duration: u64, k: usize) -> Self {
        ToyTimed {
            window_duration,
            slide_duration,
            k,
            slide_end: slide_duration,
            window: Vec::new(),
        }
    }

    /// Ingests a batch (non-decreasing timestamps), returning the top-k
    /// of every slide it closes, oldest first.
    pub(crate) fn push(&mut self, objects: &[TimedObject]) -> Vec<Vec<Object>> {
        let mut out = Vec::new();
        for &o in objects {
            out.extend(self.advance_to(o.timestamp));
            self.window.push(o);
        }
        out
    }

    /// Closes every slide ending at or before `watermark`, returning each
    /// one's top-k.
    pub(crate) fn advance_to(&mut self, watermark: u64) -> Vec<Vec<Object>> {
        let mut out = Vec::new();
        while watermark >= self.slide_end {
            let (end, sd) = (self.slide_end, self.slide_duration);
            let lo = end.saturating_sub(self.window_duration);
            self.window.retain(|o| o.timestamp >= lo);
            let mut top = self.window.clone();
            top.sort_unstable_by(|a, b| {
                b.score
                    .total_cmp(&a.score)
                    .then((b.timestamp / sd, b.id).cmp(&(a.timestamp / sd, a.id)))
            });
            out.push(top.iter().take(self.k).map(TimedObject::untimed).collect());
            self.slide_end += sd;
        }
        out
    }
}
