//! Shared reference engines for this crate's unit tests: minimal,
//! obviously-correct implementations of both algorithm traits, used as
//! oracles by the session, registry, and hub test modules so every
//! equivalence test pins the *same* semantics — plus one-line
//! [`Registration`]s over them.

use crate::metrics::OpStats;
use crate::object::{top_k_of, Object, TimedObject};
use crate::query::TimedSpec;
use crate::registry::Registration;
use crate::window::{SlidingTopK, TimedTopK, WindowSpec};

/// An isolated count registration of `Toy ⟨n, k, s⟩`.
pub(crate) fn count(n: usize, k: usize, s: usize) -> Registration {
    Registration::count(Box::new(Toy::new(n, k, s)))
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
/// order, and exactly what `sap_core`'s `TimeBased` adapter produces.
/// The hub tests drive it through a standalone `TimedSession`, a
/// reference independent of the reduction the hubs serve.
pub(crate) struct ToyTimed {
    window_duration: u64,
    slide_duration: u64,
    k: usize,
    slide_end: u64,
    pending: Vec<TimedObject>,
    window: Vec<TimedObject>,
    result: Vec<TimedObject>,
}

impl ToyTimed {
    pub(crate) fn new(window_duration: u64, slide_duration: u64, k: usize) -> Self {
        ToyTimed {
            window_duration,
            slide_duration,
            k,
            slide_end: slide_duration,
            pending: Vec::new(),
            window: Vec::new(),
            result: Vec::new(),
        }
    }

    fn close_slide(&mut self) -> Vec<TimedObject> {
        self.window.append(&mut self.pending);
        let lo = self.slide_end.saturating_sub(self.window_duration);
        self.window.retain(|o| o.timestamp >= lo);
        let mut top = self.window.clone();
        let sd = self.slide_duration;
        top.sort_unstable_by(|a, b| {
            b.score
                .total_cmp(&a.score)
                .then((b.timestamp / sd, b.id).cmp(&(a.timestamp / sd, a.id)))
        });
        top.truncate(self.k);
        self.result = top.clone();
        self.slide_end += self.slide_duration;
        top
    }
}

impl TimedTopK for ToyTimed {
    fn window_duration(&self) -> u64 {
        self.window_duration
    }
    fn slide_duration(&self) -> u64 {
        self.slide_duration
    }
    fn k(&self) -> usize {
        self.k
    }
    fn ingest(&mut self, o: TimedObject) -> Vec<Vec<TimedObject>> {
        let out = self.advance_to(o.timestamp);
        self.pending.push(o);
        out
    }
    fn advance_to(&mut self, watermark: u64) -> Vec<Vec<TimedObject>> {
        let mut out = Vec::new();
        while watermark >= self.slide_end {
            out.push(self.close_slide());
        }
        out
    }
    fn last_result(&self) -> &[TimedObject] {
        &self.result
    }
    fn pending(&self) -> usize {
        self.pending.len()
    }
    fn candidate_count(&self) -> usize {
        self.window.len()
    }
    fn name(&self) -> &str {
        "toy-timed"
    }
}
