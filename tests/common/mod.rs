//! A brute-force model of the hub contract: what every standing query
//! of a `Hub` or an `AsyncHub` must emit, derived from first principles
//! and from nothing in the library but its data types.
//!
//! The model keeps, per registered query, its plane, window, `k`,
//! filter and every object it observed since registration. It ranks
//! each closing slide by brute force and derives the update's events
//! from the query's previous emission:
//!
//! * **count windows** close every `s` observed arrivals and rank the
//!   last `n` of them; equal scores go to the later arrival;
//! * **time windows** close on absolute slide boundaries (multiples of
//!   the slide duration from time 0, so a late registrant first emits
//!   the empty slides it missed) and rank `[end − wd, end)` through
//!   [`time_rank::top_k`];
//! * a **filter** removes objects from the ranking, never from the
//!   boundaries: a rejected object still counts as an arrival and still
//!   advances event time.
//!
//! Count-based queries observe every published object (their untimed
//! view); time-based ones observe only timestamped publishes. The model
//! also tallies what `HubStats` must report (see [`Tallies`]), and the
//! number of result classes whenever every sharing-plane member sits in
//! a class it can predict (see [`Model::result_classes`]).

pub mod time_rank;

use sap::prelude::*;

/// The serving plane a registration lands on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Plane {
    /// A time-based member of the shared digest plane (`register` and
    /// `register_shared` both land here).
    Shared,
    /// A count-based member of the shared count plane (`register` and
    /// `register_grouped` both land here).
    Grouped,
}

/// The registration call a query arrives through.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Method {
    /// `register`: a count-based query's count group, or a time-based
    /// query's slide group.
    Register,
    /// `register_shared`: the shared digest plane (time-based only).
    Shared,
    /// `register_grouped`: the shared count plane (count-based only).
    Grouped,
}

/// A sliding window, in arrivals or in time units.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Window {
    Count { n: usize, s: usize },
    Time { wd: u64, sd: u64 },
}

/// A subscription filter in the model's own terms: conjunctive clauses
/// mirroring `Predicate`'s, applied by the model itself.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Filter {
    pub min: Option<f64>,
    pub max: Option<f64>,
    pub key: Option<u64>,
    pub tag: Option<(u64, u64)>,
}

impl Filter {
    pub fn accepts(&self, id: u64, score: f64) -> bool {
        self.min.is_none_or(|min| score >= min)
            && self.max.is_none_or(|max| score <= max)
            && self.key.is_none_or(|key| id == key)
            && self
                .tag
                .is_none_or(|(modulus, residue)| id % modulus == residue)
    }

    /// The library predicate with the same clauses, built through its
    /// public constructors.
    pub fn predicate(&self) -> Predicate {
        let mut p = Predicate::any();
        if let Some(min) = self.min {
            p = p.score_at_least(min);
        }
        if let Some(max) = self.max {
            p = p.score_at_most(max);
        }
        if let Some(key) = self.key {
            p = p.key(key);
        }
        if let Some((modulus, residue)) = self.tag {
            p = p.tag(modulus, residue);
        }
        p
    }
}

/// Why a hub must refuse a registration.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Refusal {
    /// `register_shared` with a count-based query.
    NotTimeBased,
    /// `register_grouped` with a time-based query.
    NotCountBased,
}

/// One update a query must emit: its slide index, top-k and deltas.
#[derive(Clone, Debug, PartialEq)]
pub struct Expected {
    /// The query, as its 0-based registration index.
    pub query: usize,
    pub slide: u64,
    pub snapshot: Vec<Object>,
    pub events: Vec<TopKEvent>,
}

/// The `HubStats` counters the model predicts, in the model's terms.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Tallies {
    pub queries: usize,
    pub shared_queries: usize,
    pub grouped_queries: usize,
    /// Distinct `(slide duration, filter)` pairs among live shared
    /// queries.
    pub digest_groups: u64,
    /// Distinct `(s, filter, registration offset mod s)` among live
    /// grouped queries: the join rule admits a newcomer to a group
    /// exactly when the group's open slide is empty, i.e. when the two
    /// registration offsets agree mod `s`.
    pub count_groups: u64,
    /// Updates emitted by shared queries (`digest_hits +
    /// digest_rebuilds`).
    pub shared_updates: u64,
    /// Updates emitted by grouped queries (`count_group_hits`).
    pub grouped_updates: u64,
    /// Objects offered to a sharing-plane group whose filter accepts
    /// them, one per accepting group (`admitted + pruned`).
    pub gated: u64,
}

impl Tallies {
    /// What a hub's counters say, in the same terms.
    pub fn observed(stats: &HubStats) -> Tallies {
        Tallies {
            queries: stats.queries,
            shared_queries: stats.shared_queries,
            grouped_queries: stats.grouped_queries,
            digest_groups: stats.digest_groups,
            count_groups: stats.count_groups,
            shared_updates: stats.digest_hits + stats.digest_rebuilds,
            grouped_updates: stats.count_group_hits,
            gated: stats.admitted + stats.pruned,
        }
    }
}

/// One registered query and everything it observed.
struct Standing {
    plane: Plane,
    window: Window,
    k: usize,
    filter: Filter,
    live: bool,
    /// The hub's arrival count at registration.
    offset: u64,
    /// Whether the member sits in a result class the model predicts: a
    /// grouped member, or a shared one registered into a pristine slide
    /// group.
    classed: bool,
    /// Objects observed since registration, in arrival order (untimed
    /// arrivals carry timestamp 0, which count windows never read).
    seen: Vec<TimedObject>,
    slides: u64,
    prev: Vec<Object>,
}

/// The model hub.
pub struct Model {
    queries: Vec<Standing>,
    arrivals: u64,
    tallies: Tallies,
    /// The live slide groups, as `(slide duration, filter)`, and whether
    /// each is still *pristine*: since it was founded, no object its
    /// filter accepts arrived and no timestamp or watermark reached its
    /// first slide boundary.
    slide_groups: Vec<(u64, Filter, bool)>,
}

/// The top-`k` of the last `n` observed arrivals the filter accepts;
/// equal scores go to the later arrival.
fn count_top_k(seen: &[TimedObject], n: usize, k: usize, filter: &Filter) -> Vec<Object> {
    let lo = seen.len().saturating_sub(n);
    let mut alive: Vec<(usize, &TimedObject)> = seen[lo..]
        .iter()
        .enumerate()
        .filter(|(_, o)| filter.accepts(o.id, o.score))
        .collect();
    alive.sort_by(|(ai, a), (bi, b)| b.score.total_cmp(&a.score).then(bi.cmp(ai)));
    alive
        .iter()
        .take(k)
        .map(|(_, o)| Object::new(o.id, o.score))
        .collect()
}

/// The deltas from `prev` to `next`: every exit (in `prev` order), then
/// every entry (in `next` order); `[Unchanged]` for an identical
/// non-empty result; nothing for an empty result after an empty one.
fn events(prev: &[Object], next: &[Object]) -> Vec<TopKEvent> {
    if prev == next {
        return if next.is_empty() {
            Vec::new()
        } else {
            vec![TopKEvent::Unchanged]
        };
    }
    let exited = prev
        .iter()
        .filter(|o| next.iter().all(|n| n.id != o.id))
        .map(|o| TopKEvent::Exited(*o));
    let entered = next
        .iter()
        .filter(|o| prev.iter().all(|p| p.id != o.id))
        .map(|o| TopKEvent::Entered(*o));
    let mut out: Vec<TopKEvent> = exited.chain(entered).collect();
    if out.is_empty() {
        out.push(TopKEvent::Unchanged);
    }
    out
}

impl Standing {
    fn emit(&mut self, query: usize, snapshot: Vec<Object>, out: &mut Vec<Expected>) {
        let events = events(&self.prev, &snapshot);
        out.push(Expected {
            query,
            slide: self.slides,
            snapshot: snapshot.clone(),
            events,
        });
        self.prev = snapshot;
        self.slides += 1;
    }

    /// Closes every time slide ending at or before `watermark`.
    fn close_time_slides(&mut self, query: usize, watermark: u64, out: &mut Vec<Expected>) {
        let Window::Time { wd, sd } = self.window else {
            return;
        };
        while (self.slides + 1) * sd <= watermark {
            let end = (self.slides + 1) * sd;
            let filter = self.filter;
            let top = time_rank::top_k(&self.seen, end, wd, sd, self.k, |o| {
                filter.accepts(o.id, o.score)
            });
            let snapshot = top.iter().map(|o| Object::new(o.id, o.score)).collect();
            self.emit(query, snapshot, out);
        }
    }

    /// Observes one arrival: a count window closes a slide every `s`
    /// arrivals; a time window first closes the slides the timestamp
    /// crosses.
    fn observe(&mut self, query: usize, o: TimedObject, out: &mut Vec<Expected>) {
        match self.window {
            Window::Count { n, s } => {
                self.seen.push(o);
                if self.seen.len().is_multiple_of(s) {
                    let snapshot = count_top_k(&self.seen, n, self.k, &self.filter);
                    self.emit(query, snapshot, out);
                }
            }
            Window::Time { .. } => {
                self.close_time_slides(query, o.timestamp, out);
                self.seen.push(o);
            }
        }
    }
}

impl Model {
    pub fn new() -> Model {
        Model {
            queries: Vec::new(),
            arrivals: 0,
            tallies: Tallies::default(),
            slide_groups: Vec::new(),
        }
    }

    /// Admits a registration, returning the query's registration index,
    /// or the refusal a hub must report (leaving the model unchanged).
    pub fn register(
        &mut self,
        method: Method,
        window: Window,
        k: usize,
        filter: Filter,
    ) -> Result<usize, Refusal> {
        let plane = match (method, window) {
            (Method::Register, Window::Count { .. }) => Plane::Grouped,
            (Method::Register, Window::Time { .. }) => Plane::Shared,
            (Method::Shared, Window::Time { .. }) => Plane::Shared,
            (Method::Shared, Window::Count { .. }) => return Err(Refusal::NotTimeBased),
            (Method::Grouped, Window::Count { .. }) => Plane::Grouped,
            (Method::Grouped, Window::Time { .. }) => return Err(Refusal::NotCountBased),
        };
        let pristine = match window {
            Window::Time { sd, .. } if plane == Plane::Shared => self.join_slide_group(sd, filter),
            _ => false,
        };
        let classed = plane == Plane::Grouped || pristine;
        self.queries.push(Standing {
            plane,
            window,
            k,
            filter,
            live: true,
            offset: self.arrivals,
            classed,
            seen: Vec::new(),
            slides: 0,
            prev: Vec::new(),
        });
        Ok(self.queries.len() - 1)
    }

    /// Joins (or founds) a shared registration's slide group, returning
    /// whether the group is pristine.
    fn join_slide_group(&mut self, sd: u64, filter: Filter) -> bool {
        match self
            .slide_groups
            .iter()
            .find(|g| (g.0, g.1) == (sd, filter))
        {
            Some(&(_, _, pristine)) => pristine,
            None => {
                self.slide_groups.push((sd, filter, true));
                true
            }
        }
    }

    /// Removes a query: its slide count and last emission, or `None`
    /// for a query that is not live (the hub's `UnknownQuery`). The last
    /// member of a slide group out dissolves the group.
    pub fn unregister(&mut self, query: usize) -> Option<(u64, Vec<Object>)> {
        let q = self.queries.get_mut(query).filter(|q| q.live)?;
        q.live = false;
        let out = Some((q.slides, std::mem::take(&mut q.prev)));
        let groups = self.groups(Plane::Shared);
        self.slide_groups
            .retain(|&(sd, filter, _)| groups.contains(&((sd, 0), filter)));
        out
    }

    /// A live query's slide count and last emission.
    pub fn state(&self, query: usize) -> Option<(u64, &[Object])> {
        let q = self.queries.get(query).filter(|q| q.live)?;
        Some((q.slides, &q.prev))
    }

    /// Number of registrations admitted so far, live or not.
    pub fn len(&self) -> usize {
        self.queries.len()
    }

    /// Whether a registration index names a live query.
    pub fn is_live(&self, query: usize) -> bool {
        self.queries.get(query).is_some_and(|q| q.live)
    }

    /// Publishes untimed objects: only count windows observe them.
    pub fn publish(&mut self, objects: &[Object]) -> Vec<Expected> {
        let timed: Vec<TimedObject> = objects
            .iter()
            .map(|o| TimedObject::new(o.id, 0, o.score))
            .collect();
        self.ingest(&timed, false)
    }

    /// Publishes timestamped objects: every window observes them.
    pub fn publish_timed(&mut self, objects: &[TimedObject]) -> Vec<Expected> {
        self.ingest(objects, true)
    }

    /// Raises the event-time watermark on every time window.
    pub fn advance_time(&mut self, watermark: u64) -> Vec<Expected> {
        for (sd, _, pristine) in &mut self.slide_groups {
            *pristine &= watermark < *sd;
        }
        let mut out = Vec::new();
        for (i, q) in self.queries.iter_mut().enumerate().filter(|(_, q)| q.live) {
            q.close_time_slides(i, watermark, &mut out);
        }
        self.finish(out)
    }

    fn ingest(&mut self, objects: &[TimedObject], timed: bool) -> Vec<Expected> {
        let mut groups = self.groups(Plane::Grouped);
        if timed {
            groups.extend(self.groups(Plane::Shared));
        }
        let mut out = Vec::new();
        for &o in objects {
            self.arrivals += 1;
            if timed {
                for (sd, filter, pristine) in &mut self.slide_groups {
                    *pristine &= o.timestamp < *sd && !filter.accepts(o.id, o.score);
                }
            }
            let accepting = groups.iter().filter(|(_, f)| f.accepts(o.id, o.score));
            self.tallies.gated += accepting.count() as u64;
            for (i, q) in self.queries.iter_mut().enumerate().filter(|(_, q)| q.live) {
                if timed || matches!(q.window, Window::Count { .. }) {
                    q.observe(i, o, &mut out);
                }
            }
        }
        self.finish(out)
    }

    /// Tallies the emissions per plane and sorts them into the hubs'
    /// `(query, slide)` delivery order.
    fn finish(&mut self, mut out: Vec<Expected>) -> Vec<Expected> {
        for u in &out {
            match self.queries[u.query].plane {
                Plane::Shared => self.tallies.shared_updates += 1,
                Plane::Grouped => self.tallies.grouped_updates += 1,
            }
        }
        out.sort_by_key(|u| (u.query, u.slide));
        out
    }

    fn live(&self, plane: Plane) -> impl Iterator<Item = &Standing> {
        self.queries
            .iter()
            .filter(move |q| q.live && q.plane == plane)
    }

    /// The live groups of a sharing plane, as `(key, filter)`: a slide
    /// group's key is its slide duration, a count group's its slide
    /// length and the registration offset mod that length.
    fn groups(&self, plane: Plane) -> Vec<((u64, u64), Filter)> {
        let mut groups = Vec::new();
        for q in self.live(plane) {
            let key = match q.window {
                Window::Time { sd, .. } => (sd, 0),
                Window::Count { s, .. } => (s as u64, q.offset % s as u64),
            };
            if !groups.contains(&(key, q.filter)) {
                groups.push((key, q.filter));
            }
        }
        groups
    }

    /// The counters a hub serving this model must report.
    pub fn tallies(&self) -> Tallies {
        Tallies {
            queries: self.queries.iter().filter(|q| q.live).count(),
            shared_queries: self.live(Plane::Shared).count(),
            grouped_queries: self.live(Plane::Grouped).count(),
            digest_groups: self.groups(Plane::Shared).len() as u64,
            count_groups: self.groups(Plane::Grouped).len() as u64,
            ..self.tallies
        }
    }

    /// `HubStats::result_classes`, when every live sharing-plane member
    /// is classed (`None` otherwise). Grouped members pool by `(n, k,
    /// join slide)` inside their count group — members of one group with
    /// one join slide registered at one offset — and shared members by
    /// `(wd, k)` inside their slide group. Classes travel whole with
    /// their group (move, resize, checkpoint restore). A shared member
    /// that joined mid-stream breaks the prediction: while it warms up as
    /// a joiner its class is not counted, and once seated its class
    /// stays apart from a class with an equal key.
    pub fn result_classes(&self) -> Option<u64> {
        let mut classes = Vec::new();
        for q in &self.queries {
            if !q.live || !matches!(q.plane, Plane::Shared | Plane::Grouped) {
                continue;
            }
            if !q.classed {
                return None;
            }
            let offset = if q.plane == Plane::Grouped {
                q.offset
            } else {
                0
            };
            let class = (q.window, q.k, q.filter, offset);
            if !classes.contains(&class) {
                classes.push(class);
            }
        }
        Some(classes.len() as u64)
    }
}
