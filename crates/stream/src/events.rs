//! Typed result deltas for the session API, built for an
//! allocation-free steady state.
//!
//! The paper's engines emit a full top-k snapshot per slide, but a
//! subscription system serving many standing queries wants *what changed*
//! (cf. *Monitoring the Top-m Aggregation in a Sliding Window*): an object
//! entering the result, an object leaving it, or — the common case on
//! stable streams — nothing at all. [`SlideResult`] carries the snapshot
//! together with [`TopKEvent`] deltas computed against the previous
//! emission of the same query.
//!
//! Two representation choices keep the publish path off the allocator:
//!
//! * the snapshot is a [`Snapshot`] — an immutable, refcounted
//!   `Arc<[Object]>`. One allocation serves the emitted [`SlideResult`],
//!   the session's retained previous emission, and every `QueryUpdate`
//!   fan-out; a slide whose result did not change re-emits the *same*
//!   `Arc` (a refcount bump, zero copies);
//! * the events are an [`EventList`] — one refcounted list, shared the
//!   same way: every member of a result class holds its class's delta,
//!   so fanning a delta out is a refcount bump, and a `QueryUpdate` stays
//!   at five words. The empty delta and `[Unchanged]` — the steady-state
//!   shapes — are process-wide lists that never touch the heap, and a
//!   close rebuilds its previous list in place once no update holds it.
//!
//! When the engine can prove the result did not change (SAP's `dirty`
//! flag, see `sap_core`, surfaced through
//! [`SlidingTopK::slide_if_changed`](crate::window::SlidingTopK::slide_if_changed)),
//! the sessions emit the single [`TopKEvent::Unchanged`] marker in
//! `O(1)` without calling [`diff_snapshots`] at all.
//!
//! ```
//! use sap_stream::{diff_snapshots, Object, TopKEvent};
//!
//! let prev = vec![Object::new(1, 5.0)];
//! let next = vec![Object::new(2, 6.0)];
//! assert_eq!(
//!     diff_snapshots(&prev, &next),
//!     vec![TopKEvent::Exited(prev[0]), TopKEvent::Entered(next[0])]
//! );
//! ```

use std::sync::{Arc, OnceLock};

use crate::object::Object;

/// One delta between consecutive top-k emissions of a query.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TopKEvent {
    /// The object is in the current result but was not in the previous one.
    Entered(Object),
    /// The object was in the previous result but is not in the current one.
    Exited(Object),
    /// The result is identical to the previous emission. Always the sole
    /// event when present.
    Unchanged,
}

/// An immutable, refcounted top-k snapshot: the **`Arc` snapshot
/// contract** of the publish plane.
///
/// A session materializes each completed slide's top-k exactly once, into
/// one `Arc<[Object]>`; that single allocation is then shared by
/// everything that refers to the emission — the [`SlideResult`] handed to
/// the caller, the session's retained previous snapshot (the baseline of
/// the next delta), every `QueryUpdate` a hub fans out, and the
/// shard-crossing `QueryState` of `AsyncHub::inspect`. Cloning a
/// `Snapshot` is a refcount bump, never a copy.
///
/// Two consequences callers can rely on:
///
/// * a slide whose result is **unchanged** re-emits the previous `Arc`
///   itself ([`Snapshot::ptr_eq`] returns `true` against the prior
///   emission), so quiet slides allocate nothing;
/// * the objects are immutable once emitted — a snapshot can be retained,
///   sent across threads, or compared later without defensive copies.
///
/// Derefs to `[Object]` and compares against slices and `Vec<Object>`, so
/// existing snapshot-consuming code reads unchanged.
///
/// ```
/// use sap_stream::{Object, Snapshot};
///
/// let snap = Snapshot::from(vec![Object::new(1, 5.0)]);
/// let shared = snap.clone(); // refcount bump, no copy
/// assert!(snap.ptr_eq(&shared));
/// assert_eq!(snap, vec![Object::new(1, 5.0)]);
/// assert_eq!(snap.len(), 1);
/// assert!(Snapshot::empty().is_empty());
/// ```
#[derive(Debug, Clone)]
pub struct Snapshot(Arc<[Object]>);

impl Snapshot {
    /// The shared empty snapshot. Allocated once per process, then a
    /// refcount bump — sessions start from this, so constructing a
    /// session never allocates for its delta state.
    pub fn empty() -> Self {
        static EMPTY: OnceLock<Arc<[Object]>> = OnceLock::new();
        Snapshot(Arc::clone(EMPTY.get_or_init(|| Arc::from(&[][..]))))
    }

    /// Materializes a snapshot from a built slice: the **one** copy (and
    /// one allocation) a changed slide performs.
    pub fn from_slice(objects: &[Object]) -> Self {
        if objects.is_empty() {
            return Snapshot::empty();
        }
        Snapshot(Arc::from(objects))
    }

    /// The snapshot contents, in result order (descending).
    #[inline]
    pub fn as_slice(&self) -> &[Object] {
        &self.0
    }

    /// Copies the snapshot into an owned `Vec`.
    pub fn to_vec(&self) -> Vec<Object> {
        self.0.to_vec()
    }

    /// Whether two snapshots share the same allocation — `true` between a
    /// quiet slide's emission and the emission before it.
    #[inline]
    pub fn ptr_eq(&self, other: &Snapshot) -> bool {
        Arc::ptr_eq(&self.0, &other.0)
    }
}

impl Default for Snapshot {
    fn default() -> Self {
        Snapshot::empty()
    }
}

impl std::ops::Deref for Snapshot {
    type Target = [Object];
    #[inline]
    fn deref(&self) -> &[Object] {
        &self.0
    }
}

impl From<Vec<Object>> for Snapshot {
    fn from(objects: Vec<Object>) -> Self {
        if objects.is_empty() {
            return Snapshot::empty();
        }
        Snapshot(Arc::from(objects))
    }
}

impl From<&[Object]> for Snapshot {
    fn from(objects: &[Object]) -> Self {
        Snapshot::from_slice(objects)
    }
}

impl PartialEq for Snapshot {
    fn eq(&self, other: &Self) -> bool {
        self.ptr_eq(other) || self.as_slice() == other.as_slice()
    }
}

impl PartialEq<[Object]> for Snapshot {
    fn eq(&self, other: &[Object]) -> bool {
        self.as_slice() == other
    }
}

impl PartialEq<&[Object]> for Snapshot {
    fn eq(&self, other: &&[Object]) -> bool {
        self.as_slice() == *other
    }
}

impl PartialEq<Vec<Object>> for Snapshot {
    fn eq(&self, other: &Vec<Object>) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl PartialEq<Snapshot> for Vec<Object> {
    fn eq(&self, other: &Snapshot) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl PartialEq<Snapshot> for [Object] {
    fn eq(&self, other: &Snapshot) -> bool {
        self == other.as_slice()
    }
}

impl<'a> IntoIterator for &'a Snapshot {
    type Item = &'a Object;
    type IntoIter = std::slice::Iter<'a, Object>;
    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter()
    }
}

/// The delta stream of one slide: one refcounted, immutable list,
/// shared the way a [`Snapshot`] is.
///
/// A result class computes each slide's delta once and every member's
/// update holds the same list, so handing a delta to a member is a
/// refcount bump, never a copy: an `EventList` is one thin pointer, and
/// it keeps a `QueryUpdate` small. The two steady-state shapes never
/// allocate: an empty delta and the `[Unchanged]` delta each share one
/// list for the whole process ([`EventList::new`],
/// [`EventList::unchanged`]). [`push`](EventList::push) and
/// [`clear`](EventList::clear) are copy-on-write, so an `EventList`
/// behaves as a value: changing one never changes a clone. Derefs to
/// `[TopKEvent]` and compares against `Vec<TopKEvent>`, so
/// delta-consuming code reads unchanged.
///
/// ```
/// use sap_stream::{EventList, Object, TopKEvent};
///
/// let mut events = EventList::new();
/// events.push(TopKEvent::Entered(Object::new(1, 5.0)));
/// assert_eq!(events.len(), 1);
/// assert_eq!(events, vec![TopKEvent::Entered(Object::new(1, 5.0))]);
/// assert!(!events.is_unchanged());
/// assert!(EventList::unchanged().is_unchanged());
/// let shared = events.clone(); // refcount bump, no copy
/// assert!(shared.ptr_eq(&events));
/// ```
#[derive(Clone)]
pub struct EventList(Arc<Vec<TopKEvent>>);

impl EventList {
    /// An empty list (the delta of an empty result following an empty
    /// result): the process-wide empty list, so no allocation.
    pub fn new() -> Self {
        static EMPTY: OnceLock<Arc<Vec<TopKEvent>>> = OnceLock::new();
        EventList(Arc::clone(EMPTY.get_or_init(|| Arc::new(Vec::new()))))
    }

    /// The `[Unchanged]` delta: the process-wide list, so no allocation.
    pub fn unchanged() -> Self {
        static UNCHANGED: OnceLock<Arc<Vec<TopKEvent>>> = OnceLock::new();
        let list = UNCHANGED.get_or_init(|| Arc::new(vec![TopKEvent::Unchanged]));
        EventList(Arc::clone(list))
    }

    /// Appends one event. Copy-on-write: a list that shares its storage
    /// with a clone is copied first.
    pub fn push(&mut self, event: TopKEvent) {
        Arc::make_mut(&mut self.0).push(event);
    }

    /// Drops every event. Copy-on-write: a list no clone shares keeps its
    /// capacity for reuse; a shared one becomes the empty list.
    pub fn clear(&mut self) {
        match Arc::get_mut(&mut self.0) {
            Some(list) => list.clear(),
            None => *self = EventList::new(),
        }
    }

    /// The events as a slice: every `Exited` first, then every `Entered`;
    /// or exactly `[Unchanged]`; or empty.
    #[inline]
    pub fn as_slice(&self) -> &[TopKEvent] {
        &self.0
    }

    /// Whether the list is exactly the `[Unchanged]` marker.
    #[inline]
    pub fn is_unchanged(&self) -> bool {
        matches!(self.as_slice(), [TopKEvent::Unchanged])
    }

    /// Whether two lists share one allocation — `true` between the
    /// updates of one result class's close.
    #[inline]
    pub fn ptr_eq(&self, other: &EventList) -> bool {
        Arc::ptr_eq(&self.0, &other.0)
    }

    /// Empties the list for a rebuild and returns its storage: in place
    /// when no clone shares it, as a fresh list of `capacity` otherwise.
    fn rebuild(&mut self, capacity: usize) -> &mut Vec<TopKEvent> {
        if Arc::get_mut(&mut self.0).is_none() {
            self.0 = Arc::new(Vec::with_capacity(capacity));
        }
        let list = Arc::get_mut(&mut self.0).expect("a fresh list has no clone");
        list.clear();
        list
    }
}

/// Formats the events the list holds, like a slice.
impl std::fmt::Debug for EventList {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.as_slice()).finish()
    }
}

impl Default for EventList {
    fn default() -> Self {
        EventList::new()
    }
}

impl std::ops::Deref for EventList {
    type Target = [TopKEvent];
    #[inline]
    fn deref(&self) -> &[TopKEvent] {
        self.as_slice()
    }
}

impl PartialEq for EventList {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl PartialEq<Vec<TopKEvent>> for EventList {
    fn eq(&self, other: &Vec<TopKEvent>) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl PartialEq<EventList> for Vec<TopKEvent> {
    fn eq(&self, other: &EventList) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl PartialEq<[TopKEvent]> for EventList {
    fn eq(&self, other: &[TopKEvent]) -> bool {
        self.as_slice() == other
    }
}

impl From<Vec<TopKEvent>> for EventList {
    fn from(events: Vec<TopKEvent>) -> Self {
        EventList(Arc::new(events))
    }
}

impl FromIterator<TopKEvent> for EventList {
    fn from_iter<I: IntoIterator<Item = TopKEvent>>(iter: I) -> Self {
        EventList(Arc::new(iter.into_iter().collect()))
    }
}

impl<'a> IntoIterator for &'a EventList {
    type Item = &'a TopKEvent;
    type IntoIter = std::slice::Iter<'a, TopKEvent>;
    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter()
    }
}

/// One completed slide of a query session: the snapshot plus its deltas.
#[derive(Debug, Clone, PartialEq)]
pub struct SlideResult {
    /// 0-based index of the slide within the session's lifetime.
    pub slide: u64,
    /// The window's current top-k, descending (the paper's per-slide
    /// output), shared refcounted with the session's retained state — see
    /// the [`Snapshot`] contract.
    pub snapshot: Snapshot,
    /// Deltas against the previous slide's snapshot: every `Exited` first
    /// (in previous-snapshot order), then every `Entered` (in current
    /// order); or exactly `[Unchanged]`; or empty for the very first
    /// emission of an empty result.
    pub events: EventList,
}

impl SlideResult {
    /// Whether this slide changed the result. The first emission of a
    /// non-empty result counts as changed; an empty event list (an empty
    /// result following an empty result) does not.
    pub fn changed(&self) -> bool {
        !self.events.is_empty() && !self.events.is_unchanged()
    }

    /// Iterates the objects that entered the result this slide.
    pub fn entered(&self) -> impl Iterator<Item = &Object> {
        self.events.iter().filter_map(|e| match e {
            TopKEvent::Entered(o) => Some(o),
            _ => None,
        })
    }

    /// Iterates the objects that exited the result this slide.
    pub fn exited(&self) -> impl Iterator<Item = &Object> {
        self.events.iter().filter_map(|e| match e {
            TopKEvent::Exited(o) => Some(o),
            _ => None,
        })
    }
}

/// Reusable id buffers for [`diff_snapshots_into`]: two sorted-id lists
/// that would otherwise be allocated per diffed slide. Every session and
/// result class owns one, cleared (capacity retained) on every use —
/// after warm-up the diff runs entirely on recycled memory.
#[derive(Debug, Default)]
pub struct DiffScratch {
    prev_ids: Vec<u64>,
    next_ids: Vec<u64>,
}

/// Computes the delta events between two consecutive snapshots into
/// `events`, borrowing `scratch` for the membership index instead of
/// allocating — the pooled core of [`diff_snapshots`].
///
/// The two snapshots are diffed by object id in `O(k)`. `events` is
/// replaced: rebuilt in place when no clone shares it, so once a
/// recycled list and the scratch are warm the call performs **zero**
/// allocations. Identical snapshots write the quiet delta (`[Unchanged]`,
/// or empty for two empty snapshots), sharing the process-wide list when
/// `events` cannot be reused.
pub fn diff_snapshots_into(
    prev: &[Object],
    next: &[Object],
    scratch: &mut DiffScratch,
    events: &mut EventList,
) {
    if prev == next {
        let quiet = if next.is_empty() {
            EventList::new()
        } else {
            EventList::unchanged()
        };
        match Arc::get_mut(&mut events.0) {
            Some(list) => {
                list.clear();
                list.extend_from_slice(&quiet);
            }
            None => *events = quiet,
        }
        return;
    }
    // k is small; membership via sorted id lists keeps this allocation-free
    scratch.next_ids.clear();
    scratch.next_ids.extend(next.iter().map(|o| o.id));
    scratch.next_ids.sort_unstable();
    scratch.prev_ids.clear();
    scratch.prev_ids.extend(prev.iter().map(|o| o.id));
    scratch.prev_ids.sort_unstable();
    let list = events.rebuild(prev.len() + next.len());
    for o in prev {
        if scratch.next_ids.binary_search(&o.id).is_err() {
            list.push(TopKEvent::Exited(*o));
        }
    }
    for o in next {
        if scratch.prev_ids.binary_search(&o.id).is_err() {
            list.push(TopKEvent::Entered(*o));
        }
    }
    if list.is_empty() {
        // same membership, possibly reordered — the result order is total,
        // so identical membership implies an identical sequence
        list.push(TopKEvent::Unchanged);
    }
}

/// Computes the delta events between two consecutive snapshots.
///
/// Convenience wrapper over [`diff_snapshots_into`] that allocates its
/// own scratch — fine for one-off comparisons; the sessions use the
/// pooled form on their hot path.
pub fn diff_snapshots(prev: &[Object], next: &[Object]) -> Vec<TopKEvent> {
    let mut scratch = DiffScratch::default();
    let mut events = EventList::new();
    diff_snapshots_into(prev, next, &mut scratch, &mut events);
    events.as_slice().to_vec()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn o(id: u64, score: f64) -> Object {
        Object::new(id, score)
    }

    #[test]
    fn debug_shows_only_the_events_held() {
        let mut events = EventList::new();
        events.push(TopKEvent::Entered(o(76, 85.0)));
        events.push(TopKEvent::Entered(o(77, 84.0)));
        events.clear();
        events.push(TopKEvent::Unchanged);
        assert_eq!(events, EventList::unchanged());
        assert_eq!(
            format!("{events:?}"),
            format!("{:?}", EventList::unchanged())
        );
        assert_eq!(format!("{events:?}"), "[Unchanged]");
    }

    #[test]
    fn first_emission_is_all_entered() {
        let next = vec![o(3, 9.0), o(1, 5.0)];
        let ev = diff_snapshots(&[], &next);
        assert_eq!(
            ev,
            vec![TopKEvent::Entered(next[0]), TopKEvent::Entered(next[1])]
        );
    }

    #[test]
    fn churn_reports_exits_then_entries() {
        let prev = vec![o(3, 9.0), o(1, 5.0)];
        let next = vec![o(4, 11.0), o(3, 9.0)];
        let ev = diff_snapshots(&prev, &next);
        assert_eq!(
            ev,
            vec![TopKEvent::Exited(prev[1]), TopKEvent::Entered(next[0])]
        );
    }

    #[test]
    fn identical_snapshots_are_unchanged() {
        let snap = vec![o(3, 9.0)];
        assert_eq!(diff_snapshots(&snap, &snap), vec![TopKEvent::Unchanged]);
    }

    #[test]
    fn empty_to_empty_has_no_events() {
        assert!(diff_snapshots(&[], &[]).is_empty());
        let r = SlideResult {
            slide: 0,
            snapshot: Snapshot::empty(),
            events: EventList::new(),
        };
        assert!(!r.changed(), "empty-to-empty is not a change");
    }

    #[test]
    fn slide_result_accessors() {
        let prev = vec![o(1, 5.0)];
        let next = vec![o(2, 6.0)];
        let r = SlideResult {
            slide: 7,
            snapshot: Snapshot::from(next.clone()),
            events: diff_snapshots(&prev, &next).into(),
        };
        assert!(r.changed());
        assert_eq!(r.entered().copied().collect::<Vec<_>>(), next);
        assert_eq!(r.exited().copied().collect::<Vec<_>>(), prev);
        let quiet = SlideResult {
            slide: 8,
            snapshot: Snapshot::from(next.clone()),
            events: EventList::unchanged(),
        };
        assert!(!quiet.changed());
    }

    #[test]
    fn snapshot_sharing_and_equality() {
        let objs = vec![o(1, 5.0), o(2, 3.0)];
        let snap = Snapshot::from(objs.clone());
        let shared = snap.clone();
        assert!(snap.ptr_eq(&shared), "clone must share the allocation");
        assert_eq!(snap, shared);
        assert_eq!(snap, objs);
        assert_eq!(objs, snap);
        assert_eq!(snap, objs.as_slice());
        assert_eq!(snap.as_slice(), &objs[..]);
        assert_eq!(snap.to_vec(), objs);
        assert_eq!(snap.len(), 2);
        assert_eq!(snap[0], objs[0]);
        assert_eq!((&snap).into_iter().count(), 2);
        // distinct allocations with equal content still compare equal
        assert_eq!(snap, Snapshot::from(objs.clone()));
        // the empty snapshot is one shared allocation
        assert!(Snapshot::empty().ptr_eq(&Snapshot::empty()));
        assert!(Snapshot::default().is_empty());
        assert!(Snapshot::from(Vec::new()).ptr_eq(&Snapshot::empty()));
        assert!(Snapshot::from_slice(&[]).ptr_eq(&Snapshot::empty()));
    }

    #[test]
    fn event_list_is_a_shared_value() {
        let mut list = EventList::new();
        assert!(list.is_empty());
        assert!(!list.is_unchanged());
        // the quiet shapes are process-wide lists
        assert!(EventList::new().ptr_eq(&EventList::default()));
        assert!(EventList::unchanged().ptr_eq(&EventList::unchanged()));
        for i in 0..20u64 {
            list.push(TopKEvent::Entered(o(i, i as f64)));
        }
        assert_eq!(list.len(), 20);
        assert!(
            EventList::new().is_empty(),
            "a push never writes the empty list"
        );
        // a clone shares the list; writing either copies it first
        let shared = list.clone();
        assert!(shared.ptr_eq(&list));
        list.push(TopKEvent::Exited(o(99, 0.0)));
        assert_eq!(shared.len(), 20, "a push never changes a clone");
        assert_eq!(list.len(), 21);
        assert!(!shared.ptr_eq(&list));
        let mut cleared = shared.clone();
        cleared.clear();
        assert!(cleared.is_empty());
        assert_eq!(shared.len(), 20, "a clear never changes a clone");
        // clear then push rebuilds the marker
        list.clear();
        list.push(TopKEvent::Unchanged);
        assert!(list.is_unchanged());
        assert_eq!(list, EventList::unchanged());
    }

    #[test]
    fn diff_into_rebuilds_an_unshared_list_in_place() {
        let mut scratch = DiffScratch::default();
        let mut events = EventList::new();
        let prev = vec![o(1, 5.0), o(2, 4.0)];
        let next = vec![o(3, 6.0), o(4, 5.0)];
        diff_snapshots_into(&prev, &next, &mut scratch, &mut events);
        assert_eq!(events.len(), 4);
        let held = events.clone();
        // a list an update still holds is left alone
        diff_snapshots_into(&next, &prev, &mut scratch, &mut events);
        assert!(!events.ptr_eq(&held));
        assert_eq!(
            held[0],
            TopKEvent::Exited(o(1, 5.0)),
            "the held list is intact"
        );
        // once nothing holds it, the next diff reuses its storage
        drop(held);
        let storage = events.as_ptr();
        diff_snapshots_into(&prev, &next, &mut scratch, &mut events);
        assert_eq!(events.as_ptr(), storage);
        diff_snapshots_into(&next, &next, &mut scratch, &mut events);
        assert!(events.is_unchanged());
        assert_eq!(
            events.as_ptr(),
            storage,
            "the quiet delta is written in place too"
        );
        // a shared list takes the process-wide quiet delta instead
        let held = events.clone();
        diff_snapshots_into(&[], &[], &mut scratch, &mut events);
        assert!(events.ptr_eq(&EventList::new()));
        assert!(held.is_unchanged());
    }

    #[test]
    fn event_list_conversions() {
        let events = vec![TopKEvent::Exited(o(1, 1.0)), TopKEvent::Entered(o(2, 2.0))];
        let list: EventList = events.clone().into();
        assert_eq!(list, events);
        let collected: EventList = events.iter().copied().collect();
        assert_eq!(collected, events);
        assert_eq!(list.iter().count(), 2);
        assert_eq!((&list).into_iter().count(), 2);
        assert_eq!(list, events.as_slice()[..]);
    }

    #[test]
    fn diff_into_reuses_scratch_and_clears_events() {
        let mut scratch = DiffScratch::default();
        let mut events = EventList::unchanged();
        let prev = vec![o(1, 5.0), o(2, 4.0)];
        let next = vec![o(3, 6.0), o(1, 5.0)];
        diff_snapshots_into(&prev, &next, &mut scratch, &mut events);
        assert_eq!(
            events,
            vec![TopKEvent::Exited(o(2, 4.0)), TopKEvent::Entered(o(3, 6.0))]
        );
        // a second diff on the same scratch must not leak prior state
        diff_snapshots_into(&next, &next, &mut scratch, &mut events);
        assert!(events.is_unchanged());
        diff_snapshots_into(&[], &[], &mut scratch, &mut events);
        assert!(events.is_empty());
    }

    #[test]
    fn reordered_same_membership_is_unchanged() {
        // can't happen under the total result order, but the diff must
        // stay honest about membership-only comparison
        let prev = vec![o(1, 5.0), o(2, 5.0)];
        let next = vec![o(2, 5.0), o(1, 5.0)];
        assert_eq!(diff_snapshots(&prev, &next), vec![TopKEvent::Unchanged]);
    }
}
