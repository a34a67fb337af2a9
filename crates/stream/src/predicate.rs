//! Attribute predicates and the admission plane's dominance gate.
//!
//! The **admission plane** (see `crate::registry`) filters objects
//! *before* they touch any group ring or
//! [`DigestProducer`](crate::digest::DigestProducer), on two
//! independent criteria:
//!
//! * a [`Predicate`] — a hand-rolled attribute filter a query attaches
//!   with [`Query::filter`](crate::query::Query): score range plus
//!   external-id key/tag match. Groups are keyed by predicate, and
//!   predicate-disjoint members of one geometry class split into
//!   sub-groups. A timed object never visits an event-clock group whose
//!   key or tag clause rejects its id: the registry's dispatch index
//!   files such groups under that clause and hands each object only to
//!   the groups filed under its id. Every other group tests the
//!   predicate per object, in O(1), on the publish fan-out.
//! * a `PruneGate` (crate-private) — the k-skyband dominance criterion generalized to
//!   shared groups: an object already dominated by ≥ `k_max`
//!   newer-or-equal admitted objects of the **open slide** can never
//!   appear in that slide's top-`k_max` digest, and every member of the
//!   group is served a `k ≤ k_max` prefix of exactly that digest, so
//!   the object is invisible to every consumer and need not be buffered
//!   at all. Pruned objects still advance ordinals and slide
//!   boundaries, which keeps slide numbering, checkpoints, and drain
//!   order byte-identical to the unpruned arm.
//!
//! Predicates filter the **ranking, not the stream**: an object a
//! predicate rejects still advances the group's arrival ordinals and
//! event time (slides keep closing on the same boundaries); it merely
//! never ranks. That is what makes a filtered query's slide numbering
//! identical to an unfiltered sibling's.

use crate::checkpoint::{CheckpointError, Decoder, Encoder};
use crate::object::{Object, TimedObject};

/// [`Predicate`]'s clauses as plain integers — `(min_score bits,
/// max_score bits, key, tag)` — the form equality/hash/ordering all
/// compare.
type PredicateBits = (Option<u64>, Option<u64>, Option<u64>, Option<(u64, u64)>);

/// A predicate's most selective id clause ([`Predicate::id_clause`]):
/// every id it accepts equals the key, or falls in the tag's residue
/// class. The registry's dispatch index files a group under it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum IdClause {
    Key(u64),
    /// `(modulus, residue)`.
    Tag(u64, u64),
}

/// An attribute filter over [`Object`]s, attached to a query via
/// [`Query::filter`](crate::query::Query::filter).
///
/// All clauses are conjunctive; the default predicate passes
/// everything. Clauses:
///
/// * [`score_at_least`](Predicate::score_at_least) /
///   [`score_at_most`](Predicate::score_at_most) /
///   [`score_range`](Predicate::score_range) — inclusive score bounds;
/// * [`key`](Predicate::key) — exact external-id match;
/// * [`tag`](Predicate::tag) — external-id residue-class match
///   (`id % modulus == residue`), the hand-rolled stand-in for a
///   tag/topic attribute.
///
/// Predicates are value types with total equality, hashing, and
/// ordering (score bounds compare by IEEE bit pattern), because the
/// registry keys shared groups by `(geometry, Predicate)` and
/// checkpoints sort group sections canonically.
#[derive(Debug, Clone, Copy, Default)]
pub struct Predicate {
    min_score: Option<f64>,
    max_score: Option<f64>,
    key: Option<u64>,
    /// `(modulus, residue)` of the id residue-class clause.
    tag: Option<(u64, u64)>,
}

impl Predicate {
    /// The pass-all predicate (same as `Predicate::default()`).
    pub fn any() -> Self {
        Predicate::default()
    }

    /// Requires `score >= min` (inclusive).
    #[must_use]
    pub fn score_at_least(mut self, min: f64) -> Self {
        self.min_score = Some(min);
        self
    }

    /// Requires `score <= max` (inclusive).
    #[must_use]
    pub fn score_at_most(mut self, max: f64) -> Self {
        self.max_score = Some(max);
        self
    }

    /// Requires `min <= score <= max` (both inclusive).
    #[must_use]
    pub fn score_range(self, min: f64, max: f64) -> Self {
        self.score_at_least(min).score_at_most(max)
    }

    /// Requires the external id to equal `key` exactly.
    #[must_use]
    pub fn key(mut self, key: u64) -> Self {
        self.key = Some(key);
        self
    }

    /// Requires `id % modulus == residue` — a residue-class tag match.
    #[must_use]
    pub fn tag(mut self, modulus: u64, residue: u64) -> Self {
        self.tag = Some((modulus, residue));
        self
    }

    /// Whether this is the pass-all predicate (no clauses).
    pub fn is_pass_all(&self) -> bool {
        self.min_score.is_none()
            && self.max_score.is_none()
            && self.key.is_none()
            && self.tag.is_none()
    }

    /// The id clause that bounds the ids this predicate can accept: its
    /// key, else its tag. `None` when it has neither (pass-all, or score
    /// bounds only), so any id may pass.
    pub(crate) fn id_clause(&self) -> Option<IdClause> {
        match (self.key, self.tag) {
            (Some(key), _) => Some(IdClause::Key(key)),
            (None, Some((modulus, residue))) => Some(IdClause::Tag(modulus, residue)),
            (None, None) => None,
        }
    }

    /// Checks the clauses are well-formed: finite score bounds,
    /// `min <= max` when both are present, nonzero tag modulus with
    /// `residue < modulus`. Returns the violated rule.
    pub fn validate(&self) -> Result<(), &'static str> {
        if let Some(min) = self.min_score {
            if !min.is_finite() {
                return Err("score lower bound must be finite");
            }
        }
        if let Some(max) = self.max_score {
            if !max.is_finite() {
                return Err("score upper bound must be finite");
            }
        }
        if let (Some(min), Some(max)) = (self.min_score, self.max_score) {
            if min > max {
                return Err("empty score range (min > max)");
            }
        }
        if let Some((modulus, residue)) = self.tag {
            if modulus == 0 {
                return Err("tag modulus must be nonzero");
            }
            if residue >= modulus {
                return Err("tag residue must be below its modulus");
            }
        }
        Ok(())
    }

    /// Whether `o` satisfies every clause.
    #[inline]
    pub fn accepts(&self, o: &Object) -> bool {
        self.accepts_parts(o.id, o.score)
    }

    /// Whether a timestamped object satisfies every clause (timestamps
    /// are not filterable — windowing owns time).
    #[inline]
    pub fn accepts_timed(&self, o: &TimedObject) -> bool {
        self.accepts_parts(o.id, o.score)
    }

    #[inline]
    fn accepts_parts(&self, id: u64, score: f64) -> bool {
        if let Some(min) = self.min_score {
            if score < min {
                return false;
            }
        }
        if let Some(max) = self.max_score {
            if score > max {
                return false;
            }
        }
        if let Some(key) = self.key {
            if id != key {
                return false;
            }
        }
        if let Some((modulus, residue)) = self.tag {
            if id % modulus != residue {
                return false;
            }
        }
        true
    }

    /// The canonical comparison key: every clause reduced to integer
    /// bits (IEEE bit patterns for the score bounds), which gives the
    /// total equality/ordering the group maps and the checkpoint's
    /// canonical section order need.
    #[inline]
    fn bits(&self) -> PredicateBits {
        (
            self.min_score.map(f64::to_bits),
            self.max_score.map(f64::to_bits),
            self.key,
            self.tag,
        )
    }

    /// Writes the predicate's checkpoint form: a clause-presence flag
    /// byte followed by the present clauses in declaration order.
    pub(crate) fn encode(&self, enc: &mut Encoder) {
        let flags = u8::from(self.min_score.is_some())
            | u8::from(self.max_score.is_some()) << 1
            | u8::from(self.key.is_some()) << 2
            | u8::from(self.tag.is_some()) << 3;
        enc.put_u8(flags);
        if let Some(min) = self.min_score {
            enc.put_f64(min);
        }
        if let Some(max) = self.max_score {
            enc.put_f64(max);
        }
        if let Some(key) = self.key {
            enc.put_u64(key);
        }
        if let Some((modulus, residue)) = self.tag {
            enc.put_u64(modulus);
            enc.put_u64(residue);
        }
    }

    /// Reads a predicate back, rejecting malformed clauses with a typed
    /// error (never panics on foreign bytes).
    pub(crate) fn decode(dec: &mut Decoder<'_>) -> Result<Self, CheckpointError> {
        let flags = dec.take_u8()?;
        if flags > 0b1111 {
            return Err(CheckpointError::Corrupt("unknown predicate clause flag"));
        }
        let mut p = Predicate::default();
        if flags & 1 != 0 {
            p.min_score = Some(dec.take_f64()?);
        }
        if flags & 2 != 0 {
            p.max_score = Some(dec.take_f64()?);
        }
        if flags & 4 != 0 {
            p.key = Some(dec.take_u64()?);
        }
        if flags & 8 != 0 {
            p.tag = Some((dec.take_u64()?, dec.take_u64()?));
        }
        p.validate()
            .map_err(|_| CheckpointError::Corrupt("malformed predicate clause"))?;
        Ok(p)
    }
}

impl PartialEq for Predicate {
    fn eq(&self, other: &Self) -> bool {
        self.bits() == other.bits()
    }
}

impl Eq for Predicate {}

impl std::hash::Hash for Predicate {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.bits().hash(state);
    }
}

impl PartialOrd for Predicate {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Predicate {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.bits().cmp(&other.bits())
    }
}

/// The per-group dominance gate: a fixed-capacity min-heap of the
/// top-`cap` scores among objects **admitted to the open slide**, where
/// `cap` is the group's `k_max`.
///
/// An arriving object is admitted iff fewer than `cap` admitted
/// open-slide objects strictly dominate it
/// ([`admits`](PruneGate::admits)); otherwise it provably cannot appear
/// in the slide's top-`k_max` digest — later arrivals only push it
/// further down — and is dropped before it touches the producer's
/// pending buffer. Equal scores are **admitted** (`>=` at the root):
/// the digest tie-break prefers the newer arrival, so an equal-score
/// newcomer can displace a buffered object and must not be pruned.
///
/// The gate resets at every slide close and is rebuilt from the
/// producer's pending buffer whenever `k_max` changes (member churn) or
/// its group is decoded; [`rebuild`](PruneGate::rebuild) pre-sizes the
/// heap so [`offer`](PruneGate::offer) never allocates on the publish
/// path.
#[derive(Debug)]
pub(crate) struct PruneGate {
    cap: usize,
    /// Min-heap by score (root = the `cap`-th best admitted score).
    heap: Vec<f64>,
}

impl PruneGate {
    /// A gate admitting everything until `cap` open-slide admissions.
    ///
    /// The pre-allocation is clamped: `cap` can come from a decoded
    /// checkpoint, and a corrupt image must degrade into lazy heap
    /// growth rather than a giant up-front allocation.
    pub(crate) fn new(cap: usize) -> Self {
        debug_assert!(cap > 0, "a group's k_max is at least 1");
        PruneGate {
            cap,
            heap: Vec::with_capacity(cap.min(4096)),
        }
    }

    /// The current capacity (the group's `k_max`).
    #[cfg(test)]
    pub(crate) fn cap(&self) -> usize {
        self.cap
    }

    /// Whether `score` may still reach the open slide's top-`cap`:
    /// true until `cap` admitted objects strictly dominate it.
    #[inline]
    pub(crate) fn admits(&self, score: f64) -> bool {
        self.heap.len() < self.cap || score >= self.heap[0]
    }

    /// Records an **admitted** object's score. Never allocates: the
    /// heap was pre-sized to `cap` at construction/rebuild.
    #[inline]
    pub(crate) fn offer(&mut self, score: f64) {
        if self.heap.len() < self.cap {
            self.heap.push(score);
            let mut i = self.heap.len() - 1;
            while i > 0 {
                let parent = (i - 1) / 2;
                if self.heap[i] < self.heap[parent] {
                    self.heap.swap(i, parent);
                    i = parent;
                } else {
                    break;
                }
            }
        } else if score > self.heap[0] {
            self.heap[0] = score;
            let mut i = 0;
            loop {
                let (l, r) = (2 * i + 1, 2 * i + 2);
                let mut smallest = i;
                if l < self.heap.len() && self.heap[l] < self.heap[smallest] {
                    smallest = l;
                }
                if r < self.heap.len() && self.heap[r] < self.heap[smallest] {
                    smallest = r;
                }
                if smallest == i {
                    break;
                }
                self.heap.swap(i, smallest);
                i = smallest;
            }
        }
    }

    /// Empties the gate — the open slide closed, dominance starts over.
    #[inline]
    pub(crate) fn reset(&mut self) {
        self.heap.clear();
    }

    /// Re-derives the gate for a new `cap` from the open slide's
    /// admitted objects (the producer's pending buffer): exact, because
    /// pruned objects never enter `pending`. Pre-sizes the heap so the
    /// publish path stays allocation-free afterwards (clamped, like
    /// [`PruneGate::new`], against corrupt decoded caps).
    pub(crate) fn rebuild(&mut self, cap: usize, pending: &[TimedObject]) {
        debug_assert!(cap > 0, "a group's k_max is at least 1");
        self.cap = cap;
        self.heap.clear();
        self.heap.reserve(cap.min(4096));
        for o in pending {
            self.offer(o.score);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_predicate_passes_everything() {
        let p = Predicate::any();
        assert!(p.is_pass_all());
        assert!(p.validate().is_ok());
        assert!(p.accepts(&Object::new(0, f64::MIN)));
        assert!(p.accepts(&Object::new(u64::MAX, f64::MAX)));
    }

    #[test]
    fn clauses_are_conjunctive() {
        let p = Predicate::any().score_range(10.0, 20.0).tag(4, 1);
        assert!(!p.is_pass_all());
        assert!(p.accepts(&Object::new(5, 15.0)));
        assert!(p.accepts(&Object::new(5, 10.0)), "bounds are inclusive");
        assert!(p.accepts(&Object::new(5, 20.0)), "bounds are inclusive");
        assert!(!p.accepts(&Object::new(5, 9.9)), "below min");
        assert!(!p.accepts(&Object::new(5, 20.1)), "above max");
        assert!(!p.accepts(&Object::new(4, 15.0)), "wrong residue");
        let keyed = Predicate::any().key(7);
        assert!(keyed.accepts(&Object::new(7, 0.0)));
        assert!(!keyed.accepts(&Object::new(8, 0.0)));
    }

    #[test]
    fn validate_rejects_malformed_clauses() {
        assert!(Predicate::any()
            .score_at_least(f64::NAN)
            .validate()
            .is_err());
        assert!(Predicate::any()
            .score_at_most(f64::INFINITY)
            .validate()
            .is_err());
        assert!(Predicate::any().score_range(2.0, 1.0).validate().is_err());
        assert!(Predicate::any().tag(0, 0).validate().is_err());
        assert!(Predicate::any().tag(4, 4).validate().is_err());
        assert!(Predicate::any().tag(4, 3).validate().is_ok());
    }

    #[test]
    fn equality_hash_and_order_are_total() {
        use std::collections::HashMap;
        let a = Predicate::any().score_at_least(1.0);
        let b = Predicate::any().score_at_least(1.0);
        let c = Predicate::any().score_at_least(2.0);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(a < c);
        let mut map = HashMap::new();
        map.insert(a, 1);
        map.insert(c, 2);
        assert_eq!(map[&b], 1);
        assert_eq!(map.len(), 2);
    }

    #[test]
    fn encode_decode_round_trips() {
        let cases = [
            Predicate::any(),
            Predicate::any().score_at_least(-3.5),
            Predicate::any().score_range(0.0, 100.0).key(42),
            Predicate::any().tag(16, 3),
            Predicate::any().score_at_most(9.0).tag(2, 1).key(5),
        ];
        for p in cases {
            let mut enc = Encoder::new();
            p.encode(&mut enc);
            let payload = enc.into_payload();
            let mut dec = Decoder::new(&payload);
            let back = Predicate::decode(&mut dec).unwrap();
            dec.finish().unwrap();
            assert_eq!(back, p);
        }
    }

    #[test]
    fn decode_rejects_malformed_bytes() {
        // an empty score range is structurally valid bytes but fails
        // clause validation
        let mut enc = Encoder::new();
        Predicate {
            min_score: Some(5.0),
            max_score: Some(1.0),
            key: None,
            tag: None,
        }
        .encode(&mut enc);
        let payload = enc.into_payload();
        assert!(Predicate::decode(&mut Decoder::new(&payload)).is_err());
        // unknown flag bits are a typed error, not a skip
        let mut enc = Encoder::new();
        enc.put_u8(0b1_0000);
        let payload = enc.into_payload();
        assert!(Predicate::decode(&mut Decoder::new(&payload)).is_err());
    }

    #[test]
    fn gate_admits_until_cap_then_prunes_dominated() {
        let mut gate = PruneGate::new(2);
        assert!(gate.admits(1.0), "below capacity everything enters");
        gate.offer(5.0);
        gate.offer(3.0);
        assert!(!gate.admits(2.9), "dominated by the admitted 5 and 3");
        assert!(gate.admits(3.0), "a tie is NOT dominated (newer id wins)");
        assert!(gate.admits(4.0));
        gate.offer(4.0); // displaces 3.0 as the cap-th best
        assert!(!gate.admits(3.5));
        gate.reset();
        assert!(gate.admits(0.0), "a fresh slide admits everything again");
    }

    #[test]
    fn gate_rebuild_matches_incremental_offers() {
        let scores = [4.0, 9.0, 1.0, 7.0, 7.0, 2.0, 8.0];
        let mut incremental = PruneGate::new(3);
        for &s in &scores {
            incremental.offer(s);
        }
        let pending: Vec<TimedObject> = scores
            .iter()
            .enumerate()
            .map(|(i, &s)| TimedObject::new(i as u64, i as u64, s))
            .collect();
        let mut rebuilt = PruneGate::new(1);
        rebuilt.rebuild(3, &pending);
        assert_eq!(rebuilt.cap(), 3);
        for probe in [0.0, 6.9, 7.0, 7.1, 10.0] {
            assert_eq!(rebuilt.admits(probe), incremental.admits(probe), "{probe}");
        }
        // the 3rd-best of {9, 8, 7, 7, ...} is 7: ties admitted, below pruned
        assert!(rebuilt.admits(7.0) && !rebuilt.admits(6.99));
    }
}
