//! The SAP engine: Algorithm 1 (Top-k) over the partition framework of §3,
//! parameterized by the partition policy of §4 and the meaningful-set
//! representation of §5.
//!
//! Life of an object:
//!
//! 1. **Arrival** — appended to the current *unit*; its key is offered to
//!    the unit's `P^k` buffer (`O(log k)`), and under the enhanced policy
//!    to TBUI.
//! 2. **Unit completion** — the policy decides whether the unit merges
//!    into the growing partition (dynamic: the WRT evaluation of Eq. 2
//!    accepted and `l_max` not exceeded) or the partition seals.
//! 3. **Seal** — the partition's `P^k` merges into the global candidate
//!    set `C` with the refine pass of Figure 4 (amortized `O(1)` per
//!    object at `m = m*`).
//! 4. **Front duty** — when the partition reaches the front of the window,
//!    its group dominance number ρ (Definition 1) is evaluated; if
//!    `ρ < k`, its meaningful set `M_0` is formed (delayed formation,
//!    Algorithm 1 lines 15-16). Expiring candidates are replaced by pulls
//!    from `M_0` (`O(log k)` each).
//! 5. **Expiry** — objects leave oldest-first; stack tops of `M_0` pop as
//!    they expire.
//!
//! Every slide returns `max_k(C ∪ P^k_m ∪ M_0)` (Lemma 1).
//!
//! ```
//! use sap_core::{Sap, SapConfig};
//! use sap_stream::{Object, SlidingTopK, WindowSpec};
//!
//! let spec = WindowSpec::new(20, 2, 5).unwrap();
//! let mut sap = Sap::new(SapConfig::new(spec));
//! let batch: Vec<Object> = (0..5).map(|i| Object::new(i, i as f64)).collect();
//! assert_eq!(sap.slide(&batch)[0].score, 4.0);
//! ```

use std::collections::VecDeque;

use sap_stats::{MannWhitney, PaperParams, RankSumDecision};
use sap_stream::{Object, OpStats, ScoreKey, SlidingTopK, WindowSpec};

use crate::candidates::CandidateList;
use crate::config::{MeaningfulMode, PartitionPolicy, SapConfig};
use crate::meaningful::{rebuild_savl, MSet, SegmentedM, SortedM};
use crate::partition::{LiEntry, SealedPartition, UnitMeta};
use crate::topk_buffer::TopKBuffer;
use crate::units::Tbui;

/// The front partition together with its formation state.
#[derive(Debug)]
struct FrontState {
    partition: SealedPartition,
    /// Group dominance number at promotion time.
    rho: usize,
    /// The meaningful set, absent when `ρ ≥ k` proved it empty.
    mset: Option<MSet>,
}

/// The SAP continuous top-k engine.
#[derive(Debug)]
pub struct Sap {
    cfg: SapConfig,
    params: PaperParams,
    wrt: MannWhitney,
    unit_target: usize,

    arrived: u64,
    next_pid: u32,

    // the unit currently accumulating
    unit_buf: Vec<Object>,
    unit_pk: TopKBuffer,
    // the partition currently growing (completed units only)
    live_objects: Vec<Object>,
    live_units: Vec<UnitMeta>,
    live_pk: TopKBuffer,
    tbui: Option<Tbui>,

    // sealed partitions, oldest first (front excluded)
    sealed: VecDeque<SealedPartition>,
    front: Option<FrontState>,
    cands: CandidateList,

    // scratch buffers (reused every slide)
    result: Vec<Object>,
    pool: Vec<ScoreKey>,
    sample1: Vec<f64>,
    sample2: Vec<f64>,
    // recycled partition buffers: a fully expired partition's Vecs come
    // back here (cleared, capacity kept) and the next seal reuses them,
    // so steady-state sealing allocates nothing
    spare_objects: Vec<Object>,
    spare_units: Vec<UnitMeta>,
    spare_pk: Vec<ScoreKey>,
    /// The previous front's meaningful set, kept as a carcass: the next
    /// formation resets and reuses its buffers (see `form_mset`).
    spare_mset: Option<MSet>,
    /// Recycled `L_i` key lists harvested from expired units, recycled
    /// into TBUI's next unit label.
    spare_labels: Vec<Vec<ScoreKey>>,
    stats: OpStats,

    /// The current k-th result key; `None` while the result is not full.
    last_kth: Option<ScoreKey>,
    /// Whether any event since the last recomputation could have changed
    /// the top-k. The paper reports results only "when they are changed"
    /// (§4.1); an unchanged result is reused without touching any
    /// structure, and [`SlidingTopK::slide_if_changed`] reports it, so
    /// delta consumers emit `Unchanged` in O(1).
    dirty: bool,
}

impl Sap {
    /// Builds the engine from a configuration.
    pub fn new(cfg: SapConfig) -> Self {
        let spec = cfg.spec;
        let params = cfg.params();
        let unit_target = match cfg.policy {
            PartitionPolicy::Equal { .. } => cfg.equal_partition_size(),
            PartitionPolicy::Dynamic | PartitionPolicy::EnhancedDynamic => {
                // l_min rounded up to a slide multiple, capped by the window
                (params.lmin.div_ceil(spec.s) * spec.s).min(spec.n)
            }
        };
        let tbui =
            matches!(cfg.policy, PartitionPolicy::EnhancedDynamic).then(|| Tbui::new(spec.k));
        Sap {
            cfg,
            params,
            wrt: MannWhitney::new(cfg.alpha),
            unit_target,
            arrived: 0,
            next_pid: 0,
            unit_buf: Vec::with_capacity(unit_target),
            unit_pk: TopKBuffer::new(spec.k),
            live_objects: Vec::new(),
            live_units: Vec::new(),
            live_pk: TopKBuffer::new(spec.k),
            tbui,
            sealed: VecDeque::new(),
            front: None,
            cands: CandidateList::new(spec.k),
            result: Vec::with_capacity(spec.k),
            pool: Vec::with_capacity(4 * spec.k),
            sample1: Vec::with_capacity(spec.k),
            sample2: Vec::with_capacity(params.eta_k),
            spare_objects: Vec::new(),
            spare_units: Vec::new(),
            spare_pk: Vec::new(),
            spare_mset: None,
            spare_labels: Vec::new(),
            stats: OpStats::default(),
            last_kth: None,
            dirty: true,
        }
    }

    /// Convenience constructor: the paper's default SAP (enhanced dynamic
    /// partition with S-AVL).
    pub fn with_spec(spec: WindowSpec) -> Self {
        Sap::new(SapConfig::new(spec))
    }

    /// The unit/partition target size chosen at construction (diagnostics).
    pub fn unit_target(&self) -> usize {
        self.unit_target
    }

    /// Number of currently sealed, non-front partitions (diagnostics).
    pub fn sealed_partitions(&self) -> usize {
        self.sealed.len()
    }

    /// The size of the candidate set `C` alone (Appendix E counts this
    /// plus `M_0`; see `candidate_count`).
    pub fn candidate_list_len(&self) -> usize {
        self.cands.len()
    }

    /// The group dominance number ρ of the current front partition, if one
    /// is active (diagnostics; Definition 1).
    pub fn front_rho(&self) -> Option<usize> {
        self.front.as_ref().map(|f| f.rho)
    }

    // ----- arrivals --------------------------------------------------------

    fn on_object(&mut self, o: Object) {
        let key = o.key();
        self.unit_buf.push(o);
        if self.unit_pk.offer(key) {
            self.stats.insertions += 1;
            // an accepted arrival can only change the top-k if it outranks
            // the current k-th (rejected arrivals have k higher unit-mates
            // alive and cannot be results)
            if self.last_kth.is_none_or(|t| key > t) {
                self.dirty = true;
            }
        }
        if let Some(tbui) = &mut self.tbui {
            tbui.on_object(key);
        }
        if self.unit_buf.len() >= self.unit_target {
            self.complete_unit();
        }
    }

    fn unit_label(&mut self) -> Option<LiEntry> {
        let tbui = self.tbui.as_mut()?;
        let unit_max = self.unit_pk.max().expect("completed unit is non-empty");
        // hand TBUI a recycled key list for the label it is about to emit
        let spare = self.spare_labels.pop().unwrap_or_default();
        let label = tbui.on_unit_complete(unit_max, spare, &mut self.stats);
        if label.demote_previous {
            // demote the previous provisional k-unit in the live partition
            // (take the label only after matching, so a non-KUnit entry —
            // impossible under TBUI's invariant, but cheap to not rely
            // on — is left untouched rather than erased)
            if let Some(last) = self.live_units.last_mut() {
                if matches!(last.li, Some(LiEntry::KUnit { .. })) {
                    if let Some(LiEntry::KUnit { keys }) = last.li.take() {
                        last.li = Some(LiEntry::NonK { top: keys[0] });
                        self.stash_label(keys);
                    }
                }
            }
        }
        Some(label.entry)
    }

    /// Returns a unit-label key list to the spare pool (bounded so a burst
    /// of k-units cannot grow it without limit).
    fn stash_label(&mut self, mut keys: Vec<ScoreKey>) {
        if self.spare_labels.len() < 32 && keys.capacity() > 0 {
            keys.clear();
            self.spare_labels.push(keys);
        }
    }

    fn complete_unit(&mut self) {
        let li = self.unit_label();
        match self.cfg.policy {
            PartitionPolicy::Equal { .. } => {
                // each unit is a whole partition
                debug_assert!(self.live_objects.is_empty());
                self.absorb_unit(li);
                self.seal_live();
            }
            PartitionPolicy::Dynamic | PartitionPolicy::EnhancedDynamic => {
                if self.live_objects.is_empty() {
                    self.absorb_unit(li);
                    return;
                }
                let improper = self.evaluate_wrt();
                let too_big = self.live_objects.len() + self.unit_buf.len() > self.params.lmax;
                if improper || too_big {
                    self.seal_live();
                }
                self.absorb_unit(li);
            }
        }
    }

    /// Appends the completed unit to the live partition.
    fn absorb_unit(&mut self, li: Option<LiEntry>) {
        let start = self.live_objects.len();
        self.live_objects.append(&mut self.unit_buf);
        let end = self.live_objects.len();
        self.live_units.push(UnitMeta { start, end, li });
        self.live_pk.absorb(&self.unit_pk);
        self.unit_pk.clear();
    }

    /// The WRT evaluation of §4.2 (Eq. 2): do the top-k of the would-be
    /// partition `P'_m = live ∪ unit` tend to exceed the top-ηk candidates
    /// of the preceding window interval `I`?
    fn evaluate_wrt(&mut self) -> bool {
        let k = self.cfg.spec.k;
        self.sample1.clear();
        {
            let mut a = self.live_pk.iter_desc().peekable();
            let mut b = self.unit_pk.iter_desc().peekable();
            while self.sample1.len() < k {
                let take_a = match (a.peek(), b.peek()) {
                    (Some(x), Some(y)) => x > y,
                    (Some(_), None) => true,
                    (None, Some(_)) => false,
                    (None, None) => break,
                };
                let key = if take_a { a.next() } else { b.next() }.expect("peeked");
                self.sample1.push(key.score);
            }
        }
        let p_size = (self.live_objects.len() + self.unit_buf.len()) as u64;
        let t0 = self.arrived_now();
        let lo = t0.saturating_sub(self.cfg.spec.n as u64) + p_size;
        self.cands
            .top_scores_in_id_range(lo.min(t0), t0, self.params.eta_k, &mut self.sample2);
        self.stats.wrt_tests += 1;
        let outcome = self.wrt.tends_greater(&self.sample1, &self.sample2);
        outcome.decision == RankSumDecision::Sample1Greater
    }

    /// The id one past the newest object currently absorbed (`t_0` in the
    /// WRT interval of §4.2).
    fn arrived_now(&self) -> u64 {
        self.unit_buf
            .last()
            .or_else(|| self.live_objects.last())
            .map(|o| o.id + 1)
            .unwrap_or(0)
    }

    /// Seals the live partition: merge its `P^k` into `C` (Figure 4) and
    /// queue it. With delayed formation off, its meaningful set is formed
    /// immediately (the Table 2 "non-delay" variant) — without global
    /// pruning, because `F_θ` is only valid once later partitions exist.
    fn seal_live(&mut self) {
        if self.live_objects.is_empty() {
            return;
        }
        let pid = self.next_pid;
        self.next_pid += 1;
        // recycled buffers: the seal hands the live Vecs to the partition
        // and re-arms the live set with a reclaimed (empty) pair
        let mut pk_desc = std::mem::take(&mut self.spare_pk);
        self.live_pk.desc_into(&mut pk_desc);
        self.cands.merge_seal(pid, &pk_desc, &mut self.stats);
        let mut partition = SealedPartition {
            pid,
            objects: std::mem::replace(
                &mut self.live_objects,
                std::mem::take(&mut self.spare_objects),
            ),
            pk_desc,
            units: std::mem::replace(&mut self.live_units, std::mem::take(&mut self.spare_units)),
            expired_upto: 0,
            premade: None,
        };
        if !self.cfg.delay_formation {
            self.stats.meaningful_sets_formed += 1;
            partition.premade = Some(self.form_mset(&partition, None, self.cfg.spec.k));
        }
        self.live_pk.clear();
        self.sealed.push_back(partition);
    }

    /// Forms the meaningful set of `partition` in the configured
    /// representation — on the carcass of the previously expired front's
    /// set when one is available, so steady-state formation runs on
    /// recycled buffers (the representation is fixed per engine, so the
    /// carcass always matches).
    fn form_mset(
        &mut self,
        partition: &SealedPartition,
        f_theta: Option<f64>,
        budget: usize,
    ) -> MSet {
        let (s, k) = (self.cfg.spec.s, self.cfg.spec.k);
        let carcass = self.spare_mset.take();
        match self.cfg.meaningful_mode() {
            MeaningfulMode::Sorted => {
                let old = match carcass {
                    Some(MSet::Sorted(m)) => Some(m),
                    _ => None,
                };
                MSet::Sorted(SortedM::rebuild(
                    old,
                    &partition.objects,
                    partition.expired_upto,
                    &partition.pk_desc,
                    f_theta,
                    budget,
                    s,
                    k,
                    &mut self.stats,
                ))
            }
            MeaningfulMode::SAvl => {
                let old = match carcass {
                    Some(MSet::SAvl(m)) => Some(m),
                    _ => None,
                };
                MSet::SAvl(rebuild_savl(
                    old,
                    &partition.objects,
                    partition.expired_upto,
                    &partition.pk_desc,
                    f_theta,
                    budget,
                    s,
                    k,
                    &mut self.stats,
                ))
            }
            MeaningfulMode::Segmented => {
                let old = match carcass {
                    Some(MSet::Segmented(m)) => Some(m),
                    _ => None,
                };
                MSet::Segmented(SegmentedM::rebuild(
                    old,
                    partition,
                    f_theta,
                    budget,
                    s,
                    k,
                    &mut self.stats,
                ))
            }
        }
    }

    // ----- expiry ----------------------------------------------------------

    fn promote_front(&mut self) {
        let partition = self
            .sealed
            .pop_front()
            .expect("promotion needs a partition");
        let k = self.cfg.spec.k;
        let rho = partition
            .pivot()
            .map(|pv| self.cands.rho(pv, partition.pid))
            .unwrap_or(k);
        let mset = if rho >= k {
            self.stats.meaningful_sets_skipped += 1;
            None
        } else if partition.premade.is_some() {
            // non-delay variant: take the premade set
            let mut p = partition;
            let m = p.premade.take();
            self.front = Some(FrontState {
                partition: p,
                rho,
                mset: m,
            });
            return;
        } else {
            self.stats.meaningful_sets_formed += 1;
            let f_theta = self.cands.f_theta(partition.pid);
            Some(self.form_mset(&partition, f_theta, k - rho))
        };
        self.front = Some(FrontState {
            partition,
            rho,
            mset,
        });
        self.dirty = true;
    }

    fn expire(&mut self, cutoff: u64) {
        loop {
            if self.front.is_none() {
                let needs_front = self
                    .sealed
                    .front()
                    .is_some_and(|p| p.objects.first().is_some_and(|o| o.id < cutoff));
                if needs_front {
                    self.promote_front();
                } else if self.sealed.is_empty() && self.expiry_overruns_live(cutoff) {
                    // degenerate geometry (k ≈ n): the live partition would
                    // expire before sealing — force a seal and retry
                    self.force_seal_all();
                    continue;
                } else {
                    break;
                }
            }

            let fs = self.front.as_mut().expect("front ensured above");
            let FrontState {
                partition, mset, ..
            } = fs;
            while partition.expired_upto < partition.objects.len()
                && partition.objects[partition.expired_upto].id < cutoff
            {
                let key = partition.objects[partition.expired_upto].key();
                partition.expired_upto += 1;
                if self.last_kth.is_none_or(|t| key >= t) {
                    self.dirty = true;
                }
                if self.cands.remove(&key).is_some() {
                    self.stats.deletions += 1;
                    if let Some(m) = mset.as_mut() {
                        if let Some(pull) = m.pop_max(cutoff, partition, &mut self.stats) {
                            self.cands.insert_pulled(pull, partition.pid);
                            self.stats.insertions += 1;
                        }
                    }
                }
            }
            if let Some(m) = mset.as_mut() {
                m.advance(partition, &mut self.stats);
            }
            if partition.fully_expired() {
                let done = self.front.take().expect("front present");
                self.reclaim(done);
                continue;
            }
            break;
        }
    }

    /// Returns a fully expired front's buffers to the spare pools
    /// (cleared, capacity kept): the partition's three Vecs (keeping the
    /// larger of old and new capacity per slot), its units' label key
    /// lists, and the meaningful-set carcass. The next seal and unit
    /// label then allocate nothing, and formation runs on recycled
    /// S-AVL/entry buffers (its remaining transient allocations — e.g.
    /// `SortedM`'s Fenwick sweep — are amortized per partition, not per
    /// slide).
    fn reclaim(&mut self, front: FrontState) {
        let FrontState {
            partition, mset, ..
        } = front;
        let SealedPartition {
            mut objects,
            mut units,
            mut pk_desc,
            premade,
            ..
        } = partition;
        if let Some(m) = mset.or(premade) {
            self.spare_mset = Some(m);
        }
        for unit in units.iter_mut() {
            if let Some(LiEntry::KUnit { keys }) = unit.li.take() {
                self.stash_label(keys);
            }
        }
        if objects.capacity() > self.spare_objects.capacity() {
            objects.clear();
            self.spare_objects = objects;
        }
        if units.capacity() > self.spare_units.capacity() {
            units.clear();
            self.spare_units = units;
        }
        if pk_desc.capacity() > self.spare_pk.capacity() {
            pk_desc.clear();
            self.spare_pk = pk_desc;
        }
    }

    fn expiry_overruns_live(&self, cutoff: u64) -> bool {
        let oldest_live = self
            .live_objects
            .first()
            .or(self.unit_buf.first())
            .map(|o| o.id);
        oldest_live.is_some_and(|id| id < cutoff)
    }

    /// Emergency seal for degenerate window geometries where partitions
    /// cannot finish growing before their objects expire.
    fn force_seal_all(&mut self) {
        if self.live_objects.is_empty() && self.unit_buf.is_empty() {
            return;
        }
        if !self.unit_buf.is_empty() {
            let li = self.unit_label();
            self.absorb_unit(li);
        }
        self.seal_live();
        self.dirty = true;
    }

    // ----- results ---------------------------------------------------------

    fn compute_result(&mut self, cutoff: u64) {
        let k = self.cfg.spec.k;
        // Merge the three always-sorted sources first: the candidate list C
        // supplies most results, so its head is bulk-copied while it beats
        // the other heads (one comparison per emitted key).
        let mut it_c = self.cands.iter_desc().peekable();
        let mut it_l = self.live_pk.iter_desc().peekable();
        let mut it_u = self.unit_pk.iter_desc().peekable();
        self.result.clear();
        let mut last: Option<ScoreKey> = None;
        let mut others_max: Option<ScoreKey> = None;
        let mut refresh_others = true;
        while self.result.len() < k {
            if refresh_others {
                others_max = None;
                for head in [it_l.peek().copied(), it_u.peek().copied()]
                    .into_iter()
                    .flatten()
                {
                    if others_max.is_none_or(|b| *head > b) {
                        others_max = Some(*head);
                    }
                }
                refresh_others = false;
            }
            match (it_c.peek(), others_max) {
                (Some(&&key), om) if om.is_none_or(|b| key > b) => {
                    it_c.next();
                    if last != Some(key) {
                        last = Some(key);
                        self.result.push(key.to_object());
                    }
                }
                (_, Some(best)) => {
                    if it_l.peek() == Some(&&best) {
                        it_l.next();
                    } else {
                        it_u.next();
                    }
                    refresh_others = true;
                    if last != Some(best) {
                        last = Some(best);
                        self.result.push(best.to_object());
                    }
                }
                (None, None) => break,
                (Some(_), None) => unreachable!("guard accepts any head when no rivals"),
            }
        }

        // The meaningful set M_0 rarely reaches the top-k (its entries sit
        // below the front partition's P^k). Check its readily available
        // tops against the current k-th and splice in the rare winners.
        let Some(m) = self.front.as_ref().and_then(|f| f.mset.as_ref()) else {
            return;
        };
        let threshold = if self.result.len() >= k {
            self.result.last().map(|o| o.key())
        } else {
            None
        };
        if let Some(t) = threshold {
            if m.max_key().is_none_or(|mk| mk <= t) {
                return; // fast path: nothing in M_0 can enter the result
            }
        }
        self.pool.clear();
        m.tops_desc_into(k, &mut self.pool);
        self.pool.retain(|key| key.id >= cutoff);
        self.pool.sort_unstable_by(|a, b| b.cmp(a));
        for key in &self.pool {
            let pos = self
                .result
                .binary_search_by(|o| key.cmp(&o.key()))
                .unwrap_or_else(|p| p);
            if pos >= k {
                break; // descending M tops: the rest rank even lower
            }
            self.result.insert(pos, key.to_object());
            self.result.truncate(k);
        }
    }

    /// Processes one slide (see [`SlidingTopK::slide`]), returning whether
    /// the top-k was recomputed: `false` proves it unchanged.
    fn advance(&mut self, batch: &[Object]) -> bool {
        debug_assert_eq!(batch.len(), self.cfg.spec.s, "driver must feed full slides");
        debug_assert_eq!(
            batch.first().map(|o| o.id),
            Some(self.arrived),
            "object ids must equal their arrival ordinal (0-based)"
        );
        for &o in batch {
            self.on_object(o);
        }
        self.arrived += batch.len() as u64;
        let cutoff = self.arrived.saturating_sub(self.cfg.spec.n as u64);
        if cutoff > 0 {
            self.expire(cutoff);
        }
        if !self.dirty {
            return false;
        }
        self.compute_result(cutoff);
        self.last_kth = if self.result.len() >= self.cfg.spec.k {
            self.result.last().map(|o| o.key())
        } else {
            None
        };
        self.dirty = false;
        true
    }
}

impl SlidingTopK for Sap {
    fn spec(&self) -> WindowSpec {
        self.cfg.spec
    }

    fn slide(&mut self, batch: &[Object]) -> &[Object] {
        self.advance(batch);
        &self.result
    }

    fn candidate_count(&self) -> usize {
        self.cands.len()
            + self.live_pk.len()
            + self.unit_pk.len()
            + self
                .front
                .as_ref()
                .and_then(|f| f.mset.as_ref())
                .map_or(0, MSet::len)
    }

    fn memory_bytes(&self) -> usize {
        let mset = self
            .front
            .as_ref()
            .and_then(|f| f.mset.as_ref())
            .map_or(0, MSet::memory_bytes);
        let sealed_meta: usize = self.sealed.iter().map(|p| p.metadata_bytes()).sum();
        let front_meta = self
            .front
            .as_ref()
            .map_or(0, |f| f.partition.metadata_bytes());
        self.cands.memory_bytes()
            + self.live_pk.memory_bytes()
            + self.unit_pk.memory_bytes()
            + mset
            + sealed_meta
            + front_meta
    }

    fn stats(&self) -> OpStats {
        self.stats
    }

    fn slide_if_changed(&mut self, batch: &[Object]) -> Option<&[Object]> {
        self.advance(batch).then_some(&self.result)
    }

    fn name(&self) -> &str {
        match (self.cfg.policy, self.cfg.delay_formation, self.cfg.use_savl) {
            (PartitionPolicy::Equal { .. }, false, _) => "SAP-equal-nondelay",
            (PartitionPolicy::Equal { .. }, true, false) => "SAP-equal",
            (PartitionPolicy::Equal { .. }, true, true) => "SAP-equal+savl",
            (PartitionPolicy::Dynamic, _, _) => "SAP-dyna",
            (PartitionPolicy::EnhancedDynamic, _, _) => "SAP",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sap_baselines::NaiveTopK;
    use sap_stream::generators::{Dataset, Workload};
    use sap_stream::run_collecting;

    fn configs(spec: WindowSpec) -> Vec<SapConfig> {
        vec![
            SapConfig::equal(spec, None),
            SapConfig::equal(spec, Some(3)),
            SapConfig::equal(spec, None).without_savl(),
            SapConfig::equal(spec, None).without_delay(),
            SapConfig::dynamic(spec),
            SapConfig::enhanced(spec),
        ]
    }

    fn check(ds: Dataset, len: usize, n: usize, k: usize, s: usize, seed: u64) {
        let data = ds.generate(len, seed);
        let spec = WindowSpec::new(n, k, s).unwrap();
        let (_, expect) = run_collecting(&mut NaiveTopK::new(spec), &data);
        for cfg in configs(spec) {
            let mut alg = Sap::new(cfg);
            let name = alg.name().to_string();
            let (_, got) = run_collecting(&mut alg, &data);
            assert_eq!(
                got,
                expect,
                "{name} diverged: {} n={n} k={k} s={s} seed={seed}",
                ds.name()
            );
        }
    }

    #[test]
    fn matches_oracle_random() {
        check(Dataset::TimeU, 2000, 100, 5, 10, 1);
    }

    #[test]
    fn matches_oracle_random_s1() {
        check(Dataset::TimeU, 800, 60, 4, 1, 2);
    }

    #[test]
    fn matches_oracle_decreasing() {
        check(Dataset::Decreasing, 900, 90, 5, 9, 3);
    }

    #[test]
    fn matches_oracle_increasing() {
        check(Dataset::Increasing, 900, 90, 5, 9, 4);
    }

    #[test]
    fn matches_oracle_constant_ties() {
        check(Dataset::Constant, 500, 50, 4, 5, 5);
    }

    #[test]
    fn matches_oracle_sawtooth() {
        check(Dataset::Sawtooth { ramp: 33 }, 1500, 120, 6, 10, 6);
    }

    #[test]
    fn matches_oracle_timer() {
        check(Dataset::TimeR { period: 200.0 }, 1600, 100, 5, 10, 7);
    }

    #[test]
    fn matches_oracle_stock_like() {
        check(Dataset::Stock, 2000, 100, 5, 10, 8);
    }

    #[test]
    fn matches_oracle_s_greater_than_k() {
        check(Dataset::TimeU, 2000, 200, 4, 50, 9);
    }

    #[test]
    fn matches_oracle_k_greater_than_s() {
        check(Dataset::TimeU, 1200, 120, 30, 6, 10);
    }

    #[test]
    fn matches_oracle_tumbling() {
        check(Dataset::TimeU, 600, 60, 5, 60, 11);
    }

    #[test]
    fn matches_oracle_k_close_to_n() {
        // degenerate geometry exercising the force-seal path
        check(Dataset::TimeU, 400, 40, 20, 4, 12);
        check(Dataset::TimeU, 300, 30, 29, 3, 13);
    }

    #[test]
    fn equal_partition_candidate_bound_eq1() {
        // Eq. (1): |C ∪ M0| ≤ (m−1)k + p·k/max(s,k) at any time
        let data = Dataset::TimeU.generate(20_000, 14);
        let spec = WindowSpec::new(1000, 10, 10).unwrap();
        let cfg = SapConfig::equal(spec, None);
        let mut alg = Sap::new(cfg);
        let p = alg.unit_target();
        let m = spec.n.div_ceil(p);
        let summary = sap_stream::run(&mut alg, &data);
        let bound = ((m) * spec.k) as f64
            + (p as f64 * spec.k as f64 / spec.s.max(spec.k) as f64)
            + 2.0 * spec.k as f64; // live pk + unit pk
        assert!(
            summary.peak_candidates as f64 <= bound,
            "peak {} exceeds Eq.(1) bound {bound}",
            summary.peak_candidates
        );
    }

    #[test]
    fn delay_policy_skips_meaningful_sets() {
        // On a random stream most partitions have ρ ≥ k by the time they
        // reach the front — the delayed policy should skip most formations.
        let data = Dataset::TimeU.generate(30_000, 15);
        let spec = WindowSpec::new(1000, 10, 10).unwrap();
        let mut delayed = Sap::new(SapConfig::equal(spec, None));
        sap_stream::run(&mut delayed, &data);
        let d = delayed.stats();
        let mut eager = Sap::new(SapConfig::equal(spec, None).without_delay());
        sap_stream::run(&mut eager, &data);
        let e = eager.stats();
        assert!(
            d.meaningful_sets_formed < e.meaningful_sets_formed,
            "delay ({}) must form fewer sets than non-delay ({})",
            d.meaningful_sets_formed,
            e.meaningful_sets_formed
        );
        assert!(d.meaningful_sets_skipped > 0);
    }

    #[test]
    fn dynamic_merges_partitions_on_uniform_streams() {
        // With a stationary distribution the WRT keeps accepting merges, so
        // dynamic partitions should be larger than l_min on average.
        let data = Dataset::TimeU.generate(30_000, 16);
        let spec = WindowSpec::new(2000, 10, 10).unwrap();
        let mut alg = Sap::new(SapConfig::dynamic(spec));
        sap_stream::run(&mut alg, &data);
        let s = alg.stats();
        assert!(s.wrt_tests > 0, "WRT must have been consulted");
        // sealed partitions per window: fewer than units per window
        let units_per_window = spec.n / alg.unit_target();
        let windows = 30_000 / spec.n;
        assert!(
            (s.partitions_sealed as usize) < units_per_window * windows,
            "dynamic policy never merged: {} seals",
            s.partitions_sealed
        );
    }
}
