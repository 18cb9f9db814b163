//! BOOM's issue queues: collapsing (the shipped design) and a
//! non-collapsing alternative for the Key Takeaway #5 ablation.
//!
//! BOOM deploys age-ordered *collapsing* queues: when an entry issues, all
//! younger entries shift down to fill the hole. This maximizes utilization
//! and keeps select trivial (position = age) but pays register writes for
//! every shift — the energy-efficiency trade-off the paper highlights as
//! Key Takeaway #5 and proposes studying against other implementations.
//! [`IssueQueueKind::NonCollapsing`] is that alternative: entries stay put
//! (no shift writes) and an age-ordered select network picks the oldest
//! ready entry instead.
//!
//! The queue tracks per-slot occupancy and write counts so the power model
//! can reproduce the paper's Fig. 8 (per-slot power of Dijkstra vs Sha).
//!
//! # Layout
//!
//! Every *activity counter* of the collapsing queue — insert position,
//! shift count, per-slot writes and residency — is a function of logical
//! (age-order) positions only, never of where entries sit in host memory.
//! That licenses a cheap host representation: entries sit still in a
//! pool, and the age order is a ring of pool indices where logical
//! position `i` lives at ring index `(head + i) & mask`. Issuing the
//! oldest entry is a head bump instead of memmoving the whole queue, and
//! mid-queue removals shift one-word indices on whichever side of the
//! holes holds fewer entries. The modeled collapse energy
//! (`collapse_writes`, `slot_writes`) is still charged from the logical
//! positions, so the power inputs are bit-identical to the naive
//! shift-everything layout.
//!
//! # Event-driven bookkeeping
//!
//! The hardware compares every waiting entry against every broadcast tag
//! and charges every occupied slot every cycle; the model charges those
//! costs as counters but does host work only per event:
//!
//! * **Wakeup.** Each pending source is a node in a doubly linked waiter
//!   list of its physical tag, linked at insert. A broadcast drains just
//!   that tag's list; squashed or removed entries unlink their nodes, so
//!   a list only ever names live pending sources. `wakeup_cam_matches`
//!   is still charged as the occupancy per broadcast.
//! * **Select.** A ready bitset — by logical position for the collapsing
//!   flavour (a collapse removes one bit and shifts the bits above it
//!   down), by physical slot for the non-collapsing one (whose select
//!   then sorts the ready entries by sequence number) — replaces the
//!   pending-mask scan. It spans as many words as the capacity needs.
//! * **Per-slot counters.** Residency is kept as per-slot edge stamps
//!   (a slot becoming occupied subtracts the queue's tick count, becoming
//!   free adds it back) and collapse writes as a difference array, so a
//!   tick is one increment. [`IssueQueue::flush_stats`] folds both into
//!   [`IssueQueueStats`]; the core flushes before it hands control (and
//!   its stats) back to a caller.

use crate::regfile::PReg;
use crate::rob::SrcPhys;
use crate::stats::IssueQueueStats;

/// "No node" / "no source" sentinel.
const NIL: u32 = u32::MAX;

/// One issue-queue entry: a uop's identity, its renamed sources as tag
/// indices (`NIL` = no source), which of them are still outstanding, and
/// the waiter-list links of each source.
#[derive(Clone, Copy, Debug)]
struct Slot {
    seq: u64,
    tags: [u32; 3],
    pending: u8,
    links: [Link; 3],
}

impl Default for Slot {
    fn default() -> Slot {
        Slot { seq: 0, tags: [NIL; 3], pending: 0, links: [Link { prev: NIL, next: NIL }; 3] }
    }
}

/// The links of one (entry, source) node in its tag's doubly linked
/// waiter list. Node `node(idx, k)` is source `k` of pool entry `idx`;
/// it is linked exactly while that entry is live with pending bit `k`
/// set.
#[derive(Clone, Copy, Debug)]
struct Link {
    prev: u32,
    next: u32,
}

/// Waiter-list node id of source `k` of pool entry `idx`.
#[inline]
fn node(idx: usize, k: usize) -> u32 {
    (idx << 2 | k) as u32
}

/// A fixed-width bitset over queue positions.
#[derive(Clone, Debug)]
struct Bits(Vec<u64>);

impl Bits {
    fn new(n: usize) -> Bits {
        Bits(vec![0; n.div_ceil(64).max(1)])
    }

    #[inline]
    fn test(&self, i: usize) -> bool {
        (self.0[i / 64] >> (i % 64)) & 1 != 0
    }

    #[inline]
    fn set(&mut self, i: usize) {
        self.0[i / 64] |= 1 << (i % 64);
    }

    #[inline]
    fn clear(&mut self, i: usize) {
        self.0[i / 64] &= !(1 << (i % 64));
    }

    /// Lowest set bit in `from..end`.
    #[inline]
    fn next_set(&self, from: usize, end: usize) -> Option<usize> {
        let mut wi = from / 64;
        let mut w = self.0.get(wi)? & (u64::MAX << (from % 64));
        loop {
            if w != 0 {
                let i = wi * 64 + w.trailing_zeros() as usize;
                return (i < end).then_some(i);
            }
            wi += 1;
            if wi * 64 >= end {
                return None;
            }
            w = self.0[wi];
        }
    }

    /// Calls `f` with every set bit below `end`, ascending.
    #[inline]
    fn for_each_below(&self, end: usize, mut f: impl FnMut(usize)) {
        for (wi, &word) in self.0[..end.div_ceil(64)].iter().enumerate() {
            let mut w = word;
            while w != 0 {
                f(wi * 64 + w.trailing_zeros() as usize);
                w &= w - 1;
            }
        }
    }

    /// Deletes bit `pos` and shifts the bits above it down by one,
    /// touching only the words below `end`.
    fn remove_shift(&mut self, pos: usize, end: usize) {
        let words = end.div_ceil(64);
        let (w0, low) = (pos / 64, (1u64 << (pos % 64)) - 1);
        for w in w0..words {
            let carry = if w + 1 < words { self.0[w + 1] << 63 } else { 0 };
            let word = self.0[w];
            let low = if w == w0 { low } else { 0 };
            self.0[w] = (word & low) | ((word >> 1) & !low) | carry;
        }
    }
}

/// Which issue-queue implementation a core uses (Key Takeaway #5 ablation).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum IssueQueueKind {
    /// BOOM's age-compacting queue (entries shift on every dequeue).
    #[default]
    Collapsing,
    /// Entries keep their slot; age is tracked explicitly and selection
    /// uses an age-ordered picker. No shift writes, bigger select logic.
    NonCollapsing,
}

/// An issue queue holding uop sequence numbers.
///
/// Both implementations expose the same interface: [`IssueQueue::candidates`]
/// yields `(slot, seq)` pairs oldest-first — logical age positions for the
/// collapsing flavour, physical slots for the non-collapsing one — and
/// [`IssueQueue::remove_slots`] removes issued entries by those indices.
///
/// Per-slot residency and collapse writes accumulate inside the queue;
/// call [`IssueQueue::flush_stats`] before reading
/// [`IssueQueueStats::slot_occupancy`] or [`IssueQueueStats::slot_writes`].
#[derive(Clone, Debug)]
pub struct IssueQueue {
    kind: IssueQueueKind,
    /// Entry pool. Entries never move while queued; a non-collapsing
    /// queue's pool index is the entry's physical slot.
    slots: Vec<Slot>,
    /// Free pool entries.
    free: Bits,
    /// Age order of the collapsing flavour: a ring of pool indices sized
    /// to the next power of two, logical position `i` at `(head + i) & mask`.
    order: Vec<u32>,
    /// Ring index of each pool entry (collapsing only) — the inverse of
    /// `order`, so a woken entry finds its logical position.
    ring_of: Vec<u32>,
    /// Ring origin (collapsing only).
    head: usize,
    /// Ring index mask (collapsing only).
    mask: usize,
    /// First node of each tag's waiter list: integer pregs first, then
    /// FP pregs from `int_tags` on.
    heads: Vec<u32>,
    int_tags: usize,
    /// Entries whose pending mask is clear, by logical position
    /// (collapsing) or physical slot (non-collapsing).
    ready_bits: Bits,
    occupied: usize,
    /// Population of `ready_bits` — lets the issue stage skip the queue
    /// entirely when nothing can select.
    ready: usize,
    capacity: usize,
    /// Ticks charged since the last flush.
    ticks: u64,
    /// Per-slot residency since the last flush, minus `ticks` for every
    /// slot occupied now (wrapping): a slot's residency is this plus
    /// `ticks` if it is occupied at flush time.
    occ_stamps: Vec<u64>,
    /// Difference array of collapse writes per logical position.
    write_diff: Vec<u64>,
}

impl IssueQueue {
    /// Creates a queue of the given kind with `capacity` slots whose
    /// sources name integer pregs below `int_pregs` and FP pregs below
    /// `fp_pregs`.
    pub fn new(
        kind: IssueQueueKind,
        capacity: usize,
        int_pregs: usize,
        fp_pregs: usize,
    ) -> IssueQueue {
        let ring = match kind {
            IssueQueueKind::Collapsing => capacity.next_power_of_two().max(1),
            IssueQueueKind::NonCollapsing => 0,
        };
        let mut free = Bits::new(capacity);
        (0..capacity).for_each(|i| free.set(i));
        IssueQueue {
            kind,
            slots: vec![Slot::default(); capacity],
            free,
            order: vec![0; ring],
            ring_of: vec![0; if ring == 0 { 0 } else { capacity }],
            head: 0,
            mask: ring.max(1) - 1,
            heads: vec![NIL; int_pregs + fp_pregs],
            int_tags: int_pregs,
            ready_bits: Bits::new(capacity),
            occupied: 0,
            ready: 0,
            capacity,
            ticks: 0,
            occ_stamps: vec![0; capacity],
            write_diff: vec![0; capacity],
        }
    }

    /// Ring index of logical (age) position `i` (collapsing).
    #[inline]
    fn ring(&self, i: usize) -> usize {
        (self.head + i) & self.mask
    }

    /// The position pool entry `idx` is reported (and ready-tracked) at.
    #[inline]
    fn position(&self, idx: usize) -> usize {
        match self.kind {
            IssueQueueKind::Collapsing => {
                (self.ring_of[idx] as usize).wrapping_sub(self.head) & self.mask
            }
            IssueQueueKind::NonCollapsing => idx,
        }
    }

    /// The pool entry at a reported position.
    #[inline]
    fn entry_at(&self, pos: usize) -> usize {
        match self.kind {
            IssueQueueKind::Collapsing => self.order[self.ring(pos)] as usize,
            IssueQueueKind::NonCollapsing => pos,
        }
    }

    /// Places pool entry `idx` at ring index `r` (collapsing).
    #[inline]
    fn place(&mut self, idx: usize, r: usize) {
        self.order[r] = idx as u32;
        self.ring_of[idx] = r as u32;
    }

    #[inline]
    fn tag_index(&self, src: Option<SrcPhys>) -> u32 {
        match src {
            None => NIL,
            Some(SrcPhys::Int(p)) => u32::from(p),
            Some(SrcPhys::Fp(p)) => (self.int_tags + usize::from(p)) as u32,
        }
    }

    /// The implementation flavour.
    pub fn kind(&self) -> IssueQueueKind {
        self.kind
    }

    /// Number of occupied slots.
    pub fn len(&self) -> usize {
        self.occupied
    }

    /// True when no entries are waiting.
    pub fn is_empty(&self) -> bool {
        self.occupied == 0
    }

    /// True when no slot is free.
    pub fn is_full(&self) -> bool {
        self.occupied >= self.capacity
    }

    /// True when at least one occupied entry has a clear pending mask.
    #[inline]
    pub fn has_ready(&self) -> bool {
        self.ready != 0
    }

    /// Number of occupied entries with a clear pending mask.
    pub fn ready_len(&self) -> usize {
        self.ready
    }

    /// Queue capacity in slots.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    #[inline]
    fn link_of(&mut self, n: u32) -> &mut Link {
        &mut self.slots[n as usize >> 2].links[n as usize & 3]
    }

    /// Frees pool entry `idx`, unlinking its still-pending source nodes.
    #[inline]
    fn release(&mut self, idx: usize) {
        self.free.set(idx);
        let (tags, mut p) = (self.slots[idx].tags, self.slots[idx].pending);
        while p != 0 {
            let k = p.trailing_zeros() as usize;
            p &= p - 1;
            // Read the links afresh: unlinking a sibling source on the
            // same tag may just have updated them.
            let Link { prev, next } = self.slots[idx].links[k];
            if prev == NIL {
                self.heads[tags[k] as usize] = next;
            } else {
                self.link_of(prev).next = next;
            }
            if next != NIL {
                self.link_of(next).prev = prev;
            }
        }
    }

    /// Inserts a dispatched uop with its renamed sources and the pending
    /// bitmask computed against the busy table at dispatch (bit `i` set ⇒
    /// source slot `i` is still waiting for its value).
    ///
    /// # Panics
    ///
    /// Panics if the queue is full (dispatch must check [`IssueQueue::is_full`]).
    pub fn insert(
        &mut self,
        seq: u64,
        srcs: [Option<SrcPhys>; 3],
        pending: u8,
        stats: &mut IssueQueueStats,
    ) {
        assert!(!self.is_full(), "issue queue overflow");
        let tags = [self.tag_index(srcs[0]), self.tag_index(srcs[1]), self.tag_index(srcs[2])];
        debug_assert!((0..3).all(|k| pending & (1 << k) == 0 || tags[k] != NIL));
        let idx = self.free.next_set(0, self.capacity).expect("a free slot exists when not full");
        self.free.clear(idx);
        let pos = match self.kind {
            IssueQueueKind::Collapsing => {
                self.place(idx, self.ring(self.occupied));
                self.occupied
            }
            IssueQueueKind::NonCollapsing => idx,
        };
        let slot = &mut self.slots[idx];
        (slot.seq, slot.tags, slot.pending) = (seq, tags, pending);
        for (k, &tag) in tags.iter().enumerate() {
            if pending & (1 << k) != 0 {
                // Push node k at the front of its tag's waiter list (the
                // links of sources that are not pending are never read).
                let n = node(idx, k);
                let first = std::mem::replace(&mut self.heads[tag as usize], n);
                self.slots[idx].links[k] = Link { prev: NIL, next: first };
                if first != NIL {
                    self.link_of(first).prev = n;
                }
            }
        }
        if pending == 0 {
            self.ready_bits.set(pos);
            self.ready += 1;
        }
        self.occ_stamps[pos] = self.occ_stamps[pos].wrapping_sub(self.ticks);
        self.occupied += 1;
        stats.writes += 1;
        stats.slot_writes[pos] += 1;
    }

    /// Waiting uops as `(slot, seq)` pairs, oldest first (allocates;
    /// diagnostics/tests only — the issue stage uses
    /// [`IssueQueue::next_ready`]).
    pub fn candidates(&self) -> Vec<(usize, u64)> {
        match self.kind {
            IssueQueueKind::Collapsing => {
                (0..self.occupied).map(|i| (i, self.slots[self.entry_at(i)].seq)).collect()
            }
            IssueQueueKind::NonCollapsing => {
                // The age-ordered select network: oldest sequence first.
                let mut out: Vec<(usize, u64)> = (0..self.capacity)
                    .filter(|&i| !self.free.test(i))
                    .map(|i| (i, self.slots[i].seq))
                    .collect();
                out.sort_unstable_by_key(|&(_, seq)| seq);
                out
            }
        }
    }

    /// The next ready (pending mask clear) uop in age order after
    /// `after` — a `(slot, seq)` pair this method returned before, or
    /// `None` to start with the oldest. Select walks only the ready
    /// bitset: readiness was already resolved by wakeup broadcasts, so no
    /// register-file or ROB lookups happen here. The collapsing flavour
    /// reads the next set bit; the non-collapsing one picks the smallest
    /// younger sequence number among its ready slots.
    pub fn next_ready(&self, after: Option<(usize, u64)>) -> Option<(usize, u64)> {
        if self.ready == 0 {
            return None;
        }
        match self.kind {
            IssueQueueKind::Collapsing => {
                let from = after.map_or(0, |(pos, _)| pos + 1);
                let pos = self.ready_bits.next_set(from, self.occupied)?;
                Some((pos, self.slots[self.entry_at(pos)].seq))
            }
            IssueQueueKind::NonCollapsing => {
                let mut best: Option<(usize, u64)> = None;
                self.ready_bits.for_each_below(self.capacity, |i| {
                    let seq = self.slots[i].seq;
                    if after.is_none_or(|(_, a)| seq > a) && best.is_none_or(|(_, b)| seq < b) {
                        best = Some((i, seq));
                    }
                });
                best
            }
        }
    }

    /// Every ready uop as `(slot, seq)` pairs in select order (allocates;
    /// diagnostics/tests only — the issue stage walks
    /// [`IssueQueue::next_ready`] until its ports are spent).
    pub fn ready_candidates(&self) -> Vec<(usize, u64)> {
        std::iter::successors(self.next_ready(None), |&c| self.next_ready(Some(c))).collect()
    }

    /// Removes the issued entries at the given slots (ascending; logical
    /// positions for the collapsing flavour), charging collapse shifts
    /// exactly as the shift-everything hardware would pay them.
    ///
    /// # Panics
    ///
    /// Panics if slots are not strictly ascending or not occupied.
    pub fn remove_slots(&mut self, slots: &[usize], stats: &mut IssueQueueStats) {
        debug_assert!(slots.windows(2).all(|w| w[0] < w[1]));
        match self.kind {
            IssueQueueKind::Collapsing => {
                let n = self.occupied;
                for &pos in slots.iter().rev() {
                    assert!(pos < self.occupied, "removing an empty slot");
                    let last = self.occupied - 1;
                    self.release(self.entry_at(pos));
                    self.ready -= usize::from(self.ready_bits.test(pos));
                    self.ready_bits.remove_shift(pos, self.occupied);
                    // Modeled energy: entries logically above `pos` each
                    // shift down one slot, regardless of how the host
                    // representation fills the hole.
                    let after = last - pos;
                    stats.collapse_writes += after as u64;
                    if after > 0 {
                        self.write_diff[pos] = self.write_diff[pos].wrapping_add(1);
                        self.write_diff[last] = self.write_diff[last].wrapping_sub(1);
                    }
                    stats.issued += 1;
                    self.occ_stamps[last] = self.occ_stamps[last].wrapping_add(self.ticks);
                    self.occupied = last;
                }
                self.close_holes(slots, n);
            }
            IssueQueueKind::NonCollapsing => {
                for &pos in slots {
                    assert!(!self.free.test(pos), "removing an empty slot");
                    self.release_slot(pos);
                    stats.issued += 1;
                }
            }
        }
    }

    /// Host movement after a collapsing removal: closes the holes at the
    /// given ascending logical positions of an order ring that held `n`
    /// entries, moving each survivor's index at most once and from
    /// whichever side of the holes has fewer of them.
    fn close_holes(&mut self, holes: &[usize], n: usize) {
        let (Some(&lo), Some(&hi)) = (holes.first(), holes.last()) else { return };
        let k = holes.len();
        let mut rest = holes;
        if hi + 1 - k <= n - lo - k {
            // Shift the survivors below the highest hole up, then advance
            // the ring origin past the vacated bottom positions.
            let mut dst = hi;
            for j in (0..=hi).rev() {
                if let [below @ .., h] = rest {
                    if *h == j {
                        rest = below;
                        continue;
                    }
                }
                if j != dst {
                    self.place(self.order[self.ring(j)] as usize, self.ring(dst));
                }
                dst -= 1;
            }
            self.head = (self.head + k) & self.mask;
        } else {
            // Shift the survivors above the lowest hole down.
            let mut dst = lo;
            for j in lo..n {
                if let [h, above @ ..] = rest {
                    if *h == j {
                        rest = above;
                        continue;
                    }
                }
                if j != dst {
                    self.place(self.order[self.ring(j)] as usize, self.ring(dst));
                }
                dst += 1;
            }
        }
    }

    /// Frees non-collapsing slot `i`, ending its residency.
    fn release_slot(&mut self, i: usize) {
        self.release(i);
        if self.ready_bits.test(i) {
            self.ready_bits.clear(i);
            self.ready -= 1;
        }
        self.occ_stamps[i] = self.occ_stamps[i].wrapping_add(self.ticks);
        self.occupied -= 1;
    }

    /// Drops every entry younger than (strictly after) `seq`; returns the
    /// number squashed. Squashes invalidate in place (no collapse energy).
    pub fn squash_after(&mut self, seq: u64) -> usize {
        let before = self.occupied;
        match self.kind {
            IssueQueueKind::Collapsing => {
                // Dispatch order means squashed entries are normally a
                // suffix; trim it first, then compact any stragglers.
                while self.occupied > 0 {
                    let last = self.occupied - 1;
                    let idx = self.entry_at(last);
                    if self.slots[idx].seq <= seq {
                        break;
                    }
                    self.release(idx);
                    if self.ready_bits.test(last) {
                        self.ready_bits.clear(last);
                        self.ready -= 1;
                    }
                    self.occ_stamps[last] = self.occ_stamps[last].wrapping_add(self.ticks);
                    self.occupied = last;
                }
                let mut keep = 0;
                for i in 0..self.occupied {
                    let idx = self.entry_at(i);
                    if self.slots[idx].seq <= seq {
                        if keep != i {
                            self.place(idx, self.ring(keep));
                        }
                        keep += 1;
                    } else {
                        self.release(idx);
                    }
                }
                if keep != self.occupied {
                    for p in keep..self.occupied {
                        self.occ_stamps[p] = self.occ_stamps[p].wrapping_add(self.ticks);
                        self.ready_bits.clear(p);
                    }
                    self.ready = 0;
                    for p in 0..keep {
                        let ready = self.slots[self.entry_at(p)].pending == 0;
                        if ready {
                            self.ready_bits.set(p);
                        } else {
                            self.ready_bits.clear(p);
                        }
                        self.ready += usize::from(ready);
                    }
                    self.occupied = keep;
                }
            }
            IssueQueueKind::NonCollapsing => {
                for i in 0..self.capacity {
                    if !self.free.test(i) && self.slots[i].seq > seq {
                        self.release_slot(i);
                    }
                }
            }
        }
        before - self.occupied
    }

    /// Per-cycle bookkeeping: the occupancy sum, plus one tick of
    /// per-slot residency (deferred until [`IssueQueue::flush_stats`]).
    #[inline]
    pub fn tick(&mut self, stats: &mut IssueQueueStats) {
        self.charge_idle(1, stats);
    }

    /// Charges `cycles` consecutive idle ticks at once — exactly what
    /// [`IssueQueue::tick`] would accumulate over `cycles` calls with the
    /// queue untouched in between. Used by the core's event-driven idle
    /// skip, which proves no insert/issue/wakeup can occur in the window
    /// before fast-forwarding the clock.
    #[inline]
    pub fn charge_idle(&mut self, cycles: u64, stats: &mut IssueQueueStats) {
        stats.occupancy_sum += cycles * self.occupied as u64;
        self.ticks += cycles;
    }

    /// Folds the deferred per-slot residency and collapse writes into
    /// `stats`. Afterwards `stats` is exactly what per-cycle accounting
    /// would have accumulated.
    pub fn flush_stats(&mut self, stats: &mut IssueQueueStats) {
        for i in 0..self.capacity {
            let live = match self.kind {
                IssueQueueKind::Collapsing => i < self.occupied,
                IssueQueueKind::NonCollapsing => !self.free.test(i),
            };
            let open = if live { self.ticks } else { 0 };
            stats.slot_occupancy[i] += self.occ_stamps[i].wrapping_add(open);
            self.occ_stamps[i] = 0;
        }
        let mut run = 0u64;
        for (w, d) in stats.slot_writes.iter_mut().zip(&mut self.write_diff) {
            run = run.wrapping_add(*d);
            *w += run;
            *d = 0;
        }
        self.ticks = 0;
    }

    /// Records a wakeup broadcast: the hardware compares every waiting
    /// entry's source tags against the completing destination (CAM match
    /// energy, charged per occupied entry); the model drains only the
    /// waiter list of that tag, clearing each listed pending bit — the
    /// scoreboard update that replaces per-cycle readiness polling.
    pub fn wakeup_broadcast(&mut self, written: SrcPhys, stats: &mut IssueQueueStats) {
        stats.wakeup_cam_matches += self.occupied as u64;
        let tag = self.tag_index(Some(written));
        let mut n = std::mem::replace(&mut self.heads[tag as usize], NIL);
        while n != NIL {
            let (idx, k) = (n as usize >> 2, n as usize & 3);
            let s = &mut self.slots[idx];
            n = s.links[k].next;
            debug_assert!(s.pending & (1 << k) != 0 && s.tags[k] == tag);
            s.pending &= !(1 << k);
            if s.pending == 0 {
                let pos = self.position(idx);
                self.ready_bits.set(pos);
                self.ready += 1;
            }
        }
    }

    /// The renamed sources of the entry at `slot` (diagnostics/tests;
    /// logical position for the collapsing flavour).
    pub fn slot_srcs(&self, slot: usize) -> [Option<SrcPhys>; 3] {
        let t = self.slots[self.entry_at(slot)].tags;
        t.map(|tag| match tag {
            NIL => None,
            t if (t as usize) < self.int_tags => Some(SrcPhys::Int(t as PReg)),
            t => Some(SrcPhys::Fp((t as usize - self.int_tags) as PReg)),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Physical registers per class in the unit tests' tag space.
    const PREGS: usize = 128;

    fn queue_and_stats(cap: usize) -> (IssueQueue, IssueQueueStats) {
        (IssueQueue::new(IssueQueueKind::Collapsing, cap, PREGS, PREGS), IssueQueueStats::new(cap))
    }

    fn seqs(q: &IssueQueue) -> Vec<u64> {
        q.candidates().iter().map(|&(_, s)| s).collect()
    }

    /// Insert with no sources (ready immediately) — most structural tests
    /// don't care about the wakeup scoreboard.
    fn ins(q: &mut IssueQueue, seq: u64, s: &mut IssueQueueStats) {
        q.insert(seq, [None; 3], 0, s);
    }

    fn ready_seqs(q: &IssueQueue) -> Vec<u64> {
        q.ready_candidates().iter().map(|&(_, s)| s).collect()
    }

    #[test]
    fn insert_and_age_order() {
        let (mut q, mut s) = queue_and_stats(4);
        ins(&mut q, 10, &mut s);
        ins(&mut q, 11, &mut s);
        ins(&mut q, 12, &mut s);
        assert_eq!(seqs(&q), vec![10, 11, 12]);
        q.flush_stats(&mut s);
        assert_eq!(s.writes, 3);
        assert_eq!(s.slot_writes, vec![1, 1, 1, 0]);
    }

    #[test]
    fn remove_collapses_and_counts_shifts() {
        let (mut q, mut s) = queue_and_stats(4);
        for seq in 0..4 {
            ins(&mut q, seq, &mut s);
        }
        // Issue the oldest: 3 entries shift down.
        q.remove_slots(&[0], &mut s);
        assert_eq!(seqs(&q), vec![1, 2, 3]);
        assert_eq!(s.collapse_writes, 3);
        // slots 0..=2 each received a shifted entry
        q.flush_stats(&mut s);
        assert_eq!(&s.slot_writes[..3], &[2, 2, 2]);
    }

    #[test]
    fn remove_multiple_slots() {
        let (mut q, mut s) = queue_and_stats(8);
        for seq in 0..6 {
            ins(&mut q, seq, &mut s);
        }
        q.remove_slots(&[1, 4], &mut s);
        assert_eq!(seqs(&q), vec![0, 2, 3, 5]);
        assert_eq!(s.issued, 2);
    }

    #[test]
    fn ring_wraps_across_sustained_insert_remove() {
        let (mut q, mut s) = queue_and_stats(4);
        // Far more operations than the ring size, always removing the
        // oldest: exercises head wrap-around.
        for seq in 0..64u64 {
            ins(&mut q, seq, &mut s);
            if q.len() == 3 {
                let head = q.candidates()[0];
                assert_eq!(head.1, seq - 2, "oldest survives in age order");
                q.remove_slots(&[head.0], &mut s);
            }
        }
        assert_eq!(seqs(&q), vec![62, 63]);
    }

    #[test]
    fn squash_drops_younger_only() {
        let (mut q, mut s) = queue_and_stats(8);
        for seq in [5, 7, 9, 11] {
            ins(&mut q, seq, &mut s);
        }
        let n = q.squash_after(7);
        assert_eq!(n, 2);
        assert_eq!(seqs(&q), vec![5, 7]);
    }

    #[test]
    fn squash_compacts_out_of_order_entries() {
        let (mut q, mut s) = queue_and_stats(8);
        for seq in [4, 9, 2, 7] {
            ins(&mut q, seq, &mut s);
        }
        let n = q.squash_after(4);
        assert_eq!(n, 2);
        assert_eq!(seqs(&q), vec![4, 2], "insertion order kept for survivors");
    }

    #[test]
    fn tick_accumulates_per_slot_occupancy() {
        let (mut q, mut s) = queue_and_stats(4);
        ins(&mut q, 1, &mut s);
        ins(&mut q, 2, &mut s);
        q.tick(&mut s);
        q.tick(&mut s);
        assert_eq!(s.occupancy_sum, 4);
        q.flush_stats(&mut s);
        assert_eq!(s.slot_occupancy, vec![2, 2, 0, 0]);
    }

    #[test]
    #[should_panic(expected = "overflow")]
    fn overflow_panics() {
        let (mut q, mut s) = queue_and_stats(1);
        ins(&mut q, 1, &mut s);
        ins(&mut q, 2, &mut s);
    }

    // ---- non-collapsing flavour ------------------------------------

    fn nc_queue(cap: usize) -> (IssueQueue, IssueQueueStats) {
        (
            IssueQueue::new(IssueQueueKind::NonCollapsing, cap, PREGS, PREGS),
            IssueQueueStats::new(cap),
        )
    }

    #[test]
    fn non_collapsing_reuses_freed_slots_without_shifts() {
        let (mut q, mut s) = nc_queue(4);
        for seq in 0..4 {
            ins(&mut q, seq, &mut s);
        }
        q.remove_slots(&[1], &mut s);
        assert_eq!(s.collapse_writes, 0, "no shifts in a non-collapsing queue");
        // Next insert lands in the freed slot 1.
        ins(&mut q, 9, &mut s);
        q.flush_stats(&mut s);
        assert_eq!(s.slot_writes[1], 2);
        // Age order is by sequence, not position.
        assert_eq!(seqs(&q), vec![0, 2, 3, 9]);
        assert_eq!(q.candidates()[3], (1, 9));
    }

    #[test]
    fn non_collapsing_squash_and_occupancy() {
        let (mut q, mut s) = nc_queue(4);
        for seq in [3, 8, 5, 10] {
            ins(&mut q, seq, &mut s);
        }
        assert_eq!(q.squash_after(5), 2);
        assert_eq!(q.len(), 2);
        q.tick(&mut s);
        assert_eq!(s.occupancy_sum, 2);
        // Slots 1 and 3 (which held 8 and 10) are free again.
        ins(&mut q, 11, &mut s);
        ins(&mut q, 12, &mut s);
        assert!(q.is_full());
    }

    #[test]
    fn both_kinds_agree_on_age_order() {
        let (mut c, mut cs) = queue_and_stats(8);
        let (mut n, mut ns) = nc_queue(8);
        for seq in [4, 1, 7, 2] {
            // (Sequence numbers arrive in dispatch order in the core, but
            // the queue must not depend on that.)
            ins(&mut c, seq, &mut cs);
            ins(&mut n, seq, &mut ns);
        }
        // Collapsing preserves insertion order; non-collapsing sorts by
        // seq. For in-order dispatch these coincide; assert the
        // non-collapsing one is truly age-sorted.
        let ages: Vec<u64> = n.candidates().iter().map(|&(_, s)| s).collect();
        assert_eq!(ages, vec![1, 2, 4, 7]);
    }

    // ---- wakeup scoreboard ------------------------------------------

    #[test]
    fn pending_entries_wake_on_matching_broadcast() {
        let (mut q, mut s) = queue_and_stats(4);
        q.insert(1, [Some(SrcPhys::Int(40)), Some(SrcPhys::Int(41)), None], 0b11, &mut s);
        ins(&mut q, 2, &mut s);
        assert_eq!(ready_seqs(&q), vec![2], "two-source entry starts pending");
        q.wakeup_broadcast(SrcPhys::Int(40), &mut s);
        assert_eq!(ready_seqs(&q), vec![2], "one source still outstanding");
        q.wakeup_broadcast(SrcPhys::Int(41), &mut s);
        assert_eq!(ready_seqs(&q), vec![1, 2], "both woken, age order kept");
        assert_eq!(s.wakeup_cam_matches, 4, "each broadcast CAMs all occupied entries");
    }

    #[test]
    fn broadcast_distinguishes_register_classes() {
        let (mut q, mut s) = queue_and_stats(4);
        q.insert(1, [Some(SrcPhys::Fp(40)), None, None], 0b1, &mut s);
        q.wakeup_broadcast(SrcPhys::Int(40), &mut s);
        assert!(ready_seqs(&q).is_empty(), "int broadcast must not wake an fp source");
        q.wakeup_broadcast(SrcPhys::Fp(40), &mut s);
        assert_eq!(ready_seqs(&q), vec![1]);
    }

    #[test]
    fn one_broadcast_clears_every_matching_slot() {
        let (mut q, mut s) = queue_and_stats(4);
        // Same preg feeds both sources (e.g. `add a0, t0, t0`).
        q.insert(3, [Some(SrcPhys::Int(50)), Some(SrcPhys::Int(50)), None], 0b11, &mut s);
        q.wakeup_broadcast(SrcPhys::Int(50), &mut s);
        assert_eq!(ready_seqs(&q), vec![3]);
    }

    #[test]
    fn ready_candidates_sorted_by_age_in_non_collapsing() {
        let (mut q, mut s) = nc_queue(4);
        for seq in [4, 1, 7, 2] {
            ins(&mut q, seq, &mut s);
        }
        q.remove_slots(&[1], &mut s); // free slot 1 (held seq 1)
        q.insert(9, [Some(SrcPhys::Int(60)), None, None], 0b1, &mut s); // lands in slot 1
        assert_eq!(ready_seqs(&q), vec![2, 4, 7], "pending entry excluded");
        q.wakeup_broadcast(SrcPhys::Int(60), &mut s);
        assert_eq!(ready_seqs(&q), vec![2, 4, 7, 9], "age-sorted after wakeup");
    }

    #[test]
    fn src_tags_round_trip_through_packing() {
        let (mut q, mut s) = queue_and_stats(4);
        let srcs = [Some(SrcPhys::Int(7)), Some(SrcPhys::Fp(7)), None];
        q.insert(1, srcs, 0b11, &mut s);
        assert_eq!(q.slot_srcs(0), srcs);
    }

    #[test]
    fn ready_count_tracks_squash_and_removal() {
        let (mut q, mut s) = queue_and_stats(8);
        ins(&mut q, 1, &mut s);
        q.insert(2, [Some(SrcPhys::Int(40)), None, None], 0b1, &mut s);
        ins(&mut q, 3, &mut s);
        assert!(q.has_ready());
        q.remove_slots(&[0, 2], &mut s); // both ready entries issue
        assert!(!q.has_ready(), "only the pending entry remains");
        q.wakeup_broadcast(SrcPhys::Int(40), &mut s);
        assert!(q.has_ready());
        q.squash_after(0);
        assert!(!q.has_ready());
        assert!(q.is_empty());
    }

    #[test]
    fn remove_shift_carries_across_words() {
        let mut b = Bits::new(130);
        for i in [3, 63, 64, 100, 129] {
            b.set(i);
        }
        b.remove_shift(3, 130);
        let mut got = Vec::new();
        b.for_each_below(130, |i| got.push(i));
        assert_eq!(got, vec![62, 63, 99, 128]);
    }
}
