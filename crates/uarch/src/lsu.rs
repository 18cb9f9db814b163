//! Load-store unit: load queue, store queue, forwarding, and ordering.
//!
//! The model uses conservative memory ordering — a load may access the
//! data cache only once every older store's address is known — plus full
//! store-to-load forwarding from the store queue. This avoids speculative
//! memory disambiguation machinery while reproducing the LSU activity the
//! paper's power analysis keys on (CAM searches, queue occupancy).

use crate::stats::Stats;
use std::collections::VecDeque;

/// One store-queue entry (stores leave the queue when they commit and
/// their data is written to memory).
#[derive(Clone, Copy, Debug)]
pub struct StqEntry {
    /// ROB sequence of the store.
    pub seq: u64,
    /// Resolved address, once the store executes.
    pub addr: Option<u64>,
    /// Access size in bytes.
    pub size: u64,
    /// Store data (valid once resolved).
    pub data: u64,
}

/// One load-queue entry.
#[derive(Clone, Copy, Debug)]
pub struct LdqEntry {
    /// ROB sequence of the load.
    pub seq: u64,
}

/// What a load may do this cycle, per the ordering rules.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LoadAction {
    /// An older store's address is unknown — retry later.
    WaitOrdering,
    /// An older store partially overlaps — wait until it drains.
    WaitPartialOverlap,
    /// Forward `data` from the youngest fully covering older store.
    Forward {
        /// The forwarded raw data, already shifted to the load's bytes.
        data: u64,
    },
    /// Safe to access the data cache.
    Access,
}

/// The load/store queues.
#[derive(Clone, Debug)]
pub struct Lsu {
    ldq: VecDeque<LdqEntry>,
    stq: VecDeque<StqEntry>,
    ldq_capacity: usize,
    stq_capacity: usize,
}

impl Lsu {
    /// Creates empty queues with the given capacities.
    pub fn new(ldq_capacity: usize, stq_capacity: usize) -> Lsu {
        Lsu {
            ldq: VecDeque::with_capacity(ldq_capacity),
            stq: VecDeque::with_capacity(stq_capacity),
            ldq_capacity,
            stq_capacity,
        }
    }

    /// True when a load cannot be dispatched.
    pub fn ldq_full(&self) -> bool {
        self.ldq.len() >= self.ldq_capacity
    }

    /// True when a store cannot be dispatched.
    pub fn stq_full(&self) -> bool {
        self.stq.len() >= self.stq_capacity
    }

    /// Current load-queue occupancy.
    pub fn ldq_len(&self) -> usize {
        self.ldq.len()
    }

    /// Current store-queue occupancy.
    pub fn stq_len(&self) -> usize {
        self.stq.len()
    }

    /// The oldest load in the queue (program order), if any.
    pub fn ldq_head(&self) -> Option<&LdqEntry> {
        self.ldq.front()
    }

    /// The oldest store in the queue (program order), if any.
    pub fn stq_head(&self) -> Option<&StqEntry> {
        self.stq.front()
    }

    /// Allocates a load-queue entry at dispatch.
    ///
    /// # Panics
    ///
    /// Panics if full.
    pub fn dispatch_load(&mut self, seq: u64, stats: &mut Stats) {
        assert!(!self.ldq_full(), "LDQ overflow");
        self.ldq.push_back(LdqEntry { seq });
        stats.ldq_writes += 1;
    }

    /// Allocates a store-queue entry at dispatch.
    ///
    /// # Panics
    ///
    /// Panics if full.
    pub fn dispatch_store(&mut self, seq: u64, stats: &mut Stats) {
        assert!(!self.stq_full(), "STQ overflow");
        self.stq.push_back(StqEntry { seq, addr: None, size: 0, data: 0 });
        stats.stq_writes += 1;
    }

    /// Records a store's resolved address and data (at execute).
    ///
    /// Queue seqs are strictly increasing (in-order dispatch; squashes
    /// drop a suffix), so the entry is found by binary search instead of
    /// a linear scan.
    pub fn resolve_store(&mut self, seq: u64, addr: u64, size: u64, data: u64) {
        debug_assert!(self.stq.iter().zip(self.stq.iter().skip(1)).all(|(a, b)| a.seq < b.seq));
        let pos = self
            .stq
            .binary_search_by_key(&seq, |e| e.seq)
            .expect("resolving a store that is in the STQ");
        let e = &mut self.stq[pos];
        e.addr = Some(addr);
        e.size = size;
        e.data = data;
    }

    /// Decides what the load with `seq` accessing `[addr, addr+size)` may
    /// do, searching the store queue (one CAM search counted per call).
    pub fn load_check(&self, seq: u64, addr: u64, size: u64, stats: &mut Stats) -> LoadAction {
        stats.stq_searches += 1;
        // Walk older stores youngest-first so forwarding picks the latest.
        // Seqs are strictly increasing, so the older stores are exactly the
        // prefix before the partition point — no per-entry seq filter.
        let older = self.stq.partition_point(|st| st.seq < seq);
        for st in self.stq.range(..older).rev() {
            match st.addr {
                None => return LoadAction::WaitOrdering,
                Some(st_addr) => {
                    let st_end = st_addr + st.size;
                    let ld_end = addr + size;
                    let overlap = st_addr < ld_end && addr < st_end;
                    if !overlap {
                        continue;
                    }
                    if st_addr <= addr && ld_end <= st_end {
                        // Full coverage: forward the relevant bytes.
                        let shift = (addr - st_addr) * 8;
                        let data = st.data >> shift;
                        let data = if size >= 8 { data } else { data & ((1u64 << (size * 8)) - 1) };
                        stats.forwards += 1;
                        return LoadAction::Forward { data };
                    }
                    return LoadAction::WaitPartialOverlap;
                }
            }
        }
        LoadAction::Access
    }

    /// Removes the committed store (head-of-queue by program order).
    pub fn commit_store(&mut self, seq: u64) -> StqEntry {
        // Stores commit in order, so the entry is the queue head; the
        // linear fallback only exists for out-of-order test harness use.
        if self.stq.front().is_some_and(|e| e.seq == seq) {
            return self.stq.pop_front().expect("front checked");
        }
        self.commit_store_slow(seq)
    }

    #[cold]
    fn commit_store_slow(&mut self, seq: u64) -> StqEntry {
        let pos = self
            .stq
            .iter()
            .position(|e| e.seq == seq)
            .expect("committing a store that is in the STQ");
        debug_assert_eq!(pos, 0, "stores commit in order");
        self.stq.remove(pos).expect("position is valid")
    }

    /// Removes the committed load.
    pub fn commit_load(&mut self, seq: u64) {
        if self.ldq.front().is_some_and(|e| e.seq == seq) {
            self.ldq.pop_front();
        } else {
            self.commit_load_slow(seq);
        }
    }

    #[cold]
    fn commit_load_slow(&mut self, seq: u64) {
        if let Some(pos) = self.ldq.iter().position(|e| e.seq == seq) {
            debug_assert_eq!(pos, 0, "loads commit in order");
            self.ldq.remove(pos);
        }
    }

    /// Drops all queue entries younger than `seq`.
    pub fn squash_after(&mut self, seq: u64) {
        self.ldq.retain(|e| e.seq <= seq);
        self.stq.retain(|e| e.seq <= seq);
    }

    /// Per-cycle occupancy bookkeeping.
    pub fn tick(&self, stats: &mut Stats) {
        stats.lsu_occupancy_sum += (self.ldq.len() + self.stq.len()) as u64;
    }

    /// Charges `cycles` consecutive idle ticks at once (see
    /// [`Lsu::tick`]); used by the core's event-driven idle skip, which
    /// guarantees the queues cannot change in the skipped window.
    pub fn charge_idle(&self, cycles: u64, stats: &mut Stats) {
        stats.lsu_occupancy_sum += cycles * (self.ldq.len() + self.stq.len()) as u64;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lsu_with_store(seq: u64, addr: u64, size: u64, data: u64) -> (Lsu, Stats) {
        let mut stats = Stats::new(4, 4, 4);
        let mut lsu = Lsu::new(8, 8);
        lsu.dispatch_store(seq, &mut stats);
        lsu.resolve_store(seq, addr, size, data);
        (lsu, stats)
    }

    #[test]
    fn unresolved_older_store_blocks_load() {
        let mut stats = Stats::new(4, 4, 4);
        let mut lsu = Lsu::new(8, 8);
        lsu.dispatch_store(1, &mut stats);
        assert_eq!(lsu.load_check(2, 0x100, 8, &mut stats), LoadAction::WaitOrdering);
    }

    #[test]
    fn full_overlap_forwards_shifted_bytes() {
        let (lsu, mut stats) = lsu_with_store(1, 0x100, 8, 0x1122_3344_5566_7788);
        match lsu.load_check(2, 0x104, 4, &mut stats) {
            LoadAction::Forward { data } => assert_eq!(data, 0x1122_3344),
            a => panic!("unexpected {a:?}"),
        }
        assert_eq!(stats.forwards, 1);
    }

    #[test]
    fn partial_overlap_waits() {
        let (lsu, mut stats) = lsu_with_store(1, 0x100, 4, 0xAABBCCDD);
        assert_eq!(lsu.load_check(2, 0x102, 8, &mut stats), LoadAction::WaitPartialOverlap);
    }

    #[test]
    fn disjoint_store_allows_access() {
        let (lsu, mut stats) = lsu_with_store(1, 0x100, 8, 0);
        assert_eq!(lsu.load_check(2, 0x200, 8, &mut stats), LoadAction::Access);
    }

    #[test]
    fn younger_stores_are_ignored() {
        let (mut lsu, mut stats) = lsu_with_store(5, 0x100, 8, 7);
        lsu.dispatch_store(9, &mut stats); // younger than the load, unresolved
        assert!(matches!(lsu.load_check(6, 0x100, 8, &mut stats), LoadAction::Forward { .. }));
    }

    #[test]
    fn youngest_older_store_wins_forwarding() {
        let mut stats = Stats::new(4, 4, 4);
        let mut lsu = Lsu::new(8, 8);
        lsu.dispatch_store(1, &mut stats);
        lsu.resolve_store(1, 0x100, 8, 0xAAAA);
        lsu.dispatch_store(2, &mut stats);
        lsu.resolve_store(2, 0x100, 8, 0xBBBB);
        match lsu.load_check(3, 0x100, 8, &mut stats) {
            LoadAction::Forward { data } => assert_eq!(data, 0xBBBB),
            a => panic!("unexpected {a:?}"),
        }
    }

    #[test]
    fn squash_and_commit_maintain_queues() {
        let mut stats = Stats::new(4, 4, 4);
        let mut lsu = Lsu::new(4, 4);
        lsu.dispatch_store(1, &mut stats);
        lsu.dispatch_load(2, &mut stats);
        lsu.dispatch_store(3, &mut stats);
        lsu.squash_after(2);
        assert_eq!(lsu.stq_len(), 1);
        assert_eq!(lsu.ldq_len(), 1);
        lsu.resolve_store(1, 0x10, 8, 1);
        let st = lsu.commit_store(1);
        assert_eq!(st.addr, Some(0x10));
        lsu.commit_load(2);
        assert_eq!(lsu.stq_len() + lsu.ldq_len(), 0);
    }
}
