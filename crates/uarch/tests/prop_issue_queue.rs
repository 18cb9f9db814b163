//! Differential test of the event-driven issue queue against a naive
//! reference model.
//!
//! The reference is the straightforward scan design: every wakeup
//! compares the broadcast tag against every occupied entry, select scans
//! every slot for a clear pending mask, and every tick charges each
//! occupied slot directly. The product queue must be indistinguishable
//! from it through the public interface — same candidates in the same
//! order, same ready count, same squash counts and, once flushed, the
//! same per-slot counters — for random sequences of insert, wakeup,
//! select/remove, squash (with sequence numbers reused afterwards, as the
//! ROB reissues them), tick and idle charges, for both kinds and for
//! capacities on both sides of one and two bitset words.

#![allow(clippy::unwrap_used)]

use boom_uarch::issue::{IssueQueue, IssueQueueKind};
use boom_uarch::regfile::PReg;
use boom_uarch::rob::SrcPhys;
use boom_uarch::stats::IssueQueueStats;
use proptest::prelude::*;

/// The scan-based queue: per-event work proportional to occupancy.
mod reference {
    use super::*;

    fn pack(src: Option<SrcPhys>) -> u32 {
        match src {
            None => 0,
            Some(SrcPhys::Int(p)) => 0x8000_0000 | u32::from(p),
            Some(SrcPhys::Fp(p)) => 0x8001_0000 | u32::from(p),
        }
    }

    #[derive(Clone, Copy, Default)]
    struct Slot {
        seq: u64,
        tags: [u32; 3],
        pending: u8,
    }

    pub struct RefQueue {
        kind: IssueQueueKind,
        /// Age order (collapsing) or fixed physical slots (non-collapsing).
        slots: Vec<Slot>,
        valid: Vec<bool>,
        occupied: usize,
        capacity: usize,
    }

    impl RefQueue {
        pub fn new(kind: IssueQueueKind, capacity: usize) -> RefQueue {
            RefQueue {
                kind,
                slots: vec![Slot::default(); capacity],
                valid: vec![false; capacity],
                occupied: 0,
                capacity,
            }
        }

        pub fn len(&self) -> usize {
            self.occupied
        }

        pub fn is_full(&self) -> bool {
            self.occupied >= self.capacity
        }

        pub fn insert(
            &mut self,
            seq: u64,
            srcs: [Option<SrcPhys>; 3],
            pending: u8,
            stats: &mut IssueQueueStats,
        ) {
            assert!(!self.is_full());
            let slot = Slot { seq, tags: srcs.map(pack), pending };
            let pos = match self.kind {
                IssueQueueKind::Collapsing => self.occupied,
                IssueQueueKind::NonCollapsing => self.valid.iter().position(|v| !v).unwrap(),
            };
            self.slots[pos] = slot;
            self.valid[pos] = true;
            self.occupied += 1;
            stats.writes += 1;
            stats.slot_writes[pos] += 1;
        }

        pub fn candidates(&self) -> Vec<(usize, u64)> {
            let mut out: Vec<(usize, u64)> = match self.kind {
                IssueQueueKind::Collapsing => {
                    (0..self.occupied).map(|i| (i, self.slots[i].seq)).collect()
                }
                IssueQueueKind::NonCollapsing => (0..self.capacity)
                    .filter(|&i| self.valid[i])
                    .map(|i| (i, self.slots[i].seq))
                    .collect(),
            };
            if self.kind == IssueQueueKind::NonCollapsing {
                out.sort_unstable_by_key(|&(_, seq)| seq);
            }
            out
        }

        pub fn ready_candidates(&self) -> Vec<(usize, u64)> {
            self.candidates().into_iter().filter(|&(i, _)| self.slots[i].pending == 0).collect()
        }

        pub fn remove_slots(&mut self, slots: &[usize], stats: &mut IssueQueueStats) {
            match self.kind {
                IssueQueueKind::Collapsing => {
                    for &pos in slots.iter().rev() {
                        assert!(pos < self.occupied);
                        stats.collapse_writes += (self.occupied - 1 - pos) as u64;
                        for target in pos..self.occupied - 1 {
                            self.slots[target] = self.slots[target + 1];
                            stats.slot_writes[target] += 1;
                        }
                        stats.issued += 1;
                        self.occupied -= 1;
                    }
                }
                IssueQueueKind::NonCollapsing => {
                    for &pos in slots {
                        assert!(self.valid[pos]);
                        self.valid[pos] = false;
                        stats.issued += 1;
                    }
                    self.occupied -= slots.len();
                }
            }
        }

        pub fn squash_after(&mut self, seq: u64) -> usize {
            let before = self.occupied;
            match self.kind {
                IssueQueueKind::Collapsing => {
                    let keep: Vec<Slot> = self.slots[..self.occupied]
                        .iter()
                        .copied()
                        .filter(|s| s.seq <= seq)
                        .collect();
                    self.slots[..keep.len()].copy_from_slice(&keep);
                    self.occupied = keep.len();
                }
                IssueQueueKind::NonCollapsing => {
                    for i in 0..self.capacity {
                        if self.valid[i] && self.slots[i].seq > seq {
                            self.valid[i] = false;
                            self.occupied -= 1;
                        }
                    }
                }
            }
            before - self.occupied
        }

        pub fn tick(&self, stats: &mut IssueQueueStats) {
            stats.occupancy_sum += self.occupied as u64;
            for i in 0..self.capacity {
                let live = match self.kind {
                    IssueQueueKind::Collapsing => i < self.occupied,
                    IssueQueueKind::NonCollapsing => self.valid[i],
                };
                if live {
                    stats.slot_occupancy[i] += 1;
                }
            }
        }

        pub fn wakeup_broadcast(&mut self, written: SrcPhys, stats: &mut IssueQueueStats) {
            stats.wakeup_cam_matches += self.occupied as u64;
            let target = pack(Some(written));
            for i in 0..self.capacity {
                let live = match self.kind {
                    IssueQueueKind::Collapsing => i < self.occupied,
                    IssueQueueKind::NonCollapsing => self.valid[i],
                };
                let s = &mut self.slots[i];
                if live {
                    let hit = u8::from(s.tags[0] == target)
                        | (u8::from(s.tags[1] == target) << 1)
                        | (u8::from(s.tags[2] == target) << 2);
                    s.pending &= !hit;
                }
            }
        }
    }
}

/// Physical registers per class; a small tag pool makes collisions
/// (two sources on one tag, many entries waiting on one producer) common.
const PREGS: usize = 16;

fn tag(bits: u64) -> SrcPhys {
    let p = (bits % PREGS as u64) as PReg;
    if bits & 0x100 != 0 {
        SrcPhys::Fp(p)
    } else {
        SrcPhys::Int(p)
    }
}

fn assert_stats_eq(a: &IssueQueueStats, b: &IssueQueueStats, step: usize) {
    assert_eq!(a.writes, b.writes, "writes @ step {step}");
    assert_eq!(a.collapse_writes, b.collapse_writes, "collapse_writes @ step {step}");
    assert_eq!(a.issued, b.issued, "issued @ step {step}");
    assert_eq!(a.wakeup_cam_matches, b.wakeup_cam_matches, "cam matches @ step {step}");
    assert_eq!(a.occupancy_sum, b.occupancy_sum, "occupancy_sum @ step {step}");
    assert_eq!(a.slot_occupancy, b.slot_occupancy, "slot_occupancy @ step {step}");
    assert_eq!(a.slot_writes, b.slot_writes, "slot_writes @ step {step}");
}

/// Capacities below, at and above one and two 64-bit bitset words.
const CAPACITIES: [usize; 8] = [1, 3, 20, 40, 64, 65, 100, 130];

fn run(kind: IssueQueueKind, capacity: usize, ops: &[u64]) {
    let mut q = IssueQueue::new(kind, capacity, PREGS, PREGS);
    let mut r = reference::RefQueue::new(kind, capacity);
    let (mut qs, mut rs) = (IssueQueueStats::new(capacity), IssueQueueStats::new(capacity));
    let mut next_seq = 0u64;
    for (step, &w) in ops.iter().enumerate() {
        let arg = w >> 8;
        match w % 32 {
            // Insert (weighted: keeps the queue busy). Pending bits only
            // on present sources, as dispatch computes them.
            0..=11 => {
                if !r.is_full() {
                    let mut srcs = [None; 3];
                    let mut pending = 0u8;
                    for (k, src) in srcs.iter_mut().enumerate() {
                        let b = arg >> (k * 12);
                        if b & 1 != 0 {
                            *src = Some(tag(b >> 2));
                            if b & 2 != 0 {
                                pending |= 1 << k;
                            }
                        }
                    }
                    // Dispatch order is the norm; occasionally an older
                    // seq arrives, exercising the squash compaction path.
                    // (Live seqs stay distinct, as in the core.)
                    let older = (arg >> 45) % next_seq.max(1);
                    let seq = if arg >> 40 & 0x1F == 0
                        && next_seq > 0
                        && r.candidates().iter().all(|&(_, s)| s != older)
                    {
                        older
                    } else {
                        next_seq += 1;
                        next_seq - 1
                    };
                    q.insert(seq, srcs, pending, &mut qs);
                    r.insert(seq, srcs, pending, &mut rs);
                }
            }
            // Wakeup broadcast of a random tag.
            12..=16 => {
                let t = tag(arg);
                q.wakeup_broadcast(t, &mut qs);
                r.wakeup_broadcast(t, &mut rs);
            }
            // Select: issue a random subset of the ready entries, the way
            // ports, replays and busy units thin the candidate list.
            17..=21 => {
                let ready = q.ready_candidates();
                assert_eq!(ready, r.ready_candidates(), "ready candidates @ step {step}");
                let mut remove: Vec<usize> = ready
                    .iter()
                    .enumerate()
                    .filter(|&(i, _)| arg >> (i % 48) & 1 != 0)
                    .map(|(_, &(pos, _))| pos)
                    .take(4)
                    .collect();
                remove.sort_unstable();
                q.remove_slots(&remove, &mut qs);
                r.remove_slots(&remove, &mut rs);
            }
            // Remove any occupied entry, pending or not.
            22 => {
                let cands = r.candidates();
                if !cands.is_empty() {
                    let pos = cands[(arg as usize) % cands.len()].0;
                    q.remove_slots(&[pos], &mut qs);
                    r.remove_slots(&[pos], &mut rs);
                }
            }
            // Squash, usually of a few youngest entries (a mispredict
            // resolving), sometimes deep; the ROB then reissues the
            // squashed seqs.
            23 => {
                let depth = if arg & 0xF == 0 { arg >> 4 } else { (arg >> 4) % 8 };
                let at = next_seq.saturating_sub(1 + depth % (next_seq + 1));
                assert_eq!(q.squash_after(at), r.squash_after(at), "squash @ step {step}");
                next_seq = next_seq.min(at + 1);
            }
            24..=28 => {
                q.tick(&mut qs);
                r.tick(&mut rs);
            }
            _ => {
                let cycles = 1 + arg % 7;
                q.charge_idle(cycles, &mut qs);
                for _ in 0..cycles {
                    r.tick(&mut rs);
                }
                if arg & 0x100 != 0 {
                    q.flush_stats(&mut qs);
                    assert_stats_eq(&qs, &rs, step);
                }
            }
        }
        assert_eq!(q.len(), r.len(), "len @ step {step}");
        assert_eq!(q.candidates(), r.candidates(), "candidates @ step {step}");
        assert_eq!(q.ready_len(), r.ready_candidates().len(), "ready count @ step {step}");
        assert_eq!(q.has_ready(), q.ready_len() > 0);
    }
    q.flush_stats(&mut qs);
    assert_stats_eq(&qs, &rs, ops.len());
    // A second flush with nothing new in between changes nothing.
    q.flush_stats(&mut qs);
    assert_stats_eq(&qs, &rs, ops.len());
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 96, ..ProptestConfig::default() })]

    #[test]
    fn event_driven_queue_matches_scan_reference(
        cap in 0..CAPACITIES.len(),
        non_collapsing in any::<bool>(),
        ops in proptest::collection::vec(any::<u64>(), 1..600),
    ) {
        let kind =
            if non_collapsing { IssueQueueKind::NonCollapsing } else { IssueQueueKind::Collapsing };
        run(kind, CAPACITIES[cap], &ops);
    }
}

/// Long runs at a fixed large capacity that alternate a fill phase
/// (inserts whose every source is pending, so nothing drains) with a
/// random phase: the queue repeatedly fills past two bitset words, and
/// long waiter lists drain while collapses shift bits across words.
#[test]
fn long_runs_past_two_bitset_words() {
    let mut rng = 0x9E37_79B9_7F4A_7C15u64;
    let mut next = || {
        // splitmix64
        rng = rng.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = rng;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    for kind in [IssueQueueKind::Collapsing, IssueQueueKind::NonCollapsing] {
        let ops: Vec<u64> = (0..40_000)
            .map(|i| {
                let z = next();
                if i % 600 < 200 {
                    // Insert op (kind 0) with three present, pending sources.
                    // (Bit 48 keeps the seq in dispatch order.)
                    (z & !0xFF) | (0x3 << 8) | (0x3 << 20) | (0x3 << 32) | (1 << 48)
                } else {
                    z
                }
            })
            .collect();
        run(kind, 130, &ops);
    }
}
