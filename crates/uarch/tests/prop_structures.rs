//! Property-based tests for the microarchitectural structures: predictors
//! and caches must be total (never panic) and well-behaved for arbitrary
//! inputs, and the issue-queue flavours must agree on scheduling order.

use boom_uarch::cache::{Access, Cache};
use boom_uarch::config::CacheParams;
use boom_uarch::issue::{IssueQueue, IssueQueueKind};
use boom_uarch::predictor::{BranchKind, Btb, CondPredictor, Ras};
use boom_uarch::stats::{IssueQueueStats, MemSysStats, PredictorStats};
use boom_uarch::{FixedLatency, PredictorKind};
use proptest::prelude::*;

proptest! {
    /// Predictors accept any pc/history and their update path is total.
    #[test]
    fn predictors_are_total(
        pcs in proptest::collection::vec((0u64..1 << 40, any::<bool>()), 1..200),
        ghist_seed in any::<u128>(),
        kind_sel in any::<bool>(),
        shift in 0u32..2,
    ) {
        let kind = if kind_sel { PredictorKind::Tage } else { PredictorKind::Gshare };
        let mut p = CondPredictor::new(kind, shift);
        let mut stats = PredictorStats::default();
        let mut ghist = ghist_seed;
        for &(pc, taken) in &pcs {
            let (pred, meta) = p.predict(pc, ghist, &mut stats);
            p.update(pc, ghist, pred, taken, &meta, &mut stats);
            ghist = (ghist << 1) | taken as u128;
        }
        prop_assert_eq!(stats.lookups, pcs.len() as u64);
        prop_assert_eq!(stats.updates, pcs.len() as u64);
    }

    /// A trained predictor converges on any fixed periodic pattern with a
    /// period it can observe in its history.
    #[test]
    fn tage_learns_any_short_period(period in 1usize..5, reps in 60usize..120) {
        let pattern: Vec<bool> = (0..period).map(|i| i % 2 == 0).collect();
        let mut p = CondPredictor::new(PredictorKind::Tage, 0);
        let mut stats = PredictorStats::default();
        let mut ghist = 0u128;
        let mut correct = 0u32;
        let mut total = 0u32;
        for rep in 0..reps {
            for &taken in &pattern {
                let (pred, meta) = p.predict(0x1000, ghist, &mut stats);
                if rep > reps / 2 {
                    total += 1;
                    correct += (pred == taken) as u32;
                }
                p.update(0x1000, ghist, pred, taken, &meta, &mut stats);
                ghist = (ghist << 1) | taken as u128;
            }
        }
        prop_assert!(correct as f64 >= 0.9 * total as f64, "{correct}/{total}");
    }

    /// BTB lookups after an update return the installed target until evicted.
    #[test]
    fn btb_returns_what_was_installed(
        pcs in proptest::collection::vec(0u64..1 << 20, 1..50),
    ) {
        let mut btb = Btb::new(64, 2);
        let mut stats = PredictorStats::default();
        for &pc in &pcs {
            btb.update(pc, pc ^ 0xF00D, BranchKind::Jump, &mut stats);
            let hit = btb.lookup(pc, &mut stats);
            prop_assert_eq!(hit, Some((pc ^ 0xF00D, BranchKind::Jump)));
        }
    }

    /// RAS never exceeds capacity and pops in LIFO order for balanced use.
    #[test]
    fn ras_lifo_up_to_capacity(addrs in proptest::collection::vec(any::<u64>(), 1..20)) {
        let mut ras = Ras::new(8);
        let mut stats = PredictorStats::default();
        for &a in &addrs {
            ras.push(a, &mut stats);
            prop_assert!(ras.depth() <= 8);
        }
        let keep = addrs.len().min(8);
        for &expect in addrs[addrs.len() - keep..].iter().rev() {
            prop_assert_eq!(ras.pop(&mut stats), Some(expect));
        }
    }

    /// Cache accesses are total and a repeated access to the same line
    /// after the refill window is always a hit.
    #[test]
    fn cache_hit_after_refill(addrs in proptest::collection::vec(0u64..1 << 30, 1..100)) {
        let params = CacheParams { sets: 16, ways: 2, line_bytes: 64, mshrs: 4, hit_latency: 2 };
        let mut cache = Cache::new(params);
        let mut backend = FixedLatency::new(40);
        let mut mem = MemSysStats::default();
        let mut stats = boom_uarch::stats::CacheStats::default();
        let mut cycle = 0u64;
        for &addr in &addrs {
            loop {
                match cache.access(addr, false, cycle, &mut stats, &mut backend, &mut mem) {
                    Access::Blocked => {
                        cycle += 1;
                        cache.tick(cycle, &mut stats);
                    }
                    acc => {
                        cycle = acc.ready_at().unwrap() + 1;
                        cache.tick(cycle, &mut stats);
                        break;
                    }
                }
            }
            // Immediately re-access: must be a hit now.
            match cache.access(addr, false, cycle, &mut stats, &mut backend, &mut mem) {
                Access::Hit { .. } => {}
                other => prop_assert!(false, "expected hit, got {other:?}"),
            }
        }
    }

    /// Both issue-queue flavours dequeue in identical (age) order for any
    /// interleaving of inserts and oldest-first removals.
    #[test]
    fn issue_queue_kinds_agree(ops in proptest::collection::vec(any::<bool>(), 1..120)) {
        let cap = 8;
        let mut coll = IssueQueue::new(IssueQueueKind::Collapsing, cap, 64, 64);
        let mut nc = IssueQueue::new(IssueQueueKind::NonCollapsing, cap, 64, 64);
        let mut cs = IssueQueueStats::new(cap);
        let mut ns = IssueQueueStats::new(cap);
        let mut next_seq = 0u64;
        for &insert in &ops {
            if insert && !coll.is_full() {
                coll.insert(next_seq, [None; 3], 0, &mut cs);
                nc.insert(next_seq, [None; 3], 0, &mut ns);
                next_seq += 1;
            } else if !coll.is_empty() {
                let c_head = coll.candidates()[0];
                let n_head = nc.candidates()[0];
                prop_assert_eq!(c_head.1, n_head.1, "age order diverged");
                coll.remove_slots(&[c_head.0], &mut cs);
                nc.remove_slots(&[n_head.0], &mut ns);
            }
            prop_assert_eq!(coll.len(), nc.len());
        }
        // Non-collapsing never pays shift writes; collapsing often does.
        prop_assert_eq!(ns.collapse_writes, 0);
    }
}
