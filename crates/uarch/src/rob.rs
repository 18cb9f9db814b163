//! The reorder buffer and its entry type.
//!
//! BOOM's merged-register-file design keeps data out of the ROB (paper
//! §IV-B), so entries here carry only control state: renaming undo
//! information, branch-prediction bookkeeping, and memory-queue indices.

use crate::predictor::{BranchKind, PredMeta};
use crate::regfile::PReg;
use crate::uop::UopInfo;
use rv_isa::exec::{Loaded, Outcome};
use rv_isa::inst::Inst;

/// Renamed destination with undo information for walk-based recovery.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DestPhys {
    /// No destination register.
    None,
    /// Integer destination: `arch` now maps to `new`; `prev` is freed at
    /// commit (or `new` is freed and the map restored on squash).
    Int {
        /// Architectural register index.
        arch: usize,
        /// Newly allocated physical register.
        new: PReg,
        /// Previous mapping (stale after commit).
        prev: PReg,
    },
    /// FP destination (same roles as `Int`).
    Fp {
        /// Architectural register index.
        arch: usize,
        /// Newly allocated physical register.
        new: PReg,
        /// Previous mapping (stale after commit).
        prev: PReg,
    },
}

/// A renamed source operand.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SrcPhys {
    /// Integer physical register.
    Int(PReg),
    /// FP physical register.
    Fp(PReg),
}

/// Execution state of an in-flight uop.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum UopState {
    /// In an issue queue waiting for operands.
    Waiting,
    /// Issued to a unit; completes at the given cycle.
    Executing {
        /// Completion (writeback) cycle.
        done_at: u64,
    },
    /// A memory op waiting on ordering or a blocked cache port.
    WaitMem,
    /// Complete; eligible for commit when it reaches the ROB head.
    Done,
}

/// Branch-prediction bookkeeping carried by control-flow uops.
#[derive(Clone, Copy, Debug)]
pub struct BranchInfo {
    /// Predicted next pc (what fetch followed).
    pub pred_next: u64,
    /// Predicted direction (conditional branches).
    pub pred_taken: bool,
    /// Global history *before* this branch's prediction.
    pub pre_hist: u128,
    /// Conditional-predictor metadata (None for jumps).
    pub meta: Option<PredMeta>,
    /// BTB training kind, decided at fetch.
    pub kind: BranchKind,
}

/// One reorder-buffer entry.
#[derive(Clone, Debug)]
pub struct RobEntry {
    /// Unique, monotonically increasing uop id.
    pub seq: u64,
    /// Instruction address.
    pub pc: u64,
    /// The instruction.
    pub inst: Inst,
    /// Cycle at which the uop was dispatched (for watchdog age reporting).
    pub dispatched_at: u64,
    /// Micro-op classification.
    pub uop: UopInfo,
    /// Renamed sources (parallel to `uop.srcs`).
    pub srcs: [Option<SrcPhys>; 3],
    /// Renamed destination.
    pub dest: DestPhys,
    /// Pipeline state.
    pub state: UopState,
    /// Resolved next pc (set at execute for control flow; `pc+4` otherwise).
    pub actual_next: u64,
    /// Resolved direction (conditional branches).
    pub taken: bool,
    /// Whether this uop triggered a misprediction recovery.
    pub mispredicted: bool,
    /// Architectural effect computed at execute.
    pub outcome: Option<Outcome>,
    /// Load result computed when the access completed.
    pub load_value: Option<Loaded>,
}

impl RobEntry {
    /// Placeholder contents of a ring slot no uop has used yet.
    fn vacant() -> RobEntry {
        let inst = Inst::Ebreak;
        RobEntry {
            seq: 0,
            pc: 0,
            inst,
            dispatched_at: 0,
            uop: crate::uop::classify(&inst),
            srcs: [None; 3],
            dest: DestPhys::None,
            state: UopState::Done,
            actual_next: 0,
            taken: false,
            mispredicted: false,
            outcome: None,
            load_value: None,
        }
    }
}

/// The reorder buffer: a bounded FIFO of in-flight uops addressed by `seq`.
///
/// Entries live in a power-of-two ring indexed by `seq & mask`: live seqs
/// are contiguous and span at most `capacity`, so each owns a distinct
/// slot. Dispatch writes an entry in place, commit just advances the head,
/// and a squash just rewinds `next_seq` (squashed seqs are reissued).
#[derive(Clone, Debug)]
pub struct Rob {
    entries: Vec<RobEntry>,
    mask: u64,
    capacity: usize,
    head_seq: u64,
    next_seq: u64,
}

impl Rob {
    /// Creates an empty ROB with `capacity` entries.
    pub fn new(capacity: usize) -> Rob {
        let ring = capacity.next_power_of_two().max(1);
        Rob {
            entries: vec![RobEntry::vacant(); ring],
            mask: ring as u64 - 1,
            capacity,
            head_seq: 0,
            next_seq: 0,
        }
    }

    /// Entries currently in flight.
    #[inline]
    pub fn len(&self) -> usize {
        (self.next_seq - self.head_seq) as usize
    }

    /// True when nothing is in flight.
    pub fn is_empty(&self) -> bool {
        self.next_seq == self.head_seq
    }

    /// True when dispatch must stall.
    pub fn is_full(&self) -> bool {
        self.len() >= self.capacity
    }

    /// Total entries the ROB can hold.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The sequence number the next dispatched uop will receive.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Ring slot of `seq`: unique among in-flight uops, so side tables
    /// sized to [`Rob::ring_size`] can be indexed by it too.
    #[inline]
    pub fn slot_of(&self, seq: u64) -> usize {
        (seq & self.mask) as usize
    }

    /// Number of ring slots (the capacity rounded up to a power of two).
    pub fn ring_size(&self) -> usize {
        self.entries.len()
    }

    /// Writes a new entry into the next ring slot; returns its sequence
    /// number.
    ///
    /// # Panics
    ///
    /// Panics if full.
    #[inline]
    pub fn push(&mut self, entry: RobEntry) -> u64 {
        assert!(!self.is_full(), "ROB overflow");
        let seq = self.next_seq;
        let slot = self.slot_of(seq);
        self.entries[slot] = RobEntry { seq, ..entry };
        self.next_seq += 1;
        seq
    }

    #[inline]
    fn live(&self, seq: u64) -> bool {
        seq.wrapping_sub(self.head_seq) < self.next_seq - self.head_seq
    }

    /// Looks up an in-flight entry by sequence number.
    #[inline]
    pub fn get(&self, seq: u64) -> Option<&RobEntry> {
        self.live(seq).then(|| &self.entries[self.slot_of(seq)])
    }

    /// Mutable lookup by sequence number.
    #[inline]
    pub fn get_mut(&mut self, seq: u64) -> Option<&mut RobEntry> {
        let slot = self.slot_of(seq);
        self.live(seq).then(move || &mut self.entries[slot])
    }

    /// The oldest in-flight entry.
    #[inline]
    pub fn head(&self) -> Option<&RobEntry> {
        self.get(self.head_seq)
    }

    /// Retires the oldest entry (commit). The commit stage copies the few
    /// fields it needs out of [`Rob::head`] first; the entry itself is
    /// never moved, its slot is simply reused by a later dispatch.
    ///
    /// # Panics
    ///
    /// Panics if empty.
    pub fn drop_head(&mut self) {
        assert!(!self.is_empty(), "commit from empty ROB");
        self.head_seq += 1;
    }

    /// Removes every entry younger than `seq` (exclusive), appending the
    /// fields recovery needs to `out`, youngest first — so a mispredict
    /// shuffles ~40-byte records instead of full entries.
    pub fn squash_after_brief(&mut self, seq: u64, out: &mut Vec<SquashedUop>) {
        let keep = seq.saturating_add(1).clamp(self.head_seq, self.next_seq);
        for s in (keep..self.next_seq).rev() {
            let e = &self.entries[self.slot_of(s)];
            out.push(SquashedUop { seq: e.seq, inst: e.inst, dest: e.dest });
        }
        self.next_seq = keep;
    }
}

/// What misprediction recovery needs to know about a squashed uop:
/// its identity (trace records), its instruction (branch-snapshot
/// accounting), and its renamed destination (rename rollback).
#[derive(Clone, Copy, Debug)]
pub struct SquashedUop {
    /// The squashed uop's sequence number.
    pub seq: u64,
    /// The squashed instruction.
    pub inst: Inst,
    /// Renamed destination to unwind.
    pub dest: DestPhys,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::uop::classify;
    use rv_isa::inst::{AluOp, Inst};
    use rv_isa::reg::Reg;

    fn dummy_entry() -> RobEntry {
        let inst = Inst::OpImm { op: AluOp::Add, rd: Reg::A0, rs1: Reg::A0, imm: 1 };
        RobEntry {
            seq: 0,
            pc: 0x8000_0000,
            uop: classify(&inst),
            inst,
            dispatched_at: 0,
            srcs: [None; 3],
            dest: DestPhys::None,
            state: UopState::Waiting,
            actual_next: 0,
            taken: false,
            mispredicted: false,
            outcome: None,
            load_value: None,
        }
    }

    #[test]
    fn sequence_numbers_are_contiguous() {
        let mut rob = Rob::new(8);
        for expect in 0..5 {
            assert_eq!(rob.push(dummy_entry()), expect);
        }
        assert_eq!(rob.head().unwrap().seq, 0);
        rob.drop_head();
        assert_eq!(rob.push(dummy_entry()), 5);
        assert_eq!(rob.get(3).unwrap().seq, 3);
        assert!(rob.get(0).is_none(), "committed entries are gone");
    }

    #[test]
    fn squash_returns_youngest_first_and_reuses_seqs() {
        let mut rob = Rob::new(8);
        for _ in 0..6 {
            rob.push(dummy_entry());
        }
        let mut squashed = Vec::new();
        rob.squash_after_brief(2, &mut squashed);
        let seqs: Vec<u64> = squashed.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![5, 4, 3]);
        assert_eq!(rob.len(), 3);
        // Sequence numbers after a squash are reissued.
        assert_eq!(rob.push(dummy_entry()), 3);
        assert!(rob.get(4).is_none(), "squashed seqs are not in flight");
    }

    #[test]
    fn capacity_enforced() {
        let mut rob = Rob::new(2);
        rob.push(dummy_entry());
        rob.push(dummy_entry());
        assert!(rob.is_full());
    }

    #[test]
    fn squash_after_committed_boundary() {
        let mut rob = Rob::new(8);
        for _ in 0..4 {
            rob.push(dummy_entry());
        }
        rob.drop_head();
        rob.drop_head(); // head_seq = 2
        let mut squashed = Vec::new();
        rob.squash_after_brief(2, &mut squashed);
        assert_eq!(squashed.len(), 1);
        assert_eq!(rob.len(), 1);
        // Squashing at an already-committed seq empties the ROB.
        rob.squash_after_brief(0, &mut squashed);
        assert!(rob.is_empty());
        assert_eq!(rob.next_seq(), 2);
    }

    #[test]
    fn ring_wraps_with_non_power_of_two_capacity() {
        let mut rob = Rob::new(6);
        for round in 0..40u64 {
            while !rob.is_full() {
                let seq = rob.push(dummy_entry());
                rob.get_mut(seq).unwrap().pc = seq * 4;
            }
            assert_eq!(rob.len(), 6);
            for _ in 0..(round % 5 + 1) {
                let h = rob.head().unwrap();
                assert_eq!(h.pc, h.seq * 4, "slot holds its own seq's entry");
                rob.drop_head();
            }
        }
    }
}
