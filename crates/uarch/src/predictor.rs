//! Branch prediction: BTB, return-address stack, TAGE, and gshare.
//!
//! The paper identifies the branch predictor as the single largest power
//! consumer in every BOOM configuration (Key Takeaway #7), with TAGE
//! consuming ≈2.5× the power of the gshare predictor of the authors' prior
//! study. Both predictors are implemented here behind [`CondPredictor`] so
//! the ablation bench can swap them.

use crate::stats::PredictorStats;

/// Control-flow class stored in the BTB.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum BranchKind {
    /// Conditional branch (direction from the conditional predictor).
    Cond,
    /// Unconditional direct jump (`jal`, non-call).
    Jump,
    /// Call (`jal`/`jalr` with `rd = ra`): pushes the RAS.
    Call,
    /// Return (`jalr` with `rs1 = ra`): target from the RAS.
    Return,
}

#[derive(Clone, Copy, Debug, Default)]
struct BtbEntry {
    valid: bool,
    tag: u64,
    target: u64,
    kind: u8,
    lru: u64,
}

/// A set-associative branch target buffer.
#[derive(Clone, Debug)]
pub struct Btb {
    entries: Vec<BtbEntry>,
    sets: usize,
    ways: usize,
    clock: u64,
}

impl Btb {
    /// Creates an empty BTB with `sets × ways` entries.
    ///
    /// # Panics
    ///
    /// Panics unless `sets` is a power of two.
    pub fn new(sets: usize, ways: usize) -> Btb {
        assert!(sets.is_power_of_two() && ways >= 1);
        Btb { entries: vec![BtbEntry::default(); sets * ways], sets, ways, clock: 0 }
    }

    fn index(&self, pc: u64) -> (usize, u64) {
        let line = pc >> 2;
        ((line as usize) & (self.sets - 1), line >> self.sets.trailing_zeros())
    }

    /// Looks up `pc`; returns the predicted target and branch kind on a hit.
    pub fn lookup(&mut self, pc: u64, stats: &mut PredictorStats) -> Option<(u64, BranchKind)> {
        stats.btb_lookups += 1;
        let (set, tag) = self.index(pc);
        self.clock += 1;
        let clock = self.clock;
        let ways = &mut self.entries[set * self.ways..(set + 1) * self.ways];
        for e in ways.iter_mut() {
            if e.valid && e.tag == tag {
                e.lru = clock;
                let kind = match e.kind {
                    0 => BranchKind::Cond,
                    1 => BranchKind::Jump,
                    2 => BranchKind::Call,
                    _ => BranchKind::Return,
                };
                return Some((e.target, kind));
            }
        }
        None
    }

    /// Installs or refreshes the entry for `pc`.
    pub fn update(&mut self, pc: u64, target: u64, kind: BranchKind, stats: &mut PredictorStats) {
        stats.btb_updates += 1;
        let (set, tag) = self.index(pc);
        self.clock += 1;
        let clock = self.clock;
        let ways = &mut self.entries[set * self.ways..(set + 1) * self.ways];
        let kind_bits = match kind {
            BranchKind::Cond => 0,
            BranchKind::Jump => 1,
            BranchKind::Call => 2,
            BranchKind::Return => 3,
        };
        if let Some(e) = ways.iter_mut().find(|e| e.valid && e.tag == tag) {
            e.target = target;
            e.kind = kind_bits;
            e.lru = clock;
            return;
        }
        let victim = ways
            .iter_mut()
            .min_by_key(|e| if e.valid { e.lru } else { 0 })
            .expect("at least one way");
        *victim = BtbEntry { valid: true, tag, target, kind: kind_bits, lru: clock };
    }

    /// Total storage bits (for the power model).
    pub fn storage_bits(&self) -> u64 {
        // tag (~22) + target (~32) + kind (2) + valid (1) per entry.
        (self.sets * self.ways) as u64 * 57
    }
}

/// A return-address stack.
#[derive(Clone, Debug)]
pub struct Ras {
    stack: Vec<u64>,
    capacity: usize,
}

impl Ras {
    /// Creates an empty RAS holding up to `capacity` return addresses.
    pub fn new(capacity: usize) -> Ras {
        Ras { stack: Vec::with_capacity(capacity), capacity }
    }

    /// Pushes a return address (oldest entry discarded when full).
    pub fn push(&mut self, addr: u64, stats: &mut PredictorStats) {
        stats.ras_pushes += 1;
        if self.stack.len() == self.capacity {
            self.stack.remove(0);
        }
        self.stack.push(addr);
    }

    /// Pops the predicted return target.
    pub fn pop(&mut self, stats: &mut PredictorStats) -> Option<u64> {
        stats.ras_pops += 1;
        self.stack.pop()
    }

    /// Current depth.
    pub fn depth(&self) -> usize {
        self.stack.len()
    }
}

// ---------------------------------------------------------------------------
// TAGE
// ---------------------------------------------------------------------------

const TAGE_TABLES: usize = 4;
const TAGE_HIST_LENS: [u32; TAGE_TABLES] = [8, 16, 32, 64];
const TAGE_TAG_BITS: u32 = 9;
const TAGE_BASE_BITS: u32 = 12; // 4096-entry bimodal
const TAGE_TABLE_BITS: u32 = 10; // 1024 entries per tagged table
const TAGE_U_RESET_PERIOD: u64 = 1 << 17;

#[derive(Clone, Copy, Debug, Default)]
struct TageEntry {
    tag: u16,
    ctr: i8, // 3-bit signed: -4..=3
    useful: u8,
}

/// Per-prediction bookkeeping carried to the commit-time update.
#[derive(Clone, Copy, Debug, Default)]
pub struct TageMeta {
    provider: i8, // table index, or -1 for bimodal
    provider_pred: bool,
    alt_pred: bool,
    indices: [u32; TAGE_TABLES],
    tags: [u16; TAGE_TABLES],
    base_index: u32,
}

/// The TAGE conditional predictor (BOOM's default).
#[derive(Clone, Debug)]
pub struct Tage {
    bimodal: Vec<u8>,
    tables: Vec<Vec<TageEntry>>,
    table_bits: u32,
    base_bits: u32,
    lfsr: u32,
    update_count: u64,
}

fn fold(hist: u128, len: u32, bits: u32) -> u32 {
    // All deployed history lengths fit in 64 bits, where shifting is a
    // single machine op; fall back to the wide path only beyond that.
    if len <= 64 {
        let mask = if len >= 64 { u64::MAX } else { (1u64 << len) - 1 };
        let mut h = (hist as u64) & mask;
        let mut out = 0u32;
        while h != 0 {
            out ^= (h as u32) & ((1 << bits) - 1);
            h >>= bits;
        }
        out
    } else {
        let mask = if len >= 128 { u128::MAX } else { (1u128 << len) - 1 };
        let mut h = hist & mask;
        let mut out = 0u32;
        while h != 0 {
            out ^= (h as u32) & ((1 << bits) - 1);
            h >>= bits;
        }
        out
    }
}

impl Tage {
    /// Creates a TAGE predictor; `shift` halves every table (`shift = 1`
    /// for MediumBOOM's half-size predictor).
    pub fn new(shift: u32) -> Tage {
        let base_bits = TAGE_BASE_BITS - shift;
        let table_bits = TAGE_TABLE_BITS - shift;
        Tage {
            bimodal: vec![2; 1 << base_bits], // weakly taken
            tables: vec![vec![TageEntry::default(); 1 << table_bits]; TAGE_TABLES],
            table_bits,
            base_bits,
            lfsr: 0xACE1,
            update_count: 0,
        }
    }

    fn compute_meta(&self, pc: u64, ghist: u128) -> TageMeta {
        let mut meta = TageMeta { provider: -1, ..TageMeta::default() };
        meta.base_index = ((pc >> 2) as u32) & ((1 << self.base_bits) - 1);
        for (t, &hl) in TAGE_HIST_LENS.iter().enumerate() {
            let idx = (((pc >> 2) as u32) ^ fold(ghist, hl, self.table_bits))
                & ((1 << self.table_bits) - 1);
            let tag = ((((pc >> 2) as u32)
                ^ fold(ghist, hl, TAGE_TAG_BITS)
                ^ (fold(ghist, hl, TAGE_TAG_BITS - 1) << 1))
                & ((1 << TAGE_TAG_BITS) - 1)) as u16;
            meta.indices[t] = idx;
            meta.tags[t] = tag;
        }
        meta
    }

    /// Predicts the direction of the branch at `pc` under global history
    /// `ghist`. Returns the prediction and the metadata needed at update.
    pub fn predict(&self, pc: u64, ghist: u128, stats: &mut PredictorStats) -> (bool, TageMeta) {
        stats.lookups += 1;
        stats.table_reads += TAGE_TABLES as u64 + 1; // all tagged tables + bimodal
        let mut meta = self.compute_meta(pc, ghist);
        let base_pred = self.bimodal[meta.base_index as usize] >= 2;
        let mut provider: i8 = -1;
        let mut alt: i8 = -1;
        for t in (0..TAGE_TABLES).rev() {
            let e = &self.tables[t][meta.indices[t] as usize];
            if e.tag == meta.tags[t] && e.useful != u8::MAX {
                if provider < 0 {
                    provider = t as i8;
                } else {
                    alt = t as i8;
                    break;
                }
            }
        }
        meta.provider = provider;
        meta.alt_pred = if alt >= 0 {
            self.tables[alt as usize][meta.indices[alt as usize] as usize].ctr >= 0
        } else {
            base_pred
        };
        let pred = if provider >= 0 {
            let e = &self.tables[provider as usize][meta.indices[provider as usize] as usize];
            // Weak, not-yet-useful entries defer to the alternate prediction.
            if (e.ctr == 0 || e.ctr == -1) && e.useful == 0 {
                meta.alt_pred
            } else {
                e.ctr >= 0
            }
        } else {
            base_pred
        };
        meta.provider_pred = if provider >= 0 {
            self.tables[provider as usize][meta.indices[provider as usize] as usize].ctr >= 0
        } else {
            base_pred
        };
        (pred, meta)
    }

    fn next_rand(&mut self) -> u32 {
        // 16-bit Galois LFSR: deterministic allocation tie-breaking.
        let lsb = self.lfsr & 1;
        self.lfsr >>= 1;
        if lsb != 0 {
            self.lfsr ^= 0xB400;
        }
        self.lfsr
    }

    /// Commit-time training with the prediction-time `meta`.
    pub fn update(&mut self, pred: bool, taken: bool, meta: &TageMeta, stats: &mut PredictorStats) {
        stats.updates += 1;
        self.update_count += 1;

        // Bimodal update (always).
        let b = &mut self.bimodal[meta.base_index as usize];
        *b = if taken { (*b + 1).min(3) } else { b.saturating_sub(1) };

        // Provider counter update.
        if meta.provider >= 0 {
            let t = meta.provider as usize;
            let e = &mut self.tables[t][meta.indices[t] as usize];
            e.ctr = if taken { (e.ctr + 1).min(3) } else { (e.ctr - 1).max(-4) };
            // Usefulness: provider correct where alternate was wrong.
            if meta.provider_pred != meta.alt_pred {
                if meta.provider_pred == taken {
                    e.useful = (e.useful + 1).min(3);
                } else {
                    e.useful = e.useful.saturating_sub(1);
                }
            }
        }

        // Allocate on a misprediction in a longer-history table.
        if pred != taken {
            let start = (meta.provider + 1) as usize;
            if start < TAGE_TABLES {
                // Eligible tables as a bitmask (bit t = table t), so the
                // commit path never allocates; the LFSR picks the n-th
                // eligible table in ascending order.
                let candidates: u32 = (start..TAGE_TABLES)
                    .filter(|&t| self.tables[t][meta.indices[t] as usize].useful == 0)
                    .fold(0, |m, t| m | 1 << t);
                if candidates == 0 {
                    for t in start..TAGE_TABLES {
                        let e = &mut self.tables[t][meta.indices[t] as usize];
                        e.useful = e.useful.saturating_sub(1);
                    }
                } else {
                    let mut rest = candidates;
                    for _ in 0..self.next_rand() % candidates.count_ones() {
                        rest &= rest - 1;
                    }
                    let pick = rest.trailing_zeros() as usize;
                    self.tables[pick][meta.indices[pick] as usize] = TageEntry {
                        tag: meta.tags[pick],
                        ctr: if taken { 0 } else { -1 },
                        useful: 0,
                    };
                    stats.allocations += 1;
                }
            }
        }

        // Periodic graceful aging of usefulness counters.
        if self.update_count.is_multiple_of(TAGE_U_RESET_PERIOD) {
            for table in &mut self.tables {
                for e in table {
                    e.useful >>= 1;
                }
            }
        }
    }

    /// Total storage bits (for the power model).
    pub fn storage_bits(&self) -> u64 {
        let tagged =
            (TAGE_TABLES as u64) * (1u64 << self.table_bits) * (TAGE_TAG_BITS as u64 + 3 + 2);
        let base = (1u64 << self.base_bits) * 2;
        tagged + base
    }

    /// Tables read per prediction (drives dynamic read energy).
    pub fn tables_per_lookup(&self) -> u64 {
        TAGE_TABLES as u64 + 1
    }
}

// ---------------------------------------------------------------------------
// Gshare
// ---------------------------------------------------------------------------

const GSHARE_BITS: u32 = 13; // 8192-entry PHT

/// The gshare predictor used by the paper's prior-work comparison.
#[derive(Clone, Debug)]
pub struct Gshare {
    pht: Vec<u8>,
    bits: u32,
}

impl Gshare {
    /// Creates a gshare predictor; `shift` halves the table.
    pub fn new(shift: u32) -> Gshare {
        let bits = GSHARE_BITS - shift;
        Gshare { pht: vec![2; 1 << bits], bits }
    }

    fn index(&self, pc: u64, ghist: u128) -> usize {
        ((((pc >> 2) as u32) ^ (ghist as u32)) & ((1 << self.bits) - 1)) as usize
    }

    /// Predicts the branch direction.
    pub fn predict(&self, pc: u64, ghist: u128, stats: &mut PredictorStats) -> bool {
        stats.lookups += 1;
        stats.table_reads += 1;
        self.pht[self.index(pc, ghist)] >= 2
    }

    /// Commit-time training.
    pub fn update(&mut self, pc: u64, ghist: u128, taken: bool, stats: &mut PredictorStats) {
        stats.updates += 1;
        let idx = self.index(pc, ghist);
        let e = &mut self.pht[idx];
        *e = if taken { (*e + 1).min(3) } else { e.saturating_sub(1) };
    }

    /// Total storage bits (for the power model).
    pub fn storage_bits(&self) -> u64 {
        (1u64 << self.bits) * 2
    }
}

/// A plain bimodal (per-pc 2-bit counter) predictor — the cheapest point
/// in the predictor power/accuracy trade-off study.
#[derive(Clone, Debug)]
pub struct Bimodal {
    pht: Vec<u8>,
    bits: u32,
}

impl Bimodal {
    /// Creates a bimodal predictor; `shift` halves the table.
    pub fn new(shift: u32) -> Bimodal {
        let bits = GSHARE_BITS - shift;
        Bimodal { pht: vec![2; 1 << bits], bits }
    }

    fn index(&self, pc: u64) -> usize {
        (((pc >> 2) as u32) & ((1 << self.bits) - 1)) as usize
    }

    /// Predicts the branch direction (history-free).
    pub fn predict(&self, pc: u64, stats: &mut PredictorStats) -> bool {
        stats.lookups += 1;
        stats.table_reads += 1;
        self.pht[self.index(pc)] >= 2
    }

    /// Commit-time training.
    pub fn update(&mut self, pc: u64, taken: bool, stats: &mut PredictorStats) {
        stats.updates += 1;
        let idx = self.index(pc);
        let e = &mut self.pht[idx];
        *e = if taken { (*e + 1).min(3) } else { e.saturating_sub(1) };
    }

    /// Total storage bits (for the power model).
    pub fn storage_bits(&self) -> u64 {
        (1u64 << self.bits) * 2
    }
}

/// Either conditional predictor, selected by the core configuration.
#[derive(Clone, Debug)]
pub enum CondPredictor {
    /// TAGE (BOOM default).
    Tage(Tage),
    /// Gshare (ablation).
    Gshare(Gshare),
    /// Bimodal (ablation).
    Bimodal(Bimodal),
}

/// Prediction metadata carried with each in-flight branch.
#[derive(Clone, Copy, Debug)]
pub enum PredMeta {
    /// TAGE bookkeeping.
    Tage(TageMeta),
    /// Gshare needs only pc + history, which the branch already carries.
    Gshare,
}

impl CondPredictor {
    /// Creates the predictor named by the config.
    pub fn new(kind: crate::config::PredictorKind, shift: u32) -> CondPredictor {
        match kind {
            crate::config::PredictorKind::Tage => CondPredictor::Tage(Tage::new(shift)),
            crate::config::PredictorKind::Gshare => CondPredictor::Gshare(Gshare::new(shift)),
            crate::config::PredictorKind::Bimodal => CondPredictor::Bimodal(Bimodal::new(shift)),
        }
    }

    /// Predicts the branch at `pc` with history `ghist`.
    pub fn predict(&self, pc: u64, ghist: u128, stats: &mut PredictorStats) -> (bool, PredMeta) {
        match self {
            CondPredictor::Tage(t) => {
                let (p, m) = t.predict(pc, ghist, stats);
                (p, PredMeta::Tage(m))
            }
            CondPredictor::Gshare(g) => (g.predict(pc, ghist, stats), PredMeta::Gshare),
            CondPredictor::Bimodal(b) => (b.predict(pc, stats), PredMeta::Gshare),
        }
    }

    /// Commit-time training.
    pub fn update(
        &mut self,
        pc: u64,
        ghist: u128,
        pred: bool,
        taken: bool,
        meta: &PredMeta,
        stats: &mut PredictorStats,
    ) {
        match (self, meta) {
            (CondPredictor::Tage(t), PredMeta::Tage(m)) => t.update(pred, taken, m, stats),
            (CondPredictor::Gshare(g), PredMeta::Gshare) => g.update(pc, ghist, taken, stats),
            (CondPredictor::Bimodal(b), PredMeta::Gshare) => b.update(pc, taken, stats),
            _ => unreachable!("meta flavour matches predictor flavour"),
        }
    }

    /// Total storage bits (for the power model).
    pub fn storage_bits(&self) -> u64 {
        match self {
            CondPredictor::Tage(t) => t.storage_bits(),
            CondPredictor::Gshare(g) => g.storage_bits(),
            CondPredictor::Bimodal(b) => b.storage_bits(),
        }
    }

    /// Tables read per prediction.
    pub fn tables_per_lookup(&self) -> u64 {
        match self {
            CondPredictor::Tage(t) => t.tables_per_lookup(),
            CondPredictor::Gshare(_) | CondPredictor::Bimodal(_) => 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn train(pred: &mut CondPredictor, pattern: &[bool], reps: usize) -> f64 {
        let mut stats = PredictorStats::default();
        let mut ghist: u128 = 0;
        let mut correct = 0u64;
        let mut total = 0u64;
        let pc = 0x8000_0100;
        for rep in 0..reps {
            for &taken in pattern {
                let (p, meta) = pred.predict(pc, ghist, &mut stats);
                if rep >= reps / 2 {
                    total += 1;
                    if p == taken {
                        correct += 1;
                    }
                }
                pred.update(pc, ghist, p, taken, &meta, &mut stats);
                ghist = (ghist << 1) | (taken as u128);
            }
        }
        correct as f64 / total.max(1) as f64
    }

    #[test]
    fn tage_learns_biased_branch() {
        let mut t = CondPredictor::new(crate::config::PredictorKind::Tage, 0);
        let acc = train(&mut t, &[true], 200);
        assert!(acc > 0.99, "accuracy {acc}");
    }

    #[test]
    fn tage_learns_periodic_pattern() {
        // Period-6 pattern needs history; bimodal alone cannot learn it.
        let mut t = CondPredictor::new(crate::config::PredictorKind::Tage, 0);
        let acc = train(&mut t, &[true, true, true, true, true, false], 400);
        assert!(acc > 0.95, "accuracy {acc}");
    }

    #[test]
    fn bimodal_learns_bias_but_not_patterns() {
        let mut b = CondPredictor::new(crate::config::PredictorKind::Bimodal, 0);
        // Strong bias: near-perfect.
        let acc = train(&mut b, &[true, true, true, true], 200);
        assert!(acc > 0.99, "biased accuracy {acc}");
        // Alternating pattern: a history-free predictor cannot learn it.
        let mut b = CondPredictor::new(crate::config::PredictorKind::Bimodal, 0);
        let acc = train(&mut b, &[true, false], 200);
        assert!(acc < 0.8, "bimodal should fail on alternation: {acc}");
    }

    #[test]
    fn gshare_learns_alternating_pattern() {
        let mut g = CondPredictor::new(crate::config::PredictorKind::Gshare, 0);
        let acc = train(&mut g, &[true, false], 300);
        assert!(acc > 0.95, "accuracy {acc}");
    }

    #[test]
    fn tage_has_more_storage_and_reads_than_gshare() {
        let t = CondPredictor::new(crate::config::PredictorKind::Tage, 0);
        let g = CondPredictor::new(crate::config::PredictorKind::Gshare, 0);
        assert!(t.storage_bits() > 3 * g.storage_bits());
        assert!(t.tables_per_lookup() > g.tables_per_lookup());
    }

    #[test]
    fn btb_round_trip_and_lru() {
        let mut stats = PredictorStats::default();
        let mut btb = Btb::new(4, 2);
        btb.update(0x100, 0x200, BranchKind::Jump, &mut stats);
        assert_eq!(btb.lookup(0x100, &mut stats), Some((0x200, BranchKind::Jump)));
        assert_eq!(btb.lookup(0x104, &mut stats), None);
        // Fill the set (pcs differing in bits above the 2-bit set index).
        btb.update(0x100 + 16, 0x300, BranchKind::Cond, &mut stats);
        // Touch 0x100 so 0x100+16 is the LRU victim for the next fill.
        assert!(btb.lookup(0x100, &mut stats).is_some());
        btb.update(0x100 + 32, 0x400, BranchKind::Cond, &mut stats);
        assert!(btb.lookup(0x100, &mut stats).is_some());
        assert!(btb.lookup(0x100 + 16, &mut stats).is_none());
    }

    #[test]
    fn ras_matches_calls_and_returns() {
        let mut stats = PredictorStats::default();
        let mut ras = Ras::new(4);
        ras.push(0x1004, &mut stats);
        ras.push(0x2004, &mut stats);
        assert_eq!(ras.pop(&mut stats), Some(0x2004));
        assert_eq!(ras.pop(&mut stats), Some(0x1004));
        assert_eq!(ras.pop(&mut stats), None);
        assert_eq!(stats.ras_pushes, 2);
        assert_eq!(stats.ras_pops, 3);
    }

    #[test]
    fn ras_overflow_discards_oldest() {
        let mut stats = PredictorStats::default();
        let mut ras = Ras::new(2);
        ras.push(1, &mut stats);
        ras.push(2, &mut stats);
        ras.push(3, &mut stats);
        assert_eq!(ras.pop(&mut stats), Some(3));
        assert_eq!(ras.pop(&mut stats), Some(2));
        assert_eq!(ras.pop(&mut stats), None);
    }
}
