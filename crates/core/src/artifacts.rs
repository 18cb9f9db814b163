//! Staged, shareable artifacts of the SimPoint flow.
//!
//! The front half of the flow — functional profiling, phase analysis, and
//! architectural checkpoint capture — is *configuration-independent* by
//! construction: BBVs, cluster assignments, and architectural snapshots
//! depend only on the workload and the flow parameters, never on the
//! microarchitecture being evaluated (the same property the paper's
//! Spike/gem5 artifacts exploit). A campaign over many configurations
//! therefore needs each of those stages exactly once per workload.
//!
//! [`ArtifactStore`] memoizes four stages behind a thread-safe,
//! compute-exactly-once cache:
//!
//! * **Profile** — [`BbvProfile`], keyed by (program fingerprint,
//!   interval size, profiling budget);
//! * **SimPointAnalysis** — [`SimPointAnalysis`], keyed by the profile
//!   key plus [`SimPointConfig::cache_fingerprint`];
//! * **CheckpointSet** — [`CheckpointSet`], keyed by the analysis key
//!   plus the warm-up length. Checkpoints are held behind [`Arc`]
//!   ([`rv_isa::checkpoint::SharedCheckpoint`]) so the memory images are
//!   shared — not cloned — across configurations and worker threads;
//! * **Point** — one supervised detailed simulation of one selected
//!   point, keyed by the configuration fingerprint, the full checkpoint
//!   key, the interval truncation shift, the point index, and the
//!   supervision fingerprint. Campaigns, sweep rungs, the single-cell
//!   flow and the campaign service all run their points through it
//!   ([`crate::scheduler::PointPhase`]), so concurrent callers of one
//!   point share a single computation and later callers reuse it.
//!
//! The first three stages are also persisted by the optional disk tier;
//! point outcomes live in memory only (the campaign journal is their
//! durable form).
//!
//! A full-run baseline cache ([`ArtifactStore::full_run`]) rides along for
//! the methodology benches that compare SimPoint against full detailed
//! simulation: the baseline is (configuration, workload)-keyed and only
//! ever simulated once per store.
//!
//! Every stage records compute/hit counters and exclusive wall-clock
//! totals ([`CacheStats`]), which the campaign scheduler surfaces through
//! [`CampaignReport`](crate::CampaignReport) — the reuse win is
//! observable, not assumed.

use crate::diskcache::{CacheStage, DiskCache, DiskFaultInjection, DiskLookup};
use crate::flow::{
    run_full, supervision_fingerprint, FlowConfig, FlowError, FullRunResult, PointOutcome,
    PointResult,
};
use crate::supervisor::PointFailure;
use crate::sync::lock;
use boom_uarch::BoomConfig;
use rv_isa::bbv::BbvProfile;
use rv_isa::checkpoint::{checkpoints_at_shared, Checkpoint, SharedCheckpoint};
use rv_isa::codec::{fnv1a, ByteReader, ByteWriter, CodecError};
use rv_workloads::Workload;
use simpoint::{analyze, SimPointAnalysis};
use std::cell::Cell;
use std::collections::HashMap;
use std::hash::Hash;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Cache key of a profiling artifact.
type ProfileKey = (u64, u64, u64);
/// Cache key of a phase-analysis artifact.
type AnalysisKey = (ProfileKey, u64);
/// Cache key of a checkpoint-set artifact.
type CheckpointKey = (AnalysisKey, u64);
/// Cache key of a full-run baseline.
type FullRunKey = (u64, u64);

/// Cache key of one memoized point outcome: (configuration fingerprint,
/// checkpoint key, interval truncation shift, point index, supervision
/// fingerprint). The checkpoint key pins the exact point set the index
/// refers to, the shift keeps a truncated rung-0 measurement from
/// masquerading as the full-length result, and the supervision
/// fingerprint keeps outcomes of different retry or fault-injection
/// policies apart — so one store can serve any mix of flows.
pub(crate) type PointKey = (u64, CheckpointKey, u32, u32, u64);

/// A compute-exactly-once slot: concurrent callers of the same key block
/// on the first computation and then share its result.
type Slot<T, E = FlowError> = Arc<OnceLock<Result<T, E>>>;
/// A point-stage slot: holds a [`PointOutcome`].
type PointSlot = Slot<(PointResult, u32), PointFailure>;

/// One selected simulation point, fully planned for detailed simulation:
/// its checkpoint (shared, not cloned), warm-up length, and measurement
/// window.
#[derive(Clone, Debug)]
pub struct PlannedPoint {
    /// Index among the analysis' selected points.
    pub sel_idx: usize,
    /// Index of the represented interval in the BBV profile.
    pub interval: usize,
    /// Cluster weight (fraction of execution).
    pub weight: f64,
    /// Length of the measured interval in dynamic instructions.
    pub interval_len: u64,
    /// Warm-up instructions before the measured interval (clamped to the
    /// checkpoint's position).
    pub warmup: u64,
    /// Architectural snapshot at (interval start − warm-up), shared
    /// across every configuration that simulates this point.
    pub checkpoint: SharedCheckpoint,
}

/// The complete configuration-independent front half of the flow for one
/// (workload, flow-parameters) pair: profile, analysis, and one planned
/// point per selected simulation point.
#[derive(Clone, Debug)]
pub struct CheckpointSet {
    /// The BBV profile the analysis was derived from.
    pub profile: Arc<BbvProfile>,
    /// The phase analysis (selected points, weights, coverage, speedup).
    pub analysis: Arc<SimPointAnalysis>,
    /// Planned points in checkpoint-capture order (ascending position in
    /// the dynamic instruction stream) — the order detailed simulation
    /// and result assembly use.
    pub points: Vec<PlannedPoint>,
}

/// Per-stage compute/hit counters and wall-clock totals of an
/// [`ArtifactStore`] (monotonic; snapshot with [`ArtifactStore::stats`]).
///
/// "Computed" counts closure executions (cache misses that did the work);
/// "hits" counts lookups served from the cache, including the store's own
/// internal lookups (a checkpoint-set computation re-reads its profile
/// and analysis through the cache).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct CacheStats {
    /// Profiling passes executed.
    pub profile_computed: u64,
    /// Profiling lookups served from cache.
    pub profile_hits: u64,
    /// Phase analyses executed.
    pub cluster_computed: u64,
    /// Phase-analysis lookups served from cache.
    pub cluster_hits: u64,
    /// Checkpoint-capture passes executed.
    pub checkpoint_computed: u64,
    /// Checkpoint-set lookups served from cache.
    pub checkpoint_hits: u64,
    /// Full-run baselines simulated.
    pub full_run_computed: u64,
    /// Full-run lookups served from cache.
    pub full_run_hits: u64,
    /// Detailed point simulations executed (point-stage misses).
    pub point_computed: u64,
    /// Wall-clock spent profiling, in ms.
    pub profile_ms: f64,
    /// Wall-clock spent clustering, in ms.
    pub cluster_ms: f64,
    /// Wall-clock spent capturing checkpoints, in ms.
    pub checkpoint_ms: f64,
    /// Wall-clock spent simulating detailed points, in ms (the point
    /// stage's compute time, summed across worker threads).
    pub detailed_ms: f64,
    /// Wall-clock spent simulating full-run baselines, in ms.
    pub full_run_ms: f64,
    /// Stage fills served from the disk cache (validated loads).
    pub disk_hits: u64,
    /// Disk-cache lookups that found no entry.
    pub disk_misses: u64,
    /// Artifacts persisted to the disk cache.
    pub disk_writes: u64,
    /// Disk entries that failed validation and were quarantined.
    pub disk_quarantined: u64,
    /// Cached stage *errors* (and quarantined point outcomes) replayed
    /// to later callers — the failure context is the original compute's,
    /// not the replaying cell's.
    pub error_replays: u64,
    /// Point lookups served from the point stage instead of simulated: a
    /// promoted sweep config re-reading a lower-rung measurement, a
    /// journal-replayed point, or a point another campaign (or request)
    /// already ran or is running — the last kind is also counted in
    /// `inflight_dedup_hits`.
    pub sweep_point_hits: u64,
    /// Lookups (of any stage) that found the key *in flight* — another
    /// caller was already computing it — and blocked on that computation
    /// instead of duplicating it. Nonzero means single-flight
    /// deduplication actually coalesced concurrent work.
    pub inflight_dedup_hits: u64,
}

impl CacheStats {
    /// The counters accumulated since the `start` snapshot of the same
    /// store: what one campaign or sweep did to a long-lived store (plus
    /// whatever concurrent callers of the store did meanwhile).
    pub fn since(&self, start: &CacheStats) -> CacheStats {
        CacheStats {
            profile_computed: self.profile_computed - start.profile_computed,
            profile_hits: self.profile_hits - start.profile_hits,
            cluster_computed: self.cluster_computed - start.cluster_computed,
            cluster_hits: self.cluster_hits - start.cluster_hits,
            checkpoint_computed: self.checkpoint_computed - start.checkpoint_computed,
            checkpoint_hits: self.checkpoint_hits - start.checkpoint_hits,
            full_run_computed: self.full_run_computed - start.full_run_computed,
            full_run_hits: self.full_run_hits - start.full_run_hits,
            point_computed: self.point_computed - start.point_computed,
            profile_ms: self.profile_ms - start.profile_ms,
            cluster_ms: self.cluster_ms - start.cluster_ms,
            checkpoint_ms: self.checkpoint_ms - start.checkpoint_ms,
            detailed_ms: self.detailed_ms - start.detailed_ms,
            full_run_ms: self.full_run_ms - start.full_run_ms,
            disk_hits: self.disk_hits - start.disk_hits,
            disk_misses: self.disk_misses - start.disk_misses,
            disk_writes: self.disk_writes - start.disk_writes,
            disk_quarantined: self.disk_quarantined - start.disk_quarantined,
            error_replays: self.error_replays - start.error_replays,
            sweep_point_hits: self.sweep_point_hits - start.sweep_point_hits,
            inflight_dedup_hits: self.inflight_dedup_hits - start.inflight_dedup_hits,
        }
    }
}

#[derive(Default)]
struct Counters {
    profile_computed: AtomicU64,
    profile_hits: AtomicU64,
    cluster_computed: AtomicU64,
    cluster_hits: AtomicU64,
    checkpoint_computed: AtomicU64,
    checkpoint_hits: AtomicU64,
    full_run_computed: AtomicU64,
    full_run_hits: AtomicU64,
    point_computed: AtomicU64,
    profile_us: AtomicU64,
    cluster_us: AtomicU64,
    checkpoint_us: AtomicU64,
    detailed_us: AtomicU64,
    full_run_us: AtomicU64,
    disk_hits: AtomicU64,
    disk_misses: AtomicU64,
    disk_writes: AtomicU64,
    disk_quarantined: AtomicU64,
    error_replays: AtomicU64,
    sweep_point_hits: AtomicU64,
    inflight_dedup_hits: AtomicU64,
}

/// Thread-safe memoization of the flow's four stages, plus the full-run
/// baseline cache and stage accounting.
///
/// Artifacts live for the store's lifetime. Every key carries everything
/// its result depends on, so one store may serve many campaigns, sweeps
/// and service requests at once; each reports the counters accumulated
/// while it ran ([`CacheStats::since`]).
#[derive(Default)]
pub struct ArtifactStore {
    profiles: Mutex<HashMap<ProfileKey, Slot<Arc<BbvProfile>>>>,
    analyses: Mutex<HashMap<AnalysisKey, Slot<Arc<SimPointAnalysis>>>>,
    checkpoints: Mutex<HashMap<CheckpointKey, Slot<Arc<CheckpointSet>>>>,
    full_runs: Mutex<HashMap<FullRunKey, Slot<Arc<FullRunResult>>>>,
    points: Mutex<HashMap<PointKey, PointSlot>>,
    counters: Counters,
    /// Optional crash-safe disk tier behind the in-memory memo maps.
    disk: Option<DiskCache>,
}

/// Fetches `key` from `map`, computing it exactly once across threads:
/// concurrent callers of an in-flight key block until the first
/// computation finishes and then share its (cloned) result.
///
/// `compute` additionally reports whether the fill was served by the
/// disk tier, so disk loads are counted as disk hits rather than
/// computations; in-memory replays of a cached *error* are tallied in
/// `error_replays` — the failure context stays attributed to the
/// original compute.
struct MemoMeters<'a> {
    /// Fresh (non-disk) computations of this stage.
    computed: &'a AtomicU64,
    /// Completed-slot cache hits.
    hits: &'a AtomicU64,
    /// Hits that replayed a cached *error*.
    error_replays: &'a AtomicU64,
    /// Hits that blocked on another caller's in-flight computation.
    inflight: &'a AtomicU64,
    /// Wall-clock microseconds spent computing, excluding nested stage
    /// lookups (see [`NESTED_NS`]).
    spent_us: &'a AtomicU64,
}

thread_local! {
    /// Nanoseconds this thread has spent inside memoized stage lookups
    /// since the innermost computing stage started. A stage's compute
    /// calls the earlier stages it needs (checkpoints ask for the profile
    /// and the analysis); charging those calls' time to the caller too
    /// would count it twice, so each stage reports exclusive time.
    static NESTED_NS: Cell<u64> = const { Cell::new(0) };
}

fn memoize<K, T, E>(
    map: &Mutex<HashMap<K, Slot<T, E>>>,
    key: K,
    meters: MemoMeters<'_>,
    compute: impl FnOnce() -> (Result<T, E>, bool),
) -> Result<T, E>
where
    K: Eq + Hash,
    T: Clone,
    E: Clone,
{
    let call = Instant::now();
    let slot = lock(map).entry(key).or_default().clone();
    // Whether the slot was already complete *before* this lookup: a hit
    // on an incomplete slot means we blocked on another caller's
    // in-flight computation — single-flight dedup, not a plain cache hit.
    let pre_done = slot.get().is_some();
    let mut ran = false;
    let mut from_disk = false;
    let result = slot.get_or_init(|| {
        ran = true;
        let outer = NESTED_NS.replace(0);
        let t0 = Instant::now();
        let (r, disk) = compute();
        from_disk = disk;
        let own = (t0.elapsed().as_nanos() as u64).saturating_sub(NESTED_NS.replace(outer));
        meters.spent_us.fetch_add(own / 1000, Ordering::Relaxed);
        r
    });
    // The whole lookup — waits on another thread's fill included — is
    // nested time for whichever stage on this thread asked for it.
    NESTED_NS.set(NESTED_NS.get() + call.elapsed().as_nanos() as u64);
    if ran {
        if !from_disk {
            meters.computed.fetch_add(1, Ordering::Relaxed);
        }
    } else {
        meters.hits.fetch_add(1, Ordering::Relaxed);
        if !pre_done {
            meters.inflight.fetch_add(1, Ordering::Relaxed);
        }
        if result.is_err() {
            meters.error_replays.fetch_add(1, Ordering::Relaxed);
        }
    }
    result.clone()
}

impl ArtifactStore {
    /// Creates an empty, memory-only store.
    pub fn new() -> ArtifactStore {
        ArtifactStore::default()
    }

    /// Creates a store backed by a crash-safe disk cache at `dir`
    /// (created if needed): stage artifacts are persisted on compute and
    /// served from disk on later runs, under the same fingerprint keys
    /// the in-memory maps use. Corrupt entries are quarantined and
    /// recomputed, never trusted.
    ///
    /// # Errors
    ///
    /// Propagates directory-creation failures.
    pub fn with_disk_cache(dir: &Path) -> std::io::Result<ArtifactStore> {
        Self::with_disk_cache_injected(dir, DiskFaultInjection::default())
    }

    /// [`ArtifactStore::with_disk_cache`] with deterministic I/O fault
    /// injection, for tests and CI drills of the recovery paths.
    ///
    /// # Errors
    ///
    /// Propagates directory-creation failures.
    pub fn with_disk_cache_injected(
        dir: &Path,
        faults: DiskFaultInjection,
    ) -> std::io::Result<ArtifactStore> {
        Ok(ArtifactStore { disk: Some(DiskCache::open(dir, faults)?), ..ArtifactStore::default() })
    }

    fn profile_key(workload: &Workload, flow: &FlowConfig) -> ProfileKey {
        (workload.program.fingerprint(), workload.interval_size, flow.max_profile_insts)
    }

    fn analysis_key(workload: &Workload, flow: &FlowConfig) -> AnalysisKey {
        (Self::profile_key(workload, flow), flow.simpoint.cache_fingerprint())
    }

    fn checkpoint_key(workload: &Workload, flow: &FlowConfig) -> CheckpointKey {
        (Self::analysis_key(workload, flow), flow.warmup_insts)
    }

    /// Runs a stage fill through the disk tier: validated disk entries
    /// short-circuit the compute, anything else (miss, quarantine, or an
    /// undecodable payload) recomputes and persists the result. The bool
    /// reports whether the value came from disk. Stage *errors* are never
    /// persisted — only successful artifacts are worth replaying across
    /// processes.
    fn with_disk<T>(
        &self,
        stage: CacheStage,
        key: u64,
        name: &str,
        decode: impl FnOnce(&[u8]) -> Result<T, CodecError>,
        encode: impl FnOnce(&T) -> Vec<u8>,
        compute: impl FnOnce() -> Result<T, FlowError>,
    ) -> (Result<T, FlowError>, bool) {
        let Some(disk) = &self.disk else {
            return (compute(), false);
        };
        let c = &self.counters;
        match disk.load(stage, key, name) {
            DiskLookup::Hit(bytes) => match decode(&bytes) {
                Ok(t) => {
                    c.disk_hits.fetch_add(1, Ordering::Relaxed);
                    return (Ok(t), true);
                }
                Err(_) => {
                    // Checksum passed but the payload does not decode
                    // (format drift): quarantine like any corruption.
                    disk.quarantine_entry(stage, name);
                    c.disk_quarantined.fetch_add(1, Ordering::Relaxed);
                }
            },
            DiskLookup::Miss => {
                c.disk_misses.fetch_add(1, Ordering::Relaxed);
            }
            DiskLookup::Quarantined => {
                c.disk_quarantined.fetch_add(1, Ordering::Relaxed);
            }
        }
        let result = compute();
        if let Ok(t) = &result {
            if disk.store(stage, key, name, &encode(t)).is_ok() {
                c.disk_writes.fetch_add(1, Ordering::Relaxed);
            }
        }
        (result, false)
    }

    /// Stage 1 — the workload's BBV profile, computed at most once per
    /// (program, interval size, profiling budget).
    ///
    /// # Errors
    ///
    /// Propagates profiling failures (simulator fault, no exit, failed
    /// self-verification); the error is cached and replayed to every
    /// caller of the same key.
    pub fn profile(
        &self,
        workload: &Workload,
        flow: &FlowConfig,
    ) -> Result<Arc<BbvProfile>, FlowError> {
        let c = &self.counters;
        let key = Self::profile_key(workload, flow);
        memoize(
            &self.profiles,
            key,
            MemoMeters {
                computed: &c.profile_computed,
                hits: &c.profile_hits,
                error_replays: &c.error_replays,
                inflight: &c.inflight_dedup_hits,
                spent_us: &c.profile_us,
            },
            || {
                self.with_disk(
                    CacheStage::Profile,
                    hash_words(&[key.0, key.1, key.2]),
                    &format!("{:016x}-{}-{}", key.0, key.1, key.2),
                    |bytes| {
                        let mut r = ByteReader::new(bytes);
                        let p = BbvProfile::decode(&mut r)?;
                        r.finish()?;
                        Ok(Arc::new(p))
                    },
                    |p| {
                        let mut w = ByteWriter::new();
                        p.encode(&mut w);
                        w.into_bytes()
                    },
                    || crate::flow::profile(workload, flow.max_profile_insts).map(Arc::new),
                )
            },
        )
    }

    /// Stage 2 — the SimPoint phase analysis over the workload's profile,
    /// computed at most once per (profile, SimPoint config).
    ///
    /// # Errors
    ///
    /// Propagates a profiling failure from stage 1.
    pub fn analysis(
        &self,
        workload: &Workload,
        flow: &FlowConfig,
    ) -> Result<Arc<SimPointAnalysis>, FlowError> {
        let c = &self.counters;
        let key = Self::analysis_key(workload, flow);
        memoize(
            &self.analyses,
            key,
            MemoMeters {
                computed: &c.cluster_computed,
                hits: &c.cluster_hits,
                error_replays: &c.error_replays,
                inflight: &c.inflight_dedup_hits,
                spent_us: &c.cluster_us,
            },
            || {
                self.with_disk(
                    CacheStage::Analysis,
                    hash_words(&[key.0 .0, key.0 .1, key.0 .2, key.1]),
                    &format!("{:016x}-{}-{}-{:016x}", key.0 .0, key.0 .1, key.0 .2, key.1),
                    |bytes| {
                        let mut r = ByteReader::new(bytes);
                        let a = SimPointAnalysis::decode(&mut r)?;
                        r.finish()?;
                        Ok(Arc::new(a))
                    },
                    |a| {
                        let mut w = ByteWriter::new();
                        a.encode(&mut w);
                        w.into_bytes()
                    },
                    || {
                        let bbv = self.profile(workload, flow)?;
                        Ok(Arc::new(analyze(&bbv, &flow.simpoint)))
                    },
                )
            },
        )
    }

    /// Stage 3 — the planned checkpoint set: one architectural snapshot
    /// per selected point at (interval start − warm-up), captured in a
    /// single functional pass at most once per (analysis, warm-up).
    ///
    /// # Errors
    ///
    /// Propagates stage 1/2 failures and checkpoint-capture simulator
    /// faults.
    pub fn checkpoints(
        &self,
        workload: &Workload,
        flow: &FlowConfig,
    ) -> Result<Arc<CheckpointSet>, FlowError> {
        let c = &self.counters;
        let key = Self::checkpoint_key(workload, flow);
        memoize(
            &self.checkpoints,
            key,
            MemoMeters {
                computed: &c.checkpoint_computed,
                hits: &c.checkpoint_hits,
                error_replays: &c.error_replays,
                inflight: &c.inflight_dedup_hits,
                spent_us: &c.checkpoint_us,
            },
            || {
                // Both the disk-decode and the compute path need the
                // (cached) front stages: the set embeds them, and the
                // disk entry stores only the planned points.
                let profile = match self.profile(workload, flow) {
                    Ok(p) => p,
                    Err(e) => return (Err(e), false),
                };
                let analysis = match self.analysis(workload, flow) {
                    Ok(a) => a,
                    Err(e) => return (Err(e), false),
                };
                let (dec_profile, dec_analysis) = (profile.clone(), analysis.clone());
                let ((pk, ik, bk), sk) = key.0;
                self.with_disk(
                    CacheStage::Checkpoints,
                    hash_words(&[pk, ik, bk, sk, key.1]),
                    &format!("{pk:016x}-{ik}-{bk}-{sk:016x}-{}", key.1),
                    move |bytes| {
                        let mut r = ByteReader::new(bytes);
                        let points = decode_points(&mut r)?;
                        r.finish()?;
                        Ok(Arc::new(CheckpointSet {
                            profile: dec_profile,
                            analysis: dec_analysis,
                            points,
                        }))
                    },
                    |set| {
                        let mut w = ByteWriter::new();
                        encode_points(&mut w, &set.points);
                        w.into_bytes()
                    },
                    move || {
                        let starts = analysis.selected_starts(&profile);
                        // Capture at (interval start − warm-up), batched
                        // in one pass; the capture cursor only moves
                        // forward, so sort by position. This order is
                        // also the flow's point order.
                        let mut targets: Vec<(usize, u64, u64)> = starts
                            .iter()
                            .enumerate()
                            .map(|(i, &s)| {
                                let warm = flow.warmup_insts.min(s);
                                (i, s - warm, warm)
                            })
                            .collect();
                        targets.sort_by_key(|&(_, at, _)| at);
                        let sorted: Vec<u64> = targets.iter().map(|&(_, at, _)| at).collect();
                        let checkpoints = checkpoints_at_shared(&workload.program, &sorted)?;
                        let points = targets
                            .into_iter()
                            .zip(checkpoints)
                            .map(|((sel_idx, _, warmup), checkpoint)| {
                                let sp = analysis.selected[sel_idx];
                                PlannedPoint {
                                    sel_idx,
                                    interval: sp.interval,
                                    weight: sp.weight,
                                    interval_len: profile.intervals[sp.interval].len,
                                    warmup,
                                    checkpoint,
                                }
                            })
                            .collect();
                        Ok(Arc::new(CheckpointSet { profile, analysis, points }))
                    },
                )
            },
        )
    }

    /// Full-detailed-simulation baseline for one (configuration,
    /// workload), simulated at most once per store — the methodology
    /// benches compare many SimPoint variants against this single run.
    ///
    /// # Errors
    ///
    /// Propagates [`run_full`] failures.
    pub fn full_run(
        &self,
        cfg: &BoomConfig,
        workload: &Workload,
    ) -> Result<Arc<FullRunResult>, FlowError> {
        let c = &self.counters;
        let key = (config_fingerprint(cfg), workload.program.fingerprint());
        memoize(
            &self.full_runs,
            key,
            MemoMeters {
                computed: &c.full_run_computed,
                hits: &c.full_run_hits,
                error_replays: &c.error_replays,
                inflight: &c.inflight_dedup_hits,
                spent_us: &c.full_run_us,
            },
            || (run_full(cfg, workload).map(Arc::new), false),
        )
    }

    /// The point-stage key of point `p_idx` of `workload`'s checkpoint
    /// set under `flow`, simulated on the configuration with fingerprint
    /// `cfg_fp` at interval truncation `shift`.
    pub(crate) fn point_key(
        cfg_fp: u64,
        workload: &Workload,
        flow: &FlowConfig,
        shift: u32,
        p_idx: usize,
    ) -> PointKey {
        let checkpoints = Self::checkpoint_key(workload, flow);
        (cfg_fp, checkpoints, shift, p_idx as u32, supervision_fingerprint(flow))
    }

    /// Stage 4 — one supervised detailed point, run by `simulate` at most
    /// once per [`PointKey`]: concurrent callers of an in-flight key block
    /// on the first and share its outcome, later callers reuse it.
    /// Quarantine records are outcomes like any other and are shared the
    /// same way.
    pub(crate) fn point(
        &self,
        key: PointKey,
        simulate: impl FnOnce() -> PointOutcome,
    ) -> PointOutcome {
        let c = &self.counters;
        memoize(
            &self.points,
            key,
            MemoMeters {
                computed: &c.point_computed,
                hits: &c.sweep_point_hits,
                error_replays: &c.error_replays,
                inflight: &c.inflight_dedup_hits,
                spent_us: &c.detailed_us,
            },
            || (simulate(), false),
        )
    }

    /// Whether the point stage already holds a completed outcome for `key`
    /// (a lookup would be a hit that simulates nothing).
    pub(crate) fn has_point(&self, key: &PointKey) -> bool {
        lock(&self.points).get(key).is_some_and(|slot| slot.get().is_some())
    }

    /// Seeds the point stage with an outcome recovered from a journal.
    /// A key that already completed keeps its outcome (the flow is
    /// deterministic, so both are the same).
    pub(crate) fn prefill_point(&self, key: PointKey, outcome: PointOutcome) {
        let slot = lock(&self.points).entry(key).or_default().clone();
        let _ = slot.set(outcome);
    }

    /// Snapshot of the per-stage counters and wall-clock totals.
    pub fn stats(&self) -> CacheStats {
        let c = &self.counters;
        let ms = |a: &AtomicU64| a.load(Ordering::Relaxed) as f64 / 1000.0;
        CacheStats {
            profile_computed: c.profile_computed.load(Ordering::Relaxed),
            profile_hits: c.profile_hits.load(Ordering::Relaxed),
            cluster_computed: c.cluster_computed.load(Ordering::Relaxed),
            cluster_hits: c.cluster_hits.load(Ordering::Relaxed),
            checkpoint_computed: c.checkpoint_computed.load(Ordering::Relaxed),
            checkpoint_hits: c.checkpoint_hits.load(Ordering::Relaxed),
            full_run_computed: c.full_run_computed.load(Ordering::Relaxed),
            full_run_hits: c.full_run_hits.load(Ordering::Relaxed),
            point_computed: c.point_computed.load(Ordering::Relaxed),
            profile_ms: ms(&c.profile_us),
            cluster_ms: ms(&c.cluster_us),
            checkpoint_ms: ms(&c.checkpoint_us),
            detailed_ms: ms(&c.detailed_us),
            full_run_ms: ms(&c.full_run_us),
            disk_hits: c.disk_hits.load(Ordering::Relaxed),
            disk_misses: c.disk_misses.load(Ordering::Relaxed),
            disk_writes: c.disk_writes.load(Ordering::Relaxed),
            disk_quarantined: c.disk_quarantined.load(Ordering::Relaxed),
            error_replays: c.error_replays.load(Ordering::Relaxed),
            sweep_point_hits: c.sweep_point_hits.load(Ordering::Relaxed),
            inflight_dedup_hits: c.inflight_dedup_hits.load(Ordering::Relaxed),
        }
    }
}

/// FNV-1a over a word sequence — the disk-cache key hash of a composite
/// in-memory key.
fn hash_words(words: &[u64]) -> u64 {
    let mut bytes = Vec::with_capacity(words.len() * 8);
    for w in words {
        bytes.extend_from_slice(&w.to_le_bytes());
    }
    fnv1a(&bytes)
}

/// Serializes the planned points of a [`CheckpointSet`] (the profile and
/// analysis have their own disk entries and are re-attached on load).
fn encode_points(w: &mut ByteWriter, points: &[PlannedPoint]) {
    w.put_usize(points.len());
    for p in points {
        w.put_usize(p.sel_idx);
        w.put_usize(p.interval);
        w.put_f64(p.weight);
        w.put_u64(p.interval_len);
        w.put_u64(p.warmup);
        p.checkpoint.encode(w);
    }
}

/// Decodes the planned points written by [`encode_points`], re-wrapping
/// each checkpoint in a fresh [`Arc`] for cross-thread sharing.
fn decode_points(r: &mut ByteReader<'_>) -> Result<Vec<PlannedPoint>, CodecError> {
    let n = r.seq_len(40)?;
    let mut points = Vec::with_capacity(n);
    for _ in 0..n {
        let sel_idx = r.usize()?;
        let interval = r.usize()?;
        let weight = r.f64()?;
        let interval_len = r.u64()?;
        let warmup = r.u64()?;
        let checkpoint = Arc::new(Checkpoint::decode(r)?);
        points.push(PlannedPoint { sel_idx, interval, weight, interval_len, warmup, checkpoint });
    }
    Ok(points)
}

/// Stable fingerprint of a configuration for full-run baseline keying
/// (also part of the campaign journal's matrix fingerprint).
/// `BoomConfig`'s `Debug` rendering covers every field, so hashing it
/// distinguishes ablation variants that share a preset name.
pub(crate) fn config_fingerprint(cfg: &BoomConfig) -> u64 {
    fnv1a(format!("{cfg:?}").as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rv_workloads::{by_name, Scale};
    use simpoint::SimPointConfig;

    fn quick_flow() -> FlowConfig {
        FlowConfig {
            simpoint: SimPointConfig { max_k: 4, restarts: 1, ..SimPointConfig::default() },
            warmup_insts: 500,
            ..FlowConfig::default()
        }
    }

    #[test]
    fn stages_compute_once_and_then_hit() {
        let store = ArtifactStore::new();
        let w = by_name("bitcount", Scale::Test).unwrap();
        let flow = quick_flow();
        let a = store.checkpoints(&w, &flow).unwrap();
        let b = store.checkpoints(&w, &flow).unwrap();
        assert!(Arc::ptr_eq(&a, &b), "second lookup must share the artifact");
        let s = store.stats();
        assert_eq!(s.profile_computed, 1);
        assert_eq!(s.cluster_computed, 1);
        assert_eq!(s.checkpoint_computed, 1);
        assert_eq!(s.checkpoint_hits, 1);
        // Checkpoints are shared allocations, not clones.
        for p in &a.points {
            assert!(Arc::strong_count(&p.checkpoint) >= 1);
        }
    }

    #[test]
    fn distinct_warmups_share_profile_and_analysis() {
        let store = ArtifactStore::new();
        let w = by_name("bitcount", Scale::Test).unwrap();
        let f1 = quick_flow();
        let f2 = FlowConfig { warmup_insts: 100, ..quick_flow() };
        store.checkpoints(&w, &f1).unwrap();
        store.checkpoints(&w, &f2).unwrap();
        let s = store.stats();
        assert_eq!(s.profile_computed, 1, "warm-up must not invalidate the profile");
        assert_eq!(s.cluster_computed, 1, "warm-up must not invalidate the analysis");
        assert_eq!(s.checkpoint_computed, 2, "warm-up is part of the checkpoint key");
    }

    #[test]
    fn profiling_errors_are_cached_and_replayed() {
        use rv_isa::asm::Assembler;
        use rv_isa::reg::Reg::*;
        let mut a = Assembler::new();
        a.li(A0, 9);
        a.exit();
        let broken = Workload {
            name: "broken",
            suite: rv_workloads::Suite::MiBench,
            program: a.assemble().unwrap(),
            interval_size: 100,
        };
        let store = ArtifactStore::new();
        for _ in 0..2 {
            match store.profile(&broken, &quick_flow()) {
                Err(FlowError::SelfCheckFailed(9)) => {}
                other => panic!("unexpected {other:?}"),
            }
        }
        let s = store.stats();
        assert_eq!(s.profile_computed, 1, "the failing profile must not be re-run");
        assert_eq!(s.profile_hits, 1);
    }

    #[test]
    fn singleflight_point_counts_inflight_and_warm_hits() {
        use crate::supervisor::FailureKind;
        let store = Arc::new(ArtifactStore::new());
        let w = by_name("bitcount", Scale::Test).unwrap();
        let key = ArtifactStore::point_key(42, &w, &quick_flow(), 0, 0);
        let outcome = |tag: &str| {
            Err(PointFailure {
                simpoint: 0,
                interval: 0,
                weight: 0.0,
                attempts: 1,
                kind: FailureKind::Panicked { message: tag.to_string() },
            })
        };
        // First caller holds the computation open until the second caller
        // has provably entered the lookup, so the second is guaranteed to
        // find the key in flight (not completed).
        let (entered_tx, entered_rx) = std::sync::mpsc::channel::<()>();
        let (release_tx, release_rx) = std::sync::mpsc::channel::<()>();
        let first = {
            let store = Arc::clone(&store);
            std::thread::spawn(move || {
                store.point(key, || {
                    entered_tx.send(()).expect("signal entry");
                    release_rx.recv().expect("await release");
                    outcome("first")
                })
            })
        };
        entered_rx.recv().expect("first caller entered compute");
        assert!(!store.has_point(&key), "an in-flight point is not complete");
        let second = {
            let store = Arc::clone(&store);
            std::thread::spawn(move || store.point(key, || outcome("second")))
        };
        // The second caller has looked up the slot (and decided "in
        // flight", since the first has not completed) exactly when the
        // slot's refcount reaches 3: map + first caller + second caller.
        // Only then is the first computation released.
        loop {
            let entered =
                lock(&store.points).get(&key).is_some_and(|slot| Arc::strong_count(slot) >= 3);
            if entered {
                break;
            }
            std::thread::yield_now();
        }
        release_tx.send(()).expect("release first");
        let a = first.join().expect("first caller");
        let b = second.join().expect("second caller");
        // Single computation: both see the first caller's outcome.
        for r in [&a, &b] {
            match r {
                Err(f) => assert!(matches!(
                    &f.kind,
                    FailureKind::Panicked { message } if message == "first"
                )),
                Ok(_) => panic!("synthetic outcome must be a failure"),
            }
        }
        // Third lookup after completion: a completed-slot hit.
        assert!(store.has_point(&key));
        let c = store.point(key, || outcome("third"));
        assert!(c.is_err());
        let s = store.stats();
        assert_eq!(s.point_computed, 1, "one simulation for three callers");
        assert_eq!(s.inflight_dedup_hits, 1, "second caller blocked on the in-flight slot");
        assert_eq!(s.sweep_point_hits, 2, "second and third callers were served by the memo");
    }

    #[test]
    fn point_keys_separate_flows() {
        let w = by_name("bitcount", Scale::Test).unwrap();
        let key = |cfg_fp, flow: &FlowConfig, shift, p| {
            ArtifactStore::point_key(cfg_fp, &w, flow, shift, p)
        };
        let with = |edit: fn(&mut FlowConfig)| {
            let mut flow = quick_flow();
            edit(&mut flow);
            key(1, &flow, 0, 0)
        };
        let base = key(1, &quick_flow(), 0, 0);
        for other in [
            with(|f| f.simpoint.max_k = 3),
            with(|f| f.max_profile_insts = 1_000),
            with(|f| f.warmup_insts = 7),
            with(|f| f.inject.hang_point = Some(0)),
            key(2, &quick_flow(), 0, 0),
            key(1, &quick_flow(), 3, 0),
            key(1, &quick_flow(), 0, 1),
        ] {
            assert_ne!(base, other);
        }
        // Dying after N points changes when the process stops, never what
        // a completed point contains.
        assert_eq!(base, with(|f| f.inject.kill_after_points = Some(3)));
    }

    #[test]
    fn full_run_baseline_is_cached_per_config() {
        let store = ArtifactStore::new();
        let w = by_name("bitcount", Scale::Test).unwrap();
        let medium = BoomConfig::medium();
        let a = store.full_run(&medium, &w).unwrap();
        let b = store.full_run(&medium, &w).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        store.full_run(&BoomConfig::large(), &w).unwrap();
        let s = store.stats();
        assert_eq!(s.full_run_computed, 2);
        assert_eq!(s.full_run_hits, 1);
    }
}
