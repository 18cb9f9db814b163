//! The campaign scheduler and the one point phase: every detailed point
//! of a campaign, a sweep rung, or the single-cell flow is a job of a
//! [`PointPhase`] on one `--jobs`-bounded [`WorkPool`].
//!
//! A campaign runs in three phases. Phase 1 prepares each workload's
//! artifacts (profile → analysis → checkpoints) as one pool task per
//! workload; [`ArtifactStore`] memoizes them, so every configuration
//! shares one computation. Phase 2 is one point-phase run over every
//! (cell, point) pair of the whole matrix — plus one task per dual-core
//! co-run cell — so small cells never serialize behind big ones. Phase 3
//! assembles the cells on the calling thread.
//!
//! The point phase looks every job up in the store's point stage
//! ([`ArtifactStore::point`]): a point some earlier caller completed (a
//! lower sweep rung, a replayed journal, another campaign on a shared
//! store) is a hit, a point another caller is simulating right now is
//! waited for, and only the rest run — batched `batch_lanes` wide, each
//! journaled, progress-reported, and charged to the kill-after drill.
//!
//! The pool is the caller's ([`CampaignOptions::pool`], the campaign
//! service's process-wide pool) or a private `WorkPool::new(jobs)` that
//! lives for one call. Either way the campaign never runs simulation work
//! on more than the pool's threads: a batch of lanes
//! ([`CampaignOptions::batch_lanes`]) is just consecutive ordinary point
//! tasks that share one lazily classified micro-op table.
//!
//! Supervision is per point (retry, budget, quarantine) with
//! `catch_unwind` isolation around preparation and assembly. Cells are
//! assembled configuration-major with points in plan order, so a
//! `--jobs 1` and a `--jobs N` campaign produce [`CampaignReport`]s with
//! identical cells.

use crate::artifacts::{config_fingerprint, ArtifactStore, CheckpointSet, PlannedPoint, PointKey};
use crate::flow::{
    assemble_workload_result, escaped_panic, run_co_cell, run_lane, FlowConfig, PointOutcome,
    SharedUops,
};
use crate::journal::{CampaignJournal, JournalReplay};
use crate::pool::WorkPool;
use crate::supervisor::{
    panic_message, CampaignReport, CampaignStats, CellFailure, CellResult, CoRunCellResult,
    CoreRunResult, FailureKind, PointFailure,
};
use crate::sweep::truncated;
use boom_uarch::BoomConfig;
use rv_workloads::Workload;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// Campaign-scheduler knobs.
#[derive(Clone, Debug)]
pub struct CampaignOptions {
    /// Worker threads of the campaign's private pool (≥ 1); ignored when
    /// [`CampaignOptions::pool`] supplies one. `1` runs every task in
    /// submission order on one worker.
    pub jobs: usize,
    /// Write-ahead journal receiving every completed point, enabling
    /// `--resume` after a crash. `None` disables journaling.
    pub journal: Option<Arc<CampaignJournal>>,
    /// Outcomes recovered from a previous run's journal; matching
    /// points are replayed instead of re-simulated.
    pub replay: Option<Arc<JournalReplay>>,
    /// Dual-core co-run cells: pairs of workload indices that co-run on
    /// two cores sharing one L2, scheduled once per configuration after
    /// every single-core cell. The pair order is the core order.
    pub co_runs: Vec<(usize, usize)>,
    /// Configurations per batch (≥ 1). With `N > 1`, the unfilled lanes
    /// of each SimPoint are split into batches of up to `N`
    /// configurations; the lanes of a batch of two or more are ordinary
    /// point tasks that share one micro-op classification of the point's
    /// image. Each lane's outcome, journal record, and report cell are
    /// bit-identical to an unbatched run.
    pub batch_lanes: usize,
    /// Externally owned worker pool to run this campaign's tasks on
    /// instead of a private one — the campaign service points every
    /// admitted request at one process-wide [`WorkPool`] so its `--jobs`
    /// bound and round-robin fairness span requests. `None` (solo runs)
    /// creates a private `jobs`-wide pool for the call.
    pub pool: Option<Arc<WorkPool>>,
    /// Progress callback invoked as `(done, total)` over the campaign's
    /// point outcomes (replayed points count as already done).
    pub progress: Option<ProgressHook>,
}

/// A cloneable `(done, total)` progress callback ([`CampaignOptions::progress`]).
#[derive(Clone)]
pub struct ProgressHook(pub Arc<dyn Fn(u64, u64) + Send + Sync>);

impl std::fmt::Debug for ProgressHook {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("ProgressHook")
    }
}

impl Default for CampaignOptions {
    fn default() -> CampaignOptions {
        CampaignOptions {
            jobs: default_jobs(),
            journal: None,
            replay: None,
            co_runs: Vec::new(),
            batch_lanes: 1,
            pool: None,
            progress: None,
        }
    }
}

/// The default `--jobs`: the machine's available parallelism.
pub fn default_jobs() -> usize {
    std::thread::available_parallelism().map(std::num::NonZeroUsize::get).unwrap_or(1)
}

/// The pool a campaign or sweep runs on: the caller's shared pool, or a
/// private `jobs`-wide one that lives as long as the returned handle.
pub(crate) fn pool_or_private(shared: &Option<Arc<WorkPool>>, jobs: usize) -> Arc<WorkPool> {
    shared.clone().unwrap_or_else(|| Arc::new(WorkPool::new(jobs)))
}

/// Phase 1 of a campaign or sweep: one pool task per workload prepares
/// its artifacts (profile → analysis → checkpoints) behind
/// `catch_unwind`. A failure is shared by every cell of that workload,
/// exactly as each cell would fail preparing the same artifacts itself.
/// On a cancelled pool the unstarted workloads report a dead worker.
pub(crate) fn prepare_workloads(
    pool: &WorkPool,
    workloads: &[Workload],
    flow: &FlowConfig,
    store: &ArtifactStore,
) -> Vec<Result<Arc<CheckpointSet>, CellFailure>> {
    let prep: Vec<OnceLock<Result<Arc<CheckpointSet>, CellFailure>>> =
        workloads.iter().map(|_| OnceLock::new()).collect();
    pool.run_scoped((0..workloads.len()).collect(), |w_idx| {
        let r = match catch_unwind(AssertUnwindSafe(|| store.checkpoints(&workloads[w_idx], flow)))
        {
            Ok(Ok(set)) => Ok(set),
            Ok(Err(e)) => Err(CellFailure::Flow(e)),
            Err(payload) => Err(CellFailure::Panicked(panic_message(payload.as_ref()))),
        };
        let _ = prep[w_idx].set(r);
    });
    prep.into_iter()
        .map(|slot| {
            slot.into_inner()
                .unwrap_or_else(|| Err(CellFailure::Panicked("artifact worker died".to_string())))
        })
        .collect()
}

/// One detailed point job: (configuration index, workload index, point
/// index within the workload's checkpoint set, interval truncation
/// shift). Jobs only name workloads whose checkpoint set was prepared.
pub(crate) type PointJob = (usize, usize, usize, u32);

/// What one [`PointPhase::run`] produced.
pub(crate) struct PhaseRun {
    /// Each job's outcome, in job order.
    pub(crate) outcomes: Vec<PointOutcome>,
    /// Whether each job ran as a pool task: it was not yet complete in
    /// the point stage when the phase planned it.
    pub(crate) fresh: Vec<bool>,
    /// Fresh lanes that ran in a batch of two or more.
    pub(crate) batched: u64,
    /// Wall-clock of the pool submission, in ms.
    pub(crate) wall_ms: f64,
    /// The submission's task run times summed over the workers, in ms.
    pub(crate) busy_ms: f64,
}

/// One pool task of a point phase.
enum PhaseTask {
    /// One job's lane, with its batch's shared micro-op table (`None`:
    /// a solo lane).
    Lane(usize, Option<Arc<SharedUops>>),
    /// One of the caller's extra tasks (a campaign's co-run cell).
    Extra(usize),
}

/// The point phase of a campaign, a sweep rung, or the single-cell flow:
/// runs (configuration, workload, point, shift) jobs as lookups of the
/// store's point stage on one pool, and journals, reports progress for,
/// and kill-charges every job it had to run. Jobs the point stage
/// already completed — a lower rung's, a replayed journal's, another
/// campaign's — are hits that run nothing. A phase may run several times
/// (one sweep rung each); its kill-after count spans them all.
pub(crate) struct PointPhase<'a> {
    pool: &'a WorkPool,
    cfgs: &'a [BoomConfig],
    fps: Vec<u64>,
    workloads: &'a [Workload],
    /// Each workload's checkpoint set (`None`: preparation failed).
    sets: &'a [Option<Arc<CheckpointSet>>],
    flow: &'a FlowConfig,
    store: &'a ArtifactStore,
    /// Write-ahead journal receiving every outcome the phase runs, at
    /// record index (`cfg·W + w`, `shift << 24 | point`).
    pub(crate) journal: Option<&'a CampaignJournal>,
    /// Configurations per batch of lanes sharing one micro-op table
    /// ([`CampaignOptions::batch_lanes`]).
    pub(crate) batch_lanes: usize,
    /// `(done, total)` progress callback.
    pub(crate) progress: Option<&'a ProgressHook>,
    /// Progress denominator.
    pub(crate) total: u64,
    /// Progress numerator.
    pub(crate) done: AtomicU64,
    /// Outcomes the phase ran and journaled, for the kill-after drill.
    ran: AtomicU64,
}

impl<'a> PointPhase<'a> {
    /// An unjournaled, unbatched phase without progress reporting.
    pub(crate) fn new(
        pool: &'a WorkPool,
        cfgs: &'a [BoomConfig],
        workloads: &'a [Workload],
        sets: &'a [Option<Arc<CheckpointSet>>],
        flow: &'a FlowConfig,
        store: &'a ArtifactStore,
    ) -> PointPhase<'a> {
        PointPhase {
            pool,
            cfgs,
            fps: cfgs.iter().map(config_fingerprint).collect(),
            workloads,
            sets,
            flow,
            store,
            journal: None,
            batch_lanes: 1,
            progress: None,
            total: 0,
            done: AtomicU64::new(0),
            ran: AtomicU64::new(0),
        }
    }

    fn key(&self, (cfg, w, p, shift): PointJob) -> PointKey {
        ArtifactStore::point_key(self.fps[cfg], &self.workloads[w], self.flow, shift, p)
    }

    fn planned(&self, (_, w, p, _): PointJob) -> &PlannedPoint {
        let Some(set) = &self.sets[w] else { unreachable!("point jobs name prepared workloads") };
        &set.points[p]
    }

    /// Looks `job` up in the point stage, simulating it on a miss.
    fn lookup(&self, job: PointJob, uops: Option<&SharedUops>) -> PointOutcome {
        self.store.point(self.key(job), || {
            run_lane(&self.cfgs[job.0], &truncated(self.planned(job), job.3), self.flow, uops)
        })
    }

    /// Prefills the point stage with a journal's recovered outcomes and
    /// returns how many name a point of this phase's matrix; records past
    /// it (a campaign's co-run cells) are the caller's.
    pub(crate) fn replay(&self, replay: &JournalReplay) -> u64 {
        let w = self.workloads.len();
        let mut n = 0;
        for (&(cell, enc), outcome) in &replay.outcomes {
            let (Some(cfg), Some(w_idx)) = (cell.checked_div(w), cell.checked_rem(w)) else {
                continue;
            };
            let (shift, p) = ((enc >> 24) as u32, enc & 0x00FF_FFFF);
            let planned = self.sets[w_idx].as_ref().is_some_and(|s| p < s.points.len());
            if cfg < self.cfgs.len() && planned {
                self.store.prefill_point(self.key((cfg, w_idx, p, shift)), outcome.clone());
                n += 1;
            }
        }
        n
    }

    /// Counts `n` outcomes the phase ran and journaled: progress, then the
    /// kill-after fault injection, which dies exactly as an OOM kill or a
    /// power cut would — the journal holds the completed work, the
    /// process holds nothing.
    fn charge(&self, n: u64) {
        if n == 0 {
            return;
        }
        if let Some(hook) = self.progress {
            (hook.0)(self.done.fetch_add(n, Ordering::Relaxed) + n, self.total);
        }
        if let Some(kill_after) = self.flow.inject.kill_after_points {
            if self.ran.fetch_add(n, Ordering::Relaxed) + n >= kill_after {
                std::process::abort();
            }
        }
    }

    /// Runs `jobs` through the point stage; see [`PointPhase`].
    pub(crate) fn run(&self, jobs: &[PointJob]) -> PhaseRun {
        self.run_with(jobs, 0, |_| 0)
    }

    /// [`PointPhase::run`] plus `extra` opaque tasks on the same pool
    /// submission, after the lanes; `run_extra(k)` returns how many
    /// outcomes task `k` ran and journaled.
    pub(crate) fn run_with(
        &self,
        jobs: &[PointJob],
        extra: usize,
        run_extra: impl Fn(usize) -> u64 + Sync,
    ) -> PhaseRun {
        let slots: Vec<OnceLock<PointOutcome>> = jobs.iter().map(|_| OnceLock::new()).collect();
        // Completed jobs are read here and never enter a batch. The rest
        // become lanes grouped by (workload, point) — the axis along
        // which the checkpoint image and micro-op table are shared — in
        // job order within a group, batched `batch_lanes` wide: the lanes
        // of a batch of two or more share one lazily classified table.
        let mut fresh = vec![false; jobs.len()];
        let mut todo: Vec<usize> = Vec::new();
        for (i, &job) in jobs.iter().enumerate() {
            if self.store.has_point(&self.key(job)) {
                let _ = slots[i].set(self.lookup(job, None));
            } else {
                fresh[i] = true;
                todo.push(i);
            }
        }
        todo.sort_by_key(|&i| (jobs[i].1, jobs[i].2));
        let mut tasks: Vec<PhaseTask> = todo
            .chunk_by(|&a, &b| (jobs[a].1, jobs[a].2) == (jobs[b].1, jobs[b].2))
            .flat_map(|group| group.chunks(self.batch_lanes.max(1)))
            .flat_map(|batch| {
                let uops = (batch.len() > 1).then(|| Arc::new(SharedUops::default()));
                batch.iter().map(move |&i| PhaseTask::Lane(i, uops.clone()))
            })
            .collect();
        let batched =
            tasks.iter().filter(|t| matches!(t, PhaseTask::Lane(_, Some(_)))).count() as u64;
        tasks.extend((0..extra).map(PhaseTask::Extra));
        if let Some(hook) = self.progress {
            let hits = (jobs.len() - todo.len()) as u64;
            (hook.0)(self.done.fetch_add(hits, Ordering::Relaxed) + hits, self.total);
        }

        let busy_us = AtomicU64::new(0);
        let t0 = Instant::now();
        self.pool.run_scoped(tasks, |task| {
            let t_task = Instant::now();
            let ran = match task {
                PhaseTask::Lane(i, uops) => {
                    let job = jobs[i];
                    let outcome = self.lookup(job, uops.as_deref());
                    if let Some(journal) = self.journal {
                        journal.append(
                            job.0 * self.workloads.len() + job.1,
                            (job.3 as usize) << 24 | job.2,
                            &outcome,
                        );
                    }
                    let _ = slots[i].set(outcome);
                    1
                }
                PhaseTask::Extra(k) => run_extra(k),
            };
            self.charge(ran);
            busy_us.fetch_add(t_task.elapsed().as_micros() as u64, Ordering::Relaxed);
        });
        let wall_ms = t0.elapsed().as_secs_f64() * 1000.0;

        let outcomes = jobs
            .iter()
            .zip(slots)
            .map(|(&job, slot)| {
                slot.into_inner().unwrap_or_else(|| {
                    Err(escaped_panic(self.planned(job), &"point worker died".to_string()))
                })
            })
            .collect();
        PhaseRun {
            outcomes,
            fresh,
            batched,
            wall_ms,
            busy_ms: busy_us.into_inner() as f64 / 1000.0,
        }
    }
}

/// Assembles one (configuration, workload) cell from its points'
/// outcomes in plan order, behind `catch_unwind`; a failed preparation
/// fails the cell with that failure.
pub(crate) fn assemble_cell(
    config: &str,
    workload: &Workload,
    prep: &Result<Arc<CheckpointSet>, CellFailure>,
    outcomes: Vec<PointOutcome>,
) -> CellResult {
    let outcome = match prep {
        Err(e) => Err(e.clone()),
        Ok(set) => match catch_unwind(AssertUnwindSafe(|| {
            assemble_workload_result(config, workload, set, outcomes)
        })) {
            Ok(Ok(r)) => Ok(Box::new(r)),
            Ok(Err(e)) => Err(CellFailure::Flow(e)),
            Err(payload) => Err(CellFailure::Panicked(panic_message(payload.as_ref()))),
        },
    };
    CellResult { config: config.to_string(), workload: workload.name, outcome }
}

/// Runs the supervised campaign over every (configuration, workload)
/// cell with the staged pipeline and one point phase.
pub(crate) fn run_campaign(
    cfgs: &[BoomConfig],
    workloads: &[Workload],
    flow: &FlowConfig,
    store: &ArtifactStore,
    opts: &CampaignOptions,
) -> CampaignReport {
    let t0 = Instant::now();
    let start = store.stats();
    let jobs = opts.jobs.max(1);
    let pool = pool_or_private(&opts.pool, jobs);
    let prep = prepare_workloads(&pool, workloads, flow, store);
    let sets: Vec<Option<Arc<CheckpointSet>>> =
        prep.iter().map(|r| r.as_ref().ok().cloned()).collect();
    let n_points = |w_idx: usize| sets[w_idx].as_ref().map_or(0, |s| s.points.len());

    // Phase 2 — one point job per (cell, point) across the whole matrix,
    // configuration-major, each under the same per-point supervision
    // (retry, budget, quarantine) as the single-cell flow.
    let point_jobs: Vec<PointJob> = (0..cfgs.len())
        .flat_map(|c| {
            (0..workloads.len()).flat_map(move |w| (0..n_points(w)).map(move |p| (c, w, p, 0)))
        })
        .collect();

    // Dual-core co-run cells, configuration-major like the single-core
    // cells and appended *after* all of them, so adding co-runs never
    // shifts an existing cell's journal index. Each co cell owns two
    // outcome slots (one per core) filled by a single co-run task.
    let co_cells: Vec<(&BoomConfig, (usize, usize))> =
        cfgs.iter().flat_map(|cfg| opts.co_runs.iter().map(move |&pair| (cfg, pair))).collect();
    for &(_, (a, b)) in &co_cells {
        assert!(
            a < workloads.len() && b < workloads.len(),
            "co-run workload index ({a}, {b}) out of range for {} workload(s)",
            workloads.len()
        );
    }
    let co_slots: Vec<[OnceLock<PointOutcome>; 2]> =
        co_cells.iter().map(|_| [OnceLock::new(), OnceLock::new()]).collect();
    let first_co = cfgs.len() * workloads.len();

    let mut phase = PointPhase::new(&pool, cfgs, workloads, &sets, flow, store);
    phase.journal = opts.journal.as_deref();
    phase.batch_lanes = opts.batch_lanes;
    phase.progress = opts.progress.as_ref();
    phase.total = point_jobs.len() as u64 + 2 * co_slots.len() as u64;

    // Replay: journaled points (quarantined failures included, so weight
    // re-normalization matches the original run exactly) prefill the
    // point stage, so the phase reads them as hits and never re-runs or
    // re-journals them; co-run records, past the single-core index range,
    // fill their cells' slots. Stale indices from a torn journal that
    // somehow passed validation are simply out of range and ignored.
    let mut replayed: u64 = 0;
    if let Some(replay) = &opts.replay {
        replayed = phase.replay(replay);
        let mut co_replayed = 0;
        for (&(c_idx, p_idx), outcome) in &replay.outcomes {
            let slot = c_idx.checked_sub(first_co).and_then(|k| co_slots.get(k)?.get(p_idx));
            if slot.is_some_and(|slot| slot.set(outcome.clone()).is_ok()) {
                co_replayed += 1;
            }
        }
        phase.done = AtomicU64::new(co_replayed);
        replayed += co_replayed;
    }

    // One task per co cell with any unfilled slot; one task simulates
    // both cores and fills both slots.
    let co_todo: Vec<usize> =
        (0..co_cells.len()).filter(|&k| co_slots[k].iter().any(|s| s.get().is_none())).collect();
    let run_co = |k: usize| -> u64 {
        let (cfg, (a, b)) = co_cells[k];
        let outcomes = match catch_unwind(AssertUnwindSafe(|| {
            run_co_cell(cfg, [&workloads[a], &workloads[b]], &flow.inject)
        })) {
            Ok(o) => o,
            Err(payload) => {
                let f = PointFailure {
                    simpoint: 0,
                    interval: 0,
                    weight: 1.0,
                    attempts: 1,
                    kind: FailureKind::Panicked { message: panic_message(payload.as_ref()) },
                };
                [Err(f.clone()), Err(f)]
            }
        };
        let mut fresh = 0u64;
        for (p, outcome) in outcomes.into_iter().enumerate() {
            // A slot already filled by replay keeps the journaled
            // outcome (identical anyway — the co-run is deterministic)
            // and is not re-journaled.
            if co_slots[k][p].get().is_some() {
                continue;
            }
            if let Some(journal) = &opts.journal {
                journal.append(first_co + k, p, &outcome);
            }
            let _ = co_slots[k][p].set(outcome);
            fresh += 1;
        }
        fresh
    };
    let run = phase.run_with(&point_jobs, co_todo.len(), |i| run_co(co_todo[i]));

    // Phase 3 — deterministic assembly, cell by cell in configuration-
    // major order: each cell's outcomes are the next run of the phase's.
    let mut outcomes = run.outcomes.into_iter();
    let results: Vec<CellResult> = cfgs
        .iter()
        .flat_map(|cfg| (0..workloads.len()).map(move |w_idx| (cfg, w_idx)))
        .map(|(cfg, w_idx)| {
            let cell: Vec<PointOutcome> = outcomes.by_ref().take(n_points(w_idx)).collect();
            assemble_cell(&cfg.name, &workloads[w_idx], &prep[w_idx], cell)
        })
        .collect();

    // Co-run cells assemble from their two per-core slots; a failure on
    // either core (both slots carry the same record) fails the cell.
    let mut co_results = Vec::with_capacity(co_cells.len());
    for ((cfg, (a, b)), cell_slots) in co_cells.iter().zip(co_slots) {
        let names = [workloads[*a].name, workloads[*b].name];
        let [s0, s1] = cell_slots;
        let take = |slot: OnceLock<PointOutcome>| {
            slot.into_inner().unwrap_or_else(|| {
                Err(PointFailure {
                    simpoint: 0,
                    interval: 0,
                    weight: 1.0,
                    attempts: 1,
                    kind: FailureKind::Panicked { message: "co-run worker died".to_string() },
                })
            })
        };
        let outcome = match (take(s0), take(s1)) {
            (Ok((p0, _)), Ok((p1, _))) => Ok(Box::new([
                CoreRunResult { workload: names[0], ipc: p0.ipc, power: p0.power, stats: p0.stats },
                CoreRunResult { workload: names[1], ipc: p1.ipc, power: p1.power, stats: p1.stats },
            ])),
            (Err(f), _) | (_, Err(f)) => Err(CellFailure::Flow(f.into_flow_error())),
        };
        co_results.push(CoRunCellResult { config: cfg.name.clone(), workloads: names, outcome });
    }

    // Skip accounting is summed from the assembled results rather than
    // tracked live: replayed points correctly contribute 0 (a replay
    // skipped nothing in this process) and the sum is deterministic.
    let idle_cycles_skipped: u64 = results
        .iter()
        .filter_map(|c| c.outcome.as_ref().ok())
        .flat_map(|r| r.points.iter())
        .map(|p| p.stats.idle_cycles_skipped)
        .sum();
    let stats = CampaignStats {
        jobs,
        wall_ms: t0.elapsed().as_secs_f64() * 1000.0,
        cache: store.stats().since(&start),
        replayed_points: replayed,
        detailed_wall_ms: run.wall_ms,
        detailed_busy_ms: run.busy_ms,
        batched_points: run.batched,
        idle_cycles_skipped,
    };
    CampaignReport { cells: results, co_cells: co_results, stats }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pool_runs_every_task_exactly_once() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        for jobs in [1usize, 2, 5, 32] {
            // A private pool of `jobs` workers, and the same pool handed in
            // as the caller's shared one, each run every task exactly once.
            let private = pool_or_private(&None, jobs);
            let shared = pool_or_private(&Some(Arc::clone(&private)), jobs + 1);
            assert!(Arc::ptr_eq(&private, &shared), "jobs={jobs}: shared pool not reused");
            for pool in [&private, &shared] {
                let hits: Vec<AtomicUsize> = (0..97).map(|_| AtomicUsize::new(0)).collect();
                pool.run_scoped((0..hits.len()).collect(), |i| {
                    hits[i].fetch_add(1, Ordering::Relaxed);
                });
                assert!(
                    hits.iter().all(|h| h.load(Ordering::Relaxed) == 1),
                    "jobs={jobs}: some task ran zero or multiple times"
                );
            }
        }
    }

    #[test]
    fn default_jobs_is_positive() {
        assert!(default_jobs() >= 1);
        assert!(CampaignOptions::default().jobs >= 1);
    }
}
