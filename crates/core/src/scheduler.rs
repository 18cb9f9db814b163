//! The campaign scheduler: every (cell, SimPoint) pair of a
//! configuration × workload matrix as one task on one `--jobs`-bounded
//! [`WorkPool`].
//!
//! A campaign runs in three phases. Phase 1 prepares each workload's
//! artifacts (profile → analysis → checkpoints) as one pool task per
//! workload; [`ArtifactStore`] memoizes them, so every configuration
//! shares one computation. Phase 2 submits one task per unfilled
//! (cell, point) pair across the whole matrix — plus one per dual-core
//! co-run cell — so small cells never serialize behind big ones. Phase 3
//! assembles the cells on the calling thread.
//!
//! The pool is the caller's ([`CampaignOptions::pool`], the campaign
//! service's process-wide pool) or a private `WorkPool::new(jobs)` that
//! lives for one call. Either way the campaign never runs simulation work
//! on more than the pool's threads: a batch of lanes
//! ([`CampaignOptions::batch_lanes`]) is just consecutive ordinary point
//! tasks that share one lazily classified micro-op table.
//!
//! Supervision is per point (`run_point_timed` → retry, budget,
//! quarantine) with `catch_unwind` isolation around preparation and
//! assembly. Cells are assembled configuration-major with points in plan
//! order, so a `--jobs 1` and a `--jobs N` campaign produce
//! [`CampaignReport`]s with identical cells.

use crate::artifacts::{config_fingerprint, ArtifactStore, CheckpointSet};
use crate::flow::{
    assemble_workload_result, batch_lanes, escaped_panic, run_co_cell, supervision_fingerprint,
    FlowConfig, Lane, PointOutcome,
};
use crate::journal::{CampaignJournal, JournalReplay};
use crate::pool::WorkPool;
use crate::supervisor::{
    panic_message, CampaignReport, CampaignStats, CellFailure, CellResult, CoRunCellResult,
    CoreRunResult, FailureKind, PointFailure,
};
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
    /// Route each point through the store's cross-request single-flight
    /// map, so concurrent campaigns sharing the store coalesce
    /// overlapping points (one computation, both reports) and later
    /// campaigns reuse completed ones warm. Only the service enables it;
    /// outcomes are still journaled per request.
    pub share_points: bool,
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
            share_points: false,
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

/// One unit of work in the detailed-simulation phase.
enum PointTask {
    /// One configuration's simulation of one SimPoint: (cell index,
    /// point index within the workload's checkpoint set).
    Lane(Lane<(usize, usize)>),
    /// A dual-core co-run cell (index into the co-cell list).
    CoRun(usize),
}

/// Runs the supervised campaign over every (configuration, workload)
/// cell with the staged pipeline and the point-level work pool.
pub(crate) fn run_campaign(
    cfgs: &[BoomConfig],
    workloads: &[Workload],
    flow: &FlowConfig,
    store: &ArtifactStore,
    opts: &CampaignOptions,
) -> CampaignReport {
    let t0 = Instant::now();
    let jobs = opts.jobs.max(1);
    let pool = pool_or_private(&opts.pool, jobs);
    let prep = prepare_workloads(&pool, workloads, flow, store);

    // Phase 2 — one work item per (cell, point) across the whole matrix.
    // Each item runs under the same per-point supervision (retry,
    // budget, quarantine) as the single-cell flow.
    let cells: Vec<(&BoomConfig, usize)> =
        cfgs.iter().flat_map(|cfg| (0..workloads.len()).map(move |w_idx| (cfg, w_idx))).collect();
    let sets: Vec<Option<Arc<CheckpointSet>>> =
        cells.iter().map(|&(_, w_idx)| prep[w_idx].as_ref().ok().cloned()).collect();
    let mut slots: Vec<Vec<OnceLock<PointOutcome>>> = sets
        .iter()
        .map(|set| set.as_ref().map_or(0, |s| s.points.len()))
        .map(|n| (0..n).map(|_| OnceLock::new()).collect())
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

    // Replay: points already journaled by an interrupted run fill their
    // slots up front (including quarantined failures, so weight
    // re-normalization matches the original run exactly) and never
    // enter the work pool. Co-run cells live past the single-core index
    // range. Stale indices from a torn journal that somehow passed
    // validation are simply out of range and ignored.
    let mut replayed: u64 = 0;
    if let Some(replay) = &opts.replay {
        for (&(c_idx, p_idx), outcome) in &replay.outcomes {
            let slot = if c_idx < slots.len() {
                slots[c_idx].get(p_idx)
            } else {
                co_slots.get(c_idx - slots.len()).and_then(|cell| cell.get(p_idx))
            };
            if let Some(slot) = slot {
                if slot.set(outcome.clone()).is_ok() {
                    replayed += 1;
                }
            }
        }
    }

    // Batching: the unfilled (cell, point) lanes of each (workload,
    // point) — the axis along which the checkpoint image and micro-op
    // table are shared — are split into `batch_lanes`-wide batches,
    // configuration-major. Replay-filled slots never enter a batch, so a
    // resumed campaign only batches what it actually simulates.
    let mut point_tasks: Vec<PointTask> = Vec::new();
    for w_idx in 0..workloads.len() {
        let cell_of = |cfg_i: usize| cfg_i * workloads.len() + w_idx;
        let n_points = (0..cfgs.len())
            .find_map(|cfg_i| sets[cell_of(cfg_i)].as_ref().map(|s| s.points.len()))
            .unwrap_or(0);
        for p_idx in 0..n_points {
            let lanes: Vec<(usize, usize)> = (0..cfgs.len())
                .map(cell_of)
                .filter(|&c_idx| slots[c_idx].get(p_idx).is_some_and(|s| s.get().is_none()))
                .map(|c_idx| (c_idx, p_idx))
                .collect();
            point_tasks.extend(batch_lanes(&lanes, opts.batch_lanes).map(PointTask::Lane));
        }
    }
    let batched_points = point_tasks
        .iter()
        .filter(|t| matches!(t, PointTask::Lane(lane) if lane.is_batched()))
        .count() as u64;
    // One task per co cell with any unfilled slot; one task simulates
    // both cores.
    point_tasks.extend(
        co_cells
            .iter()
            .enumerate()
            .filter(|&(k, _)| co_slots[k].iter().any(|s| s.get().is_none()))
            .map(|(k, _)| PointTask::CoRun(k)),
    );
    let busy_us = AtomicU64::new(0);
    let t_points = Instant::now();
    {
        let completed = &AtomicU64::new(0);
        // Progress: every point slot of the campaign, replays pre-counted.
        let total_points: u64 =
            slots.iter().map(|v| v.len() as u64).sum::<u64>() + 2 * co_slots.len() as u64;
        let done_points = &AtomicU64::new(replayed);
        let report_progress = |fresh: u64| {
            if let Some(hook) = &opts.progress {
                let done = done_points.fetch_add(fresh, Ordering::Relaxed) + fresh;
                (hook.0)(done, total_points);
            }
        };
        if let Some(hook) = &opts.progress {
            (hook.0)(replayed, total_points);
        }
        // Fault injection: die *after* journaling N fresh points, exactly
        // as an OOM kill or power cut would — the journal holds the
        // completed work, the process holds nothing.
        let charge_and_maybe_kill = |fresh: u64| {
            if let Some(kill_after) = flow.inject.kill_after_points {
                if fresh > 0 && completed.fetch_add(fresh, Ordering::Relaxed) + fresh >= kill_after
                {
                    std::process::abort();
                }
            }
        };
        let run_task = |task: PointTask| match task {
            PointTask::CoRun(k) => {
                // Dual-core co-run cell: one task steps both cores to
                // completion and fills both outcome slots.
                let c_idx = cells.len() + k;
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
                            kind: FailureKind::Panicked {
                                message: panic_message(payload.as_ref()),
                            },
                        };
                        [Err(f.clone()), Err(f)]
                    }
                };
                let mut fresh = 0u64;
                for (p, outcome) in outcomes.into_iter().enumerate() {
                    // A slot already filled by replay keeps the journaled
                    // outcome (identical anyway — the co-run is
                    // deterministic) and is not re-journaled.
                    if co_slots[k][p].get().is_some() {
                        continue;
                    }
                    if let Some(journal) = &opts.journal {
                        journal.append(c_idx, p, &outcome);
                    }
                    let _ = co_slots[k][p].set(outcome);
                    fresh += 1;
                }
                report_progress(fresh);
                charge_and_maybe_kill(fresh);
            }
            PointTask::Lane(lane) => {
                let (c_idx, p_idx) = lane.id;
                let Some(set) = &sets[c_idx] else { return };
                let point = &set.points[p_idx];
                let (cfg, w_idx) = cells[c_idx];
                let compute = || lane.run(cfg, point, flow, store);
                let outcome = if opts.share_points {
                    // Cross-request single flight: concurrent campaigns
                    // sharing this store compute each (config, workload,
                    // point, supervision) exactly once; the outcome is
                    // deterministic, so every sharer's report is
                    // bit-identical to a private computation.
                    let key = (
                        crate::sweep::point_key(
                            config_fingerprint(cfg),
                            &workloads[w_idx],
                            flow,
                            0,
                            p_idx,
                        ),
                        supervision_fingerprint(flow),
                    );
                    store.singleflight_point(key, compute)
                } else {
                    compute()
                };
                if let Some(journal) = &opts.journal {
                    journal.append(c_idx, p_idx, &outcome);
                }
                let _ = slots[c_idx][p_idx].set(outcome);
                report_progress(1);
                charge_and_maybe_kill(1);
            }
        };
        pool.run_scoped(point_tasks, |task| {
            let t_task = Instant::now();
            run_task(task);
            busy_us.fetch_add(t_task.elapsed().as_micros() as u64, Ordering::Relaxed);
        });
    }
    let detailed_wall_ms = t_points.elapsed().as_secs_f64() * 1000.0;

    // Phase 3 — deterministic assembly, cell by cell in configuration-
    // major order, each behind `catch_unwind`.
    let mut results = Vec::with_capacity(cells.len());
    for ((&(cfg, w_idx), set), cell_slots) in cells.iter().zip(&sets).zip(slots.iter_mut()) {
        let workload = &workloads[w_idx];
        let outcome = match (&prep[w_idx], set) {
            (Err(e), _) => Err(e.clone()),
            (Ok(_), None) => unreachable!("prep succeeded but no set recorded"),
            (Ok(_), Some(set)) => {
                let outcomes: Vec<PointOutcome> = set
                    .points
                    .iter()
                    .zip(std::mem::take(cell_slots))
                    .map(|(point, slot)| {
                        slot.into_inner().unwrap_or_else(|| {
                            Err(escaped_panic(point, &"point worker died".to_string()))
                        })
                    })
                    .collect();
                match catch_unwind(AssertUnwindSafe(|| {
                    assemble_workload_result(&cfg.name, workload, set, outcomes)
                })) {
                    Ok(Ok(r)) => Ok(Box::new(r)),
                    Ok(Err(e)) => Err(CellFailure::Flow(e)),
                    Err(payload) => Err(CellFailure::Panicked(panic_message(payload.as_ref()))),
                }
            }
        };
        results.push(CellResult { config: cfg.name.clone(), workload: workload.name, outcome });
    }

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
        cache: store.stats(),
        replayed_points: replayed,
        detailed_wall_ms,
        detailed_busy_ms: busy_us.into_inner() as f64 / 1000.0,
        batched_points,
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
