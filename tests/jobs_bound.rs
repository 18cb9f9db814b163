//! `--jobs` bounds the threads that run simulation work. A sampler
//! thread polls this process's thread count while a campaign or a
//! single-cell flow runs; the peak above the pre-run baseline may exceed
//! the executor's bound by one thread only — the sampler itself. One
//! `#[test]` per binary, so no other test's threads are counted.
#![cfg(target_os = "linux")]
// Test helpers unwrap freely: a failed unwrap is exactly a test failure.
#![allow(clippy::unwrap_used)]

use boom_uarch::BoomConfig;
use boomflow::{
    default_jobs, run_simpoint_flow, supervise_matrix_with, ArtifactStore, CampaignOptions,
    FlowConfig,
};
use rv_workloads::{by_name, Scale};
use simpoint::SimPointConfig;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::Duration;

/// This process's current thread count, from `/proc/self/status`.
fn threads() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").unwrap();
    let line = status.lines().find(|l| l.starts_with("Threads:")).unwrap();
    line["Threads:".len()..].trim().parse().unwrap()
}

/// Runs `f` while a sampler reads the thread count about every
/// millisecond; returns the peak minus the count before the sampler
/// started.
fn peak_extra_threads(f: impl FnOnce()) -> usize {
    let baseline = threads();
    let peak = AtomicUsize::new(0);
    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        s.spawn(|| {
            while !stop.load(Ordering::Relaxed) {
                peak.fetch_max(threads(), Ordering::Relaxed);
                std::thread::sleep(Duration::from_millis(1));
            }
        });
        f();
        stop.store(true, Ordering::Relaxed);
    });
    peak.into_inner().saturating_sub(baseline)
}

#[test]
fn simulation_threads_stay_within_the_executor_bound() {
    // (a) Three configurations batched three wide at `jobs: 1`: the
    // lanes are ordinary tasks on the campaign's one worker.
    let workloads =
        [by_name("bitcount", Scale::Test).unwrap(), by_name("sha", Scale::Test).unwrap()];
    let flow = FlowConfig {
        simpoint: SimPointConfig { max_k: 6, restarts: 2, ..SimPointConfig::default() },
        warmup_insts: 1_000,
        ..FlowConfig::default()
    };
    let mut report = None;
    let extra = peak_extra_threads(|| {
        report = Some(supervise_matrix_with(
            &BoomConfig::all_three(),
            &workloads,
            &flow,
            &CampaignOptions { jobs: 1, batch_lanes: 3, ..CampaignOptions::default() },
        ));
    });
    let report = report.unwrap();
    assert!(report.all_ok(), "{:?}", report.failure_log());
    assert!(report.stats.batched_points > 0, "the campaign must batch");
    assert!(extra <= 1 + 1, "jobs 1 batched campaign peaked at {extra} extra thread(s)");

    // (b) A single-cell flow with more SimPoints than the machine has
    // cores runs them on at most `default_jobs()` workers.
    let w = by_name("dijkstra", Scale::Small).unwrap();
    let flow = FlowConfig {
        simpoint: SimPointConfig {
            max_k: 30,
            bic_threshold: 1.0,
            coverage: 1.0,
            restarts: 2,
            ..SimPointConfig::default()
        },
        warmup_insts: 1_000,
        ..FlowConfig::default()
    };
    let points = ArtifactStore::new().checkpoints(&w, &flow).unwrap().points.len();
    let bound = default_jobs();
    if points <= bound {
        eprintln!("note: {points} SimPoint(s) on a {bound}-way host cannot exceed the bound");
    }
    let extra = peak_extra_threads(|| {
        run_simpoint_flow(&BoomConfig::medium(), &w, &flow).unwrap();
    });
    assert!(
        extra <= bound + 1,
        "{points}-point flow peaked at {extra} extra thread(s), bound {bound}"
    );
}
