//! Shared harness for the evaluation benches: runs the SimPoint flow for
//! all eleven workloads on the three BOOM configurations as one supervised
//! campaign and carries the paper's published reference numbers for
//! comparison.
//!
//! Every bench shares one [`ArtifactStore`] per sweep, so the
//! configuration-independent stages (profiling, clustering, checkpoint
//! capture) run once per workload no matter how many configurations or
//! parameter values the sweep visits.

use boom_uarch::BoomConfig;
use boomflow::{supervise_campaign, ArtifactStore, CampaignOptions, FlowConfig, WorkloadResult};
use rtl_power::Component;
use rv_workloads::{all, Scale, Workload};

/// Runs every (configuration, workload) cell as one campaign on the
/// default `--jobs`-wide pool and returns the results in the campaign's
/// configuration-major order.
///
/// # Panics
///
/// Panics if any cell fails (a correctness bug).
fn run_cells(
    cfgs: &[BoomConfig],
    workloads: &[Workload],
    flow: &FlowConfig,
    store: &ArtifactStore,
) -> Vec<WorkloadResult> {
    supervise_campaign(cfgs, workloads, flow, store, &CampaignOptions::default())
        .cells
        .into_iter()
        .map(|c| *c.outcome.unwrap_or_else(|e| panic!("{} on {}: {e}", c.workload, c.config)))
        .collect()
}

/// Runs the flow for every workload under one configuration, sharing
/// `store`'s memoized profiling / clustering / checkpoint artifacts with
/// every other configuration run against it.
///
/// # Panics
///
/// Panics if any workload fails its flow (a correctness bug).
pub fn run_config(
    cfg: &BoomConfig,
    workloads: &[Workload],
    flow: &FlowConfig,
    store: &ArtifactStore,
) -> Vec<WorkloadResult> {
    run_cells(std::slice::from_ref(cfg), workloads, flow, store)
}

/// Runs the flow for all eleven workloads on all three configurations as
/// one campaign, profiling / clustering / checkpointing each workload
/// exactly once.
///
/// # Panics
///
/// Panics if any cell fails (a correctness bug).
pub fn run_all(scale: Scale) -> Vec<(BoomConfig, Vec<WorkloadResult>)> {
    let workloads = all(scale);
    let cfgs = BoomConfig::all_three();
    let mut results =
        run_cells(&cfgs, &workloads, &FlowConfig::default(), &ArtifactStore::new()).into_iter();
    cfgs.into_iter().map(|cfg| (cfg, results.by_ref().take(workloads.len()).collect())).collect()
}

/// The scale every figure-regenerating bench uses.
pub const BENCH_SCALE: Scale = Scale::Full;

/// Workload names in the paper's presentation order.
pub const WORKLOAD_NAMES: [&str; 11] = [
    "Basicmath",
    "Stringsearch",
    "FFT",
    "iFFT",
    "Bitcount",
    "Qsort",
    "Dijkstra",
    "Patricia",
    "Matmult",
    "Sha",
    "Tarfind",
];

/// Per-component mean power the paper reports (mW at 500 MHz, ASAP7),
/// for MediumBOOM / LargeBOOM / MegaBOOM — the calibration anchors and
/// the EXPERIMENTS.md comparison baseline. `RestOfTile` is derived from
/// the tile totals implied by Fig. 9's coverage fractions.
pub fn paper_mean_mw(c: Component) -> [f64; 3] {
    match c {
        Component::IntRegFile => [0.27, 0.72, 4.83],
        Component::FpRegFile => [0.05, 0.08, 1.18],
        Component::IntRename => [0.95, 1.57, 2.50],
        Component::FpRename => [0.60, 1.29, 2.16],
        Component::IntIssue => [0.83, 2.08, 4.40],
        Component::MemIssue => [0.26, 0.62, 1.30],
        Component::FpIssue => [0.17, 0.39, 0.74],
        Component::Rob => [0.61, 1.08, 1.57],
        Component::BranchPredictor => [3.34, 7.00, 7.60],
        Component::FetchBuffer => [0.22, 0.31, 0.36],
        Component::Lsu => [0.84, 1.30, 2.20],
        Component::DCache => [1.13, 2.24, 4.34],
        Component::ICache => [0.36, 1.06, 1.06],
        Component::RestOfTile => [3.57, 4.62, 6.06],
        // The paper's tile stops at the L1s; the uncore components that
        // appear under the hierarchy memory backend have no reference
        // figure to calibrate or compare against.
        Component::L2Cache | Component::DramInterface => [0.0, 0.0, 0.0],
    }
}

/// Tile totals implied by the paper (BP share of 25.3 % / 28.8 % / 18.8 %).
pub const PAPER_TILE_MW: [f64; 3] = [13.20, 24.31, 40.43];

/// Fig. 9: fraction of tile power covered by the 13 analyzed components.
pub const PAPER_ANALYZED_FRACTION: [f64; 3] = [0.73, 0.81, 0.85];

/// Prints a bench banner so `cargo bench` output is navigable.
pub fn banner(title: &str) {
    println!();
    println!("=== {title} ===");
    println!();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_reference_sums_are_consistent() {
        // The 13 analyzed components must sum to fraction x tile.
        for (i, tile) in PAPER_TILE_MW.iter().enumerate() {
            let sum: f64 = Component::ANALYZED.iter().map(|c| paper_mean_mw(*c)[i]).sum();
            let frac = sum / tile;
            assert!(
                (frac - PAPER_ANALYZED_FRACTION[i]).abs() < 0.03,
                "config {i}: analyzed fraction {frac:.3}"
            );
        }
    }
}
