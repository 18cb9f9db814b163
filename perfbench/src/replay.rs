//! The traced replay: a workload's flow re-run on one thread through
//! each layer's public functions, with the parameters the flow itself
//! uses, so every layer call can be timed on its own. Each replayed cell
//! must reproduce the IPC and tile-power bits of the report it replays;
//! otherwise the layer times would describe different work.

use crate::ledger::Ledger;
use boom_uarch::{BoomConfig, Core};
use boomflow::flow::profile;
use boomflow::{FlowConfig, WorkloadResult};
use rtl_power::{estimate_core, PowerReport};
use rv_isa::checkpoint::{checkpoints_at_shared, SharedCheckpoint};
use rv_workloads::Workload;
use simpoint::analyze;
use std::time::Instant;

/// Instructions per `Core::run` call, as the flow's budgeted runner uses.
const CHUNK: u64 = 50_000;

/// The configuration family a replayed cell belongs to, for the
/// per-configuration cost of a simulated cycle.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Class {
    Medium,
    Large,
    Mega,
}

impl Class {
    /// The preset a configuration is (or, for sweep points, derives
    /// from): sweep points vary the MediumBOOM base.
    pub fn of(cfg: &BoomConfig) -> Class {
        match cfg.name.as_str() {
            "LargeBOOM" => Class::Large,
            "MegaBOOM" => Class::Mega,
            _ => Class::Medium,
        }
    }

    /// Counter names of this class's simulated cycles and nanoseconds.
    pub fn counters(self) -> (&'static str, &'static str) {
        match self {
            Class::Medium => ("uarch.medium.cycles", "uarch.medium.ns"),
            Class::Large => ("uarch.large.cycles", "uarch.large.ns"),
            Class::Mega => ("uarch.mega.cycles", "uarch.mega.ns"),
        }
    }
}

struct Point {
    weight: f64,
    interval_len: u64,
    warmup: u64,
    checkpoint: SharedCheckpoint,
}

/// A workload's configuration-independent front half: profile, phase
/// analysis and checkpoints, in the flow's point order.
pub struct Front {
    points: Vec<Point>,
}

/// Profiles, clusters and checkpoints `w` as the flow's artifact store
/// does, recording each stage.
pub fn front(ledger: &mut Ledger, w: &Workload, flow: &FlowConfig) -> Result<Front, String> {
    let profile = ledger
        .time("isa.profile", || profile(w, flow.max_profile_insts))
        .map_err(|e| format!("{}: profile: {e}", w.name))?;
    ledger.count("isa.profile_insts", profile.total_insts);
    let analysis = ledger.time("simpoint.analyze", || analyze(&profile, &flow.simpoint));
    ledger.count("simpoint.points", analysis.selected.len() as u64);

    // Capture at (interval start − warm-up) in one forward pass, sorted
    // by position; this order is also the flow's point order.
    let mut targets: Vec<(usize, u64, u64)> = analysis
        .selected_starts(&profile)
        .iter()
        .enumerate()
        .map(|(i, &start)| {
            let warm = flow.warmup_insts.min(start);
            (i, start - warm, warm)
        })
        .collect();
    targets.sort_by_key(|&(_, at, _)| at);
    let at: Vec<u64> = targets.iter().map(|&(_, at, _)| at).collect();
    let checkpoints = ledger
        .time("isa.checkpoint", || checkpoints_at_shared(&w.program, &at))
        .map_err(|e| format!("{}: checkpoints: {e}", w.name))?;
    ledger.count("isa.checkpoints", checkpoints.len() as u64);
    ledger.count("isa.checkpoint_insts", at.last().copied().unwrap_or(0));
    ledger.count("isa.checkpoint_bytes", checkpoints.iter().map(|c| c.size_bytes() as u64).sum());

    let points = targets
        .into_iter()
        .zip(checkpoints)
        .map(|((sel, _, warmup), checkpoint)| {
            let sp = analysis.selected[sel];
            Point {
                weight: sp.weight,
                interval_len: profile.intervals[sp.interval].len,
                warmup,
                checkpoint,
            }
        })
        .collect();
    Ok(Front { points })
}

/// One replayed cell's aggregate result.
pub struct Replayed {
    pub ipc: f64,
    pub tile_mw: f64,
}

impl Replayed {
    /// Whether the replay reproduced `r` bit for bit (IPC and tile power).
    pub fn matches(&self, r: &WorkloadResult) -> bool {
        self.ipc.to_bits() == r.ipc.to_bits()
            && self.tile_mw.to_bits() == r.tile_power_mw().to_bits()
    }
}

/// Runs up to `insts` instructions in the flow's chunks; returns the
/// cycles simulated.
fn run_chunks(core: &mut Core, insts: u64) -> Result<u64, String> {
    let mut cycles = 0;
    let mut remaining = insts;
    while remaining > 0 {
        let r = core.run(remaining.min(CHUNK));
        cycles += r.cycles;
        if r.hung {
            return Err("detailed core hung".to_string());
        }
        if r.exited {
            break;
        }
        remaining = remaining.saturating_sub(r.retired.max(1));
    }
    Ok(cycles)
}

/// Simulates every point of `front` on `cfg` (restore, warm-up, measured
/// interval, power) and aggregates by cluster weight as the flow does.
pub fn cell(
    ledger: &mut Ledger,
    cfg: &BoomConfig,
    front: &Front,
    flow: &FlowConfig,
) -> Result<Replayed, String> {
    let (cycles_name, ns_name) = Class::of(cfg).counters();
    let mut points: Vec<(f64, f64, PowerReport)> = Vec::with_capacity(front.points.len());
    for p in &front.points {
        let mut core = ledger.time("uarch.restore", || {
            let mut core = Core::from_checkpoint(cfg.clone(), &p.checkpoint);
            core.set_idle_skip(flow.idle_skip);
            core
        });
        let t = Instant::now();
        let warm = ledger.time("uarch.warmup", || run_chunks(&mut core, p.warmup))?;
        core.reset_stats();
        let measured = ledger.time("uarch.measure", || run_chunks(&mut core, p.interval_len))?;
        ledger.count(ns_name, t.elapsed().as_nanos() as u64);
        ledger.count(cycles_name, warm + measured);
        ledger.count("uarch.warmup_cycles", warm);
        ledger.count("uarch.measure_cycles", measured);
        let power = ledger.time("power.estimate", || estimate_core(&core));
        points.push((p.weight, core.stats().ipc(), power));
    }
    let ipc = points.iter().map(|(w, ipc, _)| w * ipc).sum();
    let weighted: Vec<(f64, &PowerReport)> = points.iter().map(|(w, _, p)| (*w, p)).collect();
    let tile_mw = PowerReport::weighted_average(&weighted).tile_total_mw();
    Ok(Replayed { ipc, tile_mw })
}
