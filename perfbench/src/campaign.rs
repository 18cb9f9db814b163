//! `campaign_full`: the paper's experiment — all 11 workloads × Medium,
//! Large and MegaBOOM at full scale with the default flow, a fresh
//! in-memory artifact store per campaign, `--jobs 2`, batched lanes and
//! idle-skip off. Its inputs are fixed; the seed is ignored.

use crate::json::Json;
use crate::ledger::Ledger;
use crate::replay;
use crate::{
    check_across_runs, check_cells, detailed_cycles, layer_metrics, more, peak_rss_mib,
    setup_samples, Args, EndToEnd, Metric, Outcome, Tally, JOBS,
};
use boom_uarch::BoomConfig;
use boomflow::{
    supervise_matrix_with, CampaignOptions, CampaignReport, FlowConfig, WorkloadResult,
};
use rv_workloads::{all, Scale, Workload};
use std::time::Instant;

/// Paper Fig. 10: mean MegaBOOM IPC over mean MediumBOOM IPC.
const PAPER_IPC_RATIO: f64 = 1.6;
/// Paper Fig. 11: mean MediumBOOM perf/W advantage over MegaBOOM.
const PAPER_PPW_GAIN: f64 = 0.52;

/// Report renders timed per traced run (one render is well under a
/// millisecond).
const REPORT_RENDERS: usize = 20;

struct Inputs {
    cfgs: Vec<BoomConfig>,
    workloads: Vec<Workload>,
    flow: FlowConfig,
    opts: CampaignOptions,
}

fn setup() -> Result<Inputs, String> {
    Ok(Inputs {
        cfgs: BoomConfig::all_three(),
        workloads: all(Scale::Full),
        flow: FlowConfig::default(),
        opts: CampaignOptions { jobs: JOBS, batch_lanes: 1, ..CampaignOptions::default() },
    })
}

/// The report's error against the paper's two headline ratios:
/// |IPC ratio ÷ 1.6 − 1| and |perf/W advantage − 0.52|.
fn paper_errors(report: &CampaignReport) -> (f64, f64) {
    let mean = |config: &str, f: fn(&WorkloadResult) -> f64| {
        let vals: Vec<f64> = report
            .cells
            .iter()
            .filter(|c| c.config == config)
            .filter_map(|c| c.outcome.as_deref().ok())
            .map(f)
            .collect();
        vals.iter().sum::<f64>() / vals.len().max(1) as f64
    };
    let ipc_ratio = mean("MegaBOOM", |r| r.ipc) / mean("MediumBOOM", |r| r.ipc);
    let ppw = WorkloadResult::perf_per_watt;
    let ppw_gain = mean("MediumBOOM", ppw) / mean("MegaBOOM", ppw) - 1.0;
    ((ipc_ratio / PAPER_IPC_RATIO - 1.0).abs(), (ppw_gain - PAPER_PPW_GAIN).abs())
}

pub fn timed(args: &Args) -> Result<Outcome, String> {
    let mut setups = setup_samples(setup)?;
    let mut walls = Vec::new();
    let mut tally = Tally::default();
    let mut cycles = Vec::new();
    let mut first: Option<(String, (f64, f64))> = None;
    let start = Instant::now();
    while more(start, args.seconds, walls.len()) {
        let t = Instant::now();
        let inputs = setup()?;
        setups.push(t.elapsed().as_secs_f64());
        let t = Instant::now();
        let report =
            supervise_matrix_with(&inputs.cfgs, &inputs.workloads, &inputs.flow, &inputs.opts);
        let bytes = report.render_deterministic();
        walls.push(t.elapsed().as_secs_f64());

        let same = first.as_ref().is_none_or(|(reference, ..)| *reference == bytes);
        check_cells(&mut tally, &report.cells, same);
        cycles.push(detailed_cycles(&report.cells));
        if first.is_none() {
            first = Some((bytes, paper_errors(&report)));
        }
    }
    let rss = peak_rss_mib();
    let (bytes, (ipc_err, ppw_err)) = first.ok_or("no repetition ran")?;
    check_across_runs(&mut tally, "campaign_full", &bytes)?;

    let e2e = EndToEnd::one_request_per_repetition(walls, setups, rss, cycles);
    Ok(Outcome {
        tally,
        metrics: e2e.metrics(),
        extra: vec![
            Metric::new("paper_ipc_ratio_err", ipc_err, "ratio", 1),
            Metric::new("paper_ppw_gain_err", ppw_err, "ratio", 1),
        ],
        record: e2e.record().with("clients", Json::Int(1)),
        seeded: false,
    })
}

pub fn traced(_args: &Args) -> Result<Outcome, String> {
    let mut l = Ledger::default();
    let mut tally = Tally::default();
    let Inputs { cfgs, workloads, flow, opts } = l.time("workloads.build", setup)?;
    let report = l.time("core.campaign", || supervise_matrix_with(&cfgs, &workloads, &flow, &opts));
    check_cells(&mut tally, &report.cells, true);
    let mut bytes = String::new();
    for _ in 0..REPORT_RENDERS {
        bytes = l.time("core.report", || report.render_deterministic());
        l.count("core.report_bytes", bytes.len() as u64);
    }
    check_across_runs(&mut tally, "campaign_full", &bytes)?;

    // Replay every cell on this thread and hold it to the report's bits.
    for w in &workloads {
        let front = match replay::front(&mut l, w, &flow) {
            Ok(front) => front,
            Err(e) => {
                tally.ops(cfgs.len() as u64, false, || e);
                continue;
            }
        };
        for cfg in &cfgs {
            let cell = report.cells.iter().find(|c| c.config == cfg.name && c.workload == w.name);
            let replayed = replay::cell(&mut l, cfg, &front, &flow);
            let ok = matches!((cell.map(|c| &c.outcome), &replayed), (Some(Ok(r)), Ok(x)) if x.matches(r));
            tally.ops(1, ok, || {
                format!("replay of {} {} disagrees with the campaign report", cfg.name, w.name)
            });
        }
    }

    let sequential = l.secs_of(&[
        "isa.profile",
        "simpoint.analyze",
        "isa.checkpoint",
        "uarch.restore",
        "uarch.warmup",
        "uarch.measure",
        "power.estimate",
    ]);
    let efficiency = sequential / (JOBS as f64 * l.span("core.campaign").secs());
    let (ipc_err, ppw_err) = paper_errors(&report);
    Ok(Outcome {
        tally,
        metrics: layer_metrics(
            &l,
            &[
                ("core.parallel_efficiency", efficiency),
                ("paper_ipc_ratio_err", ipc_err),
                ("paper_ppw_gain_err", ppw_err),
            ],
        ),
        extra: Vec::new(),
        record: Json::obj()
            .with("replayed_cells", Json::Int((cfgs.len() * workloads.len()) as u64)),
        seeded: false,
    })
}
