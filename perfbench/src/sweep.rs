//! `sweep_random`: a successive-halving design-space sweep over 64
//! seeded random draws of six MediumBOOM knobs on Sha and Qsort at full
//! scale, with the default sweep options (batched lanes 4), `--jobs 2`
//! and idle-skip armed as the CLI arms it.

use crate::json::Json;
use crate::ledger::Ledger;
use crate::replay;
use crate::{
    check_across_runs, check_cells, layer_metrics, more, peak_rss_mib, setup_samples, splitmix64,
    Args, EndToEnd, Outcome, Tally, JOBS,
};
use boom_uarch::BoomConfig;
use boomflow::{
    all_fixed_latency, run_sweep, ArtifactStore, FlowConfig, SweepKnob, SweepOptions, SweepReport,
    SweepSpec,
};
use rv_workloads::{by_name, Scale, Workload};
use std::time::Instant;

/// Random draws from the design space per sweep.
const DRAWS: usize = 64;

struct Inputs {
    cfgs: Vec<BoomConfig>,
    workloads: Vec<Workload>,
    flow: FlowConfig,
    store: ArtifactStore,
    opts: SweepOptions,
}

fn workloads() -> Result<Vec<Workload>, String> {
    ["sha", "qsort"]
        .iter()
        .map(|n| by_name(n, Scale::Full).ok_or_else(|| format!("unknown workload {n}")))
        .collect()
}

fn setup(seed: u64, workloads: Vec<Workload>) -> Result<Inputs, String> {
    let spec = SweepSpec {
        base: BoomConfig::medium(),
        axes: vec![
            (SweepKnob::FetchWidth, vec![4, 8]),
            (SweepKnob::DecodeWidth, vec![1, 2, 3, 4]),
            (SweepKnob::Rob, vec![32, 64, 96, 128]),
            (SweepKnob::IntIq, vec![12, 20, 32, 40]),
            (SweepKnob::DcacheWays, vec![1, 2, 4, 8]),
            (SweepKnob::DcacheMshrs, vec![2, 4, 8]),
        ],
        random: Some((DRAWS, seed)),
    };
    let cfgs = spec.generate().map_err(|e| format!("sweep specification: {e}"))?;
    let flow = FlowConfig { idle_skip: all_fixed_latency(&cfgs), ..FlowConfig::default() };
    Ok(Inputs {
        cfgs,
        workloads,
        flow,
        store: ArtifactStore::new(),
        opts: SweepOptions { jobs: JOBS, ..SweepOptions::default() },
    })
}

fn sweep(inputs: &Inputs) -> Result<SweepReport, String> {
    run_sweep(&inputs.cfgs, &inputs.workloads, &inputs.flow, &inputs.store, &inputs.opts)
        .map_err(|e| format!("sweep: {e}"))
}

/// The sweep seed of repetition `rep`: the `rep`-th output of a
/// splitmix64 stream seeded with the workload seed. Every repetition
/// draws its own 64 configurations, so a run's medians rest on several
/// draws of the design space rather than on one (the cost of one draw
/// varies by ±30 % between seeds).
fn draw_seed(seed: u64, rep: usize) -> u64 {
    let mut state = seed;
    (0..=rep).fold(0, |_, _| splitmix64(&mut state))
}

/// The output one draw must reproduce in every run: its frontier and the
/// fresh detailed cycles of its search.
fn outcome_text(report: &SweepReport) -> String {
    format!("{}detailed_cycles {}\n", report.render_frontier(), report.stats.detailed_cycles)
}

pub fn timed(args: &Args) -> Result<Outcome, String> {
    let mut setups = setup_samples(|| setup(draw_seed(args.seed, 0), workloads()?))?;
    let mut walls = Vec::new();
    let mut cycles = Vec::new();
    let mut tally = Tally::default();
    let start = Instant::now();
    while more(start, args.seconds, walls.len()) {
        let rep = walls.len();
        let t = Instant::now();
        let inputs = setup(draw_seed(args.seed, rep), workloads()?)?;
        setups.push(t.elapsed().as_secs_f64());
        let t = Instant::now();
        let report = sweep(&inputs)?;
        let text = outcome_text(&report);
        walls.push(t.elapsed().as_secs_f64());

        check_cells(&mut tally, &report.cells, true);
        check_across_runs(&mut tally, &format!("sweep_random-{}-{rep}", args.seed), &text)?;
        cycles.push(report.stats.detailed_cycles);
    }
    let rss = peak_rss_mib();
    let e2e = EndToEnd::one_request_per_repetition(walls, setups, rss, cycles);
    Ok(Outcome {
        tally,
        metrics: e2e.metrics(),
        extra: Vec::new(),
        record: e2e.record().with("clients", Json::Int(1)).with("draws", Json::Int(DRAWS as u64)),
        seeded: true,
    })
}

pub fn traced(args: &Args) -> Result<Outcome, String> {
    let mut l = Ledger::default();
    let mut tally = Tally::default();
    let ws = l.time("workloads.build", workloads)?;
    let inputs = setup(draw_seed(args.seed, 0), ws)?;

    // The sweep's own front half on its store, then the sweep reusing it.
    for w in &inputs.workloads {
        l.time("sweep.front", || inputs.store.checkpoints(w, &inputs.flow))
            .map_err(|e| format!("{}: front half: {e}", w.name))?;
    }
    let report = l.time("sweep.run", || sweep(&inputs))?;
    let s = &report.stats;
    l.count("sweep.fresh_points", report.rungs.iter().map(|r| r.fresh_points).sum());
    l.count("sweep.memo_hits", s.cache.sweep_point_hits);
    l.count("sweep.batched_points", s.batched_points);
    l.count("sweep.idle_skipped_cycles", s.idle_cycles_skipped);
    let bytes = l.time("core.report", || report.render_deterministic());
    l.count("core.report_bytes", bytes.len() as u64);
    check_cells(&mut tally, &report.cells, true);
    check_across_runs(
        &mut tally,
        &format!("sweep_random-{}-0", args.seed),
        &outcome_text(&report),
    )?;

    // Replay every surviving cell through the layers and hold it to the
    // sweep's bits.
    for w in &inputs.workloads {
        let front = match replay::front(&mut l, w, &inputs.flow) {
            Ok(front) => front,
            Err(e) => {
                tally.ops(1, false, || e);
                continue;
            }
        };
        for c in report.cells.iter().filter(|c| c.workload == w.name) {
            let Some(cfg) = inputs.cfgs.iter().find(|cfg| cfg.name == c.config) else {
                tally.ops(1, false, || format!("sweep cell {} has no configuration", c.config));
                continue;
            };
            let replayed = replay::cell(&mut l, cfg, &front, &inputs.flow);
            let ok = matches!((&c.outcome, &replayed), (Ok(r), Ok(x)) if x.matches(r));
            tally.ops(1, ok, || {
                format!("replay of {} {} disagrees with the sweep report", c.config, w.name)
            });
        }
    }

    Ok(Outcome {
        tally,
        metrics: layer_metrics(&l, &[]),
        extra: Vec::new(),
        record: Json::obj().with("replayed_cells", Json::Int(report.cells.len() as u64)),
        seeded: true,
    })
}
