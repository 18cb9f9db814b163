//! perfbench — the end-to-end and per-layer benchmark of boomflow.
//!
//! ```text
//! perfbench --workload campaign_full|sweep_random|serve_mixed
//!           [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! A timed run (`--trace 0`) repeats the workload for `--seconds` and
//! prints the end-to-end metrics; a traced run (`--trace 1`) runs it once
//! more, times every call into each layer's public functions, and prints
//! the per-layer metrics. Every run checks its outputs. The last stdout
//! line is one JSON object: `correct`, `attempted`, `failed`, `metrics`.
//! See `perfbench/README.md`.

mod alloc;
mod campaign;
mod json;
mod ledger;
mod replay;
mod serve;
mod state;
mod stats;
mod sweep;

use boomflow::CellResult;
use json::Json;
use ledger::{ratio, Ledger};
use std::process::exit;
use std::time::{Duration, Instant};

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// Scheduler workers of every workload, sized to a 2-core host.
pub const JOBS: usize = 2;

/// Setups measured before the timed repetitions (each repetition adds
/// its own): one setup takes milliseconds, so `setup_s` is a median over
/// many even when few repetitions fit.
const EXTRA_SETUPS: usize = 25;

/// Command-line arguments.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

/// One reported metric.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    /// Samples behind the value (repetitions, requests or layer calls).
    pub samples: u64,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str, samples: u64) -> Metric {
        Metric { name, value, unit, samples }
    }
}

/// Operations attempted and failed (failed or mismatched outputs).
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    /// Counts `n` operations, all failed unless `ok`; a failure is
    /// reported on stderr, never dropped.
    pub fn ops(&mut self, n: u64, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += n;
        if !ok {
            self.failed += n;
            eprintln!("perfbench: FAILED {}", what());
        }
    }

    /// Marks every attempted operation failed (an output that disagrees
    /// with another run's invalidates the whole run).
    pub fn fail_all(&mut self, what: &str) {
        eprintln!("perfbench: FAILED {what}");
        self.failed = self.attempted.max(1);
        self.attempted = self.attempted.max(1);
    }
}

/// Counts `cells`, failing those that did not complete and, unless the
/// output they belong to is the `same` as the run's first, all of them.
pub fn check_cells(tally: &mut Tally, cells: &[CellResult], same: bool) {
    for c in cells {
        tally.ops(1, c.outcome.is_ok() && same, || {
            format!(
                "cell {} {}: did not complete or differs between repetitions",
                c.config, c.workload
            )
        });
    }
}

/// Checks `text` against the digest earlier runs of this build recorded
/// under `name` (see [`state`]).
pub fn check_across_runs(tally: &mut Tally, name: &str, text: &str) -> Result<(), String> {
    let digest = rv_isa::codec::fnv1a(text.as_bytes());
    if !state::agrees(name, digest).map_err(|e| format!("{}: {e}", state::DIR))? {
        tally.fail_all(&format!("{name}: output differs from an earlier run's"));
    }
    Ok(())
}

/// One step of the splitmix64 generator, the benchmark's only source of
/// seeded randomness.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Detailed cycles of every measured point of `cells`.
pub fn detailed_cycles(cells: &[CellResult]) -> u64 {
    cells
        .iter()
        .filter_map(|c| c.outcome.as_ref().ok())
        .flat_map(|r| &r.points)
        .map(|p| p.stats.cycles)
        .sum()
}

/// What one run measured.
pub struct Outcome {
    pub tally: Tally,
    /// The contract metrics (end-to-end when timed, per-layer when traced).
    pub metrics: Vec<Metric>,
    /// Further metrics printed for people only.
    pub extra: Vec<Metric>,
    /// Sizing of the run (repetitions, client threads, ...).
    pub record: Json,
    /// Whether the workload's inputs depend on `--seed`.
    pub seeded: bool,
}

/// Runs `setup` `EXTRA_SETUPS` times, returning each duration in seconds.
pub fn setup_samples<T>(mut setup: impl FnMut() -> Result<T, String>) -> Result<Vec<f64>, String> {
    (0..EXTRA_SETUPS)
        .map(|_| {
            let t = Instant::now();
            let inputs = setup()?;
            let s = t.elapsed().as_secs_f64();
            drop(inputs);
            Ok(s)
        })
        .collect()
}

/// Whether another repetition starts: always the first, then until the
/// measuring window has passed.
pub fn more(start: Instant, seconds: u64, reps: usize) -> bool {
    reps == 0 || start.elapsed() < Duration::from_secs(seconds)
}

/// Peak resident set (VmHWM) of this process, in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// The end-to-end metrics every workload reports.
pub struct EndToEnd {
    /// Seconds per repetition, spec to verified report bytes (setup
    /// excluded).
    pub walls: Vec<f64>,
    pub setups: Vec<f64>,
    pub peak_rss_mib: f64,
    /// Detailed cycles each repetition simulated (or delivered).
    pub cycles: Vec<u64>,
    /// Request latency median and tail (with the percentile the tail rule
    /// reached), requests per second, and the request samples behind them.
    pub p50: f64,
    pub p90: f64,
    pub p90_rank: f64,
    pub rate: f64,
    pub requests: u64,
}

impl EndToEnd {
    /// A workload whose every repetition is one request (a campaign or a
    /// sweep).
    pub fn one_request_per_repetition(
        walls: Vec<f64>,
        setups: Vec<f64>,
        peak_rss_mib: f64,
        cycles: Vec<u64>,
    ) -> EndToEnd {
        let (p90, p90_rank) = stats::tail(&walls);
        EndToEnd {
            p50: stats::median(&walls),
            p90,
            p90_rank,
            rate: 1.0 / stats::median(&walls),
            requests: walls.len() as u64,
            walls,
            setups,
            peak_rss_mib,
            cycles,
        }
    }

    /// Sizing and spread of the run: repetitions, the quartiles of their
    /// wall times, and the percentile behind `request_p90_s`.
    pub fn record(&self) -> Json {
        let [q1, q2, q3] = stats::quartiles(&self.walls);
        Json::obj()
            .with("repetitions", Json::Int(self.walls.len() as u64))
            .with(
                "wall_s_quartiles",
                Json::obj()
                    .with("q1", Json::Num(q1))
                    .with("q2", Json::Num(q2))
                    .with("q3", Json::Num(q3)),
            )
            .with("request_p90_percentile", Json::Num(self.p90_rank))
    }

    pub fn metrics(&self) -> Vec<Metric> {
        let reps = self.walls.len() as u64;
        let cycles: Vec<f64> = self.cycles.iter().map(|&c| c as f64).collect();
        let rates: Vec<f64> =
            cycles.iter().zip(&self.walls).map(|(c, w)| ratio(c / 1e3, *w)).collect();
        vec![
            Metric::new("wall_s", stats::median(&self.walls), "s", reps),
            Metric::new("setup_s", stats::median(&self.setups), "s", self.setups.len() as u64),
            Metric::new("peak_rss_mib", self.peak_rss_mib, "MiB", 1),
            Metric::new("sim_kcycles_per_s", stats::median(&rates), "kcycles/s", reps),
            Metric::new("detailed_mcycles", stats::median(&cycles) / 1e6, "Mcycles", reps),
            Metric::new("request_p50_s", self.p50, "s", self.requests),
            Metric::new("request_p90_s", self.p90, "s", self.requests),
            Metric::new("requests_per_s", self.rate, "1/s", self.requests),
        ]
    }
}

/// Every per-layer metric, read from a traced run's ledger; `direct`
/// supplies the ones computed outside it. A layer the workload never
/// calls reads 0.
pub fn layer_metrics(l: &Ledger, direct: &[(&'static str, f64)]) -> Vec<Metric> {
    let s = |span: &str| l.span(span);
    let c = |counter: &str| l.counter(counter) as f64;
    // Total seconds in a span.
    let secs = |n: &'static str, span: &str| Metric::new(n, s(span).secs(), "s", s(span).calls);
    // `total` spread over a span's calls.
    let per_call = |n: &'static str, span: &str, total: f64, unit: &'static str| {
        Metric::new(n, ratio(total, s(span).calls as f64), unit, s(span).calls)
    };
    let us = |n: &'static str, span: &str| per_call(n, span, s(span).ns as f64 / 1e3, "us");
    let ms = |n: &'static str, span: &str| per_call(n, span, s(span).ns as f64 / 1e6, "ms");
    let allocs = |n: &'static str, span: &str| per_call(n, span, s(span).allocs as f64, "count");
    // Millions of instructions a span executed per second.
    let mips = |n: &'static str, span: &str, insts: &str| {
        Metric::new(n, ratio(c(insts) / 1e6, s(span).secs()), "MIPS", s(span).calls)
    };
    let count = |n: &'static str, unit: &'static str| Metric::new(n, c(n), unit, 1);
    let ns_per_cycle = |n: &'static str, class: replay::Class| {
        let (cycles, ns) = class.counters();
        Metric::new(n, ratio(c(ns), c(cycles)), "ns", l.counter(cycles))
    };
    let checkpoints = c("isa.checkpoints");
    let per_checkpoint = |n: &'static str, total: f64, unit: &'static str| {
        Metric::new(n, ratio(total, checkpoints), unit, checkpoints as u64)
    };
    let mut out = vec![
        secs("workloads.build_s", "workloads.build"),
        secs("isa.profile_s", "isa.profile"),
        mips("isa.profile_mips", "isa.profile", "isa.profile_insts"),
        secs("isa.checkpoint_s", "isa.checkpoint"),
        mips("isa.checkpoint_mips", "isa.checkpoint", "isa.checkpoint_insts"),
        per_checkpoint("isa.checkpoint_bytes", c("isa.checkpoint_bytes"), "B"),
        per_checkpoint("isa.checkpoint_allocs", s("isa.checkpoint").allocs as f64, "count"),
        secs("simpoint.analyze_s", "simpoint.analyze"),
        count("simpoint.points", "count"),
        secs("uarch.restore_s", "uarch.restore"),
        allocs("uarch.restore_allocs", "uarch.restore"),
        secs("uarch.warmup_s", "uarch.warmup"),
        Metric::new("uarch.warmup_kcycles", c("uarch.warmup_cycles") / 1e3, "kcycles", 1),
        secs("uarch.measure_s", "uarch.measure"),
        Metric::new("uarch.measure_kcycles", c("uarch.measure_cycles") / 1e3, "kcycles", 1),
        allocs("uarch.measure_allocs", "uarch.measure"),
        ns_per_cycle("uarch.ns_per_cycle.medium", replay::Class::Medium),
        ns_per_cycle("uarch.ns_per_cycle.large", replay::Class::Large),
        ns_per_cycle("uarch.ns_per_cycle.mega", replay::Class::Mega),
        us("power.estimate_us", "power.estimate"),
        secs("core.campaign_s", "core.campaign"),
        Metric::new("core.parallel_efficiency", 0.0, "ratio", s("core.campaign").calls),
        us("core.report_us", "core.report"),
        per_call("core.report_bytes", "core.report", c("core.report_bytes"), "B"),
        us("core.journal_append_us", "core.journal_append"),
        per_call(
            "core.journal_bytes_per_point",
            "core.journal_append",
            c("core.journal_bytes"),
            "B",
        ),
        secs("sweep.front_s", "sweep.front"),
        secs("sweep.run_s", "sweep.run"),
        count("sweep.fresh_points", "count"),
        count("sweep.memo_hits", "count"),
        count("sweep.batched_points", "count"),
        count("sweep.idle_skipped_cycles", "cycles"),
        us("protocol.encode_us", "protocol.encode"),
        us("protocol.decode_us", "protocol.decode"),
        per_call(
            "protocol.done_frame_bytes",
            "protocol.decode",
            c("protocol.done_frame_bytes"),
            "B",
        ),
        ms("server.admit_ms", "server.admit"),
        ms("server.exec_ms", "server.exec"),
        Metric::new("server.warm_cell_share", 0.0, "ratio", 1),
        Metric::new("paper_ipc_ratio_err", 0.0, "ratio", 1),
        Metric::new("paper_ppw_gain_err", 0.0, "ratio", 1),
    ];
    for &(name, value) in direct {
        if let Some(m) = out.iter_mut().find(|m| m.name == name) {
            m.value = value;
        }
    }
    out
}

fn usage() -> ! {
    eprintln!(
        "usage: perfbench --workload campaign_full|sweep_random|serve_mixed \
         [--seed N] [--seconds S] [--trace 0|1]"
    );
    exit(2)
}

fn parse_args() -> Args {
    let mut args = Args { workload: String::new(), seed: 1, seconds: 10, trace: false };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().unwrap_or_else(|_| usage()),
            "--seconds" => args.seconds = value.parse().unwrap_or_else(|_| usage()),
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(),
                }
            }
            _ => usage(),
        }
    }
    args
}

fn main() {
    let args = parse_args();
    if args.trace {
        alloc::enable();
    }
    let run = match (args.workload.as_str(), args.trace) {
        ("campaign_full", false) => campaign::timed(&args),
        ("campaign_full", true) => campaign::traced(&args),
        ("sweep_random", false) => sweep::timed(&args),
        ("sweep_random", true) => sweep::traced(&args),
        ("serve_mixed", false) => serve::timed(&args),
        ("serve_mixed", true) => serve::traced(&args),
        _ => usage(),
    };
    let out = match run {
        Ok(out) => out,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            exit(1);
        }
    };

    let Tally { attempted, failed } = out.tally;
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "perfbench {} seed {}{} trace {} nproc {nproc} jobs {JOBS}",
        args.workload,
        args.seed,
        if out.seeded { "" } else { " (ignored: fixed inputs)" },
        u8::from(args.trace)
    );
    let failed_share =
        Metric::new("failed_share", stats::failure_share(failed, attempted), "ratio", attempted);
    for m in out.metrics.iter().chain(&out.extra).chain(std::iter::once(&failed_share)) {
        println!("  {:<28} {:>16.6} {:<10} n={}", m.name, m.value, m.unit, m.samples);
    }

    let mut samples = Json::obj();
    for m in out.metrics.iter().chain(&out.extra).chain(std::iter::once(&failed_share)) {
        samples = samples.with(m.name, Json::Int(m.samples));
    }
    let record = Json::obj()
        .with("workload", Json::Str(args.workload.clone()))
        .with("seed", Json::Int(args.seed))
        .with("seed_used", Json::Bool(out.seeded))
        .with("trace", Json::Bool(args.trace))
        .with("seconds", Json::Int(args.seconds))
        .with("nproc", Json::Int(nproc as u64))
        .with("jobs", Json::Int(JOBS as u64))
        .with("run", out.record)
        .with("failed_share", Json::Num(failed_share.value))
        .with("samples", samples);
    println!("{}", Json::obj().with("record", record).render());

    let mut metrics = Json::obj();
    for m in &out.metrics {
        metrics = metrics.with(
            m.name,
            Json::obj()
                .with("value", Json::Num(m.value))
                .with("unit", Json::Str(m.unit.to_string())),
        );
    }
    let result = Json::obj()
        .with("correct", Json::Bool(failed == 0 && attempted > 0))
        .with("attempted", Json::Int(attempted))
        .with("failed", Json::Int(failed))
        .with("metrics", metrics);
    println!("{}", result.render());
}
