//! Profiling driver: runs the detailed core on one workload in a tight
//! loop for a fixed wall-clock budget. Exists so `gprofng collect` /
//! `perf record` have a pure detailed-simulation target without the
//! profiling, clustering and checkpoint stages of a campaign. Its rate is
//! for profiling only; the simulator's measured speed comes from
//! `perfbench/`.
//!
//! Usage: `cargo run --release --example detailed_loop [workload] [config] [seconds]`

use boom_uarch::{BoomConfig, Core};
use rv_workloads::{by_name, Scale};
use std::time::{Duration, Instant};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let workload = args.get(1).map_or("bitcount", |s| s.as_str());
    let config = args.get(2).map_or("medium", |s| s.as_str());
    let secs: u64 = args.get(3).and_then(|s| s.parse().ok()).unwrap_or(5);

    let w = by_name(workload, Scale::Small).expect("known workload");
    let cfg = BoomConfig::preset(config).unwrap_or_else(|| panic!("unknown config {config}"));

    let budget = Duration::from_secs(secs);
    let t0 = Instant::now();
    let (mut cycles, mut insts, mut reps) = (0u64, 0u64, 0u64);
    while t0.elapsed() < budget {
        let mut core = Core::new(cfg.clone(), &w.program);
        let r = core.run(u64::MAX);
        assert!(r.exited, "detailed run must exit");
        cycles += r.cycles;
        insts += r.retired;
        reps += 1;
    }
    let secs = t0.elapsed().as_secs_f64();
    println!(
        "{} on {}: {} reps, {:.0} kcyc/s, {:.0} kinst/s",
        w.name,
        config,
        reps,
        cycles as f64 / secs / 1e3,
        insts as f64 / secs / 1e3
    );
}
