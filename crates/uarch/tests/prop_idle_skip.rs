//! Property-based idle-skip safety: event-driven idle-cycle skipping is
//! a *wall-clock* optimization, not a timing-model change. A randomly
//! generated stall-heavy program must produce exactly the same run —
//! same cycle count, same committed-instruction count, same activity
//! fingerprint, same architectural registers and memory — with skipping
//! on and off.
//!
//! The generator is deliberately miss-heavy (line-strided loads and
//! stores that sweep far past the L1, dependent chains, data-dependent
//! branches), because the dangerous case is exactly a long refill stall:
//! the skip gate must jump to the *next populated calendar-ring bucket*
//! and never over a pending completion. A skip that lands even one
//! cycle late or early moves the cycle count and fails the property.

// Test helpers may unwrap freely; `allow-unwrap-in-tests` only covers
// `#[test]` fns, not the helpers integration tests share.
#![allow(clippy::unwrap_used)]

use boom_uarch::{BoomConfig, Core};
use proptest::prelude::*;
use rv_isa::asm::Assembler;
use rv_isa::reg::Reg::{self, *};
use rv_workloads::{by_name, Scale};

/// Registers the generator is allowed to clobber freely.
const SCRATCH: [Reg; 6] = [A0, A1, A2, A3, T1, T2];

/// A stall-heavy op soup: loads dominate (each cold line is a 40-cycle
/// fixed-latency refill, the window the skip gate fast-forwards), with
/// enough ALU ops and branches mixed in that the machine is sometimes
/// busy when a refill lands — the case where skipping must not engage.
#[derive(Clone, Debug)]
enum Op {
    AddI(usize, usize, i32),
    Add(usize, usize, usize),
    Xor(usize, usize, usize),
    Store(usize, i32),
    Load(usize, i32),
    /// Skip the next op when the register is odd (data-dependent branch,
    /// so the runs also agree through squash/recovery after a skip).
    SkipIfOdd(usize),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    let r = 0usize..SCRATCH.len();
    // Offsets sweep 2 KiB in line-sized strides — 32 distinct lines, so
    // cold misses (and therefore skippable refill stalls) actually
    // happen. Capped below 2047 because the 12-bit load/store immediate
    // wraps beyond that.
    let off = (0i32..32).prop_map(|o| o * 64);
    // The vendored `prop_oneof!` takes no weights; the load arm appears
    // twice to tilt the mix toward refill stalls.
    prop_oneof![
        (r.clone(), r.clone(), -100i32..100).prop_map(|(a, b, i)| Op::AddI(a, b, i)),
        (r.clone(), r.clone(), r.clone()).prop_map(|(a, b, c)| Op::Add(a, b, c)),
        (r.clone(), r.clone(), r.clone()).prop_map(|(a, b, c)| Op::Xor(a, b, c)),
        (r.clone(), off.clone()).prop_map(|(a, o)| Op::Store(a, o)),
        (r.clone(), off.clone()).prop_map(|(a, o)| Op::Load(a, o)),
        (r.clone(), off).prop_map(|(a, o)| Op::Load(a, o)),
        r.prop_map(Op::SkipIfOdd),
    ]
}

/// Assembles a terminating program: `iters` passes over the random op
/// body, every op writing only scratch registers and a bounded buffer.
fn build_program(ops: &[Op], iters: u32, seed: u64) -> rv_isa::Program {
    let mut a = Assembler::new();
    for (i, r) in SCRATCH.iter().enumerate() {
        a.li(*r, (seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(i as u32 * 7)) as i64);
    }
    a.la(S0, "scratch");
    a.li(S1, iters as i64);
    a.label("loop");
    let mut skip_id = 0usize;
    let mut pending_skip: Option<String> = None;
    for op in ops {
        let guard = pending_skip.take();
        match *op {
            Op::AddI(d, s, i) => a.addi(SCRATCH[d], SCRATCH[s], i),
            Op::Add(d, s, t) => a.add(SCRATCH[d], SCRATCH[s], SCRATCH[t]),
            Op::Xor(d, s, t) => a.xor(SCRATCH[d], SCRATCH[s], SCRATCH[t]),
            Op::Store(s, o) => a.sd(SCRATCH[s], S0, o),
            Op::Load(d, o) => a.ld(SCRATCH[d], S0, o),
            Op::SkipIfOdd(s) => {
                let label = format!("skip_{skip_id}");
                skip_id += 1;
                a.andi(T0, SCRATCH[s], 1);
                pending_skip = Some(label);
            }
        }
        if let Some(label) = guard {
            a.label(&label);
        } else if let Some(label) = &pending_skip {
            a.bnez(T0, label);
        }
    }
    if let Some(label) = pending_skip.take() {
        a.label(&label);
    }
    a.addi(S1, S1, -1);
    a.bnez(S1, "loop");
    a.mv(A0, SCRATCH[0]);
    a.exit();
    a.data_label("scratch");
    a.zeros(4096);
    a.assemble().expect("generated program assembles")
}

/// Runs the program once per skip mode on `cfg` and demands the runs be
/// indistinguishable in every observable except wall-clock.
fn skip_is_invisible(cfg: BoomConfig, ops: &[Op], iters: u32, seed: u64) {
    let program = build_program(ops, iters, seed);

    let mut plain = Core::new(cfg.clone(), &program);
    let rp = plain.run(20_000_000);
    assert!(rp.exited && !rp.hung, "skip-off run did not exit: {rp:?}");

    let mut skip = Core::new(cfg, &program);
    skip.set_idle_skip(true);
    let rs = skip.run(20_000_000);
    assert!(rs.exited && !rs.hung, "skip-on run did not exit: {rs:?}");

    // Cycle count first: a skip that jumped past a pending calendar-ring
    // completion (or stopped short of one) shows up here before anywhere
    // else, as the late wakeup shifts every downstream event.
    assert_eq!(rp.cycles, rs.cycles, "cycle count diverged under idle skipping");
    assert_eq!(rp.exit_code, rs.exit_code, "exit code");
    assert_eq!(rp.retired, rs.retired, "committed instruction count");
    assert_eq!(
        plain.stats().fingerprint(),
        skip.stats().fingerprint(),
        "activity fingerprint diverged under idle skipping"
    );
    for reg in Reg::ALL {
        assert_eq!(plain.arch_x(reg), skip.arch_x(reg), "mismatch in {reg}");
    }
    let base = program.symbol("scratch").unwrap();
    assert_eq!(
        plain.mem.read_bytes(base, 4096),
        skip.mem.read_bytes(base, 4096),
        "memory divergence"
    );
    assert_eq!(plain.stats().idle_cycles_skipped, 0, "skip-off run must skip nothing");
}

/// A run split into `run(n)` calls with `reset_stats` between them — the
/// flow's warm-up/measure boundary — must split its cycles identically
/// in both modes: a skip that starts after a run's last commit would
/// charge the skipped cycles to the interval before the reset.
#[test]
fn chunked_runs_split_cycles_identically() {
    for name in ["bitcount", "dijkstra", "patricia"] {
        let program = by_name(name, Scale::Test).unwrap().program;
        let mut plain = Core::new(BoomConfig::medium(), &program);
        let mut skip = Core::new(BoomConfig::medium(), &program);
        skip.set_idle_skip(true);
        let mut skipped = 0;
        for chunk in 0.. {
            // Short chunks put a boundary after nearly every commit, so
            // every skip that could start at one gets the chance.
            let n = 1 + chunk % 3;
            let rp = plain.run(n);
            let rs = skip.run(n);
            assert_eq!(
                (rp.cycles, rp.retired),
                (rs.cycles, rs.retired),
                "{name}: chunk {chunk} split differently under idle skipping"
            );
            assert_eq!(
                plain.stats().fingerprint(),
                skip.stats().fingerprint(),
                "{name}: chunk {chunk}"
            );
            skipped += skip.stats().idle_cycles_skipped;
            if rp.exited {
                break;
            }
            plain.reset_stats();
            skip.reset_stats();
        }
        assert!(skipped > 0, "{name}: the skip gate never engaged");
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    #[test]
    fn random_stall_patterns_never_skip_a_pending_completion(
        ops in proptest::collection::vec(op_strategy(), 4..32),
        iters in 1u32..16,
        seed in any::<u64>(),
    ) {
        skip_is_invisible(BoomConfig::medium(), &ops, iters, seed);
    }

    /// The widest machine has the most in-flight state to account for
    /// analytically (more MSHRs, deeper ROB, more IQ slots), so run the
    /// same property on MegaBOOM with fewer cases.
    #[test]
    fn mega_boom_skips_are_also_invisible(
        ops in proptest::collection::vec(op_strategy(), 4..24),
        iters in 1u32..8,
        seed in any::<u64>(),
    ) {
        skip_is_invisible(BoomConfig::mega(), &ops, iters, seed);
    }
}
