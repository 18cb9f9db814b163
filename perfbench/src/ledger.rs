//! The traced run's per-layer recorder: time and heap allocations of
//! every call the benchmark makes into a layer's public functions, plus
//! named work counters.

use crate::alloc;
use std::collections::BTreeMap;
use std::time::Instant;

/// Accumulated cost of one layer's calls.
#[derive(Clone, Copy, Debug, Default)]
pub struct Span {
    pub calls: u64,
    pub ns: u64,
    pub allocs: u64,
    pub bytes: u64,
}

impl Span {
    /// Total seconds.
    pub fn secs(&self) -> f64 {
        self.ns as f64 / 1e9
    }
}

/// `a / b`, or 0 when `b` is not positive (a layer never called).
pub fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// Spans and counters of one traced run, keyed by layer name.
#[derive(Debug, Default)]
pub struct Ledger {
    spans: BTreeMap<&'static str, Span>,
    counts: BTreeMap<&'static str, u64>,
}

impl Ledger {
    /// Runs `f` as one call of span `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let (a0, b0) = alloc::snapshot();
        let t = Instant::now();
        let r = f();
        let ns = t.elapsed().as_nanos() as u64;
        let (a1, b1) = alloc::snapshot();
        self.add(name, Span { calls: 1, ns, allocs: a1 - a0, bytes: b1 - b0 });
        r
    }

    /// Adds a span measured elsewhere.
    pub fn add(&mut self, name: &'static str, s: Span) {
        let e = self.spans.entry(name).or_default();
        e.calls += s.calls;
        e.ns += s.ns;
        e.allocs += s.allocs;
        e.bytes += s.bytes;
    }

    /// Adds `n` to counter `name`.
    pub fn count(&mut self, name: &'static str, n: u64) {
        *self.counts.entry(name).or_default() += n;
    }

    /// Span `name` (all zero when never recorded).
    pub fn span(&self, name: &str) -> Span {
        self.spans.get(name).copied().unwrap_or_default()
    }

    /// Counter `name` (0 when never recorded).
    pub fn counter(&self, name: &str) -> u64 {
        self.counts.get(name).copied().unwrap_or(0)
    }

    /// Total seconds over the named spans.
    pub fn secs_of(&self, names: &[&str]) -> f64 {
        names.iter().map(|n| self.span(n).secs()).sum()
    }
}
