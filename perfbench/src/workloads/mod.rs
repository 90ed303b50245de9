//! The four workloads. Each `run` sets up several times (reporting the
//! median set-up time), measures for the requested seconds, checks the
//! program's outputs, and returns an [`Outcome`].

use std::time::Instant;

use crate::report::Outcome;
use crate::stats::median;
use crate::RunArgs;

pub mod rounds;
pub mod serve_1m;
pub mod serve_net;
pub mod sim_1m;
pub mod sim_grid;

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const NAMES: &[&str] = &["sim_1m", "sim_grid", "serve_1m", "serve_net"];

/// How many times each run repeats its set-up; `setup_s` is the median.
pub const SETUP_REPEATS: usize = 5;

/// Runs one workload and finishes its outcome (metric set, gate).
pub fn run(args: &RunArgs) -> Outcome {
    let mut outcome = match args.workload.as_str() {
        "sim_1m" => sim_1m::run(args),
        "sim_grid" => sim_grid::run(args),
        "serve_1m" => serve_1m::run(args),
        "serve_net" => serve_net::run(args),
        other => unreachable!("RunArgs::parse admits only known workloads, got {other}"),
    };
    outcome.finish();
    outcome
}

/// Runs `setup` [`SETUP_REPEATS`] times, timing each, and keeps the last
/// state; returns it with the median set-up time in seconds and every
/// repetition's check value (a trajectory digest, say), which the caller
/// gates on with [`check_repeats`]. Each earlier state is dropped before
/// the next set-up starts.
pub fn repeated_setup<T, C>(mut setup: impl FnMut() -> (T, C)) -> (T, f64, Vec<C>) {
    let mut times = Vec::with_capacity(SETUP_REPEATS);
    let mut checks = Vec::with_capacity(SETUP_REPEATS);
    let mut last = None;
    for _ in 0..SETUP_REPEATS {
        drop(last.take());
        let t0 = Instant::now();
        let (state, check) = setup();
        times.push(t0.elapsed().as_secs_f64());
        checks.push(check);
        last = Some(state);
    }
    (
        last.expect("at least one set-up ran"),
        median(&times),
        checks,
    )
}

/// Adds a gate that every set-up repetition produced the same value.
pub fn check_repeats<C: PartialEq + std::fmt::Debug>(
    outcome: &mut Outcome,
    what: &str,
    values: &[C],
) {
    outcome.check(
        values.windows(2).all(|w| w[0] == w[1]),
        format!("{what} differs between set-up repetitions: {values:?}"),
    );
}

/// Snapshot of the telemetry registry's counters and histogram sums, for
/// before/after deltas around a traced segment.
#[derive(Debug, Clone, Default)]
pub struct ObsDelta {
    counters: Vec<(String, u64)>,
    hist_sums: Vec<(String, u64)>,
}

impl ObsDelta {
    /// Captures the global registry now.
    pub fn capture() -> Self {
        let snap = iba_obs::global().snapshot();
        ObsDelta {
            counters: snap.counters,
            hist_sums: snap
                .histograms
                .into_iter()
                .map(|(n, h)| (n, h.sum))
                .collect(),
        }
    }

    fn lookup(list: &[(String, u64)], name: &str) -> u64 {
        list.iter().find(|(n, _)| n == name).map_or(0, |(_, v)| *v)
    }

    /// Growth of counter `name` since `self`.
    pub fn counter_since(&self, name: &str) -> u64 {
        let now = iba_obs::global().counter(name).get();
        now.saturating_sub(Self::lookup(&self.counters, name))
    }

    /// Growth of histogram `name`'s sum since `self`.
    pub fn hist_sum_since(&self, name: &str) -> u64 {
        let now = iba_obs::global().histogram(name).snapshot().sum;
        now.saturating_sub(Self::lookup(&self.hist_sums, name))
    }
}

/// `num / den`, or 0 when nothing was measured.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}
