//! Per-round accounting and layer metrics shared by the workloads that
//! step a `CappedProcess` (`sim_1m`, `sim_grid`) and by the latency
//! report of `serve_1m`.

use std::collections::BTreeMap;
use std::time::Instant;

use iba_core::CappedProcess;
use iba_sim::process::{AllocationProcess, RoundReport};
use iba_sim::rng::SimRng;

use super::{ratio, ObsDelta};
use crate::report::Outcome;
use crate::stats::{nanos, LatencyHist};
use crate::trace::Tracer;

/// Times `SimRng::fill_uniform_bins` on a clone of `rng` for the throw
/// count of `process`'s next round, as an `rng.draw` span under `parent`;
/// the process and its RNG are untouched. Returns `(ns, throws)`.
pub fn time_draw(
    tracer: &Tracer,
    parent: Option<u64>,
    process: &CappedProcess,
    rng: &SimRng,
    buf: &mut Vec<u32>,
) -> (u64, u64) {
    let throws = process.next_throw_count();
    buf.resize(throws, 0);
    let mut clone = rng.clone();
    let span = tracer.open("rng.draw", parent);
    clone.fill_uniform_bins(process.bins(), buf);
    let ns = tracer.close(span);
    std::hint::black_box(&buf);
    (ns, throws as u64)
}

/// Per-round accounting shared by the untraced and traced segments.
#[derive(Debug)]
pub struct Rounds {
    /// Wall time of each `step_into` call, ns.
    pub step_ns: Vec<u64>,
    /// Balls thrown (pool + arrivals).
    pub thrown: u64,
    /// Balls generated.
    pub generated: u64,
    /// Per thrown ball: round start → its acceptance outcome is known.
    pub admit: LatencyHist,
    /// Per served ball: start of its arrival round → end of its serving
    /// round (balls whose arrival round was not recorded are excluded).
    pub done: LatencyHist,
    /// Largest waiting time seen, in rounds.
    pub max_wait: u64,
    /// Every round conserved balls.
    pub conserved: bool,
    /// Start of each recorded round, by round number.
    starts: BTreeMap<u64, Instant>,
    wait_counts: Vec<u64>,
}

impl Default for Rounds {
    fn default() -> Self {
        Rounds {
            step_ns: Vec::new(),
            thrown: 0,
            generated: 0,
            admit: LatencyHist::new(),
            done: LatencyHist::new(),
            max_wait: 0,
            conserved: true,
            starts: BTreeMap::new(),
            wait_counts: Vec::new(),
        }
    }
}

impl Rounds {
    /// Empty accounting.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one round that ran from `start` to `end`. Its served balls
    /// feed the `done` latencies only when `sample_done` is set; their
    /// largest wait is always checked.
    pub fn record(
        &mut self,
        report: &RoundReport,
        start: Instant,
        end: Instant,
        sample_done: bool,
    ) {
        let step = nanos(end - start);
        self.step_ns.push(step);
        self.starts.insert(report.round, start);
        self.thrown += report.thrown;
        self.generated += report.generated;
        self.conserved &= report.conserves_balls();
        self.admit.record(step, report.thrown);
        if !sample_done {
            let max = report.waiting_times.iter().copied().max().unwrap_or(0);
            self.max_wait = self.max_wait.max(max);
            return;
        }
        self.wait_counts.clear();
        for &w in &report.waiting_times {
            let w = w as usize;
            if w >= self.wait_counts.len() {
                self.wait_counts.resize(w + 1, 0);
            }
            self.wait_counts[w] += 1;
        }
        self.max_wait = self
            .max_wait
            .max(self.wait_counts.len().saturating_sub(1) as u64);
        for (w, &count) in self.wait_counts.iter().enumerate() {
            let arrival = report.round.checked_sub(w as u64);
            if let Some(arrived) = arrival.and_then(|r| self.starts.get(&r)) {
                self.done.record(nanos(end - *arrived), count);
            }
        }
    }

    /// Forgets the round start times, before rounds of a fresh process
    /// (whose round numbers start again) are recorded.
    pub fn restart(&mut self) {
        self.starts.clear();
    }

    /// Adds everything `other` recorded except its round start times.
    pub fn merge(&mut self, other: &Rounds) {
        self.step_ns.extend_from_slice(&other.step_ns);
        self.thrown += other.thrown;
        self.generated += other.generated;
        self.admit.merge(&other.admit);
        self.done.merge(&other.done);
        self.max_wait = self.max_wait.max(other.max_wait);
        self.conserved &= other.conserved;
    }

    /// Total step time in seconds.
    pub fn step_s(&self) -> f64 {
        self.step_ns.iter().sum::<u64>() as f64 / 1e9
    }
}

/// Sets the latency quantiles, each with its sample count.
pub fn set_latencies(outcome: &mut Outcome, admit: &LatencyHist, done: &LatencyHist) {
    for (name, hist, q) in [
        ("admit_us_p50", admit, 0.5),
        ("done_us_p50", done, 0.5),
        ("done_us_p90", done, 0.9),
    ] {
        let value = hist.quantile_us(q).unwrap_or(f64::NAN);
        outcome.set_sampled(name, value, Some(hist.count()));
    }
}

/// The `core.*` layer metrics of a traced segment: step time per throw,
/// phase shares of the step time from the kernel's own phase histograms,
/// fast-accept rounds per round, and arena growth events.
pub fn core_layer_metrics(
    outcome: &mut Outcome,
    before: &ObsDelta,
    step_ns: f64,
    thrown: u64,
    rounds: usize,
) {
    outcome.set("core.step_ns_per_throw", ratio(step_ns, thrown as f64));
    for (metric, hist) in [
        ("core.generate_share", "iba_core_phase_generate_nanos"),
        ("core.accept_share", "iba_core_phase_accept_nanos"),
        ("core.serve_share", "iba_core_phase_serve_nanos"),
    ] {
        outcome.set(metric, ratio(before.hist_sum_since(hist) as f64, step_ns));
    }
    outcome.set(
        "core.fast_accept_ratio",
        ratio(
            before.counter_since("iba_core_arena_fast_accept_rounds_total") as f64,
            rounds as f64,
        ),
    );
    outcome.set(
        "core.arena_grows",
        before.counter_since("iba_core_arena_grow_total") as f64,
    );
}
