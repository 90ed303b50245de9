//! `sim_grid`: the traffic of the `sweep` binary. For n = 20 000,
//! c ∈ {1, 2, 4, 8} and λ ∈ {0.75, 0.95} it calls
//! `iba_bench::measure::measure_process` with the factory
//! `measure_capped` uses (a warm-started `CappedProcess`), sweep's
//! default window (600) and seed count (3), and sweep's per-cell master
//! seed, through `iba_sim::runner::replicate`. Each arena fits in L2, so
//! per-round fixed costs dominate: RNG, register sweeps, observers and
//! burn-in. It is the only workload that goes through the runner.
//!
//! The factory wraps each process in [`Probed`], which counts balls and
//! times each round from outside; in the traced run it also times the
//! RNG draw and records spans for jobs and rounds.

use std::sync::Mutex;
use std::time::Instant;

use iba_analysis::bounds::theorem2_waiting_bound;
use iba_bench::measure::{measure_process, MeasureConfig, StationaryEstimate};
use iba_core::{CappedConfig, CappedProcess};
use iba_sim::process::{AllocationProcess, RoundReport};
use iba_sim::rng::SimRng;
use iba_sim::runner::{replicate, thread_budget};

use super::rounds::{core_layer_metrics, set_latencies, time_draw, Rounds};
use super::{check_repeats, ratio, repeated_setup, ObsDelta};
use crate::report::Outcome;
use crate::stats::{median, peak_rss_mb, Digest};
use crate::trace::{Open, Tracer};
use crate::{RunArgs, DEFAULT_SEED};

/// Bins per cell (the `--tiny` grid uses [`TINY_N`]).
pub const N: usize = 20_000;
/// Bins per cell of the `--tiny` grid.
pub const TINY_N: usize = 2_000;
/// Capacities of the grid, in sweep's order within each λ.
pub const CAPACITIES: [u32; 4] = [1, 2, 4, 8];
/// Injection rates of the grid.
pub const LAMBDAS: [f64; 2] = [0.75, 0.95];
/// sweep's default measurement window (the `--tiny` grid uses 60).
pub const WINDOW: u64 = 600;
/// sweep's default replication count.
pub const SEEDS: usize = 3;
/// Rounds each cell's process runs during set-up.
pub const WARM_ROUNDS: u64 = 64;
/// Served balls feed the `done` latencies on every this-many-th round
/// only: counting every ball's wait costs a sizeable share of a round
/// this small.
pub const DONE_SAMPLE_EVERY: u64 = 8;
/// Digest of the grid table at [`DEFAULT_SEED`]: `(full, tiny)`.
pub const RECORDED_DIGEST: (u64, u64) = (0x2d8a_541b_3e33_76a8, 0x3f67_894b_d2e2_25d5);

/// One grid cell's configuration.
fn cells(tiny: bool) -> Vec<CappedConfig> {
    let n = if tiny { TINY_N } else { N };
    LAMBDAS
        .iter()
        .flat_map(|&lambda| {
            CAPACITIES
                .iter()
                .map(move |&c| CappedConfig::new(n, c, lambda).expect("grid cells are valid"))
        })
        .collect()
}

/// Accumulators shared by every job of a solve.
#[derive(Debug, Default)]
struct Shared {
    rounds: Rounds,
    /// `(start, end)` of every job, for the runner's idle share.
    jobs: Vec<(Instant, Instant)>,
    draw_ns: u64,
    drawn: u64,
    /// Jobs whose process lost or duplicated balls.
    unconserved_jobs: u64,
    /// Jobs in which some ball waited longer than the cell's Theorem 2
    /// bound, as `(c, λ, max wait, bound)`.
    over_bound: Vec<(u32, f64, u64, f64)>,
}

/// A `CappedProcess` timed from outside, one per replication job.
struct Probed<'a> {
    inner: CappedProcess,
    shared: &'a Mutex<Shared>,
    local: Rounds,
    job_start: Instant,
    trace: Option<(&'a Tracer, Open)>,
    draw_buf: Vec<u32>,
    draw_ns: u64,
    drawn: u64,
}

impl<'a> Probed<'a> {
    fn new(
        config: &CappedConfig,
        shared: &'a Mutex<Shared>,
        trace: Option<(&'a Tracer, u64)>,
    ) -> Self {
        let job_start = Instant::now();
        let trace = trace.map(|(t, parent)| (t, t.open("runner.job", Some(parent))));
        let mut inner = CappedProcess::new(config.clone());
        inner.warm_start();
        Probed {
            inner,
            shared,
            local: Rounds::new(),
            job_start,
            trace,
            draw_buf: Vec::new(),
            draw_ns: 0,
            drawn: 0,
        }
    }
}

impl AllocationProcess for Probed<'_> {
    fn bins(&self) -> usize {
        self.inner.bins()
    }

    fn round(&self) -> u64 {
        self.inner.round()
    }

    fn pool_size(&self) -> usize {
        self.inner.pool_size()
    }

    fn step(&mut self, rng: &mut SimRng) -> RoundReport {
        let mut report = RoundReport::default();
        self.step_into(rng, &mut report);
        report
    }

    fn step_into(&mut self, rng: &mut SimRng, report: &mut RoundReport) {
        let step_span = match &self.trace {
            Some((tracer, job)) => {
                let parent = Some(job.id());
                let (ns, throws) = time_draw(tracer, parent, &self.inner, rng, &mut self.draw_buf);
                self.draw_ns += ns;
                self.drawn += throws;
                Some(tracer.open("core.step", parent))
            }
            None => None,
        };
        let start = Instant::now();
        self.inner.step_into(rng, report);
        let end = Instant::now();
        if let (Some((tracer, _)), Some(span)) = (&self.trace, step_span) {
            tracer.record(span, end);
        }
        let sample = report.round.is_multiple_of(DONE_SAMPLE_EVERY);
        self.local.record(report, start, end, sample);
    }

    fn label(&self) -> String {
        self.inner.label()
    }
}

impl Drop for Probed<'_> {
    fn drop(&mut self) {
        let end = Instant::now();
        if let Some((tracer, job)) = self.trace.take() {
            tracer.record(job, end);
        }
        let config = self.inner.config();
        let c = config
            .capacity()
            .as_finite()
            .expect("grid capacities are finite");
        let bound = theorem2_waiting_bound(config.bins(), c, config.lambda());
        let mut shared = self.shared.lock().expect("grid accumulators poisoned");
        shared.rounds.merge(&self.local);
        shared.jobs.push((self.job_start, end));
        shared.draw_ns += self.draw_ns;
        shared.drawn += self.drawn;
        shared.unconserved_jobs += u64::from(!self.inner.conserves_balls());
        if self.local.max_wait as f64 > bound {
            shared
                .over_bound
                .push((c, config.lambda(), self.local.max_wait, bound));
        }
    }
}

/// One full grid: returns the table and each cell's makespan.
fn solve(
    cells: &[CappedConfig],
    seed: u64,
    window: u64,
    shared: &Mutex<Shared>,
    trace: Option<(&Tracer, u64)>,
) -> Vec<(StationaryEstimate, f64)> {
    cells
        .iter()
        .map(|config| {
            let c = config
                .capacity()
                .as_finite()
                .expect("grid capacities are finite");
            // sweep's per-cell master seed.
            let measure = MeasureConfig::for_lambda(config.lambda(), window, SEEDS)
                .with_master_seed(seed ^ u64::from(c));
            let cell_span = trace.map(|(t, parent)| t.open("measure.cell", Some(parent)));
            let parent = trace
                .zip(cell_span.as_ref())
                .map(|((t, _), span)| (t, span.id()));
            let t0 = Instant::now();
            let est = measure_process(
                |_| Probed::new(config, shared, parent),
                config.bins(),
                &measure,
            );
            let makespan = t0.elapsed().as_secs_f64();
            if let (Some((tracer, _)), Some(span)) = (trace, cell_span) {
                tracer.close(span);
            }
            (est, makespan)
        })
        .collect()
}

/// Digest of a grid table: every stationary estimate of every cell.
fn table_digest(table: &[(StationaryEstimate, f64)]) -> Digest {
    let mut d = Digest::default();
    for (est, _) in table {
        for v in [
            est.pool_mean.mean(),
            est.pool_max.mean(),
            est.wait_mean.mean(),
            est.wait_p99.mean(),
            est.wait_max.mean(),
            est.failed_deletions_mean.mean(),
            est.burnin_rounds.mean(),
        ] {
            d.push(v.to_bits());
        }
    }
    d
}

/// Set-up: builds every cell's warm-started process and steps it
/// [`WARM_ROUNDS`] rounds, the cells spread over the runner's workers as
/// a solve spreads them; the digest covers those rounds.
fn warm_up(cells: &[CappedConfig], seed: u64) -> ((), Digest) {
    let per_cell = replicate(seed, cells.len(), |i, _| {
        let mut process = CappedProcess::new(cells[i].clone());
        process.warm_start();
        let mut rng = SimRng::seed_from(seed);
        let mut report = RoundReport::default();
        let mut digest = Digest::default();
        for _ in 0..WARM_ROUNDS {
            process.step_into(&mut rng, &mut report);
            digest.push_round(&report);
        }
        digest
    });
    let mut digest = Digest::default();
    for cell in per_cell {
        digest.push(cell.0);
    }
    ((), digest)
}

/// Runs the workload.
pub fn run(args: &RunArgs) -> Outcome {
    let mut outcome = Outcome::new(args.trace);
    let cells = cells(args.tiny);
    let window = if args.tiny { 60 } else { WINDOW };
    let ((), setup_s, warm_digests) = repeated_setup(|| warm_up(&cells, args.seed));
    check_repeats(&mut outcome, "sim_grid set-up digest", &warm_digests);

    // The traced run alternates untraced and traced solves; spans and
    // layer counters come from the traced ones only.
    let untraced = Mutex::new(Shared::default());
    let traced = Mutex::new(Shared::default());
    let tracer = Tracer::new();
    let mut before = ObsDelta::default();
    let (mut untraced_s, mut traced_s) = (Vec::new(), Vec::new());
    let mut tables = Vec::new();
    let mut traced_makespans: Vec<f64> = Vec::new();
    let t_start = Instant::now();
    loop {
        let t0 = Instant::now();
        let table = if args.trace && untraced_s.len() > traced_s.len() {
            iba_obs::set_enabled(true);
            if traced_s.is_empty() {
                before = ObsDelta::capture();
            }
            let root = tracer.open("sim_grid.solve", None);
            let root_id = root.id();
            let table = solve(&cells, args.seed, window, &traced, Some((&tracer, root_id)));
            tracer.close(root);
            iba_obs::set_enabled(false);
            traced_s.push(t0.elapsed().as_secs_f64());
            traced_makespans.extend(table.iter().map(|(_, makespan)| makespan));
            table
        } else {
            let table = solve(&cells, args.seed, window, &untraced, None);
            untraced_s.push(t0.elapsed().as_secs_f64());
            table
        };
        tables.push(table);
        // Stop before a solve that would end past the measured period, so
        // a run lasts about `--seconds` rather than up to a solve longer.
        let done = !args.trace || !traced_s.is_empty();
        let elapsed = t_start.elapsed().as_secs_f64();
        if done && elapsed * (tables.len() + 1) as f64 / tables.len() as f64 > args.seconds {
            break;
        }
    }
    let untraced = untraced.into_inner().expect("grid accumulators poisoned");
    let traced = traced.into_inner().expect("grid accumulators poisoned");

    if args.trace {
        let step_ns = traced.rounds.step_s() * 1e9;
        outcome.set(
            "rng.draw_ns_per_throw",
            ratio(traced.draw_ns as f64, traced.drawn as f64),
        );
        core_layer_metrics(
            &mut outcome,
            &before,
            step_ns,
            traced.rounds.thrown,
            traced.rounds.step_ns.len(),
        );
        let job_s: Vec<f64> = traced
            .jobs
            .iter()
            .map(|(s, e)| (*e - *s).as_secs_f64())
            .collect();
        let busy: f64 = job_s.iter().sum();
        // Each cell's makespan times the workers replicate() runs.
        let workers = thread_budget().min(SEEDS) as f64;
        let capacity: f64 = traced_makespans.iter().map(|m| m * workers).sum();
        outcome.set("runner.idle_share", 1.0 - ratio(busy, capacity));
        outcome.set(
            "runner.job_s_max",
            job_s.iter().copied().fold(0.0, f64::max),
        );
        outcome.set("runner.job_s_p50", median(&job_s));
        outcome.set("measure.kernel_share", ratio(step_ns / 1e9, busy));
        let burnin: f64 = tables[0]
            .iter()
            .map(|(est, _)| est.burnin_rounds.mean() * est.burnin_rounds.summary.count() as f64)
            .sum();
        outcome.set("measure.burnin_rounds", burnin);
        outcome.set(
            "obs.overhead_share",
            ratio(median(&traced_s), median(&untraced_s)) - 1.0,
        );
        outcome.spans = tracer.spans();
    } else {
        let total_s: f64 = untraced_s.iter().sum();
        let rounds = &untraced.rounds;
        outcome.set("solve_s", median(&untraced_s));
        outcome.set("throws_per_s", ratio(rounds.thrown as f64, total_s));
        outcome.set("admitted_per_s", ratio(rounds.generated as f64, total_s));
        set_latencies(&mut outcome, &rounds.admit, &rounds.done);
        outcome.set("setup_s", setup_s);
        outcome.set("peak_rss_mb", peak_rss_mb());
    }
    outcome.attempted = untraced.rounds.thrown + traced.rounds.thrown;
    let digests: Vec<Digest> = tables.iter().map(|t| table_digest(t)).collect();
    outcome.notes.push(format!(
        "solves: untraced {untraced_s:?} s, traced {traced_s:?} s; grid digest {:#018x}",
        digests[0].0
    ));

    check_repeats(&mut outcome, "sim_grid table digest", &digests);
    if args.seed == DEFAULT_SEED {
        let recorded = if args.tiny {
            RECORDED_DIGEST.1
        } else {
            RECORDED_DIGEST.0
        };
        outcome.check(
            digests[0].0 == recorded,
            format!(
                "sim_grid digest {:#018x} differs from the recorded {recorded:#018x}",
                digests[0].0
            ),
        );
    }
    for acc in [&untraced, &traced] {
        outcome.check(acc.rounds.conserved, "a round did not conserve balls");
        outcome.check(
            acc.unconserved_jobs == 0,
            format!(
                "{} processes lost or duplicated balls",
                acc.unconserved_jobs
            ),
        );
        for (c, lambda, wait, bound) in &acc.over_bound {
            outcome.check(
                false,
                format!("cell c={c} λ={lambda}: a ball waited {wait} rounds, over the Theorem 2 bound {bound:.1}"),
            );
        }
    }
    outcome
}
