//! `serve_1m`: an in-process `CappedService` at the `sim_1m` cell
//! (n = 10⁶, c = 4, λ = 0.95) in `RngMode::Central` with 2 shards, no
//! model arrivals, and ingress sized to one round's batch. Before each
//! round the benchmark submits λn requests through `Dispatcher::submit`,
//! then calls `run_round` and drains the completion receiver: a
//! round-synchronous closed loop, each round one batch. The pool is
//! warm-started by a round-1 surge of the predicted stationary size,
//! which is what `CappedProcess::warm_start` injects, so the trajectory
//! must equal the bare process's.

use std::sync::mpsc::Receiver;
use std::time::{Duration, Instant};

use iba_core::CappedProcess;
use iba_serve::{CappedService, Completion, Dispatcher, RngMode, ServiceConfig, SubmitError};
use iba_sim::faults::{FaultEvent, FaultPlan};
use iba_sim::process::{AllocationProcess, RoundReport};
use iba_sim::rng::SimRng;

use super::rounds::{core_layer_metrics, set_latencies, time_draw};
use super::sim_1m::config;
use super::{check_repeats, ratio, ObsDelta, SETUP_REPEATS};
use crate::report::Outcome;
use crate::stats::{median, nanos, peak_rss_mb, Digest, LatencyHist};
use crate::trace::{Open, Tracer};
use crate::RunArgs;

/// Shards, one worker thread each.
pub const SHARDS: usize = 2;
/// Round cycles per `solve_s` block.
pub const BLOCK_CYCLES: usize = 5;
/// Submits and completions are timestamped once per this many requests.
const STAMP_EVERY: u64 = 1024;

/// Bitset over ticket ids.
#[derive(Debug, Default)]
struct Bits(Vec<u64>);

impl Bits {
    /// Sets bit `i`; returns whether it was already set.
    fn set(&mut self, i: u64) -> bool {
        let (word, bit) = ((i / 64) as usize, i % 64);
        if word >= self.0.len() {
            self.0.resize(word + 1, 0);
        }
        let was = self.0[word] >> bit & 1 == 1;
        self.0[word] |= 1 << bit;
        was
    }

    fn get(&self, i: u64) -> bool {
        self.0
            .get((i / 64) as usize)
            .is_some_and(|w| w >> (i % 64) & 1 == 1)
    }
}

/// Everything the cycles measured.
#[derive(Debug, Default)]
struct Cycles {
    cycle_s: Vec<f64>,
    round_ns: Vec<u64>,
    submit_ns: u64,
    drain_ns: u64,
    thrown: u64,
    admitted: u64,
    submits: u64,
    saturated: u64,
    closed: u64,
    completed: u64,
    duplicate_or_unknown: u64,
    admit: LatencyHist,
    done: LatencyHist,
    pending_peak: u64,
    depth_peak: u64,
}

/// State that persists across cycles.
struct Rig {
    service: CappedService,
    completions: Receiver<Completion>,
    dispatcher: Dispatcher,
    batch: u64,
    /// Start of each round's submit batch, by round number.
    batch_start: Vec<Option<Instant>>,
    issued: Bits,
    completed: Bits,
    issued_count: u64,
    completed_count: u64,
    digest: Digest,
    rounds_run: u64,
    wait_counts: Vec<u64>,
    report_conserved: bool,
}

impl Rig {
    /// One cycle: submit the batch, run the round, drain completions.
    /// With a tracer, records `dispatch.submit`, `service.run_round` and
    /// `service.drain` spans under a `serve_1m.cycle` root.
    fn cycle(&mut self, c: &mut Cycles, tracer: Option<&Tracer>) {
        let root = tracer.map(|t| t.open("serve_1m.cycle", None));
        let root_id = root.as_ref().map(|r| r.id());
        let cycle_start = Instant::now();
        let round = self.service.round() + 1;

        let span = tracer.map(|t| t.open("dispatch.submit", root_id));
        let mut chunk = 0;
        for i in 0..self.batch {
            match self.dispatcher.submit() {
                Ok(ticket) => {
                    self.issued.set(ticket.id());
                    self.issued_count += 1;
                }
                Err(SubmitError::Saturated) => c.saturated += 1,
                Err(SubmitError::Closed) => c.closed += 1,
            }
            chunk += 1;
            if chunk == STAMP_EVERY || i + 1 == self.batch {
                c.admit.record(nanos(cycle_start.elapsed()), chunk);
                chunk = 0;
            }
        }
        let submitted = Instant::now();
        if let (Some(t), Some(span)) = (tracer, span) {
            t.record(span, submitted);
        }
        c.submits += self.batch;
        c.submit_ns += nanos(submitted - cycle_start);
        c.depth_peak = c.depth_peak.max(self.dispatcher.depth() as u64);
        if self.batch_start.len() <= round as usize {
            self.batch_start.resize(round as usize + 1, None);
        }
        self.batch_start[round as usize] = Some(cycle_start);

        let span = tracer.map(|t| t.open("service.run_round", root_id));
        let t0 = Instant::now();
        let report = self.service.run_round();
        let t1 = Instant::now();
        if let (Some(t), Some(span)) = (tracer, span) {
            t.record(span, t1);
        }
        c.round_ns.push(nanos(t1 - t0));
        self.note_round(&report, c);

        let span = tracer.map(|t| t.open("service.drain", root_id));
        let drain_start = Instant::now();
        let mut chunk = 0;
        self.wait_counts.clear();
        while let Ok(done) = self.completions.try_recv() {
            let id = done.ticket.id();
            if !self.issued.get(id) || self.completed.set(id) {
                c.duplicate_or_unknown += 1;
            }
            let w = done.waiting_rounds as usize;
            if w >= self.wait_counts.len() {
                self.wait_counts.resize(w + 1, 0);
            }
            self.wait_counts[w] += 1;
            c.completed += 1;
            self.completed_count += 1;
            chunk += 1;
            if chunk == STAMP_EVERY {
                self.flush_done(round, &mut c.done);
                chunk = 0;
            }
        }
        self.flush_done(round, &mut c.done);
        let drained = Instant::now();
        if let (Some(t), Some(span)) = (tracer, span) {
            t.record(span, drained);
        }
        c.drain_ns += nanos(drained - drain_start);
        c.pending_peak = c.pending_peak.max(self.service.pending_tickets() as u64);
        c.cycle_s.push((drained - cycle_start).as_secs_f64());
        if let (Some(t), Some(root)) = (tracer, root) {
            t.record(root, drained);
        }
    }

    /// Records the completions counted since the last flush as done now.
    fn flush_done(&mut self, round: u64, done: &mut LatencyHist) {
        let now = Instant::now();
        for (w, count) in self.wait_counts.iter_mut().enumerate() {
            if *count == 0 {
                continue;
            }
            let start = round
                .checked_sub(w as u64)
                .and_then(|r| self.batch_start.get(r as usize).copied().flatten());
            if let Some(start) = start {
                done.record(nanos(now - start), *count);
            }
            *count = 0;
        }
    }

    fn note_round(&mut self, report: &RoundReport, c: &mut Cycles) {
        self.digest.push_round(report);
        self.rounds_run += 1;
        self.report_conserved &= report.conserves_balls();
        c.thrown += report.thrown;
        c.admitted += report.generated;
    }
}

/// Spawns the service, warm-starts its pool, and runs the first cycle;
/// the digest covers that round.
fn start_service(seed: u64, tiny: bool) -> (Rig, Digest) {
    let capped = config(tiny);
    let batch = capped.arrivals().sample(&mut SimRng::seed_from(0));
    let mut service = CappedService::spawn(
        ServiceConfig::new(capped.clone(), SHARDS, seed)
            .with_rng_mode(RngMode::Central)
            .with_model_arrivals(false)
            .with_ingress_capacity(batch as usize),
    )
    .expect("the serve_1m configuration is valid");
    service.schedule(FaultPlan::new().with(
        1,
        FaultEvent::PoolSurge {
            extra: capped.predicted_stationary_pool() as u64,
        },
    ));
    let completions = service.take_completions().expect("a fresh service");
    let dispatcher = service.dispatcher();
    let mut rig = Rig {
        service,
        completions,
        dispatcher,
        batch,
        batch_start: Vec::new(),
        issued: Bits::default(),
        completed: Bits::default(),
        issued_count: 0,
        completed_count: 0,
        digest: Digest::default(),
        rounds_run: 0,
        wait_counts: Vec::new(),
        report_conserved: true,
    };
    rig.cycle(&mut Cycles::default(), None);
    let digest = rig.digest;
    (rig, digest)
}

/// Runs the workload. The measured period is split over
/// [`SETUP_REPEATS`] fresh services, each set up the same way, so one
/// service's memory placement does not decide the run; `setup_s` is the
/// median of their set-up times.
pub fn run(args: &RunArgs) -> Outcome {
    let mut outcome = Outcome::new(args.trace);
    let mut plain = Cycles::default();
    let mut traced = Cycles::default();
    let mut blocks = Vec::new();
    let tracer = Tracer::new();
    let mut before = ObsDelta::default();
    let (mut setup_times, mut setup_digests) = (Vec::new(), Vec::new());
    // `(rounds run, digest)` of each service's whole trajectory.
    let mut trajectories = Vec::new();
    let start = Instant::now();
    for i in 0..SETUP_REPEATS {
        let t0 = Instant::now();
        let (mut rig, digest) = start_service(args.seed, args.tiny);
        setup_times.push(t0.elapsed().as_secs_f64());
        setup_digests.push(digest);
        let share = (i + 1) as f64 / SETUP_REPEATS as f64;
        let deadline = start + Duration::from_secs_f64(args.seconds * share);
        let first_cycle = plain.cycle_s.len();
        while plain.cycle_s.len() - first_cycle < BLOCK_CYCLES || Instant::now() < deadline {
            rig.cycle(&mut plain, None);
            if args.trace {
                // Traced cycles alternate with untraced ones, so the
                // tracing overhead compares cycles from the same stretch.
                iba_obs::set_enabled(true);
                if traced.cycle_s.is_empty() {
                    before = ObsDelta::capture();
                }
                rig.cycle(&mut traced, Some(&tracer));
                iba_obs::set_enabled(false);
            }
        }
        blocks.extend(
            plain.cycle_s[first_cycle..]
                .chunks_exact(BLOCK_CYCLES)
                .map(|b| b.iter().sum::<f64>()),
        );
        let pending = rig.service.pending_tickets() as u64;
        outcome.check(
            rig.completed_count + pending == rig.issued_count,
            format!(
                "completed {} + pending {pending} != issued {}",
                rig.completed_count, rig.issued_count
            ),
        );
        outcome.check(rig.report_conserved, "a round did not conserve balls");
        outcome.check(
            rig.service.conserves_balls(),
            "the service lost or duplicated balls",
        );
        trajectories.push((rig.rounds_run, rig.digest));
        rig.service.shutdown();
    }
    check_repeats(&mut outcome, "serve_1m set-up digest", &setup_digests);
    outcome.check(
        plain.duplicate_or_unknown + traced.duplicate_or_unknown == 0,
        "a completion repeated a ticket or named one never issued",
    );

    // The same cell and seed on the bare process, outside the timed
    // region: the digest reference, the base of `service.overhead_x`, and
    // in the traced run the n = 10⁶ kernel's `rng.*` and `core.*` layers.
    let rounds_run = trajectories.iter().map(|t| t.0).max().unwrap_or(0);
    let mut process = CappedProcess::new(config(args.tiny));
    process.warm_start();
    let mut rng = SimRng::seed_from(args.seed);
    let mut report = RoundReport::default();
    let mut reference = Digest::default();
    let mut prefixes = Vec::with_capacity(rounds_run as usize + 1);
    prefixes.push(reference);
    let mut step_ns = Vec::with_capacity(rounds_run as usize);
    let (mut draw_ns, mut drawn, mut thrown) = (0, 0, 0);
    let mut draw_buf = Vec::new();
    let replay = args.trace.then(|| tracer.open("serve_1m.replay", None));
    let replay_id = replay.as_ref().map(Open::id);
    iba_obs::set_enabled(args.trace);
    let replay_before = ObsDelta::capture();
    for _ in 0..rounds_run {
        if args.trace {
            let (ns, throws) = time_draw(&tracer, replay_id, &process, &rng, &mut draw_buf);
            draw_ns += ns;
            drawn += throws;
        }
        let span = args.trace.then(|| tracer.open("core.step", replay_id));
        let t0 = Instant::now();
        process.step_into(&mut rng, &mut report);
        let t1 = Instant::now();
        if let Some(span) = span {
            tracer.record(span, t1);
        }
        step_ns.push(nanos(t1 - t0) as f64);
        thrown += report.thrown;
        reference.push_round(&report);
        prefixes.push(reference);
    }
    iba_obs::set_enabled(false);
    if let Some(replay) = replay {
        tracer.close(replay);
    }
    for (rounds, digest) in &trajectories {
        let expected = prefixes[*rounds as usize];
        outcome.check(
            *digest == expected,
            format!(
                "Central-mode service digest {:#018x} != CappedProcess digest {:#018x} over {rounds} rounds",
                digest.0, expected.0
            ),
        );
    }
    let cycles_run = plain.cycle_s.len() + traced.cycle_s.len();
    let setup_s = median(&setup_times);

    outcome.attempted = plain.submits + traced.submits;
    outcome.failed = plain.saturated + traced.saturated + plain.closed + traced.closed;
    outcome.notes.push(format!(
        "{cycles_run} timed cycles over {SETUP_REPEATS} services, up to {rounds_run} rounds each"
    ));
    if args.trace {
        let round_ns: u64 = traced.round_ns.iter().sum();
        let round_ns = round_ns as f64;
        outcome.set(
            "dispatch.submit_ns",
            ratio(traced.submit_ns as f64, traced.submits as f64),
        );
        outcome.set(
            "dispatch.saturated",
            (plain.saturated + traced.saturated) as f64,
        );
        let rounds: Vec<f64> = traced.round_ns.iter().map(|&n| n as f64).collect();
        outcome.set("service.round_ms_p50", median(&rounds) / 1e6);
        outcome.set(
            "service.route_share",
            ratio(
                before.hist_sum_since("iba_serve_phase_route_nanos") as f64,
                round_ns,
            ),
        );
        outcome.set(
            "service.merge_share",
            ratio(
                before.hist_sum_since("iba_serve_phase_merge_nanos") as f64,
                round_ns,
            ),
        );
        outcome.set(
            "service.shard_round_share",
            ratio(
                before.hist_sum_since("iba_serve_shard_round_nanos") as f64 / SHARDS as f64,
                round_ns,
            ),
        );
        outcome.set(
            "service.drain_ns_per_completion",
            ratio(traced.drain_ns as f64, traced.completed as f64),
        );
        outcome.set(
            "service.overhead_x",
            ratio(median(&rounds), median(&step_ns)),
        );
        outcome.set("rng.draw_ns_per_throw", ratio(draw_ns as f64, drawn as f64));
        core_layer_metrics(
            &mut outcome,
            &replay_before,
            step_ns.iter().sum(),
            thrown,
            step_ns.len(),
        );
        outcome.set(
            "service.pending_peak",
            plain.pending_peak.max(traced.pending_peak) as f64,
        );
        outcome.set(
            "service.ingress_depth_peak",
            plain.depth_peak.max(traced.depth_peak) as f64,
        );
        outcome.set(
            "obs.overhead_share",
            ratio(median(&traced.cycle_s), median(&plain.cycle_s)) - 1.0,
        );
        outcome.spans = tracer.spans();
    } else {
        let round_s = plain.round_ns.iter().sum::<u64>() as f64 / 1e9;
        let cycles_s: f64 = plain.cycle_s.iter().sum();
        outcome.set("throws_per_s", ratio(plain.thrown as f64, round_s));
        outcome.set("admitted_per_s", ratio(plain.admitted as f64, cycles_s));
        outcome.set("solve_s", median(&blocks));
        set_latencies(&mut outcome, &plain.admit, &plain.done);
        outcome.set("setup_s", setup_s);
        outcome.set("peak_rss_mb", peak_rss_mb());
    }
    outcome
}
