//! `sim_1m`: `CappedProcess::step_into` with the default kernel on one
//! thread at the paper's scale, n = 10⁶, c = 4, λ = 0.95, deterministic
//! arrivals, warm-started. The arena (8-byte balls × stride 4 × 10⁶ bins),
//! bin meta, registers, choice buffer, pool and waits come to about 59 MB
//! (computed), far beyond the per-core L2, so random scatter into bins
//! dominates.

use std::time::{Duration, Instant};

use iba_analysis::bounds::theorem2_waiting_bound;
use iba_core::{CappedConfig, CappedProcess};
use iba_sim::process::{AllocationProcess, RoundReport};
use iba_sim::rng::SimRng;

use super::rounds::{core_layer_metrics, set_latencies, time_draw, Rounds};
use super::{check_repeats, ratio, ObsDelta, SETUP_REPEATS};
use crate::report::Outcome;
use crate::stats::{median, peak_rss_mb, Digest};
use crate::trace::Tracer;
use crate::{RunArgs, DEFAULT_SEED};

/// `(n, c, λ)` of the full-size cell.
pub const CELL: (usize, u32, f64) = (1_000_000, 4, 0.95);
/// `(n, c, λ)` of the `--tiny` cell.
pub const TINY_CELL: (usize, u32, f64) = (20_000, 4, 0.95);
/// Rounds stepped during set-up; the trajectory digest covers them.
pub const WARM_ROUNDS: u64 = 5;
/// Rounds per `solve_s` block.
pub const BLOCK_ROUNDS: usize = 10;
/// Digest of the [`WARM_ROUNDS`] set-up rounds at [`DEFAULT_SEED`]:
/// `(full cell, tiny cell)`.
pub const RECORDED_DIGEST: (u64, u64) = (0x2c81_c891_ff5d_a00a, 0x45be_17fb_b8d9_d877);

/// The cell's configuration.
pub fn config(tiny: bool) -> CappedConfig {
    let (n, c, lambda) = if tiny { TINY_CELL } else { CELL };
    CappedConfig::new(n, c, lambda).expect("the benchmark cell is valid")
}

/// A warm-started process stepped through the set-up rounds, with its
/// RNG, plus the digest of those rounds.
pub fn warm_process(config: &CappedConfig, seed: u64) -> (CappedProcess, SimRng, Digest) {
    let mut process = CappedProcess::new(config.clone());
    process.warm_start();
    let mut rng = SimRng::seed_from(seed);
    let mut report = RoundReport::default();
    let mut digest = Digest::default();
    for _ in 0..WARM_ROUNDS {
        process.step_into(&mut rng, &mut report);
        digest.push_round(&report);
    }
    (process, rng, digest)
}

/// Steps one block of [`BLOCK_ROUNDS`] rounds, recording into `rounds`.
/// With a tracer, each round also times `fill_uniform_bins` on a clone of
/// the round's RNG for that round's throw count, and records
/// `rng.draw`/`core.step`/`bench.account` spans under `parent`; returns
/// the draw time in ns and the number of draws.
fn step_block(
    process: &mut CappedProcess,
    rng: &mut SimRng,
    report: &mut RoundReport,
    rounds: &mut Rounds,
    trace: Option<(&Tracer, u64)>,
) -> (u64, u64) {
    let mut draw_buf: Vec<u32> = Vec::new();
    let (mut draw_ns, mut drawn) = (0u64, 0u64);
    for _ in 0..BLOCK_ROUNDS {
        if let Some((tracer, parent)) = trace {
            let (ns, throws) = time_draw(tracer, Some(parent), process, rng, &mut draw_buf);
            draw_ns += ns;
            drawn += throws;
        }
        let span = trace.map(|(t, parent)| t.open("core.step", Some(parent)));
        let start = Instant::now();
        process.step_into(rng, report);
        let end = Instant::now();
        if let (Some((tracer, _)), Some(span)) = (trace, span) {
            tracer.record(span, end);
        }
        let span = trace.map(|(t, parent)| t.open("bench.account", Some(parent)));
        rounds.record(report, start, end, true);
        if let (Some((tracer, _)), Some(span)) = (trace, span) {
            tracer.close(span);
        }
    }
    (draw_ns, drawn)
}

/// Runs the workload. The measured period is split over
/// [`SETUP_REPEATS`] fresh processes, each set up the same way, so one
/// process's memory placement does not decide the run; `setup_s` is the
/// median of their set-up times.
pub fn run(args: &RunArgs) -> Outcome {
    let mut outcome = Outcome::new(args.trace);
    let config = config(args.tiny);
    let tracer = Tracer::new();
    let mut rounds = Rounds::new();
    let mut traced = Rounds::new();
    let mut before = ObsDelta::default();
    let (mut draw_ns, mut drawn) = (0, 0);
    let (mut setup_times, mut digests) = (Vec::new(), Vec::new());
    let mut conserved = true;
    let start = Instant::now();
    for i in 0..SETUP_REPEATS {
        let t0 = Instant::now();
        let (mut process, mut rng, digest) = warm_process(&config, args.seed);
        setup_times.push(t0.elapsed().as_secs_f64());
        digests.push(digest);
        rounds.restart();
        traced.restart();
        let share = (i + 1) as f64 / SETUP_REPEATS as f64;
        let deadline = start + Duration::from_secs_f64(args.seconds * share);
        let mut report = RoundReport::default();
        let root = tracer.open("sim_1m.instance", None);
        let root_id = root.id();
        loop {
            if args.trace {
                // Traced blocks alternate with untraced ones, so the
                // tracing overhead is measured against rounds from the
                // same stretch of the trajectory.
                let span = tracer.open("bench.untraced_block", Some(root_id));
                step_block(&mut process, &mut rng, &mut report, &mut rounds, None);
                tracer.close(span);
                iba_obs::set_enabled(true);
                if traced.step_ns.is_empty() {
                    before = ObsDelta::capture();
                }
                let (ns, count) = step_block(
                    &mut process,
                    &mut rng,
                    &mut report,
                    &mut traced,
                    Some((&tracer, root_id)),
                );
                iba_obs::set_enabled(false);
                draw_ns += ns;
                drawn += count;
            } else {
                step_block(&mut process, &mut rng, &mut report, &mut rounds, None);
            }
            if Instant::now() >= deadline {
                break;
            }
        }
        tracer.close(root);
        conserved &= process.conserves_balls();
    }
    check_repeats(&mut outcome, "sim_1m set-up digest", &digests);
    if args.seed == DEFAULT_SEED {
        let recorded = if args.tiny {
            RECORDED_DIGEST.1
        } else {
            RECORDED_DIGEST.0
        };
        outcome.check(
            digests[0].0 == recorded,
            format!(
                "sim_1m digest {:#018x} differs from the recorded {recorded:#018x}",
                digests[0].0
            ),
        );
    }

    if args.trace {
        let step_ns = traced.step_s() * 1e9;
        outcome.set("rng.draw_ns_per_throw", ratio(draw_ns as f64, drawn as f64));
        core_layer_metrics(
            &mut outcome,
            &before,
            step_ns,
            traced.thrown,
            traced.step_ns.len(),
        );
        let base = ratio(rounds.step_s(), rounds.thrown as f64);
        let with = ratio(traced.step_s(), traced.thrown as f64);
        outcome.set("obs.overhead_share", ratio(with, base) - 1.0);
        outcome.spans = tracer.spans();
        outcome.attempted = rounds.thrown + traced.thrown;
        rounds.merge(&traced);
    } else {
        let step_s = rounds.step_s();
        outcome.set("throws_per_s", ratio(rounds.thrown as f64, step_s));
        outcome.set("admitted_per_s", ratio(rounds.generated as f64, step_s));
        let blocks: Vec<f64> = rounds
            .step_ns
            .chunks_exact(BLOCK_ROUNDS)
            .map(|b| b.iter().sum::<u64>() as f64 / 1e9)
            .collect();
        outcome.set("solve_s", median(&blocks));
        set_latencies(&mut outcome, &rounds.admit, &rounds.done);
        outcome.set("setup_s", median(&setup_times));
        outcome.set("peak_rss_mb", peak_rss_mb());
        outcome.attempted = rounds.thrown;
        outcome.notes.push(format!(
            "{} timed rounds in blocks of {BLOCK_ROUNDS} over {SETUP_REPEATS} processes",
            rounds.step_ns.len()
        ));
    }

    outcome.check(rounds.conserved, "a round did not conserve balls");
    outcome.check(conserved, "a process lost or duplicated balls");
    let c = config
        .capacity()
        .as_finite()
        .expect("the cell's capacity is finite");
    let bound = theorem2_waiting_bound(config.bins(), c, config.lambda());
    outcome.check(
        (rounds.max_wait as f64) <= bound,
        format!(
            "a ball waited {} rounds, over the Theorem 2 bound {bound:.1}",
            rounds.max_wait
        ),
    );
    outcome
}
