//! Regenerates `BENCH_round_kernel.json` — the repo's committed perf
//! baseline for the flat-arena round kernel.
//!
//! For each `(n, c, λ)` cell the tool warm-starts one process, then
//! measures it three ways in alternating segments on the same seed:
//!
//! - `arena`: the kernel as the simulation engine drives it —
//!   `step_into` with a reused report, drawing its bins from the RNG;
//! - `arena_choices`: a copy of the same process fed the very bins the
//!   `arena` side drew, through `step_with_choices`;
//! - `spec`: [`SpecCapped`], the naive Algorithm 1 oracle, started from
//!   the same warmed state and fed the same choices.
//!
//! Every round is timed individually. Each segment asserts that the
//! choice-fed reports equal the `arena` reports bit for bit, and that the
//! oracle's reports equal them with waiting times compared as multisets
//! (the oracle may serve bins in another order within a round), so the
//! measurement doubles as a differential check. `spec_speedup` — oracle
//! median over `arena_choices` median on identical inputs — is the ratio
//! the regression gate watches; `arena.throws_per_sec` is the headline.
//!
//! ```text
//! cargo run --release -p iba-bench --bin round_kernel_baseline -- \
//!     [--quick] [--n N] [--out BENCH_round_kernel.json]
//! ```
//!
//! The default cells are n = 10⁶, c ∈ {2, 4, 8}, λ = 0.95 and take a few
//! minutes; `--quick` shrinks n to 20 000 for a seconds-long smoke run
//! (do **not** commit quick output as the baseline).

use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use iba_core::spec::SpecCapped;
use iba_core::{CappedConfig, CappedProcess};
use iba_sim::process::{AllocationProcess, RoundReport};
use iba_sim::rng::SimRng;

/// Rounds run before measurement starts (on top of the warm-started
/// pool), so timed rounds sit in the stationary regime.
const WARMUP_ROUNDS: u64 = 48;
/// Alternating measurement segments per cell.
const SEGMENTS: usize = 8;
/// Timed rounds per side per segment; each segment also runs one untimed
/// round first to re-warm the caches after the other side evicted them.
const ROUNDS_PER_SEGMENT: usize = 4;
/// Individually timed rounds per side per cell.
const MEASURED_ROUNDS: usize = SEGMENTS * ROUNDS_PER_SEGMENT;
const SEED: u64 = 20210705; // ICDCS'21 presentation date, arbitrary but fixed

struct KernelStats {
    median_ns_per_round: u128,
    min_ns_per_round: u128,
    rounds_per_sec: f64,
    /// Balls thrown (pool + arrivals) per second of wall-clock, at the
    /// median round time.
    throws_per_sec: f64,
}

/// Folds one side's per-round samples into its summary stats.
fn summarize(mut samples: Vec<Duration>, thrown_per_round: u64) -> KernelStats {
    samples.sort_unstable();
    let median = samples[samples.len() / 2].as_nanos();
    let min = samples[0].as_nanos();
    let rounds_per_sec = 1e9 / median as f64;
    KernelStats {
        median_ns_per_round: median,
        min_ns_per_round: min,
        rounds_per_sec,
        throws_per_sec: thrown_per_round as f64 * rounds_per_sec,
    }
}

struct CellMeasurement {
    n: usize,
    c: u32,
    lambda: f64,
    thrown_per_round: u64,
    /// `arena`, `arena_choices` and `spec`, in that order.
    sides: [(&'static str, KernelStats); 3],
}

impl CellMeasurement {
    fn spec_speedup(&self) -> f64 {
        let [_, (_, choices), (_, spec)] = &self.sides;
        spec.median_ns_per_round as f64 / choices.median_ns_per_round as f64
    }
}

/// Asserts the oracle's report equals the kernel's, waiting times as
/// multisets.
fn assert_matches_spec(kernel: &RoundReport, spec: &RoundReport, what: &str) {
    let (mut k, mut s) = (kernel.clone(), spec.clone());
    k.waiting_times.sort_unstable();
    s.waiting_times.sort_unstable();
    assert_eq!(k, s, "spec oracle diverged from the arena kernel: {what}");
}

/// Runs the three sides in alternating segments (see the module docs):
/// per segment, `arena` runs one untimed re-warm round plus
/// [`ROUNDS_PER_SEGMENT`] timed rounds, then `arena_choices` and `spec`
/// replay the same rounds, each as one block, from the bins `arena`
/// drew. Alternating segments means slow machine drift hits every side
/// of the ratio roughly equally.
fn measure_cell(n: usize, c: u32, lambda: f64) -> CellMeasurement {
    eprintln!("measuring n={n} c={c} lambda={lambda} ...");
    let config = CappedConfig::new(n, c, lambda).expect("valid cell");
    let mut arena = CappedProcess::new(config);
    arena.warm_start();
    let mut rng = SimRng::seed_from(SEED);
    let mut report = RoundReport::default();
    for _ in 0..WARMUP_ROUNDS {
        arena.step_into(&mut rng, &mut report);
    }
    let mut choice_fed = arena.clone();
    let mut spec = SpecCapped::from_process(&arena);
    let mut choice_rng = rng.clone();

    let mut samples: [Vec<Duration>; 3] = Default::default();
    let mut thrown_total = 0u64;
    let mut draws: Vec<u32> = Vec::new();
    for segment in 0..SEGMENTS {
        let mut expected = Vec::with_capacity(ROUNDS_PER_SEGMENT + 1);
        for r in 0..=ROUNDS_PER_SEGMENT {
            let start = Instant::now();
            arena.step_into(&mut rng, &mut report);
            if r > 0 {
                samples[0].push(start.elapsed());
                thrown_total += report.thrown;
            }
            expected.push(report.clone());
        }
        // The bins `arena` drew this segment, replayed from its RNG
        // position at the segment start.
        let choices: Vec<Vec<usize>> = expected
            .iter()
            .map(|r| {
                draws.resize(r.thrown as usize, 0);
                choice_rng.fill_uniform_bins(n, &mut draws);
                draws.iter().map(|&b| b as usize).collect()
            })
            .collect();
        for (r, (round_choices, want)) in choices.iter().zip(&expected).enumerate() {
            let start = Instant::now();
            let got = choice_fed.step_with_choices(round_choices);
            if r > 0 {
                samples[1].push(start.elapsed());
            }
            assert_eq!(
                &got, want,
                "choice-fed arena diverged in segment {segment} at n={n} c={c}"
            );
        }
        for (r, (round_choices, want)) in choices.iter().zip(&expected).enumerate() {
            let start = Instant::now();
            let got = spec.step_with_choices(round_choices);
            if r > 0 {
                samples[2].push(start.elapsed());
            }
            assert_matches_spec(want, &got, &format!("segment {segment} at n={n} c={c}"));
        }
    }
    let thrown = thrown_total / MEASURED_ROUNDS as u64;
    let [a, b, s] = samples;
    let cell = CellMeasurement {
        n,
        c,
        lambda,
        thrown_per_round: thrown,
        sides: [
            ("arena", summarize(a, thrown)),
            ("arena_choices", summarize(b, thrown)),
            ("spec", summarize(s, thrown)),
        ],
    };
    for (key, stats) in &cell.sides {
        eprintln!(
            "  {key:<14} {:>12} ns/round   {:>14.0} throws/s",
            stats.median_ns_per_round, stats.throws_per_sec
        );
    }
    eprintln!("  spec_speedup   {:.2}x", cell.spec_speedup());
    cell
}

fn render_json(cells: &[CellMeasurement]) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"benchmark\": \"round_kernel\",\n");
    out.push_str(
        "  \"description\": \"CAPPED(c, lambda) round throughput of the flat-arena counting-sort \
         kernel: arena = step_into with bins drawn from the RNG and a reused report; \
         arena_choices = the same process fed the same bins through step_with_choices; spec = \
         the naive Algorithm 1 oracle (SpecCapped) started from the same warmed state and fed \
         the same bins. Same seed, alternating measurement segments, reports asserted equal \
         (oracle waits as multisets); median over timed rounds in the stationary regime. \
         spec_speedup = spec median / arena_choices median.\",\n",
    );
    out.push_str("  \"regenerate\": \"cargo run --release -p iba-bench --bin round_kernel_baseline -- --out BENCH_round_kernel.json\",\n");
    let _ = writeln!(out, "  \"seed\": {SEED},");
    let _ = writeln!(out, "  \"warmup_rounds\": {WARMUP_ROUNDS},");
    let _ = writeln!(out, "  \"measured_rounds\": {MEASURED_ROUNDS},");
    out.push_str("  \"cells\": [\n");
    for (i, cell) in cells.iter().enumerate() {
        let _ = writeln!(out, "    {{");
        let _ = writeln!(
            out,
            "      \"n\": {}, \"c\": {}, \"lambda\": {}, \"thrown_per_round\": {},",
            cell.n, cell.c, cell.lambda, cell.thrown_per_round
        );
        for (key, stats) in &cell.sides {
            let _ = writeln!(
                out,
                "      \"{key}\": {{ \"median_ns_per_round\": {}, \
                 \"min_ns_per_round\": {}, \"rounds_per_sec\": {:.3}, \
                 \"throws_per_sec\": {:.0} }},",
                stats.median_ns_per_round,
                stats.min_ns_per_round,
                stats.rounds_per_sec,
                stats.throws_per_sec
            );
        }
        let _ = writeln!(out, "      \"spec_speedup\": {:.3}", cell.spec_speedup());
        let _ = writeln!(out, "    }}{}", if i + 1 < cells.len() { "," } else { "" });
    }
    out.push_str("  ]\n}\n");
    out
}

fn main() -> ExitCode {
    let started = Instant::now();
    let mut quick = false;
    let mut n_override: Option<usize> = None;
    let mut out_path = String::from("BENCH_round_kernel.json");
    let mut registry: Option<String> = None;
    let mut force = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--force" => force = true,
            "--registry" => match args.next() {
                Some(path) => registry = Some(path),
                None => {
                    eprintln!("--registry requires a path");
                    return ExitCode::FAILURE;
                }
            },
            "--n" => match args.next().and_then(|v| v.parse().ok()) {
                Some(n) if n > 0 => n_override = Some(n),
                _ => {
                    eprintln!("--n requires a positive integer");
                    return ExitCode::FAILURE;
                }
            },
            "--out" => match args.next() {
                Some(path) => out_path = path,
                None => {
                    eprintln!("--out requires a path");
                    return ExitCode::FAILURE;
                }
            },
            other => {
                eprintln!("unknown argument: {other}");
                eprintln!(
                    "usage: round_kernel_baseline [--quick] [--n N] \
                     [--out BENCH_round_kernel.json] [--registry PATH] [--force]"
                );
                return ExitCode::FAILURE;
            }
        }
    }

    let n = n_override.unwrap_or(if quick { 20_000 } else { 1_000_000 });
    let lambda = 0.95;
    let cells: Vec<CellMeasurement> = [2u32, 4, 8]
        .iter()
        .map(|&c| measure_cell(n, c, lambda))
        .collect();

    let json = render_json(&cells);
    match iba_bench::prov::finalize(
        "round_kernel",
        &json,
        std::path::Path::new(&out_path),
        registry.as_deref().map(std::path::Path::new),
        force,
        Some(("arena", 1)),
        started.elapsed().as_secs_f64() * 1e3,
    ) {
        Ok(stamped) => {
            println!("{stamped}");
            ExitCode::SUCCESS
        }
        Err(err) => {
            eprintln!("{err}");
            ExitCode::FAILURE
        }
    }
}
