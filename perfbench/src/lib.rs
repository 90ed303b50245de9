//! The repository benchmark: four workloads that together cover every
//! layer of the CAPPED(c, λ) stack, from the arena round kernel at
//! n = 10⁶ to the TCP front end. `BENCHMARK.json` gates on three of them;
//! `sim_1m` is runnable but too unsteady on a shared host to gate on
//! (see `README.md`).
//!
//! | workload    | what runs                                              | layers that do most of the work |
//! |-------------|--------------------------------------------------------|---------------------------------|
//! | `sim_1m`    | `CappedProcess::step_into`, n = 10⁶, c = 4, λ = 0.95   | `iba_sim::rng`, `iba_core::process` |
//! | `sim_grid`  | the `sweep` grid through `measure_capped`/`replicate`  | `iba_sim::runner`, `iba_bench::measure`, per-round fixed costs |
//! | `serve_1m`  | in-process `CappedService` at the `sim_1m` cell        | `iba_serve::dispatch`, `iba_serve::service`, `iba_core::shard` |
//! | `serve_net` | `run_net_loop` on loopback, open then closed loop      | `iba_serve::net`, `iba_serve::proto`, dispatch |
//!
//! Every run prints one JSON object as its last stdout line (see
//! [`report::Outcome::to_json`]). Untraced runs (`--trace 0`) report the
//! end-to-end metrics; traced runs (`--trace 1`) time each layer from
//! outside, through the public functions of its module, and report the
//! per-layer metrics. Every run checks the program's outputs and exits
//! non-zero when a check fails.

pub mod report;
pub mod stats;
pub mod trace;
pub mod workloads;

/// The seed the recorded trajectory digests belong to.
pub const DEFAULT_SEED: u64 = 1;

/// What one invocation runs.
#[derive(Debug, Clone, PartialEq)]
pub struct RunArgs {
    /// Workload name (one of [`workloads::NAMES`]).
    pub workload: String,
    /// Seed every input of the run derives from.
    pub seed: u64,
    /// Length of the measured phase in seconds.
    pub seconds: f64,
    /// Whether this is the traced (per-layer) run.
    pub trace: bool,
    /// Shrinks every workload to a few milliseconds of work; used by the
    /// benchmark's own tests. The correctness gate still runs in full.
    pub tiny: bool,
}

impl RunArgs {
    /// Parses `--workload W --seed N --seconds S --trace 0|1 [--tiny]`.
    ///
    /// # Errors
    ///
    /// A message naming the first missing or malformed argument.
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<RunArgs, String> {
        let mut workload = None;
        let mut seed = None;
        let mut seconds = None;
        let mut trace = None;
        let mut tiny = false;
        let mut iter = args.into_iter();
        while let Some(flag) = iter.next() {
            let mut value = || iter.next().ok_or_else(|| format!("{flag} needs a value"));
            match flag.as_str() {
                "--workload" => workload = Some(value()?),
                "--seed" => {
                    seed = Some(
                        value()?
                            .parse::<u64>()
                            .map_err(|e| format!("bad --seed: {e}"))?,
                    )
                }
                "--seconds" => {
                    let s = value()?
                        .parse::<f64>()
                        .map_err(|e| format!("bad --seconds: {e}"))?;
                    if !(s.is_finite() && s > 0.0 && s <= 600.0) {
                        return Err(format!("--seconds must be in (0, 600], got {s}"));
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = Some(match value()?.as_str() {
                        "0" => false,
                        "1" => true,
                        other => return Err(format!("--trace must be 0 or 1, got {other}")),
                    })
                }
                "--tiny" => tiny = true,
                other => return Err(format!("unknown argument {other}")),
            }
        }
        let workload = workload.ok_or("missing --workload")?;
        if !workloads::NAMES.contains(&workload.as_str()) {
            return Err(format!(
                "unknown workload {workload} (expected one of {})",
                workloads::NAMES.join(", ")
            ));
        }
        Ok(RunArgs {
            workload,
            seed: seed.ok_or("missing --seed")?,
            seconds: seconds.ok_or("missing --seconds")?,
            trace: trace.ok_or("missing --trace")?,
            tiny,
        })
    }
}
