//! The metric catalog and the result line every run prints.

use std::fmt::Write as _;

use crate::trace::Span;

/// End-to-end metrics, `(name, unit)`: every untraced run reports all of
/// them. `perfbench/README.md` defines each one per workload.
pub const END_TO_END: &[(&str, &str)] = &[
    ("throws_per_s", "1/s"),
    ("solve_s", "s"),
    ("admit_us_p50", "us"),
    ("done_us_p50", "us"),
    ("done_us_p90", "us"),
    ("admitted_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, `(name, unit)`: every traced run reports all of
/// them. A layer that the workload does not exercise reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("rng.draw_ns_per_throw", "ns"),
    ("core.step_ns_per_throw", "ns"),
    ("core.generate_share", "share"),
    ("core.accept_share", "share"),
    ("core.serve_share", "share"),
    ("core.fast_accept_ratio", "ratio"),
    ("core.arena_grows", "count"),
    ("runner.idle_share", "share"),
    ("runner.job_s_max", "s"),
    ("runner.job_s_p50", "s"),
    ("measure.kernel_share", "share"),
    ("measure.burnin_rounds", "count"),
    ("dispatch.submit_ns", "ns"),
    ("dispatch.saturated", "count"),
    ("service.round_ms_p50", "ms"),
    ("service.route_share", "share"),
    ("service.shard_round_share", "share"),
    ("service.merge_share", "share"),
    ("service.drain_ns_per_completion", "ns"),
    ("service.overhead_x", "x"),
    ("service.pending_peak", "count"),
    ("service.ingress_depth_peak", "count"),
    ("net.poll_us_p50", "us"),
    ("net.admit_us_p90", "us"),
    ("net.idle_poll_share", "share"),
    ("net.notify_ns_per_completion", "ns"),
    ("net.bytes_per_request", "B"),
    ("net.write_queue_bytes_peak", "B"),
    ("loadgen.late_us_max", "us"),
    ("obs.overhead_share", "share"),
];

/// One reported value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Catalog name.
    pub name: &'static str,
    /// The measured value.
    pub value: f64,
    /// Unit from the catalog.
    pub unit: &'static str,
    /// Number of samples behind a quantile, when the value is one.
    pub samples: Option<u64>,
}

/// Everything one run produced.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Whether this was the traced run.
    pub trace: bool,
    /// Operations attempted (balls thrown or requests sent).
    pub attempted: u64,
    /// Attempted operations that failed (refused, timed out, never done).
    pub failed: u64,
    /// Correctness-gate failures; empty when every check passed.
    pub failures: Vec<String>,
    /// Measured values.
    pub metrics: Vec<Metric>,
    /// Spans of a traced run.
    pub spans: Vec<Span>,
    /// Extra human-readable lines for stderr.
    pub notes: Vec<String>,
}

/// The catalog entry `(name, unit)` of `name`; panics on a name outside
/// the catalog, which is a bug in the benchmark itself.
fn entry(name: &str) -> (&'static str, &'static str) {
    *END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|(n, _)| *n == name)
        .unwrap_or_else(|| panic!("metric {name} is not in the catalog"))
}

impl Outcome {
    /// A fresh outcome for an untraced or traced run.
    pub fn new(trace: bool) -> Self {
        Outcome {
            trace,
            ..Outcome::default()
        }
    }

    /// Records a correctness check; a false `ok` fails the run.
    pub fn check(&mut self, ok: bool, what: impl Into<String>) {
        if !ok {
            self.failures.push(what.into());
        }
    }

    /// Sets metric `name` (replacing an earlier value).
    pub fn set(&mut self, name: &str, value: f64) {
        self.set_sampled(name, value, None);
    }

    /// Sets a quantile metric together with its sample count.
    pub fn set_sampled(&mut self, name: &str, value: f64, samples: Option<u64>) {
        let (name, unit) = entry(name);
        self.metrics.retain(|m| m.name != name);
        self.metrics.push(Metric {
            name,
            value,
            unit,
            samples,
        });
    }

    /// Restricts the metrics to the set this kind of run reports: the
    /// end-to-end catalog for untraced runs, the per-layer catalog (unset
    /// layers read 0) for traced ones. A missing or non-finite end-to-end
    /// value, or a non-finite layer value, fails the run.
    pub fn finish(&mut self) {
        let catalog = if self.trace { PER_LAYER } else { END_TO_END };
        let mut out = Vec::with_capacity(catalog.len());
        for &(name, unit) in catalog {
            let found = self.metrics.iter().find(|m| m.name == name).cloned();
            let metric = match found {
                Some(m) => m,
                None if self.trace => Metric {
                    name,
                    value: 0.0,
                    unit,
                    samples: None,
                },
                None => {
                    self.failures
                        .push(format!("metric {name} was not measured"));
                    continue;
                }
            };
            if !metric.value.is_finite() {
                self.failures
                    .push(format!("metric {name} is not finite ({})", metric.value));
                continue;
            }
            out.push(metric);
        }
        self.metrics = out;
        if self.attempted == 0 {
            self.failures.push("the run attempted nothing".to_string());
        }
    }

    /// Whether every correctness check passed.
    pub fn correct(&self) -> bool {
        self.failures.is_empty()
    }

    /// The result line: `{"correct", "attempted", "failed", "metrics"}`.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                iba_obs::json::number(m.value),
                m.unit
            );
        }
        out.push_str("}}");
        out
    }

    /// A human-readable table for stderr.
    pub fn table(&self) -> String {
        let mut out = String::new();
        for m in &self.metrics {
            let samples = m.samples.map_or(String::new(), |n| format!("  (n = {n})"));
            let _ = writeln!(
                out,
                "  {:<34} {:>16.4} {}{}",
                m.name, m.value, m.unit, samples
            );
        }
        for note in &self.notes {
            let _ = writeln!(out, "  {note}");
        }
        for f in &self.failures {
            let _ = writeln!(out, "  CHECK FAILED: {f}");
        }
        out
    }
}
