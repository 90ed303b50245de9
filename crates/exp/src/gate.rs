//! The regression gate behind `replicate --check`.
//!
//! A fresh run is compared against its baseline metric-by-metric, but
//! only when the two share a config hash — quick-mode runs are never
//! judged against full-scale committed baselines. Each metric has a
//! *direction* inferred from its name (`speedup` higher is better,
//! `wait` lower is better, unknown names must simply stay close), and
//! metrics matching the noisy opt-out list are reported but never fail
//! the gate. The opt-outs are explicit and surfaced in the report — a
//! skipped cell should be a visible decision, not a silent hole.

/// Default failure threshold: a gated metric may move 15% in the bad
/// direction before the gate fails.
pub const DEFAULT_THRESHOLD: f64 = 0.15;

/// Metric-name substrings excluded from gating by default: absolute
/// wall-clock timings and throughputs, which swing with host load far
/// more than any real regression on shared CI runners. Ratios (speedups,
/// retained goodput, overhead percent, moved fractions) stay gated.
pub const DEFAULT_NOISY: &[&str] = &[
    "ns_per_round",
    "per_sec",
    "wall_ms",
    "latency",
    "submit_latency",
    "mean",
    "p50",
    "p99",
    "p999",
    ".max",
    ".min",
];

/// Which way a metric is allowed to move.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Regressions are increases (waits, pool sizes, moved keys, …).
    LowerIsBetter,
    /// Regressions are decreases (speedups, goodput, accepted, …).
    HigherIsBetter,
    /// No known direction: moving more than the threshold either way
    /// fails (structural counts that should be stable).
    StayClose,
}

/// Infers a metric's direction from its dotted-path name (first matching
/// rule wins; unmatched names must stay close).
pub fn direction_for(name: &str) -> Direction {
    const HIGHER: &[&str] = &[
        "speedup",
        "goodput",
        "per_sec",
        "accepted",
        "retained",
        "completions",
        "wins",
        "bound_ok",
        "bound ok", // sweep table column
        "recovered",
    ];
    const LOWER: &[&str] = &[
        "wait",
        "pool",
        "max_load",
        "moved",
        "overhead",
        "retr", // retries, retry_amplification
        "shed",
        "drop",
        "saturated",
        "duplicate",
        "latency",
        "ns_per_round",
        "nanos",
        "wall_ms",
        "p50",
        "p99",
        "p999",
        "mean",
        ".max",
        "envelope",
        "bound", // theorem bounds: growing bound = weaker guarantee surface
    ];
    let lname = name.to_ascii_lowercase();
    if HIGHER.iter().any(|pat| lname.contains(pat)) {
        return Direction::HigherIsBetter;
    }
    if LOWER.iter().any(|pat| lname.contains(pat)) {
        return Direction::LowerIsBetter;
    }
    Direction::StayClose
}

/// Gate configuration: threshold plus the noisy opt-out list.
#[derive(Debug, Clone)]
pub struct GateConfig {
    /// Maximum allowed fractional move in the bad direction.
    pub threshold: f64,
    /// Metric-name substrings excluded from gating (reported as
    /// [`GateStatus::Noisy`], never failed).
    pub noisy: Vec<String>,
}

impl Default for GateConfig {
    fn default() -> Self {
        GateConfig {
            threshold: DEFAULT_THRESHOLD,
            noisy: DEFAULT_NOISY.iter().map(|s| s.to_string()).collect(),
        }
    }
}

impl GateConfig {
    /// Whether `metric` matches the noisy opt-out list.
    pub fn is_noisy(&self, metric: &str) -> bool {
        let lname = metric.to_ascii_lowercase();
        self.noisy.iter().any(|pat| lname.contains(pat.as_str()))
    }
}

/// Verdict for one compared metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GateStatus {
    /// Within threshold (or moved in the good direction).
    Pass,
    /// Moved past the threshold in the bad direction.
    Fail,
    /// On the noisy opt-out list; compared for the report but exempt.
    Noisy,
    /// Present in only one of the two runs.
    Missing,
}

/// One compared metric.
#[derive(Debug, Clone, PartialEq)]
pub struct GateCheck {
    /// Dotted-path metric name.
    pub metric: String,
    /// Baseline value (`None` when missing from the baseline).
    pub baseline: Option<f64>,
    /// Fresh value (`None` when missing from the fresh run).
    pub fresh: Option<f64>,
    /// Signed fractional change `(fresh - baseline) / |baseline|`
    /// (`None` when either side is missing or the baseline is 0).
    pub delta: Option<f64>,
    /// Inferred direction used for the verdict.
    pub direction: Direction,
    /// The verdict.
    pub status: GateStatus,
}

/// Result of gating one fresh run against one baseline.
#[derive(Debug, Clone, Default)]
pub struct GateReport {
    /// Human label for what was compared (benchmark + config hash).
    pub label: String,
    /// Every compared metric, in baseline order.
    pub checks: Vec<GateCheck>,
}

impl GateReport {
    /// Metrics that failed the gate.
    pub fn failures(&self) -> impl Iterator<Item = &GateCheck> {
        self.checks.iter().filter(|c| c.status == GateStatus::Fail)
    }

    /// Whether the gate passed (no failures).
    pub fn passed(&self) -> bool {
        self.failures().next().is_none()
    }

    /// Metric names that were exempted as noisy.
    pub fn noisy_metrics(&self) -> impl Iterator<Item = &str> {
        self.checks
            .iter()
            .filter(|c| c.status == GateStatus::Noisy)
            .map(|c| c.metric.as_str())
    }
}

/// Compares `fresh` against `baseline` under `config`. Metrics are
/// matched by exact dotted-path name; a metric present on only one side
/// is reported as [`GateStatus::Missing`] (not a failure — schema drift
/// is surfaced, gated values are judged).
pub fn compare(
    label: &str,
    baseline: &[(String, f64)],
    fresh: &[(String, f64)],
    config: &GateConfig,
) -> GateReport {
    let fresh_value = |name: &str| fresh.iter().find(|(n, _)| n == name).map(|(_, v)| *v);
    let mut checks = Vec::new();
    for (name, base) in baseline {
        let direction = direction_for(name);
        let fresh = fresh_value(name);
        let delta = fresh.and_then(|f| (*base != 0.0).then(|| (f - *base) / base.abs()));
        let status = if fresh.is_none() {
            GateStatus::Missing
        } else if config.is_noisy(name) {
            GateStatus::Noisy
        } else {
            let bad = match (direction, delta) {
                // Zero baseline with a nonzero fresh value on a gated
                // metric: treat any appearance of a lower-is-better
                // quantity (e.g. drops going 0 → 5) as a regression.
                (Direction::LowerIsBetter, None) => fresh.is_some_and(|f| f > 0.0 && *base == 0.0),
                (Direction::LowerIsBetter, Some(d)) => d > config.threshold,
                (Direction::HigherIsBetter, Some(d)) => d < -config.threshold,
                (Direction::HigherIsBetter, None) => false,
                (Direction::StayClose, Some(d)) => d.abs() > config.threshold,
                (Direction::StayClose, None) => false,
            };
            if bad {
                GateStatus::Fail
            } else {
                GateStatus::Pass
            }
        };
        checks.push(GateCheck {
            metric: name.clone(),
            baseline: Some(*base),
            fresh,
            delta,
            direction,
            status,
        });
    }
    for (name, value) in fresh {
        if !baseline.iter().any(|(n, _)| n == name) {
            checks.push(GateCheck {
                metric: name.clone(),
                baseline: None,
                fresh: Some(*value),
                delta: None,
                direction: direction_for(name),
                status: GateStatus::Missing,
            });
        }
    }
    GateReport {
        label: label.to_string(),
        checks,
    }
}

/// How the fresh runs were gated: the reports that ran, plus the labels
/// of runs that passed vacuously (no baseline shares their config hash).
#[derive(Debug, Clone, Default)]
pub struct GateOutcome {
    /// One report per fresh run that had a comparable baseline.
    pub gates: Vec<GateReport>,
    /// Fresh runs with no matching-hash baseline (first run on a new
    /// configuration): listed, never failed.
    pub vacuous: Vec<String>,
}

impl GateOutcome {
    /// Whether every gated run passed.
    pub fn passed(&self) -> bool {
        self.gates.iter().all(GateReport::passed)
    }
}

/// Gates each fresh run (by identity hash) against its baseline: the
/// committed benchmark file when it shares the run's config hash,
/// otherwise the newest prior registry record with that hash, otherwise
/// vacuous. Quick-mode runs are therefore never judged against
/// full-scale committed baselines — configs must match to be compared.
pub fn gate_fresh_runs(
    registry: &crate::registry::RunRegistry,
    bench: &[crate::bench_data::BenchFile],
    fresh_identities: &[String],
    config: &GateConfig,
) -> GateOutcome {
    let mut outcome = GateOutcome::default();
    for identity in fresh_identities {
        let Some(record) = registry
            .records()
            .iter()
            .find(|r| &r.identity_hash() == identity)
        else {
            continue;
        };
        let label = format!("{} {}", record.benchmark, record.config_hash);
        let committed = bench.iter().find(|b| {
            b.benchmark == record.benchmark
                && b.config_hash.as_deref() == Some(record.config_hash.as_str())
        });
        if let Some(bf) = committed {
            outcome.gates.push(compare(
                &format!("{label} (vs committed {})", bf.path.display()),
                &bf.metrics,
                &record.metrics,
                config,
            ));
        } else if let Some(prior) =
            registry.latest_for(&record.benchmark, &record.config_hash, Some(identity))
        {
            outcome.gates.push(compare(
                &format!("{label} (vs registry run @{})", prior.unix_time),
                &prior.metrics,
                &record.metrics,
                config,
            ));
        } else {
            outcome.vacuous.push(label);
        }
    }
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metrics(pairs: &[(&str, f64)]) -> Vec<(String, f64)> {
        pairs.iter().map(|(n, v)| (n.to_string(), *v)).collect()
    }

    #[test]
    fn directions_are_inferred_from_names() {
        assert_eq!(
            direction_for("cells.0.spec_speedup"),
            Direction::HigherIsBetter
        );
        assert_eq!(direction_for("goodput_retained"), Direction::HigherIsBetter);
        assert_eq!(direction_for("rows.3.avg_wait"), Direction::LowerIsBetter);
        assert_eq!(
            direction_for("cells.0.overhead_percent"),
            Direction::LowerIsBetter
        );
        assert_eq!(
            direction_for("router.events.0.bounded_load_moved"),
            Direction::LowerIsBetter
        );
        assert_eq!(direction_for("server.batch"), Direction::StayClose);
    }

    #[test]
    fn artificial_regression_past_threshold_fails_the_gate() {
        let baseline = metrics(&[
            ("cells.0.spec_speedup", 3.0),
            ("rows.0.avg_wait", 2.0),
            ("goodput_retained", 0.8),
        ]);
        // 30% speedup loss: well past the default 15%.
        let regressed = metrics(&[
            ("cells.0.spec_speedup", 2.1),
            ("rows.0.avg_wait", 2.0),
            ("goodput_retained", 0.8),
        ]);
        let report = compare("test", &baseline, &regressed, &GateConfig::default());
        assert!(!report.passed());
        let failed: Vec<&str> = report.failures().map(|c| c.metric.as_str()).collect();
        assert_eq!(failed, ["cells.0.spec_speedup"]);

        // The same values inside the threshold pass.
        let ok = metrics(&[
            ("cells.0.spec_speedup", 2.7),
            ("rows.0.avg_wait", 2.2),
            ("goodput_retained", 0.75),
        ]);
        assert!(compare("test", &baseline, &ok, &GateConfig::default()).passed());

        // Lower-is-better regressions fail too.
        let slow = metrics(&[
            ("cells.0.spec_speedup", 3.0),
            ("rows.0.avg_wait", 2.5),
            ("goodput_retained", 0.8),
        ]);
        assert!(!compare("test", &baseline, &slow, &GateConfig::default()).passed());
    }

    #[test]
    fn noisy_metrics_are_exempt_but_reported() {
        let baseline = metrics(&[("cells.0.arena.median_ns_per_round", 1.0e6)]);
        let much_slower = metrics(&[("cells.0.arena.median_ns_per_round", 9.0e6)]);
        let report = compare("t", &baseline, &much_slower, &GateConfig::default());
        assert!(report.passed());
        assert_eq!(
            report.noisy_metrics().collect::<Vec<_>>(),
            ["cells.0.arena.median_ns_per_round"]
        );
        // Taken off the opt-out list, the same move fails.
        let strict = GateConfig {
            noisy: vec![],
            ..GateConfig::default()
        };
        assert!(!compare("t", &baseline, &much_slower, &strict).passed());
    }

    #[test]
    fn zero_baseline_counts_regress_when_they_appear() {
        let baseline = metrics(&[("chaos.slow_consumer_drops", 0.0)]);
        let fresh = metrics(&[("chaos.slow_consumer_drops", 4.0)]);
        assert!(!compare("t", &baseline, &fresh, &GateConfig::default()).passed());
        assert!(compare("t", &baseline, &baseline, &GateConfig::default()).passed());
    }

    #[test]
    fn schema_drift_is_missing_not_failed() {
        let baseline = metrics(&[("a", 1.0), ("gone", 2.0)]);
        let fresh = metrics(&[("a", 1.0), ("added", 3.0)]);
        let report = compare("t", &baseline, &fresh, &GateConfig::default());
        assert!(report.passed());
        let missing: Vec<&str> = report
            .checks
            .iter()
            .filter(|c| c.status == GateStatus::Missing)
            .map(|c| c.metric.as_str())
            .collect();
        assert_eq!(missing, ["gone", "added"]);
    }
}
