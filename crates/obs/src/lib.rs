//! Unified telemetry for the CAPPED(c, λ) reproduction.
//!
//! This crate is the observability substrate every other workspace crate
//! records into. It is **std-only** and sits at the bottom of the
//! dependency stack (it depends on nothing, so `iba-sim`, `iba-core` and
//! `iba-serve` can all probe through it without cycles). Four pieces:
//!
//! - [`registry`] — named atomic counters, gauges and fixed-bucket
//!   histograms behind a process-wide on/off switch
//!   ([`set_enabled`]/[`enabled`]). **The disabled path of every probe is
//!   a single relaxed atomic load**, so probes live inside the hot round
//!   kernel without measurable cost when telemetry is off (the
//!   `obs_overhead` bench in `iba-bench` pins this at n = 10⁶).
//! - [`expo`] — Prometheus-style text exposition of a registry snapshot,
//!   plus a strict parser for it.
//! - [`json`] — the workspace's single hand-rolled JSON writer/parser.
//!   Every JSONL producer (ServeSnapshot, sweep outputs, the telemetry
//!   [`sink`], flight-recorder post-mortems) renders through it and stamps
//!   a `schema` version field.
//! - [`flight`] — the flight recorder: a fixed-size ring of recent
//!   round-level events that dumps a JSON post-mortem (events + registry
//!   snapshot) on panic, invariant violation, or fault trigger.
//!
//! # Example
//!
//! ```
//! use iba_obs::{global, set_enabled, PhaseTimer};
//!
//! set_enabled(true);
//! let rounds = iba_obs::global().counter("doc_rounds_total");
//! let latency = global().histogram("doc_round_nanos");
//!
//! let timer = PhaseTimer::start();
//! rounds.inc(); // one relaxed fetch_add
//! timer.observe(&latency);
//!
//! let text = iba_obs::expo::render(&global().snapshot());
//! assert!(text.contains("doc_rounds_total 1"));
//! set_enabled(false);
//! rounds.inc(); // single relaxed load, no write
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod expo;
pub mod flight;
pub mod json;
pub mod registry;
pub mod sink;

pub use registry::{
    enabled, global, init_from_env, set_enabled, Counter, Gauge, Histogram, HistogramSnapshot,
    PhaseTimer, Registry, RegistrySnapshot,
};

/// Serializes the unit tests that depend on the process-wide telemetry
/// switch: every such test, enabled or disabled path, holds this one
/// crate-wide lock while it sets the switch and runs.
#[cfg(test)]
pub(crate) mod test_switch {
    use std::sync::{Mutex, MutexGuard};

    static LOCK: Mutex<()> = Mutex::new(());

    fn hold(on: bool) -> MutexGuard<'static, ()> {
        // A test that panicked while holding the lock poisons it; the
        // switch is re-set below, so the poison carries no stale state.
        let guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
        crate::set_enabled(on);
        guard
    }

    /// Runs `f` with telemetry enabled, then disables it again.
    pub(crate) fn with_telemetry<R>(f: impl FnOnce() -> R) -> R {
        let _guard = hold(true);
        let out = f();
        crate::set_enabled(false);
        out
    }

    /// Runs `f` with telemetry disabled.
    pub(crate) fn without_telemetry<R>(f: impl FnOnce() -> R) -> R {
        let _guard = hold(false);
        f()
    }
}
