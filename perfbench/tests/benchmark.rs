//! The benchmark's own tests: the metric catalog agrees with
//! `BENCHMARK.json`, every metric is printed with its unit, a tiny pass of
//! each workload clears its correctness gate, and a traced run's self
//! times add up to its wall time.

use std::sync::Mutex;
use std::time::Instant;

use iba_obs::json::{parse, JsonValue};
use iba_perfbench::report::{Outcome, END_TO_END, PER_LAYER};
use iba_perfbench::{trace, workloads, RunArgs, DEFAULT_SEED};

/// Workloads flip the process-wide telemetry switch and read its
/// counters, so they run one at a time.
static SERIAL: Mutex<()> = Mutex::new(());

fn benchmark_json() -> JsonValue {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    parse(&text).expect("BENCHMARK.json is valid JSON")
}

/// `(name, unit)` of every metric under `key`.
fn listed(doc: &JsonValue, key: &str) -> Vec<(String, String)> {
    doc.get(key)
        .and_then(JsonValue::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json has a {key} list"))
        .iter()
        .map(|m| {
            let field = |f: &str| m.get(f).and_then(JsonValue::as_str).unwrap_or_default();
            (field("name").to_string(), field("unit").to_string())
        })
        .collect()
}

fn catalog_json() -> JsonValue {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/catalog.json");
    let text = std::fs::read_to_string(path).expect("perfbench/catalog.json");
    parse(&text).expect("catalog.json is valid JSON")
}

/// The `name` of every entry of list `key`.
fn names<'a>(doc: &'a JsonValue, key: &str) -> Vec<&'a str> {
    doc.get(key)
        .and_then(JsonValue::as_array)
        .unwrap_or_else(|| panic!("a {key} list"))
        .iter()
        .map(|w| w.get("name").and_then(JsonValue::as_str).expect("a name"))
        .collect()
}

fn catalog(list: &[(&str, &str)]) -> Vec<(String, String)> {
    list.iter()
        .map(|(n, u)| (n.to_string(), u.to_string()))
        .collect()
}

fn well_formed(name: &str) -> bool {
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

fn tiny(workload: &str, trace: bool) -> (Outcome, f64) {
    let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let args = RunArgs {
        workload: workload.to_string(),
        seed: DEFAULT_SEED,
        seconds: 0.2,
        trace,
        tiny: true,
    };
    let t0 = Instant::now();
    let outcome = workloads::run(&args);
    (outcome, t0.elapsed().as_secs_f64())
}

#[test]
fn metric_names_are_well_formed() {
    let doc = benchmark_json();
    let mut names: Vec<String> = ["end_to_end", "per_layer"]
        .iter()
        .flat_map(|key| listed(&doc, key))
        .map(|(name, _)| name)
        .collect();
    names.extend(workloads::NAMES.iter().map(|n| n.to_string()));
    for name in &names {
        assert!(well_formed(name), "metric or workload name {name:?}");
    }
    let mut unique = names.clone();
    unique.sort();
    unique.dedup();
    assert_eq!(unique.len(), names.len(), "names are used once");
}

#[test]
fn benchmark_json_lists_exactly_the_catalog() {
    let doc = benchmark_json();
    assert_eq!(listed(&doc, "end_to_end"), catalog(END_TO_END));
    assert_eq!(listed(&doc, "per_layer"), catalog(PER_LAYER));
    let catalog = catalog_json();
    let dropped = names(&catalog, "dropped");
    let kept: Vec<&str> = workloads::NAMES
        .iter()
        .copied()
        .filter(|w| !dropped.contains(w))
        .collect();
    assert_eq!(names(&doc, "workloads"), kept);
    for entry in catalog
        .get("dropped")
        .and_then(JsonValue::as_array)
        .unwrap_or(&[])
    {
        let reason = entry
            .get("reason")
            .and_then(JsonValue::as_str)
            .unwrap_or_default();
        assert!(!reason.is_empty(), "a dropped workload names its reason");
    }
}

#[test]
fn tiny_runs_clear_the_gate_and_print_every_metric_with_its_unit() {
    let doc = benchmark_json();
    for workload in workloads::NAMES {
        for (trace, key) in [(false, "end_to_end"), (true, "per_layer")] {
            let (outcome, _) = tiny(workload, trace);
            assert!(
                outcome.correct(),
                "{workload} trace={trace}: {:?}",
                outcome.failures
            );
            let line = parse(&outcome.to_json()).expect("the result line is JSON");
            let JsonValue::Object(fields) = &line else {
                panic!("the result line is an object");
            };
            let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            assert!(line.get("attempted").and_then(JsonValue::as_u64) >= Some(1));
            let JsonValue::Object(metrics) = line.get("metrics").expect("metrics") else {
                panic!("metrics is an object");
            };
            let printed: Vec<(String, String)> = metrics
                .iter()
                .map(|(name, m)| {
                    assert!(
                        m.get("value").and_then(JsonValue::as_f64).is_some(),
                        "{workload}: {name} has a numeric value"
                    );
                    let unit = m
                        .get("unit")
                        .and_then(JsonValue::as_str)
                        .unwrap_or_default();
                    (name.clone(), unit.to_string())
                })
                .collect();
            assert_eq!(printed, listed(&doc, key), "{workload} trace={trace}");
            if !trace {
                for (name, m) in metrics {
                    let value = m.get("value").and_then(JsonValue::as_f64).unwrap_or(0.0);
                    assert!(value > 0.0, "{workload}: end-to-end {name} reads {value}");
                }
            }
        }
    }
}

#[test]
fn traced_self_times_reconcile_with_wall_time() {
    for workload in workloads::NAMES {
        let (outcome, wall) = tiny(workload, true);
        assert!(outcome.correct(), "{workload}: {:?}", outcome.failures);
        assert!(!outcome.spans.is_empty(), "{workload} recorded spans");
        let per_thread = trace::reconcile(&outcome.spans);
        let mut covered = 0;
        for (thread, sum_self, roots) in per_thread {
            assert_eq!(
                sum_self, roots,
                "{workload} thread {thread}: self times must add up to the root spans"
            );
            covered = covered.max(roots);
        }
        assert!(
            covered as f64 / 1e9 <= wall,
            "{workload}: a thread's root spans ({covered} ns) outlast the run ({wall} s)"
        );
    }
}

#[test]
fn catalog_records_layer_and_target_of_every_metric() {
    let doc = benchmark_json();
    let catalog = catalog_json();
    let end_to_end: Vec<String> = listed(&doc, "end_to_end")
        .into_iter()
        .map(|m| m.0)
        .collect();
    for key in ["end_to_end", "per_layer"] {
        let entries = catalog.get(key).and_then(JsonValue::as_array).expect(key);
        let expected: Vec<String> = listed(&doc, key).into_iter().map(|m| m.0).collect();
        assert_eq!(names(&catalog, key), expected, "catalog.json {key}");
        for entry in entries {
            let name = entry
                .get("name")
                .and_then(JsonValue::as_str)
                .unwrap_or_default();
            let layer = entry
                .get("layer")
                .and_then(JsonValue::as_str)
                .unwrap_or_default();
            assert!(!layer.is_empty(), "{name} names its layer");
            assert!(entry.get("definition").is_some(), "{name} is defined");
            if key == "per_layer" {
                let moves = entry
                    .get("moves")
                    .and_then(JsonValue::as_array)
                    .unwrap_or(&[]);
                assert!(!moves.is_empty(), "{name} names the metric it should move");
                for target in moves {
                    let metric = target
                        .get("metric")
                        .and_then(JsonValue::as_str)
                        .unwrap_or_default();
                    let workload = target
                        .get("workload")
                        .and_then(JsonValue::as_str)
                        .unwrap_or_default();
                    assert!(
                        end_to_end.iter().any(|m| m == metric),
                        "{name} moves {metric}"
                    );
                    assert!(
                        workloads::NAMES.contains(&workload),
                        "{name} moves on {workload}"
                    );
                }
            }
        }
    }
    assert_eq!(names(&catalog, "workloads"), workloads::NAMES);
}
