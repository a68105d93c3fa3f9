//! Every name the benchmark emits is well-formed, used once, and the same
//! as in `BENCHMARK.json`; and a run emits exactly the declared metrics.

use bdclique_benchmark::json::Json;
use bdclique_benchmark::metrics::{valid_name, END_TO_END, PER_LAYER};
use bdclique_benchmark::run::{measure, trace, Options, Report};
use bdclique_benchmark::workload::{find, Workload, WORKLOADS};
use std::collections::BTreeSet;

#[test]
fn names_are_well_formed_and_unique() {
    let names: Vec<&str> = (WORKLOADS.iter().map(|w| w.name))
        .chain(END_TO_END.iter().map(|m| m.name))
        .chain(PER_LAYER.iter().map(|m| m.name))
        .collect();
    for name in &names {
        assert!(valid_name(name), "{name:?} does not match [A-Za-z0-9_.-]+");
    }
    let unique: BTreeSet<&str> = names.iter().copied().collect();
    assert_eq!(unique.len(), names.len(), "a name is used twice");
    assert!(!valid_name("") && !valid_name("a b") && !valid_name(".a") && !valid_name("a/b"));
    for w in &WORKLOADS {
        assert!(
            w.why.len() <= 200 && !w.why.contains('\n'),
            "{}: why",
            w.name
        );
    }
}

fn strings<'a>(list: &'a Json, key: &str) -> Vec<&'a str> {
    list.as_arr()
        .expect("a list")
        .iter()
        .map(|item| item.get(key).and_then(Json::as_str).expect("a string"))
        .collect()
}

#[test]
fn benchmark_json_lists_the_same_names() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let doc = Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).unwrap();

    let workloads = doc.get("workloads").expect("workloads");
    let declared: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    assert_eq!(strings(workloads, "name"), declared);
    let whys: Vec<&str> = WORKLOADS.iter().map(|w| w.why).collect();
    assert_eq!(strings(workloads, "why"), whys);

    let end_to_end = doc.get("end_to_end").expect("end_to_end");
    let declared: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
    assert_eq!(strings(end_to_end, "name"), declared);
    let units: Vec<&str> = END_TO_END.iter().map(|m| m.unit).collect();
    assert_eq!(strings(end_to_end, "unit"), units);
    for (listed, m) in end_to_end.as_arr().unwrap().iter().zip(&END_TO_END) {
        assert_eq!(listed.get("bound").and_then(Json::as_f64), Some(m.bound));
        assert_eq!(listed.get("better").and_then(Json::as_str), Some("lower"));
    }

    let per_layer = doc.get("per_layer").expect("per_layer");
    let declared: Vec<&str> = PER_LAYER.iter().map(|m| m.name).collect();
    assert_eq!(strings(per_layer, "name"), declared);
    let units: Vec<&str> = PER_LAYER.iter().map(|m| m.unit).collect();
    assert_eq!(strings(per_layer, "unit"), units);
    let better: Vec<&str> = PER_LAYER.iter().map(|m| m.better).collect();
    assert_eq!(strings(per_layer, "better"), better);
}

/// `sqrt-greedy` shrunk to n = 64 at budget 1: a run takes milliseconds.
fn small() -> Workload {
    Workload {
        n: 64,
        alpha: 1.2 / 64.0,
        checkpoint_round: Some(4),
        ..*find("sqrt-greedy").unwrap()
    }
}

fn emitted(report: &Report) -> Vec<String> {
    let line = Json::parse(&report.result_line().render()).unwrap();
    let keys: Vec<&str> = line
        .as_obj()
        .unwrap()
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    let metrics = line.get("metrics").unwrap().as_obj().unwrap();
    for (name, reading) in metrics {
        assert!(
            reading.get("unit").and_then(Json::as_str).is_some(),
            "{name}"
        );
        assert!(reading.get("value").is_some(), "{name}");
    }
    metrics.iter().map(|(k, _)| k.clone()).collect()
}

#[test]
fn an_untraced_run_emits_every_end_to_end_metric() {
    // A seed other than the pinned one, so only the invariants apply.
    let opts = Options {
        seed: 7,
        seconds: Some(0.2),
    };
    let report = measure(&small(), &opts);
    assert!(report.correct(), "{:?}", report.problems);
    assert!(report.attempted >= 4, "cold trial plus three timed");
    let declared: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
    assert_eq!(emitted(&report), declared);
    for m in &report.metrics {
        assert!(m.value > 0.0, "{} must never be 0", m.name);
    }
}

#[test]
fn a_traced_run_emits_every_per_layer_metric_and_checkpoints() {
    let opts = Options {
        seed: 7,
        seconds: Some(0.2),
    };
    let report = trace(&small(), &opts);
    assert_eq!(report.failed, 0, "{:?}", report.problems);
    let declared: Vec<&str> = PER_LAYER.iter().map(|m| m.name).collect();
    assert_eq!(emitted(&report), declared);
    for m in &report.metrics {
        assert!(m.value.is_finite(), "{} was not measured", m.name);
    }
    let value = |name: &str| {
        report
            .metrics
            .iter()
            .find(|m| m.name == name)
            .unwrap()
            .value
    };
    assert!(value("snapshot.bytes") > 0.0);
    assert!(value("adversary.act_calls") > 0.0);
    assert_eq!(value("core.routing.decode_failures"), 0.0);
    assert!(
        !report
            .problems
            .iter()
            .any(|p| p.contains("resumed run differs")),
        "{:?}",
        report.problems
    );
}
