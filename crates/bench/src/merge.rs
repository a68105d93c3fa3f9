//! Operations on finished scenario-v1 documents: folding shards back into
//! one, and the identity compare between two runs.
//!
//! `tables --shard i/m` runs the cells whose seed-stream state falls in
//! shard `i` of `m` and emits a normal scenario-v1 JSON document holding
//! just those cells. [`merge_documents`] is the inverse: given every
//! shard's document it reassembles one document carrying the union of the
//! cells, scenario by scenario — the machine-readable output of a fleet run
//! is indistinguishable in content from a single-machine run (cell *order*
//! follows shard order; consumers key cells by their seed, which is unique
//! per cell). [`same_documents`] is how that claim, and the
//! killed-and-resumed == uninterrupted claim, are checked (`tables --same`).
//!
//! The reader is the crate's hand-rolled JSON parser
//! ([`crate::json::parse_json`]) — the workspace has no serde.

use crate::json::{parse_json, Json};
use crate::scenario::SCHEMA;
use std::collections::{BTreeMap, BTreeSet};

/// One scenario of a parsed document: name, the scenario object, its cells.
type ScenarioView<'a> = (&'a str, &'a Json, &'a [Json]);

/// Parses a document and checks its schema.
fn parse_document(label: &str, text: &str) -> Result<Json, String> {
    let doc = parse_json(text).map_err(|e| format!("{label}: {e}"))?;
    match doc.get("schema") {
        Some(Json::Str(s)) if s == SCHEMA => Ok(doc),
        other => Err(format!("{label}: schema is {other:?}, expected {SCHEMA:?}")),
    }
}

/// The scenarios of a parsed document, each with its name and cell array.
fn scenarios_of<'a>(label: &str, doc: &'a Json) -> Result<Vec<ScenarioView<'a>>, String> {
    let Some(Json::Arr(scenarios)) = doc.get("scenarios") else {
        return Err(format!("{label}: missing scenarios array"));
    };
    let view = |scenario: &'a Json| {
        let name = scenario
            .get("name")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("{label}: scenario without a name"))?;
        match scenario.get("cells") {
            Some(Json::Arr(cells)) => Ok((name, scenario, cells.as_slice())),
            _ => Err(format!("{label}: scenario {name} without cells")),
        }
    };
    scenarios.iter().map(view).collect()
}

/// A cell's seed — its identity within a scenario; without one neither the
/// overlap check nor the identity compare has anything to key on.
fn seed_of<'a>(label: &str, scenario: &str, cell: &'a Json) -> Result<&'a str, String> {
    let seed = cell.get("seed").and_then(Json::as_str);
    seed.ok_or_else(|| format!("{label}: scenario {scenario} has a cell without a string seed"))
}

fn field(v: &Json, key: &str) -> Json {
    v.get(key).cloned().unwrap_or(Json::Null)
}

fn object(fields: Vec<(&str, Json)>) -> Json {
    Json::Obj(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// One scenario being reassembled across shards.
struct MergedScenario {
    name: String,
    title: Json,
    wall_secs: f64,
    cells: Vec<Json>,
}

/// Merges shard documents (as `(label, text)` pairs — the label names the
/// shard in error messages, typically its file path) into one scenario-v1
/// document. Scenarios with the same name concatenate their cells in input
/// order and sum their wall-clock; `generator`, `git`, and `base_trials`
/// come from the first document, with mismatched `base_trials` rejected
/// (shards of one run must share the trial count).
///
/// # Errors
///
/// A human-readable message on unparsable input, schema mismatch,
/// inconsistent `base_trials`, a cell whose `seed` is missing or not a
/// string, or a cell seed appearing in two shards (overlapping shards
/// indicate a mis-specified `--shard` split).
pub fn merge_documents(inputs: &[(String, String)]) -> Result<String, String> {
    let mut header: Option<(f64, Json, Json)> = None;
    let mut merged: Vec<MergedScenario> = Vec::new();
    let mut seen = BTreeSet::new();
    for (label, text) in inputs {
        let doc = parse_document(label, text)?;
        let trials = doc
            .get("base_trials")
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("{label}: missing base_trials"))?;
        let (first, ..) =
            header.get_or_insert_with(|| (trials, field(&doc, "generator"), field(&doc, "git")));
        if *first != trials {
            return Err(format!(
                "{label}: base_trials {trials} != {first} from the first shard"
            ));
        }
        for (name, scenario, cells) in scenarios_of(label, &doc)? {
            let at = merged
                .iter()
                .position(|m| m.name == name)
                .unwrap_or_else(|| {
                    merged.push(MergedScenario {
                        name: name.to_string(),
                        title: field(scenario, "title"),
                        wall_secs: 0.0,
                        cells: Vec::new(),
                    });
                    merged.len() - 1
                });
            let wall = scenario.get("wall_secs").and_then(Json::as_f64);
            merged[at].wall_secs += wall.unwrap_or(0.0);
            for cell in cells {
                let seed = seed_of(label, name, cell)?;
                if !seen.insert((name.to_string(), seed.to_string())) {
                    return Err(format!(
                        "{label}: scenario {name} cell seed {seed} already \
                         merged from an earlier shard (overlapping --shard split?)"
                    ));
                }
                merged[at].cells.push(cell.clone());
            }
        }
    }
    let (base_trials, generator, git) = header.ok_or("nothing to merge")?;
    let scenarios = merged.into_iter().map(|m| {
        object(vec![
            ("name", Json::Str(m.name)),
            ("title", m.title),
            ("wall_secs", Json::Num(m.wall_secs)),
            ("cells", Json::Arr(m.cells)),
        ])
    });
    let doc = object(vec![
        ("schema", Json::Str(SCHEMA.to_string())),
        ("generator", generator),
        ("git", git),
        ("base_trials", Json::Num(base_trials.trunc())),
        ("merged_from", Json::Num(inputs.len() as f64)),
        ("scenarios", Json::Arr(scenarios.collect())),
    ]);
    Ok(doc.render())
}

/// What a cell must reproduce exactly, keyed by `(scenario, seed)`: its
/// coordinates, its aggregate and its metrics. `secs`, `wall_secs`, `git`
/// and cell order are free to differ.
fn identity_index(label: &str, text: &str) -> Result<BTreeMap<(String, String), Json>, String> {
    let doc = parse_document(label, text)?;
    let mut index = BTreeMap::new();
    for (name, _, cells) in scenarios_of(label, &doc)? {
        for cell in cells {
            let seed = seed_of(label, name, cell)?;
            let content = Json::Arr(vec![
                field(cell, "coords"),
                field(cell, "aggregate"),
                field(cell, "metrics"),
            ]);
            if index
                .insert((name.to_string(), seed.to_string()), content)
                .is_some()
            {
                return Err(format!("{label}: duplicate cell ({name}, {seed})"));
            }
        }
    }
    Ok(index)
}

/// The identity compare between two runs of the same grid — golden vs
/// killed-and-resumed, full vs sharded-and-merged: both documents must hold
/// the same `(scenario, seed)` cells, each exactly once, with identical
/// coordinates, aggregates and metrics. Returns the number of cells
/// compared.
///
/// # Errors
///
/// One line per difference (or the single reason a document is unusable),
/// each naming the document label, scenario and seed.
pub fn same_documents(a: (&str, &str), b: (&str, &str)) -> Result<usize, Vec<String>> {
    let ((a, a_text), (b, b_text)) = (a, b);
    let left = identity_index(a, a_text).map_err(|e| vec![e])?;
    let right = identity_index(b, b_text).map_err(|e| vec![e])?;
    let mut diffs = Vec::new();
    for (key @ (name, seed), mine) in &left {
        match right.get(key) {
            None => diffs.push(format!("{b}: no cell ({name}, {seed}) — {a} has one")),
            Some(theirs) if theirs != mine => diffs.push(format!(
                "cell ({name}, {seed}) diverged:\n  {a}: {}\n  {b}: {}",
                mine.render(),
                theirs.render()
            )),
            Some(_) => {}
        }
    }
    for (name, seed) in right.keys().filter(|key| !left.contains_key(key)) {
        diffs.push(format!("{a}: no cell ({name}, {seed}) — {b} has one"));
    }
    if diffs.is_empty() {
        Ok(left.len())
    } else {
        Err(diffs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{emit_json, run_configured, Cell, CellKind, RunConfig, Scenario, Value};
    use std::sync::Arc;

    fn grid(cells: usize) -> Scenario {
        Scenario {
            name: "merge-test",
            title: "merge test".into(),
            columns: vec!["twice"],
            cells: (0..cells)
                .map(|k| Cell {
                    coords: vec![("k", Value::u(k))],
                    kind: CellKind::Custom(Arc::new(move |_ctx| vec![("twice", Value::u(2 * k))])),
                })
                .collect(),
            ..Scenario::default()
        }
    }

    /// Seed-keyed cell content of every scenario in a document.
    fn cell_index(text: &str) -> Vec<(String, String, String)> {
        let doc = parse_json(text).unwrap();
        let Some(Json::Arr(scenarios)) = doc.get("scenarios") else {
            panic!("no scenarios")
        };
        let mut out = Vec::new();
        for s in scenarios {
            let name = match s.get("name") {
                Some(Json::Str(n)) => n.clone(),
                _ => panic!("unnamed scenario"),
            };
            let Some(Json::Arr(cells)) = s.get("cells") else {
                panic!("no cells")
            };
            for c in cells {
                let seed = match c.get("seed") {
                    Some(Json::Str(s)) => s.clone(),
                    _ => panic!("cell without seed"),
                };
                let body = c.get("metrics").unwrap().render();
                out.push((name.clone(), seed, body));
            }
        }
        out.sort();
        out
    }

    /// Two complementary shards merge back into the full grid: same cell
    /// set, same per-cell metrics, no duplicates, wall clocks summed.
    #[test]
    fn shards_reassemble_the_full_grid() {
        let spec = grid(6);
        let full = run_configured(&spec, &RunConfig::default());
        let full_doc = emit_json(&[full], 1);
        let shard_docs: Vec<(String, String)> = (0..2)
            .map(|i| {
                let cfg = RunConfig {
                    shard: Some((i, 2)),
                    ..RunConfig::default()
                };
                let result = run_configured(&spec, &cfg);
                (format!("shard{i}"), emit_json(&[result], 1))
            })
            .collect();
        // The shard split is nontrivial: both sides carry cells.
        for (label, doc) in &shard_docs {
            let count = cell_index(doc).len();
            assert!(count > 0 && count < 6, "{label} has {count} cells");
        }
        let merged = merge_documents(&shard_docs).unwrap();
        assert_eq!(cell_index(&merged), cell_index(&full_doc));
        let reparsed = parse_json(&merged).unwrap();
        assert_eq!(reparsed.get("schema"), Some(&Json::Str(SCHEMA.to_string())));
        assert_eq!(reparsed.get("merged_from"), Some(&Json::Num(2.0)));
    }

    /// Overlapping shards (same cell in two inputs) are rejected, as are
    /// schema and trial-count mismatches and garbage input.
    #[test]
    fn merge_rejects_inconsistent_inputs() {
        let spec = grid(4);
        let doc = emit_json(&[run_configured(&spec, &RunConfig::default())], 1);
        let overlap = merge_documents(&[
            ("a".to_string(), doc.clone()),
            ("b".to_string(), doc.clone()),
        ])
        .unwrap_err();
        assert!(overlap.contains("already merged"), "{overlap}");
        let other_trials = emit_json(&[run_configured(&grid(0), &RunConfig::default())], 9);
        let mismatch = merge_documents(&[
            ("a".to_string(), doc.clone()),
            ("b".to_string(), other_trials),
        ])
        .unwrap_err();
        assert!(mismatch.contains("base_trials"), "{mismatch}");
        assert!(merge_documents(&[("x".to_string(), "{}".to_string())]).is_err());
        assert!(merge_documents(&[("x".to_string(), "not json".to_string())]).is_err());
        assert!(merge_documents(&[]).is_err());
    }

    /// A cell whose seed is absent or not a string cannot be deduplicated,
    /// so two shards carrying it must not merge into a document holding it
    /// twice: the merge refuses, naming the shard and the scenario.
    #[test]
    fn merge_rejects_cells_without_a_string_seed() {
        for seed_field in ["\"seed\":7,", ""] {
            let doc = format!(
                "{{\"schema\":\"{SCHEMA}\",\"base_trials\":1,\"scenarios\":[{{\"name\":\"s\",\
                 \"title\":\"t\",\"wall_secs\":0,\"cells\":[{{{seed_field}\"metrics\":{{}}}}]}}]}}"
            );
            let err = merge_documents(&[
                ("shard-a".to_string(), doc.clone()),
                ("shard-b".to_string(), doc),
            ])
            .unwrap_err();
            assert!(
                err.contains("shard-a") && err.contains("scenario s"),
                "{err}"
            );
        }
    }

    #[test]
    fn render_json_round_trips_through_the_parser() {
        let source = r#"{"a":[1,2.5,null,true,"x\"y"],"b":{"c":-3}}"#;
        let parsed = parse_json(source).unwrap();
        let rendered = parsed.render();
        assert_eq!(parse_json(&rendered).unwrap(), parsed);
        // Integer-valued floats print as integers.
        assert!(rendered.contains("[1,2.5,null"), "{rendered}");
    }

    /// `tables --same`: wall clocks, `git` and cell order are free to
    /// differ; any other field, a missing cell or a duplicated
    /// `(scenario, seed)` is a named difference.
    #[test]
    fn same_documents_ignores_timing_and_names_every_difference() {
        use crate::scenario::TrialJob;
        use crate::{AdversarySpec, TopologySpec};
        let spec = Scenario {
            name: "same-test",
            columns: vec!["rounds", "errors"],
            cells: [8usize, 12]
                .into_iter()
                .map(|n| Cell {
                    coords: vec![("n", Value::u(n))],
                    kind: CellKind::Trials(TrialJob {
                        protocol: Arc::new(|_| Box::new(bdclique_core::protocols::NaiveExchange)),
                        protocol_key: "naive",
                        adversary: AdversarySpec::GreedyFlip,
                        topology: TopologySpec::Complete,
                        n,
                        b: 1,
                        bandwidth: 9,
                        alpha: 0.3,
                        trials: 2,
                        trace: false,
                    }),
                })
                .collect(),
            ..Scenario::default()
        };
        let golden = run_configured(&spec, &RunConfig::default());
        let golden_doc = emit_json(std::slice::from_ref(&golden), 2);
        let same = |other: &str| same_documents(("golden", &golden_doc), ("other", other));

        let mut retimed = golden.clone();
        retimed.wall_secs += 9.0;
        retimed.cells.reverse();
        for cell in &mut retimed.cells {
            cell.secs += 1.5;
        }
        let retimed_doc = emit_json(&[retimed], 2).replace("\"git\":\"", "\"git\":\"elsewhere-");
        assert_ne!(retimed_doc, golden_doc);
        assert_eq!(same(&retimed_doc), Ok(2));

        let mut wrong = golden.clone();
        wrong.cells[0].aggregate.as_mut().unwrap().total_errors += 1;
        let diffs = same(&emit_json(&[wrong], 2)).unwrap_err();
        let seed = format!("{:#018x}", golden.cells[0].seed);
        assert_eq!(diffs.len(), 1, "{diffs:?}");
        assert!(
            diffs[0].contains(&format!("(same-test, {seed}) diverged")),
            "{diffs:?}"
        );

        let mut wrong_metric = golden.clone();
        wrong_metric.cells[1].metrics[0].1 = Value::f1(77.0);
        assert_eq!(same(&emit_json(&[wrong_metric], 2)).unwrap_err().len(), 1);

        let mut short = golden.clone();
        short.cells.remove(0);
        let short_doc = emit_json(&[short], 2);
        let diffs = same(&short_doc).unwrap_err();
        assert!(
            diffs[0].contains(&format!("other: no cell (same-test, {seed})")),
            "{diffs:?}"
        );
        // …in either direction.
        let diffs = same_documents(("short", &short_doc), ("golden", &golden_doc)).unwrap_err();
        assert!(
            diffs[0].contains(&format!("short: no cell (same-test, {seed})")),
            "{diffs:?}"
        );

        let mut doubled = golden.clone();
        doubled.cells.push(golden.cells[0].clone());
        let diffs = same(&emit_json(&[doubled], 2)).unwrap_err();
        assert!(
            diffs[0].contains(&format!("other: duplicate cell (same-test, {seed})")),
            "{diffs:?}"
        );

        assert!(same("not json").is_err());
        assert!(same("{\"schema\":\"other\",\"scenarios\":[]}").is_err());
    }
}
