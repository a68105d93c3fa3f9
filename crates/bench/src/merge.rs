//! Folding sharded scenario documents back into one.
//!
//! `tables --shard i/m` runs the cells whose seed-stream state falls in
//! shard `i` of `m` and emits a normal scenario-v1 JSON document holding
//! just those cells. This module implements the inverse: given every
//! shard's document, [`merge_documents`] reassembles one document carrying
//! the union of the cells, scenario by scenario — the machine-readable
//! output of a fleet run is indistinguishable in content from a
//! single-machine run (cell *order* follows shard order; consumers key
//! cells by their seed, which is unique per cell).
//!
//! The reader is the crate's hand-rolled JSON parser
//! ([`crate::json::parse_json`]) — the workspace has no serde.

use crate::json::{parse_json, quote, Json};
use crate::scenario::SCHEMA;
use std::collections::HashSet;
use std::fmt::Write as _;

/// Renders a parsed [`Json`] tree back to text. Numbers that are exact
/// integers print without a fractional part; object field order is
/// preserved from the source document.
fn render_json(v: &Json, out: &mut String) {
    match v {
        Json::Null => out.push_str("null"),
        Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Json::Num(v) if !v.is_finite() => out.push_str("null"),
        Json::Num(v) if v.fract() == 0.0 && v.abs() < 9.0e15 => {
            let _ = write!(out, "{}", *v as i64);
        }
        Json::Num(v) => {
            let _ = write!(out, "{v}");
        }
        Json::Str(s) => out.push_str(&quote(s)),
        Json::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                render_json(item, out);
            }
            out.push(']');
        }
        Json::Obj(fields) => {
            out.push('{');
            for (i, (key, value)) in fields.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(&quote(key));
                out.push(':');
                render_json(value, out);
            }
            out.push('}');
        }
    }
}

/// One scenario being reassembled across shards.
struct MergedScenario {
    name: String,
    title: Json,
    wall_secs: f64,
    cells: Vec<Json>,
    seen_seeds: HashSet<String>,
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
    if inputs.is_empty() {
        return Err("nothing to merge".to_string());
    }
    let mut base_trials: Option<f64> = None;
    let mut generator = Json::Null;
    let mut git = Json::Null;
    let mut merged: Vec<MergedScenario> = Vec::new();
    for (label, text) in inputs {
        let doc = parse_json(text).map_err(|e| format!("{label}: {e}"))?;
        match doc.get("schema") {
            Some(Json::Str(s)) if s == SCHEMA => {}
            other => return Err(format!("{label}: schema is {other:?}, expected {SCHEMA:?}")),
        }
        let trials = doc
            .get("base_trials")
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("{label}: missing base_trials"))?;
        match base_trials {
            None => {
                base_trials = Some(trials);
                generator = doc.get("generator").cloned().unwrap_or(Json::Null);
                git = doc.get("git").cloned().unwrap_or(Json::Null);
            }
            Some(first) if first != trials => {
                return Err(format!(
                    "{label}: base_trials {trials} != {first} from the first shard"
                ))
            }
            Some(_) => {}
        }
        let Some(Json::Arr(scenarios)) = doc.get("scenarios") else {
            return Err(format!("{label}: missing scenarios array"));
        };
        for scenario in scenarios {
            let name = scenario
                .get("name")
                .and_then(Json::as_str)
                .ok_or_else(|| format!("{label}: scenario without a name"))?;
            let wall = scenario
                .get("wall_secs")
                .and_then(Json::as_f64)
                .unwrap_or(0.0);
            let Some(Json::Arr(cells)) = scenario.get("cells") else {
                return Err(format!("{label}: scenario {name} without cells"));
            };
            let slot = match merged.iter_mut().find(|m| m.name == name) {
                Some(slot) => slot,
                None => {
                    merged.push(MergedScenario {
                        name: name.to_string(),
                        title: scenario.get("title").cloned().unwrap_or(Json::Null),
                        wall_secs: 0.0,
                        cells: Vec::new(),
                        seen_seeds: HashSet::new(),
                    });
                    merged.last_mut().expect("just pushed")
                }
            };
            slot.wall_secs += wall;
            for cell in cells {
                // Cells are keyed by seed: without one the overlap check
                // below would have nothing to compare.
                let seed = cell.get("seed").and_then(Json::as_str).ok_or_else(|| {
                    format!("{label}: scenario {name} has a cell without a string seed")
                })?;
                if !slot.seen_seeds.insert(seed.to_string()) {
                    return Err(format!(
                        "{label}: scenario {name} cell seed {seed} already \
                         merged from an earlier shard (overlapping --shard split?)"
                    ));
                }
                slot.cells.push(cell.clone());
            }
        }
    }
    let mut out = String::new();
    out.push_str("{\"schema\":");
    out.push_str(&quote(SCHEMA));
    out.push_str(",\"generator\":");
    render_json(&generator, &mut out);
    out.push_str(",\"git\":");
    render_json(&git, &mut out);
    let _ = write!(
        out,
        ",\"base_trials\":{},\"merged_from\":{},\"scenarios\":[",
        base_trials.unwrap_or(0.0) as i64,
        inputs.len()
    );
    for (i, scenario) in merged.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"name\":");
        out.push_str(&quote(&scenario.name));
        out.push_str(",\"title\":");
        render_json(&scenario.title, &mut out);
        let _ = write!(out, ",\"wall_secs\":");
        render_json(&Json::Num(scenario.wall_secs), &mut out);
        out.push_str(",\"cells\":[");
        for (j, cell) in scenario.cells.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            render_json(cell, &mut out);
        }
        out.push_str("]}");
    }
    out.push_str("]}");
    Ok(out)
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
            headers: vec!["k", "twice"],
            cells: (0..cells)
                .map(|k| Cell {
                    coords: vec![("k", Value::u(k))],
                    kind: CellKind::Custom(Arc::new(move |_ctx| vec![("twice", Value::u(2 * k))])),
                })
                .collect(),
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
                let mut body = String::new();
                render_json(c.get("metrics").unwrap(), &mut body);
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
        let mut rendered = String::new();
        render_json(&parsed, &mut rendered);
        assert_eq!(parse_json(&rendered).unwrap(), parsed);
        // Integer-valued floats print as integers.
        assert!(rendered.contains("[1,2.5,null"), "{rendered}");
    }
}
