//! Totality of the bench's JSON reader (`tables --merge` / `--same` read
//! files from disk): arbitrary strings, every prefix of a real scenario-v1
//! document and byte-mutated documents are answered with `Ok` or `Err`,
//! never a panic, and emit → parse → render → parse is a fixed point.

use bdclique_bench::json::parse_json;
use bdclique_bench::merge::{merge_documents, same_documents};
use bdclique_bench::scenario::{self, Cell, CellKind, Scenario, TrialJob, Value};
use bdclique_bench::{AdversarySpec, TopologySpec};
use bdclique_core::protocols::NaiveExchange;
use proptest::prelude::*;
use proptest::sample::Index;
use std::sync::Arc;

/// A real document exercising every value form the emitter has: a traced
/// trial cell (aggregate, round trace, rates, floats) and a custom cell
/// whose strings need every escape `quote` produces.
fn document() -> String {
    let spec = Scenario {
        name: "json-totality",
        title: "quotes \" backslash \\ newline \n tab \t control \u{1} é".into(),
        columns: vec!["rounds", "perfect", "errors", "text", "gone"],
        cells: vec![
            Cell {
                coords: vec![("n", Value::u(8))],
                kind: CellKind::Trials(TrialJob {
                    protocol: Arc::new(|_seed| Box::new(NaiveExchange)),
                    protocol_key: "naive",
                    adversary: AdversarySpec::GreedyFlip,
                    topology: TopologySpec::Complete,
                    n: 8,
                    b: 2,
                    bandwidth: 9,
                    alpha: 0.3,
                    trials: 2,
                    trace: true,
                }),
            },
            Cell {
                coords: vec![("n", Value::s("custom \"cell\""))],
                kind: CellKind::Custom(Arc::new(|_ctx| {
                    vec![
                        ("text", Value::s("a\"b\\c\nd\re\u{7f}")),
                        ("gone", Value::Missing),
                        ("signed", Value::I64(-3)),
                        ("ratio", Value::f3(0.125)),
                    ]
                })),
            },
        ],
        ..Scenario::default()
    };
    scenario::emit_json(&[scenario::run(&spec)], 2)
}

/// Parses without panicking; whatever parses must survive render → parse.
fn parse_totally(text: &str) -> Result<(), TestCaseError> {
    if let Ok(parsed) = parse_json(text) {
        let rendered = parsed.render();
        let reparsed = parse_json(&rendered);
        prop_assert_eq!(reparsed.as_ref(), Ok(&parsed), "render broke {}", rendered);
    }
    Ok(())
}

#[test]
fn emit_parse_render_parse_is_a_fixed_point() {
    let doc = document();
    let parsed = parse_json(&doc).expect("the emitter writes what the reader reads");
    let rendered = parsed.render();
    assert_eq!(parse_json(&rendered).as_ref(), Ok(&parsed));
    assert_eq!(parse_json(&rendered).unwrap().render(), rendered);
}

/// A strict prefix of a complete document is never a document: a torn
/// `--json` write cannot merge or compare as a shorter-but-valid run.
#[test]
fn every_prefix_of_a_document_is_rejected() {
    let doc = document();
    for cut in (0..doc.len()).filter(|&cut| doc.is_char_boundary(cut)) {
        assert!(parse_json(&doc[..cut]).is_err(), "prefix of {cut} bytes");
    }
}

/// Tokens JSON is made of, so random sequences reach deep into the reader.
const TOKENS: [&str; 24] = [
    "{", "}", "[", "]", ",", ":", "\"", "\\", "\\u", "00e9", "true", "false", "null", "-", "0",
    "12", ".5", "e", "E+", " ", "\n", "a", "é", "\u{1}",
];

proptest! {
    #[test]
    fn arbitrary_strings_never_panic(bytes in prop::collection::vec(any::<u8>(), 0..96)) {
        parse_totally(&String::from_utf8_lossy(&bytes))?;
    }

    #[test]
    fn json_shaped_strings_never_panic(
        picks in prop::collection::vec(0usize..TOKENS.len(), 0..48),
    ) {
        let text: String = picks.iter().map(|&i| TOKENS[i]).collect();
        parse_totally(&text)?;
    }

    /// One overwritten byte anywhere in a real document: the reader, the
    /// merge and the identity compare all answer, none panics.
    #[test]
    fn byte_mutated_documents_never_panic(at in any::<Index>(), byte in any::<u8>()) {
        let doc = document();
        let mut bytes = doc.clone().into_bytes();
        let at = at.index(bytes.len());
        bytes[at] = byte;
        let mutated = String::from_utf8_lossy(&bytes).into_owned();
        parse_totally(&mutated)?;
        let _ = merge_documents(&[("mutated".to_string(), mutated.clone())]);
        let _ = same_documents(("golden", &doc), ("mutated", &mutated));
    }
}
