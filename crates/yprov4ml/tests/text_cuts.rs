//! The JSON, PROV-N and Turtle string paths on whole run records: the
//! `fixed_run` fixture's `prov.json` and the `prov.json` of a small
//! inline run, whose metric series are escape-dense JSON text inside
//! PROV-JSON strings.
//!
//! Every prefix of either record, and the inline record with a raw 0x01
//! put at each offset of one series' values, is refused by `json::Lexer`
//! with the error (message, line, column) the byte-at-a-time oracle
//! lexer (`json/tests/text_oracle/`) gives, and by the PROV-JSON reader
//! as that malformed JSON, never with a panic. Every literal the Turtle
//! export writes is what the four-`replace` escape it had before it
//! shared the PROV-N quoted writer makes of the literal's text.

#[path = "../../json/tests/text_oracle/mod.rs"]
mod text_oracle;

use prov_model::ProvDocument;
use std::path::Path;
use yprov4ml::experiment::Experiment;
use yprov4ml::model::Context;

fn fixed_run() -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/fixed_run/prov.json");
    std::fs::read_to_string(path).unwrap()
}

/// The `prov.json` of an inline run logging two series for 24 steps.
fn inline_run(tag: &str) -> String {
    let base = std::env::temp_dir().join(format!("text_cuts_{tag}_{}", std::process::id()));
    std::fs::remove_dir_all(&base).ok();
    let exp = Experiment::new("text-cuts", &base).unwrap();
    let run = exp.start_run("run").unwrap();
    for step in 0..24u64 {
        let time_us = 1_000 + step as i64;
        let loss = 1.0 / (step + 1) as f64;
        run.log_metric_at("loss", Context::Training, step, 0, time_us, loss);
        run.log_metric_at("acc", Context::Validation, step, 0, time_us, 1.0 - loss);
    }
    let report = run.finish().unwrap();
    let text = std::fs::read_to_string(&report.prov_json_path).unwrap();
    std::fs::remove_dir_all(&base).ok();
    text
}

/// What `json::Lexer` makes of `text` as one JSON value.
fn lexed(text: &str) -> Result<(), String> {
    let mut lex = json::Lexer::new(text);
    lex.skip_ws();
    lex.skip_value()
        .and_then(|()| lex.end())
        .map_err(|e| e.to_string())
}

fn lexed_by_oracle(text: &str) -> Result<(), String> {
    let mut lex = text_oracle::Lexer::new(text);
    lex.skip_ws();
    lex.skip_value()
        .and_then(|()| lex.end())
        .map_err(|e| e.to_string())
}

/// `text` is refused by the lexer and by the PROV-JSON reader with the
/// oracle's error.
fn assert_refused_as_the_oracle_refuses(text: &str) {
    let expected = lexed_by_oracle(text);
    assert!(expected.is_err(), "the oracle reads {text:?}");
    assert_eq!(lexed(text), expected, "{text:?}");
    let document = ProvDocument::from_json_str(text).map_err(|e| e.to_string());
    assert_eq!(
        document.err(),
        expected.err().map(|e| format!("invalid JSON: {e}")),
        "{text:?}"
    );
}

#[test]
fn every_cut_of_a_record_is_refused_as_the_oracle_refuses_it() {
    for text in [fixed_run(), inline_run("cuts")] {
        assert_eq!(lexed(&text), Ok(()));
        let cuts = (0..text.len()).filter(|&end| text.is_char_boundary(end));
        for end in cuts {
            assert_refused_as_the_oracle_refuses(&text[..end]);
        }
    }
}

#[test]
fn a_control_byte_anywhere_in_a_series_is_refused_as_the_oracle_refuses_it() {
    let text = inline_run("control");
    let key = "\"yprov4ml:values\": \"";
    let start = text.find(key).expect("an inline series") + key.len();
    // The series' closing quote: the first `"` no `\` escapes.
    let bytes = text.as_bytes();
    let mut close = start;
    while bytes[close] != b'"' {
        close += if bytes[close] == b'\\' { 2 } else { 1 };
    }
    assert!(close - start > 1_000, "a series of {} bytes", close - start);
    for at in start..=close {
        let mut bad = text.clone();
        bad.insert(at, '\u{1}');
        assert_refused_as_the_oracle_refuses(&bad);
    }
}

/// How the Turtle export escaped a literal before it shared the PROV-N
/// quoted writer: four `replace` passes.
fn turtle_escape(s: &str) -> String {
    s.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
        .replace('\r', "\\r")
}

/// `ttl` with every string literal decoded and escaped again by
/// [`turtle_escape`], and the decoded literals. Equal to `ttl` exactly
/// when each literal is what `turtle_escape` makes of some string.
fn reescaped(ttl: &str) -> (String, Vec<String>) {
    let (mut out, mut literals) = (String::new(), Vec::new());
    let mut chars = ttl.chars();
    while let Some(c) = chars.next() {
        out.push(c);
        if c != '"' {
            continue;
        }
        let mut literal = String::new();
        loop {
            match chars.next().expect("an unterminated literal") {
                '"' => break,
                '\\' => literal.push(match chars.next() {
                    Some('\\') => '\\',
                    Some('"') => '"',
                    Some('n') => '\n',
                    Some('r') => '\r',
                    other => panic!("`\\{other:?}` is no escape turtle_escape makes"),
                }),
                c => literal.push(c),
            }
        }
        out.push_str(&turtle_escape(&literal));
        out.push('"');
        literals.push(literal);
    }
    (out, literals)
}

#[test]
fn turtle_literals_are_the_bytes_turtle_escape_made() {
    for text in [fixed_run(), inline_run("turtle")] {
        let doc = ProvDocument::from_json_str(&text).unwrap();
        let ttl = prov_model::turtle::to_turtle(&doc);
        let (again, literals) = reescaped(&ttl);
        assert_eq!(again, ttl);
        assert!(
            literals.iter().any(|l| l.contains('"')),
            "no literal needed an escape"
        );
    }
}
