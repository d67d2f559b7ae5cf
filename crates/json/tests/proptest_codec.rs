//! Properties of the codec as a whole: what the writer prints, the
//! lexer reads back; what is cut short or malformed is refused with a
//! position, never a panic.

use json::{json, parse, parse_bytes, Lexer, Map, Value};
use testkit::{check, Rng};

/// Short strings heavy in what a JSON string must escape or carry raw.
fn text(rng: &mut Rng) -> String {
    (0..rng.below(8))
        .map(|_| match rng.below(4) {
            0 => char::from(rng.below(0x20) as u8),
            1 => *rng.pick(&['"', '\\', '/', '\u{7f}', '\u{2028}', 'é', '😀']),
            _ => char::from(rng.range(b' '..0x7f)),
        })
        .collect()
}

/// Any value, arrays and objects nested at most four deep.
fn value(rng: &mut Rng, size: usize, depth: usize) -> Value {
    match rng.below(if depth < 4 { 8 } else { 6 }) {
        0 => Value::Null,
        1 => Value::Bool(rng.bool()),
        2 => json!(rng.next_u64()),
        3 => json!(rng.next_u64() as i64),
        // Non-finite floats become `null`, as the writer prints them.
        4 => json!(rng.any_f64()),
        5 => Value::String(text(rng)),
        6 => container(rng, size, depth + 1, true),
        _ => container(rng, size, depth + 1, false),
    }
}

fn container(rng: &mut Rng, size: usize, depth: usize, array: bool) -> Value {
    let len = rng.len(0..8, size);
    if array {
        Value::Array((0..len).map(|_| value(rng, size, depth)).collect())
    } else {
        let map: Map = (0..len)
            .map(|_| (text(rng), value(rng, size, depth)))
            .collect();
        Value::Object(map)
    }
}

#[test]
fn a_written_value_parses_back_to_itself() {
    check(256, |rng, size| {
        let v = value(rng, size, 0);
        for printed in [v.to_string(), format!("{v:#}")] {
            assert_eq!(parse(&printed).as_ref(), Ok(&v), "{printed}");
        }
    });
}

#[test]
fn every_strict_prefix_of_a_valid_text_is_an_error() {
    // A container at the top, so that no prefix is itself a value.
    check(64, |rng, size| {
        let array = rng.bool();
        let v = container(rng, size, 2, array);
        for printed in [v.to_string(), format!("{v:#}")] {
            let bytes = printed.as_bytes();
            for end in 0..bytes.len() {
                assert!(parse_bytes(&bytes[..end]).is_err(), "{:?}", &bytes[..end]);
            }
            assert!(parse_bytes(bytes).is_ok());
        }
    });
}

#[test]
fn depth_128_is_accepted_and_129_refused() {
    check(16, |rng, _| {
        // Arrays and single-member objects, mixed.
        let opens: Vec<bool> = (0..129).map(|_| rng.bool()).collect();
        let nested = |depth: usize| {
            let mut text = String::new();
            for &array in &opens[..depth] {
                text.push_str(if array { "[" } else { r#"{"k":"# });
            }
            text.push_str("null");
            for &array in opens[..depth].iter().rev() {
                text.push(if array { ']' } else { '}' });
            }
            text
        };
        let (deepest, too_deep) = (nested(128), nested(129));
        assert!(parse(&deepest).is_ok());
        assert!(Lexer::new(&deepest).skip_value().is_ok());
        // Depth is nesting, not count: many closed siblings are fine.
        let siblings = rng.range(129..300);
        let wide = format!("[{}]", vec![r#"[{"k":[]}]"#; siblings].join(","));
        assert!(parse(&wide).is_ok());
        assert!(Lexer::new(&wide).skip_value().is_ok());
        let e = parse(&too_deep).unwrap_err();
        assert!(e.to_string().starts_with("recursion limit exceeded"), "{e}");
        assert!(Lexer::new(&too_deep).skip_value().is_err());
    });
}

#[test]
fn malformed_text_fails_with_its_line_and_column() {
    // Each text, the column of the byte it fails at, and why.
    const CORPUS: [(&str, usize, &str); 8] = [
        ("01", 2, "invalid number"),
        (r#""\ud800""#, 7, "unexpected end of hex escape"),
        (r#""\udc00""#, 7, "lone trailing surrogate in hex escape"),
        (
            "\"a\u{1}b\"",
            3,
            "control character (\\u0000-\\u001F) found while parsing a string",
        ),
        ("[1,]", 4, "expected value"),
        (r#"{"a":1,}"#, 8, "key must be a string"),
        ("1e400", 5, "number out of range"),
        ("[1 2]", 4, "expected `,` or `]`"),
    ];
    check(32, |rng, _| {
        // Lines of whitespace before the text move the line, not the
        // column.
        let lines = rng.below(4);
        for (bad, column, message) in CORPUS {
            let text = format!("{}{bad}", " \n".repeat(lines));
            let e = parse(&text).unwrap_err();
            assert_eq!(
                e.to_string(),
                format!("{message} at line {} column {column}", lines + 1),
                "{text:?}"
            );
        }
    });
}
