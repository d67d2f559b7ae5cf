//! The string paths against their byte-at-a-time oracles
//! (`tests/text_oracle/`): on text weighted towards the bytes a string
//! scanner stops at, drawn at every start offset from 0 to 7 and 0 to 40
//! pieces long, `Lexer::string` decodes what the oracle decodes, moves
//! as far and refuses what it refuses with the same message, line and
//! column; `JsonWriter` escapes byte for byte as the oracle does.

mod text_oracle;

use json::{JsonWriter, Lexer};
use testkit::{check, Rng};

/// A string's content as drawn, or, one time in two, that content
/// escaped by the oracle writer: escape-dense text that decodes whole.
fn content(rng: &mut Rng, size: usize) -> String {
    let pieces = rng.len(0..41, size);
    let text = rng.text_with_stops(pieces);
    if rng.bool() {
        text
    } else {
        text_oracle::escaped(&text)
    }
}

/// What a lexer made of a string: the decoded text and how far the
/// cursor moved, or the error's text.
fn lexed(src: &str) -> Result<(String, usize), String> {
    let mut lex = Lexer::new(src);
    lex.skip_ws();
    let start = lex.mark();
    let decoded = lex.string().map_err(|e| e.to_string())?;
    Ok((decoded.into_owned(), lex.since(start).len()))
}

fn lexed_by_oracle(src: &str) -> Result<(String, usize), String> {
    let mut lex = text_oracle::Lexer::new(src);
    lex.skip_ws();
    let start = lex.pos();
    let decoded = lex.string().map_err(|e| e.to_string())?;
    Ok((decoded, lex.pos() - start))
}

#[test]
fn a_string_lexes_as_the_oracle_lexes_it() {
    check(2048, |rng, size| {
        let body = content(rng, size);
        let tail_pieces = rng.below(3);
        let tail = rng.text_with_stops(tail_pieces);
        for offset in 0..8 {
            // Line breaks before the string move the error's line and
            // column the same way on both sides.
            let lead: String = (0..offset)
                .map(|i| if i % 3 == 2 { '\n' } else { ' ' })
                .collect();
            for close in ["", "\""] {
                let src = format!("{lead}\"{body}{close}{tail}");
                assert_eq!(lexed(&src), lexed_by_oracle(&src), "{src:?}");
            }
        }
    });
}

#[test]
fn escaped_content_decodes_to_what_was_escaped() {
    check(256, |rng, size| {
        let pieces = rng.len(0..41, size);
        let text = rng.text_with_stops(pieces);
        let src = format!("\"{}\"", text_oracle::escaped(&text));
        assert_eq!(lexed(&src).map(|(decoded, _)| decoded), Ok(text));
    });
}

#[test]
fn a_string_is_written_as_the_oracle_writes_it() {
    check(2048, |rng, size| {
        let pieces = rng.len(0..41, size);
        let drawn = format!("abcdefg{}", rng.text_with_stops(pieces));
        for offset in 0..8 {
            let s = &drawn[7 - offset..];
            let expected = format!("\"{}\"", text_oracle::escaped(s));
            assert_eq!(json::to_string(|w| w.str(s)), expected, "{s:?}");
            // A streaming writer hands its buffer over between runs; the
            // bytes do not change.
            let mut streamed = Vec::new();
            let mut w = JsonWriter::new(&mut streamed, false);
            w.str(s);
            w.finish().unwrap();
            assert_eq!(String::from_utf8(streamed).unwrap(), expected);
        }
    });
}
