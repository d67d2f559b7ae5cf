//! PROV-N writer.
//!
//! Renders a [`ProvDocument`] in the human-readable PROV-N notation
//! (`document ... endDocument`). Only serialization is provided; the
//! interchange format of the yProv ecosystem is PROV-JSON, and PROV-N is
//! emitted for human inspection and debugging.

use crate::datetime::XsdDateTime;
use crate::document::ProvDocument;
use crate::qname::QName;
use crate::record::ElementKind;
use crate::relation::Relation;
use crate::value::AttrValue;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Renders the document as a PROV-N string.
pub fn to_provn(doc: &ProvDocument) -> String {
    let mut out = String::new();
    out.push_str("document\n");
    write_body(doc, &mut out, 1);
    out.push_str("endDocument\n");
    out
}

fn indent(out: &mut String, level: usize) {
    for _ in 0..level {
        out.push_str("  ");
    }
}

fn write_body(doc: &ProvDocument, out: &mut String, level: usize) {
    if let Some(d) = doc.namespaces().default_ns() {
        indent(out, level);
        let _ = writeln!(out, "default <{d}>");
    }
    for ns in doc.namespaces().iter() {
        indent(out, level);
        let _ = writeln!(out, "prefix {} <{}>", ns.prefix, ns.iri);
    }

    for kind in ElementKind::all() {
        for el in doc.iter_kind(kind) {
            indent(out, level);
            match kind {
                ElementKind::Activity => {
                    // activity(id, start, end, [attrs])
                    let _ = write!(out, "activity({}, ", el.id);
                    write_time(out, el.start_time());
                    out.push_str(", ");
                    write_time(out, el.end_time());
                    write_attrs(out, &el.attributes, &["prov:startTime", "prov:endTime"]);
                }
                _ => {
                    let _ = write!(out, "{}({}", kind.provn_keyword(), el.id);
                    write_attrs(out, &el.attributes, &[]);
                }
            }
            out.push_str(")\n");
        }
    }

    for rel in doc.relations() {
        indent(out, level);
        write_relation(out, rel);
        out.push('\n');
    }

    for (name, bundle) in doc.iter_bundles() {
        indent(out, level);
        let _ = writeln!(out, "bundle {name}");
        write_body(bundle, out, level + 1);
        indent(out, level);
        out.push_str("endBundle\n");
    }
}

fn write_time(out: &mut String, t: Option<XsdDateTime>) {
    match t {
        Some(t) => {
            let _ = write!(out, "{t}");
        }
        None => out.push('-'),
    }
}

fn write_relation(out: &mut String, rel: &Relation) {
    // kind(id; subject, object, extras..., time?, [attrs]): PROV-N's
    // optional arguments are positional, the kind's extras in order and
    // then the time (`wasStartedBy(id; a2, e, a1, t)`). An absent one
    // before a present one is the marker `-`; trailing ones are left out.
    out.push_str(rel.kind.json_key());
    out.push('(');
    if let Some(id) = &rel.id {
        let _ = write!(out, "{id};");
        next_arg(out);
    }
    let _ = write!(out, "{}", rel.subject);
    next_arg(out);
    let _ = write!(out, "{}", rel.object);
    let mut absent = 0;
    for key in rel.kind.extra_keys() {
        match rel.extras.get(*key) {
            Some(v) => {
                write_markers(out, &mut absent);
                let _ = write!(out, "{v}");
            }
            None => absent += 1,
        }
    }
    if let Some(t) = rel.time.filter(|_| rel.kind.supports_time()) {
        write_markers(out, &mut absent);
        let _ = write!(out, "{t}");
    }
    write_attrs(out, &rel.attributes, &[]);
    out.push(')');
}

/// Writes a `-` for each of the `absent` arguments before a present
/// one, then the separator in front of that one.
fn write_markers(out: &mut String, absent: &mut usize) {
    for _ in 0..std::mem::take(absent) {
        next_arg(out);
        out.push('-');
    }
    next_arg(out);
}

/// Separates the next argument from the one `out` ends with: the id's
/// `;` (or any argument ending in one) takes a space, the rest a comma.
fn next_arg(out: &mut String) {
    out.push_str(if out.ends_with(';') { " " } else { ", " });
}

/// Appends `, [key=value, ...]` for every value of every attribute not
/// named in `skip`, or nothing when there is none.
fn write_attrs(out: &mut String, attrs: &BTreeMap<QName, Vec<AttrValue>>, skip: &[&str]) {
    let mut open = false;
    for (key, values) in attrs {
        if skip.iter().any(|name| is_named(key, name)) {
            continue;
        }
        for v in values {
            out.push_str(if open { ", " } else { ", [" });
            open = true;
            let _ = write!(out, "{key}=");
            write_value(out, v);
        }
    }
    if open {
        out.push(']');
    }
}

/// True when `q` prints as `name`, without printing it.
fn is_named(q: &QName, name: &str) -> bool {
    name.strip_prefix(q.prefix())
        .and_then(|rest| rest.strip_prefix(':'))
        == Some(q.local())
}

fn write_value(out: &mut String, v: &AttrValue) {
    match v {
        AttrValue::String(s) => write_quoted(out, s),
        AttrValue::LangString(s, lang) => {
            write_quoted(out, s);
            out.push('@');
            out.push_str(lang);
        }
        AttrValue::QualifiedName(q) => {
            let _ = write!(out, "'{q}'");
        }
        other => {
            write_quoted(out, &other.lexical());
            if let Some(t) = other.type_name() {
                let _ = write!(out, " %% {t}");
            }
        }
    }
}

/// Appends `s` as a string literal, escaping `\`, `"` and the line
/// breaks a PROV-N string literal cannot hold; every other byte is
/// copied as is. Turtle's string literals escape the same four, and are
/// written here too.
pub(crate) fn write_quoted(out: &mut String, s: &str) {
    out.push('"');
    let bytes = s.as_bytes();
    let (mut plain, mut from) = (0, 0);
    loop {
        let stop = json::next_stop(bytes, from);
        let Some(&b) = bytes.get(stop) else {
            break;
        };
        from = stop + 1;
        let escaped = match b {
            b'\\' => "\\\\",
            b'"' => "\\\"",
            b'\n' => "\\n",
            b'\r' => "\\r",
            // Another byte below 0x20 stops the scan but is copied.
            _ => continue,
        };
        out.push_str(&s[plain..stop]);
        out.push_str(escaped);
        plain = from;
    }
    out.push_str(&s[plain..]);
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    fn q(local: &str) -> QName {
        QName::new("ex", local)
    }

    #[test]
    fn renders_document_frame() {
        let doc = ProvDocument::new();
        let s = to_provn(&doc);
        assert!(s.starts_with("document\n"));
        assert!(s.ends_with("endDocument\n"));
    }

    #[test]
    fn renders_elements_and_relations() {
        let mut doc = ProvDocument::new();
        doc.namespaces_mut().register("ex", "http://ex/").unwrap();
        doc.entity(q("data")).label("input");
        doc.activity(q("train"))
            .start_time(XsdDateTime::new(0, 0))
            .end_time(XsdDateTime::new(60, 0));
        doc.agent(q("alice"));
        doc.used(q("train"), q("data"));
        doc.was_associated_with(q("train"), q("alice"));

        let s = to_provn(&doc);
        assert!(s.contains("prefix ex <http://ex/>"));
        assert!(s.contains(r#"entity(ex:data, [prov:label="input"])"#));
        assert!(s.contains("activity(ex:train, 1970-01-01T00:00:00Z, 1970-01-01T00:01:00Z)"));
        assert!(s.contains("agent(ex:alice)"));
        assert!(s.contains("used(ex:train, ex:data)"));
        assert!(s.contains("wasAssociatedWith(ex:train, ex:alice)"));
    }

    #[test]
    fn renders_relation_with_id_and_time() {
        let mut doc = ProvDocument::new();
        let rel = Relation::new(crate::RelationKind::Used, q("a"), q("e"))
            .with_id(q("u1"))
            .with_time(XsdDateTime::new(42, 0));
        doc.add_relation(rel);
        let s = to_provn(&doc);
        assert!(
            s.contains("used(ex:u1; ex:a, ex:e, 1970-01-01T00:00:42Z)"),
            "got: {s}"
        );
    }

    #[test]
    fn escapes_quotes_in_strings() {
        let mut doc = ProvDocument::new();
        doc.entity(q("e"))
            .attr(QName::prov("label"), AttrValue::from(r#"say "hi""#));
        let s = to_provn(&doc);
        assert!(s.contains(r#"prov:label="say \"hi\"""#));
    }

    #[test]
    fn escapes_line_breaks_in_strings() {
        let mut doc = ProvDocument::new();
        doc.entity(q("e")).label("two\nlines\r\n");
        let s = to_provn(&doc);
        assert!(
            s.contains(r#"entity(ex:e, [prov:label="two\nlines\r\n"])"#),
            "got: {s}"
        );
    }

    #[test]
    fn a_time_without_a_starter_keeps_the_starter_slot() {
        let mut doc = ProvDocument::new();
        doc.was_started_by(q("run"), q("exp"), Some(XsdDateTime::new(0, 1_000)));
        doc.add_relation(
            Relation::new(crate::RelationKind::WasEndedBy, q("run"), q("exp"))
                .with_time(XsdDateTime::new(60, 0)),
        );
        doc.add_relation(
            Relation::new(crate::RelationKind::WasStartedBy, q("run"), q("exp"))
                .with_extra("prov:starter", q("parent")),
        );
        let s = to_provn(&doc);
        for line in [
            "wasStartedBy(ex:run, ex:exp, -, 1970-01-01T00:00:00.001000Z)",
            "wasEndedBy(ex:run, ex:exp, -, 1970-01-01T00:01:00Z)",
            "wasStartedBy(ex:run, ex:exp, ex:parent)\n",
        ] {
            assert!(s.contains(line), "{line} not in: {s}");
        }
    }

    #[test]
    fn a_generation_without_an_activity_keeps_the_activity_slot() {
        let mut doc = ProvDocument::new();
        doc.add_relation(
            Relation::new(crate::RelationKind::WasDerivedFrom, q("model"), q("data"))
                .with_id(q("d1"))
                .with_extra("prov:generation", q("gen")),
        );
        doc.add_relation(
            Relation::new(crate::RelationKind::WasDerivedFrom, q("model"), q("data"))
                .with_extra("prov:usage", q("use")),
        );
        let s = to_provn(&doc);
        for line in [
            "wasDerivedFrom(ex:d1; ex:model, ex:data, -, ex:gen)",
            "wasDerivedFrom(ex:model, ex:data, -, -, ex:use)",
        ] {
            assert!(s.contains(line), "{line} not in: {s}");
        }
    }

    #[test]
    fn optional_arguments_and_line_breaks_read_back() {
        let mut doc = ProvDocument::new();
        doc.namespaces_mut().register("ex", "http://ex/").unwrap();
        doc.entity(q("e")).label("two\nlines\r\n");
        doc.was_started_by(q("run"), q("exp"), Some(XsdDateTime::new(0, 1_000)));
        doc.add_relation(
            Relation::new(crate::RelationKind::WasDerivedFrom, q("model"), q("data"))
                .with_extra("prov:generation", q("gen")),
        );
        let text = to_provn(&doc);
        let mut parsed = crate::provn_parse::from_provn(&text).unwrap();
        let mut original = doc.clone();
        original.canonicalize();
        parsed.canonicalize();
        assert_eq!(original, parsed, "{text}");
        assert_eq!(text, crate::provn_oracle::to_provn(&doc));
    }

    #[test]
    fn a_string_is_quoted_as_the_oracle_quotes_it() {
        testkit::check(2048, |rng, size| {
            let pieces = rng.len(0..41, size);
            let drawn = format!("abcdefg{}", rng.text_with_stops(pieces));
            for offset in 0..8 {
                let s = &drawn[7 - offset..];
                let mut quoted = String::new();
                write_quoted(&mut quoted, s);
                let expected = format!("\"{}\"", crate::provn_oracle::escape(s));
                assert_eq!(quoted, expected, "{s:?}");
            }
        });
    }

    #[test]
    fn renders_typed_literals_and_qnames() {
        let mut doc = ProvDocument::new();
        doc.entity(q("e"))
            .attr(QName::yprov("loss"), AttrValue::Double(0.5))
            .prov_type(q("Model"));
        let s = to_provn(&doc);
        assert!(s.contains("yprov4ml:loss=\"0.5\" %% xsd:double"));
        assert!(s.contains("prov:type='ex:Model'"));
    }

    #[test]
    fn renders_bundles() {
        let mut doc = ProvDocument::new();
        doc.bundle(q("b")).entity(q("inner"));
        let s = to_provn(&doc);
        assert!(s.contains("bundle ex:b"));
        assert!(s.contains("entity(ex:inner)"));
        assert!(s.contains("endBundle"));
    }
}
