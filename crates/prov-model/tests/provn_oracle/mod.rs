//! The PROV-N writer as it was before it appended to one buffer, with
//! PROV-N's positional optional arguments and line-break escapes since:
//! the oracle `prov_model::provn::to_provn` is held to, byte for byte.
//! It builds each relation's arguments and each attribute list as
//! strings and joins them. It is test code, not library:
//! `proptest_roundtrip.rs` includes it, and so does the crate's own test
//! build (`src/lib.rs`). It uses only the crate's public API.

// Each test crate that includes the module calls a part of it.
#![allow(dead_code)]

use prov_model::{AttrValue, ElementKind, ProvDocument, QName, Relation};
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
                    let start = el
                        .start_time()
                        .map(|t| t.to_string())
                        .unwrap_or_else(|| "-".into());
                    let end = el
                        .end_time()
                        .map(|t| t.to_string())
                        .unwrap_or_else(|| "-".into());
                    let attrs = format_attrs(&el.attributes, &["prov:startTime", "prov:endTime"]);
                    let _ = writeln!(out, "activity({}, {start}, {end}{attrs})", el.id);
                }
                _ => {
                    let attrs = format_attrs(&el.attributes, &[]);
                    let _ = writeln!(out, "{}({}{attrs})", kind.provn_keyword(), el.id);
                }
            }
        }
    }

    for rel in doc.relations() {
        indent(out, level);
        out.push_str(&format_relation(rel));
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

fn format_relation(rel: &Relation) -> String {
    // kind(id; subject, object, extras..., time?, [attrs]), with `-`
    // for an absent optional argument before a present one
    let mut args = Vec::new();
    if let Some(id) = &rel.id {
        args.push(format!("{id};"));
    }
    args.push(rel.subject.to_string());
    args.push(rel.object.to_string());
    let mut optional: Vec<Option<String>> = rel
        .kind
        .extra_keys()
        .iter()
        .map(|key| rel.extras.get(*key).map(|v| v.to_string()))
        .collect();
    if rel.kind.supports_time() {
        optional.push(rel.time.map(|t| t.to_string()));
    }
    while optional.last() == Some(&None) {
        optional.pop();
    }
    args.extend(
        optional
            .into_iter()
            .map(|a| a.unwrap_or_else(|| "-".into())),
    );
    let attrs = format_attrs(&rel.attributes, &[]);
    // The id separator `;` binds to the first argument, so join carefully.
    let mut joined = String::new();
    for (i, a) in args.iter().enumerate() {
        if i > 0 && !joined.ends_with(';') {
            joined.push_str(", ");
        } else if joined.ends_with(';') {
            joined.push(' ');
        }
        joined.push_str(a);
    }
    format!("{}({joined}{attrs})", rel.kind.json_key())
}

fn format_attrs(attrs: &BTreeMap<QName, Vec<AttrValue>>, skip: &[&str]) -> String {
    let mut parts = Vec::new();
    for (key, values) in attrs {
        if skip.contains(&key.to_string().as_str()) {
            continue;
        }
        for v in values {
            parts.push(format!("{key}={}", format_value(v)));
        }
    }
    if parts.is_empty() {
        String::new()
    } else {
        format!(", [{}]", parts.join(", "))
    }
}

fn format_value(v: &AttrValue) -> String {
    match v {
        AttrValue::String(s) => format!("\"{}\"", escape(s)),
        AttrValue::LangString(s, lang) => format!("\"{}\"@{lang}", escape(s)),
        AttrValue::QualifiedName(q) => format!("'{q}'"),
        other => match other.type_name() {
            Some(t) => format!("\"{}\" %% {t}", escape(&other.lexical())),
            None => format!("\"{}\"", escape(&other.lexical())),
        },
    }
}

fn escape(s: &str) -> String {
    s.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
        .replace('\r', "\\r")
}
