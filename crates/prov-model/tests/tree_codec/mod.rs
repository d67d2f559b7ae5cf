//! The PROV-JSON tree codec: the oracle the library's PROV-JSON writer
//! (`json_stream`) and reader (`json_read`) are held to. It renders a
//! document as a `json::Value` tree, whose `Map` orders keys by their
//! bytes, and builds a document from such a tree, visiting each object
//! in key order. It is test code, not library: `writer_differential.rs`
//! and `proptest_roundtrip.rs` include it, and so does the crate's own
//! test build (`src/lib.rs`). It uses only the crate's public API.
//!
//! The layout is the W3C PROV-JSON member submission: a top-level
//! object with a `prefix` block, one block per element kind keyed by
//! qualified identifier, one block per relation kind keyed by relation
//! identifier (blank-node style `_:idN` keys for anonymous relations),
//! and a `bundle` block of nested documents.

// Each test crate that includes the module calls a part of it.
#![allow(dead_code)]

use json::{json, Map, Value};
use prov_model::value::format_double;
use prov_model::{
    AttrValue, Element, ElementKind, ProvDocument, ProvError, QName, Relation, RelationKind,
    XsdDateTime,
};
use std::collections::BTreeMap;

// --------------------------------------------------------------------------
// Serialization
// --------------------------------------------------------------------------

/// The document as a PROV-JSON tree.
pub fn to_json(doc: &ProvDocument) -> Value {
    let mut root = Map::new();

    // prefix block
    let mut prefix = Map::new();
    for ns in doc.namespaces().iter() {
        prefix.insert(ns.prefix, Value::String(ns.iri));
    }
    if let Some(d) = doc.namespaces().default_ns() {
        prefix.insert("default".to_string(), Value::String(d.to_string()));
    }
    if !prefix.is_empty() {
        root.insert("prefix".to_string(), Value::Object(prefix));
    }

    // element blocks
    for kind in ElementKind::all() {
        let mut block = Map::new();
        for el in doc.iter_kind(kind) {
            block.insert(el.id.to_string(), attrs_to_json(&el.attributes));
        }
        if !block.is_empty() {
            root.insert(kind.json_key().to_string(), Value::Object(block));
        }
    }

    // relation blocks — anonymous ids are zero-padded so that the sorted
    // JSON map preserves insertion order.
    let mut anon = 0u64;
    for kind in RelationKind::all() {
        let mut block = Map::new();
        for rel in doc.relations_of(*kind) {
            let key = match &rel.id {
                Some(q) => q.to_string(),
                None => {
                    anon += 1;
                    format!("_:id{anon:06}")
                }
            };
            block.insert(key, relation_to_json(rel));
        }
        if !block.is_empty() {
            root.insert(kind.json_key().to_string(), Value::Object(block));
        }
    }

    // bundles
    let mut bundles = Map::new();
    for (name, bundle) in doc.iter_bundles() {
        bundles.insert(name.to_string(), to_json(bundle));
    }
    if !bundles.is_empty() {
        root.insert("bundle".to_string(), Value::Object(bundles));
    }

    Value::Object(root)
}

fn attrs_to_json(attrs: &BTreeMap<QName, Vec<AttrValue>>) -> Value {
    let mut obj = Map::new();
    for (key, values) in attrs {
        let rendered: Vec<Value> = values.iter().map(value_to_json).collect();
        let v = if rendered.len() == 1 {
            rendered.into_iter().next().expect("len checked")
        } else {
            Value::Array(rendered)
        };
        obj.insert(key.to_string(), v);
    }
    Value::Object(obj)
}

/// Renders one attribute value per the PROV-JSON value rules.
pub fn value_to_json(v: &AttrValue) -> Value {
    match v {
        AttrValue::String(s) => Value::String(s.clone()),
        AttrValue::LangString(s, lang) => json!({ "$": s, "lang": lang }),
        AttrValue::Int(i) => json!(*i),
        AttrValue::Bool(b) => json!(*b),
        // Doubles always use the typed-literal form, which carries NaN
        // and the infinities that a JSON number cannot.
        AttrValue::Double(d) => json!({ "$": format_double(*d), "type": "xsd:double" }),
        AttrValue::QualifiedName(q) => json!({ "$": q.to_string(), "type": "prov:QUALIFIED_NAME" }),
        AttrValue::DateTime(t) => json!({ "$": t.to_string(), "type": "xsd:dateTime" }),
        AttrValue::Typed(s, t) => json!({ "$": s, "type": t.to_string() }),
    }
}

fn relation_to_json(rel: &Relation) -> Value {
    let mut obj = Map::new();
    obj.insert(
        rel.kind.subject_key().to_string(),
        Value::String(rel.subject.to_string()),
    );
    obj.insert(
        rel.kind.object_key().to_string(),
        Value::String(rel.object.to_string()),
    );
    if let Some(t) = rel.time {
        obj.insert("prov:time".to_string(), Value::String(t.to_string()));
    }
    for (k, v) in &rel.extras {
        obj.insert(k.clone(), Value::String(v.to_string()));
    }
    if let Value::Object(attrs) = attrs_to_json(&rel.attributes) {
        for (k, v) in attrs {
            obj.insert(k, v);
        }
    }
    Value::Object(obj)
}

// --------------------------------------------------------------------------
// Deserialization
// --------------------------------------------------------------------------

/// Builds a document from a parsed PROV-JSON tree.
pub fn from_json(value: &Value) -> Result<ProvDocument, ProvError> {
    let root = value
        .as_object()
        .ok_or_else(|| ProvError::Structure("document must be a JSON object".into()))?;
    let mut doc = ProvDocument::new();

    if let Some(prefix) = root.get("prefix") {
        let prefix = prefix
            .as_object()
            .ok_or_else(|| ProvError::Structure("'prefix' must be an object".into()))?;
        for (p, iri) in prefix {
            let iri = iri.as_str().ok_or_else(|| {
                ProvError::Structure(format!("prefix {p:?} must map to a string"))
            })?;
            if p == "default" {
                doc.namespaces_mut().set_default(iri);
            } else {
                doc.namespaces_mut().register(p.clone(), iri)?;
            }
        }
    }

    for kind in ElementKind::all() {
        if let Some(block) = root.get(kind.json_key()) {
            let block = block.as_object().ok_or_else(|| {
                ProvError::Structure(format!("'{}' must be an object", kind.json_key()))
            })?;
            for (id, attrs) in block {
                let id = QName::parse(id)?;
                let mut el = Element::new(kind, id);
                parse_attrs_into(attrs, &mut el.attributes, kind.json_key())?;
                doc.insert_element(el);
            }
        }
    }

    for kind in RelationKind::all() {
        if let Some(block) = root.get(kind.json_key()) {
            let block = block.as_object().ok_or_else(|| {
                ProvError::Structure(format!("'{}' must be an object", kind.json_key()))
            })?;
            for (rel_id, body) in block {
                let rel = relation_from_json(*kind, rel_id, body)?;
                doc.add_relation(rel);
            }
        }
    }

    if let Some(bundles) = root.get("bundle") {
        let bundles = bundles
            .as_object()
            .ok_or_else(|| ProvError::Structure("'bundle' must be an object".into()))?;
        for (name, inner) in bundles {
            let name = QName::parse(name)?;
            let parsed = from_json(inner)?;
            *doc.bundle(name) = parsed;
        }
    }

    Ok(doc)
}

fn parse_attrs_into(
    attrs: &Value,
    out: &mut BTreeMap<QName, Vec<AttrValue>>,
    ctx: &str,
) -> Result<(), ProvError> {
    let obj = attrs
        .as_object()
        .ok_or_else(|| ProvError::Structure(format!("attributes of {ctx} must be an object")))?;
    for (key, raw) in obj {
        let key = QName::parse(key)?;
        let values = match raw {
            Value::Array(items) => items
                .iter()
                .map(value_from_json)
                .collect::<Result<Vec<_>, _>>()?,
            single => vec![value_from_json(single)?],
        };
        out.entry(key).or_default().extend(values);
    }
    Ok(())
}

/// Parses one PROV-JSON attribute value.
pub fn value_from_json(v: &Value) -> Result<AttrValue, ProvError> {
    match v {
        Value::String(s) => Ok(AttrValue::String(s.clone())),
        Value::Bool(b) => Ok(AttrValue::Bool(*b)),
        Value::Number(n) => Ok(match n.as_i64() {
            Some(i) => AttrValue::Int(i),
            None => AttrValue::Double(n.as_f64()),
        }),
        Value::Object(obj) => {
            let lexical = obj
                .get("$")
                .and_then(Value::as_str)
                .ok_or_else(|| ProvError::BadValue("typed value needs a '$' string".into()))?;
            if let Some(lang) = obj.get("lang").and_then(Value::as_str) {
                return Ok(AttrValue::LangString(lexical.to_string(), lang.to_string()));
            }
            match obj.get("type").and_then(Value::as_str) {
                Some(ty) => {
                    let ty = QName::parse(ty)?;
                    AttrValue::from_lexical(lexical, &ty)
                }
                None => Ok(AttrValue::String(lexical.to_string())),
            }
        }
        other => Err(ProvError::BadValue(format!(
            "unsupported attribute value: {other}"
        ))),
    }
}

fn relation_from_json(
    kind: RelationKind,
    rel_id: &str,
    body: &Value,
) -> Result<Relation, ProvError> {
    let obj = body.as_object().ok_or_else(|| {
        ProvError::Structure(format!("relation {rel_id:?} must map to an object"))
    })?;
    let get_q = |key: &str| -> Result<QName, ProvError> {
        let raw = obj.get(key).and_then(Value::as_str).ok_or_else(|| {
            ProvError::Structure(format!(
                "relation {rel_id:?} ({}) missing argument {key:?}",
                kind.json_key()
            ))
        })?;
        QName::parse(raw)
    };

    let subject = get_q(kind.subject_key())?;
    let object = get_q(kind.object_key())?;
    let mut rel = Relation::new(kind, subject, object);

    if !rel_id.starts_with("_:") {
        rel.id = Some(QName::parse(rel_id)?);
    }
    if kind.supports_time() {
        if let Some(t) = obj.get("prov:time").and_then(Value::as_str) {
            rel.time = Some(XsdDateTime::parse(t)?);
        }
    }
    for extra in kind.extra_keys() {
        if let Some(v) = obj.get(*extra).and_then(Value::as_str) {
            rel.extras.insert(extra.to_string(), QName::parse(v)?);
        }
    }

    // Everything that isn't a formal argument is an application attribute.
    let formal: Vec<&str> = {
        let mut f = vec![kind.subject_key(), kind.object_key(), "prov:time"];
        f.extend_from_slice(kind.extra_keys());
        f
    };
    for (key, raw) in obj {
        if formal.contains(&key.as_str()) {
            continue;
        }
        let key = QName::parse(key)?;
        match raw {
            Value::Array(items) => {
                for item in items {
                    let v = value_from_json(item)?;
                    rel.add_attr(key.clone(), v);
                }
            }
            single => {
                let v = value_from_json(single)?;
                rel.add_attr(key, v);
            }
        }
    }
    Ok(rel)
}
