//! Streaming PROV-JSON emission: the one writer.
//!
//! Every PROV-JSON text this crate prints comes from here, stored
//! documents and [`ProvDocument::to_json_string`] included: the
//! document is serialized *directly* into an [`std::io::Write`] sink
//! through lightweight borrow wrappers, cloning nothing but the
//! rendered map keys. [`ProvDocument::to_json`] still materializes a
//! [`serde_json::Value`] tree for callers that want one, which clones
//! every identifier, attribute and metric string; for the large
//! inline-metrics documents of the finalize pipeline that doubles peak
//! memory and adds a full extra pass, so nothing prints through it.
//!
//! The output is **byte-identical** to that tree printed by
//! `serde_json`: the wrappers reproduce exactly the ordering
//! serde_json's `Map` (a `BTreeMap<String, Value>`) would impose —
//! blocks and keys sorted by rendered string, anonymous relation ids
//! numbered in [`RelationKind::all`] order, later formal-argument
//! inserts overwriting earlier ones. The parity tests at the bottom of
//! this file pin that guarantee.

use std::collections::BTreeMap;
use std::io::Write;

use serde::ser::{Serialize, SerializeMap, SerializeSeq, Serializer};

use crate::document::ProvDocument;
use crate::error::ProvError;
use crate::qname::QName;
use crate::record::ElementKind;
use crate::relation::{Relation, RelationKind};
use crate::value::{format_double, AttrValue};

impl ProvDocument {
    /// Streams compact PROV-JSON into `writer`.
    pub fn write_json<W: Write>(&self, writer: W) -> Result<(), ProvError> {
        Ok(serde_json::to_writer(writer, &SerDoc::new(self))?)
    }

    /// Streams pretty-printed PROV-JSON into `writer`.
    pub fn write_json_pretty<W: Write>(&self, writer: W) -> Result<(), ProvError> {
        Ok(serde_json::to_writer_pretty(writer, &SerDoc::new(self))?)
    }
}

/// What [`ProvDocument::to_json_string`] and its pretty twin return:
/// the streamed bytes, as a `String`.
pub(crate) fn to_string(doc: &ProvDocument, pretty: bool) -> Result<String, ProvError> {
    let mut out = Vec::new();
    if pretty {
        doc.write_json_pretty(&mut out)?;
    } else {
        doc.write_json(&mut out)?;
    }
    Ok(String::from_utf8(out).expect("the streaming writer emits only UTF-8"))
}

/// One top-level (or bundle-level) block of the PROV-JSON object.
enum Block<'a> {
    /// The `prefix` block: prefix (or `"default"`) to IRI.
    Prefix(BTreeMap<String, String>),
    /// An element block: rendered id to the element's attribute map.
    Elements(BTreeMap<String, &'a BTreeMap<QName, Vec<AttrValue>>>),
    /// A relation block: rendered (or anonymous) id to the relation.
    Relations(BTreeMap<String, &'a Relation>),
    /// The `bundle` block: rendered bundle name to its prepared document.
    Bundles(BTreeMap<String, SerDoc<'a>>),
}

/// A document prepared for streaming: blocks keyed by their top-level
/// JSON key, pre-sorted the same way serde_json's map would sort them.
struct SerDoc<'a> {
    blocks: BTreeMap<&'static str, Block<'a>>,
}

impl<'a> SerDoc<'a> {
    fn new(doc: &'a ProvDocument) -> Self {
        let mut blocks: BTreeMap<&'static str, Block<'a>> = BTreeMap::new();

        let mut prefix = BTreeMap::new();
        for ns in doc.namespaces().iter() {
            prefix.insert(ns.prefix, ns.iri);
        }
        if let Some(d) = doc.namespaces().default_ns() {
            prefix.insert("default".to_string(), d.to_string());
        }
        if !prefix.is_empty() {
            blocks.insert("prefix", Block::Prefix(prefix));
        }

        for kind in ElementKind::all() {
            let mut block = BTreeMap::new();
            for el in doc.iter_kind(kind) {
                block.insert(el.id.to_string(), &el.attributes);
            }
            if !block.is_empty() {
                blocks.insert(kind.json_key(), Block::Elements(block));
            }
        }

        // Anonymous ids number in `RelationKind::all()` order — the
        // order `doc_to_json` visits relations — independent of the
        // alphabetical order the blocks end up emitted in.
        let mut anon = 0u64;
        for kind in RelationKind::all() {
            let mut block = BTreeMap::new();
            for rel in doc.relations_of(*kind) {
                let key = match &rel.id {
                    Some(q) => q.to_string(),
                    None => {
                        anon += 1;
                        format!("_:id{anon:06}")
                    }
                };
                block.insert(key, rel);
            }
            if !block.is_empty() {
                blocks.insert(kind.json_key(), Block::Relations(block));
            }
        }

        let mut bundles = BTreeMap::new();
        for (name, bundle) in doc.iter_bundles() {
            // Each bundle restarts its own anonymous-id counter, just
            // like the recursive `doc_to_json` call does.
            bundles.insert(name.to_string(), SerDoc::new(bundle));
        }
        if !bundles.is_empty() {
            blocks.insert("bundle", Block::Bundles(bundles));
        }

        SerDoc { blocks }
    }
}

impl Serialize for SerDoc<'_> {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        let mut map = serializer.serialize_map(Some(self.blocks.len()))?;
        for (key, block) in &self.blocks {
            match block {
                Block::Prefix(p) => map.serialize_entry(key, p)?,
                Block::Elements(els) => map.serialize_entry(key, &SerElements(els))?,
                Block::Relations(rels) => map.serialize_entry(key, &SerRelations(rels))?,
                Block::Bundles(b) => map.serialize_entry(key, b)?,
            }
        }
        map.end()
    }
}

struct SerElements<'a>(&'a BTreeMap<String, &'a BTreeMap<QName, Vec<AttrValue>>>);

impl Serialize for SerElements<'_> {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        let mut map = serializer.serialize_map(Some(self.0.len()))?;
        for (id, attrs) in self.0 {
            map.serialize_entry(id, &SerAttrs(attrs))?;
        }
        map.end()
    }
}

/// Re-keys an attribute map by *rendered* key string. `QName`'s `Ord`
/// and the rendered string's order can disagree (`:` sorts between `9`
/// and `A`), and serde_json sorts objects by string — so the rendered
/// order is the one that must win.
fn rekey_attrs(attrs: &BTreeMap<QName, Vec<AttrValue>>) -> BTreeMap<String, &Vec<AttrValue>> {
    let mut rekeyed = BTreeMap::new();
    for (key, values) in attrs {
        rekeyed.insert(key.to_string(), values);
    }
    rekeyed
}

struct SerAttrs<'a>(&'a BTreeMap<QName, Vec<AttrValue>>);

impl Serialize for SerAttrs<'_> {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        let rekeyed = rekey_attrs(self.0);
        let mut map = serializer.serialize_map(Some(rekeyed.len()))?;
        for (key, values) in &rekeyed {
            map.serialize_entry(key, &SerValues(values.as_slice()))?;
        }
        map.end()
    }
}

/// One attribute's values: a single value serializes bare, anything
/// else as an array.
struct SerValues<'a>(&'a [AttrValue]);

impl Serialize for SerValues<'_> {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        if self.0.len() == 1 {
            SerVal(&self.0[0]).serialize(serializer)
        } else {
            let mut seq = serializer.serialize_seq(Some(self.0.len()))?;
            for v in self.0 {
                seq.serialize_element(&SerVal(v))?;
            }
            seq.end()
        }
    }
}

fn typed_literal<S: Serializer>(serializer: S, lexical: &str, ty: &str) -> Result<S::Ok, S::Error> {
    // "$" (0x24) sorts before "lang" and "type", matching the map order.
    let mut map = serializer.serialize_map(Some(2))?;
    map.serialize_entry("$", lexical)?;
    map.serialize_entry("type", ty)?;
    map.end()
}

/// One attribute value, following `value_to_json`'s rendering rules.
struct SerVal<'a>(&'a AttrValue);

impl Serialize for SerVal<'_> {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        match self.0 {
            AttrValue::String(s) => serializer.serialize_str(s),
            AttrValue::LangString(s, lang) => {
                let mut map = serializer.serialize_map(Some(2))?;
                map.serialize_entry("$", s)?;
                map.serialize_entry("lang", lang)?;
                map.end()
            }
            AttrValue::Int(i) => serializer.serialize_i64(*i),
            AttrValue::Bool(b) => serializer.serialize_bool(*b),
            AttrValue::Double(d) => typed_literal(serializer, &format_double(*d), "xsd:double"),
            AttrValue::QualifiedName(q) => {
                typed_literal(serializer, &q.to_string(), "prov:QUALIFIED_NAME")
            }
            AttrValue::DateTime(t) => typed_literal(serializer, &t.to_string(), "xsd:dateTime"),
            AttrValue::Typed(s, t) => typed_literal(serializer, s, &t.to_string()),
        }
    }
}

struct SerRelations<'a>(&'a BTreeMap<String, &'a Relation>);

impl Serialize for SerRelations<'_> {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        let mut map = serializer.serialize_map(Some(self.0.len()))?;
        for (id, rel) in self.0 {
            map.serialize_entry(id, &SerRel(rel))?;
        }
        map.end()
    }
}

/// One relation body value: formal arguments render as plain strings,
/// application attributes through the value rules.
enum RelVal<'a> {
    Str(String),
    Attrs(&'a Vec<AttrValue>),
}

struct SerRel<'a>(&'a Relation);

impl Serialize for SerRel<'_> {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        let rel = self.0;
        // Same insertion sequence as `relation_to_json` — subject,
        // object, time, extras, then attributes — into a string-keyed
        // map, so later inserts overwrite earlier ones identically.
        let mut obj: BTreeMap<String, RelVal<'_>> = BTreeMap::new();
        obj.insert(
            rel.kind.subject_key().to_string(),
            RelVal::Str(rel.subject.to_string()),
        );
        obj.insert(
            rel.kind.object_key().to_string(),
            RelVal::Str(rel.object.to_string()),
        );
        if let Some(t) = rel.time {
            obj.insert("prov:time".to_string(), RelVal::Str(t.to_string()));
        }
        for (k, v) in &rel.extras {
            obj.insert(k.clone(), RelVal::Str(v.to_string()));
        }
        for (key, values) in rekey_attrs(&rel.attributes) {
            obj.insert(key, RelVal::Attrs(values));
        }

        let mut map = serializer.serialize_map(Some(obj.len()))?;
        for (key, val) in &obj {
            match val {
                RelVal::Str(s) => map.serialize_entry(key, s)?,
                RelVal::Attrs(values) => map.serialize_entry(key, &SerValues(values.as_slice()))?,
            }
        }
        map.end()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::qname::YPROV_NS;
    use crate::XsdDateTime;

    fn q(local: &str) -> QName {
        QName::new("ex", local)
    }

    /// A document exercising every serialization path: multiple
    /// namespaces + default, all three element kinds, multi-valued and
    /// typed attributes, named and anonymous relations, relation times,
    /// extras, relation attributes, and a bundle with its own anonymous
    /// relations.
    fn rich_doc() -> ProvDocument {
        let mut doc = ProvDocument::new();
        doc.namespaces_mut().register("ex", "http://ex/").unwrap();
        doc.namespaces_mut().register("yprov4ml", YPROV_NS).unwrap();
        doc.namespaces_mut().set_default("http://ex/default/");

        doc.entity(q("dataset"))
            .label("MODIS patches")
            .attr(QName::yprov("patches"), AttrValue::Int(800_000))
            .attr(
                QName::yprov("title"),
                AttrValue::LangString("patch".into(), "en".into()),
            );
        doc.entity(q("model"))
            .prov_type(q("Model"))
            .prov_type(q("Checkpoint"))
            .attr(QName::yprov("loss"), AttrValue::Double(0.125))
            .attr(QName::yprov("nan"), AttrValue::Double(f64::NAN))
            .attr(QName::yprov("inf"), AttrValue::Double(f64::NEG_INFINITY))
            .attr(
                QName::yprov("epoch_end"),
                AttrValue::DateTime(XsdDateTime::new(1_700_000_000, 250)),
            )
            .attr(
                QName::yprov("shape"),
                AttrValue::Typed("3x224x224".into(), QName::new("xsd", "string")),
            )
            .attr(QName::yprov("kind"), AttrValue::QualifiedName(q("Resnet")))
            .attr(QName::yprov("final"), AttrValue::Bool(true));
        doc.activity(q("train"))
            .start_time(XsdDateTime::new(1_000, 0))
            .end_time(XsdDateTime::new(8_200, 500));
        doc.agent(q("researcher"));
        doc.agent(q("orchestrator"));

        let mut used = Relation::new(RelationKind::Used, q("train"), q("dataset"));
        used.time = Some(XsdDateTime::new(1_001, 42));
        used.add_attr(QName::prov("role"), AttrValue::from("training-input"));
        used.add_attr(QName::yprov("split"), AttrValue::from("train"));
        used.add_attr(QName::yprov("split"), AttrValue::from("val"));
        doc.add_relation(used);

        doc.was_generated_by(q("model"), q("train"));
        doc.was_associated_with(q("train"), q("researcher"));
        doc.acted_on_behalf_of(q("researcher"), q("orchestrator"));
        doc.was_derived_from(q("model"), q("dataset"));
        let started =
            doc.was_started_by(q("train"), q("dataset"), Some(XsdDateTime::new(1_000, 1)));
        started
            .extras
            .insert("prov:starter".to_string(), q("scheduler"));

        let named =
            Relation::new(RelationKind::Used, q("train"), q("model")).with_id(q("resume-read"));
        doc.add_relation(named);

        let bundle = doc.bundle(q("runmeta"));
        bundle
            .namespaces_mut()
            .register("ex", "http://ex/")
            .unwrap();
        bundle.entity(q("inner"));
        bundle.activity(q("inner-act"));
        // Anonymous relations inside the bundle restart at _:id000001.
        bundle.used(q("inner-act"), q("inner"));
        bundle.was_generated_by(q("inner"), q("inner-act"));

        doc
    }

    /// The reference the writer is held to: the `Value` tree, printed
    /// by `serde_json`.
    fn tree_compact(doc: &ProvDocument) -> String {
        serde_json::to_string(&doc.to_json()).unwrap()
    }

    fn tree_pretty(doc: &ProvDocument) -> String {
        serde_json::to_string_pretty(&doc.to_json()).unwrap()
    }

    #[test]
    fn compact_stream_matches_the_printed_tree() {
        let doc = rich_doc();
        let mut streamed = Vec::new();
        doc.write_json(&mut streamed).unwrap();
        assert_eq!(String::from_utf8(streamed).unwrap(), tree_compact(&doc));
        assert_eq!(doc.to_json_string().unwrap(), tree_compact(&doc));
    }

    #[test]
    fn pretty_stream_matches_the_printed_tree() {
        let doc = rich_doc();
        let mut streamed = Vec::new();
        doc.write_json_pretty(&mut streamed).unwrap();
        assert_eq!(String::from_utf8(streamed).unwrap(), tree_pretty(&doc));
        assert_eq!(doc.to_json_string_pretty().unwrap(), tree_pretty(&doc));
    }

    #[test]
    fn empty_document_streams_as_empty_object() {
        let doc = ProvDocument::new();
        let mut streamed = Vec::new();
        doc.write_json(&mut streamed).unwrap();
        assert_eq!(streamed, b"{}");
        assert_eq!(tree_compact(&doc), "{}");
    }

    #[test]
    fn streamed_output_parses_back_to_equal_document() {
        let mut doc = rich_doc();
        let mut streamed = Vec::new();
        doc.write_json_pretty(&mut streamed).unwrap();
        let mut back =
            ProvDocument::from_json_str(std::str::from_utf8(&streamed).unwrap()).unwrap();
        // Two values of `rich_doc` do not compare equal to what they
        // read back as, by design: NaN never equals itself, and a
        // literal typed `xsd:string` reads back as a plain string.
        let model = back.get(&q("model")).unwrap();
        assert!(
            matches!(model.attr(&QName::yprov("nan")), Some(AttrValue::Double(d)) if d.is_nan())
        );
        assert_eq!(
            model.attr(&QName::yprov("shape")),
            Some(&AttrValue::String("3x224x224".into()))
        );
        // Everything else does.
        for doc in [&mut doc, &mut back] {
            let model = doc.get_mut(&q("model")).unwrap();
            model.attributes.remove(&QName::yprov("nan"));
            model.attributes.remove(&QName::yprov("shape"));
            doc.canonicalize();
        }
        assert_eq!(doc, back);
    }

    #[test]
    fn anonymous_ids_number_in_kind_order_not_emit_order() {
        // Anonymous ids are assigned while visiting relations in
        // RelationKind::all() order, regardless of which block string
        // sorts first in the output.
        let mut doc = ProvDocument::new();
        doc.namespaces_mut().register("ex", "http://ex/").unwrap();
        doc.entity(q("e"));
        doc.activity(q("a"));
        doc.was_started_by(q("a"), q("e"), None);
        doc.used(q("a"), q("e"));
        doc.was_generated_by(q("e"), q("a"));
        // Blocks emit alphabetically (used < wasGeneratedBy <
        // wasStartedBy) which happens to match kind order here; the
        // parity assertion against the printed tree is the real check.
        let mut streamed = Vec::new();
        doc.write_json(&mut streamed).unwrap();
        let text = String::from_utf8(streamed).unwrap();
        assert_eq!(text, tree_compact(&doc));
        // used is first in RelationKind::all() → takes _:id000001.
        let v: serde_json::Value = serde_json::from_str(&text).unwrap();
        assert!(v["used"].get("_:id000001").is_some());
        assert!(v["wasGeneratedBy"].get("_:id000002").is_some());
        assert!(v["wasStartedBy"].get("_:id000003").is_some());
    }

    #[test]
    fn large_metriclike_document_streams_identically() {
        // Shaped like the finalize pipeline's output: many metric
        // entities with typed double attributes.
        let mut doc = ProvDocument::new();
        doc.namespaces_mut().register("ex", "http://ex/").unwrap();
        doc.namespaces_mut().register("yprov4ml", YPROV_NS).unwrap();
        doc.activity(q("run"));
        for i in 0..200 {
            let id = QName::new("ex", format!("metric_{i:04}"));
            doc.entity(id.clone())
                .attr(QName::yprov("samples"), AttrValue::Int(i))
                .attr(QName::yprov("mean"), AttrValue::Double(i as f64 * 0.31))
                .attr(
                    QName::yprov("last"),
                    AttrValue::Double(1.0 / (i + 1) as f64),
                );
            doc.was_generated_by(id, q("run"));
        }
        let mut compact = Vec::new();
        doc.write_json(&mut compact).unwrap();
        assert_eq!(String::from_utf8(compact).unwrap(), tree_compact(&doc));
        let mut pretty = Vec::new();
        doc.write_json_pretty(&mut pretty).unwrap();
        assert_eq!(String::from_utf8(pretty).unwrap(), tree_pretty(&doc));
    }
}
