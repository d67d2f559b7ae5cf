//! PROV-JSON emission: the one writer.
//!
//! Every PROV-JSON text this crate prints comes from here, stored
//! documents and [`ProvDocument::to_json_string`] included: the
//! document is written straight to bytes through [`json::JsonWriter`],
//! cloning and rendering nothing.
//!
//! The output is **byte-identical** to the tests' tree codec
//! (`tests/tree_codec/`) printed, whose `Map` sorts keys by string:
//! - blocks, element ids, attribute keys, relation ids, relation-body
//!   keys and bundle names are ordered by their rendered bytes
//!   (`prefix:local`), compared without building the strings; `QName`'s
//!   own order differs (`ex` < `ex2`, but `ex2:a` < `ex:a`);
//! - where two members of one object render to one key, the last one
//!   inserted wins, in the tree's insertion order (a relation body:
//!   subject, object, time, extras, then attributes);
//! - anonymous relation ids (`_:id000001`, …) number in
//!   [`RelationKind::all`] order, restarting in each bundle,
//!   independently of the order the blocks are emitted in.
//!
//! The parity tests at the bottom of this file and the generated
//! differential suite (`tests/writer_differential.rs`) pin that.

use std::cmp::Ordering;
use std::collections::BTreeMap;
use std::io::Write;
use std::sync::OnceLock;

use json::{decimal, JsonWriter};

use crate::datetime::XsdDateTime;
use crate::document::ProvDocument;
use crate::error::ProvError;
use crate::json::{rendered_bytes, rendered_order};
use crate::qname::QName;
use crate::record::ElementKind;
use crate::relation::{Relation, RelationKind};
use crate::value::{AttrValue, XsdDouble};

impl ProvDocument {
    /// Streams compact PROV-JSON into `writer`.
    pub fn write_json<W: Write>(&self, writer: W) -> Result<(), ProvError> {
        let mut w = DocWriter::new(self, JsonWriter::new(writer, false));
        w.document(self);
        Ok(w.w.finish()?)
    }

    /// Streams pretty-printed PROV-JSON into `writer`.
    pub fn write_json_pretty<W: Write>(&self, writer: W) -> Result<(), ProvError> {
        let mut w = DocWriter::new(self, JsonWriter::new(writer, true));
        w.document(self);
        Ok(w.w.finish()?)
    }
}

/// What [`ProvDocument::to_json_string`] and its pretty twin return.
pub(crate) fn to_string(doc: &ProvDocument, pretty: bool) -> Result<String, ProvError> {
    let mut w = DocWriter::new(doc, JsonWriter::in_memory(pretty));
    w.document(doc);
    Ok(w.w.into_string())
}

/// An object key, as it renders.
#[derive(Clone, Copy)]
enum Key<'a> {
    Str(&'a str),
    /// `prefix:local`.
    Name(&'a QName),
    /// An anonymous relation's `_:id` and its number, zero-padded to six
    /// digits.
    Anon(u64),
}

impl Key<'_> {
    /// How the two rendered keys compare, byte by byte.
    fn cmp(&self, other: &Key<'_>) -> Ordering {
        match (self, other) {
            (Key::Name(a), Key::Name(b)) => rendered_order(a, b),
            (Key::Str(a), Key::Str(b)) => a.cmp(b),
            // Both six digits wide.
            (Key::Anon(a), Key::Anon(b)) if *a.max(b) < 1_000_000 => a.cmp(b),
            _ => {
                let (mut a, mut b) = ([0; 24], [0; 24]);
                self.bytes(&mut a).cmp(other.bytes(&mut b))
            }
        }
    }

    fn bytes<'s>(&'s self, anon: &'s mut [u8; 24]) -> impl Iterator<Item = u8> + 's {
        let (name, text) = match self {
            Key::Str(s) => (None, *s),
            Key::Name(q) => (Some(*q), ""),
            Key::Anon(n) => (None, anon_key(*n, anon)),
        };
        name.into_iter()
            .flat_map(rendered_bytes)
            .chain(text.bytes())
    }

    fn write<W: Write>(&self, w: &mut JsonWriter<W>) {
        match self {
            Key::Str(s) => w.key(s),
            Key::Name(q) => w.key_parts(&q.parts()),
            Key::Anon(n) => w.key(anon_key(*n, &mut [0; 24])),
        }
    }
}

/// `format!("_:id{n:06}")` on the stack.
fn anon_key(n: u64, buf: &mut [u8; 24]) -> &str {
    let mut digits = [0; 20];
    let digits = decimal(n, &mut digits);
    let zeros = 6usize.saturating_sub(digits.len());
    let len = 4 + zeros + digits.len();
    buf[..4].copy_from_slice(b"_:id");
    buf[4..4 + zeros].fill(b'0');
    buf[4 + zeros..len].copy_from_slice(digits);
    std::str::from_utf8(&buf[..len]).expect("ASCII")
}

/// Puts `members` in the order a string-keyed map prints them: by
/// rendered key, and of members sharing a key only the last one pushed,
/// the one a map's `insert` keeps. Input already in that order, the
/// common case, costs one comparison per member.
fn map_order<T>(members: &mut Vec<(Key<'_>, T)>) {
    if members.windows(2).all(|m| m[0].0.cmp(&m[1].0).is_lt()) {
        return;
    }
    // Stable: members sharing a key stay in the order pushed.
    members.sort_by(|a, b| a.0.cmp(&b.0));
    members.dedup_by(|later, kept| {
        let same = later.0.cmp(&kept.0).is_eq();
        if same {
            std::mem::swap(later, kept);
        }
        same
    });
}

/// A member value of a prefix block or an attribute map or relation
/// body.
enum Val<'a> {
    Str(&'a str),
    Name(&'a QName),
    Time(XsdDateTime),
    Values(&'a [AttrValue]),
}

/// One top-level (or bundle-level) block of the PROV-JSON object.
#[derive(Clone, Copy)]
enum Block {
    Prefix,
    Elements(ElementKind),
    Relations(RelationKind),
    Bundles,
}

/// Every block with its key, in key order: the order they print in.
fn blocks() -> &'static [(&'static str, Block)] {
    static BLOCKS: OnceLock<Vec<(&'static str, Block)>> = OnceLock::new();
    BLOCKS.get_or_init(|| {
        let mut blocks = vec![("prefix", Block::Prefix), ("bundle", Block::Bundles)];
        blocks.extend(ElementKind::all().map(|k| (k.json_key(), Block::Elements(k))));
        blocks.extend(
            RelationKind::all()
                .iter()
                .map(|&k| (k.json_key(), Block::Relations(k))),
        );
        blocks.sort_unstable_by_key(|b| b.0);
        blocks
    })
}

/// Writes a document and its bundles into one writer, through scratch
/// lists reused by every block (`elements`, `relations`) and every
/// attribute map and relation body (`members`).
///
/// The lists are sized before the first byte is written, so nothing
/// else is allocated while the output grows.
struct DocWriter<'a, W: Write> {
    w: JsonWriter<W>,
    elements: Vec<(Key<'a>, &'a BTreeMap<QName, Vec<AttrValue>>)>,
    relations: Vec<(Key<'a>, &'a Relation)>,
    members: Vec<(Key<'a>, Val<'a>)>,
}

impl<'a, W: Write> DocWriter<'a, W> {
    fn new(doc: &ProvDocument, w: JsonWriter<W>) -> Self {
        DocWriter {
            w,
            elements: Vec::with_capacity(doc.element_count()),
            relations: Vec::with_capacity(doc.relation_count()),
            members: Vec::with_capacity(32),
        }
    }

    fn document(&mut self, doc: &'a ProvDocument) {
        // The anonymous ids each relation kind starts after: the count
        // of anonymous relations of the kinds before it in
        // `RelationKind::all()`, where a kind's discriminant is its
        // position.
        let mut anon_before = [0u64; RelationKind::all().len() + 1];
        for rel in doc.relations().iter().filter(|r| r.id.is_none()) {
            anon_before[rel.kind as usize + 1] += 1;
        }
        for k in 1..anon_before.len() {
            anon_before[k] += anon_before[k - 1];
        }
        self.w.begin_object();
        for &(key, block) in blocks() {
            match block {
                Block::Prefix => {
                    self.members.clear();
                    let bindings = doc.namespaces().bindings();
                    let default = doc.namespaces().default_ns().map(|d| ("default", d));
                    for (prefix, iri) in bindings.chain(default) {
                        self.members.push((Key::Str(prefix), Val::Str(iri)));
                    }
                    if !self.members.is_empty() {
                        self.w.key(key);
                        self.map();
                    }
                }
                Block::Elements(kind) => {
                    let mut elements = std::mem::take(&mut self.elements);
                    elements.clear();
                    elements.extend(
                        doc.iter_kind(kind)
                            .map(|el| (Key::Name(&el.id), &el.attributes)),
                    );
                    if !elements.is_empty() {
                        map_order(&mut elements);
                        self.w.key(key);
                        self.w.begin_object();
                        for (id, attrs) in &elements {
                            id.write(&mut self.w);
                            self.attributes(attrs);
                        }
                        self.w.end_object();
                    }
                    self.elements = elements;
                }
                Block::Relations(kind) => {
                    let mut anon = anon_before[kind as usize];
                    let mut relations = std::mem::take(&mut self.relations);
                    relations.clear();
                    relations.extend(doc.relations_of(kind).map(|rel| match &rel.id {
                        Some(id) => (Key::Name(id), rel),
                        None => {
                            anon += 1;
                            (Key::Anon(anon), rel)
                        }
                    }));
                    if !relations.is_empty() {
                        map_order(&mut relations);
                        self.w.key(key);
                        self.w.begin_object();
                        for (id, rel) in &relations {
                            id.write(&mut self.w);
                            self.relation(rel);
                        }
                        self.w.end_object();
                    }
                    self.relations = relations;
                }
                Block::Bundles => {
                    let mut bundles: Vec<_> = doc
                        .iter_bundles()
                        .map(|(name, bundle)| (Key::Name(name), bundle))
                        .collect();
                    if bundles.is_empty() {
                        continue;
                    }
                    map_order(&mut bundles);
                    self.w.key(key);
                    self.w.begin_object();
                    for (name, bundle) in &bundles {
                        name.write(&mut self.w);
                        self.document(bundle);
                    }
                    self.w.end_object();
                }
            }
        }
        self.w.end_object();
    }

    fn attributes(&mut self, attrs: &'a BTreeMap<QName, Vec<AttrValue>>) {
        self.members.clear();
        for (key, values) in attrs {
            self.members.push((Key::Name(key), Val::Values(values)));
        }
        self.map();
    }

    /// A relation body: its members pushed in the tree's insertion
    /// order, so a later one wins a key they share.
    fn relation(&mut self, rel: &'a Relation) {
        self.members.clear();
        let kind = rel.kind;
        self.members
            .push((Key::Str(kind.subject_key()), Val::Name(&rel.subject)));
        self.members
            .push((Key::Str(kind.object_key()), Val::Name(&rel.object)));
        if let Some(t) = rel.time {
            self.members.push((Key::Str("prov:time"), Val::Time(t)));
        }
        for (key, name) in &rel.extras {
            self.members.push((Key::Str(key), Val::Name(name)));
        }
        for (key, values) in &rel.attributes {
            self.members.push((Key::Name(key), Val::Values(values)));
        }
        self.map();
    }

    /// Writes the scratch members as one object.
    fn map(&mut self) {
        map_order(&mut self.members);
        self.w.begin_object();
        for (key, val) in &self.members {
            key.write(&mut self.w);
            match val {
                Val::Str(s) => self.w.str(s),
                Val::Name(q) => self.w.str_parts(&q.parts()),
                Val::Time(t) => self.w.display(t),
                Val::Values(values) => write_values(&mut self.w, values),
            }
        }
        self.w.end_object();
    }
}

/// One attribute's values: a single value bare, anything else (none
/// included) as an array.
fn write_values<W: Write>(w: &mut JsonWriter<W>, values: &[AttrValue]) {
    match values {
        [one] => write_value(w, one),
        _ => w.array(|w| values.iter().for_each(|v| write_value(w, v))),
    }
}

/// One attribute value, following the tree codec's `value_to_json`.
fn write_value<W: Write>(w: &mut JsonWriter<W>, value: &AttrValue) {
    match value {
        AttrValue::String(s) => w.str(s),
        AttrValue::LangString(s, lang) => w.object(|w| {
            w.key("$");
            w.str(s);
            w.key("lang");
            w.str(lang);
        }),
        AttrValue::Int(i) => w.i64(*i),
        AttrValue::Bool(b) => w.bool(*b),
        AttrValue::Double(d) => typed_literal(w, |w| w.display(XsdDouble(*d)), &["xsd:double"]),
        AttrValue::QualifiedName(q) => {
            typed_literal(w, |w| w.str_parts(&q.parts()), &["prov:QUALIFIED_NAME"])
        }
        AttrValue::DateTime(t) => typed_literal(w, |w| w.display(t), &["xsd:dateTime"]),
        AttrValue::Typed(s, ty) => typed_literal(w, |w| w.str(s), &ty.parts()),
    }
}

/// `{"$": <lexical>, "type": <ty>}`; "$" (0x24) sorts before "type".
fn typed_literal<W: Write>(
    w: &mut JsonWriter<W>,
    lexical: impl FnOnce(&mut JsonWriter<W>),
    ty: &[&str],
) {
    w.object(|w| {
        w.key("$");
        lexical(w);
        w.key("type");
        w.str_parts(ty);
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::qname::YPROV_NS;
    use crate::tree_codec;
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

    /// The reference the writer is held to: the `Value` tree, printed.
    fn tree_compact(doc: &ProvDocument) -> String {
        tree_codec::to_json(doc).to_string()
    }

    fn tree_pretty(doc: &ProvDocument) -> String {
        format!("{:#}", tree_codec::to_json(doc))
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
        let v = json::parse(&text).unwrap();
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
