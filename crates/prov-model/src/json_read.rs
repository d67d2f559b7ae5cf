//! Direct PROV-JSON reader.
//!
//! [`ProvDocument::from_json_str`] reads its text here, in one
//! recursive-descent pass over the workspace's one JSON lexer
//! ([`json::Lexer`]) that builds the document without a [`json::Value`]
//! tree in between: strings without escapes are borrowed from the input
//! until a record owns them, and qualified names are interned for the
//! length of the parse, so an identifier met again in a relation (or
//! `prov:type`, on every element) costs two reference-count bumps
//! instead of two allocations.
//!
//! The result is the one the tests' tree codec (`tests/tree_codec/`)
//! gives for `json::parse(text)`, the reference the differential tests
//! compare against. That path parses the whole text first and then
//! visits it block by block, each object in ascending key order with a
//! repeated key keeping its last value, so this reader keeps three
//! rules:
//!
//! - a syntax error anywhere wins over every other error;
//! - any other error belongs to the member it was met in and is only
//!   raised when that member is visited ([`Reader::held`]), which a
//!   repeated key may prevent;
//! - members are visited in the reference's order ([`Reader::object`],
//!   and the fixed block order of [`Reader::document`]), not the
//!   text's.

use std::borrow::Cow;
use std::collections::hash_map::{Entry, HashMap};

use crate::document::ProvDocument;
use crate::error::ProvError;
use crate::qname::QName;
use crate::record::{Element, ElementKind};
use crate::relation::{Relation, RelationKind};
use crate::value::AttrValue;
use crate::XsdDateTime;
use json::Lexer;

/// The outcome of reading one member's value: what the reference path
/// would find on visiting it.
type Held<T> = Result<T, ProvError>;

/// The members of one object as a [`json::Map`] would hold them:
/// ascending by key, no key twice.
type Members<'a, T> = Vec<(Cow<'a, str>, Held<T>)>;

/// Reads `text` as one PROV-JSON document.
pub(crate) fn read_document(text: &str) -> Result<ProvDocument, ProvError> {
    let mut reader = Reader {
        lex: Lexer::new(text),
        names: HashMap::new(),
    };
    reader.lex.skip_ws();
    let doc = reader.held(Reader::document)?;
    reader.lex.end()?;
    doc
}

/// The first of `kinds` that `is` accepts, with its position.
fn position<K: Copy>(kinds: &[K], is: impl Fn(&K) -> bool) -> Option<(usize, K)> {
    kinds.iter().copied().enumerate().find(|(_, kind)| is(kind))
}

/// One member of a relation body.
enum RelationField<'a> {
    /// A formal argument; `None` when its value is not a string, which
    /// reads as an absent argument.
    Argument(Option<Cow<'a, str>>),
    /// An application attribute.
    Attribute(Vec<AttrValue>),
}

struct Reader<'a> {
    lex: Lexer<'a>,
    /// Qualified names already parsed from this text.
    names: HashMap<&'a str, QName>,
}

// Keys and names travel as `&Cow` on purpose: only one borrowed from
// the input can key `names`, and `qname` has to see which it is.
#[allow(clippy::ptr_arg)]
impl<'a> Reader<'a> {
    // ----- documents, blocks, records -------------------------------------

    fn document(&mut self) -> Result<ProvDocument, ProvError> {
        if !self.at_object() {
            return Err(ProvError::Structure(
                "document must be a JSON object".into(),
            ));
        }
        let mut prefix = None;
        let mut elements: [Option<Held<Members<'a, Element>>>; 3] = Default::default();
        let mut relations: [Option<Held<Members<'a, Relation>>>; 14] = Default::default();
        let mut bundles = None;
        // A repeated block replaces the earlier one whole.
        self.members(|r, key| {
            let key = &*key;
            if key == "prefix" {
                prefix = Some(r.held(|r| r.block(key, Reader::prefix_iri))?);
            } else if key == "bundle" {
                bundles = Some(r.held(|r| r.block(key, Reader::bundle))?);
            } else if let Some((i, kind)) = position(&ElementKind::all(), |k| k.json_key() == key) {
                elements[i] = Some(r.held(|r| r.block(key, |r, id| r.element(kind, id)))?);
            } else if let Some((i, kind)) = position(RelationKind::all(), |k| k.json_key() == key) {
                relations[i] = Some(r.held(|r| r.block(key, |r, id| r.relation(kind, id)))?);
            } else {
                r.skip_value()?;
            }
            Ok(())
        })?;

        // Blocks apply in the order the tree codec visits them.
        let mut doc = ProvDocument::new();
        if let Some(block) = prefix {
            for (prefix, iri) in block? {
                let iri = iri?;
                if prefix == "default" {
                    doc.namespaces_mut().set_default(iri);
                } else {
                    doc.namespaces_mut().register(prefix, iri)?;
                }
            }
        }
        for block in elements.into_iter().flatten() {
            for (_, element) in block? {
                doc.insert_element(element?);
            }
        }
        for block in relations.into_iter().flatten() {
            for (_, relation) in block? {
                doc.add_relation(relation?);
            }
        }
        if let Some(block) = bundles {
            for (_, bundle) in block? {
                let (name, inner) = bundle?;
                *doc.bundle(name) = inner;
            }
        }
        Ok(doc)
    }

    /// One block of a document: an object whose members `read` turns
    /// into records.
    fn block<T>(
        &mut self,
        name: &str,
        read: impl FnMut(&mut Self, &Cow<'a, str>) -> Result<T, ProvError>,
    ) -> Result<Members<'a, T>, ProvError> {
        if !self.at_object() {
            return Err(ProvError::Structure(format!("'{name}' must be an object")));
        }
        self.object(read)
    }

    fn prefix_iri(&mut self, prefix: &Cow<'a, str>) -> Result<String, ProvError> {
        match self.string_or_skip()? {
            Some(iri) => Ok(iri.into_owned()),
            None => Err(ProvError::Structure(format!(
                "prefix {prefix:?} must map to a string"
            ))),
        }
    }

    fn bundle(&mut self, name: &Cow<'a, str>) -> Result<(QName, ProvDocument), ProvError> {
        Ok((self.qname(name)?, self.document()?))
    }

    fn element(&mut self, kind: ElementKind, id: &Cow<'a, str>) -> Result<Element, ProvError> {
        let mut element = Element::new(kind, self.qname(id)?);
        if !self.at_object() {
            return Err(ProvError::Structure(format!(
                "attributes of {} must be an object",
                kind.json_key()
            )));
        }
        for (key, values) in self.object(|r, _| r.attr_values())? {
            // An empty array still leaves its key behind, as
            // `parse_attrs_into` does.
            element.attributes.insert(self.qname(&key)?, values?);
        }
        Ok(element)
    }

    fn relation(
        &mut self,
        kind: RelationKind,
        rel_id: &Cow<'a, str>,
    ) -> Result<Relation, ProvError> {
        if !self.at_object() {
            return Err(ProvError::Structure(format!(
                "relation {rel_id:?} must map to an object"
            )));
        }
        let formal = |key: &str| {
            key == kind.subject_key()
                || key == kind.object_key()
                || key == "prov:time"
                || kind.extra_keys().contains(&key)
        };
        let fields = self.object(|r, key| {
            Ok(if formal(key) {
                RelationField::Argument(r.string_or_skip()?)
            } else {
                RelationField::Attribute(r.attr_values()?)
            })
        })?;
        let argument = |key: &str| match fields.iter().find(|(k, _)| k == key) {
            Some((_, Ok(RelationField::Argument(value)))) => value.as_ref(),
            _ => None,
        };
        let required = |key: &str| {
            argument(key).ok_or_else(|| {
                ProvError::Structure(format!(
                    "relation {rel_id:?} ({}) missing argument {key:?}",
                    kind.json_key()
                ))
            })
        };

        let subject = self.qname(required(kind.subject_key())?)?;
        let object = self.qname(required(kind.object_key())?)?;
        let mut rel = Relation::new(kind, subject, object);
        if !rel_id.starts_with("_:") {
            rel.id = Some(self.qname(rel_id)?);
        }
        if kind.supports_time() {
            if let Some(time) = argument("prov:time") {
                rel.time = Some(XsdDateTime::parse(time)?);
            }
        }
        for extra in kind.extra_keys() {
            if let Some(value) = argument(extra) {
                rel.extras.insert(extra.to_string(), self.qname(value)?);
            }
        }
        // Everything that isn't a formal argument is an application
        // attribute.
        for (key, field) in fields {
            if matches!(field, Ok(RelationField::Argument(_))) {
                continue;
            }
            let key = self.qname(&key)?;
            if let RelationField::Attribute(values) = field? {
                // Unlike an element's, a relation's empty array leaves
                // nothing behind: `add_attr` runs once per value.
                if !values.is_empty() {
                    rel.attributes.insert(key, values);
                }
            }
        }
        Ok(rel)
    }

    // ----- attribute values ------------------------------------------------

    /// One attribute's values: a bare value, or an array of them.
    fn attr_values(&mut self) -> Result<Vec<AttrValue>, ProvError> {
        if self.lex.peek() != Some(b'[') {
            return Ok(vec![self.attr_value()?]);
        }
        let mut values = Vec::new();
        self.items(|r| {
            values.push(r.attr_value()?);
            Ok(())
        })?;
        Ok(values)
    }

    /// One value, by the rules of the tree codec's `value_from_json`.
    fn attr_value(&mut self) -> Result<AttrValue, ProvError> {
        let lex = &mut self.lex;
        match lex.peek() {
            Some(b'"') => Ok(AttrValue::String(lex.string()?.into_owned())),
            Some(b't') => Ok(lex.literal("true").map(|()| AttrValue::Bool(true))?),
            Some(b'f') => Ok(lex.literal("false").map(|()| AttrValue::Bool(false))?),
            Some(b'-' | b'0'..=b'9') => {
                // `Int` when it is an integer that fits `i64`, `Double`
                // otherwise.
                let (text, integral) = lex.number()?;
                if let Some(i) = integral.then(|| text.parse().ok()).flatten() {
                    return Ok(AttrValue::Int(i));
                }
                match text.parse::<f64>() {
                    Ok(d) if d.is_finite() => Ok(AttrValue::Double(d)),
                    _ => Err(lex.out_of_range().into()),
                }
            }
            Some(b'{') => self.typed_value(),
            // `null`, an array in an array, or no JSON value at all.
            _ => {
                let start = lex.mark();
                lex.skip_value()?;
                Err(ProvError::BadValue(format!(
                    "unsupported attribute value: {}",
                    lex.since(start)
                )))
            }
        }
    }

    /// A `{"$": lexical, "type" | "lang": ...}` literal. Members other
    /// than those three are ignored, and so is one of the three whose
    /// value is not a string.
    fn typed_value(&mut self) -> Result<AttrValue, ProvError> {
        let (mut lexical, mut lang, mut datatype) = (None, None, None);
        self.members(|r, key| {
            let slot = match &*key {
                "$" => &mut lexical,
                "lang" => &mut lang,
                "type" => &mut datatype,
                _ => return r.skip_value(),
            };
            *slot = r.string_or_skip()?;
            Ok(())
        })?;
        let lexical =
            lexical.ok_or_else(|| ProvError::BadValue("typed value needs a '$' string".into()))?;
        if let Some(lang) = lang {
            return Ok(AttrValue::LangString(
                lexical.into_owned(),
                lang.into_owned(),
            ));
        }
        match datatype {
            Some(datatype) => AttrValue::from_lexical(&lexical, &self.qname(&datatype)?),
            None => Ok(AttrValue::String(lexical.into_owned())),
        }
    }

    /// `name` as a qualified name, parsed once per distinct spelling.
    /// (A name written with escapes is not worth a table entry.)
    fn qname(&mut self, name: &Cow<'a, str>) -> Result<QName, ProvError> {
        match name {
            Cow::Borrowed(name) => Ok(match self.names.entry(*name) {
                Entry::Occupied(known) => known.get().clone(),
                Entry::Vacant(new) => new.insert(QName::parse(name)?).clone(),
            }),
            Cow::Owned(name) => QName::parse(name),
        }
    }

    // ----- JSON ------------------------------------------------------------

    /// Runs `read` on the value at the cursor. A syntax error ends the
    /// parse. Any other error is held back as the value's outcome and
    /// the cursor moved past the value: the reference path has parsed
    /// the whole text before it objects to any of it, and it never
    /// looks at a member a later one replaces.
    fn held<T>(
        &mut self,
        read: impl FnOnce(&mut Self) -> Result<T, ProvError>,
    ) -> Result<Held<T>, ProvError> {
        let start = self.lex.mark();
        match read(self) {
            Err(syntax @ ProvError::Json(_)) => Err(syntax),
            Err(other) => {
                self.lex.rewind(start);
                self.lex.skip_value()?;
                Ok(Err(other))
            }
            Ok(value) => Ok(Ok(value)),
        }
    }

    /// Reads the object at the cursor, `read` giving each member's
    /// value from its key, and returns the members as a [`json::Map`]
    /// would hold them. Input already ascending, which is every body the
    /// store itself wrote, is not sorted again.
    fn object<T>(
        &mut self,
        mut read: impl FnMut(&mut Self, &Cow<'a, str>) -> Result<T, ProvError>,
    ) -> Result<Members<'a, T>, ProvError> {
        let mut members: Members<'a, T> = Vec::new();
        let mut ascending = true;
        self.members(|r, key| {
            let value = r.held(|r| read(r, &key))?;
            ascending &= members.last().is_none_or(|(last, _)| *last < key);
            members.push((key, value));
            Ok(())
        })?;
        if !ascending {
            members.sort_by(|a, b| a.0.cmp(&b.0));
            members.dedup_by(|later, earlier| {
                let repeated = later.0 == earlier.0;
                if repeated {
                    std::mem::swap(later, earlier);
                }
                repeated
            });
        }
        Ok(members)
    }

    /// Walks the object at the cursor (which is at its `{`), calling
    /// `each` with every key in text order, the cursor at the first
    /// byte of the key's value; `each` must leave it just past that
    /// value.
    fn members(
        &mut self,
        mut each: impl FnMut(&mut Self, Cow<'a, str>) -> Result<(), ProvError>,
    ) -> Result<(), ProvError> {
        let mut more = self.lex.enter(b'}')?;
        while more {
            let key = self.lex.key()?;
            each(self, key)?;
            more = self.lex.more(b'}')?;
        }
        Ok(())
    }

    /// Walks the array at the cursor (which is at its `[`), calling
    /// `each` with the cursor at the first byte of every item; `each`
    /// must leave it just past that item.
    fn items(
        &mut self,
        mut each: impl FnMut(&mut Self) -> Result<(), ProvError>,
    ) -> Result<(), ProvError> {
        let mut more = self.lex.enter(b']')?;
        while more {
            each(self)?;
            more = self.lex.more(b']')?;
        }
        Ok(())
    }

    /// Moves past the value at the cursor, checking that it is JSON.
    fn skip_value(&mut self) -> Result<(), ProvError> {
        Ok(self.lex.skip_value()?)
    }

    /// The string at the cursor, or `None` past any other value.
    fn string_or_skip(&mut self) -> Result<Option<Cow<'a, str>>, ProvError> {
        if self.lex.peek() == Some(b'"') {
            Ok(Some(self.lex.string()?))
        } else {
            self.skip_value().map(|()| None)
        }
    }

    fn at_object(&self) -> bool {
        self.lex.peek() == Some(b'{')
    }
}

#[cfg(test)]
mod tests {
    //! The reader against the path it replaced on the hot path:
    //! `json::parse` into a `Value`, then the tree codec's `from_json`.

    use super::*;
    use crate::tree_codec;

    fn reference(text: &str) -> Result<ProvDocument, ProvError> {
        tree_codec::from_json(&json::parse(text)?)
    }

    /// Which kind of error: malformed JSON is one kind whichever path
    /// names it.
    fn variant(e: &ProvError) -> &'static str {
        match e {
            ProvError::Json(_) => "not JSON",
            ProvError::InvalidQName(_) => "InvalidQName",
            ProvError::Structure(_) => "Structure",
            ProvError::BadValue(_) => "BadValue",
            ProvError::BadDateTime(_) => "BadDateTime",
            ProvError::Conflict(_) => "Conflict",
            other => panic!("a reader cannot raise {other:?}"),
        }
    }

    /// Both paths on `text`: equal documents, or an error of the same
    /// variant and, past the JSON level, the same message. Documents
    /// compare by their `{:?}` rendering, under which NaN equals NaN
    /// and `-0.0` differs from `0.0`.
    fn agree(text: &str) -> Result<ProvDocument, &'static str> {
        match (ProvDocument::from_json_str(text), reference(text)) {
            (Ok(direct), Ok(reference)) => {
                assert_eq!(format!("{direct:?}"), format!("{reference:?}"), "{text}");
                Ok(direct)
            }
            (Err(direct), Err(reference)) => {
                assert_eq!(variant(&direct), variant(&reference), "{text}");
                if variant(&direct) != "not JSON" {
                    assert_eq!(direct.to_string(), reference.to_string(), "{text}");
                }
                Err(variant(&direct))
            }
            (direct, reference) => {
                panic!("paths disagree on {text}\n direct: {direct:?}\n reference: {reference:?}")
            }
        }
    }

    struct SplitMix(u64);

    impl SplitMix {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }
    }

    /// An ML-run-shaped document of about `nodes` nodes that uses every
    /// value form the writer has, relations in insertion order.
    fn ml_run(seed: u64, nodes: usize) -> ProvDocument {
        let mut rng = SplitMix(seed);
        let q = |local: String| QName::new("ex", local);
        let mut doc = ProvDocument::new();
        doc.namespaces_mut().register("ex", "http://ex/").unwrap();
        doc.namespaces_mut().register("ex2", "http://ex/2").unwrap();
        doc.namespaces_mut()
            .register("yprov4ml", crate::qname::YPROV_NS)
            .unwrap();
        if seed.is_multiple_of(2) {
            doc.namespaces_mut().set_default("http://ex/default#");
        }
        doc.agent(q("user".into())).prov_type(QName::prov("Person"));
        doc.activity(q("run".into()))
            .prov_type(QName::yprov("RunExecution"))
            .start_time(XsdDateTime::new(1_700_000_000, rng.below(1_000_000) as u32))
            .attr(q("param/amp".into()), AttrValue::Bool(rng.below(2) == 0))
            .attr(
                q("param/note".into()),
                AttrValue::from("a \"quoted\" \\ λ 😀 \u{1}"),
            )
            .attr(
                q("param/title".into()),
                AttrValue::LangString("corsa".into(), "it".into()),
            );
        doc.was_associated_with(q("run".into()), q("user".into()))
            .extras
            .insert("prov:plan".into(), QName::new("ex2", "plan"));
        for e in 0..nodes.saturating_sub(2) / 3 {
            let epoch = q(format!("epoch_{e}"));
            doc.activity(epoch.clone())
                .prov_type(QName::yprov("Training"))
                .prov_type(q("Epoch".into()));
            doc.was_informed_by(epoch.clone(), q("run".into()));
            let metric = q(format!("epoch_{e}/loss"));
            let series = format!(
                r#"{{"name":"loss","steps":[{},{}],"note":"tab\tquote\""}}"#,
                rng.below(1_000),
                rng.below(1_000)
            );
            doc.entity(metric.clone())
                .prov_type(QName::yprov("Metric"))
                .attr(QName::yprov("samples"), AttrValue::Int(rng.next() as i64))
                .attr(
                    QName::yprov("last"),
                    AttrValue::Double(f64::from_bits(rng.next())),
                )
                .attr(QName::yprov("values"), AttrValue::String(series));
            let generated = doc.was_generated_by(metric.clone(), epoch.clone());
            generated.time = Some(XsdDateTime::new(1_700_000_000 + e as i64, 0));
            if e.is_multiple_of(5) {
                generated.id = Some(QName::new("ex2", format!("gen_{e}")));
                generated.add_attr(QName::prov("role"), AttrValue::from("metric"));
                generated.add_attr(QName::prov("role"), AttrValue::Int(e as i64));
            }
            let checkpoint = QName::new("ex2", format!("checkpoint_{e}"));
            doc.entity(checkpoint.clone()).attr(
                QName::yprov("shape"),
                AttrValue::Typed("3x224".into(), QName::new("ex", "shape")),
            );
            doc.was_derived_from(checkpoint.clone(), metric);
            doc.used(epoch, checkpoint);
        }
        let bundle = doc.bundle(q("meta".into()));
        bundle.entity(q("inner".into()));
        bundle.activity(q("inner-act".into()));
        bundle.used(q("inner-act".into()), q("inner".into()));
        doc
    }

    #[test]
    fn the_fixed_run_fixture_reads_the_same_both_ways() {
        let text = include_str!("../../yprov4ml/tests/fixtures/fixed_run/prov.json");
        let doc = agree(text).unwrap();
        assert!(doc.element_count() > 10);
        // And what it reads is what was written.
        assert_eq!(doc.to_json_string_pretty().unwrap(), text);
    }

    #[test]
    fn seeded_ml_run_documents_read_the_same_both_ways() {
        let mut rng = SplitMix(19);
        for seed in 0..12 {
            let nodes = 50 + rng.below(1_951) as usize;
            let mut doc = ml_run(seed, nodes);
            // Insertion order first (blocks and keys still ascending,
            // relations not canonical), then as the store holds it.
            for canonical in [false, true] {
                if canonical {
                    doc.canonicalize();
                }
                for text in [
                    doc.to_json_string().unwrap(),
                    doc.to_json_string_pretty().unwrap(),
                ] {
                    let back = agree(&text).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
                    assert_eq!(back.element_count(), doc.element_count());
                    assert_eq!(back.to_json_string().unwrap().len(), {
                        let mut sorted = doc.clone();
                        sorted.canonicalize();
                        sorted.to_json_string().unwrap().len()
                    });
                }
            }
        }
    }

    /// `levels` arrays inside each other, under an unknown top-level key.
    fn nested_arrays(levels: usize) -> String {
        format!(r#"{{"x":{}{}}}"#, "[".repeat(levels), "]".repeat(levels))
    }

    /// A bundle in a bundle in a bundle: two levels of nesting each.
    fn nested_bundles(levels: usize) -> String {
        let open = r#"{"bundle":{"ex:b":"#.repeat(levels);
        format!("{open}{{}}{}", "}}".repeat(levels))
    }

    #[test]
    fn hand_written_inputs_read_the_same_both_ways() {
        let used = |body: &str| {
            format!(r#"{{"used":{{"_:u":{{"prov:activity":"ex:a","prov:entity":"ex:e"{body}}}}}}}"#)
        };
        let attr = |value: &str| format!(r#"{{"entity":{{"ex:e":{{"ex:k":{value}}}}}}}"#);
        let ok: Vec<String> = vec![
            "{}".into(),
            " \t\r\n{ } \n".into(),
            // Blocks, ids and attribute keys out of order.
            r#"{"wasGeneratedBy":{"_:b":{"prov:entity":"ex:z","prov:activity":"ex:a"},
                "_:a":{"prov:activity":"ex:a","prov:entity":"ex:y"}},
                "used":{"ex:u2":{"prov:activity":"ex:a","prov:entity":"ex:z"},
                "_:x":{"prov:entity":"ex:y","ex:w":1,"prov:activity":"ex:a","ex:b":2}},
                "entity":{"ex:z":{"ex:k2":1,"ex:k1":2},"ex:y":{}},
                "prefix":{"ex":"http://ex/","default":"http://d/","a":"http://a/"},
                "activity":{"ex:a":{}}}"#
                .into(),
            // A repeated key keeps its last value, at every level.
            r#"{"entity":{"ex:a":{}},"entity":{"ex:b":{}}}"#.into(),
            r#"{"entity":{"ex:a":{"ex:k":1},"ex:b":{},"ex:a":{"ex:k":2}}}"#.into(),
            r#"{"entity":{"ex:a":{"ex:k":1,"ex:j":0,"ex:k":[2,3]}}}"#.into(),
            attr(r#"{"$":"1","$":"2","type":"xsd:int","type":"xsd:long"}"#),
            used(r#","prov:entity":"ex:f","ex:k":1,"ex:k":2"#),
            r#"{"prefix":{"ex":"http://a/","ex":"http://b/"}}"#.into(),
            r#"{"bundle":{"ex:b":{"entity":{"ex:x":{}}},"ex:b":{"entity":{"ex:y":{}}}}}"#.into(),
            // ... and what it replaced is never looked at.
            r#"{"entity":5,"entity":{}}"#.into(),
            r#"{"entity":{"ex:a":[],"ex:a":{}}}"#.into(),
            r#"{"entity":{"ex:a":{"ex:k":[[1]],"ex:j":null,"ex:k":1,"ex:j":2}}}"#.into(),
            used(r#","ex:k":null,"ex:k":1"#),
            // One id in two element blocks: the first block visited
            // keeps the kind, whichever comes first in the text.
            r#"{"activity":{"ex:a":{"ex:k":1}},"entity":{"ex:a":{"ex:k":2}}}"#.into(),
            // Strings.
            attr(r#""😀 😀 é \" \\ \/ \b \f \n \r \t""#),
            r#"{"entity":{"ex:a":{"ex:k":"v"},"ex:a":{"ex:j":"w"}}}"#.into(),
            r#"{"entity":{"ex:a":{}},"used":{"_:u":{"prov:activity":"ex:a","prov:entity":"ex:a"}}}"#
                .into(),
            // Numbers.
            attr("9223372036854775807"),
            attr("-9223372036854775808"),
            attr("9223372036854775808"),
            attr("-9223372036854775809"),
            attr("123456789012345678901234567890"),
            attr("[0, -1, 2.5, -2.5e-3, 1E2, 1e-400, true, false]"),
            // Typed values.
            attr(r#"{"$":"x"}"#),
            attr(r#"{"$":"x","lang":"en","type":"xsd:int"}"#),
            attr(r#"{"$":"x","lang":7,"type":"xsd:string"}"#),
            attr(r#"{"$":"x","type":7}"#),
            attr(r#"{"$":"4","type":"xsd:long","other":[1,{"a":null}]}"#),
            attr(r#"{"$":"ex:T","type":"prov:QUALIFIED_NAME"}"#),
            attr(r#"{"$":"INF","type":"xsd:double"}"#),
            attr(r#"{"$":"p","type":"ex:custom"}"#),
            // An empty array leaves its key on an element, nothing on
            // a relation.
            attr("[]"),
            used(r#","ex:k":[]"#),
            // Formal arguments that are not strings are not there.
            used(r#","prov:time":17"#),
            used(r#","prov:time":"2025-01-01T00:00:01Z","prov:role":"r""#),
            r#"{"wasDerivedFrom":{"_:d":{"prov:generatedEntity":"ex:a","prov:usedEntity":"ex:b",
                "prov:time":"not a time","prov:activity":null,"prov:usage":"ex:u"}}}"#
                .into(),
            // Unknown top-level keys are skipped.
            r#"{"x":[[1,[2,{"y":[]}]],"s",null,1e3],"entity":{"ex:a":{}}}"#.into(),
            nested_arrays(100),
            nested_bundles(3),
            nested_bundles(50),
        ];
        for text in &ok {
            if let Err(e) = agree(text) {
                panic!("{e} on {text}");
            }
        }

        let refused: Vec<(String, &str)> = vec![
            (String::new(), "not JSON"),
            ("[]".into(), "Structure"),
            ("7".into(), "Structure"),
            ("{} x".into(), "not JSON"),
            ("{}{}".into(), "not JSON"),
            (r#"{"entity":"#.into(), "not JSON"),
            (r#"{"entity":{"ex:a":{}},}"#.into(), "not JSON"),
            (r#"{"entity":{"ex:a":{"ex:k":01}}}"#.into(), "not JSON"),
            (r#"{"entity" {}}"#.into(), "not JSON"),
            (r#"{entity:{}}"#.into(), "not JSON"),
            (attr("1e400"), "not JSON"),
            (attr("-"), "not JSON"),
            (attr("1."), "not JSON"),
            (attr("tru"), "not JSON"),
            (attr("nul"), "not JSON"),
            (attr("?"), "not JSON"),
            (attr(r#""\ud800""#), "not JSON"),
            (attr(r#""\ud800A""#), "not JSON"),
            (attr(r#""\udc00""#), "not JSON"),
            (attr(r#""\x""#), "not JSON"),
            (attr(r#""\u12""#), "not JSON"),
            (attr("\"a\u{1}b\""), "not JSON"),
            (attr("\"open"), "not JSON"),
            (r#"{"x":1e400}"#.into(), "not JSON"),
            (nested_arrays(129), "not JSON"),
            (nested_bundles(65), "not JSON"),
            (attr(&format!("{}1{}", "[".repeat(127), "]".repeat(127))), "not JSON"),
            // Well-formed JSON, not PROV-JSON.
            (r#"{"entity":5}"#.into(), "Structure"),
            (r#"{"prefix":[]}"#.into(), "Structure"),
            (r#"{"bundle":"b"}"#.into(), "Structure"),
            (r#"{"bundle":{"ex:b":[]}}"#.into(), "Structure"),
            (r#"{"prefix":{"ex":42}}"#.into(), "Structure"),
            (r#"{"prefix":{"9x":"http://x/"}}"#.into(), "InvalidQName"),
            (r#"{"prefix":{"prov":"http://evil/"}}"#.into(), "Conflict"),
            (r#"{"entity":{"ex:a":[]}}"#.into(), "Structure"),
            (r#"{"entity":{"noColon":{}}}"#.into(), "InvalidQName"),
            (r#"{"entity":{"ex:a":{"noColon":1}}}"#.into(), "InvalidQName"),
            (r#"{"bundle":{"noColon":{}}}"#.into(), "InvalidQName"),
            (r#"{"used":{"_:u":7}}"#.into(), "Structure"),
            (r#"{"used":{"_:u":{"prov:activity":"ex:a"}}}"#.into(), "Structure"),
            (r#"{"used":{"_:u":{"prov:activity":"ex:a","prov:entity":5}}}"#.into(), "Structure"),
            (r#"{"used":{"u":{"prov:activity":"ex:a","prov:entity":"ex:e"}}}"#.into(), "InvalidQName"),
            (used(r#","prov:time":"yesterday""#), "BadDateTime"),
            (used(r#","noColon":1"#), "InvalidQName"),
            (used(r#","ex:k":null"#), "BadValue"),
            (
                r#"{"wasAssociatedWith":{"_:w":{"prov:activity":"ex:a","prov:agent":"ex:g","prov:plan":"p"}}}"#.into(),
                "InvalidQName",
            ),
            (attr("null"), "BadValue"),
            (attr("[1,[2]]"), "BadValue"),
            (attr("[null]"), "BadValue"),
            (attr(r#"{"$":1}"#), "BadValue"),
            (attr(r#"{"type":"xsd:int"}"#), "BadValue"),
            (attr(r#"{"$":"x","type":"xsd:int"}"#), "BadValue"),
            (attr(r#"{"$":"x","type":"noColon"}"#), "InvalidQName"),
            (attr(r#"{"$":"x","type":"xsd:dateTime"}"#), "BadDateTime"),
            (nested_bundles(3).replace("{}", r#"{"entity":7}"#), "Structure"),
            // The first error is the first in visiting order, not in
            // the text, and malformed JSON wins wherever it is.
            (
                r#"{"used":{"_:u":7},"entity":{"noColon":{}}}"#.into(),
                "InvalidQName",
            ),
            (
                r#"{"entity":{"ex:b":{"ex:k":null},"ex:a":[]}}"#.into(),
                "Structure",
            ),
            (r#"{"entity":{"noColon":{}},"x":tru}"#.into(), "not JSON"),
            (r#"{"entity":5,"x":[}"#.into(), "not JSON"),
        ];
        for (text, expected) in &refused {
            assert_eq!(agree(text), Err(*expected), "{text}");
        }
    }

    #[test]
    fn negative_zero_is_the_integer_zero() {
        // The one input the table leaves out: JSON readers differ on
        // `-0` (some read the float -0.0, `json::parse` the integer 0),
        // so there is no one reference. The rule here is the stated one:
        // an integer that fits `i64` is an `Int`.
        let doc = ProvDocument::from_json_str(r#"{"entity":{"ex:e":{"ex:k":[-0,-0.0]}}}"#).unwrap();
        let values = doc.get(&QName::new("ex", "e")).unwrap();
        let values = values.attrs(&QName::new("ex", "k"));
        assert_eq!(values[0], AttrValue::Int(0));
        assert!(matches!(values[1], AttrValue::Double(d) if d == 0.0 && d.is_sign_negative()));
    }

    #[test]
    fn syntax_errors_carry_a_position_and_read_as_invalid_json() {
        let e = ProvDocument::from_json_str("{\n  \"entity\": ?}").unwrap_err();
        assert!(matches!(&e, ProvError::Json(j) if (j.line(), j.column()) == (2, 13)));
        assert_eq!(
            e.to_string(),
            "invalid JSON: expected value at line 2 column 13"
        );
        let e = ProvDocument::from_json_str(r#"{"entity":"#).unwrap_err();
        assert_eq!(
            e.to_string(),
            "invalid JSON: EOF while parsing a value at line 1 column 10"
        );
    }

    #[test]
    fn names_are_shared_and_escaped_strings_are_cut_to_size() {
        let text = r#"{"entity":{"ex:e":{"ex:big":"a\"b\\cé plain tail"}},
            "used":{"_:1":{"prov:activity":"ex:a","prov:entity":"ex:e"},
                    "_:2":{"prov:activity":"ex:a","prov:entity":"ex:e"}}}"#;
        let doc = ProvDocument::from_json_str(text).unwrap();
        let [first, second] = doc.relations() else {
            panic!("two relations")
        };
        // Same allocation, not merely equal text.
        assert!(std::ptr::eq(first.object.local(), second.object.local()));
        let element = doc.get(&first.object).unwrap();
        assert!(std::ptr::eq(element.id.local(), first.object.local()));
        match element.attr(&QName::new("ex", "big")).unwrap() {
            AttrValue::String(s) => {
                assert_eq!(s, "a\"b\\cé plain tail");
                assert_eq!(s.capacity(), s.len());
            }
            other => panic!("{other:?}"),
        }
    }
}
