//! PROV-JSON entry points and the canonical relation order.
//!
//! The text is written by [`crate::json_stream`] and read by
//! `json_read`, each in one pass with no `json::Value` tree in between.
//! Both follow the W3C PROV-JSON member-submission layout: a top-level
//! object with a `prefix` block, one block per element kind keyed by
//! qualified identifier, one block per relation kind keyed by relation
//! identifier (blank-node style `_:idN` keys for anonymous relations),
//! and a `bundle` block of nested documents.

use crate::document::ProvDocument;
use crate::error::ProvError;
use crate::qname::QName;
use crate::relation::Relation;
use std::cmp::Ordering;

impl ProvDocument {
    /// Serializes to a compact PROV-JSON string.
    pub fn to_json_string(&self) -> Result<String, ProvError> {
        crate::json_stream::to_string(self, false)
    }

    /// Serializes to a pretty-printed PROV-JSON string.
    pub fn to_json_string_pretty(&self) -> Result<String, ProvError> {
        crate::json_stream::to_string(self, true)
    }

    /// Parses a PROV-JSON string into a document, without a `Value`
    /// tree in between; malformed JSON is a [`ProvError::Json`].
    pub fn from_json_str(s: &str) -> Result<Self, ProvError> {
        crate::json_read::read_document(s)
    }

    /// Reorders relations into the canonical (kind, then textual) order
    /// used by the serializer, recursively through bundles.
    ///
    /// After `canonicalize`, two documents with the same content compare
    /// equal regardless of relation insertion order.
    pub fn canonicalize(&mut self) {
        sort_relations(self.relations_mut());
        let names: Vec<QName> = self.iter_bundles().map(|(n, _)| n.clone()).collect();
        for name in names {
            self.bundle(name).canonicalize();
        }
    }
}

/// Puts `relations` in canonical order (a stable sort); a list already
/// in order, which is every document the store holds, is left alone.
pub(crate) fn sort_relations(relations: &mut [Relation]) {
    let ordered = relations
        .windows(2)
        .all(|pair| relation_order(&pair[0], &pair[1]).is_le());
    if !ordered {
        relations.sort_by(relation_order);
    }
}

/// The canonical order of relations: position of the kind in
/// [`crate::RelationKind::all`], then subject and object as their rendered
/// `prefix:local` strings compare, then (only when those three tie) the
/// `{:?}` rendering of id, time and extras. No allocation before the
/// tie-break.
pub(crate) fn relation_order(a: &Relation, b: &Relation) -> Ordering {
    // `RelationKind` derives `Ord` from its declaration order, which is
    // the order of `RelationKind::all()`.
    a.kind
        .cmp(&b.kind)
        .then_with(|| rendered_order(&a.subject, &b.subject))
        .then_with(|| rendered_order(&a.object, &b.object))
        .then_with(|| {
            let rest = |r: &Relation| format!("{:?}{:?}{:?}", r.id, r.time, r.extras);
            rest(a).cmp(&rest(b))
        })
}

/// How `a.to_string()` and `b.to_string()` compare, without rendering
/// either. Comparing prefix then local is not the same thing: `:`
/// sorts after the digits, so `ex2:a` < `ex:a`.
pub(crate) fn rendered_order(a: &QName, b: &QName) -> Ordering {
    if a.prefix() == b.prefix() {
        return a.local().cmp(b.local());
    }
    rendered_bytes(a).cmp(rendered_bytes(b))
}

/// The bytes of `q.to_string()`.
pub(crate) fn rendered_bytes(q: &QName) -> impl Iterator<Item = u8> + '_ {
    let prefix = q.prefix().bytes();
    prefix.chain(std::iter::once(b':')).chain(q.local().bytes())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::qname::YPROV_NS;
    use crate::relation::RelationKind;
    use crate::tree_codec;
    use crate::value::AttrValue;
    use crate::XsdDateTime;

    fn q(local: &str) -> QName {
        QName::new("ex", local)
    }

    fn sample_doc() -> ProvDocument {
        let mut doc = ProvDocument::new();
        doc.namespaces_mut().register("ex", "http://ex/").unwrap();
        doc.namespaces_mut().register("yprov4ml", YPROV_NS).unwrap();
        doc.entity(q("dataset"))
            .label("MODIS patches")
            .attr(QName::yprov("patches"), AttrValue::Int(800_000));
        doc.entity(q("model"))
            .attr(QName::yprov("loss"), AttrValue::Double(0.125))
            .attr(QName::yprov("params"), AttrValue::Double(1.4e9));
        doc.activity(q("train"))
            .start_time(XsdDateTime::new(1_000, 0))
            .end_time(XsdDateTime::new(8_200, 500));
        doc.agent(q("researcher"));
        doc.used(q("train"), q("dataset"))
            .add_attr(QName::prov("role"), AttrValue::from("training-input"));
        doc.was_generated_by(q("model"), q("train"));
        doc.was_associated_with(q("train"), q("researcher"));
        doc.was_derived_from(q("model"), q("dataset"));
        doc
    }

    /// The reference [`relation_order`] is pinned to: the key the sort used
    /// to build for every relation, four strings each.
    fn relation_sort_key(r: &Relation) -> (usize, String, String, String) {
        let kind_pos = RelationKind::all()
            .iter()
            .position(|k| *k == r.kind)
            .unwrap_or(usize::MAX);
        (
            kind_pos,
            r.subject.to_string(),
            r.object.to_string(),
            format!("{:?}{:?}{:?}", r.id, r.time, r.extras),
        )
    }

    /// Relations that tie and nearly tie in every component of the
    /// order: few subjects and objects (so pairs repeat), prefixes that
    /// differ only from the `:` position on (`-`, `.` and digits sort
    /// before it, letters after), named and anonymous ids, times,
    /// extras.
    fn order_corpus(seed: u64, len: usize) -> Vec<Relation> {
        let mut state = seed;
        let mut below = move |n: u64| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (state >> 33) % n
        };
        let prefixes = ["ex", "ex2", "ex-a", "ex.b", "exa", "e", "prov"];
        let locals = ["a", "b", "a:b", "a/b", "2", "A"];
        let name = |below: &mut dyn FnMut(u64) -> u64| {
            QName::new(
                prefixes[below(prefixes.len() as u64) as usize],
                locals[below(locals.len() as u64) as usize],
            )
        };
        (0..len)
            .map(|_| {
                let kind = RelationKind::all()[below(5) as usize * 3];
                let mut rel = Relation::new(kind, name(&mut below), name(&mut below));
                if below(3) == 0 {
                    rel.id = Some(name(&mut below));
                }
                if below(3) == 0 {
                    rel.time = Some(XsdDateTime::new(below(3) as i64, 0));
                }
                if below(4) == 0 {
                    rel.extras.insert("prov:plan".into(), name(&mut below));
                }
                if below(4) == 0 {
                    rel.add_attr(QName::prov("role"), AttrValue::Int(below(2) as i64));
                }
                rel
            })
            .collect()
    }

    #[test]
    fn relation_order_is_the_order_of_the_old_sort_key() {
        for seed in 0..8 {
            let corpus = order_corpus(seed, 400);
            let mut by_key = corpus.clone();
            by_key.sort_by_cached_key(relation_sort_key);
            let mut by_order = corpus.clone();
            sort_relations(&mut by_order);
            assert_eq!(by_order, by_key, "seed {seed}");
            // Sorted input is recognised, and stays as it is.
            sort_relations(&mut by_order);
            assert_eq!(by_order, by_key);
            for a in corpus.iter().take(60) {
                for b in corpus.iter().take(60) {
                    let keys = relation_sort_key(a).cmp(&relation_sort_key(b));
                    assert_eq!(relation_order(a, b), keys, "{a:?} / {b:?}");
                }
            }
        }
        // The case the allocation-free comparison could get wrong.
        let (short, long) = (QName::new("ex", "a"), QName::new("ex2", "a"));
        assert!(short < long, "QName's own order: prefix, then local");
        assert_eq!(rendered_order(&short, &long), Ordering::Greater);
        assert_eq!(short.to_string().cmp(&long.to_string()), Ordering::Greater);
    }

    #[test]
    fn roundtrip_preserves_document() {
        let mut doc = sample_doc();
        let json = doc.to_json_string_pretty().unwrap();
        let mut back = ProvDocument::from_json_str(&json).unwrap();
        doc.canonicalize();
        back.canonicalize();
        assert_eq!(doc, back);
    }

    #[test]
    fn json_level_idempotence() {
        let doc = sample_doc();
        let j1 = tree_codec::to_json(&doc);
        let back = tree_codec::from_json(&j1).unwrap();
        let j2 = tree_codec::to_json(&back);
        assert_eq!(j1, j2);
    }

    #[test]
    fn serializes_expected_blocks() {
        let doc = sample_doc();
        let v = tree_codec::to_json(&doc);
        assert!(v.get("prefix").is_some());
        assert!(v.get("entity").unwrap().get("ex:dataset").is_some());
        assert!(v.get("activity").unwrap().get("ex:train").is_some());
        assert!(v.get("used").is_some());
        assert!(v.get("wasGeneratedBy").is_some());
        // No empty blocks.
        assert!(v.get("hadMember").is_none());
    }

    #[test]
    fn multivalued_attributes_roundtrip() {
        let mut doc = ProvDocument::new();
        doc.namespaces_mut().register("ex", "http://ex/").unwrap();
        doc.entity(q("e"))
            .prov_type(q("TypeA"))
            .prov_type(q("TypeB"));
        let json = tree_codec::to_json(&doc);
        let tv = &json["entity"]["ex:e"]["prov:type"];
        assert!(tv.is_array(), "multi-valued attr must serialize as array");
        let back = tree_codec::from_json(&json).unwrap();
        let e = back.get(&q("e")).unwrap();
        assert!(e.has_type(&q("TypeA")));
        assert!(e.has_type(&q("TypeB")));
    }

    #[test]
    fn special_float_values_roundtrip() {
        let mut doc = ProvDocument::new();
        doc.namespaces_mut().register("ex", "http://ex/").unwrap();
        doc.entity(q("e"))
            .attr(QName::yprov("nan"), AttrValue::Double(f64::NAN))
            .attr(QName::yprov("inf"), AttrValue::Double(f64::INFINITY))
            .attr(QName::yprov("whole"), AttrValue::Double(3.0));
        let json = doc.to_json_string().unwrap();
        let back = ProvDocument::from_json_str(&json).unwrap();
        let e = back.get(&q("e")).unwrap();
        match e.attr(&QName::yprov("nan")).unwrap() {
            AttrValue::Double(d) => assert!(d.is_nan()),
            other => panic!("expected NaN double, got {other:?}"),
        }
        assert_eq!(
            e.attr(&QName::yprov("inf")),
            Some(&AttrValue::Double(f64::INFINITY))
        );
        assert_eq!(
            e.attr(&QName::yprov("whole")),
            Some(&AttrValue::Double(3.0))
        );
    }

    #[test]
    fn bundles_roundtrip() {
        let mut doc = ProvDocument::new();
        doc.namespaces_mut().register("ex", "http://ex/").unwrap();
        doc.bundle(q("runmeta")).entity(q("inner"));
        let json = doc.to_json_string().unwrap();
        let back = ProvDocument::from_json_str(&json).unwrap();
        assert!(back
            .get_bundle(&q("runmeta"))
            .unwrap()
            .get(&q("inner"))
            .is_some());
    }

    #[test]
    fn named_relations_keep_their_id() {
        let mut doc = ProvDocument::new();
        doc.namespaces_mut().register("ex", "http://ex/").unwrap();
        doc.entity(q("e"));
        doc.activity(q("a"));
        let rel = Relation::new(RelationKind::Used, q("a"), q("e")).with_id(q("use1"));
        doc.add_relation(rel);
        let json = tree_codec::to_json(&doc);
        assert!(json["used"].get("ex:use1").is_some());
        let back = tree_codec::from_json(&json).unwrap();
        assert_eq!(back.relations()[0].id, Some(q("use1")));
    }

    #[test]
    fn parse_rejects_malformed_documents() {
        for bad in [
            "[]",
            r#"{"entity": 5}"#,
            r#"{"entity": {"noColon": {}}}"#,
            r#"{"used": {"_:id1": {"prov:activity": "ex:a"}}}"#, // missing prov:entity
            r#"{"prefix": {"ex": 42}}"#,
        ] {
            assert!(
                ProvDocument::from_json_str(bad).is_err(),
                "should reject {bad}"
            );
        }
    }

    #[test]
    fn parse_accepts_external_style_document() {
        // Hand-written PROV-JSON resembling the paper's Figure 1 output.
        let src = r#"{
            "prefix": {"ex": "http://example.org/", "default": "http://example.org/d/"},
            "entity": {
                "ex:model.ckpt": {"prov:label": "checkpoint", "ex:bytes": 123456},
                "ex:dataset": {"prov:type": {"$": "ex:Dataset", "type": "prov:QUALIFIED_NAME"}}
            },
            "activity": {
                "ex:training": {"prov:startTime": {"$": "2025-01-01T00:00:00Z", "type": "xsd:dateTime"}}
            },
            "used": {
                "_:id1": {"prov:activity": "ex:training", "prov:entity": "ex:dataset",
                          "prov:time": "2025-01-01T00:00:01Z"}
            },
            "wasGeneratedBy": {
                "_:id2": {"prov:entity": "ex:model.ckpt", "prov:activity": "ex:training"}
            }
        }"#;
        let doc = ProvDocument::from_json_str(src).unwrap();
        assert_eq!(doc.element_count(), 3);
        assert_eq!(doc.relation_count(), 2);
        assert_eq!(doc.namespaces().default_ns(), Some("http://example.org/d/"));
        let used = doc.relations_of(RelationKind::Used).next().unwrap();
        assert_eq!(used.time.unwrap().epoch_secs, 1_735_689_601);
        let ds = doc.get(&q("dataset")).unwrap();
        assert!(ds.has_type(&q("Dataset")));
    }

    #[test]
    fn lang_strings_roundtrip() {
        let mut doc = ProvDocument::new();
        doc.namespaces_mut().register("ex", "http://ex/").unwrap();
        doc.entity(q("e")).attr(
            QName::prov("label"),
            AttrValue::LangString("modello".into(), "it".into()),
        );
        let json = doc.to_json_string().unwrap();
        let back = ProvDocument::from_json_str(&json).unwrap();
        assert_eq!(
            back.get(&q("e")).unwrap().attr(&QName::prov("label")),
            Some(&AttrValue::LangString("modello".into(), "it".into()))
        );
    }
}
