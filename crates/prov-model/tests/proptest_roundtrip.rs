//! Property-based tests: PROV-JSON round-trips are lossless for
//! arbitrarily generated documents.

mod provn_oracle;
mod provn_parse;
mod tree_codec;

use prov_model::{AttrValue, ProvDocument, QName, Relation, RelationKind, XsdDateTime};
use std::collections::BTreeSet;
use std::ops::Range;
use testkit::{check, printable, Rng};

const LOWER: &[u8] = b"abcdefghijklmnopqrstuvwxyz";
const LOCAL_TAIL: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789_";

/// `[a-z][a-z0-9_]{0,12}`
fn local(rng: &mut Rng) -> String {
    let tail = rng.range(0usize..13);
    rng.string(LOWER, 1) + &rng.string(LOCAL_TAIL, tail)
}

fn text(rng: &mut Rng, alphabet: &[u8], lens: Range<usize>) -> String {
    let len = rng.range(lens);
    rng.string(alphabet, len)
}

fn value(rng: &mut Rng) -> AttrValue {
    let ascii = printable(b"");
    match rng.below(7) {
        0 => AttrValue::String(text(rng, &ascii, 0..25)),
        1 => AttrValue::Int(rng.next_u64() as i64),
        2 => AttrValue::Double(rng.any_f64()),
        3 => AttrValue::Bool(rng.bool()),
        4 => AttrValue::QualifiedName(QName::new("ex", local(rng))),
        5 => AttrValue::DateTime(XsdDateTime::new(
            rng.range(-4_000_000_000i64..4_000_000_000),
            rng.range(0u32..1_000_000),
        )),
        _ => AttrValue::Typed(
            text(rng, &ascii, 0..17),
            QName::new("ex", format!("t{}", local(rng))),
        ),
    }
}

fn relation_kind(rng: &mut Rng) -> RelationKind {
    *rng.pick(RelationKind::all())
}

/// A set built from `lens`-many (at full size) draws of `local`.
fn locals(rng: &mut Rng, lens: Range<usize>, size: usize) -> BTreeSet<String> {
    (0..rng.len(lens, size)).map(|_| local(rng)).collect()
}

fn attrs(rng: &mut Rng, lens: Range<usize>, size: usize) -> Vec<(String, AttrValue)> {
    (0..rng.len(lens, size))
        .map(|_| (local(rng), value(rng)))
        .collect()
}

fn relations(
    rng: &mut Rng,
    lens: Range<usize>,
    size: usize,
) -> Vec<(RelationKind, String, String)> {
    (0..rng.len(lens, size))
        .map(|_| (relation_kind(rng), local(rng), local(rng)))
        .collect()
}

#[test]
fn attribute_value_roundtrips() {
    check(128, |rng, _| {
        let v = value(rng);
        let mut doc = ProvDocument::new();
        doc.namespaces_mut().register("ex", "http://ex/").unwrap();
        let (e, k) = (QName::new("ex", "e"), QName::new("ex", "k"));
        doc.entity(e.clone()).attr(k.clone(), v.clone());
        let text = doc.to_json_string().unwrap();
        let read = ProvDocument::from_json_str(&text).unwrap();
        let back = read.get(&e).and_then(|e| e.attr(&k)).unwrap().clone();
        // NaN breaks PartialEq; compare through the typed lexical form.
        match (&v, &back) {
            (AttrValue::Double(a), AttrValue::Double(b)) => {
                assert!(
                    a.total_cmp(b) == std::cmp::Ordering::Equal,
                    "double {a:?} -> {b:?}"
                );
            }
            _ => assert_eq!(&v, &back),
        }
    });
}

#[test]
fn document_roundtrips() {
    check(128, |rng, size| {
        let entities = locals(rng, 0..8, size);
        let activities = locals(rng, 0..8, size);
        let attrs = attrs(rng, 0..12, size);
        let rels = relations(rng, 0..10, size);
        assert_document_roundtrips(entities, activities, &attrs, &rels);
    });
}

/// The smallest failing input an earlier property run recorded: one
/// entity holding a negative double near the bottom of the normal
/// range.
#[test]
fn recorded_case_entity_with_a_tiny_negative_double_roundtrips() {
    let attrs = [("a".to_string(), AttrValue::Double(-3.5140193849367334e-302))];
    assert_document_roundtrips(["a".to_string()].into(), BTreeSet::new(), &attrs, &[]);
}

/// Builds a document from the drawn names (entities `e_*`, activities
/// `a_*`, attributes `k_*` on the first entity, relations `s_*` to
/// `o_*`) and holds its PROV-JSON round trip to the original.
fn assert_document_roundtrips(
    entities: BTreeSet<String>,
    activities: BTreeSet<String>,
    attrs: &[(String, AttrValue)],
    rels: &[(RelationKind, String, String)],
) {
    let mut doc = ProvDocument::new();
    doc.namespaces_mut().register("ex", "http://ex/").unwrap();

    let entities: Vec<String> = entities.into_iter().map(|e| format!("e_{e}")).collect();
    let activities: Vec<String> = activities.into_iter().map(|a| format!("a_{a}")).collect();
    for e in &entities {
        doc.entity(QName::new("ex", e));
    }
    for a in &activities {
        doc.activity(QName::new("ex", a));
    }
    // Attach attributes to the first entity if any.
    if let Some(first) = entities.first() {
        for (k, v) in attrs {
            // NaN values break Vec::contains-based dedup in absorb();
            // documents still roundtrip, but equality comparison would
            // be vacuous, so skip NaN here (covered by the value test).
            if matches!(v, AttrValue::Double(d) if d.is_nan()) {
                continue;
            }
            doc.entity(QName::new("ex", first))
                .attr(QName::new("ex", format!("k_{k}")), v.clone());
        }
    }
    for (kind, s, o) in rels {
        doc.add_relation(prov_model::Relation::new(
            *kind,
            QName::new("ex", format!("s_{s}")),
            QName::new("ex", format!("o_{o}")),
        ));
    }

    let json = doc.to_json_string().unwrap();
    let mut back = ProvDocument::from_json_str(&json).unwrap();
    let mut orig = doc.clone();
    orig.canonicalize();
    back.canonicalize();
    assert_eq!(orig, back);
}

#[test]
fn provn_roundtrips_documents() {
    check(128, |rng, size| {
        let entities = locals(rng, 0..8, size);
        let rels = relations(rng, 0..8, size);
        let mut plain = printable(b"");
        plain.extend_from_slice(b"\n\r");
        let labels: Vec<String> = (0..rng.len(0..4, size))
            .map(|_| text(rng, &plain, 0..17))
            .collect();

        let mut doc = ProvDocument::new();
        doc.namespaces_mut().register("ex", "http://ex/").unwrap();
        let entities: Vec<String> = entities.into_iter().map(|e| format!("e_{e}")).collect();
        for (i, e) in entities.iter().enumerate() {
            let b = doc.entity(QName::new("ex", e));
            if let Some(l) = labels.get(i % labels.len().max(1)) {
                if !l.is_empty() {
                    b.label(l.clone());
                }
            }
        }
        for (kind, s, o) in &rels {
            let mut rel = Relation::new(
                *kind,
                QName::new("ex", format!("s_{s}")),
                QName::new("ex", format!("o_{o}")),
            );
            // Each optional argument, present or absent.
            for key in kind.extra_keys() {
                if rng.bool() {
                    rel = rel.with_extra(*key, QName::new("ex", format!("x_{}", local(rng))));
                }
            }
            if kind.supports_time() && rng.bool() {
                rel = rel.with_time(datetime(rng));
            }
            doc.add_relation(rel);
        }
        let text = prov_model::provn::to_provn(&doc);
        let mut parsed = provn_parse::from_provn(&text).unwrap();
        let mut orig = doc.clone();
        orig.canonicalize();
        parsed.canonicalize();
        assert_eq!(orig, parsed, "PROV-N text:\n{}", text);
    });
}

fn datetime(rng: &mut Rng) -> XsdDateTime {
    XsdDateTime::new(
        rng.range(-4_000_000_000i64..4_000_000_000),
        rng.range(0u32..1_000_000),
    )
}

/// A document using every part of the PROV-N writer: a default
/// namespace, elements of each kind with attributes of every value kind
/// (strings holding quotes and backslashes among them), activities with
/// and without times, relations of every kind with and without an id,
/// a time and each optional argument, and a bundle.
fn provn_document(rng: &mut Rng, size: usize, depth: usize) -> ProvDocument {
    const EXTRA_KEYS: &[&str] = &[
        "prov:starter",
        "prov:ender",
        "prov:activity",
        "prov:generation",
        "prov:usage",
        "prov:plan",
        "ex:other",
    ];
    let ascii = printable(b"");
    let mut doc = ProvDocument::new();
    doc.namespaces_mut().register("ex", "http://ex/").unwrap();
    if rng.bool() {
        doc.namespaces_mut().set_default("http://default/");
    }
    let attributes = |rng: &mut Rng| {
        let mut out: Vec<(QName, AttrValue)> = attrs(rng, 0..4, size)
            .into_iter()
            .map(|(k, v)| match rng.below(4) {
                0 => (
                    QName::new("ex", k),
                    AttrValue::LangString(text(rng, &ascii, 0..9), "en".into()),
                ),
                _ => (QName::new("ex", k), v),
            })
            .collect();
        if rng.below(4) == 0 {
            out.push((
                QName::prov("label"),
                AttrValue::from(text(rng, &ascii, 0..9)),
            ));
        }
        out
    };
    for e in locals(rng, 0..6, size) {
        let el = doc.entity(QName::new("ex", format!("e_{e}"))).finish();
        for (k, v) in attributes(rng) {
            el.add_attr(k, v);
        }
    }
    for a in locals(rng, 0..6, size) {
        let mut b = doc.activity(QName::new("ex", format!("a_{a}")));
        if rng.bool() {
            b = b.start_time(datetime(rng));
        }
        if rng.bool() {
            b = b.end_time(datetime(rng));
        }
        let el = b.finish();
        for (k, v) in attributes(rng) {
            el.add_attr(k, v);
        }
    }
    for g in locals(rng, 0..4, size) {
        doc.agent(QName::new("ex", format!("g_{g}")));
    }
    for (kind, s, o) in relations(rng, 0..12, size) {
        let mut rel = Relation::new(
            kind,
            QName::new("ex", format!("s_{s}")),
            QName::new("ex", format!("o_{o}")),
        );
        if rng.bool() {
            rel = rel.with_id(QName::new("ex", format!("r_{}", local(rng))));
        }
        if rng.bool() {
            rel = rel.with_time(datetime(rng));
        }
        for key in EXTRA_KEYS {
            if rng.below(3) == 0 {
                rel = rel.with_extra(*key, QName::new("ex", format!("x_{}", local(rng))));
            }
        }
        for (k, v) in attributes(rng) {
            rel.add_attr(k, v);
        }
        doc.add_relation(rel);
    }
    if depth > 0 && rng.below(4) == 0 {
        let inner = provn_document(rng, size / 2, depth - 1);
        *doc.bundle(QName::new("ex", format!("b_{}", local(rng)))) = inner;
    }
    doc
}

#[test]
fn provn_writer_matches_its_oracle() {
    check(128, |rng, size| {
        let doc = provn_document(rng, size, 1);
        assert_eq!(
            prov_model::provn::to_provn(&doc),
            provn_oracle::to_provn(&doc)
        );
    });
}

#[test]
fn turtle_writer_never_panics() {
    check(128, |rng, size| {
        let entities = locals(rng, 0..8, size);
        let attrs = attrs(rng, 0..8, size);
        let rels = relations(rng, 0..8, size);

        let mut doc = ProvDocument::new();
        doc.namespaces_mut().register("ex", "http://ex/").unwrap();
        for e in &entities {
            doc.entity(QName::new("ex", format!("e_{e}")));
        }
        if let Some(first) = entities.iter().next() {
            for (k, v) in &attrs {
                doc.entity(QName::new("ex", format!("e_{first}")))
                    .attr(QName::new("ex", format!("k_{k}")), v.clone());
            }
        }
        for (kind, s, o) in &rels {
            doc.add_relation(prov_model::Relation::new(
                *kind,
                QName::new("ex", format!("s_{s}")),
                QName::new("ex", format!("o_{o}")),
            ));
        }
        let ttl = prov_model::turtle::to_turtle(&doc);
        assert!(ttl.contains("@prefix prov:"));
    });
}

#[test]
fn provn_parser_never_panics_on_garbage() {
    check(128, |rng, size| {
        let mut alphabet = printable(b"");
        alphabet.push(b'\n');
        let len = rng.len(0..301, size);
        let text = rng.string(&alphabet, len);
        let _ = provn_parse::from_provn(&text); // must not panic
    });
}

#[test]
fn provjson_parser_never_panics_on_arbitrary_json() {
    check(128, |rng, size| {
        let ascii = printable(b"");
        let keys: Vec<String> = (0..rng.len(0..8, size))
            .map(|_| {
                text(
                    rng,
                    b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ:@$_",
                    1..13,
                )
            })
            .collect();
        let values: Vec<json::Value> = (0..rng.len(0..8, size))
            .map(|_| match rng.below(6) {
                0 => json::json!(rng.next_u64() as i64),
                1 => json::json!(text(rng, &ascii, 0..21)),
                2 => json::json!(null),
                3 => json::json!([1, "x", {}]),
                4 => json::json!({"$": 5}),
                _ => json::json!({"$": "x", "type": 7}),
            })
            .collect();

        // Structured garbage at both nesting levels.
        let mut top = json::Map::new();
        for (k, v) in keys.iter().zip(&values) {
            top.insert(k.clone(), v.clone());
        }
        let top = json::Value::Object(top);
        // And as element blocks with garbage attribute objects.
        let nested = json::json!({
            "entity": top.clone(),
            "used": { "_:id1": top.clone() },
        });
        for garbage in [top, nested] {
            let oracle = tree_codec::from_json(&garbage); // must not panic
                                                          // The reader every upload runs reads the printed garbage to
                                                          // the same document, or fails with the same error.
            let text = garbage.to_string();
            let direct = ProvDocument::from_json_str(&text);
            assert_eq!(format!("{direct:?}"), format!("{oracle:?}"), "{text}");
        }
    });
}

#[test]
fn serialization_is_idempotent() {
    check(128, |rng, size| {
        let names = locals(rng, 1..6, size);
        let mut doc = ProvDocument::new();
        doc.namespaces_mut().register("ex", "http://ex/").unwrap();
        let names: Vec<String> = names.into_iter().collect();
        for w in names.windows(2) {
            doc.entity(QName::new("ex", &w[0]));
            doc.entity(QName::new("ex", &w[1]));
            doc.was_derived_from(QName::new("ex", &w[0]), QName::new("ex", &w[1]));
        }
        let j1 = doc.to_json_string().unwrap();
        let j2 = ProvDocument::from_json_str(&j1).unwrap();
        assert_eq!(j1, j2.to_json_string().unwrap());
    });
}

#[test]
fn datetime_parse_format_roundtrip() {
    check(128, |rng, _| {
        let s = rng.range(-10_000_000_000i64..10_000_000_000);
        let us = rng.range(0u32..1_000_000);
        let t = XsdDateTime::new(s, us);
        let back = XsdDateTime::parse(&t.to_string()).unwrap();
        assert_eq!(t, back);
    });
}
