//! Generated differential tests: the PROV-JSON writer's bytes equal the
//! document's `Value` tree printed, compact and pretty, on documents
//! built to reach every ordering and escaping rule; and the bytes of the
//! first documents are the ones pinned before the tree and the writer
//! shared a printer.

mod tree_codec;

use prov_model::qname::YPROV_NS;
use prov_model::XsdDateTime;
use prov_model::{AttrValue, Element, ElementKind, ProvDocument, QName, Relation, RelationKind};
use testkit::{check, Rng};

/// Prefixes whose rendered order differs from `QName`'s: `ex` < `ex2`
/// as prefixes, but `ex2:x` < `ex:x` rendered (`-`, `.` and digits sort
/// before `:`).
const PREFIXES: &[&str] = &["a", "a0", "a-b", "ex", "ex2", "ex.x", "prov", "_p"];

/// Locals that collide across prefixes once rendered, or carry what a
/// JSON string must escape.
const LOCALS: &[&str] = &["x", "y", "0", "a:b", "q\"t", "b\\s", "é", "id000001"];

/// Strings with everything the escaper treats specially.
fn special_string(rng: &mut Rng) -> String {
    let controls: String = (0u8..0x20).map(char::from).collect();
    let pool = [
        String::new(),
        "\"".to_string(),
        "\\".to_string(),
        controls,
        "\u{2028}\u{2029}".to_string(),
        "naïve 😀 \u{7f}".to_string(),
        "plain".to_string(),
    ];
    match rng.below(3) {
        0 => rng.pick(&pool).clone(),
        _ => {
            let len = rng.below(12);
            (0..len)
                .map(|_| match rng.below(6) {
                    0 => char::from(rng.below(0x20) as u8),
                    1 => *rng.pick(&['"', '\\', '\u{2028}', 'é', '😀']),
                    _ => char::from(rng.range(b' '..b'\x7f')),
                })
                .collect()
        }
    }
}

fn name(rng: &mut Rng) -> QName {
    QName::new(*rng.pick(PREFIXES), *rng.pick(LOCALS))
}

fn double(rng: &mut Rng) -> f64 {
    const EDGES: [f64; 9] = [
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        -0.0,
        5e-324,
        1e21,
        1e-7,
        0.1,
        1e16,
    ];
    if rng.bool() {
        *rng.pick(&EDGES)
    } else {
        rng.any_f64()
    }
}

fn value(rng: &mut Rng) -> AttrValue {
    match rng.below(9) {
        0 => AttrValue::String(special_string(rng)),
        1 => AttrValue::LangString(special_string(rng), special_string(rng)),
        2 => AttrValue::Int(*rng.pick(&[i64::MIN, i64::MAX, 0, -1, 42])),
        3 => AttrValue::Int(rng.next_u64() as i64),
        4 => AttrValue::Double(double(rng)),
        5 => AttrValue::Bool(rng.bool()),
        6 => AttrValue::QualifiedName(name(rng)),
        7 => AttrValue::DateTime(XsdDateTime::new(
            rng.range(-4_000_000_000i64..4_000_000_000),
            rng.range(0u32..3) * rng.range(0u32..1_000_000),
        )),
        _ => AttrValue::Typed(special_string(rng), name(rng)),
    }
}

/// Zero to three values: none prints `[]`, one prints bare.
fn values(rng: &mut Rng) -> Vec<AttrValue> {
    (0..rng.below(4)).map(|_| value(rng)).collect()
}

/// Keys a relation body shares with its formal arguments and extras.
fn body_key(rng: &mut Rng, kind: RelationKind) -> QName {
    match rng.below(3) {
        0 => QName::parse(kind.subject_key()).unwrap(),
        1 => QName::parse(kind.object_key()).unwrap(),
        _ => name(rng),
    }
}

fn relation(rng: &mut Rng) -> Relation {
    let kind = *rng.pick(RelationKind::all());
    let mut rel = Relation::new(kind, name(rng), name(rng));
    if rng.below(3) == 0 {
        // Named: a small pool, so ids repeat within a kind.
        rel.id = Some(name(rng));
    }
    if rng.bool() {
        rel.time = Some(XsdDateTime::new(rng.range(0i64..2_000_000_000), 0));
    }
    for _ in 0..rng.below(3) {
        let key = match (rng.below(3), kind.extra_keys()) {
            (0, keys) if !keys.is_empty() => rng.pick(keys).to_string(),
            (1, _) => "prov:time".to_string(),
            _ => body_key(rng, kind).to_string(),
        };
        rel.extras.insert(key, name(rng));
    }
    for _ in 0..rng.below(4) {
        let key = body_key(rng, kind);
        for v in values(rng) {
            rel.add_attr(key.clone(), v);
        }
    }
    rel
}

fn document(rng: &mut Rng, size: usize, depth: usize) -> ProvDocument {
    let mut doc = ProvDocument::new();
    for prefix in PREFIXES.iter().filter(|p| **p != "prov") {
        if rng.bool() {
            doc.namespaces_mut()
                .register(*prefix, format!("http://ex/{prefix}/\"é"))
                .unwrap();
        }
    }
    if rng.below(4) == 0 {
        doc.namespaces_mut().register("yprov4ml", YPROV_NS).unwrap();
    }
    if rng.below(4) == 0 {
        // The tree inserts "default" after every binding, so the default
        // namespace wins over a prefix named `default`.
        doc.namespaces_mut()
            .register("default", "http://bound/")
            .unwrap();
    }
    if rng.bool() {
        doc.namespaces_mut().set_default(special_string(rng));
    }
    for _ in 0..rng.len(0..24, size) {
        let kind = *rng.pick(&ElementKind::all());
        let mut el = Element::new(kind, name(rng));
        for _ in 0..rng.below(5) {
            el.attributes.insert(name(rng), values(rng));
        }
        doc.insert_element(el);
    }
    for _ in 0..rng.len(0..24, size) {
        doc.add_relation(relation(rng));
    }
    if depth < 2 {
        for _ in 0..rng.below(3) {
            let inner = document(rng, size / 2, depth + 1);
            *doc.bundle(name(rng)) = inner;
        }
    }
    doc
}

#[test]
fn writer_matches_the_printed_value_tree() {
    check(400, |rng, size| {
        let doc = document(rng, size, 0);
        let tree = tree_codec::to_json(&doc);
        let compact = tree.to_string();
        let pretty = format!("{tree:#}");
        assert_eq!(doc.to_json_string().unwrap(), compact);
        assert_eq!(doc.to_json_string_pretty().unwrap(), pretty);
        let mut streamed = Vec::new();
        doc.write_json_pretty(&mut streamed).unwrap();
        assert_eq!(String::from_utf8(streamed).unwrap(), pretty);
    });
}

/// 64-bit FNV-1a of `bytes`, continuing from `hash`.
fn fnv1a(bytes: &[u8], mut hash: u64) -> u64 {
    for &b in bytes {
        hash = (hash ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
    }
    hash
}

#[test]
fn the_first_seeds_print_the_bytes_the_stand_in_printed() {
    // The digest of the first 64 documents, compact then pretty, taken
    // while the reference tree above was printed by a printer of its
    // own: it pins escaping and number printing, which the tree and the
    // writer now share.
    let mut hash = 0xcbf2_9ce4_8422_2325;
    for seed in 0..64 {
        let doc = document(&mut Rng::new(seed), testkit::FULL, 0);
        hash = fnv1a(doc.to_json_string().unwrap().as_bytes(), hash);
        hash = fnv1a(doc.to_json_string_pretty().unwrap().as_bytes(), hash);
    }
    assert_eq!(hash, 0x543c_a199_7a37_3d5d);
}

#[test]
fn the_generator_reaches_every_rule() {
    // The property above is only as good as its documents: check that
    // the first seeds hold every case the writer orders or escapes.
    let mut seen = [false; 8];
    for seed in 0..64 {
        let doc = document(&mut Rng::new(seed), testkit::FULL, 0);
        let text = doc.to_json_string().unwrap();
        seen[0] |= text.contains("\\u0001") && text.contains("\\\"") && text.contains("\\\\");
        seen[1] |= text.contains('\u{2028}') && text.contains("\"\"");
        seen[2] |=
            text.contains("\"NaN\"") && text.contains("\"-INF\"") && text.contains("\"1e21\"");
        seen[3] |= text.contains(&i64::MIN.to_string()) && text.contains(&i64::MAX.to_string());
        seen[4] |= text.contains("\"ex2:") && text.contains("\"ex:");
        seen[5] |= text.contains("\"_:id000001\"") && text.contains("\"bundle\"");
        seen[6] |= doc.relations().iter().any(|r| {
            r.extras.contains_key(r.kind.subject_key())
                || r.attributes
                    .keys()
                    .any(|k| r.extras.contains_key(&k.to_string()))
        });
        seen[7] |=
            text.contains("\"5e-324\"") && text.contains("\"-0.0\"") && text.contains("\"1e-7\"");
    }
    assert_eq!(seen, [true; 8]);
}
