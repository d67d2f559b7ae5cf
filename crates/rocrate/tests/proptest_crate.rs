//! Property tests: RO-Crate metadata round-trips for arbitrary entity
//! graphs, and the parser never panics on arbitrary JSON.

use rocrate::{EntitySpec, RoCrate};
use std::collections::BTreeMap;
use std::ops::Range;
use testkit::{check, printable, Rng};

const LOWER: &[u8] = b"abcdefghijklmnopqrstuvwxyz";

fn text(rng: &mut Rng, alphabet: &[u8], lens: Range<usize>) -> String {
    let len = rng.range(lens);
    rng.string(alphabet, len)
}

/// `[a-z][a-z0-9_.-]{0,12}`
fn id(rng: &mut Rng) -> String {
    rng.string(LOWER, 1) + &text(rng, b"abcdefghijklmnopqrstuvwxyz0123456789_.-", 0..13)
}

fn entity(rng: &mut Rng) -> EntitySpec {
    let plain = printable(b"\"\\");
    let id = id(rng);
    let ty = *rng.pick(&["File", "Dataset", "Person", "SoftwareApplication"]);
    let props: BTreeMap<String, String> = (0..rng.range(0usize..4))
        .map(|_| (text(rng, LOWER, 1..9), text(rng, &plain, 0..21)))
        .collect();
    let refs: BTreeMap<String, Vec<String>> = (0..rng.range(0usize..3))
        .map(|_| {
            let targets = (0..rng.range(1usize..3)).map(|_| self::id(rng)).collect();
            (text(rng, LOWER, 1..9), targets)
        })
        .collect();
    let mut e = EntitySpec::contextual(format!("#{id}"), ty);
    for (k, v) in props {
        e = e.with_property(format!("p_{k}"), v);
    }
    for (k, targets) in refs {
        for t in targets {
            e = e.with_reference(format!("r_{k}"), format!("#{t}"));
        }
    }
    e
}

#[test]
fn metadata_roundtrips() {
    check(64, |rng, size| {
        let plain = printable(b"\"\\");
        let name = text(rng, &plain, 0..31);
        let desc = text(rng, &plain, 0..61);
        let mut crate_ = RoCrate::new(name, desc);
        // Deduplicate ids: the model allows duplicates but the
        // round-trip comparison is only meaningful without them.
        let mut seen = std::collections::BTreeSet::new();
        for _ in 0..rng.len(0..10, size) {
            let e = entity(rng);
            if seen.insert(e.id.clone()) {
                crate_.add_entity(e);
            }
        }
        let json = crate_.to_metadata_json();
        let back = RoCrate::from_metadata_json(&json).unwrap();
        assert_eq!(back, crate_);
    });
}

#[test]
fn parser_never_panics_on_arbitrary_json() {
    check(64, |rng, size| {
        let len = rng.len(0..201, size);
        let text = rng.string(&printable(b""), len);
        if let Ok(value) = json::parse(&text) {
            let _ = RoCrate::from_metadata_json(&value); // must not panic
        }
    });
}

#[test]
fn parser_never_panics_on_structured_garbage() {
    check(64, |rng, size| {
        let mut graph = Vec::new();
        for _ in 0..rng.len(0..8, size) {
            let k = text(rng, b"abcdefghijklmnopqrstuvwxyz@", 1..9);
            graph.push(json::json!({ k.as_str(): 1 }));
        }
        let value = json::json!({"@context": "x", "@graph": graph});
        let _ = RoCrate::from_metadata_json(&value); // must not panic
    });
}
