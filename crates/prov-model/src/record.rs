//! PROV element records: entities, activities and agents.
//!
//! All three element kinds share the same shape — an identifier plus a
//! multi-valued attribute map — so they are represented by a single
//! [`Element`] struct tagged with an [`ElementKind`]. Type aliases keep
//! call sites readable.

use crate::datetime::XsdDateTime;
use crate::qname::QName;
use crate::value::AttrValue;
use std::collections::BTreeMap;

/// Which of the three PROV element types a record is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ElementKind {
    /// A thing with some fixed aspects (`prov:Entity`).
    Entity,
    /// Something that occurs over a period of time (`prov:Activity`).
    Activity,
    /// Something bearing responsibility (`prov:Agent`).
    Agent,
}

impl ElementKind {
    /// The PROV-JSON top-level key for this kind (`"entity"`, ...).
    pub fn json_key(&self) -> &'static str {
        match self {
            ElementKind::Entity => "entity",
            ElementKind::Activity => "activity",
            ElementKind::Agent => "agent",
        }
    }

    /// The PROV-N statement keyword for this kind.
    pub fn provn_keyword(&self) -> &'static str {
        self.json_key()
    }

    /// All element kinds, in PROV-JSON document order.
    pub fn all() -> [ElementKind; 3] {
        [
            ElementKind::Entity,
            ElementKind::Activity,
            ElementKind::Agent,
        ]
    }
}

/// A PROV element: identifier plus multi-valued attributes.
///
/// PROV allows an attribute key to carry several values (e.g. multiple
/// `prov:type`s), hence `Vec<AttrValue>` per key. Attributes are kept in
/// a `BTreeMap` so serialization is deterministic.
#[derive(Debug, Clone, PartialEq)]
pub struct Element {
    /// The element's qualified identifier.
    pub id: QName,
    /// Which element type this is.
    pub kind: ElementKind,
    /// Attribute map; insertion order of values per key is preserved.
    pub attributes: BTreeMap<QName, Vec<AttrValue>>,
}

/// An entity record (alias of [`Element`] for readability).
pub type Entity = Element;
/// An activity record (alias of [`Element`] for readability).
pub type Activity = Element;
/// An agent record (alias of [`Element`] for readability).
pub type Agent = Element;

impl Element {
    /// Creates an element with no attributes.
    pub fn new(kind: ElementKind, id: QName) -> Self {
        Element {
            id,
            kind,
            attributes: BTreeMap::new(),
        }
    }

    /// Appends a value under `key` (multi-valued semantics).
    pub fn add_attr(&mut self, key: QName, value: AttrValue) -> &mut Self {
        self.attributes.entry(key).or_default().push(value);
        self
    }

    /// Replaces all values under `key` with a single value.
    pub fn set_attr(&mut self, key: QName, value: AttrValue) -> &mut Self {
        self.attributes.insert(key, vec![value]);
        self
    }

    /// First value under `key`, if any.
    pub fn attr(&self, key: &QName) -> Option<&AttrValue> {
        self.attributes.get(key).and_then(|v| v.first())
    }

    /// All values under `key` (empty slice when absent).
    pub fn attrs(&self, key: &QName) -> &[AttrValue] {
        self.attributes.get(key).map(Vec::as_slice).unwrap_or(&[])
    }

    /// The `prov:label`, if set.
    pub fn label(&self) -> Option<&str> {
        self.attr(&QName::prov("label")).and_then(AttrValue::as_str)
    }

    /// All `prov:type` values.
    fn prov_types(&self) -> &[AttrValue] {
        self.attrs(&QName::prov("type"))
    }

    /// True when one of the `prov:type` values equals `ty`.
    pub fn has_type(&self, ty: &QName) -> bool {
        self.prov_types()
            .iter()
            .any(|v| matches!(v, AttrValue::QualifiedName(q) if q == ty))
    }

    /// For activities: the `prov:startTime`, if set.
    pub fn start_time(&self) -> Option<XsdDateTime> {
        match self.attr(&QName::prov("startTime")) {
            Some(AttrValue::DateTime(t)) => Some(*t),
            _ => None,
        }
    }

    /// For activities: the `prov:endTime`, if set.
    pub fn end_time(&self) -> Option<XsdDateTime> {
        match self.attr(&QName::prov("endTime")) {
            Some(AttrValue::DateTime(t)) => Some(*t),
            _ => None,
        }
    }

    /// Merges another element with the same id into this one.
    ///
    /// PROV documents may legally describe the same identifier several
    /// times; the effective record is the union of the attribute values.
    /// Duplicate values under a key are collapsed.
    pub fn absorb(&mut self, other: &Element) {
        debug_assert_eq!(self.id, other.id);
        for (k, vals) in &other.attributes {
            let slot = self.attributes.entry(k.clone()).or_default();
            for v in vals {
                if !slot.contains(v) {
                    slot.push(v.clone());
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ent(name: &str) -> Element {
        Element::new(ElementKind::Entity, QName::new("ex", name))
    }

    #[test]
    fn add_attr_is_multivalued() {
        let mut e = ent("a");
        e.add_attr(QName::prov("type"), AttrValue::from(QName::new("ex", "T1")));
        e.add_attr(QName::prov("type"), AttrValue::from(QName::new("ex", "T2")));
        assert_eq!(e.prov_types().len(), 2);
        assert!(e.has_type(&QName::new("ex", "T1")));
        assert!(e.has_type(&QName::new("ex", "T2")));
        assert!(!e.has_type(&QName::new("ex", "T3")));
    }

    #[test]
    fn set_attr_replaces() {
        let mut e = ent("a");
        e.add_attr(QName::yprov("v"), AttrValue::Int(1));
        e.add_attr(QName::yprov("v"), AttrValue::Int(2));
        e.set_attr(QName::yprov("v"), AttrValue::Int(3));
        assert_eq!(e.attrs(&QName::yprov("v")), &[AttrValue::Int(3)]);
    }

    #[test]
    fn label_accessor() {
        let mut e = ent("a");
        assert_eq!(e.label(), None);
        e.set_attr(QName::prov("label"), AttrValue::from("nice name"));
        assert_eq!(e.label(), Some("nice name"));
    }

    #[test]
    fn time_accessors_require_datetime_values() {
        let mut a = Element::new(ElementKind::Activity, QName::new("ex", "act"));
        assert!(a.start_time().is_none());
        a.set_attr(QName::prov("startTime"), AttrValue::from("not a time"));
        assert!(a.start_time().is_none());
        let t = XsdDateTime::new(100, 0);
        a.set_attr(QName::prov("startTime"), AttrValue::from(t));
        a.set_attr(
            QName::prov("endTime"),
            AttrValue::from(XsdDateTime::new(200, 0)),
        );
        assert_eq!(a.start_time(), Some(t));
        assert_eq!(a.end_time().unwrap().epoch_secs, 200);
    }

    #[test]
    fn absorb_unions_and_dedups() {
        let mut a = ent("a");
        a.add_attr(QName::yprov("k"), AttrValue::Int(1));
        let mut b = ent("a");
        b.add_attr(QName::yprov("k"), AttrValue::Int(1));
        b.add_attr(QName::yprov("k"), AttrValue::Int(2));
        b.add_attr(QName::yprov("other"), AttrValue::from("x"));
        a.absorb(&b);
        assert_eq!(
            a.attrs(&QName::yprov("k")),
            &[AttrValue::Int(1), AttrValue::Int(2)]
        );
        assert_eq!(a.attr(&QName::yprov("other")).unwrap().as_str(), Some("x"));
    }

    #[test]
    fn kind_keys() {
        assert_eq!(ElementKind::Entity.json_key(), "entity");
        assert_eq!(ElementKind::Activity.json_key(), "activity");
        assert_eq!(ElementKind::Agent.json_key(), "agent");
        assert_eq!(ElementKind::all().len(), 3);
    }
}
