//! PROV relations (the edges of the provenance graph).
//!
//! Each relation kind has a *subject* and an *object* with
//! kind-specific formal argument names (e.g. `used` relates a
//! `prov:activity` to a `prov:entity`), an optional identifier, an
//! optional time, optional secondary arguments (e.g. the `prov:plan` of an
//! association) and arbitrary extra attributes.

use crate::datetime::XsdDateTime;
use crate::qname::QName;
use crate::value::AttrValue;
use std::collections::BTreeMap;
use std::fmt;

/// The fourteen standard PROV relation kinds supported by PROV-JSON.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum RelationKind {
    /// Activity used an entity (`used`).
    Used,
    /// Entity was generated by an activity (`wasGeneratedBy`).
    WasGeneratedBy,
    /// Activity was informed by another activity (`wasInformedBy`).
    WasInformedBy,
    /// Activity was started by an entity trigger (`wasStartedBy`).
    WasStartedBy,
    /// Activity was ended by an entity trigger (`wasEndedBy`).
    WasEndedBy,
    /// Entity was invalidated by an activity (`wasInvalidatedBy`).
    WasInvalidatedBy,
    /// Entity was derived from another entity (`wasDerivedFrom`).
    WasDerivedFrom,
    /// Entity was attributed to an agent (`wasAttributedTo`).
    WasAttributedTo,
    /// Activity was associated with an agent (`wasAssociatedWith`).
    WasAssociatedWith,
    /// Agent acted on behalf of another agent (`actedOnBehalfOf`).
    ActedOnBehalfOf,
    /// Generic influence (`wasInfluencedBy`).
    WasInfluencedBy,
    /// Entity specializes another entity (`specializationOf`).
    SpecializationOf,
    /// Entity is an alternate of another entity (`alternateOf`).
    AlternateOf,
    /// Collection had a member (`hadMember`).
    HadMember,
}

impl RelationKind {
    /// All relation kinds, in PROV-JSON document order: declaration
    /// order, so a kind's discriminant is its position here.
    pub const fn all() -> &'static [RelationKind] {
        use RelationKind::*;
        &[
            Used,
            WasGeneratedBy,
            WasInformedBy,
            WasStartedBy,
            WasEndedBy,
            WasInvalidatedBy,
            WasDerivedFrom,
            WasAttributedTo,
            WasAssociatedWith,
            ActedOnBehalfOf,
            WasInfluencedBy,
            SpecializationOf,
            AlternateOf,
            HadMember,
        ]
    }

    /// The PROV-JSON top-level key for this kind.
    pub fn json_key(&self) -> &'static str {
        use RelationKind::*;
        match self {
            Used => "used",
            WasGeneratedBy => "wasGeneratedBy",
            WasInformedBy => "wasInformedBy",
            WasStartedBy => "wasStartedBy",
            WasEndedBy => "wasEndedBy",
            WasInvalidatedBy => "wasInvalidatedBy",
            WasDerivedFrom => "wasDerivedFrom",
            WasAttributedTo => "wasAttributedTo",
            WasAssociatedWith => "wasAssociatedWith",
            ActedOnBehalfOf => "actedOnBehalfOf",
            WasInfluencedBy => "wasInfluencedBy",
            SpecializationOf => "specializationOf",
            AlternateOf => "alternateOf",
            HadMember => "hadMember",
        }
    }

    /// Parses a PROV-JSON key back into a kind.
    pub fn from_json_key(key: &str) -> Option<RelationKind> {
        RelationKind::all()
            .iter()
            .copied()
            .find(|k| k.json_key() == key)
    }

    /// Formal argument name of the relation's subject, as used in
    /// PROV-JSON (e.g. `prov:activity` for `used`).
    pub fn subject_key(&self) -> &'static str {
        use RelationKind::*;
        match self {
            Used => "prov:activity",
            WasGeneratedBy => "prov:entity",
            WasInformedBy => "prov:informed",
            WasStartedBy => "prov:activity",
            WasEndedBy => "prov:activity",
            WasInvalidatedBy => "prov:entity",
            WasDerivedFrom => "prov:generatedEntity",
            WasAttributedTo => "prov:entity",
            WasAssociatedWith => "prov:activity",
            ActedOnBehalfOf => "prov:delegate",
            WasInfluencedBy => "prov:influencee",
            SpecializationOf => "prov:specificEntity",
            AlternateOf => "prov:alternate1",
            HadMember => "prov:collection",
        }
    }

    /// Formal argument name of the relation's object.
    pub fn object_key(&self) -> &'static str {
        use RelationKind::*;
        match self {
            Used => "prov:entity",
            WasGeneratedBy => "prov:activity",
            WasInformedBy => "prov:informant",
            WasStartedBy => "prov:trigger",
            WasEndedBy => "prov:trigger",
            WasInvalidatedBy => "prov:activity",
            WasDerivedFrom => "prov:usedEntity",
            WasAttributedTo => "prov:agent",
            WasAssociatedWith => "prov:agent",
            ActedOnBehalfOf => "prov:responsible",
            WasInfluencedBy => "prov:influencer",
            SpecializationOf => "prov:generalEntity",
            AlternateOf => "prov:alternate2",
            HadMember => "prov:entity",
        }
    }

    /// Secondary (optional) formal argument names for this kind.
    pub fn extra_keys(&self) -> &'static [&'static str] {
        use RelationKind::*;
        match self {
            WasStartedBy => &["prov:starter"],
            WasEndedBy => &["prov:ender"],
            WasDerivedFrom => &["prov:activity", "prov:generation", "prov:usage"],
            WasAssociatedWith => &["prov:plan"],
            ActedOnBehalfOf => &["prov:activity"],
            _ => &[],
        }
    }

    /// True when PROV-JSON allows a `prov:time` argument for this kind.
    pub fn supports_time(&self) -> bool {
        use RelationKind::*;
        matches!(
            self,
            Used | WasGeneratedBy | WasStartedBy | WasEndedBy | WasInvalidatedBy
        )
    }
}

impl fmt::Display for RelationKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.json_key())
    }
}

/// Identifier of a relation instance inside a document.
///
/// PROV-JSON keys every relation instance; named relations use their
/// qualified name and anonymous ones get a blank-node style local key
/// (`_:idN`) assigned at serialization time.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum RelationId {
    /// A relation with an explicit qualified identifier.
    Named(QName),
    /// An anonymous relation, keyed positionally.
    Anonymous(u64),
}

impl fmt::Display for RelationId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RelationId::Named(q) => write!(f, "{q}"),
            RelationId::Anonymous(n) => write!(f, "_:id{n}"),
        }
    }
}

/// A single relation instance.
#[derive(Debug, Clone, PartialEq)]
pub struct Relation {
    /// Explicit identifier, when the relation is named.
    pub id: Option<QName>,
    /// The relation kind.
    pub kind: RelationKind,
    /// The subject (source) element.
    pub subject: QName,
    /// The object (target) element.
    pub object: QName,
    /// Optional `prov:time` (usage/generation/start/end/invalidation).
    pub time: Option<XsdDateTime>,
    /// Secondary formal arguments (`prov:plan`, `prov:starter`, ...),
    /// keyed by their PROV-JSON argument name.
    pub extras: BTreeMap<String, QName>,
    /// Additional application attributes.
    pub attributes: BTreeMap<QName, Vec<AttrValue>>,
}

impl Relation {
    /// Creates a bare relation between `subject` and `object`.
    pub fn new(kind: RelationKind, subject: QName, object: QName) -> Self {
        Relation {
            id: None,
            kind,
            subject,
            object,
            time: None,
            extras: BTreeMap::new(),
            attributes: BTreeMap::new(),
        }
    }

    /// Sets the explicit identifier.
    pub fn with_id(mut self, id: QName) -> Self {
        self.id = Some(id);
        self
    }

    /// Sets the `prov:time` argument.
    pub fn with_time(mut self, time: XsdDateTime) -> Self {
        self.time = Some(time);
        self
    }

    /// Adds a secondary formal argument (e.g. `prov:plan`).
    pub fn with_extra(mut self, key: impl Into<String>, value: QName) -> Self {
        self.extras.insert(key.into(), value);
        self
    }

    /// Appends an application attribute value.
    pub fn add_attr(&mut self, key: QName, value: AttrValue) -> &mut Self {
        self.attributes.entry(key).or_default().push(value);
        self
    }

    /// Adds an application attribute, builder-style.
    pub fn with_attr(mut self, key: QName, value: AttrValue) -> Self {
        self.add_attr(key, value);
        self
    }

    /// First attribute value under `key`, if any.
    pub fn attr(&self, key: &QName) -> Option<&AttrValue> {
        self.attributes.get(key).and_then(|v| v.first())
    }

    /// The `prov:role` attribute, if present.
    pub fn role(&self) -> Option<&AttrValue> {
        self.attr(&QName::prov("role"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_key_roundtrip_for_all_kinds() {
        for k in RelationKind::all() {
            assert_eq!(RelationKind::from_json_key(k.json_key()), Some(*k));
        }
        assert_eq!(RelationKind::from_json_key("notARelation"), None);
    }

    #[test]
    fn a_kinds_discriminant_is_its_position_in_all() {
        for (i, k) in RelationKind::all().iter().enumerate() {
            assert_eq!(*k as usize, i, "{k}");
        }
        // Every variant is listed: the last one declared closes the list.
        assert_eq!(
            RelationKind::all().len(),
            RelationKind::HadMember as usize + 1
        );
    }

    #[test]
    fn subject_object_keys_are_distinct() {
        for k in RelationKind::all() {
            assert_ne!(k.subject_key(), k.object_key(), "{k}");
            assert!(k.subject_key().starts_with("prov:"));
            assert!(k.object_key().starts_with("prov:"));
        }
    }

    #[test]
    fn time_support_matches_prov_dm() {
        assert!(RelationKind::Used.supports_time());
        assert!(RelationKind::WasGeneratedBy.supports_time());
        assert!(!RelationKind::WasDerivedFrom.supports_time());
        assert!(!RelationKind::HadMember.supports_time());
    }

    #[test]
    fn builder_style_construction() {
        let r = Relation::new(
            RelationKind::WasAssociatedWith,
            QName::new("ex", "run"),
            QName::new("ex", "user"),
        )
        .with_id(QName::new("ex", "assoc1"))
        .with_extra("prov:plan", QName::new("ex", "script"))
        .with_time(XsdDateTime::new(5, 0))
        .with_attr(QName::prov("role"), AttrValue::from("operator"));

        assert_eq!(r.id.as_ref().unwrap().local(), "assoc1");
        assert_eq!(r.extras["prov:plan"].local(), "script");
        assert_eq!(r.time.unwrap().epoch_secs, 5);
        assert_eq!(r.role().unwrap().as_str(), Some("operator"));
    }

    #[test]
    fn anonymous_relation_id_formats_as_blank_node() {
        assert_eq!(RelationId::Anonymous(7).to_string(), "_:id7");
        assert_eq!(RelationId::Named(QName::new("ex", "r")).to_string(), "ex:r");
    }

    #[test]
    fn extra_keys_listed_for_derivation() {
        let keys = RelationKind::WasDerivedFrom.extra_keys();
        assert!(keys.contains(&"prov:activity"));
        assert!(keys.contains(&"prov:generation"));
        assert!(keys.contains(&"prov:usage"));
        assert!(RelationKind::Used.extra_keys().is_empty());
    }
}
