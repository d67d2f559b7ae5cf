//! The PROV document: a set of elements, relations and bundles.

use crate::error::ProvError;
use crate::json::{relation_order, sort_relations};
use crate::qname::{NamespaceRegistry, QName};
use crate::record::{Element, ElementKind};
use crate::relation::{Relation, RelationKind};
use crate::value::AttrValue;
use crate::XsdDateTime;
use std::collections::btree_map::{BTreeMap, Entry};

/// A W3C PROV document.
///
/// Holds the namespace registry, one ordered map of elements per
/// [`ElementKind`], the list of relations, and optionally named *bundles*
/// (nested documents, used by PROV to give provenance of provenance).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ProvDocument {
    namespaces: NamespaceRegistry,
    elements: BTreeMap<QName, Element>,
    relations: Vec<Relation>,
    bundles: BTreeMap<QName, ProvDocument>,
}

impl ProvDocument {
    /// Creates an empty document with only implicit namespaces.
    pub fn new() -> Self {
        Self::default()
    }

    /// Read access to the namespace registry.
    pub fn namespaces(&self) -> &NamespaceRegistry {
        &self.namespaces
    }

    /// Mutable access to the namespace registry.
    pub fn namespaces_mut(&mut self) -> &mut NamespaceRegistry {
        &mut self.namespaces
    }

    // ----- element insertion -------------------------------------------------

    /// Adds (or extends) an entity and returns a builder for attributes.
    pub fn entity(&mut self, id: QName) -> RecordBuilder<'_> {
        self.element(ElementKind::Entity, id)
    }

    /// Adds (or extends) an activity and returns a builder for attributes.
    pub fn activity(&mut self, id: QName) -> RecordBuilder<'_> {
        self.element(ElementKind::Activity, id)
    }

    /// Adds (or extends) an agent and returns a builder for attributes.
    pub fn agent(&mut self, id: QName) -> RecordBuilder<'_> {
        self.element(ElementKind::Agent, id)
    }

    /// Adds (or extends) an element of the given kind.
    ///
    /// Re-adding an existing identifier with the *same* kind returns a
    /// builder over the existing record; with a *different* kind the new
    /// record silently keeps the original kind and merges attributes —
    /// strict checking is available via [`crate::validate::validate`].
    pub fn element(&mut self, kind: ElementKind, id: QName) -> RecordBuilder<'_> {
        let el = self
            .elements
            .entry(id.clone())
            .or_insert_with(|| Element::new(kind, id));
        RecordBuilder { element: el }
    }

    /// Inserts a fully-formed element, merging with any existing record.
    pub fn insert_element(&mut self, el: Element) {
        match self.elements.entry(el.id.clone()) {
            Entry::Occupied(existing) => existing.into_mut().absorb(&el),
            Entry::Vacant(slot) => {
                slot.insert(el);
            }
        }
    }

    // ----- element lookup ----------------------------------------------------

    /// Looks up any element by id.
    pub fn get(&self, id: &QName) -> Option<&Element> {
        self.elements.get(id)
    }

    /// Mutable lookup by id.
    pub fn get_mut(&mut self, id: &QName) -> Option<&mut Element> {
        self.elements.get_mut(id)
    }

    /// Iterates over all elements (entities, activities and agents).
    pub fn iter_elements(&self) -> impl Iterator<Item = &Element> {
        self.elements.values()
    }

    /// Iterates over elements of one kind.
    pub fn iter_kind(&self, kind: ElementKind) -> impl Iterator<Item = &Element> {
        self.elements.values().filter(move |e| e.kind == kind)
    }

    /// Number of elements of one kind.
    pub fn count(&self, kind: ElementKind) -> usize {
        self.iter_kind(kind).count()
    }

    /// Total number of elements.
    pub fn element_count(&self) -> usize {
        self.elements.len()
    }

    // ----- relations ----------------------------------------------------------

    /// Appends a relation.
    pub fn add_relation(&mut self, rel: Relation) -> &mut Relation {
        self.relations.push(rel);
        self.relations.last_mut().expect("just pushed")
    }

    /// All relations, in insertion order.
    pub fn relations(&self) -> &[Relation] {
        &self.relations
    }

    /// Relations of one kind.
    pub fn relations_of(&self, kind: RelationKind) -> impl Iterator<Item = &Relation> {
        self.relations.iter().filter(move |r| r.kind == kind)
    }

    /// Number of relations.
    pub fn relation_count(&self) -> usize {
        self.relations.len()
    }

    /// Crate-internal mutable access to the relation list (used by the
    /// canonicalizer in the JSON module).
    pub(crate) fn relations_mut(&mut self) -> &mut Vec<Relation> {
        &mut self.relations
    }

    // Convenience constructors for the common relation kinds. Each returns
    // a mutable reference so callers can attach times/roles afterwards.

    /// `activity` used `entity`.
    pub fn used(&mut self, activity: QName, entity: QName) -> &mut Relation {
        self.add_relation(Relation::new(RelationKind::Used, activity, entity))
    }

    /// `entity` was generated by `activity`.
    pub fn was_generated_by(&mut self, entity: QName, activity: QName) -> &mut Relation {
        self.add_relation(Relation::new(
            RelationKind::WasGeneratedBy,
            entity,
            activity,
        ))
    }

    /// `informed` was informed by `informant`.
    pub fn was_informed_by(&mut self, informed: QName, informant: QName) -> &mut Relation {
        self.add_relation(Relation::new(
            RelationKind::WasInformedBy,
            informed,
            informant,
        ))
    }

    /// `generated` was derived from `used`.
    pub fn was_derived_from(&mut self, generated: QName, used: QName) -> &mut Relation {
        self.add_relation(Relation::new(RelationKind::WasDerivedFrom, generated, used))
    }

    /// `entity` was attributed to `agent`.
    pub fn was_attributed_to(&mut self, entity: QName, agent: QName) -> &mut Relation {
        self.add_relation(Relation::new(RelationKind::WasAttributedTo, entity, agent))
    }

    /// `activity` was associated with `agent`.
    pub fn was_associated_with(&mut self, activity: QName, agent: QName) -> &mut Relation {
        self.add_relation(Relation::new(
            RelationKind::WasAssociatedWith,
            activity,
            agent,
        ))
    }

    /// `delegate` acted on behalf of `responsible`.
    pub fn acted_on_behalf_of(&mut self, delegate: QName, responsible: QName) -> &mut Relation {
        self.add_relation(Relation::new(
            RelationKind::ActedOnBehalfOf,
            delegate,
            responsible,
        ))
    }

    /// `specific` is a specialization of `general`.
    pub fn specialization_of(&mut self, specific: QName, general: QName) -> &mut Relation {
        self.add_relation(Relation::new(
            RelationKind::SpecializationOf,
            specific,
            general,
        ))
    }

    /// `collection` had member `entity`.
    pub fn had_member(&mut self, collection: QName, entity: QName) -> &mut Relation {
        self.add_relation(Relation::new(RelationKind::HadMember, collection, entity))
    }

    /// `activity` was started by trigger `entity` at `time`.
    pub fn was_started_by(
        &mut self,
        activity: QName,
        trigger: QName,
        time: Option<XsdDateTime>,
    ) -> &mut Relation {
        let mut rel = Relation::new(RelationKind::WasStartedBy, activity, trigger);
        rel.time = time;
        self.add_relation(rel)
    }

    /// `activity` was ended by trigger `entity` at `time`.
    pub fn was_ended_by(
        &mut self,
        activity: QName,
        trigger: QName,
        time: Option<XsdDateTime>,
    ) -> &mut Relation {
        let mut rel = Relation::new(RelationKind::WasEndedBy, activity, trigger);
        rel.time = time;
        self.add_relation(rel)
    }

    // ----- bundles -------------------------------------------------------------

    /// Adds (or returns) a named bundle.
    pub fn bundle(&mut self, id: QName) -> &mut ProvDocument {
        self.bundles.entry(id).or_default()
    }

    /// Looks up a bundle by name.
    pub fn get_bundle(&self, id: &QName) -> Option<&ProvDocument> {
        self.bundles.get(id)
    }

    /// Iterates over `(name, bundle)` pairs.
    pub fn iter_bundles(&self) -> impl Iterator<Item = (&QName, &ProvDocument)> {
        self.bundles.iter()
    }

    /// Number of bundles.
    pub fn bundle_count(&self) -> usize {
        self.bundles.len()
    }

    // ----- whole-document operations --------------------------------------------

    /// True when the document holds no elements, relations or bundles.
    pub fn is_empty(&self) -> bool {
        self.elements.is_empty() && self.relations.is_empty() && self.bundles.is_empty()
    }

    /// Merges `other` into `self`: namespace-union (conflicts are errors),
    /// element absorption, relation concatenation (exact duplicates are
    /// dropped) and recursive bundle merge.
    pub fn merge(&mut self, other: &ProvDocument) -> Result<(), ProvError> {
        self.namespaces.merge(&other.namespaces)?;
        for el in other.iter_elements() {
            self.insert_element(el.clone());
        }
        for rel in &other.relations {
            if !self.relations.contains(rel) {
                self.relations.push(rel.clone());
            }
        }
        for (name, bundle) in &other.bundles {
            self.bundles
                .entry(name.clone())
                .or_default()
                .merge(bundle)?;
        }
        Ok(())
    }

    /// Applies a *delta* document — a later, partial (or cumulative)
    /// snapshot of the same logical document — onto `self`.
    ///
    /// Unlike [`ProvDocument::merge`], elements carried by the delta
    /// **replace** the stored record wholesale instead of unioning
    /// attribute values: a delta re-describing a metric entity carries
    /// fresh aggregates (count, mean, last) that must supersede the
    /// stale ones, not accumulate beside them. Relations still
    /// deduplicate by full equality, and new ones are spliced in at
    /// their canonical sort position so a document that was in
    /// canonical order stays in canonical order (documents not yet
    /// canonical are canonicalized first).
    ///
    /// Returns which elements were touched and where the new relations
    /// landed, so callers can update derived indexes incrementally.
    pub fn apply_delta(&mut self, delta: &ProvDocument) -> Result<DeltaApply, ProvError> {
        self.namespaces.merge(&delta.namespaces)?;
        let mut result = DeltaApply {
            touched: delta.iter_elements().map(|e| e.id.clone()).collect(),
            new_relations: Vec::new(),
        };
        for el in delta.iter_elements() {
            self.elements.insert(el.id.clone(), el.clone());
        }

        sort_relations(&mut self.relations);
        let mut fresh: Vec<Relation> = Vec::new();
        for rel in &delta.relations {
            if !self.relations.contains(rel) && !fresh.contains(rel) {
                fresh.push(rel.clone());
            }
        }
        if !fresh.is_empty() {
            fresh.sort_by(relation_order);
            let old = std::mem::take(&mut self.relations);
            let mut merged = Vec::with_capacity(old.len() + fresh.len());
            let mut pending = fresh.into_iter().peekable();
            for rel in old {
                // Ties break toward the existing relation, so a fresh
                // relation lands at the end of its equal-key range.
                while pending
                    .peek()
                    .is_some_and(|f| relation_order(f, &rel).is_lt())
                {
                    result.new_relations.push(merged.len());
                    merged.push(pending.next().expect("peeked"));
                }
                merged.push(rel);
            }
            for f in pending {
                result.new_relations.push(merged.len());
                merged.push(f);
            }
            self.relations = merged;
        }

        for (name, bundle) in &delta.bundles {
            self.bundles
                .entry(name.clone())
                .or_default()
                .apply_delta(bundle)?;
        }
        Ok(result)
    }

    /// Summary statistics, useful for explorer-style UIs and tests.
    pub fn stats(&self) -> DocumentStats {
        let mut per_relation = BTreeMap::new();
        for r in &self.relations {
            *per_relation.entry(r.kind).or_insert(0usize) += 1;
        }
        DocumentStats {
            entities: self.count(ElementKind::Entity),
            activities: self.count(ElementKind::Activity),
            agents: self.count(ElementKind::Agent),
            relations: self.relations.len(),
            bundles: self.bundles.len(),
            per_relation,
        }
    }
}

/// Builder returned by [`ProvDocument::entity`] and friends.
///
/// Allows chained attribute addition on a freshly inserted (or existing)
/// element:
///
/// ```
/// # use prov_model::{ProvDocument, QName, AttrValue};
/// let mut doc = ProvDocument::new();
/// doc.entity(QName::new("ex", "model"))
///     .attr(QName::prov("label"), AttrValue::from("final model"))
///     .attr(QName::new("ex", "epochs"), AttrValue::Int(10));
/// ```
pub struct RecordBuilder<'a> {
    element: &'a mut Element,
}

impl<'a> RecordBuilder<'a> {
    /// Appends an attribute value (multi-valued).
    pub fn attr(self, key: QName, value: AttrValue) -> Self {
        self.element.add_attr(key, value);
        self
    }

    /// Replaces the values under `key` with a single value.
    pub fn set_attr(self, key: QName, value: AttrValue) -> Self {
        self.element.set_attr(key, value);
        self
    }

    /// Adds a `prov:type` qualified-name value.
    pub fn prov_type(self, ty: QName) -> Self {
        self.attr(QName::prov("type"), AttrValue::QualifiedName(ty))
    }

    /// Sets the `prov:label`.
    pub fn label(self, label: impl Into<String>) -> Self {
        self.set_attr(QName::prov("label"), AttrValue::String(label.into()))
    }

    /// Sets `prov:startTime` (activities).
    pub fn start_time(self, t: XsdDateTime) -> Self {
        self.set_attr(QName::prov("startTime"), AttrValue::DateTime(t))
    }

    /// Sets `prov:endTime` (activities).
    pub fn end_time(self, t: XsdDateTime) -> Self {
        self.set_attr(QName::prov("endTime"), AttrValue::DateTime(t))
    }

    /// Escapes the builder, yielding the underlying element.
    pub fn finish(self) -> &'a mut Element {
        self.element
    }
}

/// Outcome of [`ProvDocument::apply_delta`]: what the delta changed,
/// expressed against the merged document, for incremental maintenance
/// of derived structures (e.g. a cached graph index). Bundle-level
/// changes are not position-tracked.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DeltaApply {
    /// Positions, in the merged document's relation list, of relations
    /// the delta added (ascending).
    pub new_relations: Vec<usize>,
    /// Identifiers of elements the delta inserted or replaced.
    pub touched: Vec<QName>,
}

/// Aggregate counts over a document.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DocumentStats {
    /// Number of entities.
    pub entities: usize,
    /// Number of activities.
    pub activities: usize,
    /// Number of agents.
    pub agents: usize,
    /// Total number of relations.
    pub relations: usize,
    /// Number of bundles.
    pub bundles: usize,
    /// Relation count per kind.
    pub per_relation: BTreeMap<RelationKind, usize>,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn q(local: &str) -> QName {
        QName::new("ex", local)
    }

    #[test]
    fn build_small_document() {
        let mut doc = ProvDocument::new();
        doc.namespaces_mut().register("ex", "http://ex/").unwrap();
        doc.entity(q("data")).label("input data");
        doc.activity(q("train"))
            .prov_type(QName::yprov("TrainingRun"));
        doc.agent(q("alice"));
        doc.used(q("train"), q("data"));
        doc.was_associated_with(q("train"), q("alice"));

        assert_eq!(doc.element_count(), 3);
        assert_eq!(doc.relation_count(), 2);
        let stats = doc.stats();
        assert_eq!(stats.entities, 1);
        assert_eq!(stats.activities, 1);
        assert_eq!(stats.agents, 1);
        assert_eq!(stats.per_relation[&RelationKind::Used], 1);
    }

    #[test]
    fn readding_element_merges_attributes() {
        let mut doc = ProvDocument::new();
        doc.entity(q("m"))
            .attr(QName::yprov("a"), AttrValue::Int(1));
        doc.entity(q("m"))
            .attr(QName::yprov("b"), AttrValue::Int(2));
        let el = doc.get(&q("m")).unwrap();
        assert_eq!(el.attr(&QName::yprov("a")), Some(&AttrValue::Int(1)));
        assert_eq!(el.attr(&QName::yprov("b")), Some(&AttrValue::Int(2)));
        assert_eq!(doc.element_count(), 1);
    }

    #[test]
    fn merge_documents() {
        let mut a = ProvDocument::new();
        a.namespaces_mut().register("ex", "http://ex/").unwrap();
        a.entity(q("x"));
        a.used(q("act"), q("x"));

        let mut b = ProvDocument::new();
        b.namespaces_mut().register("ex", "http://ex/").unwrap();
        b.namespaces_mut().register("other", "http://o/").unwrap();
        b.entity(q("x")).label("shared");
        b.entity(q("y"));
        b.used(q("act"), q("x")); // duplicate relation — must not double up
        b.used(q("act"), q("y"));

        a.merge(&b).unwrap();
        assert_eq!(a.element_count(), 2);
        assert_eq!(a.relation_count(), 2);
        assert_eq!(a.get(&q("x")).unwrap().label(), Some("shared"));
        assert!(a.namespaces().contains("other"));
    }

    #[test]
    fn merge_conflicting_namespaces_fails() {
        let mut a = ProvDocument::new();
        a.namespaces_mut().register("ex", "http://a/").unwrap();
        let mut b = ProvDocument::new();
        b.namespaces_mut().register("ex", "http://b/").unwrap();
        assert!(a.merge(&b).is_err());
    }

    #[test]
    fn bundles_are_nested_documents() {
        let mut doc = ProvDocument::new();
        doc.bundle(q("b1")).entity(q("inner"));
        assert_eq!(doc.bundle_count(), 1);
        assert!(doc.get_bundle(&q("b1")).unwrap().get(&q("inner")).is_some());
        assert!(doc.get_bundle(&q("nope")).is_none());
    }

    #[test]
    fn started_ended_carry_time() {
        let mut doc = ProvDocument::new();
        let t = XsdDateTime::new(42, 0);
        doc.was_started_by(q("act"), q("trigger"), Some(t));
        doc.was_ended_by(q("act"), q("trigger"), None);
        let rels: Vec<_> = doc.relations().to_vec();
        assert_eq!(rels[0].time, Some(t));
        assert_eq!(rels[1].time, None);
    }

    #[test]
    fn apply_delta_replaces_elements_wholesale() {
        let mut doc = ProvDocument::new();
        doc.entity(q("metric"))
            .attr(QName::yprov("samples"), AttrValue::Int(10))
            .attr(QName::yprov("mean"), AttrValue::Double(0.5));
        let mut delta = ProvDocument::new();
        delta
            .entity(q("metric"))
            .attr(QName::yprov("samples"), AttrValue::Int(20));

        let applied = doc.apply_delta(&delta).unwrap();
        assert_eq!(applied.touched, vec![q("metric")]);
        let el = doc.get(&q("metric")).unwrap();
        // Replaced, not unioned: the stale mean is gone and samples
        // holds only the new value.
        assert_eq!(el.attrs(&QName::yprov("samples")), &[AttrValue::Int(20)]);
        assert!(el.attr(&QName::yprov("mean")).is_none());
    }

    #[test]
    fn apply_delta_splices_relations_at_canonical_positions() {
        let mut doc = ProvDocument::new();
        doc.used(q("act"), q("b"));
        doc.used(q("act"), q("d"));
        doc.canonicalize();

        let mut delta = ProvDocument::new();
        delta.used(q("act"), q("c"));
        delta.used(q("act"), q("a"));
        delta.used(q("act"), q("b")); // duplicate — dropped
        delta.was_generated_by(q("z"), q("act"));

        let applied = doc.apply_delta(&delta).unwrap();
        let objects: Vec<String> = doc
            .relations()
            .iter()
            .map(|r| r.object.to_string())
            .collect();
        assert_eq!(objects, ["ex:a", "ex:b", "ex:c", "ex:d", "ex:act"]);
        assert_eq!(applied.new_relations, vec![0, 2, 4]);

        // Merged-then-serialized equals canonicalized plain merge: the
        // stored relations first, so `merge` drops the delta's
        // duplicate of `used(act, b)` as `apply_delta` did.
        let mut reference = ProvDocument::new();
        reference.used(q("act"), q("b"));
        reference.used(q("act"), q("d"));
        reference.merge(&delta).unwrap();
        reference.canonicalize();
        assert_eq!(doc.relations(), reference.relations());
    }

    #[test]
    fn apply_delta_sequence_matches_full_document() {
        // Two cumulative snapshots followed by the final document must
        // converge to exactly the final document.
        let mut full = ProvDocument::new();
        full.namespaces_mut().register("ex", "http://ex/").unwrap();
        full.entity(q("data")).label("frozen");
        full.entity(q("model"))
            .attr(QName::yprov("loss"), AttrValue::Double(0.1));
        full.activity(q("train"));
        full.used(q("train"), q("data"));
        full.was_generated_by(q("model"), q("train"));
        full.canonicalize();

        let mut snap1 = ProvDocument::new();
        snap1.namespaces_mut().register("ex", "http://ex/").unwrap();
        snap1.entity(q("data")).label("frozen");
        snap1
            .entity(q("model"))
            .attr(QName::yprov("loss"), AttrValue::Double(0.9));
        snap1.activity(q("train"));
        snap1.used(q("train"), q("data"));

        let mut merged = ProvDocument::new();
        merged.apply_delta(&snap1).unwrap();
        merged.apply_delta(&full).unwrap();
        assert_eq!(merged, full);
    }

    #[test]
    fn apply_delta_recurses_into_bundles_and_rejects_ns_conflicts() {
        let mut doc = ProvDocument::new();
        doc.bundle(q("meta")).entity(q("inner"));
        let mut delta = ProvDocument::new();
        delta.bundle(q("meta")).entity(q("inner2"));
        doc.apply_delta(&delta).unwrap();
        assert_eq!(doc.get_bundle(&q("meta")).unwrap().element_count(), 2);

        let mut a = ProvDocument::new();
        a.namespaces_mut().register("ex", "http://a/").unwrap();
        let mut b = ProvDocument::new();
        b.namespaces_mut().register("ex", "http://b/").unwrap();
        assert!(a.apply_delta(&b).is_err());
    }

    #[test]
    fn is_empty_reflects_content() {
        let mut doc = ProvDocument::new();
        assert!(doc.is_empty());
        doc.agent(q("a"));
        assert!(!doc.is_empty());
    }
}
