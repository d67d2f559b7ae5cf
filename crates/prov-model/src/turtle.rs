//! PROV-O (RDF) serialization as Turtle.
//!
//! The third serialization of the W3C PROV family (Table 2 lists
//! "PROV-N, PROV-JSON, PROV-O (RDF)"). Elements become RDF resources
//! typed `prov:Entity` / `prov:Activity` / `prov:Agent`; unqualified
//! relations map to the PROV-O object properties (`prov:used`,
//! `prov:wasGeneratedBy`, ...); relations carrying an id, time, role or
//! other attributes expand into the qualified pattern
//! (`prov:qualifiedUsage [ a prov:Usage; prov:entity ...; ... ]`).

use crate::document::ProvDocument;
use crate::provn::write_quoted;
use crate::qname::QName;
use crate::record::ElementKind;
use crate::relation::{Relation, RelationKind};
use crate::value::AttrValue;
use std::fmt::Write as _;

/// PROV-O object property for an unqualified relation.
fn object_property(kind: RelationKind) -> &'static str {
    use RelationKind::*;
    match kind {
        Used => "prov:used",
        WasGeneratedBy => "prov:wasGeneratedBy",
        WasInformedBy => "prov:wasInformedBy",
        WasStartedBy => "prov:wasStartedBy",
        WasEndedBy => "prov:wasEndedBy",
        WasInvalidatedBy => "prov:wasInvalidatedBy",
        WasDerivedFrom => "prov:wasDerivedFrom",
        WasAttributedTo => "prov:wasAttributedTo",
        WasAssociatedWith => "prov:wasAssociatedWith",
        ActedOnBehalfOf => "prov:actedOnBehalfOf",
        WasInfluencedBy => "prov:wasInfluencedBy",
        SpecializationOf => "prov:specializationOf",
        AlternateOf => "prov:alternateOf",
        HadMember => "prov:hadMember",
    }
}

/// PROV-O qualified-influence class and its object property, for
/// relations that carry attributes. `None` for the relation kinds
/// PROV-O does not qualify (specialization/alternate/membership).
fn qualified_form(kind: RelationKind) -> Option<(&'static str, &'static str, &'static str)> {
    use RelationKind::*;
    // (qualified property, influence class, object pointer property)
    match kind {
        Used => Some(("prov:qualifiedUsage", "prov:Usage", "prov:entity")),
        WasGeneratedBy => Some((
            "prov:qualifiedGeneration",
            "prov:Generation",
            "prov:activity",
        )),
        WasInformedBy => Some((
            "prov:qualifiedCommunication",
            "prov:Communication",
            "prov:activity",
        )),
        WasStartedBy => Some(("prov:qualifiedStart", "prov:Start", "prov:entity")),
        WasEndedBy => Some(("prov:qualifiedEnd", "prov:End", "prov:entity")),
        WasInvalidatedBy => Some((
            "prov:qualifiedInvalidation",
            "prov:Invalidation",
            "prov:activity",
        )),
        WasDerivedFrom => Some(("prov:qualifiedDerivation", "prov:Derivation", "prov:entity")),
        WasAttributedTo => Some((
            "prov:qualifiedAttribution",
            "prov:Attribution",
            "prov:agent",
        )),
        WasAssociatedWith => Some((
            "prov:qualifiedAssociation",
            "prov:Association",
            "prov:agent",
        )),
        ActedOnBehalfOf => Some(("prov:qualifiedDelegation", "prov:Delegation", "prov:agent")),
        WasInfluencedBy => Some((
            "prov:qualifiedInfluence",
            "prov:Influence",
            "prov:influencer",
        )),
        SpecializationOf | AlternateOf | HadMember => None,
    }
}

/// Appends `v` as a Turtle term: a literal, or the qualified name
/// itself. A string literal escapes `\`, `"`, LF and CR, as PROV-N's
/// does, through the same writer.
fn write_literal(out: &mut String, v: &AttrValue) {
    let _ = match v {
        AttrValue::String(s) => {
            write_quoted(out, s);
            Ok(())
        }
        AttrValue::LangString(s, lang) => {
            write_quoted(out, s);
            write!(out, "@{lang}")
        }
        AttrValue::Int(i) => write!(out, "\"{i}\"^^xsd:long"),
        AttrValue::Double(d) => write!(out, "\"{}\"^^xsd:double", crate::value::format_double(*d)),
        AttrValue::Bool(b) => write!(out, "\"{b}\"^^xsd:boolean"),
        AttrValue::QualifiedName(q) => write!(out, "{q}"),
        AttrValue::DateTime(t) => write!(out, "\"{t}\"^^xsd:dateTime"),
        AttrValue::Typed(s, ty) => {
            write_quoted(out, s);
            write!(out, "^^{ty}")
        }
    };
}

fn type_iri(kind: ElementKind) -> &'static str {
    match kind {
        ElementKind::Entity => "prov:Entity",
        ElementKind::Activity => "prov:Activity",
        ElementKind::Agent => "prov:Agent",
    }
}

/// Whether a relation needs the qualified pattern (has more than the
/// two formal arguments).
fn needs_qualification(rel: &Relation) -> bool {
    rel.id.is_some() || rel.time.is_some() || !rel.extras.is_empty() || !rel.attributes.is_empty()
}

/// Serializes the document as Turtle (PROV-O). Bundles become named
/// graphs in TriG style comments; their triples are emitted flattened
/// with a `prov:bundledIn` pointer (keeping the output plain Turtle).
pub fn to_turtle(doc: &ProvDocument) -> String {
    let mut out = String::new();
    out.push_str("@prefix prov: <http://www.w3.org/ns/prov#> .\n");
    out.push_str("@prefix xsd: <http://www.w3.org/2001/XMLSchema#> .\n");
    out.push_str("@prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .\n");
    for ns in doc.namespaces().iter() {
        let _ = writeln!(out, "@prefix {}: <{}> .", ns.prefix, ns.iri);
    }
    if let Some(d) = doc.namespaces().default_ns() {
        let _ = writeln!(out, "@prefix : <{d}> .");
    }
    out.push('\n');
    write_body(doc, &mut out, None);
    out
}

fn write_body(doc: &ProvDocument, out: &mut String, bundle: Option<&QName>) {
    let mut blank = 0usize;
    for el in doc.iter_elements() {
        let _ = write!(out, "{} a {}", el.id, type_iri(el.kind));
        for (key, values) in &el.attributes {
            for v in values {
                let predicate = match key.to_string().as_str() {
                    "prov:label" => "rdfs:label".to_string(),
                    "prov:type" => "a".to_string(),
                    other => other.to_string(),
                };
                let _ = write!(out, " ;\n    {predicate} ");
                write_literal(out, v);
            }
        }
        if let Some(b) = bundle {
            let _ = write!(out, " ;\n    prov:bundledIn {b}");
        }
        out.push_str(" .\n");
    }
    out.push('\n');

    for rel in doc.relations() {
        if !needs_qualification(rel) {
            let _ = writeln!(
                out,
                "{} {} {} .",
                rel.subject,
                object_property(rel.kind),
                rel.object
            );
            continue;
        }
        match qualified_form(rel.kind) {
            None => {
                // Non-qualifiable kinds fall back to the plain triple;
                // their extra attributes cannot be expressed in PROV-O.
                let _ = writeln!(
                    out,
                    "{} {} {} .",
                    rel.subject,
                    object_property(rel.kind),
                    rel.object
                );
            }
            Some((qualified_prop, influence_class, pointer)) => {
                // Also keep the unqualified shortcut triple (PROV-O
                // recommends asserting both).
                let _ = writeln!(
                    out,
                    "{} {} {} .",
                    rel.subject,
                    object_property(rel.kind),
                    rel.object
                );
                let node = match &rel.id {
                    Some(id) => id.to_string(),
                    None => {
                        blank += 1;
                        format!("_:q{blank}")
                    }
                };
                let _ = writeln!(out, "{} {qualified_prop} {node} .", rel.subject);
                let _ = write!(
                    out,
                    "{node} a {influence_class} ;\n    {pointer} {}",
                    rel.object
                );
                if let Some(t) = rel.time {
                    let _ = write!(out, " ;\n    prov:atTime \"{t}\"^^xsd:dateTime");
                }
                for (key, target) in &rel.extras {
                    // prov:plan, prov:starter, ... keep their names.
                    let _ = write!(out, " ;\n    {key} {target}");
                }
                for (key, values) in &rel.attributes {
                    for v in values {
                        let predicate = if key.to_string() == "prov:role" {
                            "prov:hadRole".to_string()
                        } else {
                            key.to_string()
                        };
                        let _ = write!(out, " ;\n    {predicate} ");
                        write_literal(out, v);
                    }
                }
                out.push_str(" .\n");
            }
        }
    }

    for (name, inner) in doc.iter_bundles() {
        let _ = writeln!(out, "\n{name} a prov:Bundle .");
        write_body(inner, out, Some(name));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::XsdDateTime;

    fn q(local: &str) -> QName {
        QName::new("ex", local)
    }

    fn sample() -> ProvDocument {
        let mut doc = ProvDocument::new();
        doc.namespaces_mut().register("ex", "http://ex/").unwrap();
        doc.entity(q("data")).label("input data");
        doc.entity(q("model")).prov_type(q("Model"));
        doc.activity(q("train"));
        doc.agent(q("alice"));
        doc.used(q("train"), q("data"));
        doc.was_generated_by(q("model"), q("train"));
        doc.was_associated_with(q("train"), q("alice"));
        doc
    }

    #[test]
    fn prefixes_and_types_emitted() {
        let ttl = to_turtle(&sample());
        assert!(ttl.contains("@prefix prov: <http://www.w3.org/ns/prov#> ."));
        assert!(ttl.contains("@prefix ex: <http://ex/> ."));
        assert!(ttl.contains("ex:data a prov:Entity"));
        assert!(ttl.contains("ex:train a prov:Activity"));
        assert!(ttl.contains("ex:alice a prov:Agent"));
    }

    #[test]
    fn unqualified_relations_are_single_triples() {
        let ttl = to_turtle(&sample());
        assert!(ttl.contains("ex:train prov:used ex:data ."));
        assert!(ttl.contains("ex:model prov:wasGeneratedBy ex:train ."));
        assert!(ttl.contains("ex:train prov:wasAssociatedWith ex:alice ."));
        assert!(
            !ttl.contains("prov:qualifiedUsage"),
            "no attributes, no qualification"
        );
    }

    #[test]
    fn labels_become_rdfs_label() {
        let ttl = to_turtle(&sample());
        assert!(ttl.contains("rdfs:label \"input data\""));
    }

    #[test]
    fn prov_types_become_rdf_types() {
        let ttl = to_turtle(&sample());
        assert!(ttl.contains("ex:model a prov:Entity ;\n    a ex:Model ."));
    }

    #[test]
    fn attributed_relations_use_qualified_pattern() {
        let mut doc = sample();
        doc.used(q("train"), q("data"))
            .add_attr(QName::prov("role"), AttrValue::from("training-input"));
        let ttl = to_turtle(&doc);
        assert!(ttl.contains("prov:qualifiedUsage"));
        assert!(ttl.contains("a prov:Usage"));
        assert!(ttl.contains("prov:hadRole \"training-input\""));
        // The shortcut triple coexists with the qualified form.
        assert!(ttl.contains("ex:train prov:used ex:data ."));
    }

    #[test]
    fn timed_relations_carry_at_time() {
        let mut doc = ProvDocument::new();
        doc.was_started_by(q("act"), q("trigger"), Some(XsdDateTime::new(60, 0)));
        let ttl = to_turtle(&doc);
        assert!(ttl.contains("prov:qualifiedStart"));
        assert!(ttl.contains("prov:atTime \"1970-01-01T00:01:00Z\"^^xsd:dateTime"));
    }

    #[test]
    fn association_plan_is_kept() {
        let mut doc = ProvDocument::new();
        let rel = Relation::new(RelationKind::WasAssociatedWith, q("run"), q("user"))
            .with_extra("prov:plan", q("script"));
        doc.add_relation(rel);
        let ttl = to_turtle(&doc);
        assert!(ttl.contains("prov:qualifiedAssociation"));
        assert!(ttl.contains("prov:plan ex:script"));
    }

    #[test]
    fn named_qualified_nodes_use_relation_id() {
        let mut doc = ProvDocument::new();
        let rel = Relation::new(RelationKind::Used, q("a"), q("e"))
            .with_id(q("use1"))
            .with_time(XsdDateTime::new(0, 0));
        doc.add_relation(rel);
        let ttl = to_turtle(&doc);
        assert!(ttl.contains("ex:a prov:qualifiedUsage ex:use1 ."));
        assert!(ttl.contains("ex:use1 a prov:Usage"));
    }

    #[test]
    fn literals_escape_and_type() {
        let mut doc = ProvDocument::new();
        doc.entity(q("e"))
            .attr(q("note"), AttrValue::from("say \"hi\"\nline2"))
            .attr(q("count"), AttrValue::Int(7))
            .attr(q("ratio"), AttrValue::Double(0.5))
            .attr(q("flag"), AttrValue::Bool(true));
        let ttl = to_turtle(&doc);
        assert!(ttl.contains(r#""say \"hi\"\nline2""#));
        assert!(ttl.contains("\"7\"^^xsd:long"));
        assert!(ttl.contains("\"0.5\"^^xsd:double"));
        assert!(ttl.contains("\"true\"^^xsd:boolean"));
    }

    #[test]
    fn bundles_flatten_with_pointer() {
        let mut doc = ProvDocument::new();
        doc.bundle(q("b")).entity(q("inner"));
        let ttl = to_turtle(&doc);
        assert!(ttl.contains("ex:b a prov:Bundle ."));
        assert!(ttl.contains("ex:inner a prov:Entity ;\n    prov:bundledIn ex:b ."));
    }

    #[test]
    fn every_relation_kind_serializes() {
        let mut doc = ProvDocument::new();
        for kind in RelationKind::all() {
            doc.add_relation(Relation::new(*kind, q("s"), q("o")));
        }
        let ttl = to_turtle(&doc);
        for kind in RelationKind::all() {
            assert!(
                ttl.contains(object_property(*kind)),
                "missing {}",
                object_property(*kind)
            );
        }
    }
}
