//! Graphviz DOT export.
//!
//! Renders a PROV document with the conventional PROV visual vocabulary
//! (the one used by `prov-dot` and by the yProv Explorer, and visible in
//! Figure 1 of the paper): yellow ellipses for entities, blue rectangles
//! for activities, orange houses for agents, and labelled edges for
//! relations.

use crate::graph::ProvGraph;
use prov_model::{ElementKind, ProvDocument};
use std::fmt::Write as _;

/// Rendering options for [`to_dot`].
#[derive(Debug, Clone)]
pub struct DotOptions {
    /// Graph name in the DOT header.
    pub name: String,
    /// Show `prov:label` (when present) instead of the raw identifier.
    pub use_labels: bool,
    /// Render non-`prov:` attributes in a second label line.
    pub show_attributes: bool,
    /// Maximum number of attributes rendered per node.
    pub max_attributes: usize,
    /// Left-to-right layout instead of top-to-bottom.
    pub horizontal: bool,
}

impl Default for DotOptions {
    fn default() -> Self {
        DotOptions {
            name: "provenance".to_string(),
            use_labels: true,
            show_attributes: false,
            max_attributes: 4,
            horizontal: false,
        }
    }
}

/// Renders the whole document (bundles flattened into clusters).
pub fn to_dot(doc: &ProvDocument, opts: &DotOptions) -> String {
    let graph = ProvGraph::new(doc);
    let mut out = String::new();
    let _ = writeln!(out, "digraph \"{}\" {{", escape(&opts.name));
    if opts.horizontal {
        out.push_str("  rankdir=LR;\n");
    }
    out.push_str("  node [fontname=\"Helvetica\", fontsize=10];\n");
    out.push_str("  edge [fontname=\"Helvetica\", fontsize=8, color=\"#404040\"];\n");

    for i in 0..graph.node_count() {
        let id = graph.id(i);
        let (shape, fill) = match graph.element(i).map(|e| e.kind) {
            Some(ElementKind::Entity) => ("ellipse", "#FFFC87"),
            Some(ElementKind::Activity) => ("box", "#9FB1FC"),
            Some(ElementKind::Agent) => ("house", "#FED37F"),
            None => ("ellipse", "#DDDDDD"), // dangling reference
        };
        let label = node_label(&graph, i, opts);
        let _ = writeln!(
            out,
            "  \"{}\" [shape={shape}, style=filled, fillcolor=\"{fill}\", label=\"{}\"];",
            escape(&id.to_string()),
            label
        );
    }

    for e in graph.edges() {
        let rel = &doc.relations()[e.relation];
        let mut label = rel.kind.json_key().to_string();
        if let Some(role) = rel.role() {
            let _ = write!(label, "\\n[{}]", escape(&role.lexical()));
        }
        let _ = writeln!(
            out,
            "  \"{}\" -> \"{}\" [label=\"{label}\"];",
            escape(&graph.id(e.from).to_string()),
            escape(&graph.id(e.to).to_string()),
        );
    }

    // Bundles as subgraph clusters.
    for (bi, (name, bundle)) in doc.iter_bundles().enumerate() {
        let _ = writeln!(out, "  subgraph cluster_{bi} {{");
        let _ = writeln!(out, "    label=\"bundle {}\";", escape(&name.to_string()));
        let inner = to_dot_body(bundle, opts);
        for line in inner.lines() {
            let _ = writeln!(out, "    {line}");
        }
        out.push_str("  }\n");
    }

    out.push_str("}\n");
    out
}

/// Renders only node/edge statements (used for bundle clusters).
fn to_dot_body(doc: &ProvDocument, opts: &DotOptions) -> String {
    let full = to_dot(doc, opts);
    // Strip the digraph frame and global attribute lines.
    full.lines()
        .skip(1)
        .filter(|l| {
            let t = l.trim_start();
            !t.starts_with("node [") && !t.starts_with("edge [") && !t.starts_with("rankdir")
        })
        .take_while(|l| *l != "}")
        .collect::<Vec<_>>()
        .join("\n")
}

fn node_label(graph: &ProvGraph<'_>, i: usize, opts: &DotOptions) -> String {
    let id = graph.id(i);
    let el = graph.element(i);
    let mut label = match (opts.use_labels, el.and_then(|e| e.label())) {
        (true, Some(l)) => escape(l),
        _ => escape(&id.to_string()),
    };
    if opts.show_attributes {
        if let Some(el) = el {
            let mut shown = 0usize;
            for (k, vals) in &el.attributes {
                if k.prefix() == "prov" || shown >= opts.max_attributes {
                    continue;
                }
                for v in vals.iter().take(1) {
                    let _ = write!(
                        label,
                        "\\n{}={}",
                        escape(&k.to_string()),
                        escape(&v.lexical())
                    );
                    shown += 1;
                }
            }
        }
    }
    label
}

fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

#[cfg(test)]
mod tests {
    use super::*;
    use prov_model::QName;

    fn q(local: &str) -> QName {
        QName::new("ex", local)
    }

    fn sample() -> ProvDocument {
        let mut doc = ProvDocument::new();
        doc.namespaces_mut().register("ex", "http://ex/").unwrap();
        doc.entity(q("data")).label("input \"data\"");
        doc.activity(q("train"));
        doc.agent(q("alice"));
        doc.used(q("train"), q("data"));
        doc.was_associated_with(q("train"), q("alice"));
        doc
    }

    #[test]
    fn renders_prov_vocabulary() {
        let doc = sample();
        let dot = to_dot(&doc, &DotOptions::default());
        assert!(dot.starts_with("digraph"));
        assert!(dot.contains("shape=ellipse"));
        assert!(dot.contains("shape=box"));
        assert!(dot.contains("shape=house"));
        assert!(dot.contains("\"ex:train\" -> \"ex:data\" [label=\"used\"]"));
        assert!(dot.trim_end().ends_with('}'));
    }

    #[test]
    fn labels_are_escaped() {
        let doc = sample();
        let dot = to_dot(&doc, &DotOptions::default());
        assert!(dot.contains(r#"input \"data\""#));
    }

    #[test]
    fn raw_ids_when_labels_disabled() {
        let doc = sample();
        let opts = DotOptions {
            use_labels: false,
            ..Default::default()
        };
        let dot = to_dot(&doc, &opts);
        assert!(dot.contains("label=\"ex:data\""));
    }

    #[test]
    fn attribute_lines_optional() {
        let mut doc = sample();
        doc.entity(q("data"))
            .attr(q("rows"), prov_model::AttrValue::Int(42));
        let opts = DotOptions {
            show_attributes: true,
            ..Default::default()
        };
        let dot = to_dot(&doc, &opts);
        assert!(dot.contains("ex:rows=42"));
    }

    #[test]
    fn horizontal_layout_flag() {
        let doc = sample();
        let opts = DotOptions {
            horizontal: true,
            ..Default::default()
        };
        assert!(to_dot(&doc, &opts).contains("rankdir=LR"));
    }

    #[test]
    fn role_appears_on_edges() {
        let mut doc = ProvDocument::new();
        doc.activity(q("a"));
        doc.entity(q("e"));
        doc.used(q("a"), q("e")).add_attr(
            prov_model::QName::prov("role"),
            prov_model::AttrValue::from("training-input"),
        );
        let dot = to_dot(&doc, &DotOptions::default());
        assert!(dot.contains("[training-input]"));
    }

    #[test]
    fn bundles_render_as_clusters() {
        let mut doc = sample();
        doc.bundle(q("meta")).entity(q("inner"));
        let dot = to_dot(&doc, &DotOptions::default());
        assert!(dot.contains("subgraph cluster_0"));
        assert!(dot.contains("bundle ex:meta"));
        assert!(dot.contains("ex:inner"));
    }
}
