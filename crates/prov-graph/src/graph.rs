//! Adjacency-indexed view of a PROV document.

use prov_model::{Element, ProvDocument, QName, RelationKind};
use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;

/// One directed edge of the provenance graph.
///
/// `from` is the relation subject, `to` the object; `relation` indexes
/// into [`ProvGraph::document`]'s relation list for full details.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Edge {
    /// Index of the source node.
    pub from: usize,
    /// Index of the target node.
    pub to: usize,
    /// The relation kind of this edge.
    pub kind: RelationKind,
    /// Index of the relation in the document's relation list.
    pub relation: usize,
}

/// Number of [`RelationKind`] variants — the size of the per-kind edge
/// counter array kept by [`GraphIndex`].
const KIND_SLOTS: usize = 14;

/// Node/edge statistics of a [`GraphIndex`]: totals plus edge counts per
/// relation kind. These are the planner's cost-model inputs
/// (`prov-graph::engine`) and the payload of the service's `/stats`
/// endpoint — one source of truth for both.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GraphIndexStats {
    /// Total nodes (declared elements plus dangling references).
    pub nodes: usize,
    /// Total edges.
    pub edges: usize,
    /// Edge count per relation kind, in [`RelationKind::all`] order,
    /// zero-count kinds included.
    pub per_kind: Vec<(RelationKind, usize)>,
}

impl GraphIndexStats {
    /// Mean out-degree (= mean in-degree) across all nodes; 0 for an
    /// empty graph.
    pub fn avg_degree(&self) -> f64 {
        if self.nodes == 0 {
            0.0
        } else {
            self.edges as f64 / self.nodes as f64
        }
    }
}

/// The borrow-free adjacency index under a [`ProvGraph`]: interned node
/// ids, edges, and in/out adjacency lists — everything the graph knows
/// except the document reference itself.
///
/// Separating the index from the borrow lets it be built once, wrapped
/// in an [`Arc`], and shared across many short-lived [`ProvGraph`]
/// views (see [`SharedGraph`]) — the basis of the service's per-document
/// index cache.
pub struct GraphIndex {
    ids: Vec<QName>,
    index: HashMap<QName, usize>,
    edges: Vec<Edge>,
    out: Vec<Vec<usize>>,
    inn: Vec<Vec<usize>>,
    // Edge counts per relation kind, indexed by `kind as usize`
    // (variant order == RelationKind::all() order). Maintained on build
    // and on every incremental extension, so stats are O(1) to read.
    kind_counts: [usize; KIND_SLOTS],
}

impl GraphIndex {
    /// Indexes a document. Cost is `O(elements + relations)`.
    pub fn build(doc: &ProvDocument) -> Self {
        let mut ids = Vec::new();
        let mut index = HashMap::new();
        let intern = |q: &QName, ids: &mut Vec<QName>, index: &mut HashMap<QName, usize>| {
            *index.entry(q.clone()).or_insert_with(|| {
                ids.push(q.clone());
                ids.len() - 1
            })
        };

        for el in doc.iter_elements() {
            intern(&el.id, &mut ids, &mut index);
        }
        let mut edges = Vec::with_capacity(doc.relation_count());
        for (ri, rel) in doc.relations().iter().enumerate() {
            let from = intern(&rel.subject, &mut ids, &mut index);
            let to = intern(&rel.object, &mut ids, &mut index);
            edges.push(Edge {
                from,
                to,
                kind: rel.kind,
                relation: ri,
            });
        }

        let mut out = vec![Vec::new(); ids.len()];
        let mut inn = vec![Vec::new(); ids.len()];
        let mut kind_counts = [0usize; KIND_SLOTS];
        for (ei, e) in edges.iter().enumerate() {
            out[e.from].push(ei);
            inn[e.to].push(ei);
            kind_counts[e.kind as usize] += 1;
        }

        GraphIndex {
            ids,
            index,
            edges,
            out,
            inn,
            kind_counts,
        }
    }

    /// Number of nodes (declared elements plus dangling references).
    pub fn node_count(&self) -> usize {
        self.ids.len()
    }

    /// Number of edges.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Number of edges of one relation kind — an O(1) counter read,
    /// maintained across builds and incremental extensions.
    pub fn kind_count(&self, kind: RelationKind) -> usize {
        self.kind_counts[kind as usize]
    }

    /// Snapshot of the index statistics (totals + per-kind counts).
    pub fn stats(&self) -> GraphIndexStats {
        GraphIndexStats {
            nodes: self.node_count(),
            edges: self.edge_count(),
            per_kind: RelationKind::all()
                .iter()
                .map(|&k| (k, self.kind_counts[k as usize]))
                .collect(),
        }
    }

    /// Extends this index to cover `merged`, a document produced by
    /// applying a delta onto the document this index was built from
    /// (see `ProvDocument::apply_delta`). `new_positions` must be the
    /// ascending positions of the delta's relations within `merged`'s
    /// relation list.
    ///
    /// Only the new relations and their endpoints are indexed; existing
    /// nodes, edges and adjacency lists are reused, so the cost is
    /// `O(existing relations)` for the relation-index remap plus
    /// `O(delta)` — no wholesale rebuild. New edges land at the tail of
    /// the edge list (edge order is internal; traversals don't depend
    /// on it), and node indices of pre-existing nodes are unchanged.
    pub fn extended(&self, merged: &ProvDocument, new_positions: &[usize]) -> GraphIndex {
        // Splicing the delta's relations shifted the old relations'
        // positions; rebuild the old-index → merged-index map by
        // walking around the inserted positions.
        let mut old_to_new = Vec::with_capacity(self.edges.len());
        let mut inserted = new_positions.iter().copied().peekable();
        for i in 0..merged.relation_count() {
            if inserted.peek() == Some(&i) {
                inserted.next();
            } else {
                old_to_new.push(i);
            }
        }
        debug_assert_eq!(old_to_new.len(), self.edges.len());

        let mut ids = self.ids.clone();
        let mut index = self.index.clone();
        let mut edges = self.edges.clone();
        let mut out = self.out.clone();
        let mut inn = self.inn.clone();
        let mut kind_counts = self.kind_counts;
        for e in &mut edges {
            e.relation = old_to_new[e.relation];
        }

        let intern = |q: &QName, ids: &mut Vec<QName>, index: &mut HashMap<QName, usize>| {
            *index.entry(q.clone()).or_insert_with(|| {
                ids.push(q.clone());
                ids.len() - 1
            })
        };
        // Elements the delta introduced without any relation still need
        // nodes, exactly as a fresh build would give them.
        for el in merged.iter_elements() {
            intern(&el.id, &mut ids, &mut index);
        }
        for &pos in new_positions {
            let rel = &merged.relations()[pos];
            let from = intern(&rel.subject, &mut ids, &mut index);
            let to = intern(&rel.object, &mut ids, &mut index);
            out.resize(ids.len(), Vec::new());
            inn.resize(ids.len(), Vec::new());
            let ei = edges.len();
            edges.push(Edge {
                from,
                to,
                kind: rel.kind,
                relation: pos,
            });
            out[from].push(ei);
            inn[to].push(ei);
            kind_counts[rel.kind as usize] += 1;
        }
        out.resize(ids.len(), Vec::new());
        inn.resize(ids.len(), Vec::new());

        GraphIndex {
            ids,
            index,
            edges,
            out,
            inn,
            kind_counts,
        }
    }
}

/// An adjacency-indexed graph over a borrowed [`ProvDocument`].
///
/// Node indices are dense (`0..node_count()`); identifiers that only
/// appear in relations (dangling references) still get nodes so traversal
/// works on partially declared documents.
pub struct ProvGraph<'a> {
    doc: &'a ProvDocument,
    index: Arc<GraphIndex>,
}

impl<'a> ProvGraph<'a> {
    /// Indexes a document. Cost is `O(elements + relations)`.
    pub fn new(doc: &'a ProvDocument) -> Self {
        ProvGraph {
            doc,
            index: Arc::new(GraphIndex::build(doc)),
        }
    }

    /// A graph view reusing a prebuilt index. The index must have been
    /// built from `doc` (or an identical document) — node and relation
    /// indices are interpreted against it.
    pub fn with_index(doc: &'a ProvDocument, index: Arc<GraphIndex>) -> Self {
        debug_assert_eq!(index.edges.len(), doc.relation_count());
        ProvGraph { doc, index }
    }

    /// The underlying document.
    pub fn document(&self) -> &'a ProvDocument {
        self.doc
    }

    /// The shared adjacency index.
    pub fn index(&self) -> &Arc<GraphIndex> {
        &self.index
    }

    /// Number of nodes (declared elements plus dangling references).
    pub fn node_count(&self) -> usize {
        self.index.ids.len()
    }

    /// Number of edges.
    pub fn edge_count(&self) -> usize {
        self.index.edges.len()
    }

    /// Index statistics (totals + per-relation-kind edge counts).
    pub fn stats(&self) -> GraphIndexStats {
        self.index.stats()
    }

    /// The node index for an identifier, if present.
    pub fn node(&self, id: &QName) -> Option<usize> {
        self.index.index.get(id).copied()
    }

    /// The identifier of node `i`.
    pub fn id(&self, i: usize) -> &QName {
        &self.index.ids[i]
    }

    /// The declared element of node `i`, if it was declared.
    pub fn element(&self, i: usize) -> Option<&'a Element> {
        self.doc.get(&self.index.ids[i])
    }

    /// All edges.
    pub fn edges(&self) -> &[Edge] {
        &self.index.edges
    }

    /// Outgoing edges of node `i` (towards its origins).
    pub fn out_edges(&self, i: usize) -> impl Iterator<Item = &Edge> {
        self.index.out[i]
            .iter()
            .map(move |&ei| &self.index.edges[ei])
    }

    /// Incoming edges of node `i` (from its dependents).
    pub fn in_edges(&self, i: usize) -> impl Iterator<Item = &Edge> {
        self.index.inn[i]
            .iter()
            .map(move |&ei| &self.index.edges[ei])
    }

    /// Identifiers of everything reachable by out-edges from `id`
    /// (the *origins* / provenance closure), excluding `id` itself.
    pub fn ancestors(&self, id: &QName) -> BTreeSet<QName> {
        self.reach(id, true)
    }

    /// Identifiers of everything reachable by in-edges from `id`
    /// (everything *influenced by* it), excluding `id` itself.
    pub fn descendants(&self, id: &QName) -> BTreeSet<QName> {
        self.reach(id, false)
    }

    /// The lineage neighbourhood of `focus`: its ancestors, its
    /// descendants and `focus` itself — the node set of a focused
    /// picture or sub-document (see [`subgraph`]).
    pub fn neighbourhood(&self, focus: &QName) -> BTreeSet<QName> {
        let mut keep = self.ancestors(focus);
        keep.extend(self.descendants(focus));
        keep.insert(focus.clone());
        keep
    }

    fn reach(&self, id: &QName, forward: bool) -> BTreeSet<QName> {
        let idx = &*self.index;
        let Some(start) = self.node(id) else {
            return BTreeSet::new();
        };
        let mut seen = vec![false; self.node_count()];
        let mut stack = vec![start];
        seen[start] = true;
        let mut result = BTreeSet::new();
        while let Some(n) = stack.pop() {
            let adj = if forward { &idx.out[n] } else { &idx.inn[n] };
            for &ei in adj {
                let next = if forward {
                    idx.edges[ei].to
                } else {
                    idx.edges[ei].from
                };
                if !seen[next] {
                    seen[next] = true;
                    result.insert(idx.ids[next].clone());
                    stack.push(next);
                }
            }
        }
        result
    }
}

/// Extracts the sub-document induced by a set of identifiers: the kept
/// elements plus every relation whose subject *and* object are kept.
pub fn subgraph(doc: &ProvDocument, keep: &BTreeSet<QName>) -> ProvDocument {
    let mut out = ProvDocument::new();
    out.namespaces_mut()
        .merge(doc.namespaces())
        .expect("merging into empty registry cannot conflict");
    for el in doc.iter_elements() {
        if keep.contains(&el.id) {
            out.insert_element(el.clone());
        }
    }
    for rel in doc.relations() {
        if keep.contains(&rel.subject) && keep.contains(&rel.object) {
            out.add_relation(rel.clone());
        }
    }
    out
}

/// An owning, cheaply clonable graph: `Arc<ProvDocument>` plus
/// `Arc<GraphIndex>`.
///
/// Where [`ProvGraph`] borrows its document (right for one-shot
/// analysis), `SharedGraph` is built once and handed out across threads
/// and requests — cloning is two `Arc` bumps, and [`SharedGraph::view`]
/// reconstitutes a full `ProvGraph` without re-indexing. This is the
/// unit the provenance service caches per stored document.
#[derive(Clone)]
pub struct SharedGraph {
    doc: Arc<ProvDocument>,
    index: Arc<GraphIndex>,
}

impl SharedGraph {
    /// Indexes `doc` once. Cost is `O(elements + relations)`; every
    /// subsequent [`view`](Self::view) is `O(1)`.
    pub fn new(doc: Arc<ProvDocument>) -> Self {
        let index = Arc::new(GraphIndex::build(&doc));
        SharedGraph { doc, index }
    }

    /// Assembles a shared graph from a document and an index already
    /// known to describe it — e.g. one produced by
    /// [`GraphIndex::extended`] alongside the merged document. The
    /// index must have exactly one edge per document relation.
    pub fn from_parts(doc: Arc<ProvDocument>, index: Arc<GraphIndex>) -> Self {
        debug_assert_eq!(index.edges.len(), doc.relation_count());
        SharedGraph { doc, index }
    }

    /// The shared document.
    pub fn document(&self) -> &Arc<ProvDocument> {
        &self.doc
    }

    /// The shared adjacency index.
    pub fn index(&self) -> &Arc<GraphIndex> {
        &self.index
    }

    /// A borrowed [`ProvGraph`] over the shared state — all traversal
    /// and query methods, no re-indexing.
    pub fn view(&self) -> ProvGraph<'_> {
        ProvGraph {
            doc: &self.doc,
            index: Arc::clone(&self.index),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn q(local: &str) -> QName {
        QName::new("ex", local)
    }

    /// data -> used by train -> generates model -> used by eval -> report
    fn pipeline_doc() -> ProvDocument {
        let mut doc = ProvDocument::new();
        doc.namespaces_mut().register("ex", "http://ex/").unwrap();
        doc.entity(q("data"));
        doc.activity(q("train"));
        doc.entity(q("model"));
        doc.activity(q("eval"));
        doc.entity(q("report"));
        doc.used(q("train"), q("data"));
        doc.was_generated_by(q("model"), q("train"));
        doc.used(q("eval"), q("model"));
        doc.was_generated_by(q("report"), q("eval"));
        doc
    }

    #[test]
    fn counts_and_lookup() {
        let doc = pipeline_doc();
        let g = ProvGraph::new(&doc);
        assert_eq!(g.node_count(), 5);
        assert_eq!(g.edge_count(), 4);
        assert!(g.node(&q("model")).is_some());
        assert!(g.node(&q("ghost")).is_none());
        let i = g.node(&q("model")).unwrap();
        assert_eq!(g.id(i), &q("model"));
        assert!(g.element(i).is_some());
    }

    #[test]
    fn kind_counts_track_builds_and_extensions() {
        let mut doc = pipeline_doc();
        doc.canonicalize();
        let index = GraphIndex::build(&doc);
        assert_eq!(index.kind_count(RelationKind::Used), 2);
        assert_eq!(index.kind_count(RelationKind::WasGeneratedBy), 2);
        assert_eq!(index.kind_count(RelationKind::WasDerivedFrom), 0);
        let stats = index.stats();
        assert_eq!(stats.nodes, 5);
        assert_eq!(stats.edges, 4);
        assert_eq!(stats.per_kind.len(), RelationKind::all().len());
        assert_eq!(
            stats.per_kind.iter().map(|(_, n)| n).sum::<usize>(),
            stats.edges,
            "per-kind counts partition the edge total"
        );

        // Incremental extension keeps the counters in sync with a
        // fresh build.
        let mut delta = ProvDocument::new();
        delta.namespaces_mut().register("ex", "http://ex/").unwrap();
        delta.entity(q("ckpt"));
        delta.was_derived_from(q("ckpt"), q("data"));
        let applied = doc.apply_delta(&delta).unwrap();
        let ext = index.extended(&doc, &applied.new_relations);
        assert_eq!(ext.stats(), GraphIndex::build(&doc).stats());
        assert_eq!(ext.kind_count(RelationKind::WasDerivedFrom), 1);
    }

    #[test]
    fn ancestors_follow_provenance() {
        let doc = pipeline_doc();
        let g = ProvGraph::new(&doc);
        let anc = g.ancestors(&q("report"));
        assert!(anc.contains(&q("eval")));
        assert!(anc.contains(&q("model")));
        assert!(anc.contains(&q("train")));
        assert!(anc.contains(&q("data")));
        assert!(!anc.contains(&q("report")));
        assert!(g.ancestors(&q("data")).is_empty());
    }

    #[test]
    fn descendants_follow_influence() {
        let doc = pipeline_doc();
        let g = ProvGraph::new(&doc);
        let desc = g.descendants(&q("data"));
        assert_eq!(desc.len(), 4);
        assert!(desc.contains(&q("report")));
        assert!(g.descendants(&q("report")).is_empty());
        assert!(g.descendants(&q("missing")).is_empty());
    }

    #[test]
    fn subgraph_keeps_internal_relations_only() {
        let d = pipeline_doc();
        let keep: BTreeSet<QName> = [q("train"), q("data")].into_iter().collect();
        let sub = subgraph(&d, &keep);
        assert_eq!(sub.element_count(), 2);
        assert_eq!(sub.relation_count(), 1); // used(train, data)
        assert!(sub.namespaces().contains("ex"));
    }

    #[test]
    fn subgraph_of_empty_set_is_empty() {
        let d = pipeline_doc();
        let sub = subgraph(&d, &BTreeSet::new());
        assert!(sub.is_empty() || sub.element_count() == 0);
        assert_eq!(sub.relation_count(), 0);
    }

    #[test]
    fn dangling_references_become_nodes() {
        let mut doc = ProvDocument::new();
        doc.activity(q("train"));
        doc.used(q("train"), q("undeclared"));
        let g = ProvGraph::new(&doc);
        assert_eq!(g.node_count(), 2);
        let i = g.node(&q("undeclared")).unwrap();
        assert!(g.element(i).is_none(), "undeclared node has no element");
    }

    #[test]
    fn empty_graph() {
        let doc = ProvDocument::new();
        let g = ProvGraph::new(&doc);
        assert_eq!(g.node_count(), 0);
        assert_eq!(g.edge_count(), 0);
    }

    #[test]
    fn shared_graph_views_reuse_one_index() {
        let doc = Arc::new(pipeline_doc());
        let shared = SharedGraph::new(Arc::clone(&doc));
        let a = shared.view();
        let b = shared.view();
        assert!(Arc::ptr_eq(a.index(), b.index()), "views share the index");
        assert_eq!(a.ancestors(&q("report")), b.ancestors(&q("report")));
        // Clones are shallow.
        let clone = shared.clone();
        assert!(Arc::ptr_eq(clone.index(), shared.index()));
        assert!(Arc::ptr_eq(clone.document(), shared.document()));
    }

    /// The extended index must answer every query exactly like an index
    /// built from scratch over the merged document.
    fn assert_matches_fresh(doc: &ProvDocument, ext: GraphIndex, locals: &[&str]) {
        let fresh = GraphIndex::build(doc);
        assert_eq!(ext.node_count(), fresh.node_count());
        assert_eq!(ext.edge_count(), fresh.edge_count());
        let ge = ProvGraph::with_index(doc, Arc::new(ext));
        let gf = ProvGraph::with_index(doc, Arc::new(fresh));
        for local in locals {
            let id = q(local);
            assert_eq!(ge.ancestors(&id), gf.ancestors(&id), "ancestors of {local}");
            assert_eq!(
                ge.descendants(&id),
                gf.descendants(&id),
                "descendants of {local}"
            );
        }
        // Edge → relation back-pointers survived the remap.
        for e in ge.edges() {
            let rel = &ge.document().relations()[e.relation];
            assert_eq!(ge.id(e.from), &rel.subject);
            assert_eq!(ge.id(e.to), &rel.object);
            assert_eq!(e.kind, rel.kind);
        }
    }

    #[test]
    fn extended_index_matches_fresh_build() {
        let mut doc = pipeline_doc();
        doc.canonicalize();
        let base = GraphIndex::build(&doc);

        let mut delta = ProvDocument::new();
        delta.namespaces_mut().register("ex", "http://ex/").unwrap();
        delta.entity(q("report2"));
        delta.entity(q("isolated"));
        delta.was_generated_by(q("report2"), q("eval"));
        delta.used(q("eval"), q("data"));
        delta.was_generated_by(q("report"), q("eval")); // exact duplicate — no edge

        let applied = doc.apply_delta(&delta).unwrap();
        assert_eq!(applied.new_relations.len(), 2);
        let ext = base.extended(&doc, &applied.new_relations);
        assert_matches_fresh(
            &doc,
            ext,
            &[
                "data", "train", "model", "eval", "report", "report2", "isolated",
            ],
        );
    }

    #[test]
    fn repeated_extension_stays_consistent() {
        let mut doc = pipeline_doc();
        doc.canonicalize();
        let mut index = GraphIndex::build(&doc);
        for round in 0..3 {
            let mut delta = ProvDocument::new();
            delta.namespaces_mut().register("ex", "http://ex/").unwrap();
            let ckpt = format!("ckpt{round}");
            delta.entity(q(&ckpt));
            delta.was_generated_by(q(&ckpt), q("train"));
            delta.was_derived_from(q(&ckpt), q("data"));
            let applied = doc.apply_delta(&delta).unwrap();
            index = index.extended(&doc, &applied.new_relations);
        }
        assert_matches_fresh(
            &doc,
            index,
            &["data", "train", "model", "ckpt0", "ckpt1", "ckpt2"],
        );
    }

    #[test]
    fn from_parts_assembles_shared_graph() {
        let doc = Arc::new(pipeline_doc());
        let index = Arc::new(GraphIndex::build(&doc));
        let shared = SharedGraph::from_parts(Arc::clone(&doc), Arc::clone(&index));
        assert!(Arc::ptr_eq(shared.index(), &index));
        assert!(Arc::ptr_eq(shared.document(), &doc));
        assert_eq!(shared.view().ancestors(&q("report")).len(), 4);
    }

    #[test]
    fn with_index_reconstitutes_a_view() {
        let doc = pipeline_doc();
        let g = ProvGraph::new(&doc);
        let idx = Arc::clone(g.index());
        let g2 = ProvGraph::with_index(&doc, idx);
        assert_eq!(g2.node_count(), 5);
        let expected: BTreeSet<QName> = ["eval", "model", "train", "data"]
            .into_iter()
            .map(q)
            .collect();
        assert_eq!(g2.ancestors(&q("report")), expected);
    }

    #[test]
    fn an_edge_closes_a_cycle_when_its_target_reaches_its_source() {
        let on_a_cycle = |g: &ProvGraph| {
            g.edges()
                .iter()
                .any(|e| e.from == e.to || g.ancestors(g.id(e.to)).contains(g.id(e.from)))
        };
        let doc = pipeline_doc();
        assert!(!on_a_cycle(&ProvGraph::new(&doc)));
        let mut doc = ProvDocument::new();
        doc.namespaces_mut().register("ex", "http://ex/").unwrap();
        doc.entity(q("a"));
        doc.entity(q("b"));
        doc.was_derived_from(q("a"), q("b"));
        doc.was_derived_from(q("b"), q("a"));
        let g = ProvGraph::new(&doc);
        assert!(
            !g.ancestors(&q("a")).contains(&q("a")),
            "reach skips its start"
        );
        assert!(on_a_cycle(&g));
    }
}
