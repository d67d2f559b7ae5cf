//! Property tests on graph invariants over randomly generated PROV
//! documents.

use prov_graph::{execute, subgraph, ProvGraph};
use prov_model::query::{Repeat, Step};
use prov_model::{
    ElementFilter, PathQuery, ProvDocument, QName, Relation, RelationKind, StepDirection,
};
use std::collections::{BTreeSet, VecDeque};
use testkit::{check, Rng};

fn q(i: usize) -> QName {
    QName::new("ex", format!("n{i}"))
}

/// A random document over `n` entities with edges `i -> j` only where
/// `i > j` — guaranteed acyclic.
fn dag_doc(n: usize, edges: &[(usize, usize)]) -> ProvDocument {
    let mut doc = ProvDocument::new();
    doc.namespaces_mut().register("ex", "http://ex/").unwrap();
    for i in 0..n {
        doc.entity(q(i));
    }
    for &(a, b) in edges {
        let (hi, lo) = (a.max(b), a.min(b));
        if hi != lo {
            doc.was_derived_from(q(hi), q(lo));
        }
    }
    doc
}

/// Reference for the bounded-repeat property: every node within `depth`
/// out-edge hops of `start`, `start` included.
fn within_hops(graph: &ProvGraph<'_>, start: &QName, depth: usize) -> BTreeSet<QName> {
    let start = graph.node(start).unwrap();
    let mut dist = vec![usize::MAX; graph.node_count()];
    dist[start] = 0;
    let mut queue = VecDeque::from([start]);
    while let Some(node) = queue.pop_front() {
        for e in graph.out_edges(node) {
            if dist[node] < depth && dist[e.to] == usize::MAX {
                dist[e.to] = dist[node] + 1;
                queue.push_back(e.to);
            }
        }
    }
    (0..graph.node_count())
        .filter(|&i| dist[i] != usize::MAX)
        .map(|i| graph.id(i).clone())
        .collect()
}

/// A document with arbitrary (possibly cyclic) edges.
fn any_doc(n: usize, edges: &[(usize, usize)]) -> ProvDocument {
    let mut doc = ProvDocument::new();
    doc.namespaces_mut().register("ex", "http://ex/").unwrap();
    for i in 0..n {
        doc.entity(q(i));
    }
    for &(a, b) in edges {
        doc.add_relation(Relation::new(
            RelationKind::WasInfluencedBy,
            q(a % n),
            q(b % n),
        ));
    }
    doc
}

/// `lens`-many (at full size) node-index pairs, each index below `bound`.
fn edge_list(
    rng: &mut Rng,
    lens: std::ops::Range<usize>,
    size: usize,
    bound: usize,
) -> Vec<(usize, usize)> {
    (0..rng.len(lens, size))
        .map(|_| (rng.below(bound), rng.below(bound)))
        .collect()
}

/// As [`edge_list`], folded onto the `n` nodes a document has.
fn edges_within(
    rng: &mut Rng,
    lens: std::ops::Range<usize>,
    size: usize,
    bound: usize,
    n: usize,
) -> Vec<(usize, usize)> {
    edge_list(rng, lens, size, bound)
        .into_iter()
        .map(|(a, b)| (a % n, b % n))
        .collect()
}

#[test]
fn ancestors_and_descendants_are_dual() {
    check(64, |rng, size| {
        let n = rng.range(2usize..20);
        let edges = edges_within(rng, 0..60, size, 20, n);
        let doc = dag_doc(n, &edges);
        let graph = ProvGraph::new(&doc);
        for a in 0..n {
            let anc = graph.ancestors(&q(a));
            for b in anc {
                let desc = graph.descendants(&b);
                assert!(
                    desc.contains(&q(a)),
                    "{} in ancestors({}) but not vice versa",
                    b,
                    a
                );
            }
        }
    });
}

#[test]
fn dags_have_topo_order_respecting_edges() {
    check(64, |rng, size| {
        let n = rng.range(2usize..20);
        let edges = edges_within(rng, 0..60, size, 20, n);
        let doc = dag_doc(n, &edges);
        let graph = ProvGraph::new(&doc);
        assert!(!graph.has_cycle(), "construction is acyclic");
        let order = graph.topo_order().unwrap();
        let pos = |id: &QName| order.iter().position(|x| x == id).unwrap();
        // Every edge hi -> lo must have hi before lo in the order.
        for &(a, b) in &edges {
            let (hi, lo) = (a.max(b), a.min(b));
            if hi != lo {
                assert!(pos(&q(hi)) < pos(&q(lo)));
            }
        }
    });
}

#[test]
fn self_loops_are_cycles() {
    check(64, |rng, _| {
        let n = rng.range(1usize..10);
        let node = rng.below(10) % n;
        let doc = any_doc(n, &[(node, node)]);
        let graph = ProvGraph::new(&doc);
        assert!(graph.has_cycle());
    });
}

#[test]
fn subgraph_is_closed_and_minimal() {
    check(64, |rng, size| {
        let n = rng.range(2usize..15);
        let edges = edges_within(rng, 0..40, size, 15, n);
        let keep_bits: Vec<bool> = (0..15).map(|_| rng.bool()).collect();
        let doc = dag_doc(n, &edges);
        let keep: BTreeSet<QName> = (0..n).filter(|&i| keep_bits[i]).map(q).collect();
        let sub = subgraph(&doc, &keep);
        // Exactly the kept elements appear.
        assert_eq!(sub.element_count(), keep.len());
        // Every relation's endpoints are kept.
        for rel in sub.relations() {
            assert!(keep.contains(&rel.subject));
            assert!(keep.contains(&rel.object));
        }
        // No dropped relation had both endpoints kept.
        let sub_rel_count = sub.relation_count();
        let expect = doc
            .relations()
            .iter()
            .filter(|r| keep.contains(&r.subject) && keep.contains(&r.object))
            .count();
        assert_eq!(sub_rel_count, expect);
    });
}

/// The planned engine's one-plus-step closure query agrees with the
/// legacy reachability everywhere — including on cyclic graphs,
/// where the only divergence allowed is the start node itself (the
/// engine reports a >= 1-hop walk back to it; `ancestors` excludes
/// it by construction).
#[test]
fn engine_closure_matches_legacy_reachability() {
    check(64, |rng, size| {
        let n = rng.range(2usize..15);
        let edges = edge_list(rng, 0..40, size, 15);
        let doc = any_doc(n, &edges);
        let graph = ProvGraph::new(&doc);
        for (direction, legacy) in [
            (StepDirection::Forward, true),
            (StepDirection::Backward, false),
        ] {
            for a in 0..n {
                let query = PathQuery {
                    start: ElementFilter::by_id(q(a)),
                    steps: vec![Step {
                        kinds: Vec::new(),
                        direction,
                        repeat: Repeat::plus(),
                        target: ElementFilter::any(),
                    }],
                    limit: None,
                };
                let result = execute(&graph, &query);
                let mut ends: BTreeSet<QName> = result.rows.iter().map(|r| r.end.clone()).collect();
                ends.remove(&q(a));
                let expect = if legacy {
                    graph.ancestors(&q(a))
                } else {
                    graph.descendants(&q(a))
                };
                assert_eq!(ends, expect, "node {} dir {:?}", a, direction);
            }
        }
    });
}

/// A `{0,d}`-repeat path query lands on exactly the nodes a
/// depth-bounded breadth-first walk (`within_hops`) visits.
#[test]
fn bounded_walk_matches_bounded_repeat_query() {
    check(64, |rng, size| {
        let n = rng.range(2usize..15);
        let edges = edge_list(rng, 0..40, size, 15);
        let depth = rng.range(0usize..6);
        let doc = any_doc(n, &edges);
        let graph = ProvGraph::new(&doc);
        for a in 0..n {
            let walked = within_hops(&graph, &q(a), depth);
            let query = PathQuery {
                start: ElementFilter::by_id(q(a)),
                steps: vec![Step {
                    kinds: Vec::new(),
                    direction: StepDirection::Forward,
                    repeat: Repeat {
                        min: 0,
                        max: Some(depth),
                    },
                    target: ElementFilter::any(),
                }],
                limit: None,
            };
            let landed: BTreeSet<QName> = execute(&graph, &query)
                .rows
                .iter()
                .map(|r| r.end.clone())
                .collect();
            assert_eq!(walked, landed, "node {} depth {}", a, depth);
        }
    });
}

#[test]
fn path_endpoints_and_adjacency() {
    check(64, |rng, size| {
        let n = rng.range(2usize..15);
        let edges = edges_within(rng, 1..40, size, 15, n);
        let doc = dag_doc(n, &edges);
        let graph = ProvGraph::new(&doc);
        // For each pair, if a path exists its endpoints match and each
        // hop is a real edge.
        let edge_set: BTreeSet<(usize, usize)> = edges
            .iter()
            .map(|&(a, b)| (a.max(b), a.min(b)))
            .filter(|(a, b)| a != b)
            .collect();
        for a in 0..n {
            for b in 0..n {
                if let Some(path) = graph.path(&q(a), &q(b)) {
                    assert_eq!(path.first().unwrap(), &q(a));
                    assert_eq!(path.last().unwrap(), &q(b));
                    for w in path.windows(2) {
                        let from: usize = w[0].local()[1..].parse().unwrap();
                        let to: usize = w[1].local()[1..].parse().unwrap();
                        assert!(
                            edge_set.contains(&(from, to)),
                            "hop {from}->{to} is not an edge"
                        );
                    }
                }
            }
        }
    });
}
