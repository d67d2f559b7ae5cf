//! Property tests on graph invariants over randomly generated PROV
//! documents.

use prov_graph::audit::{self, FairnessReport, GdprReport, LeakageReport};
use prov_graph::engine::filter_nodes;
use prov_graph::{execute, execute_with_plan, plan, subgraph, ProvGraph};
use prov_model::query::{Repeat, Step};
use prov_model::{
    AttrValue, ElementFilter, ElementKind, PathQuery, ProvDocument, QName, Relation, RelationKind,
    StepDirection,
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

/// An ML-run-like document over `n` nodes: entities and activities
/// whose names, splits, groups and types the audits' filters read,
/// joined by dataflow relations, some to the two undeclared
/// references `n` and `n + 1`.
fn ml_doc(rng: &mut Rng, size: usize) -> ProvDocument {
    let n = rng.range(2usize..14);
    let mut doc = ProvDocument::new();
    doc.namespaces_mut().register("ex", "http://ex/").unwrap();
    doc.namespaces_mut()
        .register("yprov4ml", prov_model::qname::YPROV_NS)
        .unwrap();
    let ids: Vec<QName> = (0..n)
        .map(|i| QName::new("ex", format!("{}{i}", rng.pick(&["test", "train", "n"]))))
        .collect();
    for id in &ids {
        declare(&mut doc, id.clone(), rng);
    }
    let node = |rng: &mut Rng| match rng.below(ids.len() + 2) {
        i if i < ids.len() => ids[i].clone(),
        i => QName::new("ex", format!("ghost{}", i - ids.len())),
    };
    let kinds = [
        RelationKind::Used,
        RelationKind::WasDerivedFrom,
        RelationKind::WasGeneratedBy,
        RelationKind::HadMember,
        RelationKind::WasInfluencedBy,
    ];
    for _ in 0..rng.len(0..30, size) {
        let kind = *rng.pick(&kinds);
        let (a, b) = (node(rng), node(rng));
        doc.add_relation(Relation::new(kind, a, b));
    }
    doc
}

/// Declares `name` as an entity or an activity with random audit
/// attributes.
fn declare(doc: &mut ProvDocument, name: QName, rng: &mut Rng) {
    if rng.bool() {
        let mut e = doc.entity(name);
        if rng.bool() {
            e = e.attr(
                QName::yprov("split"),
                AttrValue::from(*rng.pick(&["test", "train"])),
            );
        }
        if rng.bool() {
            e = e.attr(
                QName::yprov("group"),
                AttrValue::from(*rng.pick(&["a", "b", "c"])),
            );
        }
        if rng.bool() {
            e.prov_type(QName::yprov("TestSet"));
        }
    } else {
        let a = doc.activity(name);
        if rng.bool() {
            a.prov_type(QName::yprov("Training"));
        }
    }
}

/// A filter from the shapes the audits and the route build: single
/// ids (declared, dangling or absent), kinds, name and attribute
/// clauses, the audits' defaults, and their disjunctions and negations.
fn any_filter(rng: &mut Rng, graph: &ProvGraph<'_>, depth: usize) -> ElementFilter {
    let pick_id = |rng: &mut Rng| match rng.below(graph.node_count() + 1) {
        i if i < graph.node_count() => graph.id(i).clone(),
        _ => QName::new("ex", "absent"),
    };
    match rng.below(if depth == 0 { 8 } else { 10 }) {
        0 => ElementFilter::any(),
        1 => ElementFilter::by_id(pick_id(rng)),
        2 => ElementFilter::by_kind(*rng.pick(&[ElementKind::Entity, ElementKind::Activity])),
        3 => ElementFilter {
            id_contains: Some(rng.pick(&["test", "train", "1"]).to_string()),
            ..Default::default()
        },
        4 => ElementFilter {
            attr_equals: Some((QName::yprov("split"), "test".into())),
            ..Default::default()
        },
        5 => ElementFilter {
            kind: Some(ElementKind::Entity),
            has_attr: Some(QName::yprov("group")),
            ..Default::default()
        },
        6 => audit::default_test_filter(),
        7 => audit::default_training_filter(),
        8 => ElementFilter {
            any_of: vec![
                any_filter(rng, graph, depth - 1),
                any_filter(rng, graph, depth - 1),
            ],
            ..Default::default()
        },
        _ => ElementFilter {
            not: Some(Box::new(any_filter(rng, graph, depth - 1))),
            ..Default::default()
        },
    }
}

/// A query of zero to two steps over `graph`'s filters.
fn any_query(rng: &mut Rng, graph: &ProvGraph<'_>) -> PathQuery {
    let repeats = [
        Repeat::once(),
        Repeat::star(),
        Repeat::plus(),
        Repeat {
            min: 0,
            max: Some(1),
        },
        Repeat {
            min: 2,
            max: Some(3),
        },
        Repeat { min: 2, max: None },
    ];
    let steps = (0..rng.below(3))
        .map(|_| Step {
            kinds: match rng.below(3) {
                0 => Vec::new(),
                1 => vec![RelationKind::Used],
                _ => vec![RelationKind::WasDerivedFrom, RelationKind::WasGeneratedBy],
            },
            direction: *rng.pick(&[StepDirection::Forward, StepDirection::Backward]),
            repeat: *rng.pick(&repeats),
            target: any_filter(rng, graph, 2),
        })
        .collect();
    PathQuery {
        start: any_filter(rng, graph, 2),
        steps,
        limit: rng.bool().then(|| rng.below(4)),
    }
}

/// The planner's anchor counts are the sizes of the anchor sets the
/// executor walks from.
#[test]
fn plan_counts_the_anchor_sets_filter_nodes_returns() {
    check(64, |rng, size| {
        let doc = ml_doc(rng, size);
        let graph = ProvGraph::new(&doc);
        for _ in 0..8 {
            let query = any_query(rng, &graph);
            let p = plan(&graph, &query);
            let end = query.steps.last().map_or(&query.start, |s| &s.target);
            assert_eq!(p.start_candidates, filter_nodes(&graph, &query.start).len());
            assert_eq!(p.end_candidates, filter_nodes(&graph, end).len());
        }
    });
}

/// `execute` is `execute_with_plan` under the plan `plan` makes.
#[test]
fn execute_is_execute_with_plan_of_plan() {
    check(64, |rng, size| {
        let doc = ml_doc(rng, size);
        let graph = ProvGraph::new(&doc);
        for _ in 0..8 {
            let query = any_query(rng, &graph);
            assert_eq!(
                execute(&graph, &query),
                execute_with_plan(&graph, &query, plan(&graph, &query)),
                "{query:?}"
            );
        }
    });
}

/// Each audit's fold of its builder's set is the audit: the wrappers
/// and the service's one planned execution agree.
#[test]
fn audit_folds_equal_their_wrappers() {
    check(64, |rng, size| {
        let doc = ml_doc(rng, size);
        let graph = ProvGraph::new(&doc);
        let id = |rng: &mut Rng| graph.id(rng.below(graph.node_count())).clone();
        for _ in 0..4 {
            let (test, training) = (any_filter(rng, &graph, 1), any_filter(rng, &graph, 1));
            let set = execute(
                &graph,
                &audit::leakage_query(test.clone(), training.clone()),
            );
            assert_eq!(
                LeakageReport::from_set(set),
                audit::data_leakage(&graph, Some(test.clone()), Some(training.clone())),
            );
            // The coverage counts are the filters' own node counts.
            let report = audit::data_leakage(&graph, Some(test.clone()), Some(training.clone()));
            assert_eq!(report.test_artifacts, filter_nodes(&graph, &test).len());
            assert_eq!(
                report.training_activities,
                filter_nodes(&graph, &training).len()
            );

            let (sample, model) = (id(rng), id(rng));
            let set = execute(&graph, &audit::gdpr_query(&sample, &model));
            assert_eq!(
                GdprReport::from_set(set, &sample, &model),
                audit::gdpr_trained_on(&graph, &sample, &model),
            );

            let key = QName::yprov(rng.pick(&["group", "split"]));
            let set = execute(&graph, &audit::fairness_query(&model, &key));
            assert_eq!(
                FairnessReport::from_set(&graph, set, &model, &key),
                audit::group_fairness(&graph, &model, &key),
            );
        }
    });
}
