//! The planned lineage-query engine: executes `prov-model` query IR
//! ([`PathQuery`]) against a prebuilt [`ProvGraph`] index.
//!
//! The module has three layers:
//!
//! * **filters** — [`filter_nodes`] evaluates an [`ElementFilter`]
//!   over the graph's nodes (ascending node index; single-id filters
//!   are one index lookup).
//! * **planner** — [`plan`] costs executing a pattern from its start
//!   anchors versus from its end anchors using the index statistics
//!   ([`crate::GraphIndexStats`]): anchor-set sizes (O(1) for single-id
//!   filters, one node scan otherwise) times the number of edges each
//!   step can touch, from the per-relation-kind edge counters.
//! * **executor** — [`execute`] runs the chosen plan entirely against
//!   the cached index: per anchor, each step expands the frontier with
//!   a layered walk (exact hop levels up to `repeat.min`/`max`, then a
//!   seen-marked BFS for unbounded tails), filters landings through the
//!   step's target, and records predecessors for witness paths.
//!
//! Step semantics are *existential walks*: a node matches a step when
//! some walk of an allowed length, over allowed edge kinds, connects it
//! to the previous frontier. Walks may revisit nodes inside the exact
//! phase (so `repeat: 2` matches `a -> b -> a`), which makes the
//! semantics symmetric under reversal — the property that lets the
//! planner run a pattern from whichever end is cheaper and flip the
//! rows afterwards.

use crate::graph::ProvGraph;
use prov_model::query::{ElementFilter, PathQuery, Step, StepDirection};
use prov_model::{ProvDocument, ProvError, QName, RelationKind};
use std::collections::{BTreeMap, BTreeSet, VecDeque};

// ---------------------------------------------------------------------
// Filters
// ---------------------------------------------------------------------

/// Node indices of `graph` matching `filter`, ascending. Dangling
/// references participate (they match filters without element-backed
/// clauses). Single-id filters resolve through the index in O(1)
/// instead of scanning.
pub fn filter_nodes(graph: &ProvGraph<'_>, filter: &ElementFilter) -> Vec<usize> {
    if let Some(id) = &filter.id {
        return match graph.node(id) {
            Some(n) if filter.matches(graph.id(n), graph.element(n)) => vec![n],
            _ => Vec::new(),
        };
    }
    (0..graph.node_count())
        .filter(|&i| filter.matches(graph.id(i), graph.element(i)))
        .collect()
}

/// Neighbors of `node` along edges the step allows, with the edge index
/// carried for witness reconstruction.
fn neighbors<'g>(
    graph: &'g ProvGraph<'_>,
    node: usize,
    step: &'g Step,
) -> impl Iterator<Item = (usize, usize)> + 'g {
    let forward = step.direction == StepDirection::Forward;
    let edges: Box<dyn Iterator<Item = &crate::graph::Edge>> = if forward {
        Box::new(graph.out_edges(node))
    } else {
        Box::new(graph.in_edges(node))
    };
    edges.filter_map(move |e| {
        if !step.kinds.is_empty() && !step.kinds.contains(&e.kind) {
            return None;
        }
        Some((if forward { e.to } else { e.from }, e.relation))
    })
}

// ---------------------------------------------------------------------
// Planner
// ---------------------------------------------------------------------

/// Which end of the pattern the executor anchors at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanSide {
    /// Anchor on the `start` filter and walk the steps as written.
    FromStart,
    /// Anchor on the final step's target and walk the reversed steps
    /// with flipped directions, flipping the rows afterwards.
    FromEnd,
}

/// The planner's decision and the statistics it was based on.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryPlan {
    /// The chosen anchor side.
    pub side: PlanSide,
    /// Nodes matching the start filter.
    pub start_candidates: usize,
    /// Nodes matching the last step's target (equal to
    /// `start_candidates` for step-less queries).
    pub end_candidates: usize,
    /// Estimated edge visits executing from the start anchors.
    pub cost_from_start: f64,
    /// Estimated edge visits executing from the end anchors.
    pub cost_from_end: f64,
    /// One-line human-readable justification.
    pub reason: String,
}

/// Costs both anchor sides of `query` against the index statistics and
/// picks the cheaper one.
///
/// The cost model is deliberately simple: executing from an anchor set
/// of size `A` over steps `s₁..sₙ` visits at most
/// `A × Σᵢ edges(sᵢ.kinds)` edges, where `edges(kinds)` comes from the
/// per-relation-kind counters the index maintains
/// ([`crate::GraphIndex::kind_count`]). Anchor counts are the lengths
/// of the [`filter_nodes`] sets the executor anchors at: O(1) for
/// single-id filters, one node scan otherwise — never an edge walk.
pub fn plan(graph: &ProvGraph<'_>, query: &PathQuery) -> QueryPlan {
    let start_candidates = filter_nodes(graph, &query.start).len();
    let end_candidates = match query.steps.last() {
        Some(step) => filter_nodes(graph, &step.target).len(),
        None => start_candidates,
    };

    let edge_budget: f64 = query
        .steps
        .iter()
        .map(|s| step_edges(graph, s) as f64)
        .sum();
    let cost_from_start = start_candidates as f64 * edge_budget;
    let cost_from_end = end_candidates as f64 * edge_budget;

    // Step-less patterns have nothing to reverse, and reversing only
    // pays when the far anchor set is strictly smaller.
    let side = if query.steps.is_empty() || cost_from_start <= cost_from_end {
        PlanSide::FromStart
    } else {
        PlanSide::FromEnd
    };
    let reason = match side {
        PlanSide::FromStart => format!(
            "{start_candidates} start anchor(s) x {edge_budget:.0} step edges \
             <= {end_candidates} end anchor(s); walking forward"
        ),
        PlanSide::FromEnd => format!(
            "{end_candidates} end anchor(s) x {edge_budget:.0} step edges \
             < {start_candidates} start anchor(s); walking the pattern reversed"
        ),
    };
    QueryPlan {
        side,
        start_candidates,
        end_candidates,
        cost_from_start,
        cost_from_end,
        reason,
    }
}

/// Edges a step can possibly traverse, from the per-kind counters.
fn step_edges(graph: &ProvGraph<'_>, step: &Step) -> usize {
    if step.kinds.is_empty() {
        graph.edge_count()
    } else {
        let mut kinds: Vec<RelationKind> = step.kinds.clone();
        kinds.dedup();
        kinds.iter().map(|&k| graph.index().kind_count(k)).sum()
    }
}

// ---------------------------------------------------------------------
// Executor
// ---------------------------------------------------------------------

/// One `(start, end)` binding of a path pattern, with a witness path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MatchRow {
    /// The anchor node (matching the query's `start` filter).
    pub start: QName,
    /// The landing node (matching the final step's target).
    pub end: QName,
    /// One witness path `start..=end` in pattern orientation. Any valid
    /// witness may be returned; plans anchored at opposite ends can
    /// produce different (equally valid) witnesses.
    pub path: Vec<QName>,
}

/// The result of executing a [`PathQuery`].
#[derive(Debug, Clone, PartialEq)]
pub struct MatchSet {
    /// The plan that produced the rows.
    pub plan: QueryPlan,
    /// Matched `(start, end)` rows, sorted by `(start, end)`.
    pub rows: Vec<MatchRow>,
    /// True when the query's `limit` cut the row list short.
    pub truncated: bool,
}

impl MatchSet {
    /// Every node appearing on any witness path — the matched subgraph
    /// to hand to [`crate::subgraph`] / DOT rendering.
    pub fn node_set(&self) -> BTreeSet<QName> {
        self.rows
            .iter()
            .flat_map(|r| r.path.iter().cloned())
            .collect()
    }
}

/// Plans and executes `query` against `graph`.
pub fn execute(graph: &ProvGraph<'_>, query: &PathQuery) -> MatchSet {
    let plan = plan(graph, query);
    execute_with_plan(graph, query, plan)
}

/// Executes `query` under an already-computed plan.
pub fn execute_with_plan(graph: &ProvGraph<'_>, query: &PathQuery, plan: QueryPlan) -> MatchSet {
    let (anchors_filter, steps): (&ElementFilter, Vec<Step>) = match plan.side {
        PlanSide::FromStart => (&query.start, query.steps.clone()),
        PlanSide::FromEnd => (
            &query.steps.last().expect("FromEnd implies steps").target,
            reversed_steps(query),
        ),
    };

    let mut rows = Vec::new();
    for anchor in filter_nodes(graph, anchors_filter) {
        for (end, path) in run_steps(graph, anchor, &steps) {
            rows.push(match plan.side {
                PlanSide::FromStart => MatchRow {
                    start: graph.id(anchor).clone(),
                    end: graph.id(end).clone(),
                    path: path.iter().map(|&n| graph.id(n).clone()).collect(),
                },
                PlanSide::FromEnd => MatchRow {
                    start: graph.id(end).clone(),
                    end: graph.id(anchor).clone(),
                    path: path.iter().rev().map(|&n| graph.id(n).clone()).collect(),
                },
            });
        }
    }
    // Deterministic row order regardless of the plan side or internal
    // visit order; witnesses ride along with their row.
    rows.sort_by(|a, b| (&a.start, &a.end).cmp(&(&b.start, &b.end)));
    rows.dedup_by(|a, b| a.start == b.start && a.end == b.end);
    let mut truncated = false;
    if let Some(limit) = query.limit {
        if rows.len() > limit {
            rows.truncate(limit);
            truncated = true;
        }
    }
    MatchSet {
        plan,
        rows,
        truncated,
    }
}

/// The pattern as walked from its far end: steps reversed, directions
/// flipped, and each step landing on the *previous* step's target (the
/// first landing on the query's start filter).
fn reversed_steps(query: &PathQuery) -> Vec<Step> {
    let n = query.steps.len();
    (0..n)
        .rev()
        .map(|k| Step {
            kinds: query.steps[k].kinds.clone(),
            direction: query.steps[k].direction.flipped(),
            repeat: query.steps[k].repeat,
            target: if k == 0 {
                query.start.clone()
            } else {
                query.steps[k - 1].target.clone()
            },
        })
        .collect()
}

/// Runs all steps from one anchor. Returns `(end node, witness path)`
/// per landing, where the witness includes the anchor itself.
fn run_steps(graph: &ProvGraph<'_>, anchor: usize, steps: &[Step]) -> Vec<(usize, Vec<usize>)> {
    // Frontier nodes with their witness path from the anchor.
    let mut frontier: BTreeMap<usize, Vec<usize>> = BTreeMap::from([(anchor, vec![anchor])]);
    for step in steps {
        frontier = expand_step(graph, &frontier, step);
        if frontier.is_empty() {
            return Vec::new();
        }
    }
    frontier.into_iter().collect()
}

/// Expands one step from `frontier`: a layered walk for the exact hop
/// window, a seen-marked BFS for an unbounded tail, then the target
/// filter over the landings.
fn expand_step(
    graph: &ProvGraph<'_>,
    frontier: &BTreeMap<usize, Vec<usize>>,
    step: &Step,
) -> BTreeMap<usize, Vec<usize>> {
    let min = step.repeat.min;
    // Reached nodes with a witness path of *valid* length (the exact
    // phase only records a node once it is >= min hops out).
    let mut reached: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
    if min == 0 {
        reached.extend(frontier.iter().map(|(&n, p)| (n, p.clone())));
    }

    // Exact phase: walk level sets hop by hop (revisits across levels
    // allowed — walk semantics keep reversal symmetric). Levels run to
    // `max` when bounded, else to `min`, where the closure phase takes
    // over.
    let levels = step.repeat.max.unwrap_or(min);
    let mut level: BTreeMap<usize, Vec<usize>> = frontier.clone();
    for hop in 1..=levels {
        let mut next: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
        for (&node, path) in &level {
            for (succ, _edge) in neighbors(graph, node, step) {
                next.entry(succ).or_insert_with(|| {
                    let mut p = path.clone();
                    p.push(succ);
                    p
                });
            }
        }
        if hop >= min {
            for (n, p) in &next {
                reached.entry(*n).or_insert_with(|| p.clone());
            }
        }
        // Advance even when `next` is empty: a dead-ended walk must
        // leave an empty level behind, or the unbounded tail below
        // would re-seed from nodes whose witness is < min hops and
        // resurrect the anchor as a spurious 0-hop landing.
        level = next;
        if level.is_empty() {
            break;
        }
    }

    // Unbounded tail: anything reachable onward from the last exact
    // level already has a >= min-hop walk, so plain seen-marked BFS
    // suffices (and terminates on cycles).
    if step.repeat.max.is_none() {
        let mut seen = vec![false; graph.node_count()];
        let mut queue: VecDeque<usize> = VecDeque::new();
        for (&n, p) in &level {
            if !seen[n] {
                seen[n] = true;
                reached.entry(n).or_insert_with(|| p.clone());
                queue.push_back(n);
            }
        }
        while let Some(node) = queue.pop_front() {
            let base = reached[&node].clone();
            for (succ, _edge) in neighbors(graph, node, step) {
                if !seen[succ] {
                    seen[succ] = true;
                    let mut p = base.clone();
                    p.push(succ);
                    reached.entry(succ).or_insert(p);
                    queue.push_back(succ);
                }
            }
        }
    }

    reached
        .into_iter()
        .filter(|(n, _)| step.target.matches(graph.id(*n), graph.element(*n)))
        .collect()
}

// ---------------------------------------------------------------------
// Multi-document joins
// ---------------------------------------------------------------------

/// Merges several documents into one canonical view — the substrate of
/// cross-document queries (the service's `docs=[...]` join form and the
/// audit module's cross-run join). Namespaces and records merge under
/// the usual conflict rules; the result is canonicalized so node order
/// is deterministic regardless of input order.
pub fn merged_document(docs: &[&ProvDocument]) -> Result<ProvDocument, ProvError> {
    let mut merged = ProvDocument::new();
    for doc in docs {
        merged.merge(doc)?;
    }
    merged.canonicalize();
    Ok(merged)
}

#[cfg(test)]
mod tests {
    use super::*;
    use prov_model::query::Repeat;
    use prov_model::{AttrValue, ElementKind};

    fn q(local: &str) -> QName {
        QName::new("ex", local)
    }

    /// test_set -> used by train (backward edge train->test_set), plus a
    /// derivation chain: model <- train <- {train_set, test_set}.
    fn leaky_doc() -> ProvDocument {
        let mut doc = ProvDocument::new();
        doc.namespaces_mut().register("ex", "http://ex/").unwrap();
        doc.entity(q("train_set"))
            .attr(q("split"), AttrValue::String("train".into()));
        doc.entity(q("test_set"))
            .attr(q("split"), AttrValue::String("test".into()));
        doc.entity(q("features"));
        doc.activity(q("train"));
        doc.entity(q("model"));
        doc.was_derived_from(q("features"), q("test_set"));
        doc.used(q("train"), q("train_set"));
        doc.used(q("train"), q("features"));
        doc.was_generated_by(q("model"), q("train"));
        doc
    }

    fn leak_query() -> PathQuery {
        PathQuery {
            start: ElementFilter {
                kind: Some(ElementKind::Entity),
                attr_equals: Some((q("split"), "test".into())),
                ..Default::default()
            },
            steps: vec![Step {
                kinds: vec![RelationKind::WasDerivedFrom, RelationKind::Used],
                direction: StepDirection::Backward,
                repeat: Repeat::plus(),
                target: ElementFilter {
                    kind: Some(ElementKind::Activity),
                    id_contains: Some("train".into()),
                    ..Default::default()
                },
            }],
            limit: None,
        }
    }

    #[test]
    fn path_pattern_finds_the_leak() {
        let doc = leaky_doc();
        let graph = ProvGraph::new(&doc);
        let result = execute(&graph, &leak_query());
        assert_eq!(result.rows.len(), 1);
        let row = &result.rows[0];
        assert_eq!(row.start, q("test_set"));
        assert_eq!(row.end, q("train"));
        assert_eq!(row.path, vec![q("test_set"), q("features"), q("train")]);
        assert!(!result.truncated);
    }

    #[test]
    fn both_plan_sides_agree_on_rows() {
        let doc = leaky_doc();
        let graph = ProvGraph::new(&doc);
        let query = leak_query();
        let base = plan(&graph, &query);
        for side in [PlanSide::FromStart, PlanSide::FromEnd] {
            let mut p = base.clone();
            p.side = side;
            let result = execute_with_plan(&graph, &query, p);
            let rows: Vec<(QName, QName)> = result
                .rows
                .iter()
                .map(|r| (r.start.clone(), r.end.clone()))
                .collect();
            assert_eq!(rows, vec![(q("test_set"), q("train"))], "{side:?}");
            // Witnesses are real paths in pattern orientation.
            for row in &result.rows {
                assert_eq!(row.path.first(), Some(&row.start));
                assert_eq!(row.path.last(), Some(&row.end));
            }
        }
    }

    #[test]
    fn planner_prefers_the_smaller_anchor_set() {
        let doc = leaky_doc();
        let graph = ProvGraph::new(&doc);
        // Unselective start (any entity), selective end (single id):
        // the planner should flip.
        let query = PathQuery {
            start: ElementFilter::by_kind(ElementKind::Entity),
            steps: vec![Step {
                kinds: vec![],
                direction: StepDirection::Backward,
                repeat: Repeat::plus(),
                target: ElementFilter::by_id(q("model")),
            }],
            limit: None,
        };
        let p = plan(&graph, &query);
        assert_eq!(p.side, PlanSide::FromEnd);
        assert_eq!(p.end_candidates, 1);
        assert!(p.cost_from_end < p.cost_from_start);
        // And the flipped execution still reports rows in pattern
        // orientation: entities upstream of the model.
        let result = execute_with_plan(&graph, &query, p);
        let starts: BTreeSet<QName> = result.rows.iter().map(|r| r.start.clone()).collect();
        assert!(starts.contains(&q("test_set")));
        assert!(starts.contains(&q("train_set")));
        assert!(result.rows.iter().all(|r| r.end == q("model")));
    }

    #[test]
    fn single_id_anchor_skips_the_node_scan_but_still_filters() {
        let doc = leaky_doc();
        let graph = ProvGraph::new(&doc);
        let mut f = ElementFilter::by_id(q("model"));
        f.kind = Some(ElementKind::Activity); // model is an entity
        assert!(filter_nodes(&graph, &f).is_empty());
        f.kind = Some(ElementKind::Entity);
        assert_eq!(filter_nodes(&graph, &f).len(), 1);
    }

    #[test]
    fn repeat_zero_matches_the_anchor_itself() {
        let doc = leaky_doc();
        let graph = ProvGraph::new(&doc);
        let query = PathQuery {
            start: ElementFilter::by_id(q("model")),
            steps: vec![Step {
                kinds: vec![],
                direction: StepDirection::Forward,
                repeat: Repeat::star(),
                target: ElementFilter::any(),
            }],
            limit: None,
        };
        let result = execute(&graph, &query);
        let ends: BTreeSet<QName> = result.rows.iter().map(|r| r.end.clone()).collect();
        assert!(ends.contains(&q("model")), "star includes zero hops");
        assert!(ends.contains(&q("test_set")), "star reaches the origins");
    }

    #[test]
    fn bounded_repeat_windows_hops() {
        // Chain e3 -> e2 -> e1 -> e0 (derivations).
        let mut doc = ProvDocument::new();
        doc.namespaces_mut().register("ex", "http://ex/").unwrap();
        for i in 0..4 {
            doc.entity(q(&format!("e{i}")));
        }
        for i in (1..4).rev() {
            doc.was_derived_from(q(&format!("e{i}")), q(&format!("e{}", i - 1)));
        }
        let graph = ProvGraph::new(&doc);
        let run = |min: usize, max: Option<usize>| -> BTreeSet<QName> {
            let query = PathQuery {
                start: ElementFilter::by_id(q("e3")),
                steps: vec![Step {
                    kinds: vec![RelationKind::WasDerivedFrom],
                    direction: StepDirection::Forward,
                    repeat: Repeat { min, max },
                    target: ElementFilter::any(),
                }],
                limit: None,
            };
            execute(&graph, &query)
                .rows
                .into_iter()
                .map(|r| r.end)
                .collect()
        };
        assert_eq!(run(1, Some(1)), [q("e2")].into_iter().collect());
        assert_eq!(run(2, Some(3)), [q("e1"), q("e0")].into_iter().collect());
        assert_eq!(run(2, None), [q("e1"), q("e0")].into_iter().collect());
        assert_eq!(run(0, Some(0)), [q("e3")].into_iter().collect());
    }

    #[test]
    fn cycles_terminate_and_exact_hops_may_revisit() {
        let mut doc = ProvDocument::new();
        doc.namespaces_mut().register("ex", "http://ex/").unwrap();
        doc.entity(q("a"));
        doc.entity(q("b"));
        doc.was_derived_from(q("a"), q("b"));
        doc.was_derived_from(q("b"), q("a"));
        let graph = ProvGraph::new(&doc);
        let query = PathQuery {
            start: ElementFilter::by_id(q("a")),
            steps: vec![Step {
                kinds: vec![],
                direction: StepDirection::Forward,
                repeat: Repeat {
                    min: 2,
                    max: Some(2),
                },
                target: ElementFilter::any(),
            }],
            limit: None,
        };
        let result = execute(&graph, &query);
        // Exactly two hops around the cycle lands back on `a`.
        assert_eq!(result.rows.len(), 1);
        assert_eq!(result.rows[0].end, q("a"));
        // And unbounded repeats terminate despite the cycle.
        let query = PathQuery {
            start: ElementFilter::by_id(q("a")),
            steps: vec![Step {
                repeat: Repeat::plus(),
                ..Default::default()
            }],
            limit: None,
        };
        let result = execute(&graph, &query);
        let ends: BTreeSet<QName> = result.rows.into_iter().map(|r| r.end).collect();
        assert_eq!(ends, [q("a"), q("b")].into_iter().collect());
    }

    #[test]
    fn limit_truncates_and_reports() {
        let doc = leaky_doc();
        let graph = ProvGraph::new(&doc);
        let query = PathQuery {
            start: ElementFilter::any(),
            steps: vec![],
            limit: Some(2),
        };
        let result = execute(&graph, &query);
        assert_eq!(result.rows.len(), 2);
        assert!(result.truncated);
    }

    #[test]
    fn multi_step_patterns_chain_frontiers() {
        let doc = leaky_doc();
        let graph = ProvGraph::new(&doc);
        // model -> generating activity -> entities it used.
        let query = PathQuery {
            start: ElementFilter::by_id(q("model")),
            steps: vec![
                Step {
                    kinds: vec![RelationKind::WasGeneratedBy],
                    direction: StepDirection::Forward,
                    repeat: Repeat::once(),
                    target: ElementFilter::by_kind(ElementKind::Activity),
                },
                Step {
                    kinds: vec![RelationKind::Used],
                    direction: StepDirection::Forward,
                    repeat: Repeat::once(),
                    target: ElementFilter::by_kind(ElementKind::Entity),
                },
            ],
            limit: None,
        };
        let result = execute(&graph, &query);
        let ends: BTreeSet<QName> = result.rows.iter().map(|r| r.end.clone()).collect();
        assert_eq!(ends, [q("train_set"), q("features")].into_iter().collect());
        for row in &result.rows {
            assert_eq!(row.path.len(), 3, "anchor + two hops");
        }
    }

    #[test]
    fn dead_end_anchor_yields_no_zero_hop_self_row() {
        // `test_set` has no out-edges; a `+` repeat from it must not
        // resurrect the anchor as a spurious 0-hop landing when the
        // unbounded tail takes over from a dead-ended exact phase.
        let doc = leaky_doc();
        let graph = ProvGraph::new(&doc);
        let query = PathQuery {
            start: ElementFilter::by_id(q("test_set")),
            steps: vec![Step {
                kinds: Vec::new(),
                direction: StepDirection::Forward,
                repeat: Repeat::plus(),
                target: ElementFilter::any(),
            }],
            limit: None,
        };
        let result = execute(&graph, &query);
        assert!(
            result.rows.is_empty(),
            "no >= 1-hop landing exists, got {:?}",
            result.rows
        );
        // A `*` repeat still lands on the anchor itself (0 hops is in
        // the window).
        let star = PathQuery {
            steps: vec![Step {
                repeat: Repeat::star(),
                ..query.steps[0].clone()
            }],
            ..query
        };
        let result = execute(&graph, &star);
        assert_eq!(result.rows.len(), 1);
        assert_eq!(result.rows[0].end, q("test_set"));
    }

    /// splitmix64: the seeded generator behind the two properties
    /// below (`tests/proptest_graph.rs` holds their forward-only forms).
    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// 200 documents of 2..=14 entities and 0..40 random influence
    /// edges: cycles, self-loops and parallel edges all occur.
    fn seeded_docs() -> impl Iterator<Item = (usize, ProvDocument)> {
        let mut rng = 0x5EED_u64;
        (0..200).map(move |_| {
            let n = 2 + (splitmix(&mut rng) % 13) as usize;
            let mut doc = ProvDocument::new();
            doc.namespaces_mut().register("ex", "http://ex/").unwrap();
            for i in 0..n {
                doc.entity(q(&format!("n{i}")));
            }
            for _ in 0..splitmix(&mut rng) % 40 {
                let from = splitmix(&mut rng) as usize % n;
                let to = splitmix(&mut rng) as usize % n;
                doc.add_relation(prov_model::Relation::new(
                    RelationKind::WasInfluencedBy,
                    q(&format!("n{from}")),
                    q(&format!("n{to}")),
                ));
            }
            (n, doc)
        })
    }

    fn ends_of(
        graph: &ProvGraph<'_>,
        start: QName,
        direction: StepDirection,
        repeat: Repeat,
    ) -> BTreeSet<QName> {
        let query = PathQuery {
            start: ElementFilter::by_id(start),
            steps: vec![Step {
                kinds: Vec::new(),
                direction,
                repeat,
                target: ElementFilter::any(),
            }],
            limit: None,
        };
        execute(graph, &query)
            .rows
            .into_iter()
            .map(|r| r.end)
            .collect()
    }

    /// The reference for a `{0,depth}` repeat: every node within
    /// `depth` hops of `start`, by breadth-first search over the
    /// graph's own adjacency.
    fn within_hops(
        graph: &ProvGraph<'_>,
        start: &QName,
        direction: StepDirection,
        depth: usize,
    ) -> BTreeSet<QName> {
        let start = graph.node(start).unwrap();
        let mut dist = vec![usize::MAX; graph.node_count()];
        dist[start] = 0;
        let mut queue = VecDeque::from([start]);
        while let Some(node) = queue.pop_front() {
            if dist[node] == depth {
                continue;
            }
            let next: Vec<usize> = match direction {
                StepDirection::Forward => graph.out_edges(node).map(|e| e.to).collect(),
                StepDirection::Backward => graph.in_edges(node).map(|e| e.from).collect(),
            };
            for m in next {
                if dist[m] == usize::MAX {
                    dist[m] = dist[node] + 1;
                    queue.push_back(m);
                }
            }
        }
        (0..graph.node_count())
            .filter(|&i| dist[i] != usize::MAX)
            .map(|i| graph.id(i).clone())
            .collect()
    }

    #[test]
    fn bounded_repeat_matches_a_depth_bounded_bfs() {
        for (n, doc) in seeded_docs() {
            let graph = ProvGraph::new(&doc);
            for direction in [StepDirection::Forward, StepDirection::Backward] {
                for depth in 0..6 {
                    for a in 0..n {
                        let id = q(&format!("n{a}"));
                        let repeat = Repeat {
                            min: 0,
                            max: Some(depth),
                        };
                        assert_eq!(
                            ends_of(&graph, id.clone(), direction, repeat),
                            within_hops(&graph, &id, direction, depth),
                            "node {a} depth {depth} {direction:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn plus_repeat_matches_reachability_minus_the_anchor() {
        // On a cycle the engine reports the >= 1-hop walk back to the
        // anchor; `ancestors`/`descendants` exclude it by construction.
        for (n, doc) in seeded_docs() {
            let graph = ProvGraph::new(&doc);
            for a in 0..n {
                let id = q(&format!("n{a}"));
                let mut up = ends_of(&graph, id.clone(), StepDirection::Forward, Repeat::plus());
                up.remove(&id);
                assert_eq!(up, graph.ancestors(&id), "ancestors of n{a}");
                let mut down = ends_of(&graph, id.clone(), StepDirection::Backward, Repeat::plus());
                down.remove(&id);
                assert_eq!(down, graph.descendants(&id), "descendants of n{a}");
            }
        }
        assert!(ends_of(
            &ProvGraph::new(&leaky_doc()),
            q("ghost"),
            StepDirection::Forward,
            Repeat::plus()
        )
        .is_empty());
    }

    #[test]
    fn merged_document_joins_namespaces_and_records() {
        let mut a = ProvDocument::new();
        a.namespaces_mut().register("ex", "http://ex/").unwrap();
        a.entity(q("shared"));
        a.entity(q("only_a"));
        let mut b = ProvDocument::new();
        b.namespaces_mut().register("ex", "http://ex/").unwrap();
        b.entity(q("shared"));
        b.activity(q("only_b"));
        b.used(q("only_b"), q("shared"));
        let merged = merged_document(&[&a, &b]).unwrap();
        assert_eq!(merged.element_count(), 3);
        assert_eq!(merged.relation_count(), 1);
    }
}
