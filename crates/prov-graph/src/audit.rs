//! ML-audit scenarios over the lineage query engine.
//!
//! The three mlprov exemplar audits (SNIPPETS.md §1), expressed as
//! [`crate::engine`] path patterns over run-level (yprov4ml) and
//! workflow-level (yprov4wfs) provenance documents, plus a Tribuo-style
//! cross-run lineage join over a merged multi-document view:
//!
//! * [`data_leakage`] — does any *test* artifact reach a *training*
//!   activity? (`test entity <-(used|wasDerivedFrom|wasGeneratedBy|hadMember)+ training activity`)
//! * [`gdpr_trained_on`] — "have I been trained on?": is `sample`
//!   anywhere in `model`'s provenance closure, and along which path?
//! * [`group_fairness`] — which group values (an attribute such as
//!   `yprov4ml:group` on dataset entities) fed the model, and in what
//!   proportion?
//! * [`cross_run_join`] — join several documents on content digests
//!   (`yprov4ml:sha256` by default): artifacts carrying the same digest
//!   across runs/workflows, with their producing and consuming
//!   activities.
//!
//! Each planned audit is an IR builder plus a fold (`from_set`) of the
//! [`MatchSet`] its query returns, and its wrapper above is
//! `fold(execute(builder))`; the service executes the builder once and
//! folds the set it holds. All run against prebuilt [`ProvGraph`] views.

use crate::engine::{self, MatchRow, MatchSet};
use crate::graph::ProvGraph;
use prov_model::query::{ElementFilter, PathQuery, Repeat, Step, StepDirection};
use prov_model::{ElementKind, QName, RelationKind};
use std::collections::{BTreeMap, BTreeSet};

/// Relation kinds along which data can flow from an artifact into an
/// activity's working set: direct use, derivation chains, generation
/// (an activity's output leaking into another's input) and collection
/// membership.
fn dataflow_kinds() -> Vec<RelationKind> {
    vec![
        RelationKind::Used,
        RelationKind::WasDerivedFrom,
        RelationKind::WasGeneratedBy,
        RelationKind::HadMember,
    ]
}

/// The default filter for *test* artifacts: entities marked
/// `yprov4ml:split = "test"`, typed `yprov4ml:TestSet`, or with `test`
/// in their local identifier.
pub fn default_test_filter() -> ElementFilter {
    ElementFilter {
        kind: Some(ElementKind::Entity),
        any_of: vec![
            ElementFilter {
                attr_equals: Some((QName::yprov("split"), "test".into())),
                ..Default::default()
            },
            ElementFilter::by_type(QName::yprov("TestSet")),
            ElementFilter {
                id_contains: Some("test".into()),
                ..Default::default()
            },
        ],
        ..Default::default()
    }
}

/// The default filter for *training* activities: activities typed
/// `yprov4ml:Training` or with `train` in their local identifier.
pub fn default_training_filter() -> ElementFilter {
    ElementFilter {
        kind: Some(ElementKind::Activity),
        any_of: vec![
            ElementFilter::by_type(QName::yprov("Training")),
            ElementFilter {
                id_contains: Some("train".into()),
                ..Default::default()
            },
        ],
        ..Default::default()
    }
}

/// One detected leak: a test artifact whose data reaches a training
/// activity, with the witness path between them.
pub type Leak = MatchRow;

/// The data-leakage audit's result.
#[derive(Debug, Clone, PartialEq)]
pub struct LeakageReport {
    /// Detected leaks, sorted by `(test artifact, training activity)`.
    pub leaks: Vec<Leak>,
    /// How many nodes matched the test filter (audit coverage).
    pub test_artifacts: usize,
    /// How many nodes matched the training filter.
    pub training_activities: usize,
}

impl LeakageReport {
    /// Folds the set [`leakage_query`] returned: the coverage counts
    /// are the plan's anchor counts.
    pub fn from_set(set: MatchSet) -> Self {
        LeakageReport {
            test_artifacts: set.plan.start_candidates,
            training_activities: set.plan.end_candidates,
            leaks: set.rows,
        }
    }

    /// True when no test artifact reaches any training activity.
    pub fn is_clean(&self) -> bool {
        self.leaks.is_empty()
    }
}

/// The path pattern behind [`data_leakage`], exposed so callers (and
/// the service) can inspect or re-run exactly what the audit executes.
pub fn leakage_query(test: ElementFilter, training: ElementFilter) -> PathQuery {
    PathQuery {
        start: test,
        steps: vec![Step {
            kinds: dataflow_kinds(),
            direction: StepDirection::Backward,
            repeat: Repeat::plus(),
            target: training,
        }],
        limit: None,
    }
}

/// **Data-leakage detection**: does any test artifact reach a training
/// activity through the dataflow relations? Pass `None` to use the
/// default yprov4ml filters.
pub fn data_leakage(
    graph: &ProvGraph<'_>,
    test: Option<ElementFilter>,
    training: Option<ElementFilter>,
) -> LeakageReport {
    let test = test.unwrap_or_else(default_test_filter);
    let training = training.unwrap_or_else(default_training_filter);
    LeakageReport::from_set(engine::execute(graph, &leakage_query(test, training)))
}

/// The GDPR audit's result.
#[derive(Debug, Clone, PartialEq)]
pub struct GdprReport {
    /// The queried sample.
    pub sample: QName,
    /// The queried model.
    pub model: QName,
    /// True when the sample is in the model's provenance closure.
    pub trained_on: bool,
    /// A witness path `sample -> ... -> model` when `trained_on`.
    pub path: Vec<QName>,
}

impl GdprReport {
    /// Folds the set [`gdpr_query`] returned. The witness path is
    /// reported sample-first — the direction a data subject reads it.
    pub fn from_set(set: MatchSet, sample: &QName, model: &QName) -> Self {
        let path: Vec<QName> = set
            .rows
            .into_iter()
            .next()
            .map(|row| row.path.into_iter().rev().collect())
            .unwrap_or_default();
        GdprReport {
            sample: sample.clone(),
            model: model.clone(),
            trained_on: !path.is_empty(),
            path,
        }
    }
}

/// The path pattern behind [`gdpr_trained_on`].
pub fn gdpr_query(sample: &QName, model: &QName) -> PathQuery {
    PathQuery {
        start: ElementFilter::by_id(model.clone()),
        steps: vec![Step {
            kinds: Vec::new(),
            direction: StepDirection::Forward,
            repeat: Repeat::plus(),
            target: ElementFilter::by_id(sample.clone()),
        }],
        limit: Some(1),
    }
}

/// **GDPR "have I been trained on?"**: is `sample` reachable walking
/// the model's provenance towards its origins?
pub fn gdpr_trained_on(graph: &ProvGraph<'_>, sample: &QName, model: &QName) -> GdprReport {
    GdprReport::from_set(
        engine::execute(graph, &gdpr_query(sample, model)),
        sample,
        model,
    )
}

/// The group-fairness audit's result.
#[derive(Debug, Clone, PartialEq)]
pub struct FairnessReport {
    /// The queried model.
    pub model: QName,
    /// The group attribute key the audit aggregated over.
    pub group_key: QName,
    /// Upstream entities per group value (lexical form), sorted.
    pub groups: BTreeMap<String, usize>,
    /// Total group-carrying entities upstream of the model.
    pub total: usize,
}

impl FairnessReport {
    /// Folds the set [`fairness_query`] returned over `graph`: each
    /// landing's values under `group_key`, counted.
    pub fn from_set(
        graph: &ProvGraph<'_>,
        set: MatchSet,
        model: &QName,
        group_key: &QName,
    ) -> Self {
        let mut groups: BTreeMap<String, usize> = BTreeMap::new();
        let mut total = 0;
        for row in &set.rows {
            let Some(el) = graph.node(&row.end).and_then(|node| graph.element(node)) else {
                continue;
            };
            total += 1;
            for value in el.attrs(group_key) {
                *groups.entry(value.lexical()).or_insert(0) += 1;
            }
        }
        FairnessReport {
            model: model.clone(),
            group_key: group_key.clone(),
            groups,
            total,
        }
    }

    /// Smallest over largest group share; 1.0 when perfectly balanced
    /// or when at most one group exists.
    pub fn balance(&self) -> f64 {
        let max = self.groups.values().copied().max().unwrap_or(0);
        let min = self.groups.values().copied().min().unwrap_or(0);
        if max == 0 {
            1.0
        } else {
            min as f64 / max as f64
        }
    }
}

/// The path pattern behind [`group_fairness`].
pub fn fairness_query(model: &QName, group_key: &QName) -> PathQuery {
    PathQuery {
        start: ElementFilter::by_id(model.clone()),
        steps: vec![Step {
            kinds: Vec::new(),
            direction: StepDirection::Forward,
            repeat: Repeat::plus(),
            target: ElementFilter {
                kind: Some(ElementKind::Entity),
                has_attr: Some(group_key.clone()),
                ..Default::default()
            },
        }],
        limit: None,
    }
}

/// **Group fairness**: aggregates the model's upstream entities by the
/// values they carry under `group_key` (e.g. `yprov4ml:group`), so a
/// skewed training distribution is visible from provenance alone.
pub fn group_fairness(graph: &ProvGraph<'_>, model: &QName, group_key: &QName) -> FairnessReport {
    let set = engine::execute(graph, &fairness_query(model, group_key));
    FairnessReport::from_set(graph, set, model, group_key)
}

/// One digest's join group: every artifact across the merged documents
/// carrying the digest, with the activities that produced/consumed any
/// of them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JoinedArtifact {
    /// The shared content digest.
    pub digest: String,
    /// Entities carrying the digest, sorted.
    pub artifacts: Vec<QName>,
    /// Activities that generated one of the artifacts, sorted.
    pub producers: Vec<QName>,
    /// Activities that used one of the artifacts, sorted.
    pub consumers: Vec<QName>,
}

impl JoinedArtifact {
    /// True when the digest actually joins lineage — multiple artifact
    /// records, or at least a producer *and* a consumer.
    pub fn is_shared(&self) -> bool {
        self.artifacts.len() > 1 || (!self.producers.is_empty() && !self.consumers.is_empty())
    }
}

/// The cross-run join's result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CrossRunJoin {
    /// The digest attribute key joined on.
    pub digest_key: QName,
    /// All digest groups, sorted by digest.
    pub joined: Vec<JoinedArtifact>,
    /// Node/edge counts of the view the join ran over.
    pub merged_nodes: usize,
    pub merged_edges: usize,
}

impl CrossRunJoin {
    /// Only the digests that join lineage across records.
    pub fn shared(&self) -> Vec<&JoinedArtifact> {
        self.joined.iter().filter(|j| j.is_shared()).collect()
    }
}

/// **Cross-run lineage join**: joins the artifacts of `graph` — in the
/// service, the canonical merge of several documents, e.g. yprov4ml
/// runs × yprov4wfs workflows ([`engine::merged_document`]) — on their
/// content digest (`yprov4ml:sha256` when `digest_key` is `None`): the
/// Tribuo-style answer to "which runs and workflow tasks touched the
/// same bytes?".
pub fn cross_run_join(graph: &ProvGraph<'_>, digest_key: Option<QName>) -> CrossRunJoin {
    let digest_key = digest_key.unwrap_or_else(|| QName::yprov("sha256"));

    let carrier = ElementFilter {
        kind: Some(ElementKind::Entity),
        has_attr: Some(digest_key.clone()),
        ..Default::default()
    };
    let mut by_digest: BTreeMap<String, Vec<usize>> = BTreeMap::new();
    for node in engine::filter_nodes(graph, &carrier) {
        let el = graph.element(node).expect("carrier filter requires attrs");
        for value in el.attrs(&digest_key) {
            by_digest.entry(value.lexical()).or_default().push(node);
        }
    }

    let joined = by_digest
        .into_iter()
        .map(|(digest, nodes)| {
            let mut artifacts = BTreeSet::new();
            let mut producers = BTreeSet::new();
            let mut consumers = BTreeSet::new();
            for node in nodes {
                artifacts.insert(graph.id(node).clone());
                // wasGeneratedBy(entity, activity): entity -> activity.
                for e in graph.out_edges(node) {
                    if e.kind == RelationKind::WasGeneratedBy {
                        producers.insert(graph.id(e.to).clone());
                    }
                }
                // used(activity, entity): activity -> entity.
                for e in graph.in_edges(node) {
                    if e.kind == RelationKind::Used {
                        consumers.insert(graph.id(e.from).clone());
                    }
                }
            }
            JoinedArtifact {
                digest,
                artifacts: artifacts.into_iter().collect(),
                producers: producers.into_iter().collect(),
                consumers: consumers.into_iter().collect(),
            }
        })
        .collect();

    CrossRunJoin {
        digest_key,
        joined,
        merged_nodes: graph.node_count(),
        merged_edges: graph.edge_count(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prov_model::{AttrValue, ProvDocument};

    fn q(local: &str) -> QName {
        QName::new("ex", local)
    }

    /// A run document with a leak: the training activity used features
    /// derived from the test split.
    fn leaky_run() -> ProvDocument {
        let mut doc = ProvDocument::new();
        doc.namespaces_mut().register("ex", "http://ex/").unwrap();
        doc.namespaces_mut()
            .register("yprov4ml", prov_model::qname::YPROV_NS)
            .unwrap();
        doc.entity(q("raw"))
            .attr(QName::yprov("group"), AttrValue::String("a".into()));
        doc.entity(q("train_split"))
            .attr(QName::yprov("split"), AttrValue::String("train".into()))
            .attr(QName::yprov("group"), AttrValue::String("a".into()));
        doc.entity(q("test_split"))
            .attr(QName::yprov("split"), AttrValue::String("test".into()))
            .attr(QName::yprov("group"), AttrValue::String("b".into()));
        doc.entity(q("features"));
        doc.activity(q("training_run"))
            .prov_type(QName::yprov("Training"));
        doc.entity(q("model"));
        doc.was_derived_from(q("train_split"), q("raw"));
        doc.was_derived_from(q("test_split"), q("raw"));
        doc.was_derived_from(q("features"), q("test_split"));
        doc.used(q("training_run"), q("train_split"));
        doc.used(q("training_run"), q("features"));
        doc.was_generated_by(q("model"), q("training_run"));
        doc
    }

    #[test]
    fn leakage_detects_the_indirect_leak() {
        let doc = leaky_run();
        let graph = ProvGraph::new(&doc);
        let report = data_leakage(&graph, None, None);
        assert!(!report.is_clean());
        assert_eq!(report.leaks.len(), 1);
        assert_eq!(report.leaks[0].start, q("test_split"));
        assert_eq!(report.leaks[0].end, q("training_run"));
        assert_eq!(
            report.leaks[0].path,
            vec![q("test_split"), q("features"), q("training_run")]
        );
        assert_eq!(report.test_artifacts, 1);
        assert_eq!(report.training_activities, 1);
    }

    #[test]
    fn leakage_is_clean_without_the_leak_edge() {
        let mut doc = ProvDocument::new();
        doc.namespaces_mut().register("ex", "http://ex/").unwrap();
        doc.entity(q("test_split"))
            .attr(QName::yprov("split"), AttrValue::String("test".into()));
        doc.entity(q("train_split"))
            .attr(QName::yprov("split"), AttrValue::String("train".into()));
        doc.activity(q("training_run"));
        doc.used(q("training_run"), q("train_split"));
        let graph = ProvGraph::new(&doc);
        let report = data_leakage(&graph, None, None);
        assert!(report.is_clean());
        assert_eq!(report.test_artifacts, 1);
    }

    #[test]
    fn gdpr_finds_the_sample_and_reports_sample_first() {
        let doc = leaky_run();
        let graph = ProvGraph::new(&doc);
        let report = gdpr_trained_on(&graph, &q("raw"), &q("model"));
        assert!(report.trained_on);
        assert_eq!(report.path.first(), Some(&q("raw")));
        assert_eq!(report.path.last(), Some(&q("model")));

        let report = gdpr_trained_on(&graph, &q("model"), &q("raw"));
        assert!(!report.trained_on, "wrong direction is not membership");
        assert!(report.path.is_empty());
    }

    #[test]
    fn fairness_aggregates_upstream_groups() {
        let doc = leaky_run();
        let graph = ProvGraph::new(&doc);
        let report = group_fairness(&graph, &q("model"), &QName::yprov("group"));
        assert_eq!(report.total, 3);
        assert_eq!(report.groups.get("a"), Some(&2));
        assert_eq!(report.groups.get("b"), Some(&1));
        assert!(report.balance() > 0.0 && report.balance() < 1.0);
    }

    #[test]
    fn cross_run_join_links_runs_through_digests() {
        // Run doc: training generated an artifact with digest d1.
        let mut run = ProvDocument::new();
        run.namespaces_mut().register("ex", "http://ex/").unwrap();
        run.activity(q("training_run"));
        run.entity(q("run_artifact"))
            .attr(QName::yprov("sha256"), AttrValue::String("d1".into()));
        run.was_generated_by(q("run_artifact"), q("training_run"));

        // Workflow doc: a task used an artifact with the same digest.
        let mut wf = ProvDocument::new();
        wf.namespaces_mut().register("ex", "http://ex/").unwrap();
        wf.activity(q("wf_task"));
        wf.entity(q("wf_artifact"))
            .attr(QName::yprov("sha256"), AttrValue::String("d1".into()));
        wf.entity(q("wf_other"))
            .attr(QName::yprov("sha256"), AttrValue::String("d2".into()));
        wf.used(q("wf_task"), q("wf_artifact"));

        let merged = engine::merged_document(&[&run, &wf]).unwrap();
        let join = cross_run_join(&ProvGraph::new(&merged), None);
        assert_eq!(join.joined.len(), 2);
        let shared = join.shared();
        assert_eq!(shared.len(), 1);
        assert_eq!(shared[0].digest, "d1");
        assert_eq!(
            shared[0].artifacts,
            vec![q("run_artifact"), q("wf_artifact")]
        );
        assert_eq!(shared[0].producers, vec![q("training_run")]);
        assert_eq!(shared[0].consumers, vec![q("wf_task")]);
        assert_eq!(merged.element_count(), 5);
    }
}
