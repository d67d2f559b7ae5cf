//! Mapping a finished run onto the W3C PROV model.
//!
//! The emitted document follows the structure visible in the paper's
//! Figure 1: one activity per run, one sub-activity per context, input
//! artifacts attached with `used`, outputs with `wasGeneratedBy`, and a
//! software agent (the library) plus a user agent associated with the
//! run. Metric series become entities generated by their context's
//! activity; inline mode embeds the full sample array (which is what
//! makes the paper's `Original_file.json` 39.8 MB), spilled mode records
//! a link into the side store instead.
//!
//! A live run builds a document at every cut
//! ([`crate::run::Run::snapshot_document`]) and once more at the finish.
//! Its inline series text lives in an `InlineCache` across those builds,
//! so each sample is formatted once per run, not once per cut. A cut
//! formats on the caller; the last build formats each series as one
//! task on the finalize pool, and every record writes `prov.json` and
//! `prov.provn` as two tasks on it.

use crate::collector::RunState;
use crate::error::ProvMLError;
use crate::model::{Context, Direction, RunReport, RunStatus};
use crate::spill::SpillOutcome;
use json::JsonWriter;
use metric_store::json_store::{begin_series, end_series, points_to_json};
use metric_store::series::MetricSeries;
use metric_store::WorkerPool;
use prov_model::qname::{YPROV_NS, YPROV_PREFIX};
use prov_model::{AttrValue, ProvDocument, QName, XsdDateTime};
use std::collections::BTreeMap;
use std::io;
use std::path::Path;
use std::sync::Mutex;

/// Identity of the run being serialized.
#[derive(Debug, Clone)]
pub struct RunIdentity {
    /// Experiment name.
    pub experiment: String,
    /// Run name.
    pub run: String,
    /// User responsible for the run.
    pub user: String,
    /// Run start, µs since the epoch.
    pub started_us: i64,
    /// Run end, µs since the epoch.
    pub ended_us: i64,
}

fn run_ns_local(identity: &RunIdentity, suffix: &str) -> QName {
    QName::new("exp", format!("{}/{}", identity.run, suffix))
}

/// A run's inline series text, kept open from one build to the next
/// so that each build formats only the samples logged since the last.
///
/// Per series (keyed as [`RunState::metrics`]) it holds the open text
/// `{"context":…,"name":…,"points":[…` and how many points that text
/// holds. A cut appends the new points and copies the text out closed
/// with `]}`; the last build appends the tail and moves the text out.
/// The text is what [`metric_store::json_store::begin_series`],
/// `points_to_json` and `end_series` print for the whole series, byte
/// for byte: the same writer and functions print it.
#[derive(Default)]
pub(crate) struct InlineCache {
    series: BTreeMap<(String, String), SeriesText>,
}

/// One series' text so far: the open object and the points in it.
struct SeriesText {
    rendered: usize,
    w: JsonWriter<io::Sink>,
}

impl SeriesText {
    fn open(series: &MetricSeries) -> SeriesText {
        let mut w = JsonWriter::in_memory(false);
        begin_series(&mut w, series);
        SeriesText { rendered: 0, w }
    }

    /// Appends the points `series` gained since the last call. A series
    /// only grows, so one with fewer points than were rendered is not
    /// the series this text was made from: it is rendered afresh.
    fn catch_up(&mut self, series: &MetricSeries) {
        if series.len() < self.rendered {
            debug_assert!(
                false,
                "series {}@{} has {} points, {} were rendered",
                series.name,
                series.context,
                series.len(),
                self.rendered
            );
            *self = SeriesText::open(series);
        }
        points_to_json(&mut self.w, &series.points[self.rendered..]);
        self.rendered = series.len();
    }

    /// A closed copy of the text; this one stays open.
    fn closed_copy(&self) -> String {
        let open = self.w.text();
        let mut text = String::with_capacity(open.len() + 2);
        text.push_str(open);
        text.push_str("]}");
        text
    }

    fn close(mut self) -> String {
        end_series(&mut self.w);
        self.w.into_string()
    }
}

impl InlineCache {
    /// `series`' text as of now, closed; the cache keeps it open.
    fn cut(&mut self, key: &(String, String), series: &MetricSeries) -> String {
        if !self.series.contains_key(key) {
            self.series.insert(key.clone(), SeriesText::open(series));
        }
        let text = self.series.get_mut(key).expect("inserted above");
        text.catch_up(series);
        text.closed_copy()
    }

    /// Every series' text, closed and moved out of the cache, in
    /// `metrics` order: one task a series on `pool`.
    fn close_all(
        mut self,
        metrics: &BTreeMap<(String, String), MetricSeries>,
        pool: &WorkerPool,
    ) -> Vec<String> {
        let slots: Vec<(Mutex<Option<SeriesText>>, &MetricSeries)> = metrics
            .iter()
            .map(|(key, series)| (Mutex::new(self.series.remove(key)), series))
            .collect();
        pool.map(slots.len(), |i| {
            let (slot, series) = &slots[i];
            let cached = crate::lock(slot).take();
            let mut text = cached.unwrap_or_else(|| SeriesText::open(series));
            text.catch_up(series);
            text.close()
        })
    }
}

/// How a build records each metric series.
pub(crate) enum Samples<'a> {
    /// No samples: the series carries its spill link, when it has one.
    Linked,
    /// Every sample inline, for a cut of a live run: the text comes
    /// from `cache`, which keeps it for the next cut.
    Cut(&'a mut InlineCache),
    /// Every sample inline, for the run's last build: the text comes
    /// from the cache and leaves it, not copied, each series' tail
    /// formatted as one task on the build's pool.
    Last(InlineCache),
}

impl Samples<'_> {
    /// A run's only build: every sample inline from a fresh cache on
    /// the caller, or none.
    pub(crate) fn fresh(inline_metrics: bool) -> Self {
        if inline_metrics {
            Samples::Last(InlineCache::default())
        } else {
            Samples::Linked
        }
    }
}

/// Builds the provenance document for a finished run, inline samples
/// formatted from scratch on the caller (the one build path, with a
/// fresh cache).
pub fn build_document(
    identity: &RunIdentity,
    state: &RunState,
    spill: &SpillOutcome,
    inline_metrics: bool,
) -> ProvDocument {
    let samples = Samples::fresh(inline_metrics);
    build_document_with(identity, state, spill, samples, &WorkerPool::serial())
}

/// Builds the provenance document for a run, as it stands in `state`.
/// A last build ([`Samples::Last`]) formats its series on `pool`; the
/// document is the same at any width.
pub(crate) fn build_document_with(
    identity: &RunIdentity,
    state: &RunState,
    spill: &SpillOutcome,
    mut samples: Samples<'_>,
    pool: &WorkerPool,
) -> ProvDocument {
    let mut last_texts = match &mut samples {
        Samples::Last(cache) => std::mem::take(cache).close_all(&state.metrics, pool),
        _ => Vec::new(),
    }
    .into_iter();

    let mut doc = ProvDocument::new();
    doc.namespaces_mut()
        .register(YPROV_PREFIX, YPROV_NS)
        .expect("static namespace");
    doc.namespaces_mut()
        .register(
            "exp",
            format!(
                "https://yprov.example.org/experiments/{}#",
                identity.experiment
            ),
        )
        .expect("prefix is valid");

    let experiment = QName::new("exp", identity.experiment.clone());
    let run_activity = QName::new("exp", identity.run.clone());
    let library = QName::yprov("yprov4ml-library");
    let user = QName::new("exp", format!("user/{}", identity.user));

    // Experiment entity (Figure 2: Experiment contains Run Executions).
    doc.entity(experiment.clone())
        .prov_type(QName::yprov("Experiment"))
        .label(identity.experiment.clone());

    // The run activity with timing and parameters as attributes.
    {
        let builder = doc
            .activity(run_activity.clone())
            .prov_type(QName::yprov("RunExecution"))
            .label(identity.run.clone())
            .start_time(XsdDateTime::from_epoch_micros(identity.started_us))
            .end_time(XsdDateTime::from_epoch_micros(identity.ended_us));
        let mut builder = builder;
        for (name, (value, direction)) in &state.params {
            let key = QName::new("exp", format!("param/{name}"));
            let rendered = match value {
                crate::model::ParamValue::Float(v) => AttrValue::Double(*v),
                crate::model::ParamValue::Int(v) => AttrValue::Int(*v),
                crate::model::ParamValue::Text(s) => AttrValue::String(s.clone()),
                crate::model::ParamValue::Bool(b) => AttrValue::Bool(*b),
            };
            builder = builder.attr(key.clone(), rendered);
            if *direction == Direction::Input {
                builder =
                    builder.attr(QName::yprov("input_param"), AttrValue::String(name.clone()));
            }
        }
    }

    // Agents: the library (software) and the user, with delegation.
    doc.agent(library.clone())
        .prov_type(QName::prov("SoftwareAgent"))
        .label(format!("yprov4ml-rs {}", env!("CARGO_PKG_VERSION")));
    doc.agent(user.clone())
        .prov_type(QName::prov("Person"))
        .label(identity.user.clone());
    doc.was_associated_with(run_activity.clone(), user.clone());
    doc.was_associated_with(run_activity.clone(), library.clone());
    doc.acted_on_behalf_of(library.clone(), user.clone());

    // The run belongs to the experiment; the experiment entity triggers
    // the run (wasStartedBy accepts an entity trigger).
    doc.was_started_by(
        run_activity.clone(),
        experiment.clone(),
        Some(XsdDateTime::from_epoch_micros(identity.started_us)),
    );

    // Context sub-activities.
    for ctx_name in state.context_names() {
        let ctx_activity = run_ns_local(identity, &ctx_name);
        {
            let mut b = doc
                .activity(ctx_activity.clone())
                .prov_type(QName::yprov("Context"))
                .label(ctx_name.clone());
            if let Some((start, end)) = state.context_spans.get(&ctx_name) {
                if let Some(s) = start {
                    b = b.start_time(XsdDateTime::from_epoch_micros(*s));
                }
                if let Some(e) = end {
                    // Clock skew or misuse can deliver an end before the
                    // start; clamp rather than emit invalid PROV.
                    let e = match start {
                        Some(s) => (*e).max(*s),
                        None => *e,
                    };
                    b = b.end_time(XsdDateTime::from_epoch_micros(e));
                }
            }
            if let Some(max_epoch) = state.max_epoch.get(&ctx_name) {
                b.attr(
                    QName::yprov("epochs"),
                    AttrValue::Int(*max_epoch as i64 + 1),
                );
            }
        }
        doc.was_informed_by(ctx_activity, run_activity.clone());
    }

    // Metric entities.
    for (key, series) in &state.metrics {
        let (metric, ctx_name) = key;
        let entity = run_ns_local(identity, &format!("metric/{ctx_name}/{metric}"));
        let generator = run_ns_local(identity, ctx_name);
        let stats = series.stats();
        {
            let mut b = doc
                .entity(entity.clone())
                .prov_type(QName::yprov("Metric"))
                .label(metric.clone())
                .attr(QName::yprov("context"), AttrValue::String(ctx_name.clone()))
                .attr(QName::yprov("samples"), AttrValue::Int(series.len() as i64))
                .attr(QName::yprov("min"), AttrValue::Double(stats.min))
                .attr(QName::yprov("max"), AttrValue::Double(stats.max))
                .attr(QName::yprov("mean"), AttrValue::Double(stats.mean));
            if let Some(last) = stats.last {
                b = b.attr(QName::yprov("last"), AttrValue::Double(last));
            }
            // Inline is the Table 1 "normal" representation: the
            // entire series as JSON text inside the provenance file.
            let inline = match &mut samples {
                Samples::Linked => None,
                Samples::Cut(cache) => Some(cache.cut(key, series)),
                Samples::Last(..) => last_texts.next(),
            };
            if let Some(inline) = inline {
                b.attr(QName::yprov("values"), AttrValue::String(inline));
            } else if let Some((_, _, link)) = spill
                .links
                .iter()
                .find(|(m, c, _)| m == metric && c == ctx_name)
            {
                b.attr(QName::yprov("metric_file"), AttrValue::String(link.clone()));
            }
        }
        doc.was_generated_by(entity, generator);
    }

    // Artifact entities with direction-aware relations (§4 rework).
    for artifact in &state.artifacts {
        let entity = run_ns_local(identity, &format!("artifact/{}", artifact.name));
        let anchor = match &artifact.context {
            Some(ctx) => run_ns_local(identity, &context_name(ctx)),
            None => run_activity.clone(),
        };
        doc.entity(entity.clone())
            .prov_type(QName::yprov("Artifact"))
            .label(artifact.name.clone())
            .attr(
                QName::yprov("sha256"),
                AttrValue::String(artifact.sha256.clone()),
            )
            .attr(QName::yprov("bytes"), AttrValue::Int(artifact.bytes as i64))
            .attr(
                QName::yprov("path"),
                AttrValue::String(artifact.stored_path.display().to_string()),
            );
        match artifact.direction {
            Direction::Input => {
                doc.used(anchor, entity.clone())
                    .add_attr(QName::prov("role"), AttrValue::from("input-artifact"));
            }
            Direction::Output => {
                doc.was_generated_by(entity.clone(), anchor);
                doc.was_attributed_to(entity.clone(), user.clone());
            }
        }
    }

    doc
}

/// Writes `prov.json` (pretty, streamed through a [`BufWriter`]) and
/// `prov.provn` for a finished document.
///
/// Streaming avoids materializing the intermediate JSON `Value` tree
/// and the full output string — for inline-metrics documents that is
/// the dominant finalize allocation. The bytes are identical to the
/// old `to_json_string_pretty` path (see `prov_model::json_stream`).
///
/// [`BufWriter`]: std::io::BufWriter
pub fn write_prov_files(
    doc: &ProvDocument,
    json_path: &Path,
    provn_path: &Path,
) -> Result<(), ProvMLError> {
    write_prov_json(doc, json_path)?;
    write_provn(doc, provn_path)
}

fn write_prov_json(doc: &ProvDocument, path: &Path) -> Result<(), ProvMLError> {
    use std::io::Write;
    let file = std::fs::File::create(path)?;
    let mut writer = std::io::BufWriter::new(file);
    doc.write_json_pretty(&mut writer)?;
    writer.flush()?;
    Ok(())
}

fn write_provn(doc: &ProvDocument, path: &Path) -> Result<(), ProvMLError> {
    std::fs::write(path, prov_model::provn::to_provn(doc))?;
    Ok(())
}

/// Writes a run's record into `dir`, the one way a finish, a failure
/// and a recovery all end: builds the document, stamps the run
/// activity's `yprov4ml:status` (`failed` or `recovered`; a finished
/// run carries none), lets the caller `mark` what only it knows, writes
/// `prov.json` and `prov.provn`, and reports what it wrote.
///
/// A last build ([`Samples::Last`]) formats its series on `pool`, and
/// the two files are two tasks on it (a serial pool writes them one
/// after the other on the caller). An error or a panic in either file
/// reaches the caller, `prov.json`'s first.
#[allow(clippy::too_many_arguments)]
pub(crate) fn write_record(
    dir: &Path,
    identity: &RunIdentity,
    state: &RunState,
    spill: &SpillOutcome,
    samples: Samples<'_>,
    pool: &WorkerPool,
    status: RunStatus,
    mark: impl FnOnce(&mut ProvDocument),
) -> Result<RunReport, ProvMLError> {
    let mut doc = {
        let _trace = obs::trace::span("finalize_emit");
        build_document_with(identity, state, spill, samples, pool)
    };
    let stamp = match status {
        RunStatus::Failed => Some("failed"),
        RunStatus::Recovered => Some("recovered"),
        _ => None,
    };
    if let Some(stamp) = stamp {
        doc.activity(QName::new("exp", identity.run.clone()))
            .attr(QName::yprov("status"), AttrValue::from(stamp));
    }
    mark(&mut doc);
    let prov_json_path = dir.join("prov.json");
    let provn_path = dir.join("prov.provn");
    {
        let _trace = obs::trace::span("finalize_write");
        pool.try_map(2, |file| match file {
            0 => write_prov_json(&doc, &prov_json_path),
            _ => write_provn(&doc, &provn_path),
        })?;
    }
    Ok(RunReport {
        experiment: identity.experiment.clone(),
        run: identity.run.clone(),
        status,
        prov_json_bytes: std::fs::metadata(&prov_json_path)?.len(),
        prov_json_path,
        provn_path,
        metric_store_path: spill.store_path.clone(),
        params: state.params.len(),
        metric_samples: state.metric_samples,
        artifacts: state.artifacts.len(),
    })
}

fn context_name(ctx: &Context) -> String {
    ctx.name()
}

/// Links same-content artifacts across runs in a merged document.
///
/// When run A logs a checkpoint as an *output* and run B logs the same
/// bytes (same SHA-256) as an *input*, the two run-scoped entities are
/// provably the same thing; this pass records that with `alternateOf`
/// edges from each consumer copy to the producer copy, so lineage
/// queries walk straight through job chains (resumed trainings,
/// dataset reuse across a sweep, ...). Returns the number of edges
/// added.
pub fn stitch_artifacts_by_digest(doc: &mut prov_model::ProvDocument) -> usize {
    use prov_model::RelationKind;
    let artifact_ty = QName::yprov("Artifact");
    let digest_key = QName::yprov("sha256");

    // Collect (digest -> produced / consumed entity ids).
    let mut produced: std::collections::BTreeMap<String, Vec<QName>> = Default::default();
    let mut consumed: std::collections::BTreeMap<String, Vec<QName>> = Default::default();
    let generated: std::collections::BTreeSet<QName> = doc
        .relations_of(RelationKind::WasGeneratedBy)
        .map(|r| r.subject.clone())
        .collect();
    for el in doc.iter_elements().filter(|e| e.has_type(&artifact_ty)) {
        let Some(digest) = el.attr(&digest_key).and_then(AttrValue::as_str) else {
            continue;
        };
        if generated.contains(&el.id) {
            produced
                .entry(digest.to_string())
                .or_default()
                .push(el.id.clone());
        } else {
            consumed
                .entry(digest.to_string())
                .or_default()
                .push(el.id.clone());
        }
    }

    // Existing alternateOf pairs, to keep the pass idempotent.
    let existing: std::collections::BTreeSet<(QName, QName)> = doc
        .relations_of(RelationKind::AlternateOf)
        .map(|r| (r.subject.clone(), r.object.clone()))
        .collect();

    let mut added = 0usize;
    for (digest, inputs) in consumed {
        let Some(outputs) = produced.get(&digest) else {
            continue;
        };
        for input in inputs {
            for output in outputs {
                if input != *output && !existing.contains(&(input.clone(), output.clone())) {
                    doc.add_relation(prov_model::Relation::new(
                        RelationKind::AlternateOf,
                        input.clone(),
                        output.clone(),
                    ));
                    added += 1;
                }
            }
        }
    }
    added
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{ArtifactMeta, LogRecord, ParamValue};
    use prov_graph::ProvGraph;
    use prov_model::validate::is_valid;

    fn sample_state(inline_samples: usize) -> RunState {
        let mut state = RunState::default();
        state.apply(LogRecord::Param {
            name: "learning_rate".into(),
            value: ParamValue::Float(1e-3),
            direction: Direction::Input,
        });
        state.apply(LogRecord::Param {
            name: "optimizer".into(),
            value: ParamValue::Text("adamw".into()),
            direction: Direction::Input,
        });
        for i in 0..inline_samples as u64 {
            state.apply(LogRecord::Metric {
                name: "loss".into(),
                context: Context::Training,
                step: i,
                epoch: (i / 10) as u32,
                time_us: i as i64,
                value: 1.0 / (i + 1) as f64,
            });
            state.apply(LogRecord::Metric {
                name: "accuracy".into(),
                context: Context::Validation,
                step: i,
                epoch: (i / 10) as u32,
                time_us: i as i64,
                value: i as f64 / 100.0,
            });
        }
        state.apply(LogRecord::Artifact(ArtifactMeta {
            name: "dataset".into(),
            stored_path: "artifacts/dataset".into(),
            sha256: "ab".repeat(32),
            bytes: 1024,
            direction: Direction::Input,
            context: None,
            logged_at_us: 0,
        }));
        state.apply(LogRecord::Artifact(ArtifactMeta {
            name: "model.ckpt".into(),
            stored_path: "artifacts/model.ckpt".into(),
            sha256: "cd".repeat(32),
            bytes: 4096,
            direction: Direction::Output,
            context: Some(Context::Training),
            logged_at_us: 10,
        }));
        state
    }

    fn identity() -> RunIdentity {
        RunIdentity {
            experiment: "modis-fm".into(),
            run: "run-0001".into(),
            user: "researcher".into(),
            started_us: 1_000_000,
            ended_us: 9_000_000,
        }
    }

    fn empty_spill() -> SpillOutcome {
        SpillOutcome {
            store_path: None,
            links: Vec::new(),
            external_bytes: 0,
        }
    }

    #[test]
    fn document_is_valid_prov() {
        let doc = build_document(&identity(), &sample_state(20), &empty_spill(), true);
        let issues = prov_model::validate(&doc);
        assert!(is_valid(&doc), "issues: {issues:?}");
    }

    #[test]
    fn figure1_structure_present() {
        let doc = build_document(&identity(), &sample_state(20), &empty_spill(), true);
        // Run + 2 context activities.
        let run = QName::new("exp", "run-0001");
        assert!(doc.get(&run).is_some());
        assert!(doc.get(&QName::new("exp", "run-0001/training")).is_some());
        assert!(doc.get(&QName::new("exp", "run-0001/validation")).is_some());
        // Input artifact attached via used; output via wasGeneratedBy.
        let used: Vec<_> = doc.relations_of(prov_model::RelationKind::Used).collect();
        assert!(used
            .iter()
            .any(|r| r.object.local().contains("artifact/dataset")));
        let gen: Vec<_> = doc
            .relations_of(prov_model::RelationKind::WasGeneratedBy)
            .collect();
        assert!(gen
            .iter()
            .any(|r| r.subject.local().contains("artifact/model.ckpt")));
        // Agents present with delegation.
        assert_eq!(
            doc.relations_of(prov_model::RelationKind::ActedOnBehalfOf)
                .count(),
            1
        );
    }

    #[test]
    fn inline_mode_embeds_series_and_is_much_larger() {
        let state = sample_state(2000);
        let inline = build_document(&identity(), &state, &empty_spill(), true);
        let spill = SpillOutcome {
            store_path: Some("metrics.zarr".into()),
            links: vec![
                (
                    "loss".into(),
                    "training".into(),
                    "metrics.zarr#loss@training".into(),
                ),
                (
                    "accuracy".into(),
                    "validation".into(),
                    "metrics.zarr#accuracy@validation".into(),
                ),
            ],
            external_bytes: 100,
        };
        let spilled = build_document(&identity(), &state, &spill, false);
        let inline_len = inline.to_json_string().unwrap().len();
        let spilled_len = spilled.to_json_string().unwrap().len();
        assert!(
            inline_len > spilled_len * 10,
            "inline {inline_len} vs spilled {spilled_len}"
        );
        // Spilled doc carries the link instead of values.
        let metric = spilled
            .get(&QName::new("exp", "run-0001/metric/training/loss"))
            .unwrap();
        assert!(metric.attr(&QName::yprov("metric_file")).is_some());
        assert!(metric.attr(&QName::yprov("values")).is_none());
    }

    #[test]
    fn lineage_reaches_dataset_from_model() {
        let doc = build_document(&identity(), &sample_state(10), &empty_spill(), true);
        let graph = ProvGraph::new(&doc);
        let model = QName::new("exp", "run-0001/artifact/model.ckpt");
        let ancestors = graph.ancestors(&model);
        assert!(
            ancestors.contains(&QName::new("exp", "run-0001/artifact/dataset")),
            "the model's lineage must include the input dataset; got {ancestors:?}"
        );
    }

    #[test]
    fn roundtrips_through_prov_json() {
        let mut doc = build_document(&identity(), &sample_state(50), &empty_spill(), true);
        let json = doc.to_json_string().unwrap();
        let mut back = ProvDocument::from_json_str(&json).unwrap();
        doc.canonicalize();
        back.canonicalize();
        assert_eq!(doc, back);
    }

    #[test]
    fn stitching_links_same_digest_across_runs() {
        use prov_model::RelationKind;
        let mut doc = ProvDocument::new();
        doc.namespaces_mut().register("exp", "http://e/").unwrap();
        // Run A generated ckpt (digest D); run B used the same bytes.
        let producer = QName::new("exp", "job-0/artifact/ckpt");
        let consumer = QName::new("exp", "job-1/artifact/ckpt");
        let unrelated = QName::new("exp", "job-1/artifact/other");
        doc.activity(QName::new("exp", "job-0"));
        doc.activity(QName::new("exp", "job-1"));
        for (ent, digest) in [(&producer, "dd"), (&consumer, "dd"), (&unrelated, "ee")] {
            doc.entity(ent.clone())
                .prov_type(QName::yprov("Artifact"))
                .attr(QName::yprov("sha256"), AttrValue::from(digest));
        }
        doc.was_generated_by(producer.clone(), QName::new("exp", "job-0"));
        doc.used(QName::new("exp", "job-1"), consumer.clone());
        doc.used(QName::new("exp", "job-1"), unrelated.clone());

        let added = stitch_artifacts_by_digest(&mut doc);
        assert_eq!(added, 1);
        let alt: Vec<_> = doc.relations_of(RelationKind::AlternateOf).collect();
        assert_eq!(alt.len(), 1);
        assert_eq!(alt[0].subject, consumer);
        assert_eq!(alt[0].object, producer);
        // Idempotent.
        assert_eq!(stitch_artifacts_by_digest(&mut doc), 0);
        // Lineage now flows through the stitch.
        let graph = prov_graph::ProvGraph::new(&doc);
        assert!(graph
            .ancestors(&QName::new("exp", "job-1"))
            .contains(&QName::new("exp", "job-0")));
    }

    /// `n` seeded metric records over two contexts: four series, the
    /// first logged from the start and each other one from a random
    /// point of the stream on, values any `f64`.
    fn seeded_metrics(seed: u64, n: usize) -> Vec<LogRecord> {
        let mut rng = testkit::Rng::new(seed);
        let series = [
            ("loss", Context::Training),
            ("lr", Context::Training),
            ("accuracy", Context::Validation),
            ("loss", Context::Validation),
        ];
        let mut starts: Vec<usize> = series.iter().map(|_| rng.below(n)).collect();
        starts[0] = 0;
        (0..n)
            .map(|step| {
                let live: Vec<usize> = (0..series.len()).filter(|&i| starts[i] <= step).collect();
                let (name, context) = &series[*rng.pick(&live)];
                LogRecord::Metric {
                    name: name.to_string(),
                    context: context.clone(),
                    step: step as u64,
                    epoch: (step / 80) as u32,
                    time_us: step as i64,
                    value: rng.any_f64(),
                }
            })
            .collect()
    }

    fn json_text(doc: &ProvDocument) -> String {
        doc.to_json_string().unwrap()
    }

    #[test]
    fn a_cache_carried_across_cuts_builds_what_a_fresh_cache_builds() {
        let n = 320;
        type CutsAfter = fn(usize) -> bool;
        let schedules: [(&str, CutsAfter); 4] = [
            ("every step", |_| true),
            ("every 80 steps", |i| i % 80 == 79),
            ("a single cut", |i| i == 150),
            ("no cut", |_| false),
        ];
        for seed in 1..=4 {
            let records = seeded_metrics(seed, n);
            for (name, cuts_after) in schedules {
                let mut state = RunState::default();
                let mut cache = InlineCache::default();
                for (i, record) in records.iter().enumerate() {
                    state.apply(record.clone());
                    if cuts_after(i) {
                        let cut = build_document_with(
                            &identity(),
                            &state,
                            &empty_spill(),
                            Samples::Cut(&mut cache),
                            &WorkerPool::serial(),
                        );
                        let fresh = build_document(&identity(), &state, &empty_spill(), true);
                        assert_eq!(
                            json_text(&cut),
                            json_text(&fresh),
                            "seed {seed}, {name}, record {i}"
                        );
                    }
                }
                let last = build_document_with(
                    &identity(),
                    &state,
                    &empty_spill(),
                    Samples::Last(cache),
                    &WorkerPool::new(1 + seed as usize),
                );
                let fresh = build_document(&identity(), &state, &empty_spill(), true);
                assert_eq!(json_text(&last), json_text(&fresh), "seed {seed}, {name}");
            }
        }
    }

    #[test]
    #[cfg_attr(debug_assertions, should_panic(expected = "were rendered"))]
    fn a_series_shorter_than_its_text_is_rendered_afresh() {
        let mut cache = InlineCache::default();
        let long = sample_state(20);
        let short = sample_state(5);
        let serial = WorkerPool::serial();
        build_document_with(
            &identity(),
            &long,
            &empty_spill(),
            Samples::Cut(&mut cache),
            &serial,
        );
        let cut = build_document_with(
            &identity(),
            &short,
            &empty_spill(),
            Samples::Cut(&mut cache),
            &serial,
        );
        let fresh = build_document(&identity(), &short, &empty_spill(), true);
        assert_eq!(json_text(&cut), json_text(&fresh));
    }

    #[test]
    fn metric_stats_recorded() {
        let doc = build_document(&identity(), &sample_state(100), &empty_spill(), false);
        let metric = doc
            .get(&QName::new("exp", "run-0001/metric/training/loss"))
            .unwrap();
        assert_eq!(
            metric.attr(&QName::yprov("samples")),
            Some(&AttrValue::Int(100))
        );
        assert!(metric.attr(&QName::yprov("mean")).is_some());
        assert!(metric.attr(&QName::yprov("last")).is_some());
    }
}
