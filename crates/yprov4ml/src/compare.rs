//! Cross-run comparison and search.
//!
//! The paper's §3.2–§3.4 use cases: once runs are stored as provenance
//! documents, a researcher compares hyperparameters against outcomes,
//! searches previous runs similar to a planned one, and picks the best
//! configuration without re-running experiments.

use prov_model::{AttrValue, ProvDocument, QName};
use std::collections::BTreeMap;

/// A flattened view of one run's provenance, convenient for tabular
/// comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct RunSummary {
    /// Run name (the run activity's local identifier).
    pub run: String,
    /// Parameters recorded on the run activity (`param/<name>`).
    pub params: BTreeMap<String, String>,
    /// Names of the parameters flagged as *inputs* (hyperparameters and
    /// configuration); the rest are derived outputs.
    pub input_params: std::collections::BTreeSet<String>,
    /// Final value of each metric (`<context>/<metric>` → last).
    pub metrics: BTreeMap<String, f64>,
    /// Names of artifacts the run produced.
    pub outputs: Vec<String>,
}

impl RunSummary {
    /// Extracts a summary from a run's provenance document.
    ///
    /// Returns `None` when the document does not contain a
    /// yprov4ml-shaped run activity.
    pub fn from_document(doc: &ProvDocument) -> Option<RunSummary> {
        let run_ty = QName::yprov("RunExecution");
        let activity = doc.iter_elements().find(|e| e.has_type(&run_ty))?;
        let run = activity.id.local().to_string();

        let mut params = BTreeMap::new();
        for (key, values) in &activity.attributes {
            if let Some(name) = key.local().strip_prefix("param/") {
                if let Some(v) = values.first() {
                    params.insert(name.to_string(), v.lexical());
                }
            }
        }
        let input_params: std::collections::BTreeSet<String> = activity
            .attrs(&QName::yprov("input_param"))
            .iter()
            .filter_map(|v| v.as_str().map(str::to_string))
            .collect();

        let metric_ty = QName::yprov("Metric");
        let mut metrics = BTreeMap::new();
        for el in doc.iter_elements().filter(|e| e.has_type(&metric_ty)) {
            let ctx = el
                .attr(&QName::yprov("context"))
                .and_then(AttrValue::as_str)
                .unwrap_or("unknown");
            let name = el.label().unwrap_or(el.id.local());
            if let Some(AttrValue::Double(last)) = el.attr(&QName::yprov("last")) {
                metrics.insert(format!("{ctx}/{name}"), *last);
            }
        }

        let artifact_ty = QName::yprov("Artifact");
        let mut outputs = Vec::new();
        for el in doc.iter_elements().filter(|e| e.has_type(&artifact_ty)) {
            // Outputs are the artifacts with a wasGeneratedBy edge.
            let generated = doc
                .relations_of(prov_model::RelationKind::WasGeneratedBy)
                .any(|r| r.subject == el.id);
            if generated {
                outputs.push(el.label().unwrap_or(el.id.local()).to_string());
            }
        }
        outputs.sort();

        Some(RunSummary {
            run,
            params,
            input_params,
            metrics,
            outputs,
        })
    }
}

/// Compares many runs: which parameters differ, and how a chosen metric
/// responded.
#[derive(Debug, Clone, PartialEq)]
pub struct ComparisonTable {
    /// Parameter names that differ across at least two runs.
    pub varying_params: Vec<String>,
    /// One row per run: `(run name, varying param values, metric)`.
    pub rows: Vec<(String, Vec<String>, Option<f64>)>,
}

/// Builds a comparison over `summaries` for `metric` (e.g.
/// `"training/loss"`).
pub fn compare_runs(summaries: &[RunSummary], metric: &str) -> ComparisonTable {
    // When runs declare input parameters, only those participate in the
    // "what did the experimenter vary?" question — derived outputs
    // (final loss, energy, ...) trivially differ and would drown the
    // table in noise.
    let any_inputs = summaries.iter().any(|s| !s.input_params.is_empty());
    let relevant = |s: &RunSummary, name: &str| -> bool {
        !any_inputs
            || s.input_params.contains(name)
            || summaries
                .iter()
                .any(|other| other.input_params.contains(name))
    };
    // Find parameters whose value is not constant across runs.
    let mut all_params: BTreeMap<String, Vec<Option<&String>>> = BTreeMap::new();
    for s in summaries {
        for name in s.params.keys() {
            if relevant(s, name) {
                all_params.entry(name.clone()).or_default();
            }
        }
    }
    for values in all_params.values_mut() {
        *values = Vec::new();
    }
    for s in summaries {
        for (name, slot) in all_params.iter_mut() {
            slot.push(s.params.get(name));
        }
    }
    let varying_params: Vec<String> = all_params
        .iter()
        .filter(|(_, vals)| {
            let first = vals.first();
            vals.iter().any(|v| Some(v) != first)
        })
        .map(|(name, _)| name.clone())
        .collect();

    let rows = summaries
        .iter()
        .map(|s| {
            (
                s.run.clone(),
                varying_params
                    .iter()
                    .map(|p| s.params.get(p).cloned().unwrap_or_else(|| "-".into()))
                    .collect(),
                s.metrics.get(metric).copied(),
            )
        })
        .collect();

    ComparisonTable {
        varying_params,
        rows,
    }
}

/// The run whose `metric` is smallest (e.g. best loss). Ties break on
/// run name; runs missing the metric are skipped.
pub fn best_run<'a>(summaries: &'a [RunSummary], metric: &str) -> Option<&'a RunSummary> {
    summaries
        .iter()
        .filter(|s| s.metrics.get(metric).is_some_and(|v| v.is_finite()))
        .min_by(|a, b| {
            let va = a.metrics[metric];
            let vb = b.metrics[metric];
            va.total_cmp(&vb).then_with(|| a.run.cmp(&b.run))
        })
}

/// Similarity between two runs' parameter sets in `[0, 1]`: the
/// fraction of shared keys with equal values (Jaccard-style). Supports
/// the §3.3 "find similar previous experiments" workflow.
fn param_similarity(a: &RunSummary, b: &RunSummary) -> f64 {
    let keys: std::collections::BTreeSet<&String> =
        a.params.keys().chain(b.params.keys()).collect();
    if keys.is_empty() {
        return 1.0;
    }
    let matching = keys
        .iter()
        .filter(|k| a.params.contains_key(**k) && a.params.get(**k) == b.params.get(**k))
        .count();
    matching as f64 / keys.len() as f64
}

/// Runs ranked by parameter similarity to `target`, most similar first.
pub fn most_similar<'a>(
    target: &RunSummary,
    candidates: &'a [RunSummary],
) -> Vec<(&'a RunSummary, f64)> {
    let mut scored: Vec<(&RunSummary, f64)> = candidates
        .iter()
        .filter(|c| c.run != target.run)
        .map(|c| (c, param_similarity(target, c)))
        .collect();
    scored.sort_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.run.cmp(&b.0.run)));
    scored
}

#[cfg(test)]
mod tests {
    use super::*;

    fn summary(run: &str, lr: &str, batch: &str, loss: f64) -> RunSummary {
        RunSummary {
            run: run.into(),
            params: BTreeMap::from([
                ("learning_rate".to_string(), lr.to_string()),
                ("batch".to_string(), batch.to_string()),
                ("optimizer".to_string(), "adamw".to_string()),
            ]),
            input_params: Default::default(),
            metrics: BTreeMap::from([("training/loss".to_string(), loss)]),
            outputs: vec!["model.ckpt".into()],
        }
    }

    #[test]
    fn varying_params_detected() {
        let runs = vec![
            summary("r1", "0.001", "32", 0.8),
            summary("r2", "0.01", "32", 1.2),
            summary("r3", "0.001", "64", 0.7),
        ];
        let table = compare_runs(&runs, "training/loss");
        assert_eq!(table.varying_params, vec!["batch", "learning_rate"]);
        assert_eq!(table.rows.len(), 3);
        assert_eq!(table.rows[0].2, Some(0.8));
        // Constant param not listed.
        assert!(!table.varying_params.contains(&"optimizer".to_string()));
    }

    #[test]
    fn best_run_minimizes_metric() {
        let runs = vec![
            summary("r1", "0.001", "32", 0.8),
            summary("r2", "0.01", "32", f64::NAN),
            summary("r3", "0.001", "64", 0.7),
        ];
        assert_eq!(best_run(&runs, "training/loss").unwrap().run, "r3");
        assert!(best_run(&runs, "missing/metric").is_none());
    }

    #[test]
    fn similarity_metric() {
        let a = summary("a", "0.001", "32", 0.5);
        let b = summary("b", "0.001", "32", 0.6); // identical params
        let c = summary("c", "0.01", "64", 0.7); // 1 of 3 matches
        assert_eq!(param_similarity(&a, &b), 1.0);
        assert!((param_similarity(&a, &c) - 1.0 / 3.0).abs() < 1e-12);
        let candidates = [b.clone(), c.clone()];
        let ranked = most_similar(&a, &candidates);
        assert_eq!(ranked[0].0.run, "b");
        assert_eq!(ranked[1].0.run, "c");
    }

    #[test]
    fn summary_extraction_from_real_document() {
        use crate::experiment::Experiment;
        use crate::model::{Context, Direction};
        let base = std::env::temp_dir().join(format!("ycompare_{}", std::process::id()));
        std::fs::remove_dir_all(&base).ok();
        let exp = Experiment::new("cmp", &base).unwrap();
        let run = exp.start_run("r1").unwrap();
        run.log_param("learning_rate", 0.001);
        for i in 0..10u64 {
            run.log_metric_at(
                "loss",
                Context::Training,
                i,
                0,
                i as i64,
                1.0 / (i + 1) as f64,
            );
        }
        run.log_artifact_bytes("model.ckpt", b"w", Direction::Output)
            .unwrap();
        run.finish().unwrap();

        let doc = exp.load_run_document("r1").unwrap();
        let s = RunSummary::from_document(&doc).unwrap();
        assert_eq!(s.run, "r1");
        assert_eq!(s.params["learning_rate"], "0.001");
        assert!((s.metrics["training/loss"] - 0.1).abs() < 1e-12);
        assert_eq!(s.outputs, vec!["model.ckpt"]);
        std::fs::remove_dir_all(&base).ok();
    }

    #[test]
    fn non_yprov_documents_yield_none() {
        let doc = ProvDocument::new();
        assert!(RunSummary::from_document(&doc).is_none());
    }
}
