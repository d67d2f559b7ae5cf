//! The benchmark's own input generators. The program under test only
//! ever sees what these produce from `--seed`, and everything is
//! materialised in set-up, before any clock that matters starts.

use prov_model::{AttrValue, ProvDocument, QName};

use crate::rng::Rng;

/// `(metric name, context)` of the twelve series a tracked run logs.
pub const METRICS: [(&str, &str); 12] = [
    ("loss", "training"),
    ("grad_norm", "training"),
    ("learning_rate", "training"),
    ("samples_per_s", "training"),
    ("loss", "validation"),
    ("accuracy", "validation"),
    ("gpu_power_w", "telemetry"),
    ("gpu_util", "telemetry"),
    ("gpu_mem_bytes", "telemetry"),
    ("cpu_util", "telemetry"),
    ("energy_kwh", "telemetry"),
    ("io_read_bytes", "telemetry"),
];

/// Timestamps are virtual: step `i` of any run is logged at
/// `BASE_TIME_US + i * STEP_US`, so inputs do not depend on the clock.
pub const BASE_TIME_US: i64 = 1_700_000_000_000_000;
pub const STEP_US: i64 = 500_000;
pub const STEPS_PER_EPOCH: u64 = 500;
/// Bytes of one raw sample: step `u64`, epoch `u32`, time `i64`, value
/// `f64`.
pub const RAW_SAMPLE_BYTES: u64 = 28;

pub fn epoch_of(step: u64) -> u32 {
    (step / STEPS_PER_EPOCH) as u32
}

pub fn time_of(step: u64) -> i64 {
    BASE_TIME_US + step as i64 * STEP_US
}

/// The samples of one tracked run, step-major:
/// `values[step * 12 + metric]`. Smooth trends with seeded noise.
#[derive(Debug, Clone, PartialEq)]
pub struct RunInputs {
    pub steps: u64,
    pub values: Vec<f64>,
}

impl RunInputs {
    pub fn generate(seed: u64, run: usize, steps: u64) -> RunInputs {
        let mut rng = Rng::stream(seed, &format!("run-{run}"));
        let mut values = Vec::with_capacity(steps as usize * METRICS.len());
        for step in 0..steps {
            let t = step as f64;
            for (name, _) in METRICS {
                let noise = rng.unit();
                values.push(match name {
                    "loss" => 2.5 / (1.0 + t * 0.002) + 0.04 * noise,
                    "grad_norm" => 1.0 / (1.0 + t * 0.001) + 0.05 * noise,
                    "learning_rate" => 1e-3 * 0.5f64.powf(t / 2_000.0) * (1.0 + 1e-3 * noise),
                    "samples_per_s" => 3_900.0 + 200.0 * noise,
                    "accuracy" => 1.0 - 0.9 / (1.0 + t * 0.001) - 0.01 * noise,
                    "gpu_power_w" => 245.0 + 30.0 * noise,
                    "gpu_util" => 0.87 + 0.1 * noise,
                    "gpu_mem_bytes" => 47.9e9 + 2e8 * noise,
                    "cpu_util" => 0.2 + 0.2 * noise,
                    "energy_kwh" => (t + noise) * 260.0 * 0.5 / 3.6e6,
                    _ => (t + noise) * 393_216.0 * 256.0,
                });
            }
        }
        RunInputs { steps, values }
    }

    pub fn samples(&self) -> u64 {
        self.steps * METRICS.len() as u64
    }

    pub fn value(&self, step: u64, metric: usize) -> f64 {
        self.values[step as usize * METRICS.len() + metric]
    }
}

pub fn q(local: &str) -> QName {
    QName::new("ex", local)
}

/// `doc` through the streaming writer, relations as they are.
pub fn to_json(doc: &ProvDocument) -> String {
    let mut out = Vec::new();
    doc.write_json(&mut out).expect("writing into a Vec");
    String::from_utf8(out).expect("the writer emits UTF-8")
}

/// The bytes the service stores and serves for `doc`: canonical
/// relation order, compact streaming writer. Bodies the benchmark sends
/// are already in this form, so a `GET` must return them unchanged.
pub fn canonical_json(mut doc: ProvDocument) -> String {
    doc.canonicalize();
    to_json(&doc)
}

/// Nodes of an [`ml_document`] that are not part of an epoch.
const ML_FIXED_NODES: usize = 25;
const ML_NODES_PER_EPOCH: usize = 4;
const ML_DATASETS: usize = 4;

/// An ML-run-shaped lineage document of about `nodes` nodes: datasets
/// with train/test splits -> preprocessing -> a chain of epochs, each
/// with a checkpoint and two metric entities -> the model and its
/// evaluation. The test split of dataset 0 leaks into preprocessing, so
/// the leakage audit has something to find in every epoch.
///
/// The seed and `variant` pick attribute values, never the shape, and
/// every value has a fixed printed width: documents of one size cost the
/// same to parse, index and query whatever the seed.
pub fn ml_document(seed: u64, variant: usize, nodes: usize) -> ProvDocument {
    let mut rng = Rng::stream(seed, &format!("ml-{variant}-{nodes}"));
    let mut six_digits = move || AttrValue::Int(100_000 + rng.below(900_000) as i64);
    let epochs = nodes.saturating_sub(ML_FIXED_NODES) / ML_NODES_PER_EPOCH;
    let mut doc = ProvDocument::new();
    doc.namespaces_mut()
        .register("ex", "http://example.org/benchmark#")
        .expect("static namespace");
    doc.namespaces_mut()
        .register("yprov4ml", prov_model::qname::YPROV_NS)
        .expect("static namespace");

    doc.agent(q("user")).prov_type(QName::prov("Person"));
    for d in 0..ML_DATASETS {
        let dataset = q(&format!("dataset_{d}"));
        doc.entity(dataset.clone())
            .prov_type(q("Dataset"))
            .attr(QName::yprov("rows"), six_digits());
        for split in ["train", "test"] {
            let id = q(&format!("dataset_{d}/{split}"));
            doc.entity(id.clone())
                .attr(QName::yprov("split"), AttrValue::from(split))
                .attr(QName::yprov("rows"), six_digits());
            doc.was_derived_from(id, dataset.clone());
        }
        let prep = q(&format!("prep_{d}"));
        doc.activity(prep.clone()).prov_type(q("Preprocessing"));
        doc.used(prep.clone(), q(&format!("dataset_{d}/train")));
        let features = q(&format!("features_{d}"));
        doc.entity(features.clone())
            .attr(QName::yprov("columns"), six_digits());
        doc.was_generated_by(features, prep);
    }
    doc.used(q("prep_0"), q("dataset_0/test"));

    for e in 0..epochs {
        let epoch = q(&format!("epoch_{e}"));
        doc.activity(epoch.clone())
            .prov_type(QName::yprov("Training"));
        doc.used(epoch.clone(), q(&format!("features_{}", e % ML_DATASETS)));
        let checkpoint = q(&format!("checkpoint_{e}"));
        doc.entity(checkpoint.clone())
            .prov_type(q("Checkpoint"))
            .attr(QName::yprov("bytes"), six_digits());
        doc.was_generated_by(checkpoint.clone(), epoch.clone());
        if e > 0 {
            let previous = q(&format!("checkpoint_{}", e - 1));
            doc.used(epoch.clone(), previous.clone());
            doc.was_derived_from(checkpoint, previous);
        }
        for metric in ["loss", "accuracy"] {
            let id = q(&format!("epoch_{e}/{metric}"));
            doc.entity(id.clone())
                .prov_type(QName::yprov("Metric"))
                .attr(QName::yprov("last"), six_digits());
            doc.was_generated_by(id, epoch.clone());
        }
    }

    let train_job = q("train_job");
    doc.activity(train_job.clone())
        .prov_type(QName::yprov("Training"));
    doc.was_associated_with(train_job.clone(), q("user"));
    doc.entity(q("model"))
        .prov_type(q("Model"))
        .attr(QName::yprov("bytes"), six_digits());
    doc.was_generated_by(q("model"), train_job.clone());
    if epochs > 0 {
        let last = q(&format!("checkpoint_{}", epochs - 1));
        doc.used(train_job, last.clone());
        doc.was_derived_from(q("model"), last);
    }
    let evaluate = q("evaluate");
    doc.activity(evaluate.clone()).prov_type(q("Evaluation"));
    doc.used(evaluate.clone(), q("model"));
    for d in 0..ML_DATASETS {
        doc.used(evaluate.clone(), q(&format!("dataset_{d}/test")));
    }
    doc.entity(q("report"))
        .attr(QName::yprov("score"), six_digits());
    doc.was_generated_by(q("report"), evaluate);
    doc
}

/// `count` node counts between `lo` and `hi`, log-uniform and ascending:
/// the log range is cut into `count` equal slices and one count is drawn
/// from each (a stratified sample). The seed picks the sizes, but no
/// seed draws a heavier set than another: `count` independent draws
/// would move the median size, and with it every median latency, by a
/// tenth between seeds, which is the generator's luck and not the
/// program's speed.
pub fn log_uniform_sizes(seed: u64, lo: usize, hi: usize, count: usize) -> Vec<usize> {
    let mut rng = Rng::stream(seed, "sizes");
    (0..count)
        .map(|i| {
            let t = (i as f64 + rng.unit()) / count as f64;
            (lo as f64 * (hi as f64 / lo as f64).powf(t)).round() as usize
        })
        .collect()
}

/// "Everything derived from dataset 0": a closure with a wide fan-out
/// (every checkpoint, every metric, the model) and short witness paths.
/// The query endpoint takes it as `{"query": <this>}`.
pub const DOWNSTREAM_IR: &str = r#"{"start":{"id":"ex:dataset_0"},"steps":[{"rels":["wasDerivedFrom","used","wasGeneratedBy"],"dir":"backward","repeat":"+","target":{"kind":"entity"}}]}"#;
pub const LEAKAGE_AUDIT: &str = r#"{"audit":"leakage"}"#;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Digest;

    fn digest_of(seed: u64) -> String {
        let mut d = Digest::default();
        d.feed_f64s(&RunInputs::generate(seed, 3, 50).values);
        d.feed(canonical_json(ml_document(seed, 1, 200)).as_bytes());
        d.hex()
    }

    #[test]
    fn equal_seeds_give_identical_bytes_and_unequal_seeds_do_not() {
        assert_eq!(digest_of(7), digest_of(7));
        assert_ne!(digest_of(7), digest_of(8));
        let body = |seed, variant| canonical_json(ml_document(seed, variant, 200));
        assert_eq!(body(7, 0), body(7, 0));
        assert_ne!(body(7, 0), body(8, 0));
        assert_ne!(body(7, 0), body(7, 1));
        // Same shape, same printed widths: same size whatever the seed.
        assert_eq!(body(7, 0).len(), body(8, 1).len());
    }

    #[test]
    fn bodies_are_a_fixed_point_of_parse_and_reserialise() {
        let body = canonical_json(ml_document(1, 0, 300));
        let back = ProvDocument::from_json_str(&body).unwrap();
        assert_eq!(canonical_json(back), body);
    }

    #[test]
    fn documents_have_the_asked_size_and_sizes_are_log_uniform_per_seed() {
        for nodes in [128, 1_000, 4_096] {
            let doc = ml_document(1, 0, nodes);
            assert!(nodes - doc.element_count() < ML_NODES_PER_EPOCH, "{nodes}");
        }
        let sizes = log_uniform_sizes(1, 128, 4_096, 64);
        assert_eq!(sizes.len(), 64);
        assert!(sizes.windows(2).all(|w| w[0] <= w[1]));
        assert!(sizes[0] >= 128 && sizes[63] <= 4_096);
        // Half of a log-uniform draw lies below the geometric mean (724).
        assert_eq!(sizes.iter().filter(|n| **n < 724).count(), 32);
        assert_eq!(sizes, log_uniform_sizes(1, 128, 4_096, 64));
        assert_ne!(sizes, log_uniform_sizes(2, 128, 4_096, 64));
    }

    #[test]
    fn the_leak_and_the_downstream_closure_are_there() {
        let doc = ml_document(1, 0, 128);
        let graph = prov_graph::ProvGraph::new(&doc);
        let epochs = (128 - ML_FIXED_NODES) / ML_NODES_PER_EPOCH;
        let report = prov_graph::audit::data_leakage(&graph, None, None);
        assert_eq!(report.leaks.len(), epochs + 1, "every epoch and the job");
        let query = prov_model::PathQuery::from_json_str(DOWNSTREAM_IR).unwrap();
        let rows = prov_graph::execute(&graph, &query).rows.len();
        // both splits, features_0, per epoch a checkpoint and two
        // metrics, the model and the report
        assert_eq!(rows, 3 + 3 * epochs + 2);
    }
}
