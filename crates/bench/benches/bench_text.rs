//! String throughput: what reading and writing the text of a PROV
//! record costs per byte. Each cell lands in `BENCH_text.json` at the
//! repo root, in MB/s (10^6 bytes a second):
//!
//! * `unescape` — `json::Lexer::string` over a JSON string literal,
//!   per byte of the literal;
//! * `escape` — `JsonWriter::str`, per byte of the string written;
//! * `provn_quote` — `to_provn` of a document whose one attribute holds
//!   the string, per byte of the string;
//!
//! each on two texts: `series`, an inline run's metric series (JSON
//! text, so escape-dense: every key and string in it is quoted), and
//! `plain`, escape-free text shaped like an ML document's ids, labels
//! and times. A last cell, `from_json_str`, is the PROV-JSON reader on
//! that whole inline run's `prov.json`, per byte of the file.
//!
//! `series_format` is counted in points, not bytes: `points_to_json`
//! over an inline run's twelve series, each printed whole as a run's
//! finish prints it, in points/s.
//!
//! Each figure is the median of [`RUNS`] runs in one process, with the
//! lowest and highest run beside it (`_min`, `_max`).
//!
//! `YPROV_BENCH_SMOKE=1` shrinks the texts and the iteration counts so
//! CI can exercise the harness cheaply.

use json::{json, JsonWriter, Lexer};
use metric_store::json_store::{begin_series, end_series, points_to_json};
use metric_store::series::{MetricPoint, MetricSeries};
use prov_model::{AttrValue, ProvDocument, QName};
use std::hint::black_box;
use std::time::Instant;
use yprov4ml::experiment::Experiment;
use yprov4ml::model::Context;

/// Runs of each cell; its figure is their median.
const RUNS: usize = 7;

/// `units` a second over [`RUNS`] runs of `iters` calls of `f`, each
/// over `units` units, ascending.
fn rates(units: usize, iters: u32, mut f: impl FnMut()) -> Vec<f64> {
    let mut runs: Vec<f64> = (0..RUNS)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..iters {
                f();
            }
            (units as f64 * f64::from(iters)) / start.elapsed().as_secs_f64()
        })
        .collect();
    runs.sort_by(f64::total_cmp);
    runs
}

/// MB/s over [`RUNS`] runs of `iters` calls of `f`, each over `bytes`
/// bytes, as a JSON cell.
fn cell(bytes: usize, iters: u32, f: impl FnMut()) -> json::Value {
    let runs = rates(bytes, iters, f);
    json!({
        "bytes": bytes,
        "iters": iters,
        "mb_per_s": runs[RUNS / 2] / 1e6,
        "mb_per_s_min": runs[0] / 1e6,
        "mb_per_s_max": runs[RUNS - 1] / 1e6,
    })
}

/// Twelve series of `steps` points each, shaped as an inline run logs
/// them: losses and rates decaying with the step, an epoch every 100
/// steps, a time every 1.25 ms.
fn run_series(steps: u64) -> Vec<MetricSeries> {
    (0..12u64)
        .map(|m| {
            let context = if m < 8 { "training" } else { "validation" };
            let mut s = MetricSeries::new(format!("metric_{m:02}"), context);
            for step in 0..steps {
                s.push(MetricPoint {
                    step,
                    epoch: (step / 100) as u32,
                    time_us: 1_700_000_000_000_000 + step as i64 * 1_250,
                    value: (m + 1) as f64 / (1.0 + step as f64).sqrt() + (step % 7) as f64 * 1e-3,
                });
            }
            s
        })
        .collect()
}

/// Points/s of `points_to_json` printing every series of `series`
/// whole, as a JSON cell.
fn series_format_cell(series: &[MetricSeries], iters: u32) -> json::Value {
    let points: usize = series.iter().map(MetricSeries::len).sum();
    let runs = rates(points, iters, || {
        for s in series {
            let mut w = JsonWriter::in_memory(false);
            begin_series(&mut w, s);
            points_to_json(&mut w, black_box(&s.points));
            end_series(&mut w);
            black_box(w.into_string());
        }
    });
    json!({
        "points": points,
        "iters": iters,
        "points_per_s": runs[RUNS / 2],
        "points_per_s_min": runs[0],
        "points_per_s_max": runs[RUNS - 1],
    })
}

/// The `prov.json` of an inline run with `steps` samples of one metric.
fn inline_run(steps: u64) -> String {
    let base = std::env::temp_dir().join(format!("bench_text_{}", std::process::id()));
    std::fs::remove_dir_all(&base).ok();
    let exp = Experiment::new("bench-text", &base).unwrap();
    let run = exp.start_run("run").unwrap();
    for step in 0..steps {
        let loss = 2.5 / (1.0 + step as f64).sqrt() + (step % 7) as f64 * 1e-3;
        run.log_metric_at(
            "loss",
            Context::Training,
            step,
            (step / 100) as u32,
            1_700_000_000_000_000 + step as i64 * 1_250,
            loss,
        );
    }
    let report = run.finish().unwrap();
    let text = std::fs::read_to_string(&report.prov_json_path).unwrap();
    std::fs::remove_dir_all(&base).ok();
    text
}

/// The first metric series the record holds inline, as its text.
fn series_of(prov_json: &str) -> String {
    let doc = json::parse(prov_json).unwrap();
    let entities = doc["entity"].as_object().unwrap();
    entities
        .values()
        .find_map(|e| e.get("yprov4ml:values")?.as_str().map(str::to_string))
        .expect("an inline series")
}

/// About `len` bytes of escape-free text: ids, labels and times as an
/// ML document prints them.
fn plain_text(len: usize) -> String {
    let mut text = String::with_capacity(len + 128);
    let mut i = 0u64;
    while text.len() < len {
        text.push_str(&format!(
            "exp:run-{i:04}/metric/training/loss_{} prov:Entity 2025-06-{:02}T12:{:02}:00Z checkpoint epoch {i}; ",
            i % 13,
            1 + i % 28,
            i % 60
        ));
        i += 1;
    }
    text
}

fn bench_texts(texts: &[(&str, &str)], iters: u32) -> json::Value {
    let mut out = json::Map::new();
    for &(name, text) in texts {
        let literal = json::to_string(|w| w.str(text));
        let unescape = cell(literal.len(), iters, || {
            let mut lex = Lexer::new(&literal);
            black_box(lex.string().unwrap());
        });
        let escape = cell(text.len(), iters, || {
            let mut w = JsonWriter::in_memory(false);
            w.str(black_box(text));
            black_box(w.into_string());
        });
        let mut doc = ProvDocument::new();
        doc.namespaces_mut().register("ex", "http://ex/").unwrap();
        doc.entity(QName::new("ex", "series"))
            .attr(QName::new("ex", "values"), AttrValue::from(text));
        let provn_quote = cell(text.len(), iters, || {
            black_box(prov_model::provn::to_provn(black_box(&doc)));
        });
        eprintln!(
            "{name} ({} bytes): unescape {:.0} MB/s, escape {:.0} MB/s, provn_quote {:.0} MB/s",
            text.len(),
            unescape["mb_per_s"].as_f64().unwrap(),
            escape["mb_per_s"].as_f64().unwrap(),
            provn_quote["mb_per_s"].as_f64().unwrap(),
        );
        out.insert(
            name.to_string(),
            json!({
                "unescape": unescape,
                "escape": escape,
                "provn_quote": provn_quote,
            }),
        );
    }
    json::Value::Object(out)
}

fn main() {
    let smoke = matches!(std::env::var("YPROV_BENCH_SMOKE"), Ok(v) if v != "0");
    let (steps, iters) = if smoke { (1_000, 2) } else { (14_000, 20) };

    let prov_json = inline_run(steps);
    let series = series_of(&prov_json);
    let plain = plain_text(series.len());
    let texts = bench_texts(&[("series", &series), ("plain", &plain)], iters);
    let from_json_str = cell(prov_json.len(), iters, || {
        black_box(ProvDocument::from_json_str(black_box(&prov_json)).unwrap());
    });
    eprintln!(
        "from_json_str ({} bytes): {:.0} MB/s",
        prov_json.len(),
        from_json_str["mb_per_s"].as_f64().unwrap()
    );
    let series_format = series_format_cell(&run_series(steps / 14), iters);
    eprintln!(
        "series_format ({} points): {:.0} points/s",
        series_format["points"].as_u64().unwrap(),
        series_format["points_per_s"].as_f64().unwrap()
    );

    let out = json!({
        "bench": "bench_text",
        "description": "String throughput in MB/s: JSON unescape (Lexer::string), \
                        JSON escape (JsonWriter::str) and PROV-N quoting (to_provn) \
                        on an inline run's metric series and on escape-free text, \
                        and ProvDocument::from_json_str on the whole inline run; \
                        series_format in points/s: points_to_json over an inline \
                        run's twelve series. Each figure is the median of `runs` runs; `_min`/`_max` \
                        are the lowest and highest run.",
        "runs": RUNS,
        // CI's bench-smoke guard greps for this: a committed file that
        // still says "pending" fails the job.
        "status": "measured",
        "smoke": smoke,
        "texts": texts,
        "from_json_str": from_json_str,
        "series_format": series_format,
    });
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_text.json");
    std::fs::write(path, format!("{out:#}\n")).unwrap();
    eprintln!("wrote {path}");
}
