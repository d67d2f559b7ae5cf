//! Regenerates **Table 1**: provenance file size in normal and
//! compressed formats, for the same run stored three ways (E1), plus
//! the §4 ">90 % gains" claim check (E6). Under the table it times
//! reading one metric back from each of the three outputs, the
//! consumer-side case for array formats.
//!
//! ```text
//! cargo run -p bench --bin table1 --release [-- <steps-per-metric>]
//! ```
//!
//! The default of 38,000 steps per metric (×12 metrics = 456 k samples)
//! produces an inline PROV-JSON of roughly the paper's 39.82 MB.

use bench::workload::table1_run_state;
use metric_store::codec::deflate_like;
use metric_store::store::path_size_bytes;
use metric_store::{MetricPoint, MetricSeries};
use prov_model::{AttrValue, ElementKind, ProvDocument, QName};
use std::path::Path;
use std::time::{Duration, Instant};
use yprov4ml::prov_emit::{build_document, RunIdentity};
use yprov4ml::spill::{read_spilled, spill_metrics, SpillPolicy};

fn mb(bytes: u64) -> f64 {
    bytes as f64 / 1_000_000.0
}

/// Gzip-equivalent compressed size of a file or directory (every file
/// run through the LZ77+Huffman pipeline, sizes summed).
fn compressed_size(path: &std::path::Path) -> u64 {
    if path.is_file() {
        return deflate_like(&std::fs::read(path).expect("read file")).len() as u64;
    }
    let mut total = 0;
    for entry in std::fs::read_dir(path).expect("read dir") {
        total += compressed_size(&entry.expect("dir entry").path());
    }
    total
}

/// Reads `name@context` back from an inline PROV-JSON file: the whole
/// document is parsed, then the metric entity's `yprov4ml:values` text.
fn read_inline(path: &Path, name: &str, context: &str) -> MetricSeries {
    let text = std::fs::read_to_string(path).expect("read json");
    let doc = ProvDocument::from_json_str(&text).expect("parse PROV-JSON");
    let context_attr = AttrValue::String(context.into());
    let metric = doc
        .iter_kind(ElementKind::Entity)
        .find(|e| {
            e.label() == Some(name) && e.attr(&QName::yprov("context")) == Some(&context_attr)
        })
        .expect("metric entity");
    let Some(AttrValue::String(values)) = metric.attr(&QName::yprov("values")) else {
        panic!("{name}@{context} has no inline values");
    };
    let tree = json::parse(values).expect("parse values"); // reads JSON
    let mut series = MetricSeries::new(name, context);
    for p in tree
        .get("points")
        .and_then(|p| p.as_array())
        .expect("points")
    {
        let field = |key: &str| p.get(key).expect("point field");
        series.push(MetricPoint {
            step: field("step").as_u64().expect("step"),
            epoch: field("epoch").as_u64().expect("epoch") as u32,
            time_us: field("time_us").as_i64().expect("time_us"),
            value: field("value").as_f64().expect("finite value"),
        });
    }
    series
}

/// The median of five timed reads, each checked against `expected`.
fn time_read(expected: &MetricSeries, read: impl Fn() -> MetricSeries) -> Duration {
    let mut times: Vec<Duration> = (0..5)
        .map(|_| {
            let start = Instant::now();
            let series = read();
            let took = start.elapsed();
            assert_eq!(&series, expected, "read back a different series");
            took
        })
        .collect();
    times.sort();
    times[2]
}

fn main() {
    let steps: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(38_000);

    let out_dir = std::env::temp_dir().join("yprov4ml_table1");
    std::fs::remove_dir_all(&out_dir).ok();
    std::fs::create_dir_all(&out_dir).expect("create output dir");

    eprintln!("generating run state ({steps} steps × 12 metrics)...");
    let state = table1_run_state(steps);
    let identity = RunIdentity {
        experiment: "table1".into(),
        run: "measured-run".into(),
        user: "bench".into(),
        started_us: 0,
        ended_us: (steps as i64) * 500_000,
    };
    let series: Vec<&metric_store::series::MetricSeries> = state.metrics.values().collect();

    // --- Row 1: Original_file.json (everything inline) -------------------
    let inline_dir = out_dir.join("inline");
    std::fs::create_dir_all(&inline_dir).expect("mkdir");
    let spill = spill_metrics(&inline_dir, &SpillPolicy::Inline, &series).expect("spill");
    let doc = build_document(&identity, &state, &spill, true);
    let json_path = inline_dir.join("Original_file.json");
    std::fs::write(&json_path, doc.to_json_string_pretty().expect("serialize"))
        .expect("write json");
    let inline_normal = path_size_bytes(&json_path).expect("stat");
    eprintln!("compressing inline json ({:.1} MB)...", mb(inline_normal));
    let inline_compressed = compressed_size(&json_path);

    // --- Row 2: Converted_to.zarr ---------------------------------------
    let zarr_dir = out_dir.join("zarr");
    std::fs::create_dir_all(&zarr_dir).expect("mkdir");
    let spill = spill_metrics(&zarr_dir, &SpillPolicy::Zarr(Default::default()), &series)
        .expect("spill zarr");
    let doc = build_document(&identity, &state, &spill, false);
    std::fs::write(
        zarr_dir.join("prov.json"),
        doc.to_json_string_pretty().expect("serialize"),
    )
    .expect("write json");
    let zarr_normal = path_size_bytes(&zarr_dir).expect("stat");
    let zarr_compressed = compressed_size(&zarr_dir);

    // --- Row 3: Converted_to.nc ------------------------------------------
    let nc_dir = out_dir.join("nc");
    std::fs::create_dir_all(&nc_dir).expect("mkdir");
    let spill = spill_metrics(&nc_dir, &SpillPolicy::NetCdf(Default::default()), &series)
        .expect("spill nc");
    let doc = build_document(&identity, &state, &spill, false);
    std::fs::write(
        nc_dir.join("prov.json"),
        doc.to_json_string_pretty().expect("serialize"),
    )
    .expect("write json");
    let nc_normal = path_size_bytes(&nc_dir).expect("stat");
    let nc_compressed = compressed_size(&nc_dir);

    // --- The table ---------------------------------------------------------
    println!("\nTable 1: Provenance file size comparison (measurements include the");
    println!("PROV-JSON and the additional metric files)\n");
    println!(
        "| {:<22} | {:>11} | {:>15} |",
        "File", "Normal Size", "Compressed Size"
    );
    println!("|{:-<24}|{:->13}|{:->17}|", "", "", "");
    for (name, normal, compressed) in [
        ("Original_file.json", inline_normal, inline_compressed),
        ("Converted_to.zarr", zarr_normal, zarr_compressed),
        ("Converted_to.nc", nc_normal, nc_compressed),
    ] {
        println!(
            "| {:<22} | {:>8.2} MB | {:>12.2} MB |",
            name,
            mb(normal),
            mb(compressed)
        );
    }

    // E6: the §4 claim — "gains of more than 90% on average".
    let zarr_gain = 100.0 * (1.0 - zarr_normal as f64 / inline_normal as f64);
    let nc_gain = 100.0 * (1.0 - nc_normal as f64 / inline_normal as f64);
    println!("\nsize reduction vs inline JSON: zarr {zarr_gain:.1} %, nc {nc_gain:.1} %");
    println!("paper reference: 39.82 -> 2.74 MB (93.1 %) and 39.82 -> 2.35 MB (94.1 %)");

    // Reading one metric back: what a consumer pays per format.
    let one = series[0];
    let (name, context) = (one.name.as_str(), one.context.as_str());
    eprintln!("reading {name}@{context} back from each output...");
    let spilled = |dir: &Path| read_spilled(dir, name, context).expect("read spilled series");
    let reads = [
        (
            "Original_file.json",
            "PROV-JSON parsed whole",
            time_read(one, || read_inline(&json_path, name, context)),
        ),
        (
            "Converted_to.zarr",
            "read_spilled",
            time_read(one, || spilled(&zarr_dir)),
        ),
        (
            "Converted_to.nc",
            "read_spilled (open decodes every series)",
            time_read(one, || spilled(&nc_dir)),
        ),
    ];
    println!(
        "\nreading one series back ({name}@{context}, {} points; median of 5):",
        one.len()
    );
    for (file, how, took) in reads {
        println!("  {file:<20} {:>10.2} ms  {how}", took.as_secs_f64() * 1e3);
    }
    println!("\n(outputs kept under {})", out_dir.display());
}
