//! Table-1 invariants as an integration test: the three storage
//! policies hold the same data, and their sizes order the way the paper
//! reports (inline JSON ≫ binary formats).

use metric_store::store::path_size_bytes;
use yprov4ml::model::Context;
use yprov4ml::run::RunOptions;
use yprov4ml::spill::{read_spilled, SpillPolicy};
use yprov4ml::Experiment;

const STEPS: u64 = 8_000;

fn make_run(experiment: &Experiment, name: &str, spill: SpillPolicy) -> u64 {
    let run = experiment
        .start_run_with(
            name,
            RunOptions {
                spill,
                ..Default::default()
            },
        )
        .unwrap();
    for step in 0..STEPS {
        let epoch = (step / 1_000) as u32;
        let t = step as i64 * 500_000;
        run.log_metric_at(
            "loss",
            Context::Training,
            step,
            epoch,
            t,
            2.0 / (1.0 + step as f64 * 0.001),
        );
        run.log_metric_at(
            "gpu_power_w",
            Context::Training,
            step,
            epoch,
            t,
            265.0 + (step % 7) as f64,
        );
    }
    let report = run.finish().unwrap();
    // Total footprint: PROV-JSON + any side store.
    let mut total = report.prov_json_bytes;
    if let Some(store) = &report.metric_store_path {
        total += path_size_bytes(store).unwrap();
    }
    total
}

#[test]
fn formats_hold_identical_data_with_table1_size_ordering() {
    let base = std::env::temp_dir().join(format!("yspillfmt_{}", std::process::id()));
    std::fs::remove_dir_all(&base).ok();
    let experiment = Experiment::new("formats", &base).unwrap();

    let inline_total = make_run(&experiment, "inline", SpillPolicy::Inline);
    let zarr_total = make_run(&experiment, "zarr", SpillPolicy::Zarr(Default::default()));
    let nc_total = make_run(&experiment, "nc", SpillPolicy::NetCdf(Default::default()));

    // Paper Table 1 ordering: json ≫ zarr ≈ nc.
    assert!(
        inline_total > zarr_total * 5,
        "inline {inline_total} must dwarf zarr {zarr_total}"
    );
    assert!(
        inline_total > nc_total * 5,
        "inline {inline_total} must dwarf nc {nc_total}"
    );
    // The >90 % claim (E6) at this volume.
    let zarr_gain = 1.0 - zarr_total as f64 / inline_total as f64;
    assert!(zarr_gain > 0.85, "zarr gain {zarr_gain}");

    // Spilled stores read back the exact series.
    for name in ["zarr", "nc"] {
        let dir = experiment.dir().join(name);
        let loss = read_spilled(&dir, "loss", "training").unwrap();
        assert_eq!(loss.len(), STEPS as usize);
        assert_eq!(loss.points[0].step, 0);
        assert_eq!(loss.points.last().unwrap().step, STEPS - 1);
        let power = read_spilled(&dir, "gpu_power_w", "training").unwrap();
        assert_eq!(power.len(), STEPS as usize);
    }

    // Inline mode embeds values in the PROV document itself.
    let doc = experiment.load_run_document("inline").unwrap();
    let metric = doc
        .get(&prov_model::QName::new(
            "exp",
            "inline/metric/training/loss",
        ))
        .unwrap();
    let inline_values = metric
        .attr(&prov_model::QName::yprov("values"))
        .and_then(|v| v.as_str())
        .unwrap();
    let parsed: json::Value = json::parse(inline_values).unwrap();
    assert_eq!(parsed["points"].as_array().unwrap().len(), STEPS as usize);

    // The spilled documents carry links instead.
    let doc = experiment.load_run_document("zarr").unwrap();
    let metric = doc
        .get(&prov_model::QName::new("exp", "zarr/metric/training/loss"))
        .unwrap();
    assert!(metric.attr(&prov_model::QName::yprov("values")).is_none());
    assert!(metric
        .attr(&prov_model::QName::yprov("metric_file"))
        .and_then(|v| v.as_str())
        .unwrap()
        .contains("metrics.zarr"));

    std::fs::remove_dir_all(&base).ok();
}

#[test]
fn corrupted_spill_store_is_detected_on_read() {
    let base = std::env::temp_dir().join(format!("yspillcorrupt_{}", std::process::id()));
    std::fs::remove_dir_all(&base).ok();
    let experiment = Experiment::new("corrupt", &base).unwrap();
    make_run(
        &experiment,
        "victim",
        SpillPolicy::NetCdf(Default::default()),
    );

    let nc = experiment.dir().join("victim").join("metrics.nc");
    let mut bytes = std::fs::read(&nc).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xFF;
    std::fs::write(&nc, bytes).unwrap();

    assert!(read_spilled(&experiment.dir().join("victim"), "loss", "training").is_err());
    std::fs::remove_dir_all(&base).ok();
}
