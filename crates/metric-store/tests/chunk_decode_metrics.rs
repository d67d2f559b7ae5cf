//! The `chunk_encode` and `chunk_decode` spans: one per NetCDF variable
//! and one per Zarr chunk, each way. It is the only test in its binary,
//! so nothing else records spans while it counts.

use metric_store::netcdf::NcStore;
use metric_store::zarr::{ZarrOptions, ZarrStore};
use metric_store::{MetricPoint, MetricSeries, MetricStore, WorkerPool};

fn series(name: &str, n: usize) -> MetricSeries {
    let mut s = MetricSeries::new(name, "training");
    for i in 0..n {
        s.push(MetricPoint {
            step: i as u64,
            epoch: 0,
            time_us: 1_700_000_000_000_000 + i as i64 * 500,
            value: (i as f64 * 0.01).sin(),
        });
    }
    s
}

/// Drains the recorded spans and counts `(chunk_encode, chunk_decode)`.
fn drain_chunk_spans() -> (usize, usize) {
    let spans = obs::trace::drain();
    let count = |name: &str| spans.iter().filter(|s| s.name == name).count();
    (count("chunk_encode"), count("chunk_decode"))
}

#[test]
fn decodes_are_counted_per_variable_and_per_chunk() {
    let dir = std::env::temp_dir().join(format!("chunk_decode_metrics_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    obs::trace::set_enabled(true);
    drain_chunk_spans();
    let written: Vec<MetricSeries> = (0..12).map(|i| series(&format!("m{i}"), 200)).collect();
    let refs: Vec<&MetricSeries> = written.iter().collect();
    let nc_path = dir.join("metrics.nc");
    NcStore::create(&nc_path)
        .unwrap()
        .write_many(&refs, &WorkerPool::serial())
        .unwrap();
    assert_eq!(
        drain_chunk_spans(),
        (12, 0),
        "a write encodes every variable"
    );
    let zarr =
        ZarrStore::create(dir.join("metrics.zarr"), ZarrOptions { chunk_points: 64 }).unwrap();
    zarr.write_series(&written[0]).unwrap();
    assert_eq!(drain_chunk_spans(), (4, 0), "200 points are 4 chunks of 64");

    let store = NcStore::open(&nc_path).unwrap();
    assert_eq!(drain_chunk_spans(), (0, 12), "open decodes every variable");
    assert_eq!(store.read_series("m5", "training").unwrap(), written[5]);
    assert_eq!(drain_chunk_spans(), (0, 1), "a read decodes one variable");
    assert_eq!(zarr.read_series("m0", "training").unwrap(), written[0]);
    assert_eq!(drain_chunk_spans(), (0, 4), "200 points are 4 chunks of 64");
    obs::trace::set_enabled(false);
    std::fs::remove_dir_all(&dir).ok();
}
